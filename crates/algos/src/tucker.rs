//! Tucker decomposition by higher-order orthogonal iteration (HOOI),
//! driven by TTM-chains — the extension the paper's conclusion names
//! ("additional operations, such as TTM-chain in Tucker decomposition").
//!
//! Each HOOI sweep updates factor `U⁽ⁿ⁾` from the leading eigenvectors of
//! the Gram matrix of `Y₍ₙ₎`, where `Y = X ×₁ U⁽¹⁾ ⋯ ×ₙ₋₁ U⁽ⁿ⁻¹⁾ ×ₙ₊₁ …` is
//! a chain of sparse TTM products.
//!
//! Every chain is one `ttm_all_but` expression graph with factor slots,
//! lowered through [`pasta_kernels::lower`] once per skip mode and reused
//! across every sweep (factors rebound per execution). The run's
//! fuse-vs-materialize choice — the [`choose_fusion`] cost model,
//! overridable via [`Ctx::fusion`](pasta_kernels::Ctx) — only changes what
//! the lowering emits: one fused pass through per-thread workspaces (no
//! intermediate sparse tensors), or the kernel-at-a-time suffix that
//! builds one semi-sparse intermediate per step. Either way the chain
//! yields `Y` with mode `n` as its only sparse mode, and the loop is the
//! same.

use crate::eig::{leading_vectors, sym_eig};
use pasta_core::{CooTensor, DenseMatrix, Error, Result, SemiCooTensor, Shape, Value};
use pasta_kernels::{
    choose_fusion, counters, lower, Bindings, CounterId, Ctx, ExprGraph, ExprOut, ExprPlan,
    FuseDecision, FusionChoice, FusionParams, MatOperand,
};

/// Tucker/HOOI options.
#[derive(Debug, Clone)]
pub struct TuckerOptions {
    /// Core ranks, one per mode.
    pub ranks: Vec<usize>,
    /// HOOI sweeps.
    pub max_iters: usize,
    /// Seed for factor initialization.
    pub seed: u64,
    /// Kernel execution context.
    pub ctx: Ctx,
}

impl Default for TuckerOptions {
    fn default() -> Self {
        Self { ranks: Vec::new(), max_iters: 5, seed: 1, ctx: Ctx::sequential() }
    }
}

/// A Tucker model: core tensor (dense, row-major) plus orthonormal factors.
#[derive(Debug, Clone)]
pub struct TuckerModel<V> {
    /// Core tensor shape (`ranks`).
    pub core_shape: Shape,
    /// Dense row-major core values.
    pub core: Vec<V>,
    /// Factor matrices `U⁽ⁿ⁾ ∈ R^{I_n × R_n}` with orthonormal columns.
    pub factors: Vec<DenseMatrix<V>>,
    /// `‖core‖ / ‖X‖` — for orthonormal factors this is the captured-energy
    /// fraction (1 is a perfect decomposition).
    pub energy: f64,
}

/// Whether this run's chains fuse (`Fuse`) or materialize (`Materialize`),
/// per the context override or the [`choose_fusion`] cost model (sized for
/// the widest chain of the run).
fn fusion_decision<V: Value>(x: &CooTensor<V>, ranks: &[usize], ctx: &Ctx) -> FusionChoice {
    match ctx.fusion {
        FusionChoice::Auto => {
            let order = x.order();
            let rank_prod: usize = ranks.iter().product();
            // Worst chain over skip modes: most output fibers × widest block.
            let out_fibers =
                (0..order).map(|n| (x.shape().dim(n) as usize).min(x.nnz())).max().unwrap_or(0);
            let dense_volume = (0..order).map(|n| rank_prod / ranks[n].max(1)).max().unwrap_or(1);
            let p = FusionParams {
                nnz: x.nnz(),
                out_fibers,
                dense_volume,
                steps: order.saturating_sub(1),
                threads: ctx.threads,
            };
            match choose_fusion(&p) {
                FuseDecision::Fuse => FusionChoice::Fuse,
                FuseDecision::Materialize => FusionChoice::Materialize,
            }
        }
        forced => forced,
    }
}

/// Runs HOOI.
///
/// # Errors
///
/// Returns an error for missing/invalid ranks or kernel failures.
///
/// # Examples
///
/// ```
/// use pasta_core::{CooTensor, Shape};
/// use pasta_algos::{tucker_hooi, TuckerOptions};
///
/// # fn main() -> Result<(), pasta_core::Error> {
/// let mut x = CooTensor::<f64>::new(Shape::new(vec![6, 6, 6]));
/// for i in 0..6u32 {
///     x.push(&[i, i, i], 1.0 + i as f64)?;
/// }
/// let model = tucker_hooi(&x, &TuckerOptions { ranks: vec![3, 3, 3], ..Default::default() })?;
/// assert_eq!(model.core_shape.dims(), &[3, 3, 3]);
/// # Ok(())
/// # }
/// ```
pub fn tucker_hooi<V: Value>(x: &CooTensor<V>, opts: &TuckerOptions) -> Result<TuckerModel<V>> {
    let order = x.order();
    if opts.ranks.len() != order {
        return Err(Error::OrderMismatch { left: order, right: opts.ranks.len() });
    }
    for (m, &r) in opts.ranks.iter().enumerate() {
        if r == 0 || r > x.shape().dim(m) as usize {
            return Err(Error::OperandMismatch {
                what: format!("rank {r} invalid for mode {m} of dimension {}", x.shape().dim(m)),
            });
        }
    }

    // HOSVD init: each factor starts from the leading eigenvectors of
    // X₍ₙ₎ X₍ₙ₎ᵀ. (Random init can drop a dominant axis permanently —
    // HOOI only refines within the retained subspaces.)
    let mut factors: Vec<DenseMatrix<V>> = (0..order)
        .map(|n| {
            let in_dim = x.shape().dim(n) as usize;
            let w = gram_of_matricization(x, n, in_dim);
            leading_vectors(&sym_eig(&w, 30), opts.ranks[n])
        })
        .collect();

    let mut ctx = opts.ctx;
    ctx.fusion = fusion_decision(x, &opts.ranks, &opts.ctx);
    // Per-run plan cache: one lowered expression plan per skip mode (index
    // `order` is the full contraction for the core), each holding its
    // skip-outermost sorted copy when fused — the sort is paid once per
    // run, not once per sweep. Factors are bound per execution through
    // slots, so the plans survive the factor updates between sweeps.
    let mut chain_plans: Vec<Option<ExprPlan<V>>> = (0..=order).map(|_| None).collect();

    for _ in 0..opts.max_iters.max(1) {
        for n in 0..order {
            // Y = X x_{m != n} U_m ; U_n <- leading eigvecs of Y_(n) Y_(n)^T.
            let plan = cached_plan(&mut chain_plans, x, &opts.ranks, n, &ctx)?;
            let y = match plan.execute(&Bindings::with_mats(factors.iter().collect()))? {
                ExprOut::Semi(y) => y,
                _ => unreachable!("partial TTM chains produce semi-sparse tensors"),
            };
            let eig = sym_eig(&gram_of_scoo(&y, x.shape().dim(n) as usize), 30);
            factors[n] = leading_vectors(&eig, opts.ranks[n]);
        }
    }

    // Core = X x_1 U_1 ... x_N U_N, densified.
    let core_shape = Shape::new(opts.ranks.iter().map(|&r| r as u32).collect());
    let plan = cached_plan(&mut chain_plans, x, &opts.ranks, order, &ctx)?;
    let core = match plan.execute(&Bindings::with_mats(factors.iter().collect()))? {
        ExprOut::Dense { vals, .. } => vals,
        ExprOut::Semi(s) => s.to_coo().to_dense(1 << 22),
        _ => unreachable!("full TTM chains produce a dense block or a semi-sparse tensor"),
    };

    let norm_x = x.vals().iter().map(|&v| (v * v).to_f64()).sum::<f64>().sqrt();
    let norm_core = core.iter().map(|&v| (v * v).to_f64()).sum::<f64>().sqrt();
    Ok(TuckerModel {
        core_shape,
        core,
        factors,
        energy: if norm_x > 0.0 { norm_core / norm_x } else { 0.0 },
    })
}

/// Lowers the `ttm_all_but(skip)` expression graph for one chain of the
/// run: every factor is a [`MatOperand::Slot`] keyed by its mode, so one
/// plan serves every sweep with the current factors bound at execute
/// time. `ctx.fusion` carries the run's decision from [`fusion_decision`]
/// (`Fuse` or `Materialize`), so every chain of the run lowers alike.
fn build_chain_plan<'x, V: Value>(
    x: &'x CooTensor<V>,
    ranks: &[usize],
    skip: usize,
    ctx: &Ctx,
) -> Result<ExprPlan<'x, V>> {
    let mut g = ExprGraph::new();
    let leaf = g.leaf(x);
    let mats: Vec<MatOperand<V>> = (0..x.order())
        .filter(|&m| m != skip)
        .map(|m| MatOperand::Slot { slot: m, cols: ranks[m] })
        .collect();
    let root = g.ttm_all_but(leaf, skip, mats)?;
    lower(&g, root, ctx)
}

/// Fetches the lowered chain plan for `skip` from the per-run cache,
/// building it on first use.
fn cached_plan<'p, 'x, V: Value>(
    plans: &'p mut [Option<ExprPlan<'x, V>>],
    x: &'x CooTensor<V>,
    ranks: &[usize],
    skip: usize,
    ctx: &Ctx,
) -> Result<&'p ExprPlan<'x, V>> {
    if plans[skip].is_none() {
        plans[skip] = Some(build_chain_plan(x, ranks, skip, ctx)?);
    } else {
        counters().add(CounterId::FusedPlanCacheHits, 1);
    }
    Ok(plans[skip].as_ref().expect("just built"))
}

/// `Y₍ₙ₎ Y₍ₙ₎ᵀ` straight from the chain's semi-sparse output, whose only
/// sparse mode is `n`: fiber `f` of `y` *is* (part of) row `i_f` of the
/// matricization (its dense block spans every column), so the Gram is
/// pairwise fiber dot products — fibers sharing an `i_f` sum correctly.
fn gram_of_scoo<V: Value>(y: &SemiCooTensor<V>, in_dim: usize) -> DenseMatrix<V> {
    let nf = y.num_fibers();
    let mut w = DenseMatrix::<V>::zeros(in_dim, in_dim);
    for f in 0..nf {
        let i = y.sparse_inds(0)[f] as usize;
        let fv = y.fiber_vals(f);
        for g in f..nf {
            let j = y.sparse_inds(0)[g] as usize;
            let mut dot = V::ZERO;
            for (a, b) in fv.iter().zip(y.fiber_vals(g)) {
                dot += *a * *b;
            }
            w.set(i, j, w.get(i, j) + dot);
            if g != f {
                w.set(j, i, w.get(j, i) + dot);
            }
        }
    }
    w
}

/// `Y₍ₙ₎ Y₍ₙ₎ᵀ` (size `I_n × I_n`) computed directly from a sparse `Y` (the
/// HOSVD initialisation passes `X` itself) without materializing the
/// matricization: group non-zeros by their non-`n` coordinates (columns of
/// `Y₍ₙ₎`) and accumulate outer products.
fn gram_of_matricization<V: Value>(y: &CooTensor<V>, n: usize, in_dim: usize) -> DenseMatrix<V> {
    let mut ys = y.clone();
    ys.sort_mode_last(n);
    let fi = pasta_core::FiberIndex::build(&ys, n);
    let mut w = DenseMatrix::<V>::zeros(in_dim, in_dim);
    for f in 0..fi.num_fibers() {
        let range = fi.fiber_range(f);
        let rows: Vec<(usize, V)> =
            range.map(|xx| (ys.mode_inds(n)[xx] as usize, ys.vals()[xx])).collect();
        for &(i, vi) in &rows {
            for &(j, vj) in &rows {
                let add = vi * vj;
                w.set(i, j, w.get(i, j) + add);
            }
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that run Tucker chains: the materialized
    /// route bumps the process-wide `fused.materialized_intermediates`
    /// counter that `fused_route_materializes_no_intermediates` asserts
    /// does not move, and cargo runs this binary's tests in parallel.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn diag_tensor(d: u32) -> CooTensor<f64> {
        let mut x = CooTensor::new(Shape::new(vec![d, d, d]));
        for i in 0..d {
            x.push(&[i, i, i], (i + 1) as f64).unwrap();
        }
        x
    }

    #[test]
    fn full_rank_captures_all_energy() {
        let _serial = serial();
        let x = diag_tensor(5);
        let m = tucker_hooi(
            &x,
            &TuckerOptions { ranks: vec![5, 5, 5], max_iters: 3, ..Default::default() },
        )
        .unwrap();
        assert!((m.energy - 1.0).abs() < 1e-6, "energy {}", m.energy);
    }

    #[test]
    fn truncated_rank_keeps_dominant_components() {
        let _serial = serial();
        // Diagonal entries 1..=6: keeping ranks (3,3,3) should capture the
        // top-3 magnitudes 6,5,4 => energy sqrt(36+25+16)/sqrt(91).
        let x = diag_tensor(6);
        let m = tucker_hooi(
            &x,
            &TuckerOptions { ranks: vec![3, 3, 3], max_iters: 4, ..Default::default() },
        )
        .unwrap();
        let expect = (77.0f64 / 91.0).sqrt();
        assert!((m.energy - expect).abs() < 0.02, "energy {} expect {expect}", m.energy);
    }

    #[test]
    fn factors_are_orthonormal() {
        let _serial = serial();
        let x = diag_tensor(6);
        let m = tucker_hooi(
            &x,
            &TuckerOptions { ranks: vec![2, 2, 2], max_iters: 3, ..Default::default() },
        )
        .unwrap();
        for u in &m.factors {
            for p in 0..u.cols() {
                for q in 0..u.cols() {
                    let mut dot = 0.0;
                    for k in 0..u.rows() {
                        dot += u.get(k, p) * u.get(k, q);
                    }
                    let want = if p == q { 1.0 } else { 0.0 };
                    assert!((dot - want).abs() < 1e-7, "({p},{q}): {dot}");
                }
            }
        }
    }

    #[test]
    fn fused_and_materialized_routes_agree() {
        let _serial = serial();
        // The fused chain must reproduce the kernel-at-a-time chain to a
        // tight budget on a non-trivial tensor.
        let mut x = CooTensor::<f64>::new(Shape::new(vec![7, 6, 5]));
        let mut s = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..60 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let c = [(s % 7) as u32, ((s >> 8) % 6) as u32, ((s >> 16) % 5) as u32];
            x.push(&c, ((s >> 24) % 100) as f64 / 10.0 - 5.0).unwrap();
        }
        x.dedup_sum();
        let opts = |fusion| TuckerOptions {
            ranks: vec![3, 3, 3],
            max_iters: 3,
            ctx: Ctx::sequential().with_fusion(fusion),
            ..Default::default()
        };
        let fused = tucker_hooi(&x, &opts(FusionChoice::Fuse)).unwrap();
        let mat = tucker_hooi(&x, &opts(FusionChoice::Materialize)).unwrap();
        assert!(
            (fused.energy - mat.energy).abs() < 1e-9,
            "fused {} vs materialized {}",
            fused.energy,
            mat.energy
        );
        for (a, b) in fused.core.iter().zip(&mat.core) {
            assert!((a.abs() - b.abs()).abs() < 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn fused_route_materializes_no_intermediates() {
        let _serial = serial();
        let x = diag_tensor(6);
        pasta_kernels::obs::set_counting(true);
        let c = counters();
        let before = c.snapshot();
        let m = tucker_hooi(
            &x,
            &TuckerOptions {
                ranks: vec![2, 2, 2],
                max_iters: 2,
                ctx: Ctx::sequential().with_fusion(FusionChoice::Fuse),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(m.energy > 0.0);
        let after = c.snapshot();
        assert_eq!(
            after[CounterId::FusedMaterialized],
            before[CounterId::FusedMaterialized],
            "fused Tucker must not materialize intermediate sparse tensors"
        );
        assert!(after[CounterId::FusedChains] > before[CounterId::FusedChains]);
        // 2 sweeps × 3 modes reuse 3 plans; the core plan is built once.
        assert!(after[CounterId::FusedPlanCacheHits] >= before[CounterId::FusedPlanCacheHits] + 3);
    }

    #[test]
    fn rejects_bad_ranks() {
        let x = diag_tensor(4);
        assert!(
            tucker_hooi(&x, &TuckerOptions { ranks: vec![2, 2], ..Default::default() }).is_err()
        );
        assert!(
            tucker_hooi(&x, &TuckerOptions { ranks: vec![2, 2, 9], ..Default::default() }).is_err()
        );
        assert!(
            tucker_hooi(&x, &TuckerOptions { ranks: vec![2, 0, 2], ..Default::default() }).is_err()
        );
    }
}
