//! Property-based tests for the fused-expression layer: lowered TTV∘TTV
//! and TTM chains, the contraction engine under both workspace kinds, and
//! the ALS sweep against composed kernel-at-a-time references, across
//! tensor orders 3–4 and pool sizes 1/2/4 — plus the no-materialization
//! counter invariant.
//!
//! The composed references here call the raw kernels directly (never a
//! materialized expression plan), so this binary's counter assertions
//! cannot race against legitimate `fused.materialized_intermediates`
//! bumps.

use pasta::algos::AlsSweep;
use pasta::core::linalg::{gram, hadamard, normalize_columns, Cholesky};
use pasta::core::{
    seeded_matrix, seeded_vector, CooTensor, DenseMatrix, DenseVector, SemiCooTensor, Shape,
};
use pasta::kernels::{
    counters, lower, mttkrp_coo, ttm_coo, ttm_scoo, ttv_coo, Bindings, ContractionPlan, CounterId,
    Ctx, ExprGraph, ExprOut, FormatKind, FusionChoice, MatOperand, VecOperand, WorkspaceKind,
};
use pasta::par::Schedule;
use pasta_conformance::oracle::worst_ulp;
use proptest::prelude::*;

fn ctx_with(threads: usize) -> Ctx {
    Ctx::new(threads, Schedule::Static)
}

/// The multi-mode TTV product over `contract`, lowered fused and
/// executed: a COO tensor over the kept modes.
fn lowered_ttv_chain(
    x: &CooTensor<f64>,
    contract: &[usize],
    vecs: &[DenseVector<f64>],
    ctx: &Ctx,
) -> CooTensor<f64> {
    let mut g = ExprGraph::new();
    let leaf = g.leaf(x);
    let ops = vecs.iter().cloned().map(VecOperand::Owned).collect();
    let root = g.ttv_multi(leaf, contract, ops).unwrap();
    let plan = lower(&g, root, &ctx.with_fusion(FusionChoice::Fuse)).unwrap();
    assert!(plan.fully_fused());
    match plan.execute(&Bindings::none()).unwrap() {
        ExprOut::Coo(y) => y,
        other => panic!("expected COO, got {other:?}"),
    }
}

/// The TTM chain over every mode but `skip` (`skip == order` contracts
/// all of them), lowered fused with the factors bound through slots.
fn lowered_ttm_chain(
    x: &CooTensor<f64>,
    factors: &[DenseMatrix<f64>],
    skip: usize,
    ctx: &Ctx,
) -> ExprOut<f64> {
    let mut g = ExprGraph::new();
    let leaf = g.leaf(x);
    let mats = (0..x.order())
        .filter(|&m| m != skip)
        .map(|m| MatOperand::Slot { slot: m, cols: factors[m].cols() })
        .collect();
    let root = g.ttm_all_but(leaf, skip, mats).unwrap();
    let plan = lower(&g, root, &ctx.with_fusion(FusionChoice::Fuse)).unwrap();
    assert!(plan.fully_fused());
    plan.execute(&Bindings::with_mats(factors.iter().collect())).unwrap()
}

/// Explicit ULP budgets. The fused chains accumulate the whole expression
/// in one pass while the composed references round once per kernel step,
/// so the chain budgets sit above the single-kernel conformance budgets;
/// the ALS budget absorbs the Cholesky solve's conditioning.
const TTV_CHAIN_ULP: u64 = 512;
const TTM_CHAIN_ULP: u64 = 1024;
const ALS_SWEEP_ULP: u64 = 4096;

const POOLS: [usize; 3] = [1, 2, 4];

fn tensor_from(dims: &[u32], entries: Vec<(Vec<u32>, f64)>) -> CooTensor<f64> {
    let mut t = CooTensor::new(Shape::new(dims.to_vec()));
    for (coords, v) in entries {
        t.push(&coords, v).unwrap();
    }
    t.dedup_sum();
    t
}

fn entries3() -> impl Strategy<Value = Vec<(Vec<u32>, f64)>> {
    proptest::collection::vec(
        ((0u32..10, 0u32..7, 0u32..6), -50i32..50)
            .prop_map(|((i, j, k), v)| (vec![i, j, k], f64::from(v) / 8.0)),
        1..50,
    )
}

fn entries4() -> impl Strategy<Value = Vec<(Vec<u32>, f64)>> {
    proptest::collection::vec(
        ((0u32..6, 0u32..5, 0u32..4, 0u32..3), -50i32..50)
            .prop_map(|((i, j, k, l), v)| (vec![i, j, k, l], f64::from(v) / 8.0)),
        1..40,
    )
}

/// Kernel-at-a-time TTV chain: contracts the given modes one `ttv_coo` at
/// a time, materializing each intermediate. Contracts the highest mode
/// first so the remaining mode indices stay valid.
fn composed_ttv_chain(
    x: &CooTensor<f64>,
    contract: &[usize],
    vecs: &[DenseVector<f64>],
    ctx: &Ctx,
) -> CooTensor<f64> {
    let mut cur = x.clone();
    for (j, &m) in contract.iter().enumerate().rev() {
        cur = ttv_coo(&cur, &vecs[j], m, ctx).unwrap();
    }
    cur
}

/// Kernel-at-a-time TTM chain (the materialized expression suffix,
/// restated over the raw kernels so no fused counters are touched).
fn composed_ttm_chain(
    x: &CooTensor<f64>,
    factors: &[DenseMatrix<f64>],
    skip: usize,
    ctx: &Ctx,
) -> CooTensor<f64> {
    let mut semi: Option<SemiCooTensor<f64>> = None;
    for (n, u) in factors.iter().enumerate() {
        if n == skip {
            continue;
        }
        semi = Some(match semi {
            None => ttm_coo(x, u, n, ctx).unwrap(),
            Some(prev) if prev.dense_modes().len() + 1 >= prev.shape().order() => {
                ttm_coo(&prev.to_coo(), u, n, ctx).unwrap()
            }
            Some(prev) => ttm_scoo(&prev, u, n, ctx).unwrap(),
        });
    }
    match semi {
        Some(s) => s.to_coo(),
        None => x.clone(),
    }
}

/// One kernel-at-a-time ALS sweep (MTTKRP, recomputed Grams, Cholesky
/// solve, normalize), mutating `factors`/`lambda` in place. Returns false
/// when the Gram Hadamard is singular (degenerate case).
fn composed_als_sweep(
    x: &CooTensor<f64>,
    factors: &mut [DenseMatrix<f64>],
    lambda: &mut [f64],
    ctx: &Ctx,
) -> bool {
    for n in 0..x.order() {
        let m_out = mttkrp_coo(x, factors, n, ctx).unwrap();
        let mut v: Option<DenseMatrix<f64>> = None;
        for (m, f) in factors.iter().enumerate() {
            if m == n {
                continue;
            }
            let g = gram(f);
            v = Some(match v {
                Some(acc) => hadamard(&acc, &g),
                None => g,
            });
        }
        let Some(ch) = Cholesky::factor(&v.expect("order >= 2"), 1e-10) else {
            return false;
        };
        let mut a = m_out;
        ch.solve_rows(&mut a);
        let norms = normalize_columns(&mut a);
        for (l, nn) in lambda.iter_mut().zip(&norms) {
            *l = if *nn == 0.0 { 0.0 } else { *nn };
        }
        factors[n] = a;
    }
    true
}

fn unit_factors(x: &CooTensor<f64>, rank: usize, seed: u64) -> Vec<DenseMatrix<f64>> {
    (0..x.order())
        .map(|m| {
            let mut f = seeded_matrix(x.shape().dim(m) as usize, rank, seed + m as u64);
            normalize_columns(&mut f);
            f
        })
        .collect()
}

fn check_ttv_chain(x: &CooTensor<f64>, contract: &[usize]) {
    let vecs: Vec<DenseVector<f64>> =
        contract.iter().map(|&m| seeded_vector(x.shape().dim(m) as usize, 17 + m as u64)).collect();
    let refs: Vec<&DenseVector<f64>> = vecs.iter().collect();
    let want = composed_ttv_chain(x, contract, &vecs, &Ctx::sequential()).to_dense(1 << 22);
    for threads in POOLS {
        let ctx = ctx_with(threads);
        // The lowered graph (workspace picked per execution)…
        let lowered = lowered_ttv_chain(x, contract, &vecs, &ctx);
        let w = worst_ulp(&lowered.to_dense(1 << 22), &want).unwrap_or(u64::MAX);
        assert!(w <= TTV_CHAIN_ULP, "t{threads} lowered: worst {w} ULP");
        // …and the contraction engine under both workspace kinds
        // explicitly: each must agree with the lowered route's fiber
        // values to the same budget.
        let plan = ContractionPlan::new(x.clone(), contract, &[], &ctx).unwrap();
        for kind in [WorkspaceKind::Dense, WorkspaceKind::Sparse] {
            let mut vals = vec![0.0f64; plan.num_fibers()];
            plan.execute_into(&refs, &[], &mut vals, &ctx, kind).unwrap();
            let w = worst_ulp(&vals, lowered.vals()).unwrap_or(u64::MAX);
            assert!(w <= TTV_CHAIN_ULP, "t{threads} {kind}: worst {w} ULP vs lowered route");
        }
    }
}

fn check_ttm_chain(x: &CooTensor<f64>, rank: usize) {
    let factors: Vec<DenseMatrix<f64>> = (0..x.order())
        .map(|m| seeded_matrix(x.shape().dim(m) as usize, rank, 29 + m as u64))
        .collect();
    for skip in 0..x.order() {
        let want = composed_ttm_chain(x, &factors, skip, &Ctx::sequential()).to_dense(1 << 22);
        for threads in POOLS {
            let got = match lowered_ttm_chain(x, &factors, skip, &ctx_with(threads)) {
                ExprOut::Semi(y) => y.to_coo().to_dense(1 << 22),
                other => panic!("expected semi-sparse, got {other:?}"),
            };
            let w = worst_ulp(&got, &want).unwrap_or(u64::MAX);
            assert!(w <= TTM_CHAIN_ULP, "skip {skip} t{threads}: worst {w} ULP");
        }
    }
    // Full contraction (the Tucker core) against the composed chain.
    let want = composed_ttm_chain(x, &factors, x.order(), &Ctx::sequential()).to_dense(1 << 22);
    for threads in POOLS {
        let got = match lowered_ttm_chain(x, &factors, x.order(), &ctx_with(threads)) {
            ExprOut::Dense { vals, .. } => vals,
            other => panic!("expected a dense block, got {other:?}"),
        };
        let w = worst_ulp(&got, &want).unwrap_or(u64::MAX);
        assert!(w <= TTM_CHAIN_ULP, "full t{threads}: worst {w} ULP");
    }
}

fn check_als_sweep(x: &CooTensor<f64>, rank: usize, sweeps: usize) {
    for threads in POOLS {
        let ctx = ctx_with(threads);
        let mut ff = unit_factors(x, rank, 5);
        let mut lf = vec![1.0f64; rank];
        let mut plan = AlsSweep::new(x, FormatKind::Coo, 0, &ff, &ctx).unwrap();
        let mut fm = unit_factors(x, rank, 5);
        let mut lm = vec![1.0f64; rank];
        for _ in 0..sweeps {
            if !composed_als_sweep(x, &mut fm, &mut lm, &ctx) {
                // Degenerate Gram: the sweep must reject it too.
                assert!(plan.sweep(&mut ff, &mut lf).is_err());
                return;
            }
            plan.sweep(&mut ff, &mut lf).unwrap();
        }
        for (a, b) in ff.iter().zip(&fm) {
            let w = worst_ulp(a.as_slice(), b.as_slice()).unwrap_or(u64::MAX);
            assert!(w <= ALS_SWEEP_ULP, "t{threads} factors: worst {w} ULP");
        }
        let w = worst_ulp(&lf, &lm).unwrap_or(u64::MAX);
        assert!(w <= ALS_SWEEP_ULP, "t{threads} lambda: worst {w} ULP");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused TTV∘TTV equals the composed two-TTV chain, order 3.
    #[test]
    fn prop_ttv_chain_order3(entries in entries3()) {
        let x = tensor_from(&[10, 7, 6], entries);
        check_ttv_chain(&x, &[1, 2]);
    }

    /// Fused TTV∘TTV equals the composed chain on order 4, including a
    /// non-adjacent contracted-mode pair.
    #[test]
    fn prop_ttv_chain_order4(entries in entries4()) {
        let x = tensor_from(&[6, 5, 4, 3], entries);
        check_ttv_chain(&x, &[2, 3]);
        check_ttv_chain(&x, &[1, 3]);
    }

    /// Fused TTM chains (every skip mode + full contraction) equal the
    /// kernel-at-a-time chain, order 3.
    #[test]
    fn prop_ttm_chain_order3(entries in entries3()) {
        let x = tensor_from(&[10, 7, 6], entries);
        check_ttm_chain(&x, 3);
    }

    /// Fused TTM chains equal the kernel-at-a-time chain, order 4.
    #[test]
    fn prop_ttm_chain_order4(entries in entries4()) {
        let x = tensor_from(&[6, 5, 4, 3], entries);
        check_ttm_chain(&x, 2);
    }

    /// The fused ALS sweep tracks the kernel-at-a-time sweep over multiple
    /// iterations, order 3.
    #[test]
    fn prop_als_sweep_order3(entries in entries3()) {
        let x = tensor_from(&[10, 7, 6], entries);
        check_als_sweep(&x, 2, 3);
    }

    /// The fused ALS sweep tracks the kernel-at-a-time sweep, order 4.
    #[test]
    fn prop_als_sweep_order4(entries in entries4()) {
        let x = tensor_from(&[6, 5, 4, 3], entries);
        check_als_sweep(&x, 2, 2);
    }
}

/// The acceptance invariant: fused execution materializes no intermediate
/// sparse tensors — the counter only moves on the kernel-at-a-time paths,
/// none of which run in this test binary.
#[test]
fn fused_paths_materialize_no_intermediates() {
    let x = tensor_from(
        &[10, 7, 6],
        (0..60u32).map(|i| (vec![i % 10, (i * 3) % 7, (i * 5) % 6], f64::from(i) - 30.0)).collect(),
    );
    let ctx = ctx_with(2);
    pasta::obs::set_counting(true);
    let before = counters().snapshot();

    let vecs = [seeded_vector::<f64>(7, 1), seeded_vector::<f64>(6, 2)];
    lowered_ttv_chain(&x, &[1, 2], &vecs, &ctx);

    let factors: Vec<DenseMatrix<f64>> =
        (0..3).map(|m| seeded_matrix(x.shape().dim(m) as usize, 3, m as u64)).collect();
    lowered_ttm_chain(&x, &factors, 0, &ctx);
    lowered_ttm_chain(&x, &factors, 3, &ctx);

    let mut ff = unit_factors(&x, 2, 9);
    let mut lf = vec![1.0f64; 2];
    let mut als = AlsSweep::new(&x, FormatKind::Coo, 0, &ff, &ctx).unwrap();
    als.sweep(&mut ff, &mut lf).unwrap();

    let after = counters().snapshot();
    assert_eq!(
        after[CounterId::FusedMaterialized],
        before[CounterId::FusedMaterialized],
        "fused paths must not materialize intermediate sparse tensors"
    );
    assert!(after[CounterId::FusedChains] >= before[CounterId::FusedChains] + 4);
    assert!(after[CounterId::FusedWorkspaceBytes] > before[CounterId::FusedWorkspaceBytes]);
}
