//! CANDECOMP/PARAFAC decomposition via alternating least squares (CP-ALS).
//!
//! The application that makes MTTKRP "the most computationally expensive
//! kernel" in the paper (Section II-E): each ALS sweep updates every factor
//! matrix with one MTTKRP, a Hadamard product of Gram matrices and a small
//! SPD solve.
//!
//! Every run drives one [`AlsSweep`]: a `mttkrp(leaf)` expression graph
//! lowered once per run through [`lower`], plus a Gram cache. The
//! [`Ctx::fusion`] choice only changes what the lowering emits — a cached
//! MTTKRP head (per-mode plans, the one-time HiCOO conversion) or the
//! kernel-at-a-time suffix that calls the MTTKRP kernel directly — never
//! the ALS loop.

use pasta_core::linalg::{gram, hadamard, normalize_columns, Cholesky};
use pasta_core::{seeded_matrix, CooTensor, DenseMatrix, Error, Result, Value};
use pasta_kernels::obs::span_detail;
use pasta_kernels::{
    counters, lower, Bindings, CounterId, Ctx, ExprGraph, ExprOut, ExprPlan, FormatKind,
};

/// Which kernel backend CP-ALS drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpdBackend {
    /// COO-MTTKRP.
    Coo,
    /// HiCOO-MTTKRP with the given block size.
    Hicoo(u32),
}

/// CP-ALS options.
#[derive(Debug, Clone, Copy)]
pub struct CpdOptions {
    /// Decomposition rank `R`.
    pub rank: usize,
    /// Maximum ALS sweeps.
    pub max_iters: usize,
    /// Stop when the fit improves by less than this between sweeps.
    pub tol: f64,
    /// Seed for the random factor initialization.
    pub seed: u64,
    /// Kernel execution context.
    pub ctx: Ctx,
    /// Kernel backend.
    pub backend: CpdBackend,
}

impl Default for CpdOptions {
    fn default() -> Self {
        Self {
            rank: 16,
            max_iters: 50,
            tol: 1e-5,
            seed: 1,
            ctx: Ctx::sequential(),
            backend: CpdBackend::Coo,
        }
    }
}

impl CpdOptions {
    /// The MTTKRP format and HiCOO block size this run drives.
    fn route(&self) -> (FormatKind, u32) {
        match self.backend {
            CpdBackend::Coo => (FormatKind::Coo, 0),
            CpdBackend::Hicoo(b) => (FormatKind::Hicoo, b),
        }
    }
}

/// A rank-`R` CP model: `X ≈ Σ_r λ_r · a_r⁽¹⁾ ∘ ⋯ ∘ a_r⁽ᴺ⁾`.
#[derive(Debug, Clone)]
pub struct CpdModel<V> {
    /// Factor matrices, one per mode, with unit-norm columns.
    pub factors: Vec<DenseMatrix<V>>,
    /// Component weights `λ`.
    pub lambda: Vec<V>,
    /// Final fit `1 − ‖X − X̂‖ / ‖X‖` (1 is perfect).
    pub fit: f64,
    /// ALS sweeps performed.
    pub iters: usize,
}

impl<V: Value> CpdModel<V> {
    /// Evaluates the model at one coordinate tuple.
    pub fn predict(&self, coords: &[u32]) -> V {
        let r = self.lambda.len();
        let mut acc = V::ZERO;
        for rr in 0..r {
            let mut prod = self.lambda[rr];
            for (m, &c) in coords.iter().enumerate() {
                prod *= self.factors[m].get(c as usize, rr);
            }
            acc += prod;
        }
        acc
    }
}

/// Runs CP-ALS on a sparse tensor.
///
/// # Errors
///
/// Returns an error for a zero rank, an order-one tensor, or kernel
/// failures.
///
/// # Examples
///
/// ```
/// use pasta_core::{CooTensor, Shape};
/// use pasta_algos::{cp_als, CpdOptions};
///
/// # fn main() -> Result<(), pasta_core::Error> {
/// // A rank-1 tensor decomposes exactly.
/// let mut x = CooTensor::<f32>::new(Shape::new(vec![4, 4, 4]));
/// for i in 0..4u32 {
///     for j in 0..4u32 {
///         x.push(&[i, j, (i + j) % 4], 1.0)?;
///     }
/// }
/// let model = cp_als(&x, &CpdOptions { rank: 8, max_iters: 30, ..Default::default() })?;
/// assert!(model.fit > 0.5);
/// # Ok(())
/// # }
/// ```
pub fn cp_als<V: Value>(x: &CooTensor<V>, opts: &CpdOptions) -> Result<CpdModel<V>> {
    if opts.rank == 0 {
        return Err(Error::OperandMismatch { what: "rank must be positive".into() });
    }
    if x.order() < 2 {
        return Err(Error::InvalidMode { mode: 0, order: x.order() });
    }
    let order = x.order();
    let r = opts.rank;

    // Random init with unit-norm columns.
    let mut factors: Vec<DenseMatrix<V>> = (0..order)
        .map(|m| {
            let mut f = seeded_matrix::<V>(x.shape().dim(m) as usize, r, opts.seed + m as u64);
            normalize_columns(&mut f);
            f
        })
        .collect();
    let mut lambda = vec![V::ONE; r];

    let norm_x = x.vals().iter().map(|&v| (v * v).to_f64()).sum::<f64>().sqrt();
    let mut fit = 0.0f64;
    let mut iters = 0;

    // Fusing the ALS sweep never enlarges the working set (the per-mode
    // outputs are the factor matrices themselves), so `Auto` fuses;
    // `Materialize` lowers the MTTKRP edge to the kernel-at-a-time suffix.
    let (format, block) = opts.route();
    let mut plan = AlsSweep::new(x, format, block, &factors, &opts.ctx)?;
    for sweep in 0..opts.max_iters {
        iters = sweep + 1;
        plan.sweep(&mut factors, &mut lambda)?;
        let new_fit = compute_fit(x, &factors, &lambda, norm_x, &plan.gram_hadamard());
        if sweep > 0 && (new_fit - fit).abs() < opts.tol {
            fit = new_fit;
            break;
        }
        fit = new_fit;
    }
    Ok(CpdModel { factors, lambda, fit, iters })
}

/// One CP-ALS sweep: MTTKRP → Hadamard-of-Grams → Cholesky solve →
/// normalize for every mode, with the sweep-invariant products cached
/// across iterations.
///
/// The per-run MTTKRP state is a lowered expression plan — a one-edge
/// graph `mttkrp(leaf)` run through [`lower`] under the context's fusion
/// choice. Fused, its head caches the per-mode
/// [`MttkrpCooPlan`](pasta_kernels::MttkrpCooPlan)s (built only where the
/// schedule analysis says a mode-outermost re-sort pays off) or the
/// one-time HiCOO conversion; materialized, the edge runs kernel-at-a-time
/// each call. Arithmetic is bit-identical either way — the fused wins come
/// from *not redoing work*:
///
/// - per-mode MTTKRP plans and conversions are built once per run instead
///   of once per sweep;
/// - factor Gram matrices are cached and updated incrementally — one
///   `gram()` per factor update instead of `N−1` per mode plus `N` more
///   for the fit, collapsing `O(N²)` Gram computations per sweep to
///   `O(N)`.
#[derive(Debug)]
pub struct AlsSweep<'a, V> {
    x: &'a CooTensor<V>,
    format: FormatKind,
    plan: ExprPlan<'a, V>,
    grams: Vec<DenseMatrix<V>>,
    rank: usize,
}

impl<'a, V: Value> AlsSweep<'a, V> {
    /// Builds the per-run plan: validates the factor set, lowers the
    /// MTTKRP expression graph (which validates the route against the
    /// registry and converts/sorts as the schedule analysis dictates when
    /// the edge fuses), and seeds the Gram cache from the initial factors.
    ///
    /// # Errors
    ///
    /// Rejects factor shape mismatches and, when the edge fuses,
    /// unregistered routes and non-COO/HiCOO formats (a materialized
    /// sweep rejects those on its first MTTKRP).
    pub fn new(
        x: &'a CooTensor<V>,
        format: FormatKind,
        block: u32,
        factors: &[DenseMatrix<V>],
        ctx: &Ctx,
    ) -> Result<Self> {
        let order = x.order();
        if factors.len() != order {
            return Err(Error::OperandMismatch {
                what: format!("expected {order} factor matrices, got {}", factors.len()),
            });
        }
        let rank = factors[0].cols();
        for (m, f) in factors.iter().enumerate() {
            if f.cols() != rank || f.rows() != x.shape().dim(m) as usize {
                return Err(Error::OperandMismatch {
                    what: format!(
                        "factor {m} is {}×{} but mode {m} needs {}×{rank}",
                        f.rows(),
                        f.cols(),
                        x.shape().dim(m)
                    ),
                });
            }
        }
        let mut g = ExprGraph::new();
        let leaf = g.leaf(x);
        let root = g.mttkrp(leaf, rank, format, block)?;
        let plan = lower(&g, root, ctx)?;
        let grams = factors.iter().map(gram).collect();
        Ok(Self { x, format, plan, grams, rank })
    }

    /// Runs one ALS sweep in place: for each mode, MTTKRP through the
    /// lowered plan, solve against the cached Grams, normalize, and update
    /// the mode's Gram.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors; fails when the Gram Hadamard product is
    /// not positive definite.
    pub fn sweep(&mut self, factors: &mut [DenseMatrix<V>], lambda: &mut [V]) -> Result<()> {
        let order = self.x.order();
        let c = counters();
        c.add(CounterId::FusedChains, 1);
        let _span = span_detail(
            "kernel",
            "fused.als_sweep",
            self.format.label(),
            self.x.nnz() as u64,
            self.rank as u64,
            0,
        );
        for n in 0..order {
            let m_out = match self.plan.execute(&Bindings::mttkrp(factors, n))? {
                ExprOut::Matrix(m) => m,
                _ => unreachable!("mttkrp graphs produce matrices"),
            };
            // V = hadamard of the cached grams of all factors but n, folded
            // in increasing mode order (bit-identical to recomputing each
            // gram in a kernel-at-a-time loop).
            let mut v: Option<DenseMatrix<V>> = None;
            for m in 0..order {
                if m == n {
                    continue;
                }
                c.add(CounterId::FusedPlanCacheHits, 1);
                v = Some(match v {
                    Some(acc) => hadamard(&acc, &self.grams[m]),
                    None => self.grams[m].clone(),
                });
            }
            let v = v.expect("order >= 2");
            let ridge = V::from_f64(1e-10);
            let ch = Cholesky::factor(&v, ridge).ok_or_else(|| Error::OperandMismatch {
                what: "gram Hadamard product not positive definite".into(),
            })?;
            let mut a = m_out;
            ch.solve_rows(&mut a);
            for (l, &nn) in lambda.iter_mut().zip(&normalize_columns(&mut a)) {
                *l = nn;
            }
            self.grams[n] = gram(&a);
            factors[n] = a;
        }
        Ok(())
    }

    /// The Hadamard product of *all* cached Grams (`∘_m A_mᵀA_m`), folded
    /// in mode order — the model-norm term of the fit computation, reusing
    /// the sweep's cache instead of recomputing every Gram.
    pub fn gram_hadamard(&self) -> DenseMatrix<V> {
        let c = counters();
        let mut had: Option<DenseMatrix<V>> = None;
        for g in &self.grams {
            c.add(CounterId::FusedPlanCacheHits, 1);
            had = Some(match had {
                Some(acc) => hadamard(&acc, g),
                None => g.clone(),
            });
        }
        had.expect("at least one factor")
    }
}

/// `1 − ‖X − X̂‖ / ‖X‖` computed without materializing `X̂`:
/// `‖X − X̂‖² = ‖X‖² − 2⟨X, X̂⟩ + ‖X̂‖²`. The caller supplies
/// `had = ∘_m A_mᵀA_m`, folded from the sweep's Gram cache.
fn compute_fit<V: Value>(
    x: &CooTensor<V>,
    factors: &[DenseMatrix<V>],
    lambda: &[V],
    norm_x: f64,
    had: &DenseMatrix<V>,
) -> f64 {
    let r = lambda.len();
    let order = x.order();
    // <X, model>: one pass over non-zeros.
    let mut inner = 0.0f64;
    for xx in 0..x.nnz() {
        let val = x.vals()[xx];
        let mut s = V::ZERO;
        for rr in 0..r {
            let mut prod = lambda[rr];
            for m in 0..order {
                prod *= factors[m].get(x.mode_inds(m)[xx] as usize, rr);
            }
            s += prod;
        }
        inner += (val * s).to_f64();
    }
    // ||model||^2 = λᵀ (∘_m A_mᵀA_m) λ.
    let mut norm_model_sq = 0.0f64;
    for p in 0..r {
        for q in 0..r {
            norm_model_sq += (lambda[p] * had.get(p, q) * lambda[q]).to_f64();
        }
    }
    let resid_sq = (norm_x * norm_x - 2.0 * inner + norm_model_sq).max(0.0);
    1.0 - resid_sq.sqrt() / norm_x.max(1e-300)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasta_core::{HiCooTensor, Shape};
    use pasta_kernels::{mttkrp_coo, mttkrp_hicoo, FusionChoice};

    /// Builds an exactly rank-`r` tensor from random factors.
    fn rank_r_tensor(dims: &[u32], r: usize, seed: u64) -> CooTensor<f64> {
        let factors: Vec<DenseMatrix<f64>> = dims
            .iter()
            .enumerate()
            .map(|(m, &d)| seeded_matrix(d as usize, r, seed + m as u64))
            .collect();
        let mut t = CooTensor::new(Shape::new(dims.to_vec()));
        let mut coords = vec![0u32; dims.len()];
        fill(&mut t, &factors, &mut coords, 0);
        t
    }

    fn fill(
        t: &mut CooTensor<f64>,
        factors: &[DenseMatrix<f64>],
        coords: &mut Vec<u32>,
        mode: usize,
    ) {
        if mode == factors.len() {
            let mut v = 0.0;
            for rr in 0..factors[0].cols() {
                let mut p = 1.0;
                for (m, &c) in coords.iter().enumerate() {
                    p *= factors[m].get(c as usize, rr);
                }
                v += p;
            }
            t.push(coords, v).unwrap();
            return;
        }
        for c in 0..factors[mode].rows() as u32 {
            coords[mode] = c;
            fill(t, factors, coords, mode + 1);
        }
    }

    #[test]
    fn recovers_exact_low_rank() {
        let x = rank_r_tensor(&[6, 5, 4], 2, 42);
        let model =
            cp_als(&x, &CpdOptions { rank: 2, max_iters: 200, tol: 1e-12, ..Default::default() })
                .unwrap();
        assert!(model.fit > 0.99, "fit {}", model.fit);
        assert_eq!(model.factors.len(), 3);
        assert_eq!(model.lambda.len(), 2);
    }

    #[test]
    fn hicoo_backend_matches_coo() {
        let x = rank_r_tensor(&[6, 6, 6], 2, 7);
        let coo =
            cp_als(&x, &CpdOptions { rank: 2, max_iters: 20, tol: 0.0, ..Default::default() })
                .unwrap();
        let hic = cp_als(
            &x,
            &CpdOptions {
                rank: 2,
                max_iters: 20,
                tol: 0.0,
                backend: CpdBackend::Hicoo(4),
                ..Default::default()
            },
        )
        .unwrap();
        // Same arithmetic path, deterministic init: identical trajectories.
        assert!((coo.fit - hic.fit).abs() < 1e-9, "{} vs {}", coo.fit, hic.fit);
    }

    #[test]
    fn fit_improves_with_rank() {
        let x = rank_r_tensor(&[8, 7, 6], 3, 11);
        let low = cp_als(&x, &CpdOptions { rank: 1, max_iters: 60, ..Default::default() }).unwrap();
        let high =
            cp_als(&x, &CpdOptions { rank: 3, max_iters: 60, tol: 1e-9, ..Default::default() })
                .unwrap();
        assert!(high.fit > low.fit, "{} vs {}", high.fit, low.fit);
    }

    #[test]
    fn predict_matches_tensor_for_perfect_fit() {
        let x = rank_r_tensor(&[5, 4, 3], 1, 3);
        let m =
            cp_als(&x, &CpdOptions { rank: 1, max_iters: 100, tol: 1e-13, ..Default::default() })
                .unwrap();
        for (coords, val) in x.iter().take(10) {
            let got = m.predict(&coords);
            assert!(got.approx_eq(val, 1e-3), "{got} vs {val}");
        }
    }

    #[test]
    fn fourth_order_converges() {
        let x = rank_r_tensor(&[4, 4, 4, 4], 2, 9);
        let m =
            cp_als(&x, &CpdOptions { rank: 2, max_iters: 150, tol: 1e-12, ..Default::default() })
                .unwrap();
        assert!(m.fit > 0.99, "fit {}", m.fit);
    }

    #[test]
    fn fused_sweep_is_bit_identical_to_kernel_at_a_time() {
        // The fused route caches plans and Grams but performs the same
        // arithmetic in the same order, so trajectories are identical —
        // not merely close.
        let x = rank_r_tensor(&[7, 6, 5], 3, 13);
        let run = |fusion| {
            cp_als(
                &x,
                &CpdOptions {
                    rank: 3,
                    max_iters: 15,
                    tol: 0.0,
                    ctx: Ctx::sequential().with_fusion(fusion),
                    ..Default::default()
                },
            )
            .unwrap()
        };
        let fused = run(FusionChoice::Auto);
        let mat = run(FusionChoice::Materialize);
        assert_eq!(fused.fit, mat.fit);
        assert_eq!(fused.lambda, mat.lambda);
        for (a, b) in fused.factors.iter().zip(&mat.factors) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    /// The independent reference: a kernel-at-a-time CP-ALS run that
    /// calls the MTTKRP kernels directly and recomputes every Gram, with
    /// its own fit arithmetic — nothing shared with [`AlsSweep`].
    fn reference_cp_als(x: &CooTensor<f64>, opts: &CpdOptions) -> CpdModel<f64> {
        let (order, r, ctx) = (x.order(), opts.rank, &opts.ctx);
        let mut factors: Vec<DenseMatrix<f64>> = (0..order)
            .map(|m| {
                let mut f = seeded_matrix(x.shape().dim(m) as usize, r, opts.seed + m as u64);
                normalize_columns(&mut f);
                f
            })
            .collect();
        let mut lambda = vec![1.0f64; r];
        let hicoo = match opts.backend {
            CpdBackend::Coo => None,
            CpdBackend::Hicoo(b) => Some(HiCooTensor::from_coo(x, b).unwrap()),
        };
        let norm_x = x.vals().iter().map(|&v| v * v).sum::<f64>().sqrt();
        let grams_hadamard = |fs: &[DenseMatrix<f64>], skip: usize| {
            let mut had: Option<DenseMatrix<f64>> = None;
            for (m, f) in fs.iter().enumerate() {
                if m != skip {
                    let g = gram(f);
                    had = Some(match had {
                        Some(acc) => hadamard(&acc, &g),
                        None => g,
                    });
                }
            }
            had.unwrap()
        };
        let (mut fit, mut iters) = (0.0f64, 0);
        for sweep in 0..opts.max_iters {
            iters = sweep + 1;
            for n in 0..order {
                let mut a = match &hicoo {
                    Some(h) => mttkrp_hicoo(h, &factors, n, ctx).unwrap(),
                    None => mttkrp_coo(x, &factors, n, ctx).unwrap(),
                };
                let ch = Cholesky::factor(&grams_hadamard(&factors, n), 1e-10).unwrap();
                ch.solve_rows(&mut a);
                lambda = normalize_columns(&mut a);
                factors[n] = a;
            }
            let mut inner = 0.0f64;
            for e in 0..x.nnz() {
                let mut s = 0.0f64;
                for rr in 0..r {
                    let mut prod = lambda[rr];
                    for m in 0..order {
                        prod *= factors[m].get(x.mode_inds(m)[e] as usize, rr);
                    }
                    s += prod;
                }
                inner += x.vals()[e] * s;
            }
            let had = grams_hadamard(&factors, order);
            let mut norm_model_sq = 0.0f64;
            for p in 0..r {
                for q in 0..r {
                    norm_model_sq += lambda[p] * had.get(p, q) * lambda[q];
                }
            }
            let resid_sq = (norm_x * norm_x - 2.0 * inner + norm_model_sq).max(0.0);
            let new_fit = 1.0 - resid_sq.sqrt() / norm_x.max(1e-300);
            let done = sweep > 0 && (new_fit - fit).abs() < opts.tol;
            fit = new_fit;
            if done {
                break;
            }
        }
        CpdModel { factors, lambda, fit, iters }
    }

    #[test]
    fn als_sweep_matches_kernel_at_a_time_loop() {
        let x = rank_r_tensor(&[7, 6, 5], 3, 23);
        for backend in [CpdBackend::Coo, CpdBackend::Hicoo(4)] {
            for fusion in [FusionChoice::Auto, FusionChoice::Materialize] {
                for threads in [1usize, 2] {
                    let opts = CpdOptions {
                        rank: 3,
                        max_iters: 8,
                        tol: 1e-6,
                        ctx: Ctx::new(threads, pasta_par::Schedule::Static).with_fusion(fusion),
                        backend,
                        ..Default::default()
                    };
                    let what = format!("{backend:?} {fusion:?} t{threads}");
                    let got = cp_als(&x, &opts).unwrap();
                    let want = reference_cp_als(&x, &opts);
                    assert_eq!(got.iters, want.iters, "{what}: iters");
                    assert_eq!(got.fit.to_bits(), want.fit.to_bits(), "{what}: fit");
                    assert_eq!(got.lambda, want.lambda, "{what}: lambda");
                    for (a, b) in got.factors.iter().zip(&want.factors) {
                        assert_eq!(a.as_slice(), b.as_slice(), "{what}: factors");
                    }
                }
            }
        }
    }

    #[test]
    fn als_sweep_rejects_bad_routes() {
        let x = rank_r_tensor(&[4, 4], 1, 1);
        let ctx = Ctx::sequential();
        let f: Vec<DenseMatrix<f64>> = (0..2).map(|m| seeded_matrix(4, 2, m)).collect();
        assert!(AlsSweep::new(&x, FormatKind::Scoo, 0, &f, &ctx).is_err());
        assert!(AlsSweep::new(&x, FormatKind::Coo, 0, &f[..1], &ctx).is_err());
        let ragged = vec![f[0].clone(), seeded_matrix(4, 3, 9)];
        assert!(AlsSweep::new(&x, FormatKind::Coo, 0, &ragged, &ctx).is_err());
    }

    #[test]
    fn fused_sweep_reuses_plans_across_iterations() {
        use pasta_kernels::{counters, CounterId};
        let x = rank_r_tensor(&[6, 6, 6], 2, 21);
        pasta_kernels::obs::set_counting(true);
        let before = counters().snapshot();
        let m = cp_als(
            &x,
            &CpdOptions {
                rank: 2,
                max_iters: 10,
                tol: 0.0,
                backend: CpdBackend::Hicoo(4),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(m.fit > 0.9);
        let after = counters().snapshot();
        // One HiCOO conversion for the whole run, reused every sweep.
        assert!(
            after[CounterId::FusedPlanCacheHits] >= before[CounterId::FusedPlanCacheHits] + 10 * 3
        );
        assert!(after[CounterId::FusedChains] >= before[CounterId::FusedChains] + 10);
    }

    #[test]
    fn rejects_bad_options() {
        let x = rank_r_tensor(&[4, 4], 1, 1);
        assert!(cp_als(&x, &CpdOptions { rank: 0, ..Default::default() }).is_err());
        let first =
            CooTensor::<f64>::from_entries(Shape::new(vec![4]), vec![(vec![0], 1.0)]).unwrap();
        assert!(cp_als(&first, &CpdOptions::default()).is_err());
    }

    #[test]
    fn parallel_ctx_works() {
        let x = rank_r_tensor(&[6, 6, 6], 2, 5);
        let m = cp_als(
            &x,
            &CpdOptions {
                rank: 2,
                max_iters: 30,
                ctx: Ctx::new(4, pasta_par::Schedule::Dynamic(64)),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(m.fit > 0.9);
    }
}
