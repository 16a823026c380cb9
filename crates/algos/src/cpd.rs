//! CANDECOMP/PARAFAC decomposition via alternating least squares (CP-ALS).
//!
//! The application that makes MTTKRP "the most computationally expensive
//! kernel" in the paper (Section II-E): each ALS sweep updates every factor
//! matrix with one MTTKRP, a Hadamard product of Gram matrices and a small
//! SPD solve.

use pasta_core::linalg::{gram, hadamard, normalize_columns, Cholesky};
use pasta_core::{seeded_matrix, CooTensor, DenseMatrix, Error, Result, Value};
use pasta_kernels::{mttkrp_coo, mttkrp_hicoo, Ctx, FormatKind, FusedAlsSweep, FusionChoice};

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
    /// The MTTKRP format this run drives, per the backend.
    fn format(&self) -> FormatKind {
        match self.backend {
            CpdBackend::Coo => FormatKind::Coo,
            CpdBackend::Hicoo(_) => FormatKind::Hicoo,
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
    // `Materialize` forces the kernel-at-a-time baseline for ablation.
    // The fused sweep is an expression program: `FusedAlsSweep` lowers a
    // `mttkrp(leaf)` graph once per run and rebinds factors each mode.
    if opts.ctx.fusion != FusionChoice::Materialize {
        let block = match opts.backend {
            CpdBackend::Coo => 0,
            CpdBackend::Hicoo(b) => b,
        };
        let mut plan = FusedAlsSweep::new(x, opts.format(), block, &factors, &opts.ctx)?;
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
        return Ok(CpdModel { factors, lambda, fit, iters });
    }

    let hicoo = match opts.backend {
        CpdBackend::Coo => None,
        CpdBackend::Hicoo(b) => Some(pasta_core::HiCooTensor::from_coo(x, b)?),
    };

    for sweep in 0..opts.max_iters {
        iters = sweep + 1;
        for n in 0..order {
            let m_out = match &hicoo {
                Some(h) => mttkrp_hicoo(h, &factors, n, &opts.ctx)?,
                None => mttkrp_coo(x, &factors, n, &opts.ctx)?,
            };
            // V = hadamard of grams of all factors but n.
            let mut v: Option<DenseMatrix<V>> = None;
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
            let v = v.expect("order >= 2");
            let ridge = V::from_f64(1e-10);
            let ch = Cholesky::factor(&v, ridge).ok_or_else(|| Error::OperandMismatch {
                what: "gram Hadamard product not positive definite".into(),
            })?;
            let mut a = m_out;
            ch.solve_rows(&mut a);
            let norms = normalize_columns(&mut a);
            for (l, nn) in lambda.iter_mut().zip(&norms) {
                *l = if *nn == V::ZERO { V::ZERO } else { *nn };
            }
            factors[n] = a;
        }

        let mut had: Option<DenseMatrix<V>> = None;
        for f in &factors {
            let g = gram(f);
            had = Some(match had {
                Some(acc) => hadamard(&acc, &g),
                None => g,
            });
        }
        let new_fit = compute_fit(x, &factors, &lambda, norm_x, &had.expect("at least one factor"));
        if sweep > 0 && (new_fit - fit).abs() < opts.tol {
            fit = new_fit;
            break;
        }
        fit = new_fit;
    }

    Ok(CpdModel { factors, lambda, fit, iters })
}

/// `1 − ‖X − X̂‖ / ‖X‖` computed without materializing `X̂`:
/// `‖X − X̂‖² = ‖X‖² − 2⟨X, X̂⟩ + ‖X̂‖²`. The caller supplies
/// `had = ∘_m A_mᵀA_m` (the fused sweep folds its Gram cache; the
/// kernel-at-a-time baseline recomputes every Gram).
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
    use pasta_core::Shape;

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
