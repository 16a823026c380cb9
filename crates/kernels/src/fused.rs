//! Fused kernel-chain executors: TTV∘TTV multi-mode products, the TTM
//! chains of a Tucker sweep, and the full CP-ALS sweep, each run in one
//! pass through per-thread [`workspace`](crate::workspace)s instead of
//! materializing and re-sorting intermediate sparse tensors.
//!
//! The three chain shapes (see [`FusedExprKind`](crate::pipeline::FusedExprKind)):
//!
//! ```text
//! ttvchain :=  X ×_{m₁} v₁ ×_{m₂} v₂ ⋯            (FusedTtvPlan)
//! ttmchain :=  X ×_{m≠skip} U_m                    (FusedTtmChainPlan)
//! alssweep :=  ∀n: solve(hadamard-grams, mttkrp(X, n)) → normalize
//!                                                  (FusedAlsSweep)
//! ```
//!
//! Since the expression-graph layer landed these are thin wrappers: each
//! plan validates its canned shape, then delegates evaluation to the
//! shared engine in [`expr`](crate::expr) — [`ContractionPlan`] for the
//! contraction chains, a lowered MTTKRP-head [`ExprPlan`]
//! for the ALS sweep. The wrapper keeps the historical API, error
//! messages, and counter semantics; the loops live in one place, so the
//! canned and planner-driven paths are bit-identical by construction.
//!
//! Each plan separates untimed preprocessing (one sort of a tensor copy,
//! fiber-run discovery, format conversion — all cached and reused across
//! decomposition sweeps) from the timed execute, matching the suite's
//! plan→execute convention. On the fused path no intermediate sparse
//! tensor is ever built: output fibers are runs of the sorted copy, every
//! worker accumulates into a dense scratch block per output fiber or a
//! hashed [`SparseAcc`](crate::pipeline::SparseAcc) (selected by
//! [`choose_workspace`]), and sparse accumulators merge through the
//! deterministic tree reduction. The `fused.*` counters of the unified
//! [`pasta_obs`] registry record what ran so benches and tests can assert
//! the no-materialization invariant.

use crate::analysis::{Kernel, DEFAULT_DENSE_THRESHOLD};
use crate::expr::{lower, Bindings, ContractionPlan, ExprGraph, ExprOut, ExprPlan};
use crate::pipeline::{BackendKind, Ctx, FormatKind, KernelPlan};
use crate::workspace::{choose_workspace, WorkspaceKind};
use pasta_core::linalg::{gram, hadamard, normalize_columns, Cholesky};
use pasta_core::{CooTensor, DenseMatrix, DenseVector, Error, Result, SemiCooTensor, Shape, Value};
use pasta_obs::{counters, span_detail, CounterId};

/// A fused multi-mode TTV product `X ×_{m₁} v₁ ×_{m₂} v₂ ⋯` executed in
/// one pass — no intermediate order-(N−1) tensors, no re-sorts between
/// steps.
///
/// The plan sorts one copy of the tensor with the *kept* modes outermost,
/// so each output value is a contiguous run of input entries; execute
/// reduces each run with the product of the contracted vector gathers.
/// Evaluation delegates to the vector-only case of [`ContractionPlan`].
///
/// # Examples
///
/// ```
/// use pasta_core::{CooTensor, DenseVector, Shape};
/// use pasta_kernels::{fused::FusedTtvPlan, Ctx};
///
/// # fn main() -> Result<(), pasta_core::Error> {
/// let x = CooTensor::from_entries(
///     Shape::new(vec![2, 3, 4]),
///     vec![(vec![0, 1, 2], 2.0_f64), (vec![0, 2, 3], 5.0)],
/// )?;
/// let ctx = Ctx::sequential();
/// let plan = FusedTtvPlan::new(&x, &[1, 2], &ctx)?;
/// let v1 = DenseVector::from_vec(vec![1.0, 10.0, 100.0]);
/// let v2 = DenseVector::from_vec(vec![1.0, 1.0, 3.0, 7.0]);
/// let y = plan.execute(&[&v1, &v2], &ctx)?;
/// // y[0] = 2·10·3 + 5·100·7 = 3560
/// assert_eq!(y.get(&[0]), Some(3560.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FusedTtvPlan<V> {
    inner: ContractionPlan<V>,
}

impl<V: Value> FusedTtvPlan<V> {
    /// Plans the fused product contracting `contract` (distinct modes; at
    /// least one mode must remain). Sorts one tensor copy kept-modes-first.
    ///
    /// # Errors
    ///
    /// Rejects invalid/duplicate modes, contracting every mode, and
    /// unregistered routes.
    pub fn new(x: &CooTensor<V>, contract: &[usize], ctx: &Ctx) -> Result<Self> {
        KernelPlan::new(Kernel::Ttv, FormatKind::Coo, BackendKind::Cpu, ctx)?;
        let order = x.order();
        let mut contract = contract.to_vec();
        contract.sort_unstable();
        contract.dedup();
        if contract.is_empty() {
            return Err(Error::OperandMismatch { what: "no modes to contract".into() });
        }
        for &m in &contract {
            x.shape().check_mode(m)?;
        }
        if contract.len() >= order {
            return Err(Error::OperandMismatch {
                what: format!("contracting all {order} modes leaves no output mode"),
            });
        }
        let inner = ContractionPlan::new(x.clone(), &contract, &[], ctx)?;
        Ok(Self { inner })
    }

    /// The contracted modes, sorted ascending (vectors passed to execute
    /// align with this order).
    pub fn contracted_modes(&self) -> &[usize] {
        self.inner.vec_modes()
    }

    /// The number of output values (distinct kept-mode fibers).
    pub fn num_fibers(&self) -> usize {
        self.inner.num_fibers()
    }

    /// The output shape (kept-mode dimensions).
    pub fn out_shape(&self) -> Shape {
        self.inner.out_shape()
    }

    /// The timed value computation into a pre-allocated `out` of length
    /// [`Self::num_fibers`], with the workspace kind picked by
    /// [`choose_workspace`].
    ///
    /// # Errors
    ///
    /// Rejects vector count/length mismatches.
    pub fn execute_values(&self, vecs: &[&DenseVector<V>], out: &mut [V], ctx: &Ctx) -> Result<()> {
        let kind = choose_workspace(
            self.num_fibers(),
            1,
            self.inner.base().nnz(),
            ctx.threads,
            DEFAULT_DENSE_THRESHOLD,
        );
        self.execute_values_with(vecs, out, ctx, kind)
    }

    /// [`Self::execute_values`] with an explicit workspace kind: `Dense`
    /// runs owner-computes over the sorted fiber runs (each output value is
    /// its own scratch slot); `Sparse` privatizes a hashed accumulator per
    /// worker over even entry chunks and tree-merges.
    ///
    /// # Errors
    ///
    /// Rejects vector count/length mismatches.
    pub fn execute_values_with(
        &self,
        vecs: &[&DenseVector<V>],
        out: &mut [V],
        ctx: &Ctx,
        kind: WorkspaceKind,
    ) -> Result<()> {
        self.inner.execute_into(vecs, &[], out, ctx, kind)
    }

    /// Computes the full product as a COO tensor over the kept modes
    /// (pre-allocated pattern plus [`Self::execute_values`]).
    ///
    /// # Errors
    ///
    /// Rejects vector count/length mismatches.
    pub fn execute(&self, vecs: &[&DenseVector<V>], ctx: &Ctx) -> Result<CooTensor<V>> {
        let mut vals = vec![V::ZERO; self.num_fibers()];
        self.execute_values(vecs, &mut vals, ctx)?;
        self.inner.assemble_coo(vals)
    }
}

/// The fused TTM chain of a Tucker sweep: `Y = X ×_{m≠skip} U_m` in one
/// pass over the non-zeros.
///
/// The plan sorts one tensor copy mode-`skip`-outermost (cached by the
/// caller across HOOI sweeps, so the sort is paid once per run, not once
/// per chain step). Each distinct `i_skip` is one output fiber; per input
/// entry the executor expands `val · ⊗_{m≠skip} U_m[i_m, :]` iteratively
/// into a small scratch and adds it to the fiber's dense block — no
/// intermediate semi-sparse tensor, no `to_coo()` round-trips. Evaluation
/// delegates to the matrix-only case of [`ContractionPlan`].
///
/// With `skip == order` every mode is contracted and
/// [`execute_full`](Self::execute_full) produces the dense core directly.
#[derive(Debug)]
pub struct FusedTtmChainPlan<V> {
    inner: ContractionPlan<V>,
    skip: usize,
    order: usize,
}

impl<V: Value> FusedTtmChainPlan<V> {
    /// Plans the chain that contracts every mode except `skip` (pass
    /// `skip == order` to contract all modes).
    ///
    /// # Errors
    ///
    /// Rejects an out-of-range `skip` (beyond `order`), order-one tensors,
    /// and unregistered routes.
    pub fn new(x: &CooTensor<V>, skip: usize, ctx: &Ctx) -> Result<Self> {
        KernelPlan::new(Kernel::Ttm, FormatKind::Coo, BackendKind::Cpu, ctx)?;
        let order = x.order();
        if order < 2 {
            return Err(Error::InvalidMode { mode: skip, order });
        }
        if skip > order {
            return Err(Error::InvalidMode { mode: skip, order });
        }
        let cmodes: Vec<usize> = (0..order).filter(|&m| m != skip).collect();
        let inner = ContractionPlan::new(x.clone(), &[], &cmodes, ctx)?;
        Ok(Self { inner, skip, order })
    }

    /// The skipped (kept-sparse) mode; `order` means full contraction.
    pub fn skip(&self) -> usize {
        self.skip
    }

    /// The number of output fibers (distinct `i_skip` values); zero when
    /// the plan contracts every mode.
    pub fn num_fibers(&self) -> usize {
        self.inner.num_fibers()
    }

    fn check_factors(&self, factors: &[DenseMatrix<V>]) -> Result<usize> {
        let order = self.order;
        if factors.len() != order {
            return Err(Error::OperandMismatch {
                what: format!("expected {order} factor matrices, got {}", factors.len()),
            });
        }
        let mut dvol = 1usize;
        for (m, u) in factors.iter().enumerate() {
            if m == self.skip {
                continue;
            }
            if u.rows() != self.inner.base().shape().dim(m) as usize {
                return Err(Error::OperandMismatch {
                    what: format!(
                        "factor {m} has {} rows but mode {m} has dimension {}",
                        u.rows(),
                        self.inner.base().shape().dim(m)
                    ),
                });
            }
            if u.cols() == 0 {
                return Err(Error::OperandMismatch {
                    what: format!("factor {m} has rank 0; rank must be at least 1"),
                });
            }
            dvol *= u.cols();
        }
        Ok(dvol)
    }

    /// The execute matrices in contracted-mode order (ascending non-skip).
    fn contract_mats<'f>(&self, factors: &'f [DenseMatrix<V>]) -> Vec<&'f DenseMatrix<V>> {
        self.inner.mat_modes().iter().map(|&m| &factors[m]).collect()
    }

    /// Executes the chain as a semi-sparse tensor: sparse mode `skip`,
    /// dense modes everywhere else (one `∏R_m` block per distinct
    /// `i_skip`), with the workspace kind picked by [`choose_workspace`].
    ///
    /// # Errors
    ///
    /// Rejects factor mismatches and full-contraction plans (use
    /// [`Self::execute_full`]).
    pub fn execute(&self, factors: &[DenseMatrix<V>], ctx: &Ctx) -> Result<SemiCooTensor<V>> {
        let dvol = self.check_factors(factors)?;
        let kind = choose_workspace(
            self.num_fibers(),
            dvol,
            self.inner.base().nnz(),
            ctx.threads,
            DEFAULT_DENSE_THRESHOLD,
        );
        self.execute_with(factors, ctx, kind)
    }

    /// [`Self::execute`] with an explicit workspace kind: `Dense` runs
    /// owner-computes over the sorted fiber runs, writing each output
    /// block directly; `Sparse` privatizes a hashed accumulator keyed by
    /// output fiber per worker and tree-merges.
    ///
    /// # Errors
    ///
    /// Rejects factor mismatches and full-contraction plans.
    pub fn execute_with(
        &self,
        factors: &[DenseMatrix<V>],
        ctx: &Ctx,
        kind: WorkspaceKind,
    ) -> Result<SemiCooTensor<V>> {
        let dvol = self.check_factors(factors)?;
        if self.skip >= self.order {
            return Err(Error::InvalidMode { mode: self.skip, order: self.order });
        }
        let mats = self.contract_mats(factors);
        let mut vals = vec![V::ZERO; self.num_fibers() * dvol];
        self.inner.execute_into(&[], &mats, &mut vals, ctx, kind)?;
        self.inner.assemble_semi(vals, &mats)
    }

    /// Executes a full-contraction chain (`skip == order`) straight to the
    /// dense core, row-major over the factor ranks in mode order — the
    /// `to_coo()`/`to_dense()` round-trip of the unfused chain disappears.
    ///
    /// # Errors
    ///
    /// Rejects factor mismatches and partial-contraction plans (use
    /// [`Self::execute`]).
    pub fn execute_full(&self, factors: &[DenseMatrix<V>], ctx: &Ctx) -> Result<Vec<V>> {
        self.check_factors(factors)?;
        if self.skip < self.order {
            return Err(Error::InvalidMode { mode: self.skip, order: self.order });
        }
        self.inner.execute_full(&[], &self.contract_mats(factors), ctx)
    }
}

/// One fused CP-ALS sweep: MTTKRP → Hadamard-of-Grams → Cholesky solve →
/// normalize for every mode, with the sweep-invariant products cached
/// across iterations.
///
/// The per-run MTTKRP state is a lowered expression plan — a one-edge
/// graph `mttkrp(leaf)` run through [`lower`], whose head caches the
/// per-mode [`MttkrpCooPlan`](crate::mttkrp::MttkrpCooPlan)s (built only
/// where the schedule analysis says a mode-outermost re-sort pays off) or
/// the one-time HiCOO conversion. Arithmetic is bit-identical to the
/// kernel-at-a-time loop — the wins come from *not redoing work*:
///
/// - per-mode MTTKRP plans and conversions are built once per run instead
///   of once per sweep;
/// - factor Gram matrices are cached and updated incrementally — one
///   `gram()` per factor update instead of `N−1` per mode plus `N` more
///   for the fit, collapsing `O(N²)` Gram computations per sweep to
///   `O(N)`.
#[derive(Debug)]
pub struct FusedAlsSweep<'a, V> {
    x: &'a CooTensor<V>,
    format: FormatKind,
    plan: ExprPlan<'a, V>,
    grams: Vec<DenseMatrix<V>>,
    rank: usize,
}

impl<'a, V: Value> FusedAlsSweep<'a, V> {
    /// Builds the per-run plan: validates the factor set, lowers the
    /// MTTKRP expression graph (which validates the route against the
    /// registry and converts/sorts as the schedule analysis dictates), and
    /// seeds the Gram cache from the initial factors.
    ///
    /// # Errors
    ///
    /// Rejects unregistered routes, non-COO/HiCOO formats, and factor
    /// shape mismatches.
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

    /// The decomposition rank `R`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Runs one ALS sweep in place: for each mode, MTTKRP against the
    /// cached plan, solve against the cached Grams, normalize, and update
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
            // gram in the kernel-at-a-time loop).
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
            let norms = normalize_columns(&mut a);
            for (l, nn) in lambda.iter_mut().zip(&norms) {
                *l = if *nn == V::ZERO { V::ZERO } else { *nn };
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

    /// Which format backend the sweep drives.
    pub fn format(&self) -> FormatKind {
        self.format
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ttv_coo;
    use crate::{mttkrp_coo, ttm_coo, ttm_scoo};
    use pasta_core::{seeded_vector, Coord};
    use pasta_par::Schedule;

    fn test_tensor(dims: &[u32], nnz: usize, seed: u64) -> CooTensor<f64> {
        let shape = Shape::new(dims.to_vec());
        let mut x = CooTensor::new(shape);
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..nnz {
            let coords: Vec<Coord> = dims.iter().map(|&d| (next() % d as u64) as Coord).collect();
            let v = (next() % 1000) as f64 / 100.0 - 5.0;
            x.push(&coords, v).unwrap();
        }
        x.dedup_sum();
        x
    }

    #[test]
    fn fused_ttv_matches_composed_kernels() {
        let x = test_tensor(&[7, 6, 5, 4], 160, 3);
        let ctx = Ctx::sequential();
        let vecs: Vec<DenseVector<f64>> = vec![seeded_vector(6, 11), seeded_vector(4, 12)];
        let plan = FusedTtvPlan::new(&x, &[1, 3], &ctx).unwrap();
        let fused = plan.execute(&[&vecs[0], &vecs[1]], &ctx).unwrap();
        // Composed: contract mode 3 first (indices above stay put), then 1.
        let step = ttv_coo(&x, &vecs[1], 3, &ctx).unwrap();
        let composed = ttv_coo(&step, &vecs[0], 1, &ctx).unwrap();
        let df = fused.to_dense(1 << 12);
        let dc = composed.to_dense(1 << 12);
        for (a, b) in df.iter().zip(&dc) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn ttv_dense_and_sparse_workspaces_agree() {
        let x = test_tensor(&[9, 8, 7], 200, 5);
        let v = seeded_vector::<f64>(7, 21);
        for threads in [1usize, 2, 4] {
            let ctx = Ctx::new(threads, Schedule::Static);
            let plan = FusedTtvPlan::new(&x, &[2], &ctx).unwrap();
            let mut dense = vec![0.0; plan.num_fibers()];
            let mut sparse = vec![0.0; plan.num_fibers()];
            plan.execute_values_with(&[&v], &mut dense, &ctx, WorkspaceKind::Dense).unwrap();
            plan.execute_values_with(&[&v], &mut sparse, &ctx, WorkspaceKind::Sparse).unwrap();
            for (a, b) in dense.iter().zip(&sparse) {
                assert!((a - b).abs() < 1e-9, "t={threads}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn fused_ttm_chain_matches_kernel_at_a_time() {
        let x = test_tensor(&[6, 5, 4], 80, 9);
        let ctx = Ctx::sequential();
        let factors: Vec<DenseMatrix<f64>> = vec![
            pasta_core::seeded_matrix(6, 3, 1),
            pasta_core::seeded_matrix(5, 2, 2),
            pasta_core::seeded_matrix(4, 2, 3),
        ];
        for skip in 0..3usize {
            let plan = FusedTtmChainPlan::new(&x, skip, &ctx).unwrap();
            for kind in [WorkspaceKind::Dense, WorkspaceKind::Sparse] {
                let fused = plan.execute_with(&factors, &ctx, kind).unwrap();
                // Kernel-at-a-time: ttm_coo then ttm_scoo per remaining mode.
                let mut semi = None;
                for (m, u) in factors.iter().enumerate() {
                    if m == skip {
                        continue;
                    }
                    semi = Some(match semi {
                        None => ttm_coo(&x, u, m, &ctx).unwrap(),
                        Some(prev) => ttm_scoo(&prev, u, m, &ctx).unwrap(),
                    });
                }
                let want = semi.unwrap().to_coo().to_dense(1 << 12);
                let got = fused.to_coo().to_dense(1 << 12);
                assert_eq!(got.len(), want.len());
                for (a, b) in got.iter().zip(&want) {
                    assert!((a - b).abs() < 1e-9, "skip={skip} {kind}: {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn execute_full_contracts_every_mode() {
        let x = test_tensor(&[5, 4, 3], 40, 13);
        let ctx = Ctx::sequential();
        let factors: Vec<DenseMatrix<f64>> = vec![
            pasta_core::seeded_matrix(5, 2, 4),
            pasta_core::seeded_matrix(4, 2, 5),
            pasta_core::seeded_matrix(3, 2, 6),
        ];
        let plan = FusedTtmChainPlan::new(&x, 3, &ctx).unwrap();
        let core = plan.execute_full(&factors, &ctx).unwrap();
        assert_eq!(core.len(), 8);
        // Reference: chain two ttm_coo products then contract the last
        // mode by hand against the dense expansion.
        let mut want = vec![0.0f64; 8];
        for e in 0..x.nnz() {
            let v = x.vals()[e];
            for r0 in 0..2 {
                for r1 in 0..2 {
                    for r2 in 0..2 {
                        want[r0 * 4 + r1 * 2 + r2] += v
                            * factors[0].get(x.mode_inds(0)[e] as usize, r0)
                            * factors[1].get(x.mode_inds(1)[e] as usize, r1)
                            * factors[2].get(x.mode_inds(2)[e] as usize, r2);
                    }
                }
            }
        }
        for (a, b) in core.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn fused_path_materializes_nothing() {
        let x = test_tensor(&[8, 7, 6], 120, 17);
        let ctx = Ctx::sequential();
        let factors: Vec<DenseMatrix<f64>> = vec![
            pasta_core::seeded_matrix(8, 2, 1),
            pasta_core::seeded_matrix(7, 2, 2),
            pasta_core::seeded_matrix(6, 2, 3),
        ];
        pasta_obs::set_counting(true);
        let before = counters().snapshot();
        let plan = FusedTtmChainPlan::new(&x, 0, &ctx).unwrap();
        let _ = plan.execute(&factors, &ctx).unwrap();
        let after = counters().snapshot();
        assert_eq!(after[CounterId::FusedMaterialized], before[CounterId::FusedMaterialized]);
        assert!(after[CounterId::FusedEntries] >= before[CounterId::FusedEntries] + x.nnz() as u64);
        assert!(after[CounterId::FusedChains] > before[CounterId::FusedChains]);
    }

    #[test]
    fn als_sweep_matches_kernel_at_a_time_loop() {
        let x = test_tensor(&[6, 5, 4], 60, 23);
        let ctx = Ctx::sequential();
        let r = 3;
        let init: Vec<DenseMatrix<f64>> = (0..3)
            .map(|m| {
                let mut f = pasta_core::seeded_matrix(x.shape().dim(m) as usize, r, 100 + m as u64);
                normalize_columns(&mut f);
                f
            })
            .collect();
        // Fused sweep.
        let mut fused_factors = init.clone();
        let mut fused_lambda = vec![1.0f64; r];
        let mut sweep = FusedAlsSweep::new(&x, FormatKind::Coo, 0, &init, &ctx).unwrap();
        sweep.sweep(&mut fused_factors, &mut fused_lambda).unwrap();
        // Reference: the kernel-at-a-time loop, grams recomputed each time.
        let mut factors = init;
        let mut lambda = vec![1.0f64; r];
        for n in 0..3 {
            let m_out = mttkrp_coo(&x, &factors, n, &ctx).unwrap();
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
            let ch = Cholesky::factor(&v.unwrap(), 1e-10).unwrap();
            let mut a = m_out;
            ch.solve_rows(&mut a);
            let norms = normalize_columns(&mut a);
            for (l, nn) in lambda.iter_mut().zip(&norms) {
                *l = if *nn == 0.0 { 0.0 } else { *nn };
            }
            factors[n] = a;
        }
        for (fa, ra) in fused_factors.iter().zip(&factors) {
            for (a, b) in fa.as_slice().iter().zip(ra.as_slice()) {
                assert_eq!(a, b, "fused sweep must be bit-identical");
            }
        }
        assert_eq!(fused_lambda, lambda);
    }

    #[test]
    fn als_sweep_rejects_bad_routes() {
        let x = test_tensor(&[4, 4], 10, 1);
        let ctx = Ctx::sequential();
        let f: Vec<DenseMatrix<f64>> = (0..2).map(|m| pasta_core::seeded_matrix(4, 2, m)).collect();
        assert!(FusedAlsSweep::new(&x, FormatKind::Scoo, 0, &f, &ctx).is_err());
        assert!(FusedAlsSweep::new(&x, FormatKind::Coo, 0, &f[..1], &ctx).is_err());
    }

    #[test]
    fn ttv_plan_rejects_bad_modes() {
        let x = test_tensor(&[4, 4, 4], 10, 1);
        let ctx = Ctx::sequential();
        assert!(FusedTtvPlan::new(&x, &[], &ctx).is_err());
        assert!(FusedTtvPlan::new(&x, &[3], &ctx).is_err());
        assert!(FusedTtvPlan::new(&x, &[0, 1, 2], &ctx).is_err());
    }
}
