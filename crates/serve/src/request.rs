//! Request/response types and the operand-derivation rules shared by the
//! server and the direct reference path.
//!
//! A request names a resident tensor and an [`OpSpec`]; every other
//! operand (the second TEW tensor, contraction vectors/matrices, factor
//! sets) is derived deterministically from the tensor's shape and the
//! request seed. Deriving operands on both sides of the differential
//! contract — instead of shipping them in the request — is what lets the
//! test tier compare a served response against a direct kernel call
//! bit-for-bit: both paths call the same functions in this module.

use pasta_algos::{CpdBackend, CpdOptions, TuckerOptions};
use pasta_core::{
    seeded_matrix, seeded_vector, CooTensor, DenseMatrix, DenseVector, Error, Result,
};
use pasta_kernels::{lower, Ctx, EwOp, ExprGraph, ExprPlan, Kernel, MatOperand, TsOp, VecOperand};
use std::sync::Arc;

/// Catalog key for a resident tensor.
pub type TensorId = u32;

/// Which MTTKRP route a request asks the service for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MttkrpRoute {
    /// Owner-computes over the cached mode-outermost sorted COO copy.
    Coo,
    /// HiCOO MTTKRP over the cached blocking with this block size.
    Hicoo(u32),
}

/// One step of a composite [`OpSpec::Expr`] chain, applied in order to
/// the (chain-relative) running tensor.
///
/// Modes are relative to the tensor's shape *at that point in the chain*:
/// a `Ttv` removes its mode, a `Ttm` replaces the mode's dimension with
/// the rank — exactly the [`pasta_kernels::ExprGraph`] convention.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExprStep {
    /// Element-wise against a derived same-pattern operand. Only valid as
    /// the first step (the operand pattern is the resident tensor's).
    Tew {
        /// Element-wise operator.
        op: EwOp,
    },
    /// Tensor-scalar `∘ scalar`.
    Ts {
        /// Scalar operator.
        op: TsOp,
        /// The scalar operand.
        scalar: f32,
    },
    /// Contract `mode` with a derived vector.
    Ttv {
        /// Contracted mode (chain-relative).
        mode: usize,
    },
    /// Multiply `mode` by a derived `dim(mode) × rank` matrix.
    Ttm {
        /// Multiplied mode (chain-relative).
        mode: usize,
        /// Output rank (matrix columns, ≥ 1).
        rank: usize,
    },
}

/// A composite expression job: up to four [`ExprStep`]s lowered through
/// the expression-graph planner and executed as one (mostly) fused plan.
///
/// All derived operands flow from `seed` plus the step position, so the
/// spec is self-contained and the direct reference can re-derive them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExprSpec {
    /// The chain's steps, in order; trailing `None` slots are unused
    /// (steps must be contiguous from slot 0).
    pub steps: [Option<ExprStep>; 4],
    /// Seed for derived operands.
    pub seed: u64,
}

impl ExprSpec {
    /// A stable 64-bit signature over every field — the conversion-cache
    /// key under which the lowered plan (and its sorted copy) is stored,
    /// so repeated graph traffic skips re-planning and re-sorting.
    pub fn signature(&self) -> u64 {
        let mut h = self.seed ^ 0xE09A_1D5E_ED00_0001;
        let mut mix = |v: u64| {
            let mut s = h ^ v.wrapping_mul(0xA24B_AED4_963E_E407);
            h = splitmix(&mut s);
        };
        for s in &self.steps {
            match s {
                None => mix(0),
                Some(ExprStep::Tew { op }) => {
                    mix(1);
                    mix(EwOp::ALL.iter().position(|o| o == op).unwrap_or(0) as u64);
                }
                Some(ExprStep::Ts { op, scalar }) => {
                    mix(2);
                    mix(TsOp::ALL.iter().position(|o| o == op).unwrap_or(0) as u64);
                    mix(u64::from(scalar.to_bits()));
                }
                Some(ExprStep::Ttv { mode }) => {
                    mix(3);
                    mix(*mode as u64);
                }
                Some(ExprStep::Ttm { mode, rank }) => {
                    mix(4);
                    mix(*mode as u64);
                    mix(*rank as u64);
                }
            }
        }
        h
    }
}

/// One kernel request or decomposition job against a resident tensor.
///
/// `seed` fields drive the deterministic operand derivation; two requests
/// with the same spec against the same tensor are the same computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpSpec {
    /// Element-wise `z = x ∘ y` against a derived same-pattern operand.
    Tew {
        /// Element-wise operator.
        op: EwOp,
        /// Seed for the derived second operand's values.
        seed: u64,
    },
    /// Tensor-scalar `y = x ∘ s`.
    Ts {
        /// Scalar operator.
        op: TsOp,
        /// The scalar operand.
        scalar: f32,
    },
    /// Tensor-times-vector contracting `mode`.
    Ttv {
        /// Contracted mode.
        mode: usize,
        /// Seed for the derived contraction vector.
        seed: u64,
    },
    /// Tensor-times-matrix contracting `mode` with a `dim(mode) × rank`
    /// matrix.
    Ttm {
        /// Contracted mode.
        mode: usize,
        /// Output rank (matrix columns).
        rank: usize,
        /// Seed for the derived matrix.
        seed: u64,
    },
    /// MTTKRP for `mode` against a derived factor set.
    Mttkrp {
        /// Target mode.
        mode: usize,
        /// Factor rank.
        rank: usize,
        /// Seed for the derived factor matrices.
        seed: u64,
        /// COO (sharded owner-computes) or HiCOO route.
        route: MttkrpRoute,
    },
    /// A CP-ALS decomposition job.
    Cpd {
        /// Decomposition rank.
        rank: usize,
        /// ALS sweeps to run.
        sweeps: usize,
        /// Seed for factor initialization.
        seed: u64,
    },
    /// A Tucker-HOOI decomposition job (ranks clamped per-mode to the
    /// tensor dimensions).
    Tucker {
        /// Requested core rank (clamped to `dim(m)` per mode).
        rank: usize,
        /// HOOI sweeps to run.
        sweeps: usize,
        /// Seed for factor initialization.
        seed: u64,
    },
    /// A composite expression job lowered through the graph planner.
    Expr {
        /// The chain to lower and execute.
        spec: ExprSpec,
    },
}

impl OpSpec {
    /// The lowercase op label used in cell ids and reports.
    pub fn label(&self) -> &'static str {
        match self {
            OpSpec::Tew { .. } => "tew",
            OpSpec::Ts { .. } => "ts",
            OpSpec::Ttv { .. } => "ttv",
            OpSpec::Ttm { .. } => "ttm",
            OpSpec::Mttkrp { .. } => "mttkrp",
            OpSpec::Cpd { .. } => "cpd",
            OpSpec::Tucker { .. } => "tucker",
            OpSpec::Expr { .. } => "expr",
        }
    }

    /// The pipeline kernel this spec drives (`None` for decomposition
    /// jobs, which orchestrate several kernels).
    pub fn kernel(&self) -> Option<Kernel> {
        match self {
            OpSpec::Tew { .. } => Some(Kernel::Tew),
            OpSpec::Ts { .. } => Some(Kernel::Ts),
            OpSpec::Ttv { .. } => Some(Kernel::Ttv),
            OpSpec::Ttm { .. } => Some(Kernel::Ttm),
            OpSpec::Mttkrp { .. } => Some(Kernel::Mttkrp),
            OpSpec::Cpd { .. } | OpSpec::Tucker { .. } | OpSpec::Expr { .. } => None,
        }
    }

    /// The service's ULP budget versus the direct reference.
    ///
    /// Zero wherever the conformance matrix pins the underlying kernel at
    /// zero (element-wise lanes; MTTKRP, whose owner-computes schedule is
    /// pinned bit-identical to sequential on the sorted copy; CPD/Tucker,
    /// which run the identical option set on both sides). TTV and TTM
    /// inherit their conformance reduction budget because the service
    /// executes a different (cached-plan) route than the direct call.
    pub fn budget(&self) -> u64 {
        match self {
            OpSpec::Ttv { .. } | OpSpec::Ttm { .. } => 256,
            // A chain compounds up to four reduction steps, so it gets the
            // fused-chain conformance budget rather than a single kernel's.
            OpSpec::Expr { .. } => 1024,
            _ => 0,
        }
    }

    /// Validates the spec against a concrete tensor at admission time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OperandMismatch`] for an out-of-range mode, a
    /// zero rank/sweep count, or an op that needs order ≥ 2 on an
    /// order-1 tensor.
    pub fn validate(&self, x: &CooTensor<f32>) -> Result<()> {
        let order = x.order();
        let need_mode = |m: usize| {
            if m >= order {
                return Err(Error::OperandMismatch {
                    what: format!("mode {m} out of range for order-{order} tensor"),
                });
            }
            if order < 2 {
                return Err(Error::OperandMismatch {
                    what: format!("{} needs order >= 2, got {order}", self.label()),
                });
            }
            Ok(())
        };
        let need_pos = |n: usize, what: &str| {
            if n == 0 {
                return Err(Error::OperandMismatch { what: format!("{what} must be >= 1") });
            }
            Ok(())
        };
        match *self {
            OpSpec::Tew { .. } | OpSpec::Ts { .. } => Ok(()),
            OpSpec::Ttv { mode, .. } => need_mode(mode),
            OpSpec::Ttm { mode, rank, .. } => {
                need_mode(mode)?;
                need_pos(rank, "ttm rank")
            }
            OpSpec::Mttkrp { mode, rank, route, .. } => {
                need_mode(mode)?;
                need_pos(rank, "mttkrp rank")?;
                if let MttkrpRoute::Hicoo(block) = route {
                    if !block.is_power_of_two() {
                        return Err(Error::OperandMismatch {
                            what: format!("hicoo block {block} must be a power of two"),
                        });
                    }
                }
                Ok(())
            }
            OpSpec::Cpd { rank, sweeps, .. } | OpSpec::Tucker { rank, sweeps, .. } => {
                if order < 2 {
                    return Err(Error::OperandMismatch {
                        what: format!("{} needs order >= 2, got {order}", self.label()),
                    });
                }
                need_pos(rank, "rank")?;
                need_pos(sweeps, "sweeps")
            }
            OpSpec::Expr { spec } => {
                // Replays the chain against the shape, tracking how each
                // step transforms it — the same walk the graph builder and
                // the direct reference take.
                if spec.steps[0].is_none() {
                    return Err(Error::OperandMismatch {
                        what: "expr chain needs at least one step".into(),
                    });
                }
                let mut dims = x.shape().dims().to_vec();
                let mut seen_none = false;
                for (i, s) in spec.steps.iter().enumerate() {
                    let Some(step) = s else {
                        seen_none = true;
                        continue;
                    };
                    if seen_none {
                        return Err(Error::OperandMismatch {
                            what: "expr steps must be contiguous from slot 0".into(),
                        });
                    }
                    match *step {
                        ExprStep::Tew { .. } => {
                            if i != 0 {
                                return Err(Error::OperandMismatch {
                                    what: "tew must be the first expr step".into(),
                                });
                            }
                        }
                        ExprStep::Ts { .. } => {}
                        ExprStep::Ttv { mode } => {
                            if dims.len() < 2 {
                                return Err(Error::OperandMismatch {
                                    what: format!(
                                        "expr ttv step {i} needs order >= 2, got {}",
                                        dims.len()
                                    ),
                                });
                            }
                            if mode >= dims.len() {
                                return Err(Error::OperandMismatch {
                                    what: format!(
                                        "expr ttv step {i}: mode {mode} out of range for order {}",
                                        dims.len()
                                    ),
                                });
                            }
                            dims.remove(mode);
                        }
                        ExprStep::Ttm { mode, rank } => {
                            if mode >= dims.len() {
                                return Err(Error::OperandMismatch {
                                    what: format!(
                                        "expr ttm step {i}: mode {mode} out of range for order {}",
                                        dims.len()
                                    ),
                                });
                            }
                            need_pos(rank, "expr ttm rank")?;
                            dims[mode] = rank as u32;
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

/// One admitted unit of work: a resident tensor plus an [`OpSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Catalog id of the tensor to operate on.
    pub tensor: TensorId,
    /// What to compute.
    pub op: OpSpec,
}

/// The service's answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The computed values in canonical order (see [`canonical_vals`]).
    pub values: Vec<f32>,
    /// How many shards / partitions the dispatch used.
    pub shards: usize,
    /// Whether a conversion product was served from the cache.
    pub cache_hit: bool,
    /// Wall-clock dispatch-to-completion time for this request.
    pub latency_ns: u64,
}

/// SplitMix64 — the same generator the conformance cases use, so derived
/// operands are reproducible everywhere from a single `u64` seed.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the second TEW operand: `x`'s pattern with the seeded
/// [`pattern_values`].
pub fn pattern_operand(x: &CooTensor<f32>, seed: u64) -> CooTensor<f32> {
    let mut y = x.like_pattern(0.0);
    y.vals_mut().copy_from_slice(&pattern_values(x.nnz(), seed));
    y
}

/// The values of the second TEW operand, one per entry in storage order:
/// seeded in `[0.5, 2)`, bounded away from zero so `Div` requests stay
/// finite.
pub fn pattern_values(nnz: usize, seed: u64) -> Vec<f32> {
    let mut state = seed ^ 0x7E57_5EED;
    (0..nnz)
        .map(|_| {
            let u = (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            (0.5 + 1.5 * u) as f32
        })
        .collect()
}

/// Derives the TTV contraction vector for `mode`.
pub fn contraction_vector(x: &CooTensor<f32>, mode: usize, seed: u64) -> DenseVector<f32> {
    seeded_vector(x.shape().dim(mode) as usize, seed ^ 0x77_0001)
}

/// Derives the TTM contraction matrix for `mode`.
pub fn contraction_matrix(
    x: &CooTensor<f32>,
    mode: usize,
    rank: usize,
    seed: u64,
) -> DenseMatrix<f32> {
    seeded_matrix(x.shape().dim(mode) as usize, rank, seed ^ 0x77_0002)
}

/// Derives the full factor set for MTTKRP / CPD comparisons.
pub fn factor_set(x: &CooTensor<f32>, rank: usize, seed: u64) -> Vec<DenseMatrix<f32>> {
    (0..x.order())
        .map(|m| seeded_matrix(x.shape().dim(m) as usize, rank, seed.wrapping_add(m as u64)))
        .collect()
}

/// A mode-outermost sorted copy of `x` — the owner-computes precondition.
///
/// Both the service's cached product and the direct reference derive
/// their sorted copy here, so the two paths feed MTTKRP byte-identical
/// inputs in byte-identical entry order.
pub fn sorted_by_mode(x: &CooTensor<f32>, mode: usize) -> CooTensor<f32> {
    let mut order: Vec<usize> = Vec::with_capacity(x.order());
    order.push(mode);
    order.extend((0..x.order()).filter(|&m| m != mode));
    let mut sorted = x.clone();
    sorted.sort_by_mode_order(&order);
    sorted
}

/// The CSF mode order TTV requests convert through: the contracted mode
/// innermost (leaf), matching [`pasta_kernels::CsfTtvPlan`]'s contract.
pub fn csf_ttv_order(order: usize, mode: usize) -> Vec<usize> {
    let mut mo: Vec<usize> = (0..order).filter(|&m| m != mode).collect();
    mo.push(mode);
    mo
}

/// The CP-ALS option set a `Cpd { rank, sweeps, seed }` spec runs —
/// identical on the service and direct paths, which is what makes the
/// responses bit-comparable.
pub fn cpd_options(rank: usize, sweeps: usize, seed: u64) -> CpdOptions {
    CpdOptions {
        rank,
        max_iters: sweeps,
        tol: 0.0,
        seed,
        ctx: Ctx::sequential(),
        backend: CpdBackend::Coo,
    }
}

/// The Tucker option set for a `Tucker { rank, sweeps, seed }` spec, with
/// per-mode ranks clamped to the tensor dimensions.
pub fn tucker_options(x: &CooTensor<f32>, rank: usize, sweeps: usize, seed: u64) -> TuckerOptions {
    let ranks =
        (0..x.order()).map(|m| rank.min(x.shape().dim(m) as usize).max(1)).collect::<Vec<_>>();
    TuckerOptions { ranks, max_iters: sweeps, seed, ctx: Ctx::sequential() }
}

/// Derives the contraction vector for expr chain step `step` (the length
/// is the contracted mode's dimension *at that point in the chain*).
pub fn expr_step_vector(len: usize, seed: u64, step: usize) -> DenseVector<f32> {
    seeded_vector(len, seed ^ (0x77_0100 + step as u64))
}

/// Derives the multiplication matrix for expr chain step `step`.
pub fn expr_step_matrix(rows: usize, rank: usize, seed: u64, step: usize) -> DenseMatrix<f32> {
    seeded_matrix(rows, rank, seed ^ (0x77_0200 + step as u64))
}

/// Lowers an [`ExprSpec`] against `x` into an executable plan: builds the
/// graph step by step (deriving every operand from the spec seed — the
/// exact derivation [`crate::direct_eval`] replays kernel-at-a-time) and
/// hands it to the [`pasta_kernels::expr`] planner. The returned plan
/// owns an `Arc` of the tensor, so the server can cache it as a
/// conversion product outliving any one batch.
///
/// # Errors
///
/// Propagates graph-builder and lowering errors (all unreachable for
/// specs that passed [`OpSpec::validate`]).
pub fn expr_plan(
    x: &Arc<CooTensor<f32>>,
    spec: &ExprSpec,
    ctx: &Ctx,
) -> Result<ExprPlan<'static, f32>> {
    let mut g = ExprGraph::new();
    let mut dims: Vec<u32> = x.shape().dims().to_vec();
    let mut cur = g.leaf_shared(Arc::clone(x));
    for (i, step) in spec.steps.iter().flatten().enumerate() {
        cur = match *step {
            ExprStep::Tew { op } => g.tew(cur, op, pattern_operand(x, spec.seed))?,
            ExprStep::Ts { op, scalar } => g.ts(cur, op, scalar)?,
            ExprStep::Ttv { mode } => {
                let v = expr_step_vector(dims[mode] as usize, spec.seed, i);
                dims.remove(mode);
                g.ttv(cur, mode, VecOperand::Owned(v))?
            }
            ExprStep::Ttm { mode, rank } => {
                let u = expr_step_matrix(dims[mode] as usize, rank, spec.seed, i);
                dims[mode] = rank as u32;
                g.ttm(cur, mode, MatOperand::Owned(u))?
            }
        };
    }
    lower(&g, cur, ctx)
}

/// Canonicalizes a sparse result for comparison: values in fully
/// lexicographic coordinate order, independent of how the producing route
/// ordered its output entries — the values a stable sort would leave,
/// which for entries already in order (recorded or checked) are the
/// values as stored ([`CooTensor::lex_vals`]).
pub fn canonical_vals(t: &CooTensor<f32>) -> Vec<f32> {
    t.lex_vals()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasta_core::Shape;

    fn tensor() -> CooTensor<f32> {
        let mut t = CooTensor::new(Shape::new(vec![6, 5, 4]));
        for e in 0..40u32 {
            t.push(&[e % 6, (e * 3 + 1) % 5, (e * 7 + 2) % 4], f32::from(e as u16) * 0.25 + 1.0)
                .unwrap();
        }
        t.dedup_sum();
        t
    }

    #[test]
    fn pattern_operand_matches_pattern_and_avoids_zero() {
        let x = tensor();
        let y = pattern_operand(&x, 42);
        assert_eq!(y.nnz(), x.nnz());
        for m in 0..x.order() {
            assert_eq!(y.mode_inds(m), x.mode_inds(m));
        }
        assert!(y.vals().iter().all(|v| *v >= 0.5 && *v < 2.0));
        // Deterministic in the seed.
        assert_eq!(pattern_operand(&x, 42).vals(), y.vals());
        assert_ne!(pattern_operand(&x, 43).vals(), y.vals());
    }

    #[test]
    fn sorted_by_mode_puts_mode_outermost() {
        let x = tensor();
        for mode in 0..3 {
            let s = sorted_by_mode(&x, mode);
            assert_eq!(s.nnz(), x.nnz());
            let idx = s.mode_inds(mode);
            assert!(idx.windows(2).all(|w| w[0] <= w[1]), "mode {mode} not outermost");
        }
    }

    #[test]
    fn canonical_vals_is_order_independent() {
        let x = tensor();
        let mut shuffled = x.clone();
        shuffled.sort_by_mode_order(&[2, 0, 1]);
        assert_eq!(canonical_vals(&x), canonical_vals(&shuffled));
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let x = tensor();
        assert!(OpSpec::Ttv { mode: 3, seed: 1 }.validate(&x).is_err());
        assert!(OpSpec::Ttm { mode: 0, rank: 0, seed: 1 }.validate(&x).is_err());
        assert!(OpSpec::Mttkrp { mode: 1, rank: 4, seed: 1, route: MttkrpRoute::Hicoo(3) }
            .validate(&x)
            .is_err());
        assert!(OpSpec::Cpd { rank: 2, sweeps: 0, seed: 1 }.validate(&x).is_err());
        assert!(OpSpec::Ttv { mode: 2, seed: 1 }.validate(&x).is_ok());
    }

    #[test]
    fn budgets_follow_the_conformance_scheme() {
        assert_eq!(OpSpec::Tew { op: EwOp::Add, seed: 0 }.budget(), 0);
        assert_eq!(OpSpec::Ttv { mode: 0, seed: 0 }.budget(), 256);
        assert_eq!(
            OpSpec::Mttkrp { mode: 0, rank: 1, seed: 0, route: MttkrpRoute::Coo }.budget(),
            0
        );
    }
}
