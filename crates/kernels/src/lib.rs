//! # pasta-kernels — the five PASTA sparse tensor kernels
//!
//! Reference implementations of the benchmark suite's kernels (Sections II
//! and III of the paper), written once against the `pasta-core` format-
//! access traits and instantiated per format:
//!
//! | Kernel | CPU formats | Output |
//! |--------|-------------|--------|
//! | TEW    | all seven via [`tew_any`] (wrappers [`tew_coo`], [`tew_hicoo`], [`tew_ghicoo`], [`tew_scoo`], [`tew_shicoo`], [`tew_csf`], [`tew_fcoo`]) | same structure as inputs |
//! | TS     | all seven via [`ts_any`] (wrappers [`ts_coo`] … [`ts_fcoo`]) | same structure as input |
//! | TTV    | [`ttv_coo`] / [`TtvCooPlan`], [`ttv_hicoo`] / [`TtvHicooPlan`], [`ttv_csf_leaf`] / [`CsfTtvPlan`], [`ttv_fcoo`] | sparse, order N−1 |
//! | TTM    | [`ttm_coo`] / [`TtmCooPlan`], [`ttm_hicoo`] / [`TtmHicooPlan`], [`ttm_scoo`] | semi-sparse (sCOO / sHiCOO) |
//! | MTTKRP | [`mttkrp_coo`], [`mttkrp_hicoo`], [`mttkrp_csf_root`] | dense `I_n × R` matrix |
//!
//! Element-wise kernels run on any `FormatAccess` implementor: structure is
//! reused, only the value array is rewritten. Fiber-contracting kernels
//! (TTV, TTM) share the generic executors in [`fibers`], parametrized by a
//! `FiberCursor` — COO sorted fibers, HiCOO blocks and CSF sub-trees all
//! drive the same monomorphized inner loop, so per-format results stay
//! bit-identical to the pre-refactor kernels. F-COO TTV keeps its own
//! segmented-reduction formulation in [`fcoo`].
//!
//! All kernels operate directly on non-zero entries — no tensor-matrix
//! transformation — and support arbitrary tensor orders. The plan types
//! separate pre-processing (sorting, fiber discovery, output allocation)
//! from the timed value computation, matching the paper's measurement
//! methodology. The [`analysis`] module encodes Table I's flop/byte model,
//! and [`pipeline`] holds the execution context, the format×kernel×backend
//! [`registry`], and the [`KernelPlan`] plan→execute dispatcher.
//!
//! # Examples
//!
//! ```
//! use pasta_core::{CooTensor, DenseVector, Shape};
//! use pasta_kernels::{ttv_coo, Ctx};
//!
//! # fn main() -> Result<(), pasta_core::Error> {
//! let x = CooTensor::from_entries(
//!     Shape::new(vec![2, 2, 2]),
//!     vec![(vec![0, 1, 0], 1.0_f32), (vec![0, 1, 1], 2.0)],
//! )?;
//! let v = DenseVector::from_vec(vec![3.0, 4.0]);
//! let y = ttv_coo(&x, &v, 2, &Ctx::sequential())?;
//! assert_eq!(y.get(&[0, 1]), Some(11.0));
//! # Ok(())
//! # }
//! ```

// Dense/kernel code indexes several arrays in lockstep; iterator
// rewrites of those loops obscure the math.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod csf;
pub mod dense_ref;
pub mod expr;
pub mod fcoo;
pub mod fibers;
pub mod microkernel;
pub mod mttkrp;
pub mod pipeline;
pub mod tew;
pub mod ts;
pub mod ttm;
pub mod ttv;
pub mod workspace;

pub use analysis::{
    choose_fusion, choose_mttkrp_strategy, kernel_cost, resort_pays_off, CostParams, FuseDecision,
    FusionParams, Kernel, KernelCost, MttkrpSchedParams, MttkrpStrategy, DEFAULT_DENSE_THRESHOLD,
    FUSE_WORKSPACE_FACTOR,
};
pub use csf::{mttkrp_csf_root, ttv_csf_leaf, CsfTtvPlan};
pub use expr::{
    expr_registry, lower, Bindings, ContractionPlan, ExprGraph, ExprId, ExprOut, ExprPlan,
    ExprRoute, LeafTensor, MatOperand, VecOperand,
};
pub use fcoo::ttv_fcoo;
pub use microkernel::{force_simd, prefetch_read, simd_level, SimdLevel};
pub use mttkrp::{
    mttkrp_coo, mttkrp_coo_traced, mttkrp_hicoo, mttkrp_hicoo_traced, MttkrpCooPlan, MttkrpRun,
};
pub use pipeline::{
    owner_ranges, registry, BackendKind, Combo, Ctx, EwOp, ExecRoute, FormatKind, FusionChoice,
    KernelPlan, StrategyChoice, TsOp, DEFAULT_BLOCK_SIZE,
};
pub use tew::{
    tew_any, tew_coo, tew_coo_general, tew_coo_same_pattern, tew_csf, tew_fcoo, tew_ghicoo,
    tew_hicoo, tew_scoo, tew_shicoo, tew_values_into,
};
pub use ts::{
    ts_any, ts_coo, ts_csf, ts_fcoo, ts_ghicoo, ts_hicoo, ts_in_place, ts_scoo, ts_shicoo,
    ts_values_into,
};
pub use ttm::{ttm_coo, ttm_hicoo, ttm_scoo, TtmCooPlan, TtmHicooPlan};
pub use ttv::{ttv_coo, ttv_hicoo, TtvCooPlan, TtvHicooPlan};
pub use workspace::{choose_workspace, FusedWorkspace, WorkspaceKind};

// The unified observability registry, re-exported so downstream crates
// (pasta-algos) need no direct pasta-obs dependency.
pub use pasta_obs as obs;
pub use pasta_obs::{counters, CounterId, CounterRegistry, CounterSnapshot};
