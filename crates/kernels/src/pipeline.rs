//! The unified plan→execute pipeline: operator selectors, execution
//! context, contention-free scheduling primitives, and the format/kernel
//! registry the GPU backend and the conformance matrix derive their
//! coverage from.
//!
//! This module folds the former `ops`/`ctx`/`sched` modules into one
//! place: a kernel invocation is a *plan* (untimed preprocessing built
//! from format capabilities plus the strategy analysis in
//! [`analysis`](crate::analysis)) followed by an *execute* (the timed
//! value computation), dispatched through [`KernelPlan`] onto the serial
//! CPU path or the `pasta-par` pool; the `simt` crate consumes the same
//! [`registry`] for its GPU coverage.

use crate::analysis::Kernel;
use crate::microkernel::add_assign;
use pasta_core::{Coord, Value};
use pasta_obs::{counters, instant, CounterId};
use pasta_par::Schedule;

/// The four element-wise binary operators of the TEW kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EwOp {
    /// `z = x + y`
    Add,
    /// `z = x − y`
    Sub,
    /// `z = x ∘ y` (Hadamard product)
    Mul,
    /// `z = x ⊘ y` (element-wise division)
    Div,
}

impl EwOp {
    /// Applies the operator to one element pair.
    #[inline]
    pub fn apply<V: Value>(self, x: V, y: V) -> V {
        match self {
            EwOp::Add => x + y,
            EwOp::Sub => x - y,
            EwOp::Mul => x * y,
            EwOp::Div => x / y,
        }
    }

    /// Whether a zero on either side annihilates the result (`Mul`), meaning
    /// the general-pattern output is the pattern *intersection* rather than
    /// the union.
    pub fn is_intersecting(self) -> bool {
        matches!(self, EwOp::Mul)
    }

    /// All four operators.
    pub const ALL: [EwOp; 4] = [EwOp::Add, EwOp::Sub, EwOp::Mul, EwOp::Div];
}

impl std::fmt::Display for EwOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            EwOp::Add => "add",
            EwOp::Sub => "sub",
            EwOp::Mul => "mul",
            EwOp::Div => "div",
        })
    }
}

/// The four tensor-scalar operators of the TS kernel.
///
/// The paper implements TSA and TSM, "sufficient to support all the four
/// operations"; the suite provides all four directly since `Sub`/`Div` cost
/// the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TsOp {
    /// `y = x + s` applied to non-zeros.
    Add,
    /// `y = x − s` applied to non-zeros.
    Sub,
    /// `y = x × s`.
    Mul,
    /// `y = x ÷ s`.
    Div,
}

impl TsOp {
    /// Applies the operator to one non-zero.
    #[inline]
    pub fn apply<V: Value>(self, x: V, s: V) -> V {
        match self {
            TsOp::Add => x + s,
            TsOp::Sub => x - s,
            TsOp::Mul => x * s,
            TsOp::Div => x / s,
        }
    }

    /// All four operators.
    pub const ALL: [TsOp; 4] = [TsOp::Add, TsOp::Sub, TsOp::Mul, TsOp::Div];
}

impl std::fmt::Display for TsOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TsOp::Add => "add",
            TsOp::Sub => "sub",
            TsOp::Mul => "mul",
            TsOp::Div => "div",
        })
    }
}

#[cfg(test)]
mod op_tests {
    use super::*;

    #[test]
    fn ew_semantics() {
        assert_eq!(EwOp::Add.apply(2.0_f32, 3.0), 5.0);
        assert_eq!(EwOp::Sub.apply(2.0_f32, 3.0), -1.0);
        assert_eq!(EwOp::Mul.apply(2.0_f32, 3.0), 6.0);
        assert_eq!(EwOp::Div.apply(3.0_f32, 2.0), 1.5);
        assert!(EwOp::Mul.is_intersecting());
        assert!(!EwOp::Add.is_intersecting());
        assert_eq!(EwOp::ALL.len(), 4);
    }

    #[test]
    fn ts_semantics() {
        assert_eq!(TsOp::Add.apply(2.0_f64, 0.5), 2.5);
        assert_eq!(TsOp::Sub.apply(2.0_f64, 0.5), 1.5);
        assert_eq!(TsOp::Mul.apply(2.0_f64, 0.5), 1.0);
        assert_eq!(TsOp::Div.apply(2.0_f64, 0.5), 4.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(EwOp::Add.to_string(), "add");
        assert_eq!(TsOp::Div.to_string(), "div");
    }
}

/// Which contention-free MTTKRP schedule to use (see
/// [`choose_mttkrp_strategy`](crate::analysis::choose_mttkrp_strategy)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyChoice {
    /// Let the cost model pick (the default).
    #[default]
    Auto,
    /// Force owner-computes (fiber-aligned non-zero ranges; falls back to
    /// privatization if the mode-`n` indices are not non-decreasing).
    Owner,
    /// Force privatized reduction (per-worker accumulators + tree merge).
    Privatized,
}

/// Whether kernel *chains* (TTM chains, multi-mode TTV products, the CP-ALS
/// sweep) execute fused through per-thread workspaces or materialize every
/// intermediate sparse tensor (see [`lower`](crate::expr::lower)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FusionChoice {
    /// Let the fuse-vs-materialize cost model in
    /// [`analysis`](crate::analysis) pick (the default).
    #[default]
    Auto,
    /// Force the fused path (workspaces, no intermediate tensors).
    Fuse,
    /// Force the kernel-at-a-time path (materialized intermediates) — the
    /// ablation baseline.
    Materialize,
}

/// Default HiCOO block size (the paper fixes `B = 128`).
pub const DEFAULT_BLOCK_SIZE: u32 = 128;

/// How a kernel should execute: worker count and loop schedule.
///
/// # Examples
///
/// ```
/// use pasta_kernels::Ctx;
/// use pasta_par::Schedule;
///
/// let seq = Ctx::sequential();
/// assert_eq!(seq.threads, 1);
/// let par = Ctx::new(8, Schedule::Static);
/// assert_eq!(par.threads, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ctx {
    /// Number of worker threads (1 = sequential).
    pub threads: usize,
    /// Loop scheduling strategy for the parallel loops.
    pub schedule: Schedule,
    /// MTTKRP scheduling strategy (default: cost-model auto-selection).
    pub mttkrp: StrategyChoice,
    /// Fuse-vs-materialize choice for kernel chains (default: cost model).
    pub fusion: FusionChoice,
}

impl Ctx {
    /// A context with explicit thread count and schedule.
    pub fn new(threads: usize, schedule: Schedule) -> Self {
        Self {
            threads: threads.max(1),
            schedule,
            mttkrp: StrategyChoice::Auto,
            fusion: FusionChoice::Auto,
        }
    }

    /// Single-threaded execution.
    pub fn sequential() -> Self {
        Self {
            threads: 1,
            schedule: Schedule::Static,
            mttkrp: StrategyChoice::Auto,
            fusion: FusionChoice::Auto,
        }
    }

    /// All available cores with the suite's default dynamic schedule
    /// (the paper sets threads to the number of physical cores).
    pub fn parallel() -> Self {
        Self {
            threads: pasta_par::default_threads(),
            schedule: Schedule::default_dynamic(),
            mttkrp: StrategyChoice::Auto,
            fusion: FusionChoice::Auto,
        }
    }

    /// The same context with a forced MTTKRP strategy.
    pub fn with_mttkrp(mut self, choice: StrategyChoice) -> Self {
        self.mttkrp = choice;
        self
    }

    /// The same context with a forced fuse-vs-materialize choice for
    /// kernel chains.
    pub fn with_fusion(mut self, choice: FusionChoice) -> Self {
        self.fusion = choice;
        self
    }

    /// The HiCOO block size plans built under this context should use:
    /// the suite default [`DEFAULT_BLOCK_SIZE`].
    pub fn block_size(&self) -> u32 {
        DEFAULT_BLOCK_SIZE
    }

    /// Whether this context runs on one thread.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }
}

impl Default for Ctx {
    fn default() -> Self {
        Self::parallel()
    }
}

#[cfg(test)]
mod ctx_tests {
    use super::*;

    #[test]
    fn constructors() {
        assert!(Ctx::sequential().is_sequential());
        assert!(!Ctx::new(4, Schedule::Guided).is_sequential());
        assert_eq!(Ctx::new(0, Schedule::Static).threads, 1, "clamped to 1");
        assert!(Ctx::default().threads >= 1);
        assert_eq!(Ctx::default().mttkrp, StrategyChoice::Auto);
        let forced = Ctx::parallel().with_mttkrp(StrategyChoice::Owner);
        assert_eq!(forced.mttkrp, StrategyChoice::Owner);
    }

    #[test]
    fn plans_built_counter_accumulates() {
        // The registry is shared across tests; only verify delta behavior.
        pasta_obs::set_counting(true);
        let before = counters().get(CounterId::PlansBuilt);
        KernelPlan::new(Kernel::Ttv, FormatKind::Coo, BackendKind::Cpu, &Ctx::sequential())
            .unwrap();
        assert!(counters().get(CounterId::PlansBuilt) > before);
    }
}

/// Splits `0..rows_idx.len()` into at most `parts` contiguous ranges that
/// never cut through a run of equal values in `rows_idx` (which must be
/// non-decreasing — the mode-`n` index array of a mode-`n`-outermost-sorted
/// tensor).
///
/// Cuts start at the balanced positions `k·nnz/parts` and advance forward to
/// the next row boundary, so ranges are near-equal for typical row-length
/// distributions and a single giant row degrades to fewer (never incorrect)
/// ranges. Empty ranges are dropped; the concatenation of the returned
/// ranges is exactly `0..rows_idx.len()`.
pub fn owner_ranges(rows_idx: &[Coord], parts: usize) -> Vec<std::ops::Range<usize>> {
    let nnz = rows_idx.len();
    let parts = parts.max(1);
    debug_assert!(rows_idx.windows(2).all(|w| w[0] <= w[1]), "owner_ranges needs sorted rows");
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for k in 1..=parts {
        if start >= nnz {
            break;
        }
        let mut cut = if k == parts { nnz } else { (k * nnz / parts).max(start) };
        // Advance to the next row boundary so no row straddles two ranges.
        while cut < nnz && cut > 0 && rows_idx[cut] == rows_idx[cut - 1] {
            cut += 1;
        }
        if cut > start {
            ranges.push(start..cut);
            start = cut;
        }
    }
    ranges
}

/// An open-addressing hash accumulator mapping output rows to `rank`-wide
/// value blocks.
///
/// Used as the per-worker private buffer of the privatized-sparse MTTKRP
/// strategy: capacity scales with the rows a worker actually touches, not
/// the mode dimension. Keys are row indices (`u32::MAX` is the empty
/// sentinel — mode dimensions are bounded by `Coord::MAX` so no valid row
/// collides with it); probing is linear; the table rehashes at 7/8 load.
#[derive(Debug)]
pub struct SparseAcc<V> {
    keys: Vec<u32>,
    vals: Vec<V>,
    rank: usize,
    len: usize,
}

const EMPTY: u32 = u32::MAX;

impl<V: Value> SparseAcc<V> {
    /// Creates an accumulator for `rank`-wide rows with room for about
    /// `expected_rows` distinct rows before the first rehash.
    pub fn new(rank: usize, expected_rows: usize) -> Self {
        let cap = (expected_rows.max(4) * 8 / 7 + 1).next_power_of_two();
        Self { keys: vec![EMPTY; cap], vals: vec![V::ZERO; cap * rank], rank, len: 0 }
    }

    /// The number of distinct rows touched.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no rows were touched.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The accumulator's memory footprint in bytes (keys + values).
    pub fn bytes(&self) -> usize {
        self.keys.len() * std::mem::size_of::<u32>() + self.vals.len() * V::BYTES
    }

    #[inline]
    fn slot(&self, row: u32) -> usize {
        // Fibonacci multiplicative hash: spreads clustered row indices
        // across the power-of-two table.
        let h = (row as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.keys.len().trailing_zeros())) as usize
    }

    /// Returns the `rank`-wide accumulator block for `row`, inserting a
    /// zeroed block on first touch.
    pub fn row_mut(&mut self, row: u32) -> &mut [V] {
        debug_assert_ne!(row, EMPTY);
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let mask = self.keys.len() - 1;
        let mut i = self.slot(row);
        loop {
            let k = self.keys[i];
            if k == row {
                break;
            }
            if k == EMPTY {
                self.keys[i] = row;
                self.len += 1;
                break;
            }
            i = (i + 1) & mask;
        }
        &mut self.vals[i * self.rank..(i + 1) * self.rank]
    }

    fn grow(&mut self) {
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; 0]);
        let old_vals = std::mem::take(&mut self.vals);
        let cap = (old_keys.len() * 2).max(8);
        self.keys = vec![EMPTY; cap];
        self.vals = vec![V::ZERO; cap * self.rank];
        self.len = 0;
        for (i, &k) in old_keys.iter().enumerate() {
            if k != EMPTY {
                let block = &old_vals[i * self.rank..(i + 1) * self.rank];
                self.row_mut(k).copy_from_slice(block);
            }
        }
    }

    /// Folds `other` into `self` row-by-row (the tree-reduction merge).
    pub fn merge(&mut self, other: &SparseAcc<V>) {
        debug_assert_eq!(self.rank, other.rank);
        for (i, &k) in other.keys.iter().enumerate() {
            if k != EMPTY {
                let src = &other.vals[i * other.rank..(i + 1) * other.rank];
                add_assign(self.row_mut(k), src);
            }
        }
    }

    /// Adds every accumulated row into the dense output (row-major,
    /// `rank` columns).
    pub fn drain_into(&self, out: &mut [V]) {
        for (i, &k) in self.keys.iter().enumerate() {
            if k != EMPTY {
                let src = &self.vals[i * self.rank..(i + 1) * self.rank];
                let dst = &mut out[k as usize * self.rank..(k as usize + 1) * self.rank];
                add_assign(dst, src);
            }
        }
    }
}

/// The sparse tensor formats the suite implements, as registry keys.
///
/// Each variant corresponds to one concrete tensor type in `pasta-core`;
/// the label is the lowercase name used in conformance cell ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatKind {
    /// Coordinate format ([`CooTensor`](pasta_core::CooTensor)).
    Coo,
    /// Blocked coordinate format ([`HiCooTensor`](pasta_core::HiCooTensor)).
    Hicoo,
    /// Per-mode blocked COO ([`GHiCooTensor`](pasta_core::GHiCooTensor)).
    Ghicoo,
    /// Semi-sparse COO ([`SemiCooTensor`](pasta_core::SemiCooTensor)).
    Scoo,
    /// Semi-sparse HiCOO ([`SHiCooTensor`](pasta_core::SHiCooTensor)).
    Shicoo,
    /// Compressed sparse fiber ([`CsfTensor`](pasta_core::CsfTensor)).
    Csf,
    /// Flagged COO ([`FCooTensor`](pasta_core::FCooTensor)).
    Fcoo,
}

impl FormatKind {
    /// All seven formats.
    pub const ALL: [FormatKind; 7] = [
        FormatKind::Coo,
        FormatKind::Hicoo,
        FormatKind::Ghicoo,
        FormatKind::Scoo,
        FormatKind::Shicoo,
        FormatKind::Csf,
        FormatKind::Fcoo,
    ];

    /// The lowercase label used in conformance cell ids.
    pub fn label(self) -> &'static str {
        match self {
            FormatKind::Coo => "coo",
            FormatKind::Hicoo => "hicoo",
            FormatKind::Ghicoo => "ghicoo",
            FormatKind::Scoo => "scoo",
            FormatKind::Shicoo => "shicoo",
            FormatKind::Csf => "csf",
            FormatKind::Fcoo => "fcoo",
        }
    }
}

impl std::fmt::Display for FormatKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a kernel executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Host execution — serial, or the `pasta-par` pool when
    /// [`Ctx::threads`] exceeds one.
    Cpu,
    /// The `simt` block/thread execution model.
    Gpu,
}

impl BackendKind {
    /// Both backends.
    pub const ALL: [BackendKind; 2] = [BackendKind::Cpu, BackendKind::Gpu];

    /// The lowercase label used in conformance cell ids.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Cpu => "cpu",
            BackendKind::Gpu => "gpu",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One implemented (kernel, format, backend) combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Combo {
    /// Which of the five kernels.
    pub kernel: Kernel,
    /// The input tensor format.
    pub format: FormatKind,
    /// Where it runs.
    pub backend: BackendKind,
}

impl std::fmt::Display for Combo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.kernel.to_string().to_lowercase(), self.format, self.backend)
    }
}

/// Every (kernel, format, backend) combination the suite implements.
///
/// This is the single source of truth for coverage: the conformance
/// matrix generates its cells from it (and must list an explicit skip
/// for any combo it cannot check), and the `simt` crate's
/// `gpu_supported()` list is tested against its GPU rows. Adding a
/// kernel-format implementation without registering it here fails the
/// completeness tests.
pub fn registry() -> Vec<Combo> {
    use BackendKind::{Cpu, Gpu};
    let mut combos = Vec::new();
    // Element-wise kernels run on every format through the generic
    // FormatAccess path: structure is reused, only values are rewritten.
    for format in FormatKind::ALL {
        combos.push(Combo { kernel: Kernel::Tew, format, backend: Cpu });
        combos.push(Combo { kernel: Kernel::Ts, format, backend: Cpu });
    }
    // Fiber-contracting kernels need per-format plans.
    for format in [FormatKind::Coo, FormatKind::Hicoo, FormatKind::Csf, FormatKind::Fcoo] {
        combos.push(Combo { kernel: Kernel::Ttv, format, backend: Cpu });
    }
    for format in [FormatKind::Coo, FormatKind::Hicoo, FormatKind::Scoo] {
        combos.push(Combo { kernel: Kernel::Ttm, format, backend: Cpu });
    }
    for format in [FormatKind::Coo, FormatKind::Hicoo, FormatKind::Csf] {
        combos.push(Combo { kernel: Kernel::Mttkrp, format, backend: Cpu });
    }
    // GPU coverage mirrors the paper's GPU kernel set.
    for (kernel, format) in [
        (Kernel::Tew, FormatKind::Coo),
        (Kernel::Ts, FormatKind::Coo),
        (Kernel::Ttv, FormatKind::Coo),
        (Kernel::Ttv, FormatKind::Fcoo),
        (Kernel::Ttm, FormatKind::Coo),
        (Kernel::Mttkrp, FormatKind::Coo),
        (Kernel::Mttkrp, FormatKind::Hicoo),
    ] {
        combos.push(Combo { kernel, format, backend: Gpu });
    }
    combos
}

/// How a planned kernel will execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecRoute {
    /// One host thread, no pool involvement.
    SerialCpu,
    /// The `pasta-par` work-stealing pool.
    PoolCpu {
        /// Worker count the pool will use.
        threads: usize,
    },
    /// The `simt` block/thread execution model.
    Gpu,
}

/// A validated plan: which (kernel, format, backend) combination will run
/// and over which execution route.
///
/// This is the single dispatch point of the plan→execute pipeline: format
/// drivers build their untimed preprocessing (sorting, fiber discovery,
/// output allocation) against a `KernelPlan`, then the timed execute step
/// follows [`route`](KernelPlan::route). Constructing a plan for an
/// unregistered combination is an error, so dispatch can never silently
/// fall through to an unimplemented path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelPlan {
    combo: Combo,
    route: ExecRoute,
    mttkrp: StrategyChoice,
}

impl KernelPlan {
    /// Plans `kernel` over `format` on `backend` under `ctx`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OperandMismatch`](pasta_core::Error::OperandMismatch)
    /// when the combination is not in the [`registry`].
    pub fn new(
        kernel: Kernel,
        format: FormatKind,
        backend: BackendKind,
        ctx: &Ctx,
    ) -> pasta_core::Result<Self> {
        let combo = Combo { kernel, format, backend };
        if !registry().contains(&combo) {
            return Err(pasta_core::Error::OperandMismatch {
                what: format!("no implementation registered for {combo}"),
            });
        }
        let route = match backend {
            BackendKind::Gpu => ExecRoute::Gpu,
            BackendKind::Cpu if ctx.is_sequential() => ExecRoute::SerialCpu,
            BackendKind::Cpu => ExecRoute::PoolCpu { threads: ctx.threads },
        };
        counters().add(CounterId::PlansBuilt, 1);
        instant("plan", "pipeline.plan", combo.format.label(), ctx.threads as u64, 0, 0);
        Ok(Self { combo, route, mttkrp: ctx.mttkrp })
    }

    /// The combination this plan executes.
    pub fn combo(&self) -> Combo {
        self.combo
    }

    /// The execution route the combination resolved to.
    pub fn route(&self) -> ExecRoute {
        self.route
    }

    /// The MTTKRP strategy choice carried from the context.
    pub fn mttkrp(&self) -> StrategyChoice {
        self.mttkrp
    }
}

#[cfg(test)]
mod registry_tests {
    use super::*;

    #[test]
    fn registry_has_no_duplicates() {
        let combos = registry();
        for (i, a) in combos.iter().enumerate() {
            for b in &combos[i + 1..] {
                assert_ne!(a, b, "duplicate combo {a}");
            }
        }
    }

    #[test]
    fn elementwise_kernels_cover_every_format() {
        let combos = registry();
        for kernel in [Kernel::Tew, Kernel::Ts] {
            for format in FormatKind::ALL {
                let combo = Combo { kernel, format, backend: BackendKind::Cpu };
                assert!(combos.contains(&combo), "missing {combo}");
            }
        }
    }

    #[test]
    fn every_kernel_has_coo_on_both_backends() {
        let combos = registry();
        for kernel in Kernel::ALL {
            for backend in BackendKind::ALL {
                let combo = Combo { kernel, format: FormatKind::Coo, backend };
                assert!(combos.contains(&combo), "missing {combo}");
            }
        }
    }

    #[test]
    fn combo_display_matches_cell_id_grammar() {
        let combo =
            Combo { kernel: Kernel::Mttkrp, format: FormatKind::Hicoo, backend: BackendKind::Gpu };
        assert_eq!(combo.to_string(), "mttkrp/hicoo/gpu");
    }

    #[test]
    fn plan_routes_follow_ctx() {
        let seq =
            KernelPlan::new(Kernel::Ttv, FormatKind::Coo, BackendKind::Cpu, &Ctx::sequential())
                .unwrap();
        assert_eq!(seq.route(), ExecRoute::SerialCpu);
        let par = KernelPlan::new(
            Kernel::Ttv,
            FormatKind::Coo,
            BackendKind::Cpu,
            &Ctx::new(4, Schedule::Static),
        )
        .unwrap();
        assert_eq!(par.route(), ExecRoute::PoolCpu { threads: 4 });
        let gpu =
            KernelPlan::new(Kernel::Ttv, FormatKind::Coo, BackendKind::Gpu, &Ctx::sequential())
                .unwrap();
        assert_eq!(gpu.route(), ExecRoute::Gpu);
        assert_eq!(gpu.combo().kernel, Kernel::Ttv);
        assert_eq!(gpu.mttkrp(), StrategyChoice::Auto);
    }

    #[test]
    fn plan_rejects_unregistered_combo() {
        // TTM over F-COO is not implemented anywhere.
        let err =
            KernelPlan::new(Kernel::Ttm, FormatKind::Fcoo, BackendKind::Cpu, &Ctx::sequential());
        assert!(err.is_err());
    }
}

#[cfg(test)]
mod sched_tests {
    use super::*;

    #[test]
    fn owner_ranges_partition_and_align() {
        let rows: Vec<Coord> = vec![0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 5, 5];
        for parts in 1..=8 {
            let rs = owner_ranges(&rows, parts);
            // Exact partition of 0..nnz.
            let mut cursor = 0;
            for r in &rs {
                assert_eq!(r.start, cursor);
                cursor = r.end;
            }
            assert_eq!(cursor, rows.len());
            // No row straddles a boundary.
            for r in &rs {
                if r.start > 0 {
                    assert_ne!(rows[r.start], rows[r.start - 1], "parts={parts} range={r:?}");
                }
            }
            assert!(rs.len() <= parts);
        }
    }

    #[test]
    fn owner_ranges_single_giant_row() {
        let rows = vec![7u32; 100];
        let rs = owner_ranges(&rows, 4);
        assert_eq!(rs, vec![0..100]);
    }

    #[test]
    fn owner_ranges_empty() {
        assert!(owner_ranges(&[], 4).is_empty());
    }

    #[test]
    fn sparse_acc_accumulates_and_grows() {
        let mut acc = SparseAcc::<f64>::new(3, 2);
        // Insert far more rows than the initial capacity to force rehashes.
        for pass in 0..2 {
            for row in 0..200u32 {
                let block = acc.row_mut(row * 1000);
                for (j, b) in block.iter_mut().enumerate() {
                    *b += (row as f64) + j as f64 + pass as f64;
                }
            }
        }
        assert_eq!(acc.len(), 200);
        let mut out = vec![0.0f64; 200_000 * 3];
        acc.drain_into(&mut out);
        for row in 0..200usize {
            for j in 0..3 {
                let want = 2.0 * row as f64 + 2.0 * j as f64 + 1.0;
                assert_eq!(out[row * 1000 * 3 + j], want, "row={row} j={j}");
            }
        }
    }

    #[test]
    fn sparse_acc_merge_matches_single() {
        let mut a = SparseAcc::<f32>::new(2, 4);
        let mut b = SparseAcc::<f32>::new(2, 4);
        for row in 0..50u32 {
            a.row_mut(row)[0] += row as f32;
            b.row_mut(row * 2)[1] += 1.0;
        }
        assert!(!a.is_empty());
        assert!(a.bytes() > 0);
        a.merge(&b);
        let mut out = vec![0.0f32; 100 * 2];
        a.drain_into(&mut out);
        for row in 0..50usize {
            assert_eq!(out[row * 2], row as f32);
            assert_eq!(out[row * 2 * 2 + 1], 1.0);
        }
    }
}
