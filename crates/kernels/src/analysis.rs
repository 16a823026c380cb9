//! Operational-intensity analysis (Table I of the paper).
//!
//! For a third-order cubical tensor with `M` non-zeros and `M_F` mode-`n`
//! fibers (`I ≪ M_F ≪ M`), 32-bit indices and `f32` values, Table I gives
//! per-kernel flop counts and *upper-bound* memory traffic (irregular
//! accesses counted as misses). These formulas drive the Roofline analysis:
//! `attainable GFLOPS = OI × obtainable bandwidth`.

use pasta_core::{BlockStats, TensorStats};

/// The five PASTA kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Tensor element-wise (two-operand streaming).
    Tew,
    /// Tensor-scalar (one-operand streaming).
    Ts,
    /// Tensor-times-vector.
    Ttv,
    /// Tensor-times-matrix.
    Ttm,
    /// Matricized tensor times Khatri-Rao product.
    Mttkrp,
}

impl Kernel {
    /// All five kernels in the paper's order.
    pub const ALL: [Kernel; 5] =
        [Kernel::Tew, Kernel::Ts, Kernel::Ttv, Kernel::Ttm, Kernel::Mttkrp];

    /// The paper's nominal OI approximation for this kernel
    /// (the "OI" column of Table I).
    pub fn nominal_oi(self) -> f64 {
        match self {
            Kernel::Tew => 1.0 / 12.0,
            Kernel::Ts => 1.0 / 8.0,
            Kernel::Ttv => 1.0 / 6.0,
            Kernel::Ttm => 1.0 / 2.0,
            Kernel::Mttkrp => 1.0 / 4.0,
        }
    }

    /// Whether the paper classifies the kernel as *streaming* (regular,
    /// bandwidth-saturating access) — Observation 3 contrasts TEW/TS against
    /// the non-streaming TTV/TTM/MTTKRP.
    pub fn is_streaming(self) -> bool {
        matches!(self, Kernel::Tew | Kernel::Ts)
    }

    /// The kernel's display name as a static string (span labels and the
    /// roofline report need `&'static str`, not a formatter).
    pub fn label(self) -> &'static str {
        match self {
            Kernel::Tew => "TEW",
            Kernel::Ts => "TS",
            Kernel::Ttv => "TTV",
            Kernel::Ttm => "TTM",
            Kernel::Mttkrp => "MTTKRP",
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Inputs to the Table I cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Non-zero count `M`.
    pub m: f64,
    /// Mode-`n` fiber count `M_F` (TTV/TTM only).
    pub mf: f64,
    /// Dense-operand column count `R` (TTM/MTTKRP; the paper uses 16).
    pub r: f64,
    /// HiCOO block count `n_b`.
    pub nb: f64,
    /// HiCOO block size `B` (the paper fixes 128).
    pub block_size: f64,
}

impl CostParams {
    /// Builds cost parameters from tensor statistics for the given product
    /// mode, rank and HiCOO block statistics.
    pub fn from_stats(stats: &TensorStats, mode: usize, r: usize, blocks: &BlockStats) -> Self {
        Self {
            m: stats.nnz as f64,
            mf: stats.fiber_counts[mode] as f64,
            r: r as f64,
            nb: blocks.num_blocks as f64,
            block_size: blocks.block_size as f64,
        }
    }
}

/// One row of Table I: flops, upper-bound bytes for both formats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCost {
    /// Floating-point operations.
    pub flops: f64,
    /// Upper-bound bytes moved by the COO implementation.
    pub coo_bytes: f64,
    /// Upper-bound bytes moved by the HiCOO implementation.
    pub hicoo_bytes: f64,
}

impl KernelCost {
    /// Operational intensity of the COO implementation.
    pub fn coo_oi(&self) -> f64 {
        self.flops / self.coo_bytes
    }

    /// Operational intensity of the HiCOO implementation.
    pub fn hicoo_oi(&self) -> f64 {
        self.flops / self.hicoo_bytes
    }
}

/// Evaluates the Table I formulas for `kernel` under `p`.
pub fn kernel_cost(kernel: Kernel, p: &CostParams) -> KernelCost {
    let CostParams { m, mf, r, nb, block_size } = *p;
    match kernel {
        Kernel::Tew => KernelCost { flops: m, coo_bytes: 12.0 * m, hicoo_bytes: 12.0 * m },
        Kernel::Ts => KernelCost { flops: m, coo_bytes: 8.0 * m, hicoo_bytes: 8.0 * m },
        Kernel::Ttv => {
            let bytes = 12.0 * m + 12.0 * mf;
            KernelCost { flops: 2.0 * m, coo_bytes: bytes, hicoo_bytes: bytes }
        }
        Kernel::Ttm => KernelCost {
            flops: 2.0 * m * r,
            coo_bytes: 4.0 * m * r + 4.0 * mf * r + 8.0 * mf + 8.0 * m + 8.0 * mf,
            hicoo_bytes: 4.0 * m * r + 4.0 * mf * r + 8.0 * m + 8.0 * mf,
        },
        Kernel::Mttkrp => KernelCost {
            flops: 3.0 * m * r,
            coo_bytes: 12.0 * m * r + 16.0 * m,
            hicoo_bytes: 12.0 * r * (nb * block_size).min(m) + 7.0 * m + 20.0 * nb,
        },
    }
}

/// The MTTKRP schedule a traced execution actually used.
///
/// [`StrategyChoice`](crate::pipeline::StrategyChoice) is the *request*
/// (auto/forced); this is the *outcome*, reported by the traced kernel
/// entry points and counted in the per-strategy `mttkrp.*_nnz` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MttkrpStrategy {
    /// Single-threaded plain accumulation.
    Sequential,
    /// Owner-computes: fiber-aligned non-zero ranges, each output row
    /// written by exactly one thread. Bit-identical to sequential.
    Owner,
    /// Privatized reduction with dense per-worker accumulators.
    PrivatizedDense,
    /// Privatized reduction with hashed sparse per-worker accumulators
    /// (large mode dimensions).
    PrivatizedSparse,
}

impl MttkrpStrategy {
    /// Whether this is one of the two privatized-reduction variants.
    pub fn is_privatized(self) -> bool {
        matches!(self, MttkrpStrategy::PrivatizedDense | MttkrpStrategy::PrivatizedSparse)
    }

    /// The strategy's lowercase name as a static string (span detail tags
    /// need `&'static str`).
    pub fn label(self) -> &'static str {
        match self {
            MttkrpStrategy::Sequential => "sequential",
            MttkrpStrategy::Owner => "owner",
            MttkrpStrategy::PrivatizedDense => "privatized-dense",
            MttkrpStrategy::PrivatizedSparse => "privatized-sparse",
        }
    }
}

impl std::fmt::Display for MttkrpStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Inputs to the MTTKRP strategy cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MttkrpSchedParams {
    /// Non-zero count.
    pub nnz: usize,
    /// Output row count (the mode-`n` dimension).
    pub out_rows: usize,
    /// Factor-matrix rank `R`.
    pub rank: usize,
    /// Requested worker count.
    pub threads: usize,
    /// Whether the tensor is already sorted with mode `n` outermost.
    pub mode_outermost_sorted: bool,
}

/// Picks the contention-free MTTKRP schedule for the given shape of work.
///
/// The model is deliberately coarse — it only has to separate regimes that
/// differ by integer factors, not rank orderings within a regime:
///
/// - one thread (or one non-zero per thread) ⇒ [`MttkrpStrategy::Sequential`];
/// - mode-`n`-outermost sort order ⇒ [`MttkrpStrategy::Owner`] — zero extra
///   memory, bit-identical to sequential, perfectly partitioned writes;
/// - otherwise privatize. Dense accumulators cost
///   `threads × out_rows × rank` values to allocate, fill and merge, so they
///   are used when that total is within `4×` the flop-proportional
///   `nnz × rank` work (`threads·out_rows ≤ 4·nnz`) or when one accumulator
///   is small outright (`out_rows·rank ≤ 2¹⁶` values ⇒ ≤ 512 KiB of `f64`
///   across 8 workers); hyper-sparse outputs fall through to
///   [`MttkrpStrategy::PrivatizedSparse`], whose hashed accumulators scale
///   with touched rows instead of `out_rows`.
pub fn choose_mttkrp_strategy(p: &MttkrpSchedParams) -> MttkrpStrategy {
    if p.threads <= 1 || p.nnz <= 1 {
        return MttkrpStrategy::Sequential;
    }
    if p.mode_outermost_sorted {
        return MttkrpStrategy::Owner;
    }
    let dense_cells = p.threads.saturating_mul(p.out_rows);
    if dense_cells <= DEFAULT_DENSE_THRESHOLD.saturating_mul(p.nnz)
        || p.out_rows.saturating_mul(p.rank) <= (1 << 16)
    {
        MttkrpStrategy::PrivatizedDense
    } else {
        MttkrpStrategy::PrivatizedSparse
    }
}

/// The dense-privatization threshold `T` in `threads·rows ≤ T·nnz` (the
/// `4×` of [`choose_mttkrp_strategy`]), shared with the fused-workspace
/// choice.
pub const DEFAULT_DENSE_THRESHOLD: usize = 4;

/// Whether a plan that owns its tensor copy should radix re-sort it mode-`n`
/// outermost to unlock owner-computes, instead of privatizing.
///
/// A re-sort costs one `O(nnz)` parallel radix pass but is amortized across
/// every later execution of the plan; privatization pays
/// `threads × out_rows × rank` merge traffic *per execution*. Re-sort when
/// the per-execution merge bill dominates a sort pass:
/// `threads·out_rows > 2·nnz`.
pub fn resort_pays_off(p: &MttkrpSchedParams) -> bool {
    p.threads > 1 && p.threads.saturating_mul(p.out_rows) > 2 * p.nnz
}

/// Inputs to the fuse-vs-materialize cost model for kernel chains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FusionParams {
    /// Input non-zero count.
    pub nnz: usize,
    /// Distinct output fibers (upper bound: `nnz`).
    pub out_fibers: usize,
    /// Values per output fiber on the fused path (`∏R_m` for a TTM chain,
    /// 1 for a TTV product, `R` for an ALS sweep).
    pub dense_volume: usize,
    /// Chain length — how many intermediate tensors the kernel-at-a-time
    /// path would materialize.
    pub steps: usize,
    /// Requested worker count.
    pub threads: usize,
}

/// What the fuse-vs-materialize model decided for a kernel chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuseDecision {
    /// Execute the chain fused through per-thread workspaces.
    Fuse,
    /// Materialize each intermediate (the kernel-at-a-time baseline).
    Materialize,
}

/// Trade-off factor of [`choose_fusion`]: fuse while workspace traffic is
/// within this multiple of what the materialized path writes, sorts, and
/// re-reads per step.
pub const FUSE_WORKSPACE_FACTOR: usize = 8;

/// Picks fused vs. kernel-at-a-time execution for a chain.
///
/// The materialized path pays, per step, an `O(nnz)` intermediate write, a
/// re-sort/group pass over it, and a read-back — roughly
/// `3·steps·nnz` value-moves plus allocator traffic. The fused path pays
/// the workspace: `out_fibers × dense_volume` resident values (per worker
/// for privatized workspaces). Fusing wins unless the workspace dwarfs the
/// per-step traffic it saves:
/// `threads·out_fibers·dense_volume > 8·steps·nnz ⇒ Materialize`.
///
/// The model is coarse on purpose (like the MTTKRP strategy model): it
/// separates regimes, and the dispatched choice is counted and
/// overridable from [`Ctx::fusion`](crate::pipeline::Ctx::fusion).
pub fn choose_fusion(p: &FusionParams) -> FuseDecision {
    let workspace =
        p.threads.max(1).saturating_mul(p.out_fibers).saturating_mul(p.dense_volume.max(1));
    let saved = FUSE_WORKSPACE_FACTOR.saturating_mul(p.steps.max(1)).saturating_mul(p.nnz.max(1));
    if workspace > saved {
        FuseDecision::Materialize
    } else {
        FuseDecision::Fuse
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        CostParams { m: 1e6, mf: 1e5, r: 16.0, nb: 2e4, block_size: 128.0 }
    }

    #[test]
    fn tew_ts_exact_ois() {
        let p = params();
        let tew = kernel_cost(Kernel::Tew, &p);
        assert!((tew.coo_oi() - 1.0 / 12.0).abs() < 1e-12);
        assert_eq!(tew.coo_bytes, tew.hicoo_bytes);
        let ts = kernel_cost(Kernel::Ts, &p);
        assert!((ts.coo_oi() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn ttv_oi_approaches_one_sixth() {
        // With M_F ≪ M the OI tends to 2M / 12M = 1/6.
        let p = CostParams { m: 1e8, mf: 1e4, ..params() };
        let c = kernel_cost(Kernel::Ttv, &p);
        assert!((c.coo_oi() - 1.0 / 6.0).abs() < 1e-3);
    }

    #[test]
    fn ttm_oi_approaches_one_half() {
        // With R large and M_F ≪ M: 2MR / 4MR = 1/2.
        let p = CostParams { m: 1e8, mf: 1e4, r: 256.0, ..params() };
        let c = kernel_cost(Kernel::Ttm, &p);
        assert!((c.coo_oi() - 0.5).abs() < 0.01);
        // HiCOO moves strictly fewer bytes (drops one 8·M_F term).
        assert!(c.hicoo_bytes < c.coo_bytes);
    }

    #[test]
    fn mttkrp_oi_approaches_one_quarter() {
        let p = CostParams { m: 1e8, r: 1024.0, ..params() };
        let c = kernel_cost(Kernel::Mttkrp, &p);
        assert!((c.coo_oi() - 0.25).abs() < 0.01);
    }

    #[test]
    fn mttkrp_hicoo_benefits_from_dense_blocks() {
        // Dense blocks: n_b·B < M, so the matrix traffic term shrinks.
        let dense_blocks = CostParams { m: 1e6, nb: 1e3, block_size: 128.0, ..params() };
        let c = kernel_cost(Kernel::Mttkrp, &dense_blocks);
        assert!(c.hicoo_bytes < c.coo_bytes);
        // Hyper-sparse blocks (one nnz per block): min() clamps at M and the
        // advantage shrinks to the index compression alone.
        let hyper = CostParams { m: 1e6, nb: 1e6, block_size: 128.0, ..params() };
        let ch = kernel_cost(Kernel::Mttkrp, &hyper);
        assert!(ch.hicoo_bytes > c.hicoo_bytes);
    }

    #[test]
    fn nominal_ois_match_table() {
        assert_eq!(Kernel::Tew.nominal_oi(), 1.0 / 12.0);
        assert_eq!(Kernel::Ts.nominal_oi(), 1.0 / 8.0);
        assert_eq!(Kernel::Ttv.nominal_oi(), 1.0 / 6.0);
        assert_eq!(Kernel::Ttm.nominal_oi(), 1.0 / 2.0);
        assert_eq!(Kernel::Mttkrp.nominal_oi(), 1.0 / 4.0);
    }

    #[test]
    fn streaming_classification() {
        assert!(Kernel::Tew.is_streaming());
        assert!(Kernel::Ts.is_streaming());
        assert!(!Kernel::Ttv.is_streaming());
        assert!(!Kernel::Mttkrp.is_streaming());
        assert_eq!(Kernel::ALL.len(), 5);
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = Kernel::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(names, vec!["TEW", "TS", "TTV", "TTM", "MTTKRP"]);
    }

    fn sched(nnz: usize, out_rows: usize, threads: usize, sorted: bool) -> MttkrpSchedParams {
        MttkrpSchedParams { nnz, out_rows, rank: 16, threads, mode_outermost_sorted: sorted }
    }

    #[test]
    fn strategy_regimes() {
        // One thread: always sequential, even when sorted.
        assert_eq!(choose_mttkrp_strategy(&sched(1_000, 100, 1, true)), MttkrpStrategy::Sequential);
        // Sorted mode-outermost: owner-computes wins outright.
        assert_eq!(choose_mttkrp_strategy(&sched(1_000, 100, 4, true)), MttkrpStrategy::Owner);
        // Unsorted, small output: dense privatization.
        assert_eq!(
            choose_mttkrp_strategy(&sched(1_000_000, 1_000, 8, false)),
            MttkrpStrategy::PrivatizedDense
        );
        // Unsorted, hyper-sparse output (rows ≫ nnz): sparse privatization.
        assert_eq!(
            choose_mttkrp_strategy(&sched(10_000, 100_000_000, 8, false)),
            MttkrpStrategy::PrivatizedSparse
        );
    }

    #[test]
    fn strategy_display_and_classes() {
        assert_eq!(MttkrpStrategy::Owner.to_string(), "owner");
        assert_eq!(MttkrpStrategy::PrivatizedSparse.to_string(), "privatized-sparse");
        assert!(MttkrpStrategy::PrivatizedDense.is_privatized());
        assert!(!MttkrpStrategy::Owner.is_privatized());
        assert!(!MttkrpStrategy::Sequential.is_privatized());
    }

    #[test]
    fn resort_heuristic() {
        // Merge-dominated: tall output, many threads.
        assert!(resort_pays_off(&sched(10_000, 1_000_000, 8, false)));
        // Nnz-dominated: short output.
        assert!(!resort_pays_off(&sched(1_000_000, 1_000, 8, false)));
        // Never for one thread.
        assert!(!resort_pays_off(&sched(10, 1_000_000, 1, false)));
    }

    #[test]
    fn fusion_regimes() {
        // Typical Tucker chain: fibers ≤ nnz, modest dense volume — fuse.
        let p = FusionParams {
            nnz: 100_000,
            out_fibers: 5_000,
            dense_volume: 64,
            steps: 2,
            threads: 1,
        };
        assert_eq!(choose_fusion(&p), FuseDecision::Fuse);
        // TTV product: dense_volume 1 — always fuses.
        let p =
            FusionParams { nnz: 1_000, out_fibers: 1_000, dense_volume: 1, steps: 3, threads: 8 };
        assert_eq!(choose_fusion(&p), FuseDecision::Fuse);
        // Workspace blow-up: huge fiber count × wide blocks × many workers.
        let p = FusionParams {
            nnz: 10_000,
            out_fibers: 10_000,
            dense_volume: 4_096,
            steps: 2,
            threads: 8,
        };
        assert_eq!(choose_fusion(&p), FuseDecision::Materialize);
    }
}
