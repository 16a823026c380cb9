//! MTTKRP — matricized tensor times Khatri-Rao product (Section II-E,
//! Algorithm 3).
//!
//! For mode `n` of an `N`th-order tensor with factor matrices
//! `U⁽¹⁾ … U⁽ᴺ⁾` (common rank `R`):
//!
//! `Ã(i_n, r) = Σ_x val(x) · ∏_{m≠n} U⁽ᵐ⁾(i_m, r)`
//!
//! The Khatri-Rao product is never materialized — it is fused into the
//! sparse traversal, as all practical implementations do. Both formats
//! parallelize *without atomics* on the output, using one of two
//! contention-free schedules picked by the cost model in
//! [`analysis`](crate::analysis):
//!
//! - **owner-computes** — when the entries are sorted with mode `n`
//!   outermost (COO: [`SortState`](pasta_core::SortState); HiCOO: monotone
//!   mode-`n` block indices), non-zeros are cut into fiber-aligned ranges
//!   ([`owner_ranges`]) so each output row is written by exactly one
//!   thread. Bit-identical to the sequential kernel.
//! - **privatized reduction** — otherwise, each worker accumulates into a
//!   private buffer (dense, or a hashed [`SparseAcc`] for hyper-sparse
//!   outputs) over a static non-zero chunk. Dense buffers merge through the
//!   LLC-tiled reduction in `merge_privatized_dense` (destination tile stays
//!   cache-resident across all buffers); sparse accumulators tree-merge on
//!   the pool via [`tree_reduce`]. Both are deterministic for a fixed
//!   thread count; they differ from sequential only by floating-point
//!   association (ULP-level).
//!
//! The inner rank loops run through the unrolled
//! [`microkernel`](crate::microkernel)s. Per-strategy work counters are
//! kept under the `mttkrp.*` names of the unified [`pasta_obs`] registry.

use crate::analysis::{choose_mttkrp_strategy, MttkrpSchedParams, MttkrpStrategy};
use crate::microkernel::{add_assign, mul_assign, prefetch_read};
use crate::pipeline::{owner_ranges, SparseAcc};
use crate::pipeline::{Ctx, StrategyChoice};
use pasta_core::sort::mode_first_order;
use pasta_core::{CooTensor, Coord, DenseMatrix, Error, HiCooTensor, Result, Shape, Value};
use pasta_obs::{counters, instant, span, span_detail, CounterId};
use pasta_par::{parallel_for, tree_reduce, Schedule, SharedSlice};

/// How many entries ahead the accumulation loops prefetch the factor rows
/// the Khatri-Rao product will gather. The row indices come from the sparse
/// index columns, so the hardware stride prefetcher cannot follow them.
const PF_DIST: usize = 8;

fn check_factors<V: Value>(shape: &Shape, factors: &[DenseMatrix<V>], n: usize) -> Result<usize> {
    shape.check_mode(n)?;
    if factors.len() != shape.order() {
        return Err(Error::OperandMismatch {
            what: format!("expected {} factor matrices, got {}", shape.order(), factors.len()),
        });
    }
    let r = factors[0].cols();
    for (m, f) in factors.iter().enumerate() {
        if f.cols() == 0 {
            return Err(Error::OperandMismatch {
                what: format!("factor {m} has rank 0; rank must be at least 1"),
            });
        }
        if f.cols() != r {
            return Err(Error::OperandMismatch {
                what: format!("factor {m} has rank {} but factor 0 has rank {r}", f.cols()),
            });
        }
        if f.rows() != shape.dim(m) as usize {
            return Err(Error::OperandMismatch {
                what: format!(
                    "factor {m} has {} rows but mode {m} has dimension {}",
                    f.rows(),
                    shape.dim(m)
                ),
            });
        }
    }
    Ok(r)
}

/// What a traced MTTKRP execution actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MttkrpRun {
    /// The schedule that ran.
    pub strategy: MttkrpStrategy,
    /// Whether a plan re-sorted its tensor copy to enable owner-computes.
    pub resorted: bool,
}

/// Resolves the requested [`StrategyChoice`] against what the data permits.
///
/// `rows_sorted` must be true only if the mode-`n` row stream is known
/// non-decreasing. A forced `Owner` on unsorted rows falls back to
/// privatization (owner-computes would race); a forced `Privatized` picks
/// dense vs. sparse from the cost model.
fn resolve_strategy(ctx: &Ctx, p: &MttkrpSchedParams, rows_sorted: bool) -> MttkrpStrategy {
    if p.threads <= 1 || p.nnz <= 1 {
        return MttkrpStrategy::Sequential;
    }
    match ctx.mttkrp {
        StrategyChoice::Auto => choose_mttkrp_strategy(p),
        StrategyChoice::Owner if rows_sorted => MttkrpStrategy::Owner,
        StrategyChoice::Owner | StrategyChoice::Privatized => {
            choose_mttkrp_strategy(&MttkrpSchedParams { mode_outermost_sorted: false, ..*p })
        }
    }
}

/// COO-MTTKRP: `Ã ← X₍ₙ₎ (U⁽ᴺ⁾ ⊙ ⋯ ⊙ U⁽ⁿ⁺¹⁾ ⊙ U⁽ⁿ⁻¹⁾ ⊙ ⋯ ⊙ U⁽¹⁾)`.
///
/// Atomic-free: parallel contexts run owner-computes when the tensor is
/// sorted mode-`n` outermost and privatized reduction otherwise (see the
/// module docs). Use [`mttkrp_coo_traced`] to learn which strategy ran, or
/// [`MttkrpCooPlan`] to amortize a mode-`n` re-sort across executions.
///
/// # Errors
///
/// Returns [`Error::OperandMismatch`] for inconsistent factor matrices.
///
/// # Examples
///
/// ```
/// use pasta_core::{CooTensor, DenseMatrix, Shape};
/// use pasta_kernels::{mttkrp_coo, Ctx};
///
/// # fn main() -> Result<(), pasta_core::Error> {
/// let x = CooTensor::from_entries(Shape::new(vec![2, 2, 2]), vec![(vec![1, 0, 1], 2.0_f32)])?;
/// let ones = DenseMatrix::from_fn(2, 4, |_, _| 1.0_f32);
/// let factors = vec![ones.clone(), ones.clone(), ones];
/// let a = mttkrp_coo(&x, &factors, 0, &Ctx::sequential())?;
/// assert_eq!(a.row(1), &[2.0, 2.0, 2.0, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn mttkrp_coo<V: Value>(
    x: &CooTensor<V>,
    factors: &[DenseMatrix<V>],
    n: usize,
    ctx: &Ctx,
) -> Result<DenseMatrix<V>> {
    mttkrp_coo_traced(x, factors, n, ctx).map(|(out, _)| out)
}

/// [`mttkrp_coo`] plus a report of the schedule that ran.
///
/// # Errors
///
/// Returns [`Error::OperandMismatch`] for inconsistent factor matrices.
pub fn mttkrp_coo_traced<V: Value>(
    x: &CooTensor<V>,
    factors: &[DenseMatrix<V>],
    n: usize,
    ctx: &Ctx,
) -> Result<(DenseMatrix<V>, MttkrpRun)> {
    let r = check_factors(x.shape(), factors, n)?;
    let rows = x.shape().dim(n) as usize;
    let mut out = DenseMatrix::zeros(rows, r);
    if x.nnz() == 0 {
        return Ok((out, MttkrpRun { strategy: MttkrpStrategy::Sequential, resorted: false }));
    }

    let sorted = x.sort_state().outermost() == Some(n)
        || (ctx.mttkrp == StrategyChoice::Owner && is_non_decreasing(x.mode_inds(n)));
    let p = MttkrpSchedParams {
        nnz: x.nnz(),
        out_rows: rows,
        rank: r,
        threads: ctx.threads,
        mode_outermost_sorted: sorted,
    };
    let strategy = resolve_strategy(ctx, &p, sorted);

    let c = counters();
    let _span =
        span_detail("kernel", "mttkrp.coo", strategy.label(), x.nnz() as u64, r as u64, n as u64);
    match strategy {
        MttkrpStrategy::Sequential => {
            c.add(CounterId::MttkrpSequentialNnz, x.nnz() as u64);
            coo_range(x, factors, n, r, 0..x.nnz(), out.as_mut_slice());
        }
        MttkrpStrategy::Owner => {
            c.add(CounterId::MttkrpOwnerNnz, x.nnz() as u64);
            let ranges = owner_ranges(x.mode_inds(n), ctx.threads);
            let shared = SharedSlice::new(out.as_mut_slice());
            parallel_for(ranges.len(), ctx.threads, Schedule::Static, |ks| {
                for k in ks {
                    let range = ranges[k].clone();
                    let lo = x.mode_inds(n)[range.start] as usize;
                    let hi = x.mode_inds(n)[range.end - 1] as usize;
                    // SAFETY: owner_ranges cuts at row boundaries, so the
                    // row span [lo, hi] of this range is disjoint from
                    // every other range's span.
                    let rows_out = unsafe { shared.slice_mut(lo * r..(hi + 1) * r) };
                    coo_range_offset(x, factors, n, r, range, rows_out, lo);
                }
            });
        }
        MttkrpStrategy::PrivatizedDense => {
            c.add(CounterId::MttkrpPrivatizedNnz, x.nnz() as u64);
            let bufs = privatized_fill(
                ctx.threads,
                x.nnz(),
                || vec![V::ZERO; rows * r],
                |buf, chunk| {
                    coo_range(x, factors, n, r, chunk, buf);
                },
            );
            merge_privatized_dense(out.as_mut_slice(), &bufs, ctx.threads);
        }
        MttkrpStrategy::PrivatizedSparse => {
            c.add(CounterId::MttkrpPrivatizedNnz, x.nnz() as u64);
            let per_worker = (x.nnz() / ctx.threads.max(1) + 1).min(rows);
            let bufs = privatized_fill(
                ctx.threads,
                x.nnz(),
                || SparseAcc::<V>::new(r, per_worker),
                |acc, chunk| {
                    let mut tmp = vec![V::ZERO; r];
                    let end = chunk.end;
                    for xx in chunk {
                        let ahead = xx + PF_DIST;
                        if ahead < end {
                            for (m, f) in factors.iter().enumerate() {
                                if m != n {
                                    prefetch_read(f.as_slice(), x.mode_inds(m)[ahead] as usize * r);
                                }
                            }
                        }
                        khatri_rao_row(x, factors, n, xx, &mut tmp);
                        add_assign(acc.row_mut(x.mode_inds(n)[xx]), &tmp);
                    }
                },
            );
            let _merge = span("kernel", "mttkrp.merge");
            let merged = tree_reduce(bufs, ctx.threads, |dst, src| {
                counters().add(CounterId::MttkrpMergeBytes, src.bytes() as u64);
                dst.merge(&src);
            });
            if let Some(m) = merged {
                m.drain_into(out.as_mut_slice());
            }
        }
    }
    Ok((out, MttkrpRun { strategy, resorted: false }))
}

fn is_non_decreasing(a: &[Coord]) -> bool {
    a.windows(2).all(|w| w[0] <= w[1])
}

/// Runs `fill` on `participants` static chunks of `0..nnz`, each into its
/// own freshly `init`-ed private buffer, and returns the buffers in
/// participant order.
fn privatized_fill<B, Init, Fill>(participants: usize, nnz: usize, init: Init, fill: Fill) -> Vec<B>
where
    B: Send,
    Init: Fn() -> B + Sync,
    Fill: Fn(&mut B, std::ops::Range<usize>) + Sync,
{
    let t = participants.max(1).min(nnz);
    let per = nnz / t;
    let rem = nnz % t;
    let mut bufs: Vec<Option<B>> = (0..t).map(|_| None).collect();
    {
        let slots = SharedSlice::new(&mut bufs);
        parallel_for(t, t, Schedule::Static, |ids| {
            for id in ids {
                let start = id * per + id.min(rem);
                let len = per + usize::from(id < rem);
                let mut buf = init();
                fill(&mut buf, start..start + len);
                // SAFETY: participant ids partition 0..t, one slot each.
                unsafe { slots.write(id, Some(buf)) };
            }
        });
    }
    bufs.into_iter().map(|b| b.expect("participant wrote its buffer")).collect()
}

/// Merges per-worker dense accumulators into the (zeroed) output, tiled for
/// LLC residency.
///
/// The naive pairwise tree-reduce streams whole `rows × R` buffers through
/// the cache once per tree level: for outputs larger than the LLC every
/// level re-misses the full working set. Here the output is cut into tiles
/// sized by the working-set model in [`merge_tile_len`] (destination tile +
/// one streaming source tile within half the LLC), and each tile accumulates
/// *all* buffers before the next tile starts, so the destination stays
/// resident across the whole reduction depth.
///
/// Buffers are applied in participant order regardless of which worker owns
/// a tile, so the result is deterministic for a fixed participant count —
/// the same contract the tree-reduce had.
fn merge_privatized_dense<V: Value>(out: &mut [V], bufs: &[Vec<V>], threads: usize) {
    let len = out.len();
    let _span = span("kernel", "mttkrp.merge");
    counters().add(CounterId::MttkrpMergeBytes, (bufs.len() * len * V::BYTES) as u64);
    let tile = merge_tile_len::<V>();
    let ntiles = len.div_ceil(tile.max(1)).max(1);
    let shared = SharedSlice::new(out);
    parallel_for(ntiles, threads, Schedule::Static, |ts| {
        for t in ts {
            let lo = t * tile;
            let hi = ((t + 1) * tile).min(len);
            // SAFETY: tiles partition `out`; each tile index is visited by
            // exactly one worker.
            let dst = unsafe { shared.slice_mut(lo..hi) };
            for buf in bufs {
                add_assign(dst, &buf[lo..hi]);
            }
        }
    });
}

/// Tile length (in values) for [`merge_privatized_dense`]: the destination
/// tile plus one streaming source tile should fit in half the last-level
/// cache (`2 · tile · BYTES ≤ LLC/2`), leaving the other half for the fill
/// phase's factor rows. The LLC size comes from [`host_llc_bytes`].
fn merge_tile_len<V: Value>() -> usize {
    (host_llc_bytes() / (4 * V::BYTES)).max(1024)
}

/// The host's last-level cache size in bytes, which sizes the merge tiles.
///
/// Override with `PASTA_LLC_BYTES`; defaults to a conservative 32 MiB.
fn host_llc_bytes() -> usize {
    static LLC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *LLC.get_or_init(|| {
        std::env::var("PASTA_LLC_BYTES")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&b| b > 0)
            .unwrap_or(32 << 20)
    })
}

/// Sequential accumulation of `chunk` into `out` (full output slice).
fn coo_range<V: Value>(
    x: &CooTensor<V>,
    factors: &[DenseMatrix<V>],
    n: usize,
    r: usize,
    chunk: std::ops::Range<usize>,
    out: &mut [V],
) {
    coo_range_offset(x, factors, n, r, chunk, out, 0);
}

/// Like [`coo_range`], but `out` starts at output row `row0` (the owner
/// path hands each thread only its own row span).
fn coo_range_offset<V: Value>(
    x: &CooTensor<V>,
    factors: &[DenseMatrix<V>],
    n: usize,
    r: usize,
    chunk: std::ops::Range<usize>,
    out: &mut [V],
    row0: usize,
) {
    let mut tmp = vec![V::ZERO; r];
    let end = chunk.end;
    for xx in chunk {
        let ahead = xx + PF_DIST;
        if ahead < end {
            for (m, f) in factors.iter().enumerate() {
                if m != n {
                    prefetch_read(f.as_slice(), x.mode_inds(m)[ahead] as usize * r);
                }
            }
        }
        khatri_rao_row(x, factors, n, xx, &mut tmp);
        let i = x.mode_inds(n)[xx] as usize - row0;
        add_assign(&mut out[i * r..(i + 1) * r], &tmp);
    }
}

/// Computes `tmp[r] = val · ∏_{m≠n} U⁽ᵐ⁾(i_m, r)` for non-zero `xx`.
#[inline]
fn khatri_rao_row<V: Value>(
    x: &CooTensor<V>,
    factors: &[DenseMatrix<V>],
    n: usize,
    xx: usize,
    tmp: &mut [V],
) {
    tmp.fill(x.vals()[xx]);
    for (m, f) in factors.iter().enumerate() {
        if m != n {
            mul_assign(tmp, f.row(x.mode_inds(m)[xx] as usize));
        }
    }
}

/// A reusable COO-MTTKRP schedule for repeated executions on one tensor.
///
/// Construction may radix re-sort an owned copy of the tensor mode-`n`
/// outermost (one `O(nnz)` pass, when
/// [`resort_pays_off`](crate::analysis::resort_pays_off) says the
/// per-execution privatized merge would cost more), unlocking the
/// owner-computes schedule for every subsequent [`execute`](Self::execute).
#[derive(Debug)]
pub struct MttkrpCooPlan<V> {
    x: CooTensor<V>,
    n: usize,
    ctx: Ctx,
    resorted: bool,
}

impl<V: Value> MttkrpCooPlan<V> {
    /// Builds a plan for mode `n`, re-sorting a copy of `x` if the cost
    /// model finds the sort pays for itself.
    ///
    /// # Errors
    ///
    /// Returns an error if `n` is out of range.
    pub fn new(x: &CooTensor<V>, n: usize, ctx: &Ctx) -> Result<Self> {
        x.shape().check_mode(n)?;
        let mut x = x.clone();
        let mut resorted = false;
        let p = MttkrpSchedParams {
            nnz: x.nnz(),
            out_rows: x.shape().dim(n) as usize,
            rank: 16, // rank is unknown until execute; 16 is the suite default
            threads: ctx.threads,
            mode_outermost_sorted: x.sort_state().outermost() == Some(n),
        };
        if ctx.mttkrp != StrategyChoice::Privatized
            && !p.mode_outermost_sorted
            && (ctx.mttkrp == StrategyChoice::Owner || crate::analysis::resort_pays_off(&p))
        {
            x.sort_by_mode_order_threads(&mode_first_order(x.order(), n), ctx.threads);
            counters().add(CounterId::MttkrpResorts, 1);
            instant("kernel", "mttkrp.resort", "", x.nnz() as u64, n as u64, 0);
            resorted = true;
        }
        Ok(Self { x, n, ctx: *ctx, resorted })
    }

    /// The plan's (possibly re-sorted) tensor.
    pub fn tensor(&self) -> &CooTensor<V> {
        &self.x
    }

    /// Whether construction re-sorted the tensor copy.
    pub fn resorted(&self) -> bool {
        self.resorted
    }

    /// Runs the MTTKRP for the planned mode.
    ///
    /// # Errors
    ///
    /// Returns [`Error::OperandMismatch`] for inconsistent factor matrices.
    pub fn execute(&self, factors: &[DenseMatrix<V>]) -> Result<(DenseMatrix<V>, MttkrpRun)> {
        let (out, run) = mttkrp_coo_traced(&self.x, factors, self.n, &self.ctx)?;
        Ok((out, MttkrpRun { resorted: self.resorted, ..run }))
    }
}

/// HiCOO-MTTKRP (Algorithm 3): parallel over tensor blocks, atomic-free.
///
/// Within a block, factor accesses go through per-block sub-matrix bases
/// (`A_b = A + bi·B·R` etc.), so rows are addressed by the 8-bit element
/// indices alone — the locality HiCOO is designed for. Across blocks, the
/// same two contention-free schedules as [`mttkrp_coo`] apply: blocks are
/// cut at mode-`n` block-index boundaries when those are monotone (owner-
/// computes; Morton order guarantees this for mode 0), else each worker
/// privatizes over its block chunk and the buffers tree-merge.
///
/// # Errors
///
/// Returns [`Error::OperandMismatch`] for inconsistent factor matrices.
pub fn mttkrp_hicoo<V: Value>(
    x: &HiCooTensor<V>,
    factors: &[DenseMatrix<V>],
    n: usize,
    ctx: &Ctx,
) -> Result<DenseMatrix<V>> {
    mttkrp_hicoo_traced(x, factors, n, ctx).map(|(out, _)| out)
}

/// [`mttkrp_hicoo`] plus a report of the schedule that ran.
///
/// # Errors
///
/// Returns [`Error::OperandMismatch`] for inconsistent factor matrices.
pub fn mttkrp_hicoo_traced<V: Value>(
    x: &HiCooTensor<V>,
    factors: &[DenseMatrix<V>],
    n: usize,
    ctx: &Ctx,
) -> Result<(DenseMatrix<V>, MttkrpRun)> {
    let r = check_factors(x.shape(), factors, n)?;
    let rows = x.shape().dim(n) as usize;
    let mut out = DenseMatrix::zeros(rows, r);
    if x.nnz() == 0 {
        return Ok((out, MttkrpRun { strategy: MttkrpStrategy::Sequential, resorted: false }));
    }

    let sorted = x.mode_binds_monotone(n);
    let p = MttkrpSchedParams {
        nnz: x.nnz(),
        out_rows: rows,
        rank: r,
        threads: ctx.threads,
        mode_outermost_sorted: sorted,
    };
    let strategy = resolve_strategy(ctx, &p, sorted);

    let c = counters();
    let _span =
        span_detail("kernel", "mttkrp.hicoo", strategy.label(), x.nnz() as u64, r as u64, n as u64);
    match strategy {
        MttkrpStrategy::Sequential => {
            c.add(CounterId::MttkrpSequentialNnz, x.nnz() as u64);
            hicoo_blocks(x, factors, n, r, 0..x.num_blocks(), out.as_mut_slice());
        }
        MttkrpStrategy::Owner => {
            c.add(CounterId::MttkrpOwnerNnz, x.nnz() as u64);
            // Cut block ranges where binds[n] changes: all entries of a
            // binds[n] group share the same output row window, so groups
            // are write-disjoint.
            let ranges = owner_ranges(x.mode_binds(n), ctx.threads);
            let shared = SharedSlice::new(out.as_mut_slice());
            let bits = x.block_bits();
            parallel_for(ranges.len(), ctx.threads, Schedule::Static, |ks| {
                for k in ks {
                    let blocks = ranges[k].clone();
                    let lo = (x.mode_binds(n)[blocks.start] as usize) << bits;
                    let hi = (((x.mode_binds(n)[blocks.end - 1] as usize) + 1) << bits).min(rows);
                    // SAFETY: ranges split at binds[n] boundaries, so the
                    // row windows [bind<<bits, (bind+1)<<bits) covered by
                    // this range belong to it alone.
                    let rows_out = unsafe { shared.slice_mut(lo * r..hi * r) };
                    hicoo_blocks_offset(x, factors, n, r, blocks, rows_out, lo);
                }
            });
        }
        MttkrpStrategy::PrivatizedDense | MttkrpStrategy::PrivatizedSparse => {
            // Blocks (not raw nnz) are the distribution unit, so both
            // privatized flavors chunk block ranges; hyper-sparse outputs
            // still get the dense buffer because HiCOO mode dims are
            // bounded by binds·2^bits in practice. Counted as dense.
            c.add(CounterId::MttkrpPrivatizedNnz, x.nnz() as u64);
            let bufs = privatized_fill(
                ctx.threads,
                x.num_blocks(),
                || vec![V::ZERO; rows * r],
                |buf, blocks| hicoo_blocks(x, factors, n, r, blocks, buf),
            );
            merge_privatized_dense(out.as_mut_slice(), &bufs, ctx.threads);
        }
    }
    let strategy =
        if strategy.is_privatized() { MttkrpStrategy::PrivatizedDense } else { strategy };
    Ok((out, MttkrpRun { strategy, resorted: false }))
}

/// Sequential accumulation of a block range into `out` (full output).
fn hicoo_blocks<V: Value>(
    x: &HiCooTensor<V>,
    factors: &[DenseMatrix<V>],
    n: usize,
    r: usize,
    blocks: std::ops::Range<usize>,
    out: &mut [V],
) {
    hicoo_blocks_offset(x, factors, n, r, blocks, out, 0);
}

fn hicoo_blocks_offset<V: Value>(
    x: &HiCooTensor<V>,
    factors: &[DenseMatrix<V>],
    n: usize,
    r: usize,
    blocks: std::ops::Range<usize>,
    out: &mut [V],
    row0: usize,
) {
    let order = x.order();
    let bits = x.block_bits();
    let mut tmp = vec![V::ZERO; r];
    let mut bases = vec![0usize; order];
    for b in blocks {
        for (m, base) in bases.iter_mut().enumerate() {
            *base = (x.mode_binds(m)[b] as usize) << bits;
        }
        let be = x.block_range(b).end;
        for xx in x.block_range(b) {
            let ahead = xx + PF_DIST;
            if ahead < be {
                // Within a block the per-mode row window is bases[m] + eind,
                // so the gathered rows are prefetchable the same way.
                for (m, f) in factors.iter().enumerate() {
                    if m != n {
                        let row = bases[m] + x.mode_einds(m)[ahead] as usize;
                        prefetch_read(f.as_slice(), row * r);
                    }
                }
            }
            tmp.fill(x.vals()[xx]);
            for (m, f) in factors.iter().enumerate() {
                if m != n {
                    mul_assign(&mut tmp, f.row(bases[m] + x.mode_einds(m)[xx] as usize));
                }
            }
            let i = bases[n] + x.mode_einds(n)[xx] as usize - row0;
            add_assign(&mut out[i * r..(i + 1) * r], &tmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_ref::mttkrp_dense;

    #[test]
    fn llc_default_is_positive() {
        assert!(host_llc_bytes() > 0);
    }

    fn sample() -> CooTensor<f64> {
        CooTensor::from_entries(
            Shape::new(vec![4, 5, 6]),
            vec![
                (vec![0, 0, 0], 1.0),
                (vec![0, 0, 5], 2.0),
                (vec![1, 2, 3], 3.0),
                (vec![3, 4, 1], 4.0),
                (vec![3, 4, 2], 5.0),
                (vec![2, 1, 0], -1.0),
            ],
        )
        .unwrap()
    }

    fn factors_for(x: &CooTensor<f64>, r: usize) -> Vec<DenseMatrix<f64>> {
        (0..x.order())
            .map(|m| {
                DenseMatrix::from_fn(x.shape().dim(m) as usize, r, |i, j| {
                    ((i + 1) as f64 * 0.3 + (j + m) as f64 * 0.7).sin()
                })
            })
            .collect()
    }

    fn assert_mat_eq(a: &DenseMatrix<f64>, b: &DenseMatrix<f64>, tol: f64) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(x.approx_eq(*y, tol), "{x} vs {y}");
        }
    }

    fn bigger() -> CooTensor<f64> {
        let entries: Vec<(Vec<u32>, f64)> = (0..30_000u32)
            .map(|i| (vec![i % 16, (i / 16) % 64, (i * 13) % 64], 1.0 + (i % 7) as f64))
            .collect();
        let mut x = CooTensor::from_entries(Shape::new(vec![16, 64, 64]), entries).unwrap();
        x.dedup_sum();
        x
    }

    #[test]
    fn coo_matches_dense_every_mode() {
        let x = sample();
        let fs = factors_for(&x, 3);
        for n in 0..3 {
            let got = mttkrp_coo(&x, &fs, n, &Ctx::sequential()).unwrap();
            let want = mttkrp_dense(&x, &fs, n).unwrap();
            assert_mat_eq(&got, &want, 1e-12);
        }
    }

    #[test]
    fn hicoo_matches_dense_every_mode() {
        let x = sample();
        let fs = factors_for(&x, 3);
        let h = HiCooTensor::from_coo(&x, 2).unwrap();
        for n in 0..3 {
            let got = mttkrp_hicoo(&h, &fs, n, &Ctx::sequential()).unwrap();
            let want = mttkrp_dense(&x, &fs, n).unwrap();
            assert_mat_eq(&got, &want, 1e-12);
        }
    }

    #[test]
    fn parallel_strategies_match_sequential() {
        let x = bigger();
        let fs = factors_for(&x, 8);
        for n in 0..3 {
            let seq = mttkrp_coo(&x, &fs, n, &Ctx::sequential()).unwrap();
            let par =
                mttkrp_coo(&x, &fs, n, &Ctx::new(8, pasta_par::Schedule::Dynamic(128))).unwrap();
            assert_mat_eq(&par, &seq, 1e-9);

            let h = HiCooTensor::from_coo(&x, 8).unwrap();
            let hpar = mttkrp_hicoo(&h, &fs, n, &Ctx::new(8, pasta_par::Schedule::Guided)).unwrap();
            assert_mat_eq(&hpar, &seq, 1e-9);
        }
    }

    #[test]
    fn owner_computes_is_bit_identical() {
        let mut x = bigger();
        let fs = factors_for(&x, 8);
        let seq = mttkrp_coo(&x, &fs, 1, &Ctx::sequential()).unwrap();
        x.sort_by_mode_order(&[1, 0, 2]);
        assert_eq!(x.sort_state().outermost(), Some(1));
        let seq_sorted = mttkrp_coo(&x, &fs, 1, &Ctx::sequential()).unwrap();
        let (own, run) =
            mttkrp_coo_traced(&x, &fs, 1, &Ctx::new(4, pasta_par::Schedule::Static)).unwrap();
        assert_eq!(run.strategy, MttkrpStrategy::Owner);
        // Bit-identical to sequential on the same (sorted) entry order...
        assert_eq!(own.as_slice(), seq_sorted.as_slice());
        // ...and within tolerance of the unsorted sequential order.
        assert_mat_eq(&own, &seq, 1e-9);
    }

    #[test]
    fn forced_strategies_and_trace() {
        let x = bigger(); // unsorted
        let fs = factors_for(&x, 8);
        let par = Ctx::new(4, pasta_par::Schedule::Static);
        let seq = mttkrp_coo(&x, &fs, 0, &Ctx::sequential()).unwrap();

        let (got, run) =
            mttkrp_coo_traced(&x, &fs, 0, &par.with_mttkrp(StrategyChoice::Privatized)).unwrap();
        assert!(run.strategy.is_privatized());
        assert_mat_eq(&got, &seq, 1e-9);

        // Forcing owner on unsorted (non-monotone) rows falls back.
        let (got, run) =
            mttkrp_coo_traced(&x, &fs, 1, &par.with_mttkrp(StrategyChoice::Owner)).unwrap();
        assert!(run.strategy.is_privatized(), "got {:?}", run.strategy);
        let seq1 = mttkrp_coo(&x, &fs, 1, &Ctx::sequential()).unwrap();
        assert_mat_eq(&got, &seq1, 1e-9);

        // Forcing owner on rows that happen to be monotone works even
        // without a recorded sort state.
        let mut xs = x.clone();
        xs.sort_by_mode_order(&[1, 0, 2]);
        let xs = CooTensor::from_parts(xs.shape().clone(), xs.inds().to_vec(), xs.vals().to_vec())
            .unwrap(); // from_parts drops the sort state
        assert_eq!(xs.sort_state().mode_order(), None);
        let (got, run) =
            mttkrp_coo_traced(&xs, &fs, 1, &par.with_mttkrp(StrategyChoice::Owner)).unwrap();
        assert_eq!(run.strategy, MttkrpStrategy::Owner);
        assert_mat_eq(&got, &seq1, 1e-9);
    }

    #[test]
    fn sparse_accumulator_path() {
        // Hyper-sparse output: few nnz, huge mode dim → sparse privatization.
        let dim = 1_000_000u32;
        let entries: Vec<(Vec<u32>, f64)> = (0..500u32)
            .map(|i| (vec![(i * 7919) % dim, i % 8, (i * 13) % 8], 1.0 + i as f64 * 0.01))
            .collect();
        let mut x = CooTensor::from_entries(Shape::new(vec![dim, 8, 8]), entries).unwrap();
        x.dedup_sum();
        // dedup_sum sorts 0-outermost; test mode 0 owner vs forced privatized.
        let fs: Vec<DenseMatrix<f64>> = (0..3)
            .map(|m| {
                DenseMatrix::from_fn(x.shape().dim(m) as usize, 4, |i, j| {
                    ((i % 97) as f64 * 0.1 + (j + m) as f64).cos()
                })
            })
            .collect();
        let seq = mttkrp_coo(&x, &fs, 0, &Ctx::sequential()).unwrap();
        let ctx = Ctx::new(4, pasta_par::Schedule::Static).with_mttkrp(StrategyChoice::Privatized);
        let (got, run) = mttkrp_coo_traced(&x, &fs, 0, &ctx).unwrap();
        assert_eq!(run.strategy, MttkrpStrategy::PrivatizedSparse);
        assert_mat_eq(&got, &seq, 1e-9);
    }

    #[test]
    fn plan_resorts_and_owner_computes() {
        // Tall mode-1 output with few nnz: resort_pays_off fires.
        let entries: Vec<(Vec<u32>, f64)> =
            (0..64u32).map(|i| (vec![i % 4, (i * 37) % 50_000, i % 4], 1.0 + i as f64)).collect();
        let x = CooTensor::from_entries(Shape::new(vec![4, 50_000, 4]), entries).unwrap();
        let fs: Vec<DenseMatrix<f64>> = (0..3)
            .map(|m| {
                DenseMatrix::from_fn(x.shape().dim(m) as usize, 3, |i, j| {
                    ((i % 13) as f64 + (j + m) as f64 * 0.5).sin()
                })
            })
            .collect();
        let ctx = Ctx::new(4, pasta_par::Schedule::Static);
        pasta_obs::set_counting(true);
        let before = counters().get(CounterId::MttkrpResorts);
        let plan = MttkrpCooPlan::new(&x, 1, &ctx).unwrap();
        assert!(plan.resorted());
        assert_eq!(plan.tensor().sort_state().outermost(), Some(1));
        assert!(counters().get(CounterId::MttkrpResorts) > before);
        let (got, run) = plan.execute(&fs).unwrap();
        assert_eq!(run.strategy, MttkrpStrategy::Owner);
        assert!(run.resorted);
        let seq = mttkrp_coo(&x, &fs, 1, &Ctx::sequential()).unwrap();
        assert_mat_eq(&got, &seq, 1e-9);
    }

    #[test]
    fn empty_tensor_yields_zeros() {
        let x = CooTensor::<f64>::new(Shape::new(vec![3, 4, 5]));
        let fs: Vec<DenseMatrix<f64>> =
            vec![DenseMatrix::zeros(3, 2), DenseMatrix::zeros(4, 2), DenseMatrix::zeros(5, 2)];
        for n in 0..3 {
            let (out, run) = mttkrp_coo_traced(&x, &fs, n, &Ctx::parallel()).unwrap();
            assert_eq!(run.strategy, MttkrpStrategy::Sequential);
            assert_eq!(out.rows(), x.shape().dim(n) as usize);
            assert!(out.as_slice().iter().all(|&v| v == 0.0), "must be zeros, not uninitialized");
        }
        let h = HiCooTensor::from_coo(&x, 2).unwrap();
        let out = mttkrp_hicoo(&h, &fs, 0, &Ctx::parallel()).unwrap();
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fourth_order_all_modes() {
        let x = CooTensor::<f64>::from_entries(
            Shape::new(vec![3, 4, 3, 5]),
            vec![
                (vec![0, 1, 2, 0], 1.5),
                (vec![0, 1, 2, 4], 2.0),
                (vec![2, 2, 2, 1], -3.0),
                (vec![1, 3, 0, 2], 0.5),
            ],
        )
        .unwrap();
        let fs = factors_for(&x, 4);
        let h = HiCooTensor::from_coo(&x, 2).unwrap();
        for n in 0..4 {
            let want = mttkrp_dense(&x, &fs, n).unwrap();
            assert_mat_eq(&mttkrp_coo(&x, &fs, n, &Ctx::sequential()).unwrap(), &want, 1e-12);
            assert_mat_eq(&mttkrp_hicoo(&h, &fs, n, &Ctx::sequential()).unwrap(), &want, 1e-12);
        }
    }

    #[test]
    fn hicoo_owner_runs_on_mode0() {
        // Morton block order keeps binds[0] monotone → owner-computes.
        let x = bigger();
        let fs = factors_for(&x, 8);
        let h = HiCooTensor::from_coo(&x, 8).unwrap();
        if h.mode_binds_monotone(0) {
            let (got, run) =
                mttkrp_hicoo_traced(&h, &fs, 0, &Ctx::new(4, pasta_par::Schedule::Static)).unwrap();
            assert_eq!(run.strategy, MttkrpStrategy::Owner);
            let seq = mttkrp_hicoo(&h, &fs, 0, &Ctx::sequential()).unwrap();
            assert_eq!(got.as_slice(), seq.as_slice(), "owner must be bit-identical");
        }
    }

    #[test]
    fn rejects_inconsistent_factors() {
        let x = sample();
        let mut fs = factors_for(&x, 3);
        assert!(mttkrp_coo(&x, &fs[..2], 0, &Ctx::sequential()).is_err());
        fs[1] = DenseMatrix::zeros(5, 2); // wrong rank
        assert!(mttkrp_coo(&x, &fs, 0, &Ctx::sequential()).is_err());
        let mut fs = factors_for(&x, 3);
        fs[2] = DenseMatrix::zeros(7, 3); // wrong rows
        assert!(mttkrp_coo(&x, &fs, 0, &Ctx::sequential()).is_err());
        let fs0 = vec![DenseMatrix::<f64>::zeros(4, 0); 3];
        assert!(mttkrp_coo(&x, &fs0, 0, &Ctx::sequential()).is_err());
        // Rank-0 in a non-leading factor must also be rejected, with the
        // rank-0 error (not a generic mismatch).
        let mut fs = factors_for(&x, 3);
        fs[1] = DenseMatrix::zeros(5, 0);
        let err = mttkrp_coo(&x, &fs, 0, &Ctx::sequential()).unwrap_err();
        assert!(err.to_string().contains("rank 0"), "unexpected error: {err}");
    }

    #[test]
    fn rank_16_paper_setting() {
        let x = sample();
        let fs = factors_for(&x, 16);
        let got = mttkrp_coo(&x, &fs, 1, &Ctx::sequential()).unwrap();
        let want = mttkrp_dense(&x, &fs, 1).unwrap();
        assert_mat_eq(&got, &want, 1e-12);
        assert_eq!(got.cols(), 16);
    }

    #[test]
    fn counters_accumulate() {
        let x = bigger();
        let fs = factors_for(&x, 4);
        pasta_obs::set_counting(true);
        let c = counters();
        let before = c.snapshot();
        mttkrp_coo(&x, &fs, 0, &Ctx::sequential()).unwrap();
        let ctx = Ctx::new(4, pasta_par::Schedule::Static).with_mttkrp(StrategyChoice::Privatized);
        mttkrp_coo(&x, &fs, 0, &ctx).unwrap();
        let after = c.snapshot();
        let d = |id| after[id] - before[id];
        assert!(d(CounterId::MttkrpSequentialNnz) >= x.nnz() as u64);
        assert!(d(CounterId::MttkrpPrivatizedNnz) >= x.nnz() as u64);
        assert!(d(CounterId::MttkrpMergeBytes) > 0);
    }
}
