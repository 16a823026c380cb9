//! The tensor-expression layer: a small algebra IR ([`ExprGraph`]), a
//! cost-model planner ([`lower`]), and the executable plans it emits
//! ([`ExprPlan`], [`ContractionPlan`]).
//!
//! This generalizes the three canned fused shapes in
//! [`fused`](crate::fused) into an open grammar:
//!
//! ```text
//! expr   := leaf
//!         | ts(expr, op, scalar)          elementwise-with-scalar
//!         | tew(leaf, op, tensor)         elementwise same-pattern
//!         | ttv(expr, mode, vector)       contract one mode with a vector
//!         | ttm(expr, mode, matrix)       contract one mode with a matrix
//!         | mttkrp(expr, rank, format)    terminal: factored-matrix product
//! ```
//!
//! Each node is an edge of a chain rooted at one sparse leaf (graphs
//! sharing a prefix form a DAG of such chains). [`lower`] walks the chain
//! and decides, per edge, between *fused* evaluation — folded into one
//! pass through the per-thread [`workspace`](crate::workspace)s — and
//! *materialization* (kernel-at-a-time), consulting the
//! [`choose_fusion`] cost model when
//! [`Ctx::fusion`] is `Auto`. The result is an [`ExprPlan`]:
//!
//! 1. a **base** tensor (the leaf, with any leading TS/TEW edges constant-
//!    folded into an owned copy at plan time — untimed preprocessing, like
//!    the plan sorts);
//! 2. an optional fused **head** — either a [`ContractionPlan`] covering a
//!    maximal run of TTV/TTM edges (plus a trailing TS epilogue applied to
//!    the output values in place), or a cached MTTKRP route;
//! 3. a **suffix** of materialized edges executed kernel-at-a-time — the
//!    edges the cost model (or an inexpressible shape, e.g. contracting a
//!    mode a TTM already densified) refused to fuse.
//!
//! [`ContractionPlan`] is the single evaluation loop behind every fused
//! contraction in the suite: the canned [`FusedTtvPlan`], [`FusedTtmChainPlan`]
//! and the TTM chains of Tucker delegate to it, so the planner-driven and
//! canned paths are bit-identical by construction.
//!
//! [`FusedTtvPlan`]: crate::fused::FusedTtvPlan
//! [`FusedTtmChainPlan`]: crate::fused::FusedTtmChainPlan
//! [`Ctx::fusion`]: crate::pipeline::Ctx::fusion

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::analysis::{
    choose_fusion, resort_pays_off, FuseDecision, FusionParams, Kernel, MttkrpSchedParams,
    DEFAULT_DENSE_THRESHOLD,
};
use crate::microkernel::axpy;
use crate::mttkrp::{mttkrp_coo, mttkrp_hicoo, MttkrpCooPlan};
use crate::pipeline::{
    BackendKind, Ctx, EwOp, FormatKind, FusionChoice, KernelPlan, StrategyChoice, TsOp,
};
use crate::workspace::{choose_workspace, FusedWorkspace, WorkspaceKind};
use crate::{tew_coo_same_pattern, ts_in_place, ttm_coo, ttm_scoo, ttv_coo};
use pasta_core::sort::mode_first_order;
use pasta_core::{
    CooTensor, Coord, DenseMatrix, DenseVector, Error, HiCooTensor, Result, SemiCooTensor, Shape,
    Value,
};
use pasta_obs::{counters, span, span_detail, CounterId};
use pasta_par::{parallel_for, tree_reduce, SharedSlice};

/// The output fiber owning entry `e` of a sorted tensor whose fiber runs
/// begin at `starts` (non-empty, `starts[0] == 0`).
#[inline]
pub(crate) fn fiber_of(starts: &[usize], e: usize) -> usize {
    starts.partition_point(|&s| s <= e) - 1
}

/// Splits `0..n` into `parts` near-equal contiguous chunks.
pub(crate) fn even_chunks(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1).min(n.max(1));
    let per = n / parts;
    let rem = n % parts;
    (0..parts)
        .map(|id| {
            let start = id * per + id.min(rem);
            start..start + per + usize::from(id < rem)
        })
        .filter(|r| !r.is_empty())
        .collect()
}

/// Runs `make` on each of `parts` workers, collecting the per-worker
/// results (the privatized fan-out used by the sparse-workspace paths).
pub(crate) fn privatized<T: Send, F: Fn(usize) -> T + Sync>(
    parts: usize,
    threads: usize,
    make: F,
) -> Vec<T> {
    let mut slots: Vec<Option<T>> = (0..parts).map(|_| None).collect();
    {
        let shared = SharedSlice::new(&mut slots);
        parallel_for(parts, threads, pasta_par::Schedule::Static, |ids| {
            for id in ids {
                // SAFETY: participant ids partition 0..parts, one slot each.
                unsafe { shared.write(id, Some(make(id))) };
            }
        });
    }
    slots.into_iter().map(|s| s.expect("worker wrote its slot")).collect()
}

/// Start offsets of the runs of equal kept-mode coordinates in a tensor
/// sorted kept-modes-first.
pub(crate) fn kept_runs<V: Value>(x: &CooTensor<V>, kept: &[usize]) -> Vec<usize> {
    let mut starts = Vec::new();
    for e in 0..x.nnz() {
        if e == 0 || kept.iter().any(|&m| x.mode_inds(m)[e] != x.mode_inds(m)[e - 1]) {
            starts.push(e);
        }
    }
    starts
}

/// A planned fused contraction: some modes of one sorted tensor copy
/// contracted with vectors, others with matrices, the rest kept sparse —
/// executed in one pass through per-thread workspaces.
///
/// This is the evaluation engine every fused contraction in the suite
/// shares. `vec_modes` generalizes [`FusedTtvPlan`](crate::fused::FusedTtvPlan)
/// (matrices empty), `mat_modes` generalizes
/// [`FusedTtmChainPlan`](crate::fused::FusedTtmChainPlan) (vectors empty,
/// one kept mode), and mixed plans execute the TTV→TTM chains only the
/// expression planner emits. When no mode is kept the contraction runs to
/// a dense block via [`execute_full`](Self::execute_full).
///
/// Construction does *not* validate the route against the Combo registry —
/// the callers ([`lower`] and the canned plan constructors) do, once per
/// plan, exactly as the canned plans always have.
#[derive(Debug)]
pub struct ContractionPlan<V> {
    x: CooTensor<V>,
    kept: Vec<usize>,
    vec_modes: Vec<usize>,
    mat_modes: Vec<usize>,
    fiber_starts: Vec<usize>,
}

impl<V: Value> ContractionPlan<V> {
    /// Plans the contraction of `vec_modes` with vectors and `mat_modes`
    /// with matrices (base-tensor mode numbers; each list is deduplicated
    /// and sorted, and the two must be disjoint). Sorts the tensor
    /// kept-modes-outermost unless its sort state already matches.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range modes, overlapping lists, and contracting
    /// nothing.
    pub fn new(
        x: CooTensor<V>,
        vec_modes: &[usize],
        mat_modes: &[usize],
        ctx: &Ctx,
    ) -> Result<Self> {
        let order = x.order();
        let mut vec_modes = vec_modes.to_vec();
        vec_modes.sort_unstable();
        vec_modes.dedup();
        let mut mat_modes = mat_modes.to_vec();
        mat_modes.sort_unstable();
        mat_modes.dedup();
        for &m in vec_modes.iter().chain(&mat_modes) {
            x.shape().check_mode(m)?;
        }
        if vec_modes.iter().any(|m| mat_modes.contains(m)) {
            return Err(Error::OperandMismatch {
                what: "a mode cannot be contracted by both a vector and a matrix".into(),
            });
        }
        if vec_modes.is_empty() && mat_modes.is_empty() {
            return Err(Error::OperandMismatch { what: "no modes to contract".into() });
        }
        let contracted = |m: &usize| vec_modes.contains(m) || mat_modes.contains(m);
        let kept: Vec<usize> = (0..order).filter(|m| !contracted(m)).collect();
        let mut sorted = x;
        let fiber_starts = if kept.is_empty() {
            // Full contraction: entry order is irrelevant (every entry
            // feeds one output block), so skip the sort — exactly what
            // the canned full-contraction TTM chain does.
            Vec::new()
        } else if vec_modes.is_empty() && kept.len() == 1 {
            // Pure TTM chain: the canned plan only requires the kept mode
            // outermost (any inner order works), so preserve that weaker
            // skip condition for bit-identical reuse of prior sorts.
            let skip = kept[0];
            if sorted.sort_state().outermost() != Some(skip) {
                sorted.sort_by_mode_order_threads(&mode_first_order(order, skip), ctx.threads);
            }
            kept_runs(&sorted, &kept)
        } else {
            let mode_order: Vec<usize> =
                kept.iter().chain(vec_modes.iter()).chain(mat_modes.iter()).copied().collect();
            if sorted.sort_state().mode_order() != Some(&mode_order[..]) {
                sorted.sort_by_mode_order_threads(&mode_order, ctx.threads);
            }
            kept_runs(&sorted, &kept)
        };
        counters().add(CounterId::FusedPlanCacheMisses, 1);
        Ok(Self { x: sorted, kept, vec_modes, mat_modes, fiber_starts })
    }

    /// The sorted base tensor the plan executes over.
    pub fn base(&self) -> &CooTensor<V> {
        &self.x
    }

    /// Modes contracted with vectors, ascending (execute vectors align
    /// with this order).
    pub fn vec_modes(&self) -> &[usize] {
        &self.vec_modes
    }

    /// Modes contracted with matrices, ascending (execute matrices align
    /// with this order).
    pub fn mat_modes(&self) -> &[usize] {
        &self.mat_modes
    }

    /// The modes kept sparse, ascending.
    pub fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// The number of output fibers (distinct kept-mode coordinate runs);
    /// zero when every mode is contracted.
    pub fn num_fibers(&self) -> usize {
        self.fiber_starts.len()
    }

    /// Values per output fiber given the execute matrices: `∏ cols`.
    pub fn dense_volume(&self, mats: &[&DenseMatrix<V>]) -> usize {
        mats.iter().map(|u| u.cols()).product::<usize>().max(1)
    }

    fn check_operands(&self, vecs: &[&DenseVector<V>], mats: &[&DenseMatrix<V>]) -> Result<usize> {
        if vecs.len() != self.vec_modes.len() {
            return Err(Error::OperandMismatch {
                what: format!("expected {} vectors, got {}", self.vec_modes.len(), vecs.len()),
            });
        }
        for (&m, v) in self.vec_modes.iter().zip(vecs) {
            if v.len() != self.x.shape().dim(m) as usize {
                return Err(Error::OperandMismatch {
                    what: format!(
                        "vector for mode {m} has length {} but the mode has dimension {}",
                        v.len(),
                        self.x.shape().dim(m)
                    ),
                });
            }
        }
        if mats.len() != self.mat_modes.len() {
            return Err(Error::OperandMismatch {
                what: format!("expected {} matrices, got {}", self.mat_modes.len(), mats.len()),
            });
        }
        for (&m, u) in self.mat_modes.iter().zip(mats) {
            if u.rows() != self.x.shape().dim(m) as usize {
                return Err(Error::OperandMismatch {
                    what: format!(
                        "factor for mode {m} has {} rows but mode {m} has dimension {}",
                        u.rows(),
                        self.x.shape().dim(m)
                    ),
                });
            }
            if u.cols() == 0 {
                return Err(Error::OperandMismatch {
                    what: format!("factor for mode {m} has rank 0; rank must be at least 1"),
                });
            }
        }
        Ok(self.dense_volume(mats))
    }

    /// The span name the fused execute reports under: the canned names
    /// when the shape is a canned shape, `fused.contract` otherwise.
    fn span_name(&self, full: bool) -> &'static str {
        if full {
            if self.vec_modes.is_empty() {
                "fused.ttm_full"
            } else {
                "fused.contract"
            }
        } else if self.mat_modes.is_empty() {
            "fused.ttv_chain"
        } else if self.vec_modes.is_empty() && self.kept.len() == 1 {
            "fused.ttm_chain"
        } else {
            "fused.contract"
        }
    }

    /// Expands entry `e` as `val · ∏ v_k[i_k] · ⊗_m U_m[i_m, :]` and adds
    /// it into `acc` (length `∏ cols`, row-major over the matrix modes in
    /// increasing mode order). `tmp` is caller-provided scratch.
    #[inline]
    fn accumulate_entry(
        &self,
        e: usize,
        vecs: &[&DenseVector<V>],
        mats: &[&DenseMatrix<V>],
        tmp: &mut Vec<V>,
        acc: &mut [V],
    ) {
        let mut seed = self.x.vals()[e];
        for (k, &m) in self.vec_modes.iter().enumerate() {
            seed *= vecs[k].as_slice()[self.x.mode_inds(m)[e] as usize];
        }
        let last = self.mat_modes.len() - 1;
        tmp.clear();
        tmp.push(seed);
        for (k, &m) in self.mat_modes[..last].iter().enumerate() {
            let row = mats[k].row(self.x.mode_inds(m)[e] as usize);
            let prev = tmp.len();
            for t in 0..prev {
                let a = tmp[t];
                for &u in row {
                    tmp.push(a * u);
                }
            }
            tmp.drain(..prev);
        }
        let row = mats[last].row(self.x.mode_inds(self.mat_modes[last])[e] as usize);
        let r = row.len();
        for (t, &a) in tmp.iter().enumerate() {
            axpy(&mut acc[t * r..(t + 1) * r], a, row);
        }
    }

    /// The timed value computation into a pre-allocated `out` of length
    /// `num_fibers · ∏ cols`, with an explicit workspace kind: `Dense`
    /// runs owner-computes over the sorted fiber runs; `Sparse` privatizes
    /// a hashed accumulator per worker over even entry chunks and
    /// tree-merges deterministically.
    ///
    /// # Errors
    ///
    /// Rejects operand count/shape mismatches, full-contraction plans
    /// (use [`Self::execute_full`]), and output-length mismatches.
    pub fn execute_into(
        &self,
        vecs: &[&DenseVector<V>],
        mats: &[&DenseMatrix<V>],
        out: &mut [V],
        ctx: &Ctx,
        kind: WorkspaceKind,
    ) -> Result<()> {
        let dvol = self.check_operands(vecs, mats)?;
        if self.kept.is_empty() {
            return Err(Error::OperandMismatch {
                what: "plan contracts every mode; use execute_full".into(),
            });
        }
        if out.len() != self.num_fibers() * dvol {
            return Err(Error::OperandMismatch {
                what: format!("output length {} vs {} fibers", out.len(), self.num_fibers()),
            });
        }
        let c = counters();
        c.add(CounterId::FusedChains, 1);
        c.add(CounterId::FusedEntries, self.x.nnz() as u64);
        let _span =
            span_detail("kernel", self.span_name(false), kind.label(), self.x.nnz() as u64, 0, 0);

        let nnz = self.x.nnz();
        if self.mat_modes.is_empty() {
            // Vector-only contraction: each output fiber is one scalar.
            let contrib = |e: usize| {
                let mut p = self.x.vals()[e];
                for (k, &m) in self.vec_modes.iter().enumerate() {
                    p *= vecs[k].as_slice()[self.x.mode_inds(m)[e] as usize];
                }
                p
            };
            match kind {
                WorkspaceKind::Dense => {
                    let starts = &self.fiber_starts;
                    let shared = SharedSlice::new(out);
                    parallel_for(starts.len(), ctx.threads, ctx.schedule, |fs| {
                        for f in fs.clone() {
                            let lo = starts[f];
                            let hi = if f + 1 < starts.len() { starts[f + 1] } else { nnz };
                            let mut acc = V::ZERO;
                            for e in lo..hi {
                                acc += contrib(e);
                            }
                            // SAFETY: fiber indices partition the output;
                            // parallel_for ranges are disjoint.
                            unsafe { shared.write(f, acc) };
                        }
                    });
                }
                WorkspaceKind::Sparse => {
                    let chunks = even_chunks(nnz, ctx.threads);
                    let accs = privatized(chunks.len(), ctx.threads, |id| {
                        let range = chunks[id].clone();
                        let expect = range.len().min(self.num_fibers());
                        let mut ws = FusedWorkspace::new(WorkspaceKind::Sparse, 0, 1, expect);
                        for e in range {
                            ws.row_mut(fiber_of(&self.fiber_starts, e) as u32)[0] += contrib(e);
                        }
                        ws
                    });
                    if let Some(merged) = tree_reduce(accs, ctx.threads, |dst, src| dst.merge(&src))
                    {
                        merged.drain_into(out);
                    }
                }
            }
        } else {
            // Matrix (or mixed) contraction: one dense block per fiber.
            let nf = self.num_fibers();
            match kind {
                WorkspaceKind::Dense => {
                    let starts = &self.fiber_starts;
                    let shared = SharedSlice::new(out);
                    parallel_for(nf, ctx.threads, ctx.schedule, |fs| {
                        let mut tmp = Vec::with_capacity(dvol);
                        // SAFETY: fiber ranges are disjoint, so the val
                        // regions [start·dvol, end·dvol) are too.
                        let block = unsafe { shared.slice_mut(fs.start * dvol..fs.end * dvol) };
                        for f in fs.clone() {
                            let lo = starts[f];
                            let hi = if f + 1 < starts.len() { starts[f + 1] } else { nnz };
                            let off = (f - fs.start) * dvol;
                            for e in lo..hi {
                                self.accumulate_entry(
                                    e,
                                    vecs,
                                    mats,
                                    &mut tmp,
                                    &mut block[off..off + dvol],
                                );
                            }
                        }
                    });
                }
                WorkspaceKind::Sparse => {
                    let chunks = even_chunks(nnz, ctx.threads);
                    let accs = privatized(chunks.len(), ctx.threads, |id| {
                        let range = chunks[id].clone();
                        let expect = range.len().min(nf);
                        let mut ws = FusedWorkspace::new(WorkspaceKind::Sparse, 0, dvol, expect);
                        let mut tmp = Vec::with_capacity(dvol);
                        for e in range {
                            let f = fiber_of(&self.fiber_starts, e) as u32;
                            self.accumulate_entry(e, vecs, mats, &mut tmp, ws.row_mut(f));
                        }
                        ws
                    });
                    if let Some(merged) = tree_reduce(accs, ctx.threads, |dst, src| dst.merge(&src))
                    {
                        merged.drain_into(out);
                    }
                }
            }
        }
        Ok(())
    }

    /// Executes a full contraction (no kept modes) straight to one dense
    /// block of length `∏ cols`, row-major over the matrix modes in mode
    /// order, via chunk-privatized dense scratch and a tree merge.
    ///
    /// # Errors
    ///
    /// Rejects operand mismatches and partial-contraction plans.
    pub fn execute_full(
        &self,
        vecs: &[&DenseVector<V>],
        mats: &[&DenseMatrix<V>],
        ctx: &Ctx,
    ) -> Result<Vec<V>> {
        let dvol = self.check_operands(vecs, mats)?;
        if !self.kept.is_empty() {
            return Err(Error::OperandMismatch {
                what: "plan keeps modes sparse; use execute_into".into(),
            });
        }
        let c = counters();
        c.add(CounterId::FusedChains, 1);
        c.add(CounterId::FusedEntries, self.x.nnz() as u64);
        let _span = span_detail("kernel", self.span_name(true), "", self.x.nnz() as u64, 0, 0);

        let nnz = self.x.nnz();
        let chunks = even_chunks(nnz, ctx.threads);
        let parts = privatized(chunks.len(), ctx.threads, |id| {
            let mut ws = FusedWorkspace::new(WorkspaceKind::Dense, 1, dvol, 1);
            let mut tmp = Vec::with_capacity(dvol);
            for e in chunks[id].clone() {
                if self.mat_modes.is_empty() {
                    let mut p = self.x.vals()[e];
                    for (k, &m) in self.vec_modes.iter().enumerate() {
                        p *= vecs[k].as_slice()[self.x.mode_inds(m)[e] as usize];
                    }
                    ws.row_mut(0)[0] += p;
                } else {
                    self.accumulate_entry(e, vecs, mats, &mut tmp, ws.row_mut(0));
                }
            }
            ws
        });
        let mut core = vec![V::ZERO; dvol];
        if let Some(merged) = tree_reduce(parts, ctx.threads, |dst, src| dst.merge(&src)) {
            merged.drain_into(&mut core);
        }
        Ok(core)
    }

    /// The output shape of a vector-only contraction (kept-mode dims).
    pub fn out_shape(&self) -> Shape {
        Shape::new(self.kept.iter().map(|&m| self.x.shape().dim(m)).collect())
    }

    /// Assembles vector-only contraction values into a COO tensor over the
    /// kept modes (the pattern comes from the sorted fiber runs, so the
    /// result is born sorted).
    ///
    /// # Errors
    ///
    /// Rejects plans with matrix modes or a value-count mismatch.
    pub fn assemble_coo(&self, vals: Vec<V>) -> Result<CooTensor<V>> {
        if !self.mat_modes.is_empty() {
            return Err(Error::OperandMismatch {
                what: "matrix contractions assemble semi-sparse, not COO".into(),
            });
        }
        let mut inds: Vec<Vec<Coord>> = vec![Vec::with_capacity(vals.len()); self.kept.len()];
        for &s in &self.fiber_starts {
            for (k, &m) in self.kept.iter().enumerate() {
                inds[k].push(self.x.mode_inds(m)[s]);
            }
        }
        let mut y = CooTensor::from_parts(self.out_shape(), inds, vals)?;
        y.assume_sorted_by((0..self.kept.len()).collect());
        Ok(y)
    }

    /// Assembles contraction values into a semi-sparse tensor: sparse over
    /// the kept modes, dense over the matrix modes (vector modes are
    /// gone). `mats` supply the dense dimensions.
    ///
    /// # Errors
    ///
    /// Rejects plans without matrix modes.
    pub fn assemble_semi(
        &self,
        vals: Vec<V>,
        mats: &[&DenseMatrix<V>],
    ) -> Result<SemiCooTensor<V>> {
        if self.mat_modes.is_empty() {
            return Err(Error::OperandMismatch {
                what: "vector-only contractions assemble COO, not semi-sparse".into(),
            });
        }
        // Output modes: every base mode except the vector-contracted ones,
        // in base order; kept modes stay sparse, matrix modes go dense.
        let out_modes: Vec<usize> =
            (0..self.x.order()).filter(|m| !self.vec_modes.contains(m)).collect();
        let dims: Vec<Coord> = out_modes
            .iter()
            .map(|&m| match self.mat_modes.iter().position(|&mm| mm == m) {
                Some(k) => mats[k].cols() as Coord,
                None => self.x.shape().dim(m),
            })
            .collect();
        let dense_modes: Vec<usize> = out_modes
            .iter()
            .enumerate()
            .filter(|(_, &m)| self.mat_modes.contains(&m))
            .map(|(p, _)| p)
            .collect();
        let sparse_inds: Vec<Vec<Coord>> = self
            .kept
            .iter()
            .map(|&m| self.fiber_starts.iter().map(|&s| self.x.mode_inds(m)[s]).collect())
            .collect();
        SemiCooTensor::from_fibers(Shape::new(dims), dense_modes, sparse_inds, vals)
    }
}

/// A sparse leaf: the tensor an expression chain starts from.
#[derive(Debug, Clone)]
pub enum LeafTensor<'a, V> {
    /// Borrowed from the caller (decomposition drivers).
    Borrowed(&'a CooTensor<V>),
    /// Shared ownership (the serving layer's catalog tensors).
    Shared(Arc<CooTensor<V>>),
}

impl<V> LeafTensor<'_, V> {
    /// The underlying tensor.
    pub fn get(&self) -> &CooTensor<V> {
        match self {
            LeafTensor::Borrowed(x) => x,
            LeafTensor::Shared(x) => x,
        }
    }
}

/// A vector operand of a TTV edge: owned by the graph, or bound at
/// execute time through a [`Bindings`] slot.
#[derive(Debug, Clone)]
pub enum VecOperand<V> {
    /// The vector itself.
    Owned(DenseVector<V>),
    /// Index into [`Bindings::vecs`].
    Slot(usize),
}

/// A matrix operand of a TTM edge: owned by the graph, or bound at
/// execute time through a [`Bindings`] slot (with the column count
/// declared up front so the planner can cost the dense volume).
#[derive(Debug, Clone)]
pub enum MatOperand<V> {
    /// The matrix itself.
    Owned(DenseMatrix<V>),
    /// Index into [`Bindings::mats`] plus the bound matrix's column count.
    Slot {
        /// Index into [`Bindings::mats`].
        slot: usize,
        /// Column count the bound matrix must have.
        cols: usize,
    },
}

impl<V: Value> MatOperand<V> {
    fn cols(&self) -> usize {
        match self {
            MatOperand::Owned(u) => u.cols(),
            MatOperand::Slot { cols, .. } => *cols,
        }
    }
}

#[derive(Debug)]
enum NodeKind<'a, V> {
    Leaf(LeafTensor<'a, V>),
    Ts { input: ExprId, op: TsOp, scalar: V },
    Tew { input: ExprId, op: EwOp, other: CooTensor<V> },
    Ttv { input: ExprId, mode: usize, v: VecOperand<V> },
    Ttm { input: ExprId, mode: usize, u: MatOperand<V> },
    Mttkrp { input: ExprId, rank: usize, format: FormatKind, block: u32 },
}

impl<V> NodeKind<'_, V> {
    fn input(&self) -> Option<ExprId> {
        match *self {
            NodeKind::Leaf(_) => None,
            NodeKind::Ts { input, .. }
            | NodeKind::Tew { input, .. }
            | NodeKind::Ttv { input, .. }
            | NodeKind::Ttm { input, .. }
            | NodeKind::Mttkrp { input, .. } => Some(input),
        }
    }
}

#[derive(Debug)]
struct Node<'a, V> {
    kind: NodeKind<'a, V>,
    /// Inferred shape of this node's value; empty for the (matrix-valued)
    /// terminal MTTKRP node.
    dims: Vec<Coord>,
}

/// A node handle in an [`ExprGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExprId(usize);

/// A tensor-expression DAG: chains of single-input ops rooted at sparse
/// leaves, with shape inference at build time.
///
/// Mode numbers in `ttv`/`ttm` are **current-shape relative**: a TTV
/// removes its mode (later modes shift down one), a TTM replaces its
/// mode's dimension with the matrix's column count (no shift) — exactly
/// the semantics of the underlying kernels when composed one at a time.
/// The [`Self::ttv_multi`] / [`Self::ttm_all_but`] composites accept
/// input-relative mode lists and handle the shifting.
///
/// # Examples
///
/// ```
/// use pasta_core::{CooTensor, DenseVector, Shape};
/// use pasta_kernels::expr::{lower, Bindings, ExprGraph, ExprOut, VecOperand};
/// use pasta_kernels::Ctx;
///
/// # fn main() -> Result<(), pasta_core::Error> {
/// let x = CooTensor::from_entries(
///     Shape::new(vec![2, 3, 4]),
///     vec![(vec![0, 1, 2], 2.0_f64), (vec![0, 2, 3], 5.0)],
/// )?;
/// let mut g = ExprGraph::new();
/// let leaf = g.leaf(&x);
/// let v = DenseVector::from_vec(vec![1.0, 1.0, 3.0, 7.0]);
/// let root = g.ttv(leaf, 2, VecOperand::Owned(v))?;
/// let ctx = Ctx::sequential();
/// let plan = lower(&g, root, &ctx)?;
/// match plan.execute(&Bindings::none())? {
///     ExprOut::Coo(y) => assert_eq!(y.get(&[0, 1]), Some(6.0)),
///     _ => unreachable!(),
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ExprGraph<'a, V> {
    nodes: Vec<Node<'a, V>>,
}

impl<'a, V: Value> ExprGraph<'a, V> {
    /// An empty graph.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    fn push(&mut self, kind: NodeKind<'a, V>, dims: Vec<Coord>) -> ExprId {
        self.nodes.push(Node { kind, dims });
        ExprId(self.nodes.len() - 1)
    }

    fn check_input(&self, id: ExprId) -> Result<&Node<'a, V>> {
        let n = self.nodes.get(id.0).ok_or_else(|| Error::OperandMismatch {
            what: format!("expression node {} does not exist", id.0),
        })?;
        if matches!(n.kind, NodeKind::Mttkrp { .. }) {
            return Err(Error::OperandMismatch {
                what: "mttkrp produces a dense matrix; it must be the graph root".into(),
            });
        }
        Ok(n)
    }

    /// Adds a borrowed sparse leaf.
    pub fn leaf(&mut self, x: &'a CooTensor<V>) -> ExprId {
        let dims = x.shape().dims().to_vec();
        self.push(NodeKind::Leaf(LeafTensor::Borrowed(x)), dims)
    }

    /// Adds a shared-ownership sparse leaf (catalog tensors in the
    /// serving layer).
    pub fn leaf_shared(&mut self, x: Arc<CooTensor<V>>) -> ExprId {
        let dims = x.shape().dims().to_vec();
        self.push(NodeKind::Leaf(LeafTensor::Shared(x)), dims)
    }

    /// Adds a tensor-scalar elementwise edge.
    ///
    /// # Errors
    ///
    /// Rejects invalid inputs (missing node, MTTKRP input).
    pub fn ts(&mut self, input: ExprId, op: TsOp, scalar: V) -> Result<ExprId> {
        let dims = self.check_input(input)?.dims.clone();
        Ok(self.push(NodeKind::Ts { input, op, scalar }, dims))
    }

    /// Adds a same-pattern tensor-elementwise edge. Only valid directly on
    /// a leaf (the fused layer folds it into the base tensor; patterns of
    /// deeper intermediates are not known until execution).
    ///
    /// # Errors
    ///
    /// Rejects non-leaf inputs and shape mismatches.
    pub fn tew(&mut self, input: ExprId, op: EwOp, other: CooTensor<V>) -> Result<ExprId> {
        let node = self.check_input(input)?;
        if !matches!(node.kind, NodeKind::Leaf(_)) {
            return Err(Error::OperandMismatch {
                what: "tew edges apply to leaves only (same-pattern operand)".into(),
            });
        }
        if other.shape().dims() != &node.dims[..] {
            return Err(Error::ShapeMismatch {
                left: node.dims.clone(),
                right: other.shape().dims().to_vec(),
            });
        }
        let dims = node.dims.clone();
        Ok(self.push(NodeKind::Tew { input, op, other }, dims))
    }

    /// Adds a TTV edge contracting current mode `mode` with `v`. The mode
    /// disappears from the shape.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range modes and owned-vector length mismatches.
    pub fn ttv(&mut self, input: ExprId, mode: usize, v: VecOperand<V>) -> Result<ExprId> {
        let node = self.check_input(input)?;
        if mode >= node.dims.len() {
            return Err(Error::InvalidMode { mode, order: node.dims.len() });
        }
        if let VecOperand::Owned(ref vec) = v {
            if vec.len() != node.dims[mode] as usize {
                return Err(Error::OperandMismatch {
                    what: format!(
                        "vector for mode {mode} has length {} but the mode has dimension {}",
                        vec.len(),
                        node.dims[mode]
                    ),
                });
            }
        }
        let mut dims = node.dims.clone();
        dims.remove(mode);
        Ok(self.push(NodeKind::Ttv { input, mode, v }, dims))
    }

    /// Adds a TTM edge contracting current mode `mode` with `u`. The
    /// mode's dimension becomes the matrix's column count.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range modes, zero-column operands, and owned-matrix
    /// row mismatches.
    pub fn ttm(&mut self, input: ExprId, mode: usize, u: MatOperand<V>) -> Result<ExprId> {
        let node = self.check_input(input)?;
        if mode >= node.dims.len() {
            return Err(Error::InvalidMode { mode, order: node.dims.len() });
        }
        if let MatOperand::Owned(ref mat) = u {
            if mat.rows() != node.dims[mode] as usize {
                return Err(Error::OperandMismatch {
                    what: format!(
                        "factor for mode {mode} has {} rows but mode {mode} has dimension {}",
                        mat.rows(),
                        node.dims[mode]
                    ),
                });
            }
        }
        if u.cols() == 0 {
            return Err(Error::OperandMismatch {
                what: format!("factor for mode {mode} has rank 0; rank must be at least 1"),
            });
        }
        let mut dims = node.dims.clone();
        dims[mode] = u.cols() as Coord;
        Ok(self.push(NodeKind::Ttm { input, mode, u }, dims))
    }

    /// Adds the terminal MTTKRP node: at execute time, [`Bindings::factors`]
    /// and [`Bindings::mode`] select the factored-matrix product, so one
    /// lowered plan (and its conversions) serves every mode of an ALS
    /// sweep.
    ///
    /// # Errors
    ///
    /// Rejects rank 0 and inputs of order below two.
    pub fn mttkrp(
        &mut self,
        input: ExprId,
        rank: usize,
        format: FormatKind,
        block: u32,
    ) -> Result<ExprId> {
        let node = self.check_input(input)?;
        if rank == 0 {
            return Err(Error::OperandMismatch { what: "mttkrp rank must be at least 1".into() });
        }
        if node.dims.len() < 2 {
            return Err(Error::InvalidMode { mode: 0, order: node.dims.len() });
        }
        Ok(self.push(NodeKind::Mttkrp { input, rank, format, block }, Vec::new()))
    }

    /// Composite: contract several modes with vectors. `modes` are
    /// **input-relative** and distinct; edges are added highest mode first
    /// so earlier removals don't shift later mode numbers.
    ///
    /// # Errors
    ///
    /// Rejects duplicate modes and per-edge validation failures.
    pub fn ttv_multi(
        &mut self,
        input: ExprId,
        modes: &[usize],
        vecs: Vec<VecOperand<V>>,
    ) -> Result<ExprId> {
        if modes.len() != vecs.len() {
            return Err(Error::OperandMismatch {
                what: format!("expected {} vectors, got {}", modes.len(), vecs.len()),
            });
        }
        let mut pairs: Vec<(usize, VecOperand<V>)> = modes.iter().copied().zip(vecs).collect();
        pairs.sort_by_key(|&(m, _)| std::cmp::Reverse(m));
        if pairs.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(Error::OperandMismatch { what: "duplicate contraction mode".into() });
        }
        let mut cur = input;
        for (m, v) in pairs {
            cur = self.ttv(cur, m, v)?;
        }
        Ok(cur)
    }

    /// Composite: contract every input mode except `skip` with a matrix
    /// (`mats` aligned with ascending non-skip modes; pass
    /// `skip == order` to contract all modes). TTM preserves mode
    /// positions, so input-relative and current-relative modes coincide.
    ///
    /// # Errors
    ///
    /// Rejects operand-count mismatches and per-edge validation failures.
    pub fn ttm_all_but(
        &mut self,
        input: ExprId,
        skip: usize,
        mats: Vec<MatOperand<V>>,
    ) -> Result<ExprId> {
        let order = self.check_input(input)?.dims.len();
        let modes: Vec<usize> = (0..order).filter(|&m| m != skip).collect();
        if mats.len() != modes.len() {
            return Err(Error::OperandMismatch {
                what: format!("expected {} matrices, got {}", modes.len(), mats.len()),
            });
        }
        let mut cur = input;
        for (m, u) in modes.into_iter().zip(mats) {
            cur = self.ttm(cur, m, u)?;
        }
        Ok(cur)
    }

    /// The inferred shape of node `id` (empty for the matrix-valued
    /// MTTKRP terminal).
    pub fn dims(&self, id: ExprId) -> &[Coord] {
        &self.nodes[id.0].dims
    }
}

/// Execute-time operand bindings for a lowered plan: slot-addressed
/// vectors/matrices plus the MTTKRP factor set and product mode.
///
/// Keeping operands out of the plan is what makes one lowered graph
/// reusable across iterations — an ALS driver lowers once and rebinds
/// `factors`/`mode` every sweep, hitting the cached conversions.
#[derive(Debug)]
pub struct Bindings<'b, V> {
    /// Vectors for [`VecOperand::Slot`] operands, indexed by slot.
    pub vecs: Vec<&'b DenseVector<V>>,
    /// Matrices for [`MatOperand::Slot`] operands, indexed by slot.
    pub mats: Vec<&'b DenseMatrix<V>>,
    /// Factor matrices for MTTKRP nodes (one per base mode).
    pub factors: &'b [DenseMatrix<V>],
    /// The MTTKRP product mode.
    pub mode: usize,
}

impl<'b, V> Bindings<'b, V> {
    /// No bindings — for graphs whose operands are all owned.
    pub fn none() -> Self {
        Self { vecs: Vec::new(), mats: Vec::new(), factors: &[], mode: 0 }
    }

    /// Bindings for an MTTKRP graph: the factor set and product mode.
    pub fn mttkrp(factors: &'b [DenseMatrix<V>], mode: usize) -> Self {
        Self { vecs: Vec::new(), mats: Vec::new(), factors, mode }
    }

    /// Bindings supplying slot vectors only.
    pub fn with_vecs(vecs: Vec<&'b DenseVector<V>>) -> Self {
        Self { vecs, mats: Vec::new(), factors: &[], mode: 0 }
    }

    /// Bindings supplying slot matrices only.
    pub fn with_mats(mats: Vec<&'b DenseMatrix<V>>) -> Self {
        Self { vecs: Vec::new(), mats, factors: &[], mode: 0 }
    }
}

fn resolve_vec<'x, V>(op: &'x VecOperand<V>, b: &'x Bindings<'_, V>) -> Result<&'x DenseVector<V>> {
    match op {
        VecOperand::Owned(v) => Ok(v),
        VecOperand::Slot(i) => b.vecs.get(*i).copied().ok_or_else(|| Error::OperandMismatch {
            what: format!("vector slot {i} has no binding ({} bound)", b.vecs.len()),
        }),
    }
}

fn resolve_mat<'x, V>(op: &'x MatOperand<V>, b: &'x Bindings<'_, V>) -> Result<&'x DenseMatrix<V>> {
    match op {
        MatOperand::Owned(u) => Ok(u),
        MatOperand::Slot { slot, .. } => {
            b.mats.get(*slot).copied().ok_or_else(|| Error::OperandMismatch {
                what: format!("matrix slot {slot} has no binding ({} bound)", b.mats.len()),
            })
        }
    }
}

/// The value a lowered plan produces.
#[derive(Debug, Clone)]
pub enum ExprOut<V> {
    /// A sparse COO tensor (vector-only contractions, elementwise chains).
    Coo(CooTensor<V>),
    /// A semi-sparse tensor: sparse kept modes, dense matrix-contracted
    /// modes.
    Semi(SemiCooTensor<V>),
    /// A fully dense block (every mode contracted), row-major over `dims`.
    Dense {
        /// One dimension per matrix-contracted mode, in base-mode order.
        dims: Vec<Coord>,
        /// The block values.
        vals: Vec<V>,
    },
    /// The MTTKRP factored-matrix product.
    Matrix(DenseMatrix<V>),
}

/// The base tensor a plan starts from: the leaf, or an owned copy with
/// the prologue elementwise edges constant-folded in.
#[derive(Debug)]
enum BaseTensor<'a, V> {
    Leaf(LeafTensor<'a, V>),
    Owned(CooTensor<V>),
}

impl<V> BaseTensor<'_, V> {
    fn get(&self) -> &CooTensor<V> {
        match self {
            BaseTensor::Leaf(l) => l.get(),
            BaseTensor::Owned(t) => t,
        }
    }
}

/// The cached per-mode MTTKRP routes of a lowered MTTKRP head — the route
/// table [`FusedAlsSweep`](crate::fused::FusedAlsSweep) always built, now
/// emitted by the planner: per-mode owner-computes plans where the
/// schedule analysis says a re-sort pays off (COO), or the one-time HiCOO
/// conversion. Route validation against the Combo registry is the
/// caller's job, as with [`ContractionPlan`].
#[derive(Debug)]
pub(crate) struct MttkrpHead<V> {
    hicoo: Option<HiCooTensor<V>>,
    plans: Vec<Option<MttkrpCooPlan<V>>>,
}

impl<V: Value> MttkrpHead<V> {
    pub(crate) fn new(
        x: &CooTensor<V>,
        format: FormatKind,
        block: u32,
        rank: usize,
        ctx: &Ctx,
    ) -> Result<Self> {
        let order = x.order();
        let c = counters();
        let (hicoo, plans) = match format {
            FormatKind::Coo => {
                let mut plans = Vec::with_capacity(order);
                for n in 0..order {
                    let sorted = x.sort_state().outermost() == Some(n);
                    let p = MttkrpSchedParams {
                        nnz: x.nnz(),
                        out_rows: x.shape().dim(n) as usize,
                        rank,
                        threads: ctx.threads,
                        mode_outermost_sorted: sorted,
                    };
                    let build = match ctx.mttkrp {
                        StrategyChoice::Privatized => false,
                        StrategyChoice::Owner => !sorted,
                        StrategyChoice::Auto => !sorted && resort_pays_off(&p),
                    };
                    if build {
                        c.add(CounterId::FusedPlanCacheMisses, 1);
                        plans.push(Some(MttkrpCooPlan::new(x, n, ctx)?));
                    } else {
                        plans.push(None);
                    }
                }
                (None, plans)
            }
            FormatKind::Hicoo => {
                c.add(CounterId::FusedPlanCacheMisses, 1);
                (Some(HiCooTensor::from_coo(x, block)?), Vec::new())
            }
            other => {
                return Err(Error::OperandMismatch {
                    what: format!("fused ALS sweep supports coo and hicoo, not {other}"),
                })
            }
        };
        Ok(Self { hicoo, plans })
    }

    pub(crate) fn execute(
        &self,
        x: &CooTensor<V>,
        factors: &[DenseMatrix<V>],
        n: usize,
        ctx: &Ctx,
    ) -> Result<DenseMatrix<V>> {
        let c = counters();
        c.add(CounterId::FusedEntries, x.nnz() as u64);
        match (&self.hicoo, &self.plans.get(n).and_then(|p| p.as_ref())) {
            (Some(h), _) => {
                c.add(CounterId::FusedPlanCacheHits, 1);
                mttkrp_hicoo(h, factors, n, ctx)
            }
            (None, Some(plan)) => {
                c.add(CounterId::FusedPlanCacheHits, 1);
                Ok(plan.execute(factors)?.0)
            }
            (None, None) => mttkrp_coo(x, factors, n, ctx),
        }
    }
}

#[derive(Debug)]
struct ContractHead<V> {
    plan: ContractionPlan<V>,
    vec_ops: Vec<VecOperand<V>>,
    mat_ops: Vec<MatOperand<V>>,
    epilogue: Vec<(TsOp, V)>,
}

#[derive(Debug)]
enum Head<V> {
    None,
    Contract(ContractHead<V>),
    Mttkrp(MttkrpHead<V>),
}

#[derive(Debug)]
enum SuffixOp<V> {
    Ts { op: TsOp, scalar: V },
    Tew { op: EwOp, other: CooTensor<V> },
    Ttv { mode: usize, v: VecOperand<V> },
    Ttm { mode: usize, u: MatOperand<V> },
    Mttkrp { format: FormatKind, block: u32 },
}

impl<V: Value> SuffixOp<V> {
    fn from_kind(kind: &NodeKind<'_, V>) -> Self {
        match kind {
            NodeKind::Ts { op, scalar, .. } => SuffixOp::Ts { op: *op, scalar: *scalar },
            NodeKind::Tew { op, other, .. } => SuffixOp::Tew { op: *op, other: other.clone() },
            NodeKind::Ttv { mode, v, .. } => SuffixOp::Ttv { mode: *mode, v: v.clone() },
            NodeKind::Ttm { mode, u, .. } => SuffixOp::Ttm { mode: *mode, u: u.clone() },
            NodeKind::Mttkrp { format, block, .. } => {
                SuffixOp::Mttkrp { format: *format, block: *block }
            }
            NodeKind::Leaf(_) => unreachable!("leaves are not edges"),
        }
    }
}

enum SuffixVal<V> {
    Coo(CooTensor<V>),
    Semi(SemiCooTensor<V>),
}

impl<V: Value> SuffixVal<V> {
    fn into_expr_out(self) -> ExprOut<V> {
        match self {
            SuffixVal::Coo(t) => ExprOut::Coo(t),
            SuffixVal::Semi(s) => ExprOut::Semi(s),
        }
    }
}

/// An executable lowered expression: folded base, optional fused head,
/// kernel-at-a-time suffix. Built by [`lower`]; executed (and re-executed
/// under fresh [`Bindings`]) without re-planning or re-sorting.
#[derive(Debug)]
pub struct ExprPlan<'a, V> {
    base: BaseTensor<'a, V>,
    head: Head<V>,
    suffix: Vec<SuffixOp<V>>,
    ctx: Ctx,
    fused_edges: u64,
    materialized_edges: u64,
    runs: AtomicU64,
}

impl<V: Value> ExprPlan<'_, V> {
    /// Edges the planner fused (prologue folds, head contractions, the
    /// MTTKRP head, epilogue scalars).
    pub fn fused_edges(&self) -> u64 {
        self.fused_edges
    }

    /// Edges lowered to the kernel-at-a-time suffix.
    pub fn materialized_edges(&self) -> u64 {
        self.materialized_edges
    }

    /// Whether every edge fused — executing materializes no intermediate
    /// sparse tensor.
    pub fn fully_fused(&self) -> bool {
        self.materialized_edges == 0
    }

    /// The context the plan was lowered under (and executes with).
    pub fn ctx(&self) -> &Ctx {
        &self.ctx
    }

    /// Executes the plan under `b`: the fused head runs through the
    /// per-thread workspaces, then any suffix edges run kernel-at-a-time.
    /// Re-executions count as `expr.plan_cache_hits`.
    ///
    /// # Errors
    ///
    /// Rejects unbound or mis-shaped slot operands and propagates kernel
    /// errors.
    pub fn execute(&self, b: &Bindings<'_, V>) -> Result<ExprOut<V>> {
        let _sp = span("expr", "expr.exec");
        if self.runs.fetch_add(1, Ordering::Relaxed) > 0 {
            counters().add(CounterId::ExprPlanCacheHits, 1);
        }
        let ctx = self.ctx;
        let mut cur: Option<SuffixVal<V>> = None;
        match &self.head {
            Head::None => {}
            // The MTTKRP node is terminal, so no suffix can follow it.
            Head::Mttkrp(h) => {
                return Ok(ExprOut::Matrix(h.execute(self.base.get(), b.factors, b.mode, &ctx)?));
            }
            Head::Contract(h) => {
                let vecs: Vec<&DenseVector<V>> =
                    h.vec_ops.iter().map(|o| resolve_vec(o, b)).collect::<Result<_>>()?;
                let mats: Vec<&DenseMatrix<V>> =
                    h.mat_ops.iter().map(|o| resolve_mat(o, b)).collect::<Result<_>>()?;
                if h.plan.kept().is_empty() {
                    let mut vals = h.plan.execute_full(&vecs, &mats, &ctx)?;
                    for &(op, s) in &h.epilogue {
                        ts_in_place(op, &mut vals, s);
                    }
                    let dims: Vec<Coord> = mats.iter().map(|u| u.cols() as Coord).collect();
                    debug_assert!(self.suffix.is_empty(), "no edge can follow a full contraction");
                    return Ok(ExprOut::Dense { dims, vals });
                }
                let dvol = h.plan.dense_volume(&mats);
                let kind = choose_workspace(
                    h.plan.num_fibers(),
                    dvol,
                    h.plan.base().nnz(),
                    ctx.threads,
                    DEFAULT_DENSE_THRESHOLD,
                );
                let mut vals = vec![V::ZERO; h.plan.num_fibers() * dvol];
                h.plan.execute_into(&vecs, &mats, &mut vals, &ctx, kind)?;
                for &(op, s) in &h.epilogue {
                    ts_in_place(op, &mut vals, s);
                }
                let out = if h.plan.mat_modes().is_empty() {
                    SuffixVal::Coo(h.plan.assemble_coo(vals)?)
                } else {
                    SuffixVal::Semi(h.plan.assemble_semi(vals, &mats)?)
                };
                if self.suffix.is_empty() {
                    return Ok(out.into_expr_out());
                }
                // The head output feeds materialized edges: it becomes a
                // real intermediate tensor.
                counters().add(CounterId::FusedMaterialized, 1);
                cur = Some(out);
            }
        }
        self.run_suffix(cur, b, &ctx)
    }

    /// The current suffix value as a COO tensor, converting a semi-sparse
    /// intermediate (counted as a materialization) and falling back to the
    /// base when no edge has produced a value yet.
    fn cur_coo<'s>(&'s self, cur: &'s mut Option<SuffixVal<V>>) -> &'s CooTensor<V> {
        if let Some(SuffixVal::Semi(s)) = cur {
            counters().add(CounterId::FusedMaterialized, 1);
            *cur = Some(SuffixVal::Coo(s.to_coo()));
        }
        match cur {
            None => self.base.get(),
            Some(SuffixVal::Coo(t)) => t,
            Some(SuffixVal::Semi(_)) => unreachable!("semi converted above"),
        }
    }

    /// Runs the kernel-at-a-time suffix — the materialized ablation path,
    /// mirroring the unfused chains in `pasta-algos` (including the
    /// semi-sparse densify fallback before a TTM would densify the last
    /// sparse mode).
    fn run_suffix(
        &self,
        mut cur: Option<SuffixVal<V>>,
        b: &Bindings<'_, V>,
        ctx: &Ctx,
    ) -> Result<ExprOut<V>> {
        let c = counters();
        for op in &self.suffix {
            match op {
                SuffixOp::Ts { op, scalar } => match &mut cur {
                    Some(SuffixVal::Coo(t)) => ts_in_place(*op, t.vals_mut(), *scalar),
                    Some(SuffixVal::Semi(s)) => ts_in_place(*op, s.vals_mut(), *scalar),
                    None => {
                        let mut t = self.base.get().clone();
                        ts_in_place(*op, t.vals_mut(), *scalar);
                        cur = Some(SuffixVal::Coo(t));
                    }
                },
                SuffixOp::Tew { op, other } => {
                    let y = tew_coo_same_pattern(*op, self.cur_coo(&mut cur), other, ctx)?;
                    c.add(CounterId::FusedMaterialized, 1);
                    cur = Some(SuffixVal::Coo(y));
                }
                SuffixOp::Ttv { mode, v } => {
                    let vec = resolve_vec(v, b)?;
                    let y = ttv_coo(self.cur_coo(&mut cur), vec, *mode, ctx)?;
                    c.add(CounterId::FusedMaterialized, 1);
                    cur = Some(SuffixVal::Coo(y));
                }
                SuffixOp::Ttm { mode, u } => {
                    let mat = resolve_mat(u, b)?;
                    let next = match &cur {
                        None => ttm_coo(self.base.get(), mat, *mode, ctx)?,
                        Some(SuffixVal::Coo(t)) => ttm_coo(t, mat, *mode, ctx)?,
                        Some(SuffixVal::Semi(prev)) => {
                            if prev.dense_modes().len() + 1 >= prev.shape().order() {
                                c.add(CounterId::FusedMaterialized, 1);
                                ttm_coo(&prev.to_coo(), mat, *mode, ctx)?
                            } else {
                                ttm_scoo(prev, mat, *mode, ctx)?
                            }
                        }
                    };
                    c.add(CounterId::FusedMaterialized, 1);
                    cur = Some(SuffixVal::Semi(next));
                }
                SuffixOp::Mttkrp { format, block } => {
                    let out = {
                        let x = self.cur_coo(&mut cur);
                        match format {
                            FormatKind::Coo => mttkrp_coo(x, b.factors, b.mode, ctx)?,
                            FormatKind::Hicoo => {
                                let h = HiCooTensor::from_coo(x, *block)?;
                                mttkrp_hicoo(&h, b.factors, b.mode, ctx)?
                            }
                            other => {
                                return Err(Error::OperandMismatch {
                                    what: format!(
                                        "fused ALS sweep supports coo and hicoo, not {other}"
                                    ),
                                })
                            }
                        }
                    };
                    return Ok(ExprOut::Matrix(out));
                }
            }
        }
        match cur {
            None => Ok(ExprOut::Coo(self.base.get().clone())),
            Some(v) => Ok(v.into_expr_out()),
        }
    }
}

/// Constant-folds a tensor-scalar edge into the base at plan time.
fn fold_ts<'a, V: Value>(base: BaseTensor<'a, V>, op: TsOp, s: V) -> BaseTensor<'a, V> {
    let mut t = match base {
        BaseTensor::Owned(t) => t,
        leaf => leaf.get().clone(),
    };
    ts_in_place(op, t.vals_mut(), s);
    BaseTensor::Owned(t)
}

/// Whether the next contraction edge should fuse into the head, per
/// [`Ctx::fusion`] and the [`choose_fusion`] cost model.
///
/// The model sees the state *after* the candidate edge: output fibers
/// bounded by the product of the modes still sparse (capped at `nnz`),
/// the dense volume including the candidate matrix, and the chain length
/// so far.
fn edge_fuses(
    ctx: &Ctx,
    shape: &Shape,
    nnz: usize,
    kept_after: &[usize],
    dvol_after: usize,
    steps_after: usize,
) -> bool {
    match ctx.fusion {
        FusionChoice::Fuse => true,
        FusionChoice::Materialize => false,
        FusionChoice::Auto => {
            let kept_prod =
                kept_after.iter().fold(1usize, |a, &m| a.saturating_mul(shape.dim(m) as usize));
            let p = FusionParams {
                nnz,
                out_fibers: kept_prod.min(nnz),
                dense_volume: dvol_after,
                steps: steps_after,
                threads: ctx.threads,
            };
            choose_fusion(&p) == FuseDecision::Fuse
        }
    }
}

/// A live mode of the current shape during lowering: still sparse, or
/// already densified by a TTM edge.
#[derive(Clone, Copy)]
enum Live {
    Kept(usize),
    Mat(usize),
}

/// Lowers the chain rooted at `root` to an executable [`ExprPlan`].
///
/// The planner folds leading elementwise edges into the base, gathers the
/// longest fusable run of contraction edges into one [`ContractionPlan`]
/// (or builds the cached MTTKRP routes for a terminal MTTKRP edge), and
/// sends everything after the first unfusable edge to the kernel-at-a-time
/// suffix. `Ctx::fusion` forces the decision (`Fuse`/`Materialize`) or
/// delegates it per edge to [`choose_fusion`] (`Auto`). Edge decisions are
/// recorded in the `expr.*` counters.
///
/// # Errors
///
/// Rejects unknown roots, unregistered kernel routes, and operand
/// mismatches discovered while folding.
pub fn lower<'a, V: Value>(
    graph: &ExprGraph<'a, V>,
    root: ExprId,
    ctx: &Ctx,
) -> Result<ExprPlan<'a, V>> {
    if root.0 >= graph.nodes.len() {
        return Err(Error::OperandMismatch {
            what: format!("expression node {} does not exist", root.0),
        });
    }
    let _sp = span("expr", "expr.lower");
    let mut path = Vec::new();
    let mut cur = Some(root);
    while let Some(id) = cur {
        path.push(id.0);
        cur = graph.nodes[id.0].kind.input();
    }
    path.reverse();
    let leaf = match &graph.nodes[path[0]].kind {
        NodeKind::Leaf(l) => l.clone(),
        _ => unreachable!("every chain ends at a leaf"),
    };
    let ops = &path[1..];

    let mut base = BaseTensor::Leaf(leaf);
    let mut head = Head::None;
    let mut fused_edges = 0u64;
    let mut i = 0usize;

    if ctx.fusion != FusionChoice::Materialize {
        // Prologue: constant-fold leading elementwise edges into the base
        // (untimed preprocessing, like the plan sorts).
        while i < ops.len() {
            match &graph.nodes[ops[i]].kind {
                NodeKind::Ts { op, scalar, .. } => {
                    base = fold_ts(base, *op, *scalar);
                    fused_edges += 1;
                    i += 1;
                }
                NodeKind::Tew { op, other, .. } => {
                    base = BaseTensor::Owned(tew_coo_same_pattern(*op, base.get(), other, ctx)?);
                    fused_edges += 1;
                    i += 1;
                }
                _ => break,
            }
        }
        if i < ops.len() {
            match &graph.nodes[ops[i]].kind {
                NodeKind::Mttkrp { rank, format, block, .. } => {
                    KernelPlan::new(Kernel::Mttkrp, *format, BackendKind::Cpu, ctx)?;
                    head = Head::Mttkrp(MttkrpHead::new(base.get(), *format, *block, *rank, ctx)?);
                    fused_edges += 1;
                    i += 1;
                }
                NodeKind::Ttv { .. } | NodeKind::Ttm { .. } => {
                    let shape = base.get().shape().clone();
                    let nnz = base.get().nnz();
                    let mut live: Vec<Live> = (0..shape.order()).map(Live::Kept).collect();
                    let mut vec_pairs: Vec<(usize, VecOperand<V>)> = Vec::new();
                    let mut mat_pairs: Vec<(usize, MatOperand<V>)> = Vec::new();
                    let mut epilogue: Vec<(TsOp, V)> = Vec::new();
                    let mut dvol = 1usize;
                    while i < ops.len() {
                        match &graph.nodes[ops[i]].kind {
                            NodeKind::Ttv { mode, v, .. } => {
                                if !epilogue.is_empty() {
                                    break;
                                }
                                // A TTV on a TTM-densified mode contracts a
                                // dense rank dimension — not expressible in
                                // one fused pass; the suffix handles it.
                                let bm = match live[*mode] {
                                    Live::Kept(b) => b,
                                    Live::Mat(_) => break,
                                };
                                let kept_after: Vec<usize> = live
                                    .iter()
                                    .enumerate()
                                    .filter(|&(k, l)| k != *mode && matches!(l, Live::Kept(_)))
                                    .map(|(_, l)| match l {
                                        Live::Kept(b) => *b,
                                        Live::Mat(b) => *b,
                                    })
                                    .collect();
                                let steps = vec_pairs.len() + mat_pairs.len() + 1;
                                if !edge_fuses(ctx, &shape, nnz, &kept_after, dvol, steps) {
                                    break;
                                }
                                vec_pairs.push((bm, v.clone()));
                                live.remove(*mode);
                                fused_edges += 1;
                                i += 1;
                            }
                            NodeKind::Ttm { mode, u, .. } => {
                                if !epilogue.is_empty() {
                                    break;
                                }
                                let bm = match live[*mode] {
                                    Live::Kept(b) => b,
                                    Live::Mat(_) => break,
                                };
                                let kept_after: Vec<usize> = live
                                    .iter()
                                    .enumerate()
                                    .filter(|&(k, l)| k != *mode && matches!(l, Live::Kept(_)))
                                    .map(|(_, l)| match l {
                                        Live::Kept(b) => *b,
                                        Live::Mat(b) => *b,
                                    })
                                    .collect();
                                let steps = vec_pairs.len() + mat_pairs.len() + 1;
                                let cols = u.cols();
                                if !edge_fuses(ctx, &shape, nnz, &kept_after, dvol * cols, steps) {
                                    break;
                                }
                                mat_pairs.push((bm, u.clone()));
                                live[*mode] = Live::Mat(bm);
                                dvol *= cols;
                                fused_edges += 1;
                                i += 1;
                            }
                            NodeKind::Ts { op, scalar, .. } => {
                                // Scalar edges after the contractions apply
                                // to the head output values in place.
                                epilogue.push((*op, *scalar));
                                fused_edges += 1;
                                i += 1;
                            }
                            _ => break,
                        }
                    }
                    if !vec_pairs.is_empty() || !mat_pairs.is_empty() {
                        vec_pairs.sort_by_key(|&(m, _)| m);
                        mat_pairs.sort_by_key(|&(m, _)| m);
                        let vms: Vec<usize> = vec_pairs.iter().map(|p| p.0).collect();
                        let mms: Vec<usize> = mat_pairs.iter().map(|p| p.0).collect();
                        if !vms.is_empty() {
                            KernelPlan::new(Kernel::Ttv, FormatKind::Coo, BackendKind::Cpu, ctx)?;
                        }
                        if !mms.is_empty() {
                            KernelPlan::new(Kernel::Ttm, FormatKind::Coo, BackendKind::Cpu, ctx)?;
                        }
                        let plan = ContractionPlan::new(base.get().clone(), &vms, &mms, ctx)?;
                        head = Head::Contract(ContractHead {
                            plan,
                            vec_ops: vec_pairs.into_iter().map(|p| p.1).collect(),
                            mat_ops: mat_pairs.into_iter().map(|p| p.1).collect(),
                            epilogue,
                        });
                    }
                }
                NodeKind::Leaf(_) | NodeKind::Ts { .. } | NodeKind::Tew { .. } => {
                    unreachable!("prologue consumed elementwise edges")
                }
            }
        }
    }
    let mut suffix = Vec::with_capacity(ops.len() - i);
    for &idx in &ops[i..] {
        suffix.push(SuffixOp::from_kind(&graph.nodes[idx].kind));
    }
    let materialized_edges = suffix.len() as u64;
    let c = counters();
    c.add(CounterId::ExprPlans, 1);
    c.add(CounterId::ExprFusedEdges, fused_edges);
    c.add(CounterId::ExprMaterializedEdges, materialized_edges);
    Ok(ExprPlan {
        base,
        head,
        suffix,
        ctx: *ctx,
        fused_edges,
        materialized_edges,
        runs: AtomicU64::new(0),
    })
}

/// One pinned expression-graph route of the conformance matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprRoute {
    /// Which graph shape: `chain` (TEW→TTV→TTM fused end-to-end), `ttv`
    /// (multi-mode TTV product), `contract` (full contraction to a dense
    /// block), `mttkrp` (the planner-cached MTTKRP head).
    pub label: &'static str,
    /// The leaf tensor format.
    pub format: FormatKind,
    /// Where the plan executes.
    pub backend: BackendKind,
}

impl std::fmt::Display for ExprRoute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "expr-{}/{}/{}", self.label, self.format, self.backend)
    }
}

/// Every expression-graph shape the conformance matrix pins against
/// composed kernel-at-a-time evaluation. Like [`registry`] and
/// [`fused_registry`], this is the single source of coverage truth: the
/// matrix generates `expr-*` cells from it and completeness tests check
/// both directions.
///
/// [`registry`]: crate::pipeline::registry
/// [`fused_registry`]: crate::pipeline::fused_registry
pub fn expr_registry() -> Vec<ExprRoute> {
    use BackendKind::Cpu;
    use FormatKind::Coo;
    vec![
        ExprRoute { label: "chain", format: Coo, backend: Cpu },
        ExprRoute { label: "ttv", format: Coo, backend: Cpu },
        ExprRoute { label: "contract", format: Coo, backend: Cpu },
        ExprRoute { label: "mttkrp", format: Coo, backend: Cpu },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::FusedTtvPlan;
    use pasta_core::{seeded_matrix, seeded_vector};

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
    fn ttv_graph_is_bit_identical_to_canned_plan() {
        let x = test_tensor(&[7, 6, 5, 4], 160, 3);
        let ctx = Ctx::sequential();
        let v1 = seeded_vector::<f64>(6, 11);
        let v2 = seeded_vector::<f64>(4, 12);
        let canned = FusedTtvPlan::new(&x, &[1, 3], &ctx).unwrap();
        let want = canned.execute(&[&v1, &v2], &ctx).unwrap();
        let mut g = ExprGraph::new();
        let leaf = g.leaf(&x);
        let root = g
            .ttv_multi(
                leaf,
                &[1, 3],
                vec![VecOperand::Owned(v1.clone()), VecOperand::Owned(v2.clone())],
            )
            .unwrap();
        let plan = lower(&g, root, &ctx).unwrap();
        assert!(plan.fully_fused());
        match plan.execute(&Bindings::none()).unwrap() {
            ExprOut::Coo(y) => {
                assert_eq!(y.nnz(), want.nnz());
                for (a, b) in y.vals().iter().zip(want.vals()) {
                    assert_eq!(a, b, "graph TTV must be bit-identical to the canned plan");
                }
            }
            other => panic!("expected COO, got {other:?}"),
        }
    }

    #[test]
    fn mixed_chain_fuses_end_to_end_with_zero_materialization() {
        let x = test_tensor(&[6, 5, 4], 120, 9);
        let ctx = Ctx::sequential();
        let y = x.like_pattern(1.5);
        let v = seeded_vector::<f64>(5, 21);
        let u = seeded_matrix::<f64>(4, 3, 22);
        let mut g = ExprGraph::new();
        let leaf = g.leaf(&x);
        let t = g.tew(leaf, EwOp::Add, y.clone()).unwrap();
        let t = g.ttv(t, 1, VecOperand::Owned(v.clone())).unwrap();
        let root = g.ttm(t, 1, MatOperand::Owned(u.clone())).unwrap();
        let plan = lower(&g, root, &ctx).unwrap();
        assert!(plan.fully_fused());
        assert_eq!(plan.fused_edges(), 3);

        pasta_obs::set_counting(true);
        let before = counters().snapshot();
        let got = match plan.execute(&Bindings::none()).unwrap() {
            ExprOut::Semi(s) => s.to_coo().to_dense(1 << 12),
            other => panic!("expected semi-sparse, got {other:?}"),
        };
        let after = counters().snapshot();
        assert_eq!(
            after[CounterId::FusedMaterialized],
            before[CounterId::FusedMaterialized],
            "fused chain must materialize nothing"
        );

        // Composed reference: tew, then ttv, then ttm, one kernel at a time.
        let step = tew_coo_same_pattern(EwOp::Add, &x, &y, &ctx).unwrap();
        let step = ttv_coo(&step, &v, 1, &ctx).unwrap();
        let want = ttm_coo(&step, &u, 1, &ctx).unwrap().to_coo().to_dense(1 << 12);
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn materialize_route_matches_fused_route() {
        let x = test_tensor(&[6, 5, 4], 100, 31);
        let v = seeded_vector::<f64>(5, 7);
        let u = seeded_matrix::<f64>(4, 2, 8);
        let build = |g: &mut ExprGraph<'_, f64>, leaf: ExprId| {
            let t = g.ttv(leaf, 1, VecOperand::Owned(v.clone())).unwrap();
            g.ttm(t, 1, MatOperand::Owned(u.clone())).unwrap()
        };
        let mut ctx = Ctx::sequential();
        ctx.fusion = FusionChoice::Fuse;
        let mut g1 = ExprGraph::new();
        let l1 = g1.leaf(&x);
        let r1 = build(&mut g1, l1);
        let fused = lower(&g1, r1, &ctx).unwrap();
        assert!(fused.fully_fused());

        ctx.fusion = FusionChoice::Materialize;
        let mut g2 = ExprGraph::new();
        let l2 = g2.leaf(&x);
        let r2 = build(&mut g2, l2);
        let mat = lower(&g2, r2, &ctx).unwrap();
        assert_eq!(mat.fused_edges(), 0);
        assert_eq!(mat.materialized_edges(), 2);

        let a = match fused.execute(&Bindings::none()).unwrap() {
            ExprOut::Semi(s) => s.to_coo().to_dense(1 << 12),
            other => panic!("unexpected {other:?}"),
        };
        let b = match mat.execute(&Bindings::none()).unwrap() {
            ExprOut::Semi(s) => s.to_coo().to_dense(1 << 12),
            other => panic!("unexpected {other:?}"),
        };
        for (p, q) in a.iter().zip(&b) {
            assert!((p - q).abs() < 1e-9, "{p} vs {q}");
        }
    }

    #[test]
    fn full_contraction_produces_dense_block() {
        let x = test_tensor(&[5, 4, 3], 40, 13);
        let ctx = Ctx::sequential();
        let mats: Vec<DenseMatrix<f64>> =
            vec![seeded_matrix(5, 2, 4), seeded_matrix(4, 2, 5), seeded_matrix(3, 2, 6)];
        let mut g = ExprGraph::new();
        let leaf = g.leaf(&x);
        let root = g
            .ttm_all_but(leaf, 3, mats.iter().map(|m| MatOperand::Owned(m.clone())).collect())
            .unwrap();
        let plan = lower(&g, root, &ctx).unwrap();
        let got = match plan.execute(&Bindings::none()).unwrap() {
            ExprOut::Dense { dims, vals } => {
                assert_eq!(dims, vec![2, 2, 2]);
                vals
            }
            other => panic!("expected dense, got {other:?}"),
        };
        let mut want = vec![0.0f64; 8];
        for e in 0..x.nnz() {
            let v = x.vals()[e];
            for r0 in 0..2 {
                for r1 in 0..2 {
                    for r2 in 0..2 {
                        want[r0 * 4 + r1 * 2 + r2] += v
                            * mats[0].get(x.mode_inds(0)[e] as usize, r0)
                            * mats[1].get(x.mode_inds(1)[e] as usize, r1)
                            * mats[2].get(x.mode_inds(2)[e] as usize, r2);
                    }
                }
            }
        }
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn mttkrp_graph_matches_direct_kernel_and_rebinds_modes() {
        let x = test_tensor(&[6, 5, 4], 80, 23);
        let ctx = Ctx::sequential();
        let r = 3;
        let factors: Vec<DenseMatrix<f64>> =
            (0..3).map(|m| seeded_matrix(x.shape().dim(m) as usize, r, 50 + m as u64)).collect();
        let mut g = ExprGraph::new();
        let leaf = g.leaf(&x);
        let root = g.mttkrp(leaf, r, FormatKind::Coo, 0).unwrap();
        let plan = lower(&g, root, &ctx).unwrap();
        for n in 0..3 {
            let got = match plan.execute(&Bindings::mttkrp(&factors, n)).unwrap() {
                ExprOut::Matrix(m) => m,
                other => panic!("expected matrix, got {other:?}"),
            };
            let want = mttkrp_coo(&x, &factors, n, &ctx).unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "mode {n} must be bit-identical");
        }
    }

    #[test]
    fn slot_operands_rebind_across_executions() {
        let x = test_tensor(&[6, 5, 4], 60, 41);
        let ctx = Ctx::sequential();
        let mut g = ExprGraph::new();
        let leaf = g.leaf(&x);
        let root = g.ttv(leaf, 2, VecOperand::Slot(0)).unwrap();
        let plan = lower(&g, root, &ctx).unwrap();
        pasta_obs::set_counting(true);
        let before = counters().snapshot();
        for seed in [1u64, 2, 3] {
            let v = seeded_vector::<f64>(4, seed);
            let got = match plan.execute(&Bindings::with_vecs(vec![&v])).unwrap() {
                ExprOut::Coo(t) => t,
                other => panic!("unexpected {other:?}"),
            };
            let want = ttv_coo(&x, &v, 2, &ctx).unwrap();
            let a = got.to_dense(1 << 12);
            let b = want.to_dense(1 << 12);
            for (p, q) in a.iter().zip(&b) {
                assert!((p - q).abs() < 1e-9, "{p} vs {q}");
            }
        }
        let after = counters().snapshot();
        assert!(
            after[CounterId::ExprPlanCacheHits] >= before[CounterId::ExprPlanCacheHits] + 2,
            "re-executions must count as plan cache hits"
        );
        assert!(plan.execute(&Bindings::none()).is_err(), "unbound slot must be rejected");
    }

    #[test]
    fn lowering_counts_edges() {
        let x = test_tensor(&[6, 5, 4], 60, 43);
        let ctx = Ctx::sequential();
        let v = seeded_vector::<f64>(4, 3);
        pasta_obs::set_counting(true);
        let before = counters().snapshot();
        let mut g = ExprGraph::new();
        let leaf = g.leaf(&x);
        let t = g.ts(leaf, TsOp::Mul, 2.0).unwrap();
        let root = g.ttv(t, 2, VecOperand::Owned(v)).unwrap();
        let plan = lower(&g, root, &ctx).unwrap();
        let after = counters().snapshot();
        assert_eq!(after[CounterId::ExprPlans], before[CounterId::ExprPlans] + 1);
        assert_eq!(after[CounterId::ExprFusedEdges], before[CounterId::ExprFusedEdges] + 2);
        assert_eq!(
            after[CounterId::ExprMaterializedEdges],
            before[CounterId::ExprMaterializedEdges]
        );
        // The folded TS prologue is arithmetically identical to ts_coo.
        match plan.execute(&Bindings::none()).unwrap() {
            ExprOut::Coo(got) => {
                let step = crate::ts_coo(TsOp::Mul, &x, 2.0, &ctx).unwrap();
                let want = ttv_coo(&step, &seeded_vector::<f64>(4, 3), 2, &ctx).unwrap();
                for (a, b) in got.vals().iter().zip(want.vals()) {
                    assert!((a - b).abs() < 1e-12);
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn builder_rejects_malformed_graphs() {
        let x = test_tensor(&[4, 4, 4], 10, 1);
        let mut g = ExprGraph::new();
        let leaf = g.leaf(&x);
        // Out-of-range mode.
        assert!(g.ttv(leaf, 3, VecOperand::Slot(0)).is_err());
        // Owned-vector length mismatch.
        assert!(g.ttv(leaf, 0, VecOperand::Owned(DenseVector::from_vec(vec![1.0f64; 3]))).is_err());
        // TEW off a non-leaf input.
        let t = g.ts(leaf, TsOp::Add, 1.0).unwrap();
        assert!(g.tew(t, EwOp::Add, x.like_pattern(1.0)).is_err());
        // MTTKRP must be terminal.
        let mk = g.mttkrp(leaf, 2, FormatKind::Coo, 0).unwrap();
        assert!(g.ts(mk, TsOp::Add, 1.0).is_err());
        // Zero-rank matrix operand.
        assert!(g.ttm(leaf, 0, MatOperand::Slot { slot: 0, cols: 0 }).is_err());
    }

    #[test]
    fn ttv_after_ttm_on_same_mode_falls_back_to_suffix() {
        let x = test_tensor(&[6, 5, 4], 80, 51);
        let ctx = Ctx::sequential();
        let u = seeded_matrix::<f64>(5, 3, 61);
        let v = seeded_vector::<f64>(3, 62);
        let mut g = ExprGraph::new();
        let leaf = g.leaf(&x);
        let t = g.ttm(leaf, 1, MatOperand::Owned(u.clone())).unwrap();
        // Contracts the densified rank dimension — unfusable.
        let root = g.ttv(t, 1, VecOperand::Owned(v.clone())).unwrap();
        let plan = lower(&g, root, &ctx).unwrap();
        assert_eq!(plan.materialized_edges(), 1);
        let got = match plan.execute(&Bindings::none()).unwrap() {
            ExprOut::Coo(t) => t.to_dense(1 << 12),
            other => panic!("unexpected {other:?}"),
        };
        let step = ttm_coo(&x, &u, 1, &ctx).unwrap().to_coo();
        let want = ttv_coo(&step, &v, 1, &ctx).unwrap().to_dense(1 << 12);
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn expr_registry_rows_are_unique() {
        let rows = expr_registry();
        assert_eq!(rows.len(), 4);
        let mut ids: Vec<String> = rows.iter().map(|r| r.to_string()).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
        assert!(ids.iter().all(|s| s.starts_with("expr-")));
    }
}
