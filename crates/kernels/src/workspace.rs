//! Per-thread workspaces for the fused-expression layer.
//!
//! A fused chain (see [`expr`](crate::expr)) never materializes an
//! intermediate sparse tensor; instead every worker accumulates into a
//! *workspace* — either a dense scratch block indexed by output row
//! (Kjolstad-style dense workspace) or the open-addressing
//! [`SparseAcc`] accumulator when the output is hyper-sparse relative to
//! its index space. [`choose_workspace`] encodes the selection rule;
//! [`FusedWorkspace`] is the tagged union the fused executors accumulate
//! into. Allocations are recorded under
//! [`CounterId::FusedWorkspaceBytes`] in the unified
//! [`pasta_obs`] registry so benches and tests can assert that the fused
//! path materialized nothing.

use crate::pipeline::SparseAcc;
use pasta_core::Value;
use pasta_obs::{counters, CounterId};

/// Which accumulator a fused executor hands each worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkspaceKind {
    /// A zeroed dense scratch block of `rows × width` values, indexed
    /// directly by output row.
    Dense,
    /// The open-addressing [`SparseAcc`]: capacity scales with rows
    /// actually touched, not the index space.
    Sparse,
}

impl WorkspaceKind {
    /// The lowercase label used in logs and cell ids.
    pub fn label(self) -> &'static str {
        match self {
            WorkspaceKind::Dense => "dense",
            WorkspaceKind::Sparse => "sparse",
        }
    }
}

impl std::fmt::Display for WorkspaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Dense-workspace cap: above this many scratch *values* per worker the
/// dense block stops being an obvious win and the touched-rows estimate
/// decides instead.
pub const DENSE_WS_CAP: usize = 1 << 16;

/// Picks the workspace for a fused chain whose output index space has
/// `rows` rows of `width` values each, fed by `nnz` input non-zeros on
/// `threads` workers.
///
/// Mirrors the MTTKRP dense-vs-sparse privatization rule: dense when the
/// per-worker scratch is absolutely small (`rows·width ≤ 2^16`) or when
/// the output is dense relative to the work (`threads·rows ≤ 4·nnz`, the
/// [`DEFAULT_DENSE_THRESHOLD`](crate::analysis::DEFAULT_DENSE_THRESHOLD)
/// rule); sparse otherwise, so hyper-sparse outputs never allocate the
/// full index space per worker.
pub fn choose_workspace(
    rows: usize,
    width: usize,
    nnz: usize,
    threads: usize,
    dense_threshold: usize,
) -> WorkspaceKind {
    if rows.saturating_mul(width) <= DENSE_WS_CAP {
        return WorkspaceKind::Dense;
    }
    if threads.max(1).saturating_mul(rows) <= dense_threshold.saturating_mul(nnz.max(1)) {
        WorkspaceKind::Dense
    } else {
        WorkspaceKind::Sparse
    }
}

/// One worker's accumulator: a dense scratch block or a [`SparseAcc`].
///
/// Both variants expose the same `row_mut`/`merge`/`drain_into` surface,
/// so fused executors are written once and instantiated per
/// [`WorkspaceKind`].
#[derive(Debug)]
pub enum FusedWorkspace<V> {
    /// Dense scratch: `rows × width` values, row-major.
    Dense {
        /// The scratch block (`rows × width`).
        buf: Vec<V>,
        /// Row width in values.
        width: usize,
    },
    /// Hashed scratch keyed by output row.
    Sparse(SparseAcc<V>),
}

impl<V: Value> FusedWorkspace<V> {
    /// Allocates a workspace of the given kind for `rows × width` output
    /// slots, expecting about `expected_rows` distinct rows to be touched.
    pub fn new(kind: WorkspaceKind, rows: usize, width: usize, expected_rows: usize) -> Self {
        let ws = match kind {
            WorkspaceKind::Dense => {
                FusedWorkspace::Dense { buf: vec![V::ZERO; rows * width], width }
            }
            WorkspaceKind::Sparse => {
                FusedWorkspace::Sparse(SparseAcc::new(width, expected_rows.max(1)))
            }
        };
        counters().add(CounterId::FusedWorkspaceBytes, ws.bytes() as u64);
        ws
    }

    /// Which kind this workspace is.
    pub fn kind(&self) -> WorkspaceKind {
        match self {
            FusedWorkspace::Dense { .. } => WorkspaceKind::Dense,
            FusedWorkspace::Sparse(_) => WorkspaceKind::Sparse,
        }
    }

    /// The workspace's memory footprint in bytes.
    pub fn bytes(&self) -> usize {
        match self {
            FusedWorkspace::Dense { buf, .. } => buf.len() * V::BYTES,
            FusedWorkspace::Sparse(acc) => acc.bytes(),
        }
    }

    /// The `width`-wide accumulator block for output row `row`, zeroed on
    /// first touch.
    #[inline]
    pub fn row_mut(&mut self, row: u32) -> &mut [V] {
        match self {
            FusedWorkspace::Dense { buf, width } => {
                let w = *width;
                &mut buf[row as usize * w..(row as usize + 1) * w]
            }
            FusedWorkspace::Sparse(acc) => acc.row_mut(row),
        }
    }

    /// Folds `other` into `self` (the deterministic tree-reduction merge).
    /// Both sides must share kind and width.
    pub fn merge(&mut self, other: &FusedWorkspace<V>) {
        match (self, other) {
            (FusedWorkspace::Dense { buf, .. }, FusedWorkspace::Dense { buf: ob, .. }) => {
                debug_assert_eq!(buf.len(), ob.len());
                crate::microkernel::add_assign(buf, ob);
            }
            (FusedWorkspace::Sparse(acc), FusedWorkspace::Sparse(oa)) => acc.merge(oa),
            _ => panic!("cannot merge dense and sparse workspaces"),
        }
    }

    /// Adds every accumulated row into a dense output (row-major, same
    /// width).
    pub fn drain_into(&self, out: &mut [V]) {
        match self {
            FusedWorkspace::Dense { buf, .. } => {
                debug_assert_eq!(buf.len(), out.len());
                crate::microkernel::add_assign(out, buf);
            }
            FusedWorkspace::Sparse(acc) => acc.drain_into(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_when_small_sparse_when_hyper_sparse() {
        // Tiny output: always dense.
        assert_eq!(choose_workspace(100, 16, 10, 8, 4), WorkspaceKind::Dense);
        // Output rows dwarf the nnz feeding them: sparse.
        assert_eq!(choose_workspace(10_000_000, 16, 1_000, 4, 4), WorkspaceKind::Sparse);
        // Dense relative to work even though absolutely large.
        assert_eq!(choose_workspace(1 << 20, 1, 1 << 22, 1, 4), WorkspaceKind::Dense);
    }

    #[test]
    fn workspace_variants_accumulate_identically() {
        for kind in [WorkspaceKind::Dense, WorkspaceKind::Sparse] {
            let mut a = FusedWorkspace::<f64>::new(kind, 8, 3, 4);
            let mut b = FusedWorkspace::<f64>::new(kind, 8, 3, 4);
            a.row_mut(2)[1] += 1.5;
            a.row_mut(5)[0] += 2.0;
            b.row_mut(2)[1] += 0.5;
            b.row_mut(7)[2] += 4.0;
            a.merge(&b);
            let mut out = vec![0.0; 24];
            a.drain_into(&mut out);
            assert_eq!(out[2 * 3 + 1], 2.0);
            assert_eq!(out[5 * 3], 2.0);
            assert_eq!(out[7 * 3 + 2], 4.0);
            assert_eq!(out.iter().filter(|v| **v != 0.0).count(), 3);
            assert_eq!(a.kind(), kind);
            assert!(a.bytes() > 0);
        }
    }

    #[test]
    fn counters_record_workspace_allocation() {
        pasta_obs::set_counting(true);
        let before = counters().get(CounterId::FusedWorkspaceBytes);
        let ws = FusedWorkspace::<f32>::new(WorkspaceKind::Dense, 4, 4, 4);
        let after = counters().get(CounterId::FusedWorkspaceBytes);
        assert!(after >= before + ws.bytes() as u64);
    }
}
