//! The unified [`CounterRegistry`]: every named monotonic counter in the
//! suite, in one process-wide table.
//!
//! This replaces the bespoke per-subsystem counter globals the kernel
//! crate grew: call sites name a [`CounterId`] and the registry
//! does one relaxed `fetch_add` behind the [`counting`](crate::counting)
//! gate. Names follow a `subsystem.metric` scheme (`mttkrp.owner_nnz`,
//! `fused.plan_cache_hits`, `pool.steals`, …) so exporters can enumerate
//! the table without knowing who owns which counter.

use std::ops::Index;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! counter_ids {
    ($($(#[$doc:meta])* $variant:ident => $name:literal,)*) => {
        /// Every counter the suite records, named `subsystem.metric`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum CounterId {
            $($(#[$doc])* $variant,)*
        }

        impl CounterId {
            /// All counters, in declaration order.
            pub const ALL: &'static [CounterId] = &[$(CounterId::$variant,)*];

            /// The counter's `subsystem.metric` name.
            pub fn name(self) -> &'static str {
                match self {
                    $(CounterId::$variant => $name,)*
                }
            }
        }
    };
}

counter_ids! {
    /// Non-zeros processed by sequential MTTKRP schedules.
    MttkrpSequentialNnz => "mttkrp.sequential_nnz",
    /// Non-zeros processed by owner-computes MTTKRP schedules.
    MttkrpOwnerNnz => "mttkrp.owner_nnz",
    /// Non-zeros processed by privatized-reduction MTTKRP schedules.
    MttkrpPrivatizedNnz => "mttkrp.privatized_nnz",
    /// Bytes moved merging worker-private MTTKRP accumulators.
    MttkrpMergeBytes => "mttkrp.merge_bytes",
    /// Times an MTTKRP plan re-sorted a tensor to enable owner-computes.
    MttkrpResorts => "mttkrp.resorts",
    /// Input non-zeros processed by fused chain executions.
    FusedEntries => "fused.entries",
    /// Fused chain executions (one per sweep·mode, or per TTV product).
    FusedChains => "fused.chains",
    /// Bytes allocated as per-thread fused workspaces.
    FusedWorkspaceBytes => "fused.workspace_bytes",
    /// Intermediate sparse tensors materialized by kernel-at-a-time
    /// chains (the ablation baseline; zero on the fused path).
    FusedMaterialized => "fused.materialized_intermediates",
    /// Cached per-run fused plans reused instead of rebuilt.
    FusedPlanCacheHits => "fused.plan_cache_hits",
    /// Per-run fused plans built for the first time.
    FusedPlanCacheMisses => "fused.plan_cache_misses",
    /// Kernel plans validated against the route registry.
    PlansBuilt => "pipeline.plans_built",
    /// Radix passes executed (single-bucket skipped passes excluded).
    SortRadixPasses => "sort.radix_passes",
    /// Entries fed through the radix sorter.
    SortEntries => "sort.entries",
    /// COO → HiCOO conversions performed.
    HicooConversions => "convert.hicoo_conversions",
    /// Tasks executed by pool workers (broadcast shares and one-offs).
    PoolTasks => "pool.tasks",
    /// Tasks a pool worker stole from another worker's queue.
    PoolSteals => "pool.steals",
    /// Nanoseconds pool workers spent parked with no work.
    PoolIdleNs => "pool.idle_ns",
    /// Simulated GPU kernel launches.
    SimLaunches => "sim.launches",
    /// Requests admitted by the serving layer.
    ServeRequests => "serve.requests",
    /// Batches of compatible requests dispatched by the serving layer.
    ServeBatches => "serve.batches",
    /// Owner-computes shard tasks issued by the serving layer.
    ServeShardTasks => "serve.shard_tasks",
    /// Conversion products served from the cache.
    CacheHits => "cache.hits",
    /// Conversion products built because the cache had no entry.
    CacheMisses => "cache.misses",
    /// Conversion products evicted to stay under the cache byte budget.
    CacheEvictions => "cache.evictions",
    /// Expression graphs lowered to executable plans.
    ExprPlans => "expr.plans",
    /// Expression-graph edges the planner chose to evaluate fused.
    ExprFusedEdges => "expr.fused_edges",
    /// Expression-graph edges the planner chose to materialize.
    ExprMaterializedEdges => "expr.materialized_edges",
    /// Lowered expression plans re-executed instead of re-lowered.
    ExprPlanCacheHits => "expr.plan_cache_hits",
}

/// Number of registered counters.
const N: usize = CounterId::ALL.len();

/// The process-wide table of monotonic counters.
///
/// All increments are relaxed; the set read by [`snapshot`] is therefore
/// not atomic as a whole — callers compare snapshots taken around a region
/// of interest, as the suite's tests do.
///
/// [`snapshot`]: CounterRegistry::snapshot
#[derive(Debug)]
pub struct CounterRegistry {
    vals: [AtomicU64; N],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

static REGISTRY: CounterRegistry = CounterRegistry { vals: [ZERO; N] };

/// The process-wide counter registry.
pub fn counters() -> &'static CounterRegistry {
    &REGISTRY
}

impl CounterRegistry {
    /// Adds `n` to counter `id` (a relaxed `fetch_add`), unless counting
    /// is disabled — in which case every counter stays untouched.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if crate::counting() {
            self.vals[id as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value of counter `id`.
    pub fn get(&self, id: CounterId) -> u64 {
        self.vals[id as usize].load(Ordering::Relaxed)
    }

    /// Reads every counter at once.
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut vals = [0u64; N];
        for (v, a) in vals.iter_mut().zip(&self.vals) {
            *v = a.load(Ordering::Relaxed);
        }
        CounterSnapshot { vals }
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        for a in &self.vals {
            a.store(0, Ordering::Relaxed);
        }
    }

    /// Iterates `(name, value)` over every counter, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        CounterId::ALL.iter().map(move |&id| (id.name(), self.get(id)))
    }
}

/// A point-in-time copy of every counter in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    vals: [u64; N],
}

impl CounterSnapshot {
    /// The snapshotted value of counter `id` (also available via indexing:
    /// `snap[CounterId::MttkrpResorts]`).
    pub fn get(&self, id: CounterId) -> u64 {
        self.vals[id as usize]
    }

    /// Iterates `(name, value)` over the snapshot, in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        CounterId::ALL.iter().map(move |&id| (id.name(), self.get(id)))
    }
}

impl Index<CounterId> for CounterSnapshot {
    type Output = u64;

    fn index(&self, id: CounterId) -> &u64 {
        &self.vals[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_scoped() {
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|id| id.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate counter names");
        for n in names {
            assert!(n.contains('.'), "{n} must follow subsystem.metric");
        }
    }

    #[test]
    fn add_get_snapshot_roundtrip() {
        // The registry is shared across tests; assert deltas only.
        let _serial = crate::switch_lock();
        crate::set_counting(true);
        let before = counters().snapshot();
        counters().add(CounterId::SimLaunches, 3);
        let after = counters().snapshot();
        assert!(after[CounterId::SimLaunches] >= before[CounterId::SimLaunches] + 3);
        assert!(counters().get(CounterId::SimLaunches) >= 3);
        assert!(counters().iter().any(|(n, _)| n == "sim.launches"));
        assert!(after.iter().count() == CounterId::ALL.len());
    }
}
