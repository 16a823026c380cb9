//! # pasta-serve — a sharded tensor-algebra service over the PASTA kernels
//!
//! The suite's kernels answer one call at a time; this crate stands them
//! up as a long-running front-end for sustained traffic:
//!
//! - a [`Catalog`] of resident tensors, addressed by [`TensorId`];
//! - [`Request`]s ([`OpSpec`]: TEW/TS/TTV/TTM/MTTKRP kernels, CPD/Tucker
//!   jobs, plus composite [`OpSpec::Expr`] chains lowered through the
//!   `pasta_kernels::expr` planner) whose operands are *derived*
//!   deterministically from the request seed, so any response can be
//!   re-computed independently;
//! - a [`Server`] that batches compatible requests, resolves each
//!   batch's conversion product (sorted COO, HiCOO blocking, CSF/TTM
//!   plans) against an LRU [`ConvCache`] once, and dispatches onto the
//!   `pasta-par` pool through the `KernelPlan` registry — sharding
//!   MTTKRP owner-computes style across mode-outermost ranges;
//! - [`direct_eval`], the cache-free sequential reference every response
//!   is differentially tested against ([`OpSpec::budget`] ULPs; 0 for
//!   everything but the TTV/TTM reduction routes).
//!
//! The request lifecycle is observable end to end: `serve.requests`,
//! `serve.batches`, `serve.shard_tasks` and `cache.hits` /
//! `cache.misses` / `cache.evictions` counters, plus `serve.*` spans
//! over admission → batch → dispatch → reply.
//!
//! # Examples
//!
//! ```
//! use pasta_core::{CooTensor, Shape};
//! use pasta_kernels::EwOp;
//! use pasta_serve::{direct_eval, Catalog, OpSpec, Request, Server, ServerConfig};
//!
//! # fn main() -> pasta_core::Result<()> {
//! let mut x = CooTensor::<f32>::new(Shape::new(vec![4, 4, 4]));
//! for i in 0..4u32 {
//!     x.push(&[i, (i + 1) % 4, (i + 2) % 4], 1.5)?;
//! }
//! let mut catalog = Catalog::new();
//! catalog.insert(0, "demo", x.clone());
//!
//! let mut server = Server::new(catalog, ServerConfig::default());
//! let req = Request { tensor: 0, op: OpSpec::Tew { op: EwOp::Add, seed: 7 } };
//! let responses = server.submit([req])?;
//! // The differential contract: service == direct, bit for bit here.
//! assert_eq!(responses[0].values, direct_eval(&x, &req.op)?);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod catalog;
pub mod direct;
pub mod request;
pub mod server;

pub use cache::{ConvCache, Product, ProductKey};
pub use catalog::{Catalog, ResidentTensor};
pub use direct::direct_eval;
pub use request::{ExprSpec, ExprStep, MttkrpRoute, OpSpec, Request, Response, TensorId};
pub use server::{Server, ServerConfig};

use pasta_kernels::{FormatKind, Kernel};

/// One route the service exposes: an op label, the format its dispatch
/// executes through, and the pipeline kernel it maps to (`None` for the
/// CPD/Tucker jobs, which orchestrate several kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeRoute {
    /// Op label as it appears in cell ids (`"tew"`, …, `"tucker"`).
    pub op: &'static str,
    /// The tensor format the dispatch executes through.
    pub format: FormatKind,
    /// The pipeline kernel, when the route is a single kernel.
    pub kernel: Option<Kernel>,
}

/// Every route the service answers — the source the `serve-*` conformance
/// cells are generated from. Kernel routes must stay a subset of
/// [`pasta_kernels::registry`] (the conformance completeness tests check
/// this), mirroring how the format matrix is pinned to the registry.
pub fn serve_registry() -> &'static [ServeRoute] {
    &[
        ServeRoute { op: "tew", format: FormatKind::Coo, kernel: Some(Kernel::Tew) },
        ServeRoute { op: "ts", format: FormatKind::Coo, kernel: Some(Kernel::Ts) },
        ServeRoute { op: "ttv", format: FormatKind::Csf, kernel: Some(Kernel::Ttv) },
        ServeRoute { op: "ttm", format: FormatKind::Coo, kernel: Some(Kernel::Ttm) },
        ServeRoute { op: "mttkrp", format: FormatKind::Coo, kernel: Some(Kernel::Mttkrp) },
        ServeRoute { op: "mttkrp", format: FormatKind::Hicoo, kernel: Some(Kernel::Mttkrp) },
        ServeRoute { op: "cpd", format: FormatKind::Coo, kernel: None },
        ServeRoute { op: "tucker", format: FormatKind::Coo, kernel: None },
        ServeRoute { op: "expr", format: FormatKind::Coo, kernel: None },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_routes_are_unique_and_kernel_backed() {
        let routes = serve_registry();
        assert_eq!(routes.len(), 9);
        for (i, a) in routes.iter().enumerate() {
            for b in &routes[i + 1..] {
                assert!(
                    (a.op, a.format) != (b.op, b.format),
                    "duplicate serve route {}/{}",
                    a.op,
                    a.format
                );
            }
        }
        let combos = pasta_kernels::registry();
        for r in routes.iter().filter(|r| r.kernel.is_some()) {
            let k = r.kernel.unwrap();
            assert!(
                combos.iter().any(|c| c.kernel == k
                    && c.format == r.format
                    && c.backend == pasta_kernels::BackendKind::Cpu),
                "serve route {}/{} has no registered combo",
                r.op,
                r.format
            );
        }
    }
}
