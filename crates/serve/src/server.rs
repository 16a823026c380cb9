//! The server: admission → batch → dispatch → reply.
//!
//! Requests are validated and queued at admission ([`Server::enqueue`],
//! `serve.requests`), then [`Server::drain`] groups the queue into
//! batches of compatible requests — same tensor, same conversion product
//! — so each batch resolves its product against the
//! [`ConvCache`] exactly once (`serve.batches`).
//! Dispatch routes every request through the `KernelPlan` registry and
//! onto the `pasta-par` pool via the kernel entry points; MTTKRP-COO
//! requests over large tensors are sharded owner-computes style across
//! mode-outermost ranges of the cached sorted copy (`serve.shard_tasks`),
//! which is what keeps the parallel response bit-identical to the
//! sequential reference. Replies come back in admission order.
//!
//! Replies are assembled in canonical (lexicographic-coordinate) order
//! straight from the layout each kernel wrote: TTM and semi-sparse expr
//! outputs walk their fibers ([`SemiCooTensor::lex_vals`]), already
//! ordered COO outputs are served as stored, and TEW/TS run only the value
//! loop over the resident tensor's pattern. Nothing is re-sorted unless a
//! route's output is out of order.
//!
//! Every lifecycle stage is spanned under the `serve` category
//! (`serve.admit` / `serve.batch` / `serve.dispatch` / `serve.canon` /
//! `serve.reply`), so a traced run shows the full request timeline in the
//! chrome trace, with reply assembly (`serve.canon`) apart from the kernel.

use crate::cache::{ConvCache, Product, ProductKey};
use crate::catalog::Catalog;
use crate::request::{
    canonical_vals, contraction_matrix, contraction_vector, cpd_options, csf_ttv_order, expr_plan,
    factor_set, pattern_values, sorted_by_mode, tucker_options, MttkrpRoute, OpSpec, Request,
    Response, TensorId,
};
use pasta_algos::{cp_als, tucker_hooi};
use pasta_core::{CooTensor, CsfTensor, Error, HiCooTensor, Result, SemiCooTensor};
use pasta_kernels::{
    mttkrp_coo, mttkrp_hicoo, owner_ranges, tew_values_into, ts_values_into, BackendKind, Bindings,
    CsfTtvPlan, Ctx, ExprOut, FormatKind, Kernel, KernelPlan, StrategyChoice, TtmCooPlan,
};
use pasta_obs::{counters, instant, span, span_detail, CounterId};
use pasta_par::Schedule;
use std::sync::Arc;
use std::time::Instant;

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Pool width for element-wise / TTV / TTM dispatches (≥ 1).
    pub threads: usize,
    /// Shard count for owner-computes MTTKRP dispatches (≥ 1).
    pub shards: usize,
    /// Tensors with fewer non-zeros than this are never sharded.
    pub shard_nnz_threshold: usize,
    /// Conversion-cache byte budget; `0` disables caching entirely (the
    /// `cache.*` counters then stay zero-delta, not just cold).
    pub cache_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { threads: 2, shards: 2, shard_nnz_threshold: 1 << 10, cache_bytes: 64 << 20 }
    }
}

/// A queued request plus its admission slot (reply position).
#[derive(Debug)]
struct Pending {
    slot: usize,
    req: Request,
}

/// Requests in one batch share the tensor and the conversion product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BatchKey {
    tensor: TensorId,
    class: OpClass,
}

/// The product-equivalence class of an op (everything that decides which
/// conversion product, if any, the request needs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Tew,
    Ts,
    Ttv(usize),
    Ttm(usize),
    MttkrpCoo(usize),
    MttkrpHicoo(u32),
    Cpd,
    Tucker,
    Expr(u64),
}

fn class(op: &OpSpec) -> OpClass {
    match *op {
        OpSpec::Tew { .. } => OpClass::Tew,
        OpSpec::Ts { .. } => OpClass::Ts,
        OpSpec::Ttv { mode, .. } => OpClass::Ttv(mode),
        OpSpec::Ttm { mode, .. } => OpClass::Ttm(mode),
        OpSpec::Mttkrp { mode, route: MttkrpRoute::Coo, .. } => OpClass::MttkrpCoo(mode),
        OpSpec::Mttkrp { route: MttkrpRoute::Hicoo(block), .. } => OpClass::MttkrpHicoo(block),
        OpSpec::Cpd { .. } => OpClass::Cpd,
        OpSpec::Tucker { .. } => OpClass::Tucker,
        OpSpec::Expr { spec } => OpClass::Expr(spec.signature()),
    }
}

fn product_key(class: OpClass) -> Option<ProductKey> {
    match class {
        OpClass::Ttv(mode) => Some(ProductKey::CsfTtv { mode }),
        OpClass::Ttm(mode) => Some(ProductKey::TtmPlan { mode }),
        OpClass::MttkrpCoo(mode) => Some(ProductKey::SortedCoo { mode }),
        OpClass::MttkrpHicoo(block) => Some(ProductKey::Hicoo { block }),
        OpClass::Expr(sig) => Some(ProductKey::Expr { sig }),
        OpClass::Tew | OpClass::Ts | OpClass::Cpd | OpClass::Tucker => None,
    }
}

fn build_product(
    cfg: &ServerConfig,
    x: &CooTensor<f32>,
    key: ProductKey,
    op: &OpSpec,
) -> Result<Product> {
    match key {
        ProductKey::SortedCoo { mode } => Ok(Product::SortedCoo(sorted_by_mode(x, mode))),
        ProductKey::Hicoo { block } => Ok(Product::Hicoo(HiCooTensor::from_coo(x, block)?)),
        ProductKey::CsfTtv { mode } => {
            let csf = CsfTensor::from_coo(x, &csf_ttv_order(x.order(), mode))?;
            Ok(Product::CsfTtv(CsfTtvPlan::new(&csf)?))
        }
        ProductKey::TtmPlan { mode } => Ok(Product::TtmPlan(TtmCooPlan::new(x, mode)?)),
        ProductKey::Expr { .. } => {
            let OpSpec::Expr { spec } = op else {
                return Err(Error::OperandMismatch {
                    what: "expr product key for a non-expr op".into(),
                });
            };
            // The plan bakes in the dispatch context; lowering validates
            // every kernel edge against the registry (same PlansBuilt
            // semantics as the other routes' validate_route calls).
            let ctx = Ctx::new(cfg.threads.max(1), Schedule::Static);
            Ok(Product::Expr(Box::new(expr_plan(&Arc::new(x.clone()), spec, &ctx)?)))
        }
    }
}

/// Routes a kernel-class dispatch through the pipeline registry (bumps
/// `pipeline.plans_built` and rejects unregistered combos, exactly like a
/// direct `KernelPlan` user).
fn validate_route(kernel: Kernel, format: FormatKind, ctx: &Ctx) -> Result<()> {
    KernelPlan::new(kernel, format, BackendKind::Cpu, ctx).map(|_| ())
}

/// The sharded tensor-algebra server.
#[derive(Debug)]
pub struct Server {
    catalog: Catalog,
    cfg: ServerConfig,
    cache: Option<ConvCache>,
    queue: Vec<Pending>,
}

impl Server {
    /// A server over `catalog` with the given knobs. `cache_bytes = 0`
    /// runs cacheless (every batch rebuilds its conversion product).
    pub fn new(catalog: Catalog, cfg: ServerConfig) -> Self {
        let cache = (cfg.cache_bytes > 0).then(|| ConvCache::new(cfg.cache_bytes));
        Self { catalog, cfg, cache, queue: Vec::new() }
    }

    /// The resident-tensor catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The conversion cache, if enabled.
    pub fn cache(&self) -> Option<&ConvCache> {
        self.cache.as_ref()
    }

    /// Admits one request into the queue.
    ///
    /// # Errors
    ///
    /// Rejects unknown tensor ids and specs that fail
    /// [`OpSpec::validate`] against the resident tensor. Rejected
    /// requests are not queued and do not count toward `serve.requests`.
    pub fn enqueue(&mut self, req: Request) -> Result<()> {
        let _g = span("serve", "serve.admit");
        let resident = self.catalog.get(req.tensor).ok_or_else(|| Error::OperandMismatch {
            what: format!("no resident tensor with id {}", req.tensor),
        })?;
        req.op.validate(&resident.tensor)?;
        counters().add(CounterId::ServeRequests, 1);
        let slot = self.queue.len();
        self.queue.push(Pending { slot, req });
        Ok(())
    }

    /// Drains the queue: batches compatible requests, resolves each
    /// batch's conversion product once, dispatches, and returns the
    /// responses in admission order.
    ///
    /// # Errors
    ///
    /// Propagates the first dispatch failure; the queue is consumed
    /// either way (admission-time validation makes dispatch failures
    /// unreachable for well-formed catalogs).
    pub fn drain(&mut self) -> Result<Vec<Response>> {
        let pending = std::mem::take(&mut self.queue);
        if pending.is_empty() {
            return Ok(Vec::new());
        }
        let n = pending.len();

        // Group into batches, preserving first-arrival order.
        let mut batches: Vec<(BatchKey, Vec<Pending>)> = Vec::new();
        for p in pending {
            let key = BatchKey { tensor: p.req.tensor, class: class(&p.req.op) };
            match batches.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(p),
                None => batches.push((key, vec![p])),
            }
        }

        let mut out: Vec<Option<Response>> = Vec::with_capacity(n);
        out.resize_with(n, || None);
        for (key, members) in batches {
            let _b = span_detail(
                "serve",
                "serve.batch",
                "",
                members.len() as u64,
                u64::from(key.tensor),
                0,
            );
            counters().add(CounterId::ServeBatches, 1);
            let x = &self.catalog.get(key.tensor).expect("validated at admission").tensor;

            // One product resolution per batch.
            let bytes_hint = x.nnz() * (x.order() + 1) * std::mem::size_of::<f32>();
            // Batch members share the class, so the first member's op is
            // representative for product building (for Expr, the class is
            // the spec signature — same class, same lowered plan).
            let op0 = members[0].req.op;
            let (product, cache_hit) = match (product_key(key.class), self.cache.as_mut()) {
                (None, _) => (None, false),
                (Some(k), Some(cache)) => {
                    let (p, hit) = cache.get_or_build(key.tensor, k, bytes_hint, || {
                        build_product(&self.cfg, x, k, &op0)
                    })?;
                    (Some(p), hit)
                }
                // Cache disabled: build ad hoc, touch no cache.* counter.
                (Some(k), None) => (Some(Arc::new(build_product(&self.cfg, x, k, &op0)?)), false),
            };

            for p in members {
                let _d = span("serve", "serve.dispatch");
                let t0 = Instant::now();
                let (reply, shards) = exec(&self.cfg, x, &p.req.op, product.as_deref())?;
                let values = reply.canonical();
                let latency_ns = t0.elapsed().as_nanos() as u64;
                out[p.slot] = Some(Response { values, shards, cache_hit, latency_ns });
            }
        }
        instant("serve", "serve.reply", "", n as u64, 0, 0);
        Ok(out.into_iter().map(|r| r.expect("every slot dispatched")).collect())
    }

    /// [`enqueue`](Self::enqueue)s every request, then
    /// [`drain`](Self::drain)s — one closed-loop submission window.
    ///
    /// # Errors
    ///
    /// Admission and dispatch errors, as for the two steps.
    pub fn submit(&mut self, reqs: impl IntoIterator<Item = Request>) -> Result<Vec<Response>> {
        for r in reqs {
            self.enqueue(r)?;
        }
        self.drain()
    }
}

/// How many owner-computes shards a tensor of `nnz` non-zeros gets.
fn shards_for(cfg: &ServerConfig, nnz: usize) -> usize {
    if nnz >= cfg.shard_nnz_threshold {
        cfg.shards.max(1)
    } else {
        1
    }
}

/// A dispatch's output in the layout its kernel wrote, before reply
/// assembly puts the values in canonical order.
enum Reply<'x> {
    /// Already canonical: the dense outputs.
    Vals(Vec<f32>),
    /// One value per entry of the resident tensor, in its storage order:
    /// TEW/TS, whose output pattern is the input's.
    Pattern(&'x CooTensor<f32>, Vec<f32>),
    /// A sparse result in its route's entry order.
    Coo(CooTensor<f32>),
    /// A semi-sparse result in its route's fiber layout.
    Semi(SemiCooTensor<f32>),
}

impl Reply<'_> {
    /// The canonical value stream (the `serve.canon` span): as stored when
    /// the layout is already in order, re-sorted only when it is not.
    fn canonical(self) -> Vec<f32> {
        let _c = span("serve", "serve.canon");
        match self {
            Reply::Vals(vals) => vals,
            Reply::Pattern(x, vals) => x.in_lex_order(vals),
            Reply::Coo(t) => canonical_vals(&t),
            Reply::Semi(s) => s.lex_vals(),
        }
    }
}

/// Executes one request against its resolved conversion product.
/// Returns the kernel's output and the partition count used.
fn exec<'x>(
    cfg: &ServerConfig,
    x: &'x CooTensor<f32>,
    op: &OpSpec,
    product: Option<&Product>,
) -> Result<(Reply<'x>, usize)> {
    let threads = cfg.threads.max(1);
    let ctx = Ctx::new(threads, Schedule::Static);
    match *op {
        // TEW/TS outputs share x's pattern, so the value loop alone is the
        // result: no output tensor, no copy of the index arrays.
        OpSpec::Tew { op, seed } => {
            validate_route(Kernel::Tew, FormatKind::Coo, &ctx)?;
            let mut z = vec![0.0; x.nnz()];
            tew_values_into(op, x.vals(), &pattern_values(x.nnz(), seed), &mut z, &ctx)?;
            Ok((Reply::Pattern(x, z), threads))
        }
        OpSpec::Ts { op, scalar } => {
            validate_route(Kernel::Ts, FormatKind::Coo, &ctx)?;
            let mut z = vec![0.0; x.nnz()];
            ts_values_into(op, x.vals(), scalar, &mut z, &ctx)?;
            Ok((Reply::Pattern(x, z), threads))
        }
        OpSpec::Ttv { mode, seed } => {
            validate_route(Kernel::Ttv, FormatKind::Csf, &ctx)?;
            let Some(Product::CsfTtv(plan)) = product else {
                return Err(Error::OperandMismatch { what: "ttv product missing".into() });
            };
            let v = contraction_vector(x, mode, seed);
            Ok((Reply::Coo(plan.execute(&v, &ctx)?), threads))
        }
        OpSpec::Ttm { mode, rank, seed } => {
            validate_route(Kernel::Ttm, FormatKind::Coo, &ctx)?;
            let Some(Product::TtmPlan(plan)) = product else {
                return Err(Error::OperandMismatch { what: "ttm product missing".into() });
            };
            let u = contraction_matrix(x, mode, rank, seed);
            Ok((Reply::Semi(plan.execute(&u, &ctx)?), threads))
        }
        OpSpec::Mttkrp { mode, rank, seed, route: MttkrpRoute::Coo } => {
            let shards = shards_for(cfg, x.nnz());
            let shard_ctx = Ctx::new(shards, Schedule::Static).with_mttkrp(StrategyChoice::Owner);
            validate_route(Kernel::Mttkrp, FormatKind::Coo, &shard_ctx)?;
            let Some(Product::SortedCoo(sorted)) = product else {
                return Err(Error::OperandMismatch { what: "sorted product missing".into() });
            };
            // Owner-computes over mode-outermost ranges of the sorted
            // copy: bit-identical to the sequential reference by the
            // conformance contract, at any shard count.
            let ranges = owner_ranges(sorted.mode_inds(mode), shards);
            let tasks = ranges.iter().filter(|r| !r.is_empty()).count().max(1);
            counters().add(CounterId::ServeShardTasks, tasks as u64);
            let factors = factor_set(x, rank, seed);
            let out = mttkrp_coo(sorted, &factors, mode, &shard_ctx)?;
            Ok((Reply::Vals(out.as_slice().to_vec()), tasks))
        }
        OpSpec::Mttkrp { mode, rank, seed, route: MttkrpRoute::Hicoo(_) } => {
            // The HiCOO route is cache-accelerated but not sharded: its
            // privatized parallel schedule is not bit-stable across
            // worker counts, and the differential contract wins.
            let seq = Ctx::sequential();
            validate_route(Kernel::Mttkrp, FormatKind::Hicoo, &seq)?;
            let Some(Product::Hicoo(h)) = product else {
                return Err(Error::OperandMismatch { what: "hicoo product missing".into() });
            };
            let factors = factor_set(x, rank, seed);
            let out = mttkrp_hicoo(h, &factors, mode, &seq)?;
            Ok((Reply::Vals(out.as_slice().to_vec()), 1))
        }
        OpSpec::Cpd { rank, sweeps, seed } => {
            let model = cp_als(x, &cpd_options(rank, sweeps, seed))?;
            let mut vals: Vec<f32> = Vec::new();
            for f in &model.factors {
                vals.extend_from_slice(f.as_slice());
            }
            vals.extend_from_slice(&model.lambda);
            Ok((Reply::Vals(vals), 1))
        }
        OpSpec::Tucker { rank, sweeps, seed } => {
            let model = tucker_hooi(x, &tucker_options(x, rank, sweeps, seed))?;
            let mut vals = model.core.clone();
            for f in &model.factors {
                vals.extend_from_slice(f.as_slice());
            }
            Ok((Reply::Vals(vals), 1))
        }
        OpSpec::Expr { .. } => {
            // The whole chain is the cached conversion product: a lowered
            // plan whose operands were baked in at build time, so execute
            // is a single (fused where the planner chose so) pass.
            let Some(Product::Expr(plan)) = product else {
                return Err(Error::OperandMismatch { what: "expr product missing".into() });
            };
            let reply = match plan.execute(&Bindings::none())? {
                ExprOut::Coo(t) => Reply::Coo(t),
                ExprOut::Semi(s) => Reply::Semi(s),
                ExprOut::Dense { vals, .. } => Reply::Vals(vals),
                ExprOut::Matrix(m) => Reply::Vals(m.as_slice().to_vec()),
            };
            Ok((reply, threads))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pasta_core::Shape;
    use pasta_kernels::EwOp;

    fn catalog() -> Catalog {
        let mut t = CooTensor::new(Shape::new(vec![8, 7, 6]));
        for e in 0..150u32 {
            t.push(&[e % 8, (e * 3 + 1) % 7, (e * 5 + 2) % 6], (f64::from(e % 13) * 0.5) as f32)
                .unwrap();
        }
        t.dedup_sum();
        let mut cat = Catalog::new();
        cat.insert(0, "t0", t);
        cat
    }

    #[test]
    fn admission_rejects_unknown_tensor_and_bad_mode() {
        let mut s = Server::new(catalog(), ServerConfig::default());
        let bad_id =
            Request { tensor: 9, op: OpSpec::Ts { op: pasta_kernels::TsOp::Mul, scalar: 2.0 } };
        assert!(s.enqueue(bad_id).is_err());
        let bad_mode = Request { tensor: 0, op: OpSpec::Ttv { mode: 5, seed: 1 } };
        assert!(s.enqueue(bad_mode).is_err());
        assert!(s.drain().unwrap().is_empty(), "nothing was admitted");
    }

    #[test]
    fn batching_resolves_one_product_for_compatible_requests() {
        let mut s = Server::new(catalog(), ServerConfig::default());
        let reqs =
            (0..4).map(|i| Request { tensor: 0, op: OpSpec::Ttv { mode: 1, seed: 100 + i } });
        let responses = s.submit(reqs).unwrap();
        assert_eq!(responses.len(), 4);
        // One CSF build for the whole batch...
        assert_eq!(s.cache().unwrap().len(), 1);
        // ...and a second window hits it.
        let again =
            s.submit([Request { tensor: 0, op: OpSpec::Ttv { mode: 1, seed: 100 } }]).unwrap();
        assert!(again[0].cache_hit);
        assert_eq!(again[0].values, responses[0].values, "same request, same response");
    }

    #[test]
    fn responses_come_back_in_admission_order() {
        let mut s = Server::new(catalog(), ServerConfig::default());
        // Interleave two batch classes; replies must not be regrouped.
        let reqs = vec![
            Request { tensor: 0, op: OpSpec::Ts { op: pasta_kernels::TsOp::Mul, scalar: 2.0 } },
            Request { tensor: 0, op: OpSpec::Tew { op: EwOp::Add, seed: 7 } },
            Request { tensor: 0, op: OpSpec::Ts { op: pasta_kernels::TsOp::Mul, scalar: 3.0 } },
        ];
        let rs = s.submit(reqs).unwrap();
        assert_eq!(rs.len(), 3);
        // ts(*2) then ts(*3): element-wise scaling keeps the value stream
        // proportional; the middle slot is the TEW response.
        let direct2 = crate::direct_eval(
            &s.catalog().get(0).unwrap().tensor,
            &OpSpec::Ts { op: pasta_kernels::TsOp::Mul, scalar: 2.0 },
        )
        .unwrap();
        assert_eq!(rs[0].values, direct2);
        let direct3 = crate::direct_eval(
            &s.catalog().get(0).unwrap().tensor,
            &OpSpec::Ts { op: pasta_kernels::TsOp::Mul, scalar: 3.0 },
        )
        .unwrap();
        assert_eq!(rs[2].values, direct3);
    }

    #[test]
    fn out_of_order_resident_still_replies_in_canonical_order() {
        // The catalog tensor's entries reversed: TEW/TS replies are
        // gathered through its pattern, TTM/TTV come from sorted products.
        let x = catalog().get(0).unwrap().tensor.clone();
        let rev = |col: &[u32]| col.iter().rev().copied().collect::<Vec<_>>();
        let inds = x.inds().iter().map(|c| rev(c)).collect();
        let vals = x.vals().iter().rev().copied().collect();
        let y = CooTensor::from_parts(x.shape().clone(), inds, vals).unwrap();
        let mut cat = Catalog::new();
        cat.insert(0, "reversed", y.clone());
        let mut s = Server::new(cat, ServerConfig::default());
        let ops = [
            OpSpec::Tew { op: EwOp::Div, seed: 3 },
            OpSpec::Ts { op: pasta_kernels::TsOp::Sub, scalar: 1.5 },
            OpSpec::Ttm { mode: 1, rank: 2, seed: 4 },
            OpSpec::Ttv { mode: 0, seed: 5 },
        ];
        let rs = s.submit(ops.map(|op| Request { tensor: 0, op })).unwrap();
        for (r, op) in rs.iter().zip(&ops) {
            let direct = crate::direct_eval(&y, op).unwrap();
            let budget = op.budget() as f32;
            assert_eq!(r.values.len(), direct.len());
            for (a, b) in r.values.iter().zip(&direct) {
                assert!((a - b).abs() <= budget * f32::EPSILON * b.abs().max(1.0), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn cacheless_server_still_answers() {
        let cfg = ServerConfig { cache_bytes: 0, ..Default::default() };
        let mut s = Server::new(catalog(), cfg);
        assert!(s.cache().is_none());
        let r = s
            .submit([Request { tensor: 0, op: OpSpec::Ttm { mode: 2, rank: 3, seed: 5 } }])
            .unwrap();
        assert!(!r[0].cache_hit);
        assert!(!r[0].values.is_empty());
    }

    #[test]
    fn expr_requests_cache_the_lowered_plan_and_match_direct() {
        use crate::request::{ExprSpec, ExprStep};
        let mut s = Server::new(catalog(), ServerConfig::default());
        let spec = ExprSpec {
            steps: [
                Some(ExprStep::Tew { op: EwOp::Mul }),
                Some(ExprStep::Ttv { mode: 2 }),
                Some(ExprStep::Ttm { mode: 1, rank: 3 }),
                Some(ExprStep::Ts { op: pasta_kernels::TsOp::Mul, scalar: 0.5 }),
            ],
            seed: 77,
        };
        let op = OpSpec::Expr { spec };
        let rs = s.submit([Request { tensor: 0, op }, Request { tensor: 0, op }]).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].values, rs[1].values);
        // One lowered plan cached for the batch; a second window hits it.
        assert_eq!(s.cache().unwrap().len(), 1);
        let again = s.submit([Request { tensor: 0, op }]).unwrap();
        assert!(again[0].cache_hit, "repeated graph traffic must skip re-planning");
        // Differential contract against the kernel-at-a-time reference.
        let direct = crate::direct_eval(&s.catalog().get(0).unwrap().tensor, &op).unwrap();
        assert_eq!(again[0].values.len(), direct.len());
        let budget = op.budget() as f32;
        for (a, b) in again[0].values.iter().zip(&direct) {
            assert!((a - b).abs() <= budget * f32::EPSILON * b.abs().max(1.0), "{a} vs {b}");
        }
        // Malformed chains are rejected at admission.
        let bad = OpSpec::Expr {
            spec: ExprSpec { steps: [Some(ExprStep::Ttv { mode: 9 }), None, None, None], seed: 1 },
        };
        assert!(s.enqueue(Request { tensor: 0, op: bad }).is_err());
    }

    #[test]
    fn sharded_mttkrp_matches_direct() {
        let cfg = ServerConfig { shards: 4, shard_nnz_threshold: 1, ..Default::default() };
        let mut s = Server::new(catalog(), cfg);
        let op = OpSpec::Mttkrp { mode: 0, rank: 4, seed: 11, route: MttkrpRoute::Coo };
        let r = s.submit([Request { tensor: 0, op }]).unwrap();
        assert!(r[0].shards > 1, "large-enough tensor must shard");
        let direct = crate::direct_eval(&s.catalog().get(0).unwrap().tensor, &op).unwrap();
        assert_eq!(r[0].values, direct, "owner-computes shards must be bit-identical");
    }
}
