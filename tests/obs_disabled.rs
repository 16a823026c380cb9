//! With counting disabled, every counter in the registry must stay
//! exactly zero-delta across a workload that would otherwise bump every
//! subsystem (sort, HiCOO conversion, MTTKRP scheduling, fused chains,
//! expression-graph lowering, pool workers, the serving layer).
//!
//! This lives in its own test binary: `set_counting(false)` is
//! process-global, and cargo runs each test binary as a separate process,
//! so disabling here cannot break the delta assertions in the other
//! suites (which run with the default counting-on state).

use pasta::core::{seeded_matrix, seeded_vector, CooTensor, DenseMatrix, DenseVector, Shape};
use pasta::kernels::{
    lower, mttkrp_coo, ttv_coo, Bindings, Ctx, EwOp, ExprGraph, MatOperand, VecOperand,
};
use pasta::par::Schedule;
use pasta::serve::{Catalog, OpSpec, Request, Server, ServerConfig};

fn tensor() -> CooTensor<f64> {
    let mut t = CooTensor::new(Shape::new(vec![12, 9, 8]));
    for e in 0..200u32 {
        let coords = vec![e % 12, (e * 7 + 1) % 9, (e * 3 + 2) % 8];
        t.push(&coords, f64::from(e % 17) - 8.0).unwrap();
    }
    t.dedup_sum();
    t
}

#[test]
fn all_counters_zero_delta_when_disabled() {
    pasta::obs::set_counting(false);
    let before = pasta::obs::counters().snapshot();

    let x = tensor();
    let served = CooTensor::from_parts(
        x.shape().clone(),
        x.inds().to_vec(),
        x.vals().iter().map(|&v| v as f32).collect(),
    )
    .unwrap();
    for threads in [1usize, 2, 4] {
        let ctx = Ctx::new(threads, Schedule::Static);
        // Sort + HiCOO conversion path.
        let hicoo = pasta::core::HiCooTensor::from_coo(&x, 4).unwrap();
        assert_eq!(hicoo.nnz(), x.nnz());
        // TTV and the MTTKRP strategy dispatch (merge, resort, nnz counters).
        let v: DenseVector<f64> = seeded_vector(8, 7);
        ttv_coo(&x, &v, 2, &ctx).unwrap();
        let factors: Vec<DenseMatrix<f64>> =
            (0..3).map(|m| seeded_matrix(x.shape().dim(m) as usize, 4, 3 + m as u64)).collect();
        mttkrp_coo(&x, &factors, 0, &ctx).unwrap();
        // Fused TTV chain (plan-cache, chain, workspace counters).
        let mut g = ExprGraph::new();
        let leaf = g.leaf(&x);
        let vecs =
            vec![VecOperand::Owned(seeded_vector(9, 5)), VecOperand::Owned(seeded_vector(8, 6))];
        let root = g.ttv_multi(leaf, &[1, 2], vecs).unwrap();
        lower(&g, root, &ctx).unwrap().execute(&Bindings::none()).unwrap();
        // Expression-graph lowering and execution (expr plan/edge counters,
        // plan-cache hits on the re-execution).
        let mut g = ExprGraph::new();
        let leaf = g.leaf(&x);
        let e = g.tew(leaf, EwOp::Mul, x.like_pattern(1.5)).unwrap();
        let e = g.ttv(e, 2, VecOperand::Owned(seeded_vector(8, 11))).unwrap();
        let root = g.ttm(e, 0, MatOperand::Owned(seeded_matrix(12, 3, 12))).unwrap();
        let eplan = lower(&g, root, &ctx).unwrap();
        eplan.execute(&Bindings::none()).unwrap();
        eplan.execute(&Bindings::none()).unwrap();
        // Served requests: admission, batching, dispatch and reply
        // assembly (`serve.canon`), cold and then warm from the cache.
        let mut catalog = Catalog::new();
        catalog.insert(0, "quiet", served.clone());
        let cfg = ServerConfig { threads, ..Default::default() };
        let mut server = Server::new(catalog, cfg);
        let reqs = [
            OpSpec::Tew { op: EwOp::Mul, seed: 3 },
            OpSpec::Ttv { mode: 1, seed: 4 },
            OpSpec::Ttm { mode: 0, rank: 3, seed: 5 },
        ]
        .map(|op| Request { tensor: 0, op });
        server.submit(reqs).unwrap();
        server.submit(reqs).unwrap();
    }

    let after = pasta::obs::counters().snapshot();
    for ((name, b), (_, a)) in before.iter().zip(after.iter()) {
        assert_eq!(b, a, "counter {name} moved while counting was disabled");
    }
    // Tracing defaults off in this process: no events either.
    let events = pasta::obs::snapshot_events();
    assert!(
        events.iter().all(|(_, evs, _)| evs.is_empty()),
        "span events recorded while tracing was disabled"
    );
}
