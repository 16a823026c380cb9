//! Property-based tests for the pasta-obs tracing layer: enabling span
//! recording must not perturb kernel numerics (bit-identical outputs across
//! pool sizes 1/2/4), and the chrome://tracing exporter must emit
//! well-formed JSON whose begin/end pairs nest properly for arbitrary span
//! trees.
//!
//! Tracing is a process-global flag, so every test that toggles it holds
//! `TRACE_LOCK` for its whole body.

use pasta::core::{seeded_matrix, seeded_vector, CooTensor, DenseMatrix, DenseVector, Shape};
use pasta::kernels::{mttkrp_coo, ttm_coo, ttv_coo, Ctx};
use pasta::obs::{
    chrome_trace_json, instant, reset_events, set_tracing, span, validate_chrome_trace,
};
use pasta::par::Schedule;
use proptest::prelude::*;
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

const POOLS: [usize; 3] = [1, 2, 4];

fn tensor_from(dims: &[u32], entries: Vec<(Vec<u32>, f64)>) -> CooTensor<f64> {
    let mut t = CooTensor::new(Shape::new(dims.to_vec()));
    for (coords, v) in entries {
        t.push(&coords, v).unwrap();
    }
    t.dedup_sum();
    t
}

fn entries3() -> impl Strategy<Value = Vec<(Vec<u32>, f64)>> {
    proptest::collection::vec(
        ((0u32..10, 0u32..7, 0u32..6), -50i32..50)
            .prop_map(|((i, j, k), v)| (vec![i, j, k], f64::from(v) / 8.0)),
        1..50,
    )
}

/// Runs TTV, TTM and MTTKRP and returns every output value bit pattern.
fn kernel_bits(x: &CooTensor<f64>, ctx: &Ctx) -> Vec<u64> {
    let mut bits = Vec::new();
    let v: DenseVector<f64> = seeded_vector(x.shape().dim(2) as usize, 7);
    let y = ttv_coo(x, &v, 2, ctx).unwrap();
    bits.extend(y.vals().iter().map(|f| f.to_bits()));
    let u: DenseMatrix<f64> = seeded_matrix(x.shape().dim(0) as usize, 4, 9);
    let t = ttm_coo(x, &u, 0, ctx).unwrap();
    bits.extend(t.vals().iter().map(|f| f.to_bits()));
    let factors: Vec<DenseMatrix<f64>> =
        (0..3).map(|m| seeded_matrix(x.shape().dim(m) as usize, 4, 11 + m as u64)).collect();
    let g = mttkrp_coo(x, &factors, 1, ctx).unwrap();
    bits.extend(g.as_slice().iter().map(|f| f.to_bits()));
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tracing on vs off yields bit-identical kernel outputs at every pool
    /// size — recording spans must have zero numeric impact.
    #[test]
    fn kernels_bit_identical_with_tracing_on_vs_off(entries in entries3()) {
        let guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let x = tensor_from(&[10, 7, 6], entries);
        for threads in POOLS {
            let ctx = Ctx::new(threads, Schedule::Static);
            set_tracing(false);
            let off = kernel_bits(&x, &ctx);
            set_tracing(true);
            let on = kernel_bits(&x, &ctx);
            set_tracing(false);
            prop_assert_eq!(&off, &on, "pool size {}", threads);
        }
        reset_events();
        drop(guard);
    }

    /// Arbitrary span trees (nested scopes, interleaved instants, across
    /// pool sizes) always export as well-formed, properly nested JSON.
    #[test]
    fn exporter_emits_wellformed_nested_json(
        depths in proptest::collection::vec(1usize..5, 1..8),
        entries in entries3(),
    ) {
        let guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_events();
        set_tracing(true);
        const NAMES: [&str; 4] = ["obs.a", "obs.b", "obs.c", "obs.d"];
        fn nest(depth: usize) {
            let _s = span("bench", NAMES[depth % NAMES.len()]);
            instant("bench", "obs.tick", "", depth as u64, 0, 0);
            if depth > 0 {
                nest(depth - 1);
            }
        }
        for &d in &depths {
            nest(d);
        }
        // Real kernel work on a real pool interleaves worker-thread events.
        let x = tensor_from(&[10, 7, 6], entries);
        for threads in POOLS {
            let _ = kernel_bits(&x, &Ctx::new(threads, Schedule::Static));
        }
        set_tracing(false);
        let json = chrome_trace_json();
        let spans = validate_chrome_trace(&json);
        prop_assert!(spans.is_ok(), "invalid trace: {:?}", spans);
        prop_assert!(spans.unwrap() >= depths.iter().map(|d| d + 1).sum::<usize>());
        reset_events();
        drop(guard);
    }
}

/// A traced serve window shows reply assembly as its own `serve.canon`
/// span, once per request and nested inside that request's
/// `serve.dispatch`.
#[test]
fn traced_serve_spans_reply_assembly() {
    use pasta::obs::{snapshot_events, Phase};
    use pasta::serve::{Catalog, OpSpec, Request, Server, ServerConfig};
    let guard = TRACE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let x = tensor_from(
        &[10, 7, 6],
        (0..60u32).map(|i| (vec![i % 10, (i * 3) % 7, (i * 5) % 6], f64::from(i) - 30.0)).collect(),
    );
    let x = CooTensor::from_parts(
        x.shape().clone(),
        x.inds().to_vec(),
        x.vals().iter().map(|&v| v as f32).collect(),
    )
    .unwrap();
    let mut catalog = Catalog::new();
    catalog.insert(0, "traced", x);
    let mut server = Server::new(catalog, ServerConfig::default());
    let reqs = [OpSpec::Ttm { mode: 1, rank: 3, seed: 2 }, OpSpec::Ttv { mode: 0, seed: 3 }]
        .map(|op| Request { tensor: 0, op });
    reset_events();
    set_tracing(true);
    server.submit(reqs).unwrap();
    set_tracing(false);
    // Dispatch and reply assembly run on the submitting thread.
    let serve: Vec<(&str, Phase)> = snapshot_events()
        .into_iter()
        .flat_map(|(_, evs, _)| evs)
        .filter(|e| e.cat == "serve" && (e.name == "serve.dispatch" || e.name == "serve.canon"))
        .map(|e| (e.name, e.phase))
        .collect();
    let one = [
        ("serve.dispatch", Phase::Begin),
        ("serve.canon", Phase::Begin),
        ("serve.canon", Phase::End),
        ("serve.dispatch", Phase::End),
    ];
    assert_eq!(serve, [one, one].concat());
    reset_events();
    drop(guard);
}
