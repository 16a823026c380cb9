//! Property-based differential tier for the serving layer: every response
//! the `pasta-serve` front-end produces must match [`direct_eval`] — the
//! sequential, service-free reference — on the same tensor and spec,
//! across batch sizes, shard counts 1/2/4, pool sizes 1/2/4, and with the
//! conversion cache on or off.
//!
//! Budgets follow the conformance matrix: element-wise lanes, the
//! owner-computes MTTKRP routes and the sequential decomposition jobs are
//! bit-identical (0 ULP) contracts; TTV and TTM carry the single-kernel
//! reduction budgets. No counter deltas are asserted here (counters are
//! process-global and this binary's tests run in parallel); the cache
//! behavior checks use the per-response `cache_hit` flag instead, and the
//! counter contracts live in the dedicated `serve_counters` binary.

use pasta::core::{CooTensor, Shape};
use pasta::kernels::{EwOp, TsOp};
use pasta::serve::{direct_eval, Catalog, MttkrpRoute, OpSpec, Request, Server, ServerConfig};
use pasta_conformance::oracle::worst_ulp;
use proptest::prelude::*;

const TTV_ULP: u64 = 256;
const TTM_ULP: u64 = 256;

/// Pool and shard widths exercised per case; the threshold of 1 forces
/// sharding for every non-empty tensor.
const WIDTHS: [usize; 3] = [1, 2, 4];

fn cfg(threads: usize, shards: usize, cache_bytes: usize) -> ServerConfig {
    ServerConfig { threads, shards, shard_nnz_threshold: 1, cache_bytes }
}

fn tensor_from(dims: &[u32], entries: Vec<(Vec<u32>, f32)>) -> CooTensor<f32> {
    let mut t = CooTensor::new(Shape::new(dims.to_vec()));
    for (coords, v) in entries {
        t.push(&coords, v).unwrap();
    }
    t.dedup_sum();
    t
}

fn entries3() -> impl Strategy<Value = Vec<(Vec<u32>, f32)>> {
    proptest::collection::vec(
        ((0u32..10, 0u32..7, 0u32..6), -50i32..50)
            .prop_map(|((i, j, k), v)| (vec![i, j, k], v as f32 / 8.0)),
        1..50,
    )
}

fn entries4() -> impl Strategy<Value = Vec<(Vec<u32>, f32)>> {
    proptest::collection::vec(
        ((0u32..6, 0u32..5, 0u32..4, 0u32..3), -50i32..50)
            .prop_map(|((i, j, k, l), v)| (vec![i, j, k, l], v as f32 / 8.0)),
        1..40,
    )
}

fn server_over(x: &CooTensor<f32>, cfg: ServerConfig) -> Server {
    let mut catalog = Catalog::new();
    catalog.insert(0, "prop", x.clone());
    Server::new(catalog, cfg)
}

/// Every kernel spec exercised by the differential props, with its budget.
fn kernel_specs(x: &CooTensor<f32>, seed: u64) -> Vec<(OpSpec, u64)> {
    let mode = (seed as usize) % x.order();
    let mut specs: Vec<(OpSpec, u64)> =
        EwOp::ALL.into_iter().map(|op| (OpSpec::Tew { op, seed }, 0)).collect();
    specs.extend(TsOp::ALL.into_iter().map(|op| (OpSpec::Ts { op, scalar: 1.5 }, 0)));
    specs.push((OpSpec::Ttv { mode, seed }, TTV_ULP));
    specs.push((OpSpec::Ttm { mode, rank: 3, seed }, TTM_ULP));
    specs.push((OpSpec::Mttkrp { mode, rank: 3, seed, route: MttkrpRoute::Coo }, 0));
    specs.push((OpSpec::Mttkrp { mode, rank: 3, seed, route: MttkrpRoute::Hicoo(4) }, 0));
    specs
}

/// One request per spec, submitted in its own window against servers of
/// every pool/shard width, cache on and off — each response within budget
/// of the direct reference, and degenerate specs rejected on both sides.
fn check_service_matches_direct(x: &CooTensor<f32>, specs: &[(OpSpec, u64)]) {
    for &(op, budget) in specs {
        let direct = direct_eval(x, &op);
        for threads in WIDTHS {
            for shards in WIDTHS {
                for cache_bytes in [0, 1 << 20] {
                    let mut server = server_over(x, cfg(threads, shards, cache_bytes));
                    let served = server.submit([Request { tensor: 0, op }]);
                    match (&served, &direct) {
                        (Ok(resp), Ok(want)) => {
                            let got = &resp[0].values;
                            let w = worst_ulp(got, want).unwrap_or(u64::MAX);
                            assert!(
                                w <= budget,
                                "{} t{threads} s{shards} c{cache_bytes}: worst {w} ULP \
                                 (budget {budget})",
                                op.label(),
                            );
                        }
                        (Err(_), Err(_)) => {}
                        _ => panic!(
                            "{} t{threads} s{shards}: service {:?} vs direct {:?}",
                            op.label(),
                            served.as_ref().map(|_| "ok"),
                            direct.as_ref().map(|_| "ok"),
                        ),
                    }
                }
            }
        }
    }
}

/// The whole spec list submitted as ONE window (the server batches
/// compatible requests, including duplicates), replies in admission
/// order, each within budget of direct.
fn check_batched_window(x: &CooTensor<f32>, specs: &[(OpSpec, u64)]) {
    // Duplicate every spec so same-class batching (one shared product
    // resolution) is actually exercised within the window.
    let window: Vec<(OpSpec, u64)> = specs.iter().chain(specs.iter()).copied().collect();
    for cache_bytes in [0, 1 << 20] {
        let mut server = server_over(x, cfg(2, 2, cache_bytes));
        let reqs: Vec<Request> = window.iter().map(|&(op, _)| Request { tensor: 0, op }).collect();
        let responses = server.submit(reqs).unwrap();
        assert_eq!(responses.len(), window.len());
        for (resp, &(op, budget)) in responses.iter().zip(&window) {
            let want = direct_eval(x, &op).unwrap();
            let w = worst_ulp(&resp.values, &want).unwrap_or(u64::MAX);
            assert!(w <= budget, "batched {}: worst {w} ULP (budget {budget})", op.label());
        }
    }
}

/// Cache semantics via the per-response `cache_hit` flag: a second
/// identical window answers conversion-backed requests from the cache
/// with bit-identical values; with the cache disabled the flag never
/// fires.
fn check_warm_pass(x: &CooTensor<f32>, specs: &[(OpSpec, u64)]) {
    let reqs: Vec<Request> = specs.iter().map(|&(op, _)| Request { tensor: 0, op }).collect();

    let mut cached = server_over(x, cfg(2, 2, 1 << 20));
    let cold = cached.submit(reqs.clone()).unwrap();
    assert!(cold.iter().all(|r| !r.cache_hit), "first pass cannot hit the cache");
    let warm = cached.submit(reqs.clone()).unwrap();
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(c.values, w.values, "warm response must be bit-identical to cold");
    }
    let conversion_backed = specs
        .iter()
        .filter(|(op, _)| {
            matches!(op, OpSpec::Ttv { .. } | OpSpec::Ttm { .. } | OpSpec::Mttkrp { .. })
        })
        .count();
    let hits = warm.iter().filter(|r| r.cache_hit).count();
    assert_eq!(hits, conversion_backed, "every conversion-backed warm request must hit");

    let mut uncached = server_over(x, cfg(2, 2, 0));
    for _ in 0..2 {
        let pass = uncached.submit(reqs.clone()).unwrap();
        assert!(pass.iter().all(|r| !r.cache_hit), "cacheless server must never report hits");
    }
}

/// Decomposition jobs (CPD, Tucker): bit-identical to direct across
/// widths, with degenerate configurations rejected identically.
fn check_decompositions(x: &CooTensor<f32>, seed: u64) {
    let jobs =
        [OpSpec::Cpd { rank: 2, sweeps: 2, seed }, OpSpec::Tucker { rank: 2, sweeps: 1, seed }];
    for op in jobs {
        let direct = direct_eval(x, &op);
        for width in WIDTHS {
            for cache_bytes in [0, 1 << 20] {
                let mut server = server_over(x, cfg(width, width, cache_bytes));
                let served = server.submit([Request { tensor: 0, op }]);
                match (&served, &direct) {
                    (Ok(resp), Ok(want)) => {
                        assert_eq!(
                            &resp[0].values,
                            want,
                            "{} w{width}: decomposition job must be bit-identical",
                            op.label(),
                        );
                    }
                    (Err(_), Err(_)) => {}
                    _ => panic!("{} w{width}: outcome mismatch vs direct", op.label()),
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Service == direct for every kernel spec, order 3, all widths,
    /// cache on/off.
    #[test]
    fn prop_service_matches_direct_order3(entries in entries3(), seed in 0u64..1000) {
        let x = tensor_from(&[10, 7, 6], entries);
        check_service_matches_direct(&x, &kernel_specs(&x, seed));
    }

    /// Service == direct for every kernel spec, order 4.
    #[test]
    fn prop_service_matches_direct_order4(entries in entries4(), seed in 0u64..1000) {
        let x = tensor_from(&[6, 5, 4, 3], entries);
        check_service_matches_direct(&x, &kernel_specs(&x, seed));
    }

    /// A full mixed window (batch size 2× the spec list, duplicates
    /// included) replies in admission order, each response within budget.
    #[test]
    fn prop_batched_window_matches_direct(entries in entries3(), seed in 0u64..1000) {
        let x = tensor_from(&[10, 7, 6], entries);
        check_batched_window(&x, &kernel_specs(&x, seed));
    }

    /// Warm-pass responses are bit-identical to cold ones; `cache_hit`
    /// fires exactly on conversion-backed requests, never cacheless.
    #[test]
    fn prop_cache_warm_pass_is_bit_identical(entries in entries3(), seed in 0u64..1000) {
        let x = tensor_from(&[10, 7, 6], entries);
        check_warm_pass(&x, &kernel_specs(&x, seed));
    }

    /// CPD and Tucker jobs are bit-identical to direct (both sides run
    /// the same sequential solver), degenerate cases rejected in step.
    #[test]
    fn prop_decomposition_jobs_match_direct(entries in entries3(), seed in 0u64..1000) {
        let x = tensor_from(&[10, 7, 6], entries);
        check_decompositions(&x, seed);
    }
}

/// TTM, TTV and expr chains in every mode of an order-3 and an order-4
/// catalog tensor, submitted cold (product built) and then warm (product
/// from the cache): every response is within [`OpSpec::budget`] of
/// `direct_eval`, and the warm reply is the cold one bit for bit. The
/// chains end in a COO, a one-dense-mode and a two-dense-mode semi-sparse
/// output, so every reply-assembly path is exercised.
#[test]
fn every_mode_cold_then_warm_matches_direct() {
    use pasta::serve::{ExprSpec, ExprStep};
    for (key, scale) in [("s4", 0.02), ("s7", 0.02)] {
        let x = pasta::gen::find_profile(key).unwrap().generate_scaled(scale).unwrap();
        let order = x.order();
        let seed = 23;
        let chain = |steps: &[ExprStep]| {
            let mut slots = [None; 4];
            for (slot, &s) in slots.iter_mut().zip(steps) {
                *slot = Some(s);
            }
            OpSpec::Expr { spec: ExprSpec { steps: slots, seed } }
        };
        let mut ops = Vec::new();
        for mode in 0..order {
            let next = (mode + 1) % order;
            ops.push(OpSpec::Ttm { mode, rank: 4, seed });
            ops.push(OpSpec::Ttv { mode, seed });
            ops.push(chain(&[
                ExprStep::Ttm { mode, rank: 3 },
                ExprStep::Ts { op: TsOp::Mul, scalar: 0.5 },
            ]));
            ops.push(chain(&[ExprStep::Tew { op: EwOp::Mul }, ExprStep::Ttv { mode }]));
            ops.push(chain(&[
                ExprStep::Ttm { mode, rank: 2 },
                ExprStep::Ttm { mode: next, rank: 3 },
            ]));
        }
        let reqs: Vec<Request> = ops.iter().map(|&op| Request { tensor: 0, op }).collect();
        let mut server = server_over(&x, cfg(2, 2, 64 << 20));
        let cold = server.submit(reqs.clone()).unwrap();
        let warm = server.submit(reqs).unwrap();
        for ((op, c), w) in ops.iter().zip(&cold).zip(&warm) {
            assert!(!c.cache_hit && w.cache_hit, "{key} {op:?}: cold must build, warm must hit");
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&w.values), bits(&c.values), "{key} {op:?}: warm differs from cold");
            let want = direct_eval(&x, op).unwrap();
            let ulp = worst_ulp(&c.values, &want).unwrap_or(u64::MAX);
            assert!(ulp <= op.budget(), "{key} {op:?}: worst {ulp} ULP > {}", op.budget());
        }
    }
}

/// Unknown tensor ids and invalid specs are rejected at admission and
/// leave the queue untouched (the next window still drains cleanly).
#[test]
fn admission_rejects_bad_requests() {
    let x = tensor_from(&[4, 4, 4], vec![(vec![0, 1, 2], 1.0), (vec![3, 3, 3], 2.0)]);
    let mut server = server_over(&x, cfg(2, 2, 1 << 20));
    let seed = 7;
    assert!(server
        .submit([Request { tensor: 9, op: OpSpec::Tew { op: EwOp::Add, seed } }])
        .is_err());
    assert!(server.submit([Request { tensor: 0, op: OpSpec::Ttv { mode: 3, seed } }]).is_err());
    let ok = server.submit([Request { tensor: 0, op: OpSpec::Ttv { mode: 1, seed } }]).unwrap();
    assert_eq!(ok.len(), 1);
    let want = direct_eval(&x, &OpSpec::Ttv { mode: 1, seed }).unwrap();
    assert_eq!(ok[0].values, want);
}
