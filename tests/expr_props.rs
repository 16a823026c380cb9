//! Property-based tests for the expression-graph layer: randomly generated
//! well-typed chains (TEW/TS/TTV/TTM, depth ≤ 4) over orders 3–4 are
//! lowered through the planner and executed, then compared against the
//! same steps composed one kernel at a time with materialized
//! intermediates. Every chain runs across pool sizes 1/2/4 and under both
//! the cost-model (`Auto`) and forced kernel-at-a-time (`Materialize`)
//! fusion choices, so the fused head, the materializing suffix, and the
//! boundary the planner picks between them are all pinned to the same
//! reference.

use pasta::core::{seeded_matrix, seeded_vector, CooTensor, Shape};
use pasta::kernels::{
    counters, lower, tew_coo_same_pattern, ts_coo, ttm_coo, ttv_coo, Bindings, CounterId, Ctx,
    EwOp, ExprGraph, ExprOut, FusionChoice, MatOperand, TsOp, VecOperand,
};
use pasta::par::Schedule;
use pasta_conformance::oracle::worst_ulp;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Serializes this binary's tests. The proptests' `Materialize` arms bump
/// the process-wide `fused.materialized_intermediates` counter, which
/// `forced_fusion_materializes_nothing_on_mixed_chains` asserts does not
/// move, and cargo runs a binary's tests on parallel threads.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`], recovering from poison so one failing test does not
/// fail the others.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn ctx_with(threads: usize) -> Ctx {
    Ctx::new(threads, Schedule::Static)
}

/// Explicit ULP budgets, matching the fused-layer chain budgets: the
/// lowered plan accumulates fused contractions in one pass while the
/// composed reference rounds once per kernel step.
const TTV_CHAIN_ULP: u64 = 512;
const TTM_CHAIN_ULP: u64 = 1024;

const POOLS: [usize; 3] = [1, 2, 4];
const DENSE_CAP: usize = 1 << 22;

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

fn entries4() -> impl Strategy<Value = Vec<(Vec<u32>, f64)>> {
    proptest::collection::vec(
        ((0u32..6, 0u32..5, 0u32..4, 0u32..3), -50i32..50)
            .prop_map(|((i, j, k, l), v)| (vec![i, j, k, l], f64::from(v) / 8.0)),
        1..40,
    )
}

/// Raw step descriptors: `(kind, a, b)` decoded against the evolving shape.
fn raw_steps() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    proptest::collection::vec((0u8..3, 0u8..255, 0u8..255), 0..4)
}

/// A decoded, concrete chain step. Operand sizes are resolved at decode
/// time against the shape the step sees, so the graph build and the
/// composed reference derive identical operands from the step index.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Same-pattern elementwise multiply against a derived operand.
    Tew,
    /// Tensor-scalar op.
    Ts(TsOp, f64),
    /// Contract `mode` (current-relative) with a vector of `len`.
    Ttv { mode: usize, len: usize },
    /// Multiply `mode` (current-relative, `rows` wide) by a `rows`×`rank`
    /// matrix.
    Ttm { mode: usize, rows: usize, rank: usize },
}

/// The same-pattern TEW operand: the base tensor's pattern with distinct
/// values, so the elementwise fold is not a disguised scalar op.
fn tew_operand(x: &CooTensor<f64>) -> CooTensor<f64> {
    let mut y = x.clone();
    for (e, v) in y.vals_mut().iter_mut().enumerate() {
        *v = 1.0 + f64::from((e % 7) as u32) * 0.25;
    }
    y
}

/// Per-step operand seed: a fixed offset plus the step index, shared by
/// the graph build and the composed reference.
fn step_seed(i: usize) -> u64 {
    0xC0 + i as u64
}

/// Decodes raw `(kind, a, b)` triples into concrete well-typed steps
/// against the evolving shape. Returns the steps and the chain's ULP
/// budget (TTM chains carry the wider fused-TTM budget).
fn decode(x: &CooTensor<f64>, tew_first: bool, raw: &[(u8, u8, u8)]) -> (Vec<Step>, u64) {
    let mut dims: Vec<u32> = x.shape().dims().to_vec();
    let mut steps = Vec::new();
    if tew_first {
        steps.push(Step::Tew);
    }
    let mut budget = TTV_CHAIN_ULP;
    for &(kind, a, b) in raw {
        match kind {
            0 => {
                let op = if a % 2 == 0 { TsOp::Mul } else { TsOp::Add };
                steps.push(Step::Ts(op, 0.5 + f64::from(b % 8) * 0.25));
            }
            // TTV removes a mode; keep at least an order-1 result so the
            // chain stays in sparse-tensor land.
            1 if dims.len() >= 2 => {
                let mode = a as usize % dims.len();
                steps.push(Step::Ttv { mode, len: dims[mode] as usize });
                dims.remove(mode);
            }
            _ => {
                let mode = a as usize % dims.len();
                let rank = 1 + b as usize % 3;
                steps.push(Step::Ttm { mode, rows: dims[mode] as usize, rank });
                dims[mode] = rank as u32;
                budget = TTM_CHAIN_ULP;
            }
        }
    }
    (steps, budget)
}

/// The composed kernel-at-a-time reference: every step materializes its
/// intermediate through the raw kernels, sequentially.
fn composed(x: &CooTensor<f64>, steps: &[Step]) -> Vec<f64> {
    let ctx = Ctx::sequential();
    let mut cur = x.clone();
    for (i, st) in steps.iter().enumerate() {
        cur = match *st {
            Step::Tew => tew_coo_same_pattern(EwOp::Mul, &cur, &tew_operand(x), &ctx).unwrap(),
            Step::Ts(op, s) => ts_coo(op, &cur, s, &ctx).unwrap(),
            Step::Ttv { mode, len } => {
                ttv_coo(&cur, &seeded_vector(len, step_seed(i)), mode, &ctx).unwrap()
            }
            Step::Ttm { mode, rows, rank } => {
                ttm_coo(&cur, &seeded_matrix(rows, rank, step_seed(i)), mode, &ctx)
                    .unwrap()
                    .to_coo()
            }
        };
    }
    cur.to_dense(DENSE_CAP)
}

/// Builds the expression graph for `steps` rooted at `x`.
fn build_graph<'a>(
    g: &mut ExprGraph<'a, f64>,
    x: &'a CooTensor<f64>,
    steps: &[Step],
) -> pasta::kernels::ExprId {
    let mut id = g.leaf(x);
    for (i, st) in steps.iter().enumerate() {
        id = match *st {
            Step::Tew => g.tew(id, EwOp::Mul, tew_operand(x)).unwrap(),
            Step::Ts(op, s) => g.ts(id, op, s).unwrap(),
            Step::Ttv { mode, len } => {
                g.ttv(id, mode, VecOperand::Owned(seeded_vector(len, step_seed(i)))).unwrap()
            }
            Step::Ttm { mode, rows, rank } => {
                g.ttm(id, mode, MatOperand::Owned(seeded_matrix(rows, rank, step_seed(i)))).unwrap()
            }
        };
    }
    id
}

fn expr_out_dense(out: ExprOut<f64>) -> Vec<f64> {
    match out {
        ExprOut::Coo(t) => t.to_dense(DENSE_CAP),
        ExprOut::Semi(s) => s.to_coo().to_dense(DENSE_CAP),
        ExprOut::Dense { vals, .. } => vals,
        ExprOut::Matrix(m) => m.as_slice().to_vec(),
    }
}

/// Lowers and executes the chain under every pool size and both fusion
/// choices, asserting each result against the composed reference.
fn check_chain(x: &CooTensor<f64>, tew_first: bool, raw: &[(u8, u8, u8)]) {
    let (steps, budget) = decode(x, tew_first, raw);
    let want = composed(x, &steps);
    for threads in POOLS {
        for fusion in [FusionChoice::Auto, FusionChoice::Materialize] {
            let ctx = ctx_with(threads).with_fusion(fusion);
            let mut g = ExprGraph::new();
            let root = build_graph(&mut g, x, &steps);
            let plan = lower(&g, root, &ctx).unwrap();
            let got = expr_out_dense(plan.execute(&Bindings::none()).unwrap());
            let w = worst_ulp(&got, &want).unwrap_or(u64::MAX);
            assert!(
                w <= budget,
                "t{threads} {fusion:?}: worst {w} ULP > {budget} (chain {steps:?})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random well-typed chains over an order-3 tensor match the composed
    /// kernel-at-a-time reference under every pool size and fusion choice.
    #[test]
    fn prop_random_chain_order3(
        entries in entries3(),
        tew_sel in 0u8..2,
        raw in raw_steps(),
    ) {
        let _serial = serial();
        let x = tensor_from(&[10, 7, 6], entries);
        check_chain(&x, tew_sel == 1, &raw);
    }

    /// Random well-typed chains over an order-4 tensor.
    #[test]
    fn prop_random_chain_order4(
        entries in entries4(),
        tew_sel in 0u8..2,
        raw in raw_steps(),
    ) {
        let _serial = serial();
        let x = tensor_from(&[6, 5, 4, 3], entries);
        check_chain(&x, tew_sel == 1, &raw);
    }
}

/// The acceptance invariant, restated at the graph layer: a mixed
/// TEW→TTV→TTM→TS chain lowers fully fused under the forced-fuse choice —
/// zero materialized edges, no intermediate sparse tensors — and still
/// matches the composed reference.
#[test]
fn forced_fusion_materializes_nothing_on_mixed_chains() {
    let _serial = serial();
    let x = tensor_from(
        &[10, 7, 6],
        (0..60u32).map(|i| (vec![i % 10, (i * 3) % 7, (i * 5) % 6], f64::from(i) - 30.0)).collect(),
    );
    let steps = [
        Step::Tew,
        Step::Ttv { mode: 2, len: 6 },
        Step::Ttm { mode: 0, rows: 10, rank: 3 },
        Step::Ts(TsOp::Mul, 0.5),
    ];
    let want = composed(&x, &steps);
    let ctx = ctx_with(2).with_fusion(FusionChoice::Fuse);
    pasta::obs::set_counting(true);
    let before = counters().snapshot();

    let mut g = ExprGraph::new();
    let root = build_graph(&mut g, &x, &steps);
    let plan = lower(&g, root, &ctx).unwrap();
    assert!(plan.fully_fused(), "forced fusion must fuse every edge");
    assert_eq!(plan.materialized_edges(), 0);
    assert_eq!(plan.fused_edges(), steps.len() as u64);
    let got = expr_out_dense(plan.execute(&Bindings::none()).unwrap());

    let after = counters().snapshot();
    assert_eq!(
        after[CounterId::FusedMaterialized],
        before[CounterId::FusedMaterialized],
        "a fully fused plan must not materialize intermediate sparse tensors"
    );
    assert!(after[CounterId::ExprPlans] > before[CounterId::ExprPlans]);
    assert!(
        after[CounterId::ExprFusedEdges] >= before[CounterId::ExprFusedEdges] + steps.len() as u64
    );

    let w = worst_ulp(&got, &want).unwrap_or(u64::MAX);
    assert!(w <= TTM_CHAIN_ULP, "worst {w} ULP");
}
