//! Phase `cold_pipeline`: the `core` and `kernels` layers used the other
//! way round from `kernel_sweep` — nothing is reused.
//!
//! One iteration goes from in-memory `.tns` bytes (entries in shuffled
//! order) through `read_tns`, `sort()`, the HiCOO, CSF (+`CsfTtvPlan`) and
//! F-COO conversions and the TTV/TTM/MTTKRP plan constructors to one
//! execution of each kernel, then drops everything. Parse, radix sort,
//! conversion and plan construction dominate, so work moved out of execute
//! and into plan building shows as a gain on `kernel_sweep` and a loss
//! here.

use crate::inputs::{checksum, shuffled, BLOCK, RANK};
use crate::kernel_sweep::worst_ulp;
use crate::report::Metrics;
use crate::stats::fast_decile;
use crate::trace::{FirstRoundCounts, Recorder};
use pasta::core::io::{read_tns, write_tns};
use pasta::core::{
    seeded_matrix, seeded_vector, CooTensor, CsfTensor, DenseMatrix, DenseVector, FCooTensor,
    HiCooTensor, Result,
};
use pasta::kernels::CounterId;
use pasta::kernels::{
    counters, mttkrp_hicoo, tew_values_into, ts_values_into, ttv_fcoo, CsfTtvPlan, Ctx, EwOp,
    MttkrpCooPlan, TsOp, TtmCooPlan, TtvCooPlan,
};
use std::time::Instant;

/// Stage names, in pipeline order; each is a span and a timer.
const STAGES: [&str; 10] = [
    "core.io.read_tns",
    "core.sort.lex",
    "core.convert.hicoo",
    "core.convert.csf",
    "core.convert.fcoo",
    "kernels.plan.csf_ttv",
    "kernels.plan.ttv",
    "kernels.plan.ttm",
    "kernels.plan.mttkrp",
    "kernels.first_exec",
];
/// The stages `convert_ms` sums: sort and the three conversions.
const CONVERT: std::ops::Range<usize> = 1..5;

/// The `.tns` bytes and the dense operands, built before the timed region.
pub struct ColdSetup {
    bytes: Vec<u8>,
    /// TTV contracts the last mode (the CSF leaf and the F-COO product
    /// mode), TTM the first, MTTKRP the second — so the MTTKRP plan has to
    /// decide whether re-sorting pays off.
    modes: (usize, usize, usize),
    v: DenseVector<f32>,
    u: DenseMatrix<f32>,
    factors: Vec<DenseMatrix<f32>>,
}

/// The outputs of one iteration, kept only by the verification pass.
struct ColdOutputs {
    sorted: CooTensor<f32>,
    hicoo: HiCooTensor<f32>,
    csf: CsfTensor<f32>,
    fcoo: FCooTensor<f32>,
    /// TEW, TS, TTV-COO, TTV-CSF, TTV-F-COO, TTM, MTTKRP-COO, MTTKRP-HiCOO.
    kernels: Vec<Vec<f32>>,
}

/// What the phase measured.
#[derive(Default)]
pub struct ColdResult {
    /// Per-iteration wall time, bytes → every kernel output, ms.
    pub iter_ms: Vec<f64>,
    /// Per-iteration stage times, ms, in `STAGES` order.
    pub stage_ms: Vec<[f64; 10]>,
    /// Counter snapshots around the first iteration.
    counts: FirstRoundCounts,
}

/// Operations per iteration: 1 parse, 4 conversions, 4 plans, 8 kernel
/// calls.
pub const OPS_PER_ITERATION: u64 = 17;

impl ColdSetup {
    /// Serialises `x` in a seeded shuffled order and derives the operands.
    pub fn build(x: &CooTensor<f32>, seed: u64) -> Result<Self> {
        let mut bytes = Vec::new();
        write_tns(&shuffled(x, seed), &mut bytes)?;
        let order = x.order();
        let modes = (order - 1, 0, 1);
        // `.tns` carries no header: the reader infers each mode length from
        // the largest index, so operands are sized from a parse.
        let parsed = read_tns::<f32, _>(&bytes[..])?;
        let dim = |m: usize| parsed.shape().dim(m) as usize;
        Ok(Self {
            bytes,
            modes,
            v: seeded_vector(dim(modes.0), 7),
            u: seeded_matrix(dim(modes.1), RANK, 9),
            factors: (0..order).map(|m| seeded_matrix(dim(m), RANK, 11 + m as u64)).collect(),
        })
    }

    /// One iteration. Returns the stage times, the wall time up to the last
    /// kernel output and the outputs themselves.
    fn iterate(
        &self,
        ctx: &Ctx,
        rec: &mut Recorder,
        op: u32,
    ) -> Result<([f64; 10], f64, ColdOutputs)> {
        let mut ms = [0.0; 10];
        let t0 = Instant::now();
        let out = rec.span("cold_pipeline.iter", op, |rec| -> Result<ColdOutputs> {
            let (x, t) = rec.timed(STAGES[0], op, |_| read_tns::<f32, _>(&self.bytes[..]));
            ms[0] = t;
            let mut x = x?;
            ((), ms[1]) = rec.timed(STAGES[1], op, |_| x.sort());
            let (hicoo, t) = rec.timed(STAGES[2], op, |_| HiCooTensor::from_coo(&x, BLOCK));
            ms[2] = t;
            let hicoo = hicoo?;
            let identity: Vec<usize> = (0..x.order()).collect();
            let (csf, t) = rec.timed(STAGES[3], op, |_| CsfTensor::from_coo(&x, &identity));
            ms[3] = t;
            let csf = csf?;
            let (fcoo, t) = rec.timed(STAGES[4], op, |_| FCooTensor::from_coo(&x, self.modes.0));
            ms[4] = t;
            let fcoo = fcoo?;
            let (csf_ttv, t) = rec.timed(STAGES[5], op, |_| CsfTtvPlan::new(&csf));
            ms[5] = t;
            let csf_ttv = csf_ttv?;
            let (ttv, t) = rec.timed(STAGES[6], op, |_| TtvCooPlan::new(&x, self.modes.0));
            ms[6] = t;
            let ttv = ttv?;
            let (ttm, t) = rec.timed(STAGES[7], op, |_| TtmCooPlan::new(&x, self.modes.1));
            ms[7] = t;
            let ttm = ttm?;
            let (mttkrp, t) =
                rec.timed(STAGES[8], op, |_| MttkrpCooPlan::new(&x, self.modes.2, ctx));
            ms[8] = t;
            let mttkrp = mttkrp?;
            let (kernels, t) = rec.timed(STAGES[9], op, |_| -> Result<Vec<Vec<f32>>> {
                let other = vec![1.5f32; x.nnz()];
                let mut tew = vec![0.0; x.nnz()];
                tew_values_into(EwOp::Add, x.vals(), &other, &mut tew, ctx)?;
                let mut ts = vec![0.0; x.nnz()];
                ts_values_into(TsOp::Mul, x.vals(), 1.5, &mut ts, ctx)?;
                let mut y_coo = vec![0.0; ttv.num_fibers()];
                ttv.execute_values(&self.v, &mut y_coo, ctx)?;
                let mut y_csf = vec![0.0; csf_ttv.num_fibers()];
                csf_ttv.execute_values(&self.v, &mut y_csf, ctx)?;
                let y_fcoo = ttv_fcoo(&fcoo, &self.v, ctx)?.vals().to_vec();
                let mut z = vec![0.0; ttm.num_fibers() * RANK];
                ttm.execute_values(&self.u, &mut z, ctx)?;
                let (m_coo, _) = mttkrp.execute(&self.factors)?;
                let m_hicoo = mttkrp_hicoo(&hicoo, &self.factors, self.modes.2, ctx)?;
                Ok(vec![
                    tew,
                    ts,
                    y_coo,
                    y_csf,
                    y_fcoo,
                    z,
                    m_coo.as_slice().to_vec(),
                    m_hicoo.as_slice().to_vec(),
                ])
            });
            ms[9] = t;
            Ok(ColdOutputs { sorted: x, hicoo, csf, fcoo, kernels: kernels? })
        })?;
        Ok((ms, t0.elapsed().as_secs_f64() * 1e3, out))
    }

    /// One timed iteration, recorded into `res`.
    pub fn step(
        &self,
        ctx: &Ctx,
        rec: &mut Recorder,
        round: usize,
        res: &mut ColdResult,
    ) -> Result<()> {
        let before = counters().snapshot();
        let (stages, wall, outputs) = self.iterate(ctx, rec, round as u32)?;
        res.counts.close(before);
        res.iter_ms.push(wall);
        res.stage_ms.push(stages);
        // Dropping everything is part of the pipeline's cost to a caller,
        // but not of the time to first result.
        drop(outputs);
        Ok(())
    }

    /// One untimed iteration checked end to end: the parse round-trips the
    /// source tensor, every conversion converts back to the sorted input,
    /// and every kernel output matches a sequential run. Returns
    /// `(checks, failures)`.
    pub fn verify(&self, x: &CooTensor<f32>, ctx: &Ctx) -> Result<(u64, u64)> {
        let mut rec = Recorder::new(false);
        let (_, _, got) = self.iterate(ctx, &mut rec, 0)?;
        let (_, _, want) = self.iterate(&Ctx::sequential(), &mut rec, 0)?;
        let reference = checksum(x);
        let mut checks: Vec<(&str, bool)> = vec![
            (
                "read_tns+sort round-trip",
                got.sorted.nnz() == x.nnz() && checksum(&got.sorted) == reference,
            ),
            ("hicoo.to_coo", sorted_checksum(got.hicoo.to_coo()) == reference),
            ("csf.to_coo", sorted_checksum(got.csf.to_coo()) == reference),
            ("fcoo.to_coo", sorted_checksum(got.fcoo.to_coo()) == reference),
        ];
        let names =
            ["tew", "ts", "ttv-coo", "ttv-csf", "ttv-fcoo", "ttm", "mttkrp-coo", "mttkrp-hicoo"];
        let budgets = [0, 0, 256, 256, 256, 256, 1024, 1024];
        for ((name, budget), (g, w)) in
            names.iter().zip(budgets).zip(got.kernels.iter().zip(&want.kernels))
        {
            checks.push((name, worst_ulp(g, w).is_some_and(|u| u <= budget)));
        }
        // The three TTV routes contract the same mode with the same vector.
        checks.push((
            "ttv-csf vs ttv-coo",
            worst_ulp(&got.kernels[3], &got.kernels[2]).is_some_and(|u| u <= 256),
        ));
        for (name, ok) in checks.iter().filter(|(_, ok)| !ok) {
            eprintln!("VERIFY FAIL cold_pipeline {name}: {ok}");
        }
        Ok((checks.len() as u64, checks.iter().filter(|(_, ok)| !ok).count() as u64))
    }
}

/// Checksum of `t` after a lexicographic sort (conversions may hand entries
/// back in their own order).
fn sorted_checksum(mut t: CooTensor<f32>) -> u64 {
    t.sort();
    checksum(&t)
}

impl ColdResult {
    /// Iterations run.
    pub fn iterations(&self) -> usize {
        self.iter_ms.len()
    }

    /// `first_result_ms` and `convert_ms`.
    pub fn end_to_end(&self, m: &mut Metrics) {
        m.put("first_result_ms", fast_decile(&self.iter_ms));
        let convert: Vec<f64> = self.stage_ms.iter().map(|s| s[CONVERT].iter().sum()).collect();
        m.put("convert_ms", fast_decile(&convert));
    }
}

/// The `core.*`, `kernels.plan.*` and `obs.*` conversion metrics of a
/// traced run; the two counts are counter-snapshot deltas over the first
/// iteration.
pub fn per_layer(
    setup: &ColdSetup,
    x: &CooTensor<f32>,
    res: &ColdResult,
    rec: &Recorder,
    hicoo_bytes_ratio: f64,
    m: &mut Metrics,
) {
    let med = |name: &str| fast_decile(&rec.durations_ms(name));
    m.put("core.io.read_tns.ms", med(STAGES[0]));
    m.put("core.io.read_tns.mb_s", setup.bytes.len() as f64 / 1e6 / (med(STAGES[0]) * 1e-3));
    m.put("core.sort.lex.ms", med(STAGES[1]));
    m.put("core.sort.mnnz_s", x.nnz() as f64 / 1e6 / (med(STAGES[1]) * 1e-3));
    m.put("core.convert.hicoo.ms", med(STAGES[2]));
    m.put("core.convert.csf.ms", med(STAGES[3]));
    m.put("core.convert.fcoo.ms", med(STAGES[4]));
    m.put("core.convert.hicoo.bytes_ratio", hicoo_bytes_ratio);
    m.put("kernels.plan.csf_ttv.ms", med(STAGES[5]));
    m.put("kernels.plan.ttv.ms", med(STAGES[6]));
    m.put("kernels.plan.ttm.ms", med(STAGES[7]));
    m.put("kernels.plan.mttkrp.ms", med(STAGES[8]));
    m.put("kernels.first_exec.ms", med(STAGES[9]));
    m.put("cold_pipeline.coverage", rec.coverage("cold_pipeline.iter").unwrap_or(0.0));
    m.put("obs.sort.radix_passes", res.counts.delta(CounterId::SortRadixPasses));
    m.put("obs.convert.hicoo_conversions", res.counts.delta(CounterId::HicooConversions));
}
