//! Phase `kernel_sweep`: warm execution of TEW/TS/TTV/TTM/MTTKRP ×
//! {COO, HiCOO} × every mode at rank 16.
//!
//! Plans, the HiCOO copy and every operand are built in set-up, so
//! `kernels` and `par` do all the timed work and `core` conversion, `algos`
//! and `serve` do none. Each round runs every cell a fixed number of times
//! back to back; a cell's time is the fast decile of all its calls (the
//! rounds are spread over the whole run), TTV/TTM/MTTKRP cells are summed
//! over modes, and `<k>_ms` is the geometric mean of the COO and HiCOO sums.

// Cells are addressed by (kernel, format, mode) indices into several
// tables at once; iterator rewrites of those loops obscure the sweep.
#![allow(clippy::needless_range_loop)]

use crate::inputs::{BLOCK, RANK};
use crate::report::Metrics;
use crate::stats::{fast_decile, geomean};
use crate::trace::Recorder;
use pasta::core::{
    seeded_matrix, seeded_vector, CooTensor, DenseMatrix, DenseVector, HiCooTensor, Result, Value,
};
use pasta::kernels::{
    kernel_cost, mttkrp_coo_traced, mttkrp_hicoo_traced, tew_values_into, ts_values_into,
    CostParams, Ctx, EwOp, Kernel, MttkrpStrategy, TsOp, TtmCooPlan, TtmHicooPlan, TtvCooPlan,
    TtvHicooPlan,
};
use std::time::Instant;

/// Kernel labels, in `Kernel::ALL` order.
pub const KERNELS: [&str; 5] = ["tew", "ts", "ttv", "ttm", "mttkrp"];
const FORMATS: [&str; 2] = ["coo", "hicoo"];
/// Back-to-back calls of one cell per round: cheap kernels repeat more so
/// every kernel gets a comparable share of the phase.
const REPS: [usize; 5] = [8, 8, 4, 2, 1];
/// Span names by kernel and format (spans need `&'static str`).
const SPAN: [[&str; 2]; 5] = [
    ["kernels.tew.coo", "kernels.tew.hicoo"],
    ["kernels.ts.coo", "kernels.ts.hicoo"],
    ["kernels.ttv.coo", "kernels.ttv.hicoo"],
    ["kernels.ttm.coo", "kernels.ttm.hicoo"],
    ["kernels.mttkrp.coo", "kernels.mttkrp.hicoo"],
];
/// ULP budgets of a pooled run against `Ctx::sequential()`: the
/// conformance matrix's reduction budgets; element-wise lanes are exact.
const ULP_BUDGET: [u64; 5] = [0, 0, 256, 256, 1024];

struct ModeOps {
    v: DenseVector<f32>,
    u: DenseMatrix<f32>,
    ttv: (TtvCooPlan<f32>, TtvHicooPlan<f32>),
    ttm: (TtmCooPlan<f32>, TtmHicooPlan<f32>),
}

/// Everything the timed region needs, built before it starts.
pub struct KernelSetup {
    hicoo: HiCooTensor<f32>,
    coo_vals: Vec<f32>,
    hicoo_vals: Vec<f32>,
    other: Vec<f32>,
    modes: Vec<ModeOps>,
    factors: Vec<DenseMatrix<f32>>,
}

/// Pre-sized output buffers (see [`KernelSetup::scratch`]).
struct Scratch {
    ew: Vec<f32>,
    ttv: Vec<[Vec<f32>; 2]>,
    ttm: Vec<[Vec<f32>; 2]>,
    mttkrp: Option<DenseMatrix<f32>>,
}

impl Scratch {
    /// The output the last execution of cell `(k, f, mode)` left behind.
    fn output(&self, (k, f, mode): (usize, usize, usize)) -> &[f32] {
        match k {
            0 | 1 => &self.ew,
            2 => &self.ttv[mode][f],
            3 => &self.ttm[mode][f],
            _ => self.mttkrp.as_ref().map_or(&[], |y| y.as_slice()),
        }
    }
}

/// What one sweep measured.
pub struct KernelResult {
    /// `samples[k][f][mode]`: per-call milliseconds.
    pub samples: Vec<[Vec<Vec<f64>>; 2]>,
    /// Rounds run.
    pub rounds: usize,
    /// Kernel calls made.
    pub calls: u64,
    /// MTTKRP calls per round by strategy (`MttkrpStrategy` order).
    strategy_calls: [u64; 4],
    /// What the pool's workers did during the rounds.
    pool: PoolDelta,
}

fn cell_modes(k: usize, order: usize) -> usize {
    if k < 2 {
        1
    } else {
        order
    }
}

/// The running phase: one [`step`](Sweep::step) is one round over every
/// cell.
pub struct Sweep<'a> {
    setup: &'a KernelSetup,
    x: &'a CooTensor<f32>,
    ctx: Ctx,
    out: Scratch,
    /// What the rounds so far measured.
    pub res: KernelResult,
}

impl<'a> Sweep<'a> {
    /// A sweep over `x` under `ctx` with nothing measured yet.
    pub fn new(setup: &'a KernelSetup, x: &'a CooTensor<f32>, ctx: Ctx) -> Self {
        let cells = |k| vec![Vec::new(); cell_modes(k, x.order())];
        let res = KernelResult {
            samples: (0..5).map(|k| [cells(k), cells(k)]).collect(),
            rounds: 0,
            calls: 0,
            strategy_calls: [0; 4],
            pool: PoolDelta::default(),
        };
        Self { setup, x, ctx, out: setup.scratch(), res }
    }

    /// One round: every cell, `REPS[k]` calls back to back, each timed.
    pub fn step(&mut self, rec: &mut Recorder, round: usize) -> Result<()> {
        let op = round as u32;
        let (before, t0) = (PoolDelta::totals(), Instant::now());
        let done = rec.span("kernel_sweep.round", op, |rec| {
            for k in 0..5 {
                for f in 0..2 {
                    for mode in 0..cell_modes(k, self.x.order()) {
                        for _ in 0..REPS[k] {
                            let (done, ms) = rec.timed(SPAN[k][f], op, |_| {
                                std::hint::black_box(self.setup.exec(
                                    self.x,
                                    (k, f, mode),
                                    &self.ctx,
                                    &mut self.out,
                                ))
                            });
                            let strategy = done?;
                            self.res.samples[k][f][mode].push(ms);
                            self.res.calls += 1;
                            if let (Some(s), 0) = (strategy, round) {
                                self.res.strategy_calls[s as usize] += 1;
                            }
                        }
                    }
                }
            }
            self.res.rounds += 1;
            Ok(())
        });
        self.res.pool.add_since(&before, t0.elapsed().as_nanos() as u64);
        done
    }
}

impl KernelSetup {
    /// Builds plans and operands for the sorted tensor `x`.
    pub fn build(x: &CooTensor<f32>) -> Result<Self> {
        let hicoo = HiCooTensor::from_coo(x, BLOCK)?;
        let modes = (0..x.order())
            .map(|n| {
                let dim = x.shape().dim(n) as usize;
                Ok(ModeOps {
                    v: seeded_vector(dim, 7),
                    u: seeded_matrix(dim, RANK, 9),
                    ttv: (TtvCooPlan::new(x, n)?, TtvHicooPlan::new(x, n, BLOCK)?),
                    ttm: (TtmCooPlan::new(x, n)?, TtmHicooPlan::new(x, n, BLOCK)?),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        let factors = (0..x.order())
            .map(|m| seeded_matrix(x.shape().dim(m) as usize, RANK, 11 + m as u64))
            .collect();
        Ok(Self {
            coo_vals: x.vals().to_vec(),
            hicoo_vals: hicoo.vals().to_vec(),
            other: vec![1.5; x.nnz()],
            hicoo,
            modes,
            factors,
        })
    }

    /// Storage bytes of the HiCOO copy (for the HiCOO ÷ COO size ratio).
    pub fn hicoo_storage_bytes(&self) -> usize {
        self.hicoo.storage_bytes()
    }

    /// Output buffers for every cell, so the timed region allocates nothing
    /// the library does not allocate itself.
    fn scratch(&self) -> Scratch {
        Scratch {
            ew: vec![0.0; self.coo_vals.len()],
            ttv: self
                .modes
                .iter()
                .map(|m| [vec![0.0; m.ttv.0.num_fibers()], vec![0.0; m.ttv.1.num_fibers()]])
                .collect(),
            ttm: self
                .modes
                .iter()
                .map(|m| {
                    [vec![0.0; m.ttm.0.num_fibers() * RANK], vec![0.0; m.ttm.1.num_fibers() * RANK]]
                })
                .collect(),
            mttkrp: None,
        }
    }

    /// Executes cell `(k, f, mode)` once into `out`; for MTTKRP, returns
    /// the schedule that ran.
    fn exec(
        &self,
        x: &CooTensor<f32>,
        (k, f, mode): (usize, usize, usize),
        ctx: &Ctx,
        out: &mut Scratch,
    ) -> Result<Option<MttkrpStrategy>> {
        let vals = if f == 0 { &self.coo_vals } else { &self.hicoo_vals };
        let m = &self.modes[mode];
        match (k, f) {
            (0, _) => tew_values_into(EwOp::Add, vals, &self.other, &mut out.ew, ctx)?,
            (1, _) => ts_values_into(TsOp::Mul, vals, 1.5, &mut out.ew, ctx)?,
            (2, 0) => m.ttv.0.execute_values(&m.v, &mut out.ttv[mode][0], ctx)?,
            (2, _) => m.ttv.1.execute_values(&m.v, &mut out.ttv[mode][1], ctx)?,
            (3, 0) => m.ttm.0.execute_values(&m.u, &mut out.ttm[mode][0], ctx)?,
            (3, _) => m.ttm.1.execute_values(&m.u, &mut out.ttm[mode][1], ctx)?,
            _ => {
                let (y, run) = if f == 0 {
                    mttkrp_coo_traced(x, &self.factors, mode, ctx)?
                } else {
                    mttkrp_hicoo_traced(&self.hicoo, &self.factors, mode, ctx)?
                };
                out.mttkrp = Some(y);
                return Ok(Some(run.strategy));
            }
        }
        Ok(None)
    }

    /// Compares every cell's pooled output with a sequential run; returns
    /// `(cells checked, cells over their ULP budget)`.
    pub fn verify(&self, x: &CooTensor<f32>, ctx: &Ctx) -> Result<(u64, u64)> {
        let (mut checked, mut failed) = (0, 0);
        let (mut got, mut want) = (self.scratch(), self.scratch());
        for k in 0..5 {
            for f in 0..2 {
                for mode in 0..cell_modes(k, x.order()) {
                    let cell = (k, f, mode);
                    self.exec(x, cell, ctx, &mut got)?;
                    self.exec(x, cell, &Ctx::sequential(), &mut want)?;
                    let worst = worst_ulp(got.output(cell), want.output(cell));
                    checked += 1;
                    if worst.is_none_or(|w| w > ULP_BUDGET[k]) {
                        eprintln!(
                            "VERIFY FAIL kernel_sweep {}/{}/mode{mode}: worst ULP {worst:?}, budget {}",
                            KERNELS[k], FORMATS[f], ULP_BUDGET[k]
                        );
                        failed += 1;
                    }
                }
            }
        }
        Ok((checked, failed))
    }

    /// Table I bytes of cell `(k, f)` summed over its modes (computed from
    /// array sizes, not measured: cache misses are not in it).
    fn computed_bytes(&self, x: &CooTensor<f32>, k: usize, f: usize) -> f64 {
        (0..cell_modes(k, x.order()))
            .map(|mode| {
                let p = CostParams {
                    m: x.nnz() as f64,
                    mf: self.modes[mode].ttv.0.num_fibers() as f64,
                    r: RANK as f64,
                    nb: self.hicoo.num_blocks() as f64,
                    block_size: f64::from(BLOCK),
                };
                let c = kernel_cost(Kernel::ALL[k], &p);
                if f == 0 {
                    c.coo_bytes
                } else {
                    c.hicoo_bytes
                }
            })
            .sum()
    }
}

/// Worst ULP distance of two equal-length slices; `None` on a length
/// mismatch, which is never a rounding question.
pub fn worst_ulp(got: &[f32], want: &[f32]) -> Option<u64> {
    (got.len() == want.len())
        .then(|| got.iter().zip(want).map(|(&g, &w)| g.ulp_distance(w)).max().unwrap_or(0))
}

impl KernelResult {
    /// Mode-summed time of `(k, f)` in ms.
    pub fn cell_ms(&self, k: usize, f: usize) -> f64 {
        self.samples[k][f].iter().map(|s| fast_decile(s)).sum()
    }

    /// The five `<k>_ms` end-to-end metrics.
    pub fn end_to_end(&self, m: &mut Metrics) {
        for (k, name) in KERNELS.iter().enumerate() {
            m.put(&format!("{name}_ms"), geomean(&[self.cell_ms(k, 0), self.cell_ms(k, 1)]));
        }
    }
}

/// Per-round, per-name span sums divided by `reps`: the mode-summed time of
/// one cell as the trace saw it, one value per recorded round.
fn span_cell_ms(rec: &Recorder, name: &str, reps: usize) -> Vec<f64> {
    let mut by_round = std::collections::BTreeMap::<u32, f64>::new();
    for s in rec.spans().iter().filter(|s| s.name == name) {
        *by_round.entry(s.op).or_default() += s.dur_ns() as f64 / 1e6 / reps as f64;
    }
    by_round.into_values().collect()
}

/// The `kernels.*` and `par.*` per-layer metrics of a traced run.
/// `seq` is a short sweep under `Ctx::sequential()` (the plain
/// single-threaded baseline); `stream_gbps` is the measured roof.
pub fn per_layer(
    setup: &KernelSetup,
    x: &CooTensor<f32>,
    res: &KernelResult,
    seq: &KernelResult,
    rec: &Recorder,
    stream_gbps: f64,
    m: &mut Metrics,
) {
    for (k, name) in KERNELS.iter().enumerate() {
        let mut gbps = [0.0; 2];
        for f in 0..2 {
            let ms = fast_decile(&span_cell_ms(rec, SPAN[k][f], REPS[k]));
            gbps[f] = setup.computed_bytes(x, k, f) / (ms * 1e-3) / 1e9;
            m.put(&format!("{}.ms", SPAN[k][f]), ms);
            m.put(&format!("{}.gbps", SPAN[k][f]), gbps[f]);
        }
        m.put(&format!("kernels.{name}.roof_frac"), geomean(&gbps) / stream_gbps);
        m.put(&format!("par.speedup.{name}"), seq.cell_ms(k, 0) / res.cell_ms(k, 0));
    }
    for (i, s) in
        ["sequential", "owner", "privatized_dense", "privatized_sparse"].iter().enumerate()
    {
        m.put(&format!("kernels.mttkrp.strategy.{s}.calls"), res.strategy_calls[i] as f64);
    }
    m.put("par.tasks", res.pool.tasks as f64 / res.rounds as f64);
    m.put("par.steals", res.pool.steals as f64 / res.rounds as f64);
    m.put("par.idle_frac", res.pool.idle_frac());
}

/// Pool-worker telemetry: lifetime totals at a point in time, or what the
/// kernel rounds added to them (with the rounds' wall time).
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolDelta {
    tasks: u64,
    steals: u64,
    idle_ns: u64,
    wall_ns: u64,
}

impl PoolDelta {
    /// The workers' lifetime totals now.
    fn totals() -> Self {
        pasta::par::pool::global().worker_stats().iter().fold(Self::default(), |a, w| Self {
            tasks: a.tasks + w.tasks,
            steals: a.steals + w.steals,
            idle_ns: a.idle_ns + w.idle_ns,
            ..a
        })
    }

    /// Adds what happened since `before` was taken, `wall_ns` ago.
    fn add_since(&mut self, before: &Self, wall_ns: u64) {
        let now = Self::totals();
        self.tasks += now.tasks - before.tasks;
        self.steals += now.steals - before.steals;
        self.idle_ns += now.idle_ns - before.idle_ns;
        self.wall_ns += wall_ns;
    }

    /// Parked time over `wall x workers`.
    fn idle_frac(&self) -> f64 {
        let workers = pasta::par::pool::global().workers().max(1) as f64;
        (self.idle_ns as f64 / (self.wall_ns.max(1) as f64 * workers)).min(1.0)
    }
}
