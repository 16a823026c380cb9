//! Phase `decomp`: `cp_als` on the workload's tensor and `tucker_hooi` on
//! the same tensor folded to short modes, both with `FusionChoice::Auto`.
//!
//! `algos`, `kernels::expr` (lowering, the fused MTTKRP and TTM-chain
//! heads) and `core::linalg` do the work; single-kernel plans and `serve` do
//! none. A traced run also replays one ALS sweep and one HOOI sweep as a
//! driver over the public layer calls, so that each stage of the otherwise
//! opaque `cp_als` / `tucker_hooi` call is a span.

use crate::inputs::{fold_dims, Workload};
use crate::report::Metrics;
use crate::stats::{fast_decile, median};
use crate::trace::{FirstRoundCounts, Recorder};
use pasta::algos::{cp_als, sym_eig, tucker_hooi, CpdBackend, CpdOptions, TuckerOptions};
use pasta::core::linalg::{gram, hadamard, normalize_columns, Cholesky};
use pasta::core::{seeded_matrix, CooTensor, DenseMatrix, Error, Result, SemiCooTensor};
use pasta::kernels::{
    counters, lower, Bindings, CounterId, Ctx, ExprGraph, ExprOut, FormatKind, FusionChoice,
    MatOperand,
};
use std::time::Instant;

/// Factor-initialisation seed of both decompositions.
const INIT_SEED: u64 = 7;
/// How far a pooled run's fit / energy may sit from the sequential one.
const QUALITY_TOL: f64 = 1e-3;

/// The folded Tucker input and both option sets.
pub struct DecompSetup {
    folded: CooTensor<f32>,
    cpd: (usize, usize),
    tucker: (usize, usize),
}

/// What the phase measured.
#[derive(Default)]
pub struct DecompResult {
    pub cpd_s: Vec<f64>,
    pub tucker_s: Vec<f64>,
    /// Fit of the last `cp_als` model and energy of the last Tucker model.
    quality: (f64, f64),
    /// Counter deltas over the first round (one run of each).
    counts: FirstRoundCounts,
}

impl DecompSetup {
    /// Folds `x` for Tucker and fixes ranks and sweep counts.
    pub fn build(x: &CooTensor<f32>, w: &Workload) -> Self {
        let (cap, rank, sweeps) = w.tucker;
        Self { folded: fold_dims(x, cap), cpd: w.cpd, tucker: (rank, sweeps) }
    }

    fn cpd_opts(&self, ctx: &Ctx) -> CpdOptions {
        CpdOptions {
            rank: self.cpd.0,
            max_iters: self.cpd.1,
            // Zero tolerance: every run does the same number of sweeps.
            tol: 0.0,
            seed: INIT_SEED,
            ctx: *ctx,
            backend: CpdBackend::Coo,
        }
    }

    fn tucker_opts(&self, ctx: &Ctx) -> TuckerOptions {
        TuckerOptions {
            ranks: vec![self.tucker.0; self.folded.order()],
            max_iters: self.tucker.1,
            seed: INIT_SEED,
            ctx: *ctx,
        }
    }

    /// One round: one timed `cp_als` run and one timed `tucker_hooi` run.
    pub fn step(
        &self,
        x: &CooTensor<f32>,
        ctx: &Ctx,
        rec: &mut Recorder,
        round: usize,
        res: &mut DecompResult,
    ) -> Result<()> {
        let before = counters().snapshot();
        let (cpd, cpd_ms) =
            rec.timed("algos.cpd.run", round as u32, |_| cp_als(x, &self.cpd_opts(ctx)));
        let (tucker, tucker_ms) = rec.timed("algos.tucker.run", round as u32, |_| {
            tucker_hooi(&self.folded, &self.tucker_opts(ctx))
        });
        res.counts.close(before);
        res.quality = (cpd?.fit, tucker?.energy);
        res.cpd_s.push(cpd_ms / 1e3);
        res.tucker_s.push(tucker_ms / 1e3);
        Ok(())
    }

    /// Compares the fit and energy the measured (pooled) runs reached with a
    /// sequential reference run of each; returns `(checks, failures)`.
    pub fn verify(&self, x: &CooTensor<f32>, res: &DecompResult) -> Result<(u64, u64)> {
        let seq = Ctx::sequential();
        let fit = (res.quality.0, cp_als(x, &self.cpd_opts(&seq))?.fit);
        let energy = (res.quality.1, tucker_hooi(&self.folded, &self.tucker_opts(&seq))?.energy);
        let mut failed = 0;
        for (what, (got, want)) in [("cp_als fit", fit), ("tucker_hooi energy", energy)] {
            if !((got - want).abs() <= QUALITY_TOL && got.is_finite()) {
                eprintln!("VERIFY FAIL decomp {what}: pooled {got} vs sequential {want}");
                failed += 1;
            }
        }
        Ok((2, failed))
    }
}

impl DecompResult {
    /// Decomposition runs made (both kinds).
    pub fn runs(&self) -> u64 {
        (self.cpd_s.len() + self.tucker_s.len()) as u64
    }

    /// `cpd_s` and `tucker_s`.
    pub fn end_to_end(&self, m: &mut Metrics) {
        m.put("cpd_s", fast_decile(&self.cpd_s));
        m.put("tucker_s", fast_decile(&self.tucker_s));
    }
}

fn not_pd() -> Error {
    Error::OperandMismatch { what: "gram Hadamard product not positive definite".into() }
}

/// Replays one ALS sweep through the public layer calls, one span per
/// stage. Returns the wall-time estimate of a whole `cp_als` run built from
/// the replayed stages (lowering once, every other stage once per sweep).
fn replay_als_sweep(
    x: &CooTensor<f32>,
    (rank, sweeps): (usize, usize),
    ctx: &Ctx,
    rec: &mut Recorder,
) -> Result<f64> {
    let order = x.order();
    let mut factors: Vec<DenseMatrix<f32>> = (0..order)
        .map(|m| {
            let mut f = seeded_matrix(x.shape().dim(m) as usize, rank, INIT_SEED + m as u64);
            normalize_columns(&mut f);
            f
        })
        .collect();
    rec.span("decomp.cpd.replay", 0, |rec| {
        let mut g = ExprGraph::new();
        let leaf = g.leaf(x);
        let root = g.mttkrp(leaf, rank, FormatKind::Coo, ctx.block_size())?;
        let (plan, lower_ms) = rec.timed("kernels.expr.lower", 0, |_| lower(&g, root, ctx));
        let plan = plan?;
        let (grams, mut per_sweep_ms) =
            rec.timed("core.linalg.gram", 0, |_| factors.iter().map(gram).collect::<Vec<_>>());
        let mut grams = grams;
        for n in 0..order {
            let (out, ms) = rec.timed("kernels.expr.mttkrp_exec", n as u32, |_| {
                plan.execute(&Bindings::mttkrp(&factors, n))
            });
            per_sweep_ms += ms;
            let ExprOut::Matrix(mut a) = out? else {
                return Err(Error::OperandMismatch { what: "mttkrp head yields a matrix".into() });
            };
            let (solved, ms) = rec.timed("core.linalg.solve", n as u32, |_| {
                let v = (0..order)
                    .filter(|&m| m != n)
                    .map(|m| grams[m].clone())
                    .reduce(|acc, gm| hadamard(&acc, &gm))
                    .expect("order >= 2");
                let ch = Cholesky::factor(&v, 1e-10f32)?;
                ch.solve_rows(&mut a);
                normalize_columns(&mut a);
                Some(())
            });
            per_sweep_ms += ms;
            solved.ok_or_else(not_pd)?;
            let (gn, ms) = rec.timed("core.linalg.gram", n as u32, |_| gram(&a));
            per_sweep_ms += ms;
            grams[n] = gn;
            factors[n] = a;
        }
        Ok(lower_ms + per_sweep_ms * sweeps as f64)
    })
}

/// `Y₍ₙ₎ Y₍ₙ₎ᵀ` from the chain's semi-sparse output (fiber `f` is row `i_f`
/// of the matricization): the benchmark's own stand-in for the private
/// helper `tucker_hooi` uses between the chain and the eigensolve.
fn gram_of_fibers(y: &SemiCooTensor<f32>, dim: usize) -> DenseMatrix<f32> {
    let mut w = DenseMatrix::<f32>::zeros(dim, dim);
    for f in 0..y.num_fibers() {
        let i = y.sparse_inds(0)[f] as usize;
        for g in f..y.num_fibers() {
            let j = y.sparse_inds(0)[g] as usize;
            let dot: f32 = y.fiber_vals(f).iter().zip(y.fiber_vals(g)).map(|(a, b)| a * b).sum();
            w.set(i, j, w.get(i, j) + dot);
            if g != f {
                w.set(j, i, w.get(j, i) + dot);
            }
        }
    }
    w
}

/// Replays one HOOI sweep (every mode update) through the public layer
/// calls. Returns the wall-time estimate of a whole `tucker_hooi` run:
/// lowering once per mode, chain + Gram + eigensolve per mode per sweep,
/// and one more eigensolve per mode for the HOSVD initialisation.
fn replay_hooi_sweep(
    x: &CooTensor<f32>,
    factors: &[DenseMatrix<f32>],
    sweeps: usize,
    ctx: &Ctx,
    rec: &mut Recorder,
) -> Result<f64> {
    let fctx = ctx.with_fusion(FusionChoice::Fuse);
    rec.span("decomp.tucker.replay", 0, |rec| {
        let (mut once_ms, mut per_sweep_ms) = (0.0, 0.0);
        for n in 0..x.order() {
            let mut g = ExprGraph::new();
            let leaf = g.leaf(x);
            let mats = (0..x.order())
                .filter(|&m| m != n)
                .map(|m| MatOperand::Slot { slot: m, cols: factors[m].cols() })
                .collect();
            let root = g.ttm_all_but(leaf, n, mats)?;
            let (plan, ms) = rec.timed("kernels.expr.lower", n as u32, |_| lower(&g, root, &fctx));
            once_ms += ms;
            let (out, ms) = rec.timed("kernels.expr.ttm_chain_exec", n as u32, |_| {
                plan?.execute(&Bindings::with_mats(factors.iter().collect()))
            });
            per_sweep_ms += ms;
            let ExprOut::Semi(y) = out? else {
                return Err(Error::OperandMismatch {
                    what: "partial chain yields a semi-sparse tensor".into(),
                });
            };
            let dim = x.shape().dim(n) as usize;
            let (w, ms) = rec.timed("bench.gram_of_fibers", n as u32, |_| gram_of_fibers(&y, dim));
            per_sweep_ms += ms;
            let (_, ms) = rec.timed("algos.eig.sym_eig", n as u32, |_| sym_eig(&w, 30));
            per_sweep_ms += ms;
            // The HOSVD initialisation pays one more eigensolve per mode.
            once_ms += ms;
        }
        Ok(once_ms + per_sweep_ms * sweeps as f64)
    })
}

/// The `algos.*`, `kernels.expr.*`, `core.linalg.*` and decomposition
/// `obs.*` metrics of a traced run.
pub fn per_layer(
    setup: &DecompSetup,
    x: &CooTensor<f32>,
    res: &DecompResult,
    ctx: &Ctx,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Result<()> {
    let (cpd_s, tucker_s) = (fast_decile(&res.cpd_s), fast_decile(&res.tucker_s));
    m.put("algos.cpd.sweep_ms", cpd_s * 1e3 / setup.cpd.1 as f64);
    m.put("algos.cpd.fit", res.quality.0);
    m.put("algos.tucker.sweep_ms", tucker_s * 1e3 / setup.tucker.1 as f64);
    m.put("algos.tucker.energy", res.quality.1);

    let model = tucker_hooi(&setup.folded, &setup.tucker_opts(ctx))?;
    let cpd_est = replay_als_sweep(x, setup.cpd, ctx, rec)?;
    let tucker_est = replay_hooi_sweep(&setup.folded, &model.factors, setup.tucker.1, ctx, rec)?;
    m.put("decomp.coverage", (cpd_est + tucker_est) / ((cpd_s + tucker_s) * 1e3));
    let med = |name: &str| median(&rec.durations_ms(name));
    m.put("kernels.expr.lower.ms", med("kernels.expr.lower"));
    m.put("kernels.expr.mttkrp_exec.ms", med("kernels.expr.mttkrp_exec"));
    m.put("kernels.expr.ttm_chain_exec.ms", med("kernels.expr.ttm_chain_exec"));
    m.put("core.linalg.solve.ms", med("core.linalg.solve"));
    m.put("core.linalg.gram.ms", med("core.linalg.gram"));
    m.put("algos.eig.sym_eig.ms", med("algos.eig.sym_eig"));

    // The kernel-at-a-time baseline, one run each: Materialize ÷ Auto.
    let mat = ctx.with_fusion(FusionChoice::Materialize);
    let t0 = Instant::now();
    cp_als(x, &setup.cpd_opts(&mat))?;
    m.put("kernels.expr.fuse_gain.cpd", t0.elapsed().as_secs_f64() / cpd_s);
    let t0 = Instant::now();
    tucker_hooi(&setup.folded, &setup.tucker_opts(&mat))?;
    m.put("kernels.expr.fuse_gain.tucker", t0.elapsed().as_secs_f64() / tucker_s);

    for (name, id) in [
        ("obs.fused.materialized_intermediates", CounterId::FusedMaterialized),
        ("obs.expr.plans", CounterId::ExprPlans),
        ("obs.expr.fused_edges", CounterId::ExprFusedEdges),
        ("obs.mttkrp.resorts", CounterId::MttkrpResorts),
        ("obs.mttkrp.merge_bytes", CounterId::MttkrpMergeBytes),
    ] {
        m.put(name, res.counts.delta(id));
    }
    Ok(())
}
