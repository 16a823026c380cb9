//! The repo benchmark: one command that builds seeded inputs, measures the
//! end-to-end metrics with the span recorder off (or the per-layer metrics
//! in a traced run), verifies every output, and prints every metric by
//! name with unit and direction. See `benchmark/README.md`.

mod cold_pipeline;
mod decomp;
mod inputs;
mod kernel_sweep;
mod machine;
mod report;
mod serve_mix;
mod stats;
mod trace;

use inputs::Workload;
use pasta::core::{CooTensor, Result};
use pasta::kernels::Ctx;
use pasta::par::Schedule;
use report::{defs, Metrics, END_TO_END, RUN_SECONDS};
use stats::{fast_decile, median};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::Recorder;

/// Set-ups per run; `setup_s` is their median (three samples have no
/// decile worth the name).
const SETUP_REPS: usize = 3;
/// Shares of `--seconds` per phase, in the order of the phase constants
/// below: kernel sweep, cold pipeline, decompositions, cold serve passes,
/// warm serve passes.
const SHARES: [f64; 5] = [0.26, 0.18, 0.24, 0.12, 0.20];
/// A traced run spends this share of `--seconds` in the phases and the
/// rest on the single-threaded baseline, the calibration and the variants.
const TRACED_PHASE_SHARE: f64 = 0.7;
/// Fewest rounds per phase, whatever the budget.
const MIN_ROUNDS: usize = 3;

/// Everything built before the timed region.
struct Setup {
    x: CooTensor<f32>,
    kernels: kernel_sweep::KernelSetup,
    cold: cold_pipeline::ColdSetup,
    decomp: decomp::DecompSetup,
    serve: serve_mix::ServeSetup,
}

impl Setup {
    fn build(w: &Workload, seed: u64, scale: f64, threads: usize) -> Result<Self> {
        let mut x = w.main.generate(seed, 0, scale);
        x.sort();
        Ok(Self {
            kernels: kernel_sweep::KernelSetup::build(&x)?,
            cold: cold_pipeline::ColdSetup::build(&x, seed)?,
            decomp: decomp::DecompSetup::build(&x, w),
            serve: serve_mix::ServeSetup::build(w, seed, scale, threads),
            x,
        })
    }
}

/// What one run of one workload produced.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// The result document (header, counts, metrics) as JSON.
    document: String,
    /// One line on how the run's wall time was spent.
    summary: String,
}

/// The five interleaved phases of a run.
const KERNEL: usize = 0;
const COLD: usize = 1;
const DECOMP: usize = 2;
const SERVE_COLD: usize = 3;
const SERVE_WARM: usize = 4;

/// Interleaves the phases for `seconds`: each turn goes to the phase that
/// has used the smallest part of its share, so every phase's samples span
/// the whole run and a slow spell of the machine spoils a few samples of
/// every metric instead of every sample of one. Runs on until every phase
/// has its minimum of rounds. With `alternate`, a phase's odd rounds run
/// with the recorder off: the unrecorded reference of a traced run.
/// Returns per phase the wall times (ms) of recorded and unrecorded rounds.
fn interleave(
    seconds: f64,
    min_rounds: [usize; 5],
    rec: &mut Recorder,
    alternate: bool,
    mut step: impl FnMut(usize, &mut Recorder, usize) -> Result<()>,
) -> Result<[[Vec<f64>; 2]; 5]> {
    let mut walls: [[Vec<f64>; 2]; 5] = Default::default();
    let mut used = [0.0f64; 5];
    let traced = rec.on;
    let t0 = Instant::now();
    loop {
        let rounds = |p: usize| walls[p][0].len() + walls[p][1].len();
        let in_time = t0.elapsed().as_secs_f64() < seconds;
        let next = (0..5)
            .filter(|&p| in_time || rounds(p) < min_rounds[p])
            .min_by(|&a, &b| (used[a] / SHARES[a]).total_cmp(&(used[b] / SHARES[b])));
        let Some(p) = next else { break };
        let round = rounds(p);
        rec.on = traced && !(alternate && round % 2 == 1);
        let t = Instant::now();
        step(p, rec, round)?;
        let wall = t.elapsed().as_secs_f64();
        used[p] += wall;
        walls[p][usize::from(!rec.on)].push(wall * 1e3);
    }
    rec.on = traced;
    Ok(walls)
}

/// Overhead of the recorder: recorded over unrecorded round times (fast
/// deciles), summed over the phases that ran both kinds, minus one.
fn trace_overhead(walls: &[[Vec<f64>; 2]; 5]) -> f64 {
    let both = || walls.iter().filter(|w| !w[0].is_empty() && !w[1].is_empty());
    let sum = |i: usize| both().map(|w| fast_decile(&w[i])).sum::<f64>();
    if sum(1) > 0.0 {
        sum(0) / sum(1) - 1.0
    } else {
        0.0
    }
}

fn run_workload(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: f64,
) -> Result<Outcome> {
    let threads = machine::threads();
    let ctx = Ctx::new(threads, Schedule::Static);

    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        setup = Some(Setup::build(w, seed, scale, threads)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let s = setup.expect("SETUP_REPS >= 1");

    let measure_t0 = Instant::now();
    let phase_s = seconds * if traced { TRACED_PHASE_SHARE } else { 1.0 };
    let mut rec = Recorder::new(traced);
    let mut sweep = kernel_sweep::Sweep::new(&s.kernels, &s.x, ctx);
    let mut cold = cold_pipeline::ColdResult::default();
    let mut dec = decomp::DecompResult::default();
    let mut serving = serve_mix::Loop::new(&s.serve);
    let min_rounds =
        [MIN_ROUNDS, MIN_ROUNDS, MIN_ROUNDS, serve_mix::MIN_COLD, s.serve.min_warm_passes()];
    let walls =
        interleave(phase_s, min_rounds, &mut rec, traced, |phase, rec, round| match phase {
            KERNEL => sweep.step(rec, round),
            COLD => s.cold.step(&ctx, rec, round, &mut cold),
            DECOMP => s.decomp.step(&s.x, &ctx, rec, round, &mut dec),
            SERVE_COLD => {
                // Cold passes are never recorded; file them as such.
                rec.on = false;
                serving.cold_step()
            }
            SERVE_WARM => serving.warm_step(rec, round),
            _ => unreachable!("five phases"),
        })?;
    let (kernels, serve) = (sweep.res, serving.res);

    let mut m = Metrics::default();
    if traced {
        let mut seq = kernel_sweep::Sweep::new(&s.kernels, &s.x, Ctx::sequential());
        for round in 0..MIN_ROUNDS {
            seq.step(&mut Recorder::new(false), round)?;
        }
        let stream = machine::stream_gbps(threads);
        m.put("machine.stream_gbps", stream);
        m.put("platform.ert.dram_gbps", machine::ert_dram_gbps(threads));
        kernel_sweep::per_layer(&s.kernels, &s.x, &kernels, &seq.res, &rec, stream, &mut m);
        cold_pipeline::per_layer(
            &s.cold,
            &s.x,
            &cold,
            &rec,
            s.kernels.hicoo_storage_bytes() as f64 / s.x.storage_bytes() as f64,
            &mut m,
        );
        decomp::per_layer(&s.decomp, &s.x, &dec, &ctx, &mut rec, &mut m)?;
        serve_mix::per_layer(&s.serve, &serve, &rec, &mut m)?;
        m.put("obs.trace_overhead_frac", trace_overhead(&walls));
    } else {
        m.put("setup_s", median(&setup_s));
        kernels.end_to_end(&mut m);
        cold.end_to_end(&mut m);
        dec.end_to_end(&mut m);
        serve.end_to_end(w.requests, &mut m);
    }
    let defs = defs(traced);
    assert!(m.missing(defs).is_empty(), "metrics never recorded: {:?}", m.missing(defs));

    // Verification, untimed: every phase's outputs against a sequential
    // or service-free reference.
    let measured_s = measure_t0.elapsed().as_secs_f64();
    let verify_t0 = Instant::now();
    let checks = [
        s.kernels.verify(&s.x, &ctx)?,
        s.cold.verify(&s.x, &ctx)?,
        s.decomp.verify(&s.x, &dec)?,
        s.serve.verify(&serve)?,
    ];
    let (checked, failed) = checks.iter().fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
    let attempted = kernels.calls
        + cold.iterations() as u64 * cold_pipeline::OPS_PER_ITERATION
        + dec.runs()
        + serve.requests
        + checked;

    let header = machine::header(w.name, seed, seconds, scale, traced);
    let mut document = String::new();
    write!(
        document,
        "{{\"header\": {header},\n \"repetitions\": {{\"setup\": {SETUP_REPS}, \"kernel_rounds\": {}, \
         \"cold_iterations\": {}, \"decomp_runs\": {}, \"serve_requests\": {}, \"latency_samples\": {}, \
         \"verified\": {checked}}},\n \"attempted\": {attempted}, \"failed\": {failed},\n \"metrics\": {}}}",
        kernels.rounds,
        cold.iterations(),
        dec.runs(),
        serve.requests,
        serve.latency_samples(w.requests),
        m.json(defs)
    )
    .expect("writing to a String");
    if traced {
        let path = package_dir("out").join(format!("trace_{}.json", w.name));
        if let Err(e) = rec.write_json(&path, &header) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    let summary = format!(
        "set-up {:.2} s x {SETUP_REPS}, measured {measured_s:.1} s ({} kernel rounds, {} pipeline iterations, \
         {} decomposition runs, {} requests), verified {checked} outputs in {:.1} s",
        median(&setup_s),
        kernels.rounds,
        cold.iterations(),
        dec.runs(),
        serve.requests,
        verify_t0.elapsed().as_secs_f64()
    );
    Ok(Outcome { metrics: m, attempted, failed, document, summary })
}

/// `benchmark/<sub>`: `out` for result and trace files, `results` for the
/// committed sets.
fn package_dir(sub: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(sub)
}

fn write_file(path: &std::path::Path, text: &str) {
    let write = || {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    };
    if let Err(e) = write() {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Runs one workload, prints its table, writes its result file.
fn run_and_print(w: &Workload, seed: u64, seconds: f64, traced: bool, scale: f64) -> Outcome {
    let out = run_workload(w, seed, seconds, traced, scale).unwrap_or_else(|e| {
        eprintln!("{}: the library returned an error: {e}", w.name);
        std::process::exit(1);
    });
    println!(
        "== workload {} seed {seed} {} ({seconds} s, {} threads) ==",
        w.name,
        if traced { "traced: per-layer metrics" } else { "untraced: end-to-end metrics" },
        machine::threads()
    );
    print!("{}", out.metrics.table(defs(traced)));
    println!("  ops_attempted {}  ops_failed {}", out.attempted, out.failed);
    println!("  {}", out.summary);
    let name = format!("result_{}_seed{seed}_trace{}.json", w.name, u8::from(traced));
    write_file(&package_dir("out").join(name), &out.document);
    out
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    traced: bool,
    smoke: bool,
    agree: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--smoke] \
         [--agree] [--manifest]\n  workloads: {}",
        inputs::workloads().iter().map(|w| w.name).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: None,
        traced: false,
        smoke: false,
        agree: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            "--traced" => a.traced = true,
            "--smoke" => a.smoke = true,
            "--agree" => a.agree = true,
            "--manifest" => {
                print!("{}", report::manifest());
                std::process::exit(0);
            }
            _ => usage(),
        }
    }
    if !(a.seconds.is_finite() && (0.0..=60.0).contains(&a.seconds)) {
        usage();
    }
    a
}

/// Two full untraced sets of the same code: the spread of every end-to-end
/// metric × workload beside its bound. Writes both sets to `results/`.
fn agree(ws: &[Workload], seed: u64, seconds: f64, scale: f64) -> bool {
    let sets: Vec<Vec<Outcome>> = (0..2)
        .map(|_| ws.iter().map(|w| run_and_print(w, seed, seconds, false, scale)).collect())
        .collect();
    let mut ok = true;
    println!("== agreement of two sets, seed {seed} ==");
    println!(
        "  {:<10} {:<18} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "set a", "set b", "spread", "bound"
    );
    for (i, w) in ws.iter().enumerate() {
        for d in END_TO_END {
            let (a, b) =
                (sets[0][i].metrics.get(d.name).unwrap(), sets[1][i].metrics.get(d.name).unwrap());
            let spread = (a - b).abs() / (0.5 * (a + b));
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let verdict = if spread <= bound { "" } else { "  EXCEEDS" };
            ok &= spread <= bound;
            println!(
                "  {:<10} {:<18} {:>14.5} {:>14.5} {:>7.2}% {:>6.0}%{verdict}",
                w.name,
                d.name,
                a,
                b,
                spread * 100.0,
                bound * 100.0
            );
        }
        ok &= sets.iter().all(|s| s[i].failed == 0);
    }
    for (set, name) in sets.iter().zip(["seed_a.json", "seed_b.json"]) {
        let docs: Vec<&str> = set.iter().map(|o| o.document.as_str()).collect();
        write_file(&package_dir("results").join(name), &format!("[\n{}\n]\n", docs.join(",\n")));
    }
    ok
}

fn main() {
    // Environment knobs change what is measured without changing the code.
    if let Some((k, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("PASTA_"))
    {
        eprintln!("refusing to start: {} is set; the benchmark fixes threads, SIMD level and tracing itself", k.to_string_lossy());
        std::process::exit(2);
    }
    let args = parse_args();
    let all = inputs::workloads();
    let ws: Vec<Workload> = match &args.workload {
        Some(name) => vec![all.iter().find(|w| w.name == name).cloned().unwrap_or_else(|| usage())],
        None => all,
    };
    let (scale, seconds) = if args.smoke { (0.02, 0.0) } else { (1.0, args.seconds) };

    // Driver mode: one workload, one result line.
    if let (Some(trace), [w]) = (args.trace, ws.as_slice()) {
        let out = run_and_print(w, args.seed, seconds, trace, scale);
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            out.failed == 0,
            out.attempted,
            out.failed,
            out.metrics.json(defs(trace))
        );
        std::process::exit(i32::from(out.failed != 0));
    }
    if args.trace.is_some() {
        usage();
    }

    let ok = if args.agree {
        agree(&ws, args.seed, seconds, scale)
    } else {
        let mut failed = 0;
        for w in &ws {
            failed += run_and_print(w, args.seed, seconds, false, scale).failed;
            if args.traced {
                failed += run_and_print(w, args.seed, seconds, true, scale).failed;
            }
        }
        failed == 0
    };
    std::process::exit(i32::from(!ok));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_of_time_every_phase_still_runs_its_minimum() {
        let mut seen = [0usize; 5];
        let walls =
            interleave(0.0, [3, 1, 2, 3, 4], &mut Recorder::new(false), false, |p, _, round| {
                assert_eq!(round, seen[p], "rounds of a phase count up from zero");
                seen[p] += 1;
                Ok(())
            })
            .unwrap();
        assert_eq!(seen, [3, 1, 2, 3, 4]);
        assert!(walls.iter().all(|w| w[0].is_empty()), "nothing was recorded");
    }

    #[test]
    fn traced_runs_alternate_recorded_and_unrecorded_rounds() {
        let mut rec = Recorder::new(true);
        let mut recorded = Vec::new();
        let walls = interleave(0.0, [3; 5], &mut rec, true, |p, rec, round| {
            if p == KERNEL {
                recorded.push((round, rec.on));
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(recorded, [(0, true), (1, false), (2, true)]);
        assert!(walls.iter().all(|w| w[0].len() == 2 && w[1].len() == 1));
        assert!(rec.on, "the switch is restored");
    }

    #[test]
    fn trace_overhead_compares_round_times() {
        let mut walls: [[Vec<f64>; 2]; 5] = Default::default();
        walls[KERNEL] = [vec![11.0, 12.0, 12.0], vec![10.0, 10.5]];
        walls[COLD] = [vec![22.0], vec![20.0]];
        walls[SERVE_COLD] = [Vec::new(), vec![5.0]]; // never recorded: left out
        assert!((trace_overhead(&walls) - 0.1).abs() < 1e-12);
        assert_eq!(trace_overhead(&Default::default()), 0.0);
    }

    #[test]
    fn smoke_size_reports_every_metric_and_verifies() {
        let w = &inputs::workloads()[1];
        for traced in [false, true] {
            let out = run_workload(w, 5, 0.0, traced, 0.02).unwrap();
            assert_eq!(out.failed, 0);
            assert!(out.attempted > 1000);
            assert!(out.metrics.missing(defs(traced)).is_empty());
            if !traced {
                assert!(END_TO_END.iter().all(|d| out.metrics.get(d.name).unwrap() > 0.0));
            }
            assert!(pasta::obs::json::parse(&out.document).is_ok(), "{}", out.document);
        }
    }
}
