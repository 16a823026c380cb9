//! Phase `serve_mix`: a closed loop, one client, window 16, against one
//! `Server` over the workload's catalog and a power-law request stream.
//!
//! Cold: fresh servers, one pass each — batching, cache misses, conversion
//! and plan building do most of the work. Warm: one untimed fill pass, then
//! warm passes on one server — kernels and operand derivation do the work.
//! A request's latency is the wall time from the `submit` call of its
//! window to that call's return, so admission, batching, cache lookup,
//! conversion and reply are all inside it (`Response::latency_ns` is
//! execute-only and only feeds the per-layer `serve.exec.*` rows). Every
//! pass replays the same stream, so window `j` is measured once per pass;
//! its latency is the fast decile of those walls, and the percentiles are
//! taken over the stream's requests, each carrying its window's latency.

use crate::inputs::{build_catalog, requests, Workload, CACHE_BYTES, WINDOW};
use crate::kernel_sweep::worst_ulp;
use crate::report::Metrics;
use crate::stats::{fast_decile, highest_supported_percentile, median, percentile};
use crate::trace::{FirstRoundCounts, Recorder};
use pasta::core::Result;
use pasta::kernels::{counters, CounterId};
use pasta::serve::{direct_eval, Catalog, Request, Response, Server, ServerConfig};
use std::time::Instant;

/// Op labels with a `serve.exec.<op>.ms` row (Tucker jobs are off).
const EXEC_OPS: [&str; 7] = ["tew", "ts", "ttv", "ttm", "mttkrp", "cpd", "expr"];
/// Fewest cold servers (and fewest warm passes) a run measures.
pub const MIN_COLD: usize = 3;

/// The catalog and the concrete request stream.
pub struct ServeSetup {
    catalog: Catalog,
    requests: Vec<Request>,
    threads: usize,
}

/// What the phase measured.
#[derive(Default)]
pub struct ServeResult {
    /// Wall time of each cold pass, s.
    pub cold_s: Vec<f64>,
    /// Wall time of each warm pass, s.
    pub warm_pass_s: Vec<f64>,
    /// Wall time of every window of every warm pass, ms (`[pass][window]`).
    pub warm_window_ms: Vec<Vec<f64>>,
    /// Requests submitted in timed passes.
    pub requests: u64,
    /// `Response::latency_ns` of warm requests by op, ms.
    exec_ms: [Vec<f64>; 7],
    /// Counter deltas of the first cold pass and the first warm pass.
    cold_counts: FirstRoundCounts,
    warm_counts: FirstRoundCounts,
    /// Cache `(entries, bytes)` after the fill pass.
    cache: (usize, usize),
    /// The responses of the first warm pass, kept for verification.
    first_warm: Vec<Response>,
}

/// The running phase: cold passes build a fresh server each, warm passes
/// share one server that an untimed fill pass warmed.
pub struct Loop<'a> {
    setup: &'a ServeSetup,
    warm_server: Option<Server>,
    /// What the passes so far measured.
    pub res: ServeResult,
}

impl<'a> Loop<'a> {
    /// A loop over `setup` with nothing measured yet.
    pub fn new(setup: &'a ServeSetup) -> Self {
        Self { setup, warm_server: None, res: ServeResult::default() }
    }

    /// One cold pass on a fresh server (never recorded: the `serve.*` span
    /// rows describe the warm path).
    pub fn cold_step(&mut self) -> Result<()> {
        // Building the server (a catalog copy) is not part of the pass.
        let mut server = self.setup.server(CACHE_BYTES);
        let before = counters().snapshot();
        let t0 = Instant::now();
        self.setup.pass(&mut server, &mut Recorder::new(false), 0, &mut Vec::new())?;
        self.res.cold_s.push(t0.elapsed().as_secs_f64());
        self.res.cold_counts.close(before);
        self.res.requests += self.setup.requests.len() as u64;
        Ok(())
    }

    /// One warm pass; the first call also runs the untimed fill pass.
    pub fn warm_step(&mut self, rec: &mut Recorder, round: usize) -> Result<()> {
        if self.warm_server.is_none() {
            let mut server = self.setup.server(CACHE_BYTES);
            self.setup.pass(&mut server, &mut Recorder::new(false), 0, &mut Vec::new())?;
            self.res.cache = server.cache().map_or((0, 0), |c| (c.len(), c.bytes()));
            self.warm_server = Some(server);
        }
        let server = self.warm_server.as_mut().expect("filled above");
        let before = counters().snapshot();
        let mut windows = Vec::new();
        let t0 = Instant::now();
        let responses = self.setup.pass(server, rec, 1 + round as u32, &mut windows)?;
        self.res.warm_pass_s.push(t0.elapsed().as_secs_f64());
        self.res.warm_counts.close(before);
        self.res.warm_window_ms.push(windows);
        self.res.requests += self.setup.requests.len() as u64;
        for (req, resp) in self.setup.requests.iter().zip(&responses) {
            if let Some(i) = EXEC_OPS.iter().position(|l| *l == req.op.label()) {
                self.res.exec_ms[i].push(resp.latency_ns as f64 / 1e6);
            }
        }
        if self.res.first_warm.is_empty() {
            self.res.first_warm = responses;
        }
        Ok(())
    }
}

fn clone_catalog(c: &Catalog) -> Catalog {
    let mut out = Catalog::new();
    for id in c.ids() {
        let r = c.get(id).expect("ids() lists resident tensors");
        out.insert(id, r.name.clone(), r.tensor.clone());
    }
    out
}

/// Requests per second of one pass over `n` requests, window `window`.
fn pass_rps(server: &mut Server, reqs: &[Request], window: usize) -> Result<f64> {
    let t0 = Instant::now();
    for chunk in reqs.chunks(window) {
        std::hint::black_box(server.submit(chunk.iter().copied())?);
    }
    Ok(reqs.len() as f64 / t0.elapsed().as_secs_f64())
}

impl ServeSetup {
    /// Generates the catalog and expands the stream.
    pub fn build(w: &Workload, seed: u64, scale: f64, threads: usize) -> Self {
        let catalog = build_catalog(w, seed, scale);
        let requests = requests(w, seed, w.requests, &catalog);
        Self { catalog, requests, threads }
    }

    fn server(&self, cache_bytes: usize) -> Server {
        let cfg = ServerConfig {
            threads: self.threads,
            shards: self.threads,
            cache_bytes,
            ..ServerConfig::default()
        };
        Server::new(clone_catalog(&self.catalog), cfg)
    }

    /// One pass in windows of [`WINDOW`]; returns the responses and pushes
    /// every window's wall time. With the recorder on, admission and drain
    /// are separate spans (`submit` is exactly `enqueue`* + `drain`).
    fn pass(
        &self,
        server: &mut Server,
        rec: &mut Recorder,
        pass: u32,
        window_ms: &mut Vec<f64>,
    ) -> Result<Vec<Response>> {
        let mut all = Vec::with_capacity(self.requests.len());
        for (w, chunk) in self.requests.chunks(WINDOW).enumerate() {
            let op = pass * 1000 + w as u32;
            let (responses, ms) =
                rec.timed("serve_mix.window", op, |rec| -> Result<Vec<Response>> {
                    if !rec.on {
                        return server.submit(chunk.iter().copied());
                    }
                    for r in chunk {
                        rec.span("serve.admit", op, |_| server.enqueue(*r))?;
                    }
                    rec.span("serve.drain", op, |_| server.drain())
                });
            window_ms.push(ms);
            all.extend(responses?);
        }
        Ok(all)
    }

    /// Fewest warm passes for ten raw samples beyond the 99th percentile.
    pub fn min_warm_passes(&self) -> usize {
        1000usize.div_ceil(self.requests.len()).max(MIN_COLD)
    }

    /// Every response of the first warm pass against `direct_eval`, within
    /// `OpSpec::budget()` ULPs. Returns `(responses checked, mismatches)`.
    pub fn verify(&self, res: &ServeResult) -> Result<(u64, u64)> {
        let mut failed =
            (self.requests.len() - res.first_warm.len().min(self.requests.len())) as u64;
        for (i, (req, resp)) in self.requests.iter().zip(&res.first_warm).enumerate() {
            let x = &self.catalog.get(req.tensor).expect("stream indexes the catalog").tensor;
            let want = direct_eval(x, &req.op)?;
            let worst = worst_ulp(&resp.values, &want);
            if worst.is_none_or(|w| w > req.op.budget()) {
                eprintln!(
                    "VERIFY FAIL serve_mix request {i} ({}): worst ULP {worst:?}, budget {}",
                    req.op.label(),
                    req.op.budget()
                );
                failed += 1;
            }
        }
        Ok((self.requests.len() as u64, failed))
    }
}

impl ServeResult {
    /// One latency per request of the stream: the fast decile, over the warm
    /// passes, of the wall time of the window the request travels in. Every pass
    /// replays the same stream, so a window's walls are repeated
    /// measurements of one quantity.
    fn request_latency_ms(&self, n: usize) -> Vec<f64> {
        let windows = self.warm_window_ms.first().map_or(0, Vec::len);
        (0..windows)
            .flat_map(|j| {
                let walls: Vec<f64> = self.warm_window_ms.iter().map(|pass| pass[j]).collect();
                std::iter::repeat_n(fast_decile(&walls), WINDOW.min(n - j * WINDOW))
            })
            .collect()
    }

    /// Raw latency samples behind the percentiles (requests x warm passes).
    pub fn latency_samples(&self, n: usize) -> usize {
        n * self.warm_window_ms.len()
    }

    /// `serve_cold_s`, `serve_warm_rps`, `serve_p50_ms`, `serve_p99_ms`.
    pub fn end_to_end(&self, n: usize, m: &mut Metrics) {
        assert!(
            highest_supported_percentile(self.latency_samples(n)).is_some_and(|p| p >= 99.0),
            "p99 needs ten samples beyond it, have {} samples",
            self.latency_samples(n)
        );
        let latency = self.request_latency_ms(n);
        m.put("serve_cold_s", fast_decile(&self.cold_s));
        m.put("serve_warm_rps", n as f64 / fast_decile(&self.warm_pass_s));
        m.put("serve_p50_ms", percentile(&latency, 50.0));
        m.put("serve_p99_ms", percentile(&latency, 99.0));
    }
}

/// The `serve.*` per-layer metrics of a traced run, including the three
/// variants that bypass one mechanism each (one pass each).
pub fn per_layer(
    setup: &ServeSetup,
    res: &ServeResult,
    rec: &Recorder,
    m: &mut Metrics,
) -> Result<()> {
    let n = setup.requests.len();
    let admit: Vec<f64> = rec.durations_ms("serve.admit").iter().map(|ms| ms * 1e3).collect();
    m.put("serve.admit.us", median(&admit));
    m.put("serve.drain.ms", median(&rec.durations_ms("serve.drain")));
    for (i, op) in EXEC_OPS.iter().enumerate() {
        // A stream that never drew an op reports 0 for it.
        m.put(
            &format!("serve.exec.{op}.ms"),
            if res.exec_ms[i].is_empty() { 0.0 } else { median(&res.exec_ms[i]) },
        );
    }
    let exec: f64 = res.exec_ms.iter().flatten().sum();
    let wall: f64 = res.warm_pass_s.iter().sum::<f64>() * 1e3;
    m.put("serve.overhead_frac", 1.0 - exec / wall);
    m.put("serve.cold_build_ms", (fast_decile(&res.cold_s) - fast_decile(&res.warm_pass_s)) * 1e3);

    let warm = |id: CounterId| res.warm_counts.delta(id);
    let (hits, misses) = (warm(CounterId::CacheHits), warm(CounterId::CacheMisses));
    m.put("serve.cache.hit_ratio", if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 });
    m.put("serve.cache.misses_cold", res.cold_counts.delta(CounterId::CacheMisses));
    m.put("serve.cache.evictions", warm(CounterId::CacheEvictions));
    m.put("serve.cache.entries", res.cache.0 as f64);
    m.put("serve.cache.bytes", res.cache.1 as f64);
    let batches = warm(CounterId::ServeBatches);
    m.put("serve.batches", batches);
    m.put("serve.batch_size_mean", n as f64 / batches.max(1.0));
    m.put("serve.shard_tasks", warm(CounterId::ServeShardTasks));

    // Window 1 bypasses batching; cache_bytes = 0 bypasses the cache; a
    // cache a quarter of the working set, window 1, keeps evicting.
    let mut server = setup.server(CACHE_BYTES);
    pass_rps(&mut server, &setup.requests, WINDOW)?;
    m.put("serve.window1.rps", pass_rps(&mut server, &setup.requests, 1)?);
    m.put("serve.nocache.rps", pass_rps(&mut setup.server(0), &setup.requests, WINDOW)?);
    let mut server = setup.server((res.cache.1 / 4).max(1));
    pass_rps(&mut server, &setup.requests, 1)?;
    let mut churn = FirstRoundCounts::default();
    let before = counters().snapshot();
    m.put("serve.churn.rps", pass_rps(&mut server, &setup.requests, 1)?);
    churn.close(before);
    m.put("serve.churn.evictions", churn.delta(CounterId::CacheEvictions));
    Ok(())
}
