//! The metric registry (names, units, directions, bounds), the result
//! line the driver reads, the result files and `BENCHMARK.json` itself.
//!
//! `BENCHMARK.json` is generated from this registry (`--manifest`) and a
//! unit test pins the committed file to it, so the two cannot drift.

use crate::inputs::workloads;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 18;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One registered metric; `bound` is `Some` for end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher as H, Lower as L};

/// The 14 end-to-end metrics, measured with the span recorder off.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", L, 0.25),
    e2e("tew_ms", "ms", L, 0.25),
    e2e("ts_ms", "ms", L, 0.25),
    e2e("ttv_ms", "ms", L, 0.25),
    e2e("ttm_ms", "ms", L, 0.25),
    e2e("mttkrp_ms", "ms", L, 0.25),
    e2e("first_result_ms", "ms", L, 0.25),
    e2e("convert_ms", "ms", L, 0.25),
    e2e("cpd_s", "s", L, 0.25),
    e2e("tucker_s", "s", L, 0.25),
    e2e("serve_cold_s", "s", L, 0.25),
    e2e("serve_warm_rps", "req/s", H, 0.25),
    e2e("serve_p50_ms", "ms", L, 0.25),
    e2e("serve_p99_ms", "ms", L, 0.25),
];

/// The per-layer metrics of a traced run; layer = crate/module name.
pub const PER_LAYER: &[MetricDef] = &[
    // kernels: executed cells, computed bandwidth, share of the roof.
    layer("kernels.tew.coo.ms", "ms", L),
    layer("kernels.tew.hicoo.ms", "ms", L),
    layer("kernels.ts.coo.ms", "ms", L),
    layer("kernels.ts.hicoo.ms", "ms", L),
    layer("kernels.ttv.coo.ms", "ms", L),
    layer("kernels.ttv.hicoo.ms", "ms", L),
    layer("kernels.ttm.coo.ms", "ms", L),
    layer("kernels.ttm.hicoo.ms", "ms", L),
    layer("kernels.mttkrp.coo.ms", "ms", L),
    layer("kernels.mttkrp.hicoo.ms", "ms", L),
    layer("kernels.tew.coo.gbps", "GB/s", H),
    layer("kernels.tew.hicoo.gbps", "GB/s", H),
    layer("kernels.ts.coo.gbps", "GB/s", H),
    layer("kernels.ts.hicoo.gbps", "GB/s", H),
    layer("kernels.ttv.coo.gbps", "GB/s", H),
    layer("kernels.ttv.hicoo.gbps", "GB/s", H),
    layer("kernels.ttm.coo.gbps", "GB/s", H),
    layer("kernels.ttm.hicoo.gbps", "GB/s", H),
    layer("kernels.mttkrp.coo.gbps", "GB/s", H),
    layer("kernels.mttkrp.hicoo.gbps", "GB/s", H),
    layer("kernels.tew.roof_frac", "ratio", H),
    layer("kernels.ts.roof_frac", "ratio", H),
    layer("kernels.ttv.roof_frac", "ratio", H),
    layer("kernels.ttm.roof_frac", "ratio", H),
    layer("kernels.mttkrp.roof_frac", "ratio", H),
    layer("kernels.mttkrp.strategy.sequential.calls", "count", L),
    layer("kernels.mttkrp.strategy.owner.calls", "count", H),
    layer("kernels.mttkrp.strategy.privatized_dense.calls", "count", L),
    layer("kernels.mttkrp.strategy.privatized_sparse.calls", "count", L),
    // par: the pool under the kernels.
    layer("par.speedup.tew", "ratio", H),
    layer("par.speedup.ts", "ratio", H),
    layer("par.speedup.ttv", "ratio", H),
    layer("par.speedup.ttm", "ratio", H),
    layer("par.speedup.mttkrp", "ratio", H),
    layer("par.tasks", "count", L),
    layer("par.steals", "count", L),
    layer("par.idle_frac", "ratio", L),
    // calibration: the roof the kernels are set against.
    layer("machine.stream_gbps", "GB/s", H),
    layer("platform.ert.dram_gbps", "GB/s", H),
    // core: parse, sort, conversion.
    layer("core.io.read_tns.ms", "ms", L),
    layer("core.io.read_tns.mb_s", "MB/s", H),
    layer("core.sort.lex.ms", "ms", L),
    layer("core.sort.mnnz_s", "Mnnz/s", H),
    layer("core.convert.hicoo.ms", "ms", L),
    layer("core.convert.csf.ms", "ms", L),
    layer("core.convert.fcoo.ms", "ms", L),
    layer("core.convert.hicoo.bytes_ratio", "ratio", L),
    layer("obs.sort.radix_passes", "count", L),
    layer("obs.convert.hicoo_conversions", "count", L),
    // kernels: plan construction and the first (cold) execution.
    layer("kernels.plan.ttv.ms", "ms", L),
    layer("kernels.plan.ttm.ms", "ms", L),
    layer("kernels.plan.mttkrp.ms", "ms", L),
    layer("kernels.plan.csf_ttv.ms", "ms", L),
    layer("kernels.first_exec.ms", "ms", L),
    layer("cold_pipeline.coverage", "ratio", H),
    // algos, kernels::expr, core::linalg: the decompositions.
    layer("algos.cpd.sweep_ms", "ms", L),
    layer("algos.cpd.fit", "ratio", H),
    layer("algos.tucker.sweep_ms", "ms", L),
    layer("algos.tucker.energy", "ratio", H),
    layer("kernels.expr.lower.ms", "ms", L),
    layer("kernels.expr.mttkrp_exec.ms", "ms", L),
    layer("kernels.expr.ttm_chain_exec.ms", "ms", L),
    layer("kernels.expr.fuse_gain.cpd", "ratio", H),
    layer("kernels.expr.fuse_gain.tucker", "ratio", H),
    layer("core.linalg.solve.ms", "ms", L),
    layer("core.linalg.gram.ms", "ms", L),
    layer("algos.eig.sym_eig.ms", "ms", L),
    layer("obs.fused.materialized_intermediates", "count", L),
    layer("obs.expr.plans", "count", L),
    layer("obs.expr.fused_edges", "count", H),
    layer("obs.mttkrp.resorts", "count", L),
    layer("obs.mttkrp.merge_bytes", "bytes", L),
    layer("decomp.coverage", "ratio", H),
    // serve: admission, batching, cache, execution.
    layer("serve.admit.us", "us", L),
    layer("serve.drain.ms", "ms", L),
    layer("serve.exec.tew.ms", "ms", L),
    layer("serve.exec.ts.ms", "ms", L),
    layer("serve.exec.ttv.ms", "ms", L),
    layer("serve.exec.ttm.ms", "ms", L),
    layer("serve.exec.mttkrp.ms", "ms", L),
    layer("serve.exec.cpd.ms", "ms", L),
    layer("serve.exec.expr.ms", "ms", L),
    layer("serve.overhead_frac", "ratio", L),
    layer("serve.cold_build_ms", "ms", L),
    layer("serve.cache.hit_ratio", "ratio", H),
    layer("serve.cache.misses_cold", "count", L),
    layer("serve.cache.evictions", "count", L),
    layer("serve.cache.bytes", "bytes", L),
    layer("serve.cache.entries", "count", L),
    layer("serve.batches", "count", L),
    layer("serve.batch_size_mean", "count", H),
    layer("serve.shard_tasks", "count", L),
    // serve: the same stream with one mechanism bypassed at a time.
    layer("serve.window1.rps", "req/s", H),
    layer("serve.nocache.rps", "req/s", H),
    layer("serve.churn.rps", "req/s", H),
    layer("serve.churn.evictions", "count", L),
    // the recorder's own cost.
    layer("obs.trace_overhead_frac", "ratio", L),
];

/// The metrics a run of the given kind reports.
pub fn defs(traced: bool) -> &'static [MetricDef] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Named values collected during a run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if the name is unregistered or recorded twice: both are bugs
    /// in the harness, and the driver would refuse the result anyway.
    pub fn put(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not registered"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.0.insert(def.name, value).is_none(), "metric {name} recorded twice");
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The names in `defs` that were never recorded.
    pub fn missing(&self, defs: &[MetricDef]) -> Vec<&'static str> {
        defs.iter().map(|d| d.name).filter(|n| !self.0.contains_key(n)).collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over `defs`, in order.
    pub fn json(&self, defs: &[MetricDef]) -> String {
        let mut s = String::from("{");
        for (i, d) in defs.iter().enumerate() {
            let v = self.0[d.name];
            let sep = if i == 0 { "" } else { ", " };
            write!(s, "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", d.name, num(v), d.unit)
                .expect("writing to a String");
        }
        s.push('}');
        s
    }

    /// A human-readable table over `defs`.
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut s = String::new();
        for d in defs {
            let bound = d.bound.map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
            writeln!(
                s,
                "  {:<48} {:>16} {:<7} ({} is better){bound}",
                d.name,
                num(self.0[d.name]),
                d.unit,
                d.better.label()
            )
            .expect("writing to a String");
        }
        s
    }
}

/// A number with all its digits, as JSON (Rust prints the shortest string
/// that round-trips; non-finite values are rejected at `put`).
pub fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Escapes a string for a JSON document.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("writing to a String");
    s.push_str("  \"workloads\": [\n");
    let ws = workloads();
    for (i, w) in ws.iter().enumerate() {
        let comma = if i + 1 == ws.len() { "" } else { "," };
        writeln!(s, "    {{\"name\": {}, \"why\": {}}}{comma}", quote(w.name), quote(w.why))
            .expect("writing to a String");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            d.name,
            d.unit,
            d.better.label(),
            d.bound.expect("end-to-end metrics carry a bound")
        )
        .expect("writing to a String");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name,
            d.unit,
            d.better.label()
        )
        .expect("writing to a String");
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(ok)
    }

    #[test]
    fn registry_fits_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(seen.insert(d.name), "{} registered twice", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for w in workloads() {
            assert!(valid_name(w.name) && seen.insert(w.name));
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s gets the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn committed_manifest_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        assert_eq!(
            text,
            manifest(),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
        let parsed = pasta::obs::json::parse(&text).expect("BENCHMARK.json is JSON");
        let keys = ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"];
        match parsed {
            pasta::obs::json::Json::Obj(members) => {
                assert_eq!(members.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(), keys);
            }
            other => panic!("not an object: {other:?}"),
        }
        assert!(text.len() <= 64 << 10);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(3.0), "3.0");
        assert_eq!(num(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn metrics_reject_unknown_and_report_missing() {
        let mut m = Metrics::default();
        m.put("setup_s", 1.25);
        assert_eq!(m.get("setup_s"), Some(1.25));
        assert_eq!(m.missing(END_TO_END).len(), END_TO_END.len() - 1);
        assert!(std::panic::catch_unwind(move || m.put("nope", 1.0)).is_err());
    }
}
