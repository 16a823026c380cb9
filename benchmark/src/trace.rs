//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around each call into a
//! library layer — never from inside the library, whose `pasta-obs` tracing
//! stays off. A span is a name (`layer.module.op`), a start and an end in
//! nanoseconds since the recorder was created, the span that was open when
//! it started, and an operation id shared by every span of one round,
//! iteration, run or request. Everything stays in memory until
//! [`Recorder::write_json`] at exit.

use pasta::kernels::{counters, CounterId, CounterSnapshot};
use std::io::Write;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.module.op`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The round / iteration / run / request the span belongs to.
    pub op: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span store driven from the benchmark's (single) main thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    /// Whether `span` records; off for every end-to-end measurement and
    /// for the unrecorded reference rounds of a traced run.
    pub on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    /// A recorder that records iff `on`.
    pub fn new(on: bool) -> Self {
        Self { origin: Instant::now(), on, spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` (a plain call when recording is
    /// off). The closure gets the recorder back so it can open children.
    pub fn span<T>(&mut self, name: &'static str, op: u32, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// Like [`span`](Self::span), and also returns the wall time of `f` in
    /// milliseconds, measured whether or not the recorder is on: the
    /// end-to-end numbers come from these timers, the spans only add
    /// structure.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        op: u32,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, f64) {
        let t0 = Instant::now();
        let out = self.span(name, op, f);
        (out, t0.elapsed().as_secs_f64() * 1e3)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect()
    }

    /// Share of the spans named `name` that their direct children cover:
    /// `1 − Σ self time ÷ Σ duration`. `None` if no such span was recorded.
    pub fn coverage(&self, name: &str) -> Option<f64> {
        let selfs = self_times_ns(&self.spans);
        let (mut dur, mut own) = (0u64, 0u64);
        for (s, t) in self.spans.iter().zip(&selfs).filter(|(s, _)| s.name == name) {
            dur += s.dur_ns();
            own += t;
        }
        (dur > 0).then(|| 1.0 - own as f64 / dur as f64)
    }

    /// Writes the spans as one JSON document (`header` is a JSON object).
    pub fn write_json(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"header\": {header},\n \"unit\": \"ns\",\n \"spans\": [")?;
        let selfs = self_times_ns(&self.spans);
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                f,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \
                 \"op\": {}, \"self\": {own}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

/// Counter deltas over the first round a phase runs: counts are taken at
/// the same boundaries as spans, around one round only, so they repeat
/// exactly however many rounds the time budget allows.
#[derive(Debug, Default)]
pub struct FirstRoundCounts(Option<(CounterSnapshot, CounterSnapshot)>);

impl FirstRoundCounts {
    /// Closes a round that began at `before`; only the first call counts.
    pub fn close(&mut self, before: CounterSnapshot) {
        self.0.get_or_insert_with(|| (before, counters().snapshot()));
    }

    /// How far counter `id` moved during the first round.
    pub fn delta(&self, id: CounterId) -> f64 {
        let (before, after) = self.0.as_ref().expect("every phase runs at least one round");
        (after.get(id) - before.get(id)) as f64
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are not counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            kids[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut kids)
        .map(|(s, iv)| {
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in iv.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span { name: "t", start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            sp(0, 100, None),
            sp(10, 30, Some(0)),
            sp(20, 50, Some(0)), // overlaps the first child: union is 10..50
            sp(60, 70, Some(0)),
            sp(12, 18, Some(1)), // grandchild: only its own parent loses it
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 10, 6]);
    }

    #[test]
    fn child_is_clipped_to_its_parent() {
        let spans = vec![sp(10, 20, None), sp(5, 15, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 10]);
    }

    #[test]
    fn recorder_nests_and_respects_the_switch() {
        let mut r = Recorder::new(true);
        let v = r.span("outer", 7, |r| r.span("inner", 7, |_| 41) + 1);
        assert_eq!(v, 42);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[0].parent, None);
        assert!(r.spans()[0].end_ns >= r.spans()[1].end_ns);
        assert!(r.coverage("outer").is_some_and(|c| (0.0..=1.0).contains(&c)));
        r.on = false;
        r.span("dropped", 0, |_| ());
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.durations_ms("inner").len(), 1);
        assert!(r.coverage("missing").is_none());
    }
}
