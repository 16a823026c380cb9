//! chrome://tracing "trace event" JSON exporter and validator.
//!
//! The exporter serializes every ring's events into the [trace-event
//! format] chrome://tracing and Perfetto load directly: one object with a
//! `traceEvents` array of `{ph, pid, tid, ts, name, cat, args}` records,
//! where `ph` is `"B"`/`"E"` for span begin/end, `"i"` for instants, and
//! `"C"` for counter samples. Timestamps are microseconds (`t_ns / 1000`).
//!
//! Rings drop events when full, so a thread's tail may contain unmatched
//! begin/end events. The exporter repairs the stream per thread before
//! writing: unmatched `End`s are skipped and unclosed `Begin`s are closed
//! at the thread's last timestamp, so the emitted pairs always nest.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write as _;

use crate::counters::counters;
use crate::json::{self, Json};
use crate::ring::{snapshot_events, Event, Phase};

/// Serializes all recorded events (plus current counter values) as
/// chrome://tracing trace-event JSON.
pub fn chrome_trace_json() -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push(',');
        }
        first = false;
    };
    let threads = snapshot_events();
    let mut max_t = 0u64;
    for (tid, events, dropped) in &threads {
        for ev in repair(events) {
            max_t = max_t.max(ev.t_ns);
            sep(&mut out);
            push_event(&mut out, *tid, &ev);
        }
        if *dropped > 0 {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"s\":\"t\",\
                 \"name\":\"ring.dropped\",\"cat\":\"obs\",\"args\":{{\"a\":{dropped}}}}}",
                max_t as f64 / 1000.0,
            );
        }
    }
    // Counter values as one "C" sample per nonzero counter, on tid 0.
    for (name, value) in counters().iter() {
        if value > 0 {
            sep(&mut out);
            let _ = write!(
                out,
                "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":{:.3},\
                 \"name\":\"{name}\",\"args\":{{\"value\":{value}}}}}",
                max_t as f64 / 1000.0,
            );
        }
    }
    out.push_str("]}");
    out
}

/// Writes [`chrome_trace_json`] to `path`, creating parent directories.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, chrome_trace_json())
}

fn push_event(out: &mut String, tid: u32, ev: &Event) {
    let ph = match ev.phase {
        Phase::Begin => "B",
        Phase::End => "E",
        Phase::Instant => "i",
    };
    let ts = ev.t_ns as f64 / 1000.0;
    let _ = write!(
        out,
        "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{tid},\"ts\":{ts:.3},\
         \"name\":\"{}\",\"cat\":\"{}\"",
        ev.name, ev.cat
    );
    if ev.phase == Phase::Instant {
        out.push_str(",\"s\":\"t\"");
    }
    if ev.phase != Phase::End {
        let _ = write!(out, ",\"args\":{{");
        let mut first = true;
        if !ev.detail.is_empty() {
            let _ = write!(out, "\"detail\":\"{}\"", ev.detail);
            first = false;
        }
        for (k, v) in [("a", ev.a), ("b", ev.b), ("c", ev.c)] {
            if v != 0 {
                if !first {
                    out.push(',');
                }
                let _ = write!(out, "\"{k}\":{v}");
                first = false;
            }
        }
        out.push('}');
    }
    out.push('}');
}

/// Repairs one thread's event stream so begin/end pairs balance: unmatched
/// `End`s are dropped, unclosed `Begin`s are closed at the last timestamp.
fn repair(events: &[Event]) -> Vec<Event> {
    let mut out = Vec::with_capacity(events.len());
    let mut stack: Vec<&'static str> = Vec::new();
    let last_t = events.last().map_or(0, |e| e.t_ns);
    for ev in events {
        match ev.phase {
            Phase::Begin => {
                stack.push(ev.name);
                out.push(*ev);
            }
            Phase::End => {
                if stack.last() == Some(&ev.name) {
                    stack.pop();
                    out.push(*ev);
                }
                // Unmatched end (its begin fell off the ring): skip.
            }
            Phase::Instant => out.push(*ev),
        }
    }
    // Close anything still open, innermost first, at the final timestamp.
    while let Some(name) = stack.pop() {
        out.push(Event {
            name,
            cat: "obs",
            detail: "",
            phase: Phase::End,
            t_ns: last_t,
            a: 0,
            b: 0,
            c: 0,
        });
    }
    out
}

/// Validates trace-event JSON: parses it, checks the `traceEvents` schema
/// (required `ph`/`pid`/`tid`/`ts`/`name` fields), and verifies begin/end
/// events nest properly per `tid` (LIFO match by name, nothing left open).
///
/// Returns the number of span pairs checked.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let root = json::parse(text)?;
    let events = match root.get("traceEvents") {
        Some(Json::Arr(items)) => items,
        _ => return Err("missing \"traceEvents\" array".to_string()),
    };
    let mut stacks: Vec<(f64, Vec<(String, f64)>)> = Vec::new(); // (tid, open spans)
    let mut pairs = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.str_field("ph").map_err(|e| format!("event {i}: {e}"))?;
        ev.num_field("pid").map_err(|e| format!("event {i}: {e}"))?;
        let tid = ev.num_field("tid").map_err(|e| format!("event {i}: {e}"))?;
        let ts = ev.num_field("ts").map_err(|e| format!("event {i}: {e}"))?;
        let name = ev.str_field("name").map_err(|e| format!("event {i}: {e}"))?;
        match ph {
            "B" => {
                let stack = match stacks.iter_mut().find(|(t, _)| *t == tid) {
                    Some((_, s)) => s,
                    None => {
                        stacks.push((tid, Vec::new()));
                        &mut stacks.last_mut().unwrap().1
                    }
                };
                stack.push((name.to_string(), ts));
            }
            "E" => {
                let stack = stacks
                    .iter_mut()
                    .find(|(t, _)| *t == tid)
                    .map(|(_, s)| s)
                    .ok_or_else(|| format!("event {i}: E with no open span on tid {tid}"))?;
                let (open, t0) = stack
                    .pop()
                    .ok_or_else(|| format!("event {i}: E \"{name}\" with empty stack"))?;
                if open != name {
                    return Err(format!("event {i}: E \"{name}\" closes open span \"{open}\""));
                }
                if ts < t0 {
                    return Err(format!("event {i}: span \"{name}\" ends before it begins"));
                }
                pairs += 1;
            }
            "i" | "C" | "I" => {}
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some((name, _)) = stack.last() {
            return Err(format!("span \"{name}\" on tid {tid} never closes"));
        }
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, phase: Phase, t_ns: u64) -> Event {
        Event { name, cat: "test", detail: "", phase, t_ns, a: 0, b: 0, c: 0 }
    }

    #[test]
    fn repair_balances_truncated_streams() {
        // A ring that filled up mid-span: outer never ends, plus a stray
        // end whose begin predates the recorded window.
        let events = [
            ev("stray", Phase::End, 5),
            ev("outer", Phase::Begin, 10),
            ev("inner", Phase::Begin, 20),
            ev("inner", Phase::End, 30),
        ];
        let fixed = repair(&events);
        let begins = fixed.iter().filter(|e| e.phase == Phase::Begin).count();
        let ends = fixed.iter().filter(|e| e.phase == Phase::End).count();
        assert_eq!(begins, ends);
        assert!(!fixed.iter().any(|e| e.name == "stray"));
        assert_eq!(fixed.last().unwrap().name, "outer");
        assert_eq!(fixed.last().unwrap().t_ns, 30);
    }

    #[test]
    fn exporter_output_validates() {
        let _serial = crate::switch_lock();
        crate::set_tracing(true);
        {
            let _outer = crate::span("test", "export.outer");
            let _inner = crate::span_detail("test", "export.inner", "tag", 1, 2, 3);
            crate::instant("test", "export.tick", "", 9, 0, 0);
        }
        crate::set_tracing(false);
        let json = chrome_trace_json();
        let pairs = validate_chrome_trace(&json).expect("exporter output must validate");
        assert!(pairs >= 2, "expected at least the two test spans, got {pairs}");
        assert!(json.contains("\"displayTimeUnit\":\"ms\""));
        assert!(json.contains("export.inner"));
    }

    #[test]
    fn validator_rejects_bad_nesting() {
        let crossed = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":1.0,"name":"a","cat":"t"},
            {"ph":"B","pid":1,"tid":0,"ts":2.0,"name":"b","cat":"t"},
            {"ph":"E","pid":1,"tid":0,"ts":3.0,"name":"a","cat":"t"},
            {"ph":"E","pid":1,"tid":0,"ts":4.0,"name":"b","cat":"t"}]}"#;
        assert!(validate_chrome_trace(crossed).is_err());
        let unclosed = r#"{"traceEvents":[
            {"ph":"B","pid":1,"tid":0,"ts":1.0,"name":"a","cat":"t"}]}"#;
        assert!(validate_chrome_trace(unclosed).is_err());
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": 3}").is_err());
    }
}
