//! # pasta-obs — the suite's unified tracing/metrics layer
//!
//! Every crate in the workspace used to grow its own telemetry island
//! (per-kernel counter globals, the simulator's access traces).
//! This crate replaces them with one std-only layer at the bottom of the
//! dependency graph, usable from the thread pool up to the repo benchmark:
//!
//! - **[`counters()`]** — a process-wide [`CounterRegistry`] of named
//!   monotonic counters ([`CounterId`]), incremented with one relaxed
//!   `fetch_add` behind a relaxed-load gate ([`counting`], on by default,
//!   `PASTA_COUNTERS=0` disables);
//! - **[`ring`]** — lock-free per-thread span/event ring buffers behind
//!   the [`enabled`] fast path (off by default, `PASTA_TRACE=1` or
//!   [`set_tracing`] enables). When tracing is off, [`span`] is a single
//!   relaxed atomic load and records nothing — zero numeric impact on the
//!   kernels it instruments;
//! - **[`export`]** — a chrome://tracing "trace event" JSON exporter
//!   ([`chrome_trace_json`]) that repairs unbalanced begin/end pairs so
//!   the output always nests;
//! - **[`json`]** — the minimal JSON value parser behind the trace
//!   validator and the repo benchmark's manifest check.
//!
//! # Examples
//!
//! ```
//! use pasta_obs::{counters, set_tracing, span, CounterId};
//!
//! counters().add(CounterId::MttkrpResorts, 1);
//! set_tracing(true);
//! {
//!     let _outer = span("kernel", "mttkrp.coo");
//!     let _inner = span("kernel", "mttkrp.merge");
//! } // spans close in drop order, so the trace nests
//! let json = pasta_obs::chrome_trace_json();
//! assert!(json.contains("traceEvents"));
//! # pasta_obs::set_tracing(false);
//! # pasta_obs::reset_events();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counters;
pub mod export;
pub mod json;
pub mod ring;

pub use counters::{counters, CounterId, CounterRegistry, CounterSnapshot};
pub use export::{chrome_trace_json, validate_chrome_trace};
pub use ring::{
    instant, reset_events, snapshot_events, span, span_detail, Event, Phase, SpanGuard,
};

use std::sync::atomic::{AtomicU32, Ordering};

/// Flag bit: span/event recording is on.
const TRACE_BIT: u32 = 1;
/// Flag bit: counter increments are on.
const COUNT_BIT: u32 = 2;
/// Sentinel: flags not yet initialised from the environment.
const UNINIT: u32 = u32::MAX;

/// Process-wide observability flags. Initialised lazily from `PASTA_TRACE`
/// and `PASTA_COUNTERS` on first query; after that every query is a single
/// relaxed load.
static FLAGS: AtomicU32 = AtomicU32::new(UNINIT);

#[inline]
fn flags() -> u32 {
    let f = FLAGS.load(Ordering::Relaxed);
    if f == UNINIT {
        init_flags_from_env()
    } else {
        f
    }
}

#[cold]
fn init_flags_from_env() -> u32 {
    let on = |v: &str| matches!(v, "1" | "on" | "true" | "yes");
    let mut f = 0;
    if std::env::var("PASTA_TRACE").map(|v| on(&v)).unwrap_or(false) {
        f |= TRACE_BIT;
    }
    // Counters default ON (they are one relaxed fetch_add and the suite's
    // tests assert on them); PASTA_COUNTERS=0 turns them off.
    let counters_off =
        std::env::var("PASTA_COUNTERS").map(|v| matches!(v.as_str(), "0" | "off" | "false" | "no"));
    if !counters_off.unwrap_or(false) {
        f |= COUNT_BIT;
    }
    // Racing initialisers compute the same value; last store wins harmlessly.
    FLAGS.store(f, Ordering::Relaxed);
    f
}

/// Whether span/event tracing is enabled.
///
/// This is the fast path the instrumentation sites hit: after the first
/// call it compiles to one relaxed atomic load plus a bit test.
#[inline]
pub fn enabled() -> bool {
    flags() & TRACE_BIT != 0
}

/// Whether counter increments are enabled (on by default).
#[inline]
pub fn counting() -> bool {
    flags() & COUNT_BIT != 0
}

/// Turns span/event tracing on or off programmatically (the repo
/// benchmark's traced run and the test suites use this instead of the
/// `PASTA_TRACE` variable).
pub fn set_tracing(on: bool) {
    set_bit(TRACE_BIT, on);
}

/// Turns counter increments on or off programmatically.
pub fn set_counting(on: bool) {
    set_bit(COUNT_BIT, on);
}

fn set_bit(bit: u32, on: bool) {
    let cur = flags();
    let next = if on { cur | bit } else { cur & !bit };
    FLAGS.store(next, Ordering::Relaxed);
}

/// Serializes the unit tests that flip [`set_tracing`]/[`set_counting`]:
/// the switches are process-wide and cargo runs a binary's tests on
/// parallel threads, so an unlocked sibling could turn tracing off between
/// another test's span and its assertion. Recovers from poison so one
/// failing test does not fail the rest.
#[cfg(test)]
pub(crate) fn switch_lock() -> std::sync::MutexGuard<'static, ()> {
    static SWITCHES: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SWITCHES.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_toggle_independently() {
        let _serial = switch_lock();
        let trace0 = enabled();
        let count0 = counting();
        set_tracing(true);
        assert!(enabled());
        set_tracing(false);
        assert!(!enabled());
        set_counting(false);
        assert!(!counting());
        set_counting(true);
        assert!(counting());
        set_tracing(trace0);
        set_counting(count0);
    }
}
