//! Lock-free per-thread span/event ring buffers.
//!
//! Each thread that records while tracing is [`enabled`](crate::enabled)
//! lazily allocates one fixed-capacity ring and registers it in a
//! global list (the only lock in the module, taken once per thread and at
//! export). The record path is a single-producer append: the owning thread
//! writes the slot, then publishes it with a release store of the length;
//! readers acquire-load the length and see fully-written events. A full
//! ring drops new events (and counts them) rather than overwriting old
//! ones, so the recorded prefix keeps its begin/end structure.
//!
//! Span taxonomy: events carry a `cat` (subsystem: `sort`, `convert`,
//! `kernel`, `plan`, `pool`, `bench`, `sim`) and a `name`
//! (`subsystem.point`, e.g. `mttkrp.merge`), mirroring the counter naming
//! scheme, plus a static `detail` tag and three numeric args.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Events one thread can hold before new ones are dropped (counted).
pub const RING_CAPACITY: usize = 1 << 15;

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// A span opened ([`span`]).
    Begin,
    /// A span closed ([`SpanGuard`] drop).
    End,
    /// A point event ([`instant`]).
    Instant,
}

/// One recorded trace event.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Event name, `subsystem.point` (e.g. `"mttkrp.merge"`).
    pub name: &'static str,
    /// Subsystem category (e.g. `"kernel"`).
    pub cat: &'static str,
    /// Optional static tag (strategy label, format label, …; `""` if none).
    pub detail: &'static str,
    /// Begin / end / instant.
    pub phase: Phase,
    /// Nanoseconds since the process's first recorded event.
    pub t_ns: u64,
    /// First numeric argument (site-specific; 0 if unused).
    pub a: u64,
    /// Second numeric argument.
    pub b: u64,
    /// Third numeric argument.
    pub c: u64,
}

const EMPTY: Event =
    Event { name: "", cat: "", detail: "", phase: Phase::Instant, t_ns: 0, a: 0, b: 0, c: 0 };

/// One thread's event buffer. Written only by the owning thread; read by
/// the exporter (quiescent or tolerating a truncated tail).
struct Ring {
    tid: u32,
    len: AtomicUsize,
    dropped: AtomicU64,
    slots: Box<[UnsafeCell<Event>]>,
}

// SAFETY: slots below `len` are written once (before the release store of
// `len`) and only read afterwards; the single writer is the owning thread.
unsafe impl Sync for Ring {}
unsafe impl Send for Ring {}

impl Ring {
    fn new(tid: u32) -> Self {
        Self {
            tid,
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
            slots: (0..RING_CAPACITY).map(|_| UnsafeCell::new(EMPTY)).collect(),
        }
    }

    /// Appends an event (owning thread only).
    fn push(&self, ev: Event) {
        let i = self.len.load(Ordering::Relaxed);
        if i >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: only the owning thread writes, and slot `i` is not yet
        // published (readers stop at the acquire-loaded `len`).
        unsafe { *self.slots[i].get() = ev };
        self.len.store(i + 1, Ordering::Release);
    }

    fn snapshot(&self) -> Vec<Event> {
        let n = self.len.load(Ordering::Acquire).min(self.slots.len());
        // SAFETY: slots below `n` were published by the release store.
        (0..n).map(|i| unsafe { *self.slots[i].get() }).collect()
    }
}

/// All rings ever registered (one per recording thread).
fn rings() -> &'static Mutex<Vec<Arc<Ring>>> {
    static RINGS: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    RINGS.get_or_init(|| Mutex::new(Vec::new()))
}

/// The common time origin for every thread's timestamps.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
}

fn with_local_ring(f: impl FnOnce(&Ring)) {
    LOCAL.with(|cell| {
        let ring = cell.get_or_init(|| {
            let mut all = rings().lock().unwrap();
            let ring = Arc::new(Ring::new(all.len() as u32));
            all.push(Arc::clone(&ring));
            ring
        });
        f(ring);
    });
}

fn record(
    phase: Phase,
    cat: &'static str,
    name: &'static str,
    detail: &'static str,
    args: [u64; 3],
) {
    let t_ns = anchor().elapsed().as_nanos() as u64;
    with_local_ring(|ring| {
        ring.push(Event { name, cat, detail, phase, t_ns, a: args[0], b: args[1], c: args[2] });
    });
}

/// An RAII span: records a begin event now and the matching end event on
/// drop. When tracing is disabled the guard is inert and records nothing.
#[derive(Debug)]
#[must_use = "a span closes when the guard drops; binding it to _ closes it immediately"]
pub struct SpanGuard {
    armed: bool,
    cat: &'static str,
    name: &'static str,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.armed {
            record(Phase::End, self.cat, self.name, "", [0; 3]);
        }
    }
}

/// Opens a span. The hot-path cost when tracing is off is the
/// [`enabled`](crate::enabled) relaxed load.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> SpanGuard {
    span_detail(cat, name, "", 0, 0, 0)
}

/// Opens a span whose begin event carries a static tag and numeric args.
#[inline]
pub fn span_detail(
    cat: &'static str,
    name: &'static str,
    detail: &'static str,
    a: u64,
    b: u64,
    c: u64,
) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { armed: false, cat, name };
    }
    record(Phase::Begin, cat, name, detail, [a, b, c]);
    SpanGuard { armed: true, cat, name }
}

/// Records a point event (no duration).
#[inline]
pub fn instant(
    cat: &'static str,
    name: &'static str,
    detail: &'static str,
    a: u64,
    b: u64,
    c: u64,
) {
    if crate::enabled() {
        record(Phase::Instant, cat, name, detail, [a, b, c]);
    }
}

/// Snapshots every thread's recorded events as `(tid, events, dropped)`.
pub fn snapshot_events() -> Vec<(u32, Vec<Event>, u64)> {
    rings()
        .lock()
        .unwrap()
        .iter()
        .map(|r| (r.tid, r.snapshot(), r.dropped.load(Ordering::Relaxed)))
        .collect()
}

/// Empties every ring. Only meaningful while no thread is recording
/// (between runs); a concurrent writer may interleave with the reset.
pub fn reset_events() {
    for ring in rings().lock().unwrap().iter() {
        ring.len.store(0, Ordering::Release);
        ring.dropped.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = crate::switch_lock();
        crate::set_tracing(false);
        let before: usize = snapshot_events().iter().map(|(_, e, _)| e.len()).sum();
        {
            let _s = span("test", "test.noop");
            instant("test", "test.point", "", 1, 2, 3);
        }
        let after: usize = snapshot_events().iter().map(|(_, e, _)| e.len()).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn spans_nest_and_instants_interleave() {
        let _serial = crate::switch_lock();
        crate::set_tracing(true);
        {
            let _outer = span_detail("test", "test.outer", "tag", 7, 8, 9);
            instant("test", "test.mid", "", 1, 0, 0);
            let _inner = span("test", "test.inner");
        }
        crate::set_tracing(false);
        let mine: Vec<Event> = snapshot_events()
            .into_iter()
            .flat_map(|(_, evs, _)| evs)
            .filter(|e| e.cat == "test" && e.name.starts_with("test."))
            .collect();
        let outer_b = mine
            .iter()
            .position(|e| e.name == "test.outer" && e.phase == Phase::Begin)
            .expect("outer begin");
        let rest = &mine[outer_b..];
        assert!(rest.iter().any(|e| e.name == "test.mid" && e.phase == Phase::Instant));
        let inner_e =
            rest.iter().position(|e| e.name == "test.inner" && e.phase == Phase::End).unwrap();
        let outer_e =
            rest.iter().position(|e| e.name == "test.outer" && e.phase == Phase::End).unwrap();
        assert!(inner_e < outer_e, "inner span must close before outer");
        assert_eq!(rest[0].detail, "tag");
        assert_eq!(rest[0].a, 7);
    }
}
