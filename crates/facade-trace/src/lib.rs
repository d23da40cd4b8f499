//! Lightweight structured tracing for the facade-rs stack.
//!
//! Every layer of the reproduction — the generational heap, the page pool,
//! the frameworks — emits *spans* (named durations) and *instants* (named
//! points in time) through this crate. Recording goes to per-thread buffers
//! guarded by uncontended mutexes; a drain collects every thread's events
//! into one timeline. Timestamps are monotonic nanoseconds measured from a
//! process-wide epoch that is pinned by the first event, so events recorded
//! on different threads order correctly.
//!
//! # Arming
//!
//! Recording is compiled into every build and **disarmed until
//! [`set_enabled`]`(true)`** arms it for the whole process. Call sites stay
//! unconditional: while disarmed each entry point is one relaxed load and
//! a return. A span is recorded iff recording was armed when it started;
//! an instant or retroactive [`complete`] span iff it was armed when the
//! call was made.
//!
//! # Usage
//!
//! ```
//! facade_trace::set_enabled(true);
//!
//! // A span measures the lifetime of its guard.
//! {
//!     let _span = facade_trace::span!("exec_interval", shard = 3usize);
//!     // ... work ...
//! } // guard drops, span is recorded
//!
//! facade_trace::instant("fault_injected", &[("kind", "pool_acquire".into())]);
//!
//! let events = facade_trace::drain();
//! assert!(events.iter().any(|e| e.name == "exec_interval"));
//! ```
//!
//! # Export
//!
//! [`chrome::render`] turns a drained timeline into Chrome `trace_event`
//! JSON (load it at `chrome://tracing` or <https://ui.perfetto.dev>, or
//! feed it to `facadeprof`). See `docs/OBSERVABILITY.md`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One argument value attached to a span or instant event.
///
/// Constructed via `From` impls so call sites can write `("pages", 3.into())`
/// or use the [`span!`] macro's `key = value` sugar.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Signed integer argument.
    Int(i64),
    /// Unsigned integer argument.
    UInt(u64),
    /// Floating-point argument.
    Float(f64),
    /// Static string argument (no allocation).
    Str(&'static str),
    /// Owned string argument.
    Text(String),
}

macro_rules! arg_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for ArgValue {
            fn from(v: $t) -> Self {
                ArgValue::UInt(v as u64)
            }
        }
    )*};
}
macro_rules! arg_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for ArgValue {
            fn from(v: $t) -> Self {
                ArgValue::Int(v as i64)
            }
        }
    )*};
}
arg_from_uint!(u8, u16, u32, u64, usize);
arg_from_int!(i8, i16, i32, i64, isize);

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}
impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::UInt(v as u64)
    }
}
impl From<&'static str> for ArgValue {
    fn from(v: &'static str) -> Self {
        ArgValue::Str(v)
    }
}
impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Text(v)
    }
}

/// What kind of event a [`TraceEvent`] is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A completed span: a named duration starting at `ts_ns`.
    Span {
        /// Span duration in nanoseconds.
        dur_ns: u64,
    },
    /// A point event with no duration (fault injections, ladder steps).
    Instant,
}

/// One recorded event, as returned by [`drain`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name; shared by every occurrence of the same span.
    pub name: &'static str,
    /// Small dense id of the recording thread (1-based, assigned on first
    /// event per thread; stable for the thread's lifetime). Ids of exited
    /// threads are reused, so an engine spawning short-lived workers per
    /// interval maps onto a handful of trace tracks instead of thousands;
    /// a reusing thread starts strictly after the previous owner exited,
    /// so the shared track stays time-disjoint.
    pub tid: u64,
    /// Start time in nanoseconds since the process trace epoch.
    pub ts_ns: u64,
    /// Span or instant payload.
    pub kind: EventKind,
    /// Key/value arguments attached at the call site.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// RAII guard returned by [`span()`]/[`span_with`]; recording happens when it
/// drops. Bind it (`let _span = ...`) for the region you want timed —
/// `let _ = ...` drops immediately and records a zero-length span.
#[must_use = "a span measures the lifetime of its guard; bind it with `let _span = ...`"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    start_ns: u64,
    args: Vec<(&'static str, ArgValue)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(active) = self.active.take() {
            let dur_ns = now_ns().saturating_sub(active.start_ns);
            push(TraceEvent {
                name: active.name,
                tid: thread_id(),
                ts_ns: active.start_ns,
                kind: EventKind::Span { dur_ns },
                args: active.args,
            });
        }
    }
}

/// The process-wide recording gate; see [`set_enabled`]. Relaxed on both
/// sides: it publishes no data, and a thread that sees a switch late only
/// shifts which events fall inside the armed window.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Arms (`true`) or disarms (`false`) recording for the whole process.
/// Disarming keeps what is already buffered for the next [`drain`]; a span
/// open across the switch is recorded iff it started armed.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is armed (see [`set_enabled`]).
#[inline]
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts a span with no arguments; the returned guard records it on drop.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_with(name, &[])
}

/// Starts a span with arguments; the returned guard records it on drop.
///
/// Prefer the [`span!`] macro, which builds the argument slice for you.
#[inline]
pub fn span_with(name: &'static str, args: &[(&'static str, ArgValue)]) -> SpanGuard {
    SpanGuard {
        active: is_enabled().then(|| ActiveSpan {
            name,
            start_ns: now_ns(),
            args: args.to_vec(),
        }),
    }
}

/// Records a span retroactively from an [`Instant`] captured earlier.
///
/// For code that already times itself (the GC keeps its own `start`), this
/// avoids a guard: call it once at the end with the original start time.
#[inline]
pub fn complete(name: &'static str, started: Instant, args: &[(&'static str, ArgValue)]) {
    if !is_enabled() {
        return;
    }
    let dur_ns = saturating_ns(started.elapsed().as_nanos());
    let ts_ns = now_ns().saturating_sub(dur_ns);
    push(TraceEvent {
        name,
        tid: thread_id(),
        ts_ns,
        kind: EventKind::Span { dur_ns },
        args: args.to_vec(),
    });
}

/// Records a point event (a fault injection, a degradation-ladder step).
#[inline]
pub fn instant(name: &'static str, args: &[(&'static str, ArgValue)]) {
    if !is_enabled() {
        return;
    }
    push(TraceEvent {
        name,
        tid: thread_id(),
        ts_ns: now_ns(),
        kind: EventKind::Instant,
        args: args.to_vec(),
    });
}

/// Collects every thread's buffered events into one timeline sorted by
/// start time, emptying the buffers. Returns an empty vec when nothing was
/// recorded since the last drain. Threads may keep recording afterwards;
/// only events already buffered are taken.
pub fn drain() -> Vec<TraceEvent> {
    let mut registry = registry().lock().expect("trace registry poisoned");
    let mut events = Vec::new();
    for buffer in registry.iter() {
        let mut local = buffer.events.lock().expect("trace buffer poisoned");
        events.append(&mut local);
    }
    // Buffers of exited threads (the registry holds the only reference)
    // are now empty and will never fill again; drop them so a long run
    // spawning many short-lived workers keeps the registry bounded.
    registry.retain(|b| Arc::strong_count(b) > 1);
    drop(registry);
    events.sort_by_key(|e| e.ts_ns);
    events
}

/// Discards all buffered events without returning them.
pub fn reset() {
    let _ = drain();
    let _ = take_events_dropped();
}

/// Default per-thread buffer capacity, in events. Generous: a full bench
/// sweep records a few thousand events per thread, so the cap only bites
/// on pathological runs (tracing left on for hours without a drain).
pub const DEFAULT_BUFFER_CAP: usize = 1 << 20;

/// Caps each thread-local buffer at `cap` events (minimum 1). Once a
/// thread's buffer is full, further events on that thread are counted (see
/// [`take_events_dropped`]) instead of growing the buffer — mirroring the
/// ResilienceReport's bounded event log. A [`drain`] empties the buffers,
/// so capped threads record again afterwards.
///
/// The initial capacity is [`DEFAULT_BUFFER_CAP`].
pub fn set_buffer_capacity(cap: usize) {
    BUFFER_CAP.store(cap.max(1), Ordering::Relaxed);
}

/// Returns the number of events discarded because a thread-local buffer hit
/// its capacity since the last call (or process start), and resets it to
/// zero — the per-drain accounting the bench trace exporter prints next to
/// its event count.
pub fn take_events_dropped() -> u64 {
    dropped_counter().swap(0, Ordering::Relaxed)
}

/// Starts a span; sugar over [`span_with`].
///
/// ```
/// facade_trace::set_enabled(true);
/// let interval = 3usize;
/// let _span = facade_trace::span!("exec_interval", interval = interval, pass = 0usize);
/// drop(_span);
/// let events = facade_trace::drain();
/// assert_eq!(events[0].args[0], ("interval", facade_trace::ArgValue::from(3usize)));
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::span_with(
            $name,
            &[$((stringify!($key), $crate::ArgValue::from($value))),+],
        )
    };
}

// ---------------------------------------------------------------------------
// Recording internals.
// ---------------------------------------------------------------------------

fn saturating_ns(n: u128) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    saturating_ns(epoch().elapsed().as_nanos())
}

struct ThreadBuffer {
    tid: u64,
    events: Mutex<Vec<TraceEvent>>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuffer>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuffer>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Tids handed back by exited threads, reused before minting new ones.
fn free_tids() -> &'static Mutex<Vec<u64>> {
    static FREE: OnceLock<Mutex<Vec<u64>>> = OnceLock::new();
    FREE.get_or_init(|| Mutex::new(Vec::new()))
}

/// The thread-local's owner; its drop (thread exit) recycles the tid.
struct LocalHandle {
    buffer: Arc<ThreadBuffer>,
}

impl Drop for LocalHandle {
    fn drop(&mut self) {
        if let Ok(mut free) = free_tids().lock() {
            free.push(self.buffer.tid);
        }
    }
}

fn local_buffer() -> Arc<ThreadBuffer> {
    thread_local! {
        static LOCAL: LocalHandle = {
            static NEXT_TID: AtomicU64 = AtomicU64::new(1);
            let tid = free_tids()
                .lock()
                .ok()
                .and_then(|mut free| free.pop())
                .unwrap_or_else(|| NEXT_TID.fetch_add(1, Ordering::Relaxed));
            let buffer = Arc::new(ThreadBuffer {
                tid,
                events: Mutex::new(Vec::new()),
            });
            registry()
                .lock()
                .expect("trace registry poisoned")
                .push(Arc::clone(&buffer));
            LocalHandle { buffer }
        };
    }
    LOCAL.with(|handle| Arc::clone(&handle.buffer))
}

fn thread_id() -> u64 {
    local_buffer().tid
}

/// The live buffer capacity: [`DEFAULT_BUFFER_CAP`] until
/// [`set_buffer_capacity`] changes it.
static BUFFER_CAP: AtomicUsize = AtomicUsize::new(DEFAULT_BUFFER_CAP);

fn dropped_counter() -> &'static AtomicU64 {
    static DROPPED: OnceLock<AtomicU64> = OnceLock::new();
    DROPPED.get_or_init(|| AtomicU64::new(0))
}

fn push(event: TraceEvent) {
    let buffer = local_buffer();
    let mut events = buffer.events.lock().expect("trace buffer poisoned");
    if events.len() >= BUFFER_CAP.load(Ordering::Relaxed) {
        drop(events);
        dropped_counter().fetch_add(1, Ordering::Relaxed);
        return;
    }
    events.push(event);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry and epoch are process-global, and the test harness runs
    // tests on concurrent threads. Every test filters drained events by
    // names unique to itself, which keeps foreign events out of its
    // assertions; holding `serial()` keeps another test's `drain()` from
    // taking its own events first. Every test starts armed.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        // A failed test poisons the lock; the next one still has to run.
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        guard
    }

    #[test]
    fn a_span_is_recorded_iff_it_started_armed() {
        let _serial = serial();
        let armed_at_start = span("t_gate_armed_start");
        set_enabled(false);
        let disarmed_at_start = span("t_gate_disarmed_start");
        instant("t_gate_instant", &[]);
        complete("t_gate_complete", Instant::now(), &[]);
        drop(armed_at_start);
        set_enabled(true);
        drop(disarmed_at_start);
        let names: Vec<_> = drain().iter().map(|e| e.name).collect();
        assert!(names.contains(&"t_gate_armed_start"));
        for name in ["t_gate_disarmed_start", "t_gate_instant", "t_gate_complete"] {
            assert!(!names.contains(&name), "{name} recorded while disarmed");
        }
    }

    #[test]
    fn spans_nest_and_order() {
        let _serial = serial();
        {
            let _outer = span!("t_nest_outer", level = 0usize);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span!("t_nest_inner", level = 1usize);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let events = drain();
        let outer = events
            .iter()
            .find(|e| e.name == "t_nest_outer")
            .expect("outer span recorded");
        let inner = events
            .iter()
            .find(|e| e.name == "t_nest_inner")
            .expect("inner span recorded");
        let (EventKind::Span { dur_ns: outer_dur }, EventKind::Span { dur_ns: inner_dur }) =
            (&outer.kind, &inner.kind)
        else {
            panic!("both events must be spans");
        };
        // Inner starts after outer and finishes before it: proper nesting.
        assert!(inner.ts_ns >= outer.ts_ns, "inner starts within outer");
        assert!(
            inner.ts_ns + inner_dur <= outer.ts_ns + outer_dur,
            "inner ends within outer"
        );
        assert!(outer_dur > inner_dur, "outer strictly contains inner");
        assert_eq!(outer.tid, inner.tid, "same thread, same tid");
        assert_eq!(outer.args, vec![("level", ArgValue::UInt(0))]);
    }

    #[test]
    fn threads_get_distinct_tids_and_one_timeline() {
        let _serial = serial();
        // The barrier keeps every thread alive until all four have recorded
        // their span: live threads must have distinct tids (only exited
        // threads recycle theirs).
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    {
                        let _span = span!("t_interleave", worker = i);
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    } // guard drops here, recording the span and pinning the tid
                    barrier.wait();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let events = drain();
        let mine: Vec<_> = events.iter().filter(|e| e.name == "t_interleave").collect();
        assert_eq!(mine.len(), 4, "one span per worker thread");
        let mut tids: Vec<u64> = mine.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4, "each thread has its own tid");
        // drain() returns a single merged timeline sorted by start time.
        let ts: Vec<u64> = events.iter().map(|e| e.ts_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "sorted by ts");
    }

    #[test]
    fn exited_threads_recycle_their_tids() {
        let _serial = serial();
        // 20 sequential threads, each exiting before the next starts: tids
        // must be reused, not minted fresh each time. Other tests run
        // concurrently and may steal a freed tid occasionally, so assert a
        // generous bound rather than exact reuse.
        let mut tids = Vec::new();
        for i in 0..20u64 {
            let h = std::thread::spawn(move || {
                instant("t_tid_reuse", &[("round", i.into())]);
            });
            h.join().unwrap();
        }
        for e in drain() {
            if e.name == "t_tid_reuse" {
                tids.push(e.tid);
            }
        }
        assert_eq!(tids.len(), 20);
        tids.sort_unstable();
        tids.dedup();
        assert!(
            tids.len() <= 10,
            "sequential threads should mostly share tids, got {} distinct",
            tids.len()
        );
    }

    #[test]
    fn complete_records_retroactive_span() {
        let _serial = serial();
        let started = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        complete("t_complete", started, &[("bytes", 512u64.into())]);
        let events = drain();
        let ev = events
            .iter()
            .find(|e| e.name == "t_complete")
            .expect("retroactive span recorded");
        let EventKind::Span { dur_ns } = ev.kind else {
            panic!("must be a span");
        };
        assert!(dur_ns >= 1_000_000, "covers the sleep, got {dur_ns}ns");
        assert_eq!(ev.args, vec![("bytes", ArgValue::UInt(512))]);
    }

    #[test]
    fn instants_record() {
        let _serial = serial();
        instant("t_instant", &[("kind", "test".into())]);
        let events = drain();
        assert!(
            events
                .iter()
                .any(|e| e.name == "t_instant" && e.kind == EventKind::Instant)
        );
    }

    #[test]
    fn drain_empties_buffers() {
        let _serial = serial();
        instant("t_drain_once", &[]);
        let first = drain();
        assert!(first.iter().any(|e| e.name == "t_drain_once"));
        let second = drain();
        assert!(
            !second.iter().any(|e| e.name == "t_drain_once"),
            "drained events are not returned twice"
        );
    }
}
