//! `tlp-obs` — zero-dependency structured tracing and metrics.
//!
//! The experiment pipeline is a long chain of opaque stages — offline
//! profiling, DVFS operating-point search, the power↔temperature↔leakage
//! fixpoint, the parallel sweep — and the only visibility used to be the
//! final JSON blob plus stderr timing. This crate is the instrumentation
//! substrate every layer of the workspace records into:
//!
//! - **Spans** ([`span`], [`span_with`]): RAII guards that record a named,
//!   timed interval on the current thread. Spans nest; each records the
//!   innermost open span on its thread as its logical parent, so a trace
//!   reconstructs the call tree.
//! - **Counters and histograms** ([`metrics`]): a fixed, statically
//!   allocated set of monotonic counters (sim cycles retired, barrier
//!   stall cycles, cache misses, fixpoint iterations, LU factor/solve
//!   counts, retry attempts, …) and power-of-two histograms.
//! - **Two sinks**: a Chrome `trace_event` JSON file loadable in
//!   `about:tracing` / [Perfetto](https://ui.perfetto.dev) ([`chrome`]),
//!   and a human summary table ([`summary`]).
//!
//! # Recording model
//!
//! Recording is **off by default** and gated on one relaxed atomic load:
//! every instrumentation site first checks [`enabled`] and returns
//! immediately when tracing is off — no thread-local access, no
//! allocation, no lock. The disabled path is designed to stay within
//! noise of an uninstrumented build.
//!
//! A capture records only the thread that called [`capture`] and the
//! threads that explicitly join it: a thread spawned under a capture
//! takes the parent's [`recording`] handle and [`Recording::enter`]s it
//! (the sweep pool does this for every worker it starts). Work on any
//! other thread — a concurrent test, a daemon's connection handler —
//! neither opens spans nor advances counters in the capture, even
//! though it runs while the capture is active.
//!
//! Each recording thread buffers its events in a thread-local vector
//! (shared with the collector behind a mutex that is only ever contended
//! at flush time). The sweep pool's scope join is the
//! synchronization point: once `pool::run` returns, every worker's
//! buffer is complete, and [`capture`] drains them into a single
//! [`Trace`].
//!
//! # Coherent parallel traces
//!
//! Scheduling order is nondeterministic, so a trace's *byte* content
//! (timestamps, thread ids, event order) differs run to run. The *span
//! tree* does not: parents are logical (innermost open span on the
//! recording thread), span names and details are derived from the work
//! item, not the worker, and [`Trace::span_tree`] renders the tree with
//! timestamps and thread ids stripped and siblings sorted canonically.
//! A parallel sweep therefore yields the same rendered span tree as a
//! serial one — a property the workspace pins with a determinism test.
//!
//! # Example
//!
//! ```
//! let (value, trace) = tlp_obs::capture(|| {
//!     let _outer = tlp_obs::span("outer");
//!     {
//!         let _inner = tlp_obs::span_with("inner", || "detail".to_string());
//!     }
//!     tlp_obs::metrics::SWEEP_RETRY_ATTEMPTS.add(3);
//!     42
//! });
//! assert_eq!(value, 42);
//! assert_eq!(trace.spans.len(), 2);
//! assert!(trace.span_tree().contains("outer"));
//! let json = tlp_obs::chrome::render(&trace);
//! assert!(json.starts_with("{\"traceEvents\":"));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cancel;
pub mod chrome;
pub mod metrics;
pub mod prometheus;
pub mod summary;
mod trace;

pub use trace::{SpanRec, Trace};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Epoch of the capture that is recording, 0 when none is.
/// Instrumentation sites check this first; with no capture active they
/// cost one relaxed atomic load.
static ACTIVE: AtomicU64 = AtomicU64::new(0);

/// Epoch source: every capture gets a fresh one, so a thread left over
/// from an earlier capture never records into a later one.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

/// Monotonic span-id source (0 is reserved for "no parent").
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Sequential thread-id source for trace `tid`s (stable small integers,
/// not OS thread ids).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

/// The capture epoch's time origin.
static START: OnceLock<Instant> = OnceLock::new();

/// All per-thread buffers ever registered; drained (not removed) at the
/// end of each capture. Buffers persist across captures because the
/// thread-local handle does.
static REGISTRY: Mutex<Vec<Arc<Mutex<Vec<SpanRec>>>>> = Mutex::new(Vec::new());

/// One capture at a time: [`capture`] holds this for its whole closure so
/// concurrent captures (e.g. parallel tests) serialize instead of
/// interleaving their events.
static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

struct ThreadBuffer {
    tid: u64,
    /// Stack of open span ids on this thread (logical parent chain).
    stack: Vec<u64>,
    events: Arc<Mutex<Vec<SpanRec>>>,
}

thread_local! {
    static BUFFER: RefCell<Option<ThreadBuffer>> = const { RefCell::new(None) };
    /// Epoch of the capture this thread records into (0: none).
    static JOINED: Cell<u64> = const { Cell::new(0) };
}

/// Whether the current thread is recording into an active capture.
/// Instrumentation may use this to skip building expensive details;
/// [`span`]/[`span_with`] and the metric types already check it
/// internally.
#[inline]
pub fn enabled() -> bool {
    let active = ACTIVE.load(Ordering::Relaxed);
    active != 0 && JOINED.with(Cell::get) == active
}

/// Membership in a capture, to hand to a thread spawned under it; see
/// [`recording`].
#[derive(Debug, Clone, Copy)]
pub struct Recording {
    epoch: u64,
}

/// The capture the current thread records into. A thread spawned under
/// a capture records into it only after [`Recording::enter`]ing this
/// handle; taken outside any capture, the handle records nothing.
pub fn recording() -> Recording {
    Recording {
        epoch: JOINED.with(Cell::get),
    }
}

impl Recording {
    /// Makes the current thread record into this handle's capture until
    /// the guard drops (which restores what the thread recorded into
    /// before).
    pub fn enter(self) -> RecordingGuard {
        RecordingGuard {
            prev: JOINED.with(|j| j.replace(self.epoch)),
        }
    }
}

/// Restores the thread's previous capture membership when dropped.
#[must_use = "dropping the guard immediately leaves the capture"]
pub struct RecordingGuard {
    prev: u64,
}

impl Drop for RecordingGuard {
    fn drop(&mut self) {
        JOINED.with(|j| j.set(self.prev));
    }
}

fn now_ns() -> u64 {
    START
        .get()
        .map(|s| s.elapsed().as_nanos() as u64)
        .unwrap_or(0)
}

/// Runs `f` with recording enabled on the current thread and returns its
/// value plus the collected [`Trace`]. Threads `f` starts record into the
/// capture only if they [`Recording::enter`] the caller's [`recording`].
///
/// Captures serialize on a global lock: a second concurrent `capture`
/// blocks until the first finishes, so traces never interleave. Do not
/// nest `capture` calls — the inner one would deadlock on that lock.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Trace) {
    let _guard = match CAPTURE_LOCK.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    // Reset the epoch: drain stale events (from threads whose buffers
    // outlived a panicked capture), zero the metrics, restart the clock.
    drain_all();
    metrics::reset_all();
    let _ = START.set(Instant::now());
    let epoch = NEXT_EPOCH.fetch_add(1, Ordering::Relaxed);
    let value = {
        let _joined = Recording { epoch }.enter();
        ACTIVE.store(epoch, Ordering::SeqCst);
        let value = f();
        ACTIVE.store(0, Ordering::SeqCst);
        value
    };
    let mut spans = drain_all();
    spans.sort_by_key(|a| (a.start_ns, a.tid, a.id));
    let trace = Trace {
        spans,
        counters: metrics::counter_snapshot(),
        histograms: metrics::histogram_snapshot(),
    };
    (value, trace)
}

fn drain_all() -> Vec<SpanRec> {
    let registry = match REGISTRY.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    let mut all = Vec::new();
    for buf in registry.iter() {
        let mut events = match buf.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        all.append(&mut events);
    }
    all
}

fn with_buffer<T>(f: impl FnOnce(&mut ThreadBuffer) -> T) -> T {
    BUFFER.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let events = Arc::new(Mutex::new(Vec::new()));
            REGISTRY
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(Arc::clone(&events));
            ThreadBuffer {
                tid: NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed),
                stack: Vec::new(),
                events,
            }
        });
        f(buf)
    })
}

/// RAII guard for one recorded span; created by [`span`] / [`span_with`].
/// The interval is recorded when the guard drops. When tracing is
/// disabled the guard is inert and costs nothing to drop.
#[must_use = "a span records the interval until the guard drops"]
pub struct SpanGuard {
    /// `None` when recording was disabled at creation.
    open: Option<OpenSpan>,
}

struct OpenSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    detail: String,
    start_ns: u64,
}

/// Opens a span named `name` on the current thread. The span closes —
/// and is recorded — when the returned guard drops.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    open_span(name, String::new())
}

/// Opens a span with a lazily built detail string (e.g. the sweep cell
/// `"fft@4"`). The closure only runs when a capture is active, so the
/// disabled path never allocates.
#[inline]
pub fn span_with(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    open_span(name, detail())
}

fn open_span(name: &'static str, detail: String) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, start_ns) = with_buffer(|buf| {
        let parent = buf.stack.last().copied().unwrap_or(0);
        buf.stack.push(id);
        (parent, now_ns())
    });
    SpanGuard {
        open: Some(OpenSpan {
            id,
            parent,
            name,
            detail,
            start_ns,
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        with_buffer(|buf| {
            // Pop this span (and, defensively, anything opened after it
            // that leaked without dropping — drop order makes that
            // impossible in safe code, but a forgotten guard should not
            // corrupt the whole stack).
            while let Some(top) = buf.stack.pop() {
                if top == open.id {
                    break;
                }
            }
            let rec = SpanRec {
                id: open.id,
                parent: open.parent,
                tid: buf.tid,
                name: open.name,
                detail: open.detail,
                start_ns: open.start_ns,
                dur_ns: end_ns.saturating_sub(open.start_ns),
            };
            buf.events
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(rec);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_records_nothing() {
        assert!(!enabled());
        let g = span("never");
        assert!(g.open.is_none());
        drop(g);
    }

    #[test]
    fn capture_records_nested_spans_with_logical_parents() {
        let ((), trace) = capture(|| {
            let _a = span("outer");
            let _b = span_with("inner", || "x=1".to_string());
        });
        assert_eq!(trace.spans.len(), 2);
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.detail, "x=1");
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let ((), trace) = capture(|| {
            let _root = span("root");
            for _ in 0..3 {
                let _leaf = span("leaf");
            }
        });
        let root_id = trace.spans.iter().find(|s| s.name == "root").unwrap().id;
        let leaves: Vec<_> = trace.spans.iter().filter(|s| s.name == "leaf").collect();
        assert_eq!(leaves.len(), 3);
        assert!(leaves.iter().all(|s| s.parent == root_id));
    }

    #[test]
    fn spans_from_spawned_threads_are_collected() {
        let ((), trace) = capture(|| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    let rec = recording();
                    std::thread::spawn(move || {
                        let _joined = rec.enter();
                        let _s = span_with("worker", move || format!("w{i}"));
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        });
        let workers: Vec<_> = trace.spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 4);
        // Spawned-thread spans are top-level: their logical parent is the
        // thread's own (empty) stack, not whatever another thread had open.
        assert!(workers.iter().all(|s| s.parent == 0));
    }

    #[test]
    fn unrelated_threads_record_nothing_into_a_capture() {
        use std::sync::atomic::AtomicBool;
        // A thread that never joined the capture keeps opening spans and
        // bumping a counter while the capture is active; none of it may
        // land in the trace.
        let stop = Arc::new(AtomicBool::new(false));
        let rounds = Arc::new(AtomicU64::new(0));
        let unrelated = {
            let (stop, rounds) = (Arc::clone(&stop), Arc::clone(&rounds));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    {
                        let _s = span("unrelated");
                        metrics::SWEEP_RETRY_ATTEMPTS.incr();
                    }
                    rounds.fetch_add(1, Ordering::SeqCst);
                    std::thread::yield_now();
                }
            })
        };
        let ((), trace) = capture(|| {
            let _s = span("mine");
            // Two rounds that both start after recording switched on.
            let seen = rounds.load(Ordering::SeqCst);
            while rounds.load(Ordering::SeqCst) < seen + 2 {
                std::thread::yield_now();
            }
        });
        stop.store(true, Ordering::SeqCst);
        unrelated.join().unwrap();
        let names: Vec<_> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["mine"]);
        assert_eq!(trace.counter("sweep.retry_attempts"), Some(0));
    }

    #[test]
    fn a_recording_handle_outlives_its_capture_harmlessly() {
        let (rec, _) = capture(recording);
        let ((), trace) = capture(|| {
            std::thread::spawn(move || {
                let _stale = rec.enter();
                let _s = span("stale");
            })
            .join()
            .unwrap();
        });
        assert!(trace.spans.is_empty(), "{:?}", trace.spans);
    }

    #[test]
    fn consecutive_captures_do_not_leak_events() {
        let ((), first) = capture(|| {
            let _s = span("first-only");
        });
        let ((), second) = capture(|| {
            let _s = span("second-only");
        });
        assert!(first.spans.iter().any(|s| s.name == "first-only"));
        assert!(second.spans.iter().all(|s| s.name != "first-only"));
        assert_eq!(second.spans.len(), 1);
    }

    #[test]
    fn capture_resets_metrics() {
        let ((), t1) = capture(|| metrics::SWEEP_RETRY_ATTEMPTS.add(5));
        let ((), t2) = capture(|| ());
        let get = |t: &Trace| {
            t.counters
                .iter()
                .find(|(n, _)| *n == "sweep.retry_attempts")
                .map(|(_, v)| *v)
        };
        assert_eq!(get(&t1), Some(5));
        assert_eq!(get(&t2), Some(0));
    }

    #[test]
    fn detail_closure_is_lazy_when_disabled() {
        let _g = span_with("lazy", || panic!("must not run while disabled"));
    }
}
