//! In-tree scoped-thread work-stealing pool.
//!
//! The workspace is dependency-free by design, so this is a small,
//! honest work-stealing scheduler built on [`std::thread::scope`]:
//!
//! - Every worker owns a deque. [`Pool::spawn`] distributes new tasks
//!   round-robin; a worker pops its own deque LIFO (newest first, for
//!   cache warmth) and steals FIFO from the other workers' deques when
//!   its own runs dry (oldest first, which tends to steal the largest
//!   remaining subtrees).
//! - Tasks may spawn further tasks — the sweep engine uses this for its
//!   profile/cell graph: a cell task is spawned by whichever of its two
//!   inputs (the row's anchor task, the cell's own profile task)
//!   finishes last, with no barrier between phases or rows.
//! - Workers record into the caller's trace capture, if it has one
//!   ([`tlp_obs::recording`]), so a traced sweep sees its tasks' spans
//!   and counters — and no other thread's.
//! - [`run`] returns once every task, including transitively spawned
//!   ones, has finished. A panicking task takes its worker down but
//!   still counts as finished (so the remaining workers drain and exit),
//!   and the scope re-raises the panic on join.
//! - [`run_watched`] adds a per-task watchdog: tasks spawned with
//!   [`Pool::spawn_watched`] get a [`tlp_obs::cancel::CancelToken`]
//!   installed for their duration, and a dedicated watchdog thread fires
//!   the token once the task has been executing longer than the
//!   deadline. Cancellation is *cooperative* — the substrate loops
//!   (simulator stride checks, thermal fixpoint iterations) poll the
//!   token and return a typed `DeadlineExceeded` error — so a hung cell
//!   becomes an ordinary failed outcome while the pool keeps draining.
//!   Nothing is ever killed mid-write.
//!
//! Scheduling order is *not* deterministic; users that need
//! deterministic output (the sweep runner does — its parallel output
//! must be byte-identical to serial) write results into pre-indexed
//! slots and reduce in index order afterwards.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use tlp_obs::cancel::CancelToken;

struct Task<'scope> {
    f: Box<dyn FnOnce(&Pool<'scope>) + Send + 'scope>,
    watched: bool,
}

/// What the watchdog sees of one worker: the watched task it is
/// currently executing, if any.
struct RunningTask {
    started: Instant,
    token: CancelToken,
    fired: bool,
}

/// Handle through which running tasks spawn further tasks; created by
/// [`run`] / [`run_watched`] and passed to every task.
pub struct Pool<'scope> {
    queues: Vec<Mutex<VecDeque<Task<'scope>>>>,
    /// Tasks spawned but not yet finished (queued or executing). The
    /// pool is done when this reaches zero.
    pending: AtomicUsize,
    /// Round-robin cursor for task placement.
    next: AtomicUsize,
    /// Per-worker watchdog slots (what each worker is running).
    running: Vec<Mutex<Option<RunningTask>>>,
    /// Watchdog deadline for watched tasks; `None` disables the
    /// watchdog entirely (watched tasks run like plain ones).
    deadline: Option<Duration>,
}

impl<'scope> Pool<'scope> {
    fn new(workers: usize, deadline: Option<Duration>) -> Self {
        Self {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            running: (0..workers).map(|_| Mutex::new(None)).collect(),
            deadline,
        }
    }

    /// Number of workers serving this pool.
    pub fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues a task. Callable both from outside the pool (seeding)
    /// and from within a running task (fan-out).
    pub fn spawn(&self, task: impl FnOnce(&Pool<'scope>) + Send + 'scope) {
        self.push(Task {
            f: Box::new(task),
            watched: false,
        });
    }

    /// Enqueues a task under the pool's watchdog deadline (a no-op
    /// distinction under [`run`], which has no watchdog). Use only for
    /// tasks whose code paths return typed errors on cancellation; a
    /// token firing inside a panicking-API path would abort the pool.
    pub fn spawn_watched(&self, task: impl FnOnce(&Pool<'scope>) + Send + 'scope) {
        self.push(Task {
            f: Box::new(task),
            watched: true,
        });
    }

    fn push(&self, task: Task<'scope>) {
        self.pending.fetch_add(1, Ordering::SeqCst);
        let w = self.next.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[w]
            .lock()
            .expect("pool queue poisoned")
            .push_back(task);
    }

    /// Worker loop: drain own deque, steal when empty, exit when no task
    /// is queued or in flight anywhere.
    fn work(&self, me: usize) {
        let n = self.queues.len();
        let mut idle_spins = 0u32;
        loop {
            // Pop the own deque in its own statement so the guard drops
            // before stealing begins. Folding both into one expression
            // would hold the own-queue lock across the steal probes —
            // with every worker idle (each holding its own lock, each
            // waiting on a neighbour's) that is a hold-and-wait cycle
            // that deadlocks the whole pool.
            let mut task = self.queues[me]
                .lock()
                .expect("pool queue poisoned")
                .pop_back();
            if task.is_none() {
                task = (1..n).find_map(|d| {
                    self.queues[(me + d) % n]
                        .lock()
                        .expect("pool queue poisoned")
                        .pop_front()
                });
            }
            match task {
                Some(task) => {
                    idle_spins = 0;
                    // Decrement on unwind too: a panicking task must not
                    // leave `pending` stuck above zero, or the surviving
                    // workers would spin forever while the scope waits to
                    // join this one.
                    struct Finished<'a>(&'a AtomicUsize);
                    impl Drop for Finished<'_> {
                        fn drop(&mut self) {
                            self.0.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    let _finished = Finished(&self.pending);
                    if task.watched && self.deadline.is_some() {
                        // Register with the watchdog and expose the
                        // token to everything the task calls; both are
                        // torn down on unwind too.
                        struct Deregister<'a>(&'a Mutex<Option<RunningTask>>);
                        impl Drop for Deregister<'_> {
                            fn drop(&mut self) {
                                *match self.0.lock() {
                                    Ok(g) => g,
                                    Err(poisoned) => poisoned.into_inner(),
                                } = None;
                            }
                        }
                        let token = CancelToken::new();
                        *self.running[me].lock().expect("watchdog slot poisoned") =
                            Some(RunningTask {
                                started: Instant::now(),
                                token: token.clone(),
                                fired: false,
                            });
                        let _deregister = Deregister(&self.running[me]);
                        let _installed = tlp_obs::cancel::install(token);
                        (task.f)(self);
                    } else {
                        (task.f)(self);
                    }
                }
                None => {
                    if self.pending.load(Ordering::SeqCst) == 0 {
                        return;
                    }
                    // Someone is still running (and may spawn more):
                    // yield, then back off to a short sleep so an idle
                    // worker does not burn a core against a long task.
                    idle_spins += 1;
                    if idle_spins < 64 {
                        std::thread::yield_now();
                    } else {
                        std::thread::sleep(std::time::Duration::from_micros(100));
                    }
                }
            }
        }
    }

    /// Watchdog loop: scan every worker's running slot and fire the
    /// cancellation token of any watched task executing past `deadline`.
    /// Firing is one-shot per task and merely requests cooperative
    /// cancellation; the task itself converts it into a typed error.
    fn watch(&self, deadline: Duration, stop: &AtomicBool) {
        let tick = (deadline / 8)
            .min(Duration::from_millis(50))
            .max(Duration::from_millis(1));
        while !stop.load(Ordering::SeqCst) {
            for slot in &self.running {
                let mut guard = slot.lock().expect("watchdog slot poisoned");
                if let Some(task) = guard.as_mut() {
                    if !task.fired && task.started.elapsed() >= deadline {
                        task.token.fire();
                        task.fired = true;
                        tlp_obs::metrics::SWEEP_DEADLINE_CANCELLATIONS.incr();
                    }
                }
            }
            std::thread::sleep(tick);
        }
    }
}

/// Runs a work-stealing pool of `workers` scoped threads until every
/// task seeded by `seed` — and every task those tasks spawn — has
/// completed.
///
/// `workers` is clamped to at least 1. With one worker the pool degrades
/// to serial execution on that worker's thread.
///
/// # Panics
///
/// Re-raises the panic of any panicking task once the pool drains.
pub fn run<'env>(workers: usize, seed: impl FnOnce(&Pool<'env>)) {
    run_watched(workers, None, seed);
}

/// Like [`run`], plus a per-task watchdog: tasks spawned with
/// [`Pool::spawn_watched`] that execute longer than `deadline` get their
/// [`CancelToken`] fired (see [`tlp_obs::cancel`]), turning a hung task
/// into a typed `DeadlineExceeded` failure at the task's next
/// cancellation poll. `deadline: None` is exactly [`run`].
///
/// # Panics
///
/// Re-raises the panic of any panicking task once the pool drains.
pub fn run_watched<'env>(
    workers: usize,
    deadline: Option<Duration>,
    seed: impl FnOnce(&Pool<'env>),
) {
    let pool = Pool::new(workers.max(1), deadline);
    seed(&pool);
    let stop = AtomicBool::new(false);
    // Workers record into the caller's trace capture, if it has one.
    let recording = tlp_obs::recording();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..pool.workers())
            .map(|w| {
                let pool = &pool;
                s.spawn(move || {
                    let _joined = recording.enter();
                    pool.work(w)
                })
            })
            .collect();
        let watchdog = deadline.map(|d| {
            let (pool, stop) = (&pool, &stop);
            s.spawn(move || {
                let _joined = recording.enter();
                pool.watch(d, stop)
            })
        });
        // Join the workers explicitly (capturing at most one panic
        // payload) so the watchdog can be told to stop before the scope
        // would try to join it — otherwise it would spin forever.
        let mut panic = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
        }
        stop.store(true, Ordering::SeqCst);
        if let Some(w) = watchdog {
            let _ = w.join();
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
    });
}

/// The number of workers to use when the caller does not say: the
/// machine's available parallelism, or 1 if that cannot be determined.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_seeded_task() {
        let hits = AtomicU64::new(0);
        run(4, |p| {
            for _ in 0..100 {
                p.spawn(|_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn nested_spawns_complete_before_run_returns() {
        let hits = AtomicU64::new(0);
        run(3, |p| {
            for _ in 0..5 {
                p.spawn(|p| {
                    hits.fetch_add(1, Ordering::SeqCst);
                    for _ in 0..4 {
                        p.spawn(|p| {
                            hits.fetch_add(1, Ordering::SeqCst);
                            p.spawn(|_| {
                                hits.fetch_add(1, Ordering::SeqCst);
                            });
                        });
                    }
                });
            }
        });
        // 5 roots + 5·4 children + 5·4 grandchildren.
        assert_eq!(hits.load(Ordering::SeqCst), 5 + 20 + 20);
    }

    #[test]
    fn single_worker_executes_everything() {
        let hits = AtomicU64::new(0);
        run(1, |p| {
            p.spawn(|p| {
                hits.fetch_add(1, Ordering::SeqCst);
                p.spawn(|_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let hits = AtomicU64::new(0);
        run(0, |p| {
            assert_eq!(p.workers(), 1);
            p.spawn(|_| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn results_can_be_reduced_in_deterministic_slot_order() {
        // The sweep's pattern in miniature: tasks finish in arbitrary
        // order but write into pre-assigned slots.
        let slots: Vec<Mutex<Option<usize>>> = (0..64).map(|_| Mutex::new(None)).collect();
        run(4, |p| {
            for (i, slot) in slots.iter().enumerate() {
                p.spawn(move |_| {
                    *slot.lock().unwrap() = Some(i * i);
                });
            }
        });
        let collected: Vec<usize> = slots
            .iter()
            .map(|s| s.lock().unwrap().expect("every slot filled"))
            .collect();
        assert_eq!(collected, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_pool_returns_immediately() {
        run(2, |_| {});
    }

    #[test]
    fn far_more_workers_than_tasks_still_runs_each_task_once() {
        // Most workers never see work and must still shut down cleanly.
        let hits = AtomicU64::new(0);
        run(32, |p| {
            assert_eq!(p.workers(), 32);
            for _ in 0..3 {
                p.spawn(|_| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn panicking_task_propagates_without_hanging_the_pool() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(2, |p| {
                p.spawn(|_| panic!("injected task panic"));
                for _ in 0..8 {
                    p.spawn(|_| {});
                }
            });
        }));
        assert!(result.is_err(), "task panic must reach the caller");
    }

    #[test]
    fn workers_record_into_the_callers_capture() {
        let ((), trace) = tlp_obs::capture(|| {
            run(3, |p| {
                for i in 0..6 {
                    p.spawn(move |_| {
                        let _s = tlp_obs::span_with("task", || format!("t{i}"));
                    });
                }
            });
        });
        assert_eq!(trace.spans_named("task").count(), 6);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn many_idle_workers_spinning_beside_a_long_task_do_not_deadlock() {
        // Regression test: stealing used to hold the worker's own queue
        // lock while probing the other queues. Workers that idle for a
        // long stretch — the serve daemon's steady state — would each
        // grab their own lock and wait on a neighbour's, deadlocking the
        // pool within seconds. Post-fix, one long-running task plus many
        // spinning idlers must finish promptly.
        let hits = AtomicU64::new(0);
        run(8, |p| {
            p.spawn(|p| {
                std::thread::sleep(Duration::from_millis(300));
                // Late fan-out: the idlers must still be alive to take
                // these after spinning the whole time.
                for _ in 0..16 {
                    p.spawn(|_| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn watchdog_fires_only_watched_tasks_past_the_deadline() {
        let watched_saw_cancel = AtomicBool::new(false);
        let plain_saw_cancel = AtomicBool::new(false);
        run_watched(2, Some(Duration::from_millis(20)), |p| {
            p.spawn_watched(|_| {
                let start = Instant::now();
                while !tlp_obs::cancel::cancelled() {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "watchdog never fired"
                    );
                    std::thread::yield_now();
                }
                watched_saw_cancel.store(true, Ordering::SeqCst);
            });
            p.spawn(|_| {
                // A plain task outlives the deadline untouched: no token
                // is ever installed for it.
                std::thread::sleep(Duration::from_millis(60));
                plain_saw_cancel.store(tlp_obs::cancel::cancelled(), Ordering::SeqCst);
            });
        });
        assert!(watched_saw_cancel.load(Ordering::SeqCst));
        assert!(!plain_saw_cancel.load(Ordering::SeqCst));
    }

    #[test]
    fn watched_tasks_without_a_deadline_run_plain() {
        let hits = AtomicU64::new(0);
        run(2, |p| {
            p.spawn_watched(|_| {
                assert!(!tlp_obs::cancel::cancelled());
                hits.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cancellation_tokens_are_per_task_not_sticky_on_the_worker() {
        // After a cancelled watched task finishes, the next watched task
        // on the same worker must get a fresh, unfired token.
        run_watched(1, Some(Duration::from_millis(10)), |p| {
            p.spawn_watched(|p| {
                while !tlp_obs::cancel::cancelled() {
                    std::thread::yield_now();
                }
                p.spawn_watched(|_| {
                    assert!(
                        !tlp_obs::cancel::cancelled(),
                        "fresh task saw a stale fired token"
                    );
                });
            });
        });
    }
}
