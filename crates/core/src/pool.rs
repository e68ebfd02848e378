//! In-tree scoped-thread pool with one shared run queue.
//!
//! The workspace is dependency-free by design, so this is a small pool
//! built on [`std::thread::scope`], sized for its load: 1–16 workers on
//! tasks of milliseconds to seconds.
//!
//! - All workers share one queue under one lock. [`Pool::spawn`] pushes
//!   a task and wakes one parked worker; a worker pops the newest task
//!   (LIFO) and parks on a condition variable while the queue is empty
//!   but tasks are still in flight. With one worker the order is fully
//!   determined, and a `--threads 1` sweep's checkpoint journal records
//!   its cells in that order: a FIFO queue would change those bytes.
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
//!   and [`run`] re-raises the panic once every worker has joined.
//!
//! The pool has no notion of time: a task that must stop by a given
//! instant (the sweep's cell task, the daemon's connection handler) arms
//! [`tlp_obs::cancel`] itself as its first act, and disarms it when it
//! ends.
//!
//! Scheduling order across several workers is *not* deterministic;
//! users that need deterministic output (the sweep runner does — its
//! parallel output must be byte-identical to serial) write results into
//! pre-indexed slots and reduce in index order afterwards.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

type Task<'scope> = Box<dyn FnOnce(&Pool<'scope>) + Send + 'scope>;

/// The run queue and its bookkeeping, under one lock.
struct Queue<'scope> {
    tasks: VecDeque<Task<'scope>>,
    /// Tasks spawned but not yet finished (queued or executing). The
    /// pool is done when this reaches zero.
    pending: usize,
}

/// Handle through which running tasks spawn further tasks; created by
/// [`run`] and passed to every task.
pub struct Pool<'scope> {
    queue: Mutex<Queue<'scope>>,
    /// Signalled when a task is queued and when `pending` reaches zero.
    wake: Condvar,
    workers: usize,
}

impl<'scope> Pool<'scope> {
    fn new(workers: usize) -> Self {
        Self {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                pending: 0,
            }),
            wake: Condvar::new(),
            workers,
        }
    }

    /// Enqueues a task. Callable both from outside the pool (seeding)
    /// and from within a running task (fan-out).
    pub fn spawn(&self, task: impl FnOnce(&Pool<'scope>) + Send + 'scope) {
        let mut queue = self.queue.lock().expect("pool queue poisoned");
        queue.pending += 1;
        queue.tasks.push_back(Box::new(task));
        drop(queue);
        self.wake.notify_one();
    }

    /// Worker loop: run the newest queued task, park while the queue is
    /// empty but tasks are in flight (they may spawn more), and exit
    /// once nothing is queued or in flight.
    fn work(&self) {
        loop {
            let queue = self.queue.lock().expect("pool queue poisoned");
            let mut queue = self
                .wake
                .wait_while(queue, |q| q.tasks.is_empty() && q.pending > 0)
                .expect("pool queue poisoned");
            let Some(task) = queue.tasks.pop_back() else {
                return;
            };
            drop(queue);
            // Finish on unwind too: a panicking task must not leave
            // `pending` stuck above zero, or the parked workers would
            // wait forever while `run` waits to join this one.
            struct Finished<'a, 'scope>(&'a Pool<'scope>);
            impl Drop for Finished<'_, '_> {
                fn drop(&mut self) {
                    // Never panic here: this may run while a task unwinds.
                    let mut queue = self.0.queue.lock().unwrap_or_else(PoisonError::into_inner);
                    queue.pending -= 1;
                    if queue.pending == 0 {
                        self.0.wake.notify_all();
                    }
                }
            }
            let _finished = Finished(self);
            task(self);
        }
    }
}

/// Runs a pool of `workers` scoped threads until every task seeded by
/// `seed` — and every task those tasks spawn — has completed.
///
/// `workers` is clamped to at least 1. With one worker the pool degrades
/// to serial execution on that worker's thread.
///
/// # Panics
///
/// Re-raises the panic of any panicking task once the pool drains.
pub fn run<'env>(workers: usize, seed: impl FnOnce(&Pool<'env>)) {
    let pool = Pool::new(workers.max(1));
    seed(&pool);
    // Workers record into the caller's trace capture, if it has one.
    let recording = tlp_obs::recording();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..pool.workers)
            .map(|_| {
                let pool = &pool;
                s.spawn(move || {
                    let _joined = recording.enter();
                    pool.work()
                })
            })
            .collect();
        // Join the workers explicitly so the first task panic surfaces
        // with its own payload, not the scope's generic one.
        let mut panic = None;
        for h in handles {
            if let Err(payload) = h.join() {
                panic.get_or_insert(payload);
            }
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
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

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
            assert_eq!(p.workers, 1);
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
            assert_eq!(p.workers, 32);
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
        // The pool's only task panics after the other workers have
        // parked: the finish guard's wake-up on unwind must release
        // them, or `run` never returns.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(4, |p| {
                p.spawn(|_| {
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("injected late panic");
                });
            });
        }));
        let payload = result.expect_err("task panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"injected late panic"),
            "the task's own payload is re-raised"
        );
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
    fn parked_workers_take_a_late_fan_out() {
        // Seven workers park beside one long task — the serve daemon's
        // steady state. A fan-out that arrives after 300 ms must still
        // wake them and run to completion.
        let hits = AtomicU64::new(0);
        run(8, |p| {
            p.spawn(|p| {
                std::thread::sleep(Duration::from_millis(300));
                for _ in 0..16 {
                    p.spawn(|_| {
                        hits.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 16);
    }
}
