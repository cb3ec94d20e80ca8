//! # ep2-runtime — the unified execution runtime
//!
//! One pool, one thread budget. Every parallel layer of the workspace —
//! the blocked GEMM's row stripes and cooperative B-packing, the kernel
//! assembly's element-wise passes, the out-of-core stream producers — runs
//! on the primitives in this crate, so the whole stack is accountable to a
//! single core budget instead of each layer guessing on its own.
//!
//! The pieces:
//!
//! - **Budget resolution** ([`configured_threads`]): `EP2_THREADS` (or the
//!   deprecated `EP2_NUM_THREADS` alias), falling back to the machine's
//!   available parallelism. Read once per process.
//! - **Budget handles** ([`with_budget`], [`current_threads`]): a
//!   thread-scoped override that callers use to *partition* the budget —
//!   e.g. the streamed trainer gives each tile-assembly producer
//!   `producer_threads` and the update GEMM `update_threads`, and every
//!   nested `parallel_for` sizes itself from the handle it inherited.
//! - **Persistent worker pool** ([`parallel_for`]): data-parallel jobs are
//!   published as chunked task queues; persistent workers (spawned once,
//!   parked between jobs) steal chunks across all live jobs through an
//!   atomic cursor, and the submitting thread always participates
//!   (caller-runs), so a job completes even when every worker is busy —
//!   nested and oversubscribed use degrade to inline execution instead of
//!   deadlocking.
//! - **Scoped stage tasks** ([`scope`]): long-lived pipeline stages (the
//!   stream producers) run as runtime tasks with their own budget handle —
//!   dispatched to an idle pool worker when one is free, or a dedicated
//!   runtime-owned thread otherwise — and are always joined before the
//!   scope returns, panics included. A task that mostly waits and fans
//!   its bursts out over the pool (a serving worker) asks for a dedicated
//!   thread outright ([`TaskScope::spawn_dedicated`]), so it never holds a
//!   pool worker its own jobs need.
//! - **Bounded latency histograms** ([`LatencyHistogram`]): fixed-size,
//!   log-bucketed sample counts with a stated percentile error, for
//!   long-running services that must not keep every sample.
//!
//! Chunks of a `parallel_for` job execute under a budget of 1 (a chunk is
//! the unit of parallelism; implicit nested fan-out would oversubscribe),
//! while `scope` tasks run under the budget the caller assigns them — that
//! asymmetry is what lets a producer task run its assembly GEMM with a
//! planned slice of the machine while the pool keeps every other core busy.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod faults;
pub mod histogram;
mod pool;

pub use histogram::LatencyHistogram;
pub use pool::{parallel_for, scope, TaskScope};

use std::cell::Cell;
use std::sync::OnceLock;

/// Resolves the process-wide thread budget: `EP2_THREADS` if set (≥ 1),
/// else the deprecated `EP2_NUM_THREADS` alias, else the machine's
/// available parallelism. Cached after the first call.
pub fn configured_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| {
        for key in ["EP2_THREADS", "EP2_NUM_THREADS"] {
            if let Ok(v) = std::env::var(key) {
                if let Ok(n) = v.parse::<usize>() {
                    if n >= 1 {
                        return n;
                    }
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

thread_local! {
    /// The active budget handle: 0 = unset (fall back to the process-wide
    /// budget). Worker threads set it to a job's per-chunk budget while
    /// executing chunks; `scope` tasks carry the budget they were assigned.
    static BUDGET: Cell<usize> = const { Cell::new(0) };
}

/// The thread budget in effect on this thread: the innermost
/// [`with_budget`] handle, or [`configured_threads`] when none is active.
/// Every parallel primitive in the workspace sizes itself from this.
pub fn current_threads() -> usize {
    let b = BUDGET.with(Cell::get);
    if b == 0 {
        configured_threads()
    } else {
        b
    }
}

/// Runs `f` under an explicit thread-budget handle: [`current_threads`]
/// reports `threads` (clamped to ≥ 1) for the dynamic extent of `f` on this
/// thread, and parallel work submitted inside sizes itself accordingly.
/// Restores the previous handle on exit, panics included.
pub fn with_budget<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            BUDGET.with(|c| c.set(self.0));
        }
    }
    let prev = BUDGET.with(|c| c.replace(threads.max(1)));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn budget_handle_scopes_and_restores() {
        let outer = current_threads();
        with_budget(3, || {
            assert_eq!(current_threads(), 3);
            with_budget(1, || assert_eq!(current_threads(), 1));
            assert_eq!(current_threads(), 3);
        });
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn budget_restored_across_panic() {
        let outer = current_threads();
        let r = std::panic::catch_unwind(|| with_budget(5, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(current_threads(), outer);
    }

    #[test]
    fn zero_budget_clamps_to_one() {
        with_budget(0, || assert_eq!(current_threads(), 1));
    }

    #[test]
    fn parallel_for_covers_all_indices() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        with_budget(4, || {
            parallel_for(hits.len(), 4, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn parallel_chunks_run_under_unit_budget() {
        with_budget(4, || {
            parallel_for(8, 4, |_| {
                assert_eq!(current_threads(), 1);
            });
        });
    }

    #[test]
    fn single_thread_inline_path_keeps_budget() {
        with_budget(1, || {
            parallel_for(3, 1, |_| {
                // Inline execution: the caller's handle stays in effect so a
                // sole chunk can still fan out if it is the only work.
                assert_eq!(current_threads(), 1);
            });
        });
    }

    #[test]
    fn nested_parallel_for_inside_chunks_completes() {
        // Oversubscription/nested-use: chunks run at budget 1, so the inner
        // parallel_for degrades to inline execution instead of deadlocking,
        // and every (i, j) cell is still visited exactly once.
        let cells: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        with_budget(8, || {
            parallel_for(8, 8, |i| {
                parallel_for(8, current_threads(), |j| {
                    cells[i * 8 + j].fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert!(cells.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn oversubscribed_budget_exceeding_cores_completes() {
        // A budget far past the physical core count grows the pool and
        // still terminates with every chunk executed once.
        let hits: Vec<AtomicUsize> = (0..301).map(|_| AtomicUsize::new(0)).collect();
        with_budget(16, || {
            parallel_for(hits.len(), 16, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_propagates_panics() {
        let r = std::panic::catch_unwind(|| {
            with_budget(4, || {
                parallel_for(16, 4, |i| {
                    if i == 7 {
                        panic!("chunk 7 failed");
                    }
                });
            });
        });
        let p = r.expect_err("panic must propagate to the submitter");
        let msg = p
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_else(|| p.downcast_ref::<String>().map(String::as_str).unwrap());
        assert!(msg.contains("chunk 7"), "payload preserved: {msg}");
    }

    #[test]
    fn scope_tasks_run_with_assigned_budget_and_join() {
        let ran = AtomicUsize::new(0);
        scope(|s| {
            for _ in 0..3 {
                s.spawn(2, || {
                    assert_eq!(current_threads(), 2);
                    ran.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        // scope() returns only after every task finished.
        assert_eq!(ran.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn dedicated_tasks_stay_off_the_pool_and_join() {
        let ran = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(|| {
            scope(|s| {
                for _ in 0..2 {
                    s.spawn_dedicated(3, || {
                        // A runtime stage thread of its own, not a pool
                        // worker, under the assigned budget.
                        assert_eq!(std::thread::current().name(), Some("ep2-stage"));
                        assert_eq!(current_threads(), 3);
                        let sum = AtomicUsize::new(0);
                        parallel_for(16, current_threads(), |i| {
                            sum.fetch_add(i, Ordering::Relaxed);
                        });
                        assert_eq!(sum.load(Ordering::Relaxed), 120);
                        ran.fetch_add(1, Ordering::Relaxed);
                    });
                }
                s.spawn_dedicated(1, || panic!("dedicated task died"));
            });
        });
        // Both healthy tasks finished before the panic resumed.
        assert!(r.is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn scope_task_panic_propagates_after_join() {
        let finished = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(|| {
            scope(|s| {
                s.spawn(1, || panic!("task died"));
                s.spawn(1, || {
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert!(r.is_err());
        // The healthy task was still joined before the panic resumed.
        assert_eq!(finished.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn scope_tasks_can_submit_parallel_work() {
        // A stage task fanning out through the pool (the stream-producer
        // pattern): must complete without deadlock even when the pool is
        // the same one serving the task itself.
        let sum = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(4, || {
                parallel_for(32, current_threads(), |i| {
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(sum.load(Ordering::Relaxed), 31 * 32 / 2);
    }

    #[test]
    fn concurrent_jobs_from_concurrent_tasks_complete() {
        // Two stage tasks each submitting chunked jobs: workers steal across
        // both queues; both must finish.
        let a = AtomicUsize::new(0);
        let b = AtomicUsize::new(0);
        scope(|s| {
            s.spawn(2, || {
                parallel_for(64, 2, |_| {
                    a.fetch_add(1, Ordering::Relaxed);
                });
            });
            s.spawn(2, || {
                parallel_for(64, 2, |_| {
                    b.fetch_add(1, Ordering::Relaxed);
                });
            });
        });
        assert_eq!(a.load(Ordering::Relaxed), 64);
        assert_eq!(b.load(Ordering::Relaxed), 64);
    }
}
