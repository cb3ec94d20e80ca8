//! The persistent worker pool: chunked data-parallel jobs with cross-job
//! stealing, plus scoped long-running stage tasks.
//!
//! # Why this shape
//!
//! The workloads here are coarse (GEMM row blocks, kernel-tile assembly,
//! packed-panel fills), so the pool optimises for *predictable completion*
//! over micro-latency:
//!
//! - A job is a closure plus an atomic chunk cursor. Workers and the
//!   submitting thread claim chunks through `fetch_add`; whoever claims a
//!   chunk runs it. There is no per-chunk allocation and no channel.
//! - The submitter always participates (caller-runs) and blocks until the
//!   chunk-done count reaches the total, which is also what makes the
//!   lifetime erasure sound: the closure cannot die before every chunk has
//!   finished executing.
//! - Workers scan *all* live jobs (stealing): a worker that finishes one
//!   job's chunks moves to the next job instead of idling, which is what
//!   keeps concurrent GEMMs from different pipeline stages from fencing
//!   off cores from each other.
//! - Stage tasks ([`scope`]) occupy a worker (or a dedicated runtime
//!   thread when none is idle) for their whole life and are joined by the
//!   scope before it returns — panics are captured and re-thrown at the
//!   join point, first payload wins.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// One published data-parallel job: a lifetime-erased chunk closure plus
/// the claim/done cursors. The submitter keeps the closure alive until
/// `done == n_chunks`, so workers may dereference `run` for exactly the
/// chunks they claim.
struct Job {
    /// Lifetime-erased `&'submitter dyn Fn(usize)`: sound because the
    /// submitter joins (waits for `done == n_chunks`) before returning.
    run: &'static (dyn Fn(usize) + Sync),
    n_chunks: usize,
    /// Next unclaimed chunk index; claims are unique via `fetch_add`.
    next: AtomicUsize,
    /// Chunks fully executed (panicked chunks count — they are done).
    done: AtomicUsize,
    /// Extra workers still allowed to join (the submitter is implicit).
    extra_slots: AtomicUsize,
    /// First panic payload raised by any chunk.
    panic: Mutex<Option<PanicPayload>>,
    /// Completion signal for the submitter.
    complete_lock: Mutex<()>,
    complete_cv: Condvar,
}

impl Job {
    /// Claims and runs chunks until the cursor runs out. Chunks execute
    /// under a budget handle of 1 (see the crate docs for why).
    fn run_chunks(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n_chunks {
                break;
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                crate::with_budget(1, || (self.run)(i));
            }));
            if let Err(payload) = result {
                let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
                slot.get_or_insert(payload);
            }
            let done = self.done.fetch_add(1, Ordering::AcqRel) + 1;
            if done == self.n_chunks {
                let _g = self.complete_lock.lock().unwrap_or_else(|e| e.into_inner());
                self.complete_cv.notify_all();
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n_chunks
    }

    /// Blocks until every chunk has finished executing.
    fn wait_done(&self) {
        let mut g = self.complete_lock.lock().unwrap_or_else(|e| e.into_inner());
        while self.done.load(Ordering::Acquire) < self.n_chunks {
            g = self.complete_cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A long-running stage task queued for a pool worker.
struct StageTask {
    /// Lifetime-erased task body; the owning [`TaskScope`] joins before its
    /// borrows expire.
    run: Box<dyn FnOnce() + Send + 'static>,
    budget: usize,
    join: Arc<JoinState>,
}

impl StageTask {
    fn execute(self) {
        let StageTask { run, budget, join } = self;
        let result = catch_unwind(AssertUnwindSafe(|| crate::with_budget(budget, run)));
        if let Err(payload) = result {
            join.record_panic(payload);
        }
        join.task_done();
    }
}

/// Join bookkeeping for one [`scope`]: outstanding task count + first panic.
#[derive(Default)]
struct JoinState {
    lock: Mutex<usize>,
    cv: Condvar,
    panic: Mutex<Option<PanicPayload>>,
}

impl JoinState {
    fn add_task(&self) {
        *self.lock.lock().unwrap_or_else(|e| e.into_inner()) += 1;
    }

    fn task_done(&self) {
        let mut g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        *g -= 1;
        if *g == 0 {
            self.cv.notify_all();
        }
    }

    fn wait_all(&self) {
        let mut g = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        while *g > 0 {
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn record_panic(&self, payload: PanicPayload) {
        let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
        slot.get_or_insert(payload);
    }

    fn take_panic(&self) -> Option<PanicPayload> {
        self.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

/// What a woken worker found to do.
enum Work {
    Job(Arc<Job>),
    Task(StageTask),
}

struct State {
    jobs: Vec<Arc<Job>>,
    tasks: VecDeque<StageTask>,
    /// Workers currently parked on the condvar.
    idle: usize,
    /// Workers ever spawned (the pool grows to the largest budget seen).
    spawned: usize,
}

struct Pool {
    state: Mutex<State>,
    work_cv: Condvar,
}

impl Pool {
    fn get() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            state: Mutex::new(State {
                jobs: Vec::new(),
                tasks: VecDeque::new(),
                idle: 0,
                spawned: 0,
            }),
            work_cv: Condvar::new(),
        })
    }

    /// Grows the pool so at least `threads - 1` persistent workers exist
    /// (the caller is the remaining participant). Capped defensively.
    fn ensure_workers(&'static self, threads: usize) {
        const MAX_WORKERS: usize = 256;
        let want = threads.saturating_sub(1).min(MAX_WORKERS);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while st.spawned < want {
            st.spawned += 1;
            let id = st.spawned;
            std::thread::Builder::new()
                .name(format!("ep2-worker-{id}"))
                .spawn(move || self.worker_loop())
                .expect("spawn ep2-runtime worker");
        }
    }

    fn worker_loop(&'static self) {
        loop {
            let work = {
                let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
                loop {
                    if let Some(task) = st.tasks.pop_front() {
                        break Work::Task(task);
                    }
                    st.jobs.retain(|j| !j.exhausted());
                    if let Some(job) = claim_job(&st.jobs) {
                        break Work::Job(job);
                    }
                    st.idle += 1;
                    st = self.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                    st.idle -= 1;
                }
            };
            match work {
                Work::Task(task) => task.execute(),
                Work::Job(job) => job.run_chunks(),
            }
        }
    }

    fn publish(&'static self, job: Arc<Job>) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.jobs.push(job);
        self.work_cv.notify_all();
    }

    fn retire(&'static self, job: &Arc<Job>) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.jobs.retain(|j| !Arc::ptr_eq(j, job));
    }

    /// Queues a stage task on an idle worker, or spawns a dedicated runtime
    /// thread when every worker is busy (a stage task pins its thread for
    /// its whole life — queueing it behind another stage would deadlock
    /// pipelines whose stages expect to run concurrently).
    fn submit_task(&'static self, task: StageTask) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.idle > st.tasks.len() {
            st.tasks.push_back(task);
            self.work_cv.notify_all();
            return;
        }
        drop(st);
        spawn_stage_thread(task);
    }
}

/// Runs a stage task on a dedicated runtime thread of its own.
fn spawn_stage_thread(task: StageTask) {
    let join = Arc::clone(&task.join);
    let spawned = std::thread::Builder::new()
        .name("ep2-stage".to_string())
        .spawn(move || task.execute());
    if let Err(e) = spawned {
        // The task never ran (spawn consumed and dropped it): balance its
        // join count before surfacing the failure, or the owning scope's
        // join would hang forever on a task no thread will ever finish.
        join.task_done();
        panic!("spawn ep2-runtime stage thread: {e}");
    }
}

/// First live job with unclaimed chunks and a free worker slot.
fn claim_job(jobs: &[Arc<Job>]) -> Option<Arc<Job>> {
    for job in jobs {
        if job.exhausted() {
            continue;
        }
        let took = job
            .extra_slots
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| s.checked_sub(1))
            .is_ok();
        if took {
            return Some(Arc::clone(job));
        }
    }
    None
}

/// Runs `f(i)` for every `i in 0..n_chunks` across at most `threads`
/// participants (the calling thread plus pool workers), returning when
/// every chunk has executed.
///
/// Chunks run under a thread-budget handle of 1; with `threads <= 1` (or a
/// single chunk) everything runs inline on the caller under its current
/// handle. A panic in any chunk is re-thrown on the caller *after* all
/// chunks finish (first payload wins).
pub fn parallel_for<F>(n_chunks: usize, threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    if n_chunks == 0 {
        return;
    }
    let threads = threads.max(1).min(n_chunks);
    if threads <= 1 {
        for i in 0..n_chunks {
            f(i);
        }
        return;
    }
    let pool = Pool::get();
    pool.ensure_workers(threads);
    let run: &(dyn Fn(usize) + Sync) = &f;
    // SAFETY: `run` outlives the job because this function waits for every
    // chunk to finish (`wait_done`) before returning — on the panic path
    // included. Workers only dereference `run` for chunks they claimed,
    // and all claims precede `done == n_chunks`.
    let run: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run) };
    let job = Arc::new(Job {
        run,
        n_chunks,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        extra_slots: AtomicUsize::new(threads - 1),
        panic: Mutex::new(None),
        complete_lock: Mutex::new(()),
        complete_cv: Condvar::new(),
    });
    pool.publish(Arc::clone(&job));
    job.run_chunks();
    job.wait_done();
    pool.retire(&job);
    let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(p) = payload {
        resume_unwind(p);
    }
}

/// Handle for spawning scoped stage tasks; see [`scope`].
pub struct TaskScope<'env> {
    join: Arc<JoinState>,
    /// Invariant over `'env`, like `std::thread::Scope`: spawned tasks may
    /// borrow anything that outlives the `scope` call, and nothing shorter.
    _env: PhantomData<&'env mut &'env ()>,
}

impl std::fmt::Debug for TaskScope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskScope").finish_non_exhaustive()
    }
}

impl<'env> TaskScope<'env> {
    /// Spawns a long-running stage task under a thread-budget handle of
    /// `budget`. The task starts immediately (idle pool worker or a
    /// dedicated runtime thread) and is joined before [`scope`] returns.
    pub fn spawn<F>(&self, budget: usize, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        Pool::get().submit_task(self.task(budget, f));
    }

    /// Spawns a long-running stage task under a thread-budget handle of
    /// `budget` on a dedicated runtime thread, never on a pool worker;
    /// joined before [`scope`] returns, as [`TaskScope::spawn`]'s are.
    ///
    /// For a task that spends its life blocked between bursts of work it
    /// fans out over the pool (a serving worker waiting for requests): the
    /// pool keeps `budget − 1` workers to help such a burst, and a task
    /// parked on one of them would leave its own jobs a helper short.
    pub fn spawn_dedicated<F>(&self, budget: usize, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        spawn_stage_thread(self.task(budget, f));
    }

    /// Registers `f` with this scope's join and erases its lifetime.
    fn task<F>(&self, budget: usize, f: F) -> StageTask
    where
        F: FnOnce() + Send + 'env,
    {
        self.join.add_task();
        let run: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: `scope` joins every task (waits for the count to reach
        // zero) before returning — on the panic path included — so the
        // borrows inside `f` outlive its execution.
        let run: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(run) };
        StageTask {
            run,
            budget: budget.max(1),
            join: Arc::clone(&self.join),
        }
    }
}

/// Runs `f` with a [`TaskScope`] whose spawned stage tasks are all joined
/// before this function returns. If the body or any task panics, the panic
/// resumes on the caller after the join (body's payload first).
///
/// This is the only place in the workspace allowed to put long-lived
/// workers on threads — every pipeline stage that used to `thread::scope`
/// its own workers goes through here instead, so the stages it runs are
/// visible to (and budgeted by) the same runtime that serves their inner
/// data-parallel jobs.
pub fn scope<'env, R>(f: impl FnOnce(&TaskScope<'env>) -> R) -> R {
    let ts = TaskScope {
        join: Arc::new(JoinState::default()),
        _env: PhantomData,
    };
    let result = catch_unwind(AssertUnwindSafe(|| f(&ts)));
    ts.join.wait_all();
    match result {
        Err(payload) => resume_unwind(payload),
        Ok(value) => {
            if let Some(p) = ts.join.take_panic() {
                resume_unwind(p);
            }
            value
        }
    }
}
