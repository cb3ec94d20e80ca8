//! The serving engine: a shared request queue drained by a pool of
//! batch-executing workers on the unified runtime.
//!
//! The model is shared read-only behind an `Arc`, and packed once at
//! start-up into the GEMM's panel layout ([`PackedModel`]); all workers
//! read that one copy, so no micro-batch re-packs the centers or weights.
//! Every per-request and per-batch buffer (request structs, the staged
//! input matrix, the kernel panel, the output block) is recycled, and
//! latencies land in a fixed-size histogram, so after warm-up the hot path
//! performs no heap allocation.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use ep2_core::{KernelModel, PackedModel, PredictBuffers};
use ep2_device::{MemoryError, MemoryLedger};
use ep2_linalg::{Matrix, Scalar};
use ep2_runtime::LatencyHistogram;
use parking_lot::Mutex;
use std::sync::Condvar;

use crate::admission::{AdmissionController, Shed};
use crate::batch::MicroBatcher;
use crate::plan::ServePlan;

/// One queued prediction request; pooled and recycled by the engine.
#[derive(Debug)]
struct Request<S> {
    id: String,
    features: Vec<S>,
    enq_us: u64,
}

impl<S> Default for Request<S> {
    fn default() -> Self {
        Request {
            id: String::new(),
            features: Vec::new(),
            enq_us: 0,
        }
    }
}

#[derive(Debug)]
struct QueueState<S> {
    pending: VecDeque<Request<S>>,
    pool: Vec<Request<S>>,
    closed: bool,
}

impl<S> Default for QueueState<S> {
    fn default() -> Self {
        QueueState {
            pending: VecDeque::new(),
            pool: Vec::new(),
            closed: false,
        }
    }
}

/// Consecutive worker recoveries tolerated before a panic is treated as
/// deterministic (it would loop forever) and propagated.
const MAX_CONSECUTIVE_RECOVERIES: u64 = 8;

/// Counters and the latency histogram, snapshotted by
/// [`ServeEngine::stats`]. Fixed-size: a snapshot costs the same after a
/// billion requests as after one.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests answered with predictions.
    pub served: u64,
    /// Requests rejected by admission control.
    pub shed: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Worker panics recovered by requeueing the batch.
    pub recoveries: u64,
    /// End-to-end per-request latencies (enqueue → reply), µs.
    pub latency_us: LatencyHistogram,
    /// Admission's fitted fixed cost of one batch, µs: the `a` of
    /// `t(rows) = a + b·rows`.
    pub a_us: f64,
    /// Admission's fitted cost of one row, µs: the `b` of `a + b·rows`.
    pub b_us: f64,
    /// Mean measured time of an executed batch, µs (0 before the first).
    pub batch_us: f64,
    /// Mean rows of an executed batch (0 before the first).
    pub batch_rows: f64,
}

impl ServeStats {
    /// Nearest-rank latency percentile over the served requests, µs,
    /// within [`LatencyHistogram::RELATIVE_ERROR`] (1/64) of the exact
    /// sample.
    pub fn percentile_us(&self, p: f64) -> u64 {
        self.latency_us.percentile(p)
    }

    /// Predicted time of a batch of `rows` rows under the fitted
    /// `a + b·rows`, µs.
    pub fn est_batch_us(&self, rows: usize) -> f64 {
        self.a_us + self.b_us * rows as f64
    }
}

/// What the workers record, under one lock; [`ServeEngine::stats`] turns
/// it into a [`ServeStats`] snapshot.
#[derive(Debug, Default)]
struct Counters {
    stats: ServeStats,
    /// Batches executed to completion (`stats.batches` also counts the
    /// attempts that panicked).
    executed: u64,
    /// Measured time of those batches, summed, µs.
    executed_us: f64,
}

/// Persistent micro-batching prediction service over one model (see
/// module docs). Generic over the serving precision `S`.
#[derive(Debug)]
pub struct ServeEngine<S: Scalar> {
    model: Arc<KernelModel<S>>,
    /// The model packed once under `plan.opts`; every worker predicts
    /// from it.
    packed: PackedModel<S>,
    plan: ServePlan,
    batcher: MicroBatcher,
    // The queue pairs a *std* mutex with its condvar (the vendored
    // parking_lot stand-in has no Condvar); poisoning is recovered in
    // `lock_queue` to keep parking_lot's panic-free semantics.
    queue: std::sync::Mutex<QueueState<S>>,
    work_ready: Condvar,
    admission: Mutex<AdmissionController>,
    counters: Mutex<Counters>,
    consecutive_recoveries: std::sync::atomic::AtomicU64,
    start: Instant,
    /// Ledger charges for the resident model with its packed panels and
    /// every worker's tile slots, held for the engine's lifetime.
    _charges: Vec<ep2_device::memory::Allocation>,
}

impl<S: Scalar> ServeEngine<S> {
    /// Builds an engine, charging the plan's footprint against `ledger`,
    /// then packs the model once under `plan.opts` for all workers to
    /// share.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError`] when the resident model and its packed
    /// panels plus per-worker tiles do not fit the ledger budget.
    pub fn new(
        model: Arc<KernelModel<S>>,
        plan: ServePlan,
        ledger: &MemoryLedger,
    ) -> Result<Self, MemoryError> {
        let charges = plan.charge(ledger)?;
        let packed = model.pack(&plan.opts);
        let batcher = MicroBatcher::new(plan.batch_rows);
        let admission = AdmissionController::new(
            plan.latency_budget_us,
            plan.est_row_us,
            plan.batch_rows,
            plan.workers,
        );
        Ok(ServeEngine {
            model,
            packed,
            plan,
            batcher,
            queue: std::sync::Mutex::new(QueueState::default()),
            work_ready: Condvar::new(),
            admission: Mutex::new(admission),
            counters: Mutex::new(Counters::default()),
            consecutive_recoveries: std::sync::atomic::AtomicU64::new(0),
            start: Instant::now(),
            _charges: charges,
        })
    }

    /// The resolved plan the engine runs under.
    pub fn plan(&self) -> &ServePlan {
        &self.plan
    }

    /// The served model.
    pub fn model(&self) -> &Arc<KernelModel<S>> {
        &self.model
    }

    /// The packed copy of the model the workers predict from.
    pub fn packed(&self) -> &PackedModel<S> {
        &self.packed
    }

    /// Microseconds since the engine started — the clock all queue
    /// timestamps use.
    pub fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, QueueState<S>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of the counters, the latency histogram, the admission fit
    /// and the measured batch means.
    pub fn stats(&self) -> ServeStats {
        let mut st = {
            let c = self.counters.lock();
            let mut st = c.stats.clone();
            if c.executed > 0 {
                st.batch_us = c.executed_us / c.executed as f64;
                st.batch_rows = st.served as f64 / c.executed as f64;
            }
            st
        };
        let adm = self.admission.lock();
        st.a_us = adm.cost().a_us();
        st.b_us = adm.cost().b_us();
        st
    }

    /// Submits a prediction request, subject to admission control.
    ///
    /// On admission the features are copied into a pooled request (the
    /// caller's slice is not retained) and a worker is woken.
    ///
    /// # Errors
    ///
    /// Returns [`Shed`] when the estimated wait behind the current queue
    /// exceeds the latency budget; the request is *not* enqueued.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the model dimension.
    pub fn submit(&self, id: &str, features: &[S]) -> Result<(), Shed> {
        assert_eq!(
            features.len(),
            self.model.dim(),
            "serve: feature dim mismatch"
        );
        let mut q = self.lock_queue();
        if let Err(shed) = self.admission.lock().admit(q.pending.len()) {
            drop(q);
            self.counters.lock().stats.shed += 1;
            return Err(shed);
        }
        let mut req = q.pool.pop().unwrap_or_default();
        req.id.clear();
        req.id.push_str(id);
        req.features.clear();
        req.features.extend_from_slice(features);
        req.enq_us = self.now_us();
        q.pending.push_back(req);
        drop(q);
        self.work_ready.notify_one();
        Ok(())
    }

    /// Runs the service: spawns the plan's workers on the runtime, calls
    /// `driver` inline (the request-feeding side — e.g. the stdin reader),
    /// then drains the queue and joins the workers. Replies are delivered
    /// to `sink(id, outputs)` from worker threads; the outputs slice is
    /// only valid for the duration of the call.
    ///
    /// Each worker runs on a dedicated runtime thread
    /// ([`TaskScope::spawn_dedicated`](ep2_runtime::TaskScope::spawn_dedicated)):
    /// it waits for requests most of its life, and parked on a pool worker
    /// it would take the helper its own GEMMs fan out to.
    ///
    /// An engine can run any number of times, one run after another: each
    /// run reopens the queue the previous one closed.
    pub fn run<R>(&self, sink: &(dyn Fn(&str, &[S]) + Sync), driver: impl FnOnce() -> R) -> R {
        // Reopen before the workers spawn: a worker that finds the queue
        // empty and closed returns at once.
        self.lock_queue().closed = false;
        ep2_runtime::scope(|s| {
            for _ in 0..self.plan.workers {
                s.spawn_dedicated(self.plan.worker_threads, || self.worker_loop(sink));
            }
            // Close the queue even when the driver panics: the workers
            // block on the condvar and would otherwise never be joined.
            let result = catch_unwind(AssertUnwindSafe(driver));
            {
                let mut q = self.lock_queue();
                q.closed = true;
            }
            self.work_ready.notify_all();
            match result {
                Ok(value) => value,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
    }

    /// Worker: take what is queued as soon as this worker is free (up to
    /// the batch cap), execute it, reply, recycle; sleep only on an empty
    /// queue.
    fn worker_loop(&self, sink: &(dyn Fn(&str, &[S]) + Sync)) {
        let mut bufs = PredictBuffers::new();
        let mut batch: Vec<Request<S>> = Vec::new();
        let mut x: Matrix<S> = Matrix::zeros(1, 1);
        let mut out: Matrix<S> = Matrix::zeros(1, 1);
        loop {
            {
                let mut q = self.lock_queue();
                let take = loop {
                    match self.batcher.ready(q.pending.len()) {
                        Some(rows) => break rows,
                        None if q.closed => return,
                        None => {
                            q = self.work_ready.wait(q).unwrap_or_else(|e| e.into_inner());
                        }
                    }
                };
                batch.extend(q.pending.drain(..take));
            }
            self.exec_batch(&mut batch, &mut bufs, &mut x, &mut out, sink);
        }
    }

    fn exec_batch(
        &self,
        batch: &mut Vec<Request<S>>,
        bufs: &mut PredictBuffers<S>,
        x: &mut Matrix<S>,
        out: &mut Matrix<S>,
        sink: &(dyn Fn(&str, &[S]) + Sync),
    ) {
        let rows = batch.len();
        let d = self.model.dim();
        let l = self.model.n_outputs();
        x.resize(rows, d);
        for (i, req) in batch.iter().enumerate() {
            x.row_mut(i).copy_from_slice(&req.features);
        }
        out.resize(rows, l);
        let seq = {
            let mut c = self.counters.lock();
            c.stats.batches += 1;
            c.stats.batches
        };
        let t0 = self.now_us();
        let executed = catch_unwind(AssertUnwindSafe(|| {
            // `serve_worker_panic@step=k` kills the k-th batch mid-flight;
            // the recovery path below requeues it, so chaos tests can pin
            // that a worker panic loses no request.
            if ep2_runtime::faults::fire_at("serve_worker_panic", seq) {
                panic!("injected serve worker panic (batch {seq})");
            }
            self.packed.predict_into(x, bufs, out);
        }));
        let elapsed = (self.now_us() - t0) as f64;
        use std::sync::atomic::Ordering;
        match executed {
            Ok(()) => {
                self.consecutive_recoveries.store(0, Ordering::Relaxed);
                self.admission.lock().observe_batch(rows, elapsed);
                let now = self.now_us();
                for (i, req) in batch.iter().enumerate() {
                    sink(&req.id, out.row(i));
                }
                let mut c = self.counters.lock();
                c.executed += 1;
                c.executed_us += elapsed;
                c.stats.served += rows as u64;
                for req in batch.iter() {
                    c.stats.latency_us.record(now.saturating_sub(req.enq_us));
                }
                drop(c);
                let mut q = self.lock_queue();
                for mut req in batch.drain(..) {
                    req.features.clear();
                    q.pool.push(req);
                }
            }
            Err(payload) => {
                // Self-heal: the batch goes back to the queue front in its
                // original order; another (or this) worker retries it. A
                // panic that keeps recurring is deterministic — propagate
                // it instead of spinning on the same doomed batch.
                let streak = self.consecutive_recoveries.fetch_add(1, Ordering::Relaxed) + 1;
                if streak > MAX_CONSECUTIVE_RECOVERIES {
                    // Release the other workers before dying so the scope
                    // join cannot deadlock on the condvar.
                    self.lock_queue().closed = true;
                    self.work_ready.notify_all();
                    std::panic::resume_unwind(payload);
                }
                self.counters.lock().stats.recoveries += 1;
                let mut q = self.lock_queue();
                for req in batch.drain(..).rev() {
                    q.pending.push_front(req);
                }
                drop(q);
                self.work_ready.notify_one();
            }
        }
    }
}
