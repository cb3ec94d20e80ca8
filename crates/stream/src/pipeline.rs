//! The producer/consumer pipeline: tile assembly overlapped with the
//! training update through two bounded channels and a recycled buffer ring.
//!
//! The pipeline is **self-healing**: every producer runs under a supervisor
//! that catches its panics, repairs the pipeline's invariants (requeues the
//! claimed-but-undelivered tile, restores the ring's buffer count), and
//! respawns the producer with exponential backoff under a bounded retry
//! budget. A producer panic therefore costs one tile retry, not the epoch;
//! only when the budget is exhausted and every producer has exited does the
//! consumer surface an error — one that names which producers died, on
//! which tile seqs, and with what panic payloads.

use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::plan::BlockPlan;
use crate::ring::{TileGuard, TileRing};
use ep2_device::{MemoryError, MemoryLedger};
use ep2_kernels::{matrix as kmat, Kernel};
use ep2_linalg::{Matrix, Scalar};

/// Respawn budget per epoch: each producer may die and be revived this many
/// times before the epoch gives up. Bounded so a deterministic bug (which
/// would panic identically on every retry) terminates with an error instead
/// of looping forever.
const RESPAWN_FACTOR: usize = 3;

/// Locks a mutex, riding through poisoning: the pipeline's repair paths run
/// exactly when a producer has panicked, so a poisoned lock is expected
/// there, not fatal.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Record of one producer death observed (and repaired) by its supervisor.
#[derive(Debug, Clone)]
pub struct ProducerDeath {
    /// Index of the producer task (0-based).
    pub producer: usize,
    /// How many times this producer had already died this epoch (0 = first).
    pub incarnation: usize,
    /// The tile seq the producer had claimed but not delivered, if any
    /// (requeued for retry by the supervisor).
    pub seq: Option<usize>,
    /// The panic payload.
    pub message: String,
    /// Whether retry budget remained, so the supervisor revived the
    /// producer.
    pub respawned: bool,
}

impl std::fmt::Display for ProducerDeath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "producer {} died", self.producer)?;
        match self.seq {
            Some(seq) => write!(f, " at tile seq {seq}")?,
            None => write!(f, " between tiles")?,
        }
        write!(
            f,
            " (incarnation {}, {}): {}",
            self.incarnation,
            if self.respawned {
                "respawned"
            } else {
                "retry budget exhausted"
            },
            self.message
        )
    }
}

/// One assembled tile travelling producer → consumer.
struct Filled<S: Scalar> {
    seq: usize,
    col0: usize,
    block: Matrix<S>,
}

/// One tile-assembly work item.
#[derive(Clone, Copy)]
struct Task {
    batch: usize,
    col0: usize,
    col1: usize,
}

/// Per-epoch state shared between the producers, their supervisors, and the
/// consumer.
struct EpochShared<S: Scalar> {
    /// Next fresh tile seq to claim (may overrun `total`; overruns are
    /// harmless).
    next_task: AtomicUsize,
    /// Tile seqs reclaimed from dead producers, awaiting redistribution.
    retry: Mutex<Vec<usize>>,
    /// Tiles successfully handed to the consumer channel.
    done: AtomicUsize,
    /// Total tiles this epoch.
    total: usize,
    /// Producer revivals remaining this epoch.
    respawns_left: AtomicIsize,
    /// Every death the supervisors observed this epoch.
    deaths: Mutex<Vec<ProducerDeath>>,
    /// The shared end of the empty-buffer channel.
    empty_rx: Mutex<Receiver<Vec<S>>>,
}

/// The out-of-core streaming engine: assembles `m x n_tile` kernel-block
/// tiles on producer threads and hands them to a consumer in tile order,
/// with backpressure through a bounded ring of ledger-charged buffers.
///
/// The engine owns shared (immutable) handles to the kernel and the center
/// matrix, plus the per-run caches the producers reuse: the centers' squared
/// row norms (computed once) and the ring buffers (charged once). One engine
/// serves a whole training run; [`StreamEngine::run_epoch`] is called once
/// per epoch with that epoch's shuffled mini-batches.
pub struct StreamEngine<S: Scalar> {
    kernel: Arc<dyn Kernel<S>>,
    centers: Arc<Matrix<S>>,
    center_norms: Vec<S::Accum>,
    plan: BlockPlan,
    ring: TileRing<S>,
    producers: usize,
    /// Ledger charge for the extra per-producer staged batch blocks (each
    /// producer beyond the first keeps its own `m x d` feature cache);
    /// `None` with the default single producer.
    _staging: Option<ep2_device::memory::Allocation>,
    /// Producer panics survived (tile requeued, producer revived or its work
    /// redistributed) across this engine's epochs.
    recoveries: usize,
    /// Human-readable log of the deaths behind [`StreamEngine::recoveries`].
    fault_log: Vec<String>,
}

impl<S: Scalar> std::fmt::Debug for StreamEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamEngine")
            .field("plan", &self.plan)
            .field("producers", &self.producers)
            .finish_non_exhaustive()
    }
}

impl<S: Scalar> StreamEngine<S> {
    /// Builds the engine: caches the center row norms and charges the tile
    /// ring against `ledger`.
    ///
    /// # Errors
    ///
    /// Returns the ledger's [`MemoryError`] when the ring does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `centers` does not match the plan's `n x d` shape.
    pub fn new(
        kernel: Arc<dyn Kernel<S>>,
        centers: Arc<Matrix<S>>,
        plan: BlockPlan,
        ledger: &MemoryLedger,
    ) -> Result<Self, MemoryError> {
        assert_eq!(
            centers.shape(),
            (plan.n, plan.d),
            "centers must be the plan's n x d training matrix"
        );
        let ring = TileRing::new(&plan, ledger)?;
        // Producer count from the plan's thread partition (planned by the
        // overlap model, or pinned by config/CLI/deprecated env var — see
        // `BlockPlan::threads`). More producers than ring-slots-minus-one
        // can deadlock (the consumer may stash up to producers-1
        // out-of-order tiles while the in-order producer still needs a free
        // buffer), so clamp.
        let producers = plan.threads.producers.min(plan.tiles_in_flight - 1).max(1);
        // The budget formula reserves `(tiles_in_flight − 1)·d·m` staged
        // batch blocks — the liveness-bound worst case — but the trainer's
        // static guard holds only the first; every extra producer keeps its
        // own staged copy, so charge the surplus here too. The ledger's
        // peak must reflect true residency, not the single-producer
        // assumption.
        let staging =
            if producers > 1 {
                Some(ledger.alloc(
                    ((producers - 1) * plan.m * plan.d) as f64 * plan.precision.slot_factor(),
                )?)
            } else {
                None
            };
        let center_norms = kmat::row_sq_norms(&centers);
        Ok(StreamEngine {
            kernel,
            centers,
            center_norms,
            plan,
            ring,
            producers,
            _staging: staging,
            recoveries: 0,
            fault_log: Vec::new(),
        })
    }

    /// The tiling in effect.
    pub fn plan(&self) -> &BlockPlan {
        &self.plan
    }

    /// Producer threads in use.
    pub fn producers(&self) -> usize {
        self.producers
    }

    /// Producer panics this engine has survived across all epochs so far
    /// (each one cost a tile retry, not the epoch).
    pub fn recoveries(&self) -> usize {
        self.recoveries
    }

    /// One entry per recovered producer death: who died, on which tile seq,
    /// with what panic payload.
    pub fn fault_log(&self) -> &[String] {
        &self.fault_log
    }

    /// Streams one epoch: for every mini-batch `b` (row indices into the
    /// centers), the producers assemble the batch's kernel-block tiles into
    /// ring buffers while `consume(b, tiles)` drains them **in column
    /// order** and applies the training update. Assembly of the next tile
    /// (and the next batch's tiles) overlaps the consumer's work; dropping
    /// each [`TileGuard`] recycles its buffer to the producers.
    ///
    /// A consumer that stops iterating early still returns its buffers (the
    /// stream drains itself on drop), so the engine is reusable afterwards.
    ///
    /// Producer panics do **not** end the epoch: each producer's supervisor
    /// requeues the lost tile, restores the ring, and revives the producer
    /// under a bounded retry budget (`RESPAWN_FACTOR` revivals per
    /// producer per epoch). Survived deaths are tallied in
    /// [`StreamEngine::recoveries`] and [`StreamEngine::fault_log`].
    ///
    /// # Panics
    ///
    /// Panics if a batch index is out of range, a consumer leaks a
    /// [`TileGuard`] past the end of the epoch, or every producer has died
    /// with the retry budget exhausted — the panic message then reports
    /// which producers died, on which tile seqs, and why.
    pub fn run_epoch<F>(&mut self, batches: &[&[usize]], mut consume: F)
    where
        F: FnMut(usize, &mut TileStream<'_, S>),
    {
        if batches.is_empty() {
            return;
        }
        let tiles_per_batch = self.plan.n_tiles();
        let tasks: Vec<Task> = batches
            .iter()
            .enumerate()
            .flat_map(|(bi, _)| {
                self.plan.tile_ranges().map(move |r| Task {
                    batch: bi,
                    col0: r.start,
                    col1: r.end,
                })
            })
            .collect();
        let capacity = self.ring.capacity();
        let (empty_tx, empty_rx) = sync_channel::<Vec<S>>(capacity);
        let (filled_tx, filled_rx) = sync_channel::<Filled<S>>(capacity);
        for buf in self.ring.take_buffers() {
            empty_tx.send(buf).expect("fresh channel accepts the ring");
        }
        // The `respawn_budget` failpoint overrides the revival budget so
        // chaos tests can exercise the budget-exhausted error path without
        // needing RESPAWN_FACTOR·producers distinct panics.
        let respawns = ep2_runtime::faults::payload("respawn_budget")
            .map_or((RESPAWN_FACTOR * self.producers) as isize, |v| v as isize);
        let shared = EpochShared {
            next_task: AtomicUsize::new(0),
            retry: Mutex::new(Vec::new()),
            done: AtomicUsize::new(0),
            total: tasks.len(),
            respawns_left: AtomicIsize::new(respawns),
            deaths: Mutex::new(Vec::new()),
            empty_rx: Mutex::new(empty_rx),
        };

        // Producers run as runtime stage tasks under the plan's per-producer
        // assembly budget; the consumer (this thread) runs under the update
        // budget. Both sides' inner GEMMs size themselves from those
        // handles, so the pipeline as a whole stays inside one core budget
        // instead of each layer threading independently.
        let thread_plan = self.plan.threads;
        ep2_runtime::scope(|scope| {
            for id in 0..self.producers {
                let filled_tx = filled_tx.clone();
                let empty_tx = empty_tx.clone();
                let shared = &shared;
                let tasks = &tasks;
                let engine = &*self;
                scope.spawn(thread_plan.producer_threads, move || {
                    engine.supervise(id, batches, tasks, shared, &empty_tx, &filled_tx);
                });
            }
            drop(filled_tx);

            ep2_runtime::with_budget(thread_plan.update_threads, || {
                let mut pending: BTreeMap<usize, Filled<S>> = BTreeMap::new();
                for bi in 0..batches.len() {
                    let mut stream = TileStream {
                        filled: &filled_rx,
                        pending: &mut pending,
                        recycle: &empty_tx,
                        deaths: &shared.deaths,
                        next_seq: bi * tiles_per_batch,
                        end_seq: (bi + 1) * tiles_per_batch,
                    };
                    consume(bi, &mut stream);
                    // `stream` drains on drop: unconsumed tiles recycle here.
                }
            });
        });

        // Producers have exited and every guard is dropped: the buffers are
        // all back in the empty channel. Reclaim them for the next epoch.
        drop(empty_tx);
        let buffers: Vec<Vec<S>> = lock(&shared.empty_rx).try_iter().collect();
        self.ring.restore(buffers);
        // The epoch completed, so every recorded death was survived: tally
        // it as a recovery.
        let deaths = shared
            .deaths
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        self.recoveries += deaths.len();
        self.fault_log
            .extend(deaths.iter().map(ProducerDeath::to_string));
    }

    /// Supervisor for one producer: runs the producer loop, catches its
    /// panics, repairs the pipeline (requeue the claimed tile, restore the
    /// ring's buffer count), and revives the producer with exponential
    /// backoff while the epoch's retry budget lasts. With the budget
    /// exhausted the supervisor exits; surviving producers pick up the
    /// requeued tile, and if none survive the consumer reports the deaths.
    fn supervise(
        &self,
        id: usize,
        batches: &[&[usize]],
        tasks: &[Task],
        shared: &EpochShared<S>,
        empty_tx: &SyncSender<Vec<S>>,
        filled_tx: &SyncSender<Filled<S>>,
    ) {
        let mut incarnation = 0usize;
        loop {
            // usize::MAX = no tile claimed; set after a claim, cleared once
            // the tile is delivered (or the buffer returned).
            let in_flight = AtomicUsize::new(usize::MAX);
            let holds_buffer = AtomicBool::new(false);
            let result = catch_unwind(AssertUnwindSafe(|| {
                self.produce(
                    batches,
                    tasks,
                    shared,
                    &in_flight,
                    &holds_buffer,
                    empty_tx,
                    filled_tx,
                )
            }));
            let Err(payload) = result else { return };
            // Repair order matters: requeue the lost tile *before* restoring
            // the ring count, so a peer woken by the replacement buffer
            // already sees the retry.
            let seq = match in_flight.load(Ordering::SeqCst) {
                usize::MAX => None,
                s => Some(s),
            };
            if let Some(seq) = seq {
                lock(&shared.retry).push(seq);
            }
            if holds_buffer.load(Ordering::SeqCst) {
                // The panicking producer dropped its ring buffer during
                // unwinding; hand in a fresh one so the ring stays whole
                // (the ledger charge lives in the ring, not the Vec, so
                // accounting is unchanged).
                let _ = empty_tx.send(Vec::new());
            }
            let respawned = shared.respawns_left.fetch_sub(1, Ordering::SeqCst) > 0;
            lock(&shared.deaths).push(ProducerDeath {
                producer: id,
                incarnation,
                seq,
                message: panic_message(payload.as_ref()),
                respawned,
            });
            if !respawned {
                return;
            }
            std::thread::sleep(Duration::from_millis(1 << incarnation.min(4)));
            incarnation += 1;
        }
    }

    /// Producer loop: acquire a free buffer, claim the next task in
    /// sequence order, assemble its tile, hand it to the consumer channel.
    ///
    /// The buffer is acquired **before** the task is claimed. This is the
    /// pipeline's liveness invariant: every claimed-but-undelivered task
    /// already owns a ring buffer, so the producer holding the smallest
    /// outstanding sequence number can always finish — no matter how far a
    /// faster producer races ahead. (Claim-then-acquire deadlocks: the fast
    /// producer can fill every buffer with future tiles the consumer must
    /// stash while the tile it actually needs has no buffer left to be
    /// assembled into.)
    #[allow(clippy::too_many_arguments)] // the supervisor's repair state, 1:1
    fn produce(
        &self,
        batches: &[&[usize]],
        tasks: &[Task],
        shared: &EpochShared<S>,
        in_flight: &AtomicUsize,
        holds_buffer: &AtomicBool,
        empty_tx: &SyncSender<Vec<S>>,
        filled_tx: &SyncSender<Filled<S>>,
    ) {
        let d = self.plan.d;
        // Batch features + their norms, cached across this batch's tiles.
        let mut cached: Option<(usize, Matrix<S>, Vec<S::Accum>)> = None;
        loop {
            // Blocking on an empty ring is the backpressure: assembly stalls
            // until the consumer recycles a buffer.
            let mut buf = {
                let rx = lock(&shared.empty_rx);
                rx.recv().expect("ring alive while the engine runs")
            };
            holds_buffer.store(true, Ordering::SeqCst);
            // Claim a tile: one requeued from a dead peer first, else the
            // next fresh seq. A producer with nothing to claim while tiles
            // are still undelivered does NOT exit — a peer may yet die and
            // requeue its tile — it parks briefly and re-checks, leaving
            // only once every tile has been handed to the consumer channel.
            let mut claimed = None;
            while claimed.is_none() {
                if let Some(seq) = lock(&shared.retry).pop() {
                    claimed = Some(seq);
                    break;
                }
                let seq = shared.next_task.fetch_add(1, Ordering::Relaxed);
                if seq < shared.total {
                    claimed = Some(seq);
                    break;
                }
                if shared.done.load(Ordering::SeqCst) >= shared.total {
                    break;
                }
                std::thread::sleep(Duration::from_micros(100));
            }
            let Some(seq) = claimed else {
                // Every tile delivered: hand the buffer back for the
                // epilogue drain and exit.
                holds_buffer.store(false, Ordering::SeqCst);
                let _ = empty_tx.send(buf);
                break;
            };
            in_flight.store(seq, Ordering::SeqCst);
            // `producer_panic@tile=seq` kills this producer exactly here —
            // after the claim, before assembly — the worst spot: the tile is
            // claimed, the buffer is held, and the consumer is waiting on
            // this very seq.
            if ep2_runtime::faults::fire_at("producer_panic", seq as u64) {
                panic!("injected fault: producer_panic at tile seq {seq}");
            }
            let task = &tasks[seq];
            let fresh = match &cached {
                Some((bi, _, _)) => *bi != task.batch,
                None => true,
            };
            if fresh {
                let batch_x = self.centers.select_rows(batches[task.batch]);
                let norms = kmat::row_sq_norms(&batch_x);
                cached = Some((task.batch, batch_x, norms));
            }
            let (_, batch_x, batch_norms) = cached.as_ref().expect("cached above");
            let (rows, cols) = (batch_x.rows(), task.col1 - task.col0);
            buf.resize(rows * cols, S::ZERO);
            let mut block = Matrix::from_vec(rows, cols, buf);
            // Stage the tile's center slice (the d·n_tile ledger charge the
            // ring slot carries) and assemble through the packed GEMM path,
            // reusing the cached norms on both sides. `kernel_cross_into`
            // runs the GEMM into the ring slot, then the radial profile
            // (and any bf16 narrowing) over it in place, so the tile needs
            // no buffer beyond its slot.
            let tile_centers = self.centers.submatrix(task.col0, 0, cols, d);
            kmat::kernel_cross_into(
                self.kernel.as_ref(),
                batch_x,
                &tile_centers,
                batch_norms,
                &self.center_norms[task.col0..task.col1],
                &mut block,
            );
            if let Err(err) = filled_tx.send(Filled {
                seq,
                col0: task.col0,
                block,
            }) {
                // Consumer hung up early; recover the buffer so the ring
                // stays whole, then stop.
                in_flight.store(usize::MAX, Ordering::SeqCst);
                holds_buffer.store(false, Ordering::SeqCst);
                let _ = empty_tx.send(err.0.block.into_vec());
                break;
            }
            // Delivered: ownership of the buffer moved to the consumer.
            holds_buffer.store(false, Ordering::SeqCst);
            in_flight.store(usize::MAX, Ordering::SeqCst);
            shared.done.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Iterator over one mini-batch's tiles, delivered strictly in column
/// order (out-of-order arrivals from parallel producers are reordered by
/// sequence number). Yields [`TileGuard`]s; dropping a guard — or the whole
/// stream — recycles buffers to the producers.
pub struct TileStream<'a, S: Scalar> {
    filled: &'a Receiver<Filled<S>>,
    pending: &'a mut BTreeMap<usize, Filled<S>>,
    recycle: &'a SyncSender<Vec<S>>,
    /// The epoch's death log, consulted to name the culprits when the
    /// producers are all gone with tiles still undelivered.
    deaths: &'a Mutex<Vec<ProducerDeath>>,
    next_seq: usize,
    end_seq: usize,
}

impl<S: Scalar> std::fmt::Debug for TileStream<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TileStream")
            .field("next_seq", &self.next_seq)
            .field("end_seq", &self.end_seq)
            .finish_non_exhaustive()
    }
}

impl<S: Scalar> Iterator for TileStream<'_, S> {
    type Item = TileGuard<S>;

    fn next(&mut self) -> Option<TileGuard<S>> {
        if self.next_seq >= self.end_seq {
            return None;
        }
        let want = self.next_seq;
        let filled = match self.pending.remove(&want) {
            Some(f) => f,
            None => loop {
                // A closed channel means every producer (and every
                // supervisor revival) has exited with this tile still
                // undelivered. Report *which* producers died, where, and
                // why — not just that one did.
                let f = match self.filled.recv() {
                    Ok(f) => f,
                    Err(_) => {
                        let deaths = lock(self.deaths);
                        let detail = if deaths.is_empty() {
                            "no producer deaths were recorded".to_string()
                        } else {
                            deaths
                                .iter()
                                .map(ProducerDeath::to_string)
                                .collect::<Vec<_>>()
                                .join("; ")
                        };
                        panic!(
                            "stream pipeline failed: all tile producers exited with tile \
                             seq {want} still undelivered — {detail}"
                        );
                    }
                };
                if f.seq == want {
                    break f;
                }
                self.pending.insert(f.seq, f);
            },
        };
        self.next_seq += 1;
        Some(TileGuard::new(
            filled.col0,
            filled.block,
            self.recycle.clone(),
        ))
    }
}

impl<S: Scalar> TileStream<'_, S> {
    /// Columns still to be delivered (for consumers that pre-size
    /// accumulators).
    pub fn remaining_tiles(&self) -> Range<usize> {
        self.next_seq..self.end_seq
    }
}

impl<S: Scalar> Drop for TileStream<'_, S> {
    fn drop(&mut self) {
        // Drain unconsumed tiles so their buffers recycle and the producers
        // (and the next batch's stream) never stall on a leaked slot. Unlike
        // `next`, never panic here (drop may run during unwinding): a dead
        // channel just ends the drain.
        let mut outstanding = self.end_seq.saturating_sub(self.next_seq);
        while outstanding > 0 {
            let in_window: Vec<usize> = self
                .pending
                .range(self.next_seq..self.end_seq)
                .map(|(&k, _)| k)
                .collect();
            for k in in_window {
                let f = self.pending.remove(&k).expect("key listed above");
                let _ = self.recycle.send(f.block.into_vec());
                outstanding -= 1;
            }
            if outstanding == 0 {
                break;
            }
            match self.filled.recv() {
                Ok(f) if f.seq < self.end_seq => {
                    let _ = self.recycle.send(f.block.into_vec());
                    outstanding -= 1;
                }
                // A later batch's tile: keep it for the next stream.
                Ok(f) => {
                    self.pending.insert(f.seq, f);
                }
                Err(_) => break,
            }
        }
        self.next_seq = self.end_seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ep2_device::Precision;
    use ep2_kernels::GaussianKernel;

    fn points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(n, d, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    /// Builds a 2-producer engine: the count is explicit plan
    /// configuration now (`BlockPlan::with_producers`), so no process-global
    /// env var — and no env mutex — is involved.
    fn two_producer_engine(
        n: usize,
        d: usize,
        n_tile: usize,
        m: usize,
    ) -> (StreamEngine<f64>, MemoryLedger) {
        engine_with(n, d, n_tile, m, Some(2))
    }

    fn engine(n: usize, d: usize, n_tile: usize, m: usize) -> (StreamEngine<f64>, MemoryLedger) {
        engine_with(n, d, n_tile, m, None)
    }

    fn engine_with(
        n: usize,
        d: usize,
        n_tile: usize,
        m: usize,
        producers: Option<usize>,
    ) -> (StreamEngine<f64>, MemoryLedger) {
        let mut plan = BlockPlan::new(n, d, 1, m, n_tile, 3, Precision::F64);
        if let Some(p) = producers {
            plan = plan.with_producers(p);
        }
        let ledger = MemoryLedger::new(plan.total_slots());
        let kernel: Arc<dyn Kernel> = Arc::new(GaussianKernel::new(1.5));
        let centers = Arc::new(points(n, d, 7));
        let engine = StreamEngine::new(kernel, centers, plan, &ledger).unwrap();
        (engine, ledger)
    }

    /// Streamed tiles, concatenated, must equal the one-shot kernel block.
    #[test]
    fn streamed_tiles_reassemble_the_kernel_block() {
        let (mut engine, ledger) = engine(157, 9, 24, 32);
        let kernel = GaussianKernel::new(1.5);
        let idx_a: Vec<usize> = (0..32).collect();
        let idx_b: Vec<usize> = (100..157).rev().collect(); // smaller, unsorted batch
        let batches: Vec<&[usize]> = vec![&idx_a, &idx_b];
        let mut got: Vec<Matrix> = vec![];
        engine.run_epoch(&batches, |bi, tiles| {
            let rows = batches[bi].len();
            let mut full = Matrix::zeros(rows, 157);
            for tile in tiles {
                let r = tile.col_range();
                assert_eq!(tile.block().rows(), rows);
                for i in 0..rows {
                    full.row_mut(i)[r.start..r.end].copy_from_slice(tile.block().row(i));
                }
            }
            got.push(full);
        });
        for (bi, batch) in batches.iter().enumerate() {
            let bx = engine.centers.select_rows(batch);
            let expect = kmat::kernel_cross(&kernel, &bx, &engine.centers);
            assert_eq!(got[bi].as_slice(), expect.as_slice(), "batch {bi}");
        }
        // Ring still charged (engine alive), and never over budget. The
        // engine also holds one surplus `m x d` staging charge per extra
        // producer (the planned count depends on the ambient thread
        // budget, so derive the expectation from it).
        assert!(ledger.peak_slots() <= ledger.budget());
        let staging = ((engine.producers() - 1) * engine.plan().m * engine.plan().d) as f64 * 2.0;
        assert_eq!(
            ledger.in_use(),
            3.0 * engine.plan().slots_per_tile() + staging
        );
    }

    /// The engine survives a consumer that abandons the stream mid-batch,
    /// and can run another epoch afterwards.
    #[test]
    fn early_consumer_exit_recycles_buffers() {
        let (mut engine, _ledger) = engine(200, 5, 32, 16);
        let idx: Vec<usize> = (0..16).collect();
        let batches: Vec<&[usize]> = vec![&idx, &idx, &idx];
        let mut first_cols = 0;
        engine.run_epoch(&batches, |bi, tiles| {
            if bi == 0 {
                // Take a single tile, drop the rest.
                first_cols = tiles.next().unwrap().block().cols();
            }
        });
        assert_eq!(first_cols, 32);
        // Second epoch still works (buffers all returned).
        let mut tiles_seen = 0;
        engine.run_epoch(&batches[..1], |_, tiles| {
            tiles_seen = tiles.by_ref().count();
        });
        assert_eq!(tiles_seen, 200usize.div_ceil(32));
    }

    /// Regression: with multiple producers and narrow tiles, a fast
    /// producer used to race ahead, claim future tasks, and fill every ring
    /// buffer with tiles the consumer could only stash — while the producer
    /// of the next-needed tile starved for a buffer (deadlock). Buffers are
    /// now acquired *before* tasks are claimed, so the smallest outstanding
    /// tile always owns the buffer it needs; this config (2 producers, 3
    /// buffers, 50 tiles per batch, repeated epochs) reproduced the hang
    /// within a few runs before the fix.
    #[test]
    fn multi_producer_stress_does_not_deadlock() {
        let (mut engine, _ledger) = two_producer_engine(400, 4, 8, 16);
        assert_eq!(engine.producers(), 2);
        let idx: Vec<usize> = (0..16).collect();
        let batches: Vec<&[usize]> = vec![&idx; 6];
        for _ in 0..5 {
            engine.run_epoch(&batches, |_, tiles| {
                assert_eq!(tiles.count(), 400usize.div_ceil(8));
            });
        }
    }

    /// Multiple producers deliver tiles in order through the reorder map.
    #[test]
    fn multi_producer_delivery_stays_ordered() {
        let (mut engine, _ledger) = two_producer_engine(300, 6, 16, 24);
        assert_eq!(engine.producers(), 2);
        let idx: Vec<usize> = (0..24).collect();
        let batches: Vec<&[usize]> = vec![&idx; 4];
        engine.run_epoch(&batches, |_, tiles| {
            let mut next_col = 0;
            for tile in tiles {
                assert_eq!(tile.col_range().start, next_col, "out-of-order tile");
                next_col = tile.col_range().end;
            }
            assert_eq!(next_col, 300);
        });
    }
}
