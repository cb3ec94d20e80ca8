//! # ep2-serve — persistent micro-batching inference service
//!
//! Batch prediction amortises: one tiled kernel evaluation over `m` rows
//! costs `m·n·(d+l)` operations but only one pass over the resident
//! centers, so per-row latency falls steeply with batch size until the
//! launch saturates (the same `m^max_G` effect the trainer exploits in
//! Step 1). A request-at-a-time server forfeits all of that. This crate
//! keeps a trained [`KernelModel`](ep2_core::KernelModel) resident and
//! *micro-batches* incoming prediction requests:
//!
//! - [`plan::ServePlan`] sizes the service from the device: resident
//!   memory (centers + weights, plus their packed panels below) is charged
//!   to a [`MemoryLedger`](ep2_device::MemoryLedger), per-batch tile slots
//!   are reserved per worker, and the batch cap comes from the paper's cost
//!   model (`ep2_device::cost`) and the memory plan
//!   ([`PredictOptions::planned`](ep2_core::PredictOptions::planned)) over
//!   what the resident set leaves.
//! - [`batch::MicroBatcher`] is work-conserving: a free worker takes
//!   `min(queued, cap)` rows at once, so no request waits while a worker
//!   is idle and batches grow only while every worker is busy (the rows
//!   that arrive during one batch form the next). It is a pure function of
//!   the queue depth, so the policy is testable under a simulated clock.
//! - [`admission::AdmissionController`] sheds load explicitly. A batch of
//!   `r` rows costs about `a + b·r`: `a` streams the packed model once,
//!   `b` is one row's compute. [`admission::BatchCost`] fits that line
//!   online from every executed batch (exponentially weighted least
//!   squares, seeded by the cost model's per-row time), and the wait
//!   behind the queue is the sum of `a + b·rows` over the batches it would
//!   form, shared by the workers. When that exceeds the latency budget the
//!   request is rejected with a `busy` response instead of silently
//!   queueing past the budget. `stats` reports the fit next to the
//!   measured batch times.
//! - [`engine::ServeEngine`] runs the workers on [`ep2_runtime::scope`],
//!   each on a dedicated runtime thread, shares the model read-only via
//!   `Arc`, and recycles request and matrix buffers so the steady-state
//!   hot path allocates nothing. The plan's default is one worker on the
//!   whole thread budget: a small batch costs about one stream of the
//!   packed model, and the GEMM splits a few-row product against packed
//!   panels by columns, so one batch streams the model on every thread at
//!   once instead of two single-thread batches each streaming all of it.
//! - **Packed panels.** At start-up the engine packs the centers and
//!   weights once into the GEMM engines' panel layout
//!   ([`KernelModel::pack`](ep2_core::KernelModel::pack), one packed block
//!   per column tile) and all workers read that one copy. A micro-batch
//!   then pays only its own rows' work: before, every batch, even of one
//!   row, first gathered and packed all `n·d` centers and `n·l` weights.
//!   The panels are charged to the ledger with the resident model, at the
//!   GEMM's compute width — f32 for a bf16 model
//!   ([`plan::ServePlan::packed_slots`]). So "at bf16 the resident charge
//!   halves" no longer holds for the whole footprint: the centers and
//!   weights halve, their panels do not, and together they come to about
//!   three quarters of f32's.
//! - **Latency stats.** Per-request latencies go into a fixed-size
//!   log-bucketed histogram ([`ep2_runtime::LatencyHistogram`]), so the
//!   stats stay the same size however long the service runs. Reported
//!   percentiles are within 1/64 (about 1.6%) of the exact nearest-rank
//!   latency.
//! - [`server`] exposes the whole thing over a line protocol on any
//!   `BufRead`/`Write` pair (the `ep2 serve` command wires it to
//!   stdin/stdout).
//!
//! Served predictions run the same row-block × column-tile loop, GEMM
//! engines, microkernel and write-back as offline
//! [`predict_with`](ep2_core::KernelModel::predict_with); only the source
//! of the packed panels differs. And no product's result depends on the
//! rows around it: a lone row, an edge tile and a small product all run
//! each entry through the same per-slab chain. So a reply is bitwise the
//! offline prediction of that row at the same precision, whatever batch it
//! rode in.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod batch;
pub mod engine;
pub mod plan;
pub mod server;

pub use admission::{AdmissionController, Shed};
pub use batch::MicroBatcher;
pub use engine::{ServeEngine, ServeStats};
pub use plan::{ServeConfig, ServePlan};
