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
//! - [`batch::MicroBatcher`] decides *when* a batch forms: as soon as the
//!   cap is reached, or when the oldest queued request has waited out the
//!   batching window — a pure function of (depth, oldest, now), so the
//!   policy is testable under a simulated clock.
//! - [`admission::AdmissionController`] sheds load explicitly: when the
//!   queued work (estimated from an EWMA of measured per-row cost, seeded
//!   by the cost model) exceeds the latency budget, the request is
//!   rejected with a `busy` response instead of silently queueing past the
//!   budget.
//! - [`engine::ServeEngine`] runs the workers on [`ep2_runtime::scope`],
//!   shares the model read-only via `Arc`, and recycles request and
//!   matrix buffers so the steady-state hot path allocates nothing.
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
