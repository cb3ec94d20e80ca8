//! # ep2-device — the parallel-computational-resource abstraction `G`
//!
//! Section 2 of the paper abstracts a computational resource `G` (a GPU) by
//! two numbers:
//!
//! - `C_G` — *parallel capacity*: the number of operations one launch must
//!   execute to fully utilise the device, and
//! - `S_G` — *internal resource memory*.
//!
//! EigenPro 2.0 consumes the hardware **only** through this abstraction
//! (Step 1 computes the saturating batch size `m^max_G` from it), so a
//! faithful simulator of the abstraction exercises all of the paper's
//! adaptation logic. This crate provides:
//!
//! - [`ResourceSpec`]: the `(C_G, S_G)` pair plus throughput and launch
//!   overhead, with presets for the paper's hardware ([`ResourceSpec::titan_xp`],
//!   [`ResourceSpec::tesla_k40c`]) and a host-calibrated CPU model.
//! - [`timing`]: per-iteration wall-clock models for the three device
//!   idealisations of Figure 3a (*ideal parallel*, *actual GPU*,
//!   *sequential*), and [`timing::SimClock`] to accumulate simulated time.
//! - [`memory`]: an allocation ledger enforcing `S_G`.
//! - [`batch`]: the Step-1 calculators `m^C_G`, `m^S_G`,
//!   `m^max_G = min(m^C_G, m^S_G)`.
//! - [`cost`]: the Table-1 computation/memory cost formulas for SGD,
//!   original EigenPro, and improved EigenPro iterations.
//!
//! # Example: Step 1 of the main algorithm
//!
//! ```
//! use ep2_device::{batch, ResourceSpec};
//!
//! let gpu = ResourceSpec::titan_xp();
//! // MNIST-like problem: n = 1e6 points, d = 784 features, l = 10 labels.
//! let m_max = batch::max_batch(&gpu, 1_000_000, 784, 10);
//! assert!(m_max.batch > 100, "a modern GPU saturates only at large batches");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod cluster;
pub mod cost;
pub mod memory;
mod precision;
mod spec;
pub mod timing;

pub use batch::{ResidencyMode, StreamPlanError, StreamedBatchPlan};
pub use cluster::ClusterSpec;
pub use memory::{MemoryError, MemoryLedger};
pub use precision::Precision;
pub use spec::ResourceSpec;
pub use timing::{DeviceMode, SimClock};
