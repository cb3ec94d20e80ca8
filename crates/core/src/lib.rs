//! # ep2-core — EigenPro 2.0: kernel machines that adapt to GPUs
//!
//! This crate implements the paper's contribution. Given a kernel `k` and a
//! computational resource `G = (C_G, S_G)`, EigenPro 2.0 learns a *data- and
//! resource-adaptive kernel* `k_G` whose critical mini-batch size `m*(k_G)`
//! matches the largest batch `m^max_G` the resource can execute in one
//! launch — extending SGD's linear scaling all the way to the hardware's
//! parallel capacity **without changing the interpolating solution**.
//!
//! The three steps of the main algorithm (Section 3):
//!
//! 1. **Step 1** — compute `m^max_G` from the resource
//!    (`ep2_device::batch::max_batch`).
//! 2. **Step 2** — construct `k_G = k_{P_q}` with
//!    `m*(k_G) = m^max_G`: [`Preconditioner`] builds the Nyström top-`q`
//!    eigensystem of the subsample kernel matrix, and
//!    [`autotune`] selects `q` by Eq. (7).
//! 3. **Step 3** — train with the improved EigenPro iteration
//!    (Algorithm 1, [`iteration::EigenProIteration`]) at analytic batch
//!    size `m = m^max_G` and step size `η = m / (β_G + (m−1) λ₁(K_G))`
//!    (the optimal step of Ma–Bassily–Belkin 2017, which the paper's
//!    Table 4 values follow).
//!
//! Supporting pieces: [`model::KernelModel`] (the predictor
//! `f(x) = Σ_i α_i k(x_i, x)`), [`critical`] (critical batch sizes and
//! convergence rates), [`acceleration`] (the Appendix-C acceleration
//! claim), [`counter::FlopCounter`] (per-phase operation counts that drive
//! the simulated GPU clock), and [`trainer::EigenPro2`] — the user-facing
//! "worry-free" trainer with early stopping.
//!
//! # Example
//!
//! ```
//! use ep2_core::trainer::{EigenPro2, TrainConfig};
//! use ep2_data::catalog;
//! use ep2_device::ResourceSpec;
//! use ep2_kernels::KernelKind;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = catalog::mnist_like(300, 0);
//! let (train, test) = data.split_at(250);
//! let config = TrainConfig {
//!     kernel: KernelKind::Gaussian,
//!     bandwidth: 5.0,
//!     epochs: 2,
//!     ..TrainConfig::default()
//! };
//! let outcome = EigenPro2::new(config, ResourceSpec::scaled_virtual_gpu())
//!     .fit(&train, Some(&test))?;
//! assert!(outcome.report.final_train_mse < 1.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod acceleration;
pub mod autotune;
pub mod counter;
pub mod critical;
pub mod distributed;
mod error;
pub mod iteration;
pub mod model;
pub mod persist;
pub mod precond;
pub mod trainer;

pub use error::CoreError;
pub use model::{KernelModel, PackedModel, PredictBuffers, PredictOptions};
pub use persist::AnyModel;
pub use precond::Preconditioner;
