//! The user-facing "worry-free" trainer: Steps 1–3 end to end, with early
//! stopping, dual (simulated-GPU + wall-clock) timing, and a numeric
//! [`Precision`] policy.
//!
//! # Precision policy
//!
//! [`TrainConfig::precision`] selects one of three operating points
//! (see [`ep2_device::Precision`]):
//!
//! - **`F64`** (default): everything in double precision — the library's
//!   historical behaviour, and the reference the other modes are validated
//!   against.
//! - **`F32`**: the paper's GPU configuration. Features, kernel blocks,
//!   weights, and the whole Algorithm-1 loop run in f32; Step 1's memory
//!   accounting gets the full f32 slot budget, so the memory-limited batch
//!   `m^S_G` doubles relative to `F64`. Setup quantities are estimated from
//!   f32-assembled kernel matrices (the dense eigensolver itself still
//!   iterates in f64 — see `ep2_linalg::eigen`).
//! - **`Mixed`**: plan at f64, execute at f32. Subsample kernel assembly,
//!   eigensolves, `β`/`λ₁` estimation, and the analytic step size are
//!   computed exactly as under `F64`, then the preconditioner is cast to
//!   f32 for the hot loop (its spectral scalars are `f64` on both sides, so
//!   the analytic parameters transfer verbatim). Per-epoch error metrics
//!   accumulate in f64 under every mode.
//! - **`Bf16`**: the half-storage extension of `Mixed` — plan at f64,
//!   store at bfloat16, compute at f32. Kernel blocks, streamed tile rings,
//!   features and weights live in 2-byte bf16 (`slot_factor = 0.5`: the
//!   memory-limited batch `m^S_G` and the streamed `n_tile` double vs f32
//!   at equal `S_G`), while every packed-GEMM register tile widens its
//!   panels to f32 at pack time (`Scalar::Compute`) and error-sensitive
//!   reductions accumulate in f32 (`Scalar::Accum`), so the hot loop runs
//!   at f32 FMA speed over half the bytes. Each *stored* value carries
//!   bf16's `2^-8` relative rounding — see the README's rounding-error
//!   model and `tests/precision.rs` for the enforced divergence bounds.
//!
//! Whatever the policy, [`TrainOutcome::model`] is returned in f64 so
//! persistence and downstream evaluation are precision-agnostic.

use std::any::Any;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use ep2_data::{metrics, Dataset};
use ep2_device::{batch, DeviceMode, Precision, ResidencyMode, ResourceSpec, SimClock};
use ep2_kernels::KernelKind;
use ep2_linalg::{Matrix, Scalar};
use ep2_stream::{BlockPlan, StreamEngine};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::autotune::{self, AutoParams};
use crate::counter::FlopCounter;
use crate::iteration::EigenProIteration;
use crate::model::{KernelModel, PredictOptions};
use crate::persist::{self, TrainerState};
use crate::CoreError;

/// Spectral margin added to the planned `λ₁(K_G)` when executing under
/// [`Precision::Bf16`]: the spectral estimates come from the f64 plan, but
/// the executed kernel blocks carry bf16 storage rounding — a perturbation
/// `E` with `|E_ij| ≤ u·|K_ij| ≤ u` (`u = 2^-8`, kernel values in (0, 1]),
/// so the *normalised* operator the stability analysis runs on shifts by at
/// most `‖E‖₂/n ≤ ‖E‖_F/n ≤ u`. The preconditioner cannot damp `E` (it is
/// built from the exact spectrum), so the executed step size is re-derived
/// as `η = m/(β_G + (m−1)(λ₁ + 4u))` — the factor 4 (empirical: 2u still
/// drifts at memory-limited batches, 4u is smooth) covers the analysis
/// running on mini-batch blocks rather than the full Gram matrix, and the
/// second noise source the Frobenius bound misses: the *weights* are also
/// bf16-stored, so every step re-injects `O(u·|w|)` quantisation noise
/// that near-neutral directions (`η'λ ≈ 0`) integrate. This is
/// self-scaling where a flat derate is not: at small batches
/// `(m−1)·2u ≪ β_G` and η is essentially the analytic optimum, while at
/// the memory-limited batches half-width storage unlocks (where
/// `η*λ₁ → 1` with no margin, and a percent-level λ₁ shift demonstrably
/// diverges — f32 at the same `m`/`η` converges) it backs η off by exactly
/// the quantisation-noise share of the spectrum.
pub const BF16_LAMBDA_MARGIN: f64 = 4.0 / 256.0;

/// Early-stopping policy (the interpolation framework's regulariser —
/// Yao–Rosasco–Caponnetto 2007, as adopted by the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EarlyStopping {
    /// Stop after this many epochs without validation improvement.
    pub patience: usize,
    /// Minimum decrease in validation error that counts as improvement.
    pub min_delta: f64,
}

impl Default for EarlyStopping {
    fn default() -> Self {
        EarlyStopping {
            patience: 2,
            min_delta: 1e-4,
        }
    }
}

/// Training configuration. Only the kernel and its bandwidth are required
/// choices (the paper's selling point); everything else has analytic or
/// paper-rule defaults.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Kernel family.
    pub kernel: KernelKind,
    /// Kernel bandwidth σ.
    pub bandwidth: f64,
    /// Maximum training epochs.
    pub epochs: usize,
    /// Fixed coordinate block size `s`; `None` = paper rule
    /// ([`autotune::default_subsample_size`]).
    pub subsample_size: Option<usize>,
    /// Spectral truncation `q`; `None` = Eq. (7) + Appendix-B adjustment.
    pub q: Option<usize>,
    /// Mini-batch size; `None` = `m^max_G` from Step 1.
    pub batch_size: Option<usize>,
    /// Step size; `None` = analytic `η`.
    pub step_size: Option<f64>,
    /// Early stopping on validation error; `None` disables it.
    pub early_stopping: Option<EarlyStopping>,
    /// Stop once training MSE falls below this value (the Figure-2
    /// convergence criterion); `None` disables it.
    pub target_train_mse: Option<f64>,
    /// Stop once validation classification error falls to this value or
    /// below (the Table-3 "match the SVM's accuracy" protocol); `None`
    /// disables it. Requires a validation set to have any effect.
    pub target_val_error: Option<f64>,
    /// Device-timing idealisation for the simulated clock.
    pub device_mode: DeviceMode,
    /// Numeric precision policy (see the module docs).
    pub precision: Precision,
    /// Residency override: `None` (the default) picks
    /// [`ResidencyMode::InCore`] when the Step-1 bound
    /// `(d + l + m) · n ≤ S_G` has a solution and
    /// [`ResidencyMode::Streamed`] (out-of-core kernel-block streaming)
    /// when even `m = 1` over-budgets. `Some(mode)` forces the mode —
    /// forcing `Streamed` on a problem that fits is how the in-core vs
    /// streamed equivalence tests and throughput comparisons run.
    pub residency: Option<ResidencyMode>,
    /// Streamed-mode tile-width override (columns per kernel-block tile);
    /// `None` = the widest tile the ring budget affords. Must still fit the
    /// budget formula — see `ep2_device::batch::streamed_slots`.
    pub stream_tile: Option<usize>,
    /// Streamed-mode producer-count override (tile-assembly stage tasks).
    /// `None` (the default) lets `autotune::plan_streamed` partition the
    /// thread budget between assembly and the update GEMM via the
    /// `device::cost` overlap model; the deprecated `EP2_STREAM_PRODUCERS`
    /// env var is honoured beneath an explicit setting. `Some(p)` runs `p`
    /// producers at every thread budget: the ring is sized to `p + 1`
    /// slots (the pipeline's liveness bound), and a `p` that leaves no
    /// thread for the update GEMM oversubscribes the budget rather than
    /// being clamped. A ring that does not fit the device, or that fits
    /// only at a smaller mini-batch than the double-buffered plan's while
    /// `batch_size` is unset, fails the fit with
    /// [`CoreError::DeviceMemory`].
    pub stream_producers: Option<usize>,
    /// RNG seed (subsampling + batch shuffling).
    pub seed: u64,
    /// Directory for periodic training checkpoints; `None` disables
    /// checkpointing. Checkpoints are `ckpt-{epoch:06}.ep2` files in the v2
    /// persist format (model + [`TrainerState`] + CRC32), written
    /// atomically so a crash mid-write can never corrupt the last good one.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in epochs (default 1 = every epoch). Only epochs
    /// the divergence safeguard did not flag are checkpointed, so a resume
    /// always starts from a healthy state.
    pub checkpoint_every: usize,
    /// Resume from the newest valid checkpoint in `checkpoint_dir` (corrupt
    /// or torn files are skipped with a warning). The restored run continues
    /// the interrupted trajectory exactly: batch shuffles are re-derived per
    /// epoch from `seed`, and weights/η/clock/counters are restored from the
    /// checkpoint, so an uninterrupted run and a killed-and-resumed run
    /// produce bit-identical weights and reports at equal total epochs.
    pub resume: bool,
    /// Retention bound for on-disk checkpoints: keep only the newest `k`
    /// `ckpt-*.ep2` files, pruning older ones **after** each successful
    /// atomic checkpoint write (never mid-write, so the file a crashed
    /// resume would fall back to is always intact). `None` keeps every
    /// checkpoint; values are clamped to at least 1.
    pub checkpoint_keep: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            kernel: KernelKind::Gaussian,
            bandwidth: 5.0,
            epochs: 10,
            subsample_size: None,
            q: None,
            batch_size: None,
            step_size: None,
            early_stopping: Some(EarlyStopping::default()),
            target_train_mse: None,
            target_val_error: None,
            device_mode: DeviceMode::ActualGpu,
            precision: Precision::F64,
            residency: None,
            stream_tile: None,
            stream_producers: None,
            seed: 0,
            checkpoint_dir: None,
            checkpoint_every: 1,
            resume: false,
            checkpoint_keep: None,
        }
    }
}

/// Per-epoch statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Epoch index (1-based).
    pub epoch: usize,
    /// Training MSE at epoch end (always accumulated in f64).
    pub train_mse: f64,
    /// Validation classification error at epoch end (when a validation set
    /// was supplied).
    pub val_error: Option<f64>,
    /// Simulated device seconds elapsed since training started.
    pub simulated_seconds: f64,
    /// Wall-clock seconds elapsed since training started.
    pub wall_seconds: f64,
}

/// Full training report.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// The analytically selected parameters (Table 4's columns).
    pub params: AutoParams,
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// Final training MSE.
    pub final_train_mse: f64,
    /// Final validation classification error.
    pub final_val_error: Option<f64>,
    /// Total simulated device seconds.
    pub simulated_seconds: f64,
    /// Total wall-clock seconds.
    pub wall_seconds: f64,
    /// Total iterations executed.
    pub iterations: u64,
    /// Preconditioner overhead fraction (Table 1's measured counterpart).
    pub overhead_fraction: f64,
    /// Why training stopped.
    pub stop_reason: StopReason,
    /// Times the step size was halved by the divergence safeguard (0 when
    /// the analytic η was stable, the common case).
    pub eta_backoffs: u32,
    /// Numeric precision policy the run executed under.
    pub precision: Precision,
    /// Residency the run executed under (`Streamed` = out-of-core
    /// kernel-block streaming).
    pub residency: ResidencyMode,
    /// High-water mark of ledger-charged device slots over the whole run —
    /// streamed runs assert `peak_slots <= budget_slots` to prove they
    /// never exceeded `S_G`.
    pub peak_slots: f64,
    /// The device budget `S_G` the ledger enforced (raw f32-reference
    /// slots).
    pub budget_slots: f64,
    /// Times the divergence safeguard restored weights from the last
    /// healthy checkpoint instead of zeroing them (0 in stable runs).
    pub rollbacks: u32,
    /// Dead stream producers the self-healing pipeline absorbed (respawns
    /// or work redistributions); 0 for in-core runs and fault-free streams.
    pub stream_recoveries: usize,
    /// Graceful-degradation and self-healing events, in order: mid-setup
    /// memory re-plans (in-core → streamed), tile narrowings, and stream
    /// producer deaths the pipeline recovered from. Empty in healthy runs.
    pub degradations: Vec<String>,
    /// `Some(epoch)` when this run resumed from a checkpoint written at
    /// that epoch.
    pub resumed_from_epoch: Option<usize>,
}

/// Why the training loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// All configured epochs ran.
    EpochsExhausted,
    /// Validation error stopped improving.
    EarlyStopped,
    /// The training-MSE target was reached.
    TargetReached,
}

/// Outcome of [`EigenPro2::fit`]: the trained model plus its report.
#[derive(Debug)]
pub struct TrainOutcome {
    /// The trained kernel machine (always returned in f64; under
    /// `F32`/`Mixed` the f32 weights are widened losslessly).
    pub model: KernelModel,
    /// Metrics, parameters and timings.
    pub report: TrainReport,
}

/// Validation data + metric, precision-agnostic (features are cast into the
/// training precision once per run; the metric itself accumulates in f64).
enum ValMetric {
    /// Classification error against integer labels (arg-max over outputs).
    Classification {
        features: Matrix,
        labels: Vec<usize>,
    },
    /// Mean squared error against continuous targets.
    Mse { features: Matrix, targets: Matrix },
}

/// The EigenPro 2.0 trainer.
#[derive(Debug, Clone)]
pub struct EigenPro2 {
    config: TrainConfig,
    device: ResourceSpec,
}

impl EigenPro2 {
    /// Creates a trainer for the given configuration and device.
    pub fn new(config: TrainConfig, device: ResourceSpec) -> Self {
        EigenPro2 { config, device }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains on `train`, optionally tracking validation classification
    /// error on `val`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for inconsistent configurations or eigensolver
    /// failures.
    pub fn fit(&self, train: &Dataset, val: Option<&Dataset>) -> Result<TrainOutcome, CoreError> {
        let val_metric = val.map(|v| ValMetric::Classification {
            features: v.features.clone(),
            labels: v.labels.clone(),
        });
        self.fit_impl(&train.features, &train.targets, val_metric)
    }

    /// Trains a regression model on continuous targets; the validation
    /// metric (driving early stopping and `target_val_error`) is the
    /// validation MSE.
    ///
    /// Kernel interpolation is loss-agnostic (Remark 2.1), so this is the
    /// same Algorithm-1 training loop as classification — only the
    /// validation metric differs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for inconsistent configurations or eigensolver
    /// failures.
    pub fn fit_regression(
        &self,
        train: &ep2_data::RegressionDataset,
        val: Option<&ep2_data::RegressionDataset>,
    ) -> Result<TrainOutcome, CoreError> {
        let val_metric = val.map(|v| ValMetric::Mse {
            features: v.features.clone(),
            targets: v.targets.clone(),
        });
        self.fit_impl(&train.features, &train.targets, val_metric)
    }

    fn fit_impl(
        &self,
        features: &Matrix,
        targets: &Matrix,
        val: Option<ValMetric>,
    ) -> Result<TrainOutcome, CoreError> {
        match self.config.precision {
            Precision::F64 => self.fit_typed::<f64>(features, targets, val, false),
            Precision::F32 => self.fit_typed::<f32>(features, targets, val, false),
            Precision::Mixed => self.fit_typed::<f32>(features, targets, val, true),
            Precision::Bf16 => self.fit_typed::<ep2_linalg::Bf16>(features, targets, val, true),
        }
    }

    /// The training loop, monomorphised per precision. `plan_at_f64` is the
    /// `Mixed` policy: Steps 1–2 (subsample eigensolve, β/λ₁ estimation,
    /// analytic η) run at f64 on the f64 data, and only the resulting
    /// preconditioner is cast into `S` for the Algorithm-1 hot loop.
    fn fit_typed<S: Scalar>(
        &self,
        features: &Matrix,
        targets: &Matrix,
        val: Option<ValMetric>,
        plan_at_f64: bool,
    ) -> Result<TrainOutcome, CoreError> {
        let cfg = &self.config;
        if features.rows() == 0 {
            return Err(CoreError::InvalidConfig {
                message: "training set is empty".to_string(),
            });
        }
        if cfg.epochs == 0 {
            return Err(CoreError::InvalidConfig {
                message: "epochs must be positive".to_string(),
            });
        }
        let kernel: Arc<dyn ep2_kernels::Kernel<S>> =
            cfg.kernel.with_bandwidth_in::<S>(cfg.bandwidth).into();
        // Borrow when S is already f64 (the default path pays no cast copy).
        let features_s: Cow<'_, Matrix<S>> = cast_cow(features);
        let targets_s: Cow<'_, Matrix<S>> = cast_cow(targets);
        let n_outputs = targets.cols();
        let n = features.rows();
        let d = features.cols();

        // Residency: honour the override, otherwise stream exactly when the
        // in-core Step-1 bound has no solution (m^S_G = 0 — features +
        // weights + one kernel-block row over-budget).
        let fits = batch::fits_in_core(&self.device, n, d, n_outputs, cfg.precision);
        let residency = cfg.residency.unwrap_or(if fits {
            ResidencyMode::InCore
        } else {
            ResidencyMode::Streamed
        });
        if residency == ResidencyMode::InCore && !fits {
            return Err(CoreError::DeviceMemory {
                message: format!(
                    "in-core residency needs (d + l + 1)·n = {:.3e} slots of {:.3e} at {}; \
                     the dataset can only train Streamed (--out-of-core)",
                    ((d + n_outputs + 1) * n) as f64 * cfg.precision.slot_factor(),
                    self.device.memory_floats,
                    cfg.precision,
                ),
            });
        }

        // Steps 1–2 (+ Step-3 parameters), residency-specific. The producer
        // count resolves explicit config > deprecated env var > planned;
        // `max_batch_streamed_planned` (shared with `ep2 plan`, so both
        // always agree on the tiling) sizes the ring to the planned
        // producer count, and the final cost-model partition runs inside
        // `plan_streamed` once `s`/`q` are known.
        let requested_producers = cfg.stream_producers.or(ep2_stream::producer_override());
        let mut stream_plan = match residency {
            ResidencyMode::InCore => None,
            ResidencyMode::Streamed => {
                let mut splan = batch::max_batch_streamed_planned(
                    &self.device,
                    n,
                    d,
                    n_outputs,
                    cfg.precision,
                    cfg.batch_size,
                    requested_producers,
                    ep2_runtime::current_threads(),
                )
                .map_err(|e| CoreError::DeviceMemory {
                    message: e.to_string(),
                })?;
                if let Some(tile) = cfg.stream_tile {
                    splan.n_tile = tile.clamp(1, n);
                    splan.resident_elements = batch::streamed_slots(
                        n,
                        d,
                        n_outputs,
                        splan.m,
                        splan.n_tile,
                        splan.tiles_in_flight,
                    );
                    if splan.resident_slots(cfg.precision) > self.device.memory_floats {
                        return Err(CoreError::DeviceMemory {
                            message: format!(
                                "stream_tile override {} needs {:.3e} slots of {:.3e}",
                                splan.n_tile,
                                splan.resident_slots(cfg.precision),
                                self.device.memory_floats,
                            ),
                        });
                    }
                }
                Some(splan)
            }
        };
        let centers: Arc<Matrix<S>> = Arc::new(features_s.into_owned());
        // Steps 1–2 planning, re-callable: the graceful-degradation loop
        // below may re-plan after a mid-setup allocation failure (in-core →
        // streamed residency, or a narrower streamed tile).
        type Planned<C> = Result<(AutoParams, Option<crate::Preconditioner<C>>), CoreError>;
        let plan_with = |splan: Option<&batch::StreamedBatchPlan>| -> Planned<S::Compute> {
            Ok(match splan {
                None => {
                    if plan_at_f64 {
                        let kernel64: Arc<dyn ep2_kernels::Kernel> =
                            cfg.kernel.with_bandwidth(cfg.bandwidth).into();
                        let (params, precond64) = autotune::plan(
                            &kernel64,
                            features,
                            n_outputs,
                            &self.device,
                            cfg.subsample_size,
                            cfg.q,
                            cfg.batch_size,
                            cfg.precision,
                            cfg.seed,
                        )?;
                        (params, precond64.map(|p| p.cast::<S::Compute>()))
                    } else {
                        let (params, precond) = autotune::plan(
                            &kernel,
                            &centers,
                            n_outputs,
                            &self.device,
                            cfg.subsample_size,
                            cfg.q,
                            cfg.batch_size,
                            cfg.precision,
                            cfg.seed,
                        )?;
                        (params, precond.map(precond_into_compute))
                    }
                }
                Some(splan) => {
                    if plan_at_f64 {
                        let kernel64: Arc<dyn ep2_kernels::Kernel> =
                            cfg.kernel.with_bandwidth(cfg.bandwidth).into();
                        let (params, precond64) = autotune::plan_streamed(
                            &kernel64,
                            features,
                            n_outputs,
                            &self.device,
                            cfg.subsample_size,
                            cfg.q,
                            splan,
                            requested_producers,
                            cfg.precision,
                            cfg.seed,
                        )?;
                        (params, precond64.map(|p| p.cast::<S::Compute>()))
                    } else {
                        let (params, precond) = autotune::plan_streamed(
                            &kernel,
                            &centers,
                            n_outputs,
                            &self.device,
                            cfg.subsample_size,
                            cfg.q,
                            splan,
                            requested_producers,
                            cfg.precision,
                            cfg.seed,
                        )?;
                        (params, precond.map(precond_into_compute))
                    }
                }
            })
        };
        let (mut params, mut precond) = plan_with(stream_plan.as_ref())?;
        // Enforce the Step-1 memory accounting on the device ledger, at the
        // slot width of the chosen precision (f64 elements cost two
        // f32-reference slots). In-core: the resident features (d·n) +
        // weights (l·n) + the mini-batch kernel block (m·n). Streamed: the
        // weights (l·n) + batch feature block (d·m) held here, plus the tile
        // ring charged by the engine below. The guard is held for the whole
        // training run (dropped explicitly after the last epoch), so the
        // reservation provably spans every transient the loop charges.
        //
        // A `MemoryError` here does not abort the run: the loop degrades
        // gracefully — an in-core residency that fails to allocate re-plans
        // as streamed, and a streamed ring that fails to allocate narrows
        // its tile (halving down to a 16-column floor) — recording each
        // step in `degradations` so the report shows what happened.
        let ledger = ep2_device::MemoryLedger::new(self.device.memory_floats);
        let mut residency = residency;
        let mut degradations: Vec<String> = Vec::new();
        let mut executor = loop {
            let built: Result<Executor<S>, ep2_device::MemoryError> = match &stream_plan {
                None => {
                    let resident_slots =
                        ((d + n_outputs + params.m) * n) as f64 * cfg.precision.slot_factor();
                    ledger
                        .alloc(resident_slots)
                        .map(|guard| Executor::InCore { _residency: guard })
                }
                Some(splan) => {
                    let bplan = BlockPlan::from_streamed(n, d, n_outputs, splan, cfg.precision)
                        .with_stream_threads(
                            params
                                .stream_threads
                                .expect("plan_streamed always records the thread partition"),
                        );
                    ledger.alloc(bplan.static_slots()).and_then(|guard| {
                        StreamEngine::new(Arc::clone(&kernel), Arc::clone(&centers), bplan, &ledger)
                            .map(|engine| Executor::Streamed {
                                engine: Box::new(engine),
                                shape: ep2_device::cost::ProblemShape {
                                    n,
                                    m: params.m,
                                    d,
                                    l: n_outputs,
                                    s: params.s,
                                    q: params.adjusted_q,
                                },
                                _residency: guard,
                            })
                    })
                }
            };
            match built {
                Ok(executor) => break executor,
                Err(e) => match &mut stream_plan {
                    None => {
                        let splan = batch::max_batch_streamed_planned(
                            &self.device,
                            n,
                            d,
                            n_outputs,
                            cfg.precision,
                            cfg.batch_size,
                            requested_producers,
                            ep2_runtime::current_threads(),
                        )
                        .map_err(|plan_err| CoreError::DeviceMemory {
                            message: format!(
                                "in-core residency allocation failed ({e}) and no streamed \
                                 plan fits either: {plan_err}"
                            ),
                        })?;
                        degradations.push(format!(
                            "in-core residency allocation failed ({e}); re-planned to \
                             streamed residency (tile {})",
                            splan.n_tile
                        ));
                        residency = ResidencyMode::Streamed;
                        stream_plan = Some(splan);
                        let (p, pc) = plan_with(stream_plan.as_ref())?;
                        params = p;
                        precond = pc;
                    }
                    Some(splan) if splan.n_tile > 16 => {
                        let narrowed = (splan.n_tile / 2).max(16);
                        degradations.push(format!(
                            "streamed allocation failed ({e}); narrowed tile {} -> {narrowed}",
                            splan.n_tile
                        ));
                        splan.n_tile = narrowed;
                        splan.resident_elements = batch::streamed_slots(
                            n,
                            d,
                            n_outputs,
                            splan.m,
                            narrowed,
                            splan.tiles_in_flight,
                        );
                        let (p, pc) = plan_with(stream_plan.as_ref())?;
                        params = p;
                        precond = pc;
                    }
                    Some(_) => {
                        return Err(CoreError::DeviceMemory {
                            message: format!(
                                "{e} (streamed tile already at the 16-column floor; no \
                                 degradation path left)"
                            ),
                        })
                    }
                },
            }
        };
        let m = params.m;
        // The analytic η sits on the stability edge: η* = m/(β_G + (m−1)λ₁)
        // with λ₁ estimated from the f64 plan. Under bf16 the *executed*
        // kernel blocks carry 2^-8-relative storage rounding the
        // preconditioner cannot damp, so the executed step is re-derived
        // with the quantisation margin [`BF16_LAMBDA_MARGIN`] added to λ₁.
        // The reported plan keeps the analytic value (it is the f64 plan,
        // transferred verbatim), an explicit `step_size` is always
        // respected, and the divergence safeguard below remains the
        // backstop.
        let eta = cfg.step_size.unwrap_or(match cfg.precision {
            Precision::Bf16 => crate::critical::optimal_step_size(
                m,
                params.beta_g,
                params.lambda1_g + BF16_LAMBDA_MARGIN,
            ),
            _ => params.eta,
        });
        let model = KernelModel::zeros_shared(kernel, centers, n_outputs);
        let mut iter = EigenProIteration::new(model, precond, eta);
        let mut clock = SimClock::new(self.device.clone(), cfg.device_mode);
        let start = Instant::now();

        // Validation features cast into the training precision once
        // (borrowed under f64).
        let val_s: Option<(Cow<'_, Matrix<S>>, &ValMetric)> = val.as_ref().map(|v| {
            let f = match v {
                ValMetric::Classification { features, .. } => cast_cow(features),
                ValMetric::Mse { features, .. } => cast_cow(features),
            };
            (f, v)
        });

        let mut epochs_out = Vec::with_capacity(cfg.epochs);
        let mut best_val = f64::INFINITY;
        let mut since_best = 0usize;
        let mut stop_reason = StopReason::EpochsExhausted;
        let mut prev_mse = f64::INFINITY;
        let mut eta_backoffs = 0_u32;
        let mut rollbacks = 0_u32;
        // Last healthy weights, refreshed at the checkpoint cadence: the
        // divergence safeguard's rollback target, kept in memory even when
        // no checkpoint directory is configured.
        let mut last_good: Option<Matrix<S>> = None;
        let mut start_epoch = 1_usize;
        let mut resumed_from_epoch = None;
        let fingerprint = plan_fingerprint(cfg, n, d, n_outputs, &params, residency);
        let ckpt_kernel: Option<Arc<dyn ep2_kernels::Kernel>> = cfg
            .checkpoint_dir
            .as_ref()
            .map(|_| cfg.kernel.with_bandwidth(cfg.bandwidth).into());
        if let Some(dir) = &cfg.checkpoint_dir {
            // Fail fast, before the expensive run: a checkpoint directory
            // that cannot be created would otherwise degrade every epoch's
            // snapshot into a warning.
            std::fs::create_dir_all(dir).map_err(|e| CoreError::InvalidConfig {
                message: format!("cannot create checkpoint directory {}: {e}", dir.display()),
            })?;
        }

        if cfg.resume {
            let dir = cfg
                .checkpoint_dir
                .as_deref()
                .ok_or_else(|| CoreError::InvalidConfig {
                    message: "resume requires checkpoint_dir".to_string(),
                })?;
            if let Some((path, ckpt_model, state)) = latest_valid_checkpoint(dir) {
                if state.plan_fingerprint != fingerprint {
                    return Err(CoreError::InvalidConfig {
                        message: format!(
                            "checkpoint {} was written under a different plan \
                             (fingerprint {:#018x}, this run {:#018x}); refusing to resume",
                            path.display(),
                            state.plan_fingerprint,
                            fingerprint
                        ),
                    });
                }
                if state.history.len() as u64 != state.epochs_done
                    || ckpt_model.n_centers() != n
                    || ckpt_model.n_outputs() != n_outputs
                {
                    return Err(CoreError::InvalidConfig {
                        message: format!(
                            "checkpoint {} is inconsistent with this run's data",
                            path.display()
                        ),
                    });
                }
                // Lossless: checkpoints store f64 weights widened from `S`,
                // so casting back reproduces the stored values bit-for-bit.
                *iter.model_mut().weights_mut() = ckpt_model.weights_in();
                iter.set_eta(state.eta);
                *iter.counter_mut() = FlopCounter {
                    sgd_ops: state.sgd_ops,
                    precond_ops: state.precond_ops,
                    iterations: state.iterations,
                };
                clock.restore(
                    state.simulated_seconds,
                    state.sim_launches,
                    state.sim_total_ops,
                );
                epochs_out = state.history.clone();
                best_val = state.best_val;
                since_best = state.since_best as usize;
                prev_mse = state.prev_mse;
                eta_backoffs = state.eta_backoffs;
                rollbacks = state.rollbacks;
                last_good = Some(iter.model().weights().clone());
                start_epoch = state.epochs_done as usize + 1;
                resumed_from_epoch = Some(state.epochs_done as usize);
            }
        }

        // Streamed runs evaluate epoch metrics through the column-tiled
        // prediction path so the transient kernel panel stays within one
        // ring slot (`m x n_tile`) — the in-core `block x n` panel would
        // break the very budget streaming exists to respect.
        let eval_tile = stream_plan.as_ref().map(|sp| (m.max(1), sp.n_tile));

        'outer: for epoch in start_epoch..=cfg.epochs {
            // Each epoch derives its shuffle from (seed, epoch) alone — not
            // from a run-long RNG stream — so a resumed run at epoch e
            // replays exactly the batches the uninterrupted run drew there.
            let mut rng = StdRng::seed_from_u64(epoch_seed(cfg.seed, epoch as u64));
            let mut indices: Vec<usize> = (0..n).collect();
            indices.shuffle(&mut rng);
            if matches!(executor, Executor::Streamed { .. }) {
                // A streamed epoch can still fail beyond what the pipeline's
                // self-healing absorbs (every producer dead with the respawn
                // budget exhausted): surface the panic as a typed error so
                // callers can retry from the last checkpoint.
                let run = catch_unwind(AssertUnwindSafe(|| {
                    executor.run_epoch(&mut iter, &targets_s, &indices, m, &mut clock)
                }));
                if let Err(payload) = run {
                    return Err(CoreError::Stream {
                        message: panic_message(payload.as_ref()),
                    });
                }
            } else {
                executor.run_epoch(&mut iter, &targets_s, &indices, m, &mut clock);
            }
            let stats = epoch_stats(
                epoch,
                &iter,
                targets,
                val_s.as_ref().map(|(f, v)| (f.as_ref(), *v)),
                eval_tile,
                &clock,
                start,
            );
            // Divergence safeguard: the analytic η relies on estimated
            // spectra; if the training MSE regresses, the estimate was on
            // the unstable side — halve the step and continue. At paper
            // scale (s = 1.2e4) this never fires; it protects small-s runs.
            // A catastrophic blow-up (MSE far beyond the one-hot target
            // scale) additionally rolls the weights back to the last
            // healthy snapshot (falling back to a zero restart when none
            // exists yet), since exponentially overgrown weights cannot be
            // contracted back within any reasonable epoch budget.
            let diverged = stats.train_mse > prev_mse * 1.2;
            if diverged && eta_backoffs < 16 {
                iter.set_eta(iter.eta() * 0.5);
                eta_backoffs += 1;
                if !stats.train_mse.is_finite() || stats.train_mse > 100.0 {
                    match &last_good {
                        Some(weights) => {
                            iter.model_mut()
                                .weights_mut()
                                .as_mut_slice()
                                .copy_from_slice(weights.as_slice());
                            rollbacks += 1;
                        }
                        None => iter.model_mut().weights_mut().as_mut_slice().fill(S::ZERO),
                    }
                }
            }
            // "Healthy" is the bar for a state worth resuming from: finite
            // and within the catastrophic-blow-up bound. A mild regression
            // (the 1.2x divergence test above) still checkpoints — the
            // halved η is part of the recorded state, so resuming from it
            // continues the corrected trajectory.
            let healthy = stats.train_mse.is_finite() && stats.train_mse <= 100.0;
            prev_mse = stats.train_mse.min(prev_mse);
            let reached_target = cfg
                .target_train_mse
                .map(|t| stats.train_mse <= t)
                .unwrap_or(false)
                || matches!(
                    (cfg.target_val_error, stats.val_error),
                    (Some(t), Some(ve)) if ve <= t
                );
            let mut stop = None;
            if let (Some(es), Some(ve)) = (cfg.early_stopping, stats.val_error) {
                if ve < best_val - es.min_delta {
                    best_val = ve;
                    since_best = 0;
                } else {
                    since_best += 1;
                }
                if since_best >= es.patience {
                    stop = Some(StopReason::EarlyStopped);
                }
            }
            if stop.is_none() && reached_target {
                stop = Some(StopReason::TargetReached);
            }
            epochs_out.push(stats);
            // Checkpoint cadence: only healthy epochs refresh the rollback
            // snapshot and hit disk, so the newest checkpoint is always a
            // state worth resuming from. A failed write warns and keeps
            // training — the previous checkpoint survives intact (atomic
            // rename), which is exactly the crash-consistency contract.
            if healthy
                && (epoch % cfg.checkpoint_every.max(1) == 0
                    || stop.is_some()
                    || epoch == cfg.epochs)
            {
                last_good = Some(iter.model().weights().clone());
                if let (Some(dir), Some(k64)) = (&cfg.checkpoint_dir, &ckpt_kernel) {
                    let state = TrainerState {
                        epochs_done: epoch as u64,
                        eta: iter.eta(),
                        eta_backoffs,
                        rollbacks,
                        best_val,
                        since_best: since_best as u64,
                        prev_mse,
                        sgd_ops: iter.counter().sgd_ops,
                        precond_ops: iter.counter().precond_ops,
                        iterations: iter.counter().iterations,
                        simulated_seconds: clock.elapsed(),
                        sim_launches: clock.launches(),
                        sim_total_ops: clock.total_ops(),
                        plan_fingerprint: fingerprint,
                        precision: cfg.precision,
                        history: epochs_out.clone(),
                    };
                    let snapshot = KernelModel::from_weights(
                        Arc::clone(k64),
                        features.clone(),
                        iter.model().weights().cast(),
                    );
                    let path = dir.join(format!("ckpt-{epoch:06}.ep2"));
                    if let Err(e) = persist::save_checkpoint(&snapshot, &state, &path) {
                        eprintln!(
                            "warning: checkpoint write failed at epoch {epoch} ({e}); \
                             training continues"
                        );
                    } else if let Some(keep) = cfg.checkpoint_keep {
                        // Prune only after the atomic write landed: the
                        // newest file is durable before any older one is
                        // deleted, so a crash at any point still leaves a
                        // resumable checkpoint on disk.
                        prune_checkpoints(dir, keep.max(1));
                    }
                }
            }
            if let Some(reason) = stop {
                stop_reason = reason;
                break 'outer;
            }
        }

        // Training over: collect the self-healing log, release the ring and
        // the residency reservation, then audit the ledger — the whole run,
        // tiles included, must have stayed within `S_G`.
        let stream_recoveries = executor.stream_recoveries();
        degradations.extend(executor.stream_fault_log());
        drop(executor);
        let peak_slots = ledger.peak_slots();
        let budget_slots = ledger.budget();
        debug_assert!(peak_slots <= budget_slots, "ledger over-ran S_G");

        let last = *epochs_out.last().expect("at least one epoch ran");
        let report = TrainReport {
            params,
            final_train_mse: last.train_mse,
            final_val_error: last.val_error,
            simulated_seconds: clock.elapsed(),
            wall_seconds: start.elapsed().as_secs_f64(),
            iterations: iter.counter().iterations,
            overhead_fraction: iter.counter().overhead_fraction(),
            epochs: epochs_out,
            stop_reason,
            eta_backoffs,
            precision: cfg.precision,
            residency,
            peak_slots,
            budget_slots,
            rollbacks,
            stream_recoveries,
            degradations,
            resumed_from_epoch,
        };
        Ok(TrainOutcome {
            model: into_f64_model(iter.into_model()),
            report,
        })
    }
}

/// The per-epoch execution strategy, carrying the residency reservation it
/// runs under (the RAII guard lives exactly as long as training does).
enum Executor<S: Scalar> {
    /// The paper's path: one in-core `step` per mini-batch.
    InCore {
        _residency: ep2_device::memory::Allocation,
    },
    /// Out-of-core: the streaming engine produces kernel-block tiles into
    /// its ledger-charged ring while `step_streamed` consumes them. The
    /// engine is boxed so the enum's variants stay size-balanced (one
    /// executor exists per training run — the indirection is free).
    Streamed {
        engine: Box<StreamEngine<S>>,
        /// Table-1 shape of one iteration, for the streamed cost model
        /// (`m` is rewritten per mini-batch — the last one may be short).
        shape: ep2_device::cost::ProblemShape,
        _residency: ep2_device::memory::Allocation,
    },
}

impl<S: Scalar> Executor<S> {
    /// Dead producers the self-healing stream pipeline absorbed (0 for
    /// in-core execution).
    fn stream_recoveries(&self) -> usize {
        match self {
            Executor::InCore { .. } => 0,
            Executor::Streamed { engine, .. } => engine.recoveries(),
        }
    }

    /// Human-readable log of producer deaths the pipeline recovered from.
    fn stream_fault_log(&self) -> Vec<String> {
        match self {
            Executor::InCore { .. } => Vec::new(),
            Executor::Streamed { engine, .. } => engine.fault_log().to_vec(),
        }
    }

    /// Runs one epoch over the shuffled `indices` in mini-batches of `m`,
    /// recording every iteration's operation count on the simulated clock.
    fn run_epoch(
        &mut self,
        iter: &mut EigenProIteration<S>,
        targets: &Matrix<S>,
        indices: &[usize],
        m: usize,
        clock: &mut SimClock,
    ) {
        match self {
            Executor::InCore { .. } => {
                for chunk in indices.chunks(m) {
                    let ops = iter.step(chunk, targets);
                    clock.record_launch(ops);
                }
            }
            Executor::Streamed { engine, shape, .. } => {
                let n_tile = engine.plan().n_tile;
                let batches: Vec<&[usize]> = indices.chunks(m).collect();
                engine.run_epoch(&batches, |bi, tiles| {
                    iter.step_streamed(batches[bi], targets, tiles);
                    // The simulated clock prices the *exposed* critical path
                    // of the overlapped pipeline (assembly of tile t+1 runs
                    // under the update of tile t) — the same
                    // `cost::streamed_eigenpro` model the fig3b harness
                    // plans with, so `ep2 train --out-of-core` and the
                    // fig3b tables agree on what a streamed iteration
                    // costs. The FlopCounter keeps counting the full work.
                    let shape = ep2_device::cost::ProblemShape {
                        m: batches[bi].len(),
                        ..*shape
                    };
                    let exposed = ep2_device::cost::streamed_eigenpro(&shape, n_tile).exposed_ops;
                    clock.record_launch(exposed);
                });
            }
        }
    }
}

/// Moves a freshly planned preconditioner to the GEMM compute precision the
/// iteration holds it at — a free move for the native floats
/// (`S::Compute == S`), a widening cast only under bf16 storage.
fn precond_into_compute<S: Scalar>(
    p: crate::Preconditioner<S>,
) -> crate::Preconditioner<S::Compute> {
    let boxed: Box<dyn Any> = Box::new(p);
    match boxed.downcast::<crate::Preconditioner<S::Compute>>() {
        Ok(same) => *same,
        Err(boxed) => boxed
            .downcast_ref::<crate::Preconditioner<S>>()
            .expect("preconditioner has type Preconditioner<S>")
            .cast(),
    }
}

/// Casts a borrowed f64 matrix into the training precision, borrowing
/// (zero-copy) when `S` is already `f64`.
fn cast_cow<S: Scalar>(m: &Matrix) -> Cow<'_, Matrix<S>> {
    match (m as &dyn Any).downcast_ref::<Matrix<S>>() {
        Some(same) => Cow::Borrowed(same),
        None => Cow::Owned(m.cast()),
    }
}

/// Converts the trained model back to f64 — a move (no copy) when `S` is
/// already `f64`, a lossless widening cast otherwise.
fn into_f64_model<S: Scalar>(model: KernelModel<S>) -> KernelModel {
    let boxed: Box<dyn Any> = Box::new(model);
    match boxed.downcast::<KernelModel>() {
        Ok(same) => *same,
        Err(boxed) => boxed
            .downcast_ref::<KernelModel<S>>()
            .expect("model has type KernelModel<S>")
            .cast(),
    }
}

/// Splitmix64 over `(seed, epoch)`: every epoch's shuffle seed is derived
/// independently of how many epochs ran before it, which is what makes
/// checkpoint resume trajectory-exact.
fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    let mut z = seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a fingerprint of the executed plan. A checkpoint refuses to resume
/// under a different fingerprint: same data shape, analytic parameters,
/// kernel, precision, seed and residency — or nothing.
fn plan_fingerprint(
    cfg: &TrainConfig,
    n: usize,
    d: usize,
    l: usize,
    params: &AutoParams,
    residency: ResidencyMode,
) -> u64 {
    let tag = format!(
        "{:?}|{n}|{d}|{l}|{}|{}|{}|{:?}|{:016x}|{}|{residency:?}",
        cfg.kernel,
        params.m,
        params.s,
        params.adjusted_q,
        cfg.precision,
        cfg.bandwidth.to_bits(),
        cfg.seed,
    );
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for b in tag.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Finds the newest loadable checkpoint in `dir` (highest epoch whose file
/// parses and passes its CRC). Torn or corrupt files — e.g. a crash mid
/// `write(2)` before the atomic rename, or bit rot — are skipped with a
/// warning, so recovery lands on the last *good* checkpoint.
fn latest_valid_checkpoint(dir: &Path) -> Option<(PathBuf, persist::AnyModel, TrainerState)> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(epoch) = name
            .strip_prefix("ckpt-")
            .and_then(|rest| rest.strip_suffix(".ep2"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((epoch, path));
    }
    found.sort_by_key(|&(epoch, _)| std::cmp::Reverse(epoch));
    for (_, path) in found {
        match persist::load_any_with_state(&path) {
            Ok((model, Some(state))) => return Some((path, model, state)),
            Ok((_, None)) => {
                eprintln!(
                    "warning: {} carries no trainer state; skipping",
                    path.display()
                );
            }
            Err(e) => {
                eprintln!(
                    "warning: skipping corrupt checkpoint {}: {e}",
                    path.display()
                );
            }
        }
    }
    None
}

/// Enumerates `ckpt-NNNNNN.ep2` files in `dir`, sorted by epoch.
fn checkpoint_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found: Vec<(u64, PathBuf)> = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(epoch) = name
            .strip_prefix("ckpt-")
            .and_then(|rest| rest.strip_suffix(".ep2"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        found.push((epoch, path));
    }
    found.sort_by_key(|&(epoch, _)| epoch);
    found
}

/// Deletes all but the newest `keep` checkpoints in `dir` (by epoch
/// number). Called only after a successful atomic checkpoint write, so the
/// retained newest file is always a complete, durable checkpoint; a failed
/// unlink merely warns — stale files are retried on the next prune.
fn prune_checkpoints(dir: &Path, keep: usize) {
    let found = checkpoint_files(dir);
    for (_, path) in found.iter().take(found.len().saturating_sub(keep)) {
        if let Err(e) = std::fs::remove_file(path) {
            eprintln!(
                "warning: could not prune checkpoint {}: {e}",
                path.display()
            );
        }
    }
}

/// Extracts the human-readable message from a `catch_unwind` payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "stream pipeline panicked".to_string()
    }
}

fn epoch_stats<S: Scalar>(
    epoch: usize,
    iter: &EigenProIteration<S>,
    targets: &Matrix,
    val: Option<(&Matrix<S>, &ValMetric)>,
    eval_tile: Option<(usize, usize)>,
    clock: &SimClock,
    start: Instant,
) -> EpochStats {
    // `eval_tile = (block_rows, col_tile)` routes evaluation through the
    // column-tiled prediction so streamed runs honour their memory budget.
    let predict = |x: &Matrix<S>| {
        let opts = match eval_tile {
            Some((rows, cols)) => PredictOptions::new().block_rows(rows).col_tile(cols),
            None => PredictOptions::default(),
        };
        iter.model().predict_with(x, &opts)
    };
    let train_pred = predict(iter.model().centers());
    let train_mse = metrics::mse(&train_pred, targets);
    let val_error = val.map(|(features_s, metric)| {
        let pred = predict(features_s);
        match metric {
            ValMetric::Classification { labels, .. } => {
                metrics::classification_error(&pred, labels)
            }
            ValMetric::Mse { targets, .. } => metrics::mse(&pred, targets),
        }
    });
    EpochStats {
        epoch,
        train_mse,
        val_error,
        simulated_seconds: clock.elapsed(),
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

/// Predicts class labels with a trained model (argmax over outputs).
///
/// # Panics
///
/// Panics if `x.cols()` differs from the model's feature dimension.
pub fn predict_labels(model: &KernelModel, x: &Matrix) -> Vec<usize> {
    let pred = model.predict_with(x, &PredictOptions::default());
    (0..pred.rows())
        .map(|i| {
            ep2_linalg::ops::argmax(pred.row(i))
                .expect("non-empty row")
                .0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ep2_data::catalog;

    fn quick_config() -> TrainConfig {
        TrainConfig {
            kernel: KernelKind::Gaussian,
            bandwidth: 4.0,
            epochs: 5,
            subsample_size: Some(150),
            early_stopping: None,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn trains_mnist_like_to_low_error() {
        let data = catalog::mnist_like(500, 3);
        let (train, test) = data.split_at(400);
        let trainer = EigenPro2::new(quick_config(), ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, Some(&test)).unwrap();
        let err = out.report.final_val_error.unwrap();
        assert!(err < 0.12, "test error {err}");
        // Train MSE decreases monotonically (allow tiny noise).
        let mses: Vec<f64> = out.report.epochs.iter().map(|e| e.train_mse).collect();
        assert!(mses.last().unwrap() < &mses[0]);
        assert_eq!(out.report.precision, Precision::F64);
    }

    #[test]
    fn f32_policy_trains_to_comparable_error() {
        let data = catalog::mnist_like(500, 3);
        let (train, test) = data.split_at(400);
        let cfg = TrainConfig {
            precision: Precision::F32,
            ..quick_config()
        };
        let trainer = EigenPro2::new(cfg, ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, Some(&test)).unwrap();
        let err = out.report.final_val_error.unwrap();
        assert!(err < 0.12, "f32 test error {err}");
        assert_eq!(out.report.precision, Precision::F32);
        // The returned model is f64 regardless of the training precision.
        let pred = out
            .model
            .predict_with(&test.features, &PredictOptions::default());
        assert_eq!(pred.shape(), (test.len(), train.n_classes));
    }

    #[test]
    fn mixed_policy_matches_f64_mse_closely() {
        let data = catalog::mnist_like(400, 11);
        let (train, _) = data.split_at(400);
        let run = |precision| {
            let cfg = TrainConfig {
                precision,
                ..quick_config()
            };
            EigenPro2::new(cfg, ResourceSpec::scaled_virtual_gpu())
                .fit(&train, None)
                .unwrap()
        };
        let out64 = run(Precision::F64);
        let mixed = run(Precision::Mixed);
        // Mixed plans at f64: identical analytic parameters...
        assert_eq!(mixed.report.params.eta, out64.report.params.eta);
        assert_eq!(
            mixed.report.params.adjusted_q,
            out64.report.params.adjusted_q
        );
        // ...and the f32 hot loop lands within 1e-3 of the f64 final MSE.
        assert!(
            (mixed.report.final_train_mse - out64.report.final_train_mse).abs() <= 1e-3,
            "mixed {} vs f64 {}",
            mixed.report.final_train_mse,
            out64.report.final_train_mse
        );
    }

    #[test]
    fn early_stopping_halts() {
        let data = catalog::mnist_like(400, 5);
        let (train, test) = data.split_at(300);
        let config = TrainConfig {
            epochs: 50,
            early_stopping: Some(EarlyStopping {
                patience: 1,
                min_delta: 0.0,
            }),
            ..quick_config()
        };
        let trainer = EigenPro2::new(config, ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, Some(&test)).unwrap();
        assert!(out.report.epochs.len() < 50);
        // Stop reason must be early stopping or the (unset) target.
        assert_eq!(out.report.stop_reason, StopReason::EarlyStopped);
    }

    #[test]
    fn target_mse_stops_training() {
        let data = catalog::mnist_like(300, 7);
        let (train, _) = data.split_at(300);
        let config = TrainConfig {
            epochs: 40,
            target_train_mse: Some(0.05),
            early_stopping: None,
            ..quick_config()
        };
        let trainer = EigenPro2::new(config, ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, None).unwrap();
        assert!(out.report.final_train_mse <= 0.05);
        if out.report.epochs.len() < 40 {
            assert_eq!(out.report.stop_reason, StopReason::TargetReached);
        }
    }

    #[test]
    fn overhead_is_small() {
        let data = catalog::mnist_like(600, 9);
        let (train, _) = data.split_at(600);
        let trainer = EigenPro2::new(quick_config(), ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, None).unwrap();
        // Improved EigenPro: precond overhead ≪ SGD cost. At this scale
        // (s=150, n=600, d=784) it is well under 10%.
        assert!(
            out.report.overhead_fraction < 0.10,
            "overhead {}",
            out.report.overhead_fraction
        );
        assert!(out.report.simulated_seconds > 0.0);
        assert!(out.report.iterations > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = catalog::susy_like(300, 2);
        let (train, test) = data.split_at(250);
        let trainer = EigenPro2::new(quick_config(), ResourceSpec::scaled_virtual_gpu());
        let a = trainer.fit(&train, Some(&test)).unwrap();
        let b = trainer.fit(&train, Some(&test)).unwrap();
        assert_eq!(a.report.final_train_mse, b.report.final_train_mse);
        assert_eq!(a.model.weights().as_slice(), b.model.weights().as_slice());
    }

    #[test]
    fn divergence_backoff_recovers_from_bad_step_size() {
        let data = catalog::mnist_like(300, 13);
        let (train, _) = data.split_at(300);
        let config = TrainConfig {
            epochs: 20,
            // Deliberately unstable: far beyond the analytic step size.
            step_size: Some(1e5),
            ..quick_config()
        };
        let trainer = EigenPro2::new(config, ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, None).unwrap();
        assert!(out.report.eta_backoffs > 0, "safeguard should have fired");
        assert!(
            out.report.final_train_mse.is_finite(),
            "training must recover, not blow up"
        );
        let first = out.report.epochs.first().unwrap().train_mse;
        let last = out.report.final_train_mse;
        assert!(
            last < first,
            "mse should improve after backoff: {first} -> {last}"
        );
    }

    #[test]
    fn regression_fits_smooth_function() {
        use ep2_data::regression::{self, RegressionSpec};
        let ds = regression::generate(&RegressionSpec {
            noise: 0.02,
            ..RegressionSpec::quick("smooth", 500, 12, 21)
        });
        let (train, test) = ds.split_at(400);
        // Bandwidth/epochs tuned for the vendored deterministic RNG's data
        // draw (σ = 3 reaches R² ≈ 0.91 on this seed; narrower bandwidths
        // underfit the 12-dim latent manifold at n = 400).
        let config = TrainConfig {
            kernel: KernelKind::Gaussian,
            bandwidth: 3.0,
            epochs: 30,
            subsample_size: Some(200),
            early_stopping: None,
            ..TrainConfig::default()
        };
        let trainer = EigenPro2::new(config, ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit_regression(&train, Some(&test)).unwrap();
        // Validation metric is MSE here; check R² on test directly.
        let pred = out
            .model
            .predict_with(&test.features, &PredictOptions::default());
        let r2 = regression::r2(&pred, &test.targets);
        assert!(r2 > 0.9, "R² = {r2}");
        // Val metric (mse) was tracked.
        assert!(out.report.final_val_error.unwrap() < 0.1);
    }

    #[test]
    fn regression_early_stopping_on_val_mse() {
        use ep2_data::regression::{self, RegressionSpec};
        let ds = regression::generate(&RegressionSpec::quick("s", 300, 10, 23));
        let (train, test) = ds.split_at(240);
        let config = TrainConfig {
            kernel: KernelKind::Gaussian,
            bandwidth: 2.0,
            epochs: 60,
            subsample_size: Some(120),
            early_stopping: Some(EarlyStopping {
                patience: 2,
                min_delta: 0.0,
            }),
            ..TrainConfig::default()
        };
        let trainer = EigenPro2::new(config, ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit_regression(&train, Some(&test)).unwrap();
        assert!(out.report.epochs.len() < 60, "early stopping should fire");
    }

    #[test]
    fn target_val_error_stops_training() {
        let data = catalog::mnist_like(400, 15);
        let (train, test) = data.split_at(320);
        let config = TrainConfig {
            epochs: 50,
            early_stopping: None,
            // The MNIST clone reaches ≤ 10% test error quickly.
            target_val_error: Some(0.10),
            ..quick_config()
        };
        let trainer = EigenPro2::new(config, ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, Some(&test)).unwrap();
        assert!(out.report.final_val_error.unwrap() <= 0.10);
        assert!(out.report.epochs.len() < 50);
        assert_eq!(out.report.stop_reason, StopReason::TargetReached);
    }

    #[test]
    fn rejects_empty_training_set() {
        let data = catalog::mnist_like(10, 1);
        let (_, empty) = data.split_at(10);
        let trainer = EigenPro2::new(quick_config(), ResourceSpec::scaled_virtual_gpu());
        assert!(trainer.fit(&empty, None).is_err());
    }

    #[test]
    fn batch_override_exceeding_in_core_degrades_to_streamed() {
        let data = catalog::mnist_like(200, 1);
        let (train, _) = data.split_at(200);
        // Step 1 would size m to fit; an explicit full-batch override blows
        // the in-core ledger instead. Sized so the dataset residency fits
        // Step 1's f64 accounting ((d+l+1)·n·2 ≈ 318k slots) but the
        // full-batch override ((d+l+200)·n·2 ≈ 398k) does not — the
        // graceful-degradation loop must re-plan it as streamed (the
        // streamed static set l·n + d·m ≈ 318k still fits) rather than
        // abort the run.
        let tiny = ResourceSpec::new("tiny-mem", 1e12, 350_000.0, 1e12, 0.0);
        let config = TrainConfig {
            batch_size: Some(200),
            epochs: 1,
            ..quick_config()
        };
        let trainer = EigenPro2::new(config, tiny);
        let out = trainer
            .fit(&train, None)
            .expect("degrades instead of aborting");
        assert_eq!(out.report.residency, ResidencyMode::Streamed);
        assert!(
            out.report
                .degradations
                .iter()
                .any(|d| d.contains("re-planned to streamed")),
            "degradation log missing the re-plan: {:?}",
            out.report.degradations
        );
        assert_eq!(out.report.params.m, 200, "override still honored");
    }

    #[test]
    fn impossible_budget_is_still_rejected() {
        let data = catalog::mnist_like(200, 1);
        let (train, _) = data.split_at(200);
        // Below even the streamed static set (l·n + d·m ≈ 318k f64 slots at
        // the full-batch override) there is no degradation path left: the
        // run must fail with a DeviceMemory error naming both dead ends.
        let hopeless = ResourceSpec::new("hopeless-mem", 1e12, 300_000.0, 1e12, 0.0);
        let config = TrainConfig {
            batch_size: Some(200),
            ..quick_config()
        };
        let trainer = EigenPro2::new(config, hopeless);
        match trainer.fit(&train, None) {
            Err(CoreError::DeviceMemory { .. }) => {}
            other => panic!("expected DeviceMemory error, got {other:?}"),
        }
    }

    #[test]
    fn f32_fits_in_core_where_f64_degrades_to_streamed() {
        // A device sized so the f32 residency fits but the f64 residency
        // (2x the slots) does not: the precision knob keeps the problem
        // in-core — Step 1's m^max_G doubling in action — while the f64
        // run survives only by degrading to the streamed residency.
        let data = catalog::susy_like(200, 1);
        let (train, _) = data.split_at(200);
        // Residency = (d + l + m) · n slots · slot_factor with d=18, l=2.
        // Pick S_G between the f32 and f64 requirements for m = 64.
        let m = 64;
        let f32_slots = ((18 + 2 + m) * 200) as f64;
        let spec = ResourceSpec::new("half-card", 1e12, f32_slots * 1.5, 1e12, 0.0);
        let config = |precision| TrainConfig {
            kernel: KernelKind::Gaussian,
            bandwidth: 4.0,
            epochs: 1,
            subsample_size: Some(80),
            batch_size: Some(m),
            early_stopping: None,
            precision,
            ..TrainConfig::default()
        };
        let f64_run = EigenPro2::new(config(Precision::F64), spec.clone())
            .fit(&train, None)
            .expect("f64 degrades to streamed instead of aborting");
        assert_eq!(f64_run.report.residency, ResidencyMode::Streamed);
        assert!(
            f64_run
                .report
                .degradations
                .iter()
                .any(|d| d.contains("re-planned to streamed")),
            "degradation log missing the re-plan: {:?}",
            f64_run.report.degradations
        );
        let f32_run = EigenPro2::new(config(Precision::F32), spec)
            .fit(&train, None)
            .expect("f32 residency fits in-core");
        assert_eq!(f32_run.report.residency, ResidencyMode::InCore);
        assert!(f32_run.report.degradations.is_empty());
    }

    #[test]
    fn auto_streams_when_dataset_exceeds_device_memory() {
        // (d + l + 1)·n·2 = 21·400·2 = 16.8k slots ≫ S_G = 4k: the in-core
        // plan has no solution, so the trainer must pick Streamed on its
        // own and still train end to end within the ledger.
        let data = catalog::susy_like(400, 3);
        let (train, _) = data.split_at(400);
        let spec = ResourceSpec::new("starved", 2e8, 4_000.0, 1e12, 0.0);
        let config = TrainConfig {
            kernel: KernelKind::Gaussian,
            bandwidth: 4.0,
            epochs: 2,
            subsample_size: Some(60),
            early_stopping: None,
            ..TrainConfig::default()
        };
        let out = EigenPro2::new(config, spec.clone())
            .fit(&train, None)
            .unwrap();
        assert_eq!(out.report.residency, ResidencyMode::Streamed);
        assert!(
            out.report.peak_slots <= out.report.budget_slots,
            "peak {} > S_G {}",
            out.report.peak_slots,
            out.report.budget_slots
        );
        assert_eq!(out.report.budget_slots, spec.memory_floats);
        assert!(out.report.final_train_mse.is_finite());
        // The in-core memory batch is reported as the "does not fit" 0.
        assert_eq!(out.report.params.memory_batch, 0);
    }

    #[test]
    fn forced_streamed_matches_in_core_closely() {
        let data = catalog::mnist_like(300, 5);
        let (train, _) = data.split_at(300);
        let run = |residency, stream_tile| {
            let cfg = TrainConfig {
                epochs: 3,
                batch_size: Some(32),
                residency,
                stream_tile,
                // Pin the PR 3 single-producer double-buffered pipeline:
                // the residency comparison below is a property of that
                // ring shape, and the auto-planned producer count (hence
                // ring depth) varies with the thread budget.
                stream_producers: Some(1),
                ..quick_config()
            };
            EigenPro2::new(cfg, ResourceSpec::scaled_virtual_gpu())
                .fit(&train, None)
                .unwrap()
        };
        let incore = run(None, None);
        // Tile width straddling nothing in particular — just ≪ n, so the
        // ring + batch-block residency stays below the in-core footprint.
        let streamed = run(Some(ResidencyMode::Streamed), Some(64));
        assert_eq!(incore.report.residency, ResidencyMode::InCore);
        assert_eq!(streamed.report.residency, ResidencyMode::Streamed);
        // Same analytic plan, same batch schedule; the only numeric
        // difference is the column order of the prediction accumulation.
        assert_eq!(incore.report.params.m, streamed.report.params.m);
        assert!(
            (incore.report.final_train_mse - streamed.report.final_train_mse).abs() < 1e-8,
            "in-core {} vs streamed {}",
            incore.report.final_train_mse,
            streamed.report.final_train_mse
        );
        // Streaming holds strictly less resident memory.
        assert!(streamed.report.peak_slots < incore.report.peak_slots);
    }

    #[test]
    fn forced_in_core_on_oversized_dataset_errors_cleanly() {
        let data = catalog::susy_like(400, 3);
        let (train, _) = data.split_at(400);
        let spec = ResourceSpec::new("starved", 2e8, 4_000.0, 1e12, 0.0);
        let config = TrainConfig {
            residency: Some(ResidencyMode::InCore),
            ..quick_config()
        };
        match EigenPro2::new(config, spec).fit(&train, None) {
            Err(CoreError::DeviceMemory { message }) => {
                assert!(message.contains("out-of-core"), "message: {message}");
            }
            other => panic!("expected DeviceMemory error, got {other:?}"),
        }
    }

    #[test]
    fn stream_tile_override_respected_and_checked() {
        let data = catalog::susy_like(300, 9);
        let (train, _) = data.split_at(300);
        let ok = TrainConfig {
            epochs: 1,
            residency: Some(ResidencyMode::Streamed),
            stream_tile: Some(50),
            ..quick_config()
        };
        let out = EigenPro2::new(ok, ResourceSpec::scaled_virtual_gpu())
            .fit(&train, None)
            .unwrap();
        assert_eq!(out.report.residency, ResidencyMode::Streamed);
        // A tile too wide for a tiny budget is rejected up front.
        let spec = ResourceSpec::new("starved", 2e8, 4_000.0, 1e12, 0.0);
        let bad = TrainConfig {
            residency: Some(ResidencyMode::Streamed),
            stream_tile: Some(300),
            ..quick_config()
        };
        match EigenPro2::new(bad, spec).fit(&train, None) {
            Err(CoreError::DeviceMemory { message }) => {
                assert!(message.contains("stream_tile"), "message: {message}");
            }
            other => panic!("expected DeviceMemory error, got {other:?}"),
        }
    }

    #[test]
    fn predict_labels_argmax() {
        let data = catalog::mnist_like(200, 11);
        let (train, _) = data.split_at(200);
        let trainer = EigenPro2::new(quick_config(), ResourceSpec::scaled_virtual_gpu());
        let out = trainer.fit(&train, None).unwrap();
        let labels = predict_labels(&out.model, &train.features);
        assert_eq!(labels.len(), 200);
        let err = labels
            .iter()
            .zip(&train.labels)
            .filter(|(a, b)| a != b)
            .count() as f64
            / 200.0;
        assert!(err < 0.1, "train error {err}");
    }
}
