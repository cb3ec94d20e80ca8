//! The fit phase: `EigenPro2::fit` as a user runs it, with analytic
//! m/q/η, a fixed epoch count and no early stopping, plus the output checks
//! every fit must pass.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ep2_core::persist;
use ep2_core::trainer::{EigenPro2, TrainConfig, TrainOutcome};
use ep2_data::Dataset;
use ep2_device::{Precision, ResidencyMode, ResourceSpec};
use ep2_kernels::KernelKind;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::stats::median;

/// One fit configuration (see `workloads` in `main.rs`).
#[derive(Debug, Clone)]
pub struct FitSpec {
    pub n_train: usize,
    pub n_val: usize,
    pub sigma: f64,
    /// Pinned subsample size `s`.
    pub s: usize,
    pub epochs: usize,
    /// `Some(S_G)`: force `Streamed` residency under this device budget.
    pub streamed_sg: Option<f64>,
    /// Checkpoint every epoch (keeping one) into the run's own directory.
    pub checkpoint: bool,
    /// Frozen validation-error target for `time_to_target_s`.
    pub target_val_error: f64,
}

impl FitSpec {
    pub fn device(&self) -> ResourceSpec {
        let mut device = ResourceSpec::scaled_virtual_gpu();
        if let Some(sg) = self.streamed_sg {
            device.memory_floats = sg;
        }
        device
    }

    pub fn config(&self, seed: u64, ckpt_dir: Option<PathBuf>) -> TrainConfig {
        TrainConfig {
            kernel: KernelKind::Gaussian,
            bandwidth: self.sigma,
            epochs: self.epochs,
            subsample_size: Some(self.s),
            early_stopping: None,
            precision: Precision::F32,
            residency: Some(self.residency()),
            seed,
            checkpoint_dir: if self.checkpoint { ckpt_dir } else { None },
            checkpoint_every: 1,
            checkpoint_keep: Some(1),
            ..TrainConfig::default()
        }
    }

    pub fn residency(&self) -> ResidencyMode {
        if self.streamed_sg.is_some() {
            ResidencyMode::Streamed
        } else {
            ResidencyMode::InCore
        }
    }
}

/// The data of one run: a fixed `timit_like` train/validation split whose
/// rows the run's seed permutes within each part. Every seed poses the same
/// problem in its own row order (with the seed also driving the fit's
/// subsample and batch draws, and the serve query order), so validation
/// error moves with the training trajectory, not with a new split per seed.
pub fn data(spec: &FitSpec, seed: u64) -> (Dataset, Dataset) {
    let (train, val) =
        ep2_data::catalog::timit_like(spec.n_train + spec.n_val, 0).split_at(spec.n_train);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order = |n: usize| {
        let mut rows: Vec<usize> = (0..n).collect();
        rows.shuffle(&mut rng);
        rows
    };
    let train_rows = order(train.len());
    let val_rows = order(val.len());
    (train.subset(&train_rows), val.subset(&val_rows))
}

/// End-to-end figures of one fit.
#[derive(Debug)]
pub struct FitRun {
    pub setup_s: f64,
    pub fit_s: f64,
    pub epoch_s: f64,
    pub time_to_target_s: Option<f64>,
    pub val_error: f64,
    pub checksum: u32,
    pub outcome: TrainOutcome,
    /// Output checks this fit failed (empty when healthy).
    pub problems: Vec<String>,
}

/// Runs one fit and checks its output.
pub fn fit_once(
    spec: &FitSpec,
    train: &Dataset,
    val: &Dataset,
    seed: u64,
    ckpt_dir: &Path,
) -> Result<FitRun, String> {
    if spec.checkpoint {
        // Each fit starts from an empty directory: a fresh run, no resume.
        let _ = std::fs::remove_dir_all(ckpt_dir);
    }
    let trainer = EigenPro2::new(
        spec.config(seed, Some(ckpt_dir.to_path_buf())),
        spec.device(),
    );
    let t0 = Instant::now();
    let outcome = trainer
        .fit(train, Some(val))
        .map_err(|e| format!("fit failed: {e}"))?;
    let fit_s = t0.elapsed().as_secs_f64();
    let r = &outcome.report;
    let setup_s = fit_s - r.wall_seconds;
    let mut deltas = Vec::new();
    let mut prev = 0.0;
    let mut time_to_target_s = None;
    for e in &r.epochs {
        deltas.push(e.wall_seconds - prev);
        prev = e.wall_seconds;
        if time_to_target_s.is_none() && e.val_error.is_some_and(|v| v <= spec.target_val_error) {
            time_to_target_s = Some(setup_s + e.wall_seconds);
        }
    }
    let mut problems = Vec::new();
    if !r.degradations.is_empty() {
        problems.push(format!("degradations: {:?}", r.degradations));
    }
    if r.rollbacks != 0 || r.eta_backoffs != 0 {
        problems.push(format!(
            "{} rollbacks, {} eta backoffs",
            r.rollbacks, r.eta_backoffs
        ));
    }
    if r.peak_slots > r.budget_slots {
        problems.push(format!(
            "ledger peak {:.3e} over budget {:.3e}",
            r.peak_slots, r.budget_slots
        ));
    }
    if r.residency != spec.residency() || r.stream_recoveries != 0 {
        problems.push(format!(
            "ran {:?} with {} stream recoveries",
            r.residency, r.stream_recoveries
        ));
    }
    if r.epochs.len() != spec.epochs {
        problems.push(format!("{} of {} epochs ran", r.epochs.len(), spec.epochs));
    }
    if time_to_target_s.is_none() {
        problems.push(format!(
            "validation error never reached the target {}",
            spec.target_val_error
        ));
    }
    let bytes = persist::to_bytes(&outcome.model).map_err(|e| e.to_string())?;
    Ok(FitRun {
        setup_s,
        fit_s,
        epoch_s: median(&deltas),
        time_to_target_s,
        val_error: r.final_val_error.unwrap_or(f64::NAN),
        // The record ends with the CRC32 of everything before it.
        checksum: persist::crc32(&bytes[..bytes.len() - 4]),
        outcome,
        problems,
    })
}
