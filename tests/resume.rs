//! Checkpoint/resume: the fault-tolerance acceptance criteria.
//!
//! The headline property is **bit-for-bit resume parity**: training k
//! epochs, checkpointing, and resuming for the remaining epochs produces
//! *exactly* the weights and report of an uninterrupted run — per
//! precision policy, because resume must not launder a bf16 trajectory
//! through f64. The supporting properties: checkpoint writes are atomic
//! (a torn write leaves the previous file intact and loadable), resume
//! refuses checkpoints from a different plan, the divergence safeguard
//! rolls back to the last healthy checkpoint instead of zeroing, and a
//! mid-setup allocation failure degrades residency instead of aborting.
//!
//! Failpoints are a process-global registry, so every test here holds
//! `LOCK` — including the fault-free parity runs, whose checkpoint writes
//! must not absorb another test's armed `torn_write`.

use std::path::PathBuf;
use std::sync::Mutex;

use eigenpro2::core::persist;
use eigenpro2::core::trainer::{EigenPro2, TrainConfig, TrainOutcome};
use eigenpro2::core::KernelModel;
use eigenpro2::data::{catalog, Dataset};
use eigenpro2::device::{Precision, ResidencyMode, ResourceSpec};
use eigenpro2::kernels::{Kernel, KernelKind};
use eigenpro2::linalg::Matrix;
use eigenpro2::runtime::faults;

mod common;
use common::precision_selected;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ep2_resume_{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn config(precision: Precision, epochs: usize) -> TrainConfig {
    TrainConfig {
        kernel: KernelKind::Gaussian,
        bandwidth: 4.0,
        epochs,
        subsample_size: Some(60),
        batch_size: Some(48),
        early_stopping: None,
        precision,
        ..TrainConfig::default()
    }
}

fn fit(train: &Dataset, cfg: TrainConfig) -> TrainOutcome {
    EigenPro2::new(cfg, ResourceSpec::scaled_virtual_gpu())
        .fit(train, None)
        .expect("training succeeds")
}

fn assert_bitwise_equal(a: &TrainOutcome, b: &TrainOutcome, what: &str) {
    let wa = a.model.weights().as_slice();
    let wb = b.model.weights().as_slice();
    assert_eq!(wa.len(), wb.len(), "{what}: weight shapes differ");
    for (i, (x, y)) in wa.iter().zip(wb).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: weight {i} differs ({x:e} vs {y:e})"
        );
    }
    assert_eq!(
        a.report.iterations, b.report.iterations,
        "{what}: iterations"
    );
    assert_eq!(
        a.report.simulated_seconds.to_bits(),
        b.report.simulated_seconds.to_bits(),
        "{what}: simulated seconds"
    );
    assert_eq!(
        a.report.eta_backoffs, b.report.eta_backoffs,
        "{what}: backoffs"
    );
    assert_eq!(
        a.report.epochs.len(),
        b.report.epochs.len(),
        "{what}: epoch count"
    );
    for (ea, eb) in a.report.epochs.iter().zip(&b.report.epochs) {
        assert_eq!(
            ea.probe_mse.to_bits(),
            eb.probe_mse.to_bits(),
            "{what}: epoch {} probe mse",
            ea.epoch
        );
    }
    assert_eq!(
        a.report.final_train_mse.to_bits(),
        b.report.final_train_mse.to_bits(),
        "{what}: final train mse"
    );
}

fn parity_for(precision: Precision, residency: Option<ResidencyMode>, tag: &str) {
    let train = catalog::susy_like(240, 7);
    let full = fit(
        &train,
        TrainConfig {
            residency,
            ..config(precision, 6)
        },
    );
    let dir = fresh_dir(tag);
    let part = fit(
        &train,
        TrainConfig {
            residency,
            checkpoint_dir: Some(dir.clone()),
            ..config(precision, 3)
        },
    );
    assert!(
        dir.join("ckpt-000003.ep2").exists(),
        "checkpoint not written"
    );
    let resumed = fit(
        &train,
        TrainConfig {
            residency,
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..config(precision, 6)
        },
    );
    assert_eq!(resumed.report.resumed_from_epoch, Some(3));
    // The resumed half replays the partial run's prefix exactly...
    for (ea, eb) in part.report.epochs.iter().zip(&resumed.report.epochs) {
        assert_eq!(ea.probe_mse.to_bits(), eb.probe_mse.to_bits());
    }
    // ...and the whole trajectory equals the uninterrupted run bit for bit.
    assert_bitwise_equal(&full, &resumed, tag);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_parity_is_bitwise_per_precision() {
    let _g = lock();
    for precision in [
        Precision::F32,
        Precision::F64,
        Precision::Mixed,
        Precision::Bf16,
    ] {
        if precision_selected(precision) {
            parity_for(precision, None, &format!("parity_{precision}"));
        }
    }
}

#[test]
fn resume_parity_holds_out_of_core() {
    let _g = lock();
    if precision_selected(Precision::F64) {
        parity_for(
            Precision::F64,
            Some(ResidencyMode::Streamed),
            "parity_streamed",
        );
    }
}

#[test]
fn checkpoint_keep_prunes_older_files_and_resume_still_works() {
    let _g = lock();
    let train = catalog::susy_like(240, 7);
    let full = fit(&train, config(Precision::F64, 6));
    let dir = fresh_dir("keep");
    let _part = fit(
        &train,
        TrainConfig {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_keep: Some(2),
            ..config(Precision::F64, 4)
        },
    );
    // Four epochs at the default cadence write four checkpoints; the
    // retention policy keeps only the two newest.
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("checkpoint dir")
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.starts_with("ckpt-"))
        .collect();
    names.sort();
    assert_eq!(names, vec!["ckpt-000003.ep2", "ckpt-000004.ep2"]);
    // The survivors are real checkpoints: resume picks up from epoch 4 and
    // lands bit-for-bit on the uninterrupted trajectory.
    let resumed = fit(
        &train,
        TrainConfig {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            checkpoint_keep: Some(2),
            ..config(Precision::F64, 6)
        },
    );
    assert_eq!(resumed.report.resumed_from_epoch, Some(4));
    assert_bitwise_equal(&full, &resumed, "keep_pruned");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_past_the_epoch_cap_replays_the_report() {
    let _g = lock();
    let train = catalog::susy_like(200, 3);
    let dir = fresh_dir("past_cap");
    let part = fit(
        &train,
        TrainConfig {
            checkpoint_dir: Some(dir.clone()),
            ..config(Precision::F64, 3)
        },
    );
    // Same epoch budget: nothing left to train, the report is replayed
    // from the restored history.
    let resumed = fit(
        &train,
        TrainConfig {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..config(Precision::F64, 3)
        },
    );
    assert_eq!(resumed.report.resumed_from_epoch, Some(3));
    assert_bitwise_equal(&part, &resumed, "past_cap");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_refuses_a_checkpoint_from_a_different_plan() {
    let _g = lock();
    let train = catalog::susy_like(200, 3);
    let dir = fresh_dir("fingerprint");
    fit(
        &train,
        TrainConfig {
            checkpoint_dir: Some(dir.clone()),
            ..config(Precision::F64, 2)
        },
    );
    // Same directory, different bandwidth: the plan fingerprint differs.
    let err = EigenPro2::new(
        TrainConfig {
            bandwidth: 4.5,
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..config(Precision::F64, 4)
        },
        ResourceSpec::scaled_virtual_gpu(),
    )
    .fit(&train, None)
    .expect_err("fingerprint mismatch must refuse to resume");
    assert!(
        err.to_string().contains("fingerprint"),
        "unexpected error: {err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

fn tiny_model() -> KernelModel {
    let kernel: std::sync::Arc<dyn Kernel> = KernelKind::Gaussian.with_bandwidth(2.0).into();
    KernelModel::from_weights(
        kernel,
        Matrix::from_vec(2, 2, vec![0.5, -1.0, 2.0, 0.25]),
        Matrix::from_vec(2, 1, vec![1.0, -2.0]),
    )
}

#[test]
fn torn_write_leaves_the_previous_checkpoint_intact() {
    let _g = lock();
    let dir = fresh_dir("torn_direct");
    let path = dir.join("model.ep2");
    let good = tiny_model();
    persist::save(&good, &path).expect("initial save");
    let before = std::fs::read(&path).expect("readable");

    // Crash the writer 10 bytes into the replacement: the error surfaces,
    // the fault actually fired, and the *previous* file is untouched.
    let mut doctored = tiny_model();
    doctored.weights_mut().as_mut_slice()[0] = 42.0;
    let guard = faults::arm("torn_write", Some(10));
    let err = persist::save(&doctored, &path).expect_err("torn write must error");
    assert_eq!(faults::fired("torn_write"), 1, "failpoint did not fire");
    drop(guard);
    assert!(
        err.to_string().contains("torn_write"),
        "unexpected error: {err}"
    );
    let after = std::fs::read(&path).expect("still readable");
    assert_eq!(before, after, "torn write mutated the committed file");
    let reloaded = persist::load(&path).expect("previous file still loads");
    assert_eq!(reloaded.weights().as_slice(), good.weights().as_slice());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_checkpoint_write_does_not_kill_training() {
    let _g = lock();
    let train = catalog::susy_like(200, 3);
    let dir = fresh_dir("torn_train");
    let guard = faults::arm("torn_write", Some(64));
    let outcome = fit(
        &train,
        TrainConfig {
            checkpoint_dir: Some(dir.clone()),
            ..config(Precision::F64, 2)
        },
    );
    assert_eq!(faults::fired("torn_write"), 1, "failpoint did not fire");
    drop(guard);
    assert_eq!(outcome.report.epochs.len(), 2, "training did not complete");
    // Epoch 1's write was torn (no file committed); epoch 2's is the
    // last-good checkpoint and it loads with its full trainer state.
    assert!(!dir.join("ckpt-000001.ep2").exists());
    let (_, state) =
        persist::load_checkpoint(dir.join("ckpt-000002.ep2")).expect("last-good checkpoint loads");
    assert_eq!(state.expect("state embedded").epochs_done, 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn divergence_rolls_back_to_the_last_checkpoint() {
    let _g = lock();
    let train = catalog::susy_like(200, 3);
    let dir = fresh_dir("rollback");
    fit(
        &train,
        TrainConfig {
            checkpoint_dir: Some(dir.clone()),
            ..config(Precision::F64, 2)
        },
    );
    // Doctor the checkpoint's step size to a catastrophic value, so the
    // resumed epochs blow up immediately.
    let path = dir.join("ckpt-000002.ep2");
    let (model, state) = persist::load_checkpoint(&path).expect("checkpoint loads");
    let mut state = state.expect("state embedded");
    let good_weights: Vec<u64> = model
        .weights()
        .as_slice()
        .iter()
        .map(|w| w.to_bits())
        .collect();
    state.eta = 1e8;
    persist::save_checkpoint(&model, &state, &path).expect("re-save");

    let outcome = fit(
        &train,
        TrainConfig {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..config(Precision::F64, 4)
        },
    );
    assert!(outcome.report.eta_backoffs >= 1, "safeguard never engaged");
    assert!(
        outcome.report.rollbacks >= 1,
        "divergence should roll back to the checkpoint, not zero the weights"
    );
    // The rollback restored the checkpointed weights (not zeros).
    let final_bits: Vec<u64> = outcome
        .model
        .weights()
        .as_slice()
        .iter()
        .map(|w| w.to_bits())
        .collect();
    assert_eq!(final_bits, good_weights);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn alloc_failure_degrades_in_core_to_streamed() {
    let _g = lock();
    let train = catalog::susy_like(240, 7);
    // The first ledger allocation is the in-core residency; failing it
    // must re-plan to streamed instead of aborting the run.
    let guard = faults::arm("alloc_fail", Some(1));
    let outcome = fit(&train, config(Precision::F64, 2));
    assert_eq!(faults::fired("alloc_fail"), 1, "failpoint did not fire");
    drop(guard);
    assert_eq!(outcome.report.residency, ResidencyMode::Streamed);
    assert!(
        outcome
            .report
            .degradations
            .iter()
            .any(|d| d.contains("streamed")),
        "degradation log missing the re-plan: {:?}",
        outcome.report.degradations
    );
}

#[test]
fn alloc_failure_narrows_the_streamed_tile() {
    let _g = lock();
    let train = catalog::susy_like(240, 7);
    let guard = faults::arm("alloc_fail", Some(1));
    let outcome = fit(
        &train,
        TrainConfig {
            residency: Some(ResidencyMode::Streamed),
            stream_tile: Some(64),
            ..config(Precision::F64, 2)
        },
    );
    assert_eq!(faults::fired("alloc_fail"), 1, "failpoint did not fire");
    drop(guard);
    assert_eq!(outcome.report.residency, ResidencyMode::Streamed);
    assert!(
        outcome
            .report
            .degradations
            .iter()
            .any(|d| d.contains("narrowed")),
        "degradation log missing the tile narrowing: {:?}",
        outcome.report.degradations
    );
}

#[test]
fn corrupt_latest_checkpoint_falls_back_to_the_previous_one() {
    let _g = lock();
    let train = catalog::susy_like(200, 3);
    let dir = fresh_dir("fallback");
    fit(
        &train,
        TrainConfig {
            checkpoint_dir: Some(dir.clone()),
            ..config(Precision::F64, 3)
        },
    );
    // Corrupt the newest checkpoint; resume must skip it and restart from
    // epoch 2's instead of failing.
    let newest = dir.join("ckpt-000003.ep2");
    let mut bytes = std::fs::read(&newest).expect("readable");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&newest, &bytes).expect("writable");
    let resumed = fit(
        &train,
        TrainConfig {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..config(Precision::F64, 4)
        },
    );
    assert_eq!(resumed.report.resumed_from_epoch, Some(2));
    assert_eq!(resumed.report.epochs.len(), 4);
    std::fs::remove_dir_all(&dir).ok();
}
