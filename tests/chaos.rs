//! Chaos suite: deterministic fault injection against the self-healing
//! stream pipeline.
//!
//! The acceptance property is that a producer panic mid-epoch costs a
//! retry, not the epoch: the supervisor requeues the claimed tile,
//! respawns (or lets a surviving peer absorb) the work, and the epoch's
//! weights come out **bit-for-bit equal** to an unfaulted run — tiles are
//! applied in sequence order, so recovery cannot reorder the arithmetic.
//! With the respawn budget forced to zero and a single producer, the
//! failure surfaces as a `CoreError::Stream` naming which producer died
//! on which tile seq, not as an anonymous panic.
//!
//! The failpoint registry is process-global; every test holds `LOCK`.

use std::sync::Mutex;

use eigenpro2::core::trainer::{EigenPro2, TrainConfig, TrainOutcome};
use eigenpro2::core::CoreError;
use eigenpro2::data::{catalog, Dataset};
use eigenpro2::device::{Precision, ResidencyMode, ResourceSpec};
use eigenpro2::kernels::KernelKind;
use eigenpro2::runtime::faults;

mod common;
use common::precision_selected;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn streamed_config(precision: Precision, producers: Option<usize>) -> TrainConfig {
    TrainConfig {
        kernel: KernelKind::Gaussian,
        bandwidth: 4.0,
        epochs: 2,
        subsample_size: Some(60),
        batch_size: Some(48),
        early_stopping: None,
        precision,
        residency: Some(ResidencyMode::Streamed),
        // Narrow tiles so every mini-batch spans several tile seqs and the
        // faulted seq is mid-stream, not the last tile.
        stream_tile: Some(64),
        stream_producers: producers,
        ..TrainConfig::default()
    }
}

fn fit(train: &Dataset, cfg: TrainConfig) -> Result<TrainOutcome, CoreError> {
    EigenPro2::new(cfg, ResourceSpec::scaled_virtual_gpu()).fit(train, None)
}

fn producer_panic_recovers_for(precision: Precision) {
    let train = catalog::susy_like(300, 11);
    let clean = fit(&train, streamed_config(precision, None)).expect("unfaulted run trains");

    // Kill a producer exactly at tile seq 1: after the claim, before
    // assembly — the consumer is already waiting on that very tile.
    let guard = faults::arm("producer_panic", Some(1));
    let faulted = fit(&train, streamed_config(precision, None)).expect("faulted run still trains");
    assert_eq!(faults::fired("producer_panic"), 1, "failpoint did not fire");
    drop(guard);

    assert!(
        faulted.report.stream_recoveries >= 1,
        "the recovery was not recorded"
    );
    assert!(
        faulted
            .report
            .degradations
            .iter()
            .any(|d| d.contains("died at tile seq 1")),
        "fault log missing the death: {:?}",
        faulted.report.degradations
    );
    let wa = clean.model.weights().as_slice();
    let wb = faulted.model.weights().as_slice();
    assert_eq!(wa.len(), wb.len());
    for (i, (x, y)) in wa.iter().zip(wb).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "weight {i} differs after recovery ({x:e} vs {y:e})"
        );
    }
}

#[test]
fn producer_panic_mid_epoch_is_absorbed_bitwise() {
    let _g = lock();
    for precision in [Precision::F32, Precision::F64, Precision::Bf16] {
        if precision_selected(precision) {
            producer_panic_recovers_for(precision);
        }
    }
}

#[test]
fn surviving_producers_absorb_an_unrevivable_death() {
    let _g = lock();
    let train = catalog::susy_like(300, 11);
    let clean = fit(&train, streamed_config(Precision::F64, Some(2))).expect("unfaulted run");

    // Budget zero: the dead producer stays dead, but its peer picks up the
    // requeued tile and the epoch still completes identically.
    let g1 = faults::arm("producer_panic", Some(0));
    let g2 = faults::arm("respawn_budget", Some(0));
    let faulted =
        fit(&train, streamed_config(Precision::F64, Some(2))).expect("peer absorbs the tile");
    assert_eq!(faults::fired("producer_panic"), 1, "failpoint did not fire");
    drop(g2);
    drop(g1);

    assert!(faulted.report.stream_recoveries >= 1);
    for (x, y) in clean
        .model
        .weights()
        .as_slice()
        .iter()
        .zip(faulted.model.weights().as_slice())
    {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

#[test]
fn exhausted_respawn_budget_names_the_culprit() {
    let _g = lock();
    let train = catalog::susy_like(300, 11);
    // One producer, zero respawns: the death is unrecoverable and must
    // surface as a structured error saying who died where — the satellite
    // fix for the old anonymous "tile producer died" expect().
    let g1 = faults::arm("producer_panic", Some(1));
    let g2 = faults::arm("respawn_budget", Some(0));
    let err = fit(&train, streamed_config(Precision::F64, Some(1)))
        .expect_err("no producers left must fail the epoch");
    drop(g2);
    drop(g1);

    assert!(
        matches!(err, CoreError::Stream { .. }),
        "expected CoreError::Stream, got {err:?}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("producer 0 died"),
        "who died is missing: {msg}"
    );
    assert!(
        msg.contains("tile seq 1"),
        "where it died is missing: {msg}"
    );
    assert!(
        msg.contains("retry budget exhausted"),
        "why recovery stopped is missing: {msg}"
    );
}

#[test]
fn env_spec_arming_matches_the_documented_syntax() {
    // The CI chaos job arms failpoints via EP2_FAILPOINTS; this pins the
    // programmatic equivalent of the documented spec so a parser change
    // cannot silently turn the chaos matrix into happy-path runs.
    let _g = lock();
    let guard = faults::arm("spec_check", Some(7));
    assert!(!faults::fire_at("spec_check", 3));
    assert!(faults::fire_at("spec_check", 7));
    assert!(!faults::fire_at("spec_check", 7), "failpoints are one-shot");
    drop(guard);
}

#[test]
fn serve_worker_panic_is_absorbed_bitwise() {
    // The serving analogue of the producer-panic property: a worker panic
    // mid-batch costs a retry, not the requests. The requeued batch keeps
    // its composition and order, so the replies are bit-for-bit the ones
    // an unfaulted server produces.
    let _g = lock();
    use eigenpro2::core::KernelModel;
    use eigenpro2::linalg::Matrix;
    use eigenpro2::serve::{ServeConfig, ServeEngine, ServePlan};
    use std::sync::Arc;

    let kernel: Arc<dyn eigenpro2::kernels::Kernel> =
        Arc::new(eigenpro2::kernels::GaussianKernel::new(3.0));
    let centers = Matrix::from_fn(50, 6, |i, j| ((i * 5 + j) % 13) as f64 * 0.21);
    let weights = Matrix::from_fn(50, 2, |i, j| (i as f64 - 25.0) * 0.04 + j as f64);
    let model = Arc::new(KernelModel::from_weights(kernel, centers, weights));
    let x = Matrix::from_fn(12, 6, |i, j| ((i + j * 3) % 7) as f64 * 0.3);

    let spec = ResourceSpec::scaled_virtual_gpu();
    let config = ServeConfig {
        batch_rows: Some(x.rows()),
        workers: Some(1),
        ..Default::default()
    };
    let serve_once = || {
        let plan = ServePlan::plan(50, 6, 2, &spec, Precision::F64, &config);
        let ledger = eigenpro2::device::MemoryLedger::new(spec.memory_floats);
        let engine = ServeEngine::new(model.clone(), plan, &ledger).expect("plan fits");
        let replies: Mutex<Vec<(String, Vec<f64>)>> = Mutex::new(Vec::new());
        let sink = |id: &str, out: &[f64]| {
            replies
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push((id.to_string(), out.to_vec()));
        };
        // Queued before `run` starts the worker: one batch of every row.
        for i in 0..x.rows() {
            engine.submit(&format!("r{i}"), x.row(i)).expect("admitted");
        }
        engine.run(&sink, || {});
        let stats = engine.stats();
        let mut out = replies.into_inner().unwrap();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        (out, stats)
    };

    let (clean, _) = serve_once();
    let guard = faults::arm("serve_worker_panic", Some(1));
    let (faulted, stats) = serve_once();
    assert_eq!(
        faults::fired("serve_worker_panic"),
        1,
        "failpoint did not fire"
    );
    drop(guard);

    assert_eq!(stats.recoveries, 1, "the recovery was not recorded");
    assert_eq!(stats.served, x.rows() as u64, "a request was lost");
    assert_eq!(clean.len(), faulted.len());
    for ((id_a, row_a), (id_b, row_b)) in clean.iter().zip(&faulted) {
        assert_eq!(id_a, id_b);
        for (u, v) in row_a.iter().zip(row_b) {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "reply {id_a} differs after recovery"
            );
        }
    }
}
