//! Serving-path integration tests: micro-batch formation under bursty
//! arrival (simulated clock — no sleeps), admission shedding at
//! over-budget load, bit-for-bit parity between served and offline
//! predictions at every precision (whatever batch a row rides in), the
//! packed panels' ledger charge, and worker-panic self-healing.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use eigenpro2::core::KernelModel;
use eigenpro2::device::{MemoryLedger, Precision, ResourceSpec};
use eigenpro2::kernels::{GaussianKernel, Kernel};
use eigenpro2::linalg::Matrix;
use eigenpro2::serve::{AdmissionController, MicroBatcher, ServeConfig, ServeEngine, ServePlan};
use eigenpro2::Scalar;

mod common;
use common::precision_selected;

/// Engine tests share the process-global failpoint registry (every batch
/// execution consults `serve_worker_panic`), so they run serialized.
static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A bursty arrival trace under a simulated microsecond clock: each event
/// is (arrival time, rows arriving at that instant).
fn replay_batches(batcher: &MicroBatcher, trace: &[(u64, usize)]) -> Vec<(u64, usize)> {
    // (enq_us, rows) per queued request, FIFO.
    let mut queue: std::collections::VecDeque<u64> = Default::default();
    let mut cuts = Vec::new();
    let horizon = trace
        .last()
        .map(|&(t, _)| t + 10 * batcher.window_us)
        .unwrap_or(0);
    let mut trace_iter = trace.iter().peekable();
    for now in 0..=horizon {
        while let Some(&&(t, rows)) = trace_iter.peek() {
            if t > now {
                break;
            }
            trace_iter.next();
            for _ in 0..rows {
                queue.push_back(t);
            }
        }
        while let Some(&oldest) = queue.front() {
            match batcher.ready(queue.len(), oldest, now) {
                Some(take) => {
                    queue.drain(..take);
                    cuts.push((now, take));
                }
                None => break,
            }
        }
    }
    cuts
}

#[test]
fn bursty_arrivals_form_expected_batches() {
    let batcher = MicroBatcher::new(8, 100);
    // A burst of 20 at t=0: two full batches immediately, 4 left waiting.
    // A straggler at t=50 joins them; the window expires at t=100.
    // A lone request at t=500 waits out its own window.
    let cuts = replay_batches(&batcher, &[(0, 20), (50, 1), (500, 1)]);
    assert_eq!(cuts, vec![(0, 8), (0, 8), (100, 5), (600, 1)]);
}

#[test]
fn quiet_period_holds_no_batch() {
    let batcher = MicroBatcher::new(8, 100);
    assert!(replay_batches(&batcher, &[]).is_empty());
}

#[test]
fn sustained_overload_cuts_only_full_batches() {
    let batcher = MicroBatcher::new(16, 1_000);
    // 64 rows at once: four full batches, no window-expired stragglers.
    let cuts = replay_batches(&batcher, &[(0, 64)]);
    assert_eq!(cuts, vec![(0, 16); 4]);
    assert!(cuts.iter().all(|&(t, _)| t == 0));
}

#[test]
fn admission_sheds_exactly_past_the_budget() {
    // 150 µs/row estimate, 1 ms budget: 6 queued rows (900 µs) admit, 7
    // (1050 µs) shed — and the empty queue always admits.
    let c = AdmissionController::new(1_000, 150.0);
    assert!(c.admit(0).is_ok());
    assert!(c.admit(6).is_ok());
    let shed = c.admit(7).unwrap_err();
    assert_eq!(shed.est_wait_us, 1_050);
    assert_eq!(shed.budget_us, 1_000);
}

fn test_model<S: Scalar>(n: usize, d: usize, l: usize) -> Arc<KernelModel<S>> {
    let kernel: Arc<dyn Kernel<S>> = Arc::new(GaussianKernel::new(2.0));
    let centers = Matrix::from_fn(n, d, |i, j| {
        S::from_f64(((i * 31 + j * 17) % 23) as f64 * 0.07)
    });
    let weights = Matrix::from_fn(n, l, |i, j| S::from_f64((i + j) as f64 * 0.11 - 1.5));
    Arc::new(KernelModel::from_weights(kernel, centers, weights))
}

fn engine_with<S: Scalar>(
    model: Arc<KernelModel<S>>,
    config: &ServeConfig,
    precision: Precision,
) -> ServeEngine<S> {
    let spec = ResourceSpec::scaled_virtual_gpu();
    let plan = ServePlan::plan(
        model.n_centers(),
        model.dim(),
        model.n_outputs(),
        &spec,
        precision,
        config,
    );
    let ledger = MemoryLedger::new(spec.memory_floats);
    ServeEngine::new(model, plan, &ledger).expect("serve plan fits the ledger")
}

/// Submits `k` rows while the (single, long-window) worker is held off,
/// then lets the engine drain; returns the replies keyed by request id.
fn serve_rows<S: Scalar>(engine: &ServeEngine<S>, rows: &Matrix<S>) -> HashMap<String, Vec<S>> {
    let replies: Mutex<HashMap<String, Vec<S>>> = Mutex::new(HashMap::new());
    let sink = |id: &str, out: &[S]| {
        replies.lock().unwrap().insert(id.to_string(), out.to_vec());
    };
    engine.run(&sink, || {
        for i in 0..rows.rows() {
            engine
                .submit(&format!("r{i}"), rows.row(i))
                .expect("within budget");
        }
    });
    replies.into_inner().unwrap()
}

fn served_matches_offline_bitwise<S: Scalar>(precision: Precision) {
    let _g = lock();
    let (n, d, l, k) = (120, 7, 3, 33);
    let model = test_model::<S>(n, d, l);
    let x = Matrix::from_fn(k, d, |i, j| {
        S::from_f64(((i * 13 + j * 5) % 19) as f64 * 0.09)
    });
    // One worker and a window far longer than the submit loop: all k
    // requests coalesce into a single drain batch in submission order, so
    // the served batch matrix is exactly `x`.
    let config = ServeConfig {
        batch_rows: Some(k),
        window_us: Some(5_000_000),
        workers: Some(1),
        ..Default::default()
    };
    let engine = engine_with(model.clone(), &config, precision);
    let replies = serve_rows(&engine, &x);
    assert_eq!(replies.len(), k);
    assert_eq!(engine.stats().served, k as u64);

    let offline = model.predict_with(&x, &engine.plan().opts);
    for i in 0..k {
        let served = &replies[&format!("r{i}")];
        assert_eq!(served.len(), l);
        for (j, (s, o)) in served.iter().zip(offline.row(i)).enumerate() {
            assert_eq!(
                s.to_f64().to_bits(),
                o.to_f64().to_bits(),
                "row {i} output {j}: served {} vs offline {}",
                s.to_f64(),
                o.to_f64()
            );
        }
    }
}

#[test]
fn served_equals_offline_bitwise_f32() {
    if precision_selected(Precision::F32) {
        served_matches_offline_bitwise::<f32>(Precision::F32);
    }
}

#[test]
fn served_equals_offline_bitwise_f64() {
    if precision_selected(Precision::F64) {
        served_matches_offline_bitwise::<f64>(Precision::F64);
    }
}

#[test]
fn served_equals_offline_bitwise_bf16() {
    if precision_selected(Precision::Bf16) {
        served_matches_offline_bitwise::<eigenpro2::linalg::Bf16>(Precision::Bf16);
    }
}

/// A model whose kernel values stay well inside (0, 1) at dimension `d`.
fn spread_model<S: Scalar>(n: usize, d: usize, l: usize) -> Arc<KernelModel<S>> {
    let sigma = (d as f64).sqrt() * 0.5;
    let kernel: Arc<dyn Kernel<S>> = Arc::new(GaussianKernel::new(sigma));
    let centers = Matrix::from_fn(n, d, |i, j| {
        S::from_f64(((i * 31 + j * 17) % 23) as f64 * 0.07)
    });
    let weights = Matrix::from_fn(n, l, |i, j| {
        S::from_f64(((i * 7 + j) % 11) as f64 * 0.2 - 1.0)
    });
    Arc::new(KernelModel::from_weights(kernel, centers, weights))
}

/// Serves `x` through an engine capped at `batch_rows` rows per batch,
/// with no batching window (and no shedding), so each request rides in a
/// batch of at most `batch_rows`; returns the replies in row order.
fn serve_capped<S: Scalar>(
    model: &Arc<KernelModel<S>>,
    x: &Matrix<S>,
    batch_rows: usize,
    window_us: u64,
    precision: Precision,
) -> Vec<Vec<S>> {
    let config = ServeConfig {
        batch_rows: Some(batch_rows),
        window_us: Some(window_us),
        latency_budget_us: Some(u64::MAX / 2),
        workers: Some(1),
    };
    let engine = engine_with(model.clone(), &config, precision);
    let replies = serve_rows(&engine, x);
    (0..x.rows())
        .map(|i| replies[&format!("r{i}")].clone())
        .collect()
}

/// A row's reply is bitwise the offline prediction of that row, whether it
/// is served alone (a batch of one) or inside a larger batch.
fn rows_independent_of_batch<S: Scalar>(precision: Precision, n: usize, d: usize) {
    let _g = lock();
    let (l, k) = (6, 40);
    let model = spread_model::<S>(n, d, l);
    let x = Matrix::from_fn(k, d, |i, j| {
        S::from_f64(((i * 13 + j * 5) % 19) as f64 * 0.08)
    });
    let alone = serve_capped(&model, &x, 1, 0, precision);
    let together = serve_capped(&model, &x, k, 5_000_000, precision);
    let offline = model.predict_with(&x, &eigenpro2::core::PredictOptions::new().block_rows(k));
    let mut differing = Vec::new();
    for i in 0..k {
        let bits = |v: &[S]| v.iter().map(|s| s.to_f64().to_bits()).collect::<Vec<_>>();
        let want = bits(offline.row(i));
        if bits(&alone[i]) != want || bits(&together[i]) != want {
            differing.push(i);
        }
    }
    assert!(
        differing.is_empty(),
        "{} n={n} d={d}: rows {differing:?} of {k} depend on their batch",
        S::NAME
    );
}

#[test]
fn served_rows_do_not_depend_on_their_batch() {
    // n=3000, d=18: a lone row's products fall under the small-product
    // threshold while the batch's do not. n=700, d=300: the assembly spans
    // two KC slabs, so bf16 storage rounds between them, and a lone row's
    // weight product is a small one.
    for (n, d) in [(3000, 18), (700, 300)] {
        if precision_selected(Precision::F32) {
            rows_independent_of_batch::<f32>(Precision::F32, n, d);
        }
        if precision_selected(Precision::F64) {
            rows_independent_of_batch::<f64>(Precision::F64, n, d);
        }
        if precision_selected(Precision::Bf16) {
            rows_independent_of_batch::<eigenpro2::linalg::Bf16>(Precision::Bf16, n, d);
        }
    }
}

/// The engine's ledger charge holds the packed panels it built, at the
/// GEMM's compute width, alongside the resident model.
fn ledger_charges_packed_panels<S: Scalar>(precision: Precision, compute_slot: f64) {
    let _g = lock();
    let (n, d, l) = (900, 40, 6);
    let spec = ResourceSpec::scaled_virtual_gpu();
    let plan = ServePlan::plan(n, d, l, &spec, precision, &ServeConfig::default());
    let ledger = MemoryLedger::new(spec.memory_floats);
    let engine = ServeEngine::new(spread_model::<S>(n, d, l), plan.clone(), &ledger)
        .expect("serve plan fits the ledger");
    let packed = engine.packed();
    assert!(!packed.is_empty());
    assert_eq!(packed.slots(), packed.len() as f64 * compute_slot);
    assert_eq!(plan.packed_slots, packed.slots());
    let footprint =
        plan.resident_slots + plan.packed_slots + plan.workers as f64 * plan.per_worker_slots;
    assert!(
        (ledger.in_use() - footprint).abs() <= 1e-9 * footprint,
        "{}: ledger holds {} slots, footprint is {footprint}",
        S::NAME,
        ledger.in_use()
    );
    drop(engine);
    assert_eq!(ledger.in_use(), 0.0);
}

#[test]
fn engine_charges_packed_panels_at_compute_width() {
    ledger_charges_packed_panels::<f32>(Precision::F32, 1.0);
    ledger_charges_packed_panels::<f64>(Precision::F64, 2.0);
    // bf16 panels are f32-wide: a full slot per element, not half.
    ledger_charges_packed_panels::<eigenpro2::linalg::Bf16>(Precision::Bf16, 1.0);
}

#[test]
fn over_budget_load_is_shed_with_busy() {
    let _g = lock();
    let model = test_model::<f32>(80, 5, 2);
    // Zero latency budget: the first request (empty queue) always admits,
    // everything that queues behind it sheds. The huge window keeps the
    // worker from draining mid-test.
    let config = ServeConfig {
        batch_rows: Some(64),
        window_us: Some(5_000_000),
        latency_budget_us: Some(0),
        workers: Some(1),
    };
    let engine = engine_with(model, &config, Precision::F32);
    let row: Vec<f32> = vec![0.25; 5];
    let mut sheds = Vec::new();
    let ok: Mutex<u64> = Mutex::new(0);
    let sink = |_id: &str, _out: &[f32]| *ok.lock().unwrap() += 1;
    engine.run(&sink, || {
        assert!(engine.submit("first", &row).is_ok(), "empty queue admits");
        for i in 0..5 {
            match engine.submit(&format!("flood{i}"), &row) {
                Ok(()) => {}
                Err(shed) => sheds.push(shed),
            }
        }
    });
    assert!(!sheds.is_empty(), "over-budget load was never shed");
    assert!(sheds.iter().all(|s| s.budget_us == 0 && s.est_wait_us > 0));
    let st = engine.stats();
    assert_eq!(st.shed, sheds.len() as u64);
    // Every admitted request was still served on drain.
    assert_eq!(st.served + st.shed, 6);
    assert_eq!(*ok.lock().unwrap(), st.served);
}

#[test]
fn worker_panic_failpoint_loses_no_request() {
    let _g = lock();
    let model = test_model::<f64>(60, 4, 2);
    let k = 9;
    let x = Matrix::from_fn(k, 4, |i, j| ((i * 7 + j) % 11) as f64 * 0.13);
    let config = ServeConfig {
        batch_rows: Some(k),
        window_us: Some(5_000_000),
        workers: Some(1),
        ..Default::default()
    };
    let engine = engine_with(model.clone(), &config, Precision::F64);
    // Kill the first batch mid-flight; the requeued batch retries as
    // batch 2 with identical composition, so the replies still match
    // offline prediction bit-for-bit.
    let guard = eigenpro2::runtime::faults::arm("serve_worker_panic", Some(1));
    let replies = serve_rows(&engine, &x);
    assert_eq!(
        eigenpro2::runtime::faults::fired("serve_worker_panic"),
        1,
        "failpoint did not fire"
    );
    drop(guard);
    let st = engine.stats();
    assert_eq!(st.recoveries, 1, "panic recovery was not recorded");
    assert_eq!(st.served, k as u64, "a request was lost in recovery");
    let offline = model.predict_with(&x, &engine.plan().opts);
    for i in 0..k {
        for (s, o) in replies[&format!("r{i}")].iter().zip(offline.row(i)) {
            assert_eq!(s.to_bits(), o.to_bits());
        }
    }
}
