//! Serving-path integration tests: work-conserving batch formation and
//! admission under bursty and stepped arrivals (simulated clock and
//! virtual workers — no sleeps), admission shedding at over-budget load,
//! bit-for-bit parity between served and offline predictions at every
//! precision (whatever batch a row rides in), the packed panels' ledger
//! charge, worker-panic self-healing, and repeated runs of one engine.

use std::collections::{HashMap, VecDeque};
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

/// One simulated batch: when it started and its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SimBatch {
    start: u64,
    rows: usize,
}

/// What a simulated run recorded.
#[derive(Debug, Default)]
struct SimRun {
    batches: Vec<SimBatch>,
    shed: usize,
    /// Instants at which a row sat queued while a worker was free.
    idle_with_queue: usize,
}

/// Replays arrivals (time µs, rows arriving at that instant) under a
/// simulated microsecond clock. Each row passes `admission` against the
/// rows queued before it; `workers` virtual workers, each free one taking
/// what `batcher` cuts, run a batch of `r` rows in `a_us + b_us·r` µs, and
/// every finished batch is fed back to `admission`'s fit.
fn simulate(
    batcher: &MicroBatcher,
    admission: &mut AdmissionController,
    workers: usize,
    (a_us, b_us): (u64, u64),
    arrivals: &[(u64, usize)],
) -> SimRun {
    let mut run = SimRun::default();
    let mut queue: VecDeque<u64> = VecDeque::new();
    // Per worker: the batch in flight, as (end, rows).
    let mut busy: Vec<Option<(u64, usize)>> = vec![None; workers];
    let mut next = 0;
    loop {
        let next_end = busy.iter().flatten().map(|&(end, _)| end).min();
        let now = match (arrivals.get(next), next_end) {
            (Some(&(t, _)), Some(end)) => t.min(end),
            (Some(&(t, _)), None) => t,
            (None, Some(end)) => end,
            (None, None) => break,
        };
        // Batches finishing now free their worker and teach the fit.
        for slot in busy.iter_mut() {
            if let Some((end, rows)) = *slot {
                if end == now {
                    admission.observe_batch(rows, (a_us + b_us * rows as u64) as f64);
                    *slot = None;
                }
            }
        }
        // Rows arriving now queue together, each admitted or shed.
        while let Some(&(t, rows)) = arrivals.get(next) {
            if t != now {
                break;
            }
            for _ in 0..rows {
                match admission.admit(queue.len()) {
                    Ok(()) => queue.push_back(t),
                    Err(_) => run.shed += 1,
                }
            }
            next += 1;
        }
        // Every free worker takes its cut.
        for slot in busy.iter_mut().filter(|slot| slot.is_none()) {
            let Some(rows) = batcher.ready(queue.len()) else {
                break;
            };
            queue.drain(..rows);
            *slot = Some((now + a_us + b_us * rows as u64, rows));
            run.batches.push(SimBatch { start: now, rows });
        }
        if !queue.is_empty() && busy.iter().any(Option::is_none) {
            run.idle_with_queue += 1;
        }
    }
    run
}

/// `(start, rows)` of each simulated batch, in start order.
fn cuts(run: &SimRun) -> Vec<(u64, usize)> {
    run.batches.iter().map(|b| (b.start, b.rows)).collect()
}

/// An admission controller that never sheds.
fn unbounded(batcher: &MicroBatcher, workers: usize) -> AdmissionController {
    AdmissionController::new(u64::MAX, 1.0, batcher.max_rows, workers)
}

#[test]
fn bursty_arrivals_form_expected_batches() {
    let batcher = MicroBatcher::new(8);
    let mut admission = unbounded(&batcher, 2);
    // Batches cost 100 + 10·rows µs on two workers. A burst of 20 at t=0:
    // both workers take a full batch at once (done at 180), 4 rows wait.
    // A straggler at t=50 joins them; the first free worker takes all 5
    // at t=180, the other finds the queue empty. A lone request at t=500
    // finds both workers free and starts at once.
    let run = simulate(
        &batcher,
        &mut admission,
        2,
        (100, 10),
        &[(0, 20), (50, 1), (500, 1)],
    );
    assert_eq!(cuts(&run), vec![(0, 8), (0, 8), (180, 5), (500, 1)]);
    assert_eq!(run.idle_with_queue, 0);
}

#[test]
fn quiet_period_holds_no_batch() {
    let batcher = MicroBatcher::new(8);
    let mut admission = unbounded(&batcher, 2);
    assert!(simulate(&batcher, &mut admission, 2, (100, 10), &[])
        .batches
        .is_empty());
}

#[test]
fn sustained_overload_cuts_only_full_batches() {
    let batcher = MicroBatcher::new(16);
    let mut admission = unbounded(&batcher, 2);
    // 64 rows at once: four full batches, two per worker, back to back.
    let run = simulate(&batcher, &mut admission, 2, (1_000, 10), &[(0, 64)]);
    assert_eq!(cuts(&run), vec![(0, 16), (0, 16), (1_160, 16), (1_160, 16)]);
}

/// Evenly spaced single-row arrivals at `frac` of `rows_per_us`, from
/// `t0` for `n` rows; returns the arrivals and the instant after the last.
fn even_arrivals(t0: u64, frac: f64, rows_per_us: f64, n: usize) -> (Vec<(u64, usize)>, u64) {
    let gap = 1.0 / (frac * rows_per_us);
    let trace: Vec<(u64, usize)> = (0..n)
        .map(|i| (t0 + (i as f64 * gap).round() as u64, 1))
        .collect();
    (trace, t0 + (n as f64 * gap).round() as u64)
}

#[test]
fn step_load_batches_track_the_load_without_a_slow_mode() {
    // The served benchmark model's measured packed predict at one thread
    // is about 1.3 ms + 0.19 ms/row, with a 1024-row cap: two workers run
    // at most 2·1024 / t(1024) rows per µs.
    let (a, b, cap, workers) = (1_300_u64, 190_u64, 1024_usize, 2);
    let capacity = (workers * cap) as f64 / (a + b * cap as u64) as f64;
    // Evenly spaced arrivals step 0.2 → 0.9 → 0.2 of capacity, each step
    // long enough to settle (and 0.9 long enough for hundreds of batches).
    let steps = [(0.2, 3_000), (0.9, 12_000), (0.2, 3_000)];
    let mut trace = Vec::new();
    let mut bounds = Vec::new();
    let mut t = 0;
    for &(frac, n) in &steps {
        let (rows, end) = even_arrivals(t, frac, capacity, n);
        trace.extend(rows);
        bounds.push((t, end));
        t = end;
    }
    let batcher = MicroBatcher::new(cap);
    // The plan's default budget: four cap-sized batches at the seed's
    // per-row estimate (14 µs a row, the virtual device's).
    let seed_row_us = 14.0;
    let budget_us = (4.0 * cap as f64 * seed_row_us) as u64;
    let mut admission = AdmissionController::new(budget_us, seed_row_us, cap, workers);
    let run = simulate(&batcher, &mut admission, workers, (a, b), &trace);

    // Work-conserving: no row ever waits while a worker is free, and
    // nothing is shed below capacity.
    assert_eq!(run.idle_with_queue, 0);
    assert_eq!(run.shed, 0);
    // Exact batch times: the two-term fit finds a and b.
    let fit = admission.cost();
    assert!(
        (fit.a_us() / a as f64 - 1.0).abs() < 0.01,
        "a {}",
        fit.a_us()
    );
    assert!(
        (fit.b_us() / b as f64 - 1.0).abs() < 0.01,
        "b {}",
        fit.b_us()
    );

    // Each step's second half is its steady state.
    let steady = |(t0, t1): (u64, u64)| -> Vec<usize> {
        let mid = t0 + (t1 - t0) / 2;
        run.batches
            .iter()
            .filter(|x| (mid..t1).contains(&x.start))
            .map(|x| x.rows)
            .collect()
    };
    let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
    for (&(frac, _), &span) in steps.iter().zip(&bounds) {
        let sizes = steady(span);
        // Fluid steady state: each worker's batch holds what arrives
        // while the other runs its own, r = λ·t(r) / workers.
        let lambda = frac * capacity;
        let fluid = lambda * a as f64 / (workers as f64 - lambda * b as f64);
        assert!(
            (mean(&sizes) - fluid).abs() <= 1.0,
            "{frac}: mean batch {} rows, fluid {fluid:.2}",
            mean(&sizes)
        );
        // Batches grow with the load but never reach the cap: no step
        // settles into alternating cap-sized and small batches.
        let largest = *sizes.iter().max().unwrap();
        assert!(
            largest <= 2 * fluid.ceil() as usize + 1,
            "{frac}: {sizes:?}"
        );
        assert!(largest < cap / 4, "{frac}: {largest}-row batch");
    }
    // No hysteresis: back at 0.2, the batches are those of the first 0.2.
    let (first, last) = (steady(bounds[0]), steady(bounds[2]));
    let range = |s: &[usize]| (*s.iter().min().unwrap(), *s.iter().max().unwrap());
    assert_eq!(range(&first), range(&last));
    assert!((mean(&first) - mean(&last)).abs() < 0.1);
}

#[test]
fn admission_sheds_exactly_past_the_budget() {
    // Measured batches on t(r) = 100 + 50·r, at most 8 rows a batch, two
    // workers. The wait behind q rows is the batches they form over the
    // workers: 32 rows are four full batches, 4·t(8) / 2 = 1000 µs; a 33rd
    // row adds a fifth batch and its fixed cost, (4·t(8) + t(1)) / 2 =
    // 1075 µs. (Priced per row at the fitted t(8)/8, they would be 1000
    // and 1031 µs.)
    let mut c = AdmissionController::new(1_050, 1.0, 8, 2);
    c.observe_batch(1, 150.0);
    c.observe_batch(8, 500.0);
    assert!(c.admit(0).is_ok());
    assert!(c.admit(32).is_ok());
    let shed = c.admit(33).unwrap_err();
    assert!((1_075..=1_076).contains(&shed.est_wait_us), "{shed:?}");
    assert_eq!(shed.budget_us, 1_050);
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

/// Queues every row before `run` starts the workers, then lets the engine
/// drain; returns the replies keyed by request id.
fn serve_rows<S: Scalar>(engine: &ServeEngine<S>, rows: &Matrix<S>) -> HashMap<String, Vec<S>> {
    for i in 0..rows.rows() {
        engine
            .submit(&format!("r{i}"), rows.row(i))
            .expect("within budget");
    }
    let replies: Mutex<HashMap<String, Vec<S>>> = Mutex::new(HashMap::new());
    let sink = |id: &str, out: &[S]| {
        replies.lock().unwrap().insert(id.to_string(), out.to_vec());
    };
    engine.run(&sink, || {});
    replies.into_inner().unwrap()
}

fn served_matches_offline_bitwise<S: Scalar>(precision: Precision) {
    let _g = lock();
    let (n, d, l, k) = (120, 7, 3, 33);
    let model = test_model::<S>(n, d, l);
    let x = Matrix::from_fn(k, d, |i, j| {
        S::from_f64(((i * 13 + j * 5) % 19) as f64 * 0.09)
    });
    // One worker, and all k requests queued before it starts: they form a
    // single batch in submission order, so the served batch matrix is
    // exactly `x`.
    let config = ServeConfig {
        batch_rows: Some(k),
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

/// Serves `x` through one worker capped at `batch_rows` rows per batch
/// (and no shedding), with every row queued before it starts, so the rows
/// ride in batches of exactly `batch_rows` (the last one shorter); returns
/// the replies in row order.
fn serve_capped<S: Scalar>(
    model: &Arc<KernelModel<S>>,
    x: &Matrix<S>,
    batch_rows: usize,
    precision: Precision,
) -> Vec<Vec<S>> {
    let config = ServeConfig {
        batch_rows: Some(batch_rows),
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
    let alone = serve_capped(&model, &x, 1, precision);
    let together = serve_capped(&model, &x, k, precision);
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
    // everything that queues behind it sheds. The flood arrives before
    // `run` starts the worker, so the first request is still queued.
    let config = ServeConfig {
        batch_rows: Some(64),
        latency_budget_us: Some(0),
        workers: Some(1),
    };
    let engine = engine_with(model, &config, Precision::F32);
    let row: Vec<f32> = vec![0.25; 5];
    let mut sheds = Vec::new();
    assert!(engine.submit("first", &row).is_ok(), "empty queue admits");
    for i in 0..5 {
        match engine.submit(&format!("flood{i}"), &row) {
            Ok(()) => {}
            Err(shed) => sheds.push(shed),
        }
    }
    let ok: Mutex<u64> = Mutex::new(0);
    let sink = |_id: &str, _out: &[f32]| *ok.lock().unwrap() += 1;
    engine.run(&sink, || {});
    assert_eq!(sheds.len(), 5, "over-budget load was not shed");
    assert!(sheds.iter().all(|s| s.budget_us == 0 && s.est_wait_us > 0));
    let st = engine.stats();
    assert_eq!(st.shed, sheds.len() as u64);
    // Every admitted request was still served on drain.
    assert_eq!(st.served + st.shed, 6);
    assert_eq!(*ok.lock().unwrap(), st.served);
}

/// Runs `engine` once with the driver submitting the rows of `x` one at a
/// time, each after the previous reply, so every request arrives while the
/// workers run. Returns the replies; a request unanswered after 10 s ends
/// the run early.
fn serve_closed_loop<S: Scalar>(
    engine: &ServeEngine<S>,
    x: &Matrix<S>,
    tag: &str,
) -> HashMap<String, Vec<S>> {
    let (tx, rx) = std::sync::mpsc::channel();
    let tx = Mutex::new(tx);
    let sink = |id: &str, out: &[S]| {
        let _ = tx.lock().unwrap().send((id.to_string(), out.to_vec()));
    };
    engine.run(&sink, || {
        let mut replies = HashMap::new();
        for i in 0..x.rows() {
            engine
                .submit(&format!("{tag}{i}"), x.row(i))
                .expect("an empty queue admits");
            match rx.recv_timeout(std::time::Duration::from_secs(10)) {
                Ok((id, out)) => replies.insert(id, out),
                Err(_) => break,
            };
        }
        replies
    })
}

#[test]
fn one_engine_serves_two_runs() {
    let _g = lock();
    let model = test_model::<f64>(60, 4, 2);
    let k = 6;
    let x = Matrix::from_fn(k, 4, |i, j| ((i * 5 + j) % 7) as f64 * 0.17);
    let engine = engine_with(model.clone(), &ServeConfig::default(), Precision::F64);
    let offline = model.predict_with(&x, &engine.plan().opts);
    for run in ["first", "second"] {
        let replies = serve_closed_loop(&engine, &x, run);
        assert_eq!(replies.len(), k, "{run} run left requests unanswered");
        for i in 0..k {
            let served = &replies[&format!("{run}{i}")];
            for (s, o) in served.iter().zip(offline.row(i)) {
                assert_eq!(s.to_bits(), o.to_bits(), "{run} run, row {i}");
            }
        }
    }
    assert_eq!(engine.stats().served, 2 * k as u64);
}

#[test]
fn worker_panic_failpoint_loses_no_request() {
    let _g = lock();
    let model = test_model::<f64>(60, 4, 2);
    let k = 9;
    let x = Matrix::from_fn(k, 4, |i, j| ((i * 7 + j) % 11) as f64 * 0.13);
    let config = ServeConfig {
        batch_rows: Some(k),
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
