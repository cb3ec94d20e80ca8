//! The traced replay of one fit.
//!
//! `EigenPro2::fit` is one call, so its layers cannot be timed from the
//! outside. The replay runs the same program through the public functions
//! the trainer itself calls — `batch` (Step 1), the subsample eigensolve
//! (`kernels::matrix` + `linalg::eigen`), `Preconditioner` (β, λ₁ probe,
//! correction), `kernels::matrix::kernel_cross`, `KernelModel`,
//! `StreamEngine` and `persist` — with a span around each call.
//!
//! Two checks tie the replay to the untraced fit:
//! - the guard: the replayed plan (m, s, q, η, thread partition) and the
//!   ledger peak (which fixes `n_tile`) must equal the reference run's
//!   report, or the traced run is rejected;
//! - `trace.replay_exact`: 1 when the replayed weights are bitwise the
//!   reference model's (reported, not enforced: a later change to the step's
//!   internals shows here first).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ep2_core::autotune::{ADJUST_Q_REL_FLOOR, BETA_SAMPLE, PROBE_EXTRAS, PROBE_ITERS};
use ep2_core::counter::FlopCounter;
use ep2_core::model::PredictOptions;
use ep2_core::persist::{self, TrainerState};
use ep2_core::precond::{self, SubsampleEigens};
use ep2_core::{critical, KernelModel, Preconditioner};
use ep2_data::{metrics, Dataset};
use ep2_device::cost::{self, ProblemShape, StreamThreadPlan};
use ep2_device::{batch, DeviceMode, MemoryLedger, Precision, ResourceSpec, SimClock};
use ep2_kernels::{matrix as kmat, Kernel, KernelKind};
use ep2_linalg::{blas, eigen, Matrix, Scalar};
use ep2_stream::{BlockPlan, StreamEngine, TileStream};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::fit::{FitRun, FitSpec};
use crate::trace::Tracer;
use crate::Metrics;

type S = f32;

pub struct Replay {
    pub guard_ok: bool,
    pub metrics: Metrics,
}

/// The trainer's per-epoch shuffle seed (splitmix64 over seed and epoch).
fn epoch_seed(seed: u64, epoch: u64) -> u64 {
    let mut z = seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The replayed Steps 1–3 plan.
struct Plan {
    m: usize,
    s: usize,
    q: usize,
    eta: f64,
    splan: Option<batch::StreamedBatchPlan>,
    threads: Option<StreamThreadPlan>,
    precond: Preconditioner<S>,
}

fn plan(
    tr: &mut Tracer,
    spec: &FitSpec,
    kernel: &Arc<dyn Kernel<S>>,
    x: &Matrix<S>,
    l: usize,
    seed: u64,
) -> Plan {
    let device = spec.device();
    let (n, d) = x.shape();
    let requested = ep2_stream::producer_override();
    let threads = ep2_runtime::current_threads();
    // Step 1.
    let (m, splan) = if spec.streamed_sg.is_some() {
        let splan = batch::max_batch_streamed_planned(
            &device,
            n,
            d,
            l,
            Precision::F32,
            None,
            requested,
            threads,
        )
        .expect("streamed plan fits");
        (splan.m, Some(splan))
    } else {
        let b = batch::max_batch_with(&device, n, d, l, Precision::F32);
        (b.batch.clamp(1, n), None)
    };
    // Step 2: the subsample eigensystem, as `SubsampleEigens::compute`
    // builds it on its dense path.
    let s = spec.s.clamp(1, n);
    assert!(
        s <= 2048,
        "the replay covers the dense eigensolver path only"
    );
    let eig = tr.span("core.precond.eigens", |tr| {
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(&mut StdRng::seed_from_u64(seed));
        indices.truncate(s);
        indices.sort_unstable();
        let centers = x.select_rows(&indices);
        let ks = tr.span("kernels.assembly.subsample", |_| {
            kmat::kernel_matrix(kernel.as_ref(), &centers)
        });
        let dec = tr
            .span("linalg.eigen.sym_eig", |_| eigen::sym_eig_f64(&ks))
            .expect("subsample eigensolve succeeds");
        SubsampleEigens {
            indices,
            centers,
            values: dec.values,
            vectors: dec.vectors.cast::<S>(),
        }
    });
    let q_cap = (s / 4).max(1).min(eig.values.len().saturating_sub(2));
    let q_eq7 = critical::select_q(&eig.values, s, m).min(q_cap);
    let q = critical::adjust_q(&eig.values, s, q_eq7, ADJUST_Q_REL_FLOOR).min(q_cap);
    assert!(q > 0, "the benchmark workloads are preconditioned");
    let p = Preconditioner::from_eigens_damped(eig, q, precond::DEFAULT_DAMPING)
        .expect("preconditioner builds");
    let setup_elements = splan.map(|_| device.memory_slots(Precision::F32));
    let beta_sample = match setup_elements {
        Some(e) => BETA_SAMPLE.min(((e / s as f64) as usize).max(1)),
        None => BETA_SAMPLE,
    };
    let beta_g = tr.span("core.precond.beta", |_| {
        p.beta_estimate(kernel, x, beta_sample, seed)
    });
    let probe_cap = setup_elements
        .map(precond::probe_cap_for_elements)
        .unwrap_or(usize::MAX);
    let probe = (s + PROBE_EXTRAS).min(n).min(probe_cap.max(s));
    let probed = tr.span("core.precond.probe", |_| {
        p.probe_lambda_max(kernel, x, probe, PROBE_ITERS, seed)
    });
    let lambda1_g = p.lambda1_preconditioned().max(probed);
    let eta = critical::optimal_step_size(m, beta_g, lambda1_g);
    let threads = splan.map(|sp| {
        let shape = ProblemShape { n, m, d, l, s, q };
        let max_producers = sp.tiles_in_flight.saturating_sub(1).max(1);
        let tp = cost::partition_stream_threads(
            &shape,
            sp.n_tile,
            threads,
            requested.map(|p| p.clamp(1, max_producers)),
        );
        if tp.producers > max_producers {
            cost::partition_stream_threads(&shape, sp.n_tile, threads, Some(max_producers))
        } else {
            tp
        }
    });
    Plan {
        m,
        s,
        q,
        eta,
        splan,
        threads,
        precond: p,
    }
}

/// Algorithm 1's steps 2b–5 given the batch predictions `f` and feature
/// map `phi`: residual, sampled-block update, preconditioner correction.
// The step's operands, 1:1 with the trainer's private `finish_step`.
#[allow(clippy::too_many_arguments)]
fn finish_step(
    tr: &mut Tracer,
    model: &mut KernelModel<S>,
    p: &Preconditioner<S>,
    eta: f64,
    batch: &[usize],
    y: &Matrix<S>,
    f: Matrix<S>,
    phi: Matrix<S>,
) -> (f64, f64) {
    let (n, l, d) = (model.n_centers(), model.n_outputs(), model.dim());
    let m = batch.len();
    let mut g = f;
    for (bi, &idx) in batch.iter().enumerate() {
        for (c, v) in g.row_mut(bi).iter_mut().enumerate() {
            *v -= y[(idx, c)];
        }
    }
    let scale = S::from_f64(eta * 2.0 / m as f64);
    for (bi, &idx) in batch.iter().enumerate() {
        let w_row = model.weights_mut().row_mut(idx);
        for (w, &gv) in w_row.iter_mut().zip(g.row(bi)) {
            *w -= scale * gv;
        }
    }
    let correction = tr.span("core.precond.correction", |_| p.apply_correction(&phi, &g));
    let scale_c = <S as Scalar>::Compute::from_f64(eta * 2.0 / m as f64);
    for (j, &idx) in p.subsample_indices().iter().enumerate() {
        let w_row = model.weights_mut().row_mut(idx);
        for (w, &cv) in w_row.iter_mut().zip(correction.row(j)) {
            *w = S::from_compute(w.compute() + scale_c * cv);
        }
    }
    ((n * m * (d + l)) as f64, p.correction_ops(m, l))
}

/// One in-core step, as `EigenProIteration::step` runs it.
fn step_incore(
    tr: &mut Tracer,
    model: &mut KernelModel<S>,
    p: &Preconditioner<S>,
    eta: f64,
    batch: &[usize],
    y: &Matrix<S>,
) -> (f64, f64) {
    tr.span("core.iteration.step", |tr| {
        let batch_x = model.centers().select_rows(batch);
        let k_block = tr.span("kernels.assembly", |_| {
            kmat::kernel_cross(model.kernel().as_ref(), &batch_x, model.centers())
        });
        let f = tr.span("linalg.gemm.update", |_| {
            model.predict_from_kernel_block(&k_block)
        });
        let sub = p.subsample_indices();
        let mut phi: Matrix<S> = Matrix::zeros(batch.len(), p.s());
        for bi in 0..batch.len() {
            let src = k_block.row(bi);
            for (dst, &cj) in phi.row_mut(bi).iter_mut().zip(sub) {
                *dst = src[cj].compute();
            }
        }
        finish_step(tr, model, p, eta, batch, y, f, phi)
    })
}

/// One streamed step, as `EigenProIteration::step_streamed` consumes the
/// engine's tiles; the time blocked in `TileStream::next` is the consumer
/// wait.
#[allow(clippy::too_many_arguments)]
fn step_streamed(
    tr: &mut Tracer,
    model: &mut KernelModel<S>,
    p: &Preconditioner<S>,
    eta: f64,
    batch: &[usize],
    y: &Matrix<S>,
    tiles: &mut TileStream<'_, S>,
) -> (f64, f64, usize) {
    tr.span("core.iteration.step", |tr| {
        let (m, l) = (batch.len(), model.n_outputs());
        let sub = p.subsample_indices().to_vec();
        let mut f: Matrix<S> = Matrix::zeros(m, l);
        let mut phi: Matrix<S> = Matrix::zeros(m, p.s());
        let mut n_tiles = 0;
        loop {
            let w0 = Instant::now();
            let Some(tile) = tiles.next() else { break };
            tr.record("stream.consumer_wait", w0, Instant::now());
            n_tiles += 1;
            tr.span("stream.consume", |tr| {
                let range = tile.col_range();
                let w_tile = model.weights().submatrix(range.start, 0, range.len(), l);
                tr.span("linalg.gemm.update", |_| {
                    blas::gemm(1.0, tile.block(), &w_tile, 1.0, &mut f)
                });
                for (j, &cj) in sub.iter().enumerate() {
                    if range.contains(&cj) {
                        let local = cj - range.start;
                        for bi in 0..m {
                            phi[(bi, j)] = tile.block()[(bi, local)].compute();
                        }
                    }
                }
            });
        }
        let (a, b) = finish_step(tr, model, p, eta, batch, y, f, phi);
        (a, b, n_tiles)
    })
}

/// Shadow-times the producers' work for one batch: the streamed assembly
/// runs on producer threads the benchmark cannot wrap, so it assembles one
/// batch's tiles itself through the same `kernel_cross_into` call, under
/// the producers' thread budget.
fn shadow_assembly(
    kernel: &dyn Kernel<S>,
    centers: &Matrix<S>,
    plan: &BlockPlan,
    batch: &[usize],
) -> f64 {
    let batch_x = centers.select_rows(batch);
    let bn = kmat::row_sq_norms(&batch_x);
    let cn = kmat::row_sq_norms(centers);
    ep2_runtime::with_budget(plan.threads.producer_threads, || {
        let t = Instant::now();
        for r in plan.tile_ranges() {
            let tc = centers.submatrix(r.start, 0, r.len(), plan.d);
            let mut blk = Matrix::zeros(batch_x.rows(), r.len());
            kmat::kernel_cross_into(kernel, &batch_x, &tc, &bn, &cn[r.clone()], &mut blk);
            std::hint::black_box(&blk);
        }
        t.elapsed().as_secs_f64()
    })
}

/// Replays `reference`'s fit with tracing on and returns the per-layer
/// metrics (every name, zero where the layer does not run).
pub fn run(
    spec: &FitSpec,
    train: &Dataset,
    val: &Dataset,
    seed: u64,
    ckpt: &Path,
    reference: &FitRun,
) -> Replay {
    if spec.checkpoint {
        let _ = std::fs::remove_dir_all(ckpt);
        std::fs::create_dir_all(ckpt).expect("checkpoint directory");
    }
    let mut tr = Tracer::new();
    let total0 = Instant::now();
    let kernel: Arc<dyn Kernel<S>> = KernelKind::Gaussian
        .with_bandwidth_in::<S>(spec.sigma)
        .into();
    let centers: Arc<Matrix<S>> = Arc::new(train.features.cast());
    let y: Matrix<S> = train.targets.cast();
    let val_x: Matrix<S> = val.features.cast();
    let (n, d) = centers.shape();
    let l = y.cols();
    let device = spec.device();
    let slot = Precision::F32.slot_factor();

    let pl = tr.span("core.autotune.plan", |tr| {
        plan(tr, spec, &kernel, &centers, l, seed)
    });
    let m = pl.m;

    // Residency, charged as the trainer charges it.
    let ledger = MemoryLedger::new(device.memory_floats);
    let mut engine = None;
    let _residency = match (&pl.splan, pl.threads) {
        (Some(sp), Some(tp)) => {
            let bplan =
                BlockPlan::from_streamed(n, d, l, sp, Precision::F32).with_stream_threads(tp);
            let guard = ledger
                .alloc(bplan.static_slots())
                .expect("static slots fit");
            engine = Some(
                StreamEngine::new(Arc::clone(&kernel), Arc::clone(&centers), bplan, &ledger)
                    .expect("ring fits"),
            );
            guard
        }
        _ => ledger
            .alloc(((d + l + m) * n) as f64 * slot)
            .expect("in-core residency fits"),
    };
    let n_tile = pl.splan.map(|sp| sp.n_tile);
    let eval_opts = match n_tile {
        Some(t) => PredictOptions::new().block_rows(m.max(1)).col_tile(t),
        None => PredictOptions::default(),
    };

    // Cost-model predictions run at the host's measured rate (the f64
    // register-tile FMA rate of one core, times the thread budget).
    let host_flops =
        ep2_device::timing::measure_host_flops(4096, 64) * ep2_runtime::configured_threads() as f64;
    let host = ResourceSpec::calibrated_to_host(&device, host_flops);
    let mut clock = SimClock::new(host, DeviceMode::ActualGpu);
    let mut counter = FlopCounter::new();
    let k64: Arc<dyn Kernel> = KernelKind::Gaussian.with_bandwidth(spec.sigma).into();

    let mut model = KernelModel::zeros_shared(Arc::clone(&kernel), Arc::clone(&centers), l);
    let mut eta = pl.eta;
    let mut prev_mse = f64::INFINITY;
    let mut backoffs = 0_u32;
    let mut val_error = f64::NAN;
    let mut entries = 0.0_f64;
    let mut assembly_ops = 0.0_f64;
    let mut assembly_bytes = 0.0_f64;
    let mut update_flops = 0.0_f64;
    let mut tiles = 0_usize;
    let mut shadow_s = 0.0_f64;
    let mut shadow_total = 0.0_f64;
    let mut pred_assembly_s = 0.0_f64;
    let mut pred_update_s = 0.0_f64;
    let mut ckpt_bytes = 0_u64;
    let start = Instant::now();
    for epoch in 1..=spec.epochs {
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(&mut StdRng::seed_from_u64(epoch_seed(seed, epoch as u64)));
        let batches: Vec<&[usize]> = indices.chunks(m).collect();
        for b in &batches {
            let mb = b.len();
            entries += (mb * n) as f64;
            assembly_ops += kmat::assembly_ops(n, mb, d);
            // Computed bytes: batch rows and every center read, the block
            // written, at 4 bytes per f32.
            assembly_bytes += ((mb * d + n * d + mb * n) * 4) as f64;
            update_flops += 2.0 * (mb * n * l) as f64;
            let shape = ProblemShape {
                n,
                m: mb,
                d,
                l,
                s: pl.s,
                q: pl.q,
            };
            let (a, u) = match n_tile {
                Some(t) => {
                    let c = cost::streamed_eigenpro(&shape, t);
                    (c.assembly_ops, c.update_ops)
                }
                None => (kmat::assembly_ops(n, mb, d), (mb * n * l) as f64),
            };
            pred_assembly_s += 2.0 * a / host_flops;
            pred_update_s += 2.0 * u / host_flops;
        }
        tr.span("core.epoch", |tr| {
            match engine.as_mut() {
                None => {
                    for b in &batches {
                        let (sgd, pre) = step_incore(tr, &mut model, &pl.precond, eta, b, &y);
                        counter.record(sgd, pre);
                        clock.record_launch(sgd + pre);
                    }
                }
                Some(engine) => {
                    let t = engine.plan().n_tile;
                    let (s, q) = (pl.s, pl.q);
                    tr.span("stream.run_epoch", |tr| {
                        engine.run_epoch(&batches, |bi, stream| {
                            let b = batches[bi];
                            let (sgd, pre, k) =
                                step_streamed(tr, &mut model, &pl.precond, eta, b, &y, stream);
                            tiles += k;
                            counter.record(sgd, pre);
                            let shape = ProblemShape {
                                n,
                                m: b.len(),
                                d,
                                l,
                                s,
                                q,
                            };
                            clock.record_launch(cost::streamed_eigenpro(&shape, t).exposed_ops);
                        });
                    });
                }
            }
            let (train_mse, ve) = tr.span("core.model.eval", |_| {
                let train_pred = model.predict_with(model.centers(), &eval_opts);
                let pred = model.predict_with(&val_x, &eval_opts);
                (
                    metrics::mse(&train_pred, &train.targets),
                    metrics::classification_error(&pred, &val.labels),
                )
            });
            val_error = ve;
            // The trainer's divergence safeguard (never expected to fire on
            // these workloads; the untraced checks count it as a failure).
            if train_mse > prev_mse * 1.2 && backoffs < 16 {
                eta *= 0.5;
                backoffs += 1;
            }
            prev_mse = train_mse.min(prev_mse);
            if spec.checkpoint {
                let path = ckpt.join(format!("ckpt-{epoch:06}.ep2"));
                tr.span("core.persist.checkpoint_write", |_| {
                    let state = TrainerState {
                        epochs_done: epoch as u64,
                        eta,
                        eta_backoffs: backoffs,
                        rollbacks: 0,
                        best_val: f64::INFINITY,
                        since_best: 0,
                        prev_mse,
                        sgd_ops: counter.sgd_ops,
                        precond_ops: counter.precond_ops,
                        iterations: counter.iterations,
                        simulated_seconds: clock.elapsed(),
                        sim_launches: clock.launches(),
                        sim_total_ops: clock.total_ops(),
                        plan_fingerprint: 0,
                        precision: Precision::F32,
                        history: Vec::new(),
                    };
                    let snapshot = KernelModel::from_weights(
                        Arc::clone(&k64),
                        train.features.clone(),
                        model.weights().cast(),
                    );
                    persist::save_checkpoint(&snapshot, &state, &path).expect("checkpoint writes");
                    if epoch > 1 {
                        let old = ckpt.join(format!("ckpt-{:06}.ep2", epoch - 1));
                        let _ = std::fs::remove_file(old);
                    }
                });
                ckpt_bytes = std::fs::metadata(&path).map_or(0, |md| md.len());
            }
        });
        if let Some(engine) = engine.as_ref() {
            let t0 = Instant::now();
            let one = shadow_assembly(kernel.as_ref(), &centers, engine.plan(), batches[0]);
            shadow_s += one * batches.len() as f64;
            shadow_total += t0.elapsed().as_secs_f64();
        }
    }
    let epochs_wall = start.elapsed().as_secs_f64() - shadow_total;
    let producers = engine.as_ref().map_or(0, |e| e.producers());
    let recoveries = engine.as_ref().map_or(0, |e| e.recoveries());
    drop(engine);
    let total = total0.elapsed().as_secs_f64() - shadow_total;

    // The guard and the exactness check against the untraced fit.
    let r = &reference.outcome.report;
    let guard_ok = r.params.m == pl.m
        && r.params.s == pl.s
        && r.params.adjusted_q == pl.q
        && r.params.eta.to_bits() == pl.eta.to_bits()
        && r.params.stream_threads == pl.threads
        && r.peak_slots == ledger.peak_slots();
    let exact = model
        .weights()
        .as_slice()
        .iter()
        .zip(reference.outcome.model.weights().as_slice())
        .all(|(a, b)| (*a as f64).to_bits() == b.to_bits())
        && val_error.to_bits() == reference.val_error.to_bits();
    eprintln!(
        "replay plan: m {} s {} q {} eta {:.6} n_tile {:?} threads {:?} | untraced m {} s {} q {} eta {:.6} | guard {} | replay exact {}",
        pl.m,
        pl.s,
        pl.q,
        pl.eta,
        n_tile,
        pl.threads,
        r.params.m,
        r.params.s,
        r.params.adjusted_q,
        r.params.eta,
        if guard_ok { "ok" } else { "FAILED" },
        exact
    );

    let agg = tr.aggregate();
    let get = |name: &str| agg.get(name).copied().unwrap_or_default();
    let e = spec.epochs as f64;
    let assembly_s = if n_tile.is_some() {
        shadow_s
    } else {
        get("kernels.assembly").total_s
    };
    let update_s = get("linalg.gemm.update").total_s;
    let remainder =
        total - tr.top_level_s() + get("core.epoch").self_s + get("core.autotune.plan").self_s;
    let sim_epoch_s = clock.elapsed() / e;
    let metrics: Metrics = vec![
        (
            "linalg.eigen.sym_eig_s".into(),
            get("linalg.eigen.sym_eig").total_s,
            "s",
        ),
        (
            "core.precond.eigens_s".into(),
            get("core.precond.eigens").total_s,
            "s",
        ),
        (
            "core.precond.beta_s".into(),
            get("core.precond.beta").total_s,
            "s",
        ),
        (
            "core.precond.probe_s".into(),
            get("core.precond.probe").total_s,
            "s",
        ),
        ("kernels.assembly_s".into(), assembly_s / e, "s"),
        (
            "kernels.assembly.entries_per_s".into(),
            entries / assembly_s.max(1e-12),
            "entries/s",
        ),
        ("kernels.assembly.ops".into(), assembly_ops / e, "count"),
        ("kernels.assembly.bytes".into(), assembly_bytes / e, "bytes"),
        ("kernels.assembly.pred_s".into(), pred_assembly_s / e, "s"),
        ("linalg.gemm.update_s".into(), update_s / e, "s"),
        (
            "linalg.gemm.update_gflops".into(),
            update_flops / update_s.max(1e-12) / 1e9,
            "Gflop/s",
        ),
        ("linalg.gemm.update.pred_s".into(), pred_update_s / e, "s"),
        (
            "core.precond.correction_s".into(),
            get("core.precond.correction").total_s / e,
            "s",
        ),
        (
            "core.iteration.step_s".into(),
            get("core.iteration.step").total_s / e,
            "s",
        ),
        (
            "core.iteration.self_s".into(),
            get("core.iteration.step").self_s / e,
            "s",
        ),
        (
            "core.model.eval_s".into(),
            get("core.model.eval").total_s / e,
            "s",
        ),
        (
            "core.counter.ops_per_iter".into(),
            counter.ops_per_iteration(),
            "count",
        ),
        (
            "core.counter.precond_overhead".into(),
            counter.overhead_fraction(),
            "frac",
        ),
        ("device.cost.sim_epoch_s".into(), sim_epoch_s, "s"),
        (
            "stream.run_epoch_s".into(),
            get("stream.run_epoch").total_s / e,
            "s",
        ),
        (
            "stream.consumer_wait_s".into(),
            get("stream.consumer_wait").total_s / e,
            "s",
        ),
        (
            "stream.consume_s".into(),
            get("stream.consume").total_s / e,
            "s",
        ),
        ("stream.tiles".into(), tiles as f64 / e, "count"),
        ("stream.producers".into(), producers as f64, "count"),
        ("stream.recoveries".into(), recoveries as f64, "count"),
        (
            "core.persist.checkpoint_write_s".into(),
            get("core.persist.checkpoint_write").total_s / e,
            "s",
        ),
        (
            "core.persist.checkpoint_bytes".into(),
            ckpt_bytes as f64,
            "bytes",
        ),
        (
            "device.ledger.peak_slots".into(),
            ledger.peak_slots(),
            "slots",
        ),
        ("trace.epoch_s".into(), epochs_wall / e, "s"),
        ("trace.remainder_s".into(), remainder, "s"),
        ("trace.remainder_frac".into(), remainder / total, "frac"),
        (
            "trace.overhead_frac".into(),
            (total - reference.fit_s) / reference.fit_s,
            "frac",
        ),
        (
            "trace.replay_exact".into(),
            f64::from(u8::from(exact)),
            "count",
        ),
    ];
    print_table(&metrics, epochs_wall / e, total);
    Replay { guard_ok, metrics }
}

/// Each layer beside its cost-model prediction, and the remainder.
fn print_table(m: &Metrics, epoch_s: f64, total: f64) {
    let v = |name: &str| m.iter().find(|x| x.0 == name).map_or(0.0, |x| x.1);
    eprintln!("layer decomposition (per epoch unless noted; predictions from ep2-device::cost at the measured host rate):");
    eprintln!(
        "  set-up (per fit): eigens {:.3} s (sym_eig {:.3} s) | beta {:.3} s | probe {:.3} s",
        v("core.precond.eigens_s"),
        v("linalg.eigen.sym_eig_s"),
        v("core.precond.beta_s"),
        v("core.precond.probe_s")
    );
    eprintln!(
        "  epoch {:.3} s | SimClock (host-calibrated) {:.3} s",
        epoch_s,
        v("device.cost.sim_epoch_s")
    );
    eprintln!(
        "    kernels.assembly   {:.3} s  predicted {:.3} s  ({:.3e} entries/s)",
        v("kernels.assembly_s"),
        v("kernels.assembly.pred_s"),
        v("kernels.assembly.entries_per_s")
    );
    eprintln!(
        "    linalg.gemm.update {:.3} s  predicted {:.3} s  ({:.1} Gflop/s)",
        v("linalg.gemm.update_s"),
        v("linalg.gemm.update.pred_s"),
        v("linalg.gemm.update_gflops")
    );
    eprintln!("    core.precond.correction {:.4} s | step self {:.4} s | eval {:.3} s | checkpoint {:.4} s",
        v("core.precond.correction_s"), v("core.iteration.self_s"), v("core.model.eval_s"), v("core.persist.checkpoint_write_s"));
    eprintln!("    stream: run_epoch {:.3} s, consumer wait {:.3} s, consume {:.3} s, {} tiles, {} producer(s)",
        v("stream.run_epoch_s"), v("stream.consumer_wait_s"), v("stream.consume_s"), v("stream.tiles"), v("stream.producers"));
    eprintln!("  unexplained remainder {:.4} s of {:.3} s ({:.2}%) | tracing overhead {:+.2}% vs the untraced fit",
        v("trace.remainder_s"), total, 100.0 * v("trace.remainder_frac"), 100.0 * v("trace.overhead_frac"));
}
