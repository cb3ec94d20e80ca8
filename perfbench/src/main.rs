//! The repository benchmark: time-to-model, epoch and open-loop serving
//! metrics over three workloads, plus a traced run that splits them into
//! layers.
//!
//! ```text
//! bash perfbench/run.sh --workload <fit-incore|fit-streamed|serve-open> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Every workload is a user's journey through the system: train a model
//! with `EigenPro2::fit`, save it, reload it through `persist::load_any` and
//! serve it with `ServeEngine` under open-loop arrivals. The workloads
//! differ in which phase dominates:
//!
//! - `fit-incore`: the paper's in-core pipeline; set-up (the subsample
//!   eigensolve) does most of the work and the stream layer is bypassed.
//! - `fit-streamed`: forced `Streamed` residency under a small `S_G`, more
//!   epochs and a checkpoint every epoch; the tile ring and its producers
//!   do most of the epoch work.
//! - `serve-open`: a small model-preparation fit, then most of the run is
//!   open-loop serving at fixed absolute rates.
//!
//! With `--trace 0` the last stdout line is a JSON object with every
//! end-to-end metric; with `--trace 1` it holds every per-layer metric
//! (zero where a layer does not run on the workload). Human-readable
//! detail, including each layer beside its cost-model prediction, goes to
//! stderr.

mod fit;
mod replay;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use fit::{FitRun, FitSpec};
use serve::{Rung, ServeOutcome, ServeSpec};
use stats::median;

/// One workload: its fit, how many fits a run makes, and its serve ladder.
struct Workload {
    name: &'static str,
    fit: FitSpec,
    /// Fits per run: at least `min_fits`, more while the fit share of the
    /// run's seconds lasts.
    min_fits: usize,
    fit_share: f64,
    serve: ServeSpec,
    /// `setup_s` is the serve set-up (load + engine build + warm-up)
    /// instead of the fit set-up.
    serve_setup: bool,
}

/// Frozen offered rates, calibrated once on a 2-core AVX-512 host and frozen
/// here. Each rung is `(name, requests/s, seconds in a 30-second run)`;
/// each tenth of a rung holds at least 500 requests, so its p99 rests on at
/// least five samples beyond it. The 4800-center model met the p99 limit at
/// 3200 rps in every calibration run, but where it stops meeting it moved
/// between 3600 and over 6600 rps from run to run (near that knee the
/// admission estimate and the batch size feed back on each other), and the
/// spread of p50 and p99 over runs grows with the rate (at 2000 rps about
/// three times that at 1200, at 2800 over a quarter). So `high` stays well
/// below the knee: `low` ≈ ⅕ and `high` ≈ ⅓ of a ~5000 rps capacity.
/// `max_rate_rps` is interpolated between the highest rung that meets the
/// limit and the next; the one probe, at 3200, keeps it steady and lets it
/// fall smoothly once serving slows by more than ~30%, but it saturates
/// there and does not show gains.
const LADDER_4800: [(&str, f64, f64); 4] = [
    ("low", 1000.0, 8.0),
    ("mid", 1300.0, 4.0),
    ("high", 1600.0, 6.0),
    ("probe", 3200.0, 2.0),
];
/// The fit workloads serve their own model briefly: `low` and `high` only.
/// `high` gets the longer share: its p99 is the tail most likely to move
/// with serving changes, and with three seconds it spread past a quarter of
/// its median over runs.
const LADDER_4800_SHORT: [(&str, f64, f64); 2] = [("low", 1000.0, 5.0), ("high", 1600.0, 7.0)];
/// Frozen p99 latency limit, ms.
const LIMIT_MS: f64 = 50.0;
/// Share of a `low` or `mid` rung's requests that may be refused before the
/// refusals fail the run. A host slow spell that made the prep fits 50%
/// slower pushed `mid` to 0.7% in one of about a hundred calibration runs;
/// at 2% a policy that refuses a tenth of the load still fails.
const REFUSAL_TOLERANCE: f64 = 0.02;
/// Validation error a fit must reach for `time_to_target_s`.
const TARGET_VAL_ERROR: f64 = 0.2;

/// Rungs from `(name, rps, seconds)`, durations scaled to the run length.
fn ladder(rungs: &[(&'static str, f64, f64)], scale: f64) -> Vec<Rung> {
    rungs
        .iter()
        .map(|&(name, rps, secs)| Rung {
            name,
            rps,
            seconds: secs * scale,
            probe: name.starts_with("probe"),
        })
        .collect()
}

fn workload(name: &str, seconds: f64, smoke: bool) -> Option<Workload> {
    let scale = seconds / 30.0;
    let serve = |rungs: &[(&'static str, f64, f64)], setups: usize| ServeSpec {
        rungs: ladder(rungs, scale),
        limit_ms: LIMIT_MS,
        setups,
    };
    let fit = |n_train: usize, s: usize, epochs: usize, streamed_sg: Option<f64>| FitSpec {
        n_train,
        n_val: 1200,
        sigma: 8.0,
        s,
        epochs,
        streamed_sg,
        checkpoint: streamed_sg.is_some(),
        target_val_error: TARGET_VAL_ERROR,
    };
    let mut w = match name {
        // s = 800, not the paper-rule 2000: the dense s = 2000 eigensolve
        // alone takes ~70 s here, past what a run may take, and at 800 a
        // run fits six fits, whose median is steady.
        "fit-incore" => Workload {
            name: "fit-incore",
            fit: fit(4800, 800, 2, None),
            min_fits: 5,
            fit_share: 0.55,
            serve: serve(&LADDER_4800_SHORT, 5),
            serve_setup: false,
        },
        // The same n as fit-incore, so both serve one calibrated model
        // shape; S_G = 3.3e6 slots gives ~530-column tiles, ten per batch.
        // s = 800 as in fit-incore, not a smaller s: at s = 300-600 the
        // set-up took one of two times ~50% apart from fit to fit on a
        // shared host, so its median over a run was not steady; at 800 it
        // is. Four epochs keep the streamed epoch loop the larger part.
        "fit-streamed" => Workload {
            name: "fit-streamed",
            fit: fit(4800, 800, 4, Some(3.3e6)),
            min_fits: 4,
            fit_share: 0.55,
            serve: serve(&LADDER_4800_SHORT, 5),
            serve_setup: false,
        },
        "serve-open" => Workload {
            name: "serve-open",
            fit: fit(4800, 300, 2, None),
            min_fits: 5,
            fit_share: 0.0,
            serve: serve(&LADDER_4800, 12),
            serve_setup: true,
        },
        _ => return None,
    };
    if smoke {
        // Seconds-long: a small model, short rungs, low rates. 1000 centers
        // keep even one-row predictions on the packed GEMM path, so served
        // replies stay bitwise equal to the batched offline reference.
        w.fit.n_train = 1000;
        w.fit.n_val = 200;
        w.fit.s = w.fit.s.min(100);
        w.fit.epochs = 2;
        w.fit.target_val_error = 1.0;
        if w.fit.streamed_sg.is_some() {
            w.fit.streamed_sg = Some(2.0e5);
        }
        w.min_fits = 1;
        w.fit_share = 0.0;
        for r in &mut w.serve.rungs {
            r.rps /= 4.0;
            r.seconds = 0.2;
        }
        w.serve.setups = w.serve.setups.min(2);
        w.serve.limit_ms = 1000.0;
    }
    Some(w)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = value("--workload")?,
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value("--trace")? == "1",
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Metrics in output order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:e}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The run's scratch directory, inside the working directory, removed when
/// the run ends.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(workload: &str) -> std::io::Result<Self> {
        let dir = Path::new(".bench_tmp").join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(TmpDir(dir))
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload, args.seconds, args.smoke) else {
        eprintln!(
            "error: unknown workload {:?} (fit-incore, fit-streamed, serve-open)",
            args.workload
        );
        std::process::exit(2);
    };
    let tmp = match TmpDir::new(w.name) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot create the scratch directory: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "workload {} | seed {} | {} s | trace {} | threads {} (available {})",
        w.name,
        args.seed,
        args.seconds,
        args.trace as u8,
        ep2_runtime::configured_threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let code = if args.trace {
        run_traced(&w, &args, &tmp.0)
    } else {
        run_untraced(&w, &args, &tmp.0)
    };
    drop(tmp);
    std::process::exit(code);
}

/// Fits, checks and summarises; returns the runs and the failure count.
fn fit_phase(w: &Workload, args: &Args, tmp: &Path) -> (Vec<FitRun>, u64, u64) {
    let (train, val) = fit::data(&w.fit, args.seed);
    let ckpt = tmp.join("ckpt");
    let budget = args.seconds * w.fit_share;
    let t0 = Instant::now();
    let mut runs: Vec<FitRun> = Vec::new();
    let (mut attempted, mut failed) = (0_u64, 0_u64);
    loop {
        let last_fit = runs.last().map_or(0.0, |r| r.fit_s);
        let enough = attempted >= w.min_fits.max(1) as u64;
        if (enough && t0.elapsed().as_secs_f64() + last_fit > budget) || attempted >= 12 {
            break;
        }
        attempted += 1;
        match fit::fit_once(&w.fit, &train, &val, args.seed, &ckpt) {
            Ok(run) => {
                let per_epoch: Vec<String> = run
                    .outcome
                    .report
                    .epochs
                    .iter()
                    .map(|e| format!("{:.4}", e.val_error.unwrap_or(f64::NAN)))
                    .collect();
                eprintln!(
                    "fit {}: setup {:.3} s, fit {:.3} s, epoch {:.3} s, val error by epoch [{}], crc32 {:08x}",
                    runs.len() + 1,
                    run.setup_s,
                    run.fit_s,
                    run.epoch_s,
                    per_epoch.join(", "),
                    run.checksum
                );
                if !run.problems.is_empty() {
                    eprintln!("  check failed: {}", run.problems.join("; "));
                    failed += 1;
                }
                // Every fit of one seed must produce the same weights.
                if runs.first().is_some_and(|f| f.checksum != run.checksum) {
                    eprintln!("  check failed: weights checksum differs from fit 1");
                    failed += 1;
                }
                runs.push(run);
            }
            Err(e) => {
                eprintln!("fit {attempted}: {e}");
                failed += 1;
            }
        }
    }
    (runs, attempted, failed)
}

fn save_model(run: &FitRun, tmp: &Path) -> PathBuf {
    let path = tmp.join("model.ep2m");
    ep2_core::persist::save(&run.outcome.model, &path).expect("model saves");
    path
}

fn query_pool(w: &Workload, seed: u64) -> ep2_linalg::Matrix {
    // The validation rows of the run's data: requests cycle through them.
    fit::data(&w.fit, seed).1.features
}

/// Requests attempted, failed and refused at the workload rungs. A wrong or
/// missing reply fails. A refusal is the admission policy's explicit
/// back-pressure: after a scheduling stall of a few tens of ms the default
/// policy refuses a handful of requests at any of these rates on a shared
/// 2-core host, so at `low` and `mid` refusals fail only once they exceed
/// [`REFUSAL_TOLERANCE`] of the rung's requests (then every one of them
/// fails). At `high` they count as latency misses (in `goodput_rps` and the
/// rung's pass rule). All are reported on stderr and in `serve.shed`.
fn serve_failures(s: &ServeOutcome) -> (u64, u64, u64) {
    let mut attempted = 0;
    let mut failed = s.warmup_wrong;
    let mut refused = 0;
    for r in s.rungs.iter().filter(|r| !r.probe) {
        attempted += r.sent;
        failed += r.missing + r.wrong;
        refused += r.shed;
        if matches!(r.name, "low" | "mid") && r.shed as f64 > REFUSAL_TOLERANCE * r.sent as f64 {
            failed += r.shed;
        }
    }
    (attempted, failed, refused)
}

fn print_ladder(s: &ServeOutcome) {
    let setups: Vec<String> = s.setup_times.iter().map(|t| format!("{t:.3}")).collect();
    eprintln!(
        "serve: set-up {:.4} s (load {:.4} s; set-ups [{}] s), batch cap {} rows",
        s.setup_s,
        s.load_s,
        setups.join(", "),
        s.batch_rows
    );
    for r in &s.rungs {
        eprintln!(
            "  {:<7} {:>7.0} rps offered: {:>6} sent, {:>7.0} replies/s, p50 {:>8.3} ms, p99 {:>8.3} ms, \
             miss {:.4}, {} shed, {} missing, {} wrong, {} batches (fill {:.3}), window p99s [{}] ms{}",
            r.name,
            r.rps,
            r.sent,
            r.reply_rps,
            r.p50_ms,
            r.p99_ms,
            r.miss_share,
            r.shed,
            r.missing,
            r.wrong,
            r.batches,
            r.batch_fill,
            r.window_p99_ms
                .iter()
                .map(|p| format!("{p:.1}"))
                .collect::<Vec<_>>()
                .join(", "),
            if r.passes { "" } else { "  [misses limit]" }
        );
    }
    eprintln!(
        "  max rate {:.0} rps | generator lag p99 {:.3} ms",
        s.max_rate_rps(),
        s.generator_lag_ms
    );
}

fn run_untraced(w: &Workload, args: &Args, tmp: &Path) -> i32 {
    let (runs, mut attempted, mut failed) = fit_phase(w, args, tmp);
    let Some(last) = runs.last() else {
        eprintln!("error: no fit succeeded");
        return 1;
    };
    let path = save_model(last, tmp);
    let pool = query_pool(w, args.seed);
    let s = serve::run(&path, &pool, &w.serve, args.seed, false);
    print_ladder(&s);
    let (sa, sf, refused) = serve_failures(&s);
    attempted += sa;
    failed += sf;

    let of = |f: fn(&FitRun) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let setup_s = if w.serve_setup {
        s.setup_s
    } else {
        of(|r| r.setup_s)
    };
    let low = s.rung("low");
    let high = s.rung("high");
    let metrics: Metrics = vec![
        ("setup_s".into(), setup_s, "s"),
        ("fit_s".into(), of(|r| r.fit_s), "s"),
        ("epoch_s".into(), of(|r| r.epoch_s), "s"),
        (
            "time_to_target_s".into(),
            of(|r| r.time_to_target_s.unwrap_or(r.fit_s)),
            "s",
        ),
        ("val_error".into(), of(|r| r.val_error), "frac"),
        ("p50_ms.low".into(), low.p50_ms, "ms"),
        ("p99_ms.low".into(), low.p99_ms, "ms"),
        ("p50_ms.high".into(), high.p50_ms, "ms"),
        ("p99_ms.high".into(), high.p99_ms, "ms"),
        ("max_rate_rps".into(), s.max_rate_rps(), "1/s"),
        ("goodput_rps".into(), high.goodput_rps, "1/s"),
        ("peak_rss_mb".into(), stats::peak_rss_mb(), "MiB"),
    ];
    eprintln!(
        "fail_frac {:.6} ({failed} failed of {attempted} attempted: fits, and requests at the \
         workload rungs); refused {refused} ({:.6} with refusals counted)",
        failed as f64 / attempted.max(1) as f64,
        (failed + refused) as f64 / attempted.max(1) as f64
    );
    print_result(failed == 0, attempted, failed, &metrics);
    0
}

fn run_traced(w: &Workload, args: &Args, tmp: &Path) -> i32 {
    // The untraced reference fit: its plan is the guard the replay must
    // reproduce, and its wall time the base of the tracing overhead.
    let (train, val) = fit::data(&w.fit, args.seed);
    let ckpt = tmp.join("ckpt");
    let reference = match fit::fit_once(&w.fit, &train, &val, args.seed, &ckpt) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: reference fit: {e}");
            return 1;
        }
    };
    let mut failed = reference.problems.len() as u64;
    let replay = replay::run(&w.fit, &train, &val, args.seed, &ckpt, &reference);
    let guard_ok = replay.guard_ok;
    let path = save_model(&reference, tmp);
    let pool = query_pool(w, args.seed);
    let s = serve::run(&path, &pool, &w.serve, args.seed, true);
    print_ladder(&s);
    let (sa, sf, _) = serve_failures(&s);
    failed += sf;
    let mut metrics = replay.metrics;
    let high = s.rung("high");
    let low = s.rung("low");
    metrics.extend([
        ("core.persist.load_s".to_string(), s.load_s, "s"),
        ("serve.submit_us".into(), s.submit_us, "us"),
        ("serve.predict_batch_ms.cap".into(), s.predict_cap_ms, "ms"),
        ("serve.predict_batch_ms.one".into(), s.predict_one_ms, "ms"),
        ("serve.batches".into(), s.batches_total as f64, "count"),
        ("serve.batch_fill.low".into(), low.batch_fill, "frac"),
        ("serve.batch_fill.high".into(), high.batch_fill, "frac"),
        ("serve.shed".into(), s.shed_total as f64, "count"),
        ("serve.stats_snapshot_us".into(), s.stats_snapshot_us, "us"),
        ("serve.generator_lag_ms".into(), s.generator_lag_ms, "ms"),
        ("serve.plan.est_row_us".into(), s.est_row_us, "us"),
        (
            "serve.row_us".into(),
            s.predict_cap_ms * 1e3 / s.batch_rows.max(1) as f64,
            "us",
        ),
    ]);
    eprintln!(
        "serve layers: submit {:.2} us | predict at cap ({} rows) {:.3} ms = {:.2} us/row vs ServePlan::est_row_us {:.4} us | \
         one row {:.3} ms | stats() {:.1} us | generator lag p99 {:.3} ms",
        s.submit_us,
        s.batch_rows,
        s.predict_cap_ms,
        s.predict_cap_ms * 1e3 / s.batch_rows.max(1) as f64,
        s.est_row_us,
        s.predict_one_ms,
        s.stats_snapshot_us,
        s.generator_lag_ms
    );
    if !guard_ok {
        eprintln!("error: the replayed plan differs from the untraced run's; traced run rejected");
        failed += 1;
    }
    print_result(failed == 0, 1 + sa, failed, &metrics);
    0
}
