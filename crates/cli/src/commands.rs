//! Subcommand implementations for the `ep2` binary.

use std::sync::Arc;

use ep2_core::autotune;
use ep2_core::trainer::{EarlyStopping, EigenPro2, TrainConfig};
use ep2_core::PredictOptions;
use ep2_data::{catalog, Dataset};
use ep2_device::{batch, DeviceMode, Precision, ResidencyMode, ResourceSpec};
use ep2_kernels::{Kernel, KernelKind};

use crate::args::Parsed;

/// Usage text.
pub const USAGE: &str = "\
usage: ep2 <command> [options]

commands:
  devices                         list device presets
  datasets                        list synthetic dataset clones
  plan     compute the analytic parameters (Table-4 row) for a dataset
  train    train EigenPro 2.0 and report per-epoch metrics
  eval     evaluate a saved model on a dataset split
  inspect  print the header, dims, checksum status, and embedded trainer
           state of an .ep2/.ep2m model or checkpoint file
  serve    load a model once and serve predictions over a stdin/stdout
           line protocol with micro-batching and admission control
  help     show this message

common options:
  --dataset <name>    mnist-like | cifar10-like | svhn-like | timit-like |
                      imagenet-like | susy-like           (default mnist-like)
  --n <int>           dataset size                        (default 2000)
  --kernel <name>     gaussian | laplacian | cauchy | matern32 | matern52 | rq
  --sigma <float>     kernel bandwidth                    (default 5)
  --device <name>     titan-xp | k40c | cpu | virtual     (default virtual)
  --sg <float>        override the device memory S_G (f32-reference slots);
                      shrinking it below the dataset residency is how to
                      exercise out-of-core streaming on a laptop
  --precision <name>  f32 | f64 | mixed | bf16            (default f64)
                      f32 runs the paper's single-precision GPU scenario
                      (doubles the memory-limited batch m^S_G); mixed keeps
                      eigensolves/step-size/error sums in f64 while the
                      kernel/GEMM hot loop runs in f32; bf16 stores kernel
                      blocks/tiles/weights in bfloat16 (half an f32 slot,
                      so m^S_G and the streamed n_tile double again) with
                      f32 register-tile compute and f64 planning
  --seed <int>        RNG seed                            (default 0)

plan/train options:
  --s <int>           Nystrom block size (default: paper rule)
  --q <int>           spectral truncation (default: Eq. 7 + adjustment)
  --batch <int>       mini-batch override (default: m^max_G)
  --out-of-core       force Streamed residency (kernel blocks produced as
                      bounded double-buffered tiles); without the flag the
                      trainer streams automatically when the in-core
                      residency (d + l + m)·n exceeds S_G
  --tile <int>        streamed tile width n_tile (default: widest that fits)
  --producers <int>   streamed tile-assembly producer tasks (default: the
                      cost-model partition of the EP2_THREADS budget between
                      assembly and the update GEMM; the EP2_STREAM_PRODUCERS
                      env var survives as a deprecated override). An explicit
                      p runs p producers on a (p + 1)-tile ring at any
                      budget, adding threads past EP2_THREADS if it must;
                      a ring that does not fit is refused, and so is one
                      that fits only at a smaller batch than the
                      double-buffered plan's unless --batch pins it
  --epochs <int>      epoch cap for train            (default 10)
  --test-frac <f64>   held-out fraction for train    (default 0.2)
  --no-early-stop     disable validation early stopping
  --save <path>       write the trained model (EP2M binary format)

fault-tolerance options (train):
  --checkpoint-dir <dir>   write atomic checkpoints (ckpt-NNNNNN.ep2) with
                           the full trainer state after each healthy epoch
  --checkpoint-every <k>   checkpoint every k-th epoch       (default 1)
  --checkpoint-keep <k>    keep only the newest k checkpoints, pruning
                           older ones after each successful atomic write
                           (default: keep all)
  --resume                 continue from the latest valid checkpoint in
                           --checkpoint-dir; the resumed trajectory is
                           bit-for-bit identical to an uninterrupted run

eval options:
  --model <path>      trained model to load
  (plus the dataset options above for the evaluation split)

inspect:
  ep2 inspect <model.ep2>   (or --model <path>)

serve:
  ep2 serve <model.ep2>     (or --model <path>)
  --precision <name>        serve at this precision instead of the one the
                            model was trained under (bf16 halves the
                            resident slots the ledger charges)
  --batch-rows <int>        micro-batch row cap (default: derived from the
                            device capacity C_G and the memory plan); a
                            free worker takes every queued row up to the
                            cap at once, so batches grow only while all
                            workers are busy
  --latency-budget-us <int> admission latency budget; a batch of r rows is
                            priced a + b*r (fitted online from measured
                            batches), and a request whose wait behind the
                            queue's batches exceeds the budget gets a
                            `busy` reply
  --workers <int>           batch-executing workers (default 1, which runs
                            each batch on every thread)
  protocol, one request per line on stdin:
    predict <id> <v1,v2,...>  ->  ok <id> <y1,...>  |  busy <id> <wait> <budget>
    ping | stats | shutdown
";

/// Dispatches a parsed command line.
///
/// # Errors
///
/// Returns a human-readable message for unknown commands/options or
/// training failures.
pub fn run(parsed: &Parsed) -> Result<(), String> {
    // `inspect` and `serve` take the model path as a positional argument.
    if parsed.command != "inspect" && parsed.command != "serve" {
        if let Some(stray) = parsed.positionals.first() {
            return Err(format!("unexpected positional argument {stray}"));
        }
    }
    match parsed.command.as_str() {
        "help" | "-h" | "--help" => {
            println!("{USAGE}");
            Ok(())
        }
        "devices" => devices(),
        "datasets" => datasets(),
        "plan" => plan(parsed),
        "train" => train(parsed),
        "eval" => eval_model(parsed),
        "inspect" => inspect_model(parsed),
        "serve" => serve_model(parsed),
        other => Err(format!("unknown command {other} (try `ep2 help`)")),
    }
}

fn devices() -> Result<(), String> {
    println!(
        "{:<24} {:>12} {:>12} {:>12} {:>10}",
        "name", "C_G", "S_G", "peak ops/s", "overhead"
    );
    for spec in [
        ResourceSpec::titan_xp(),
        ResourceSpec::tesla_k40c(),
        ResourceSpec::cpu_host(),
        ResourceSpec::scaled_virtual_gpu(),
    ] {
        println!(
            "{:<24} {:>12.2e} {:>12.2e} {:>12.2e} {:>9.1e}s",
            spec.name,
            spec.parallel_capacity,
            spec.memory_floats,
            spec.peak_flops,
            spec.launch_overhead
        );
    }
    Ok(())
}

fn datasets() -> Result<(), String> {
    println!("{:<16} {:>6} {:>8}  preprocessing", "name", "d", "classes");
    for (name, d, classes, prep) in [
        ("mnist-like", 784, 10, "min-max [0,1]"),
        ("cifar10-like", 1024, 10, "min-max [0,1]"),
        ("svhn-like", 1024, 10, "min-max [0,1]"),
        ("timit-like", 440, 144, "z-score"),
        ("imagenet-like", 500, 100, "z-score (PCA features)"),
        ("susy-like", 18, 2, "z-score"),
    ] {
        println!("{name:<16} {d:>6} {classes:>8}  {prep}");
    }
    Ok(())
}

fn load_dataset(parsed: &Parsed) -> Result<Dataset, String> {
    let name = parsed
        .options
        .get("dataset")
        .map(String::as_str)
        .unwrap_or("mnist-like");
    let n: usize = parsed.get_or("n", 2_000)?;
    let seed: u64 = parsed.get_or("seed", 0)?;
    if n == 0 {
        return Err("--n must be positive".to_string());
    }
    Ok(match name {
        "mnist-like" => catalog::mnist_like(n, seed),
        "cifar10-like" => catalog::cifar10_like(n, seed),
        "svhn-like" => catalog::svhn_like(n, seed),
        "timit-like" => catalog::timit_like(n, seed),
        "imagenet-like" => catalog::imagenet_features_like(n, 100, seed),
        "susy-like" => catalog::susy_like(n, seed),
        other => return Err(format!("unknown dataset {other} (see `ep2 datasets`)")),
    })
}

fn load_device(parsed: &Parsed) -> Result<ResourceSpec, String> {
    let mut spec = match parsed
        .options
        .get("device")
        .map(String::as_str)
        .unwrap_or("virtual")
    {
        "titan-xp" => ResourceSpec::titan_xp(),
        "k40c" => ResourceSpec::tesla_k40c(),
        "cpu" => ResourceSpec::cpu_host(),
        "virtual" => ResourceSpec::scaled_virtual_gpu(),
        other => return Err(format!("unknown device {other} (see `ep2 devices`)")),
    };
    if let Some(sg) = parsed.get_opt::<f64>("sg")? {
        if !(sg > 0.0 && sg.is_finite()) {
            return Err("--sg must be positive".to_string());
        }
        spec.memory_floats = sg;
        spec.name = format!("{} (S_G = {sg:.3e})", spec.name);
    }
    Ok(spec)
}

fn load_precision(parsed: &Parsed) -> Result<Precision, String> {
    match parsed.options.get("precision") {
        None => Ok(Precision::F64),
        Some(name) => name.parse(), // Precision's FromStr carries the message
    }
}

/// The `--producers` override (explicit config wins over the deprecated
/// `EP2_STREAM_PRODUCERS` env var, which the stream planner still honours
/// beneath it).
fn resolve_producers(parsed: &Parsed) -> Result<Option<usize>, String> {
    match parsed.get_opt::<usize>("producers")? {
        Some(0) => Err("--producers must be positive".to_string()),
        Some(p) => Ok(Some(p)),
        None => Ok(ep2_stream::producer_override()),
    }
}

fn load_kernel_kind(parsed: &Parsed) -> Result<KernelKind, String> {
    let name = parsed
        .options
        .get("kernel")
        .map(String::as_str)
        .unwrap_or("gaussian");
    KernelKind::parse(name).ok_or_else(|| format!("unknown kernel {name}"))
}

fn plan(parsed: &Parsed) -> Result<(), String> {
    let dataset = load_dataset(parsed)?;
    let device = load_device(parsed)?;
    let kind = load_kernel_kind(parsed)?;
    let sigma: f64 = parsed.get_or("sigma", 5.0)?;
    let seed: u64 = parsed.get_or("seed", 0)?;
    let precision = load_precision(parsed)?;
    let kernel: Arc<dyn Kernel> = kind.with_bandwidth(sigma).into();
    let (n, d, l) = (dataset.len(), dataset.dim(), dataset.n_classes);
    let streamed = parsed.flag("out-of-core") || !batch::fits_in_core(&device, n, d, l, precision);
    let producers_override = resolve_producers(parsed)?;
    let stream_plan = if streamed {
        // The same ring-sizing entry point the trainer uses
        // (`max_batch_streamed_planned`), so `plan` previews exactly the
        // tiling `train` executes.
        Some(
            batch::max_batch_streamed_planned(
                &device,
                n,
                d,
                l,
                precision,
                parsed.get_opt("batch")?,
                producers_override,
                ep2_runtime::current_threads(),
            )
            .map_err(|e| e.to_string())?,
        )
    } else {
        None
    };
    let (params, _) = match &stream_plan {
        Some(splan) => autotune::plan_streamed(
            &kernel,
            &dataset.features,
            l,
            &device,
            parsed.get_opt("s")?,
            parsed.get_opt("q")?,
            splan,
            producers_override,
            precision,
            seed,
        )
        .map_err(|e| e.to_string())?,
        None => autotune::plan(
            &kernel,
            &dataset.features,
            dataset.n_classes,
            &device,
            parsed.get_opt("s")?,
            parsed.get_opt("q")?,
            parsed.get_opt("batch")?,
            precision,
            seed,
        )
        .map_err(|e| e.to_string())?,
    };
    println!(
        "dataset: {} (n = {}, d = {}, l = {})",
        dataset.name,
        dataset.len(),
        dataset.dim(),
        dataset.n_classes
    );
    println!(
        "device:  {} | kernel: {kind} (sigma = {sigma}) | precision: {precision} ({:.3e} slots)",
        device.name,
        device.memory_slots(precision)
    );
    println!();
    match &stream_plan {
        Some(splan) => {
            println!(
                "Step 1   residency = {} | m^C_G = {}   m = {}   n_tile = {}   \
                 tiles in flight = {}",
                ResidencyMode::Streamed,
                params.capacity_batch,
                params.m,
                splan.n_tile,
                splan.tiles_in_flight
            );
            println!(
                "         peak residency {:.3e} of {:.3e} slots \
                 (ring + weights + staged batch blocks)",
                splan.resident_slots(precision),
                device.memory_floats
            );
            if let Some(tp) = &params.stream_threads {
                println!(
                    "         threads = {} ({} producer(s) x {} assembly + {} update)",
                    tp.total, tp.producers, tp.producer_threads, tp.update_threads
                );
            }
        }
        None => println!(
            "Step 1   m^C_G = {}   m^S_G = {}   m = {}   threads = {}",
            params.capacity_batch, params.memory_batch, params.m, params.threads
        ),
    }
    println!(
        "Step 2   q(Eq.7) = {}   adjusted q = {}   s = {}",
        params.q, params.adjusted_q, params.s
    );
    println!("Step 3   eta = {:.2}", params.eta);
    println!();
    println!(
        "m*(k)   = {:.2}   (beta = {:.3}, lambda1 = {:.5})",
        params.m_star, params.beta, params.lambda1
    );
    println!(
        "m*(k_G) = {:.0}   (beta_G = {:.3}, lambda1_G = {:.6})",
        params.m_star_g, params.beta_g, params.lambda1_g
    );
    println!(
        "predicted acceleration (Appendix C): {:.0}x",
        params.acceleration
    );
    Ok(())
}

fn eval_model(parsed: &Parsed) -> Result<(), String> {
    let path = parsed
        .options
        .get("model")
        .ok_or_else(|| "--model <path> is required".to_string())?;
    // `load_any` restores the model at its *trained* storage precision, so
    // evaluation reproduces the numbers the training run saw.
    let model = ep2_core::persist::load_any(path).map_err(|e| e.to_string())?;
    let dataset = load_dataset(parsed)?;
    if dataset.dim() != model.dim() {
        return Err(format!(
            "model expects d = {}, dataset has d = {}",
            model.dim(),
            dataset.dim()
        ));
    }
    let pred = model.predict_f64(&dataset.features, &PredictOptions::default());
    let err = ep2_data::metrics::classification_error(&pred, &dataset.labels);
    println!(
        "model: {} kernel, sigma = {}, {} centers, {} outputs, {} storage",
        model.kernel_name(),
        model.bandwidth(),
        model.n_centers(),
        model.n_outputs(),
        model.precision()
    );
    println!(
        "evaluated on {} ({} rows): error {:.2}%",
        dataset.name,
        dataset.len(),
        err * 100.0
    );
    Ok(())
}

fn serve_model(parsed: &Parsed) -> Result<(), String> {
    use ep2_core::persist::AnyModel;
    let path = parsed
        .positionals
        .first()
        .or_else(|| parsed.options.get("model"))
        .ok_or_else(|| "usage: ep2 serve <model.ep2>".to_string())?;
    if parsed.positionals.len() > 1 {
        return Err(format!(
            "unexpected positional argument {}",
            parsed.positionals[1]
        ));
    }
    if parsed.options.contains_key("window-us") {
        return Err(
            "--window-us is gone: a free worker takes the queued rows at once, \
                    so batches grow only while every worker is busy"
                .to_string(),
        );
    }
    let mut model = ep2_core::persist::load_any(path).map_err(|e| e.to_string())?;
    if let Some(name) = parsed.options.get("precision") {
        model = model.to_precision(name.parse()?);
    }
    let device = load_device(parsed)?;
    let config = ep2_serve::ServeConfig {
        batch_rows: parsed.get_opt("batch-rows")?,
        latency_budget_us: parsed.get_opt("latency-budget-us")?,
        workers: parsed.get_opt("workers")?,
    };
    // One match, at the boundary: `load_any` erased the precision, the
    // engine is monomorphic below this point.
    match model {
        AnyModel::F32(m) => serve_typed(m, Precision::F32, &device, &config),
        AnyModel::F64(m) => serve_typed(m, Precision::F64, &device, &config),
        AnyModel::Bf16(m) => serve_typed(m, Precision::Bf16, &device, &config),
    }
}

fn serve_typed<S: ep2_linalg::Scalar>(
    model: ep2_core::KernelModel<S>,
    precision: Precision,
    device: &ResourceSpec,
    config: &ep2_serve::ServeConfig,
) -> Result<(), String> {
    let plan = ep2_serve::ServePlan::plan(
        model.n_centers(),
        model.dim(),
        model.n_outputs(),
        device,
        precision,
        config,
    );
    let ledger = ep2_device::MemoryLedger::new(device.memory_floats);
    let engine = ep2_serve::ServeEngine::new(std::sync::Arc::new(model), plan, &ledger)
        .map_err(|e| e.to_string())?;
    let plan = engine.plan();
    // The banner goes to stderr: stdout carries only protocol responses.
    eprintln!(
        "serving {} centers at {} on {} | batch <= {} rows, \
         latency budget {} us, {} worker(s) x {} thread(s)",
        engine.model().n_centers(),
        precision,
        device.name,
        plan.batch_rows,
        plan.latency_budget_us,
        plan.workers,
        plan.worker_threads,
    );
    eprintln!(
        "memory: {:.3e} resident + {:.3e} packed + {:.3e}/worker of {:.3e} slots",
        plan.resident_slots,
        plan.packed_slots,
        plan.per_worker_slots,
        ledger.budget()
    );
    let stdin = std::io::stdin().lock();
    // `Stdout` (unlocked) is Send; `serve_lines` serialises writes itself.
    let handled = ep2_serve::server::serve_lines(&engine, stdin, std::io::stdout())
        .map_err(|e| format!("serve I/O: {e}"))?;
    let st = engine.stats();
    eprintln!(
        "served {} request(s) in {} batch(es) ({} shed, {} recovered) over {} line(s); \
         p50 {} us, p99 {} us",
        st.served,
        st.batches,
        st.shed,
        st.recoveries,
        handled,
        st.percentile_us(50.0),
        st.percentile_us(99.0),
    );
    Ok(())
}

fn inspect_model(parsed: &Parsed) -> Result<(), String> {
    use ep2_core::persist::ChecksumStatus;
    let path = parsed
        .positionals
        .first()
        .or_else(|| parsed.options.get("model"))
        .ok_or_else(|| "usage: ep2 inspect <model.ep2>".to_string())?;
    if parsed.positionals.len() > 1 {
        return Err(format!(
            "unexpected positional argument {}",
            parsed.positionals[1]
        ));
    }
    let data = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let info = ep2_core::persist::inspect(&data).map_err(|e| e.to_string())?;
    println!("file:      {path} ({} bytes)", info.total_bytes);
    println!("format:    EP2M v{}", info.version);
    println!("kernel:    {} (sigma = {})", info.kernel, info.bandwidth);
    println!(
        "model:     {} centers x {} dims -> {} outputs",
        info.n, info.d, info.l
    );
    match info.checksum {
        ChecksumStatus::Valid => println!("checksum:  OK (crc32)"),
        ChecksumStatus::Absent => println!("checksum:  absent (v1 file, no integrity record)"),
        ChecksumStatus::Mismatch { stored, computed } => println!(
            "checksum:  MISMATCH (stored {stored:#010x}, computed {computed:#010x}) \
             -- file is corrupt or torn"
        ),
    }
    match &info.state {
        None => println!("state:     none (plain model file)"),
        Some(s) => {
            println!(
                "state:     trainer checkpoint at epoch {} ({} history entr{})",
                s.epochs_done,
                s.history.len(),
                if s.history.len() == 1 { "y" } else { "ies" }
            );
            println!(
                "           eta = {:.4} after {} backoff(s), {} rollback(s)",
                s.eta, s.eta_backoffs, s.rollbacks
            );
            println!(
                "           precision = {} | {} iterations | sim {:.1} ms",
                s.precision,
                s.iterations,
                s.simulated_seconds * 1e3
            );
            println!("           plan fingerprint {:#018x}", s.plan_fingerprint);
            if let Some(last) = s.history.last() {
                match last.val_error {
                    Some(ve) => println!(
                        "           last epoch: train mse {:.3e}, test error {:.2}%",
                        last.train_mse,
                        ve * 100.0
                    ),
                    None => println!("           last epoch: train mse {:.3e}", last.train_mse),
                }
            }
        }
    }
    if matches!(info.checksum, ChecksumStatus::Mismatch { .. }) {
        return Err("checksum mismatch: the file failed integrity verification".to_string());
    }
    // The same precision-erased loader `eval`, `serve`, and trainer resume
    // use: inspect reports what the file will actually load as.
    let any = ep2_core::persist::any_from_bytes(&data).map_err(|e| e.to_string())?;
    println!(
        "loads as:  {} storage ({} x {} centers, via load_any)",
        any.0.precision(),
        any.0.n_centers(),
        any.0.dim()
    );
    Ok(())
}

fn train(parsed: &Parsed) -> Result<(), String> {
    let dataset = load_dataset(parsed)?;
    let device = load_device(parsed)?;
    let kind = load_kernel_kind(parsed)?;
    let sigma: f64 = parsed.get_or("sigma", 5.0)?;
    let epochs: usize = parsed.get_or("epochs", 10)?;
    let test_frac: f64 = parsed.get_or("test-frac", 0.2)?;
    if !(0.0..1.0).contains(&test_frac) {
        return Err("--test-frac must be in [0, 1)".to_string());
    }
    let train_n = ((dataset.len() as f64) * (1.0 - test_frac)).round() as usize;
    let (train_set, test_set) = dataset.split_at(train_n.clamp(1, dataset.len()));
    let val = if test_set.is_empty() {
        None
    } else {
        Some(&test_set)
    };

    let config = TrainConfig {
        kernel: kind,
        bandwidth: sigma,
        epochs,
        subsample_size: parsed.get_opt("s")?,
        q: parsed.get_opt("q")?,
        batch_size: parsed.get_opt("batch")?,
        step_size: None,
        early_stopping: if parsed.flag("no-early-stop") {
            None
        } else {
            Some(EarlyStopping::default())
        },
        target_train_mse: None,
        target_val_error: None,
        device_mode: DeviceMode::ActualGpu,
        precision: load_precision(parsed)?,
        residency: if parsed.flag("out-of-core") {
            Some(ResidencyMode::Streamed)
        } else {
            None
        },
        stream_tile: parsed.get_opt("tile")?,
        stream_producers: resolve_producers(parsed)?,
        seed: parsed.get_or("seed", 0)?,
        checkpoint_dir: parsed
            .options
            .get("checkpoint-dir")
            .map(std::path::PathBuf::from),
        checkpoint_every: parsed.get_or("checkpoint-every", 1)?,
        resume: parsed.flag("resume"),
        checkpoint_keep: parsed.get_opt("checkpoint-keep")?,
    };
    if config.resume && config.checkpoint_dir.is_none() {
        return Err("--resume requires --checkpoint-dir".to_string());
    }
    let outcome = EigenPro2::new(config, device)
        .fit(&train_set, val)
        .map_err(|e| e.to_string())?;

    let p = &outcome.report.params;
    if let Some(epoch) = outcome.report.resumed_from_epoch {
        println!("resumed from checkpoint at epoch {epoch}");
    }
    println!(
        "{}: n = {} train / {} test | {kind} sigma = {sigma} | {} | {} | m = {}, q = {}, eta = {:.1}",
        train_set.name,
        train_set.len(),
        test_set.len(),
        outcome.report.precision,
        outcome.report.residency,
        p.m,
        p.adjusted_q,
        p.eta
    );
    match &p.stream_threads {
        Some(tp) => println!(
            "threads: {} ({} producer(s) x {} assembly + {} update)",
            tp.total, tp.producers, tp.producer_threads, tp.update_threads
        ),
        None => println!("threads: {}", p.threads),
    }
    for e in &outcome.report.epochs {
        match e.val_error {
            Some(ve) => println!(
                "epoch {:>3}  train mse {:.3e}  test error {:>6.2}%  (sim {:.1} ms)",
                e.epoch,
                e.train_mse,
                ve * 100.0,
                e.simulated_seconds * 1e3
            ),
            None => println!(
                "epoch {:>3}  train mse {:.3e}  (sim {:.1} ms)",
                e.epoch,
                e.train_mse,
                e.simulated_seconds * 1e3
            ),
        }
    }
    println!(
        "done: {:?} | {} iterations | sim {:.1} ms | wall {:.2} s | precond overhead {:.2}%",
        outcome.report.stop_reason,
        outcome.report.iterations,
        outcome.report.simulated_seconds * 1e3,
        outcome.report.wall_seconds,
        outcome.report.overhead_fraction * 100.0
    );
    println!(
        "memory: {} residency | peak {:.3e} of {:.3e} S_G slots",
        outcome.report.residency, outcome.report.peak_slots, outcome.report.budget_slots
    );
    if outcome.report.stream_recoveries > 0 {
        println!(
            "stream recoveries: {} producer death(s) absorbed by respawn",
            outcome.report.stream_recoveries
        );
    }
    for d in &outcome.report.degradations {
        println!("degradation: {d}");
    }
    if outcome.report.rollbacks > 0 {
        println!(
            "rollbacks: {} divergence rollback(s) to the last healthy weights",
            outcome.report.rollbacks
        );
    }
    if let Some(path) = parsed.options.get("save") {
        ep2_core::persist::save(&outcome.model, path).map_err(|e| e.to_string())?;
        println!("model saved to {path}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args;

    fn parsed(argv: &[&str]) -> Parsed {
        args::parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn unknown_command_errors() {
        assert!(run(&parsed(&["frobnicate"])).is_err());
    }

    #[test]
    fn serve_refuses_the_removed_window() {
        let err = run(&parsed(&["serve", "m.ep2", "--window-us", "2000"])).unwrap_err();
        assert!(err.contains("--window-us"), "{err}");
    }

    #[test]
    fn help_and_listings_succeed() {
        assert!(run(&parsed(&["help"])).is_ok());
        assert!(run(&parsed(&["devices"])).is_ok());
        assert!(run(&parsed(&["datasets"])).is_ok());
    }

    #[test]
    fn plan_small_dataset() {
        let p = parsed(&[
            "plan",
            "--dataset",
            "susy-like",
            "--n",
            "300",
            "--sigma",
            "4",
            "--s",
            "120",
        ]);
        assert!(run(&p).is_ok());
    }

    #[test]
    fn train_small_dataset() {
        let p = parsed(&[
            "train",
            "--dataset",
            "susy-like",
            "--n",
            "300",
            "--sigma",
            "4",
            "--s",
            "100",
            "--epochs",
            "2",
        ]);
        assert!(run(&p).is_ok());
    }

    #[test]
    fn rejects_unknown_dataset_kernel_device() {
        assert!(run(&parsed(&["plan", "--dataset", "nope", "--n", "100"])).is_err());
        assert!(run(&parsed(&["plan", "--kernel", "nope"])).is_err());
        assert!(run(&parsed(&["plan", "--device", "nope"])).is_err());
    }

    #[test]
    fn train_save_then_eval_round_trip() {
        let dir = std::env::temp_dir().join("ep2_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cli_model.ep2m");
        let path_s = path.to_string_lossy().to_string();
        let p = parsed(&[
            "train",
            "--dataset",
            "susy-like",
            "--n",
            "200",
            "--sigma",
            "4",
            "--s",
            "80",
            "--epochs",
            "1",
            "--save",
            &path_s,
        ]);
        assert!(run(&p).is_ok());
        let e = parsed(&[
            "eval",
            "--model",
            &path_s,
            "--dataset",
            "susy-like",
            "--n",
            "100",
        ]);
        assert!(run(&e).is_ok());
        // Dimension mismatch is caught.
        let bad = parsed(&[
            "eval",
            "--model",
            &path_s,
            "--dataset",
            "mnist-like",
            "--n",
            "50",
        ]);
        assert!(run(&bad).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn eval_requires_model() {
        assert!(run(&parsed(&["eval"])).is_err());
    }

    #[test]
    fn train_with_each_precision_succeeds() {
        for precision in ["f32", "f64", "mixed", "bf16"] {
            let p = parsed(&[
                "train",
                "--dataset",
                "susy-like",
                "--n",
                "200",
                "--sigma",
                "4",
                "--s",
                "80",
                "--epochs",
                "1",
                "--precision",
                precision,
            ]);
            assert!(run(&p).is_ok(), "--precision {precision} failed");
        }
        // IEEE f16 is the ROADMAP follow-on, not yet a policy.
        let bad = parsed(&[
            "train",
            "--dataset",
            "susy-like",
            "--n",
            "100",
            "--precision",
            "f16",
        ]);
        assert!(run(&bad).is_err());
    }

    #[test]
    fn plan_accepts_precision() {
        let p = parsed(&[
            "plan",
            "--dataset",
            "susy-like",
            "--n",
            "300",
            "--sigma",
            "4",
            "--s",
            "120",
            "--precision",
            "f32",
        ]);
        assert!(run(&p).is_ok());
    }

    #[test]
    fn train_out_of_core_with_tiny_sg() {
        // S_G = 4000 slots ≪ the susy-like residency: only the streamed
        // path can train this, and the flag makes it explicit.
        let p = parsed(&[
            "train",
            "--dataset",
            "susy-like",
            "--n",
            "300",
            "--sigma",
            "4",
            "--s",
            "60",
            "--epochs",
            "1",
            "--sg",
            "4000",
            "--out-of-core",
            "--no-early-stop",
        ]);
        assert!(run(&p).is_ok());
        // Same dataset without the flag auto-streams too (residency is
        // chosen by the trainer when S_G is too small).
        let auto = parsed(&[
            "train",
            "--dataset",
            "susy-like",
            "--n",
            "300",
            "--sigma",
            "4",
            "--s",
            "60",
            "--epochs",
            "1",
            "--sg",
            "4000",
            "--no-early-stop",
        ]);
        assert!(run(&auto).is_ok());
    }

    #[test]
    fn plan_reports_streamed_tiling_when_over_budget() {
        let p = parsed(&[
            "plan",
            "--dataset",
            "susy-like",
            "--n",
            "300",
            "--sigma",
            "4",
            "--s",
            "60",
            "--sg",
            "4000",
        ]);
        assert!(run(&p).is_ok());
        // Forced streaming on a roomy device also plans.
        let f = parsed(&[
            "plan",
            "--dataset",
            "susy-like",
            "--n",
            "300",
            "--sigma",
            "4",
            "--s",
            "60",
            "--out-of-core",
        ]);
        assert!(run(&f).is_ok());
    }

    #[test]
    fn rejects_bad_sg() {
        assert!(run(&parsed(&[
            "plan",
            "--dataset",
            "susy-like",
            "--n",
            "100",
            "--sg",
            "-5"
        ]))
        .is_err());
    }

    #[test]
    fn stray_positional_rejected_outside_inspect() {
        assert!(run(&parsed(&["train", "stray"])).is_err());
        assert!(run(&parsed(&["plan", "stray"])).is_err());
    }

    #[test]
    fn inspect_requires_path_and_rejects_missing_file() {
        assert!(run(&parsed(&["inspect"])).is_err());
        assert!(run(&parsed(&["inspect", "/nonexistent/nope.ep2"])).is_err());
    }

    #[test]
    fn train_checkpoint_then_inspect_and_resume() {
        let dir = std::env::temp_dir().join("ep2_cli_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let dir_s = dir.to_string_lossy().to_string();
        let base = [
            "train",
            "--dataset",
            "susy-like",
            "--n",
            "200",
            "--sigma",
            "4",
            "--s",
            "80",
            "--no-early-stop",
            "--checkpoint-dir",
            &dir_s,
        ];
        let mut two = base.to_vec();
        two.extend(["--epochs", "2"]);
        assert!(run(&parsed(&two)).is_ok());
        let ckpt = dir.join("ckpt-000002.ep2");
        assert!(ckpt.exists(), "checkpoint not written");
        let ckpt_s = ckpt.to_string_lossy().to_string();
        assert!(run(&parsed(&["inspect", &ckpt_s])).is_ok());
        let mut resumed = base.to_vec();
        resumed.extend(["--epochs", "4", "--resume"]);
        assert!(run(&parsed(&resumed)).is_ok());
        // --resume without a directory is rejected up front.
        assert!(run(&parsed(&[
            "train",
            "--dataset",
            "susy-like",
            "--n",
            "100",
            "--resume"
        ]))
        .is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_bad_test_frac() {
        assert!(run(&parsed(&[
            "train",
            "--dataset",
            "susy-like",
            "--n",
            "100",
            "--test-frac",
            "1.5"
        ]))
        .is_err());
    }
}
