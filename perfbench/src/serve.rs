//! The open-loop serve phase: load a saved model through
//! `persist::load_any`, build the `ServeEngine` under the default
//! `ServePlan` (as `ep2 serve` does), warm it up, then offer Poisson
//! arrivals at fixed absolute rates from one generator thread.
//!
//! Latency is timed from each request's due time to its reply, so a stall
//! is charged to every request it delays. The generator sleeps until the
//! next request is due and on each wake submits every request now due.
//! Each rung is offered in ten segments, interleaved with the other rungs'
//! and drained one by one; its p99 is the median of the segments' p99s.
//! A monitoring thread polls `stats()` every 100 ms. Every reply is checked
//! bitwise against an offline `predict_with` of the same row.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ep2_core::persist::{self, AnyModel};
use ep2_core::{KernelModel, PredictBuffers};
use ep2_device::{MemoryLedger, Precision, ResourceSpec};
use ep2_linalg::Matrix;
use ep2_serve::{ServeConfig, ServeEngine, ServePlan};

use crate::stats::{median, percentile, SplitMix};

/// Largest share of a rung's requests that may miss the limit (be refused
/// or answered later than it): the p99 meets the limit.
pub const MISS_SHARE: f64 = 0.01;

/// Windows a rung's requests are split into (by due time) for its p99 and
/// miss share; each window is offered as one segment.
const WINDOWS: usize = 10;

/// One rate of the ladder.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub name: &'static str,
    pub rps: f64,
    /// Seconds of arrivals.
    pub seconds: f64,
    /// Workload rungs give the reported latencies and count towards the
    /// failed operations; probe rungs above them only place `max_rate_rps`.
    pub probe: bool,
}

#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub rungs: Vec<Rung>,
    /// Frozen p99 latency limit, ms.
    pub limit_ms: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

#[derive(Debug, Clone, Default)]
pub struct RungResult {
    pub name: &'static str,
    pub rps: f64,
    pub probe: bool,
    pub sent: u64,
    pub shed: u64,
    pub missing: u64,
    pub wrong: u64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// The p99 of each window, in order.
    pub window_p99_ms: Vec<f64>,
    /// Share of requests refused or answered later than the limit (median
    /// over the rung's windows).
    pub miss_share: f64,
    pub reply_rps: f64,
    pub goodput_rps: f64,
    pub batches: u64,
    pub batch_fill: f64,
    pub passes: bool,
}

#[derive(Debug, Clone, Default)]
pub struct ServeOutcome {
    pub setup_s: f64,
    pub load_s: f64,
    pub rungs: Vec<RungResult>,
    pub batch_rows: usize,
    pub est_row_us: f64,
    pub warmup_wrong: u64,
    /// Every set-up's time, in order.
    pub setup_times: Vec<f64>,
    // Traced extras (zero when tracing is off).
    pub submit_us: f64,
    pub predict_cap_ms: f64,
    pub predict_one_ms: f64,
    pub stats_snapshot_us: f64,
    pub generator_lag_ms: f64,
    pub shed_total: u64,
    pub batches_total: u64,
}

impl ServeOutcome {
    pub fn rung(&self, name: &str) -> &RungResult {
        self.rungs
            .iter()
            .find(|r| r.name == name)
            .expect("rung exists")
    }

    /// The reply rate at which the miss share crosses [`MISS_SHARE`] (the
    /// p99 crosses the limit): interpolated between the highest rung that
    /// meets the limit with every admitted request answered and the rung
    /// above it; the highest rung's reply rate when every rung meets it, and
    /// 0 when none does.
    pub fn max_rate_rps(&self) -> f64 {
        let Some(k) = self.rungs.iter().rposition(|r| r.passes) else {
            return 0.0;
        };
        let lo = &self.rungs[k];
        let Some(hi) = self.rungs.get(k + 1) else {
            return lo.reply_rps;
        };
        let t = if hi.missing > 0 {
            0.0
        } else {
            ((MISS_SHARE - lo.miss_share) / (hi.miss_share - lo.miss_share)).clamp(0.0, 1.0)
        };
        lo.reply_rps + (hi.reply_rps - lo.reply_rps) * t
    }
}

/// Loads the model file at `path` as `ep2 serve` does, returning the model
/// and the load time in seconds. `persist::save` writes a plain model file,
/// which loads at f64 — what `ep2 train --save` then `ep2 serve` serves.
fn load(path: &Path) -> (KernelModel, f64) {
    let t = Instant::now();
    let AnyModel::F64(model) = persist::load_any(path).expect("benchmark model loads") else {
        panic!("a plain model file loads at f64");
    };
    (model, t.elapsed().as_secs_f64())
}

/// Plans serving for `model` the way `ep2 serve` does: the virtual device
/// and the default `ServeConfig`.
fn plan(model: &KernelModel, device: &ResourceSpec) -> ServePlan {
    ServePlan::plan(
        model.n_centers(),
        model.dim(),
        model.n_outputs(),
        device,
        Precision::F64,
        &ServeConfig::default(),
    )
}

/// Shared reply bookkeeping the engine's sink writes into.
struct Replies<'a> {
    origin: Instant,
    reply_ns: Vec<AtomicU64>,
    expected: &'a Matrix,
    wrong: AtomicU64,
}

impl Replies<'_> {
    fn sink(&self, id: &str, out: &[f64]) {
        let now = self.origin.elapsed().as_nanos() as u64;
        let Ok(idx) = id.parse::<usize>() else {
            self.wrong.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let row = self.expected.row(idx % self.expected.rows());
        let same =
            row.len() == out.len() && row.iter().zip(out).all(|(a, b)| a.to_bits() == b.to_bits());
        // A second reply to one request is as wrong as a wrong value.
        if !same || self.reply_ns[idx].swap(now.max(1), Ordering::Relaxed) != 0 {
            self.wrong.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Runs set-up `spec.setups` times and the ladder once, on the model file
/// at `path`; `pool` holds the query rows (requests cycle through them).
/// The ladder's rounds are shared out among the set-ups' engines, so no
/// single engine's batching state sets every window.
pub fn run(path: &Path, pool: &Matrix, spec: &ServeSpec, seed: u64, traced: bool) -> ServeOutcome {
    let device = ResourceSpec::scaled_virtual_gpu();
    let mut out = ServeOutcome::default();

    // Arrival schedules, from the seed: Poisson arrivals per rung.
    let mut rng = SplitMix::new(seed ^ 0x5E87_E0BE);
    let mut schedules: Vec<Vec<u64>> = Vec::new();
    for r in &spec.rungs {
        let mut t = 0.0_f64;
        let mut due = Vec::new();
        loop {
            t += -(1.0 - rng.next_f64()).ln() / r.rps;
            if t >= r.seconds {
                break;
            }
            due.push((t * 1e9) as u64);
        }
        schedules.push(due);
    }

    // The offline reference every reply is checked against: the same plan
    // the engines are built with, evaluated before any clock starts.
    let (first, first_load_s) = load(path);
    let plan0 = plan(&first, &device);
    let expected = first.predict_with(pool, &plan0.opts);
    out.batch_rows = plan0.batch_rows;
    out.est_row_us = plan0.est_row_us;

    // Request ids: each set-up's warm-up first, then each rung a
    // contiguous range, in ladder order.
    let setups = spec.setups.max(1);
    let warm = plan0.batch_rows + 1;
    let mut bases = Vec::with_capacity(schedules.len());
    let mut total = setups * warm;
    for due in &schedules {
        bases.push(total);
        total += due.len();
    }
    let replies = Replies {
        origin: Instant::now(),
        reply_ns: (0..total).map(|_| AtomicU64::new(0)).collect(),
        expected: &expected,
        wrong: AtomicU64::new(0),
    };
    let mut tally = Tally::new(&schedules);

    // Set-up repeated `setups` times: load + plan + engine build + warm-up;
    // set-up k then carries rounds [k·W/setups, (k+1)·W/setups).
    let mut setup_times = Vec::new();
    let mut load_times = Vec::new();
    let mut model = Some((first, first_load_s));
    for k in 0..setups {
        let (m, load_s) = model.take().unwrap_or_else(|| load(path));
        load_times.push(load_s);
        let t0 = Instant::now();
        let ledger = MemoryLedger::new(device.memory_floats);
        let plan = plan(&m, &device);
        let engine = ServeEngine::new(Arc::new(m), plan.clone(), &ledger)
            .expect("serve plan fits the device");
        let sink = |id: &str, o: &[f64]| replies.sink(id, o);
        engine.run(&sink, || {
            // Warm-up: one full batch, then a lone request, so every
            // worker buffer is sized before the clock starts.
            let wrong_before = replies.wrong.load(Ordering::Relaxed);
            let warm_ids: Vec<usize> = (k * warm..(k + 1) * warm).collect();
            for &i in &warm_ids {
                while engine
                    .submit(&i.to_string(), pool.row(i % pool.rows()))
                    .is_err()
                {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            wait_replies(&replies, &warm_ids, Duration::from_secs(30));
            setup_times.push(load_s + t0.elapsed().as_secs_f64());
            out.warmup_wrong += replies.wrong.load(Ordering::Relaxed) - wrong_before;
            if traced && k + 1 == setups {
                let (cap, one) = time_predict(engine.model(), &plan, pool);
                out.predict_cap_ms = cap;
                out.predict_one_ms = one;
            }
            let ctx = Ladder {
                engine: &engine,
                replies: &replies,
                pool,
                spec,
                schedules: &schedules,
                bases: &bases,
                traced,
            };
            ctx.run(k * WINDOWS / setups..(k + 1) * WINDOWS / setups, &mut tally);
        });
        let st = engine.stats();
        tally.shed_total += st.shed;
        tally.batches_total += st.batches;
    }
    out.setup_s = median(&setup_times);
    out.load_s = median(&load_times);
    out.setup_times = setup_times;
    tally.results(spec, &schedules, &bases, &replies, &mut out);
    out
}

/// Times `predict_with_into` on a full batch and on one row, under the
/// worker's thread budget. Medians, in ms.
fn time_predict(model: &KernelModel, plan: &ServePlan, pool: &Matrix) -> (f64, f64) {
    let rows = plan.batch_rows;
    let x = Matrix::from_fn(rows, pool.cols(), |i, j| pool[(i % pool.rows(), j)]);
    let x1 = pool.submatrix(0, 0, 1, pool.cols());
    ep2_runtime::with_budget(plan.worker_threads, || {
        let mut bufs = PredictBuffers::new();
        let mut o = Matrix::zeros(rows, model.n_outputs());
        let mut o1 = Matrix::zeros(1, model.n_outputs());
        let mut cap = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            model.predict_with_into(&x, &plan.opts, &mut bufs, &mut o);
            cap.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let mut one = Vec::new();
        for _ in 0..50 {
            let t = Instant::now();
            model.predict_with_into(&x1, &plan.opts, &mut bufs, &mut o1);
            one.push(t.elapsed().as_secs_f64() * 1e3);
        }
        (median(&cap), median(&one))
    })
}

fn wait_replies(replies: &Replies<'_>, ids: &[usize], timeout: Duration) {
    let t0 = Instant::now();
    while ids
        .iter()
        .any(|&i| replies.reply_ns[i].load(Ordering::Relaxed) == 0)
    {
        if t0.elapsed() > timeout {
            return;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// What the ladder's segments record, across every engine that carries
/// some of them.
struct Tally {
    /// Per rung, per request: refused at submit.
    shed: Vec<Vec<bool>>,
    /// Per rung, per request: due time since `Replies::origin`, ns.
    due_abs: Vec<Vec<u64>>,
    /// Per rung: seconds from each segment's start to its drain, summed.
    busy_s: Vec<f64>,
    batches: Vec<u64>,
    served: Vec<u64>,
    submit_us: Vec<f64>,
    lag_ms: Vec<f64>,
    snapshot_us: Vec<f64>,
    shed_total: u64,
    batches_total: u64,
}

impl Tally {
    fn new(schedules: &[Vec<u64>]) -> Self {
        Tally {
            shed: schedules.iter().map(|d| vec![false; d.len()]).collect(),
            due_abs: schedules.iter().map(|d| vec![0; d.len()]).collect(),
            busy_s: vec![0.0; schedules.len()],
            batches: vec![0; schedules.len()],
            served: vec![0; schedules.len()],
            submit_us: Vec::new(),
            lag_ms: Vec::new(),
            snapshot_us: Vec::new(),
            shed_total: 0,
            batches_total: 0,
        }
    }

    /// Per-rung results from the recorded segments and the replies.
    fn results(
        self,
        spec: &ServeSpec,
        schedules: &[Vec<u64>],
        bases: &[usize],
        replies: &Replies<'_>,
        out: &mut ServeOutcome,
    ) {
        for (r, (rung, due)) in spec.rungs.iter().zip(schedules).enumerate() {
            // The p99 and the miss share are medians over the windows, so a
            // scheduling stall on a shared host moves at most a few of them.
            // A refused request misses any limit.
            let mut lat_ms = Vec::with_capacity(due.len());
            let mut windows: [Vec<f64>; WINDOWS] = Default::default();
            let mut misses = [0_usize; WINDOWS];
            let mut requests = [0_usize; WINDOWS];
            let mut missing = 0;
            for (k, &d) in due.iter().enumerate() {
                let w = window_of(rung, d);
                requests[w] += 1;
                if self.shed[r][k] {
                    misses[w] += 1;
                    continue;
                }
                match replies.reply_ns[bases[r] + k].load(Ordering::Relaxed) {
                    0 => missing += 1,
                    t => {
                        let l = t.saturating_sub(self.due_abs[r][k]) as f64 / 1e6;
                        lat_ms.push(l);
                        windows[w].push(l);
                        misses[w] += usize::from(l > spec.limit_ms);
                    }
                }
            }
            let window_p99_ms: Vec<f64> = windows.iter().map(|v| percentile(v, 99.0)).collect();
            let miss_share = median(
                &(0..WINDOWS)
                    .map(|w| misses[w] as f64 / requests[w].max(1) as f64)
                    .collect::<Vec<_>>(),
            );
            let within = lat_ms.iter().filter(|&&l| l <= spec.limit_ms).count();
            let batches = self.batches[r];
            out.rungs.push(RungResult {
                name: rung.name,
                rps: rung.rps,
                probe: rung.probe,
                sent: due.len() as u64,
                shed: self.shed[r].iter().filter(|&&s| s).count() as u64,
                missing,
                wrong: 0,
                p50_ms: percentile(&lat_ms, 50.0),
                p99_ms: median(&window_p99_ms),
                window_p99_ms,
                miss_share,
                reply_rps: lat_ms.len() as f64 / self.busy_s[r],
                goodput_rps: within as f64 / rung.seconds,
                batches,
                batch_fill: if batches == 0 {
                    0.0
                } else {
                    self.served[r] as f64 / (batches as f64 * out.batch_rows as f64)
                },
                passes: missing == 0 && miss_share <= MISS_SHARE,
            });
        }
        out.shed_total = self.shed_total;
        out.batches_total = self.batches_total;
        // Wrong replies cannot be attributed to a rung after the fact; charge
        // them to the first workload rung so they always count as failures.
        let wrong = replies.wrong.load(Ordering::Relaxed) - out.warmup_wrong;
        if let Some(r) = out.rungs.iter_mut().find(|r| !r.probe) {
            r.wrong = wrong;
        }
        out.generator_lag_ms = percentile(&self.lag_ms, 99.0);
        out.submit_us = median(&self.submit_us);
        out.stats_snapshot_us = median(&self.snapshot_us);
    }
}

/// The window (and segment) of the request due `d` ns into `rung`.
fn window_of(rung: &Rung, d: u64) -> usize {
    ((d as f64 / 1e9 / rung.seconds * WINDOWS as f64) as usize).min(WINDOWS - 1)
}

/// Everything the ladder reads, borrowed from the set-up that built the
/// engine.
struct Ladder<'a, 'r> {
    engine: &'a ServeEngine<f64>,
    replies: &'a Replies<'r>,
    pool: &'a Matrix,
    spec: &'a ServeSpec,
    schedules: &'a [Vec<u64>],
    bases: &'a [usize],
    traced: bool,
}

impl Ladder<'_, '_> {
    /// Offers the given rounds: round w is every rung's window w, in ladder
    /// order, each as a segment drained before the next. Round-robin, a
    /// host slow spell of a few seconds lands on a few windows of every
    /// rung instead of most windows of one.
    fn run(&self, rounds: std::ops::Range<usize>, tally: &mut Tally) {
        let Ladder {
            engine,
            replies,
            pool,
            spec,
            schedules,
            bases,
            traced,
        } = *self;
        let stop = AtomicBool::new(false);
        let snapshot_us = std::thread::scope(|scope| {
            // The monitoring client: one `stats()` every 100 ms.
            let poller = scope.spawn(|| {
                let mut times = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let t = Instant::now();
                    let st = engine.stats();
                    times.push(t.elapsed().as_secs_f64() * 1e6);
                    std::hint::black_box(st);
                    std::thread::sleep(Duration::from_millis(100));
                }
                times
            });
            let mut id = String::new();
            for w in rounds {
                for (r, rung) in spec.rungs.iter().enumerate() {
                    let (due, base) = (&schedules[r], bases[r]);
                    let lo = due.partition_point(|&d| window_of(rung, d) < w);
                    let hi = due.partition_point(|&d| window_of(rung, d) <= w);
                    let offset = (w as f64 * rung.seconds / WINDOWS as f64 * 1e9) as u64;
                    let before = engine.stats();
                    let start_ns = replies.origin.elapsed().as_nanos() as u64;
                    let start = Instant::now();
                    let mut i = lo;
                    while i < hi {
                        let now = start.elapsed().as_nanos() as u64 + offset;
                        if due[i] > now {
                            std::thread::sleep(Duration::from_nanos(due[i] - now));
                            continue;
                        }
                        while i < hi && due[i] <= now {
                            id.clear();
                            id.push_str(&(base + i).to_string());
                            tally.due_abs[r][i] = start_ns + due[i] - offset;
                            let row = pool.row((base + i) % pool.rows());
                            let t = Instant::now();
                            tally.lag_ms.push(
                                (t.duration_since(start).as_nanos() + offset as u128)
                                    .saturating_sub(due[i] as u128)
                                    as f64
                                    / 1e6,
                            );
                            tally.shed[r][i] = engine.submit(&id, row).is_err();
                            if traced {
                                tally.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
                            }
                            i += 1;
                        }
                    }
                    // Drain: every admitted request must reply within a grace period.
                    let ids: Vec<usize> = (lo..hi)
                        .filter(|&k| !tally.shed[r][k])
                        .map(|k| base + k)
                        .collect();
                    let grace = Duration::from_secs_f64((spec.limit_ms * 4.0 / 1e3).max(2.0));
                    wait_replies(replies, &ids, grace);
                    let drained_ns = replies.origin.elapsed().as_nanos() as u64;
                    let after = engine.stats();
                    tally.busy_s[r] +=
                        ((drained_ns - start_ns) as f64 / 1e9).max(rung.seconds / WINDOWS as f64);
                    tally.batches[r] += after.batches - before.batches;
                    tally.served[r] += after.served - before.served;
                }
            }
            stop.store(true, Ordering::Relaxed);
            poller.join().expect("stats poller exits cleanly")
        });
        if traced {
            tally.snapshot_us.extend(snapshot_us);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(reply_rps: f64, miss_share: f64) -> RungResult {
        RungResult {
            reply_rps,
            miss_share,
            passes: miss_share <= MISS_SHARE,
            ..RungResult::default()
        }
    }

    #[test]
    fn max_rate_interpolates_the_miss_share_crossing() {
        let mut out = ServeOutcome {
            rungs: vec![rung(1000.0, 0.0), rung(1900.0, 0.05)],
            ..ServeOutcome::default()
        };
        // 1% is a fifth of the way from 0 to 5% misses.
        assert!((out.max_rate_rps() - 1180.0).abs() < 1e-9);
        // A backlog at the next rung gives no credit towards it.
        out.rungs[1].missing = 1;
        assert_eq!(out.max_rate_rps(), 1000.0);
        // Every rung passes: the top rung's reply rate; none passes: 0.
        out.rungs = vec![rung(1000.0, 0.0), rung(1900.0, 0.002)];
        assert_eq!(out.max_rate_rps(), 1900.0);
        out.rungs = vec![rung(1000.0, 0.2)];
        assert_eq!(out.max_rate_rps(), 0.0);
    }
}
