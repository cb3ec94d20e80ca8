//! Automatic parameter selection — Steps 1–2 of the main algorithm plus the
//! analytic optimisation parameters of Step 3.
//!
//! Given data, a kernel and a device spec, [`plan`] produces everything
//! Table 4 of the paper reports for each dataset: the saturating batch size
//! `m = m^max_G`, the Eq.-(7) truncation `q` and its Appendix-B adjustment,
//! `β(K_G)`, the analytic step size `η`, both critical batch sizes, and the
//! Appendix-C predicted acceleration.

use std::sync::Arc;

use ep2_device::cost::{self, StreamThreadPlan};
use ep2_device::{batch, Precision, ResourceSpec};
use ep2_kernels::Kernel;
use ep2_linalg::{Matrix, Scalar};

use crate::acceleration::acceleration_factor;
use crate::critical;
use crate::precond::{Preconditioner, SubsampleEigens};
use crate::CoreError;

/// Relative eigenvalue floor for the Appendix-B adjusted-`q` heuristic.
pub const ADJUST_Q_REL_FLOOR: f64 = 1e-4;

/// Number of training rows sampled when estimating `β(K_G)` (on top of the
/// subsample itself).
pub const BETA_SAMPLE: usize = 2_000;

/// Extra (off-subsample) rows in the λ₁(K_G) power-iteration probe.
pub const PROBE_EXTRAS: usize = 512;

/// Power-iteration steps for the λ₁(K_G) probe.
pub const PROBE_ITERS: usize = 24;

/// The paper's rule for the fixed coordinate block size: `s = 2·10³` when
/// `n ≤ 10⁵`, `s = 1.2·10⁴` otherwise (Section 5), clamped to `n`.
pub fn default_subsample_size(n: usize) -> usize {
    if n <= 100_000 {
        2_000.min(n)
    } else {
        12_000.min(n)
    }
}

/// Everything Step 1–3 derive analytically. All intermediate quantities are
/// public so harnesses can print the full Table-4 row.
#[derive(Debug, Clone)]
pub struct AutoParams {
    /// `m^max_G` — the batch size used for training.
    pub m: usize,
    /// `m^C_G` (capacity-saturating batch).
    pub capacity_batch: usize,
    /// `m^S_G` (memory-limited batch).
    pub memory_batch: usize,
    /// Eq.-(7) spectral truncation.
    pub q: usize,
    /// Appendix-B adjusted truncation actually used for training.
    pub adjusted_q: usize,
    /// Fixed coordinate block size `s`.
    pub s: usize,
    /// `β(K)` of the original kernel (1 for normalised radial kernels).
    pub beta: f64,
    /// `β(K_G)` of the adaptive kernel, estimated on the subsample.
    pub beta_g: f64,
    /// `λ₁(K)` (normalised; Nyström estimate `σ₁/s`).
    pub lambda1: f64,
    /// `λ₁(K_G) = σ_{q+1}/s` for the *adjusted* `q`.
    pub lambda1_g: f64,
    /// `m*(k) = β/λ₁` — original critical batch size.
    pub m_star: f64,
    /// `m*(k_G) = β_G/λ₁(K_G)` — adaptive critical batch size.
    pub m_star_g: f64,
    /// Analytic step size `η = m/(β_G + (m−1)λ₁(K_G))`.
    pub eta: f64,
    /// Appendix-C predicted acceleration of `k_G` over `k`.
    pub acceleration: f64,
    /// The runtime's resolved thread budget (`EP2_THREADS`, the deprecated
    /// `EP2_NUM_THREADS` alias, or the available CPUs) the plan was made
    /// under — every hot path of the run is accountable to it.
    pub threads: usize,
    /// Streamed runs only: how the budget splits between tile-assembly
    /// producers and the update GEMM (the `device::cost` overlap model's
    /// partition, threaded down to the stream engine).
    pub stream_threads: Option<StreamThreadPlan>,
}

/// Runs Steps 1–2 and derives Step 3's optimisation parameters.
///
/// `s_override` / `q_override` replace the defaults (paper-rule `s`,
/// adjusted Eq.-(7) `q`); `m_override` replaces `m^max_G` (used by the
/// batch-size-sweep figures). `precision` feeds Step 1's memory accounting
/// (`ResourceSpec::memory_slots`): under `Precision::F32`/`Mixed` the
/// memory-limited batch is the paper's f32 value, under `Precision::F64`
/// every resident element costs two reference slots. Bulk numeric work
/// (kernel assembly, eigenvector storage, β/λ probes) runs in `S`; all
/// reported parameters are `f64` (spectral scalars).
///
/// Returns the parameter record and the fitted [`Preconditioner`]
/// (`None` when `q == 0`, i.e. the original kernel already saturates the
/// device — Remark "no preconditioning needed").
///
/// # Errors
///
/// Propagates eigensolver and configuration failures.
// Overrides are deliberately explicit positional options: every harness
// names them at the call site, and a builder would obscure the 1:1 mapping
// onto the paper's Step-1/2 knobs.
#[allow(clippy::too_many_arguments)]
pub fn plan<S: Scalar>(
    kernel: &Arc<dyn Kernel<S>>,
    train_x: &Matrix<S>,
    n_labels: usize,
    device: &ResourceSpec,
    s_override: Option<usize>,
    q_override: Option<usize>,
    m_override: Option<usize>,
    precision: Precision,
    seed: u64,
) -> Result<(AutoParams, Option<Preconditioner<S>>), CoreError> {
    let n = train_x.rows();
    let d = train_x.cols();
    if n == 0 {
        return Err(CoreError::InvalidConfig {
            message: "training set is empty".to_string(),
        });
    }
    // Step 1: resource-saturating batch size under the chosen precision.
    let plan = batch::max_batch_with(device, n, d, n_labels, precision);
    let step1 = Step1 {
        m: m_override.unwrap_or(plan.batch).clamp(1, n),
        capacity_batch: plan.capacity_batch,
        memory_batch: plan.memory_batch,
        setup_elements: None,
    };
    plan_with_step1(kernel, train_x, s_override, q_override, step1, seed)
}

/// [`plan`] for the out-of-core (`Streamed`) residency: Step 1 is the
/// *streamed* plan (`m` and `n_tile` chosen jointly by
/// [`ep2_device::batch::max_batch_streamed`] — the in-core `m^S_G` has no
/// solution, which is why the run streams), and the Step-2 setup probes
/// are clamped so they do not *grow* the setup transients past the device
/// budget: the `λ₁(K_G)` power-iteration probe keeps its extra
/// (off-subsample) rows within [`crate::precond::probe_cap_for_elements`],
/// and the `β(K_G)` diagonal sample is capped at `budget / s` rows. The
/// `s x s` subsample eigensolve itself is Step 2's irreducible setup cost
/// and is *not* reducible here — choose `s ≲ sqrt(S_G)` when the setup
/// phase must also fit the device.
///
/// Reported parameters: `m` is the streamed batch, `capacity_batch` the
/// unshrunk `m^C_G`, and `memory_batch` is 0 — the in-core memory bound's
/// "does not fit" marker. The returned [`AutoParams::stream_threads`]
/// carries the budget partition between tile-assembly producers and the
/// update GEMM ([`cost::partition_stream_threads`] over the planned shape
/// — including the fitted `s`/`q` setup terms), with `producers_override`
/// (the `--producers` flag or the deprecated `EP2_STREAM_PRODUCERS` env
/// var) pinning the producer count; producers are clamped to the ring
/// depth minus one, the pipeline's liveness bound, and to nothing else. An
/// explicit count `p` that leaves no thread for the update on a
/// multi-thread budget (`p ≥ threads ≥ 2`) is partitioned over `p + 1`
/// threads instead, so [`StreamThreadPlan::total`] then exceeds
/// [`AutoParams::threads`]. A `splan` from
/// [`batch::max_batch_streamed_planned`] already has the `p + 1`-slot ring;
/// without an explicit count that function may have fallen back to the
/// double-buffered ring, which caps the planned producers at one.
///
/// # Errors
///
/// Propagates eigensolver and configuration failures.
// Positional options mirror `plan` 1:1 (same rationale as there).
#[allow(clippy::too_many_arguments)]
pub fn plan_streamed<S: Scalar>(
    kernel: &Arc<dyn Kernel<S>>,
    train_x: &Matrix<S>,
    n_labels: usize,
    device: &ResourceSpec,
    s_override: Option<usize>,
    q_override: Option<usize>,
    splan: &batch::StreamedBatchPlan,
    producers_override: Option<usize>,
    precision: Precision,
    seed: u64,
) -> Result<(AutoParams, Option<Preconditioner<S>>), CoreError> {
    if train_x.rows() == 0 {
        return Err(CoreError::InvalidConfig {
            message: "training set is empty".to_string(),
        });
    }
    let step1 = Step1 {
        m: splan.m,
        capacity_batch: splan.capacity_batch,
        memory_batch: 0,
        setup_elements: Some(device.memory_slots(precision)),
    };
    let (mut params, precond) =
        plan_with_step1(kernel, train_x, s_override, q_override, step1, seed)?;
    let shape = cost::ProblemShape {
        n: train_x.rows(),
        m: splan.m,
        d: train_x.cols(),
        l: n_labels,
        s: params.s,
        q: params.adjusted_q,
    };
    let max_producers = splan.tiles_in_flight.saturating_sub(1).max(1);
    let requested = producers_override.map(|p| p.clamp(1, max_producers));
    // An explicit count is honoured, not clamped to the budget: partition
    // at least `p + 1` threads so the update keeps one of its own.
    let total = match requested {
        Some(p) if params.threads > 1 => params.threads.max(p + 1),
        _ => params.threads,
    };
    let mut tp = cost::partition_stream_threads(&shape, splan.n_tile, total, requested);
    if tp.producers > max_producers {
        // The refined (s/q-aware) partition wants more producers than the
        // ring admits: re-partition with the ring bound pinned, so the
        // per-task budgets are rebalanced instead of threads going idle.
        tp = cost::partition_stream_threads(
            &shape,
            splan.n_tile,
            params.threads,
            Some(max_producers),
        );
    }
    params.stream_threads = Some(tp);
    Ok((params, precond))
}

/// The Step-1 outcome [`plan_with_step1`] starts from, however it was
/// computed (in-core `max_batch_with` or streamed `max_batch_streamed`).
struct Step1 {
    m: usize,
    capacity_batch: usize,
    memory_batch: usize,
    /// When set (streamed mode), setup transients are clamped to this many
    /// matrix elements.
    setup_elements: Option<f64>,
}

/// Step 2 plus the Step-3 analytics, shared by the in-core and streamed
/// planners.
fn plan_with_step1<S: Scalar>(
    kernel: &Arc<dyn Kernel<S>>,
    train_x: &Matrix<S>,
    s_override: Option<usize>,
    q_override: Option<usize>,
    step1: Step1,
    seed: u64,
) -> Result<(AutoParams, Option<Preconditioner<S>>), CoreError> {
    let n = train_x.rows();
    let m = step1.m;

    // Step 2: subsample eigensystem and the Eq.-(7) / adjusted q.
    let s = s_override
        .unwrap_or_else(|| default_subsample_size(n))
        .clamp(1, n);
    // Ask for a generous top block so the iterative solver (s > 2048) still
    // supports the adjusted q; the dense path returns the full spectrum.
    let top_request = q_override
        .map(|q| q + 1)
        .unwrap_or_else(|| (s / 8).max(64).min(s));
    let eig = SubsampleEigens::compute(kernel, train_x, s, top_request, seed)?;

    let beta = kernel.as_ref().of_sq_dist(S::ZERO).to_f64(); // = 1 for normalised kernels
    let lambda1 = eig.lambda(0);
    let m_star = critical::critical_batch(beta, lambda1);

    // Estimability cap: eigenpairs beyond ~s/4 cannot be reliably extracted
    // from an s-point subsample (at paper scale q ≪ s and the cap never
    // binds; at reduced scale slow-decay kernels can push Eq. (7) to q ≈ s).
    let q_cap = (s / 4).max(1).min(eig.values.len().saturating_sub(2));
    let q_eq7 = critical::select_q(&eig.values, s, m).min(q_cap);
    let adjusted_q = q_override
        .unwrap_or_else(|| critical::adjust_q(&eig.values, s, q_eq7, ADJUST_Q_REL_FLOOR))
        .min(q_cap);

    let (precond, beta_g, lambda1_g) = if adjusted_q == 0 {
        (None, beta, lambda1)
    } else {
        let p =
            Preconditioner::from_eigens_damped(eig, adjusted_q, crate::precond::DEFAULT_DAMPING)?;
        // Streamed mode: clamp the setup transients to the device budget —
        // the β sample assembles a `sample x s` feature map and the probe a
        // `probe x probe` kernel block, neither of which may exceed what
        // the streaming plan promises never to exceed.
        let beta_sample = match step1.setup_elements {
            Some(e) => BETA_SAMPLE.min(((e / s.max(1) as f64) as usize).max(1)),
            None => BETA_SAMPLE,
        };
        let beta_g = p.beta_estimate(kernel, train_x, beta_sample, seed);
        // The analytic λ₁(K_G) assumes exact Nyström eigenfunctions; the
        // power-iteration probe additionally captures estimation leakage in
        // the damped directions. The max of the two keeps the analytic step
        // size on the stable side (see Preconditioner::probe_lambda_max).
        let probe_cap = step1
            .setup_elements
            .map(crate::precond::probe_cap_for_elements)
            .unwrap_or(usize::MAX);
        let probe = (s + PROBE_EXTRAS).min(n).min(probe_cap.max(s));
        let lambda1_probed = p.probe_lambda_max(kernel, train_x, probe, PROBE_ITERS, seed);
        let lambda1_g = p.lambda1_preconditioned().max(lambda1_probed);
        (Some(p), beta_g, lambda1_g)
    };

    let m_star_g = critical::critical_batch(beta_g, lambda1_g);
    let eta = critical::optimal_step_size(m, beta_g, lambda1_g);
    let acceleration = acceleration_factor(beta, beta_g, m, m_star);

    Ok((
        AutoParams {
            m,
            capacity_batch: step1.capacity_batch,
            memory_batch: step1.memory_batch,
            q: q_eq7,
            adjusted_q,
            s,
            beta,
            beta_g,
            lambda1,
            lambda1_g,
            m_star,
            m_star_g,
            eta,
            acceleration,
            threads: ep2_runtime::current_threads(),
            stream_threads: None,
        },
        precond,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ep2_kernels::GaussianKernel;

    fn clustered_data(n: usize, d: usize, seed: u64) -> Matrix {
        // Clustered data → fast spectral decay → small m*(k).
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        Matrix::from_fn(n, d, |i, _| 2.0 * ((i % 5) as f64) + 0.2 * next())
    }

    fn kernel() -> Arc<dyn Kernel> {
        Arc::new(GaussianKernel::new(2.0))
    }

    #[test]
    fn plan_produces_consistent_parameters() {
        let x = clustered_data(400, 8, 3);
        let device = ResourceSpec::scaled_virtual_gpu();
        let (params, precond) = plan(
            &kernel(),
            &x,
            10,
            &device,
            Some(200),
            None,
            None,
            Precision::F64,
            7,
        )
        .unwrap();
        assert!(params.m >= 1 && params.m <= 400);
        assert_eq!(params.s, 200);
        assert!(params.adjusted_q >= params.q);
        assert!(params.beta_g <= params.beta + 1e-12);
        assert!(params.lambda1_g <= params.lambda1);
        assert!(params.m_star_g >= params.m_star * 0.9);
        assert!(params.eta > 0.0);
        assert!(params.acceleration >= 1.0);
        if params.adjusted_q > 0 {
            let p = precond.expect("preconditioner expected when q > 0");
            assert_eq!(p.q(), params.adjusted_q);
        }
    }

    #[test]
    fn m_star_small_for_clustered_data() {
        // The paper: "for kernels used in practice m*(k) is typically quite
        // small, less than 10".
        let x = clustered_data(300, 8, 5);
        let device = ResourceSpec::scaled_virtual_gpu();
        let (params, _) = plan(
            &kernel(),
            &x,
            10,
            &device,
            Some(150),
            None,
            None,
            Precision::F64,
            2,
        )
        .unwrap();
        assert!(params.m_star < 15.0, "m*(k) = {}", params.m_star);
        // And the adaptive kernel's critical batch reaches (≈) m.
        assert!(params.m_star_g > params.m_star);
    }

    #[test]
    fn q_override_respected() {
        let x = clustered_data(200, 6, 9);
        let device = ResourceSpec::scaled_virtual_gpu();
        let (params, precond) = plan(
            &kernel(),
            &x,
            5,
            &device,
            Some(100),
            Some(7),
            None,
            Precision::F64,
            1,
        )
        .unwrap();
        assert_eq!(params.adjusted_q, 7);
        assert_eq!(precond.unwrap().q(), 7);
    }

    #[test]
    fn m_override_respected_and_step_size_scales() {
        let x = clustered_data(200, 6, 11);
        let device = ResourceSpec::scaled_virtual_gpu();
        let (p_small, _) = plan(
            &kernel(),
            &x,
            5,
            &device,
            Some(100),
            Some(5),
            Some(4),
            Precision::F64,
            1,
        )
        .unwrap();
        let (p_big, _) = plan(
            &kernel(),
            &x,
            5,
            &device,
            Some(100),
            Some(5),
            Some(100),
            Precision::F64,
            1,
        )
        .unwrap();
        assert_eq!(p_small.m, 4);
        assert_eq!(p_big.m, 100);
        // Larger batch → larger step size (linear scaling regime; the exact
        // ratio depends on how far λ₁(K_G) sits below β_G).
        assert!(p_big.eta > p_small.eta * 2.0);
    }

    #[test]
    fn empty_data_rejected() {
        let x = Matrix::zeros(0, 3);
        let device = ResourceSpec::scaled_virtual_gpu();
        assert!(plan(
            &kernel(),
            &x,
            2,
            &device,
            None,
            None,
            None,
            Precision::F64,
            1
        )
        .is_err());
    }

    #[test]
    fn explicit_producer_count_is_honoured_at_every_budget() {
        // A 3-tile ring admits two producers. An explicit `Some(2)` runs
        // both at every budget: at budget 2 the partition grows to
        // 2 producers + 1 update thread instead of clamping to one producer.
        let x = clustered_data(400, 8, 3);
        let device = ResourceSpec::scaled_virtual_gpu();
        let splan =
            batch::max_batch_streamed(&device, 400, 8, 10, Precision::F64, 3, None).unwrap();
        for (budget, total) in [(1, 1), (2, 3), (4, 4)] {
            let (params, _) = ep2_runtime::with_budget(budget, || {
                plan_streamed(
                    &kernel(),
                    &x,
                    10,
                    &device,
                    Some(100),
                    None,
                    &splan,
                    Some(2),
                    Precision::F64,
                    7,
                )
                .unwrap()
            });
            assert_eq!(params.threads, budget);
            let tp = params.stream_threads.unwrap();
            assert_eq!(tp.producers, 2, "budget={budget}");
            assert_eq!(tp.total, total, "budget={budget}");
            assert!(tp.update_threads >= 1);
        }
    }

    #[test]
    fn default_subsample_rule_matches_paper() {
        assert_eq!(default_subsample_size(50_000), 2_000);
        assert_eq!(default_subsample_size(100_000), 2_000);
        assert_eq!(default_subsample_size(1_000_000), 12_000);
        assert_eq!(default_subsample_size(500), 500);
    }
}
