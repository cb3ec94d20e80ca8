//! Step 1 of the main algorithm: batch sizes that saturate the resource.
//!
//! The paper defines, for training data with `n` points, `d` features and
//! `l` labels:
//!
//! - `m^C_G`: the batch fully utilising parallelism, `(d + l) · m^C_G · n ≈ C_G`;
//! - `m^S_G`: the batch hitting the memory ceiling, `(d + l + m^S_G) · n ≈ S_G`;
//! - `m^max_G = min(m^C_G, m^S_G)`.
//!
//! # Out-of-core (streamed) Step 1
//!
//! When even `m = 1` over-budgets — `(d + l + 1) · n > S_G`, i.e. the
//! features themselves do not fit — the in-core bound has no solution and
//! the paper's workflow rejects the problem. [`max_batch_streamed`] instead
//! plans a *streamed* residency ([`ResidencyMode::Streamed`]): only the
//! weights (`l·n`), the staged mini-batch feature blocks (`d·m` per
//! producer, bounded by `tiles_in_flight - 1`), and a bounded ring of
//! `tiles_in_flight` kernel-block tiles — each an `m x n_tile` kernel
//! panel plus its `d x n_tile` staged feature slice — are resident at once:
//!
//! ```text
//! tif · (m + d) · n_tile  +  l·n  +  (tif − 1)·d·m  ≤  S_G / slot_factor
//! ```
//!
//! `m` and `n_tile` are chosen jointly: start from the capacity batch and
//! halve `m` until a tile of useful width fits the ring budget.

use crate::{MemoryError, Precision, ResourceSpec};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Where the training set's kernel blocks live during training.
///
/// `InCore` is the paper's Step-1 residency: features, weights, and the
/// mini-batch kernel block all resident, `(d + l + m) · n ≤ S_G`.
/// `Streamed` is the out-of-core extension: kernel blocks are produced
/// tile-by-tile into a bounded ring and consumed by the training iteration,
/// so `n` beyond the ledger becomes trainable at streaming speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResidencyMode {
    /// Everything resident (the paper's Step-1 accounting).
    InCore,
    /// Kernel blocks streamed through a bounded double-buffered tile ring.
    Streamed,
}

impl fmt::Display for ResidencyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResidencyMode::InCore => "in-core",
            ResidencyMode::Streamed => "streamed",
        })
    }
}

/// The outcome of the Step-1 calculation, including both intermediate batch
/// sizes (exposed per C-INTERMEDIATE so harnesses can report them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchPlan {
    /// `m^C_G`: batch saturating the parallel capacity.
    pub capacity_batch: usize,
    /// `m^S_G`: largest batch fitting in device memory (0 when even `m = 1`
    /// does not fit).
    pub memory_batch: usize,
    /// `m^max_G = min(m^C_G, m^S_G)`, clamped to `[1, n]`.
    pub batch: usize,
    /// `true` when the memory bound (not parallelism) is the binding
    /// constraint.
    pub memory_bound: bool,
}

/// `m^C_G` from `(d + l) · m · n ≈ C_G`, at least 1.
pub fn batch_for_capacity(spec: &ResourceSpec, n: usize, d: usize, l: usize) -> usize {
    let denom = ((d + l) as f64) * (n as f64);
    if denom <= 0.0 {
        return 1;
    }
    (spec.parallel_capacity / denom).floor().max(1.0) as usize
}

/// `m^S_G` from `(d + l + m) · n ≈ S_G`; returns 0 when the dataset itself
/// (features + weights) does not fit in device memory.
///
/// Uses the raw `memory_floats` slot count — i.e. the f32 reference
/// interpretation documented on [`ResourceSpec`]. Use
/// [`batch_for_memory_with`] to account for the training precision.
pub fn batch_for_memory(spec: &ResourceSpec, n: usize, d: usize, l: usize) -> usize {
    batch_for_memory_with(spec, n, d, l, Precision::F32)
}

/// [`batch_for_memory`] under an explicit precision policy: f64 elements
/// occupy two f32-reference slots, so `m^S_G` shrinks accordingly — and
/// dropping from f64 to f32 (or `Mixed`) doubles the memory-slot budget.
pub fn batch_for_memory_with(
    spec: &ResourceSpec,
    n: usize,
    d: usize,
    l: usize,
    precision: Precision,
) -> usize {
    if n == 0 {
        return 0;
    }
    let per_point = spec.memory_slots(precision) / (n as f64) - (d + l) as f64;
    if per_point < 1.0 {
        0
    } else {
        per_point.floor() as usize
    }
}

/// The full Step-1 plan: `m^max_G = min(m^C_G, m^S_G)` clamped to `[1, n]`,
/// at the f32 reference slot width (see [`batch_for_memory`]).
///
/// **Pre-flighting a trainer run?** `TrainConfig` defaults to
/// `Precision::F64`, whose elements cost *two* reference slots — use
/// [`max_batch_with`] with the same precision the trainer will run under,
/// or the trainer's memory ledger may reject a plan this function
/// approved.
///
/// # Panics
///
/// Panics if `n == 0` or `d + l == 0`, or if the problem cannot fit on the
/// device at all (`m^S_G == 0`) — a configuration the paper's workflow never
/// reaches because datasets are subsampled to fit.
pub fn max_batch(spec: &ResourceSpec, n: usize, d: usize, l: usize) -> BatchPlan {
    max_batch_with(spec, n, d, l, Precision::F32)
}

/// [`max_batch`] under an explicit precision policy. This is the Step-1
/// entry point the trainer uses: under `Precision::F32` (or `Mixed`) the
/// memory-limited batch `m^S_G` is what the paper's f32 GPU implementation
/// sees; under `Precision::F64` every resident element costs two reference
/// slots, so on a memory-bound device `m^max_G` roughly halves — switching
/// back to f32 doubles the computable batch for the same `ResourceSpec`.
///
/// # Panics
///
/// Same conditions as [`max_batch`].
pub fn max_batch_with(
    spec: &ResourceSpec,
    n: usize,
    d: usize,
    l: usize,
    precision: Precision,
) -> BatchPlan {
    assert!(n > 0, "max_batch: n must be positive");
    assert!(d + l > 0, "max_batch: d + l must be positive");
    let capacity_batch = batch_for_capacity(spec, n, d, l);
    let memory_batch = batch_for_memory_with(spec, n, d, l, precision);
    assert!(
        memory_batch > 0,
        "problem (n={n}, d={d}, l={l}, precision={precision}) does not fit in \
         device memory {:.3e}",
        spec.memory_slots(precision)
    );
    let batch = capacity_batch.min(memory_batch).clamp(1, n);
    BatchPlan {
        capacity_batch,
        memory_batch,
        batch,
        memory_bound: memory_batch < capacity_batch,
    }
}

/// Whether the in-core Step-1 bound has any solution: `m^S_G ≥ 1`, i.e.
/// features + weights + one kernel-block row fit the device. When this is
/// false, the only way to train is [`ResidencyMode::Streamed`].
pub fn fits_in_core(spec: &ResourceSpec, n: usize, d: usize, l: usize, p: Precision) -> bool {
    batch_for_memory_with(spec, n, d, l, p) >= 1
}

/// Narrowest kernel-block tile worth streaming: below this width the
/// per-tile fixed costs (feature-slice staging, channel hand-off, GEMM edge
/// panels) dominate the `m · n_tile · d` assembly work. Tiles are still
/// allowed to be narrower when the *dataset* is (`n_tile ≤ n` always), and
/// the joint `m`/`n_tile` shrink accepts any positive width once `m` has
/// bottomed out at 1.
pub const MIN_STREAM_TILE: usize = 64;

/// Default number of ring slots: double buffering (assembly of tile `t+1`
/// overlaps consumption of tile `t`).
pub const DEFAULT_TILES_IN_FLIGHT: usize = 2;

/// Elements resident during a streamed epoch (before the precision's
/// slot-factor): the tile ring (`tiles_in_flight` slots of an `m x n_tile`
/// kernel panel plus its `d x n_tile` staged feature slice), the weights
/// `l·n`, and up to `tiles_in_flight - 1` staged `d·m` mini-batch feature
/// blocks — one per producer, and the pipeline's liveness bound caps the
/// producer count at `tiles_in_flight - 1`, so this is the worst case the
/// engine can actually charge. At the default double-buffered ring this
/// reduces to the single batch block of the one-producer pipeline.
pub fn streamed_slots(
    n: usize,
    d: usize,
    l: usize,
    m: usize,
    n_tile: usize,
    tiles_in_flight: usize,
) -> f64 {
    let staging_blocks = tiles_in_flight.saturating_sub(1).max(1);
    (tiles_in_flight * (m + d) * n_tile) as f64 + (l * n) as f64 + (staging_blocks * d * m) as f64
}

/// The outcome of the streamed Step-1 calculation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamedBatchPlan {
    /// Mini-batch size `m` (capacity batch, possibly shrunk to fit the ring).
    pub m: usize,
    /// Kernel-block tile width (columns of the `m x n` block per tile).
    pub n_tile: usize,
    /// Ring slots charged against the ledger.
    pub tiles_in_flight: usize,
    /// `m^C_G` for reference (the unshrunk starting point).
    pub capacity_batch: usize,
    /// `true` when `m` had to shrink below `m^C_G` so a useful tile fits.
    pub memory_bound: bool,
    /// Peak elements resident under this plan (pre-slot-factor); multiply by
    /// the precision's slot factor for ledger slots.
    pub resident_elements: f64,
}

impl StreamedBatchPlan {
    /// Ledger slots this plan charges under `precision`.
    pub fn resident_slots(&self, precision: Precision) -> f64 {
        self.resident_elements * precision.slot_factor()
    }
}

/// Streamed Step 1: choose `m` and `n_tile` jointly so that
/// [`streamed_slots`] fits the device at `precision`.
///
/// Starts from `m = m^C_G` (or `m_override`, which is respected exactly)
/// and halves `m` until the leftover budget affords a tile of at least
/// [`MIN_STREAM_TILE`] columns (`m = 1` accepts any positive width). This is
/// the joint shrink: a smaller batch both narrows the ring slots (`m·n_tile`
/// each) and frees `d·m` batch-block slots, letting `n_tile` grow back.
///
/// # Errors
///
/// Returns [`MemoryError`] when no `(m, n_tile)` fits — the weights `l·n`
/// plus one minimal tile exceed the budget (streaming cannot shrink `l·n`).
///
/// # Panics
///
/// Panics if `n == 0`, `d + l == 0`, or `tiles_in_flight < 2`.
pub fn max_batch_streamed(
    spec: &ResourceSpec,
    n: usize,
    d: usize,
    l: usize,
    precision: Precision,
    tiles_in_flight: usize,
    m_override: Option<usize>,
) -> Result<StreamedBatchPlan, MemoryError> {
    assert!(n > 0, "max_batch_streamed: n must be positive");
    assert!(d + l > 0, "max_batch_streamed: d + l must be positive");
    assert!(
        tiles_in_flight >= 2,
        "streaming needs at least double buffering (tiles_in_flight >= 2)"
    );
    let budget = spec.memory_slots(precision);
    let capacity_batch = batch_for_capacity(spec, n, d, l);
    // Widest tile the leftover budget affords at batch size m (0 = none).
    // Reserves one staged `d·m` batch block per possible producer
    // (`tiles_in_flight - 1`, the liveness bound) — see `streamed_slots`.
    let staging_blocks = tiles_in_flight - 1;
    let tile_for = |m: usize| -> usize {
        let free = budget - ((l * n) as f64 + (staging_blocks * d * m) as f64);
        let per_col = (tiles_in_flight * (m + d)) as f64;
        if free < per_col {
            0
        } else {
            ((free / per_col).floor() as usize).min(n)
        }
    };
    let plan = |m: usize, n_tile: usize, memory_bound: bool| StreamedBatchPlan {
        m,
        n_tile,
        tiles_in_flight,
        capacity_batch,
        memory_bound,
        resident_elements: streamed_slots(n, d, l, m, n_tile, tiles_in_flight),
    };
    if let Some(m) = m_override {
        let m = m.clamp(1, n);
        let n_tile = tile_for(m);
        if n_tile == 0 {
            return Err(MemoryError::for_plan(
                streamed_slots(n, d, l, m, 1, tiles_in_flight) * precision.slot_factor(),
                spec.memory_floats,
            ));
        }
        return Ok(plan(m, n_tile, false));
    }
    let mut m = capacity_batch.clamp(1, n);
    let mut shrunk = false;
    loop {
        let n_tile = tile_for(m);
        if n_tile >= MIN_STREAM_TILE.min(n) || (m == 1 && n_tile >= 1) {
            return Ok(plan(m, n_tile, shrunk));
        }
        if m == 1 {
            return Err(MemoryError::for_plan(
                streamed_slots(n, d, l, 1, 1, tiles_in_flight) * precision.slot_factor(),
                spec.memory_floats,
            ));
        }
        m /= 2;
        shrunk = true;
    }
}

/// Why [`max_batch_streamed_planned`] refused to plan.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamPlanError {
    /// No `(m, n_tile)` fits the device (see [`max_batch_streamed`]).
    Memory(MemoryError),
    /// An explicit producer count's `producers + 1`-tile ring fits only at
    /// a smaller mini-batch than the double-buffered plan's: honouring the
    /// count would silently give up the Step-1 batch, and with it η.
    ProducersShrinkBatch {
        /// The explicit producer count.
        producers: usize,
        /// The batch its ring fits at.
        m: usize,
        /// The double-buffered plan's batch.
        double_buffered_m: usize,
    },
}

impl fmt::Display for StreamPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamPlanError::Memory(e) => e.fmt(f),
            StreamPlanError::ProducersShrinkBatch {
                producers,
                m,
                double_buffered_m,
            } => write!(
                f,
                "{producers} producer(s) need a {}-tile ring, which fits only at m = {m}, \
                 below the double-buffered plan's m = {double_buffered_m}; ask for fewer \
                 producers, or pin the batch to accept m = {m}",
                producers + 1
            ),
        }
    }
}

impl std::error::Error for StreamPlanError {}

impl From<MemoryError> for StreamPlanError {
    fn from(e: MemoryError) -> Self {
        StreamPlanError::Memory(e)
    }
}

/// [`max_batch_streamed`] with the ring depth chosen to fit the pipeline's
/// *planned* producer count — the single entry point `ep2 plan` and the
/// trainer share, so both always agree on the tiling.
///
/// The circularity (ring depth shapes `n_tile`; `n_tile` shapes the
/// producer plan; producers bound the ring depth) resolves in at most two
/// deterministic rounds: plan at the default double-buffered ring first,
/// partition the thread budget over the resulting tile width
/// ([`crate::cost::partition_stream_threads`] with the setup terms zeroed
/// — `s`/`q` are not known until Step 2, so this slightly overweights the
/// assembly side; the trainer's final partition includes them), and
/// re-plan with a deeper ring only when the partition actually wants more
/// producers than the ring admits. Wide tiles therefore keep the PR 3
/// double-buffered ring on any core count; only genuinely multi-producer
/// pipelines pay for extra slots. The deeper ring is only a preference:
/// when it does not fit the device, the double-buffered plan already found
/// is returned (the producer count is capped at the ring depth minus one
/// downstream). An explicit `producers_override` (CLI flag / config /
/// deprecated env var) sizes the ring to `override + 1` directly, at every
/// `total_threads` — the count is honoured, never clamped to the budget,
/// and never bought with a smaller batch: unless `m_override` pins `m`, a
/// ring that fits only at a smaller `m` than the double-buffered plan's is
/// refused.
///
/// # Errors
///
/// [`StreamPlanError::Memory`] under the same conditions as
/// [`max_batch_streamed`]; with an explicit `producers_override`, also
/// when its `override + 1`-slot ring does not fit, and
/// [`StreamPlanError::ProducersShrinkBatch`] when it fits only at a
/// smaller `m` than double buffering.
///
/// # Panics
///
/// Same conditions as [`max_batch_streamed`].
// Positional knobs mirror `max_batch_streamed` 1:1 plus the two planning
// inputs; every caller names them at the call site.
#[allow(clippy::too_many_arguments)]
pub fn max_batch_streamed_planned(
    spec: &ResourceSpec,
    n: usize,
    d: usize,
    l: usize,
    precision: Precision,
    m_override: Option<usize>,
    producers_override: Option<usize>,
    total_threads: usize,
) -> Result<StreamedBatchPlan, StreamPlanError> {
    if let Some(p) = producers_override {
        let tif = DEFAULT_TILES_IN_FLIGHT.max(p.max(1) + 1);
        let plan = max_batch_streamed(spec, n, d, l, precision, tif, m_override)?;
        if m_override.is_none() && tif > DEFAULT_TILES_IN_FLIGHT {
            let double =
                max_batch_streamed(spec, n, d, l, precision, DEFAULT_TILES_IN_FLIGHT, None)?;
            if plan.m < double.m {
                return Err(StreamPlanError::ProducersShrinkBatch {
                    producers: p,
                    m: plan.m,
                    double_buffered_m: double.m,
                });
            }
        }
        return Ok(plan);
    }
    let splan = max_batch_streamed(
        spec,
        n,
        d,
        l,
        precision,
        DEFAULT_TILES_IN_FLIGHT,
        m_override,
    )?;
    let shape = crate::cost::ProblemShape {
        n,
        m: splan.m,
        d,
        l,
        s: 0,
        q: 0,
    };
    let planned =
        crate::cost::partition_stream_threads(&shape, splan.n_tile, total_threads, None).producers;
    if planned + 1 > splan.tiles_in_flight {
        if let Ok(deeper) = max_batch_streamed(spec, n, d, l, precision, planned + 1, m_override) {
            return Ok(deeper);
        }
    }
    Ok(splan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planned_ring_depth_is_core_count_invariant_on_wide_tiles() {
        // Roomy budget → wide tiles → one planned producer at any thread
        // count: the ring must stay double-buffered regardless of cores
        // (plans — and hence m, eta, convergence — must not vary with the
        // machine the planner happens to run on).
        let spec = ResourceSpec::scaled_virtual_gpu();
        let mut plans = vec![];
        for total in [1usize, 4, 16] {
            let p = max_batch_streamed_planned(
                &spec,
                3_000,
                440,
                10,
                Precision::F64,
                None,
                None,
                total,
            )
            .unwrap();
            assert_eq!(p.tiles_in_flight, DEFAULT_TILES_IN_FLIGHT, "total={total}");
            plans.push((p.m, p.n_tile));
        }
        assert!(plans.windows(2).all(|w| w[0] == w[1]));
        // An explicit producer override sizes the ring to fit it directly.
        let p = max_batch_streamed_planned(&spec, 3_000, 440, 10, Precision::F64, None, Some(3), 4)
            .unwrap();
        assert_eq!(p.tiles_in_flight, 4);
    }

    #[test]
    fn explicit_producer_count_sizes_the_ring_at_every_budget() {
        // `Some(p)` is honoured, not clamped to `total_threads - 1`: the
        // ring holds `p + 1` tiles whatever the thread budget.
        let spec = ResourceSpec::scaled_virtual_gpu();
        for total in [1usize, 2, 3, 8] {
            let p = max_batch_streamed_planned(
                &spec,
                3_000,
                440,
                10,
                Precision::F64,
                None,
                Some(2),
                total,
            )
            .unwrap();
            assert_eq!(p.tiles_in_flight, 3, "total={total}");
        }
    }

    #[test]
    fn explicit_producer_count_that_shrinks_the_batch_is_refused() {
        // `ep2 plan --dataset mnist-like --n 2000 --sg 800000`: double
        // buffering plans m = 250; the rings of 2 and 40 producers fit
        // only at m = 125 and m = 1.
        let mut spec = ResourceSpec::scaled_virtual_gpu();
        spec.memory_floats = 800_000.0;
        let plan = |producers, m| {
            max_batch_streamed_planned(&spec, 2_000, 784, 10, Precision::F64, m, producers, 2)
        };
        assert_eq!(plan(None, None).unwrap().m, 250);
        for (p, m) in [(2, 125), (40, 1)] {
            let err = plan(Some(p), None).unwrap_err();
            assert_eq!(
                err,
                StreamPlanError::ProducersShrinkBatch {
                    producers: p,
                    m,
                    double_buffered_m: 250
                }
            );
            let msg = err.to_string();
            assert!(msg.contains(&format!("{p} producer(s)")), "{msg}");
            assert!(msg.contains(&format!("m = {m},")), "{msg}");
            assert!(msg.contains("m = 250"), "{msg}");
        }
        // A pinned batch is honoured as before: the caller chose it.
        let pinned = plan(Some(2), Some(125)).unwrap();
        assert_eq!((pinned.m, pinned.tiles_in_flight), (125, 3));
    }

    #[test]
    fn explicit_producer_count_that_keeps_the_batch_plans_as_before() {
        // `ep2 plan --dataset susy-like --n 3000 --out-of-core --producers
        // 2`: the 3-tile ring fits at the double-buffered plan's m.
        let spec = ResourceSpec::scaled_virtual_gpu();
        let planned =
            max_batch_streamed_planned(&spec, 3_000, 18, 2, Precision::F64, None, Some(2), 2)
                .unwrap();
        let double = max_batch_streamed(&spec, 3_000, 18, 2, Precision::F64, 2, None).unwrap();
        assert_eq!(planned.m, double.m);
        assert_eq!(
            planned,
            max_batch_streamed(&spec, 3_000, 18, 2, Precision::F64, 3, None).unwrap()
        );
        assert_eq!(planned.tiles_in_flight, 3);
    }

    #[test]
    fn planned_ring_falls_back_to_double_buffering_when_deeper_does_not_fit() {
        // m pinned at n = 200 leaves room for one 8-column tile pair. The
        // partition wants several producers for a tile that narrow at
        // budgets 4 and 8, but their deeper ring does not fit: the
        // double-buffered plan is kept instead of failing.
        let tiny = ResourceSpec::new("tiny-mem", 1e12, 350_000.0, 1e12, 0.0);
        for total in [4usize, 8] {
            let p = max_batch_streamed_planned(
                &tiny,
                200,
                784,
                10,
                Precision::F64,
                Some(200),
                None,
                total,
            )
            .unwrap();
            assert_eq!(p.tiles_in_flight, DEFAULT_TILES_IN_FLIGHT, "total={total}");
            assert_eq!(p.m, 200);
        }
        // An explicit count gets no such fallback: its 4-tile ring does
        // not fit, so the plan is refused.
        assert!(max_batch_streamed_planned(
            &tiny,
            200,
            784,
            10,
            Precision::F64,
            Some(200),
            Some(3),
            4
        )
        .is_err());
    }

    #[test]
    fn titan_xp_mnist_scale_matches_table4() {
        // Table 4: MNIST n = 1e6, d = 784, l = 10 gives m = 735 on Titan Xp.
        let plan = max_batch(&ResourceSpec::titan_xp(), 1_000_000, 784, 10);
        assert!(
            (700..=770).contains(&plan.batch),
            "expected ~735, got {}",
            plan.batch
        );
        assert!(!plan.memory_bound, "MNIST at 1e6 is capacity-bound");
    }

    #[test]
    fn capacity_batch_shrinks_with_n() {
        let spec = ResourceSpec::titan_xp();
        let m_small = batch_for_capacity(&spec, 10_000, 784, 10);
        let m_big = batch_for_capacity(&spec, 1_000_000, 784, 10);
        assert!(m_small > m_big);
    }

    #[test]
    fn memory_batch_zero_when_dataset_too_big() {
        let spec = ResourceSpec::new("tiny", 1e9, 1e4, 1e9, 0.0);
        assert_eq!(batch_for_memory(&spec, 1_000, 500, 10), 0);
    }

    #[test]
    fn memory_bound_flag() {
        // Device with huge capacity but tiny memory: memory is binding.
        let spec = ResourceSpec::new("mem-starved", 1e15, 2e6, 1e12, 0.0);
        let plan = max_batch(&spec, 1_000, 100, 10);
        assert!(plan.memory_bound);
        assert_eq!(plan.batch, plan.memory_batch.min(1_000));
    }

    #[test]
    fn batch_clamped_to_n() {
        // Tiny problem on a big device: m^max can't exceed n.
        let plan = max_batch(&ResourceSpec::titan_xp(), 50, 10, 2);
        assert_eq!(plan.batch, 50);
    }

    #[test]
    fn batch_at_least_one() {
        // Enormous n forces m^C below 1; clamp to 1.
        let spec = ResourceSpec::new("small-cap", 1e6, 1e12, 1e9, 0.0);
        let plan = max_batch(&spec, 10_000_000, 784, 10);
        assert_eq!(plan.batch, 1);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn unfittable_problem_panics() {
        let spec = ResourceSpec::new("tiny", 1e9, 1e4, 1e9, 0.0);
        let _ = max_batch(&spec, 1_000, 500, 10);
    }

    #[test]
    fn f32_memory_batch_at_least_doubles_f64() {
        // Memory-bound device: m^S_G(f32) = S/n − (d+l) and
        // m^S_G(f64) = S/2n − (d+l), so the f32 batch is 2·m_f64 + (d+l) —
        // at least double, with the 2x ratio exact on the slot budget.
        let spec = ResourceSpec::new("mem-starved", 1e15, 2e6, 1e12, 0.0);
        let (n, d, l) = (1_000, 100, 10);
        let m32 = max_batch_with(&spec, n, d, l, Precision::F32);
        let m64 = max_batch_with(&spec, n, d, l, Precision::F64);
        assert!(m32.memory_bound && m64.memory_bound);
        assert_eq!(m32.memory_batch, 2 * m64.memory_batch + (d + l));
        assert!(m32.memory_batch >= 2 * m64.memory_batch);
        // Mixed plans memory like f32.
        let mixed = max_batch_with(&spec, n, d, l, Precision::Mixed);
        assert_eq!(mixed.memory_batch, m32.memory_batch);
    }

    #[test]
    fn streamed_plan_fits_where_in_core_cannot() {
        // Features alone over-budget: (d + l + 1)·n = 511·10_000 > 1e6.
        let spec = ResourceSpec::new("tiny-mem", 1e12, 1e6, 1e12, 0.0);
        let (n, d, l) = (10_000, 500, 10);
        assert!(!fits_in_core(&spec, n, d, l, Precision::F32));
        let plan = max_batch_streamed(&spec, n, d, l, Precision::F32, 2, None).unwrap();
        assert!(plan.n_tile >= MIN_STREAM_TILE);
        assert!(plan.m >= 1);
        assert!(plan.resident_slots(Precision::F32) <= spec.memory_floats);
        // The formula the plan reports is the formula we documented.
        assert_eq!(
            plan.resident_elements,
            streamed_slots(n, d, l, plan.m, plan.n_tile, 2)
        );
    }

    #[test]
    fn streamed_plan_shrinks_m_jointly_with_tile() {
        // Budget so tight that the capacity batch leaves no room for a
        // MIN_STREAM_TILE-wide ring: m must shrink below m^C_G.
        let (n, d, l) = (50_000, 200, 10);
        let spec = ResourceSpec::new("strangled", 1e12, 5.5e5, 1e12, 0.0);
        let cap = batch_for_capacity(&spec, n, d, l);
        let plan = max_batch_streamed(&spec, n, d, l, Precision::F32, 2, None).unwrap();
        assert!(plan.memory_bound, "m must have shrunk");
        assert!(plan.m < cap);
        assert!(plan.n_tile >= 1);
        assert!(plan.resident_slots(Precision::F32) <= spec.memory_floats);
    }

    #[test]
    fn streamed_plan_respects_precision_slot_width() {
        let spec = ResourceSpec::new("tiny-mem", 1e12, 1e6, 1e12, 0.0);
        let (n, d, l) = (10_000, 500, 10);
        let p32 = max_batch_streamed(&spec, n, d, l, Precision::F32, 2, None).unwrap();
        let p64 = max_batch_streamed(&spec, n, d, l, Precision::F64, 2, None).unwrap();
        // Half the element budget under f64 → strictly narrower tiles
        // (or a smaller batch).
        assert!(p64.n_tile < p32.n_tile || p64.m < p32.m);
        assert!(p64.resident_slots(Precision::F64) <= spec.memory_floats);
    }

    #[test]
    fn streamed_plan_rejects_unshrinkable_weights() {
        // l·n alone exceeds the budget: no streaming plan exists.
        let spec = ResourceSpec::new("hopeless", 1e12, 1e4, 1e12, 0.0);
        let err = max_batch_streamed(&spec, 10_000, 5, 10, Precision::F32, 2, None).unwrap_err();
        assert!(err.requested > err.budget);
        assert_eq!(err.peak, 0.0);
    }

    #[test]
    fn streamed_m_override_respected_or_rejected() {
        let spec = ResourceSpec::new("tiny-mem", 1e12, 1e6, 1e12, 0.0);
        let (n, d, l) = (10_000, 500, 10);
        let plan = max_batch_streamed(&spec, n, d, l, Precision::F32, 2, Some(32)).unwrap();
        assert_eq!(plan.m, 32);
        // An absurd override cannot be shrunk away — it must error.
        assert!(max_batch_streamed(&spec, n, d, l, Precision::F32, 2, Some(n)).is_err());
    }

    #[test]
    fn residency_mode_display() {
        assert_eq!(ResidencyMode::InCore.to_string(), "in-core");
        assert_eq!(ResidencyMode::Streamed.to_string(), "streamed");
    }

    #[test]
    fn titan_xp_mnist_is_memory_bound_only_under_f64() {
        // Table-4 MNIST scale (n = 1e6, d = 784, l = 10) on the Titan Xp:
        // in the paper's f32 the problem is capacity-bound (m ≈ 735), but
        // storing everything in f64 would cross the 12 GB line first — the
        // precision knob genuinely changes Step 1's binding constraint.
        let spec = ResourceSpec::titan_xp();
        let a = max_batch_with(&spec, 1_000_000, 784, 10, Precision::F32);
        let b = max_batch_with(&spec, 1_000_000, 784, 10, Precision::F64);
        assert!(!a.memory_bound, "f32 is capacity-bound at paper scale");
        assert!(b.memory_bound, "f64 crosses the memory line first");
        assert!(b.batch < a.batch);
    }
}
