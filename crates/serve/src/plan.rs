//! Service sizing: batch cap, tiling, worker count, and latency budget
//! derived from the device spec, the memory ledger, and the cost model.

use ep2_core::PredictOptions;
use ep2_device::cost::{self, ProblemShape};
use ep2_device::{MemoryError, MemoryLedger, Precision, ResourceSpec};

/// User-tunable knobs for [`ServePlan::plan`]; `None`/default fields are
/// derived from the device.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Micro-batch row cap; derived from `C_G` and the memory plan when
    /// unset.
    pub batch_rows: Option<usize>,
    /// Admission latency budget in microseconds; defaults to a multiple of
    /// the estimated full-batch execution time.
    pub latency_budget_us: Option<u64>,
    /// Worker count; defaults to 1, which runs each batch on the whole
    /// thread budget (capped by the thread budget).
    pub workers: Option<usize>,
}

/// Default latency budget as a multiple of the estimated full-batch
/// execution time: a request may wait behind roughly four batches' worth
/// of work before the service starts shedding.
const BUDGET_BATCHES: f64 = 4.0;

/// The resolved serving plan (see module docs).
#[derive(Debug, Clone)]
pub struct ServePlan {
    /// Micro-batch row cap.
    pub batch_rows: usize,
    /// Prediction blocking/tiling the workers execute with.
    pub opts: PredictOptions,
    /// Number of batch-executing workers.
    pub workers: usize,
    /// Thread budget each worker runs its GEMMs under.
    pub worker_threads: usize,
    /// Ledger slots held for the model lifetime (centers + weights +
    /// center-norm cache), scaled by the precision's slot width.
    pub resident_slots: f64,
    /// Ledger slots of the packed panels the engine builds once and all
    /// workers share ([`KernelModel::pack`](ep2_core::KernelModel::pack)):
    /// centers and weights again, at the GEMM's compute width — f32 for a
    /// bf16 model. Charged with the resident model.
    pub packed_slots: f64,
    /// Ledger slots held per worker for its batch tile (kernel panel,
    /// staged input, output block).
    pub per_worker_slots: f64,
    /// Admission latency budget, µs.
    pub latency_budget_us: u64,
    /// Cost-model seed for the per-row execution time, µs: the admission
    /// fit's `b` until the first batch is measured.
    pub est_row_us: f64,
}

impl ServePlan {
    /// Plans a service for an `n`-center, `d`-feature, `l`-output model on
    /// `spec` at `precision`.
    ///
    /// Sizing follows the paper's Step-1 logic transposed to inference:
    /// the capacity cap is the largest batch one launch executes at full
    /// utilisation (`m` with `m·n·(d+l) ≤ C_G`), the memory cap comes from
    /// [`PredictOptions::planned`] over the slots left after the resident
    /// model, and the per-row time seed is the SGD row cost at the
    /// sustained rate. bf16 models hold half the resident slots of f32
    /// (`slot_factor = 0.5`), but their packed panels are f32-wide, so the
    /// whole footprint does not halve.
    pub fn plan(
        n: usize,
        d: usize,
        l: usize,
        spec: &ResourceSpec,
        precision: Precision,
        config: &ServeConfig,
    ) -> ServePlan {
        let slot = precision.slot_factor();
        // Resident set: centers (n·d) + weights (n·l) + center-norm cache
        // (n accumulator slots, charged at one slot each).
        let resident_slots = (n * (d + l + 1)) as f64 * slot;
        let row_ops = (n * (d + l)) as f64;
        let est_row_us = row_ops / spec.peak_flops * 1e6;

        // One worker with the whole thread budget by default: a batch of a
        // few rows costs about the time to stream the packed model once,
        // and one batch split over every thread (the column-split GEMM)
        // streams it at every core's rate, where two one-thread workers
        // each stream all of it for their own batch; a large batch splits
        // by rows either way.
        let workers = config
            .workers
            .unwrap_or(1)
            .clamp(1, ep2_runtime::configured_threads());
        let worker_threads = (ep2_runtime::configured_threads() / workers).max(1);

        // Capacity cap: the inference analogue of Step 1's m^max_G. One
        // batch of m rows is one launch of m·n·(d+l) ops (cost::sgd's
        // compute term); past C_G / (n·(d+l)) rows the launch saturates
        // and per-row latency stops improving.
        let saturating = ProblemShape {
            n,
            m: 1,
            d,
            l,
            s: 0,
            q: 0,
        };
        let row_cost = cost::sgd(&saturating).compute_ops.max(1.0);
        let capacity_rows = ((spec.parallel_capacity / row_cost) as usize).max(1);

        // Memory cap: plan the blocking out of what the resident set and
        // its packed panels leave, split across workers. The panels are
        // sized for full-width tiles here; a tiled plan pads each tile to
        // the microkernel width, a few columns per tile more, which the
        // ledger audits.
        let untiled_packed = PredictOptions::new().packed_slots(n, d, l, precision);
        let free = (spec.memory_floats - resident_slots - untiled_packed).max(0.0) / workers as f64;
        let planned = PredictOptions::planned(n, d, l, free, precision);
        let batch_rows = config
            .batch_rows
            .unwrap_or(capacity_rows)
            .clamp(1, planned.block_rows);
        let opts = PredictOptions {
            block_rows: batch_rows,
            ..planned
        };
        let per_worker_slots = opts.transient_slots(n, d, l, precision);
        let packed_slots = opts.packed_slots(n, d, l, precision);

        let latency_budget_us = config.latency_budget_us.unwrap_or_else(|| {
            let batch_us = batch_rows as f64 * est_row_us + spec.launch_overhead * 1e6;
            (BUDGET_BATCHES * batch_us).ceil().max(1.0) as u64
        });

        ServePlan {
            batch_rows,
            opts,
            workers,
            worker_threads,
            resident_slots,
            packed_slots,
            per_worker_slots,
            latency_budget_us,
            est_row_us,
        }
    }

    /// Charges the plan's full footprint — resident model with its packed
    /// panels, plus every worker's tile slots — against `ledger`, returning
    /// the RAII guards.
    ///
    /// # Errors
    ///
    /// Returns the ledger's [`MemoryError`] when the footprint does not
    /// fit, so `ep2 serve` fails loudly at startup instead of thrashing.
    pub fn charge(
        &self,
        ledger: &MemoryLedger,
    ) -> Result<Vec<ep2_device::memory::Allocation>, MemoryError> {
        let mut guards = vec![ledger.alloc(self.resident_slots + self.packed_slots)?];
        for _ in 0..self.workers {
            guards.push(ledger.alloc(self.per_worker_slots)?);
        }
        Ok(guards)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ResourceSpec {
        ResourceSpec::scaled_virtual_gpu()
    }

    #[test]
    fn batch_cap_respects_capacity_and_memory() {
        let plan = ServePlan::plan(
            10_000,
            390,
            10,
            &spec(),
            Precision::F32,
            &Default::default(),
        );
        // scaled_virtual_gpu: C_G = 4e9, n·(d+l) = 4e6 → capacity cap 1000.
        assert!(plan.batch_rows <= 1000);
        assert!(plan.batch_rows >= 1);
        let footprint = plan.resident_slots + plan.workers as f64 * plan.per_worker_slots;
        assert!(footprint <= spec().memory_floats);
    }

    #[test]
    fn bf16_halves_resident_slots() {
        let f32_plan = ServePlan::plan(5_000, 64, 4, &spec(), Precision::F32, &Default::default());
        let bf_plan = ServePlan::plan(5_000, 64, 4, &spec(), Precision::Bf16, &Default::default());
        assert_eq!(bf_plan.resident_slots, f32_plan.resident_slots / 2.0);
    }

    #[test]
    fn explicit_batch_rows_still_memory_clamped() {
        let cfg = ServeConfig {
            batch_rows: Some(1 << 30),
            ..Default::default()
        };
        let plan = ServePlan::plan(10_000, 390, 10, &spec(), Precision::F32, &cfg);
        assert!(plan.batch_rows <= plan.opts.block_rows);
        assert!(
            (plan.per_worker_slots + plan.resident_slots) * plan.workers as f64
                >= plan.per_worker_slots
        );
    }

    #[test]
    fn charge_fits_ledger_and_releases() {
        let plan = ServePlan::plan(2_000, 32, 2, &spec(), Precision::F32, &Default::default());
        let ledger = MemoryLedger::new(spec().memory_floats);
        {
            let guards = plan.charge(&ledger).unwrap();
            assert_eq!(guards.len(), plan.workers + 1);
            assert!(ledger.in_use() > 0.0);
        }
        assert_eq!(ledger.in_use(), 0.0);
    }

    #[test]
    fn latency_budget_covers_at_least_one_batch() {
        let plan = ServePlan::plan(
            10_000,
            390,
            10,
            &spec(),
            Precision::F32,
            &Default::default(),
        );
        let batch_us = plan.batch_rows as f64 * plan.est_row_us;
        assert!(plan.latency_budget_us as f64 >= batch_us);
    }
}
