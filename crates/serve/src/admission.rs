//! Admission control: shed load explicitly instead of queueing past the
//! latency budget.
//!
//! A batch of `r` rows costs about `t(r) = a + b·r`: `a` is streaming the
//! packed model from memory once, whatever the batch size, and `b` is one
//! row's compute. [`BatchCost`] fits that line online from every executed
//! batch. The controller prices the wait behind `q` queued rows as the
//! batches of at most `cap = batch_rows` rows the queue would form, shared
//! by the workers: `⌊q/cap⌋·t(cap)`, plus `t(q mod cap)` for a partial
//! batch, over `workers`. So a deep queue pays the fixed cost once per
//! batch, not once per row, and a lone row is not priced as if it were a
//! full batch.
//!
//! Before the first batch the fit is the cost model's seed (`a = 0`,
//! `b` = the SGD row cost of `ep2_device::cost` at `m = 1`); the first
//! measured batch replaces it, so a mis-calibrated device spec converges to
//! the truth instead of shedding forever (or never).

/// A rejected request: the service is over its latency budget.
///
/// Carried back to the client verbatim (the line protocol's `busy`
/// response) so callers can implement informed backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shed {
    /// Estimated wait behind the current queue, in microseconds.
    pub est_wait_us: u64,
    /// The budget that estimate exceeded, in microseconds.
    pub budget_us: u64,
}

/// Weight each earlier batch keeps when a new one is folded in: the fit
/// remembers about the last thousand batches. The batch cost is a property
/// of the host and the model, so a long memory costs little, and it keeps
/// one descheduled batch (a host stall) from swinging the slope: fitted on
/// small batches, the slope rests on a spread of a row or two.
const DECAY: f64 = 0.999;

/// Online least-squares fit of batch time against batch rows,
/// `t(r) = a + b·r`, over exponentially weighted batches (see module docs).
///
/// The fit is kept at `a, b ≥ 0`, and it stays the per-row fit `a = 0`
/// while every observed batch has had one size: one size cannot separate
/// the fixed cost from the per-row cost.
#[derive(Debug, Clone)]
pub struct BatchCost {
    /// Total weight of the observed batches (0 before the first).
    weight: f64,
    mean_rows: f64,
    mean_us: f64,
    /// Weighted sum of squared row deviations from `mean_rows`.
    rows_m2: f64,
    /// Weighted sum of row deviations times time deviations.
    cross: f64,
    a_us: f64,
    b_us: f64,
}

impl BatchCost {
    /// A fit seeded at `a = 0`, `b = seed_row_us`, until a batch is seen.
    pub(crate) fn new(seed_row_us: f64) -> Self {
        BatchCost {
            weight: 0.0,
            mean_rows: 0.0,
            mean_us: 0.0,
            rows_m2: 0.0,
            cross: 0.0,
            a_us: 0.0,
            b_us: seed_row_us.max(0.0),
        }
    }

    /// Fixed cost of one batch, µs.
    pub fn a_us(&self) -> f64 {
        self.a_us
    }

    /// Cost of one row, µs.
    pub fn b_us(&self) -> f64 {
        self.b_us
    }

    /// Predicted time of a batch of `rows` rows, µs.
    pub fn batch_us(&self, rows: usize) -> f64 {
        self.a_us + self.b_us * rows as f64
    }

    /// Folds a measured batch (`rows` rows in `elapsed_us`) into the fit.
    /// Empty batches and non-finite or negative times are ignored.
    pub(crate) fn observe(&mut self, rows: usize, elapsed_us: f64) {
        if rows == 0 || !elapsed_us.is_finite() || elapsed_us < 0.0 {
            return;
        }
        let (r, t) = (rows as f64, elapsed_us);
        // Weighted Welford update with every earlier weight decayed.
        let weight = DECAY * self.weight + 1.0;
        let dr = r - self.mean_rows;
        self.mean_rows += dr / weight;
        self.mean_us += (t - self.mean_us) / weight;
        self.rows_m2 = DECAY * self.rows_m2 + dr * (r - self.mean_rows);
        self.cross = DECAY * self.cross + dr * (t - self.mean_us);
        self.weight = weight;
        self.refit();
    }

    fn refit(&mut self) {
        let (r, t) = (self.mean_rows, self.mean_us);
        // Through the origin (a = 0): Σw·r·t / Σw·r².
        let per_row = (self.cross / self.weight + r * t) / (self.rows_m2 / self.weight + r * r);
        // One size (to rounding): the line has no second point.
        if self.rows_m2 <= 1e-12 * self.weight * r * r {
            (self.a_us, self.b_us) = (0.0, per_row);
            return;
        }
        let b = self.cross / self.rows_m2;
        let a = t - b * r;
        (self.a_us, self.b_us) = if b < 0.0 {
            (t, 0.0)
        } else if a < 0.0 {
            (0.0, per_row)
        } else {
            (a, b)
        };
    }
}

/// Latency-budget admission controller (see module docs).
#[derive(Debug, Clone)]
pub struct AdmissionController {
    budget_us: u64,
    batch_rows: usize,
    workers: usize,
    cost: BatchCost,
}

impl AdmissionController {
    /// Creates a controller with a latency budget and a cost-model seed for
    /// the per-row execution time (both in microseconds), for `workers`
    /// workers running batches of at most `batch_rows` rows (both clamped
    /// to at least 1).
    pub fn new(budget_us: u64, seed_row_us: f64, batch_rows: usize, workers: usize) -> Self {
        AdmissionController {
            budget_us,
            batch_rows: batch_rows.max(1),
            workers: workers.max(1),
            cost: BatchCost::new(seed_row_us),
        }
    }

    /// The latency budget, in microseconds.
    pub fn budget_us(&self) -> u64 {
        self.budget_us
    }

    /// The fitted batch-time model.
    pub fn cost(&self) -> &BatchCost {
        &self.cost
    }

    /// Estimated wait behind `queued_rows` rows, in microseconds: the
    /// batches they form, at most `batch_rows` rows each, over the workers.
    pub fn est_wait_us(&self, queued_rows: usize) -> u64 {
        let full = queued_rows / self.batch_rows;
        let rest = queued_rows % self.batch_rows;
        let mut busy_us = full as f64 * self.cost.batch_us(self.batch_rows);
        if rest > 0 {
            busy_us += self.cost.batch_us(rest);
        }
        (busy_us / self.workers as f64).ceil() as u64
    }

    /// Admits or sheds a request arriving behind `queued_rows` queued rows.
    ///
    /// An empty queue always admits — a service that can shed its *only*
    /// request would never recover from a pessimistic estimate.
    ///
    /// # Errors
    ///
    /// Returns [`Shed`] when the estimated wait exceeds the budget.
    pub fn admit(&self, queued_rows: usize) -> Result<(), Shed> {
        if queued_rows == 0 {
            return Ok(());
        }
        let est_wait_us = self.est_wait_us(queued_rows);
        if est_wait_us > self.budget_us {
            Err(Shed {
                est_wait_us,
                budget_us: self.budget_us,
            })
        } else {
            Ok(())
        }
    }

    /// Folds a measured batch (`rows` rows in `elapsed_us`) into the
    /// batch-time fit.
    pub fn observe_batch(&mut self, rows: usize, elapsed_us: f64) {
        self.cost.observe(rows, elapsed_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_queue_always_admits() {
        let c = AdmissionController::new(1, 1e9, 8, 1);
        assert!(c.admit(0).is_ok());
    }

    #[test]
    fn sheds_when_estimated_wait_exceeds_budget() {
        // Seeded: a = 0, b = 100 µs, one worker, room for 16 rows a batch.
        let c = AdmissionController::new(1000, 100.0, 16, 1);
        assert!(c.admit(10).is_ok()); // 1000 ≤ 1000
        let shed = c.admit(11).unwrap_err(); // 1100 > 1000
        assert_eq!(shed.est_wait_us, 1100);
        assert_eq!(shed.budget_us, 1000);
    }

    #[test]
    fn ewma_converges_toward_measured_cost() {
        let mut c = AdmissionController::new(1000, 1000.0, 64, 1);
        for _ in 0..50 {
            c.observe_batch(10, 100.0); // 10 µs/row measured
        }
        assert!(c.cost().b_us() < 11.0, "est {} µs", c.cost().b_us());
        assert!(c.admit(50).is_ok()); // ~500 µs wait under the 1000 µs budget
    }

    #[test]
    fn bogus_observations_ignored() {
        let mut c = AdmissionController::new(1000, 10.0, 8, 1);
        c.observe_batch(0, 100.0);
        c.observe_batch(10, f64::NAN);
        c.observe_batch(10, -5.0);
        assert_eq!((c.cost().a_us(), c.cost().b_us()), (0.0, 10.0));
    }

    #[test]
    fn two_term_fit_recovers_fixed_and_row_cost() {
        // Synthetic batches on t = 1300 + 190·r with ±3% deterministic
        // jitter, at the sizes a lightly loaded service forms plus a few
        // large ones.
        let mut fit = BatchCost::new(14.0);
        for i in 0..600_usize {
            let rows = match i % 10 {
                0 => 64 + i % 7,
                1 | 2 => 3,
                3..=5 => 2,
                _ => 1,
            };
            let jitter = 1.0 + 0.03 * (((i * 7919) % 201) as f64 / 100.0 - 1.0);
            fit.observe(rows, (1300.0 + 190.0 * rows as f64) * jitter);
        }
        let (a, b) = (fit.a_us(), fit.b_us());
        assert!((a / 1300.0 - 1.0).abs() < 0.05, "a = {a}");
        assert!((b / 190.0 - 1.0).abs() < 0.05, "b = {b}");
    }

    #[test]
    fn one_batch_size_keeps_the_per_row_fit() {
        let mut fit = BatchCost::new(14.0);
        assert_eq!((fit.a_us(), fit.b_us()), (0.0, 14.0), "seed");
        for us in [1400.0, 1500.0, 1300.0] {
            fit.observe(2, us);
            assert_eq!(fit.a_us(), 0.0);
        }
        assert!((fit.b_us() - 700.0).abs() < 1.0, "b = {}", fit.b_us());
        // A second size separates the fixed cost from the per-row cost.
        fit.observe(4, 1600.0);
        assert!(fit.a_us() > 0.0 && fit.b_us() < 700.0);
    }

    #[test]
    fn fit_stays_non_negative() {
        // Time falling with rows: flat at the mean, b = 0.
        let mut fit = BatchCost::new(1.0);
        fit.observe(1, 300.0);
        fit.observe(3, 100.0);
        assert_eq!(fit.b_us(), 0.0);
        assert!((fit.a_us() - 200.0).abs() < 1.0, "a = {}", fit.a_us());
        // A line through (1, 10) and (2, 110) crosses zero at r = 0.9: the
        // fit goes through the origin instead, a = 0.
        let mut fit = BatchCost::new(1.0);
        fit.observe(1, 10.0);
        fit.observe(2, 110.0);
        assert_eq!(fit.a_us(), 0.0);
        assert!(fit.b_us() > 0.0);
    }

    #[test]
    fn wait_pays_the_fixed_cost_once_per_batch() {
        // t(r) = 100 + 50·r, batches of at most 8 rows, two workers.
        let mut c = AdmissionController::new(u64::MAX, 1.0, 8, 2);
        c.observe_batch(1, 150.0);
        c.observe_batch(8, 500.0);
        // Rounded up to whole µs, so allow the one the rounding adds.
        let wait = |q: usize, want: u64| {
            let got = c.est_wait_us(q);
            assert!(got == want || got == want + 1, "{q} rows: {got} µs");
        };
        wait(1, 75); // t(1) / 2
        wait(8, 250); // t(8) / 2
        wait(9, 325); // (t(8) + t(1)) / 2
        wait(32, 1000); // 4·t(8) / 2
    }
}
