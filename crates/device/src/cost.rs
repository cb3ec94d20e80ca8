//! Table-1 cost formulas: computation and memory per iteration.
//!
//! | Method | Computation | Memory |
//! |---|---|---|
//! | Improved EigenPro | `s·m·q + n·m·(d+l)` | `s·q + n·(m+d+l)` |
//! | Original EigenPro | `n·m·q + n·m·(d+l)` | `n·q + n·(m+d+l)` |
//! | SGD               | `n·m·(d+l)`         | `n·(m+d+l)` |
//!
//! The bolded (overhead) terms in the paper are the first summands; the
//! improved iteration's overhead depends on the fixed block size `s` instead
//! of the data size `n`, which is the whole point of Section 4.

use serde::{Deserialize, Serialize};

/// Problem-shape parameters entering the Table-1 formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProblemShape {
    /// Training set size `n`.
    pub n: usize,
    /// Mini-batch size `m`.
    pub m: usize,
    /// Feature dimension `d`.
    pub d: usize,
    /// Number of labels `l`.
    pub l: usize,
    /// Fixed coordinate block (Nyström subsample) size `s`.
    pub s: usize,
    /// EigenPro spectral truncation level `q`.
    pub q: usize,
}

/// Computation (operations) and memory (matrix-element slots) for one
/// iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationCost {
    /// Operation count per iteration.
    pub compute_ops: f64,
    /// Resident memory in element slots.
    pub memory_slots: f64,
}

impl IterationCost {
    /// Overhead of `self` relative to `base`, as
    /// `(compute ratio - 1, memory ratio - 1)`.
    pub fn overhead_over(&self, base: &IterationCost) -> (f64, f64) {
        (
            self.compute_ops / base.compute_ops - 1.0,
            self.memory_slots / base.memory_slots - 1.0,
        )
    }
}

/// Cost of one standard SGD iteration (Table 1, row 3).
pub fn sgd(shape: &ProblemShape) -> IterationCost {
    let (n, m, d, l) = (
        shape.n as f64,
        shape.m as f64,
        shape.d as f64,
        shape.l as f64,
    );
    IterationCost {
        compute_ops: n * m * (d + l),
        memory_slots: n * (m + d + l),
    }
}

/// Cost of one improved (Nyström) EigenPro iteration (Table 1, row 1).
pub fn improved_eigenpro(shape: &ProblemShape) -> IterationCost {
    let base = sgd(shape);
    let (s, m, q) = (shape.s as f64, shape.m as f64, shape.q as f64);
    IterationCost {
        compute_ops: s * m * q + base.compute_ops,
        memory_slots: s * q + base.memory_slots,
    }
}

/// Cost of one original EigenPro iteration (Table 1, row 2): the
/// preconditioner lives on all `n` centers.
pub fn original_eigenpro(shape: &ProblemShape) -> IterationCost {
    let base = sgd(shape);
    let (n, m, q) = (shape.n as f64, shape.m as f64, shape.q as f64);
    IterationCost {
        compute_ops: n * m * q + base.compute_ops,
        memory_slots: n * q + base.memory_slots,
    }
}

/// Cost of one *streamed* (out-of-core) improved-EigenPro iteration: the
/// `m x n` kernel block is produced as `⌈n / n_tile⌉` tiles into a bounded
/// ring while the consumer applies the preconditioned update, so assembly
/// of tile `t+1` overlaps compute on tile `t`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamedCost {
    /// Producer-side work: kernel-block assembly, `m·n·d` ops.
    pub assembly_ops: f64,
    /// Consumer-side work: prediction accumulate + weight update +
    /// preconditioner correction, `m·n·l + s·m·q` ops.
    pub update_ops: f64,
    /// Critical-path operations once the two sides overlap:
    /// `max(assembly, update)` plus the non-overlapped pipeline fill/drain
    /// of one tile from the cheaper side.
    pub exposed_ops: f64,
    /// Resident memory in element slots (`batch::streamed_slots`).
    pub memory_slots: f64,
}

impl StreamedCost {
    /// Overlap factor: serial (in-core single-stream) operations divided by
    /// the exposed critical path — the speedup pipelining buys over running
    /// assembly and update back to back. 1.0 = no overlap benefit (one side
    /// fully dominates and the fill cost eats the rest); the ceiling is 2.0
    /// (perfectly balanced producer and consumer).
    pub fn overlap_factor(&self) -> f64 {
        (self.assembly_ops + self.update_ops) / self.exposed_ops
    }
}

/// Streamed-iteration cost model for an `n_tile`-column tiling.
///
/// The producer's per-tile work is `m·n_tile·d`, the consumer's
/// `m·n_tile·l` (plus the once-per-iteration correction `s·m·q`, attributed
/// to the consumer). With double buffering the critical path is the slower
/// side end to end, plus one tile of the faster side exposed at the pipeline
/// boundary (fill/drain).
///
/// # Panics
///
/// Panics if `n_tile == 0`.
pub fn streamed_eigenpro(shape: &ProblemShape, n_tile: usize) -> StreamedCost {
    assert!(n_tile > 0, "n_tile must be positive");
    let (n, m, d, l) = (
        shape.n as f64,
        shape.m as f64,
        shape.d as f64,
        shape.l as f64,
    );
    let (s, q) = (shape.s as f64, shape.q as f64);
    let tiles = (shape.n.div_ceil(n_tile)) as f64;
    let assembly_ops = m * n * d;
    let update_ops = m * n * l + s * m * q;
    let fill = assembly_ops.min(update_ops) / tiles;
    StreamedCost {
        assembly_ops,
        update_ops,
        exposed_ops: assembly_ops.max(update_ops) + fill,
        memory_slots: crate::batch::streamed_slots(
            shape.n,
            shape.d,
            shape.l,
            shape.m,
            n_tile,
            crate::batch::DEFAULT_TILES_IN_FLIGHT,
        ),
    }
}

/// How the streamed pipeline splits one core budget between its two sides:
/// tile-assembly producers and the consumer's update GEMM. Produced by
/// [`partition_stream_threads`] from the overlap model above; threaded from
/// `autotune::plan_streamed` through `TrainConfig` down to the stream
/// engine, so every hot path is accountable to the same budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamThreadPlan {
    /// The whole budget: the runtime's resolved thread count, or more when
    /// an explicit producer count asks for more (`autotune::plan_streamed`
    /// honours `p` producers plus the update thread past the budget).
    pub total: usize,
    /// Tile-assembly producer tasks.
    pub producers: usize,
    /// Thread-budget handle each producer runs its assembly GEMM under.
    pub producer_threads: usize,
    /// Thread-budget handle the consumer's update runs under.
    pub update_threads: usize,
}

impl StreamThreadPlan {
    /// The degenerate single-thread partition (everything budget 1; the
    /// pipeline still needs one producer task, minimally oversubscribing a
    /// one-core budget — streaming is inherently two-sided).
    pub fn serial() -> Self {
        StreamThreadPlan {
            total: 1,
            producers: 1,
            producer_threads: 1,
            update_threads: 1,
        }
    }

    /// Threads the assembly side holds in total.
    pub fn assembly_threads(&self) -> usize {
        self.producers * self.producer_threads
    }
}

/// Tile width at which one producer's internal GEMM threading stops scaling
/// (panels narrower than the packed engine's cache blocks leave workers
/// idle); below it the planner spreads the assembly budget over more
/// producers instead.
pub const REF_STREAM_TILE: usize = 256;

/// Partitions a `total`-thread budget between the streamed pipeline's
/// producers and its update side, proportionally to the overlap model's
/// `assembly_ops : update_ops` split for this shape and tiling.
///
/// `producers_override` (the `--producers` flag / deprecated
/// `EP2_STREAM_PRODUCERS` env var) pins the producer count, clamped to
/// `total - 1` so producers plus the consumer never exceed the budget (the
/// `total == 1` degenerate case keeps the override verbatim — a
/// single-thread budget cannot run a pipeline without oversubscribing, so
/// the count is the pipeline's shape there, not a thread claim); the
/// assembly budget is then divided among that many tasks. Without an
/// override, the producer count grows as tiles narrow below
/// [`REF_STREAM_TILE`] — wide tiles keep one producer whose GEMM threads
/// internally, narrow tiles spread across producers because intra-GEMM
/// scaling has nothing to chew on (the ROADMAP's "producer-count
/// autotuner").
///
/// # Panics
///
/// Panics if `n_tile == 0` (via [`streamed_eigenpro`]).
pub fn partition_stream_threads(
    shape: &ProblemShape,
    n_tile: usize,
    total: usize,
    producers_override: Option<usize>,
) -> StreamThreadPlan {
    let total = total.max(1);
    let cost = streamed_eigenpro(shape, n_tile);
    if total == 1 {
        return StreamThreadPlan {
            producers: producers_override.unwrap_or(1).max(1),
            ..StreamThreadPlan::serial()
        };
    }
    let both = (cost.assembly_ops + cost.update_ops).max(1.0);
    let share = cost.assembly_ops / both;
    let assembly = ((total as f64 * share).round() as usize).clamp(1, total - 1);
    let producers = producers_override
        .map(|p| p.clamp(1, total - 1))
        .unwrap_or_else(|| (assembly * REF_STREAM_TILE / n_tile.max(1)).clamp(1, assembly));
    let producer_threads = (assembly / producers).max(1);
    // Threads the producer split cannot use evenly go to the update side,
    // so the partition always accounts for the whole budget.
    let update_threads = total.saturating_sub(producers * producer_threads).max(1);
    StreamThreadPlan {
        total,
        producers,
        producer_threads,
        update_threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's "realistic example": n = 1e6, s = 1e4, d and m ~ 1e3,
    /// q and l ~ 1e2 gives improved-EigenPro overhead below 1% in both
    /// computation and memory.
    #[test]
    fn realistic_example_under_one_percent() {
        let shape = ProblemShape {
            n: 1_000_000,
            m: 1_000,
            d: 1_000,
            l: 100,
            s: 10_000,
            q: 100,
        };
        let (comp, mem) = improved_eigenpro(&shape).overhead_over(&sgd(&shape));
        assert!(comp < 0.01, "compute overhead {comp}");
        assert!(mem < 0.01, "memory overhead {mem}");
    }

    #[test]
    fn original_overhead_scales_with_n() {
        let small = ProblemShape {
            n: 10_000,
            m: 100,
            d: 100,
            l: 10,
            s: 2_000,
            q: 50,
        };
        let big = ProblemShape {
            n: 1_000_000,
            ..small
        };
        // Original EigenPro's *memory* overhead ratio q/(m+d+l) is constant,
        // but its absolute overhead grows linearly with n while improved
        // EigenPro's absolute overhead stays fixed.
        let orig_small = original_eigenpro(&small);
        let orig_big = original_eigenpro(&big);
        let sgd_small = sgd(&small);
        let sgd_big = sgd(&big);
        let abs_small = orig_small.memory_slots - sgd_small.memory_slots;
        let abs_big = orig_big.memory_slots - sgd_big.memory_slots;
        assert!((abs_big / abs_small - 100.0).abs() < 1e-9);
        let imp_small = improved_eigenpro(&small).memory_slots - sgd_small.memory_slots;
        let imp_big = improved_eigenpro(&big).memory_slots - sgd_big.memory_slots;
        assert_eq!(imp_small, imp_big);
    }

    #[test]
    fn improved_cheaper_than_original_when_s_below_n() {
        let shape = ProblemShape {
            n: 100_000,
            m: 500,
            d: 400,
            l: 10,
            s: 5_000,
            q: 80,
        };
        let imp = improved_eigenpro(&shape);
        let orig = original_eigenpro(&shape);
        assert!(imp.compute_ops < orig.compute_ops);
        assert!(imp.memory_slots < orig.memory_slots);
    }

    #[test]
    fn streamed_cost_overlap_bounds() {
        let shape = ProblemShape {
            n: 100_000,
            m: 500,
            d: 400,
            l: 10,
            s: 5_000,
            q: 80,
        };
        let c = streamed_eigenpro(&shape, 1024);
        // Exposed path is never shorter than the dominant side, never longer
        // than running both sides serially.
        assert!(c.exposed_ops >= c.assembly_ops.max(c.update_ops));
        assert!(c.exposed_ops <= c.assembly_ops + c.update_ops);
        let f = c.overlap_factor();
        assert!((1.0..=2.0).contains(&f), "overlap factor {f}");
        // d ≫ l here: assembly dominates, overlap hides almost all of the
        // (cheap) update, so the exposed path is close to assembly alone.
        assert!(c.exposed_ops < c.assembly_ops * 1.05);
        // Streamed residency is far below the in-core m·n kernel block.
        assert!(c.memory_slots < improved_eigenpro(&shape).memory_slots);
    }

    #[test]
    fn streamed_cost_balanced_sides_overlap_best() {
        // d == l: producer and consumer match, overlap factor → ~2.
        let shape = ProblemShape {
            n: 100_000,
            m: 256,
            d: 64,
            l: 64,
            s: 0,
            q: 0,
        };
        let c = streamed_eigenpro(&shape, 1000);
        assert!(c.overlap_factor() > 1.9, "factor {}", c.overlap_factor());
    }

    #[test]
    fn thread_partition_tracks_ops_ratio() {
        // d ≫ l: assembly dominates, so it gets most of the budget — but
        // the update side always keeps at least one thread.
        let heavy_assembly = ProblemShape {
            n: 100_000,
            m: 512,
            d: 512,
            l: 4,
            s: 2_000,
            q: 50,
        };
        let tp = partition_stream_threads(&heavy_assembly, 512, 8, None);
        assert_eq!(tp.total, 8);
        assert!(tp.assembly_threads() >= tp.update_threads);
        assert!(tp.update_threads >= 1);
        assert_eq!(tp.assembly_threads() + tp.update_threads, 8);
        // Balanced sides split roughly evenly.
        let balanced = ProblemShape {
            d: 64,
            l: 64,
            s: 0,
            q: 0,
            ..heavy_assembly
        };
        let tp = partition_stream_threads(&balanced, 512, 8, None);
        assert_eq!(tp.assembly_threads(), 4);
        assert_eq!(tp.update_threads, 4);
    }

    #[test]
    fn thread_partition_spreads_producers_on_narrow_tiles() {
        let shape = ProblemShape {
            n: 50_000,
            m: 256,
            d: 400,
            l: 10,
            s: 1_000,
            q: 40,
        };
        let wide = partition_stream_threads(&shape, 1024, 8, None);
        assert_eq!(wide.producers, 1, "wide tiles: one producer, threaded GEMM");
        assert!(wide.producer_threads > 1);
        let narrow = partition_stream_threads(&shape, 64, 8, None);
        assert!(
            narrow.producers > 1,
            "narrow tiles: spread across producers"
        );
    }

    #[test]
    fn thread_partition_honours_override_and_serial_budget() {
        let shape = ProblemShape {
            n: 10_000,
            m: 128,
            d: 100,
            l: 10,
            s: 500,
            q: 20,
        };
        let forced = partition_stream_threads(&shape, 256, 8, Some(3));
        assert_eq!(forced.producers, 3);
        assert!(forced.update_threads >= 1);
        // An override past the budget is clamped: producers + consumer
        // must never oversubscribe a multi-thread budget.
        let over = partition_stream_threads(&shape, 256, 4, Some(8));
        assert_eq!(over.producers, 3);
        assert!(over.assembly_threads() + over.update_threads <= 4);
        let serial = partition_stream_threads(&shape, 256, 1, None);
        assert_eq!(serial, StreamThreadPlan::serial());
        let serial_forced = partition_stream_threads(&shape, 256, 1, Some(2));
        assert_eq!(serial_forced.producers, 2);
        assert_eq!(serial_forced.producer_threads, 1);
    }

    #[test]
    fn sgd_formulas_exact() {
        let shape = ProblemShape {
            n: 10,
            m: 2,
            d: 3,
            l: 1,
            s: 5,
            q: 2,
        };
        let c = sgd(&shape);
        assert_eq!(c.compute_ops, 10.0 * 2.0 * 4.0);
        assert_eq!(c.memory_slots, 10.0 * (2.0 + 3.0 + 1.0));
    }
}
