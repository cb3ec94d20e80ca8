//! A fixed-size, log-bucketed histogram for latency samples.
//!
//! Long-running services record one sample per request forever, so keeping
//! the samples themselves is an unbounded leak. [`LatencyHistogram`] keeps
//! counts in a fixed array of buckets instead: recording is an increment
//! that never allocates, and the whole histogram is one inline array, so
//! its size does not depend on how many samples it has seen.
//!
//! Buckets follow the usual log-linear layout: values below
//! `2^SUB_BITS` get one bucket each (exact), and every power-of-two range
//! `[2^e, 2^(e+1))` above is split into `2^SUB_BITS` equal buckets of width
//! `2^(e - SUB_BITS)`. A percentile reports the midpoint of the bucket that
//! holds the nearest-rank sample, so it is within
//! [`LatencyHistogram::RELATIVE_ERROR`] (`2^-(SUB_BITS+1)` = 1/64, about
//! 1.6%) of that sample, over the whole `u64` range.

/// Sub-buckets per power of two, as a bit count.
const SUB_BITS: u32 = 5;
/// Sub-buckets per power of two.
const SUB: usize = 1 << SUB_BITS;
/// Total buckets: the exact values `0..SUB`, then `SUB` buckets for each
/// power of two from `2^SUB_BITS` to `2^63`.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A bounded, log-bucketed histogram of `u64` samples (see module docs).
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .finish()
    }
}

impl LatencyHistogram {
    /// Largest relative error of a reported percentile against the exact
    /// nearest-rank sample: half a bucket width over the bucket's lower
    /// bound, `2^-(SUB_BITS+1)`. Values below 32 are exact.
    pub const RELATIVE_ERROR: f64 = 1.0 / (2 * SUB) as f64;

    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            total: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile, `p` in `[0, 100]`: the midpoint of the
    /// bucket holding the `⌈p/100 · count⌉`-th smallest sample (at least
    /// the first), within [`Self::RELATIVE_ERROR`] of that sample. Returns
    /// 0 for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.total as f64).ceil() as u64;
        let rank = rank.clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lower, width) = bucket_bounds(b);
                return lower + (width - 1) / 2;
            }
        }
        unreachable!("bucket counts sum to the sample total")
    }
}

/// The bucket a value falls in.
fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros();
    let shift = e - SUB_BITS;
    let sub = (v >> shift) as usize - SUB;
    SUB + shift as usize * SUB + sub
}

/// `(lowest value, width)` of bucket `b`.
fn bucket_bounds(b: usize) -> (u64, u64) {
    if b < SUB {
        return (b as u64, 1);
    }
    let shift = (b - SUB) / SUB;
    let sub = (b - SUB) % SUB;
    (((SUB + sub) as u64) << shift, 1 << shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        assert_eq!(LatencyHistogram::new().percentile(50.0), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 1..=20 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), 10);
        assert_eq!(h.percentile(100.0), 20);
        assert_eq!(h.percentile(0.0), 1);
    }

    #[test]
    fn buckets_tile_the_u64_range() {
        // Every bucket starts where the previous one ends, and the last
        // ends at u64::MAX.
        let mut next = 0_u64;
        for b in 0..BUCKETS {
            let (lower, width) = bucket_bounds(b);
            assert_eq!(lower, next, "bucket {b}");
            assert_eq!(bucket_of(lower), b);
            assert_eq!(bucket_of(lower + (width - 1)), b);
            next = lower.wrapping_add(width);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    #[test]
    fn a_million_samples_keep_size_and_bound() {
        let mut h = LatencyHistogram::new();
        let size = std::mem::size_of_val(&h);
        // Latency-like samples: 1 us to ~1 s, heavy-tailed.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut samples = Vec::with_capacity(1_000_000);
        for _ in 0..1_000_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64;
            let v = (1.0 / (1.0 - u * 0.999_999)).powf(1.5) as u64;
            samples.push(v);
            h.record(v);
        }
        assert_eq!(std::mem::size_of_val(&h), size);
        assert_eq!(h.count(), 1_000_000);
        samples.sort_unstable();
        for p in [50.0, 90.0, 99.0, 99.9, 100.0] {
            let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
            let exact = samples[rank.clamp(1, samples.len()) - 1] as f64;
            let got = h.percentile(p) as f64;
            assert!(
                (got - exact).abs() <= exact * LatencyHistogram::RELATIVE_ERROR,
                "p{p}: {got} vs exact {exact}"
            );
        }
    }
}
