//! Lane-batched vectorized transcendentals for the radial-profile hot path.
//!
//! Kernel assembly is one GEMM followed by one pass of the radial profile
//! `g(d²)` over its output, and that pass's cost is its transcendental
//! tail — one `exp` per output entry: the packed GEMM runs a full vector
//! register wide while libm's `exp` runs one lane at a time behind a call. This module closes that gap with the same
//! trick the GEMM microkernels use: branch-free scalar kernels over
//! fixed-width chunks that LLVM autovectorizes on stable Rust (no
//! intrinsics), under the `-C target-cpu=native` build the workspace
//! already requires for the FMA microkernels.
//!
//! # Algorithm
//!
//! [`VMath::exp_lane`] is the classic Cody–Waite reduction plus a short
//! polynomial, arranged so every step is a select/FMA the vectorizer can
//! lower per lane:
//!
//! 1. **Clamp** `x` to the precision's exactly-representable range
//!    (`[-104, 89]` for f32, `[-745.2, 709.9]` for f64). Inputs at or past
//!    the bounds already round to `0` / `+inf`, and the clamp makes the
//!    later `2^k` scaling exact: `-inf -> 0` and `+inf -> +inf` fall out
//!    without branches.
//! 2. **Round** `k = rn(x·log₂e)` with the magic-number shift
//!    (`1.5·2^23` / `1.5·2^52`) — round-to-nearest-even without `round()`.
//! 3. **Reduce** `r = x − k·ln2` in two FMA steps against a hi/lo split of
//!    `ln 2`, leaving `|r| ≤ ln2/2` with the split's extra bits of
//!    accuracy.
//! 4. **Approximate** `e^r`: the Cephes single-precision minimax
//!    polynomial (degree 5 in the quadratic term) for f32; the Cephes
//!    double-precision 2/3 Padé form for f64.
//! 5. **Scale** by `2^k` in two exact power-of-two factors
//!    `2^⌊k/2⌋ · 2^⌈k/2⌉` built from raw exponent bits, so both factors
//!    stay normal and the only extra rounding is the final one — which is
//!    also what makes gradual underflow into subnormals (and the exact
//!    underflow to `0` past them) come out right.
//! 6. **Restore NaN**: the clamp in step 1 swallows NaN (Rust's `min`/
//!    `max` return the non-NaN operand), so a final per-lane select puts
//!    the input NaN back through.
//!
//! # Error bound
//!
//! Measured against a correctly-rounded reference (libm evaluated two
//! precisions up), the relative error is **≤ 4 ULP for f32 and ≤ 8 ULP
//! for f64** over the full finite range — in practice ≤ 2–3 ULP; the
//! bound is enforced, edge cases and lane-remainder tails included, by
//! the `vmath_ulp` property suite, which the CI precision matrix runs per
//! precision leg. `sqrt` needs no polynomial: hardware vector `sqrt` is
//! correctly rounded (0.5 ULP), so [`VMath::vsqrt`] is a plain loop.
//!
//! # The `EP2_PRECISE_MATH` escape hatch
//!
//! Setting `EP2_PRECISE_MATH=1` routes [`VMath::exp1`] and [`VMath::vexp`]
//! to libm for A/B debugging of the polynomial path. The switch is read
//! once per process and reaches the batched and the per-entry profile
//! alike, so the bit-for-bit `assembly_parity` contract holds in either
//! mode.

use crate::scalar::Scalar;
use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state cache of the `EP2_PRECISE_MATH` probe: 0 = unread,
/// 1 = fast (polynomial), 2 = precise (libm).
static MODE: AtomicU8 = AtomicU8::new(0);

/// Whether profile transcendentals run through libm (`EP2_PRECISE_MATH=1`)
/// instead of the vectorized polynomial path. Read from the environment
/// once per process; [`set_precise_math`] overrides it.
#[inline]
pub fn precise_math() -> bool {
    match MODE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => {
            let precise = std::env::var("EP2_PRECISE_MATH")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false);
            MODE.store(if precise { 2 } else { 1 }, Ordering::Relaxed);
            precise
        }
    }
}

/// Overrides the `EP2_PRECISE_MATH` probe for the rest of the process —
/// the A/B hook `hot_paths` uses to time the scalar-libm leg against the
/// vectorized leg in one run. Process-global: don't toggle it from
/// concurrently-running tests.
pub fn set_precise_math(precise: bool) {
    MODE.store(if precise { 2 } else { 1 }, Ordering::Relaxed);
}

/// Chunk width (in elements) the profile paths use for their stack-local
/// staging buffers: long rows are processed `BLOCK` entries at a time, so
/// d² reassembly, the profile polynomial, and the storage narrowing each
/// run as a clean fixed-trip-count loop over one cache-resident chunk.
pub const BLOCK: usize = 64;

// ---------------------------------------------------------------------------
// f32: clamp + magic round + Cody–Waite + Cephes minimax polynomial.
// ---------------------------------------------------------------------------

/// Below every f32 `exp` result (even subnormal): exp(-104) < 2^-150.
const LO_F32: f32 = -104.0;
/// Above the f32 overflow threshold ln(MAX) ≈ 88.723.
const HI_F32: f32 = 89.0;
/// `1.5 · 2^23`: adding and subtracting shifts the integer part into the
/// significand's last place, rounding to nearest even on the way.
const SHIFT_F32: f32 = 12_582_912.0;
/// `ln 2` split hi/lo (Cephes): the hi part has 9 significand bits, so
/// `k·LN2_HI` is exact for every reachable `k`.
#[allow(clippy::excessive_precision)] // canonical Cephes digits, kept verbatim
const LN2_HI_F32: f32 = 0.693_359_375;
const LN2_LO_F32: f32 = -2.121_944_4e-4;
/// Cephes `expf` minimax coefficients for `e^r` on `[-ln2/2, ln2/2]`,
/// applied as `1 + r + r²·poly(r)` (peak theoretical error 4.2e-9).
#[allow(clippy::excessive_precision)] // canonical Cephes digits, kept verbatim
const P_F32: [f32; 6] = [
    1.987_569_2e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_55e-1,
    5.000_000_1e-1,
];

/// One f32 lane of the vectorized `exp`: exactly the arithmetic `vexp`
/// performs per element, so scalar and batched callers agree bit for bit.
// max/min (not `clamp`) keeps NaN inputs finite through the bit
// manipulation below; the final select restores the NaN payload.
#[allow(clippy::manual_clamp)]
#[inline(always)]
fn exp_lane_f32(x: f32) -> f32 {
    let xc = x.max(LO_F32).min(HI_F32);
    let kf = (xc * std::f32::consts::LOG2_E + SHIFT_F32) - SHIFT_F32;
    let k = kf as i32;
    let r = kf.mul_add(-LN2_HI_F32, xc);
    let r = kf.mul_add(-LN2_LO_F32, r);
    let mut p = P_F32[0];
    p = p.mul_add(r, P_F32[1]);
    p = p.mul_add(r, P_F32[2]);
    p = p.mul_add(r, P_F32[3]);
    p = p.mul_add(r, P_F32[4]);
    p = p.mul_add(r, P_F32[5]);
    let m = p.mul_add(r * r, r) + 1.0;
    // 2^k as two exact power-of-two factors: both exponents stay in the
    // normal range, so only the last multiply rounds (into subnormals or
    // to 0/inf when the true result lands there).
    let kh = k >> 1;
    let s1 = f32::from_bits(((kh + 127) as u32) << 23);
    let s2 = f32::from_bits((((k - kh) + 127) as u32) << 23);
    let v = (m * s1) * s2;
    if x.is_nan() {
        x
    } else {
        v
    }
}

// ---------------------------------------------------------------------------
// f64: clamp + magic round + Cody–Waite + Cephes 2/3 Padé form.
// ---------------------------------------------------------------------------

/// Below every f64 `exp` result: exp(-745.2) < 2^-1075.
const LO_F64: f64 = -745.2;
/// Above the f64 overflow threshold ln(MAX) ≈ 709.783.
const HI_F64: f64 = 709.9;
/// `1.5 · 2^52`.
const SHIFT_F64: f64 = 6_755_399_441_055_744.0;
/// `ln 2` hi/lo split (Cephes): hi has enough trailing zeros that
/// `k·LN2_HI` is exact for every reachable `k`.
const LN2_HI_F64: f64 = 6.931_457_519_531_25e-1;
const LN2_LO_F64: f64 = 1.428_606_820_309_417_2e-6;
/// Cephes `exp` Padé numerator/denominator in `r²` (relative error
/// ~2e-17 on the reduced interval): `e^r = 1 + 2·px/(qx − px)` with
/// `px = r·P(r²)`, `qx = Q(r²)`.
#[allow(clippy::excessive_precision)] // canonical Cephes digits, kept verbatim
const P_F64: [f64; 3] = [
    1.261_771_930_748_105_9e-4,
    3.029_944_077_074_419_6e-2,
    9.999_999_999_999_999_9e-1,
];
const Q_F64: [f64; 4] = [
    3.001_985_051_386_644_6e-6,
    2.524_483_403_496_841e-3,
    2.272_655_482_081_550_3e-1,
    2.0,
];

/// One f64 lane of the vectorized `exp` — see [`exp_lane_f32`].
// max/min (not `clamp`) keeps NaN inputs finite through the bit
// manipulation below; the final select restores the NaN payload.
#[allow(clippy::manual_clamp)]
#[inline(always)]
fn exp_lane_f64(x: f64) -> f64 {
    let xc = x.max(LO_F64).min(HI_F64);
    let kf = (xc * std::f64::consts::LOG2_E + SHIFT_F64) - SHIFT_F64;
    let k = kf as i64;
    let r = kf.mul_add(-LN2_HI_F64, xc);
    let r = kf.mul_add(-LN2_LO_F64, r);
    let rr = r * r;
    let px = r * P_F64[0].mul_add(rr, P_F64[1]).mul_add(rr, P_F64[2]);
    let qx = Q_F64[0]
        .mul_add(rr, Q_F64[1])
        .mul_add(rr, Q_F64[2])
        .mul_add(rr, Q_F64[3]);
    let m = 2.0f64.mul_add(px / (qx - px), 1.0);
    let kh = k >> 1;
    let s1 = f64::from_bits(((kh + 1023) as u64) << 52);
    let s2 = f64::from_bits((((k - kh) + 1023) as u64) << 52);
    let v = (m * s1) * s2;
    if x.is_nan() {
        x
    } else {
        v
    }
}

/// Lane-batched transcendentals at a GEMM compute precision (`f32`/`f64`
/// — [`Scalar::Compute`] is bounded by this trait, so every generic
/// profile path gets the vectorized kernels without extra bounds at call
/// sites; bf16 profiles run at their f32 compute width).
pub trait VMath: Scalar {
    /// Lane width the batched kernels are tuned for (one 512-bit vector:
    /// 16 f32 / 8 f64 — the same widths as the GEMM microkernel `NR`).
    const LANES: usize;

    /// The polynomial `exp` for one lane — always the vectorized-path
    /// arithmetic, never libm, regardless of `EP2_PRECISE_MATH` (the ULP
    /// suite tests this directly against a correctly-rounded reference).
    fn exp_lane(self) -> Self;

    /// In-place batched `e^x` over a slice, honouring the
    /// [`precise_math`] switch. The bulk runs in [`VMath::LANES`]-wide
    /// chunks; the remainder tail runs the identical per-lane arithmetic,
    /// so results are bitwise independent of how callers segment a row.
    fn vexp(xs: &mut [Self]);

    /// Scalar `e^x` honouring the [`precise_math`] switch — what the
    /// batched path computes for a 1-element slice, bit for bit.
    #[inline]
    fn exp1(self) -> Self {
        if precise_math() {
            self.exp()
        } else {
            self.exp_lane()
        }
    }

    /// In-place batched `√x`. Hardware vector `sqrt` is correctly rounded
    /// (identical to libm lane by lane), so there is no polynomial path or
    /// mode switch — a bare loop autovectorizes.
    #[inline]
    fn vsqrt(xs: &mut [Self]) {
        for v in xs {
            *v = v.sqrt();
        }
    }
}

impl VMath for f32 {
    const LANES: usize = 16;

    #[inline(always)]
    fn exp_lane(self) -> Self {
        exp_lane_f32(self)
    }

    fn vexp(xs: &mut [Self]) {
        if precise_math() {
            for v in xs {
                *v = v.exp();
            }
            return;
        }
        let mut chunks = xs.chunks_exact_mut(16);
        for c in &mut chunks {
            let lanes: &mut [f32; 16] = c.try_into().unwrap();
            for v in lanes {
                *v = exp_lane_f32(*v);
            }
        }
        for v in chunks.into_remainder() {
            *v = exp_lane_f32(*v);
        }
    }
}

impl VMath for f64 {
    const LANES: usize = 8;

    #[inline(always)]
    fn exp_lane(self) -> Self {
        exp_lane_f64(self)
    }

    fn vexp(xs: &mut [Self]) {
        if precise_math() {
            for v in xs {
                *v = v.exp();
            }
            return;
        }
        let mut chunks = xs.chunks_exact_mut(8);
        for c in &mut chunks {
            let lanes: &mut [f64; 8] = c.try_into().unwrap();
            for v in lanes {
                *v = exp_lane_f64(*v);
            }
        }
        for v in chunks.into_remainder() {
            *v = exp_lane_f64(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_edges() {
        assert_eq!(exp_lane_f32(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp_lane_f32(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp_lane_f32(-1000.0), 0.0);
        assert_eq!(exp_lane_f32(1000.0), f32::INFINITY);
        assert_eq!(exp_lane_f32(0.0), 1.0);
        assert!(exp_lane_f32(f32::NAN).is_nan());
    }

    #[test]
    fn f64_edges() {
        assert_eq!(exp_lane_f64(f64::NEG_INFINITY), 0.0);
        assert_eq!(exp_lane_f64(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp_lane_f64(-1e6), 0.0);
        assert_eq!(exp_lane_f64(1e6), f64::INFINITY);
        assert_eq!(exp_lane_f64(0.0), 1.0);
        assert!(exp_lane_f64(f64::NAN).is_nan());
    }

    #[test]
    fn batch_matches_scalar_lane_with_tails() {
        // Any segmentation — including non-multiple-of-LANE tails — must
        // reproduce the per-lane arithmetic bit for bit.
        for len in [1usize, 7, 8, 9, 15, 16, 17, 33] {
            let xs: Vec<f64> = (0..len).map(|i| -0.37 * i as f64).collect();
            let mut batched = xs.clone();
            f64::vexp(&mut batched);
            for (b, x) in batched.iter().zip(&xs) {
                assert_eq!(b.to_bits(), exp_lane_f64(*x).to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn close_to_libm() {
        for i in -600..600 {
            let x = i as f64 * 0.25;
            let poly = exp_lane_f64(x);
            let libm = x.exp();
            let rel = ((poly - libm) / libm).abs();
            assert!(rel < 1e-15, "x = {x}: {poly} vs {libm}");
        }
    }
}
