//! Property suite for the vectorized transcendental layer: enforces the
//! documented relative-error bound of `vmath` — **≤ 4 ULP for f32, ≤ 8 ULP
//! for f64** — against a correctly-rounded reference (libm evaluated one
//! precision up for f32; libm itself for f64, whose own sub-ULP error the
//! bound absorbs). Coverage deliberately includes the regions a sampling
//! test misses: the gradual-underflow band where results are subnormal,
//! the exact underflow-to-zero range past it, the overflow boundary,
//! NaN/±inf propagation, and lane-remainder tails (slice lengths that are
//! not a multiple of `LANES`).
//!
//! The CI precision matrix runs this suite once per precision leg; each
//! leg exercises the compute width that precision actually runs profiles
//! at (`f64` for the f64 leg, `f32` for the f32/mixed/bf16 legs), the
//! same mapping the assembly-parity suite uses.

use ep2_linalg::vmath::{precise_math, VMath};

/// Which compute width this CI leg exercises: honours `EP2_TEST_PRECISION`
/// like the assembly-parity suite (mixed and bf16 profiles run at f32
/// compute width); unset runs everything.
fn leg_selected(compute: &str) -> bool {
    match std::env::var("EP2_TEST_PRECISION") {
        Err(_) => true,
        Ok(p) => match p.as_str() {
            "f64" => compute == "f64",
            "f32" | "mixed" | "bf16" => compute == "f32",
            other => panic!("unknown EP2_TEST_PRECISION {other:?}"),
        },
    }
}

/// ULP distance between two nonnegative (or NaN) floats via the ordered
/// bit encoding — exp never returns a negative, so the bit patterns of
/// `0 ≤ a ≤ +inf` are already monotone.
fn ulp_f32(a: f32, b: f32) -> u64 {
    assert!(!a.is_nan() && !b.is_nan());
    assert!(a.is_sign_positive() && b.is_sign_positive(), "{a} {b}");
    (i64::from(a.to_bits()) - i64::from(b.to_bits())).unsigned_abs()
}

fn ulp_f64(a: f64, b: f64) -> u64 {
    assert!(!a.is_nan() && !b.is_nan());
    assert!(a.is_sign_positive() && b.is_sign_positive(), "{a} {b}");
    (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
}

fn check_f32(x: f32) {
    let got = x.exp_lane();
    let reference = (f64::from(x)).exp() as f32;
    let d = ulp_f32(got, reference);
    assert!(
        d <= 4,
        "exp_lane({x:e}) = {got:e} is {d} ULP from reference {reference:e}"
    );
}

fn check_f64(x: f64) {
    let got = x.exp_lane();
    let reference = x.exp();
    let d = ulp_f64(got, reference);
    assert!(
        d <= 8,
        "exp_lane({x:e}) = {got:e} is {d} ULP from reference {reference:e}"
    );
}

/// Deterministic LCG over u64 (PCG multiplier) — no rand dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }
}

#[test]
fn f32_ulp_bound_over_full_range() {
    if !leg_selected("f32") {
        return;
    }
    // Dense grid across the whole interesting domain (both clamp bounds
    // sit inside it), then random samples over every finite f32 — inputs
    // past the domain collapse to exactly-0 / +inf on both sides.
    let (lo, hi) = (-110.0f64, 95.0f64);
    let steps = 400_000;
    for i in 0..=steps {
        check_f32((lo + (hi - lo) * i as f64 / steps as f64) as f32);
    }
    let mut rng = Lcg(0x9e37_79b9_7f4a_7c15);
    let mut tested = 0;
    while tested < 200_000 {
        let x = f32::from_bits(rng.next() as u32);
        if x.is_nan() {
            continue;
        }
        check_f32(x);
        tested += 1;
    }
}

#[test]
fn f64_ulp_bound_over_full_range() {
    if !leg_selected("f64") {
        return;
    }
    let (lo, hi) = (-750.0f64, 715.0f64);
    let steps = 400_000;
    for i in 0..=steps {
        check_f64(lo + (hi - lo) * i as f64 / steps as f64);
    }
    let mut rng = Lcg(0x2545_f491_4f6c_dd1d);
    let mut tested = 0;
    while tested < 200_000 {
        let x = f64::from_bits(rng.next());
        if x.is_nan() {
            continue;
        }
        check_f64(x);
        tested += 1;
    }
}

#[test]
fn f32_subnormal_outputs_and_exact_underflow() {
    if !leg_selected("f32") {
        return;
    }
    // Gradual underflow: exp(x) is subnormal for x in ~(-103.97, -87.34).
    // The ULP bound must hold right through it (these are the values the
    // split 2^k scaling exists for).
    let mut rng = Lcg(0xd1b5_4a32_d192_ed03);
    let mut saw_subnormal = 0u32;
    for _ in 0..200_000 {
        let x = rng.uniform(-104.5, -87.0) as f32;
        check_f32(x);
        if x.exp_lane().is_subnormal() {
            saw_subnormal += 1;
        }
    }
    assert!(saw_subnormal > 100_000, "sweep missed the subnormal band");
    // Past the band the result is exactly +0, not a stray subnormal.
    for x in [
        -104.0f32,
        -120.0,
        -1e4,
        -3.4e38,
        f32::MIN,
        f32::NEG_INFINITY,
    ] {
        let v = x.exp_lane();
        assert_eq!(v.to_bits(), 0.0f32.to_bits(), "exp_lane({x:e}) = {v:e}");
    }
}

#[test]
fn f64_subnormal_outputs_and_exact_underflow() {
    if !leg_selected("f64") {
        return;
    }
    // exp(x) is subnormal for x in ~(-745.13, -708.40).
    let mut rng = Lcg(0x853c_49e6_748f_ea9b);
    let mut saw_subnormal = 0u32;
    for _ in 0..200_000 {
        let x = rng.uniform(-745.8, -708.0);
        check_f64(x);
        if x.exp_lane().is_subnormal() {
            saw_subnormal += 1;
        }
    }
    assert!(saw_subnormal > 100_000, "sweep missed the subnormal band");
    for x in [-745.2f64, -800.0, -1e6, -1e300, f64::MIN, f64::NEG_INFINITY] {
        let v = x.exp_lane();
        assert_eq!(v.to_bits(), 0.0f64.to_bits(), "exp_lane({x:e}) = {v:e}");
    }
}

#[test]
fn specials_propagate() {
    if leg_selected("f32") {
        assert!(f32::NAN.exp_lane().is_nan());
        assert!((-f32::NAN).exp_lane().is_nan());
        assert_eq!(f32::INFINITY.exp_lane(), f32::INFINITY);
        assert_eq!(f32::NEG_INFINITY.exp_lane().to_bits(), 0);
        assert_eq!(0.0f32.exp_lane().to_bits(), 1.0f32.to_bits());
        assert_eq!((-0.0f32).exp_lane().to_bits(), 1.0f32.to_bits());
        // Overflow boundary: ln(f32::MAX) ≈ 88.7228; one step past it is inf.
        assert_eq!(89.0f32.exp_lane(), f32::INFINITY);
        assert!(88.5f32.exp_lane().is_finite());
    }
    if leg_selected("f64") {
        assert!(f64::NAN.exp_lane().is_nan());
        assert_eq!(f64::INFINITY.exp_lane(), f64::INFINITY);
        assert_eq!(f64::NEG_INFINITY.exp_lane().to_bits(), 0);
        assert_eq!(0.0f64.exp_lane().to_bits(), 1.0f64.to_bits());
        assert_eq!((-0.0f64).exp_lane().to_bits(), 1.0f64.to_bits());
        // Overflow boundary: ln(f64::MAX) ≈ 709.7827.
        assert_eq!(710.0f64.exp_lane(), f64::INFINITY);
        assert!(709.5f64.exp_lane().is_finite());
    }
}

/// Batched `vexp` must be bitwise independent of slice segmentation —
/// including remainder tails shorter than `LANES` — and must match the
/// per-lane kernel exactly (which is what makes the assembly's batched
/// profile pass agree bit for bit with the per-entry profile, however the
/// pass chunks its output).
fn tails_for<T: VMath + std::fmt::Debug>(values: impl Fn(usize) -> T) {
    let bits = |v: T| v.to_f64().to_bits();
    let max = 2 * T::LANES + 3;
    for len in 1..=max {
        let xs: Vec<T> = (0..len).map(&values).collect();
        let mut batched = xs.clone();
        T::vexp(&mut batched);
        for (i, (&b, &x)) in batched.iter().zip(&xs).enumerate() {
            // One-element slices take the remainder-tail path by
            // construction, so this pins batch == tail == scalar.
            let mut one = [x];
            T::vexp(&mut one);
            assert_eq!(bits(b), bits(one[0]), "len {len} lane {i}");
            if !precise_math() {
                assert_eq!(bits(b), bits(x.exp_lane()), "len {len} lane {i}");
            }
        }
    }
}

#[test]
fn vexp_tails_are_segmentation_independent() {
    if leg_selected("f32") {
        tails_for(|i| -0.83f32 * i as f32 + 0.11);
    }
    if leg_selected("f64") {
        tails_for(|i| -0.83f64 * i as f64 + 0.11);
    }
}

#[test]
fn vsqrt_is_bitwise_libm() {
    // Hardware sqrt is correctly rounded, so the batched path must agree
    // with libm exactly — subnormals, zero, and inf included.
    if leg_selected("f32") {
        let mut rng = Lcg(0xda3e_39cb_94b9_5bdb);
        let mut xs: Vec<f32> = (0..4099)
            .map(|_| f32::from_bits((rng.next() as u32) & 0x7fff_ffff))
            .filter(|x| !x.is_nan())
            .collect();
        xs.extend_from_slice(&[0.0, 1.0e-44, f32::MIN_POSITIVE, f32::MAX, f32::INFINITY]);
        let mut batched = xs.clone();
        f32::vsqrt(&mut batched);
        for (b, x) in batched.iter().zip(&xs) {
            assert_eq!(b.to_bits(), x.sqrt().to_bits(), "sqrt({x:e})");
        }
    }
    if leg_selected("f64") {
        let mut rng = Lcg(0x1234_5678_9abc_def1);
        let mut xs: Vec<f64> = (0..4099)
            .map(|_| f64::from_bits(rng.next() & 0x7fff_ffff_ffff_ffff))
            .filter(|x| !x.is_nan())
            .collect();
        xs.extend_from_slice(&[0.0, 5.0e-324, f64::MIN_POSITIVE, f64::MAX, f64::INFINITY]);
        let mut batched = xs.clone();
        f64::vsqrt(&mut batched);
        for (b, x) in batched.iter().zip(&xs) {
            assert_eq!(b.to_bits(), x.sqrt().to_bits(), "sqrt({x:e})");
        }
    }
}
