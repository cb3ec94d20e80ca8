//! The [`Scalar`] abstraction: one trait that the whole numeric stack —
//! [`crate::Matrix`], [`crate::ops`], [`crate::blas`], the eigensolvers, and
//! the kernel/training crates above — is generic over.
//!
//! Three instantiations exist: `f64` (the default, used wherever numerical
//! headroom matters more than speed), `f32` (the precision the paper's GPU
//! implementation runs in — half the memory per element, so Step 1's
//! `m^max_G` doubles, and roughly double throughput on the memory-bound
//! GEMM/kernel-assembly hot paths), and [`Bf16`] (bfloat16 **storage** at a
//! quarter of f64's footprint, software-converted on stable Rust — no
//! intrinsics — with all register-tile compute widened to f32).
//!
//! Each scalar carries two associated precisions:
//!
//! - [`Scalar::Accum`], the **accumulator type** (`f64` for `f32`/`f64`,
//!   `f32` for `Bf16`): reductions whose error feeds analytic decisions —
//!   norms, QR reorthogonalisation coefficients, and the dense
//!   eigensolves behind the EigenPro preconditioner — are carried out in
//!   `Accum` precision even when the bulk data is narrower. This mirrors
//!   what well-behaved GPU kernel implementations do (narrow storage, FMA
//!   with wider accumulation where it is cheap) and is what makes the
//!   `Mixed`/`Bf16` training policies in `ep2-core` numerically faithful to
//!   `F64` for the spectral quantities while keeping the hot loops narrow.
//! - [`Scalar::Compute`], the **register-tile compute type** of the packed
//!   GEMM (`Self` for `f32`/`f64`, `f32` for `Bf16`): the blocked engine in
//!   [`crate::gemm`] packs operand panels into `Compute` arenas — widening
//!   `bf16` elements **once, at pack time** — so the microkernel's inner
//!   FMA loop always runs at full native-float speed; only the `C`
//!   write-back rounds to the storage type.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A floating-point element type for the numeric stack.
///
/// Implemented for `f32`, `f64` and [`Bf16`]. All constants enter through
/// [`Scalar::from_f64`], so generic code is written once and monomorphised
/// per precision with no runtime dispatch on the hot paths.
pub trait Scalar:
    Copy
    + Default
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum<Self>
    + Send
    + Sync
    + 'static
{
    /// Wider type used for error-sensitive accumulation (`f64` for `f32`
    /// and `f64`, `f32` for [`Bf16`]; lossless to convert into from
    /// `Self`).
    type Accum: Scalar;

    /// Register-tile compute precision of the packed GEMM: the type the
    /// blocked engine packs operand panels into and runs the microkernel's
    /// FMA loop in. `Self` for the native floats (packing is a plain copy);
    /// `f32` for [`Bf16`] (each element widens exactly once, at pack time,
    /// so the inner loop never touches a 16-bit value — though `C`, which
    /// the engine accumulates *through* across `KC` slabs, still rounds to
    /// storage once per slab; see the `crate::gemm` module docs for the
    /// resulting `ceil(k/KC)`-rounding model). Lossless to convert into
    /// from `Self`. Bounded by [`crate::vmath::VMath`] so every generic
    /// hot path can evaluate lane-batched transcendentals at compute
    /// width without repeating the bound at each call site.
    type Compute: Scalar<Compute = Self::Compute> + crate::vmath::VMath;

    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon of this precision.
    const EPSILON: Self;
    /// Short type name for reports/CLIs (`"f32"`, `"f64"`, `"bf16"`).
    const NAME: &'static str;
    /// Storage width in bytes (2, 4 or 8). (The device crate's
    /// `Precision::bytes_per_element` is the source of truth for memory
    /// accounting; this constant describes the scalar itself.)
    const BYTES: usize;

    /// Row height of this precision's register-blocked GEMM microkernel
    /// (the `MR` of a BLIS-style kernel): 6 for `f32`, 8 for `f64`. Sized
    /// empirically so the `MR x NR` accumulator tile stays in the vector
    /// register file (LLVM spills the f32 tile at 8 rows) while keeping
    /// enough independent FMA chains in flight to cover FMA latency.
    /// [`Bf16`] inherits f32's 6x16 — its packed panels *are* f32.
    const MR: usize;
    /// Column width of the microkernel tile (`NR`): 16 f32 lanes / 8 f64
    /// lanes — one 512-bit vector per accumulator row on AVX-512, two
    /// 256-bit halves on AVX2.
    const NR: usize;

    /// Converts from `f64`, rounding to this precision.
    fn from_f64(v: f64) -> Self;
    /// Converts to `f64` (lossless for every instantiation).
    fn to_f64(self) -> f64;

    /// The register-blocked GEMM microkernel:
    /// `C[0..MR, 0..NR] += alpha * Ap · Bp`.
    ///
    /// `a_panel` is a packed `MR x k` panel stored k-major
    /// (`Ap[p*MR + i] = A[i, p]`), `b_panel` a packed `k x NR` panel stored
    /// k-major (`Bp[p*NR + j] = B[p, j]`) — both already widened to
    /// [`Scalar::Compute`] by the packing pass — and the destination tile
    /// is the `MR x NR` block starting at `c[0]` with row stride `ldc`,
    /// in the storage type. Each implementation is written with literal
    /// `MR`/`NR` bounds and fixed-size accumulator arrays so the whole tile
    /// stays in vector registers and the `p` loop autovectorizes on stable
    /// Rust; the accumulator runs in `Compute` and only the `C` write-back
    /// rounds to `Self` (a no-op for the native floats).
    ///
    /// # Panics
    ///
    /// Panics if the panels are shorter than `k*MR` / `k*NR` or `c` does not
    /// cover the tile (`(MR-1)*ldc + NR` elements).
    fn microkernel(
        k: usize,
        alpha: Self,
        a_panel: &[Self::Compute],
        b_panel: &[Self::Compute],
        c: &mut [Self],
        ldc: usize,
    );

    /// Widens into the packed-GEMM compute type (lossless; identity for the
    /// native floats).
    fn compute(self) -> Self::Compute;

    /// Narrows from the compute type (rounds for [`Bf16`]; identity for the
    /// native floats).
    fn from_compute(v: Self::Compute) -> Self;

    /// Widens into the accumulator type (lossless).
    #[inline]
    fn accum(self) -> Self::Accum {
        Self::Accum::from_f64(self.to_f64())
    }

    /// Narrows from the accumulator type (rounds for `f32`).
    #[inline]
    fn from_accum(a: Self::Accum) -> Self {
        Self::from_f64(a.to_f64())
    }

    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// Natural logarithm.
    fn ln(self) -> Self;
    /// Integer power.
    fn powi(self, n: i32) -> Self;
    /// Real power.
    fn powf(self, e: Self) -> Self;
    /// Overflow-safe `sqrt(self² + other²)`.
    fn hypot(self, other: Self) -> Self;
    /// Larger of two values (NaN-propagating like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// Smaller of two values.
    fn min(self, other: Self) -> Self;
    /// Fused multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// `true` for finite values.
    fn is_finite(self) -> bool;
    /// `true` for NaN.
    fn is_nan(self) -> bool;
}

/// The shared FMA loop of every microkernel: accumulates the packed-panel
/// product `Ap · Bp` into a fixed-size `MR x NR` register tile in the
/// compute precision `C`.
///
/// Literal `MR`/`NR` bounds: the accumulator tile is a fixed-size array
/// LLVM keeps entirely in vector registers; the rank-1 update in the `p`
/// loop autovectorizes at the compute type's lane width without intrinsics.
/// The explicit `mul_add` lowers to hardware FMA (Rust never contracts
/// `a*b + c` on its own), which doubles the sustained rate; build with a
/// target that has FMA (see `.cargo/config.toml`) or it falls back to a
/// libm call.
#[inline(always)]
fn microkernel_tile<C: Scalar, const MR: usize, const NR: usize>(
    k: usize,
    a_panel: &[C],
    b_panel: &[C],
) -> [[C; NR]; MR] {
    let mut acc = [[C::ZERO; NR]; MR];
    let a_it = a_panel[..k * MR].chunks_exact(MR);
    let b_it = b_panel[..k * NR].chunks_exact(NR);
    for (a, b) in a_it.zip(b_it) {
        let a: &[C; MR] = a.try_into().unwrap();
        let b: &[C; NR] = b.try_into().unwrap();
        for i in 0..MR {
            let ai = a[i];
            let row = &mut acc[i];
            for j in 0..NR {
                row[j] = C::mul_add(ai, b[j], row[j]);
            }
        }
    }
    acc
}

macro_rules! impl_scalar {
    ($t:ty, $name:literal, $bytes:literal, $mr:literal, $nr:literal) => {
        impl Scalar for $t {
            type Accum = f64;
            type Compute = $t;

            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;
            const NAME: &'static str = $name;
            const BYTES: usize = $bytes;
            const MR: usize = $mr;
            const NR: usize = $nr;

            #[inline]
            fn from_f64(v: f64) -> Self {
                v as $t
            }

            fn microkernel(
                k: usize,
                alpha: Self,
                a_panel: &[Self],
                b_panel: &[Self],
                c: &mut [Self],
                ldc: usize,
            ) {
                let acc = microkernel_tile::<$t, $mr, $nr>(k, a_panel, b_panel);
                for (i, row) in acc.iter().enumerate() {
                    let c_row = &mut c[i * ldc..i * ldc + $nr];
                    for j in 0..$nr {
                        c_row[j] += alpha * row[j];
                    }
                }
            }

            #[inline]
            fn compute(self) -> Self {
                self
            }

            #[inline]
            fn from_compute(v: Self) -> Self {
                v
            }

            #[inline]
            fn to_f64(self) -> f64 {
                self as f64
            }

            #[inline]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }

            #[inline]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }

            #[inline]
            fn exp(self) -> Self {
                <$t>::exp(self)
            }

            #[inline]
            fn ln(self) -> Self {
                <$t>::ln(self)
            }

            #[inline]
            fn powi(self, n: i32) -> Self {
                <$t>::powi(self, n)
            }

            #[inline]
            fn powf(self, e: Self) -> Self {
                <$t>::powf(self, e)
            }

            #[inline]
            fn hypot(self, other: Self) -> Self {
                <$t>::hypot(self, other)
            }

            #[inline]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }

            #[inline]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }

            #[inline]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }

            #[inline]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }

            #[inline]
            fn is_nan(self) -> bool {
                <$t>::is_nan(self)
            }
        }
    };
}

impl_scalar!(f32, "f32", 4, 6, 16);
impl_scalar!(f64, "f64", 8, 8, 8);

/// bfloat16: the upper 16 bits of an IEEE-754 `f32` (1 sign, 8 exponent,
/// 7 mantissa bits) — f32's full range at a quarter of f64's storage.
///
/// This is a **storage** type, software-converted on stable Rust (a `u16`
/// newtype with shift/round bit tricks — no unstable intrinsics, no
/// hardware bf16 requirement). Arithmetic round-trips through `f32`
/// (`to_f32` is a lossless shift; `from_f32` rounds to nearest-even, the
/// IEEE default), so every `Scalar` operation is correctly rounded to bf16.
/// The hot paths never do bf16-by-bf16 arithmetic element-wise: the packed
/// GEMM widens panels to `f32` at pack time ([`Scalar::Compute`]) and
/// error-sensitive reductions accumulate in `f32` ([`Scalar::Accum`]),
/// so bf16 buys `2x` the resident elements per memory slot at f32 compute
/// speed, at the cost of `2^-8` relative rounding per *stored* value —
/// including the GEMM output, which re-rounds once per `KC` slab of a deep
/// product (see `crate::gemm`); the training stack keeps its deep bf16
/// products column-tiled for exactly this reason.
#[derive(Debug, Clone, Copy, Default)]
#[repr(transparent)]
pub struct Bf16(u16);

impl Bf16 {
    /// The raw bit pattern (the upper half of the equivalent `f32`).
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Builds the value with the given bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        Bf16(bits)
    }

    /// Widens to `f32` — lossless (bf16 values are exactly the f32 values
    /// whose low 16 mantissa bits are zero).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Rounds an `f32` to the nearest bf16 (ties to even), preserving NaN
    /// (quietened) and infinities.
    #[inline]
    pub fn from_f32(v: f32) -> Self {
        let bits = v.to_bits();
        if v.is_nan() {
            // Keep sign + exponent, force a quiet mantissa bit so the
            // truncation cannot turn NaN into infinity.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        // Round to nearest, ties to even: add 0x7FFF plus the parity of the
        // bit that will become the LSB.
        let round = 0x7FFF + ((bits >> 16) & 1);
        Bf16(((bits + round) >> 16) as u16)
    }
}

macro_rules! bf16_binop {
    ($op_trait:ident, $op:ident, $assign_trait:ident, $assign:ident, $sym:tt) => {
        impl $op_trait for Bf16 {
            type Output = Bf16;
            #[inline]
            fn $op(self, rhs: Bf16) -> Bf16 {
                Bf16::from_f32(self.to_f32() $sym rhs.to_f32())
            }
        }
        impl $assign_trait for Bf16 {
            #[inline]
            fn $assign(&mut self, rhs: Bf16) {
                *self = *self $sym rhs;
            }
        }
    };
}

bf16_binop!(Add, add, AddAssign, add_assign, +);
bf16_binop!(Sub, sub, SubAssign, sub_assign, -);
bf16_binop!(Mul, mul, MulAssign, mul_assign, *);
bf16_binop!(Div, div, DivAssign, div_assign, /);

impl Neg for Bf16 {
    type Output = Bf16;
    #[inline]
    fn neg(self) -> Bf16 {
        Bf16(self.0 ^ 0x8000)
    }
}

impl PartialEq for Bf16 {
    #[inline]
    fn eq(&self, other: &Bf16) -> bool {
        // f32 semantics: NaN != NaN, -0.0 == +0.0.
        self.to_f32() == other.to_f32()
    }
}

impl PartialOrd for Bf16 {
    #[inline]
    fn partial_cmp(&self, other: &Bf16) -> Option<std::cmp::Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl Sum for Bf16 {
    fn sum<I: Iterator<Item = Bf16>>(iter: I) -> Bf16 {
        iter.fold(Bf16::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

/// Round-trip a unary `f32` function through bf16.
macro_rules! bf16_unary {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[inline]
        fn $name(self) -> Self {
            Bf16::from_f32(self.to_f32().$name())
        }
    };
}

impl Scalar for Bf16 {
    // One step wider is enough for the accumulated reductions this stack
    // performs (bf16 already has f32's exponent range; the reductions are
    // s- or d-length, far below f32's 2^24 mantissa headroom).
    type Accum = f32;
    // Panels widen to f32 at pack time; the FMA loop is identical to f32's.
    type Compute = f32;

    const ZERO: Self = Bf16(0x0000);
    const ONE: Self = Bf16(0x3F80);
    /// `2^-7`: the gap between 1.0 and the next bf16 (7 mantissa bits ⇒
    /// unit roundoff, i.e. relative rounding error, ≤ `2^-8`).
    const EPSILON: Self = Bf16(0x3C00);
    const NAME: &'static str = "bf16";
    const BYTES: usize = 2;
    const MR: usize = <f32 as Scalar>::MR;
    const NR: usize = <f32 as Scalar>::NR;

    #[inline]
    fn from_f64(v: f64) -> Self {
        // Double rounding (f64 → f32 → bf16) can differ from direct
        // rounding only when the f64 sits within 2^-25 of a bf16 tie —
        // immaterial next to bf16's 2^-9 ulp, and it keeps the conversion
        // on the same fast path `from_f32` uses.
        Bf16::from_f32(v as f32)
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    fn microkernel(
        k: usize,
        alpha: Self,
        a_panel: &[f32],
        b_panel: &[f32],
        c: &mut [Self],
        ldc: usize,
    ) {
        // Identical register-tile FMA loop to the f32 kernel — the panels
        // were widened at pack time — with a single bf16 rounding per C
        // entry at write-back.
        let acc = microkernel_tile::<f32, { <f32 as Scalar>::MR }, { <f32 as Scalar>::NR }>(
            k, a_panel, b_panel,
        );
        let alpha = alpha.to_f32();
        for (i, row) in acc.iter().enumerate() {
            let c_row = &mut c[i * ldc..i * ldc + <f32 as Scalar>::NR];
            for (cv, &r) in c_row.iter_mut().zip(row.iter()) {
                *cv = Bf16::from_f32(cv.to_f32() + alpha * r);
            }
        }
    }

    #[inline]
    fn compute(self) -> f32 {
        self.to_f32()
    }

    #[inline]
    fn from_compute(v: f32) -> Self {
        Bf16::from_f32(v)
    }

    bf16_unary!(
        /// Absolute value (exact: clears the sign bit).
        abs
    );
    bf16_unary!(
        /// Square root, correctly rounded to bf16.
        sqrt
    );
    bf16_unary!(
        /// Natural exponential, computed in f32 and rounded once.
        exp
    );
    bf16_unary!(
        /// Natural logarithm, computed in f32 and rounded once.
        ln
    );

    #[inline]
    fn powi(self, n: i32) -> Self {
        Bf16::from_f32(self.to_f32().powi(n))
    }

    #[inline]
    fn powf(self, e: Self) -> Self {
        Bf16::from_f32(self.to_f32().powf(e.to_f32()))
    }

    #[inline]
    fn hypot(self, other: Self) -> Self {
        Bf16::from_f32(self.to_f32().hypot(other.to_f32()))
    }

    #[inline]
    fn max(self, other: Self) -> Self {
        Bf16::from_f32(self.to_f32().max(other.to_f32()))
    }

    #[inline]
    fn min(self, other: Self) -> Self {
        Bf16::from_f32(self.to_f32().min(other.to_f32()))
    }

    #[inline]
    fn mul_add(self, a: Self, b: Self) -> Self {
        Bf16::from_f32(self.to_f32().mul_add(a.to_f32(), b.to_f32()))
    }

    #[inline]
    fn is_finite(self) -> bool {
        self.to_f32().is_finite()
    }

    #[inline]
    fn is_nan(self) -> bool {
        self.to_f32().is_nan()
    }
}

/// Casts a slice between scalar precisions.
pub fn cast_slice<A: Scalar, B: Scalar>(src: &[A]) -> Vec<B> {
    src.iter().map(|&v| B::from_f64(v.to_f64())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_sum<S: Scalar>(xs: &[S]) -> S {
        xs.iter().copied().sum()
    }

    #[test]
    fn constants_and_conversions() {
        assert_eq!(f32::NAME, "f32");
        assert_eq!(f64::NAME, "f64");
        assert_eq!(f32::BYTES, 4);
        assert_eq!(f64::BYTES, 8);
        assert_eq!(<f32 as Scalar>::from_f64(1.5), 1.5_f32);
        assert_eq!(Scalar::to_f64(2.5_f32), 2.5_f64);
    }

    #[test]
    fn accum_is_wider_for_f32() {
        // f32 accumulates in f64: summing 1e-4 a million times stays exact
        // to ~1e-10 through the accumulator but drifts visibly in raw f32.
        let mut acc = <f32 as Scalar>::Accum::ZERO;
        let mut raw = 0.0_f32;
        for _ in 0..1_000_000 {
            acc += Scalar::accum(1e-4_f32);
            raw += 1e-4_f32;
        }
        assert!((acc.to_f64() - 1e-4_f32 as f64 * 1e6).abs() < 1e-6);
        assert!((raw as f64 - 100.0).abs() > 1e-2, "raw f32 drift expected");
    }

    #[test]
    fn generic_math_works_for_both() {
        assert_eq!(generic_sum(&[1.0_f32, 2.0, 3.0]), 6.0);
        assert_eq!(generic_sum(&[1.0_f64, 2.0, 3.0]), 6.0);
        assert!((Scalar::sqrt(2.0_f32) - std::f32::consts::SQRT_2).abs() < 1e-7);
        assert_eq!(Scalar::mul_add(2.0_f64, 3.0, 4.0), 10.0);
    }

    fn microkernel_matches_naive<S: Scalar>() {
        let (mr, nr) = (S::MR, S::NR);
        let k = 5;
        // Quarter/half-step values: exactly representable in every
        // precision down to bf16, so the expected tile is exact.
        let a: Vec<S::Compute> = (0..k * mr)
            .map(|i| S::Compute::from_f64((i % 7) as f64 * 0.25 - 0.5))
            .collect();
        let b: Vec<S::Compute> = (0..k * nr)
            .map(|i| S::Compute::from_f64((i % 5) as f64 * 0.5 - 1.0))
            .collect();
        let ldc = nr + 3;
        let mut c = vec![S::from_f64(2.0); mr * ldc];
        S::microkernel(k, S::from_f64(1.5), &a, &b, &mut c, ldc);
        for i in 0..mr {
            for j in 0..nr {
                let mut dot = 0.0;
                for p in 0..k {
                    dot += a[p * mr + i].to_f64() * b[p * nr + j].to_f64();
                }
                let expect = 2.0 + 1.5 * dot;
                assert!(
                    (c[i * ldc + j].to_f64() - expect).abs() < 1e-5,
                    "({i},{j}): {} vs {expect}",
                    c[i * ldc + j]
                );
            }
            // Padding columns between tiles untouched.
            for j in nr..ldc {
                assert_eq!(c[i * ldc + j].to_f64(), 2.0);
            }
        }
    }

    #[test]
    fn microkernels_match_naive() {
        microkernel_matches_naive::<f32>();
        microkernel_matches_naive::<f64>();
        microkernel_matches_naive::<Bf16>();
        assert_eq!(<f32 as Scalar>::MR * <f32 as Scalar>::NR, 96);
        assert_eq!(<f64 as Scalar>::MR * <f64 as Scalar>::NR, 64);
        // bf16 shares f32's register tile (its packed panels are f32).
        assert_eq!(<Bf16 as Scalar>::MR, <f32 as Scalar>::MR);
        assert_eq!(<Bf16 as Scalar>::NR, <f32 as Scalar>::NR);
    }

    #[test]
    fn cast_slice_round_trips() {
        let xs = [1.0_f64, -2.5, 0.125];
        let ys: Vec<f32> = cast_slice(&xs);
        let back: Vec<f64> = cast_slice(&ys);
        assert_eq!(back, xs);
        // bf16-representable values survive the round trip too.
        let bs: Vec<Bf16> = cast_slice(&xs);
        let back: Vec<f64> = cast_slice(&bs);
        assert_eq!(back, xs);
    }

    #[test]
    fn bf16_conversions_round_to_nearest_even() {
        // Exactly representable values pass through.
        for v in [0.0_f32, 1.0, -1.0, 0.5, 2.0, 384.0, -0.0078125] {
            assert_eq!(Bf16::from_f32(v).to_f32(), v, "{v}");
        }
        // 1 + 2^-8 sits exactly between 1.0 and 1 + 2^-7: ties to even
        // round it down to 1.0; anything above the midpoint rounds up.
        assert_eq!(Bf16::from_f32(1.0 + 0.00390625).to_f32(), 1.0);
        assert_eq!(Bf16::from_f32(1.004).to_f32(), 1.0 + 0.0078125);
        // 1 + 3·2^-8 is the midpoint whose even neighbour is above.
        assert_eq!(
            Bf16::from_f32(1.0 + 3.0 * 0.00390625).to_f32(),
            1.0 + 2.0 * 0.0078125
        );
        // Relative rounding error ≤ 2^-8 (the unit roundoff) for normals.
        for i in 1..200 {
            let v = 0.37_f32 * i as f32;
            let r = Bf16::from_f32(v).to_f32();
            assert!(((r - v) / v).abs() <= 1.0 / 256.0 + f32::EPSILON, "{v}");
        }
    }

    #[test]
    fn bf16_specials() {
        assert!(Bf16::from_f32(f32::NAN).is_nan());
        assert!(!Bf16::from_f32(f32::NAN).is_finite());
        assert_eq!(Bf16::from_f32(f32::INFINITY).to_f32(), f32::INFINITY);
        assert_eq!(
            Bf16::from_f32(f32::NEG_INFINITY).to_f32(),
            f32::NEG_INFINITY
        );
        // Overflow past the largest bf16 (f32::MAX rounds up across the
        // exponent boundary) saturates to inf via rounding, never wraps.
        assert_eq!(Bf16::from_f32(f32::MAX).to_f32(), f32::INFINITY);
        // NaN stays NaN (quiet bit forced), and NaN != NaN.
        let nan = Bf16::from_f32(f32::NAN);
        assert!(nan != nan);
        assert_eq!(-Bf16::ONE + Bf16::ONE, Bf16::ZERO);
    }

    #[test]
    fn bf16_scalar_contract() {
        assert_eq!(Bf16::NAME, "bf16");
        assert_eq!(Bf16::BYTES, 2);
        assert_eq!(Bf16::ONE.to_f64(), 1.0);
        assert_eq!(Bf16::ZERO.to_f64(), 0.0);
        // EPSILON = 2^-7 = gap between 1.0 and the next bf16.
        assert_eq!(Bf16::EPSILON.to_f64(), 0.0078125);
        assert_eq!((Bf16::ONE + Bf16::EPSILON).to_f64(), 1.0078125);
        // Generic math runs (round-tripped through f32).
        assert_eq!(generic_sum(&[Bf16::ONE, Bf16::ONE]).to_f64(), 2.0);
        assert_eq!(Scalar::sqrt(Bf16::from_f64(4.0)).to_f64(), 2.0);
        assert_eq!(
            Scalar::mul_add(Bf16::from_f64(2.0), Bf16::from_f64(3.0), Bf16::ONE).to_f64(),
            7.0
        );
        // Accum is f32: a million 1e-4 adds stay accurate to f32 eps
        // (raw bf16 would stall at ~16: 16 + 1e-4 rounds back to 16).
        let term = Bf16::from_f64(1e-4);
        let mut acc = <Bf16 as Scalar>::Accum::ZERO;
        let mut raw = Bf16::ZERO;
        for _ in 0..100_000 {
            acc += Scalar::accum(term);
            raw += term;
        }
        let exact = 100_000.0 * term.to_f64();
        assert!(
            (acc.to_f64() - exact).abs() < 1e-2,
            "accum {acc} vs {exact}"
        );
        assert!(
            raw.to_f64() < 1.0,
            "raw bf16 accumulation must stall: {raw}"
        );
    }
}
