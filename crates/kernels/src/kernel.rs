use std::fmt;

use ep2_linalg::vmath::{VMath, BLOCK};
use ep2_linalg::{ops, Scalar};

/// A radial positive-definite kernel `k(x, z) = g(‖x − z‖²)` with
/// `k(x, x) = 1`, generic over the evaluation precision `S`
/// (default `f64`, so `dyn Kernel` keeps its historical meaning).
///
/// The trait exposes the radial profile [`Kernel::of_sq_dist`] so kernel
/// matrices can be assembled from a squared-distance matrix computed with one
/// GEMM — the computation pattern whose cost the device simulator models.
/// Every concrete kernel in this crate implements `Kernel<S>` for all
/// scalar types, with the profile evaluated at [`Scalar::Compute`] width
/// (the packed GEMM's register precision: `Self` for the native floats,
/// f32 for bf16) and narrowed to `S` exactly once: the f32 instantiation
/// is the paper's GPU configuration, where assembly is memory-bound and
/// half-width elements roughly double throughput, and bf16 profiles avoid
/// paying a storage-rounding round-trip per arithmetic op.
pub trait Kernel<S: Scalar = f64>: Send + Sync + fmt::Debug {
    /// Evaluates the radial profile at squared distance `d2 ≥ 0`.
    fn of_sq_dist(&self, d2: S) -> S;

    /// Lane-batched radial profile: evaluates the profile over a
    /// contiguous run of squared distances already at [`Scalar::Compute`]
    /// width and clamped nonnegative, writing `out[j] = g(d2[j])` narrowed
    /// to storage — the assembly hot path, called once per row segment
    /// instead of once per entry.
    ///
    /// The contract mirrors [`Kernel::of_sq_dist`] bit for bit: for inputs
    /// that round-trip through storage unchanged — which is how the
    /// assembly paths produce them, as `S::from_accum(d2).compute()` —
    /// `out[j]` equals `of_sq_dist(S::from_compute(d2[j]))` exactly. The
    /// default is that per-entry loop; the built-in families override it
    /// with `ep2_linalg::vmath` lane-batched bodies and define
    /// `of_sq_dist` back in terms of the batched body on a 1-lane slice,
    /// so the scalar and batched profiles can never drift apart.
    ///
    /// # Panics
    ///
    /// Implementations may assume and debug-assert
    /// `d2.len() == out.len()`.
    fn profile_lanes(&self, d2: &[S::Compute], out: &mut [S]) {
        debug_assert_eq!(d2.len(), out.len());
        for (&v, o) in d2.iter().zip(out.iter_mut()) {
            *o = self.of_sq_dist(S::from_compute(v));
        }
    }

    /// Kernel name for reports ("gaussian", "laplacian", ...).
    fn name(&self) -> &str;

    /// Bandwidth parameter σ.
    fn bandwidth(&self) -> f64;

    /// Evaluates `k(x, z)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != z.len()`.
    fn eval(&self, x: &[S], z: &[S]) -> S {
        self.of_sq_dist(ops::sq_dist(x, z))
    }
}

/// Which kernel family to use — the choice the paper leaves to the user
/// ("little tuning beyond selecting the kernel and the kernel parameter").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Gaussian `exp(−‖x−z‖² / 2σ²)`.
    Gaussian,
    /// Laplacian `exp(−‖x−z‖ / σ)` — the paper's Section 5.5 recommends it.
    Laplacian,
    /// Cauchy `1 / (1 + ‖x−z‖²/σ²)`.
    Cauchy,
    /// Matérn-3/2 `(1 + √3 r/σ) exp(−√3 r/σ)` — between Laplacian and
    /// Gaussian smoothness.
    Matern32,
    /// Matérn-5/2 `(1 + √5 r/σ + 5r²/3σ²) exp(−√5 r/σ)`.
    Matern52,
    /// Rational quadratic `(1 + ‖x−z‖²/(2ασ²))^{−α}` with `α = 1` —
    /// a scale mixture of Gaussians with heavier tails.
    RationalQuadratic,
}

impl KernelKind {
    /// All kernel families (for grid sweeps).
    pub const ALL: [KernelKind; 6] = [
        KernelKind::Gaussian,
        KernelKind::Laplacian,
        KernelKind::Cauchy,
        KernelKind::Matern32,
        KernelKind::Matern52,
        KernelKind::RationalQuadratic,
    ];

    /// Constructs the kernel with bandwidth `sigma` (double-precision
    /// evaluation — the historical default).
    ///
    /// # Panics
    ///
    /// Panics if `sigma <= 0`.
    pub fn with_bandwidth(self, sigma: f64) -> Box<dyn Kernel> {
        self.with_bandwidth_in::<f64>(sigma)
    }

    /// Constructs the kernel with bandwidth `sigma`, evaluated in the scalar
    /// precision `S` — the entry point the `Precision` training policy uses
    /// to run kernel assembly in f32.
    ///
    /// # Panics
    ///
    /// Panics if `sigma <= 0`.
    pub fn with_bandwidth_in<S: Scalar>(self, sigma: f64) -> Box<dyn Kernel<S>> {
        match self {
            KernelKind::Gaussian => Box::new(GaussianKernel::new(sigma)),
            KernelKind::Laplacian => Box::new(LaplacianKernel::new(sigma)),
            KernelKind::Cauchy => Box::new(CauchyKernel::new(sigma)),
            KernelKind::Matern32 => Box::new(Matern32Kernel::new(sigma)),
            KernelKind::Matern52 => Box::new(Matern52Kernel::new(sigma)),
            KernelKind::RationalQuadratic => Box::new(RationalQuadraticKernel::new(sigma)),
        }
    }

    /// Parses a kernel name as accepted by the CLI and harnesses
    /// (`"gaussian"`, `"laplacian"`, `"cauchy"`, `"matern32"`,
    /// `"matern52"`, `"rq"`); case-insensitive.
    pub fn parse(name: &str) -> Option<KernelKind> {
        match name.to_ascii_lowercase().as_str() {
            "gaussian" | "rbf" => Some(KernelKind::Gaussian),
            "laplacian" | "laplace" | "exponential" => Some(KernelKind::Laplacian),
            "cauchy" => Some(KernelKind::Cauchy),
            "matern32" | "matern-3/2" => Some(KernelKind::Matern32),
            "matern52" | "matern-5/2" => Some(KernelKind::Matern52),
            "rq" | "rational-quadratic" => Some(KernelKind::RationalQuadratic),
            _ => None,
        }
    }
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelKind::Gaussian => "Gaussian",
            KernelKind::Laplacian => "Laplacian",
            KernelKind::Cauchy => "Cauchy",
            KernelKind::Matern32 => "Matern-3/2",
            KernelKind::Matern52 => "Matern-5/2",
            KernelKind::RationalQuadratic => "RationalQuadratic",
        };
        f.write_str(s)
    }
}

macro_rules! radial_kernel {
    (@unit $x:expr) => {
        ()
    };
    // Each family supplies its σ-derived profile constants (computed once,
    // in f64, at construction — the hot loops never re-derive them) and a
    // lane-batched profile body. The body sees one `BLOCK`-bounded chunk
    // per iteration as `$d2` (compute-width squared distances, clamped
    // nonnegative) / `$out` (the storage destination), plus the bound
    // constants at compute width, `$cst` (the f64 → compute converter for
    // literals) and `$narrow` (the single compute → storage rounding).
    //
    // The profile is evaluated at `Scalar::Compute` width and narrowed to
    // storage exactly once at the end. For the native floats
    // `Compute = Self`, so this is the plain native evaluation, bit for
    // bit. For bf16 (`Compute = f32`) it is both faster and tighter than
    // storage-width arithmetic: evaluating in `Bf16` pays a
    // widen/op/round-to-nearest-even narrow round-trip *per operation* —
    // measured as the dominant share of the bf16 assembly gap vs f32 —
    // and each intermediate narrowing adds a 2^-8 relative rounding the
    // final result keeps. One rounding at the end strictly refines both.
    ($(#[$doc:meta])* $name:ident, $label:literal,
     consts: |$sigma:ident| [$($cinit:expr),+ $(,)?],
     profile: |$d2:ident, $out:ident, $cst:ident, $narrow:ident, [$($c:ident),+]| $body:block) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub struct $name {
            sigma: f64,
            /// σ-derived profile constants, derived once at construction.
            consts: [f64; [$(radial_kernel!(@unit $cinit)),+].len()],
        }

        impl $name {
            /// Creates the kernel with bandwidth `sigma`.
            ///
            /// # Panics
            ///
            /// Panics if `sigma` is not positive and finite.
            pub fn new(sigma: f64) -> Self {
                assert!(
                    sigma > 0.0 && sigma.is_finite(),
                    concat!(stringify!($name), ": bandwidth must be positive")
                );
                let $sigma = sigma;
                $name {
                    sigma,
                    consts: [$($cinit),+],
                }
            }
        }

        impl<S: Scalar> Kernel<S> for $name {
            // The scalar profile is the batched body on a one-lane slice,
            // so `of_sq_dist` and `profile_lanes` agree bit for bit by
            // construction (including the `EP2_PRECISE_MATH` dispatch,
            // which both reach through `vmath`).
            #[inline]
            fn of_sq_dist(&self, d2: S) -> S {
                debug_assert!(
                    d2.to_f64() >= -1e-9,
                    "negative squared distance {}",
                    d2
                );
                let d2c = [d2.compute().max(<S::Compute as Scalar>::ZERO)];
                let mut out = [S::ZERO];
                Kernel::<S>::profile_lanes(self, &d2c, &mut out);
                out[0]
            }

            fn profile_lanes(&self, d2: &[S::Compute], out: &mut [S]) {
                debug_assert_eq!(d2.len(), out.len());
                let [$($c),+] = self.consts.map(<S::Compute as Scalar>::from_f64);
                #[allow(unused_variables)]
                let $cst = <S::Compute as Scalar>::from_f64;
                let $narrow = S::from_compute;
                for ($d2, $out) in d2.chunks(BLOCK).zip(out.chunks_mut(BLOCK)) {
                    $body
                }
            }

            fn name(&self) -> &str {
                $label
            }

            fn bandwidth(&self) -> f64 {
                self.sigma
            }
        }
    };
}

radial_kernel!(
    /// Gaussian (RBF) kernel `k(x, z) = exp(−‖x−z‖² / 2σ²)`.
    GaussianKernel,
    "gaussian",
    consts: |sigma| [-1.0 / (2.0 * sigma * sigma)],
    profile: |d2, out, cst, narrow, [neg_half_inv_s2]| {
        let mut t = [cst(0.0); BLOCK];
        let t = &mut t[..d2.len()];
        for (ti, &v) in t.iter_mut().zip(d2.iter()) {
            *ti = v * neg_half_inv_s2;
        }
        VMath::vexp(t);
        for (o, &e) in out.iter_mut().zip(t.iter()) {
            *o = narrow(e);
        }
    }
);

radial_kernel!(
    /// Laplacian (exponential) kernel `k(x, z) = exp(−‖x−z‖ / σ)`.
    ///
    /// Section 5.5 of the paper argues for this kernel: fewer training
    /// epochs, larger critical batch `m*`, and robustness to the bandwidth.
    LaplacianKernel,
    "laplacian",
    consts: |sigma| [-1.0 / sigma],
    profile: |d2, out, cst, narrow, [neg_inv_s]| {
        let mut t = [cst(0.0); BLOCK];
        let t = &mut t[..d2.len()];
        t.copy_from_slice(d2);
        VMath::vsqrt(t);
        for ti in t.iter_mut() {
            *ti *= neg_inv_s;
        }
        VMath::vexp(t);
        for (o, &e) in out.iter_mut().zip(t.iter()) {
            *o = narrow(e);
        }
    }
);

radial_kernel!(
    /// Cauchy kernel `k(x, z) = 1 / (1 + ‖x−z‖²/σ²)`.
    CauchyKernel,
    "cauchy",
    consts: |sigma| [1.0 / (sigma * sigma)],
    profile: |d2, out, cst, narrow, [inv_s2]| {
        let one = cst(1.0);
        for (o, &v) in out.iter_mut().zip(d2.iter()) {
            *o = narrow(one / (one + v * inv_s2));
        }
    }
);

radial_kernel!(
    /// Matérn-3/2 kernel `k(x, z) = (1 + √3 r/σ) exp(−√3 r/σ)` — once
    /// differentiable sample paths, between Laplacian and Gaussian.
    Matern32Kernel,
    "matern32",
    consts: |sigma| [3.0_f64.sqrt() / sigma],
    profile: |d2, out, cst, narrow, [sqrt3_inv_s]| {
        let mut t = [cst(0.0); BLOCK];
        let mut e = [cst(0.0); BLOCK];
        let (t, e) = (&mut t[..d2.len()], &mut e[..d2.len()]);
        t.copy_from_slice(d2);
        VMath::vsqrt(t);
        for (ti, ei) in t.iter_mut().zip(e.iter_mut()) {
            *ti *= sqrt3_inv_s;
            *ei = -*ti;
        }
        VMath::vexp(e);
        let one = cst(1.0);
        for (o, (&ti, &ei)) in out.iter_mut().zip(t.iter().zip(e.iter())) {
            *o = narrow((one + ti) * ei);
        }
    }
);

radial_kernel!(
    /// Matérn-5/2 kernel `k(x, z) = (1 + √5 r/σ + 5r²/3σ²) exp(−√5 r/σ)`.
    Matern52Kernel,
    "matern52",
    consts: |sigma| [5.0_f64.sqrt() / sigma, 5.0 / (3.0 * sigma * sigma)],
    profile: |d2, out, cst, narrow, [sqrt5_inv_s, five_thirds_inv_s2]| {
        let mut t = [cst(0.0); BLOCK];
        let mut e = [cst(0.0); BLOCK];
        let (t, e) = (&mut t[..d2.len()], &mut e[..d2.len()]);
        t.copy_from_slice(d2);
        VMath::vsqrt(t);
        for (ti, ei) in t.iter_mut().zip(e.iter_mut()) {
            *ti *= sqrt5_inv_s;
            *ei = -*ti;
        }
        VMath::vexp(e);
        let one = cst(1.0);
        for (o, ((&ti, &ei), &v)) in out
            .iter_mut()
            .zip(t.iter().zip(e.iter()).zip(d2.iter()))
        {
            *o = narrow((one + ti + five_thirds_inv_s2 * v) * ei);
        }
    }
);

radial_kernel!(
    /// Rational-quadratic kernel `k(x, z) = (1 + ‖x−z‖²/(2σ²))^{-1}`
    /// (the `α = 1` member of the RQ family — a Gaussian scale mixture).
    RationalQuadraticKernel,
    "rational-quadratic",
    consts: |sigma| [1.0 / (2.0 * sigma * sigma)],
    profile: |d2, out, cst, narrow, [half_inv_s2]| {
        let one = cst(1.0);
        for (o, &v) in out.iter_mut().zip(d2.iter()) {
            *o = narrow(one / (one + v * half_inv_s2));
        }
    }
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_diagonal() {
        let x = [1.0, -2.0, 3.0];
        for kind in KernelKind::ALL {
            let k = kind.with_bandwidth(2.0);
            assert!((k.eval(&x, &x) - 1.0).abs() < 1e-15, "{}", k.name());
        }
    }

    #[test]
    fn all_kernels_monotone_and_bounded() {
        for kind in KernelKind::ALL {
            let k = kind.with_bandwidth(1.5);
            let mut prev = k.of_sq_dist(0.0);
            assert!((prev - 1.0).abs() < 1e-15);
            for i in 1..30 {
                let cur = k.of_sq_dist(i as f64 * 0.4);
                assert!(cur < prev, "{kind} not strictly decreasing");
                assert!(cur > 0.0, "{kind} must stay positive");
                prev = cur;
            }
        }
    }

    #[test]
    fn f32_profile_matches_f64_to_single_eps() {
        for kind in KernelKind::ALL {
            let k32 = kind.with_bandwidth_in::<f32>(1.7);
            let k64 = kind.with_bandwidth_in::<f64>(1.7);
            for i in 0..40 {
                let d2 = i as f64 * 0.3;
                let v32 = k32.of_sq_dist(d2 as f32) as f64;
                let v64 = k64.of_sq_dist(d2);
                assert!(
                    (v32 - v64).abs() < 1e-5,
                    "{kind} at d2 = {d2}: {v32} vs {v64}"
                );
            }
        }
    }

    #[test]
    fn matern_between_laplacian_and_gaussian() {
        // At moderate distance, Matérn-3/2 decays faster than Laplacian but
        // slower than Gaussian (for matched σ and r > σ).
        let (g, l, m) = (
            GaussianKernel::new(1.0),
            LaplacianKernel::new(1.0),
            Matern32Kernel::new(1.0),
        );
        let d2 = 9.0; // r = 3σ
        assert!(Kernel::<f64>::of_sq_dist(&g, d2) < Kernel::<f64>::of_sq_dist(&m, d2));
        assert!(Kernel::<f64>::of_sq_dist(&m, d2) < Kernel::<f64>::of_sq_dist(&l, d2));
    }

    #[test]
    fn parse_names() {
        assert_eq!(KernelKind::parse("RBF"), Some(KernelKind::Gaussian));
        assert_eq!(KernelKind::parse("laplace"), Some(KernelKind::Laplacian));
        assert_eq!(KernelKind::parse("matern52"), Some(KernelKind::Matern52));
        assert_eq!(KernelKind::parse("rq"), Some(KernelKind::RationalQuadratic));
        assert_eq!(KernelKind::parse("nope"), None);
    }

    #[test]
    fn matern52_known_limits() {
        let k = Matern52Kernel::new(2.0);
        // Smooth at zero; value drops below Matérn-3/2 beyond a few σ.
        let k32 = Matern32Kernel::new(2.0);
        assert!(Kernel::<f64>::of_sq_dist(&k, 100.0) < Kernel::<f64>::of_sq_dist(&k32, 100.0));
    }

    #[test]
    fn rq_heavier_tail_than_gaussian() {
        let rq = RationalQuadraticKernel::new(1.0);
        let g = GaussianKernel::new(1.0);
        assert!(Kernel::<f64>::of_sq_dist(&rq, 25.0) > Kernel::<f64>::of_sq_dist(&g, 25.0));
    }

    #[test]
    fn gaussian_known_value() {
        let k = GaussianKernel::new(1.0);
        // ‖x−z‖² = 2 → exp(−1).
        let v: f64 = k.eval(&[0.0, 0.0], &[1.0, 1.0]);
        assert!((v - (-1.0_f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn laplacian_known_value() {
        let k = LaplacianKernel::new(2.0);
        // ‖x−z‖ = 3 → exp(−1.5).
        let v: f64 = k.eval(&[0.0], &[3.0]);
        assert!((v - (-1.5_f64).exp()).abs() < 1e-15);
    }

    #[test]
    fn cauchy_known_value() {
        let k = CauchyKernel::new(1.0);
        let v: f64 = k.eval(&[0.0], &[1.0]);
        assert!((v - 0.5).abs() < 1e-15);
    }

    #[test]
    fn symmetry_and_bounds() {
        let x = [0.3, -1.2];
        let z = [2.0, 0.7];
        for kind in [
            KernelKind::Gaussian,
            KernelKind::Laplacian,
            KernelKind::Cauchy,
        ] {
            let k = kind.with_bandwidth(1.5);
            let a = k.eval(&x, &z);
            let b = k.eval(&z, &x);
            assert_eq!(a, b, "{kind} not symmetric");
            assert!(a > 0.0 && a <= 1.0, "{kind} out of (0,1]");
        }
    }

    #[test]
    fn monotone_decreasing_in_distance() {
        for kind in [
            KernelKind::Gaussian,
            KernelKind::Laplacian,
            KernelKind::Cauchy,
        ] {
            let k = kind.with_bandwidth(1.0);
            let mut prev = k.of_sq_dist(0.0);
            for i in 1..20 {
                let cur = k.of_sq_dist(i as f64 * 0.5);
                assert!(cur < prev, "{kind} not decreasing");
                prev = cur;
            }
        }
    }

    #[test]
    fn wider_bandwidth_is_flatter() {
        let narrow = GaussianKernel::new(1.0);
        let wide = GaussianKernel::new(10.0);
        assert!(Kernel::<f64>::of_sq_dist(&wide, 4.0) > Kernel::<f64>::of_sq_dist(&narrow, 4.0));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        let _ = GaussianKernel::new(0.0);
    }

    #[test]
    fn kind_display() {
        assert_eq!(KernelKind::Laplacian.to_string(), "Laplacian");
    }
}
