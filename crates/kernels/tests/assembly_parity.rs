//! Assembly parity: [`kernel_cross_into`], [`kernel_cross_prepacked_into`]
//! and [`kernel_matrix`] must equal a per-entry reference **bit for bit** —
//! the plain `gemm_nt` cross term, then
//! `of_sq_dist(S::from_accum(max(a_sq[i] + b_sq[j] + stored.accum(), 0)))`
//! — for every kernel family and precision, on shapes straddling every
//! microkernel and cache-block boundary (MR/NR/MC/NC/KC).
//!
//! The reference GEMM runs at a thread budget of 1; the assembly under
//! test runs at budgets 1, 2, 3 and 5. Between them these reach every GEMM
//! engine: the small-product loop and the per-thread engine at budget 1,
//! the shared-slab engine above it, and the column-split engine for the
//! pre-packed products with fewer `MC` row blocks than threads. A profile
//! pass that skipped, repeated or misplaced an entry at any chunk boundary
//! changes the bits.
//!
//! Scoped to one precision leg by `EP2_TEST_PRECISION` (unset = all), the
//! same hook the CI `precision-matrix` job drives for `tests/precision.rs`;
//! the `mixed` policy stores f32 at this layer, so it selects the f32 legs.

use ep2_kernels::matrix::{
    kernel_cross_into, kernel_cross_prepacked_into, kernel_matrix, pack_centers, row_sq_norms,
};
use ep2_kernels::{Kernel, KernelKind};
use ep2_linalg::{blas, Bf16, Matrix, Scalar};

/// Whether `EP2_TEST_PRECISION` (unset, or a comma-separated policy list)
/// selects this scalar's legs. `mixed` trains f32 storage, so it selects
/// the f32 assembly legs at this layer.
fn precision_selected(name: &str) -> bool {
    match std::env::var("EP2_TEST_PRECISION") {
        Ok(names) => names.split(',').any(|n| {
            let n = n.trim();
            n == name || (n == "mixed" && name == "f32")
        }),
        Err(_) => true,
    }
}

/// `(rows, centers, features)` cross-assembly shapes.
const SHAPES: [(usize, usize, usize); 4] = [
    // Small-product path (7·40·17 < SMALL_PRODUCT), edge tiles on both axes.
    (7, 17, 40),
    // Packed: rows straddle MC = 48 and MR, columns straddle NR.
    (70, 60, 37),
    // Two KC slabs (d = 265 > KC = 256), rows straddle MC, columns NC = 512.
    (51, 517, 265),
    // Exact block multiples: interior tiles only.
    (48, 128, 256),
];

fn points<S: Scalar>(n: usize, d: usize, seed: u64) -> Matrix<S> {
    let mut state = seed | 1;
    Matrix::from_fn(n, d, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        S::from_f64(((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
    })
}

/// The reference's cross term: the plain `-2 A Bᵀ` GEMM at a budget of 1.
fn cross_term<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
    let mut stored = Matrix::zeros(a.rows(), b.rows());
    ep2_runtime::with_budget(1, || {
        blas::gemm_nt(S::from_f64(-2.0), a, b, S::ZERO, &mut stored)
    });
    stored
}

/// The per-entry reference over a [`cross_term`]: every entry's d²
/// reassembly and profile, one at a time.
fn reference<S: Scalar>(
    kernel: &dyn Kernel<S>,
    stored: &Matrix<S>,
    a_sq: &[S::Accum],
    b_sq: &[S::Accum],
) -> Matrix<S> {
    Matrix::from_fn(stored.rows(), stored.cols(), |i, j| {
        let d2 = (a_sq[i] + b_sq[j] + stored[(i, j)].accum()).max(S::Accum::ZERO);
        kernel.of_sq_dist(S::from_accum(d2))
    })
}

fn assert_bits_equal<S: Scalar>(got: &Matrix<S>, want: &Matrix<S>, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for i in 0..got.rows() {
        for j in 0..got.cols() {
            let (g, w) = (got[(i, j)], want[(i, j)]);
            assert_eq!(
                g.to_f64().to_bits(),
                w.to_f64().to_bits(),
                "{ctx}: entry ({i},{j}) assembled {g} vs reference {w}"
            );
        }
    }
}

/// Both cross-assembly entry points against the reference, for every
/// family and shape, at thread budget `threads`.
fn cross_leg<S: Scalar>(threads: usize) {
    for (n, m, d) in SHAPES {
        let a = points::<S>(n, d, 0xA5A5 + n as u64);
        let b = points::<S>(m, d, 0x5A5A + m as u64);
        let (a_sq, b_sq) = (row_sq_norms(&a), row_sq_norms(&b));
        let packed = pack_centers(&b, 0..m);
        let stored = cross_term(&a, &b);
        for kind in KernelKind::ALL {
            let kernel = kind.with_bandwidth_in::<S>(1.7);
            let kernel = kernel.as_ref();
            let want = reference(kernel, &stored, &a_sq, &b_sq);
            let mut cross = Matrix::zeros(n, m);
            let mut prepacked = Matrix::zeros(n, m);
            ep2_runtime::with_budget(threads, || {
                kernel_cross_into(kernel, &a, &b, &a_sq, &b_sq, &mut cross);
                kernel_cross_prepacked_into(kernel, &a, &packed, &a_sq, &b_sq, &mut prepacked);
            });
            let ctx = format!("{kind:?} {} {n}x{m} d={d} at {threads} threads", S::NAME);
            assert_bits_equal(&cross, &want, &format!("kernel_cross_into {ctx}"));
            assert_bits_equal(&prepacked, &want, &format!("prepacked {ctx}"));
        }
    }
}

/// `kernel_matrix` against the reference self-cross with `k(0)` on the
/// diagonal; exactly symmetric, with a unit diagonal.
fn kernel_matrix_leg<S: Scalar>(threads: usize) {
    // One packed shape straddling MC and NR; one multi-slab shape.
    for (n, d) in [(60usize, 37usize), (130, 300)] {
        let x = points::<S>(n, d, 0xC0DE + n as u64);
        let x_sq = row_sq_norms(&x);
        let stored = cross_term(&x, &x);
        for kind in KernelKind::ALL {
            let kernel = kind.with_bandwidth_in::<S>(2.1);
            let kernel = kernel.as_ref();
            let km = ep2_runtime::with_budget(threads, || kernel_matrix(kernel, &x));
            let mut want = reference(kernel, &stored, &x_sq, &x_sq);
            for i in 0..n {
                want[(i, i)] = kernel.of_sq_dist(S::ZERO);
            }
            let ctx = format!(
                "kernel_matrix {kind:?} {} n={n} d={d} at {threads} threads",
                S::NAME
            );
            assert_bits_equal(&km, &want, &ctx);
            for i in 0..n {
                assert_eq!(km[(i, i)].to_f64(), 1.0, "{ctx}: diagonal {i}");
                for j in 0..i {
                    assert_eq!(
                        km[(i, j)].to_f64().to_bits(),
                        km[(j, i)].to_f64().to_bits(),
                        "{ctx}: asymmetric at ({i},{j})"
                    );
                }
            }
        }
    }
}

/// Runs the f32, f64 and bf16 `legs` at `threads`, each if its precision
/// is selected.
fn every_precision(threads: usize, legs: [fn(usize); 3]) {
    for (name, run) in ["f32", "f64", "bf16"].into_iter().zip(legs) {
        if precision_selected(name) {
            run(threads);
        }
    }
}

#[test]
fn assembly_matches_reference_f32() {
    if precision_selected("f32") {
        cross_leg::<f32>(1);
    }
}

#[test]
fn assembly_matches_reference_f64() {
    if precision_selected("f64") {
        cross_leg::<f64>(1);
    }
}

#[test]
fn assembly_matches_reference_bf16() {
    if precision_selected("bf16") {
        cross_leg::<Bf16>(1);
    }
}

#[test]
fn assembly_matches_reference_budget_2() {
    every_precision(2, [cross_leg::<f32>, cross_leg::<f64>, cross_leg::<Bf16>]);
}

#[test]
fn assembly_matches_reference_budget_5() {
    every_precision(5, [cross_leg::<f32>, cross_leg::<f64>, cross_leg::<Bf16>]);
}

#[test]
fn kernel_matrix_matches_reference() {
    every_precision(
        1,
        [
            kernel_matrix_leg::<f32>,
            kernel_matrix_leg::<f64>,
            kernel_matrix_leg::<Bf16>,
        ],
    );
}

#[test]
fn kernel_matrix_matches_reference_budget_3() {
    every_precision(
        3,
        [
            kernel_matrix_leg::<f32>,
            kernel_matrix_leg::<f64>,
            kernel_matrix_leg::<Bf16>,
        ],
    );
}
