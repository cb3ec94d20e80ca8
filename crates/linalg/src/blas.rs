//! Level-2/3 dense routines: register-blocked `gemv`, packed cache-tiled
//! `gemm`, and the transpose-product variants the rest of the stack needs —
//! generic over the element precision [`Scalar`].
//!
//! All matrices are row-major [`Matrix`] values. Every matrix product
//! (`gemm`, [`gemm_tn`], [`gemm_nt`]) runs through the BLIS-style packed
//! engine in [`crate::gemm`]: operands are packed once into L1/L2-sized
//! zero-padded panels (`MC/KC/NC` blocking) and consumed by an `MR x NR`
//! register microkernel (6x16 lanes at `f32`, 8x8 at `f64` — see
//! [`Scalar::microkernel`]), with the rows of `C` split over the runtime's
//! worker pool. Products store plain results: kernel assembly runs
//! [`gemm_nt`] and then maps its output through the radial profile in a
//! pass of its own. That register tile is what makes the device
//! simulator's cost model (`flops = 2 m k n`) an honest description of
//! this code: measured at two threads (see `BENCH_gemm.json`) the packed
//! f32 kernel sustains ~135 Gflop/s at 4096² — 13.6x the seed axpy GEMM
//! it replaced and ~1.8x the packed f64 rate — which is where the paper's
//! single-precision speedup comes from on CPU.
//!
//! The seed `i-k-j` axpy implementation is kept as [`gemm_axpy`] — it is the
//! baseline the benches compare against and a second reference for the
//! property tests.

use crate::gemm::{gemm_auto, View};
use crate::ops;
use crate::parallel;
use crate::scalar::Scalar;
use crate::Matrix;

/// `y <- alpha * A x + beta * y`, register-blocked over 4-row panels of `A`
/// (the row-panel analogue of the GEMM microkernel: four dot products share
/// each streamed chunk of `x`, quadrupling its register reuse and keeping
/// four independent vector accumulator chains in flight). `A` itself is
/// streamed exactly once, so — unlike GEMM — packing it would only add
/// traffic; the panel kernel reads the row-major storage directly.
///
/// # Panics
///
/// Panics if `x.len() != a.cols()` or `y.len() != a.rows()`.
pub fn gemv<S: Scalar>(alpha: S, a: &Matrix<S>, x: &[S], beta: S, y: &mut [S]) {
    assert_eq!(x.len(), a.cols(), "gemv: x length mismatch");
    assert_eq!(y.len(), a.rows(), "gemv: y length mismatch");
    let k = a.cols();
    let mut panels = y.chunks_exact_mut(4);
    let mut i0 = 0;
    for y4 in panels.by_ref() {
        let r = |i: usize| a.row(i0 + i);
        let (r0, r1, r2, r3) = (r(0), r(1), r(2), r(3));
        // Four dots at once, each with a 4-lane accumulator.
        let mut acc = [[S::ZERO; 4]; 4];
        let chunks = k / 4;
        for c in 0..chunks {
            let p = c * 4;
            let xc = &x[p..p + 4];
            for (row, accr) in [r0, r1, r2, r3].iter().zip(acc.iter_mut()) {
                let rc = &row[p..p + 4];
                for l in 0..4 {
                    accr[l] += rc[l] * xc[l];
                }
            }
        }
        for (yi, (row, accr)) in y4
            .iter_mut()
            .zip([r0, r1, r2, r3].iter().zip(acc.iter_mut()))
        {
            let mut tail = S::ZERO;
            for p in chunks * 4..k {
                tail += row[p] * x[p];
            }
            let dot = (accr[0] + accr[1]) + (accr[2] + accr[3]) + tail;
            *yi = alpha * dot + beta * *yi;
        }
        i0 += 4;
    }
    for (i, yi) in panels.into_remainder().iter_mut().enumerate() {
        let row_dot = ops::dot(a.row(i0 + i), x);
        *yi = alpha * row_dot + beta * *yi;
    }
}

/// `y <- alpha * A^T x + beta * y`, column-panel blocked: rows of `A` are
/// consumed four at a time so each pass over `y` applies four fused axpys
/// (4x less `y` load/store traffic than row-at-a-time). The `beta` scaling
/// is never a separate sweep: it is skipped outright when `beta == 1` and
/// otherwise fused into the first update pass over `y`.
///
/// # Panics
///
/// Panics if `x.len() != a.rows()` or `y.len() != a.cols()`.
pub fn gemv_t<S: Scalar>(alpha: S, a: &Matrix<S>, x: &[S], beta: S, y: &mut [S]) {
    assert_eq!(x.len(), a.rows(), "gemv_t: x length mismatch");
    assert_eq!(y.len(), a.cols(), "gemv_t: y length mismatch");
    let m = a.rows();
    let mut i0 = 0;
    let w0 = if m > 0 { alpha * x[0] } else { S::ZERO };
    if beta != S::ONE {
        if w0 == S::ZERO {
            crate::gemm::scale_stripe(y, beta);
            i0 = m.min(1); // row 0 (if any) contributes nothing
        } else {
            // Fuse the scale into the first axpy: one pass computes
            // y <- beta*y + w0*row0 (a plain overwrite when beta == 0).
            let row0 = a.row(0);
            if beta == S::ZERO {
                for (yv, &av) in y.iter_mut().zip(row0) {
                    *yv = w0 * av;
                }
            } else {
                for (yv, &av) in y.iter_mut().zip(row0) {
                    *yv = beta * *yv + w0 * av;
                }
            }
            i0 = 1;
        }
    }
    if alpha == S::ZERO {
        return;
    }
    // Four fused row-updates per pass over y.
    while i0 + 4 <= m {
        let w: [S; 4] = [
            alpha * x[i0],
            alpha * x[i0 + 1],
            alpha * x[i0 + 2],
            alpha * x[i0 + 3],
        ];
        if w.contains(&S::ZERO) {
            // Preserve the exact skip-zero-weight semantics of the scalar
            // path (0 * non-finite would otherwise inject NaNs).
            for (di, &wi) in w.iter().enumerate() {
                if wi != S::ZERO {
                    ops::axpy(wi, a.row(i0 + di), y);
                }
            }
        } else {
            let (r0, r1, r2, r3) = (a.row(i0), a.row(i0 + 1), a.row(i0 + 2), a.row(i0 + 3));
            for (j, yv) in y.iter_mut().enumerate() {
                *yv += w[0] * r0[j] + w[1] * r1[j] + w[2] * r2[j] + w[3] * r3[j];
            }
        }
        i0 += 4;
    }
    for (i, &xi) in x.iter().enumerate().skip(i0) {
        let w = alpha * xi;
        if w != S::ZERO {
            ops::axpy(w, a.row(i), y);
        }
    }
}

/// `C <- alpha * A B + beta * C` through the packed register-blocked engine
/// ([`crate::gemm`]), multi-threaded over MR-aligned row stripes of `C`.
///
/// # Panics
///
/// Panics if the shapes are incompatible
/// (`a.cols() != b.rows()`, `c.shape() != (a.rows(), b.cols())`).
pub fn gemm<S: Scalar>(alpha: S, a: &Matrix<S>, b: &Matrix<S>, beta: S, c: &mut Matrix<S>) {
    assert_eq!(a.cols(), b.rows(), "gemm: inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "gemm: C row mismatch");
    assert_eq!(c.cols(), b.cols(), "gemm: C col mismatch");
    let (m, k) = (a.rows(), a.cols());
    let n = b.cols();
    gemm_auto(
        alpha,
        View::row_major(a.as_slice(), m, k),
        View::row_major(b.as_slice(), k, n),
        beta,
        c.as_mut_slice(),
    );
}

/// The seed `i-k-j` axpy GEMM (`C <- alpha * A B + beta * C`), kept as the
/// measured baseline for the packed engine and as a second reference
/// implementation for the property tests. Parallel over row panels of `C`;
/// no packing, no register blocking — each row of `C` re-streams all of `B`.
///
/// # Panics
///
/// Same shape requirements as [`gemm`].
pub fn gemm_axpy<S: Scalar>(alpha: S, a: &Matrix<S>, b: &Matrix<S>, beta: S, c: &mut Matrix<S>) {
    assert_eq!(a.cols(), b.rows(), "gemm: inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "gemm: C row mismatch");
    assert_eq!(c.cols(), b.cols(), "gemm: C col mismatch");
    let (k, n) = (a.cols(), b.cols());
    if a.rows() == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if beta != S::ONE {
            for v in c.as_mut_slice() {
                *v *= beta;
            }
        }
        return;
    }
    // Panel of rows per task: big enough to amortise spawn cost, small enough
    // to balance load.
    let panel = (a.rows().div_ceil(parallel::num_threads() * 4)).clamp(8, 256);
    let chunk_len = panel * n;
    let b_data = b.as_slice();
    parallel::for_each_chunk_mut(c.as_mut_slice(), chunk_len, |off, c_chunk| {
        let row0 = off / n;
        let rows_here = c_chunk.len() / n;
        for (local_i, c_row) in c_chunk.chunks_mut(n).enumerate() {
            let i = row0 + local_i;
            if beta == S::ZERO {
                c_row.fill(S::ZERO);
            } else if beta != S::ONE {
                for v in c_row.iter_mut() {
                    *v *= beta;
                }
            }
            let a_row = a.row(i);
            // i-k-j: stream row p of B, accumulate into row i of C.
            for (p, &aip) in a_row.iter().enumerate() {
                let w = alpha * aip;
                if w != S::ZERO {
                    let b_row = &b_data[p * n..(p + 1) * n];
                    ops::axpy(w, b_row, c_row);
                }
            }
        }
        debug_assert_eq!(rows_here * n, c_chunk.len());
    });
}

/// Convenience product `A B` allocating the result.
pub fn matmul<S: Scalar>(a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    gemm(S::ONE, a, b, S::ZERO, &mut c);
    c
}

/// `C <- alpha * A^T B + beta * C` without materialising `A^T`: the packed
/// engine reads `A` through a transposed (stride-swapped) view, so the
/// transpose costs nothing beyond the packing pass every operand already
/// pays.
///
/// # Panics
///
/// Panics if the shapes are incompatible
/// (`a.rows() != b.rows()`, `c.shape() != (a.cols(), b.cols())`).
pub fn gemm_tn<S: Scalar>(alpha: S, a: &Matrix<S>, b: &Matrix<S>, beta: S, c: &mut Matrix<S>) {
    assert_eq!(a.rows(), b.rows(), "gemm_tn: inner dimension mismatch");
    assert_eq!(c.rows(), a.cols(), "gemm_tn: C row mismatch");
    assert_eq!(c.cols(), b.cols(), "gemm_tn: C col mismatch");
    gemm_auto(
        alpha,
        View::transposed(a.as_slice(), a.rows(), a.cols()),
        View::row_major(b.as_slice(), b.rows(), b.cols()),
        beta,
        c.as_mut_slice(),
    );
}

/// `C <- alpha * A B^T + beta * C` without materialising `B^T` (stride-swap
/// at packing time, like [`gemm_tn`] — this is the `-2 A B^T` cross-term of
/// every kernel-matrix assembly).
///
/// # Panics
///
/// Panics if the shapes are incompatible
/// (`a.cols() != b.cols()`, `c.shape() != (a.rows(), b.rows())`).
pub fn gemm_nt<S: Scalar>(alpha: S, a: &Matrix<S>, b: &Matrix<S>, beta: S, c: &mut Matrix<S>) {
    assert_eq!(a.cols(), b.cols(), "gemm_nt: inner dimension mismatch");
    assert_eq!(c.rows(), a.rows(), "gemm_nt: C row mismatch");
    assert_eq!(c.cols(), b.rows(), "gemm_nt: C col mismatch");
    gemm_auto(
        alpha,
        View::row_major(a.as_slice(), a.rows(), a.cols()),
        View::transposed(b.as_slice(), b.rows(), b.cols()),
        beta,
        c.as_mut_slice(),
    );
}

/// Outer-product update `A <- A + alpha * x y^T` (BLAS `ger`).
///
/// # Panics
///
/// Panics if `x.len() != a.rows()` or `y.len() != a.cols()`.
pub fn ger<S: Scalar>(alpha: S, x: &[S], y: &[S], a: &mut Matrix<S>) {
    assert_eq!(x.len(), a.rows(), "ger: x length mismatch");
    assert_eq!(y.len(), a.cols(), "ger: y length mismatch");
    for (i, &xi) in x.iter().enumerate() {
        let w = alpha * xi;
        if w != S::ZERO {
            ops::axpy(w, y, a.row_mut(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut s = 0.0;
                for p in 0..a.cols() {
                    s += a[(i, p)] * b[(p, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    fn test_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        // Simple deterministic LCG fill; no rand dependency needed here.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(r, c, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn gemv_identity() {
        let a: Matrix = Matrix::identity(5);
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut y = [0.0; 5];
        gemv(1.0, &a, &x, 0.0, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn gemv_alpha_beta() {
        let a = Matrix::from_rows(&[&[1.0, 1.0]]);
        let mut y = [10.0];
        gemv(2.0, &a, &[1.0, 2.0], 3.0, &mut y);
        assert_eq!(y, [36.0]); // 2*3 + 3*10
    }

    #[test]
    fn gemv_t_matches_transpose() {
        let a = test_matrix(7, 4, 3);
        let x: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let mut y1 = vec![0.0; 4];
        gemv_t(1.0, &a, &x, 0.0, &mut y1);
        let at = a.transpose();
        let mut y2 = vec![0.0; 4];
        gemv(1.0, &at, &x, 0.0, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn gemm_matches_naive() {
        let a = test_matrix(33, 17, 1);
        let b = test_matrix(17, 29, 2);
        let c = matmul(&a, &b);
        let c_ref = naive_matmul(&a, &b);
        for i in 0..c.rows() {
            for j in 0..c.cols() {
                assert!((c[(i, j)] - c_ref[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn gemm_large_parallel_matches_naive() {
        let a = test_matrix(301, 64, 5);
        let b = test_matrix(64, 77, 6);
        let c = matmul(&a, &b);
        let c_ref = naive_matmul(&a, &b);
        let diff = (0..c.rows())
            .flat_map(|i| (0..c.cols()).map(move |j| (i, j)))
            .map(|(i, j)| (c[(i, j)] - c_ref[(i, j)]).abs())
            .fold(0.0_f64, f64::max);
        assert!(diff < 1e-10, "max diff {diff}");
    }

    #[test]
    fn gemm_f32_close_to_f64() {
        let a = test_matrix(24, 31, 8);
        let b = test_matrix(31, 19, 9);
        let c64 = matmul(&a, &b);
        let c32 = matmul(&a.cast::<f32>(), &b.cast::<f32>());
        for i in 0..24 {
            for j in 0..19 {
                // 31-term f32 accumulation of O(1) entries: error well below
                // k·eps_f32 ≈ 4e-6 relative.
                assert!((c32[(i, j)] as f64 - c64[(i, j)]).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn gemm_beta_accumulates() {
        let a: Matrix = Matrix::identity(3);
        let b: Matrix = Matrix::identity(3);
        let mut c = Matrix::filled(3, 3, 1.0);
        gemm(2.0, &a, &b, 0.5, &mut c);
        assert_eq!(c[(0, 0)], 2.5);
        assert_eq!(c[(0, 1)], 0.5);
    }

    #[test]
    fn gemm_zero_inner_dim_scales_c() {
        let a: Matrix = Matrix::zeros(2, 0);
        let b: Matrix = Matrix::zeros(0, 2);
        let mut c = Matrix::filled(2, 2, 4.0);
        gemm(1.0, &a, &b, 0.25, &mut c);
        assert_eq!(c[(1, 1)], 1.0);
    }

    #[test]
    fn gemm_tn_matches_explicit_transpose() {
        let a = test_matrix(19, 6, 7);
        let b = test_matrix(19, 8, 8);
        let mut c = Matrix::zeros(6, 8);
        gemm_tn(1.0, &a, &b, 0.0, &mut c);
        let c_ref = naive_matmul(&a.transpose(), &b);
        for i in 0..6 {
            for j in 0..8 {
                assert!((c[(i, j)] - c_ref[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn gemm_nt_matches_explicit_transpose() {
        let a = test_matrix(9, 6, 9);
        let b = test_matrix(11, 6, 10);
        let mut c = Matrix::zeros(9, 11);
        gemm_nt(1.0, &a, &b, 0.0, &mut c);
        let c_ref = naive_matmul(&a, &b.transpose());
        for i in 0..9 {
            for j in 0..11 {
                assert!((c[(i, j)] - c_ref[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn ger_rank_one() {
        let mut a: Matrix = Matrix::zeros(2, 3);
        ger(2.0, &[1.0, 2.0], &[1.0, 0.0, 1.0], &mut a);
        assert_eq!(a.row(0), &[2.0, 0.0, 2.0]);
        assert_eq!(a.row(1), &[4.0, 0.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn gemm_shape_mismatch_panics() {
        let a: Matrix = Matrix::zeros(2, 3);
        let b: Matrix = Matrix::zeros(2, 3);
        let mut c = Matrix::zeros(2, 3);
        gemm(1.0, &a, &b, 0.0, &mut c);
    }
}
