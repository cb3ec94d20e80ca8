//! Blocked, multi-threaded kernel-matrix assembly, generic over the element
//! precision [`Scalar`].
//!
//! For radial kernels the `n x m` cross matrix `K[i][j] = k(a_i, b_j)` is
//! assembled as `g(‖a_i‖² + ‖b_j‖² − 2 a_i·b_j)` in two steps: one GEMM
//! ([`blas::gemm_nt`], or [`gemm::gemm_prepacked`] against packed centers)
//! writes the `−2 a_i·b_j` cross terms into the output, then one parallel
//! pass reassembles each `d²` and maps it through the radial profile in
//! place. This is exactly how GPU kernel methods (including the reference
//! EigenPro implementation) compute kernels, so the operation count
//! `(2d + c) · n · m` matches the device cost model: the GEMM is the `2d`,
//! the profile pass the `c`. Instantiated at `f32` this is the paper's
//! actual GPU configuration. Mapping each cache block through the profile
//! inside the GEMM's write-back instead measured no faster on CPU, so the
//! engines store plain products and this module owns the profile.

use crate::Kernel;
use ep2_linalg::gemm::{self, PackedB, View};
use ep2_linalg::{blas, ops, parallel, vmath, Matrix, Scalar};
use std::ops::Range;

/// Assembles the cross kernel matrix `K[i][j] = k(a_i, b_j)` of shape
/// `(a.rows(), b.rows())`.
///
/// # Panics
///
/// Panics if `a.cols() != b.cols()`.
pub fn kernel_cross<S: Scalar>(kernel: &dyn Kernel<S>, a: &Matrix<S>, b: &Matrix<S>) -> Matrix<S> {
    assert_eq!(a.cols(), b.cols(), "kernel_cross: feature dims differ");
    let a_sq = row_sq_norms(a);
    let b_sq = row_sq_norms(b);
    kernel_cross_with_norms(kernel, a, b, &a_sq, &b_sq)
}

/// Squared Euclidean norm of every row (the `‖x‖²` terms of the Gram
/// expansion), accumulated **and kept** in [`Scalar::Accum`] precision:
/// these are error-sensitive quantities (they meet a cancelling `−2 a·b`
/// in the expansion below), so under narrow storage — f32, and especially
/// bf16, whose ulp at a TIMIT-scale `‖x‖² ≈ 400` is ≈ 2 — they must not be
/// rounded back to `S` before the subtraction happens.
pub fn row_sq_norms<S: Scalar>(x: &Matrix<S>) -> Vec<S::Accum> {
    let mut out = Vec::new();
    row_sq_norms_into(x, &mut out);
    out
}

/// [`row_sq_norms`] into a caller-recycled buffer (cleared and refilled) —
/// the zero-allocation variant the serving hot path uses for its per-batch
/// norms. Produces exactly the same values as [`row_sq_norms`].
pub fn row_sq_norms_into<S: Scalar>(x: &Matrix<S>, out: &mut Vec<S::Accum>) {
    out.clear();
    out.extend((0..x.rows()).map(|i| ops::dot_wide(x.row(i), x.row(i))));
}

/// [`kernel_cross`] with the row norms precomputed — the symmetric
/// [`kernel_matrix`] path computes them once and passes them for both sides.
fn kernel_cross_with_norms<S: Scalar>(
    kernel: &dyn Kernel<S>,
    a: &Matrix<S>,
    b: &Matrix<S>,
    a_sq: &[S::Accum],
    b_sq: &[S::Accum],
) -> Matrix<S> {
    let (n, m) = (a.rows(), b.rows());
    let mut k = Matrix::zeros(n, m);
    if n == 0 || m == 0 {
        return k;
    }
    kernel_cross_into(kernel, a, b, a_sq, b_sq, &mut k);
    k
}

/// Tile-wise assembly entry point: computes `out[i][j] = k(a_i, b_j)` into
/// the preallocated `out`, with both sides' squared row norms supplied by
/// the caller.
///
/// This is the out-of-core streaming producer's hot path: the center-side
/// norms `b_sq` are computed once per training run and sliced per tile, and
/// `out` is a recycled ring buffer, so steady-state tile assembly allocates
/// nothing beyond the packed-GEMM arenas.
///
/// # Panics
///
/// Panics if the feature dimensions differ, `out` is not
/// `a.rows() x b.rows()`, or a norm slice is shorter than its side.
pub fn kernel_cross_into<S: Scalar>(
    kernel: &dyn Kernel<S>,
    a: &Matrix<S>,
    b: &Matrix<S>,
    a_sq: &[S::Accum],
    b_sq: &[S::Accum],
    out: &mut Matrix<S>,
) {
    check_shapes(a, b.shape(), a_sq, b_sq, out);
    // -2 A B^T through the packed register-blocked engine (B^T is a stride
    // swap at packing time), then the profile over the stored product.
    blas::gemm_nt(S::from_f64(-2.0), a, b, S::ZERO, out);
    profile_pass(kernel, a_sq, b_sq, out);
}

/// [`kernel_cross_into`] against centers packed once ahead of the call:
/// `b_packed` is [`pack_centers`] of the center rows whose norms are
/// `b_sq`. The GEMM reads the same panels through the same engines and
/// write-back, and the same profile pass follows, so `out` is bitwise
/// [`kernel_cross_into`]'s on those rows; only the per-call strided gather
/// of the centers is gone. This is the serving hot path's assembly.
///
/// # Panics
///
/// Panics if the feature dimensions differ, `out` is not
/// `a.rows() x b_packed.cols()`, or a norm slice is shorter than its side.
pub fn kernel_cross_prepacked_into<S: Scalar>(
    kernel: &dyn Kernel<S>,
    a: &Matrix<S>,
    b_packed: &PackedB<S>,
    a_sq: &[S::Accum],
    b_sq: &[S::Accum],
    out: &mut Matrix<S>,
) {
    check_shapes(a, (b_packed.cols(), b_packed.rows()), a_sq, b_sq, out);
    gemm::gemm_prepacked(
        S::from_f64(-2.0),
        View::row_major(a.as_slice(), a.rows(), a.cols()),
        b_packed,
        S::ZERO,
        out.as_mut_slice(),
    );
    profile_pass(kernel, a_sq, b_sq, out);
}

/// Packs the center rows `rows` of `b` as the right-hand operand of the
/// `-2 A Bᵀ` cross-term product ([`kernel_cross_prepacked_into`]): their
/// transpose, in the GEMM engines' block layout.
///
/// # Panics
///
/// Panics if `rows` runs past `b.rows()`.
pub fn pack_centers<S: Scalar>(b: &Matrix<S>, rows: Range<usize>) -> PackedB<S> {
    let d = b.cols();
    let slice = &b.as_slice()[rows.start * d..rows.end * d];
    PackedB::pack(View::transposed(slice, rows.len(), d))
}

/// Shared shape checks of the assembly entry points (`(m, b_dim)` is the
/// center side's `(rows, features)`).
fn check_shapes<S: Scalar>(
    a: &Matrix<S>,
    (m, b_dim): (usize, usize),
    a_sq: &[S::Accum],
    b_sq: &[S::Accum],
    out: &Matrix<S>,
) {
    assert_eq!(a.cols(), b_dim, "kernel_cross_into: feature dims differ");
    let n = a.rows();
    assert_eq!(out.shape(), (n, m), "kernel_cross_into: bad output shape");
    assert!(a_sq.len() >= n && b_sq.len() >= m, "norm slice too short");
}

/// Entries per work unit of the profile pass: a multiple of
/// [`vmath::BLOCK`], so segments stay full-width inside a row, and small
/// enough that a served batch of a few rows against thousands of centers
/// still spreads over every thread.
const PROFILE_CHUNK: usize = 1024;

/// The profile pass: maps every stored `-2 a_i·b_j` cross term of `out`
/// to `k(a_i, b_j)` in place, in parallel over [`PROFILE_CHUNK`]-entry
/// chunks and, within a chunk, over row segments of at most
/// [`vmath::BLOCK`] entries.
///
/// The squared distance is reassembled at Accum width — the norms never
/// rounded to `S` — and narrows exactly once, going into the radial
/// profile; under bf16 storage each stored entry therefore carries a
/// handful of 2^-8 relative roundings (see README, "Precision"), not an
/// O(‖x‖²)-sized cancellation error. Per entry this is exactly
/// `of_sq_dist(S::from_accum(max(a_sq[i] + b_sq[j] + stored.accum(), 0)))`,
/// so the chunking never changes a bit.
fn profile_pass<S: Scalar>(
    kernel: &dyn Kernel<S>,
    a_sq: &[S::Accum],
    b_sq: &[S::Accum],
    out: &mut Matrix<S>,
) {
    let cols = out.cols();
    parallel::for_each_chunk_mut(out.as_mut_slice(), PROFILE_CHUNK, |off, chunk| {
        let mut d2 = [<S::Compute as Scalar>::ZERO; vmath::BLOCK];
        let mut pos = 0;
        while pos < chunk.len() {
            let (i, j) = ((off + pos) / cols, (off + pos) % cols);
            let len = (cols - j).min(chunk.len() - pos).min(vmath::BLOCK);
            let seg = &mut chunk[pos..pos + len];
            d2_lanes(a_sq[i], &b_sq[j..j + len], seg, &mut d2[..len]);
            kernel.profile_lanes(&d2[..len], seg);
            pos += len;
        }
    });
}

/// Reassembles squared distances for one row segment, lane-batched: widens
/// each stored cross term back to [`Scalar::Accum`], adds the row/column
/// norms, clamps at Accum width, and narrows through storage to
/// [`Scalar::Compute`] with a final nonnegativity clamp — per lane exactly
/// the scalar chain `of_sq_dist(S::from_accum(d2))` runs up to its profile
/// body, as one vectorizable loop.
#[inline]
fn d2_lanes<S: Scalar>(a_sq_i: S::Accum, b_sq: &[S::Accum], stored: &[S], d2: &mut [S::Compute]) {
    for ((d, &bs), &v) in d2.iter_mut().zip(b_sq).zip(stored) {
        let wide = (a_sq_i + bs + v.accum()).max(S::Accum::ZERO);
        *d = S::from_accum(wide)
            .compute()
            .max(<S::Compute as Scalar>::ZERO);
    }
}

/// Assembles the symmetric kernel matrix `K[i][j] = k(x_i, x_j)`: the full
/// cross assembly of `x` against itself, sharing one set of row norms, with
/// the diagonal then set to `k(0)`.
///
/// The result is exactly symmetric with a unit diagonal. No symmetrising
/// pass is needed: entries `(i, j)` and `(j, i)` run the same products
/// through the same per-slab chain, whatever tile each lands in, and the
/// same norms in either order, at every precision.
pub fn kernel_matrix<S: Scalar>(kernel: &dyn Kernel<S>, x: &Matrix<S>) -> Matrix<S> {
    let x_sq = row_sq_norms(x);
    let n = x.rows();
    let mut k = kernel_cross_with_norms(kernel, x, x, &x_sq, &x_sq);
    for i in 0..n {
        k[(i, i)] = kernel.of_sq_dist(S::ZERO);
    }
    k
}

/// Evaluates the kernel feature map `φ(z) = (k(c_1, z), …, k(c_s, z))` for
/// every row `z` of `points` against the rows of `centers`; returns an
/// `(points.rows(), centers.rows())` matrix.
///
/// This is Step 4 of Algorithm 1 in the paper.
///
/// # Panics
///
/// Panics if the feature dimensions differ.
pub fn feature_map<S: Scalar>(
    kernel: &dyn Kernel<S>,
    centers: &Matrix<S>,
    points: &Matrix<S>,
) -> Matrix<S> {
    kernel_cross(kernel, points, centers)
}

/// `β(K) = max_i k(x_i, x_i)` for a plain kernel — identically
/// `k(0) = 1` for the normalised radial kernels in this crate, but computed
/// from data for API symmetry with the preconditioned case.
pub fn beta<S: Scalar>(kernel: &dyn Kernel<S>, x: &Matrix<S>) -> S {
    (0..x.rows())
        .map(|i| kernel.eval(x.row(i), x.row(i)))
        .fold(S::ZERO, S::max)
}

/// Operation count of assembling an `n x m` kernel block over `d` features:
/// the paper counts `(d + l)·m·n` for a full SGD step; the kernel-assembly
/// share is `d·m·n` (one multiply-add per feature per entry).
pub fn assembly_ops(n: usize, m: usize, d: usize) -> f64 {
    n as f64 * m as f64 * d as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GaussianKernel, LaplacianKernel};

    fn points(n: usize, d: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(n, d, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    #[test]
    fn matches_pairwise_eval() {
        let k = GaussianKernel::new(1.3);
        let x = points(23, 7, 5);
        let km = kernel_matrix(&k, &x);
        for i in 0..23 {
            for j in 0..23 {
                let direct = k.eval(x.row(i), x.row(j));
                assert!(
                    (km[(i, j)] - direct).abs() < 1e-12,
                    "mismatch at ({i},{j}): {} vs {direct}",
                    km[(i, j)]
                );
            }
        }
    }

    #[test]
    fn cross_matches_pairwise_eval() {
        let k = LaplacianKernel::new(2.0);
        let a = points(11, 5, 1);
        let b = points(17, 5, 2);
        let kc = kernel_cross(&k, &a, &b);
        assert_eq!(kc.shape(), (11, 17));
        for i in 0..11 {
            for j in 0..17 {
                let direct = k.eval(a.row(i), b.row(j));
                assert!((kc[(i, j)] - direct).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn f32_assembly_matches_f64_to_single_eps() {
        let k = GaussianKernel::new(1.5);
        let a = points(13, 6, 7);
        let b = points(9, 6, 8);
        let kc64 = kernel_cross(&k, &a, &b);
        let kc32 = kernel_cross::<f32>(&k, &a.cast(), &b.cast());
        for i in 0..13 {
            for j in 0..9 {
                // d ≈ 6-term f32 reductions through a Lipschitz profile:
                // agreement to ~1e-5 absolute (kernel values are in (0, 1]).
                assert!(
                    (kc32[(i, j)] as f64 - kc64[(i, j)]).abs() < 1e-5,
                    "({i},{j}): {} vs {}",
                    kc32[(i, j)],
                    kc64[(i, j)]
                );
            }
        }
    }

    #[test]
    fn tiled_assembly_matches_full_cross() {
        // Column tiles assembled into recycled buffers via
        // `kernel_cross_into` (the streaming producer's path) reproduce the
        // one-shot cross matrix exactly: same GEMM, same norms.
        let k = GaussianKernel::new(1.8);
        let a = points(9, 6, 21);
        let b = points(50, 6, 22);
        let full = kernel_cross(&k, &a, &b);
        let a_sq = row_sq_norms(&a);
        let b_sq = row_sq_norms(&b);
        for n_tile in [1usize, 7, 16, 17, 50, 64] {
            let mut j0 = 0;
            while j0 < b.rows() {
                let len = n_tile.min(b.rows() - j0);
                let b_tile = b.submatrix(j0, 0, len, b.cols());
                let mut out = Matrix::zeros(a.rows(), len);
                kernel_cross_into(&k, &a, &b_tile, &a_sq, &b_sq[j0..j0 + len], &mut out);
                for i in 0..a.rows() {
                    for j in 0..len {
                        assert_eq!(
                            out[(i, j)],
                            full[(i, j0 + j)],
                            "tile width {n_tile}, entry ({i},{})",
                            j0 + j
                        );
                    }
                }
                j0 += len;
            }
        }
    }

    fn prepacked_matches_per_call<S: Scalar>(rows: usize, n: usize, d: usize) {
        let k = GaussianKernel::new(1.7);
        let kernel: &dyn Kernel<S> = &k;
        let a: Matrix<S> = points(rows, d, 31).cast();
        let b: Matrix<S> = points(n, d, 32).cast();
        let (a_sq, b_sq) = (row_sq_norms(&a), row_sq_norms(&b));
        let j0 = n / 3;
        let tile = b.submatrix(j0, 0, n - j0, d);
        let mut want = Matrix::zeros(rows, n - j0);
        kernel_cross_into(kernel, &a, &tile, &a_sq, &b_sq[j0..], &mut want);
        let packed = pack_centers(&b, j0..n);
        let mut got = Matrix::zeros(rows, n - j0);
        kernel_cross_prepacked_into(kernel, &a, &packed, &a_sq, &b_sq[j0..], &mut got);
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(g.to_f64().to_bits(), w.to_f64().to_bits(), "entry {i}");
        }
    }

    #[test]
    fn prepacked_assembly_matches_per_call_bitwise() {
        // One row (small-product shape) and a multi-slab, multi-block shape.
        for &(rows, n, d) in &[(1, 40, 6), (9, 700, 300)] {
            prepacked_matches_per_call::<f32>(rows, n, d);
            prepacked_matches_per_call::<f64>(rows, n, d);
            prepacked_matches_per_call::<ep2_linalg::Bf16>(rows, n, d);
        }
    }

    #[test]
    fn bf16_kernel_matrix_is_the_full_assembly() {
        // The cross matrix of `x` against itself is exactly symmetric at
        // bf16 too, so `kernel_matrix` needs no symmetrising pass.
        let k = GaussianKernel::new(1.1);
        let kernel: &dyn Kernel<ep2_linalg::Bf16> = &k;
        let x: Matrix<ep2_linalg::Bf16> = points(70, 300, 41).cast();
        let km = kernel_matrix(kernel, &x);
        let mut full = kernel_cross(kernel, &x, &x);
        for i in 0..70 {
            full[(i, i)] = kernel.of_sq_dist(ep2_linalg::Bf16::ZERO);
        }
        assert_eq!(full.asymmetry().to_f64(), 0.0);
        for (i, (a, b)) in km.as_slice().iter().zip(full.as_slice()).enumerate() {
            assert_eq!(a.to_f64().to_bits(), b.to_f64().to_bits(), "entry {i}");
        }
    }

    #[test]
    fn symmetric_unit_diagonal() {
        let k = GaussianKernel::new(0.7);
        let x = points(31, 4, 9);
        let km = kernel_matrix(&k, &x);
        assert_eq!(km.asymmetry(), 0.0);
        for i in 0..31 {
            assert_eq!(km[(i, i)], 1.0);
        }
    }

    #[test]
    fn kernel_matrix_is_psd() {
        // All eigenvalues of a Gaussian kernel matrix are ≥ 0.
        let k = GaussianKernel::new(1.0);
        let x = points(20, 3, 11);
        let km = kernel_matrix(&k, &x);
        let dec = ep2_linalg::eigen::sym_eig(&km).unwrap();
        for &v in &dec.values {
            assert!(v > -1e-10, "negative eigenvalue {v}");
        }
    }

    #[test]
    fn beta_is_one_for_normalised_kernels() {
        let x = points(10, 3, 13);
        assert_eq!(beta(&GaussianKernel::new(2.0), &x), 1.0);
        assert_eq!(beta(&LaplacianKernel::new(2.0), &x), 1.0);
    }

    #[test]
    fn feature_map_shape() {
        let k = GaussianKernel::new(1.0);
        let centers = points(6, 4, 3);
        let batch = points(3, 4, 4);
        let phi = feature_map(&k, &centers, &batch);
        assert_eq!(phi.shape(), (3, 6));
        assert!((phi[(0, 0)] - k.eval(batch.row(0), centers.row(0))).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        let k = GaussianKernel::new(1.0);
        let x: Matrix = Matrix::zeros(0, 5);
        let y = points(3, 5, 1);
        assert_eq!(kernel_cross(&k, &x, &y).shape(), (0, 3));
    }

    #[test]
    fn far_apart_points_near_zero() {
        let k = GaussianKernel::new(0.1);
        let a = Matrix::from_rows(&[&[0.0, 0.0]]);
        let b = Matrix::from_rows(&[&[100.0, 100.0]]);
        assert!(kernel_cross(&k, &a, &b)[(0, 0)] < 1e-300);
    }
}
