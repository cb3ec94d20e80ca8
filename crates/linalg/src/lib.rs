//! # ep2-linalg — dense linear algebra substrate for the EigenPro 2.0 reproduction
//!
//! This crate provides everything the kernel-machine stack needs from linear
//! algebra, implemented from scratch with no external BLAS/LAPACK, and
//! **generic over the element precision** via the [`Scalar`] trait
//! (`f32`/`f64`):
//!
//! - [`Scalar`]: the precision abstraction. Hot paths compute natively in
//!   the chosen precision; error-sensitive reductions and eigensolves carry
//!   a higher-precision accumulator ([`Scalar::Accum`]).
//! - [`Matrix`]: a dense, row-major matrix (`Matrix<S>`, default `f64`) with
//!   cache-friendly access.
//! - [`blas`]: level-1/2/3 routines — `dot`, `axpy`, a register-blocked
//!   [`blas::gemv`], and the packed cache-tiled [`blas::gemm`] family.
//! - [`gemm`]: the BLIS-style blocked GEMM engine behind [`blas`] — packed
//!   `MC/KC/NC` panels driving the per-precision `MR x NR` register
//!   microkernels ([`Scalar::microkernel`]: 6x16 at `f32`, 8x8 at `f64`).
//! - [`eigen`]: a dense symmetric eigensolver (Householder tridiagonalisation
//!   followed by implicit-shift QL), the workhorse for Nyström subsample
//!   eigensystems — always solved in `f64` internally.
//! - [`subspace`]: an iterative top-`q` eigensolver for large symmetric
//!   operators (randomized subspace iteration).
//! - [`cholesky`]: Cholesky factorisation and triangular solves (used by the
//!   FALKON baseline and the exact interpolation solver).
//! - [`pca`]: principal component analysis (the paper reduces ImageNet
//!   features to their top PCA components).
//!
//! # Example
//!
//! ```
//! use ep2_linalg::{Matrix, blas};
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let mut c = Matrix::zeros(2, 2);
//! blas::gemm(1.0, &a, &b, 0.0, &mut c);
//! assert_eq!(c, a);
//!
//! // The same routines, single precision:
//! let a32: Matrix<f32> = a.cast();
//! let c32 = blas::matmul(&a32, &Matrix::<f32>::identity(2));
//! assert_eq!(c32, a32);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod error;
mod matrix;
mod scalar;

pub mod blas;
pub mod cholesky;
pub mod eigen;
pub mod gemm;
pub mod ops;
pub mod parallel;
pub mod pca;
pub mod qr;
pub mod subspace;
pub mod vmath;

pub use error::LinalgError;
pub use matrix::Matrix;
pub use scalar::{cast_slice, Bf16, Scalar};

/// A symmetric linear operator `y = A x` on `R^n` over scalars `S`
/// (default `f64`, so existing `dyn SymOp` bounds keep their meaning).
///
/// The iterative eigensolver ([`subspace`]) only touches the operator
/// through matrix–vector products, so large kernel matrices never need to be
/// materialised.
pub trait SymOp<S: Scalar = f64> {
    /// Dimension `n` of the operator.
    fn dim(&self) -> usize;

    /// Computes `y = A x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != self.dim()` or
    /// `y.len() != self.dim()`.
    fn apply(&self, x: &[S], y: &mut [S]);
}

impl<S: Scalar> SymOp<S> for Matrix<S> {
    fn dim(&self) -> usize {
        debug_assert_eq!(self.rows(), self.cols(), "SymOp requires a square matrix");
        self.rows()
    }

    fn apply(&self, x: &[S], y: &mut [S]) {
        blas::gemv(S::ONE, self, x, S::ZERO, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symop() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let x = [1.0, 1.0];
        let mut y = [0.0, 0.0];
        a.apply(&x, &mut y);
        assert_eq!(y, [3.0, 3.0]);
    }

    #[test]
    fn f32_matrix_is_symop() {
        let a: Matrix<f32> = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).cast();
        let x = [1.0_f32, 1.0];
        let mut y = [0.0_f32, 0.0];
        a.apply(&x, &mut y);
        assert_eq!(y, [3.0_f32, 3.0]);
    }
}
