//! The Nyström EigenPro preconditioner (Section 4 of the paper), generic
//! over the training precision `S`.
//!
//! The improved EigenPro iteration approximates the top-`q` eigensystem of
//! the kernel operator from a *subsample* kernel matrix
//! `K_s = [k(x_{r_i}, x_{r_j})]` over `s` of the `n` training points, and
//! represents eigenfunctions in the span of those `s` points only. This
//! section's two facts drive everything:
//!
//! - **Eigenvalue transfer**: `λ_i ≈ σ_i / s`, where `σ_i` are eigenvalues
//!   of `K_s` and `λ_i` those of the *normalised* kernel matrix `K/n`.
//! - **Nyström extension**: the eigenfunction evaluates as
//!   `ψ_i(x) ≈ (1/σ_i) e_iᵀ φ(x)` with `φ(x) = (k(x_{r_1}, x), …)` and
//!   `e_i` the unit-norm eigenvector of `K_s`.
//!
//! The preconditioner damps the top-`q` spectral directions: its diagonal
//! matrix is `D = Σ^{-1}(1 − τ Σ^{-1})` with `Σ = diag(σ_1 … σ_q)` and
//! `τ = σ_{q+1}` the damping target (the `(q+1)`-th eigenvalue; the paper's
//! Algorithm 1 writes `σ_q` — using the next eigenvalue matches the
//! reference EigenPro implementation and makes `λ₁(K_G) = σ_{q+1}/s` exact;
//! by Remark 3.1 the off-by-one is immaterial).
//!
//! **Precision split.** Bulk data — subsample centers, eigen*vectors*, the
//! feature maps and corrections they multiply — lives in `S` (that is the
//! per-iteration hot path). Eigen*values*, the damping diagonal `D`, and
//! every derived spectral quantity (`λ₁`, `β`, probe estimates) are carried
//! in `f64` regardless of `S`: they are `O(q)` scalars that feed the
//! analytic step size, where f32 rounding would be structural error rather
//! than noise. Eigensolves always run in `f64` internally
//! (`ep2_linalg::eigen::sym_eig_f64`).

use std::sync::Arc;

use ep2_kernels::{matrix as kmat, Kernel};
use ep2_linalg::{blas, eigen, subspace, Matrix, Scalar};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::CoreError;

/// Above this subsample size the dense `O(s³)` eigensolver is replaced by
/// randomized subspace iteration on `K_s`.
const DENSE_EIG_THRESHOLD: usize = 2048;

/// Largest probe-subset size whose transient `probe x probe` kernel matrix
/// fits within `elements` matrix-element slots.
///
/// Setup-time transients (the `λ₁(K_G)` power-iteration probe, the `β(K_G)`
/// diagonal sample) are not ledger-charged — they are released before the
/// training loop starts — but under the out-of-core `Streamed` residency
/// they should not *grow* past the device either: a probe block much bigger
/// than the device defeats the point of streaming. `autotune::plan_streamed`
/// clamps its probe and β-sample sizes with this cap. The clamp floors at
/// the subsample size `s` (a probe below `s` is meaningless), so the
/// `s x s` subsample block — Step 2's irreducible setup transient — is the
/// caller's responsibility: choose `s ≲ sqrt(S_G)` when setup must also fit.
pub fn probe_cap_for_elements(elements: f64) -> usize {
    if elements <= 1.0 {
        1
    } else {
        elements.sqrt().floor() as usize
    }
}

/// The eigensystem of a subsample kernel matrix: the raw material for both
/// the preconditioner and the Eq.-(7) choice of `q`.
#[derive(Debug, Clone)]
pub struct SubsampleEigens<S: Scalar = f64> {
    /// Indices of the `s` subsampled training rows (the "fixed coordinate
    /// block" of Algorithm 1).
    pub indices: Vec<usize>,
    /// The `s x d` subsample feature matrix.
    pub centers: Matrix<S>,
    /// Eigenvalues `σ_1 ≥ σ_2 ≥ …` of `K_s` (all `s` when the dense solver
    /// ran, the requested top block otherwise) — always `f64`.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors (`s x values.len()`), stored in `S` for the
    /// hot-path GEMMs.
    pub vectors: Matrix<S>,
}

/// `min(n, s)` distinct rows of `0..n`, drawn by a seeded shuffle and
/// sorted so a gather reads forward: the subsample rule, also used for the
/// trainer's per-run probe.
pub(crate) fn sample_rows(n: usize, s: usize, seed: u64) -> Vec<usize> {
    let mut rows: Vec<usize> = (0..n).collect();
    rows.shuffle(&mut StdRng::seed_from_u64(seed));
    rows.truncate(s);
    rows.sort_unstable();
    rows
}

impl<S: Scalar> SubsampleEigens<S> {
    /// Subsamples `s` rows of `x` (without replacement, seeded) and
    /// computes the eigensystem of their kernel matrix.
    ///
    /// `top` limits how many eigenpairs are computed when the iterative
    /// solver is used; the dense solver (for `s ≤ 2048`) always returns the
    /// full spectrum, which [`crate::autotune`] wants for selecting `q`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `s == 0` or `s > n`, and
    /// propagates eigensolver failures.
    pub fn compute(
        kernel: &Arc<dyn Kernel<S>>,
        x: &Matrix<S>,
        s: usize,
        top: usize,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let n = x.rows();
        if s == 0 || s > n {
            return Err(CoreError::InvalidConfig {
                message: format!("subsample size s = {s} must be in 1..={n}"),
            });
        }
        let indices = sample_rows(n, s, seed);
        let centers = x.select_rows(&indices);
        let ks = kmat::kernel_matrix(kernel.as_ref(), &centers);
        let (values, vectors) = if s <= DENSE_EIG_THRESHOLD {
            // Dense path: solve in f64 (the Accum contract), keep vectors
            // in the training precision for the hot-path GEMMs.
            let dec = eigen::sym_eig_f64(&ks)?;
            (dec.values, dec.vectors.cast::<S>())
        } else {
            let top = top.clamp(1, s);
            let cfg = subspace::SubspaceConfig {
                seed,
                ..subspace::SubspaceConfig::default()
            };
            let (vals, vecs) = subspace::top_q_eig(&ks, top, &cfg)?;
            (vals, vecs)
        };
        Ok(SubsampleEigens {
            indices,
            centers,
            values,
            vectors,
        })
    }

    /// Subsample size `s`.
    pub fn s(&self) -> usize {
        self.indices.len()
    }

    /// Nyström estimate `λ_i ≈ σ_i / s` of the `i`-th eigenvalue of the
    /// normalised kernel matrix `K/n` (0-based `i`).
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the computed spectrum.
    pub fn lambda(&self, i: usize) -> f64 {
        self.values[i] / self.s() as f64
    }

    /// Converts the bulk buffers to another precision (eigenvalues are
    /// already precision-independent `f64`).
    pub fn cast<T: Scalar>(&self) -> SubsampleEigens<T> {
        SubsampleEigens {
            indices: self.indices.clone(),
            centers: self.centers.cast(),
            values: self.values.clone(),
            vectors: self.vectors.cast(),
        }
    }
}

/// Default damping exponent `α` (see [`Preconditioner::from_eigens_damped`])
/// — the value the reference EigenPro implementation ships with.
pub const DEFAULT_DAMPING: f64 = 0.95;

/// The fitted EigenPro preconditioner `P_q`.
#[derive(Debug, Clone)]
pub struct Preconditioner<S: Scalar = f64> {
    eig: SubsampleEigens<S>,
    q: usize,
    /// Damping target `τ = σ_{q+1}`.
    tail: f64,
    /// Damping exponent `α ∈ (0, 1]`; 1 is the paper's exact formula.
    alpha: f64,
    /// `D_jj = (1 − (τ/σ_j)^α)/σ_j` for `j < q` — always `f64`.
    d_diag: Vec<f64>,
}

impl<S: Scalar> Preconditioner<S> {
    /// Builds the paper-exact `P_q` (damping exponent `α = 1`) from a
    /// precomputed subsample eigensystem.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if fewer than `q + 1` eigenpairs
    /// are available or the `(q+1)`-th eigenvalue is not positive.
    pub fn from_eigens(eig: SubsampleEigens<S>, q: usize) -> Result<Self, CoreError> {
        Preconditioner::from_eigens_damped(eig, q, 1.0)
    }

    /// Builds `P_q` with damping exponent `alpha`:
    /// `D_jj = (1 − (τ/σ_j)^α)/σ_j`, leaving the `j`-th damped direction an
    /// effective eigenvalue `σ_j^{1−α} τ^α` instead of exactly `τ`.
    ///
    /// With `α = 1` this is the paper's Algorithm 1 verbatim. The reference
    /// EigenPro implementation uses `α < 1` (0.95): the retained margin
    /// absorbs the Nyström eigenvector-estimation error, which otherwise
    /// leaves "killed" directions with leakage above `τ` and pushes the
    /// analytic step size past the stability edge when `s` is small.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if fewer than `q + 1` eigenpairs
    /// are available, the `(q+1)`-th eigenvalue is not positive, or
    /// `alpha ∉ (0, 1]`.
    pub fn from_eigens_damped(
        eig: SubsampleEigens<S>,
        q: usize,
        alpha: f64,
    ) -> Result<Self, CoreError> {
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(CoreError::InvalidConfig {
                message: format!("damping exponent alpha = {alpha} must be in (0, 1]"),
            });
        }
        if q + 1 > eig.values.len() {
            return Err(CoreError::InvalidConfig {
                message: format!(
                    "preconditioner needs q + 1 = {} eigenpairs, have {}",
                    q + 1,
                    eig.values.len()
                ),
            });
        }
        let tail = eig.values[q];
        if tail <= 0.0 {
            return Err(CoreError::InvalidConfig {
                message: format!("eigenvalue σ_{} = {tail:.3e} is not positive", q + 1),
            });
        }
        let d_diag: Vec<f64> = eig.values[..q]
            .iter()
            .map(|&sigma| (1.0 - (tail / sigma).powf(alpha)) / sigma)
            .collect();
        Ok(Preconditioner {
            eig,
            q,
            tail,
            alpha,
            d_diag,
        })
    }

    /// Convenience: subsample + eigensolve + build in one call with the
    /// paper-exact `α = 1`, computing `q + 1` eigenpairs (plus solver
    /// oversampling).
    ///
    /// # Errors
    ///
    /// Propagates [`SubsampleEigens::compute`] and
    /// [`Preconditioner::from_eigens`] failures.
    pub fn fit(
        kernel: &Arc<dyn Kernel<S>>,
        x: &Matrix<S>,
        s: usize,
        q: usize,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let eig = SubsampleEigens::compute(kernel, x, s, q + 1, seed)?;
        Preconditioner::from_eigens(eig, q)
    }

    /// [`Preconditioner::fit`] with an explicit damping exponent.
    ///
    /// # Errors
    ///
    /// Propagates [`SubsampleEigens::compute`] and
    /// [`Preconditioner::from_eigens_damped`] failures.
    pub fn fit_damped(
        kernel: &Arc<dyn Kernel<S>>,
        x: &Matrix<S>,
        s: usize,
        q: usize,
        alpha: f64,
        seed: u64,
    ) -> Result<Self, CoreError> {
        let eig = SubsampleEigens::compute(kernel, x, s, q + 1, seed)?;
        Preconditioner::from_eigens_damped(eig, q, alpha)
    }

    /// Converts the preconditioner's bulk buffers to another precision.
    /// Spectral scalars (`σ`, `τ`, `D`, `α`) are `f64` on both sides, so
    /// `Mixed` training can plan at f64 and execute at f32 with *identical*
    /// analytic parameters.
    pub fn cast<T: Scalar>(&self) -> Preconditioner<T> {
        Preconditioner {
            eig: self.eig.cast(),
            q: self.q,
            tail: self.tail,
            alpha: self.alpha,
            d_diag: self.d_diag.clone(),
        }
    }

    /// Spectral truncation level `q`.
    pub fn q(&self) -> usize {
        self.q
    }

    /// Subsample size `s` (the fixed coordinate block).
    pub fn s(&self) -> usize {
        self.eig.s()
    }

    /// The underlying subsample eigensystem.
    pub fn eigens(&self) -> &SubsampleEigens<S> {
        &self.eig
    }

    /// Indices of the fixed coordinate block within the training set.
    pub fn subsample_indices(&self) -> &[usize] {
        &self.eig.indices
    }

    /// `λ₁(K_G)`: the largest eigenvalue of the *adaptive* kernel's
    /// normalised matrix — the quantity that sets `m*(k_G)`.
    ///
    /// With damping `α`, the largest surviving eigenvalue is the damped
    /// first direction `σ₁^{1−α} τ^α` (equal to `τ = σ_{q+1}` when `α = 1`).
    pub fn lambda1_preconditioned(&self) -> f64 {
        let damped_top = self.eig.values[0].powf(1.0 - self.alpha) * self.tail.powf(self.alpha);
        damped_top.max(self.tail) / self.s() as f64
    }

    /// Damping exponent `α` in use.
    pub fn damping(&self) -> f64 {
        self.alpha
    }

    /// `λ₁(K) = σ₁/s`: largest eigenvalue of the original normalised kernel
    /// matrix.
    pub fn lambda1_original(&self) -> f64 {
        self.eig.lambda(0)
    }

    /// The adaptive kernel's diagonal `k_G(x, x)` at each row of `points`:
    /// `k(x,x) − Σ_{j<q} (σ_j − τ)/s · (√s · ψ_j(x))²` with the Nyström
    /// eigenfunctions — used to estimate `β(K_G)`. The feature-map GEMM runs
    /// in `S`; the spectral drop accumulates in `f64`.
    pub fn precond_diag(&self, kernel: &Arc<dyn Kernel<S>>, points: &Matrix<S>) -> Vec<f64> {
        // φ(x) for all points: (points.rows x s).
        let phi = kmat::feature_map(kernel.as_ref(), &self.eig.centers, points);
        // Ψ = φ V diag(1/σ_j): (points.rows x q); column j holds the
        // Nyström extension ê_j(x) = (1/σ_j) e_jᵀ φ(x), which restricts to
        // the unit-norm eigenvector entries e_j[i] on the subsample.
        let v_q = self.eig.vectors.submatrix(0, 0, self.s(), self.q);
        let mut psi = Matrix::zeros(points.rows(), self.q);
        blas::gemm(S::ONE, &phi, &v_q, S::ZERO, &mut psi);
        let kxx = kernel.as_ref().of_sq_dist(S::ZERO).to_f64();
        (0..points.rows())
            .map(|i| {
                let mut drop = 0.0_f64;
                for j in 0..self.q {
                    let sigma = self.eig.values[j];
                    let psi_val = psi[(i, j)].to_f64() / sigma;
                    // Spectral drop σ_j → σ_j (τ/σ_j)^α, i.e. σ_j² D_jj.
                    drop += sigma * sigma * self.d_diag[j] * psi_val * psi_val;
                }
                kxx - drop
            })
            .collect()
    }

    /// `β(K_G)` estimated over (at most) `sample` random rows of the
    /// training matrix `x` *plus* the subsample points.
    ///
    /// The subsample-only estimate systematically underestimates the true
    /// maximum: on subsample points the Nyström eigenfunctions are exact and
    /// the spectral drop maximal, while off-subsample points retain more of
    /// the diagonal. Underestimating `β(K_G)` inflates the analytic step
    /// size past the stability edge, so — like the reference EigenPro
    /// implementation, which scans the whole training set — we take the max
    /// over a broad sample.
    pub fn beta_estimate(
        &self,
        kernel: &Arc<dyn Kernel<S>>,
        x: &Matrix<S>,
        sample: usize,
        seed: u64,
    ) -> f64 {
        let mut beta = self.beta_preconditioned(kernel);
        let n = x.rows();
        if n == 0 || sample == 0 {
            return beta;
        }
        let take = sample.min(n);
        let rows: Vec<usize> = if take == n {
            (0..n).collect()
        } else {
            let mut idx: Vec<usize> = (0..n).collect();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBE7A_BE7A);
            idx.shuffle(&mut rng);
            idx.truncate(take);
            idx
        };
        let pts = x.select_rows(&rows);
        for v in self.precond_diag(kernel, &pts) {
            beta = beta.max(v);
        }
        beta
    }

    /// `β(K_G) = max_x k_G(x, x)` estimated on the subsample points only
    /// (the paper: "accurately estimated using the maximum of `k_{P_q}(x,x)`
    /// on a small number of subsamples"). Prefer [`Preconditioner::beta_estimate`]
    /// for step-size selection.
    pub fn beta_preconditioned(&self, kernel: &Arc<dyn Kernel<S>>) -> f64 {
        // On the subsample the eigenfunctions are exact (e_j entries), so
        // compute directly from the eigenvectors: k_G(x_i, x_i) =
        // 1 − Σ_j (σ_j − τ) e_j[i]².
        let kxx = kernel.as_ref().of_sq_dist(S::ZERO).to_f64();
        (0..self.s())
            .map(|i| {
                let mut drop = 0.0_f64;
                for j in 0..self.q {
                    let e = self.eig.vectors[(i, j)].to_f64();
                    let sigma = self.eig.values[j];
                    drop += sigma * sigma * self.d_diag[j] * e * e;
                }
                kxx - drop
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Applies the correction of Algorithm 1, Step 5:
    /// returns `V D Vᵀ Φᵀ G` (`s x l`) given the feature map `Φ` (`m x s`)
    /// and the residual `G = f − y` (`m x l`). All GEMMs run in `S` — this
    /// is the per-iteration hot path.
    ///
    /// Cost: `s·m·q + q·m·l + s·q·l` operations — the Table-1 overhead.
    ///
    /// # Panics
    ///
    /// Panics if `phi.cols() != s` or `phi.rows() != residual.rows()`.
    pub fn apply_correction(&self, phi: &Matrix<S>, residual: &Matrix<S>) -> Matrix<S> {
        assert_eq!(phi.cols(), self.s(), "phi width must equal s");
        assert_eq!(phi.rows(), residual.rows(), "phi/residual row mismatch");
        let v_q = self.eig.vectors.submatrix(0, 0, self.s(), self.q);
        // T1 = Φ V  (m x q)
        let t1 = blas::matmul(phi, &v_q);
        // T2 = T1ᵀ G (q x l)
        let mut t2 = Matrix::zeros(self.q, residual.cols());
        blas::gemm_tn(S::ONE, &t1, residual, S::ZERO, &mut t2);
        // T2 <- D T2 (row scaling)
        for (j, &d) in self.d_diag.iter().enumerate() {
            let d_s = S::from_f64(d);
            for val in t2.row_mut(j) {
                *val *= d_s;
            }
        }
        // out = V T2 (s x l)
        blas::matmul(&v_q, &t2)
    }

    /// Empirically estimates the largest eigenvalue of the *effective*
    /// preconditioned (normalised) iteration operator by power iteration on
    /// a probe subset of the training data.
    ///
    /// The analytic value [`Preconditioner::lambda1_preconditioned`] assumes
    /// the Nyström eigenfunctions are exact; with small `s` (or `q` close to
    /// `s`) the estimation error leaves leakage in the damped directions
    /// that raises the true top eigenvalue — and an optimal step size
    /// computed from the analytic value can cross the stability edge. This
    /// probe measures the mean-iteration operator
    /// `A = (1/p)(I − S V D Vᵀ B) K_P` (with `B = K_P[sub, :]`) on a subset
    /// `P ⊇ subsample` of size `probe`, which includes all of that leakage.
    /// Matrix–vector products run in `S`; the Rayleigh quotient accumulates
    /// in `f64`.
    pub fn probe_lambda_max(
        &self,
        kernel: &Arc<dyn Kernel<S>>,
        x: &Matrix<S>,
        probe: usize,
        iters: usize,
        seed: u64,
    ) -> f64 {
        let n = x.rows();
        let s = self.s();
        // Probe subset: the subsample first, then random extra rows.
        let mut in_sub = vec![false; n];
        for &i in &self.eig.indices {
            in_sub[i] = true;
        }
        let mut extras: Vec<usize> = (0..n).filter(|&i| !in_sub[i]).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9);
        extras.shuffle(&mut rng);
        let extra_take = probe.saturating_sub(s).min(extras.len());
        let mut probe_idx = self.eig.indices.clone();
        probe_idx.extend_from_slice(&extras[..extra_take]);
        let p = probe_idx.len();
        let xp = x.select_rows(&probe_idx);
        let kp = kmat::kernel_matrix(kernel.as_ref(), &xp);

        // Power iteration on A(r) = (1/p)(I − S V D Vᵀ B)(K_P r).
        let mut v: Vec<S> = (0..p)
            .map(|i| S::from_f64(((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5))
            .collect();
        let norm = ep2_linalg::ops::norm2(&v);
        ep2_linalg::ops::scal(S::ONE / norm, &mut v);
        let mut lambda = 0.0_f64;
        let mut u = vec![S::ZERO; p];
        let mut b_u = vec![S::ZERO; s];
        // The subsample block B = K_P[0..s, :] (first s rows by
        // construction), hoisted out of the iteration loop so every pass is
        // a register-blocked gemv instead of per-row dots.
        let kp_top = kp.submatrix(0, 0, s, p);
        let inv_p = S::from_f64(1.0 / p as f64);
        for _ in 0..iters.max(3) {
            // u = K_P v.
            blas::gemv(S::ONE, &kp, &v, S::ZERO, &mut u);
            // c = B u, then the V D Vᵀ correction.
            blas::gemv(S::ONE, &kp_top, &u, S::ZERO, &mut b_u);
            // Reuse apply_correction with a 1-column residual: Φᵀg ≡ b_u.
            // apply_correction computes V D Vᵀ Φᵀ g, where here Φᵀ g = b_u,
            // so feed Φ = I-block trick: compute directly.
            let v_q = self.eig.vectors.submatrix(0, 0, s, self.q);
            let mut t = vec![S::ZERO; self.q];
            blas::gemv_t(S::ONE, &v_q, &b_u, S::ZERO, &mut t);
            for (j, tv) in t.iter_mut().enumerate() {
                *tv *= S::from_f64(self.d_diag[j]);
            }
            let mut c2 = vec![S::ZERO; s];
            blas::gemv(S::ONE, &v_q, &t, S::ZERO, &mut c2);
            // out = (u − scatter(c2)) / p.
            for (i, cv) in c2.iter().enumerate() {
                u[i] -= *cv;
            }
            for val in u.iter_mut() {
                *val *= inv_p;
            }
            let norm = ep2_linalg::ops::norm2(&u);
            if norm == S::ZERO {
                return 0.0;
            }
            lambda = ep2_linalg::ops::dot_accum(&u, &v).to_f64();
            let inv_norm = S::ONE / norm;
            for (vi, ui) in v.iter_mut().zip(&u) {
                *vi = *ui * inv_norm;
            }
        }
        lambda.abs()
    }

    /// Operation count of one [`Preconditioner::apply_correction`] call for
    /// batch size `m` and `l` outputs.
    pub fn correction_ops(&self, m: usize, l: usize) -> f64 {
        let (s, q) = (self.s() as f64, self.q as f64);
        let m = m as f64;
        let l = l as f64;
        s * m * q + q * m * l + s * q * l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ep2_kernels::GaussianKernel;

    fn toy_data(n: usize, d: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(n, d, |_, _| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn kernel() -> Arc<dyn Kernel> {
        Arc::new(GaussianKernel::new(1.5))
    }

    #[test]
    fn eigens_full_spectrum_for_small_s() {
        let x = toy_data(60, 5, 1);
        let eig = SubsampleEigens::compute(&kernel(), &x, 40, 10, 7).unwrap();
        assert_eq!(eig.s(), 40);
        assert_eq!(eig.values.len(), 40); // dense path: full spectrum
                                          // Descending, all ≥ ~0 (PSD).
        for w in eig.values.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        assert!(eig.values[39] > -1e-9);
    }

    #[test]
    fn subsample_is_deterministic_and_in_range() {
        let x = toy_data(50, 4, 2);
        let a = SubsampleEigens::compute(&kernel(), &x, 20, 5, 3).unwrap();
        let b = SubsampleEigens::compute(&kernel(), &x, 20, 5, 3).unwrap();
        assert_eq!(a.indices, b.indices);
        assert!(a.indices.iter().all(|&i| i < 50));
        // Without replacement.
        let mut sorted = a.indices.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 20);
    }

    #[test]
    fn d_diag_matches_formula() {
        let x = toy_data(80, 6, 4);
        let p = Preconditioner::fit(&kernel(), &x, 50, 5, 9).unwrap();
        let tail = p.eig.values[5];
        for j in 0..5 {
            let sigma = p.eig.values[j];
            let expect = (1.0 - tail / sigma) / sigma;
            assert!((p.d_diag[j] - expect).abs() < 1e-12);
        }
        // D entries are non-negative and increase then... at least first is
        // the smallest damping (largest eigenvalue gets strongest rescale).
        assert!(p.d_diag.iter().all(|&d| d >= 0.0));
    }

    #[test]
    fn lambda1_preconditioned_is_tail_over_s() {
        let x = toy_data(70, 5, 5);
        let p = Preconditioner::fit(&kernel(), &x, 40, 4, 2).unwrap();
        assert!((p.lambda1_preconditioned() - p.eig.values[4] / 40.0).abs() < 1e-15);
        assert!(p.lambda1_preconditioned() < p.lambda1_original());
    }

    #[test]
    fn beta_preconditioned_in_unit_interval() {
        let x = toy_data(100, 5, 6);
        let p = Preconditioner::fit(&kernel(), &x, 60, 8, 3).unwrap();
        let beta = p.beta_preconditioned(&kernel());
        assert!(beta > 0.0 && beta <= 1.0 + 1e-12, "beta_G = {beta}");
        // Damping strictly reduces the diagonal somewhere.
        assert!(beta < 1.0);
    }

    #[test]
    fn precond_diag_matches_beta_on_subsample() {
        let x = toy_data(90, 4, 8);
        let k = kernel();
        let p = Preconditioner::fit(&k, &x, 50, 6, 4).unwrap();
        let diag = p.precond_diag(&k, &p.eig.centers.clone());
        let beta_direct = p.beta_preconditioned(&k);
        let beta_via_diag = diag.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (beta_direct - beta_via_diag).abs() < 1e-8,
            "{beta_direct} vs {beta_via_diag}"
        );
    }

    #[test]
    fn f32_preconditioner_matches_f64_spectral_quantities() {
        // Fit the same preconditioner at f64 and (via cast) run its f32
        // twin: the spectral scalars are shared verbatim, and the f32
        // correction output agrees with f64 to single-precision accuracy.
        let x = toy_data(60, 4, 21);
        let k = kernel();
        let p64 = Preconditioner::fit_damped(&k, &x, 40, 5, 0.95, 3).unwrap();
        let p32: Preconditioner<f32> = p64.cast();
        assert_eq!(p32.q(), p64.q());
        assert_eq!(p32.eigens().values, p64.eigens().values);
        assert_eq!(p32.lambda1_preconditioned(), p64.lambda1_preconditioned());
        let phi = toy_data(8, 40, 5);
        let resid = toy_data(8, 2, 6);
        let c64 = p64.apply_correction(&phi, &resid);
        let c32 = p32.apply_correction(&phi.cast(), &resid.cast());
        for i in 0..c64.rows() {
            for j in 0..c64.cols() {
                assert!((c32[(i, j)] as f64 - c64[(i, j)]).abs() < 1e-4, "({i},{j})");
            }
        }
    }

    #[test]
    fn correction_kills_top_eigendirection() {
        // Apply the preconditioned iteration matrix to the top eigenvector
        // of Ks: the effective eigenvalue must shrink to ~tail.
        // For a batch equal to the full subsample, one step of
        // Richardson + correction multiplies the residual's top-eigen
        // component by (1 - 2η/m (σ1 - σ1·D1·σ1 ... )) — here we check the
        // algebra at the matrix level: (I - V D Vᵀ Ks) has eigenvalue
        // τ/σ_j along e_j for j < q: VDVᵀKs e_j = (1-τ/σ_j) e_j.
        let x = toy_data(40, 4, 11);
        let k = kernel();
        let p = Preconditioner::fit(&k, &x, 30, 3, 5).unwrap();
        let ks = ep2_kernels::matrix::kernel_matrix(k.as_ref(), &p.eig.centers);
        // Φ for the subsample itself is Ks (m = s).
        for j in 0..3 {
            let e_j: Vec<f64> = p.eig.vectors.col(j);
            // residual = e_j as a single-output target (s x 1).
            let resid = Matrix::from_vec(30, 1, e_j.clone());
            let corr = p.apply_correction(&ks, &resid);
            // corr should equal (1 - τ/σ_j) e_j.
            let coef = 1.0 - p.tail / p.eig.values[j];
            for i in 0..30 {
                assert!(
                    (corr[(i, 0)] - coef * e_j[i]).abs() < 1e-8,
                    "direction {j}, entry {i}"
                );
            }
        }
    }

    #[test]
    fn correction_leaves_tail_directions_untouched() {
        let x = toy_data(40, 4, 12);
        let k = kernel();
        let p = Preconditioner::fit(&k, &x, 30, 3, 5).unwrap();
        let ks = ep2_kernels::matrix::kernel_matrix(k.as_ref(), &p.eig.centers);
        // Direction q+2 (well inside the tail) must map to ~zero.
        let eig = eigen::sym_eig(&ks).unwrap();
        let e_tail: Vec<f64> = eig.vectors.col(6);
        let resid = Matrix::from_vec(30, 1, e_tail);
        let corr = p.apply_correction(&ks, &resid);
        let norm: f64 = corr.col(0).iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(norm < 1e-8, "tail direction leaked: {norm}");
    }

    #[test]
    fn rejects_q_too_large() {
        let x = toy_data(30, 3, 1);
        let eig = SubsampleEigens::compute(&kernel(), &x, 20, 21, 1).unwrap();
        assert!(Preconditioner::from_eigens(eig, 20).is_err());
    }

    #[test]
    fn rejects_bad_subsample_size() {
        let x = toy_data(10, 3, 1);
        assert!(SubsampleEigens::compute(&kernel(), &x, 0, 1, 1).is_err());
        assert!(SubsampleEigens::compute(&kernel(), &x, 11, 1, 1).is_err());
    }

    #[test]
    fn correction_ops_formula() {
        let x = toy_data(50, 3, 1);
        let p = Preconditioner::fit(&kernel(), &x, 30, 4, 1).unwrap();
        let ops = p.correction_ops(10, 2);
        assert_eq!(ops, 30.0 * 10.0 * 4.0 + 4.0 * 10.0 * 2.0 + 30.0 * 4.0 * 2.0);
    }
}
