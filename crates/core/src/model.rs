//! The kernel predictor `f(x) = Σ_i α_i k(x_i, x)`, generic over the
//! numeric precision `S`.

use std::ops::Range;
use std::sync::Arc;

use ep2_device::Precision;
use ep2_kernels::{matrix as kmat, Kernel, KernelKind};
use ep2_linalg::gemm::{self, PackedB, View};
use ep2_linalg::{blas, Bf16, Matrix, Scalar};

/// Default row-block size for prediction: the transient kernel panel stays
/// below ~`1024 x n` elements unless the caller plans otherwise.
pub const DEFAULT_PREDICT_BLOCK_ROWS: usize = 1024;

/// Smallest row block / column tile [`PredictOptions::planned`] will pick
/// before giving up on fitting the budget exactly (a floor, not a promise —
/// the ledger still audits the real charge).
const MIN_PLANNED_BLOCK: usize = 16;
const MIN_PLANNED_TILE: usize = 64;

/// How [`KernelModel::predict_with`] evaluates.
///
/// Build it fluently — defaults are 1024-row blocks and full-width kernel
/// panels:
///
/// ```
/// use ep2_core::model::PredictOptions;
///
/// let opts = PredictOptions::new().block_rows(256).col_tile(512);
/// assert_eq!(opts.block_rows, 256);
/// ```
///
/// or let [`PredictOptions::planned`] derive the blocking from a device
/// memory budget, the way the serve path sizes its micro-batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictOptions {
    /// Rows of `x` evaluated per kernel panel (`> 0`).
    pub block_rows: usize,
    /// Center-side tile width; `None` materialises full `block_rows x n`
    /// panels, `Some(t)` caps the transient panel at `block_rows x t` and
    /// accumulates tile by tile.
    pub col_tile: Option<usize>,
}

impl Default for PredictOptions {
    fn default() -> Self {
        PredictOptions {
            block_rows: DEFAULT_PREDICT_BLOCK_ROWS,
            col_tile: None,
        }
    }
}

impl PredictOptions {
    /// The default options ([`Default::default`], fluently nameable).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the row-block size.
    pub fn block_rows(mut self, rows: usize) -> Self {
        self.block_rows = rows;
        self
    }

    /// Sets the center-side tile width.
    pub fn col_tile(mut self, tile: usize) -> Self {
        self.col_tile = Some(tile);
        self
    }

    /// Plans blocking factors from a device memory budget: the largest
    /// `block_rows x col_tile` shape (halving rows from
    /// [`DEFAULT_PREDICT_BLOCK_ROWS`], then narrowing the tile) whose
    /// transient slots — kernel panel + staged input block + output block,
    /// `block_rows·(tile + d + l)`, plus the `n`-slot center-norm cache —
    /// fit `budget_slots` at this precision's slot width. Best-effort: when
    /// even the floor shape (16 x 64) exceeds the budget it returns the
    /// floor and leaves enforcement to the ledger that audits the real
    /// charge.
    pub fn planned(n: usize, d: usize, l: usize, budget_slots: f64, precision: Precision) -> Self {
        let avail = (budget_slots / precision.slot_factor() - n as f64).max(0.0);
        let mut rows = DEFAULT_PREDICT_BLOCK_ROWS;
        let fits_full = |rows: usize| (rows * (n + d + l)) as f64 <= avail;
        while rows > MIN_PLANNED_BLOCK && !fits_full(rows) {
            rows /= 2;
        }
        if fits_full(rows) {
            return PredictOptions::new().block_rows(rows);
        }
        // Full-width panels never fit: tile the centers as wide as the
        // budget allows at the floor row block.
        let tile_f = (avail / rows as f64 - (d + l) as f64).floor();
        let floor = MIN_PLANNED_TILE.min(n.max(1));
        let tile = if tile_f.is_finite() && tile_f > 0.0 {
            (tile_f as usize).clamp(floor, n.max(1))
        } else {
            floor
        };
        PredictOptions::new().block_rows(rows).col_tile(tile)
    }

    /// Slots one prediction call transiently charges under these options
    /// for an `n`-center, `d`-feature, `l`-output model at `precision` —
    /// what the serve engine charges its ledger per worker.
    pub fn transient_slots(&self, n: usize, d: usize, l: usize, precision: Precision) -> f64 {
        let tile = self.col_tile.unwrap_or(n).min(n.max(1));
        (self.block_rows * (tile + d + l) + n) as f64 * precision.slot_factor()
    }

    /// Slots the packed panels of an `n`-center, `d`-feature, `l`-output
    /// model packed under these options ([`KernelModel::pack`]) hold, for a
    /// model stored at `precision`. Panels are at the GEMM's compute width,
    /// so a bf16 model's panels are charged at f32 width: exactly
    /// [`PackedModel::slots`] of the packed model.
    pub fn packed_slots(&self, n: usize, d: usize, l: usize, precision: Precision) -> f64 {
        match precision {
            Precision::F64 => self.packed_slots_as::<f64>(n, d, l),
            Precision::F32 | Precision::Mixed => self.packed_slots_as::<f32>(n, d, l),
            Precision::Bf16 => self.packed_slots_as::<Bf16>(n, d, l),
        }
    }

    fn packed_slots_as<S: Scalar>(&self, n: usize, d: usize, l: usize) -> f64 {
        let len: usize = column_tiles(n, self)
            .map(|t| PackedB::<S>::len_for(d, t.len()) + PackedB::<S>::len_for(t.len(), l))
            .sum();
        compute_slots::<S>(len)
    }
}

/// The center-side column tiles `opts` splits `n` centers into, in order.
fn column_tiles(n: usize, opts: &PredictOptions) -> impl Iterator<Item = Range<usize>> {
    let tile = opts.col_tile.unwrap_or(n).min(n).max(1);
    (0..n).step_by(tile).map(move |j0| j0..n.min(j0 + tile))
}

/// Ledger slots (4-byte units) of `len` elements at `S`'s GEMM compute
/// width.
fn compute_slots<S: Scalar>(len: usize) -> f64 {
    (len * <S::Compute as Scalar>::BYTES) as f64 / 4.0
}

/// Recycled scratch for [`KernelModel::predict_with_into`] — the
/// zero-allocation serving hot path.
///
/// Holds the center-side norm cache (computed once per model, revalidated
/// by the centers' `Arc` identity), the per-block input norms, the staged
/// input block, the kernel panel, and the output block. After the first
/// call at the largest batch shape, subsequent calls allocate nothing.
#[derive(Debug)]
pub struct PredictBuffers<S: Scalar> {
    /// Center-norm cache key: `Arc::as_ptr` of the centers it was built
    /// from (0 = never built).
    c_sq_key: usize,
    c_sq: Vec<S::Accum>,
    b_sq: Vec<S::Accum>,
    x_block: Matrix<S>,
    k_tile: Matrix<S>,
    f_block: Matrix<S>,
}

impl<S: Scalar> Default for PredictBuffers<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Scalar> PredictBuffers<S> {
    /// Fresh (empty) buffers.
    pub fn new() -> Self {
        PredictBuffers {
            c_sq_key: 0,
            c_sq: Vec::new(),
            b_sq: Vec::new(),
            x_block: Matrix::zeros(0, 0),
            k_tile: Matrix::zeros(0, 0),
            f_block: Matrix::zeros(0, 0),
        }
    }

    /// Ensures the center-norm cache matches `model`'s centers, rebuilding
    /// it only when the model changed since the last call.
    fn center_norms(&mut self, model: &KernelModel<S>) {
        let key = Arc::as_ptr(&model.centers) as *const u8 as usize;
        if self.c_sq_key != key || self.c_sq.len() != model.n_centers() {
            kmat::row_sq_norms_into(&model.centers, &mut self.c_sq);
            self.c_sq_key = key;
        }
    }
}

/// A kernel machine: training points as centers plus an `n x l` weight
/// matrix `α`, with all buffers stored in precision `S` (default `f64`).
///
/// Both EigenPro 2.0 and every baseline (plain SGD, EigenPro 1, FALKON's
/// Nyström-restricted variant, the direct solver) produce predictions
/// through this type, so evaluation code is shared and comparisons are
/// apples-to-apples. Under the f32/mixed precision policies the centers,
/// weights, and transient kernel blocks are all f32 — half the resident
/// memory the device ledger charges, and the memory-bound prediction GEMM
/// runs correspondingly faster.
///
/// The (immutable) center matrix is held behind an [`Arc`]: cloning a model
/// shares the training features instead of copying them, and the out-of-core
/// streaming engine holds the same handle its producers assemble tiles from
/// while the trainer mutates the weights — no aliasing, no duplicate copy of
/// the (potentially enormous) training set.
#[derive(Debug, Clone)]
pub struct KernelModel<S: Scalar = f64> {
    kernel: Arc<dyn Kernel<S>>,
    centers: Arc<Matrix<S>>,
    weights: Matrix<S>,
}

impl<S: Scalar> KernelModel<S> {
    /// Creates a model with zero weights over the given centers.
    ///
    /// # Panics
    ///
    /// Panics if `centers` is empty or `l == 0`.
    pub fn zeros(kernel: Arc<dyn Kernel<S>>, centers: Matrix<S>, l: usize) -> Self {
        Self::zeros_shared(kernel, Arc::new(centers), l)
    }

    /// [`KernelModel::zeros`] over an already-shared center matrix (the
    /// out-of-core trainer hands the same `Arc` to the streaming engine).
    ///
    /// # Panics
    ///
    /// Panics if `centers` is empty or `l == 0`.
    pub fn zeros_shared(kernel: Arc<dyn Kernel<S>>, centers: Arc<Matrix<S>>, l: usize) -> Self {
        assert!(centers.rows() > 0, "model needs at least one center");
        assert!(l > 0, "label dimension must be positive");
        let weights = Matrix::zeros(centers.rows(), l);
        KernelModel {
            kernel,
            centers,
            weights,
        }
    }

    /// Creates a model from explicit weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights.rows() != centers.rows()`.
    pub fn from_weights(
        kernel: Arc<dyn Kernel<S>>,
        centers: Matrix<S>,
        weights: Matrix<S>,
    ) -> Self {
        assert_eq!(weights.rows(), centers.rows(), "weights/centers mismatch");
        KernelModel {
            kernel,
            centers: Arc::new(centers),
            weights,
        }
    }

    /// Number of centers `n`.
    pub fn n_centers(&self) -> usize {
        self.centers.rows()
    }

    /// Feature dimension `d`.
    pub fn dim(&self) -> usize {
        self.centers.cols()
    }

    /// Output dimension `l`.
    pub fn n_outputs(&self) -> usize {
        self.weights.cols()
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &Arc<dyn Kernel<S>> {
        &self.kernel
    }

    /// The center matrix (training features).
    pub fn centers(&self) -> &Matrix<S> {
        &self.centers
    }

    /// A shared handle to the center matrix — what the out-of-core
    /// streaming producers assemble kernel tiles from while the trainer
    /// owns the model mutably.
    pub fn centers_shared(&self) -> Arc<Matrix<S>> {
        Arc::clone(&self.centers)
    }

    /// The weight matrix `α` (`n x l`).
    pub fn weights(&self) -> &Matrix<S> {
        &self.weights
    }

    /// Mutable access to the weights — the coordinate blocks Algorithm 1
    /// updates.
    pub fn weights_mut(&mut self) -> &mut Matrix<S> {
        &mut self.weights
    }

    /// Converts the model to another precision.
    ///
    /// The kernel object is re-instantiated from its named family at the
    /// same bandwidth, so this only works for the named kernels
    /// (`KernelKind::parse(self.kernel().name())` must succeed) — true for
    /// every kernel this workspace constructs.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is a custom (unnamed) implementation.
    pub fn cast<T: Scalar>(&self) -> KernelModel<T> {
        let kind = KernelKind::parse(self.kernel.name())
            .unwrap_or_else(|| panic!("cannot cast custom kernel {}", self.kernel.name()));
        let kernel: Arc<dyn Kernel<T>> =
            kind.with_bandwidth_in::<T>(self.kernel.bandwidth()).into();
        KernelModel {
            kernel,
            centers: Arc::new(self.centers.cast()),
            weights: self.weights.cast(),
        }
    }

    /// Predicts `f(x)` for every row of `x` under explicit evaluation
    /// [`PredictOptions`], returning an `(x.rows(), l)` matrix.
    ///
    /// This is the single prediction entry point: row blocks of `x` are
    /// evaluated against center-side kernel panels (full width, or tiled by
    /// [`PredictOptions::col_tile`] to respect an out-of-core budget:
    /// `f += K[:, j0..j1] · α[j0..j1, :]`). One kernel-panel buffer is
    /// recycled across *all* row blocks and column tiles.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.dim()` or a blocking factor is 0.
    pub fn predict_with(&self, x: &Matrix<S>, opts: &PredictOptions) -> Matrix<S> {
        let mut bufs = PredictBuffers::new();
        let mut out = Matrix::zeros(x.rows(), self.n_outputs());
        self.predict_with_into(x, opts, &mut bufs, &mut out);
        out
    }

    /// [`KernelModel::predict_with`] through caller-recycled scratch and
    /// into a preallocated output — the zero-allocation serving hot path.
    /// Produces exactly (bit-for-bit) the values `predict_with` produces at
    /// the same options.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != self.dim()`, `out` is not `(x.rows(), l)`, or
    /// a blocking factor is 0.
    pub fn predict_with_into(
        &self,
        x: &Matrix<S>,
        opts: &PredictOptions,
        bufs: &mut PredictBuffers<S>,
        out: &mut Matrix<S>,
    ) {
        predict_blocks(Panels::PerCall(self), x, opts, bufs, out);
    }

    /// Packs the model once for repeated prediction under `opts`: one
    /// packed block of centers and one of weights per column tile, plus the
    /// center norms (see [`PackedModel`]).
    ///
    /// # Panics
    ///
    /// Panics if a blocking factor in `opts` is 0.
    pub fn pack(&self, opts: &PredictOptions) -> PackedModel<S> {
        check_opts(opts);
        let (n, l) = (self.n_centers(), self.n_outputs());
        let weights = self.weights.as_slice();
        let tiles = column_tiles(n, opts)
            .map(|t| PackedTile {
                weights: PackedB::pack(View::row_major(
                    &weights[t.start * l..t.end * l],
                    t.len(),
                    l,
                )),
                centers: kmat::pack_centers(&self.centers, t),
            })
            .collect();
        PackedModel {
            kernel: Arc::clone(&self.kernel),
            opts: *opts,
            n,
            d: self.dim(),
            l,
            c_sq: kmat::row_sq_norms(&self.centers),
            tiles,
        }
    }

    /// Predicts from a precomputed kernel block `k_block[i][j] = k(x_i,
    /// c_j)` (used inside the training loop where the block is already
    /// available), returning `k_block · α`.
    ///
    /// # Panics
    ///
    /// Panics if `k_block.cols() != self.n_centers()`.
    pub fn predict_from_kernel_block(&self, k_block: &Matrix<S>) -> Matrix<S> {
        assert_eq!(
            k_block.cols(),
            self.n_centers(),
            "kernel block width mismatch"
        );
        let mut f = Matrix::zeros(k_block.rows(), self.n_outputs());
        blas::gemm(S::ONE, k_block, &self.weights, S::ZERO, &mut f);
        f
    }
}

/// A [`KernelModel`] packed once for repeated prediction under fixed
/// [`PredictOptions`] ([`KernelModel::pack`]) — the serving engine's
/// resident copy, shared read-only by all its workers.
///
/// Holds, per column tile, the tile's centers and weights already in the
/// GEMM engines' packed-panel layout ([`PackedB`], at
/// [`Scalar::Compute`] width), plus the center norms. [`PackedModel::predict_into`]
/// runs the same row-block × column-tile loop as
/// [`KernelModel::predict_with_into`] at the packed options; only the
/// source of the B panels differs, so its output is bitwise the same. What
/// it saves is the per-call work: the strided gather of the centers, the
/// weights' packing, and the per-tile copies of both.
#[derive(Debug)]
pub struct PackedModel<S: Scalar> {
    kernel: Arc<dyn Kernel<S>>,
    opts: PredictOptions,
    n: usize,
    d: usize,
    l: usize,
    c_sq: Vec<S::Accum>,
    tiles: Vec<PackedTile<S>>,
}

/// One column tile of a [`PackedModel`]: its centers (as `Cᵀ`) and its
/// rows of `α`, packed.
#[derive(Debug)]
struct PackedTile<S: Scalar> {
    centers: PackedB<S>,
    weights: PackedB<S>,
}

impl<S: Scalar> PackedModel<S> {
    /// Packed elements held, at [`Scalar::Compute`] width.
    pub fn len(&self) -> usize {
        self.tiles
            .iter()
            .map(|t| t.centers.len() + t.weights.len())
            .sum()
    }

    /// Whether the packed panels hold no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ledger slots (4-byte units) the packed panels hold: their
    /// [`PackedModel::len`] at compute width — f32 for a bf16 model.
    pub fn slots(&self) -> f64 {
        compute_slots::<S>(self.len())
    }

    /// [`KernelModel::predict_with_into`] at the packed options, reading
    /// the packed panels: bitwise the same output.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols()` is not the model's feature dimension or `out`
    /// is not `(x.rows(), l)`.
    pub fn predict_into(&self, x: &Matrix<S>, bufs: &mut PredictBuffers<S>, out: &mut Matrix<S>) {
        predict_blocks(Panels::Packed(self), x, &self.opts, bufs, out);
    }
}

/// Where a prediction's B panels come from: the model's centers and
/// weights, sliced and packed by every GEMM call, or a [`PackedModel`]'s
/// tiles, packed once.
#[derive(Clone, Copy)]
enum Panels<'a, S: Scalar> {
    PerCall(&'a KernelModel<S>),
    Packed(&'a PackedModel<S>),
}

fn check_opts(opts: &PredictOptions) {
    assert!(opts.block_rows > 0, "block_rows must be positive");
    assert!(opts.col_tile != Some(0), "col_tile must be positive");
}

/// The prediction loop both paths run: row blocks of `x` against
/// center-side tiles (`f += K[:, j0..j1] · α[j0..j1, :]`). Center-side
/// norms come from the recycled cache
/// (per-call path, revalidated by Arc identity) or the packed model; the
/// input-side norms, staged block, kernel panel and output block live in
/// `bufs`.
fn predict_blocks<S: Scalar>(
    panels: Panels<'_, S>,
    x: &Matrix<S>,
    opts: &PredictOptions,
    bufs: &mut PredictBuffers<S>,
    out: &mut Matrix<S>,
) {
    let (kernel, n, d, l) = match panels {
        Panels::PerCall(model) => (
            model.kernel.as_ref(),
            model.n_centers(),
            model.dim(),
            model.n_outputs(),
        ),
        Panels::Packed(p) => (p.kernel.as_ref(), p.n, p.d, p.l),
    };
    assert_eq!(x.cols(), d, "predict: feature dim mismatch");
    check_opts(opts);
    let m = x.rows();
    assert_eq!(out.shape(), (m, l), "predict: output shape mismatch");
    if let Panels::PerCall(model) = panels {
        bufs.center_norms(model);
    }
    let PredictBuffers {
        c_sq,
        b_sq,
        x_block,
        k_tile,
        f_block,
        ..
    } = bufs;
    let c_sq: &[S::Accum] = match panels {
        Panels::PerCall(_) => c_sq,
        Panels::Packed(p) => &p.c_sq,
    };
    let mut row0 = 0;
    while row0 < m {
        let rows = opts.block_rows.min(m - row0);
        // Whole-input blocks (the serving case: one micro-batch, one
        // block) borrow `x` directly; partial blocks stage into the
        // recycled copy.
        let block: &Matrix<S> = if rows == m {
            x
        } else {
            x_block.resize(rows, d);
            for i in 0..rows {
                x_block.row_mut(i).copy_from_slice(x.row(row0 + i));
            }
            x_block
        };
        kmat::row_sq_norms_into(block, b_sq);
        f_block.resize(rows, l);
        for (t, tile) in column_tiles(n, opts).enumerate() {
            let (j0, cols) = (tile.start, tile.len());
            let c_sq = &c_sq[tile];
            k_tile.resize(rows, cols);
            match panels {
                Panels::PerCall(model) => {
                    let c_tile = model.centers.submatrix(j0, 0, cols, d);
                    kmat::kernel_cross_into(kernel, block, &c_tile, b_sq, c_sq, k_tile);
                    let w_tile = model.weights.submatrix(j0, 0, cols, l);
                    blas::gemm(S::ONE, k_tile, &w_tile, S::ONE, f_block);
                }
                Panels::Packed(p) => {
                    let packed = &p.tiles[t];
                    kmat::kernel_cross_prepacked_into(
                        kernel,
                        block,
                        &packed.centers,
                        b_sq,
                        c_sq,
                        k_tile,
                    );
                    gemm::gemm_prepacked(
                        S::ONE,
                        View::row_major(k_tile.as_slice(), rows, cols),
                        &packed.weights,
                        S::ONE,
                        f_block.as_mut_slice(),
                    );
                }
            }
        }
        for i in 0..rows {
            out.row_mut(row0 + i).copy_from_slice(f_block.row(i));
        }
        row0 += rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ep2_kernels::GaussianKernel;

    fn toy_model() -> KernelModel {
        let centers = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 0.0]]);
        let kernel: Arc<dyn Kernel> = Arc::new(GaussianKernel::new(1.0));
        KernelModel::zeros(kernel, centers, 2)
    }

    fn predict_default(m: &KernelModel, x: &Matrix) -> Matrix {
        m.predict_with(x, &PredictOptions::default())
    }

    #[test]
    fn zero_model_predicts_zero() {
        let m = toy_model();
        let x = Matrix::from_rows(&[&[0.5, 0.5]]);
        let p = predict_default(&m, &x);
        assert_eq!(p.shape(), (1, 2));
        assert_eq!(p.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn single_center_unit_weight() {
        let kernel: Arc<dyn Kernel> = Arc::new(GaussianKernel::new(1.0));
        let centers = Matrix::from_rows(&[&[0.0]]);
        let weights = Matrix::from_rows(&[&[1.0]]);
        let m = KernelModel::from_weights(kernel.clone(), centers, weights);
        let x = Matrix::from_rows(&[&[1.0]]);
        let expect = kernel.eval(&[0.0], &[1.0]);
        assert!((predict_default(&m, &x)[(0, 0)] - expect).abs() < 1e-14);
    }

    #[test]
    fn blocked_prediction_matches_unblocked() {
        let mut m = toy_model();
        // Set some nonzero weights.
        m.weights_mut()
            .as_mut_slice()
            .copy_from_slice(&[0.5, -1.0, 2.0, 0.0, -0.3, 0.7]);
        let x = Matrix::from_fn(10, 2, |i, j| (i as f64) * 0.3 - (j as f64) * 0.1);
        let a = m.predict_with(&x, &PredictOptions::new().block_rows(3));
        let b = m.predict_with(&x, &PredictOptions::new().block_rows(100));
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn tiled_prediction_matches_unblocked() {
        let mut m = toy_model();
        m.weights_mut()
            .as_mut_slice()
            .copy_from_slice(&[0.5, -1.0, 2.0, 0.0, -0.3, 0.7]);
        let x = Matrix::from_fn(10, 2, |i, j| (i as f64) * 0.3 - (j as f64) * 0.1);
        let full = predict_default(&m, &x);
        for (rows, cols) in [(1, 1), (3, 2), (100, 3), (4, 100)] {
            let opts = PredictOptions::new().block_rows(rows).col_tile(cols);
            let tiled = m.predict_with(&x, &opts);
            for (u, v) in tiled.as_slice().iter().zip(full.as_slice()) {
                assert!((u - v).abs() < 1e-14, "tile {rows}x{cols}");
            }
        }
    }

    #[test]
    fn predict_with_into_reuses_buffers_and_matches() {
        let mut m = toy_model();
        m.weights_mut()
            .as_mut_slice()
            .copy_from_slice(&[0.5, -1.0, 2.0, 0.0, -0.3, 0.7]);
        let opts = PredictOptions::new().block_rows(4).col_tile(2);
        let mut bufs = PredictBuffers::new();
        for rows in [7, 3, 7] {
            let x = Matrix::from_fn(rows, 2, |i, j| (i as f64) * 0.3 - (j as f64) * 0.1);
            let mut out = Matrix::zeros(rows, 2);
            m.predict_with_into(&x, &opts, &mut bufs, &mut out);
            assert_eq!(out.as_slice(), m.predict_with(&x, &opts).as_slice());
        }
    }

    /// The packed model predicts bitwise what `predict_with_into` does at
    /// the same options, for an `n x d` model with `l` outputs, at each
    /// batch size in `sizes`.
    fn packed_matches_per_call<S: Scalar>(
        (n, d, l): (usize, usize, usize),
        opts: PredictOptions,
        threads: usize,
        sizes: &[usize],
    ) {
        let kernel: Arc<dyn Kernel<S>> = Arc::new(GaussianKernel::new((d as f64).sqrt() * 0.4));
        let centers = Matrix::from_fn(n, d, |i, j| {
            S::from_f64(((i * 37 + j * 11) % 29) as f64 * 0.05 - 0.6)
        });
        let weights = Matrix::from_fn(n, l, |i, j| {
            S::from_f64(((i * 7 + j) % 13) as f64 * 0.1 - 0.5)
        });
        let model = KernelModel::from_weights(kernel, centers, weights);
        let packed = model.pack(&opts);
        assert_eq!(
            packed.slots(),
            opts.packed_slots(n, d, l, precision_of::<S>())
        );
        let (mut b1, mut b2) = (PredictBuffers::new(), PredictBuffers::new());
        ep2_runtime::with_budget(threads, || {
            for &m in sizes {
                let x = Matrix::from_fn(m, d, |i, j| {
                    S::from_f64(((i * 5 + j * 3) % 17) as f64 * 0.07 - 0.5)
                });
                let mut want = Matrix::zeros(m, l);
                model.predict_with_into(&x, &opts, &mut b1, &mut want);
                let mut got = Matrix::zeros(m, l);
                packed.predict_into(&x, &mut b2, &mut got);
                for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
                    assert_eq!(
                        g.to_f64().to_bits(),
                        w.to_f64().to_bits(),
                        "{} {n}x{d}x{l} m={m} entry {i} at {threads} threads, {opts:?}",
                        S::NAME
                    );
                }
            }
        });
    }

    fn precision_of<S: Scalar>() -> Precision {
        match S::NAME {
            "f32" => Precision::F32,
            "bf16" => Precision::Bf16,
            _ => Precision::F64,
        }
    }

    /// Runs [`packed_matches_per_call`] at every precision, at budgets 1
    /// and 2, untiled and column-tiled by `tile`.
    fn packed_matches_everywhere(
        shape: (usize, usize, usize),
        cap: usize,
        tile: usize,
        sizes: &[usize],
    ) {
        for opts in [
            PredictOptions::new().block_rows(cap),
            PredictOptions::new().block_rows(cap).col_tile(tile),
        ] {
            for threads in [1, 2] {
                packed_matches_per_call::<f32>(shape, opts, threads, sizes);
                packed_matches_per_call::<f64>(shape, opts, threads, sizes);
                packed_matches_per_call::<ep2_linalg::Bf16>(shape, opts, threads, sizes);
            }
        }
    }

    #[test]
    fn packed_predict_is_bitwise_predict_with_into() {
        use ep2_linalg::gemm::{KC, MC, NC};
        // n crosses NC, d crosses KC, l = 19 leaves NR edges at every
        // precision, a 300-wide tile crosses KC in the weight product; the
        // sizes are one row, MR edges for both heights (6 and 8), and a cap
        // past MC.
        let cap = MC + 7;
        packed_matches_everywhere((NC + 9, KC + 5, 19), cap, 300, &[1, 2, 7, 13, cap]);
    }

    #[test]
    fn packed_predict_matches_at_every_batch_size() {
        // Every batch size from one row to the cap, on a small model.
        let cap = 17;
        let sizes: Vec<usize> = (1..=cap).collect();
        packed_matches_everywhere((40, 9, 3), cap, 16, &sizes);
    }

    #[test]
    fn packed_predict_stages_partial_row_blocks() {
        let mut m = toy_model();
        m.weights_mut()
            .as_mut_slice()
            .copy_from_slice(&[0.5, -1.0, 2.0, 0.0, -0.3, 0.7]);
        let opts = PredictOptions::new().block_rows(4).col_tile(2);
        let x = Matrix::from_fn(10, 2, |i, j| (i as f64) * 0.3 - (j as f64) * 0.1);
        let mut out = Matrix::zeros(10, 2);
        m.pack(&opts)
            .predict_into(&x, &mut PredictBuffers::new(), &mut out);
        assert_eq!(out.as_slice(), m.predict_with(&x, &opts).as_slice());
    }

    #[test]
    fn planned_options_respect_budget() {
        use ep2_device::Precision;
        let (n, d, l) = (10_000, 64, 10);
        // A roomy budget keeps the default full-width shape.
        let roomy = PredictOptions::planned(n, d, l, 1e9, Precision::F64);
        assert_eq!(roomy.block_rows, DEFAULT_PREDICT_BLOCK_ROWS);
        assert_eq!(roomy.col_tile, None);
        // A tight budget shrinks until the transient charge fits.
        let budget = 2e5;
        let tight = PredictOptions::planned(n, d, l, budget, Precision::F32);
        assert!(tight.transient_slots(n, d, l, Precision::F32) <= budget);
        // bf16 halves the slot width, so the same budget fits wider shapes.
        let bf = PredictOptions::planned(n, d, l, budget, Precision::Bf16);
        assert!(
            bf.block_rows > tight.block_rows
                || bf.col_tile.unwrap_or(n) >= tight.col_tile.unwrap_or(n)
        );
    }

    #[test]
    fn clone_shares_centers() {
        let m = toy_model();
        let c = m.clone();
        assert!(std::sync::Arc::ptr_eq(
            &m.centers_shared(),
            &c.centers_shared()
        ));
    }

    #[test]
    fn predict_from_block_consistent() {
        let mut m = toy_model();
        m.weights_mut()[(1, 0)] = 2.0;
        let x = Matrix::from_rows(&[&[0.2, 0.4], &[1.5, -0.5]]);
        let k_block = ep2_kernels::matrix::kernel_cross(m.kernel().as_ref(), &x, m.centers());
        let a = m.predict_from_kernel_block(&k_block);
        let b = predict_default(&m, &x);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn cast_preserves_predictions_to_single_eps() {
        let mut m = toy_model();
        m.weights_mut()
            .as_mut_slice()
            .copy_from_slice(&[0.5, -1.0, 2.0, 0.0, -0.3, 0.7]);
        let m32: KernelModel<f32> = m.cast();
        assert_eq!(m32.kernel().name(), "gaussian");
        assert_eq!(m32.kernel().bandwidth(), 1.0);
        let x = Matrix::from_fn(6, 2, |i, j| (i as f64) * 0.4 - (j as f64) * 0.2);
        let p64 = predict_default(&m, &x);
        let p32 = m32.predict_with(&x.cast(), &PredictOptions::default());
        for (a, b) in p32.as_slice().iter().zip(p64.as_slice()) {
            assert!((*a as f64 - b).abs() < 1e-5);
        }
        // Round-trip back to f64 keeps shapes and kernel identity.
        let back: KernelModel = m32.cast();
        assert_eq!(back.n_centers(), 3);
        assert_eq!(back.n_outputs(), 2);
    }

    #[test]
    #[should_panic(expected = "feature dim mismatch")]
    fn dim_mismatch_panics() {
        let m = toy_model();
        let x = Matrix::zeros(1, 3);
        let _ = predict_default(&m, &x);
    }
}
