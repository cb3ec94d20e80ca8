//! BLIS-style blocked GEMM engine: packed panels + register microkernels.
//!
//! This is the compute core behind every [`crate::blas`] matrix product.
//! The structure follows the classic Goto/BLIS decomposition:
//!
//! ```text
//! for jc in 0..n step NC            // B column block       (packed Bp ~ L2/L3)
//!   for pc in 0..k step KC          // shared-dimension slab
//!     pack B[pc.., jc..]  -> Bp     // KC x NC, NR-wide k-major panels
//!     for ic in 0..m step MC        // A row block          (packed Ap ~ L2)
//!       pack A[ic.., pc..] -> Ap    // MC x KC, MR-tall k-major panels
//!       for jr, ir over the block   // MR x NR register tiles
//!         S::microkernel(KC, ...)   // C tile += alpha * Ap-panel · Bp-panel
//! ```
//!
//! - **Packing** copies each operand block once into contiguous, zero-padded
//!   panels laid out exactly in the order the microkernel streams them, so
//!   the innermost loop does unit-stride loads regardless of the operand's
//!   original layout — which is also how the `A^T B` / `A B^T` variants cost
//!   the same as the plain product: transposition is just a stride swap at
//!   packing time (see [`View`]). Panels are written in the microkernel's
//!   compute precision ([`crate::Scalar::Compute`]): a no-op copy for the
//!   native floats, and the **pack-time widening** of `bf16` storage — each
//!   16-bit element converts to f32 exactly once per cache-block reuse, so
//!   the inner FMA loop runs at full f32 speed and only the `C`
//!   write-back rounds to bf16. That write-back happens once per `KC`
//!   slab of the shared dimension (the `pc` loop accumulates *through*
//!   `C`), so a bf16 product carries `ceil(k/KC)` storage roundings per
//!   entry — exactly one for `k ≤ KC = 256`, and an `O(u·sqrt(k/KC))`
//!   rounding walk beyond that. Column-tiling (`PredictOptions::col_tile`,
//!   the streamed tile ring) caps `k` at the tile width; at `k/KC`
//!   approaching `2^8` slab contributions start falling below one ulp of
//!   the running partial and bf16 accumulation stalls (see
//!   `tests/precision.rs` for the enforced per-slab bound).
//! - **Register blocking**: the `MR x NR` accumulator tile
//!   ([`crate::Scalar::microkernel`]; 6x16 for `f32`, 8x8 for `f64` — one
//!   512-bit FMA accumulator per f32 row, 6-8 independent FMA chains to
//!   cover the FMA latency) stays in vector registers for all `KC` updates,
//!   giving `2·MR·NR/(MR+NR)` flops per element loaded instead of the ~1 of
//!   an axpy sweep.
//! - **Edge tiles** (`m`, `n` not multiples of `MR`/`NR`) run the same full
//!   microkernel against zero-padded panels on a stack copy of the valid
//!   `mr x nr` corner of `C`, which is then copied back — no scalar
//!   fallback loops to keep correct, and the same per-entry write-back as
//!   an interior tile, so an entry's bits never depend on the tiling.
//! - **Plain write-back only**: `C` receives the product and nothing else.
//!   Kernel assembly (`ep2_kernels::matrix`) maps the finished product
//!   through its radial profile in one separate pass; mapping each cache
//!   block inside the engines measured no faster, and cost a hook on every
//!   engine.
//! - **Pre-packed operands** ([`PackedB`], [`gemm_prepacked`]): an operand
//!   read by many products (a served model's centers and weights) can be
//!   packed once into exactly the blocks the engines pack per call; the
//!   engines then read its panels instead of packing, with bitwise the
//!   same result.
//! - **Threading** runs on the [`ep2_runtime`] worker pool under the
//!   caller's thread-budget handle ([`crate::parallel::num_threads`]). For
//!   every `(jc, pc)` cache block the packed-B slab is filled **once,
//!   cooperatively** (one NR panel per pool chunk) and then shared
//!   read-only by all workers sweeping their MC row blocks of `C` — the
//!   fork-join between the two phases is the panel barrier. This cuts the
//!   packing traffic `threads x` relative to the previous per-thread
//!   packing scheme (kept as [`gemm_packed_perthread`], the measured
//!   baseline in `BENCH_pool.json`); A panels still pack into per-thread
//!   arenas ([`crate::parallel::with_pack_buffers`]). A product against a
//!   [`PackedB`] with too few rows for an MC block per thread (a served
//!   micro-batch) splits the columns instead, so every thread streams its
//!   share of B rather than one thread streaming all of it.
//!
//! Measured at `EP2_THREADS=2` on a 2-core AVX-512 host with
//! `target-cpu=native` (`BENCH_gemm.json`): f32 sustains 131-135 Gflop/s
//! (5.5-13.6x the seed axpy GEMM) and f64 64-74 Gflop/s (7.9-14.7x seed),
//! which is what makes the device simulator's `flops = 2mkn` pricing an
//! honest description of this code. The f32/f64 packed ratio is
//! 1.8-2.0x: with both precisions compute-bound at the same vector width
//! the ceiling is the 2x lane gap plus cache effects.

use crate::parallel;
use crate::scalar::Scalar;

/// Rows per packed A block (`MC`): the `MC x KC` packed A slab is the
/// L2-resident operand (48·256 elements = 48 KiB at f32). A common multiple
/// of both microkernel heights (`MR` = 6 for f32, 8 for f64) so interior
/// blocks never produce edge tiles.
pub const MC: usize = 48;
/// Shared-dimension slab depth (`KC`): one `MR x KC` A panel and one
/// `KC x NR` B panel (8 KiB each at f32) sit in L1 while a tile runs.
pub const KC: usize = 256;
/// Columns per packed B block (`NC`): bounds the packed B slab
/// (`KC x NC` = 512 KiB at f32, L2/L3-resident).
pub const NC: usize = 512;

/// Upper bound on `S::MR` for stack-allocated scratch tiles.
const MAX_MR: usize = 8;
/// Upper bound on `S::MR * S::NR` for stack-allocated scratch tiles.
const MAX_TILE: usize = 128;

/// A read-only strided view of a dense operand: entry `(i, j)` lives at
/// `data[i * rs + j * cs]`. A row-major matrix is `(rs, cs) = (cols, 1)`;
/// its transpose is the same buffer with `(rs, cs) = (1, cols)` — which is
/// how `gemm_tn`/`gemm_nt` reuse this engine without materialising
/// transposes.
#[derive(Debug, Clone, Copy)]
pub struct View<'a, S> {
    data: &'a [S],
    rs: usize,
    cs: usize,
    /// Logical row count.
    pub rows: usize,
    /// Logical column count.
    pub cols: usize,
}

impl<'a, S: Scalar> View<'a, S> {
    /// Row-major view of a full `rows x cols` buffer.
    pub fn row_major(data: &'a [S], rows: usize, cols: usize) -> Self {
        debug_assert!(data.len() >= rows * cols);
        View {
            data,
            rs: cols,
            cs: 1,
            rows,
            cols,
        }
    }

    /// Transposed view of a row-major `rows x cols` buffer: logically
    /// `cols x rows`.
    pub fn transposed(data: &'a [S], rows: usize, cols: usize) -> Self {
        debug_assert!(data.len() >= rows * cols);
        View {
            data,
            rs: 1,
            cs: cols,
            rows: cols,
            cols: rows,
        }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> S {
        self.data[i * self.rs + j * self.cs]
    }
}

/// Packs the `mc x kc` block of `a` starting at `(i0, p0)` into MR-tall,
/// k-major panels: `ap[panel][p*MR + i] = A[i0 + panel*MR + i, p0 + p]`,
/// zero-padding rows past `mc` so edge tiles run the full microkernel.
///
/// Panels are written in [`Scalar::Compute`] precision — for the native
/// floats the conversion is the identity and the loops compile to plain
/// copies; for `bf16` every element widens to f32 exactly **here**, once
/// per cache-block reuse, so the microkernel's FMA loop never touches a
/// 16-bit value.
fn pack_a<S: Scalar>(
    a: &View<'_, S>,
    i0: usize,
    p0: usize,
    mc: usize,
    kc: usize,
    ap: &mut [S::Compute],
) {
    let mr = S::MR;
    for (pi, panel) in ap[..mc.div_ceil(mr) * mr * kc]
        .chunks_exact_mut(mr * kc)
        .enumerate()
    {
        let rows_here = mr.min(mc - pi * mr);
        let row_base = i0 + pi * mr;
        if a.cs == 1 && rows_here == mr {
            // Row-major source, full panel: copy row-by-row at unit stride.
            for i in 0..mr {
                let src = &a.data[(row_base + i) * a.rs + p0..][..kc];
                for (p, &v) in src.iter().enumerate() {
                    panel[p * mr + i] = v.compute();
                }
            }
        } else {
            for (p, dst) in panel.chunks_exact_mut(mr).enumerate() {
                for (i, d) in dst.iter_mut().enumerate() {
                    *d = if i < rows_here {
                        a.at(row_base + i, p0 + p).compute()
                    } else {
                        S::Compute::ZERO
                    };
                }
            }
        }
    }
}

/// Packs the `kc x nc` block of `b` starting at `(p0, j0)` into NR-wide,
/// k-major panels: `bp[panel][p*NR + j] = B[p0 + p, j0 + panel*NR + j]`,
/// zero-padding columns past `nc`. Widens to [`Scalar::Compute`] like
/// [`pack_a`].
fn pack_b<S: Scalar>(
    b: &View<'_, S>,
    p0: usize,
    j0: usize,
    kc: usize,
    nc: usize,
    bp: &mut [S::Compute],
) {
    let nr = S::NR;
    for (pj, panel) in bp[..nc.div_ceil(nr) * nr * kc]
        .chunks_exact_mut(nr * kc)
        .enumerate()
    {
        pack_b_panel(b, p0, j0 + pj * nr, kc, nr.min(nc - pj * nr), panel);
    }
}

/// Packs one NR-wide, k-major B panel (`cols_here` valid columns starting
/// at `col_base`, zero-padded to NR), widening to [`Scalar::Compute`]. The
/// unit of work of the cooperative shared-slab fill: disjoint panels can be
/// packed by different workers.
fn pack_b_panel<S: Scalar>(
    b: &View<'_, S>,
    p0: usize,
    col_base: usize,
    kc: usize,
    cols_here: usize,
    panel: &mut [S::Compute],
) {
    let nr = S::NR;
    if b.cs == 1 && cols_here == nr {
        for (p, dst) in panel[..nr * kc].chunks_exact_mut(nr).enumerate() {
            let src = &b.data[(p0 + p) * b.rs + col_base..][..nr];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = v.compute();
            }
        }
    } else {
        for (p, dst) in panel[..nr * kc].chunks_exact_mut(nr).enumerate() {
            for (j, d) in dst.iter_mut().enumerate() {
                *d = if j < cols_here {
                    b.at(p0 + p, col_base + j).compute()
                } else {
                    S::Compute::ZERO
                };
            }
        }
    }
}

/// Applies the `beta` pass to a dense buffer (a `C` stripe here, the `y`
/// vector in `blas::gemv_t`): zero, scale in place, or leave untouched.
pub(crate) fn scale_stripe<S: Scalar>(c: &mut [S], beta: S) {
    if beta == S::ZERO {
        c.fill(S::ZERO);
    } else if beta != S::ONE {
        for v in c.iter_mut() {
            *v *= beta;
        }
    }
}

/// Runs one `MR x NR` register tile against the (already beta-scaled) `C`
/// tile starting at `c[0]`: the plain storage write-back, accumulating
/// through `C`.
#[allow(clippy::too_many_arguments)] // mirrors the engine's loop variables 1:1
#[inline(always)]
fn compute_tile<S: Scalar>(
    kc: usize,
    alpha: S,
    a_panel: &[S::Compute],
    b_panel: &[S::Compute],
    c: &mut [S],
    ldc: usize,
    mr_here: usize,
    nr_here: usize,
) {
    let (mr, nr) = (S::MR, S::NR);
    if mr_here == mr && nr_here == nr {
        S::microkernel(kc, alpha, a_panel, b_panel, c, ldc);
    } else {
        // Edge tile: run the full (zero-padded) kernel on a scratch copy of
        // the valid C corner and copy the corner back. Each entry then goes
        // through the interior tiles' exact write-back (one storage
        // rounding per slab), so its bits never depend on where a tile
        // boundary falls.
        debug_assert!(mr <= MAX_MR && mr * nr <= MAX_TILE);
        let mut tile = [S::ZERO; MAX_TILE];
        for i in 0..mr_here {
            tile[i * nr..i * nr + nr_here].copy_from_slice(&c[i * ldc..][..nr_here]);
        }
        S::microkernel(kc, alpha, a_panel, b_panel, &mut tile, nr);
        for i in 0..mr_here {
            c[i * ldc..][..nr_here].copy_from_slice(&tile[i * nr..i * nr + nr_here]);
        }
    }
}

/// The per-stripe block loop: accumulates `alpha * A[rows r0..r0+rows] · B`
/// into the (already beta-scaled) stripe `c` of shape `rows x ldc`.
fn gemm_stripe<S: Scalar>(
    alpha: S,
    a: &View<'_, S>,
    b: BSource<'_, S>,
    c: &mut [S],
    r0: usize,
    rows: usize,
    ldc: usize,
) {
    let (mr, nr) = (S::MR, S::NR);
    let (k, n) = (a.cols, b.cols());
    let ap_len = MC.div_ceil(mr) * mr * KC;
    parallel::with_pack_buffers::<S::Compute, _, _>(ap_len, b.slab_len(), |ap, bp| {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let panels: &[S::Compute] = match b {
                    BSource::View(v) => {
                        pack_b(&v, pc, jc, kc, nc, bp);
                        &*bp
                    }
                    BSource::Packed(p) => p.block(jc, pc),
                };
                for ic in (0..rows).step_by(MC) {
                    let mc = MC.min(rows - ic);
                    pack_a(a, r0 + ic, pc, mc, kc, ap);
                    for jr in (0..nc).step_by(nr) {
                        let nr_here = nr.min(nc - jr);
                        let b_panel = &panels[(jr / nr) * nr * kc..][..nr * kc];
                        for ir in (0..mc).step_by(mr) {
                            let mr_here = mr.min(mc - ir);
                            let a_panel = &ap[(ir / mr) * mr * kc..][..mr * kc];
                            let c_off = (ic + ir) * ldc + jc + jr;
                            compute_tile(
                                kc,
                                alpha,
                                a_panel,
                                b_panel,
                                &mut c[c_off..],
                                ldc,
                                mr_here,
                                nr_here,
                            );
                        }
                    }
                }
            }
        }
    });
}

/// Operation-count threshold (`m·k·n`) below which packing costs more than
/// it saves: [`gemm_auto`] runs such products with a direct loop over the
/// views instead. Covers the per-iteration `O(s·m·q)` correction products of
/// the training hot loop at test scale.
pub const SMALL_PRODUCT: usize = 1 << 17;

/// Dispatch used by the `blas` wrappers: the packed engine for real work,
/// a direct loop for products too small to amortise packing. Both give the
/// same bits (the small loop runs the blocked engines' per-entry chain), so
/// the threshold is a speed choice only.
pub fn gemm_auto<S: Scalar>(alpha: S, a: View<'_, S>, b: View<'_, S>, beta: S, c: &mut [S]) {
    if a.rows * a.cols * b.cols <= SMALL_PRODUCT {
        gemm_small(alpha, a, b, beta, c);
    } else {
        gemm_packed(alpha, a, b, beta, c);
    }
}

/// Direct per-entry products for sub-[`SMALL_PRODUCT`] shapes.
///
/// Every entry runs exactly the blocked engines' chain: the `beta` pass,
/// then per `KC` slab of the shared dimension (ascending) an FMA chain from
/// zero at [`Scalar::Compute`] width and the microkernel's write-back
/// `c <- from_compute(c + alpha·acc)`. So a product's bits do not depend on
/// which engine its shape dispatches to: one row of `A` gives the same row
/// of `C` alone (here) as inside a large batch (packed).
fn gemm_small<S: Scalar>(alpha: S, a: View<'_, S>, b: View<'_, S>, beta: S, c: &mut [S]) {
    assert_eq!(a.cols, b.rows, "gemm: inner dimension mismatch");
    let (m, k, n) = (a.rows, a.cols, b.cols);
    assert_eq!(c.len(), m * n, "gemm: C buffer shape mismatch");
    scale_stripe(c, beta);
    if k == 0 || alpha == S::ZERO {
        return;
    }
    let alpha_c = alpha.compute();
    for (i, c_row) in c.chunks_exact_mut(n.max(1)).enumerate() {
        for pc in (0..k).step_by(KC) {
            let slab = pc..k.min(pc + KC);
            for (j, cv) in c_row.iter_mut().enumerate() {
                let mut acc = S::Compute::ZERO;
                for p in slab.clone() {
                    acc = a.at(i, p).compute().mul_add(b.at(p, j).compute(), acc);
                }
                *cv = S::from_compute(cv.compute() + alpha_c * acc);
            }
        }
    }
}

/// `C <- alpha * A B + beta * C` over strided views, with `C` a row-major
/// `m x n` buffer of leading dimension `ldc == n`.
///
/// This is the single engine behind `gemm`, `gemm_tn` and `gemm_nt`: the
/// transpose variants differ only in the strides of the packed views.
///
/// Under a thread budget of 1 the whole block loop runs inline on the
/// caller; with more threads it dispatches to the cooperative shared-slab
/// engine (`gemm_shared_impl` internally), which packs each B block
/// **once** into a slab all workers read instead of once per thread. Both
/// paths — and the per-thread baseline [`gemm_packed_perthread`] — produce
/// bit-for-bit identical results: the per-entry accumulation order (KC
/// slabs in ascending `pc`, one register-tile accumulation each) never
/// changes, only which thread computes it.
///
/// # Panics
///
/// Panics if `a.cols != b.rows`, `a.rows * b.cols != c.len() / ldc * ldc`
/// shape-wise, or `ldc != b.cols`.
pub fn gemm_packed<S: Scalar>(alpha: S, a: View<'_, S>, b: View<'_, S>, beta: S, c: &mut [S]) {
    gemm_blocked(alpha, a, BSource::View(b), beta, c);
}

/// A right-hand GEMM operand packed once, ahead of the products that read
/// it: every `(jc, pc)` cache block in the engines' loop order, each laid
/// out exactly as the per-call packing writes it (NR-wide, k-major,
/// zero-padded panels at [`Scalar::Compute`] width).
///
/// A product against it ([`gemm_prepacked`]) runs the same engines,
/// microkernel and write-back as a product against the view it was packed
/// from, so its result is bitwise the same; only the packing pass is gone.
/// This is what lets a long-lived operand — a served model's centers and
/// weights — be packed once and read by every later product, from any
/// number of threads.
#[derive(Debug)]
pub struct PackedB<S: Scalar> {
    data: Vec<S::Compute>,
    rows: usize,
    cols: usize,
}

impl<S: Scalar> PackedB<S> {
    /// Packs the whole `k x n` operand `b`.
    pub fn pack(b: View<'_, S>) -> Self {
        let (k, n) = (b.rows, b.cols);
        let mut data = vec![S::Compute::ZERO; Self::len_for(k, n)];
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                pack_b(
                    &b,
                    pc,
                    jc,
                    kc,
                    nc,
                    &mut data[block_offset::<S>(k, jc, pc, nc)..],
                );
            }
        }
        PackedB {
            data,
            rows: k,
            cols: n,
        }
    }

    /// Elements (at [`Scalar::Compute`] width) a packed `k x n` operand
    /// holds: its columns padded to a multiple of `NR`, times `k`.
    pub fn len_for(k: usize, n: usize) -> usize {
        n.div_ceil(S::NR) * S::NR * k
    }

    /// Elements held, at [`Scalar::Compute`] width.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the operand is empty (`k == 0` or `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Logical row count `k` (the shared dimension).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical column count `n`.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The packed `(jc, pc)` cache block, exactly as `pack_b` lays it out.
    fn block(&self, jc: usize, pc: usize) -> &[S::Compute] {
        let nc = NC.min(self.cols - jc);
        let kc = KC.min(self.rows - pc);
        &self.data[block_offset::<S>(self.rows, jc, pc, nc)..][..nc.div_ceil(S::NR) * S::NR * kc]
    }
}

/// Offset of block `(jc, pc)` (of width `nc`) in a packed `k`-row operand:
/// each earlier column block holds `NC·k` elements (`NC` is a multiple of
/// every `NR`), and within a column block each earlier slab `KC` padded
/// rows of `nc`.
fn block_offset<S: Scalar>(k: usize, jc: usize, pc: usize, nc: usize) -> usize {
    jc * k + nc.div_ceil(S::NR) * S::NR * pc
}

/// `C <- alpha * A B + beta * C` against a pre-packed `B`: the dispatch of
/// [`gemm_packed`] with the B panels read from `b` instead of packed per
/// call — no shared-slab fill, no per-thread B packing. When `A` has fewer
/// `MC` row blocks than there are threads, the threads split the columns
/// instead of the rows, so a product of a few rows still streams `b` on
/// every thread.
///
/// The result is bitwise what [`gemm_auto`] gives on the view `b` was
/// packed from, whatever the shape: small products skip the small-product
/// path, which runs the same per-entry chain.
///
/// # Panics
///
/// Panics if `a.cols != b.rows()` or `c.len() != a.rows * b.cols()`.
pub fn gemm_prepacked<S: Scalar>(alpha: S, a: View<'_, S>, b: &PackedB<S>, beta: S, c: &mut [S]) {
    gemm_blocked(alpha, a, BSource::Packed(b), beta, c);
}

/// Where the blocked engines get their B panels: packed from a view on
/// every call, or read from a [`PackedB`].
#[derive(Debug, Clone, Copy)]
enum BSource<'a, S: Scalar> {
    View(View<'a, S>),
    Packed(&'a PackedB<S>),
}

impl<S: Scalar> BSource<'_, S> {
    fn rows(&self) -> usize {
        match self {
            BSource::View(v) => v.rows,
            BSource::Packed(p) => p.rows,
        }
    }

    fn cols(&self) -> usize {
        match self {
            BSource::View(v) => v.cols,
            BSource::Packed(p) => p.cols,
        }
    }

    /// Scratch elements one packed B block needs (none when pre-packed).
    fn slab_len(&self) -> usize {
        match self {
            BSource::View(_) => NC.div_ceil(S::NR) * S::NR * KC,
            BSource::Packed(_) => 0,
        }
    }
}

/// The blocked-engine dispatch: per-thread under a budget of 1; with more
/// threads, the column-split engine for a pre-packed B with too few rows
/// to give every thread an `MC` row block, and the cooperative
/// shared-slab engine otherwise.
fn gemm_blocked<S: Scalar>(alpha: S, a: View<'_, S>, b: BSource<'_, S>, beta: S, c: &mut [S]) {
    let threads = parallel::num_threads();
    match b {
        _ if threads <= 1 => gemm_perthread_impl(alpha, a, b, beta, c),
        BSource::Packed(p) if a.rows.div_ceil(MC) < threads => {
            gemm_cols_impl(alpha, a, p, beta, c, threads)
        }
        _ => gemm_shared_impl(alpha, a, b, beta, c, threads),
    }
}

/// Columns per unit of the column-split engine: a multiple of every `NR`
/// (16 at f32, 8 at f64), so a unit starts on a panel boundary and holds
/// whole panels, and a divisor of `NC`, so no unit straddles two column
/// blocks.
const COL_UNIT: usize = 64;

/// The column-split engine, for products against a pre-packed B whose few
/// rows leave threads idle under the row split (a served micro-batch of a
/// few rows is one `MC` block, so one thread would stream all of B). The
/// columns are cut into `COL_UNIT`-wide units, dealt out as contiguous
/// runs, and each run's participant sweeps every `(jc, pc)` block of it
/// into a private copy of those columns of `C`, copied back after the
/// join.
///
/// Each entry sees the same beta pass, the same A panels, the same slabs in
/// the same order and the same tile write-back as in the row-split
/// engines, so the result is bitwise theirs; only which thread streams
/// which panels of B changes.
fn gemm_cols_impl<S: Scalar>(
    alpha: S,
    a: View<'_, S>,
    b: &PackedB<S>,
    beta: S,
    c: &mut [S],
    threads: usize,
) {
    let Some((m, k, n)) = packed_preamble(&a, &BSource::Packed(b), alpha, beta, c) else {
        return;
    };
    scale_stripe(c, beta);
    // Two runs per thread: a participant that is first to the job takes a
    // second run while a late one is still waking, instead of waiting.
    let units = n.div_ceil(COL_UNIT);
    let parts = (2 * threads).min(units);
    let cols_of = |t: usize| {
        let col = |u: usize| (u * COL_UNIT).min(n);
        col(t * units / parts)..col((t + 1) * units / parts)
    };
    let region = m * units.div_ceil(parts) * COL_UNIT;
    let (mr, nr) = (S::MR, S::NR);
    let ap_len = MC.div_ceil(mr) * mr * KC;
    parallel::with_shared_slab::<S, _, _>(parts * region, |scratch| {
        let src: &[S] = c;
        parallel::for_each_chunk_mut(&mut scratch[..parts * region], region, |off, part| {
            let cols = cols_of(off / region);
            let (c0, w) = (cols.start, cols.len());
            let part = &mut part[..m * w];
            for (i, row) in part.chunks_exact_mut(w).enumerate() {
                row.copy_from_slice(&src[i * n + c0..][..w]);
            }
            parallel::with_pack_buffers::<S::Compute, _, _>(ap_len, 0, |ap, _| {
                for jc in (c0 / NC * NC..cols.end).step_by(NC) {
                    let nc = NC.min(n - jc);
                    let (lo, hi) = (c0.max(jc), cols.end.min(jc + nc));
                    for pc in (0..k).step_by(KC) {
                        let kc = KC.min(k - pc);
                        let panels = b.block(jc, pc);
                        for ic in (0..m).step_by(MC) {
                            let mc = MC.min(m - ic);
                            pack_a(&a, ic, pc, mc, kc, ap);
                            for jr in (lo - jc..hi - jc).step_by(nr) {
                                let nr_here = nr.min(nc - jr);
                                let b_panel = &panels[(jr / nr) * nr * kc..][..nr * kc];
                                for ir in (0..mc).step_by(mr) {
                                    let a_panel = &ap[(ir / mr) * mr * kc..][..mr * kc];
                                    let c_off = (ic + ir) * w + jc + jr - c0;
                                    compute_tile(
                                        kc,
                                        alpha,
                                        a_panel,
                                        b_panel,
                                        &mut part[c_off..],
                                        w,
                                        mr.min(mc - ir),
                                        nr_here,
                                    );
                                }
                            }
                        }
                    }
                }
            });
        });
        for t in 0..parts {
            let cols = cols_of(t);
            let (c0, w) = (cols.start, cols.len());
            let part = &scratch[t * region..][..m * w];
            for (i, row) in part.chunks_exact(w).enumerate() {
                c[i * n + c0..][..w].copy_from_slice(row);
            }
        }
    });
}

/// Checks shapes and handles the degenerate cases shared by both packed
/// engines; returns `None` when the caller is already done.
fn packed_preamble<S: Scalar>(
    a: &View<'_, S>,
    b: &BSource<'_, S>,
    alpha: S,
    beta: S,
    c: &mut [S],
) -> Option<(usize, usize, usize)> {
    assert_eq!(a.cols, b.rows(), "gemm_packed: inner dimension mismatch");
    let (m, n) = (a.rows, b.cols());
    assert_eq!(c.len(), m * n, "gemm_packed: C buffer shape mismatch");
    if m == 0 || n == 0 {
        return None;
    }
    if a.cols == 0 || alpha == S::ZERO {
        scale_stripe(c, beta);
        return None;
    }
    Some((m, a.cols, n))
}

/// The pre-pool engine, kept as the measured baseline: MR-aligned row
/// stripes of `C` over the workers, **each stripe packing its own copy of
/// every B block** (`threads x` redundant packing traffic). `BENCH_pool.json`
/// and the shared-slab property tests compare against this path.
pub fn gemm_packed_perthread<S: Scalar>(
    alpha: S,
    a: View<'_, S>,
    b: View<'_, S>,
    beta: S,
    c: &mut [S],
) {
    gemm_perthread_impl(alpha, a, BSource::View(b), beta, c);
}

/// The per-thread engine body: [`gemm_packed_perthread`], and the budget-1
/// dispatch of [`gemm_packed`] and [`gemm_prepacked`].
fn gemm_perthread_impl<S: Scalar>(
    alpha: S,
    a: View<'_, S>,
    b: BSource<'_, S>,
    beta: S,
    c: &mut [S],
) {
    let Some((m, _, n)) = packed_preamble(&a, &b, alpha, beta, c) else {
        return;
    };
    // The beta pass runs inside each stripe so C is touched exactly once
    // before accumulation.
    let threads = parallel::num_threads();
    let stripe_rows = m
        .div_ceil(threads)
        .next_multiple_of(S::MR)
        .clamp(S::MR, m.next_multiple_of(S::MR));
    parallel::for_each_chunk_mut(c, stripe_rows * n, |off, stripe| {
        let r0 = off / n;
        let rows = stripe.len() / n;
        scale_stripe(stripe, beta);
        gemm_stripe(alpha, &a, b, stripe, r0, rows, n);
    });
}

/// The cooperative shared-slab engine: for every `(jc, pc)` cache block,
/// the B panels are packed **once** into a slab shared by all workers
/// (phase 1, one NR panel per pool chunk), and only then do the workers
/// sweep their MC row blocks of `C` against it (phase 2, per-thread A
/// packing as before). The fork-join between the two phases is the panel
/// barrier: no worker reads a panel before the pool has finished writing
/// the slab, and no worker overwrites it for the next `pc` before every
/// reader of the current one has joined. A pre-packed B skips phase 1: the
/// workers read its blocks directly.
fn gemm_shared_impl<S: Scalar>(
    alpha: S,
    a: View<'_, S>,
    b: BSource<'_, S>,
    beta: S,
    c: &mut [S],
    threads: usize,
) {
    let Some((m, k, n)) = packed_preamble(&a, &b, alpha, beta, c) else {
        return;
    };
    let nr = S::NR;
    // One beta pass over C up front (the per-stripe pass of the baseline,
    // hoisted: every (jc, pc) block below is a pure accumulation).
    let beta_chunk = m.div_ceil(threads).max(1) * n;
    parallel::for_each_chunk_mut(c, beta_chunk, |_, stripe| scale_stripe(stripe, beta));
    parallel::with_shared_slab::<S::Compute, _, _>(b.slab_len(), |bp| {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let panels: &[S::Compute] = match b {
                    BSource::View(v) => {
                        // Phase 1: cooperative pack. Each pool chunk fills
                        // one NR-wide panel; panels are disjoint slab slices.
                        let count = nc.div_ceil(nr);
                        parallel::for_each_chunk_mut(
                            &mut bp[..count * nr * kc],
                            nr * kc,
                            |off, panel| {
                                let pj = off / (nr * kc);
                                pack_b_panel(&v, pc, jc + pj * nr, kc, nr.min(nc - pj * nr), panel);
                            },
                        );
                        &*bp
                    }
                    BSource::Packed(p) => p.block(jc, pc),
                };
                // Phase 2: MC row blocks of C against the shared slab. MC is
                // a multiple of both microkernel heights, so every chunk
                // boundary is MR-aligned for every precision.
                parallel::for_each_chunk_mut(c, MC * n, |off, stripe| {
                    let r0 = off / n;
                    let rows = stripe.len() / n;
                    gemm_block_rows(alpha, &a, stripe, r0, rows, n, pc, kc, jc, nc, panels);
                });
            }
        }
    });
}

/// Phase-2 unit of the shared-slab engine: accumulates the `(jc, pc)` cache
/// block's contribution into the `rows x ldc` C stripe starting at global
/// row `r0`, packing the stripe's A block into this thread's arena and
/// reading the B panels from the shared slab.
#[allow(clippy::too_many_arguments)] // mirrors the engine's loop variables 1:1
fn gemm_block_rows<S: Scalar>(
    alpha: S,
    a: &View<'_, S>,
    c: &mut [S],
    r0: usize,
    rows: usize,
    ldc: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    bp: &[S::Compute],
) {
    let (mr, nr) = (S::MR, S::NR);
    let ap_len = MC.div_ceil(mr) * mr * KC;
    parallel::with_pack_buffers::<S::Compute, _, _>(ap_len, 0, |ap, _| {
        for ic in (0..rows).step_by(MC) {
            let mc = MC.min(rows - ic);
            pack_a(a, r0 + ic, pc, mc, kc, ap);
            for jr in (0..nc).step_by(nr) {
                let nr_here = nr.min(nc - jr);
                let b_panel = &bp[(jr / nr) * nr * kc..][..nr * kc];
                for ir in (0..mc).step_by(mr) {
                    let mr_here = mr.min(mc - ir);
                    let a_panel = &ap[(ir / mr) * mr * kc..][..mr * kc];
                    let c_off = (ic + ir) * ldc + jc + jr;
                    compute_tile(
                        kc,
                        alpha,
                        a_panel,
                        b_panel,
                        &mut c[c_off..],
                        ldc,
                        mr_here,
                        nr_here,
                    );
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill<S: Scalar>(len: usize, seed: u64) -> Vec<S> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                S::from_f64(((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
            })
            .collect()
    }

    fn naive(m: usize, k: usize, n: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    #[test]
    fn packed_matches_naive_odd_shapes() {
        // Crosses MC/KC/NC and the MR/NR tails in one shot.
        let (m, k, n) = (MC + 3, KC + 5, NC + 7);
        let a: Vec<f64> = fill(m * k, 1);
        let b: Vec<f64> = fill(k * n, 2);
        let mut c = vec![0.5; m * n];
        gemm_packed(
            2.0,
            View::row_major(&a, m, k),
            View::row_major(&b, k, n),
            -1.0,
            &mut c,
        );
        let reference = naive(m, k, n, &a, &b);
        for (i, (&got, &raw)) in c.iter().zip(&reference).enumerate() {
            let expect = 2.0 * raw - 0.5;
            assert!((got - expect).abs() < 1e-9, "entry {i}: {got} vs {expect}");
        }
    }

    #[test]
    fn transposed_views_swap_strides() {
        let (m, k, n) = (13, 9, 11);
        // A stored as k x m row-major, viewed transposed -> logical m x k.
        let a_t: Vec<f32> = fill(k * m, 3);
        let b: Vec<f32> = fill(k * n, 4);
        let mut c = vec![0.0_f32; m * n];
        gemm_packed(
            1.0,
            View::transposed(&a_t, k, m),
            View::row_major(&b, k, n),
            0.0,
            &mut c,
        );
        let a_log: Vec<f64> = (0..m * k)
            .map(|idx| a_t[(idx % k) * m + idx / k] as f64)
            .collect();
        let b64: Vec<f64> = b.iter().map(|&v| v as f64).collect();
        let reference = naive(m, k, n, &a_log, &b64);
        for (&got, &expect) in c.iter().zip(&reference) {
            assert!((got as f64 - expect).abs() < 1e-4);
        }
    }

    fn assert_bits_eq<S: Scalar>(got: &[S], want: &[S], what: &str) {
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_f64().to_bits(),
                w.to_f64().to_bits(),
                "{what}: entry {i} ({})",
                S::NAME
            );
        }
    }

    /// The small loop and both blocked engines agree bit for bit, on shapes
    /// with one and several `KC` slabs and MR/NR edges.
    fn small_matches_packed<S: Scalar>(m: usize, k: usize, n: usize) {
        let a: Vec<S> = fill(m * k, 41);
        let b: Vec<S> = fill(k * n, 42);
        let (av, bv) = (View::row_major(&a, m, k), View::row_major(&b, k, n));
        let mut small = vec![S::from_f64(0.75); m * n];
        gemm_small(S::from_f64(-2.0), av, bv, S::from_f64(0.5), &mut small);
        for threads in [1, 2] {
            let mut packed = vec![S::from_f64(0.75); m * n];
            ep2_runtime::with_budget(threads, || {
                gemm_packed(S::from_f64(-2.0), av, bv, S::from_f64(0.5), &mut packed)
            });
            assert_bits_eq(
                &packed,
                &small,
                &format!("{m}x{k}x{n} at {threads} threads"),
            );
        }
    }

    #[test]
    fn small_path_matches_packed_engines_bitwise() {
        for &(m, k, n) in &[(1, 7, 9), (3, 2 * KC + 9, 5), (7, KC, 17)] {
            small_matches_packed::<f32>(m, k, n);
            small_matches_packed::<f64>(m, k, n);
            small_matches_packed::<crate::Bf16>(m, k, n);
        }
    }

    /// A row of `C` does not depend on the rows around it: the product of a
    /// lone row (an edge tile, or the small loop) equals the same row
    /// inside a many-row product, at every precision and multi-slab `k`.
    fn row_independent<S: Scalar>(k: usize, n: usize) {
        let m = MC + 5;
        let a: Vec<S> = fill(m * k, 51);
        let b: Vec<S> = fill(k * n, 52);
        let bv = View::row_major(&b, k, n);
        let mut full = vec![S::ZERO; m * n];
        gemm_auto(S::ONE, View::row_major(&a, m, k), bv, S::ZERO, &mut full);
        for i in [0, 5, MC + 4] {
            let mut row = vec![S::ZERO; n];
            gemm_auto(
                S::ONE,
                View::row_major(&a[i * k..], 1, k),
                bv,
                S::ZERO,
                &mut row,
            );
            assert_bits_eq(&row, &full[i * n..(i + 1) * n], &format!("row {i}, k={k}"));
        }
    }

    #[test]
    fn rows_are_batch_independent() {
        for &(k, n) in &[(2 * KC + 3, 37), (KC / 2, NC + 9)] {
            row_independent::<f32>(k, n);
            row_independent::<f64>(k, n);
            row_independent::<crate::Bf16>(k, n);
        }
    }

    /// Products against a [`PackedB`] are bitwise [`gemm_auto`] on the
    /// source view, for plain and transposed sources, small and blocked
    /// shapes crossing every block boundary, at budgets 1 and 2.
    fn prepacked_matches_auto<S: Scalar>(m: usize, k: usize, n: usize) {
        let a: Vec<S> = fill(m * k, 61);
        let b: Vec<S> = fill(k * n, 62);
        let av = View::row_major(&a, m, k);
        for bv in [View::row_major(&b, k, n), View::transposed(&b, n, k)] {
            let packed = PackedB::pack(bv);
            assert_eq!(packed.len(), PackedB::<S>::len_for(k, n));
            let mut want = vec![S::from_f64(0.25); m * n];
            gemm_auto(S::from_f64(1.5), av, bv, S::ONE, &mut want);
            for threads in [1, 2] {
                let mut got = vec![S::from_f64(0.25); m * n];
                ep2_runtime::with_budget(threads, || {
                    gemm_prepacked(S::from_f64(1.5), av, &packed, S::ONE, &mut got)
                });
                assert_bits_eq(&got, &want, &format!("{m}x{k}x{n} at {threads} threads"));
            }
        }
    }

    #[test]
    fn prepacked_matches_per_call_packing_bitwise() {
        for &(m, k, n) in &[
            (1, 9, 13),               // small-product shape
            (1, KC + 5, NC + 7),      // one row, every block boundary
            (MC + 3, KC + 5, NC + 7), // every block boundary
            (2 * MC, 2 * KC, NC),     // exact multiples
        ] {
            prepacked_matches_auto::<f32>(m, k, n);
            prepacked_matches_auto::<f64>(m, k, n);
            prepacked_matches_auto::<crate::Bf16>(m, k, n);
        }
    }

    fn column_split_matches_one_thread<S: Scalar>(m: usize, k: usize, n: usize) {
        let a: Vec<S> = fill(m * k, 71);
        let b: Vec<S> = fill(k * n, 72);
        let av = View::row_major(&a, m, k);
        let packed = PackedB::pack(View::transposed(&b, n, k));
        let run = |threads: usize| {
            let mut c = vec![S::from_f64(0.5); m * n];
            ep2_runtime::with_budget(threads, || {
                gemm_prepacked(S::from_f64(1.5), av, &packed, S::ONE, &mut c)
            });
            c
        };
        let want = run(1);
        for threads in [2, 3, 8] {
            let what = format!("{m}x{k}x{n} at {threads} threads");
            assert_bits_eq(&run(threads), &want, &what);
        }
    }

    #[test]
    fn column_split_is_bitwise_the_row_split() {
        // Rows too few for a row block per thread take the column split:
        // one row, an MR edge, a whole MC block, and (at 3 and 8 threads)
        // several MC blocks with an edge; columns crossing NC with a
        // partial unit, and fewer columns than threads have units.
        for &(m, k, n) in &[
            (1, KC + 5, 2 * NC + 7),
            (5, KC + 5, NC + COL_UNIT + 3),
            (MC, 2 * KC, NC),
            (MC + 9, KC + 1, NC + 1),
            (3, 40, COL_UNIT + 1),
        ] {
            column_split_matches_one_thread::<f32>(m, k, n);
            column_split_matches_one_thread::<f64>(m, k, n);
            column_split_matches_one_thread::<crate::Bf16>(m, k, n);
        }
    }

    #[test]
    fn zero_inner_dim_is_beta_pass() {
        let a: Vec<f64> = vec![];
        let b: Vec<f64> = vec![];
        let mut c = vec![4.0; 6];
        gemm_packed(
            1.0,
            View::row_major(&a, 2, 0),
            View::row_major(&b, 0, 3),
            0.25,
            &mut c,
        );
        assert!(c.iter().all(|&v| v == 1.0));
    }
}
