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
//!   rounding walk beyond that. Column-tiling (`predict_tiled`, the
//!   streamed tile ring) caps `k` at the tile width; at `k/KC` approaching
//!   `2^8` slab contributions start falling below one ulp of the running
//!   partial and bf16 accumulation stalls (see `tests/precision.rs` for
//!   the enforced per-slab bound).
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
//! Measured on the dev container (1 core, AVX-512, `target-cpu=native`;
//! see `BENCH_gemm.json`): f32 sustains 77-87 Gflop/s (7.4-8.7x the seed
//! axpy GEMM) and f64 34-37 Gflop/s (7.8-11.7x seed), which is what makes
//! the device simulator's `flops = 2mkn` pricing an honest description of
//! this code. The f32/f64 packed ratio is 2.25-2.4x: with both precisions
//! compute-bound at the same vector width the ceiling is the 2x lane gap
//! plus cache effects — the seed's higher-looking ratio at 4096² came from
//! f64 cache-thrashing, not from f32 being fast.

use crate::parallel;
use crate::scalar::Scalar;
use crate::vmath;

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

/// A fused `C` write-back hook: maps each fully-accumulated GEMM entry —
/// at [`Scalar::Compute`] width, while the entry's cache block is still
/// hot — to the value actually stored, replacing the plain
/// `C[i,j] = from_compute(acc)` narrowing.
///
/// `apply` receives the **global** `(row, col)` of the entry and the
/// fully-accumulated value `acc = alpha·(A·B)[row,col] + beta·C[row,col]`
/// (every `KC` slab already folded in; see the engine contract below), and
/// returns the storage value. This is what lets kernel assembly fuse the
/// `d² = ‖x‖² + ‖z‖² − 2x·z` reassembly and the radial profile into the
/// write-back — the separate element-wise pass over `C`, which streamed
/// every tile through cache a second time, disappears. The hook is
/// deliberately generic (any `Fn(usize, usize, Compute) -> S` closure
/// implements it): a serve-path bias/scale epilogue is the same shape.
///
/// # Engine contract (exactness)
///
/// The epilogue-taking entry points ([`gemm_auto_epilogue`],
/// [`gemm_packed_epilogue`]) guarantee:
///
/// - `apply` runs **exactly once** per `C` entry, only after the entry's
///   accumulation is complete — in the blocked engines, on the final `pc`
///   slab of the entry's column block, swept over each `MC x NC` cache
///   block right after its tiles land (the block is still cache-resident;
///   this is where the old two-pass scheme's second full-matrix memory
///   sweep went). Earlier slabs accumulate through `C` in storage
///   precision exactly as the plain engines do, so the per-entry rounding
///   chain (one storage rounding per slab for `bf16`) is **bit-for-bit
///   identical** to running the plain GEMM first.
/// - The value handed to `apply` is `stored.compute()`, where `stored` is
///   exactly the plain GEMM's result for that entry, in every engine
///   (`from_compute . compute` is the identity, so it narrows back to the
///   same bits) — pinned by the `store_epilogue_matches_plain_gemm` tests.
/// - Threading never changes what `apply` sees, only which worker calls it.
///
/// Implementations must be `Sync`: the packed engines invoke the epilogue
/// from worker threads.
pub trait Epilogue<S: Scalar>: Sync {
    /// Maps the fully-accumulated entry at global `(row, col)` to the value
    /// to store.
    fn apply(&self, row: usize, col: usize, acc: S::Compute) -> S;

    /// Row-batched form of [`Epilogue::apply`]: maps the contiguous run of
    /// fully-accumulated entries `(row, col0 + j)` for `j < acc.len()`,
    /// writing the storage values into `out`.
    ///
    /// The engines hand whole register-tile rows (and row segments on the
    /// degenerate sweeps) through this hook, so an epilogue can batch
    /// lane-level work — kernel assembly's vectorized radial profile
    /// overrides it to run d² reassembly and the profile polynomial a
    /// vector register at a time. The default is the per-entry loop, which
    /// keeps plain [`Epilogue::apply`] implementations (closures,
    /// [`StoreEpilogue`], third-party hooks) exactly as before. An
    /// override must store bitwise the same values the default would —
    /// that is what keeps the engine contract's exactness guarantees
    /// independent of how the engines segment rows.
    ///
    /// # Panics
    ///
    /// Implementations may assume and debug-assert
    /// `acc.len() == out.len()`.
    #[inline]
    fn apply_row(&self, row: usize, col0: usize, acc: &[S::Compute], out: &mut [S]) {
        debug_assert_eq!(acc.len(), out.len());
        for (j, (&a, o)) in acc.iter().zip(out.iter_mut()).enumerate() {
            *o = self.apply(row, col0 + j, a);
        }
    }
}

impl<S: Scalar, F> Epilogue<S> for F
where
    F: Fn(usize, usize, S::Compute) -> S + Sync,
{
    #[inline(always)]
    fn apply(&self, row: usize, col: usize, acc: S::Compute) -> S {
        self(row, col, acc)
    }
}

/// The identity epilogue: stores the accumulated value unchanged
/// (`from_compute(acc)`), making the fused entry points degenerate to the
/// plain GEMM bit for bit — the reference point the parity tests pin, and
/// the phantom type the plain engines instantiate the shared loops with.
#[derive(Debug, Clone, Copy)]
pub struct StoreEpilogue;

impl<S: Scalar> Epilogue<S> for StoreEpilogue {
    #[inline(always)]
    fn apply(&self, _row: usize, _col: usize, acc: S::Compute) -> S {
        S::from_compute(acc)
    }
}

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
/// through `C`. Epilogues are not applied here — the blocked engines sweep
/// them over each completed `MC x NC` cache block instead (see
/// [`epilogue_block`]), where the batched [`Epilogue::apply_row`] seam gets
/// full [`vmath::BLOCK`] row segments rather than NR-wide tile rows.
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

/// Applies an epilogue over the freshly-completed cache block
/// `rows x cols` at `(row0, col0)` of the stripe `c` (local row 0 ==
/// global row `row0`), in [`vmath::BLOCK`]-wide row segments widened back
/// to compute width. Runs on the worker that owns the stripe, immediately
/// after the block's final-slab tiles land — the block is still
/// cache-resident, so this costs the sweep's arithmetic, not a second
/// trip through memory. `from_compute . compute` being the identity makes
/// the widened value satisfy the [`Epilogue`] contract exactly.
fn epilogue_block<S: Scalar, E: Epilogue<S>>(
    c: &mut [S],
    ldc: usize,
    row0: usize,
    rows: usize,
    col0: usize,
    cols: usize,
    epi: &E,
) {
    epilogue_block_at(c, ldc, row0, rows, col0, col0, cols, epi);
}

/// [`epilogue_block`] over a copy of `C`'s columns: the block's columns
/// start at `local0` in `c` and at global column `col0`.
#[allow(clippy::too_many_arguments)] // epilogue_block's arguments plus the local offset
fn epilogue_block_at<S: Scalar, E: Epilogue<S>>(
    c: &mut [S],
    ldc: usize,
    row0: usize,
    rows: usize,
    local0: usize,
    col0: usize,
    cols: usize,
    epi: &E,
) {
    let mut buf = [S::Compute::ZERO; vmath::BLOCK];
    for i in 0..rows {
        let row = &mut c[i * ldc + local0..][..cols];
        for (s, seg) in row.chunks_mut(vmath::BLOCK).enumerate() {
            let widened = &mut buf[..seg.len()];
            for (w, v) in widened.iter_mut().zip(seg.iter()) {
                *w = v.compute();
            }
            epi.apply_row(row0 + i, col0 + s * vmath::BLOCK, widened, seg);
        }
    }
}

/// The per-stripe block loop: accumulates `alpha * A[rows r0..r0+rows] · B`
/// into the (already beta-scaled) stripe `c` of shape `rows x ldc`. When an
/// epilogue is given, it fires on the final `pc` slab of each column block
/// (see [`Epilogue`] for the exactness contract).
#[allow(clippy::too_many_arguments)] // mirrors the engine's loop variables 1:1
fn gemm_stripe<S: Scalar, E: Epilogue<S>>(
    alpha: S,
    a: &View<'_, S>,
    b: BSource<'_, S>,
    c: &mut [S],
    r0: usize,
    rows: usize,
    ldc: usize,
    epi: Option<&E>,
) {
    let (mr, nr) = (S::MR, S::NR);
    let (k, n) = (a.cols, b.cols());
    let ap_len = MC.div_ceil(mr) * mr * KC;
    parallel::with_pack_buffers::<S::Compute, _, _>(ap_len, b.slab_len(), |ap, bp| {
        for jc in (0..n).step_by(NC) {
            let nc = NC.min(n - jc);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                let fuse = if pc + KC >= k { epi } else { None };
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
                    if let Some(epi) = fuse {
                        epilogue_block(&mut c[ic * ldc..], ldc, r0 + ic, mc, jc, nc, epi);
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

/// Fused-epilogue variant of [`gemm_auto`]: same [`SMALL_PRODUCT`] dispatch
/// (depending only on the shape, so fused and plain runs of one shape
/// always hit the same engine), with `epi` applied to every
/// fully-accumulated entry per the [`Epilogue`] contract.
pub fn gemm_auto_epilogue<S: Scalar, E: Epilogue<S>>(
    alpha: S,
    a: View<'_, S>,
    b: View<'_, S>,
    beta: S,
    c: &mut [S],
    epi: &E,
) {
    if a.rows * a.cols * b.cols <= SMALL_PRODUCT {
        gemm_small_epilogue(alpha, a, b, beta, c, epi);
    } else {
        gemm_packed_epilogue(alpha, a, b, beta, c, epi);
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

/// [`gemm_small`] followed by the epilogue over each finished row, handed
/// the stored values widened back to compute width as the blocked engines
/// hand them.
fn gemm_small_epilogue<S: Scalar, E: Epilogue<S>>(
    alpha: S,
    a: View<'_, S>,
    b: View<'_, S>,
    beta: S,
    c: &mut [S],
    epi: &E,
) {
    gemm_small(alpha, a, b, beta, c);
    let n = b.cols;
    if n > 0 {
        for (i, row) in c.chunks_exact_mut(n).enumerate() {
            epilogue_block(row, n, i, 1, 0, n, epi);
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
    gemm_blocked::<S, StoreEpilogue>(alpha, a, BSource::View(b), beta, c, None);
}

/// Fused-epilogue variant of [`gemm_packed`]: identical engine dispatch
/// (per-thread under a budget of 1, cooperative shared-slab otherwise),
/// with the epilogue firing on each entry's final `KC` slab.
pub fn gemm_packed_epilogue<S: Scalar, E: Epilogue<S>>(
    alpha: S,
    a: View<'_, S>,
    b: View<'_, S>,
    beta: S,
    c: &mut [S],
    epi: &E,
) {
    gemm_blocked(alpha, a, BSource::View(b), beta, c, Some(epi));
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
    gemm_blocked::<S, StoreEpilogue>(alpha, a, BSource::Packed(b), beta, c, None);
}

/// Fused-epilogue variant of [`gemm_prepacked`], under the [`Epilogue`]
/// contract.
pub fn gemm_prepacked_epilogue<S: Scalar, E: Epilogue<S>>(
    alpha: S,
    a: View<'_, S>,
    b: &PackedB<S>,
    beta: S,
    c: &mut [S],
    epi: &E,
) {
    gemm_blocked(alpha, a, BSource::Packed(b), beta, c, Some(epi));
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
fn gemm_blocked<S: Scalar, E: Epilogue<S>>(
    alpha: S,
    a: View<'_, S>,
    b: BSource<'_, S>,
    beta: S,
    c: &mut [S],
    epi: Option<&E>,
) {
    let threads = parallel::num_threads();
    match b {
        _ if threads <= 1 => gemm_perthread_impl(alpha, a, b, beta, c, epi),
        BSource::Packed(p) if a.rows.div_ceil(MC) < threads => {
            gemm_cols_impl(alpha, a, p, beta, c, threads, epi)
        }
        _ => gemm_shared_impl(alpha, a, b, beta, c, threads, epi),
    }
}

/// Columns per unit of the column-split engine: whole `NR` panels at every
/// precision, and the epilogue's segment width, so a unit's epilogue sweeps
/// exactly the segments the row-split engines sweep. `NC` is a multiple of
/// it, so no unit straddles two column blocks.
const COL_UNIT: usize = vmath::BLOCK;

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
/// engines, and the epilogue the same segments, so the result is bitwise
/// theirs; only which thread streams which panels of B changes.
fn gemm_cols_impl<S: Scalar, E: Epilogue<S>>(
    alpha: S,
    a: View<'_, S>,
    b: &PackedB<S>,
    beta: S,
    c: &mut [S],
    threads: usize,
    epi: Option<&E>,
) {
    let Some((m, k, n)) = packed_preamble(&a, &BSource::Packed(b), alpha, beta, c) else {
        if let Some(epi) = epi {
            epilogue_sweep(c, b.cols(), epi);
        }
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
                        let fuse = if pc + KC >= k { epi } else { None };
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
                            if let Some(epi) = fuse {
                                let rows = &mut part[ic * w..];
                                epilogue_block_at(rows, w, ic, mc, lo - c0, lo, hi - lo, epi);
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

/// Degenerate-product epilogue pass (`k == 0` or `alpha == 0`, where
/// [`packed_preamble`] already reduced `C` to its beta-scaled prior): the
/// fused contract still owes the epilogue exactly one visit per entry, with
/// the stored value widened back to compute width (`from_compute` of which
/// is the identity on it, so [`StoreEpilogue`] leaves `C` untouched).
fn epilogue_sweep<S: Scalar, E: Epilogue<S>>(c: &mut [S], n: usize, epi: &E) {
    if c.is_empty() || n == 0 {
        return;
    }
    parallel::for_each_chunk_mut(c, n, |off, row| {
        epilogue_block(row, n, off / n, 1, 0, n, epi);
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
    gemm_perthread_impl::<S, StoreEpilogue>(alpha, a, BSource::View(b), beta, c, None);
}

/// The per-thread engine body, shared by the plain and fused entry points
/// (`epi == None` is the plain write-back on every slab).
fn gemm_perthread_impl<S: Scalar, E: Epilogue<S>>(
    alpha: S,
    a: View<'_, S>,
    b: BSource<'_, S>,
    beta: S,
    c: &mut [S],
    epi: Option<&E>,
) {
    let Some((m, _, n)) = packed_preamble(&a, &b, alpha, beta, c) else {
        if let Some(epi) = epi {
            epilogue_sweep(c, b.cols(), epi);
        }
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
        gemm_stripe(alpha, &a, b, stripe, r0, rows, n, epi);
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
///
/// Shared by the plain and fused entry points (`epi == None` is the plain
/// write-back on every slab; `Some` fires it on each entry's final `pc`
/// slab, from whichever worker owns that row stripe).
fn gemm_shared_impl<S: Scalar, E: Epilogue<S>>(
    alpha: S,
    a: View<'_, S>,
    b: BSource<'_, S>,
    beta: S,
    c: &mut [S],
    threads: usize,
    epi: Option<&E>,
) {
    let Some((m, k, n)) = packed_preamble(&a, &b, alpha, beta, c) else {
        if let Some(epi) = epi {
            epilogue_sweep(c, b.cols(), epi);
        }
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
                let fuse = if pc + KC >= k { epi } else { None };
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
                    gemm_block_rows(alpha, &a, stripe, r0, rows, n, pc, kc, jc, nc, panels, fuse);
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
fn gemm_block_rows<S: Scalar, E: Epilogue<S>>(
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
    fuse: Option<&E>,
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
            if let Some(epi) = fuse {
                epilogue_block(&mut c[ic * ldc..], ldc, r0 + ic, mc, jc, nc, epi);
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

    /// `StoreEpilogue` through the fused entry points must degenerate to
    /// the plain GEMM **bit for bit** — the write-back rounding chains
    /// (interior, edge-scratch, small-path) are replicated exactly, for
    /// every precision, on shapes crossing every block boundary.
    fn store_epilogue_matches_plain<S: Scalar>(m: usize, k: usize, n: usize) {
        let a: Vec<S> = fill(m * k, 11);
        let b: Vec<S> = fill(k * n, 12);
        let mut plain = vec![S::from_f64(0.25); m * n];
        let mut fused = plain.clone();
        gemm_auto(
            S::from_f64(-2.0),
            View::row_major(&a, m, k),
            View::row_major(&b, k, n),
            S::ONE,
            &mut plain,
        );
        gemm_auto_epilogue(
            S::from_f64(-2.0),
            View::row_major(&a, m, k),
            View::row_major(&b, k, n),
            S::ONE,
            &mut fused,
            &StoreEpilogue,
        );
        for (i, (&p, &f)) in plain.iter().zip(&fused).enumerate() {
            assert_eq!(
                p.to_f64().to_bits(),
                f.to_f64().to_bits(),
                "entry {i} ({m}x{k}x{n}, {})",
                S::NAME
            );
        }
    }

    #[test]
    fn store_epilogue_matches_plain_gemm() {
        for &(m, k, n) in &[
            (5, 7, 9),                // small path, edge tiles
            (MC + 3, KC + 5, NC + 7), // packed, every block boundary
            (2 * MC, 2 * KC, NC),     // packed, exact multiples
        ] {
            store_epilogue_matches_plain::<f32>(m, k, n);
            store_epilogue_matches_plain::<f64>(m, k, n);
            store_epilogue_matches_plain::<crate::Bf16>(m, k, n);
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
        // A coordinate-dependent epilogue: a wrong global column, a skipped
        // or a repeated visit changes the bits.
        let bias = |i: usize, j: usize, acc: S::Compute| {
            S::from_compute(acc + S::Compute::from_f64((i + 3 * j) as f64 * 1e-3))
        };
        let run = |threads: usize, fused: bool| {
            let mut c = vec![S::from_f64(0.5); m * n];
            ep2_runtime::with_budget(threads, || {
                if fused {
                    gemm_prepacked_epilogue(S::from_f64(-2.0), av, &packed, S::ZERO, &mut c, &bias)
                } else {
                    gemm_prepacked(S::from_f64(1.5), av, &packed, S::ONE, &mut c)
                }
            });
            c
        };
        for fused in [false, true] {
            let want = run(1, fused);
            for threads in [2, 3, 8] {
                let what = format!("{m}x{k}x{n} fused={fused} at {threads} threads");
                assert_bits_eq(&run(threads, fused), &want, &what);
            }
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
    fn closure_epilogue_sees_global_coords_once_each() {
        // A bias epilogue (the serve-path shape): out[i,j] = acc + i + 2j.
        // Visit counting would need interior mutability; instead check the
        // coordinate-dependent result everywhere, which fails if any entry
        // is skipped, double-applied, or handed wrong coordinates.
        let (m, k, n) = (MC + 1, KC + 2, NC + 3);
        let a: Vec<f64> = fill(m * k, 21);
        let b: Vec<f64> = fill(k * n, 22);
        let mut plain = vec![0.0; m * n];
        gemm_packed(
            1.0,
            View::row_major(&a, m, k),
            View::row_major(&b, k, n),
            0.0,
            &mut plain,
        );
        let mut fused = vec![0.0; m * n];
        let bias = |i: usize, j: usize, acc: f64| acc + i as f64 + 2.0 * j as f64;
        gemm_packed_epilogue(
            1.0,
            View::row_major(&a, m, k),
            View::row_major(&b, k, n),
            0.0,
            &mut fused,
            &bias,
        );
        for i in 0..m {
            for j in 0..n {
                let expect = plain[i * n + j] + i as f64 + 2.0 * j as f64;
                assert_eq!(fused[i * n + j], expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn degenerate_products_still_run_epilogue() {
        // alpha == 0 short-circuits the block loops; the epilogue must
        // still see every entry (beta-scaled prior C at compute width).
        let a: Vec<f64> = fill(4, 31);
        let b: Vec<f64> = fill(6, 32);
        let mut c = vec![2.0; 6];
        let negate = |_i: usize, _j: usize, acc: f64| -acc;
        // Big-shape dispatch is unreachable with alpha == 0 product sizes
        // here, so call the packed entry directly.
        gemm_packed_epilogue(
            0.0,
            View::row_major(&a, 2, 2),
            View::row_major(&b, 2, 3),
            0.5,
            &mut c,
            &negate,
        );
        assert!(c.iter().all(|&v| v == -1.0), "{c:?}");
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
