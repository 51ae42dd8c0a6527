//! Strip-mined dense block kernels: the tall-skinny Gram product and the
//! fused blocked update of the s-step bodies.
//!
//! Both kernels walk the rows in short strips. A strip of every column
//! involved fits in L1, so each column is read from memory once per strip
//! and all the work that needs it runs while it is resident:
//!
//! - **Gram** ([`ParKernels::gram_cols`]): inside each [`REDUCE_BLOCK`] row
//!   block the rows are walked in strips of 128. Every `(i, j)` entry
//!   keeps its four lane accumulators in a `ka × kb × 4` tile that lives
//!   across the strips of the block, and the columns are register-tiled
//!   2 × 4, so one load of a row chunk feeds eight entries.
//! - **Blocked update** ([`ParKernels::fused_update`]): for a strip of 64
//!   rows it forms `T_j = init_j + Σ_l B[l,j]·V_l` for every
//!   output column into an L1 buffer, writes `T` into the destination, and
//!   accumulates `out += Σ_j c_j·T_j`, replacing a copy, a BLAS3 sweep, a
//!   swap and a BLAS2 sweep over the full columns.
//!
//! # Arithmetic contract
//!
//! Neither kernel changes a bit of any result:
//!
//! - Each Gram lane sums its own rows (`row ≡ lane mod 4` within the block)
//!   in ascending order, strips only pause and resume that sum; the block
//!   partial is `(l0 + l1) + (l2 + l3) + tail` and the block partials meet
//!   in [`pairwise_sum`]. That is exactly [`crate::blas::dot_block`] and
//!   [`crate::blas::dot`], whatever the tiling or the thread count.
//! - Each updated element sees the expression sequence of the unfused
//!   kernels it replaces: the initial value, then `+ B[l,j]·V_l` for `l`
//!   ascending with exact-zero coefficients skipped, then
//!   `out += (α·c_j)·T_j` for `j` ascending, zero products skipped.
//! - Rust never contracts a multiply and an add into an FMA, so the AVX2
//!   build of a body rounds exactly like the portable build.

use crate::blas::{pairwise_sum, REDUCE_BLOCK};
use crate::dense::DenseMat;
use crate::multivector::MultiVector;
use crate::par::{ParKernels, SendPtr};
use std::marker::PhantomData;

/// Rows per strip of the Gram walk. A 21-column strip pair is 42 KiB and
/// the lane tile of a 21 × 21 Gram 14 KiB: together they stay in a 48 KiB
/// L1 on current x86 cores.
const GRAM_STRIP: usize = 128;

/// Rows per strip of the fused blocked update.
const UPDATE_STRIP: usize = 64;

// Strips must not move a row to another lane: lane = row mod 4 within the
// block only if every strip starts at a multiple of four, and a strip must
// never straddle two reduction blocks.
const _: () = assert!(GRAM_STRIP % 4 == 0 && REDUCE_BLOCK % GRAM_STRIP == 0);

/// Fused Gram product `Aᵀ·B` over explicit column sets; `pk = None` runs
/// every block on the caller. See the module docs for the arithmetic.
///
/// # Panics
/// Panics unless every column has exactly `n` entries.
pub(crate) fn gram_cols_impl(
    pk: Option<&ParKernels>,
    n: usize,
    acols: &[&[f64]],
    bcols: &[&[f64]],
) -> DenseMat {
    assert!(
        acols.iter().chain(bcols).all(|c| c.len() == n),
        "gram_cols: every column must have length n = {n}"
    );
    let (ka, kb) = (acols.len(), bcols.len());
    let mut out = DenseMat::zeros(ka, kb);
    if ka == 0 || kb == 0 || n == 0 {
        return out;
    }
    let nblocks = n.div_ceil(REDUCE_BLOCK);
    let kk = ka * kb;
    let mut partials = vec![0.0f64; nblocks * kk];
    match pk {
        Some(pk) if pk.threads() > 1 && nblocks > 1 => {
            pk.for_each_chunk_mut(&mut partials, kk, |blk, _, piece| {
                gram_block(acols, bcols, blk * REDUCE_BLOCK, piece);
            });
        }
        _ => {
            for (blk, piece) in partials.chunks_mut(kk).enumerate() {
                gram_block(acols, bcols, blk * REDUCE_BLOCK, piece);
            }
        }
    }
    let mut scratch = vec![0.0f64; nblocks];
    for i in 0..ka {
        for j in 0..kb {
            for blk in 0..nblocks {
                scratch[blk] = partials[blk * kk + i * kb + j];
            }
            out[(i, j)] = pairwise_sum(&mut scratch);
        }
    }
    out
}

/// The `ka × kb` partials (row-major into `out`) of the reduction block
/// starting at row `lo`, on the widest SIMD the CPU offers.
fn gram_block(acols: &[&[f64]], bcols: &[&[f64]], lo: usize, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if crate::sell::simd_ok() {
        // SAFETY: AVX2 was detected at run time.
        unsafe { gram_block_avx2(acols, bcols, lo, out) };
        return;
    }
    gram_block_body(acols, bcols, lo, out);
}

/// [`gram_block_body`] compiled for AVX2.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gram_block_avx2(acols: &[&[f64]], bcols: &[&[f64]], lo: usize, out: &mut [f64]) {
    gram_block_body(acols, bcols, lo, out);
}

/// One reduction block of the Gram product: strips of [`GRAM_STRIP`] rows,
/// 2 × 4 register tiles, lane accumulators kept across strips, then the
/// `dot_block` combine with the sequential tail.
#[inline(always)]
fn gram_block_body(acols: &[&[f64]], bcols: &[&[f64]], lo: usize, out: &mut [f64]) {
    let (ka, kb) = (acols.len(), bcols.len());
    let n = acols[0].len();
    let hi = (lo + REDUCE_BLOCK).min(n);
    let body = lo + (hi - lo) / 4 * 4;
    let mut lanes = vec![0.0f64; ka * kb * 4];
    let mut s0 = lo;
    while s0 < body {
        let s1 = (s0 + GRAM_STRIP).min(body);
        let mut i = 0;
        while i + 2 <= ka {
            gram_row_tiles::<2>(acols, bcols, i, s0, s1, &mut lanes);
            i += 2;
        }
        if i < ka {
            gram_row_tiles::<1>(acols, bcols, i, s0, s1, &mut lanes);
        }
        s0 = s1;
    }
    for i in 0..ka {
        let a = &acols[i][body..hi];
        for j in 0..kb {
            let mut tail = 0.0;
            for (x, y) in a.iter().zip(&bcols[j][body..hi]) {
                tail += x * y;
            }
            let l = &lanes[(i * kb + j) * 4..][..4];
            out[i * kb + j] = (l[0] + l[1]) + (l[2] + l[3]) + tail;
        }
    }
}

/// Rows `i0 .. i0 + MA` of the lane tile over one strip, four `b` columns
/// at a time with a narrower tile for the remainder.
#[inline(always)]
fn gram_row_tiles<const MA: usize>(
    acols: &[&[f64]],
    bcols: &[&[f64]],
    i0: usize,
    s0: usize,
    s1: usize,
    lanes: &mut [f64],
) {
    let kb = bcols.len();
    let mut j = 0;
    while j + 4 <= kb {
        gram_tile::<MA, 4>(acols, bcols, i0, j, s0, s1, lanes);
        j += 4;
    }
    match kb - j {
        3 => gram_tile::<MA, 3>(acols, bcols, i0, j, s0, s1, lanes),
        2 => gram_tile::<MA, 2>(acols, bcols, i0, j, s0, s1, lanes),
        1 => gram_tile::<MA, 1>(acols, bcols, i0, j, s0, s1, lanes),
        _ => {}
    }
}

/// One `MA × NB` register tile over rows `s0..s1` (a multiple of four
/// rows, starting on a lane boundary): loads the tile's lane accumulators,
/// adds `a[r]·b[r]` into lane `r mod 4` in ascending row order, stores them.
#[inline(always)]
fn gram_tile<const MA: usize, const NB: usize>(
    acols: &[&[f64]],
    bcols: &[&[f64]],
    i0: usize,
    j0: usize,
    s0: usize,
    s1: usize,
    lanes: &mut [f64],
) {
    let kb = bcols.len();
    let a: [&[f64]; MA] = std::array::from_fn(|ii| &acols[i0 + ii][s0..s1]);
    let b: [&[f64]; NB] = std::array::from_fn(|jj| &bcols[j0 + jj][s0..s1]);
    let mut t = [[[0.0f64; 4]; NB]; MA];
    for ii in 0..MA {
        for jj in 0..NB {
            let at = ((i0 + ii) * kb + j0 + jj) * 4;
            t[ii][jj].copy_from_slice(&lanes[at..at + 4]);
        }
    }
    for c in 0..(s1 - s0) / 4 {
        let r = 4 * c;
        // SAFETY: every strip slice has `s1 - s0` entries and
        // `r + 3 < 4·((s1 - s0) / 4) ≤ s1 - s0`.
        let av: [[f64; 4]; MA] = std::array::from_fn(|ii| {
            std::array::from_fn(|k| unsafe { *a[ii].get_unchecked(r + k) })
        });
        let bv: [[f64; 4]; NB] = std::array::from_fn(|jj| {
            std::array::from_fn(|k| unsafe { *b[jj].get_unchecked(r + k) })
        });
        for ii in 0..MA {
            for jj in 0..NB {
                for k in 0..4 {
                    t[ii][jj][k] += av[ii][k] * bv[jj][k];
                }
            }
        }
    }
    for ii in 0..MA {
        for jj in 0..NB {
            let at = ((i0 + ii) * kb + j0 + jj) * 4;
            lanes[at..at + 4].copy_from_slice(&t[ii][jj]);
        }
    }
}

/// Where column `j` of a fused blocked update starts before the
/// `Σ_l B[l,j]·V_l` combination is added (see [`ParKernels::fused_update`]).
#[derive(Debug, Clone, Copy)]
pub enum UpdateInit<'a> {
    /// The destination's own column: `dst ← dst + V·B`.
    Dst,
    /// Column `j` of `U`: `dst ← U + V·B`.
    Cols(&'a MultiVector),
    /// The three-term change of basis `(S·B_cob)_j =
    /// γ_j·S_{j+1} + θ_j·S_j + μ_{j−1}·S_{j−1}` of an `(k+1)`-column
    /// basis `S`, evaluated as a copy when `γ_j = 1` and with zero `θ_j`
    /// or `μ_{j−1}` terms skipped (`mu[j − 1]` pairs with column `j`).
    ChangeOfBasis {
        /// The basis block `S` (`k + 1` columns).
        s: &'a MultiVector,
        /// `γ_0 … γ_{k−1}`.
        gamma: &'a [f64],
        /// `θ_0 … θ_{k−1}`.
        theta: &'a [f64],
        /// `μ_0 … μ_{k−2}`.
        mu: &'a [f64],
    },
}

/// Everything one strip of the fused update reads and writes, built once
/// on the calling thread and shared by every task. It holds the exclusive
/// borrows of `dst` and `out` for its whole life.
struct UpdatePlan<'a> {
    n: usize,
    k: usize,
    /// `dst` storage (`n × k` column-major); strips write disjoint rows.
    dst: SendPtr<f64>,
    /// `V` storage (`n × kv` column-major). Points into `dst` for the
    /// in-place update: a strip reads all of `V` before writing.
    v: SendPtr<f64>,
    init: UpdateInit<'a>,
    /// The nonzero `(l, B[l,j])` of column `j` at
    /// `terms[term_at[j]..term_at[j + 1]]`, `l` ascending.
    terms: Terms,
    term_at: Vec<usize>,
    /// `out` storage and its nonzero `(j, α·c_j)`, `j` ascending.
    acc: Option<(SendPtr<f64>, Terms)>,
    _borrows: PhantomData<&'a mut [f64]>,
}

/// Nonzero `(column, coefficient)` pairs, column ascending.
type Terms = Vec<(usize, f64)>;

/// A row-range body of the fused update (see [`update_rows`]).
type RowsFn = unsafe fn(&UpdatePlan<'_>, usize, usize, &mut [f64]);

/// The fused blocked update behind [`ParKernels::fused_update`];
/// `pk = None` runs every strip on the caller.
///
/// # Panics
/// Panics on any shape mismatch (see [`ParKernels::fused_update`]).
pub(crate) fn fused_update_impl(
    pk: Option<&ParKernels>,
    dst: &mut MultiVector,
    init: UpdateInit<'_>,
    src: Option<&MultiVector>,
    b: Option<&DenseMat>,
    acc: Option<(f64, &[f64], &mut [f64])>,
) {
    UpdatePlan::new(dst, init, src, b, acc).run(pk, update_rows);
}

impl<'a> UpdatePlan<'a> {
    /// Checks every shape and resolves the nonzero coefficient lists.
    fn new(
        dst: &'a mut MultiVector,
        init: UpdateInit<'a>,
        src: Option<&'a MultiVector>,
        b: Option<&DenseMat>,
        acc: Option<(f64, &[f64], &'a mut [f64])>,
    ) -> Self {
        let (n, k) = (dst.n(), dst.k());
        match init {
            UpdateInit::Dst => {}
            UpdateInit::Cols(u) => {
                assert!(u.n() == n && u.k() == k, "fused_update: U shape mismatch");
            }
            UpdateInit::ChangeOfBasis {
                s,
                gamma,
                theta,
                mu,
            } => {
                assert!(
                    s.n() == n && s.k() == k + 1,
                    "fused_update: S must be n × (k+1)"
                );
                assert!(
                    gamma.len() >= k && theta.len() >= k && mu.len() + 1 >= k,
                    "fused_update: change-of-basis coefficients too short"
                );
            }
        }
        if let Some(v) = src {
            assert_eq!(v.n(), n, "fused_update: V row mismatch");
        }
        let kv = src.map_or(k, MultiVector::k);
        if let Some(b) = b {
            assert!(
                b.nrows() == kv && b.ncols() == k,
                "fused_update: B must be {kv} × {k}"
            );
        }
        let mut terms = Vec::new();
        let mut term_at = vec![0];
        for j in 0..k {
            if let Some(b) = b {
                terms.extend((0..kv).map(|l| (l, b[(l, j)])).filter(|&(_, c)| c != 0.0));
            }
            term_at.push(terms.len());
        }
        let acc = acc.map(|(alpha, coeffs, out)| {
            assert_eq!(coeffs.len(), k, "fused_update: coefficient length mismatch");
            assert_eq!(out.len(), n, "fused_update: output length mismatch");
            let nz = coeffs.iter().map(|&c| alpha * c).enumerate();
            (
                SendPtr(out.as_mut_ptr()),
                nz.filter(|&(_, c)| c != 0.0).collect(),
            )
        });
        let dptr = dst.data_mut().as_mut_ptr();
        UpdatePlan {
            n,
            k,
            dst: SendPtr(dptr),
            // `V` is only ever read through this pointer.
            v: SendPtr(src.map_or(dptr, |v| v.data().as_ptr() as *mut f64)),
            init,
            terms,
            term_at,
            acc,
            _borrows: PhantomData,
        }
    }

    /// Runs `rows` over `0..n`: on the caller, or in [`REDUCE_BLOCK`]-row
    /// tasks over the pool. Each row's arithmetic is the same either way.
    fn run(&self, pk: Option<&ParKernels>, rows: RowsFn) {
        let (n, k) = (self.n, self.k);
        if k == 0 || n == 0 {
            return;
        }
        let range = |lo: usize, hi: usize| {
            let mut tbuf = vec![0.0f64; k * UPDATE_STRIP];
            // SAFETY: `[lo, hi)` lies inside `0..n`, the plan holds the
            // exclusive borrows of `dst` and `out`, and no other task
            // touches these rows (the shapes were asserted in `new`).
            unsafe { rows(self, lo, hi, &mut tbuf) };
        };
        let nchunks = n.div_ceil(REDUCE_BLOCK);
        match pk {
            Some(pk) if pk.threads() > 1 && nchunks > 1 => {
                pk.run_indexed(nchunks, |c| {
                    range(c * REDUCE_BLOCK, ((c + 1) * REDUCE_BLOCK).min(n));
                });
            }
            _ => range(0, n),
        }
    }
}

/// Rows `lo..hi` of the fused update, on the widest SIMD the CPU offers.
///
/// # Safety
/// `lo ≤ hi ≤ plan.n`, `tbuf` holds `k · UPDATE_STRIP` entries, and no
/// other thread touches rows `lo..hi` of `dst` or `out` meanwhile.
unsafe fn update_rows(plan: &UpdatePlan<'_>, lo: usize, hi: usize, tbuf: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if crate::sell::simd_ok() {
        update_rows_avx2(plan, lo, hi, tbuf);
        return;
    }
    update_rows_body(plan, lo, hi, tbuf);
}

/// [`update_rows_body`] compiled for AVX2.
///
/// # Safety
/// As [`update_rows`], and the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn update_rows_avx2(plan: &UpdatePlan<'_>, lo: usize, hi: usize, tbuf: &mut [f64]) {
    update_rows_body(plan, lo, hi, tbuf);
}

/// The strip loop of the fused update. See [`update_rows`] for the
/// safety contract.
#[inline(always)]
unsafe fn update_rows_body(plan: &UpdatePlan<'_>, lo: usize, hi: usize, tbuf: &mut [f64]) {
    let n = plan.n;
    let mut r0 = lo;
    while r0 < hi {
        let len = (hi - r0).min(UPDATE_STRIP);
        let dst_col = |j: usize| plan.dst.get().add(j * n + r0);
        for (j, tcol) in tbuf.chunks_exact_mut(UPDATE_STRIP).enumerate() {
            let t = &mut tcol[..len];
            match plan.init {
                UpdateInit::Dst => t.copy_from_slice(std::slice::from_raw_parts(dst_col(j), len)),
                UpdateInit::Cols(u) => t.copy_from_slice(&u.col(j)[r0..r0 + len]),
                UpdateInit::ChangeOfBasis {
                    s,
                    gamma,
                    theta,
                    mu,
                } => {
                    let next = &s.col(j + 1)[r0..r0 + len];
                    let g = gamma[j];
                    if g == 1.0 {
                        t.copy_from_slice(next);
                    } else {
                        for (ti, &x) in t.iter_mut().zip(next) {
                            *ti = g * x;
                        }
                    }
                    let m = if j >= 1 { mu[j - 1] } else { 0.0 };
                    let three = [(j, theta[j]), (j.wrapping_sub(1), m)];
                    let nz = three.iter().filter(|&&(_, c)| c != 0.0);
                    for &(l, c) in nz {
                        add_terms(t, &[(l, c)], s.data().as_ptr().add(r0), n);
                    }
                }
            }
            let terms = &plan.terms[plan.term_at[j]..plan.term_at[j + 1]];
            add_terms(t, terms, plan.v.get().add(r0), n);
        }
        // Every `T_j` is complete, so the in-place case has read all of
        // `V` in these rows before any of them is overwritten.
        for (j, tcol) in tbuf.chunks_exact(UPDATE_STRIP).enumerate() {
            std::slice::from_raw_parts_mut(dst_col(j), len).copy_from_slice(&tcol[..len]);
        }
        if let Some((out, terms)) = &plan.acc {
            let o = std::slice::from_raw_parts_mut(out.get().add(r0), len);
            add_terms(o, terms, tbuf.as_ptr(), UPDATE_STRIP);
        }
        r0 += len;
    }
}

/// BLAS2 accumulation `out ← out + a·mv·coeffs` behind
/// [`ParKernels::gemv_acc`] and [`MultiVector::gemv_acc`]: per element
/// `out[i] += (a·c_j)·mv_j[i]` for `j` ascending, zero products skipped,
/// with each row chunk of `out` held in registers across all the columns.
/// `pk = None` runs on the caller; otherwise [`REDUCE_BLOCK`]-row pieces
/// spread over the pool. Bitwise the same either way.
///
/// # Panics
/// Panics on dimension mismatches.
pub(crate) fn gemv_acc_impl(
    pk: Option<&ParKernels>,
    mv: &MultiVector,
    a: f64,
    coeffs: &[f64],
    out: &mut [f64],
) {
    assert_eq!(
        coeffs.len(),
        mv.k(),
        "gemv_acc: coefficient length mismatch"
    );
    assert_eq!(out.len(), mv.n(), "gemv_acc: output length mismatch");
    let terms: Terms = coeffs
        .iter()
        .map(|&c| a * c)
        .enumerate()
        .filter(|&(_, c)| c != 0.0)
        .collect();
    let (n, data) = (mv.n(), mv.data());
    let rows = |lo: usize, piece: &mut [f64]| {
        // SAFETY: every column of `mv` holds `n ≥ lo + piece.len()` rows.
        unsafe { add_terms_simd(piece, &terms, data.as_ptr().add(lo), n) };
    };
    match pk {
        Some(pk) if pk.threads() > 1 => {
            pk.for_each_chunk_mut(out, REDUCE_BLOCK, |_, lo, piece| rows(lo, piece));
        }
        _ => rows(0, out),
    }
}

/// [`add_terms`] on the widest SIMD the CPU offers.
///
/// # Safety
/// As [`add_terms`].
unsafe fn add_terms_simd(y: &mut [f64], terms: &[(usize, f64)], base: *const f64, ld: usize) {
    #[cfg(target_arch = "x86_64")]
    if crate::sell::simd_ok() {
        add_terms_avx2(y, terms, base, ld);
        return;
    }
    add_terms(y, terms, base, ld);
}

/// [`add_terms`] compiled for AVX2.
///
/// # Safety
/// As [`add_terms`], and the CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn add_terms_avx2(y: &mut [f64], terms: &[(usize, f64)], base: *const f64, ld: usize) {
    add_terms(y, terms, base, ld);
}

/// Rows per register chunk of [`add_terms`]: four AVX2 vectors (eight SSE2
/// registers in the portable build).
const ROW_CHUNK: usize = 16;

/// `y[i] += c·x_l[i]` for each `(l, c)` of `terms` in order, where column
/// `x_l` starts at `base + l·ld` — per element the expression sequence of
/// repeated [`crate::blas::axpy`] calls, with each chunk of [`ROW_CHUNK`]
/// rows of `y` held in registers across all the terms.
///
/// # Safety
/// `base + l·ld` must be readable for `y.len()` entries for every term.
#[inline(always)]
unsafe fn add_terms(y: &mut [f64], terms: &[(usize, f64)], base: *const f64, ld: usize) {
    let len = y.len();
    let mut r = 0;
    while r + ROW_CHUNK <= len {
        let mut acc = [0.0f64; ROW_CHUNK];
        acc.copy_from_slice(&y[r..r + ROW_CHUNK]);
        for &(l, c) in terms {
            let x = std::slice::from_raw_parts(base.add(l * ld + r), ROW_CHUNK);
            for i in 0..ROW_CHUNK {
                acc[i] += c * x[i];
            }
        }
        y[r..r + ROW_CHUNK].copy_from_slice(&acc);
        r += ROW_CHUNK;
    }
    for (i, yi) in y.iter_mut().enumerate().skip(r) {
        for &(l, c) in terms {
            *yi += c * *base.add(l * ld + i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn random_mv(n: usize, k: usize, seed: u64) -> MultiVector {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut mv = MultiVector::zeros(n, k);
        for j in 0..k {
            for v in mv.col_mut(j) {
                *v = match rng.next_u64() % 50 {
                    0 => -0.0,
                    1 => f64::INFINITY,
                    _ => rng.next_f64() - 0.5,
                };
            }
        }
        mv
    }

    /// Runs `f` on the portable body and, where the CPU has AVX2, on the
    /// AVX2 build, returning both results.
    fn both_arms<T>(f: impl Fn(bool) -> T) -> (T, Option<T>) {
        let portable = f(false);
        #[cfg(target_arch = "x86_64")]
        let simd = crate::sell::simd_ok().then(|| f(true));
        #[cfg(not(target_arch = "x86_64"))]
        let simd = None;
        (portable, simd)
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn gram_block_arms_agree_bitwise_with_dot_block() {
        let n = 2 * REDUCE_BLOCK + 131;
        for (ka, kb) in [(1, 1), (2, 4), (3, 7), (11, 10), (21, 21)] {
            let a = random_mv(n, ka, 3 + ka as u64);
            let b = random_mv(n, kb, 5 + kb as u64);
            let acols: Vec<&[f64]> = (0..ka).map(|i| a.col(i)).collect();
            let bcols: Vec<&[f64]> = (0..kb).map(|j| b.col(j)).collect();
            for lo in (0..n).step_by(REDUCE_BLOCK) {
                let (portable, simd) = both_arms(|avx2| {
                    let mut out = vec![0.0; ka * kb];
                    if avx2 {
                        #[cfg(target_arch = "x86_64")]
                        // SAFETY: `both_arms` only asks for AVX2 when detected.
                        unsafe {
                            gram_block_avx2(&acols, &bcols, lo, &mut out)
                        };
                    } else {
                        gram_block_body(&acols, &bcols, lo, &mut out);
                    }
                    bits(&out)
                });
                let hi = (lo + REDUCE_BLOCK).min(n);
                let want: Vec<f64> = (0..ka * kb)
                    .map(|e| crate::blas::dot_block(&acols[e / kb][lo..hi], &bcols[e % kb][lo..hi]))
                    .collect();
                assert_eq!(portable, bits(&want), "{ka}x{kb} block at {lo}");
                if let Some(simd) = simd {
                    assert_eq!(simd, portable, "{ka}x{kb} block at {lo}: AVX2 arm");
                }
            }
        }
    }

    #[test]
    fn update_arms_agree_bitwise() {
        let n = REDUCE_BLOCK + 77;
        for k in [1usize, 3, 10, 11] {
            let u = random_mv(n, k, 11);
            let b = DenseMat::from_fn(k, k, |i, j| match (i + 2 * j) % 5 {
                0 => 0.0,
                1 => -0.0,
                m => m as f64 * 0.25 - 0.6,
            });
            let coeffs: Vec<f64> = (0..k)
                .map(|j| if j % 4 == 1 { 0.0 } else { 0.3 - j as f64 })
                .collect();
            let (portable, simd) = both_arms(|avx2| {
                let mut p = random_mv(n, k, 12);
                let mut out = random_mv(n, 1, 13).col(0).to_vec();
                let acc = Some((-1.0, &coeffs[..], &mut out[..]));
                let plan = UpdatePlan::new(&mut p, UpdateInit::Cols(&u), None, Some(&b), acc);
                #[cfg(target_arch = "x86_64")]
                let arm: RowsFn = if avx2 {
                    update_rows_avx2
                } else {
                    update_rows_body
                };
                #[cfg(not(target_arch = "x86_64"))]
                let arm: RowsFn = {
                    let _ = avx2;
                    update_rows_body
                };
                plan.run(None, arm);
                drop(plan);
                let mut all = bits(p.data());
                all.extend(bits(&out));
                all
            });
            if let Some(simd) = simd {
                assert_eq!(simd, portable, "k={k}: AVX2 arm");
            }
        }
    }

    #[test]
    fn add_terms_arms_agree_bitwise() {
        let n = 3 * ROW_CHUNK + 5;
        let x = random_mv(n, 6, 21);
        let terms: Terms = vec![(0, 0.5), (2, -1.25), (3, 3.0), (5, -0.0625)];
        let (portable, simd) = both_arms(|avx2| {
            let mut y = random_mv(n, 1, 22).col(0).to_vec();
            let base = x.data().as_ptr();
            // SAFETY: every column of `x` has `n = y.len()` rows, and
            // `both_arms` only asks for AVX2 when detected.
            unsafe {
                if avx2 {
                    #[cfg(target_arch = "x86_64")]
                    add_terms_avx2(&mut y, &terms, base, n);
                } else {
                    add_terms(&mut y, &terms, base, n);
                }
            }
            bits(&y)
        });
        if let Some(simd) = simd {
            assert_eq!(simd, portable, "AVX2 arm");
        }
    }
}
