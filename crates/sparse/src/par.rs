//! Shared-memory parallel kernel layer: [`ThreadPool`] and [`ParKernels`].
//!
//! Parallelizes the per-rank hot path of the solvers — SpMV, the tall-skinny
//! Gram products, and the blocked/fused vector updates — over a persistent
//! pool of OS threads (no external dependencies; plain
//! `std::sync` primitives). The layer obeys one invariant throughout:
//!
//! > **Results are bitwise identical for any thread count.**
//!
//! Elementwise and row-partitioned kernels (SpMV, AXPY, the multivector
//! updates) get this for free: each output element is computed by exactly
//! one thread with the same scalar arithmetic as the serial kernel.
//! Reductions (dot products, Gram matrices) use the *fixed-shape* blocked
//! pairwise summation of [`crate::blas`]: per-[`REDUCE_BLOCK`] partials
//! computed by [`blas::dot_block`] and combined by [`blas::pairwise_sum`],
//! a shape that depends only on the vector length — never on which thread
//! computed which block. `threads = 1` therefore reproduces the serial
//! solver exactly, and the ranked-vs-serial parity tests remain meaningful
//! with threading enabled.
//!
//! Pool ownership: a [`ParKernels`] handle is an `Arc` around its pool, so
//! the executors clone handles freely; the workers park on a condvar while
//! idle and are joined when the last handle drops. With `threads = 1` no
//! worker threads exist at all and every kernel runs inline on the caller.

use crate::blas::{self, pairwise_sum, REDUCE_BLOCK};
use crate::csr::CsrMatrix;
use crate::dense::DenseMat;
use crate::multivector::MultiVector;
use crate::sell::SellMatrix;
use crate::strip::{self, UpdateInit};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A borrowed parallel job: invoked once per pool member with the member's
/// index. The `'static` lifetime is a lie told to the type system; see the
/// safety argument in [`ThreadPool::run`].
type Job = &'static (dyn Fn(usize) + Sync);

struct PoolState {
    job: Option<Job>,
    /// Bumped per `run` call so sleeping workers recognise fresh work.
    epoch: u64,
    /// Workers that have not yet finished the current job.
    pending: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    start: Condvar,
    done: Condvar,
}

/// A persistent pool of `threads - 1` worker threads; the caller of
/// [`ThreadPool::run`] participates as member 0, so `threads = 1` spawns
/// nothing and runs jobs inline.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool with `threads` members total (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                pending: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spcg-par-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("ThreadPool: cannot spawn worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
        }
    }

    /// Total pool members (workers plus the calling thread).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(member_index)` once on every pool member (indices
    /// `0..threads`, the caller being member 0) and blocks until all
    /// invocations return. Not reentrant: kernels never nest pool calls.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.threads == 1 {
            f(0);
            return;
        }
        // SAFETY: the job reference is only dereferenced by workers between
        // the notify below and the `pending == 0` handshake at the end of
        // this function, during which `f` is kept alive by this stack
        // frame. The slot is cleared before returning.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        {
            let mut st = self.shared.state.lock().unwrap();
            st.job = Some(job);
            st.epoch += 1;
            st.pending = self.threads - 1;
            self.shared.start.notify_all();
        }
        f(0);
        let mut st = self.shared.state.lock().unwrap();
        while st.pending > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, id: usize) {
    let mut seen_epoch = 0u64;
    let mut st = shared.state.lock().unwrap();
    loop {
        if st.shutdown {
            return;
        }
        if st.epoch != seen_epoch {
            seen_epoch = st.epoch;
            let job = st.job.expect("ThreadPool: epoch bumped without a job");
            drop(st);
            job(id);
            st = shared.state.lock().unwrap();
            st.pending -= 1;
            if st.pending == 0 {
                shared.done.notify_all();
            }
        } else {
            st = shared.start.wait(st).unwrap();
        }
    }
}

/// A raw pointer that may cross threads. Every use is confined to this
/// crate and guarded by a disjointness argument: concurrent tasks write
/// non-overlapping index ranges of the pointee.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the `Sync`
    /// wrapper, not the raw pointer itself.
    #[inline]
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

/// Handle to the parallel kernel layer. Cheap to clone (an `Arc` around the
/// pool); all kernels are deterministic in the sense documented at the
/// module level.
#[derive(Clone)]
pub struct ParKernels {
    pool: Arc<ThreadPool>,
}

impl std::fmt::Debug for ParKernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParKernels")
            .field("threads", &self.threads())
            .finish()
    }
}

impl ParKernels {
    /// Creates a kernel layer over a fresh pool of `threads` members.
    pub fn new(threads: usize) -> Self {
        ParKernels {
            pool: Arc::new(ThreadPool::new(threads)),
        }
    }

    /// The single-threaded layer: every kernel runs inline on the caller,
    /// reproducing the serial reference arithmetic verbatim.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Pool width.
    #[inline]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Runs `f(task_index)` for every index in `0..ntasks`, distributing
    /// tasks dynamically over the pool. Tasks must be independent; output
    /// placement must depend only on the task index (never on the executing
    /// thread) to preserve determinism.
    pub fn run_indexed<F: Fn(usize) + Sync>(&self, ntasks: usize, f: F) {
        if ntasks == 0 {
            return;
        }
        if self.threads() == 1 || ntasks == 1 {
            for i in 0..ntasks {
                f(i);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        self.pool.run(&|_member| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= ntasks {
                break;
            }
            f(i);
        });
    }

    /// Splits `data` into `chunk`-sized pieces and runs
    /// `f(chunk_index, offset, piece)` on each in parallel. The pieces are
    /// disjoint, so this is the safe gateway for parallel mutation.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        assert!(chunk > 0, "for_each_chunk_mut: zero chunk size");
        let n = data.len();
        if self.threads() == 1 {
            for (c, piece) in data.chunks_mut(chunk).enumerate() {
                f(c, c * chunk, piece);
            }
            return;
        }
        let ptr = SendPtr(data.as_mut_ptr());
        self.run_indexed(n.div_ceil(chunk), |c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            // SAFETY: `[lo, hi)` ranges are disjoint across task indices and
            // within bounds; the exclusive borrow of `data` outlives the run.
            let piece = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(lo), hi - lo) };
            f(c, lo, piece);
        });
    }

    /// Runs `f(range_index, piece)` on the contiguous, disjoint sub-slices
    /// of `data` delimited by `bounds` (as produced by
    /// [`CsrMatrix::row_schedule`] or a preconditioner's block offsets).
    pub fn for_each_range_mut<T, F>(&self, data: &mut [T], bounds: &[usize], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let nranges = bounds.len().saturating_sub(1);
        debug_assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
        if nranges > 0 {
            assert!(
                bounds[nranges] <= data.len(),
                "for_each_range_mut: bounds exceed data"
            );
        }
        if self.threads() == 1 {
            for c in 0..nranges {
                f(c, &mut data[bounds[c]..bounds[c + 1]]);
            }
            return;
        }
        let ptr = SendPtr(data.as_mut_ptr());
        self.run_indexed(nranges, |c| {
            let (lo, hi) = (bounds[c], bounds[c + 1]);
            // SAFETY: the bounds are monotone (checked above), so ranges are
            // disjoint and within the exclusive borrow of `data`.
            let piece = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(lo), hi - lo) };
            f(c, piece);
        });
    }

    /// Dot product `x · y` — the parallel instance of the fixed-shape
    /// blocked pairwise reduction. Bitwise equal to [`blas::dot`] for any
    /// thread count.
    pub fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot: length mismatch");
        let n = x.len();
        if self.threads() == 1 || n <= REDUCE_BLOCK {
            return blas::dot(x, y);
        }
        let mut partials = vec![0.0f64; n.div_ceil(REDUCE_BLOCK)];
        self.for_each_chunk_mut(&mut partials, 1, |b, _, out| {
            let lo = b * REDUCE_BLOCK;
            let hi = (lo + REDUCE_BLOCK).min(n);
            out[0] = blas::dot_block(&x[lo..hi], &y[lo..hi]);
        });
        pairwise_sum(&mut partials)
    }

    /// Squared Euclidean norm `‖x‖²`.
    pub fn norm2_sq(&self, x: &[f64]) -> f64 {
        self.dot(x, x)
    }

    /// Sparse matrix-vector product `y ← A·x` over the matrix's cached
    /// nnz-balanced row schedule. Row-partitioned, hence bitwise equal to
    /// [`CsrMatrix::spmv`] for any thread count.
    pub fn spmv(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        if self.threads() == 1 {
            a.spmv(x, y);
            return;
        }
        assert_eq!(x.len(), a.ncols(), "spmv: x length mismatch");
        assert_eq!(y.len(), a.nrows(), "spmv: y length mismatch");
        let bounds = a.row_schedule(self.threads());
        self.for_each_range_mut(y, &bounds, |c, piece| {
            a.spmv_rows(bounds[c], bounds[c + 1], x, piece);
        });
    }

    /// Sparse matrix-vector product `y ← A·x` on the SELL-C-σ layout,
    /// over the matrix's cached padded-work-balanced slice schedule.
    /// Slice-partitioned with an injective output permutation (threads
    /// write disjoint positions), hence bitwise equal to
    /// [`SellMatrix::spmv`] — and to the CSR kernels — for any thread
    /// count.
    pub fn spmv_sell(&self, a: &SellMatrix, x: &[f64], y: &mut [f64]) {
        if self.threads() == 1 || a.nslices() <= 1 {
            a.spmv(x, y);
            return;
        }
        assert!(x.len() >= a.ncols(), "spmv_sell: x length mismatch");
        assert!(y.len() >= a.out_len(), "spmv_sell: y length mismatch");
        let bounds = a.slice_schedule(self.threads());
        let ptr = SendPtr(y.as_mut_ptr());
        self.run_indexed(bounds.len() - 1, |c| {
            // Safety: chunks own disjoint slice ranges, the permutation is
            // injective, and out_len was bounds-checked above — so every
            // write lands in `y` and no position is written twice.
            let mut write = |i: usize, v: f64| unsafe { *ptr.get().add(i) = v };
            a.spmv_slices_into(bounds[c], bounds[c + 1], x, &mut write);
        });
    }

    /// [`ParKernels::spmv_sell`] restricted to the first `nlanes` lane
    /// positions (the ghost-zone frontier's per-level active prefix).
    /// Threads split the full slices of the prefix; the final partial
    /// slice runs inline. Bitwise equal to
    /// [`SellMatrix::spmv_lanes_prefix`] for any thread count.
    pub fn spmv_sell_prefix(&self, a: &SellMatrix, nlanes: usize, x: &[f64], y: &mut [f64]) {
        let full = nlanes / crate::sell::SELL_C;
        if self.threads() == 1 || full <= 1 {
            a.spmv_lanes_prefix(nlanes, x, y);
            return;
        }
        assert!(x.len() >= a.ncols(), "spmv_sell_prefix: x length mismatch");
        let y_len = y.len();
        let ptr = SendPtr(y.as_mut_ptr());
        // Per-call bounds over the prefix of full slices — the active
        // prefix changes per MPK level, so it cannot use the cached
        // full-matrix schedule (mirrors GhostZone::spmv_prefix_par).
        let bounds = crate::csr::nnz_balanced_bounds(a.slice_ptr(), full, self.threads());
        self.run_indexed(bounds.len() - 1, |c| {
            // Safety: disjoint slice ranges + injective permutation; each
            // output index is bounds-checked before the raw write.
            let mut write = |i: usize, v: f64| {
                assert!(i < y_len, "spmv_sell_prefix: y length mismatch");
                unsafe { *ptr.get().add(i) = v }
            };
            a.spmv_slices_into(bounds[c], bounds[c + 1], x, &mut write);
        });
        let rem = nlanes % crate::sell::SELL_C;
        if rem > 0 {
            a.spmv_slice_lanes_into(full, rem, x, &mut |i, v| y[i] = v);
        }
    }

    /// Sparse matrix–multivector product `Y ← A·X` over the matrix's
    /// cached nnz-balanced row schedule — the threaded instance of
    /// [`CsrMatrix::spmm`]. Row-partitioned (each chunk owns its rows in
    /// *every* column), hence column `j` of the result is bitwise equal
    /// to [`ParKernels::spmv`]`(a, x.col(j))` for any thread count.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn spmm(&self, a: &CsrMatrix, x: &MultiVector, y: &mut MultiVector) {
        assert_eq!(x.n(), a.ncols(), "spmm: x row mismatch");
        assert_eq!(y.n(), a.nrows(), "spmm: y row mismatch");
        assert_eq!(x.k(), y.k(), "spmm: column count mismatch");
        if self.threads() == 1 {
            a.spmm(x, y);
            return;
        }
        let bounds = a.row_schedule(self.threads());
        let k = x.k();
        let ptr = SendPtr(y.data_mut().as_mut_ptr());
        if k == 1 {
            self.run_indexed(bounds.len() - 1, |c| {
                // Safety: chunks own disjoint row ranges, and the flat
                // index `j·nrows + r` stays inside `y`'s `nrows·k` buffer
                // for every (row, column) pair — so no position is
                // written twice.
                let mut write = |i: usize, v: f64| unsafe { *ptr.get().add(i) = v };
                a.spmm_rows_into(bounds[c], bounds[c + 1], x, &mut write);
            });
            return;
        }
        // Repack the operand once on the calling thread; every chunk
        // reads the same interleaved buffer.
        CsrMatrix::with_interleaved(x, |xr| {
            self.run_indexed(bounds.len() - 1, |c| {
                // Safety: as above — disjoint row ranges, in-bounds flat
                // indices.
                let mut write = |i: usize, v: f64| unsafe { *ptr.get().add(i) = v };
                a.spmm_rows_interleaved(bounds[c], bounds[c + 1], xr, k, &mut write);
            });
        });
    }

    /// Sparse matrix–multivector product `Y ← A·X` on the SELL-C-σ
    /// layout over the cached padded-work-balanced slice schedule — the
    /// threaded instance of [`SellMatrix::spmm`]. Slice-partitioned with
    /// an injective output permutation per column, hence column `j` of
    /// the result is bitwise equal to [`ParKernels::spmv_sell`] — and to
    /// the CSR kernels — for any thread count.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn spmm_sell(&self, a: &SellMatrix, x: &MultiVector, y: &mut MultiVector) {
        assert!(x.n() >= a.ncols(), "spmm_sell: x row mismatch");
        assert!(y.n() >= a.out_len(), "spmm_sell: y row mismatch");
        assert_eq!(x.k(), y.k(), "spmm_sell: column count mismatch");
        if self.threads() == 1 || a.nslices() <= 1 {
            a.spmm(x, y);
            return;
        }
        let ld = y.n();
        let bounds = a.slice_schedule(self.threads());
        let ptr = SendPtr(y.data_mut().as_mut_ptr());
        self.run_indexed(bounds.len() - 1, |c| {
            // Safety: chunks own disjoint slice ranges, the permutation is
            // injective per column, and `j·ld + row` was bounds-checked by
            // the `out_len`/`k` asserts above.
            let mut write = |i: usize, v: f64| unsafe { *ptr.get().add(i) = v };
            a.spmm_slices_into(bounds[c], bounds[c + 1], x, ld, &mut write);
        });
    }

    /// `y ← y + a·x`.
    pub fn axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy: length mismatch");
        if self.threads() == 1 {
            blas::axpy(a, x, y);
            return;
        }
        self.for_each_chunk_mut(y, REDUCE_BLOCK, |_, lo, piece| {
            blas::axpy(a, &x[lo..lo + piece.len()], piece);
        });
    }

    /// `y ← x + b·y`.
    pub fn xpby(&self, x: &[f64], b: f64, y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "xpby: length mismatch");
        if self.threads() == 1 {
            blas::xpby(x, b, y);
            return;
        }
        self.for_each_chunk_mut(y, REDUCE_BLOCK, |_, lo, piece| {
            blas::xpby(&x[lo..lo + piece.len()], b, piece);
        });
    }

    /// `z ← x - y`.
    pub fn sub(&self, x: &[f64], y: &[f64], z: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "sub: length mismatch");
        assert_eq!(x.len(), z.len(), "sub: output length mismatch");
        if self.threads() == 1 {
            blas::sub(x, y, z);
            return;
        }
        self.for_each_chunk_mut(z, REDUCE_BLOCK, |_, lo, piece| {
            let hi = lo + piece.len();
            blas::sub(&x[lo..hi], &y[lo..hi], piece);
        });
    }

    /// `x ← a·x`.
    pub fn scale(&self, a: f64, x: &mut [f64]) {
        if self.threads() == 1 {
            blas::scale(a, x);
            return;
        }
        self.for_each_chunk_mut(x, REDUCE_BLOCK, |_, _, piece| {
            blas::scale(a, piece);
        });
    }

    /// Pointwise product `z[i] ← w[i] · x[i]` (Jacobi-style applications).
    pub fn pointwise_mul(&self, w: &[f64], x: &[f64], z: &mut [f64]) {
        assert_eq!(w.len(), x.len(), "pointwise_mul: length mismatch");
        assert_eq!(w.len(), z.len(), "pointwise_mul: output length mismatch");
        self.for_each_chunk_mut(z, REDUCE_BLOCK, |_, lo, piece| {
            for (i, zi) in piece.iter_mut().enumerate() {
                *zi = w[lo + i] * x[lo + i];
            }
        });
    }

    /// Fused PCG column step for pointwise preconditioners:
    /// `x ← x + α·p`, `r ← r − α·s`, `u ← w ∘ r`, returning `r · u` —
    /// one sweep over the column instead of four. Every element sees the
    /// identical expression it would see from the separate
    /// [`ParKernels::axpy`] / [`ParKernels::pointwise_mul`] /
    /// [`ParKernels::dot`] calls, and the returned dot keeps the
    /// fixed-shape blocked pairwise reduction (the fusion blocks *are*
    /// the reduction blocks), so the result is bitwise identical to the
    /// unfused sequence for any thread count. What changes is traffic:
    /// `r`'s update, its preconditioned image, and the dot all happen
    /// while the block is cache-hot, instead of three DRAM round trips.
    #[allow(clippy::too_many_arguments)]
    pub fn pcg_step_fused(
        &self,
        alpha: f64,
        p: &[f64],
        s: &[f64],
        w: &[f64],
        x: &mut [f64],
        r: &mut [f64],
        u: &mut [f64],
    ) -> f64 {
        let n = x.len();
        assert_eq!(p.len(), n, "pcg_step_fused: p length mismatch");
        assert_eq!(s.len(), n, "pcg_step_fused: s length mismatch");
        assert_eq!(w.len(), n, "pcg_step_fused: w length mismatch");
        assert_eq!(r.len(), n, "pcg_step_fused: r length mismatch");
        assert_eq!(u.len(), n, "pcg_step_fused: u length mismatch");
        let nblocks = n.div_ceil(REDUCE_BLOCK).max(1);
        let mut partials = vec![0.0f64; nblocks];
        if self.threads() == 1 {
            for (b, out) in partials.iter_mut().enumerate() {
                let lo = b * REDUCE_BLOCK;
                let hi = (lo + REDUCE_BLOCK).min(n);
                *out = pcg_fused_block(
                    alpha,
                    &p[lo..hi],
                    &s[lo..hi],
                    &w[lo..hi],
                    &mut x[lo..hi],
                    &mut r[lo..hi],
                    &mut u[lo..hi],
                );
            }
            return pairwise_sum(&mut partials);
        }
        let (px, pr, pu) = (
            SendPtr(x.as_mut_ptr()),
            SendPtr(r.as_mut_ptr()),
            SendPtr(u.as_mut_ptr()),
        );
        self.for_each_chunk_mut(&mut partials, 1, |b, _, out| {
            let lo = b * REDUCE_BLOCK;
            let hi = (lo + REDUCE_BLOCK).min(n);
            // Safety: each task owns the disjoint block `[lo, hi)` of
            // `x`, `r`, and `u`, all of length `n ≥ hi`.
            let (xs, rs, us) = unsafe {
                (
                    std::slice::from_raw_parts_mut(px.get().add(lo), hi - lo),
                    std::slice::from_raw_parts_mut(pr.get().add(lo), hi - lo),
                    std::slice::from_raw_parts_mut(pu.get().add(lo), hi - lo),
                )
            };
            out[0] = pcg_fused_block(alpha, &p[lo..hi], &s[lo..hi], &w[lo..hi], xs, rs, us);
        });
        pairwise_sum(&mut partials)
    }

    /// Fused three-term recurrence update
    /// `out[i] ← ρ·(base[i] + γ·dir[i]) + (1−ρ)·prev[i]`
    /// (PCG3 / CA-PCG3 iterate reconstruction; pass `−γ` for the residual
    /// form `base − γ·dir`).
    pub fn three_term(
        &self,
        rho: f64,
        gamma: f64,
        base: &[f64],
        dir: &[f64],
        prev: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        assert!(
            base.len() == n && dir.len() == n && prev.len() == n,
            "three_term: length mismatch"
        );
        self.for_each_chunk_mut(out, REDUCE_BLOCK, |_, lo, piece| {
            for (i, oi) in piece.iter_mut().enumerate() {
                let g = lo + i;
                *oi = rho * (base[g] + gamma * dir[g]) + (1.0 - rho) * prev[g];
            }
        });
    }

    /// Gram product `aᵀ · b` with the fixed-shape blocked pairwise
    /// reduction per entry. Bitwise equal to [`MultiVector::gram`] for any
    /// thread count.
    pub fn gram(&self, a: &MultiVector, b: &MultiVector) -> DenseMat {
        assert_eq!(a.n(), b.n(), "gram: row mismatch");
        let acols: Vec<&[f64]> = (0..a.k()).map(|i| a.col(i)).collect();
        let bcols: Vec<&[f64]> = (0..b.k()).map(|j| b.col(j)).collect();
        self.gram_cols(a.n(), &acols, &bcols)
    }

    /// Fused Gram product over explicit column sets: one pass over the rows
    /// computes all `|acols| × |bcols|` entries, in row strips that stay in
    /// L1 with 2×4 register-tiled columns (see [`crate::strip`]). The
    /// concatenated-block Gram `[Z|W]ᵀ·[Y|V]` of the s-step methods feeds
    /// all four sub-blocks through a single call, so each row strip of
    /// every column is streamed once instead of once per sub-block pair.
    ///
    /// Per (i, j) entry the accumulation shape is exactly
    /// `pairwise_sum(dot_block per REDUCE_BLOCK)` — independent of tiling,
    /// fusion, SIMD width and thread count.
    ///
    /// # Panics
    /// Panics unless every column has exactly `n` entries.
    pub fn gram_cols(&self, n: usize, acols: &[&[f64]], bcols: &[&[f64]]) -> DenseMat {
        strip::gram_cols_impl(Some(self), n, acols, bcols)
    }

    /// BLAS2 accumulation `out ← out + a · mv · coeffs`, row-partitioned:
    /// per element `out[i] += (a·c_j)·mv_j[i]` for `j` ascending, zero
    /// products skipped, each row chunk of `out` held in registers across
    /// the columns. Bitwise equal for any thread count.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn gemv_acc(&self, mv: &MultiVector, a: f64, coeffs: &[f64], out: &mut [f64]) {
        strip::gemv_acc_impl(Some(self), mv, a, coeffs, out);
    }

    /// BLAS2 product `out ← mv · coeffs`.
    pub fn gemv(&self, mv: &MultiVector, coeffs: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), mv.n(), "gemv: output length mismatch");
        self.for_each_chunk_mut(out, REDUCE_BLOCK, |_, _, piece| {
            blas::zero(piece);
        });
        self.gemv_acc(mv, 1.0, coeffs, out);
    }

    /// BLAS3 accumulation `out ← out + src · b` — the fused update with
    /// `T_j` starting from `out` itself. Bitwise equal to
    /// [`MultiVector::gemm_small_acc`] for any thread count.
    pub fn gemm_small_acc(&self, src: &MultiVector, b: &DenseMat, out: &mut MultiVector) {
        self.fused_update(out, UpdateInit::Dst, Some(src), Some(b), None);
    }

    /// Fused blocked update over row strips: for every row strip,
    ///
    /// 1. `T_j = init_j + Σ_l B[l,j]·V_l` for each of `dst`'s `k` columns
    ///    (`l` ascending, exact-zero `B` entries skipped), where `V` is
    ///    `src`, or `dst`'s own columns when `src` is `None` (in place);
    /// 2. `dst_j ← T_j`;
    /// 3. with `acc = Some((α, c, out))`, `out += Σ_j (α·c_j)·T_j`
    ///    (`j` ascending, zero products skipped).
    ///
    /// `b = None` drops step 1's sum. sPCG's `P ← U + P·B`, `x += P·a` is
    /// one call, `AP ← S·B_cob + AP·B`, `r −= AP·a` another. Every element
    /// sees the expression sequence of the separate copy / BLAS3 / BLAS2
    /// kernels, and strips own disjoint rows, so the result is bitwise
    /// equal to those kernels for any thread count.
    ///
    /// # Panics
    /// Panics on shape mismatches: `U` must be `n × k`, the change-of-basis
    /// `S` `n × (k+1)`, `V` `n × kv`, `B` `kv × k` (square when in place),
    /// `c` of length `k` and `out` of length `n`.
    pub fn fused_update(
        &self,
        dst: &mut MultiVector,
        init: UpdateInit<'_>,
        src: Option<&MultiVector>,
        b: Option<&DenseMat>,
        acc: Option<(f64, &[f64], &mut [f64])>,
    ) {
        strip::fused_update_impl(Some(self), dst, init, src, b, acc);
    }
}

/// One [`REDUCE_BLOCK`]-sized block of [`ParKernels::pcg_step_fused`]:
/// the two AXPYs, the pointwise preconditioner application, and the
/// block's dot partial, each via the exact per-element expression (and
/// for the dot, the exact [`blas::dot_block`] kernel) of the unfused
/// operations.
fn pcg_fused_block(
    alpha: f64,
    p: &[f64],
    s: &[f64],
    w: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    u: &mut [f64],
) -> f64 {
    blas::axpy(alpha, p, x);
    blas::axpy(-alpha, s, r);
    for (i, ui) in u.iter_mut().enumerate() {
        *ui = w[i] * r[i];
    }
    blas::dot_block(r, u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::poisson::{poisson_2d, poisson_3d};
    use crate::rng::Rng64;

    const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

    fn random_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng64::seed_from_u64(seed);
        (0..n).map(|_| rng.next_f64() - 0.5).collect()
    }

    fn random_mv(n: usize, k: usize, seed: u64) -> MultiVector {
        let cols: Vec<Vec<f64>> = (0..k).map(|j| random_vec(n, seed + j as u64)).collect();
        MultiVector::from_columns(&cols)
    }

    #[test]
    fn pool_runs_every_member_and_is_reusable() {
        let pool = ThreadPool::new(4);
        for _ in 0..3 {
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.run(&|id| {
                hits[id].fetch_add(1, Ordering::Relaxed);
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), 1);
            }
        }
    }

    #[test]
    fn run_indexed_covers_all_tasks_once() {
        for t in THREAD_COUNTS {
            let pk = ParKernels::new(t);
            let ntasks = 57;
            let hits: Vec<AtomicUsize> = (0..ntasks).map(|_| AtomicUsize::new(0)).collect();
            pk.run_indexed(ntasks, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn for_each_chunk_mut_touches_disjoint_pieces() {
        for t in THREAD_COUNTS {
            let pk = ParKernels::new(t);
            let mut data = vec![0usize; 10_000];
            pk.for_each_chunk_mut(&mut data, 1024, |c, lo, piece| {
                for (i, v) in piece.iter_mut().enumerate() {
                    *v = c * 1_000_000 + lo + i;
                }
            });
            for (g, &v) in data.iter().enumerate() {
                assert_eq!(v, (g / 1024) * 1_000_000 + g);
            }
        }
    }

    #[test]
    fn dot_is_bitwise_identical_across_thread_counts() {
        for n in [8usize, 1000, 1024, 1025, 4096, 100_003] {
            let x = random_vec(n, 11);
            let y = random_vec(n, 99);
            let serial = blas::dot(&x, &y);
            for t in THREAD_COUNTS {
                let pk = ParKernels::new(t);
                assert_eq!(pk.dot(&x, &y), serial, "n={n} t={t}");
            }
        }
    }

    #[test]
    fn spmv_is_bitwise_identical_across_thread_counts() {
        let a = poisson_3d(14); // n = 2744 — several schedule chunks
        let x = random_vec(a.ncols(), 5);
        let mut serial = vec![0.0; a.nrows()];
        a.spmv(&x, &mut serial);
        for t in THREAD_COUNTS {
            let pk = ParKernels::new(t);
            let mut y = vec![1.0; a.nrows()];
            pk.spmv(&a, &x, &mut y);
            assert_eq!(y, serial, "t={t}");
        }
    }

    #[test]
    fn spmv_sell_is_bitwise_identical_across_thread_counts() {
        let a = poisson_3d(14); // n = 2744 — several slice-schedule chunks
        let sell = a.sell();
        let x = random_vec(a.ncols(), 5);
        let mut serial = vec![0.0; a.nrows()];
        a.spmv(&x, &mut serial);
        for t in THREAD_COUNTS {
            let pk = ParKernels::new(t);
            let mut y = vec![1.0; a.nrows()];
            pk.spmv_sell(&sell, &x, &mut y);
            assert_eq!(y, serial, "t={t}");
        }
    }

    #[test]
    fn spmv_sell_prefix_is_bitwise_identical_across_thread_counts() {
        let a = poisson_2d(40); // 1600 rows in one ascending list
        let rows: Vec<usize> = (0..a.nrows()).collect();
        let sell = SellMatrix::from_rows(a.row_ptr(), a.col_idx(), a.values(), &rows);
        let x = random_vec(a.ncols(), 17);
        let mut full = vec![0.0; a.nrows()];
        a.spmv(&x, &mut full);
        for cut in [0usize, 31, 32, 33, 500, 1600] {
            let mut serial = vec![f64::NAN; a.nrows()];
            sell.spmv_lanes_prefix(cut, &x, &mut serial);
            for t in THREAD_COUNTS {
                let pk = ParKernels::new(t);
                let mut y = vec![f64::NAN; a.nrows()];
                pk.spmv_sell_prefix(&sell, cut, &x, &mut y);
                for r in 0..cut {
                    assert_eq!(y[r].to_bits(), full[r].to_bits(), "t={t} cut={cut} r={r}");
                    assert_eq!(y[r].to_bits(), serial[r].to_bits(), "t={t} cut={cut} r={r}");
                }
            }
        }
    }

    #[test]
    fn spmm_columns_match_spmv_bitwise_for_any_thread_count() {
        let a = poisson_3d(14);
        let n = a.nrows();
        for k in [1usize, 2, 4, 8] {
            let x = random_mv(n, k, 31 + k as u64);
            for t in THREAD_COUNTS {
                let pk = ParKernels::new(t);
                let mut y = random_mv(n, k, 99);
                pk.spmm(&a, &x, &mut y);
                for j in 0..k {
                    let mut want = vec![0.0; n];
                    a.spmv(x.col(j), &mut want);
                    assert_eq!(y.col(j), &want[..], "k={k} t={t} col={j}");
                }
            }
        }
    }

    #[test]
    fn spmm_sell_columns_match_spmv_bitwise_for_any_thread_count() {
        let a = poisson_3d(14);
        let sell = a.sell();
        let n = a.nrows();
        for k in [1usize, 2, 4, 8] {
            let x = random_mv(n, k, 53 + k as u64);
            for t in THREAD_COUNTS {
                let pk = ParKernels::new(t);
                let mut y = random_mv(n, k, 7);
                pk.spmm_sell(&sell, &x, &mut y);
                for j in 0..k {
                    let mut want = vec![0.0; n];
                    a.spmv(x.col(j), &mut want);
                    assert_eq!(y.col(j), &want[..], "k={k} t={t} col={j}");
                }
            }
        }
    }

    #[test]
    fn gram_is_bitwise_identical_across_thread_counts() {
        let n = 5 * REDUCE_BLOCK + 321;
        let a = random_mv(n, 5, 7);
        let b = random_mv(n, 6, 1007);
        let serial = a.gram(&b);
        for t in THREAD_COUNTS {
            let pk = ParKernels::new(t);
            let g = pk.gram(&a, &b);
            for i in 0..5 {
                for j in 0..6 {
                    assert_eq!(g[(i, j)], serial[(i, j)], "t={t} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn gram_matches_naive_dot_products() {
        let n = 2 * REDUCE_BLOCK + 10;
        let a = random_mv(n, 3, 21);
        let b = random_mv(n, 4, 22);
        let g = ParKernels::new(4).gram(&a, &b);
        for i in 0..3 {
            for j in 0..4 {
                let naive: f64 = a.col(i).iter().zip(b.col(j)).map(|(p, q)| p * q).sum();
                assert!((g[(i, j)] - naive).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn fused_gram_cols_equals_blockwise_grams() {
        // The fused concatenated Gram must reproduce the four independent
        // sub-block Grams bitwise (the per-pair reduction shape does not
        // see the concatenation).
        let n = 3 * REDUCE_BLOCK + 77;
        let zl = random_mv(n, 3, 31);
        let zr = random_mv(n, 2, 32);
        let yl = random_mv(n, 3, 33);
        let yr = random_mv(n, 4, 34);
        let pk = ParKernels::new(4);
        let acols: Vec<&[f64]> = (0..3)
            .map(|i| zl.col(i))
            .chain((0..2).map(|i| zr.col(i)))
            .collect();
        let bcols: Vec<&[f64]> = (0..3)
            .map(|j| yl.col(j))
            .chain((0..4).map(|j| yr.col(j)))
            .collect();
        let fused = pk.gram_cols(n, &acols, &bcols);
        let blocks = [
            (0, 0, pk.gram(&zl, &yl)),
            (0, 3, pk.gram(&zl, &yr)),
            (3, 0, pk.gram(&zr, &yl)),
            (3, 3, pk.gram(&zr, &yr)),
        ];
        for (ri, rj, g) in &blocks {
            for i in 0..g.nrows() {
                for j in 0..g.ncols() {
                    assert_eq!(fused[(ri + i, rj + j)], g[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn elementwise_kernels_match_serial_bitwise() {
        let n = 4 * REDUCE_BLOCK + 13;
        let x = random_vec(n, 3);
        let p = random_vec(n, 4);
        for t in THREAD_COUNTS {
            let pk = ParKernels::new(t);

            let mut y_ser = p.clone();
            blas::axpy(0.37, &x, &mut y_ser);
            let mut y_par = p.clone();
            pk.axpy(0.37, &x, &mut y_par);
            assert_eq!(y_par, y_ser, "axpy t={t}");

            let mut y_ser = p.clone();
            blas::xpby(&x, -1.4, &mut y_ser);
            let mut y_par = p.clone();
            pk.xpby(&x, -1.4, &mut y_par);
            assert_eq!(y_par, y_ser, "xpby t={t}");

            let mut z_ser = vec![0.0; n];
            blas::sub(&x, &p, &mut z_ser);
            let mut z_par = vec![1.0; n];
            pk.sub(&x, &p, &mut z_par);
            assert_eq!(z_par, z_ser, "sub t={t}");

            let mut z_ser = vec![0.0; n];
            for i in 0..n {
                z_ser[i] = x[i] * p[i];
            }
            let mut z_par = vec![0.0; n];
            pk.pointwise_mul(&x, &p, &mut z_par);
            assert_eq!(z_par, z_ser, "pointwise t={t}");

            let prev = random_vec(n, 5);
            let (rho, gamma) = (1.7, 0.23);
            let mut o_ser = vec![0.0; n];
            for i in 0..n {
                o_ser[i] = rho * (x[i] + gamma * p[i]) + (1.0 - rho) * prev[i];
            }
            let mut o_par = vec![0.0; n];
            pk.three_term(rho, gamma, &x, &p, &prev, &mut o_par);
            assert_eq!(o_par, o_ser, "three_term t={t}");
        }
    }

    #[test]
    fn gemv_and_gemm_match_serial_bitwise() {
        let n = 3 * REDUCE_BLOCK + 5;
        let mv = random_mv(n, 5, 41);
        let coeffs = [0.3, -1.0, 0.0, 2.5, 0.125];
        let b =
            DenseMat::from_row_major(5, 4, (0..20).map(|i| ((i * 13 % 7) as f64) - 3.0).collect());
        let base = random_mv(n, 4, 55);

        let mut out_ser = random_vec(n, 60);
        let out0 = out_ser.clone();
        mv.gemv_acc(1.5, &coeffs, &mut out_ser);
        let mut g_ser = base.clone();
        mv.gemm_small_acc(&b, &mut g_ser);

        for t in THREAD_COUNTS {
            let pk = ParKernels::new(t);
            let mut out_par = out0.clone();
            pk.gemv_acc(&mv, 1.5, &coeffs, &mut out_par);
            assert_eq!(out_par, out_ser, "gemv_acc t={t}");

            let mut g_par = base.clone();
            pk.gemm_small_acc(&mv, &b, &mut g_par);
            assert_eq!(g_par, g_ser, "gemm_small_acc t={t}");
        }
    }

    #[test]
    fn blocked_update_par_matches_serial() {
        let n = 2 * REDUCE_BLOCK + 9;
        let u = random_mv(n, 3, 71);
        let b = DenseMat::from_row_major(3, 3, (0..9).map(|i| i as f64 * 0.1 - 0.3).collect());
        let mut p_ser = random_mv(n, 3, 72);
        let p0 = p_ser.clone();
        let mut scratch = MultiVector::zeros(n, 3);
        p_ser.blocked_update(&u, &b, &mut scratch);
        for t in THREAD_COUNTS {
            let pk = ParKernels::new(t);
            let mut p_par = p0.clone();
            let mut scratch = MultiVector::zeros(n, 3);
            p_par.blocked_update_par(&pk, &u, &b, &mut scratch);
            assert_eq!(p_par, p_ser, "t={t}");
        }
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let pk = ParKernels::new(8);
        let a = poisson_2d(3); // n = 9, fewer rows than threads
        let x = random_vec(9, 2);
        let mut y = vec![0.0; 9];
        pk.spmv(&a, &x, &mut y);
        let mut serial = vec![0.0; 9];
        a.spmv(&x, &mut serial);
        assert_eq!(y, serial);
        assert_eq!(pk.dot(&x, &x), blas::dot(&x, &x));
    }
}
