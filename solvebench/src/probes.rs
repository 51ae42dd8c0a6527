//! Per-layer probes: each layer's public kernels timed from outside, on the
//! workload's own operator, after the timed loop.

use crate::machine::sell_spmv_bytes;
use crate::report::Metrics;
use crate::stats::median;
use spcg_basis::{BasisType, Mpk};
use spcg_dist::executor::run_ranks;
use spcg_dist::{Counters, ThreadComm, VectorBoard};
use spcg_precond::{Jacobi, Preconditioner};
use spcg_sparse::partition::BlockRowPartition;
use spcg_sparse::rng::Rng64;
use spcg_sparse::smallsolve::{gs_solve, Cholesky};
use spcg_sparse::{CsrMatrix, DenseMat, GhostZone, MultiVector, ParKernels, SparseFormat};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Block size every s-step probe uses.
pub const S: usize = 10;
/// Ranks of the `dist` probes.
const RANKS: usize = 2;

/// Median wall-clock seconds of `reps` calls of `f`, after two untimed
/// calls.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times).expect("reps > 0")
}

fn random_multivector(n: usize, k: usize, seed: u64) -> MultiVector {
    let mut rng = Rng64::seed_from_u64(seed);
    let cols: Vec<Vec<f64>> = (0..k)
        .map(|_| (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect())
        .collect();
    MultiVector::from_columns(&cols)
}

/// `sparse`, `basis` and `precond` probes on `a` with `threads` kernel
/// threads. `triad_bw` (bytes/s) is the denominator of
/// `sparse.spmv_bw_frac`.
pub fn kernel_probes(
    out: &mut Metrics,
    a: &Arc<CsrMatrix>,
    m: &Jacobi,
    basis: &BasisType,
    threads: usize,
    triad_bw: f64,
) {
    let n = a.nrows();
    let nnz = a.nnz() as f64;
    let pk = ParKernels::new(threads);
    let sell = a.sell();
    let x = random_multivector(n, 1, 1).col(0).to_vec();
    let mut y = vec![0.0; n];

    let t = time_median(60, || pk.spmv_sell(&sell, black_box(&x), &mut y));
    out.push("sparse.spmv_gflops", 2.0 * nnz / t / 1e9, "GFLOP/s");
    let bytes = sell_spmv_bytes(n, sell.padded_nnz());
    out.push("sparse.spmv_bw_frac", bytes / t / triad_bw, "ratio");

    let k = 2 * S + 1;
    let v = random_multivector(n, k, 2);
    let t = time_median(20, || {
        black_box(pk.gram(black_box(&v), &v));
    });
    out.push(
        "sparse.gram_gflops",
        2.0 * (k * k) as f64 * n as f64 / t / 1e9,
        "GFLOP/s",
    );

    let u = random_multivector(n, S, 3);
    let mut p = random_multivector(n, S, 4);
    let bsmall = DenseMat::from_fn(S, S, |i, j| if i == j { 0.5 } else { 1e-3 });
    let mut scratch = MultiVector::zeros(n, S);
    let t = time_median(20, || p.blocked_update_par(&pk, &u, &bsmall, &mut scratch));
    out.push(
        "sparse.blocked_update_gflops",
        2.0 * (S * S) as f64 * n as f64 / t / 1e9,
        "GFLOP/s",
    );

    // A (2s+1)² Gram system of the shape CA-PCG factors every block.
    let g = pk.gram(&v, &v);
    let rhs: Vec<f64> = (0..k).map(|i| 1.0 + i as f64).collect();
    let t = time_median(400, || {
        let c = Cholesky::factor(black_box(&g)).expect("random Gram is SPD");
        black_box(c.solve(&rhs));
    });
    out.push("sparse.smallsolve_us", t * 1e6, "us");
    let t = time_median(400, || {
        black_box(gs_solve(black_box(&g), &rhs, None, 4 * k, 1e-14).expect("nonzero diagonal"));
    });
    out.push("sparse.gs_solve_us", t * 1e6, "us");

    let xk = random_multivector(n, 8, 5);
    let mut yk = MultiVector::zeros(n, 8);
    let t = time_median(20, || pk.spmm_sell(&sell, black_box(&xk), &mut yk));
    out.push(
        "sparse.spmm_k8_gflops",
        2.0 * nnz * 8.0 / t / 1e9,
        "GFLOP/s",
    );

    let mpk = Mpk::new_par(a, m, ParKernels::new(threads)).with_format(SparseFormat::Sell);
    let params = basis.params(S);
    let mut vb = MultiVector::zeros(n, S + 1);
    let mut mvb = MultiVector::zeros(n, S + 1);
    let mut c = Counters::new();
    mpk.run(&x, None, &params, &mut vb, &mut mvb, &mut c);
    let flops = (c.spmv_flops + c.blas1_flops + c.precond_flops) as f64;
    let t = time_median(10, || {
        mpk.run(&x, None, &params, &mut vb, &mut mvb, &mut Counters::new())
    });
    out.push("basis.mpk_gflops", flops / t / 1e9, "GFLOP/s");

    let t = time_median(200, || m.apply_par(&pk, black_box(&x), &mut y));
    out.push("precond.apply_us", t * 1e6, "us");
    let spec = m.spec().expect("Jacobi has a recipe");
    let t = time_median(20, || {
        black_box(spec.build(a));
    });
    out.push("precond.build_s", t, "s");
}

/// `dist` probes: allreduce, split-phase exchange on the 2-rank
/// partition of `a` at depth 1 and depth `S`, and rank start-up.
pub fn dist_probes(out: &mut Metrics, a: &CsrMatrix) {
    const ROUNDS: usize = 400;
    let words = (2 * S + 1) * (2 * S + 1);
    let per_op: Vec<f64> = run_ranks(RANKS, |comm: ThreadComm| {
        let mut buf = vec![1.0; words];
        for _ in 0..50 {
            comm.allreduce_sum(&mut buf);
        }
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..ROUNDS {
                    buf.fill(1.0);
                    comm.allreduce_sum(&mut buf);
                }
                t.elapsed().as_secs_f64() / ROUNDS as f64
            })
            .collect();
        assert_eq!(buf[0], RANKS as f64, "allreduce sums every rank");
        median(&times).expect("five batches")
    });
    out.push("dist.allreduce_us", per_op[0] * 1e6, "us");

    let n = a.nrows();
    let part = BlockRowPartition::balanced(n, RANKS);
    let offsets: Vec<usize> = (0..RANKS).map(|r| part.range(r).0).chain([n]).collect();
    let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
    for (depth, name) in [(1, "dist.exchange_d1_us"), (S, "dist.exchange_d10_us")] {
        let board = VectorBoard::new(offsets.clone());
        let per_round: Vec<f64> = run_ranks(RANKS, |comm: ThreadComm| {
            let (lo, hi) = part.range(comm.rank());
            let gz = GhostZone::new(a, lo, hi, depth);
            let plan = board.plan(gz.ghost_indices());
            let mut ghosts = vec![0.0; gz.ext_len() - (hi - lo)];
            let mut exchange = || {
                board.post(&comm, &x[lo..hi]);
                board.complete_into(&comm, &plan, &mut ghosts);
            };
            for _ in 0..20 {
                exchange();
            }
            let times: Vec<f64> = (0..5)
                .map(|_| {
                    let t = Instant::now();
                    for _ in 0..ROUNDS / 4 {
                        exchange();
                    }
                    t.elapsed().as_secs_f64() / (ROUNDS / 4) as f64
                })
                .collect();
            assert!(
                gz.ghost_indices()
                    .iter()
                    .zip(&ghosts)
                    .all(|(&g, &v)| v == g as f64),
                "exchange delivered the owners' entries"
            );
            median(&times).expect("five batches")
        });
        out.push(name, per_round[0] * 1e6, "us");
    }

    let t = time_median(40, || {
        black_box(run_ranks(RANKS, |c: ThreadComm| c.rank()));
    });
    out.push("dist.rank_start_ms", t * 1e3, "ms");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_timer_runs_every_rep() {
        let mut calls = 0;
        let t = time_median(5, || calls += 1);
        assert_eq!(calls, 7, "two warm-up calls plus five timed");
        assert!(t >= 0.0);
    }
}
