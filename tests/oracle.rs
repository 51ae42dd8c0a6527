//! Scalar oracle for the strip-mined dense block kernels.
//!
//! `ParKernels::gram_cols` and `ParKernels::fused_update` read their
//! columns through unchecked strip loads, tile their columns, and run an
//! AVX2 build of their bodies when the CPU has it. Each is specified as an
//! exact sequence of scalar operations, so each must agree bit for bit with
//! that sequence written out plainly here — on every length around the
//! strip, lane and reduction-block edges, on column counts that leave
//! ragged register tiles, with exact-zero and `-0.0` coefficients (which
//! the kernels skip), and with ±inf/NaN entries (which must propagate
//! exactly as the plain sequence propagates them).
//!
//! A NaN result only has to be NaN: which NaN payload x86 returns depends
//! on the operand order of each add, which the compiler is free to commute.

use spcg::sparse::rng::Rng64;
use spcg::sparse::{DenseMat, MultiVector, ParKernels, UpdateInit};

const LENGTHS: [usize; 11] = [0, 1, 3, 4, 127, 128, 129, 1023, 1024, 1025, 4097];
const COUNTS: [usize; 6] = [1, 2, 3, 10, 11, 21];
const THREADS: [usize; 2] = [1, 2];
/// Rows of the fixed-shape reduction blocks (`spcg::sparse::blas::REDUCE_BLOCK`).
const BLOCK: usize = 1024;

fn same(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Random entries in `[-0.5, 0.5)`, with `-0.0`, `+0.0` and (when
/// `special`) ±inf and NaN sprinkled in.
fn column(n: usize, rng: &mut Rng64, special: bool) -> Vec<f64> {
    (0..n)
        .map(|_| match rng.next_u64() % 64 {
            0 => -0.0,
            1 => 0.0,
            2 if special => f64::INFINITY,
            3 if special => f64::NEG_INFINITY,
            4 if special => f64::NAN,
            _ => rng.next_f64() - 0.5,
        })
        .collect()
}

fn multivector(n: usize, k: usize, rng: &mut Rng64, special: bool) -> MultiVector {
    let cols: Vec<Vec<f64>> = (0..k).map(|_| column(n, rng, special)).collect();
    let mut mv = MultiVector::zeros(n, k);
    for (j, c) in cols.iter().enumerate() {
        mv.col_mut(j).copy_from_slice(c);
    }
    mv
}

/// Coefficients with exact zeros of both signs mixed in.
fn coefficients(len: usize, rng: &mut Rng64) -> Vec<f64> {
    (0..len)
        .map(|_| match rng.next_u64() % 5 {
            0 => 0.0,
            1 => -0.0,
            _ => rng.next_f64() * 2.0 - 1.0,
        })
        .collect()
}

/// `x · y` as the documented reduction: per block of 1024 rows, four lanes
/// (row mod 4) in ascending order plus a sequential tail, combined
/// `(l0 + l1) + (l2 + l3) + tail`; block partials halved pairwise with an
/// odd last partial carried up.
fn dot_reference(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    if n == 0 {
        return 0.0;
    }
    let mut partials = Vec::new();
    let mut lo = 0;
    while lo < n {
        let hi = (lo + BLOCK).min(n);
        let body = lo + (hi - lo) / 4 * 4;
        let mut lane = [0.0f64; 4];
        for r in lo..body {
            lane[(r - lo) % 4] += x[r] * y[r];
        }
        let mut tail = 0.0;
        for r in body..hi {
            tail += x[r] * y[r];
        }
        partials.push((lane[0] + lane[1]) + (lane[2] + lane[3]) + tail);
        lo = hi;
    }
    while partials.len() > 1 {
        let mut next: Vec<f64> = partials.chunks_exact(2).map(|p| p[0] + p[1]).collect();
        if partials.len() % 2 == 1 {
            next.push(partials[partials.len() - 1]);
        }
        partials = next;
    }
    partials[0]
}

#[test]
fn gram_cols_matches_the_scalar_reduction_bitwise() {
    let mut rng = Rng64::seed_from_u64(0x0a11);
    for &n in &LENGTHS {
        for &(ka, kb) in &[
            (1, 1),
            (2, 3),
            (3, 2),
            (10, 11),
            (11, 10),
            (21, 21),
            (3, 21),
        ] {
            let special = n % 2 == 1;
            let a = multivector(n, ka, &mut rng, special);
            let b = multivector(n, kb, &mut rng, special);
            let acols: Vec<&[f64]> = (0..ka).map(|i| a.col(i)).collect();
            let bcols: Vec<&[f64]> = (0..kb).map(|j| b.col(j)).collect();
            for &t in &THREADS {
                let g = ParKernels::new(t).gram_cols(n, &acols, &bcols);
                for i in 0..ka {
                    for j in 0..kb {
                        let want = dot_reference(a.col(i), b.col(j));
                        assert!(
                            same(g[(i, j)], want),
                            "n={n} {ka}x{kb} t={t} ({i},{j}): {} vs {want}",
                            g[(i, j)]
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn gram_of_a_multivector_matches_the_scalar_reduction_bitwise() {
    let mut rng = Rng64::seed_from_u64(0x0a12);
    for &n in &LENGTHS {
        for &k in &COUNTS {
            let a = multivector(n, k, &mut rng, false);
            let serial = a.gram(&a);
            let threaded = ParKernels::new(2).gram(&a, &a);
            for i in 0..k {
                for j in 0..k {
                    let want = dot_reference(a.col(i), a.col(j));
                    assert!(same(serial[(i, j)], want), "n={n} k={k} ({i},{j})");
                    assert!(same(threaded[(i, j)], want), "n={n} k={k} ({i},{j})");
                }
            }
        }
    }
}

/// How the reference update starts column `j`.
enum Start<'a> {
    Dst,
    Cols(&'a MultiVector),
    Basis(&'a MultiVector, &'a [f64], &'a [f64], &'a [f64]),
}

/// The fused update written as its specification: `T_j = start_j`, then
/// `T_j += B[l,j]·V_l` for `l` ascending unless `B[l,j] == 0`; `dst ← T`;
/// then `out += (α·c_j)·T_j` for `j` ascending unless the product is 0.
fn update_reference(
    dst: &mut MultiVector,
    start: &Start<'_>,
    src: Option<&MultiVector>,
    b: Option<&DenseMat>,
    acc: Option<(f64, &[f64], &mut [f64])>,
) {
    let (n, k) = (dst.n(), dst.k());
    let v = src.cloned().unwrap_or_else(|| dst.clone());
    let mut t = MultiVector::zeros(n, k);
    for j in 0..k {
        for i in 0..n {
            let mut x = match start {
                Start::Dst => dst.col(j)[i],
                Start::Cols(u) => u.col(j)[i],
                Start::Basis(s, gamma, theta, mu) => {
                    let mut x = if gamma[j] == 1.0 {
                        s.col(j + 1)[i]
                    } else {
                        gamma[j] * s.col(j + 1)[i]
                    };
                    if theta[j] != 0.0 {
                        x += theta[j] * s.col(j)[i];
                    }
                    if j >= 1 && mu[j - 1] != 0.0 {
                        x += mu[j - 1] * s.col(j - 1)[i];
                    }
                    x
                }
            };
            if let Some(b) = b {
                for l in 0..v.k() {
                    if b[(l, j)] != 0.0 {
                        x += b[(l, j)] * v.col(l)[i];
                    }
                }
            }
            t.col_mut(j)[i] = x;
        }
    }
    *dst = t.clone();
    if let Some((alpha, coeffs, out)) = acc {
        for (i, o) in out.iter_mut().enumerate() {
            for j in 0..k {
                let c = alpha * coeffs[j];
                if c != 0.0 {
                    *o += c * t.col(j)[i];
                }
            }
        }
    }
}

fn assert_same_mv(got: &MultiVector, want: &MultiVector, tag: &str) {
    for j in 0..want.k() {
        for (i, (&g, &w)) in got.col(j).iter().zip(want.col(j)).enumerate() {
            assert!(same(g, w), "{tag}: ({i},{j}) {g} vs {w}");
        }
    }
}

fn assert_same_vec(got: &[f64], want: &[f64], tag: &str) {
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(same(g, w), "{tag}: [{i}] {g} vs {w}");
    }
}

#[test]
fn fused_update_matches_the_scalar_sequence_bitwise() {
    let mut rng = Rng64::seed_from_u64(0x0b21);
    for &n in &LENGTHS {
        for &k in &COUNTS {
            let special = (n + k) % 2 == 1;
            let u = multivector(n, k, &mut rng, special);
            let s = multivector(n, k + 1, &mut rng, special);
            let other = multivector(n, k + 2, &mut rng, special);
            let dst0 = multivector(n, k, &mut rng, special);
            let out0 = column(n, &mut rng, special);
            let b_sq = DenseMat::from_row_major(k, k, coefficients(k * k, &mut rng));
            let b_wide = DenseMat::from_row_major(k + 2, k, coefficients((k + 2) * k, &mut rng));
            let coeffs = coefficients(k, &mut rng);
            // A basis with unit and non-unit γ and zero and nonzero θ/μ.
            let gamma: Vec<f64> = (0..k)
                .map(|j| if j % 3 == 0 { 1.0 } else { 0.5 + j as f64 })
                .collect();
            let theta = coefficients(k, &mut rng);
            let mu = coefficients(k.saturating_sub(1), &mut rng);
            for &t in &THREADS {
                let pk = ParKernels::new(t);
                let tag = format!("n={n} k={k} t={t}");

                // sPCG's P update: dst ← U + dst·B, x += P·a.
                let (mut got, mut want) = (dst0.clone(), dst0.clone());
                let (mut xo, mut xw) = (out0.clone(), out0.clone());
                pk.fused_update(
                    &mut got,
                    UpdateInit::Cols(&u),
                    None,
                    Some(&b_sq),
                    Some((1.0, &coeffs, &mut xo)),
                );
                update_reference(
                    &mut want,
                    &Start::Cols(&u),
                    None,
                    Some(&b_sq),
                    Some((1.0, &coeffs, &mut xw)),
                );
                assert_same_mv(&got, &want, &format!("{tag} in-place P"));
                assert_same_vec(&xo, &xw, &format!("{tag} in-place x"));

                // sPCG's AP update: dst ← S·B_cob + dst·B, r −= AP·a.
                let init = UpdateInit::ChangeOfBasis {
                    s: &s,
                    gamma: &gamma,
                    theta: &theta,
                    mu: &mu,
                };
                let (mut got, mut want) = (dst0.clone(), dst0.clone());
                let (mut ro, mut rw) = (out0.clone(), out0.clone());
                pk.fused_update(
                    &mut got,
                    init,
                    None,
                    Some(&b_sq),
                    Some((-1.0, &coeffs, &mut ro)),
                );
                let start = Start::Basis(&s, &gamma, &theta, &mu);
                update_reference(
                    &mut want,
                    &start,
                    None,
                    Some(&b_sq),
                    Some((-1.0, &coeffs, &mut rw)),
                );
                assert_same_mv(&got, &want, &format!("{tag} change of basis"));
                assert_same_vec(&ro, &rw, &format!("{tag} change-of-basis r"));

                // The first block: no B at all.
                let (mut got, mut want) = (dst0.clone(), dst0.clone());
                pk.fused_update(&mut got, init, None, None, None);
                update_reference(&mut want, &start, None, None, None);
                assert_same_mv(&got, &want, &format!("{tag} no B"));

                // EkCG's accumulation: dst ← dst + V·B with a wider V.
                let (mut got, mut want) = (dst0.clone(), dst0.clone());
                pk.fused_update(&mut got, UpdateInit::Dst, Some(&other), Some(&b_wide), None);
                update_reference(&mut want, &Start::Dst, Some(&other), Some(&b_wide), None);
                assert_same_mv(&got, &want, &format!("{tag} accumulate"));
            }
        }
    }
}

#[test]
fn blocked_update_and_gemm_small_acc_match_the_scalar_sequence_bitwise() {
    let mut rng = Rng64::seed_from_u64(0x0b22);
    for &n in &[0usize, 5, 1025, 4097] {
        for &(kp, ku) in &[(3, 3), (10, 10), (11, 4), (2, 21)] {
            let u = multivector(n, ku, &mut rng, true);
            let p0 = multivector(n, kp, &mut rng, true);
            let b = DenseMat::from_row_major(kp, ku, coefficients(kp * ku, &mut rng));
            let mut want = MultiVector::zeros(n, ku);
            update_reference(&mut want, &Start::Cols(&u), Some(&p0), Some(&b), None);
            for &t in &THREADS {
                let pk = ParKernels::new(t);
                let mut p = p0.clone();
                let mut scratch = MultiVector::zeros(n, ku);
                p.blocked_update_par(&pk, &u, &b, &mut scratch);
                assert_same_mv(&p, &want, &format!("blocked_update n={n} {kp}x{ku} t={t}"));

                let mut acc = u.clone();
                pk.gemm_small_acc(&p0, &b, &mut acc);
                let mut acc_want = u.clone();
                update_reference(&mut acc_want, &Start::Dst, Some(&p0), Some(&b), None);
                assert_same_mv(&acc, &acc_want, &format!("gemm_small_acc n={n} t={t}"));
            }
            let mut p = p0.clone();
            let mut scratch = MultiVector::zeros(n, ku);
            p.blocked_update(&u, &b, &mut scratch);
            assert_same_mv(&p, &want, &format!("serial blocked_update n={n} {kp}x{ku}"));
        }
    }
}

#[test]
fn gemv_acc_matches_the_scalar_sequence_bitwise() {
    let mut rng = Rng64::seed_from_u64(0x0c31);
    for &n in &LENGTHS {
        for &k in &COUNTS {
            let special = (n + k) % 2 == 0;
            let mv = multivector(n, k, &mut rng, special);
            let coeffs = coefficients(k, &mut rng);
            let out0 = column(n, &mut rng, special);
            for &a in &[1.0, -1.0, 0.375] {
                let mut want = out0.clone();
                for (i, w) in want.iter_mut().enumerate() {
                    for j in 0..k {
                        let c = a * coeffs[j];
                        if c != 0.0 {
                            *w += c * mv.col(j)[i];
                        }
                    }
                }
                let mut serial = out0.clone();
                mv.gemv_acc(a, &coeffs, &mut serial);
                assert_same_vec(
                    &serial,
                    &want,
                    &format!("serial gemv_acc n={n} k={k} a={a}"),
                );
                for &t in &THREADS {
                    let mut got = out0.clone();
                    ParKernels::new(t).gemv_acc(&mv, a, &coeffs, &mut got);
                    assert_same_vec(&got, &want, &format!("gemv_acc n={n} k={k} a={a} t={t}"));
                }
            }
        }
    }
}

#[test]
#[should_panic(expected = "every column must have length n")]
fn gram_cols_rejects_a_short_column() {
    let long = vec![1.0; 300];
    let short = vec![1.0; 299];
    let acols: Vec<&[f64]> = vec![&long, &long];
    let bcols: Vec<&[f64]> = vec![&long, &short];
    ParKernels::serial().gram_cols(300, &acols, &bcols);
}

#[test]
#[should_panic(expected = "every column must have length n")]
fn gram_cols_rejects_a_long_column() {
    let long = vec![1.0; 301];
    let cols: Vec<&[f64]> = vec![&long];
    ParKernels::new(2).gram_cols(300, &cols, &cols);
}

#[test]
#[should_panic(expected = "fused_update: U shape mismatch")]
fn fused_update_rejects_a_short_u() {
    let mut p = MultiVector::zeros(100, 3);
    let u = MultiVector::zeros(99, 3);
    ParKernels::serial().fused_update(&mut p, UpdateInit::Cols(&u), None, None, None);
}

#[test]
#[should_panic(expected = "fused_update: B must be")]
fn fused_update_rejects_a_non_square_in_place_b() {
    let mut p = MultiVector::zeros(100, 3);
    let u = MultiVector::zeros(100, 3);
    let b = DenseMat::zeros(4, 3);
    ParKernels::new(2).fused_update(&mut p, UpdateInit::Cols(&u), None, Some(&b), None);
}

#[test]
#[should_panic(expected = "fused_update: S must be n × (k+1)")]
fn fused_update_rejects_a_short_basis() {
    let mut ap = MultiVector::zeros(100, 3);
    let s = MultiVector::zeros(100, 3);
    let c = [1.0; 3];
    let init = UpdateInit::ChangeOfBasis {
        s: &s,
        gamma: &c,
        theta: &c,
        mu: &c,
    };
    ParKernels::serial().fused_update(&mut ap, init, None, None, None);
}

#[test]
#[should_panic(expected = "fused_update: output length mismatch")]
fn fused_update_rejects_a_short_output() {
    let mut p = MultiVector::zeros(100, 3);
    let u = MultiVector::zeros(100, 3);
    let mut x = vec![0.0; 99];
    let a = [1.0; 3];
    ParKernels::serial().fused_update(
        &mut p,
        UpdateInit::Cols(&u),
        None,
        None,
        Some((1.0, &a, &mut x)),
    );
}
