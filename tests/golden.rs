//! Golden outputs: the bits of every solver's result, pinned by hash.
//!
//! Each case solves one fixed Poisson problem and folds three things into
//! 64-bit word-folding FNV-1a hashes (the service's fingerprint hash):
//! the bit pattern of the solution `x`, the `(iteration, value)` criterion
//! history, and every field of the operation [`Counters`]. The table
//! covers every [`Method`] on the serial engine and on two ranks, with
//! CSR and SELL storage.
//!
//! The parity suites compare configurations against each other; this one
//! compares the code against its own past. A kernel rewrite that claims to
//! be bitwise identical must leave every hash unchanged. When a change is
//! *meant* to move results, the failure message prints the new table in
//! source form, ready to paste over [`GOLDEN`].

use spcg::prelude::*;
use spcg::service::Fnv;
use spcg::sparse::generators::paper_rhs;
use spcg::sparse::generators::poisson::poisson_3d;
use spcg::sparse::SparseFormat;

/// `(case, x hash, history hash, counters hash)`.
#[rustfmt::skip]
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("pcg/serial/csr", 0xd6b51ef5d275a1f9, 0x0ab65cccb3918394, 0x3f779646fa2508ca),
    ("pcg/serial/sell", 0xd6b51ef5d275a1f9, 0x0ab65cccb3918394, 0x3f779646fa2508ca),
    ("pcg/ranked2/csr", 0xcc706c9045397cf4, 0xe4d272c75e4bee48, 0xf7de1d46b10c27d1),
    ("pcg/ranked2/sell", 0xcc706c9045397cf4, 0xe4d272c75e4bee48, 0xf7de1d46b10c27d1),
    ("pcg3/serial/csr", 0x0a9c52ca470b0fa3, 0x585e4955a4ef0e1b, 0x4726166537659160),
    ("pcg3/serial/sell", 0x0a9c52ca470b0fa3, 0x585e4955a4ef0e1b, 0x4726166537659160),
    ("pcg3/ranked2/csr", 0x83ce5ae1255a5045, 0x1c31c1a8225d3a51, 0xa01285658a4e6faf),
    ("pcg3/ranked2/sell", 0x83ce5ae1255a5045, 0x1c31c1a8225d3a51, 0xa01285658a4e6faf),
    ("spcg_s5/serial/csr", 0x29e1e4a06ad71f38, 0x3d0b68fa8b4b4d8c, 0xedd70d6717923dab),
    ("spcg_s5/serial/sell", 0x29e1e4a06ad71f38, 0x3d0b68fa8b4b4d8c, 0xedd70d6717923dab),
    ("spcg_s5/ranked2/csr", 0x92673ba2f9fc908b, 0x321d04fc660fba5e, 0xb68c07679fc00965),
    ("spcg_s5/ranked2/sell", 0x92673ba2f9fc908b, 0x321d04fc660fba5e, 0xb68c07679fc00965),
    ("spcg_s10/serial/csr", 0xee2801d646cad5cb, 0xa767cd7fff9a32a3, 0xdc464d67c1ab5352),
    ("spcg_s10/serial/sell", 0xee2801d646cad5cb, 0xa767cd7fff9a32a3, 0xdc464d67c1ab5352),
    ("spcg_s10/ranked2/csr", 0x1cdda0994c836b1e, 0xd8ed9aa07886769d, 0x0f1abb4fb2439e80),
    ("spcg_s10/ranked2/sell", 0x1cdda0994c836b1e, 0xd8ed9aa07886769d, 0x0f1abb4fb2439e80),
    ("spcg_mon_s4/serial/csr", 0x325ebbef90d7ea88, 0x5c00713acbb09f55, 0x60d15e228a1ea2a1),
    ("spcg_mon_s4/serial/sell", 0x325ebbef90d7ea88, 0x5c00713acbb09f55, 0x60d15e228a1ea2a1),
    ("spcg_mon_s4/ranked2/csr", 0x48947e9307989787, 0xa06a832e125f2fd1, 0x301bf82317e48dcb),
    ("spcg_mon_s4/ranked2/sell", 0x48947e9307989787, 0xa06a832e125f2fd1, 0x301bf82317e48dcb),
    ("capcg_s5/serial/csr", 0x19d199de15df6083, 0x4f9d093eefda83fc, 0x7146f056d0aabb94),
    ("capcg_s5/serial/sell", 0x19d199de15df6083, 0x4f9d093eefda83fc, 0x7146f056d0aabb94),
    ("capcg_s5/ranked2/csr", 0x2417d711b9f24f98, 0x66fc814bc4d75805, 0x31db6f55efe4d8d3),
    ("capcg_s5/ranked2/sell", 0x2417d711b9f24f98, 0x66fc814bc4d75805, 0x31db6f55efe4d8d3),
    ("capcg_s10/serial/csr", 0x7f4b877f23bf24d8, 0x311424cd045bb1ec, 0xfb7d9f69f2a0ba7d),
    ("capcg_s10/serial/sell", 0x7f4b877f23bf24d8, 0x311424cd045bb1ec, 0xfb7d9f69f2a0ba7d),
    ("capcg_s10/ranked2/csr", 0x3bc4011478f6b75d, 0xeee7b21a7e8719fb, 0xdd4d0b6aa8aa7769),
    ("capcg_s10/ranked2/sell", 0x3bc4011478f6b75d, 0xeee7b21a7e8719fb, 0xdd4d0b6aa8aa7769),
    ("capcg3_s5/serial/csr", 0x97e8747fa1cc4f4f, 0x6ca78b5e0b6df7db, 0x4fe4729b9af25575),
    ("capcg3_s5/serial/sell", 0x97e8747fa1cc4f4f, 0x6ca78b5e0b6df7db, 0x4fe4729b9af25575),
    ("capcg3_s5/ranked2/csr", 0xd21d5595104a3749, 0x895769b37675a6ad, 0x93edf89b1d98637b),
    ("capcg3_s5/ranked2/sell", 0xd21d5595104a3749, 0x895769b37675a6ad, 0x93edf89b1d98637b),
    ("adaptive_capcg_s4/serial/csr", 0x5885bba3769ce6d3, 0x906da52d2c707fcd, 0xd43c150cff5dd9da),
    ("adaptive_capcg_s4/serial/sell", 0x5885bba3769ce6d3, 0x906da52d2c707fcd, 0xd43c150cff5dd9da),
    ("adaptive_capcg_s4/ranked2/csr", 0x6716d44a261ec89a, 0x209296ff703cfa1f, 0xd03b740cdc1359b9),
    ("adaptive_capcg_s4/ranked2/sell", 0x6716d44a261ec89a, 0x209296ff703cfa1f, 0xd03b740cdc1359b9),
    ("capcg_gs_s5/serial/csr", 0xa54840a723c34f62, 0xa6c056dcd81e3f5f, 0x7aa9c469cfaf97fd),
    ("capcg_gs_s5/serial/sell", 0xa54840a723c34f62, 0xa6c056dcd81e3f5f, 0x7aa9c469cfaf97fd),
    ("capcg_gs_s5/ranked2/csr", 0xafa32824887d5f3f, 0x537feadeccc484d6, 0x2ec9e9ed619f026d),
    ("capcg_gs_s5/ranked2/sell", 0xafa32824887d5f3f, 0x537feadeccc484d6, 0x2ec9e9ed619f026d),
    ("ekcg_t3/serial/csr", 0xd103f35ffeb605ed, 0x0e526f3d19ea3f97, 0xaea0bce97ea3b300),
    ("ekcg_t3/serial/sell", 0xd103f35ffeb605ed, 0x0e526f3d19ea3f97, 0xaea0bce97ea3b300),
    ("ekcg_t3/ranked2/csr", 0x7b5662fc1999d1d2, 0xfca289eaf2ea5c9e, 0x450e3ceb50f21080),
    ("ekcg_t3/ranked2/sell", 0x7b5662fc1999d1d2, 0xfca289eaf2ea5c9e, 0x450e3ceb50f21080),
];

fn methods(problem: &Problem<'_>) -> Vec<(&'static str, Method)> {
    let basis = spcg::solvers::chebyshev_basis(problem, 20, 0.05);
    vec![
        ("pcg", Method::Pcg),
        ("pcg3", Method::Pcg3),
        (
            "spcg_s5",
            Method::SPcg {
                s: 5,
                basis: basis.clone(),
            },
        ),
        (
            "spcg_s10",
            Method::SPcg {
                s: 10,
                basis: basis.clone(),
            },
        ),
        ("spcg_mon_s4", Method::SPcgMon { s: 4 }),
        (
            "capcg_s5",
            Method::CaPcg {
                s: 5,
                basis: basis.clone(),
            },
        ),
        (
            "capcg_s10",
            Method::CaPcg {
                s: 10,
                basis: basis.clone(),
            },
        ),
        (
            "capcg3_s5",
            Method::CaPcg3 {
                s: 5,
                basis: basis.clone(),
            },
        ),
        (
            "adaptive_capcg_s4",
            Method::AdaptiveCaPcg {
                s: 4,
                basis: basis.clone(),
            },
        ),
        ("capcg_gs_s5", Method::CaPcgGs { s: 5, basis }),
        ("ekcg_t3", Method::EkCg { t: 3 }),
    ]
}

fn hash_x(x: &[f64]) -> u64 {
    let mut h = Fnv::new();
    h.f64s(x);
    h.finish()
}

fn hash_history(history: &[(usize, f64)]) -> u64 {
    let mut h = Fnv::new();
    h.usize(history.len());
    for &(it, v) in history {
        h.usize(it);
        h.f64(v);
    }
    h.finish()
}

fn hash_counters(c: &Counters) -> u64 {
    // Destructured so a new counter field fails to compile here instead of
    // silently escaping the hash.
    let Counters {
        spmv_count,
        spmv_flops,
        precond_count,
        precond_flops,
        global_collectives,
        allreduce_words,
        dot_count,
        local_reduction_flops,
        blas1_flops,
        blas2_flops,
        blas3_flops,
        small_flops,
        iterations,
        outer_iterations,
        halo_exchanges,
        halo_words,
        restarts,
    } = *c;
    let mut h = Fnv::new();
    for w in [
        spmv_count,
        spmv_flops,
        precond_count,
        precond_flops,
        global_collectives,
        allreduce_words,
        dot_count,
        local_reduction_flops,
        blas1_flops,
        blas2_flops,
        blas3_flops,
        small_flops,
        iterations,
        outer_iterations,
        halo_exchanges,
        halo_words,
        restarts,
    ] {
        h.word(w);
    }
    h.finish()
}

#[test]
fn every_method_engine_and_format_reproduces_its_golden_hashes() {
    // n = 12³ = 1728 spans two reduction blocks of 1024 rows and a ragged
    // last block, on one rank and on two.
    let a = poisson_3d(12);
    let b = paper_rhs(&a);
    let m = spcg::precond::Jacobi::new(&a);
    let problem = Problem::try_new(&a, &m, &b).unwrap();
    let mut got = Vec::new();
    for (name, method) in methods(&problem) {
        for (ename, engine) in [
            ("serial", Engine::Serial),
            ("ranked2", Engine::Ranked { ranks: 2 }),
        ] {
            for (fname, format) in [("csr", SparseFormat::Csr), ("sell", SparseFormat::Sell)] {
                let opts = SolveOptions::builder()
                    .tol(1e-8)
                    .max_iters(2000)
                    .keep_history(true)
                    .format(format)
                    .build()
                    .with_faults(None)
                    .with_adaptive(spcg::solvers::AdaptivePolicy::default());
                let res = solve(&method, &problem, &opts, engine);
                got.push((
                    format!("{name}/{ename}/{fname}"),
                    hash_x(&res.x),
                    hash_history(&res.history),
                    hash_counters(&res.counters),
                ));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(case, x, h, c)| format!("    ({case:?}, {x:#018x}, {h:#018x}, {c:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64, u64, u64)> = GOLDEN
        .iter()
        .map(|&(case, x, h, c)| (case.to_string(), x, h, c))
        .collect();
    assert!(
        got == want,
        "golden hashes changed; the current table is:\n{table}"
    );
}
