//! Operator fingerprints: content hashes keying the setup cache.
//!
//! A [`Fingerprint`] identifies everything that determines a solve's
//! cached setup artifacts: the matrix (structure *and* values), the
//! preconditioner recipe, the method (including its s-step basis), the
//! engine, and every deterministic [`SolveOptions`] field. Two submissions
//! hash equal exactly when a [`crate::SolverHandle`] built for one is
//! valid — and bitwise-reproducing — for the other.
//!
//! The hash is a 64-bit FNV-1a folded over native words (one multiply per
//! `f64`/`usize`, not per byte), so fingerprinting costs a single streaming
//! pass over the matrix — the whole cache-hit setup path. Observational
//! options are deliberately **excluded**: tracing ([`SolveOptions::trace`])
//! never changes results, and a fault plan only matters to ranked solves
//! that arm it, where it perturbs timing rather than cached setup.
//!
//! [`SolveOptions`]: spcg_solvers::SolveOptions
//! [`SolveOptions::trace`]: spcg_solvers::SolveOptions

use crate::handle::SolveSpec;
use spcg_basis::BasisType;
use spcg_precond::PrecondSpec;
use spcg_solvers::{Engine, Method, StoppingCriterion};
use spcg_sparse::{CsrMatrix, SparseFormat};
use std::fmt;

/// A 64-bit content hash naming one operator + solve configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Word-folding FNV-1a. Not cryptographic — the cache tolerates the
/// astronomically unlikely collision the same way a hash map would not:
/// it doesn't; a collision would alias two configurations. At 64 bits
/// over a handful of resident operators that risk is acceptable for a
/// performance cache. The golden-output tests reuse it to pin solver
/// results bit for bit.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    /// The hash of everything folded in so far.
    pub fn finish(&self) -> u64 {
        self.0
    }

    /// Folds one 64-bit word.
    pub fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    /// Folds a `usize` as one word.
    pub fn usize(&mut self, v: usize) {
        self.word(v as u64);
    }

    /// Folds the bit pattern of an `f64` (so `-0.0` and each NaN payload
    /// hash distinctly).
    pub fn f64(&mut self, v: f64) {
        self.word(v.to_bits());
    }

    fn usizes(&mut self, vs: &[usize]) {
        self.usize(vs.len());
        for &v in vs {
            self.usize(v);
        }
    }

    /// Folds a length-prefixed `f64` slice.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    fn bool(&mut self, v: bool) {
        self.word(v as u64);
    }
}

/// Hashes the matrix and the full solve spec into one cache key.
pub fn fingerprint(a: &CsrMatrix, spec: &SolveSpec) -> Fingerprint {
    let mut h = Fnv::new();
    hash_matrix(&mut h, a);
    hash_precond(&mut h, &spec.precond);
    hash_method(&mut h, &spec.method);
    match spec.engine {
        Engine::Serial => h.word(0),
        Engine::Ranked { ranks } => {
            h.word(1);
            h.usize(ranks);
        }
    }
    let o = &spec.opts;
    h.f64(o.tol);
    h.usize(o.max_iters);
    h.word(match o.criterion {
        StoppingCriterion::TrueResidual2Norm => 0,
        StoppingCriterion::RecursiveResidual2Norm => 1,
        StoppingCriterion::PrecondMNorm => 2,
    });
    h.f64(o.divergence_factor);
    h.usize(o.stall_checks);
    h.bool(o.keep_history);
    match o.residual_replacement {
        None => h.word(0),
        Some(f) => {
            h.word(1);
            h.f64(f);
        }
    }
    // Execution-shape options: they never change results (bitwise
    // determinism), but they do change which artifacts a handle warms
    // (SELL form, schedule width), so they key the cache too.
    h.usize(o.threads);
    h.bool(o.overlap);
    h.word(match o.format {
        SparseFormat::Csr => 0,
        SparseFormat::Sell => 1,
    });
    h.word(match o.backend {
        spcg_dist::Backend::Thread => 0,
        spcg_dist::Backend::Proc => 1,
    });
    match &o.resilience {
        None => h.word(0),
        Some(r) => {
            h.word(1);
            h.usize(r.max_restarts);
            h.bool(r.shrink_s);
        }
    }
    h.usize(o.adaptive.s_min);
    h.usize(o.adaptive.s_max);
    h.f64(o.adaptive.cond_grow);
    h.f64(o.adaptive.cond_shrink);
    h.f64(o.adaptive.cond_reject);
    h.f64(o.adaptive.gap_tol);
    h.f64(o.adaptive.drift_tol);
    h.usize(o.adaptive.grow_patience);
    h.usize(o.adaptive.min_ritz);
    h.usize(o.adaptive.max_ritz);
    h.f64(o.adaptive.margin);
    h.bool(spec.tune_basis);
    Fingerprint(h.0)
}

fn hash_matrix(h: &mut Fnv, a: &CsrMatrix) {
    h.usize(a.nrows());
    h.usize(a.ncols());
    h.usizes(a.row_ptr());
    h.usizes(a.col_idx());
    h.f64s(a.values());
}

fn hash_precond(h: &mut Fnv, spec: &PrecondSpec) {
    match spec {
        PrecondSpec::Identity { n } => {
            h.word(0);
            h.usize(*n);
        }
        PrecondSpec::Jacobi { inv_diag } => {
            h.word(1);
            h.f64s(inv_diag);
        }
        PrecondSpec::BlockJacobi { block } => {
            h.word(2);
            h.usize(*block);
        }
        PrecondSpec::Chebyshev { degree, lo, hi } => {
            h.word(3);
            h.usize(*degree);
            h.f64(*lo);
            h.f64(*hi);
        }
        PrecondSpec::Ssor { omega } => {
            h.word(4);
            h.f64(*omega);
        }
        PrecondSpec::Ic0 => h.word(5),
    }
}

fn hash_method(h: &mut Fnv, method: &Method) {
    match method {
        Method::Pcg => h.word(0),
        Method::Pcg3 => h.word(1),
        Method::SPcg { s, basis } => {
            h.word(2);
            h.usize(*s);
            hash_basis(h, basis);
        }
        Method::SPcgMon { s } => {
            h.word(3);
            h.usize(*s);
        }
        Method::CaPcg { s, basis } => {
            h.word(4);
            h.usize(*s);
            hash_basis(h, basis);
        }
        Method::CaPcg3 { s, basis } => {
            h.word(5);
            h.usize(*s);
            hash_basis(h, basis);
        }
        Method::AdaptiveCaPcg { s, basis } => {
            h.word(6);
            h.usize(*s);
            hash_basis(h, basis);
        }
        Method::CaPcgGs { s, basis } => {
            h.word(7);
            h.usize(*s);
            hash_basis(h, basis);
        }
        Method::EkCg { t } => {
            h.word(8);
            h.usize(*t);
        }
    }
}

fn hash_basis(h: &mut Fnv, basis: &BasisType) {
    match basis {
        BasisType::Monomial => h.word(0),
        BasisType::Newton { shifts } => {
            h.word(1);
            h.f64s(shifts);
        }
        BasisType::Chebyshev {
            lambda_min,
            lambda_max,
        } => {
            h.word(2);
            h.f64(*lambda_min);
            h.f64(*lambda_max);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_precond::Jacobi;
    use spcg_precond::Preconditioner;
    use spcg_sparse::generators::poisson::poisson_2d;
    use spcg_sparse::CooMatrix;

    fn spec_for(a: &CsrMatrix) -> SolveSpec {
        SolveSpec::new(Method::Pcg, Jacobi::new(a).spec().unwrap())
    }

    #[test]
    fn equal_inputs_hash_equal() {
        let a = poisson_2d(9);
        let b = poisson_2d(9);
        assert_eq!(
            fingerprint(&a, &spec_for(&a)),
            fingerprint(&b, &spec_for(&b))
        );
    }

    #[test]
    fn any_value_change_changes_the_hash() {
        let a = poisson_2d(9);
        let spec = spec_for(&a);
        let base = fingerprint(&a, &spec);
        // Perturb one matrix entry by one ulp.
        let n = a.nrows();
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let v = if i == 0 && c == 0 {
                    f64::from_bits(v.to_bits() + 1)
                } else {
                    v
                };
                coo.push(i, c, v);
            }
        }
        let perturbed = coo.to_csr();
        assert_ne!(base, fingerprint(&perturbed, &spec));
    }

    #[test]
    fn spec_changes_change_the_hash() {
        let a = poisson_2d(9);
        let spec = spec_for(&a);
        let base = fingerprint(&a, &spec);

        let mut s2 = spec.clone();
        s2.opts.tol = 1e-10;
        assert_ne!(base, fingerprint(&a, &s2));

        let mut s3 = spec.clone();
        s3.precond = PrecondSpec::Ic0;
        assert_ne!(base, fingerprint(&a, &s3));

        let mut s4 = spec.clone();
        s4.method = Method::SPcgMon { s: 4 };
        assert_ne!(base, fingerprint(&a, &s4));

        let mut s5 = spec.clone();
        s5.engine = Engine::Ranked { ranks: 2 };
        assert_ne!(base, fingerprint(&a, &s5));

        // Toggle away from whatever the (env-derived) default format is,
        // so the test holds under SPCG_FORMAT overrides too.
        let mut s6 = spec.clone();
        s6.opts.format = match spec.opts.format {
            SparseFormat::Sell => SparseFormat::Csr,
            _ => SparseFormat::Sell,
        };
        assert_ne!(base, fingerprint(&a, &s6));
    }

    #[test]
    fn trace_does_not_change_the_hash() {
        let a = poisson_2d(9);
        let spec = spec_for(&a);
        let base = fingerprint(&a, &spec);
        let mut traced = spec.clone();
        traced.opts.trace = Some(spcg_obs::Tracer::new());
        assert_eq!(base, fingerprint(&a, &traced));
    }
}
