//! The three workloads: their inputs (drawn from the seed), their pinned
//! solve options, and the request mix of one round.

use spcg_adapt::AdaptivePolicy;
use spcg_basis::BasisType;
use spcg_dist::Backend;
use spcg_precond::{Jacobi, Preconditioner};
use spcg_service::SolveSpec;
use spcg_solvers::setup::{chebyshev_basis, DEFAULT_MARGIN, DEFAULT_WARMUP_ITERS};
use spcg_solvers::{solve, Engine, Method, Problem, SolveOptions, SolveResult, StoppingCriterion};
use spcg_sparse::generators::{
    anisotropic_3d, poisson_3d, spd_with_spectrum, suite_matrices, SpectrumShape,
};
use spcg_sparse::rng::Rng64;
use spcg_sparse::{CsrMatrix, SparseFormat};
use std::sync::Arc;

/// Stopping tolerance of every solve (on the `PrecondMNorm` criterion).
pub const TOL: f64 = 1e-9;
/// A converged solve's true relative residual may exceed `TOL` by this
/// factor: the criterion is the preconditioned norm relative to the
/// initial one, not the 2-norm relative to `‖b‖`.
pub const RESIDUAL_FACTOR: f64 = 100.0;
/// Iteration cap of the solve workloads, in multiples of PCG's count on
/// the same system, so a stalled solve costs bounded time and fails.
pub const CAP_OVER_PCG: usize = 4;
/// Iteration cap of every service spec; all pool operators converge far
/// below it.
pub const SERVICE_MAX_ITERS: usize = 5000;
/// Kernel threads per rank in every workload (`SolveOptions::threads`).
/// The run is pinned to one CPU (see `machine::pin_to_one_cpu`), where a
/// second kernel thread could only take turns with the first.
pub const THREADS: usize = 1;
/// Grid edge of every Poisson and anisotropic operator. At 16³ (n = 4096)
/// an s = 10 solve's working set, about 1 MB, fits the 2 MiB L2 of one
/// core; at 20³ and above it lives in the shared LLC, where other tenants'
/// traffic moved the same solve's time by 25–40 % between runs.
pub const GRID: usize = 16;
/// Right-hand sides drawn per service operator.
pub const RHS_POOL: usize = 8;
/// Right-hand sides drawn per solve workload; round `r` solves the mix
/// against right-hand side `r mod SOLVE_RHS`, which averages the
/// iteration count's dependence on one `x*` (s-step counts move in
/// whole blocks of `s`). The 7 × 16 distinct (method, RHS) requests give
/// the latency p90 more than ten samples beyond it.
pub const SOLVE_RHS: usize = 16;

/// `SPCG_*` variables only test suites and the repository's bench binaries
/// read; every other `SPCG_*` variable changes how a solve executes.
const INERT_ENV: [&str; 3] = ["SPCG_RANKS", "SPCG_QUICK", "SPCG_GRID"];

/// Refuses to run when an `SPCG_*` variable that changes execution is set:
/// a CI environment leg would otherwise silently change the workload.
pub fn check_env() -> Result<(), String> {
    let mut bad: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SPCG_") && !INERT_ENV.contains(&k.as_str()))
        .collect();
    bad.sort();
    if bad.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: {} set; these change how solves execute, so the workload would not be the benchmark's. Unset them.",
            bad.join(", ")
        ))
    }
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Poisson 16³, the seven-method mix, `Engine::Serial`, one thread.
    Poisson16Serial,
    /// Poisson 16³, the same mix on `Engine::Ranked { ranks: 2 }`.
    Poisson16Ranked2,
    /// A `SolveService` fed seeded `submit_batch` requests.
    ServiceMixed,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Poisson16Serial,
        Workload::Poisson16Ranked2,
        Workload::ServiceMixed,
    ];

    /// The name the command line takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Poisson16Serial => "poisson16-serial",
            Workload::Poisson16Ranked2 => "poisson16-ranked2",
            Workload::ServiceMixed => "service-mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Ranks the workload's solves run on.
    pub fn ranks(self) -> usize {
        match self {
            Workload::Poisson16Ranked2 => 2,
            _ => 1,
        }
    }
}

/// Independent seeded streams, one per purpose, so drawing more of one
/// input never shifts another.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    /// `x*` of the solve workloads.
    Xstar,
    /// Round order of the solve workloads.
    Order,
    /// `x*` of service operator `i`.
    ServiceXstar(u64),
    /// Round order, columns and checked column of the service workload.
    ServiceRound,
}

impl Stream {
    fn salt(self) -> u64 {
        match self {
            Stream::Xstar => 1,
            Stream::Order => 2,
            Stream::ServiceRound => 3,
            Stream::ServiceXstar(i) => 16 + i,
        }
    }
}

/// The generator of one stream under `seed`.
pub fn rng(seed: u64, stream: Stream) -> Rng64 {
    Rng64::seed_from_u64(seed ^ stream.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// `b = A·x*` for `x*` uniform in `[-1, 1)`, drawn from `rng`.
pub fn draw_rhs(a: &CsrMatrix, rng: &mut Rng64) -> Vec<f64> {
    let xstar: Vec<f64> = (0..a.nrows()).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&xstar, &mut b);
    b
}

/// A uniformly shuffled `0..len`.
pub fn shuffled(rng: &mut Rng64, len: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        v.swap(i, rng.below_inclusive(i));
    }
    v
}

/// Every field set explicitly: `SolveOptions::default()` reads `SPCG_*`.
pub fn pinned_options(threads: usize, max_iters: usize) -> SolveOptions {
    SolveOptions {
        tol: TOL,
        max_iters,
        criterion: StoppingCriterion::PrecondMNorm,
        divergence_factor: 1e8,
        stall_checks: 4000,
        keep_history: false,
        residual_replacement: None,
        threads,
        overlap: true,
        format: SparseFormat::Sell,
        backend: Backend::Thread,
        trace: None,
        faults: None,
        resilience: None,
        adaptive: AdaptivePolicy::default(),
    }
}

/// The seven-method mix of the solve workloads, with stable metric labels.
pub fn method_mix(basis: &BasisType) -> Vec<(&'static str, Method)> {
    let b = || basis.clone();
    vec![
        ("pcg", Method::Pcg),
        ("spcg_s5", Method::SPcg { s: 5, basis: b() }),
        ("spcg_s10", Method::SPcg { s: 10, basis: b() }),
        ("capcg_s10", Method::CaPcg { s: 10, basis: b() }),
        ("capcg3_s10", Method::CaPcg3 { s: 10, basis: b() }),
        ("capcg_gs_s10", Method::CaPcgGs { s: 10, basis: b() }),
        (
            "adaptive_capcg_s4",
            Method::AdaptiveCaPcg { s: 4, basis: b() },
        ),
    ]
}

/// Inputs of a solve workload.
pub struct SolveSetup {
    /// System matrix.
    pub a: CsrMatrix,
    /// Jacobi preconditioner.
    pub m: Jacobi,
    /// Seeded right-hand sides.
    pub rhs: Vec<Vec<f64>>,
    /// The method mix, with the warm-up Chebyshev basis.
    pub mix: Vec<(&'static str, Method)>,
    /// Pinned options, `max_iters` capped at `CAP_OVER_PCG` × PCG's count.
    pub opts: SolveOptions,
    /// Execution engine.
    pub engine: Engine,
    /// PCG's iterations on this system (the cap's base).
    pub pcg_iters: usize,
}

impl SolveSetup {
    /// Builds the inputs: matrix, seeded right-hand sides, Jacobi, SELL
    /// conversion, the Chebyshev warm-up and the PCG reference solve
    /// fixing the cap (both on the first right-hand side).
    pub fn build(w: Workload, seed: u64) -> SolveSetup {
        let (grid, engine) = match w {
            Workload::Poisson16Serial => (GRID, Engine::Serial),
            Workload::Poisson16Ranked2 => (GRID, Engine::Ranked { ranks: 2 }),
            Workload::ServiceMixed => unreachable!("service-mixed is not a solve workload"),
        };
        let a = poisson_3d(grid);
        let mut r = rng(seed, Stream::Xstar);
        let rhs: Vec<Vec<f64>> = (0..SOLVE_RHS).map(|_| draw_rhs(&a, &mut r)).collect();
        let m = Jacobi::new(&a);
        let _ = a.sell();
        let _ = a.row_schedule(THREADS);
        let problem = Problem::new(&a, &m, &rhs[0]);
        let basis = chebyshev_basis(&problem, DEFAULT_WARMUP_ITERS, DEFAULT_MARGIN);
        let reference = solve(
            &Method::Pcg,
            &problem,
            &pinned_options(THREADS, 12_000),
            engine,
        );
        assert!(
            reference.converged(),
            "reference PCG solve did not converge"
        );
        let pcg_iters = reference.iterations;
        SolveSetup {
            opts: pinned_options(THREADS, CAP_OVER_PCG * pcg_iters),
            mix: method_mix(&basis),
            a,
            m,
            rhs,
            engine,
            pcg_iters,
        }
    }

    /// Runs mix entry `i` on right-hand side `r` with `opts` (the pinned
    /// options, possibly traced).
    pub fn solve(&self, i: usize, r: usize, opts: &SolveOptions) -> SolveResult {
        let problem = Problem::new(&self.a, &self.m, &self.rhs[r]);
        solve(&self.mix[i].1, &problem, opts, self.engine)
    }
}

/// One operator of the service pool.
pub struct PoolOp {
    /// The operator.
    pub a: Arc<CsrMatrix>,
    /// Seeded right-hand sides.
    pub rhs: Vec<Vec<f64>>,
}

/// One cacheable (operator, spec) pair of the service workload.
pub struct ServiceSpec {
    /// Label used in the failure list.
    pub label: &'static str,
    /// Index into the pool.
    pub op: usize,
    /// The spec submitted.
    pub spec: SolveSpec,
}

/// The shape of one request: which spec, how many columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    /// Index into the specs.
    pub spec: usize,
    /// Batch width.
    pub width: usize,
}

/// One concrete request of a round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Index into the specs.
    pub spec: usize,
    /// Right-hand-side indices into the operator's pool, one per column.
    pub cols: Vec<usize>,
    /// The column compared against a standalone `solve()`.
    pub check: usize,
}

/// Inputs of the service workload.
pub struct ServiceSetup {
    /// Operator pool (four).
    pub ops: Vec<PoolOp>,
    /// Specs (five: one per operator under PCG, plus CA-PCG3 on Poisson).
    pub specs: Vec<ServiceSpec>,
    /// The round every pass replays (see [`round_requests`]).
    pub requests: Vec<Request>,
}

/// Rows of the rarely drawn operator: its width-8 PCG working set (six
/// blocks of 8 columns plus the matrix, ≈ 150 MB) exceeds a 105 MiB LLC.
pub const LARGE_N: usize = 360_000;

/// The fixed multiset of request shapes one service round shuffles, over
/// the specs of [`ServiceSetup::build`] (0–2: PCG on Poisson, anisotropic,
/// Dubcova3; 3: PCG on the large operator; 4: CA-PCG3 on Poisson).
pub fn round_shapes() -> Vec<Shape> {
    let mut round = Vec::new();
    let mut add = |spec: usize, width: usize, count: usize| {
        round.extend(std::iter::repeat_n(Shape { spec, width }, count));
    };
    // Counts are set so each reported percentile falls well inside a
    // class of similar requests, not on the edge between a fast and a
    // slow class; the latencies are those of the 16³ operators. Of a
    // round's 100 requests, the 24 width-1 requests on Poisson and the
    // anisotropic operator are the fastest and the 50 Poisson width-4
    // ones follow, so the median (50th) sits 25 places from either edge
    // of that class. Above them come 12 mid-sized requests, then the 10
    // CA-PCG3 and 3 Dubcova3 width-4 requests that hold the p90 (90th),
    // then the large operator's one request. Drawn once in 100, the
    // large batch still takes about half of a round's time.
    add(0, 1, 16);
    add(1, 1, 8);
    add(0, 4, 50);
    add(1, 4, 4);
    add(0, 8, 4);
    add(2, 1, 2);
    add(1, 8, 2);
    add(4, 4, 10);
    add(2, 4, 3);
    add(3, 8, 1);
    round
}

impl ServiceSetup {
    /// Builds the pool, draws every operator's right-hand sides from
    /// `seed`, and forms the specs.
    pub fn build(seed: u64) -> ServiceSetup {
        let requests = round_requests(&round_shapes(), &mut rng(seed, Stream::ServiceRound));
        let suite = suite_matrices()
            .into_iter()
            .find(|e| e.name == "Dubcova3")
            .expect("Table-2 suite has Dubcova3");
        let ops = [
            poisson_3d(GRID),
            anisotropic_3d(GRID, 0.1, 0.01),
            suite.build(),
            spd_with_spectrum(
                LARGE_N,
                &SpectrumShape::Geometric { kappa: 10.0 },
                1.0,
                1,
                7,
            ),
        ];
        let ops: Vec<PoolOp> = ops
            .into_iter()
            .enumerate()
            .map(|(i, a)| {
                let mut r = rng(seed, Stream::ServiceXstar(i as u64));
                let rhs = (0..RHS_POOL).map(|_| draw_rhs(&a, &mut r)).collect();
                PoolOp {
                    a: Arc::new(a),
                    rhs,
                }
            })
            .collect();
        let opts = pinned_options(THREADS, SERVICE_MAX_ITERS);
        let spec = |op: usize, method: Method| {
            let jacobi = Jacobi::new(&ops[op].a).spec().expect("Jacobi has a recipe");
            SolveSpec::new(method, jacobi).with_opts(opts.clone())
        };
        // CA-PCG3's Chebyshev interval is retuned by the handle's Ritz
        // warm-up; the placeholder interval only selects the basis type.
        let cheb = BasisType::Chebyshev {
            lambda_min: 0.1,
            lambda_max: 2.0,
        };
        let specs = vec![
            ServiceSpec {
                label: "poisson16/pcg",
                op: 0,
                spec: spec(0, Method::Pcg),
            },
            ServiceSpec {
                label: "aniso16/pcg",
                op: 1,
                spec: spec(1, Method::Pcg),
            },
            ServiceSpec {
                label: "dubcova3/pcg",
                op: 2,
                spec: spec(2, Method::Pcg),
            },
            ServiceSpec {
                label: "large/pcg",
                op: 3,
                spec: spec(3, Method::Pcg),
            },
            ServiceSpec {
                label: "poisson16/capcg3_s10",
                op: 0,
                spec: spec(0, Method::CaPcg3 { s: 10, basis: cheb }).with_tuned_basis(),
            },
        ];
        ServiceSetup {
            ops,
            specs,
            requests,
        }
    }

    /// Cache capacity: one less than the operator pool.
    pub fn cache_capacity(&self) -> usize {
        self.ops.len() - 1
    }
}

/// The service round: `shapes` in seeded order, each with seeded distinct
/// columns and a seeded checked column. A run draws it once and replays
/// it, so each request repeats with the same work and the same cache
/// state, and its fastest repetition is its time on an uncontended host.
pub fn round_requests(shapes: &[Shape], rng: &mut Rng64) -> Vec<Request> {
    shuffled(rng, shapes.len())
        .into_iter()
        .map(|i| {
            let shape = shapes[i];
            let cols: Vec<usize> = shuffled(rng, RHS_POOL)[..shape.width].to_vec();
            let check = rng.below_inclusive(shape.width - 1);
            Request {
                spec: shape.spec,
                cols,
                check,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_sparse::generators::poisson::poisson_2d;

    #[test]
    fn same_seed_same_inputs() {
        let a = poisson_2d(10);
        let b1 = draw_rhs(&a, &mut rng(42, Stream::Xstar));
        let b2 = draw_rhs(&a, &mut rng(42, Stream::Xstar));
        assert_eq!(
            crate::stats::fnv_bits(&b1),
            crate::stats::fnv_bits(&b2),
            "same seed must give bitwise-equal inputs"
        );
        let b3 = draw_rhs(&a, &mut rng(43, Stream::Xstar));
        assert_ne!(b1, b3, "another seed must give other inputs");
        let order = |seed| shuffled(&mut rng(seed, Stream::Order), 7);
        assert_eq!(order(42), order(42));
        let mut sorted = order(42);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>(), "a permutation");
    }

    #[test]
    fn streams_are_independent() {
        let a = poisson_2d(6);
        let b = draw_rhs(&a, &mut rng(7, Stream::Xstar));
        let o = draw_rhs(&a, &mut rng(7, Stream::Order));
        assert_ne!(b, o);
    }

    #[test]
    fn service_rounds_are_seeded_and_well_formed() {
        let shapes = [
            Shape { spec: 0, width: 1 },
            Shape { spec: 1, width: 4 },
            Shape { spec: 0, width: 8 },
        ];
        let r1 = round_requests(&shapes, &mut rng(5, Stream::ServiceRound));
        let r2 = round_requests(&shapes, &mut rng(5, Stream::ServiceRound));
        assert_eq!(r1, r2);
        let mut widths: Vec<usize> = r1.iter().map(|r| r.cols.len()).collect();
        widths.sort_unstable();
        assert_eq!(widths, vec![1, 4, 8]);
        for r in &r1 {
            let mut c = r.cols.clone();
            c.sort_unstable();
            c.dedup();
            assert_eq!(c.len(), r.cols.len(), "columns are distinct");
            assert!(r.check < r.cols.len());
        }
    }

    #[test]
    fn service_percentiles_fall_inside_a_class() {
        let round = round_shapes();
        assert_eq!(round.len(), 100);
        let rank = |q: f64| (q * round.len() as f64).ceil() as usize;
        let count = |f: &dyn Fn(&Shape) -> bool| round.iter().filter(|s| f(s)).count();
        // Below the Poisson width-4 class: width 1 on Poisson and aniso.
        let fast = count(&|s| s.width == 1 && s.spec < 2);
        let median_class = count(&|s| s.spec == 0 && s.width == 4);
        assert_eq!((fast, median_class), (24, 50));
        let place = rank(0.5) - fast;
        assert!(place.min(median_class - place) >= 24, "median mid-class");
        // The p90 lies among CA-PCG3 and Dubcova3 width 4, with the large
        // batch alone above them.
        let p90_class = count(&|s| s.spec == 4 || (s.spec == 2 && s.width == 4));
        let top = count(&|s| s.spec == 3);
        assert_eq!((p90_class, top), (13, 1));
        assert!(rank(0.9) > round.len() - top - p90_class);
        assert!(rank(0.9) <= round.len() - top);
    }

    #[test]
    fn env_check_names_the_offending_variables() {
        // Only inspects the process environment; run without SPCG_* set.
        if std::env::vars().all(|(k, _)| !k.starts_with("SPCG_")) {
            assert!(check_env().is_ok());
        }
    }
}
