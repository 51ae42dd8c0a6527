//! The closed loops, the correctness gate and the metrics they yield.
//!
//! Every workload is a closed loop with one client: the next request is
//! issued only when the previous one has returned. Only the requests
//! themselves are timed; hashing, bookkeeping and every correctness check
//! run outside the timed region.

use crate::probes::{dist_probes, kernel_probes, time_median};
use crate::report::Metrics;
use crate::stats::{fnv_bits, median, percentile};
use crate::trace::TraceTotals;
use crate::workload::{
    method_mix, pinned_options, rng, shuffled, ServiceSetup, SolveSetup, Stream, Workload,
    CAP_OVER_PCG, RESIDUAL_FACTOR, SOLVE_RHS, THREADS, TOL,
};
use spcg_dist::{Counters, MachineTopology};
use spcg_obs::{Phase, Tracer};
use spcg_perf::{predict_time, Calibrator};
use spcg_precond::{Jacobi, Preconditioner};
use spcg_service::{fingerprint, ServiceConfig, SolveService, SolveSpec, SolverHandle};
use spcg_solvers::setup::{chebyshev_basis, DEFAULT_MARGIN, DEFAULT_WARMUP_ITERS};
use spcg_solvers::{solve, Engine, Method, Problem, SolveResult};
use spcg_sparse::CsrMatrix;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Independent set-ups per measured run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Per-track event capacity of the traced run, far above what one solve
/// records, so no event drops.
pub const TRACE_CAP: usize = 1 << 24;

/// Phases reported as per-layer metrics: the ones every workload records.
/// A phase some workload never enters (exchange and frontier off the
/// ranked engine, SpMM off the service, small solves in CA-PCG3, …)
/// would read exactly zero there on every run; those still print in the
/// traced run's table.
pub const REPORTED_PHASES: [Phase; 6] = [
    Phase::Spmv,
    Phase::MpkLevel,
    Phase::Precond,
    Phase::Gram,
    Phase::ScalarWork,
    Phase::VecUpdate,
];

/// What one run prints.
pub struct RunResult {
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
    /// The metrics of the result line.
    pub metrics: Metrics,
    /// Solves attempted in the measured loop.
    pub attempted: u64,
    /// Solves that did not converge or failed a check.
    pub failed: u64,
    /// No correctness check failed.
    pub correct: bool,
}

/// Identity of a repeated solve: (method or spec index, right-hand side).
type Key = (usize, usize);

/// The correctness gate: a repeated (method, RHS) pair must reproduce the
/// first occurrence's `x` bit for bit with the same iteration count, and a
/// converged solve's true residual must meet the tolerance's bound.
#[derive(Default)]
struct Gate {
    first: BTreeMap<Key, (u64, usize)>,
    /// `x` of each key's first occurrence, for the residual check.
    first_x: BTreeMap<Key, SolveResult>,
    violations: Vec<String>,
    /// Keys that failed a check; every solve under them counts as failed.
    bad_keys: BTreeSet<Key>,
}

impl Gate {
    /// Records `res` under `key`; false when it contradicts an earlier
    /// occurrence.
    fn observe(&mut self, key: Key, label: &str, res: &SolveResult) -> bool {
        let h = fnv_bits(&res.x);
        match self.first.get(&key) {
            None => {
                self.first.insert(key, (h, res.iterations));
                self.first_x.insert(key, res.clone());
                true
            }
            Some(&(h0, it0)) if h0 == h && it0 == res.iterations => true,
            Some(&(h0, it0)) => {
                self.bad_keys.insert(key);
                self.violations.push(format!(
                    "{label} rhs {}: not reproducible (x hash {h:016x} vs {h0:016x}, iterations {} vs {it0})",
                    key.1, res.iterations
                ));
                false
            }
        }
    }

    /// Checks every first occurrence's true residual; returns the largest
    /// among converged solves.
    fn check_residuals<'s>(
        &mut self,
        system: impl Fn(Key) -> (&'s CsrMatrix, &'s [f64]),
        label: impl Fn(Key) -> String,
    ) -> f64 {
        let mut worst: f64 = 0.0;
        let mut bad = Vec::new();
        for (&key, res) in &self.first_x {
            if !res.converged() {
                continue;
            }
            let (a, b) = system(key);
            let rel = res.true_relative_residual(a, b);
            if rel.is_nan() || rel > RESIDUAL_FACTOR * TOL {
                self.bad_keys.insert(key);
                bad.push(format!(
                    "{} rhs {}: converged with true relative residual {rel:e} > {:e}",
                    label(key),
                    key.1,
                    RESIDUAL_FACTOR * TOL
                ));
            }
            worst = worst.max(rel);
        }
        self.violations.extend(bad);
        worst
    }
}

/// Tallies of one loop.
#[derive(Default)]
struct Ledger {
    /// Every request's latency, in order.
    latencies: Vec<f64>,
    /// Each distinct request's fastest latency and the solves it carries.
    best: BTreeMap<Key, (f64, u64)>,
    busy_s: f64,
    solves: u64,
    converged: u64,
    failed: u64,
    iterations: u64,
    collectives: u64,
    halo_words: u64,
    columns: u64,
    /// Failed solves by label, with their outcomes.
    failures: BTreeMap<String, BTreeMap<String, u64>>,
    /// Request latencies by label.
    by_label: BTreeMap<String, Vec<f64>>,
    /// Adaptive solves, basis rebuilds and block-size changes.
    adaptive: (u64, u64, u64),
    /// Solves counted as converged, by key, with their label.
    ok_keys: BTreeMap<Key, (String, u64)>,
}

impl Ledger {
    /// Records one request: the distinct request `key`, carrying `solves`
    /// solves, took `latency` seconds.
    fn request(&mut self, key: Key, label: &str, latency: f64, solves: u64) {
        self.latencies.push(latency);
        self.busy_s += latency;
        let best = self.best.entry(key).or_insert((f64::INFINITY, solves));
        best.0 = best.0.min(latency);
        self.by_label
            .entry(label.to_string())
            .or_default()
            .push(latency);
    }

    fn solve(&mut self, key: Key, label: &str, res: &SolveResult, passed_gate: bool) {
        self.solves += 1;
        self.iterations += res.iterations as u64;
        self.collectives += res
            .collectives_per_rank
            .unwrap_or(res.counters.global_collectives);
        self.halo_words += res.counters.halo_words;
        if let Some(rep) = &res.adaptive {
            self.adaptive.0 += 1;
            self.adaptive.1 += rep.shift_history.len() as u64;
            self.adaptive.2 += res.s_schedule.windows(2).filter(|w| w[0] != w[1]).count() as u64;
        }
        if res.converged() && passed_gate {
            self.converged += 1;
            self.ok_keys.entry(key).or_insert((label.to_string(), 0)).1 += 1;
        } else {
            self.failed += 1;
            let why = if passed_gate {
                format!("{:?}", res.outcome)
            } else {
                "failed a correctness check".to_string()
            };
            *self
                .failures
                .entry(label.to_string())
                .or_default()
                .entry(why)
                .or_default() += 1;
        }
    }

    /// Moves every converged solve under a key that failed a later check
    /// (residual, standalone comparison) to the failed column.
    fn fail_keys(&mut self, bad: &BTreeSet<Key>) {
        for key in bad {
            if let Some((label, n)) = self.ok_keys.remove(key) {
                self.converged -= n;
                self.failed += n;
                *self
                    .failures
                    .entry(label)
                    .or_default()
                    .entry("failed a correctness check".to_string())
                    .or_default() += n;
            }
        }
    }

    /// Each distinct request's fastest latency.
    fn best_latencies(&self) -> Vec<f64> {
        self.best.values().map(|b| b.0).collect()
    }

    /// Converged solves per second of one pass over every distinct
    /// request at its fastest latency, scaled by the converged share.
    fn solves_per_s(&self) -> f64 {
        let (time, solves) = self
            .best
            .values()
            .fold((0.0, 0), |(t, n), &(lat, k)| (t + lat, n + k));
        solves as f64 / time * self.converged as f64 / self.solves as f64
    }

    /// One line per label: requests and median latency.
    fn label_lines(&self) -> Vec<String> {
        self.by_label
            .iter()
            .map(|(label, v)| {
                format!(
                    "# {label}: {} requests, median {:.6} s",
                    v.len(),
                    median(v).expect("non-empty")
                )
            })
            .collect()
    }

    fn failure_lines(&self) -> Vec<String> {
        if self.failures.is_empty() {
            return vec!["# failed solves: none".to_string()];
        }
        self.failures
            .iter()
            .flat_map(|(label, whys)| {
                whys.iter()
                    .map(move |(why, n)| format!("# failed solve: {label} x{n}: {why}"))
            })
            .collect()
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Run parameters from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds the measured loop runs (at least).
    pub seconds: f64,
    /// Triad bandwidth of this run, bytes/s.
    pub triad_bw: f64,
}

fn end_to_end(
    out: &mut Metrics,
    led: &Ledger,
    setup_s: f64,
    rel_residual_max: f64,
) -> Result<(), String> {
    let best = led.best_latencies();
    let p = |q| {
        percentile(&best, q).ok_or_else(|| {
            format!(
                "{} distinct requests are too few for a p{}",
                best.len(),
                q * 100.0
            )
        })
    };
    out.push("solves_per_s", led.solves_per_s(), "1/s");
    out.push("latency_s_p50", p(0.5)?, "s");
    out.push("latency_s_p90", p(0.9)?, "s");
    out.push(
        "iters_per_solve",
        led.iterations as f64 / led.solves as f64,
        "iterations",
    );
    out.push(
        "collectives_per_solve",
        led.collectives as f64 / led.solves as f64,
        "count",
    );
    out.push(
        "converged_frac",
        led.converged as f64 / led.solves as f64,
        "ratio",
    );
    out.push("rel_residual_max", rel_residual_max, "ratio");
    out.push("setup_s", setup_s, "s");
    out.push(
        "peak_rss_mb",
        peak_rss_mib().ok_or("VmHWM unavailable")?,
        "MiB",
    );
    Ok(())
}

/// Lines stating the counts behind the end-to-end metrics.
fn summary_lines(led: &Ledger) -> Vec<String> {
    let mut lines = vec![format!(
        "# requests {} distinct {} solves {} converged {} failed {} fail_frac {} busy_s {:.3}; latency over every request: p50 {:?} s p90 {:?} s",
        led.latencies.len(),
        led.best.len(),
        led.solves,
        led.converged,
        led.failed,
        led.failed as f64 / led.solves as f64,
        led.busy_s,
        percentile(&led.latencies, 0.5),
        percentile(&led.latencies, 0.9),
    )];
    lines.extend(led.label_lines());
    lines.extend(led.failure_lines());
    lines
}

// ---------------------------------------------------------------- solves

fn run_solve_loop(
    s: &SolveSetup,
    gate: &mut Gate,
    order: &mut spcg_sparse::rng::Rng64,
    seconds: f64,
    mut traced: Option<&mut TracedRun>,
) -> Ledger {
    let mut led = Ledger::default();
    let t0 = Instant::now();
    let mut round = 0;
    // Whole cycles over the right-hand sides, so each weighs the same.
    while round % SOLVE_RHS != 0 || round == 0 || t0.elapsed().as_secs_f64() < seconds {
        let r = round % SOLVE_RHS;
        round += 1;
        for i in shuffled(order, s.mix.len()) {
            let label = s.mix[i].0;
            let (res, lat) = match traced.as_deref_mut() {
                None => {
                    let t = Instant::now();
                    let res = s.solve(i, r, &s.opts);
                    (res, t.elapsed().as_secs_f64())
                }
                Some(tr) => {
                    let tracer = Tracer::with_capacity(TRACE_CAP);
                    let mut opts = s.opts.clone();
                    opts.trace = Some(tracer.clone());
                    let t = Instant::now();
                    let res = s.solve(i, r, &opts);
                    let lat = t.elapsed().as_secs_f64();
                    tr.record(&tracer, &res.counters, lat);
                    (res, lat)
                }
            };
            led.request((i, r), label, lat, 1);
            let ok = gate.observe((i, r), label, &res);
            led.solve((i, r), label, &res, ok);
        }
    }
    led
}

fn solve_warmup(s: &SolveSetup, gate: &mut Gate) {
    for (i, (label, _)) in s.mix.iter().enumerate() {
        gate.observe((i, 0), label, &s.solve(i, 0, &s.opts));
    }
}

fn solve_residuals(s: &SolveSetup, gate: &mut Gate) -> f64 {
    gate.check_residuals(|(_, r)| (&s.a, &s.rhs[r]), |k| s.mix[k.0].0.to_string())
}

/// The timed run of a solve workload.
pub fn solve_timed(p: &Params) -> Result<RunResult, String> {
    let mut gate = Gate::default();
    let mut setup_times = Vec::new();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = SolveSetup::build(p.workload, p.seed);
        solve_warmup(&s, &mut gate);
        setup_times.push(t.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let s = setup.expect("SETUP_REPS > 0");
    let mut order = rng(p.seed, Stream::Order);
    let mut led = run_solve_loop(&s, &mut gate, &mut order, p.seconds, None);
    let worst = solve_residuals(&s, &mut gate);
    led.fail_keys(&gate.bad_keys);
    let mut metrics = Metrics::default();
    end_to_end(
        &mut metrics,
        &led,
        median(&setup_times).expect("setups ran"),
        worst,
    )?;
    let mut lines = vec![format!(
        "# pcg_iters {} max_iters {} setup_s_each {:?}",
        s.pcg_iters, s.opts.max_iters, setup_times
    )];
    lines.extend(summary_lines(&led));
    Ok(finish(lines, metrics, &led, gate))
}

fn finish(mut lines: Vec<String>, metrics: Metrics, led: &Ledger, gate: Gate) -> RunResult {
    for v in &gate.violations {
        lines.push(format!("# CHECK FAILED: {v}"));
    }
    RunResult {
        lines,
        metrics,
        attempted: led.solves,
        failed: led.failed,
        correct: gate.violations.is_empty(),
    }
}

/// Traced-loop accumulation: self times, calibration input, and each
/// solve's counters with its measured wall-clock for the model check.
#[derive(Default)]
struct TracedRun {
    totals: TraceTotals,
    calib: Calibrator,
    solves: Vec<(Counters, f64)>,
}

impl TracedRun {
    fn record(&mut self, tracer: &Tracer, counters: &Counters, wall: f64) {
        self.totals.add_tracks(&tracer.tracks());
        self.calib.ingest(tracer, counters);
        self.solves.push((counters.clone(), wall));
    }

    /// Predicted over measured wall-clock, the α-β model fitted to this
    /// traced run.
    fn model_over_measured(&self, ranks: usize) -> f64 {
        let machine = self.calib.fit_format("thread", "sell").machine_params();
        let topo = MachineTopology::new(1, ranks);
        let (mut predicted, mut measured) = (0.0, 0.0);
        for (c, wall) in &self.solves {
            let halo = c.halo_words as f64 / c.spmv_count.max(1) as f64;
            predicted += predict_time(c, &machine, &topo, halo).total();
            measured += wall;
        }
        predicted / measured
    }
}

/// Per-layer metrics shared by every workload's traced run. A dropped
/// trace event fails the run's checks.
fn traced_metrics(
    out: &mut Metrics,
    lines: &mut Vec<String>,
    gate: &mut Gate,
    tr: &TracedRun,
    traced: &Ledger,
    untraced: &Ledger,
    ranks: usize,
) {
    let per = (traced.solves as usize * ranks) as f64;
    lines.push(format!(
        "# traced run: {} solves, {} tracks, {} events dropped; self seconds per solve per rank:",
        traced.solves, tr.totals.tracks, tr.totals.dropped
    ));
    for (i, phase) in Phase::ALL.iter().enumerate() {
        lines.push(format!(
            "#   {:<14} {:.6e}",
            phase.as_str(),
            tr.totals.self_s[i] / per
        ));
    }
    for phase in REPORTED_PHASES {
        out.push(
            format!("solvers.{}_self_s", phase.as_str()),
            tr.totals.self_s[phase.index()] / per,
            "s",
        );
    }
    let wall = traced.busy_s * ranks as f64;
    out.push(
        "solvers.unattributed_frac",
        1.0 - tr.totals.covered_s / wall,
        "ratio",
    );
    out.push(
        "obs.trace_overhead",
        traced.solves_per_s() / untraced.solves_per_s(),
        "ratio",
    );
    out.push("obs.dropped_events", tr.totals.dropped as f64, "count");
    if tr.totals.dropped > 0 {
        gate.violations
            .push(format!("{} trace events dropped", tr.totals.dropped));
    }
    // The ratio's ideal is 1, so it has no better direction; the result
    // carries its distance from 1 on a log scale.
    let ratio = tr.model_over_measured(ranks);
    lines.push(format!("# perf.model_over_measured {ratio:.6}"));
    out.push("perf.model_abs_log_ratio", ratio.ln().abs(), "ln");
}

fn per_method(out: &mut Metrics, labels: &[&str], iters: &BTreeMap<String, f64>, led: &Ledger) {
    for label in labels {
        out.push(
            format!("solvers.iters.{label}"),
            iters[*label],
            "iterations",
        );
    }
    for label in labels {
        let t = led
            .by_label
            .get(*label)
            .and_then(|v| median(v))
            .expect("every method of the mix ran");
        out.push(format!("solvers.solve_s.{label}"), t, "s");
    }
}

fn adapt_metrics(out: &mut Metrics, led: &Ledger) {
    let (solves, rebuilds, changes) = led.adaptive;
    let n = solves.max(1) as f64;
    out.push("adapt.rebuilds_per_solve", rebuilds as f64 / n, "count");
    out.push("adapt.s_changes_per_solve", changes as f64 / n, "count");
}

/// `service.*` probes on every spec of a workload: a cold handle build (the
/// operators are copies without their cached conversions), a cache hit,
/// and a fingerprint.
fn service_probes(out: &mut Metrics, cases: &[(Arc<CsrMatrix>, SolveSpec)]) {
    let (mut build, mut hit, mut fp) = (0.0, 0.0, 0.0);
    for (a, spec) in cases {
        build += SolverHandle::build(Arc::clone(a), spec.clone())
            .setup_cost()
            .total
            .as_secs_f64();
        let svc = SolveService::new(ServiceConfig::default());
        let _ = svc.handle_for(a, spec);
        hit += time_median(30, || {
            std::hint::black_box(svc.handle_for(a, spec));
        });
        fp += time_median(30, || {
            std::hint::black_box(fingerprint(a, spec));
        });
    }
    let n = cases.len() as f64;
    out.push("service.build_s", build / n, "s");
    out.push("service.hit_s", hit / n, "s");
    out.push("service.fingerprint_s", fp / n, "s");
}

/// The traced run of a solve workload: an untraced half (throughput and
/// per-method times), a traced half (self times, model fit), then probes.
pub fn solve_traced(p: &Params) -> Result<RunResult, String> {
    let w = p.workload;
    let mut gate = Gate::default();
    let s = SolveSetup::build(w, p.seed);
    solve_warmup(&s, &mut gate);
    let mut order = rng(p.seed, Stream::Order);
    let half = p.seconds / 2.0;
    let untraced = run_solve_loop(&s, &mut gate, &mut order, half, None);
    let mut tr = TracedRun::default();
    let mut traced = run_solve_loop(&s, &mut gate, &mut order, half, Some(&mut tr));
    solve_residuals(&s, &mut gate);
    traced.fail_keys(&gate.bad_keys);
    // Mean iterations over the right-hand sides (every one ran untraced).
    let iters: BTreeMap<String, f64> = s
        .mix
        .iter()
        .enumerate()
        .map(|(i, (label, _))| {
            let its: Vec<f64> = (0..SOLVE_RHS)
                .map(|r| gate.first[&(i, r)].1 as f64)
                .collect();
            (
                label.to_string(),
                its.iter().sum::<f64>() / its.len() as f64,
            )
        })
        .collect();

    let mut out = Metrics::default();
    let mut lines = Vec::new();
    let a = Arc::new(s.a.clone());
    let basis = match &s.mix[1].1 {
        Method::SPcg { basis, .. } => basis.clone(),
        _ => unreachable!("mix entry 1 is sPCG"),
    };
    kernel_probes(&mut out, &a, &s.m, &basis, THREADS, p.triad_bw);
    dist_probes(&mut out, &s.a);
    out.push(
        "dist.halo_words_per_solve",
        traced.halo_words as f64 / traced.solves as f64,
        "count",
    );
    traced_metrics(
        &mut out,
        &mut lines,
        &mut gate,
        &tr,
        &traced,
        &untraced,
        w.ranks(),
    );
    let labels: Vec<&str> = s.mix.iter().map(|(l, _)| *l).collect();
    per_method(&mut out, &labels, &iters, &untraced);
    out.push("service.hit_frac", 0.0, "ratio");
    out.push("service.batch_width_mean", 1.0, "count");
    let fresh = Arc::new(s.a.clone());
    let spec = SolveSpec::new(Method::Pcg, s.m.spec().expect("Jacobi has a recipe"))
        .with_opts(s.opts.clone())
        .with_engine(s.engine);
    service_probes(&mut out, &[(fresh, spec)]);
    adapt_metrics(&mut out, &untraced);
    Ok(finish(lines, out, &traced, gate))
}

// --------------------------------------------------------------- service

struct ServiceRun<'a> {
    s: &'a ServiceSetup,
    specs: Vec<SolveSpec>,
    svc: SolveService,
    /// The (spec, rhs) keys of each batch's seeded checked column.
    checked: BTreeSet<Key>,
    /// Every column's counters, in order (the traced run's model input).
    column_counters: Vec<Counters>,
}

impl<'a> ServiceRun<'a> {
    fn new(s: &'a ServiceSetup, trace: Option<&Tracer>) -> Self {
        let specs = s
            .specs
            .iter()
            .map(|sp| {
                let mut spec = sp.spec.clone();
                spec.opts.trace = trace.cloned();
                spec
            })
            .collect();
        ServiceRun {
            s,
            specs,
            svc: SolveService::new(ServiceConfig {
                max_batch: 16,
                cache_capacity: s.cache_capacity(),
            }),
            checked: BTreeSet::new(),
            column_counters: Vec::new(),
        }
    }

    /// Issues the round's requests one after another, recording each in
    /// `led` under its place in the round.
    fn round(&mut self, gate: &mut Gate, led: &mut Ledger) {
        for (place, req) in self.s.requests.iter().enumerate() {
            let sp = &self.s.specs[req.spec];
            let op = &self.s.ops[sp.op];
            let rhs: Vec<&[f64]> = req.cols.iter().map(|&c| op.rhs[c].as_slice()).collect();
            let t = Instant::now();
            let results = self
                .svc
                .submit_batch(&op.a, &self.specs[req.spec], &rhs, None);
            let lat = t.elapsed().as_secs_f64();
            let label = format!("{}/k{}", sp.label, rhs.len());
            led.request((place, 0), &label, lat, rhs.len() as u64);
            led.columns += rhs.len() as u64;
            for (&col, res) in req.cols.iter().zip(results) {
                self.column_counters.push(res.counters.clone());
                let ok = gate.observe((req.spec, col), sp.label, &res);
                led.solve((req.spec, col), sp.label, &res, ok);
            }
            self.checked.insert((req.spec, req.cols[req.check]));
        }
    }

    /// The untimed warm-up pass: one round, which leaves the cache as
    /// every later round leaves it.
    fn warm_up(&mut self, gate: &mut Gate) {
        self.round(gate, &mut Ledger::default());
    }

    /// Rounds until `seconds` have passed (at least one round).
    fn run(&mut self, gate: &mut Gate, seconds: f64) -> Ledger {
        let mut led = Ledger::default();
        let t0 = Instant::now();
        loop {
            self.round(gate, &mut led);
            if t0.elapsed().as_secs_f64() >= seconds {
                return led;
            }
        }
    }
}

/// Compares each checked column against a standalone `solve()` with the
/// handle's configuration, and checks every first occurrence's residual.
fn service_checks(s: &ServiceSetup, gate: &mut Gate, checked: &BTreeSet<Key>) -> f64 {
    let mut handles: BTreeMap<usize, SolverHandle> = BTreeMap::new();
    let mut bad = Vec::new();
    for &(spec, col) in checked {
        let sp = &s.specs[spec];
        let a = &s.ops[sp.op].a;
        let h = handles
            .entry(spec)
            .or_insert_with(|| SolverHandle::build(Arc::clone(a), sp.spec.clone()));
        let b = &s.ops[sp.op].rhs[col];
        let res = solve(
            h.method(),
            &Problem::new(a, h.preconditioner(), b),
            h.opts(),
            sp.spec.engine,
        );
        let (h0, it0) = gate.first[&(spec, col)];
        if fnv_bits(&res.x) != h0 || res.iterations != it0 {
            gate.bad_keys.insert((spec, col));
            bad.push(format!(
                "{} rhs {col}: batch column differs from standalone solve() (iterations {it0} vs {})",
                sp.label, res.iterations
            ));
        }
    }
    gate.violations.extend(bad);
    gate.check_residuals(
        |(spec, col)| {
            let op = &s.ops[s.specs[spec].op];
            (&*op.a, &op.rhs[col][..])
        },
        |(spec, _)| s.specs[spec].label.to_string(),
    )
}

/// The timed run of the service workload.
pub fn service_timed(p: &Params) -> Result<RunResult, String> {
    let mut gate = Gate::default();
    // One set-up: the pool, a fresh service, and the warm-up pass through
    // it.
    let mut setup_times = Vec::new();
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let s = ServiceSetup::build(p.seed);
        ServiceRun::new(&s, None).warm_up(&mut gate);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let s = ServiceSetup::build(p.seed);
    let mut run = ServiceRun::new(&s, None);
    run.warm_up(&mut gate);
    setup_times.push(t.elapsed().as_secs_f64());
    let before = run.svc.stats();
    let mut led = run.run(&mut gate, p.seconds);
    let stats = run.svc.stats();
    let checked = std::mem::take(&mut run.checked);
    let worst = service_checks(&s, &mut gate, &checked);
    led.fail_keys(&gate.bad_keys);
    let mut metrics = Metrics::default();
    end_to_end(
        &mut metrics,
        &led,
        median(&setup_times).expect("setups ran"),
        worst,
    )?;
    let hits = stats.hits - before.hits;
    let misses = stats.misses - before.misses;
    let mut lines = vec![format!(
        "# setup_s_each {setup_times:?} cache hits {hits} misses {misses} columns {} checked {}",
        led.columns,
        checked.len()
    )];
    lines.extend(summary_lines(&led));
    Ok(finish(lines, metrics, &led, gate))
}

/// The traced run of the service workload.
pub fn service_traced(p: &Params) -> Result<RunResult, String> {
    let mut gate = Gate::default();
    let s = ServiceSetup::build(p.seed);
    let mut run = ServiceRun::new(&s, None);
    run.warm_up(&mut gate);
    let before = run.svc.stats();
    let half = p.seconds / 2.0;
    let untraced = run.run(&mut gate, half);
    let stats = run.svc.stats();
    let mut checked = std::mem::take(&mut run.checked);

    // The traced half gets the same one-round warm-up as the untraced
    // one, so its cache starts as warm; the warm-up's tracks are skipped.
    let tracer = Tracer::with_capacity(TRACE_CAP);
    let mut traced_run = ServiceRun::new(&s, Some(&tracer));
    traced_run.warm_up(&mut gate);
    let warm_counters = std::mem::take(&mut traced_run.column_counters);
    let warm_tracks = tracer.tracks().len();
    let mut traced = traced_run.run(&mut gate, half);
    checked.extend(std::mem::take(&mut traced_run.checked));
    let mut tr = TracedRun::default();
    tr.totals.add_tracks(&tracer.tracks()[warm_tracks..]);
    // The calibrator reads every track of the tracer, the warm-up's too.
    let mut total = Counters::new();
    for c in warm_counters.iter().chain(&traced_run.column_counters) {
        total.merge(c);
    }
    tr.calib.ingest(&tracer, &total);
    // Columns of one batch share its wall-clock; the model check compares
    // totals, so each column's counters carry the batch's mean share.
    let share = traced.busy_s / traced_run.column_counters.len().max(1) as f64;
    tr.solves = traced_run
        .column_counters
        .iter()
        .map(|c| (c.clone(), share))
        .collect();
    service_checks(&s, &mut gate, &checked);
    traced.fail_keys(&gate.bad_keys);

    let mut out = Metrics::default();
    let mut lines = Vec::new();
    let op0 = &s.ops[0];
    let m = Jacobi::new(&op0.a);
    let basis = chebyshev_basis(
        &Problem::new(&op0.a, &m, &op0.rhs[0]),
        DEFAULT_WARMUP_ITERS,
        DEFAULT_MARGIN,
    );
    kernel_probes(&mut out, &op0.a, &m, &basis, THREADS, p.triad_bw);
    dist_probes(&mut out, &op0.a);
    out.push(
        "dist.halo_words_per_solve",
        traced.halo_words as f64 / traced.solves as f64,
        "count",
    );
    traced_metrics(&mut out, &mut lines, &mut gate, &tr, &traced, &untraced, 1);

    // Three passes of the seven-method mix on the pool's Poisson operator;
    // `solve_s` is each method's median.
    let mix = method_mix(&basis);
    let labels: Vec<&str> = mix.iter().map(|(l, _)| *l).collect();
    let problem = Problem::new(&op0.a, &m, &op0.rhs[0]);
    let pcg = solve(
        &Method::Pcg,
        &problem,
        &pinned_options(THREADS, 12_000),
        Engine::Serial,
    );
    let opts = pinned_options(THREADS, CAP_OVER_PCG * pcg.iterations);
    let mut mix_led = Ledger::default();
    let mut iters = BTreeMap::new();
    for _ in 0..3 {
        for (i, (label, method)) in mix.iter().enumerate() {
            let t = Instant::now();
            let res = solve(method, &problem, &opts, Engine::Serial);
            mix_led.request((i, 0), label, t.elapsed().as_secs_f64(), 1);
            iters.insert(label.to_string(), res.iterations as f64);
            mix_led.solve((i, 0), label, &res, true);
        }
    }
    per_method(&mut out, &labels, &iters, &mix_led);

    let hits = stats.hits - before.hits;
    let misses = stats.misses - before.misses;
    out.push(
        "service.hit_frac",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    out.push(
        "service.batch_width_mean",
        untraced.columns as f64 / untraced.latencies.len() as f64,
        "count",
    );
    let cases: Vec<(Arc<CsrMatrix>, SolveSpec)> = s
        .specs
        .iter()
        .map(|sp| (Arc::new(s.ops[sp.op].a.as_ref().clone()), sp.spec.clone()))
        .collect();
    service_probes(&mut out, &cases);
    adapt_metrics(&mut out, &mix_led);
    lines.extend(
        mix_led
            .failure_lines()
            .into_iter()
            .map(|l| format!("{l} (probe mix)")),
    );
    Ok(finish(lines, out, &traced, gate))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_solvers::Outcome;

    fn result(x: Vec<f64>, iterations: usize) -> SolveResult {
        SolveResult {
            x,
            outcome: Outcome::Converged,
            iterations,
            history: Vec::new(),
            counters: Counters::new(),
            collectives_per_rank: None,
            restarts: 0,
            s_schedule: Vec::new(),
            faults_absorbed: 0,
            adaptive: None,
        }
    }

    #[test]
    fn gate_flags_a_repeat_that_differs_in_one_bit() {
        let mut gate = Gate::default();
        let mut led = Ledger::default();
        let a = result(vec![1.0, 2.0], 10);
        let b = result(vec![1.0, 2.0 + f64::EPSILON * 2.0], 10);
        for (key, res) in [((0, 0), &a), ((0, 0), &a), ((1, 0), &a), ((0, 0), &b)] {
            let ok = gate.observe(key, "m", res);
            led.solve(key, "m", res, ok);
        }
        assert_eq!(gate.violations.len(), 1);
        assert_eq!((led.converged, led.failed), (3, 1));
        // The pair is suspect as a whole: its earlier solves fail too.
        led.fail_keys(&gate.bad_keys);
        assert_eq!((led.converged, led.failed), (1, 3));
        assert!(gate.bad_keys.contains(&(0, 0)));
    }

    #[test]
    fn timing_uses_each_requests_fastest_repetition() {
        let mut led = Ledger::default();
        // Request (0, 0) carries one solve, (1, 0) a batch of four.
        let ok = result(vec![1.0], 10);
        for (key, lat, solves) in [
            ((0, 0), 0.3, 1),
            ((1, 0), 0.2, 4),
            ((0, 0), 0.1, 1),
            ((1, 0), 0.5, 4),
        ] {
            led.request(key, "m", lat, solves);
            for _ in 0..solves {
                led.solve(key, "m", &ok, true);
            }
        }
        assert_eq!(led.best_latencies(), vec![0.1, 0.2]);
        assert!((led.busy_s - 1.1).abs() < 1e-12, "busy time keeps every request");
        // Five solves in 0.3 s at the fastest repetitions.
        assert!((led.solves_per_s() - 5.0 / 0.3).abs() < 1e-9);
        // A failed solve scales the rate by the converged share.
        led.solve((0, 0), "m", &ok, false);
        assert!((led.solves_per_s() - 5.0 / 0.3 * 10.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn gate_flags_a_changed_iteration_count() {
        let mut gate = Gate::default();
        assert!(gate.observe((0, 0), "m", &result(vec![1.0], 10)));
        assert!(!gate.observe((0, 0), "m", &result(vec![1.0], 11)));
    }
}
