//! Whole-solve benchmark of the s-step PCG library.
//!
//! ```text
//! cargo run --release --offline --manifest-path solvebench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the timed closed loop and reports the end-to-end
//! metrics; `--trace 1` runs the traced loop and the per-layer probes. The
//! last line of standard output is the JSON result; the lines before it
//! are the machine header and the human-readable report. The exit code is
//! non-zero when a correctness check failed or the run could not be made.
//! See `README.md` next to this file.

mod machine;
mod probes;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use run::{Params, RunResult};
use std::process::ExitCode;
use workload::Workload;

const USAGE: &str = "usage: spcg-solvebench --workload <poisson16-serial|poisson16-ranked2|service-mixed> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<(Workload, u64, f64, bool), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{USAGE}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(w), Some(s), Some(secs), Some(t)) => Ok((w, s, secs, t)),
        _ => Err(format!("missing argument\n{USAGE}")),
    }
}

fn run(args: &[String]) -> Result<RunResult, String> {
    let (workload, seed, seconds, trace) = parse_args(args)?;
    workload::check_env()?;
    let nproc = machine::nproc();
    // The bounds hold for a run on one CPU only: a run that cannot pin
    // itself measures something else, so it does not run.
    let cpu = machine::pin_to_one_cpu().map_err(|e| format!("cannot pin to one CPU: {e}"))?;
    let caches = machine::read_caches();
    let triad_bytes = machine::triad_array_bytes(&caches);
    let triad_bw = machine::triad_in_child(triad_bytes)?;
    let mib = |b: Option<u64>| {
        b.map_or("unknown".to_string(), |b| {
            format!("{} MiB", b as f64 / 1048576.0)
        })
    };
    println!(
        "# machine: commit {} seed {seed} workload {} trace {} pinned cpu {cpu} nproc {} avx2 {} l2 {} llc {} triad {:.3} GB/s (one thread, 3 arrays of {} each, 4x LLC)",
        machine::commit(),
        workload.name(),
        u8::from(trace),
        nproc,
        machine::has_avx2(),
        mib(caches.l2),
        mib(caches.llc),
        triad_bw / 1e9,
        mib(Some(triad_bytes)),
    );
    let p = Params {
        workload,
        seed,
        seconds,
        triad_bw,
    };
    match (workload, trace) {
        (Workload::ServiceMixed, false) => run::service_timed(&p),
        (Workload::ServiceMixed, true) => run::service_traced(&p),
        (_, false) => run::solve_timed(&p),
        (_, true) => run::solve_traced(&p),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Child mode: the triad runs in its own process so its arrays stay out
    // of the workload's peak RSS.
    if args.first().map(String::as_str) == Some("--triad") {
        let Some(bytes) = args.get(1).and_then(|b| b.parse::<u64>().ok()) else {
            eprintln!("usage: spcg-solvebench --triad <bytes>");
            return ExitCode::from(2);
        };
        println!("{}", machine::triad_bandwidth(bytes));
        return ExitCode::SUCCESS;
    }
    let result = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("spcg-solvebench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &result.lines {
        println!("{line}");
    }
    for (name, value, unit) in result.metrics.entries() {
        println!("{name} = {value:?} {unit}");
    }
    match report::result_json(
        result.correct,
        result.attempted,
        result.failed,
        &result.metrics,
    ) {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("spcg-solvebench: {e}");
            return ExitCode::from(2);
        }
    }
    if result.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("spcg-solvebench: a correctness check failed (see CHECK FAILED lines)");
        ExitCode::from(1)
    }
}
