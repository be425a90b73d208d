//! `fairsw-perfbench` — the end-to-end and per-layer benchmark of the
//! fairsw workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <window_query|window_ingest|serve_tenants> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from `--seed`, spends `--seconds` of
//! closed-loop time on one workload, checks every answer, prints a host
//! fingerprint and one line per metric (value, unit, sample count), and
//! ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the twelve end-to-end metrics; with
//! `--trace 1` they are the per-layer metrics of a traced run plus the
//! tracing overhead. `BENCHMARK.json` at the repository root lists both
//! sets; `METRICS.md` beside this package says what each metric means,
//! why each workload was chosen, and which end-to-end metric each
//! per-layer metric should move.

mod check;
mod pin;
mod report;
mod run;
mod serve;
mod stats;
mod trace;
mod window;

use run::Run;
use stats::Reading;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["window_query", "window_ingest", "serve_tenants"];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is not in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other} is not 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Directory for files the system under test writes: beside the
/// benchmark's own executable, inside the build directory.
fn scratch_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("perfbench-scratch");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// The commit the sources came from, when the checkout is a git
/// repository (read from `.git`, without running git).
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                let packed = std::fs::read_to_string(".git/packed-refs")?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
                    .ok_or(std::io::ErrorKind::NotFound.into())
            })
            .unwrap_or_else(|_: std::io::Error| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Everything in the environment that can change a result: the CPU
/// count, the CPUs the rounds take in turn, the distance kernels'
/// instruction set, the commit, and `FAIRSW_*` variables.
fn host_fingerprint(nproc: usize, cpus: &[usize]) -> String {
    let mut env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("FAIRSW_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    env.sort();
    let cpus: Vec<String> = cpus.iter().map(usize::to_string).collect();
    format!(
        "host nproc={nproc} round_cpus=[{}] isa={} git_rev={} env=[{}]",
        cpus.join(","),
        fairsw_metric::active_isa().name(),
        git_rev(),
        env.join(",")
    )
}

/// Prints the metric table and the closing JSON line.
fn print_result(readings: &[Reading], run: &Run) {
    let mut problems = run.ledger.problems.clone();
    let mut metrics = Vec::new();
    for r in readings {
        let value = r.value.filter(|v| v.is_finite());
        match value {
            Some(v) => println!(
                "  {:<30} {:>18} {:<6} samples={}",
                r.name, v, r.unit, r.samples
            ),
            None => {
                println!(
                    "  {:<30} {:>18} {:<6} samples={}",
                    r.name, "unmeasured", r.unit, r.samples
                );
                problems.push(format!("{} could not be measured", r.name));
            }
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            r.name,
            value.unwrap_or(0.0),
            r.unit
        ));
    }
    for p in &problems {
        println!("  problem: {p}");
    }
    let correct = problems.is_empty() && run.ledger.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.ledger.attempted.max(1),
        run.ledger.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fairsw-perfbench: {e}");
            eprintln!(
                "usage: fairsw-perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let scratch = match scratch_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("fairsw-perfbench: no scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpus = pin::allowed_cpus();
    println!("{}", host_fingerprint(nproc, &cpus));
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut run = Run::new(args.seed, args.seconds, args.trace, scratch, cpus);
    match args.workload.as_str() {
        "window_query" => window::WINDOW_QUERY.run(&mut run),
        "window_ingest" => window::WINDOW_INGEST.run(&mut run),
        _ => serve::run(&mut run),
    }
    let readings = if args.trace {
        run.extras.throughput = (
            stats::ratio(run.phases[0].0 as f64, run.phases[0].1),
            stats::ratio(run.phases[1].0 as f64, run.phases[1].1),
        );
        let layers = run.tracer.layers();
        report::per_layer(&layers, &mut run.extras)
    } else {
        run.e2e.readings(&run.ledger)
    };
    print_result(&readings, &run);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload serve_tenants --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "serve_tenants");
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn refuses_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload window_query --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload window_query --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload window_query --seed 1 --seconds 1").is_err());
        assert!(args("--workload window_query --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload").is_err());
    }
}
