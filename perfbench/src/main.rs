//! The repository benchmark: four workloads against the public APIs of
//! `oml-runtime`, `oml-workload` and `oml-experiments`, each checked for
//! correct output, with end-to-end metrics from untraced runs and per-layer
//! metrics from traced ones. See `README.md` for the workloads, metrics and
//! how to run it.
//!
//! ```text
//! perfbench --workload <invoke_mesh|move_closure|durable_multiproc|sim_fig16x>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```

mod durable;
mod harness;
mod inproc;
mod object;
mod policy;
mod replay;
mod report;
mod rng;
mod sim;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = [
    "invoke_mesh",
    "move_closure",
    "durable_multiproc",
    "sim_fig16x",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value}")),
                });
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The worker-process role: the durable workload's coordinator re-executes
/// this binary with the `OML_MP_*` environment set.
fn run_worker(opts: &oml_runtime::WorkerOptions) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spans_dir = match &args[..] {
        [flag, dir] if flag == durable::WORKER_SPANS_ARG => Some(PathBuf::from(dir)),
        _ => None,
    };
    spans::set_enabled(spans_dir.is_some());
    let exit = oml_runtime::run_worker(opts, &[(object::TYPE_TAG, object::delinearize)]);
    if let Some(dir) = spans_dir {
        if let Err(e) = durable::write_worker_spans(&dir, opts.node, opts.epoch) {
            eprintln!("worker {}: writing span totals: {e}", opts.node);
        }
    }
    match exit {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("worker {}: {e}", opts.node);
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if let Some(opts) = oml_runtime::WorkerOptions::from_env() {
        return run_worker(&opts);
    }
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    // scratch space for sockets and WAL directories, inside the working
    // directory (the checkout root when run through BENCHMARK.json)
    let work = PathBuf::from(".bench_work").join(format!("perfbench-{}", std::process::id()));
    let ticks_before = cpu_ticks();
    let mut outcome = match args.workload.as_str() {
        "invoke_mesh" => inproc::invoke_mesh(args.seed, args.seconds, args.trace),
        "move_closure" => inproc::move_closure(args.seed, args.seconds, args.trace),
        "durable_multiproc" => durable::run(args.seed, args.seconds, args.trace, &work),
        "sim_fig16x" => sim::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated by parse_args"),
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let steal = match (ticks_before, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            format!("{:.1}%", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".to_owned(),
    };
    // steal is CPU time the hypervisor gave to other guests: a high share
    // marks a run the host disturbed
    outcome.notes.push(format!(
        "host: available_parallelism {cores}, cpu steal {steal} of the run"
    ));
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    // a wrong output is reported in the result (`"correct": false`), not
    // by the exit code, which only says whether a result was produced
    print!("{}", report::render(&args.workload, args.trace, &outcome));
    ExitCode::SUCCESS
}

/// `(steal, total)` CPU ticks of the whole machine, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(
            "--workload sim_fig16x --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("sim_fig16x", 7, 10.0, true)
        );
        assert!(parse_args(&args("--workload nope --seed 7 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args(
            "--workload sim_fig16x --seed 7 --seconds 0 --trace 0"
        ))
        .is_err());
        assert!(parse_args(&args(
            "--workload sim_fig16x --seed 7 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse_args(&args("--workload sim_fig16x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload sim_fig16x --seed")).is_err());
    }
}
