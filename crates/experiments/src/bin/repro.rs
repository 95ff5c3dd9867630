//! `repro` — regenerate the paper's tables and figures, run the protocol
//! checks and the tracked benchmark suites.
//!
//! `repro --help` lists every experiment and flag; both lists are rendered
//! from the [`EXPERIMENTS`] and [`FLAGS`] tables below, which also drive
//! dispatch and argument parsing.

use std::env;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use oml_experiments::bench::{
    render_bench_json, render_scaling_json, run_bench_suite, run_scaling_suite,
};
use oml_experiments::check::{
    audit_lock_order, exercise_lock_sites, replay_chaos_seed, replay_durability_seed,
    replay_negative, replay_recovery_seed, CheckOutcome, NegativeControl, CHAOS_SEEDS,
    NEGATIVE_CONTROLS,
};
use oml_experiments::experiments::{
    availability, availability_multiprocess, break_even_scaling, durability, egoism, faults, fig12,
    fig14, fig16, fig16_exclusive, fig4_cost, fig8, location_ablation, multiproc_worker_types,
    topology_ablation, visit_ablation, RunOptions,
};
use oml_experiments::explore::{render_outcome, replay_file, run_matrix};
use oml_experiments::{render_plot, render_svg, ExperimentResult, SvgOptions};
use oml_workload::mega::{run_mega, MegaConfig};
use oml_workload::table1::{table1, value_for};
use oml_workload::{run_scenario, ScenarioConfig};

/// The parsed command line.
#[derive(Default)]
struct Cli {
    experiment: String,
    /// `Some(true)` for `--paper`, `Some(false)` for `--quick`, `None` when
    /// neither was given (quick, with a notice).
    paper: Option<bool>,
    seed: Option<u64>,
    /// Set iff `--threads` was given explicitly (bench defaults to 1 for
    /// baseline comparability, everything else to `default_threads()`).
    threads: Option<usize>,
    csv_dir: Option<PathBuf>,
    svg_dir: Option<PathBuf>,
    plot: bool,
    scenario: Option<PathBuf>,
    /// `--seeds`; `None` means [`CHAOS_SEEDS`].
    seeds: Option<Vec<u64>>,
    recovery: bool,
    durability_check: bool,
    negative: bool,
    budget: Option<u64>,
    replay: Option<PathBuf>,
    axis: Option<Vec<usize>>,
    no_mega: bool,
    smoke: bool,
    multiprocess: bool,
    cold_restart: bool,
    /// Validated `--fsync` policy string; `main` also exports it as
    /// `OML_FSYNC` so re-executed child processes inherit it.
    fsync: Option<String>,
}

impl Cli {
    /// The run options the flags select. Built from independent fields, so
    /// the order of `--quick`/`--paper`, `--seed` and `--threads` on the
    /// command line does not matter.
    fn opts(&self) -> RunOptions {
        let base = if self.paper == Some(true) {
            RunOptions::paper()
        } else {
            RunOptions::quick()
        };
        RunOptions {
            seed: self.seed.unwrap_or(base.seed),
            threads: self.threads.unwrap_or(base.threads),
            ..base
        }
    }
}

/// How a flag takes its value.
enum Arity {
    /// A switch: the setter flips a field.
    Switch(fn(&mut Cli)),
    /// A flag with a value, shown as the metavar in usage text; the setter
    /// validates and stores it.
    Value(&'static str, fn(&mut Cli, &str) -> Result<(), String>),
}

use Arity::{Switch, Value};

/// One command-line flag.
struct Flag {
    name: &'static str,
    arity: Arity,
    help: &'static str,
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--quick", arity: Switch(|c| c.paper = Some(false)),
           help: "quick precision, seconds per experiment (the default)" },
    Flag { name: "--paper", arity: Switch(|c| c.paper = Some(true)),
           help: "the paper's precision, 1% CI at p = 0.99 (minutes)" },
    Flag { name: "--seed", arity: Value("N", |c, v| set(&mut c.seed, parse(v, "bad seed")?)),
           help: "base seed" },
    Flag { name: "--threads", arity: Value("N", set_threads),
           help: "worker threads (default: cores, at most 8; bench: 1)" },
    Flag { name: "--csv", arity: Value("DIR", |c, v| set(&mut c.csv_dir, v.into())),
           help: "also write every result to DIR/<id>.csv" },
    Flag { name: "--svg", arity: Value("DIR", |c, v| set(&mut c.svg_dir, v.into())),
           help: "also render every result to DIR/<id>.svg" },
    Flag { name: "--plot", arity: Switch(|c| c.plot = true),
           help: "print an ASCII plot under every table" },
    Flag { name: "--scenario", arity: Value("FILE", |c, v| set(&mut c.scenario, v.into())),
           help: "custom: the key = value scenario to run" },
    Flag { name: "--seeds", arity: Value("chaos|N,M,...", set_seeds),
           help: "check: the schedules to replay (0x for hex; default chaos)" },
    Flag { name: "--recovery", arity: Switch(|c| c.recovery = true),
           help: "check: add the failure-detector schedules and the unfenced control" },
    Flag { name: "--durability", arity: Switch(|c| c.durability_check = true),
           help: "check: add the replicated-checkpoint schedules and the no-repair\n\
                  and stale-promotion controls" },
    Flag { name: "--negative", arity: Switch(|c| c.negative = true),
           help: "check: only the negative controls; exits nonzero by construction" },
    Flag { name: "--budget", arity: Value("N", |c, v| set(&mut c.budget, parse(v, "bad budget")?)),
           help: "explore: cap on enumerated schedules" },
    Flag { name: "--replay", arity: Value("FILE", |c, v| set(&mut c.replay, v.into())),
           help: "explore: re-execute a saved counterexample" },
    Flag { name: "--axis", arity: Value("N,M,...", set_axis),
           help: "scaling: the thread counts (default 1,2,4,8)" },
    Flag { name: "--no-mega", arity: Switch(|c| c.no_mega = true),
           help: "scaling: skip the standing mega world" },
    Flag { name: "--smoke", arity: Switch(|c| c.smoke = true),
           help: "explore, scaling, mega: the small CI variant" },
    Flag { name: "--multiprocess", arity: Switch(|c| c.multiprocess = true),
           help: "availability: over worker OS processes, with a real SIGKILL" },
    Flag { name: "--cold-restart", arity: Switch(|c| c.cold_restart = true),
           help: "durability: SIGKILL every process, cold-start from the WAL" },
    Flag { name: "--fsync", arity: Value("always|never|batch:N:MS", set_fsync),
           help: "WAL fsync policy (exported as OML_FSYNC)" },
];

fn set<T>(slot: &mut Option<T>, value: T) -> Result<(), String> {
    *slot = Some(value);
    Ok(())
}

fn parse<T: std::str::FromStr>(value: &str, bad: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{bad}: {value}"))
}

fn set_threads(cli: &mut Cli, value: &str) -> Result<(), String> {
    match parse(value, "bad thread count")? {
        0 => Err("--threads must be at least 1".into()),
        n => set(&mut cli.threads, n),
    }
}

fn set_seeds(cli: &mut Cli, value: &str) -> Result<(), String> {
    if value == "chaos" {
        return set(&mut cli.seeds, CHAOS_SEEDS.to_vec());
    }
    let seeds = parse_list(value, "--seeds", "seed", |s| match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    })?;
    set(&mut cli.seeds, seeds)
}

fn set_axis(cli: &mut Cli, value: &str) -> Result<(), String> {
    let axis = parse_list(value, "--axis", "thread count", |s| {
        s.parse().ok().filter(|&n: &usize| n > 0)
    })?;
    set(&mut cli.axis, axis)
}

fn set_fsync(cli: &mut Cli, value: &str) -> Result<(), String> {
    if oml_runtime::FsyncPolicy::parse(value).is_none() {
        return Err(format!(
            "bad fsync policy: {value} (always|never|batch:N:MS)"
        ));
    }
    set(&mut cli.fsync, value.to_owned())
}

/// Parses the comma-separated list `value` of `flag`, naming the first
/// item `item` rejects as a bad `what`.
fn parse_list<T>(
    value: &str,
    flag: &str,
    what: &str,
    item: fn(&str) -> Option<T>,
) -> Result<Vec<T>, String> {
    value
        .split(',')
        .map(str::trim)
        .map(|part| item(part).ok_or_else(|| format!("bad {what} in {flag}: {part}")))
        .collect()
}

/// Parses the arguments after the program name; `Ok(None)` asks for help.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Cli>, String> {
    let mut cli = Cli::default();
    let mut experiment = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            return Ok(None);
        }
        match FLAGS.iter().find(|f| f.name == arg).map(|f| &f.arity) {
            Some(Switch(set)) => set(&mut cli),
            Some(Value(metavar, set)) => {
                let value = args.next().ok_or(format!("{arg} needs {metavar}"))?;
                set(&mut cli, &value)?;
            }
            None if experiment.is_none() && !arg.starts_with('-') => experiment = Some(arg),
            None => return Err(format!("unexpected argument: {arg}")),
        }
    }
    cli.experiment = experiment.ok_or("an experiment name is required")?;
    Ok(Some(cli))
}

/// One experiment `repro` can run.
struct Experiment {
    name: &'static str,
    /// Whether `repro all` runs it.
    in_all: bool,
    run: fn(&Cli) -> ExitCode,
    help: &'static str,
}

#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table1", in_all: true, run: print_table1,
                 help: "the simulation-parameter glossary (Table 1)" },
    Experiment { name: "fig4", in_all: true, run: |c| emit(&fig4_cost(), c),
                 help: "analytic §3.2 conflict costs" },
    Experiment { name: "fig8", in_all: true, run: |c| emit(&fig8(&c.opts()), c),
                 help: "usage-frequency sweep (Figs. 8/10/11)" },
    Experiment { name: "fig10", in_all: false, run: |c| emit(&fig10(&c.opts()), c),
                 help: "the Fig. 10 view of fig8 (mean duration of one call)" },
    Experiment { name: "fig11", in_all: false, run: |c| emit(&fig11(&c.opts()), c),
                 help: "the Fig. 11 view of fig8 (mean migration time per call)" },
    Experiment { name: "fig12", in_all: true, run: |c| emit(&fig12(&c.opts()), c),
                 help: "client scaling, break-even points (Fig. 12)" },
    Experiment { name: "fig14", in_all: true, run: |c| emit(&fig14(&c.opts()), c),
                 help: "dynamic placement strategies (Fig. 14)" },
    Experiment { name: "fig16", in_all: true, run: |c| emit(&fig16(&c.opts()), c),
                 help: "attachment modes (Fig. 16)" },
    Experiment { name: "fig16x", in_all: true, run: |c| emit(&fig16_exclusive(&c.opts()), c),
                 help: "fig16 plus exclusive attachment (§3.4 extension)" },
    Experiment { name: "topology", in_all: true, run: |c| emit(&topology_ablation(&c.opts()), c),
                 help: "§4.1 robustness: other network structures" },
    Experiment { name: "egoism", in_all: true, run: |c| emit(&egoism(&c.opts()), c),
                 help: "§2.4 extension: one egoistic mover vs three polite ones" },
    Experiment { name: "break-even", in_all: true, run: |c| emit(&break_even_scaling(&c.opts()), c),
                 help: "§4.2.2 extension: break-even client counts vs the N/M ratio" },
    Experiment { name: "visit", in_all: true, run: |c| emit(&visit_ablation(&c.opts()), c),
                 help: "§2.3 ablation: move blocks vs visit blocks" },
    Experiment { name: "location", in_all: true, run: |c| emit(&location_ablation(&c.opts()), c),
                 help: "§4.1 ablation: the four object-location mechanisms" },
    Experiment { name: "faults", in_all: true, run: |c| emit(&faults(&c.opts()), c),
                 help: "robustness extension: degradation under message loss" },
    Experiment { name: "availability", in_all: true, run: run_availability,
                 help: "client-visible latency and denials across a crash → detect →\n\
                        reinstantiate → heal cycle on the real runtime, with and\n\
                        without the failure detector" },
    Experiment { name: "durability", in_all: true, run: run_durability,
                 help: "objects surviving correlated failures as the checkpoint\n\
                        replication factor k grows, WAL-backed under --fsync" },
    Experiment { name: "check", in_all: false, run: run_check,
                 help: "replay seeded chaos schedules with protocol tracing on;\n\
                        verify the paper's invariants and the lock-order graph" },
    Experiment { name: "explore", in_all: false, run: run_explore,
                 help: "DPOR model checker over the bundled small-scope matrix;\n\
                        counterexamples are minimized into results/explore/" },
    Experiment { name: "bench", in_all: false, run: run_bench,
                 help: "fixed quick-precision perf suite; writes BENCH_02.json" },
    Experiment { name: "scaling", in_all: false, run: run_scaling,
                 help: "threads-axis scaling suite; writes BENCH_03.json" },
    Experiment { name: "mega", in_all: false, run: run_mega_world,
                 help: "the standing >=1M-object, >=1024-node sharded world" },
    Experiment { name: "custom", in_all: false, run: run_custom,
                 help: "run --scenario FILE under all five policies" },
    Experiment { name: "all", in_all: false, run: run_all,
                 help: "every experiment marked *, in order" },
];

/// The `--help` text, rendered from [`EXPERIMENTS`] and [`FLAGS`].
fn usage() -> String {
    fn row(out: &mut String, marker: char, left: &str, help: &str) {
        for (i, line) in help.lines().enumerate() {
            let (marker, left) = if i == 0 { (marker, left) } else { (' ', "") };
            out.push_str(&format!("{marker} {left:<32} {line}\n"));
        }
    }
    let mut out = String::from(
        "usage: repro <experiment> [flags]\n       repro FILE.csv [flags]   replot a saved result\n\nexperiments (* = run by `all`):\n",
    );
    for e in EXPERIMENTS {
        row(&mut out, if e.in_all { '*' } else { ' ' }, e.name, e.help);
    }
    out.push_str("\nflags:\n");
    for f in FLAGS {
        match f.arity {
            Switch(_) => row(&mut out, ' ', f.name, f.help),
            Value(metavar, _) => row(&mut out, ' ', &format!("{} {metavar}", f.name), f.help),
        }
    }
    row(&mut out, ' ', "--help, -h", "print this text");
    out
}

/// One-line JSON record of the fsync policy an experiment actually ran
/// under: `OML_FSYNC` (which `--fsync` sets), else the default.
fn print_fsync_summary(experiment: &str) {
    let policy = env::var("OML_FSYNC")
        .ok()
        .and_then(|v| oml_runtime::FsyncPolicy::parse(v.trim()))
        .unwrap_or_default();
    println!("{{\"experiment\": \"{experiment}\", \"fsync\": \"{policy}\"}}");
}

fn print_table1(_: &Cli) -> ExitCode {
    println!("# Table 1 — relevant simulation parameters");
    println!(
        "{:>8}  {:<38} {:>10}  {:>12} {:>12} {:>12} {:>12}",
        "symbol", "description", "distrib.", "fig8", "fig12", "fig14", "fig16"
    );
    let configs = [
        ScenarioConfig::fig8(f64::NAN),
        ScenarioConfig::fig12(0),
        ScenarioConfig::fig14(0),
        ScenarioConfig::fig16(0),
    ];
    for row in table1() {
        print!(
            "{:>8}  {:<38} {:>10}",
            row.symbol, row.description, row.distribution
        );
        for cfg in &configs {
            let v = match row.symbol {
                "C" => "varies".to_owned(),
                "t_m" if cfg.name.starts_with("fig8") => "varies".to_owned(),
                _ => value_for(cfg, row.symbol),
            };
            print!(" {v:>12}");
        }
        println!();
    }
    println!();
    ExitCode::SUCCESS
}

fn fig10(opts: &RunOptions) -> ExperimentResult {
    fig8(opts).derive("fig10", "mean duration of one call", |m| m.call_time)
}

fn fig11(opts: &RunOptions) -> ExperimentResult {
    fig8(opts).derive("fig11", "mean migration time per call", |m| {
        m.migration_time
    })
}

/// `availability`; with `--multiprocess` over worker OS processes on a
/// Unix socket with a real SIGKILL mid-workload, which exits nonzero if the
/// denial-rate recovery shape regresses.
fn run_availability(cli: &Cli) -> ExitCode {
    if !cli.multiprocess {
        return emit(&availability(&cli.opts()), cli);
    }
    let code = emit(&availability_multiprocess(&cli.opts()), cli);
    print_fsync_summary("availability-multiprocess");
    code
}

/// `durability`; with `--cold-restart` a whole multi-process cluster is
/// SIGKILLed and a successor cold-starts from the on-disk WAL alone, with a
/// torn-write control the checker must flag (nonzero exit on any
/// durability regression).
fn run_durability(cli: &Cli) -> ExitCode {
    if cli.cold_restart {
        return oml_experiments::cold::run_cold_restart(cli.fsync.as_deref());
    }
    let code = emit(&durability(&cli.opts()), cli);
    print_fsync_summary("durability");
    code
}

/// `all`: every experiment with `in_all` set, in table order.
fn run_all(cli: &Cli) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for e in EXPERIMENTS.iter().filter(|e| e.in_all) {
        if (e.run)(cli) != ExitCode::SUCCESS {
            code = ExitCode::FAILURE;
        }
    }
    code
}

/// Prints `result` (and writes the requested CSV/SVG files). Write failures
/// are reported but not fatal, so this always succeeds.
fn emit(result: &ExperimentResult, cli: &Cli) -> ExitCode {
    println!("{}", result.to_ascii_table());
    if cli.plot {
        println!("{}", render_plot(result, 64, 20));
    }
    if let Some(dir) = &cli.svg_dir {
        let svg = render_svg(result, &SvgOptions::default());
        let _ = write_file(&dir.join(format!("{}.svg", result.id)), &svg);
    }
    if result.id == "fig12" {
        if let Some(x) = result.crossover("migration", "without migration") {
            println!("break-even migration vs sedentary: ~{x:.1} clients (paper: ~6)");
        }
        if let Some(x) = result.crossover("transient placement", "without migration") {
            println!("break-even placement vs sedentary: ~{x:.1} clients (paper: ~20)");
        }
        println!();
    }
    if let Some(dir) = &cli.csv_dir {
        let _ = write_file(&dir.join(format!("{}.csv", result.id)), &result.to_csv());
    }
    ExitCode::SUCCESS
}

/// Writes `contents` to `path`, creating its directory, and reports the
/// outcome.
fn write_file(path: &Path, contents: &str) -> ExitCode {
    let dir = path.parent().unwrap_or(Path::new(""));
    match fs::create_dir_all(dir).and_then(|()| fs::write(path, contents)) {
        Ok(()) => {
            println!("wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", path.display());
            ExitCode::FAILURE
        }
    }
}

/// Replays one negative control under `seed` and reports it; `true` iff the
/// checker flagged it, as it must.
fn negative_control_flagged(control: &NegativeControl, seed: u64) -> bool {
    let outcome = replay_negative(control.mutation, seed);
    if outcome.report.is_clean() {
        eprintln!(
            "\n{} negative control came back CLEAN — the `{}` invariant is not biting",
            control.name, control.violation
        );
        false
    } else {
        println!(
            "\n{} negative control: flagged as expected ({} violation(s))",
            control.name,
            outcome.report.violations.len()
        );
        true
    }
}

/// The `check` experiment. Replays the requested chaos seeds with tracing
/// on, prints every checker verdict and the lock-order audit, and reports
/// overall success. `--recovery` adds the failure-detector schedules
/// (crash → declare-dead → reinstantiate, plus a scripted zombie restart)
/// and the unfenced control; `--durability` adds the quorum-replicated
/// checkpoint schedules (host+home double crash under duplicated checkpoint
/// traffic) and the no-repair / stale-promotion controls. Every negative
/// control must be *flagged*.
///
/// `--negative` replays the three controls alone. Violations are present
/// *by construction*, so that path always exits nonzero — the exit code
/// uniformly means "violations found", whether they were hoped for or not.
fn run_check(cli: &Cli) -> ExitCode {
    if cli.negative {
        println!("# repro check --negative — rigged controls, violations expected");
        let mut all_flagged = true;
        for control in &NEGATIVE_CONTROLS {
            all_flagged &= negative_control_flagged(control, CHAOS_SEEDS[0]);
        }
        if all_flagged {
            println!("\nall negative controls flagged; exiting nonzero (violations present)");
        } else {
            eprintln!("\nsome negative controls were NOT flagged");
        }
        return ExitCode::FAILURE;
    }
    let seeds = cli.seeds.as_deref().unwrap_or(CHAOS_SEEDS);
    // the first control belongs to --recovery, the other two to --durability
    let (recovery_controls, durability_controls) = NEGATIVE_CONTROLS.split_at(1);

    // prints every verdict; true iff all are clean
    let all_clean = |label: &str, replay: fn(u64) -> CheckOutcome| {
        let mut clean = true;
        for &seed in seeds {
            let outcome = replay(seed);
            println!("\n{label}{seed:#x}:\n{}", outcome.report);
            clean &= outcome.report.is_clean();
        }
        clean
    };

    println!("# repro check — protocol invariants under seeded chaos");
    let mut clean = all_clean("seed ", replay_chaos_seed);

    if cli.recovery {
        println!("\n# repro check --recovery — fenced reinstantiation under chaos");
        clean &= all_clean("recovery seed ", replay_recovery_seed);
        for control in recovery_controls {
            clean &= negative_control_flagged(control, seeds[0]);
        }
    }

    if cli.durability_check {
        println!("\n# repro check --durability — quorum-replicated checkpoints");
        clean &= all_clean("durability seed ", replay_durability_seed);
        for control in durability_controls {
            clean &= negative_control_flagged(control, seeds[0]);
        }
    }

    println!("\n# lock-order audit");
    // a fault-free attach/migrate/crash scenario touches the lock sites the
    // chaos schedules miss (attachments never occur under chaos)
    let attach_report = exercise_lock_sites();
    println!("attach scenario: {}", attach_report);
    clean &= attach_report.is_clean();
    let audit = audit_lock_order();
    if audit.edges.is_empty() {
        if cfg!(debug_assertions) {
            println!("no lock nestings observed");
        } else {
            println!("(release build: lock-order recording is compiled out; run a debug build for the graph)");
        }
    } else {
        print!("{}", oml_check::lockorder::render_edges(&audit.edges));
    }
    if let Some(cycle) = &audit.cycle {
        eprintln!("lock-order CYCLE: {}", cycle.join(" -> "));
        clean = false;
    }
    if !audit.unknown.is_empty() {
        eprintln!(
            "undocumented lock nesting(s): {:?} — review and add to KNOWN_LOCK_ORDER + DESIGN.md §10",
            audit.unknown
        );
        clean = false;
    }

    if clean {
        println!("\nall invariants hold across {} seed(s)", seeds.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("\nviolations found");
        ExitCode::FAILURE
    }
}

/// The `explore` experiment: run the DPOR matrix (or replay one saved
/// schedule with `--replay`), printing per-configuration verdicts. Exit is
/// zero iff every configuration met its expectation — clean configs
/// enumerate exhaustively without violations, seeded-mutation configs
/// produce a counterexample whose disk round-trip replays bit-identically.
fn run_explore(cli: &Cli) -> ExitCode {
    if let Some(path) = &cli.replay {
        return match replay_file(path) {
            Ok(true) => {
                println!("replay verified: violation reproduced, digest bit-identical");
                ExitCode::SUCCESS
            }
            Ok(false) => {
                eprintln!("replay FAILED to reproduce the recorded counterexample");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut budget = if cli.smoke {
        oml_check::explore::Budget::smoke()
    } else {
        oml_check::explore::Budget::default()
    };
    if let Some(n) = cli.budget {
        budget.max_schedules = n;
    }
    println!(
        "# repro explore — DPOR over the small-scope matrix (≤{} schedules, ≤{} steps, depth ≤{})",
        budget.max_schedules, budget.max_steps, budget.max_depth
    );
    let out_dir = PathBuf::from("results/explore");
    let outcomes = run_matrix(&budget, &out_dir);
    let mut all_passed = true;
    for o in &outcomes {
        print!("\n{}", render_outcome(o));
        all_passed &= o.passed;
    }
    if all_passed {
        println!(
            "\nall {} configuration(s) met their expectations",
            outcomes.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("\nexploration expectations NOT met");
        ExitCode::FAILURE
    }
}

/// The `bench` experiment. The bench suite is the tracked baseline: quick
/// precision and one thread unless overridden explicitly, so numbers stay
/// comparable across commits. The JSON records whatever precision and
/// thread count actually ran.
fn run_bench(cli: &Cli) -> ExitCode {
    let opts = RunOptions {
        seed: cli.opts().seed,
        threads: cli.threads.unwrap_or(1),
        ..RunOptions::quick()
    };
    let report = run_bench_suite(&opts);
    for e in &report.experiments {
        println!(
            "{:<8} {:>8.3} s  {:>10} events  {:>12.0} events/s",
            e.name, e.wall_s, e.events, e.events_per_sec
        );
    }
    write_file(
        Path::new("BENCH_02.json"),
        &render_bench_json(&report, &opts),
    )
}

fn run_mega_world(cli: &Cli) -> ExitCode {
    let opts = cli.opts();
    print_mega(&run_mega(&mega_config(cli), opts.seed, opts.threads));
    ExitCode::SUCCESS
}

fn mega_config(cli: &Cli) -> MegaConfig {
    if cli.smoke {
        MegaConfig::smoke()
    } else {
        MegaConfig::standing()
    }
}

fn print_mega(report: &oml_workload::mega::MegaReport) {
    println!("# repro mega — the standing large-scale world");
    println!(
        "{} objects on {} nodes across {} shards, {} worker thread(s)",
        report.objects, report.nodes, report.shards, report.threads
    );
    println!(
        "simulated {:.0} time units: {} events in {:.2} s wall ({:.0} events/s)",
        report.sim_time, report.events, report.wall_s, report.events_per_sec
    );
    println!(
        "{} ticks, {} calls issued / {} completed ({} local), {} migrations",
        report.ticks,
        report.calls_issued,
        report.calls_completed,
        report.local_calls,
        report.migrations
    );
    println!(
        "mean response {:.3} time units, peak RSS {:.1} MiB",
        report.mean_response,
        report.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    );
}

/// The `scaling` experiment: run the replicated fig16 sweep once per thread
/// count, demand bit-identical metrics, append a mega-world run unless
/// `--no-mega`, and write `BENCH_03.json`.
fn run_scaling(cli: &Cli) -> ExitCode {
    let axis = cli.axis.clone().unwrap_or_else(|| vec![1, 2, 4, 8]);
    let opts = cli.opts();

    println!("# repro scaling — replication runner over threads {axis:?}");
    let report = run_scaling_suite(&opts, &axis);
    let base = report.runs.first().map_or(0.0, |r| r.wall_s);
    let speedups: Vec<f64> = report
        .runs
        .iter()
        .map(|r| if r.wall_s > 0.0 { base / r.wall_s } else { 0.0 })
        .collect();
    for (r, speedup) in report.runs.iter().zip(&speedups) {
        println!(
            "{:>2} thread(s): {:>8.3} s  {:>10} events  {:>12.0} events/s  x{speedup:.2}  fp {:016x}",
            r.threads, r.wall_s, r.events, r.events_per_sec, r.fingerprint
        );
    }
    println!(
        "bit-identical across the axis: {} (host has {} core(s))",
        report.bit_identical, report.host_cores
    );

    let mega = (!cli.no_mega).then(|| {
        let threads = cli
            .threads
            .unwrap_or_else(|| axis.iter().copied().max().unwrap_or(1));
        let m = run_mega(&mega_config(cli), opts.seed, threads);
        println!();
        print_mega(&m);
        m
    });

    let json = render_scaling_json(&report, mega.as_ref(), &opts);
    if write_file(Path::new("BENCH_03.json"), &json) != ExitCode::SUCCESS {
        return ExitCode::FAILURE;
    }

    if !report.bit_identical {
        eprintln!("error: thread counts disagreed — the runner is not deterministic");
        return ExitCode::FAILURE;
    }
    // the speedup check only means something when the host can actually
    // run two workers at once
    if report.host_cores >= 2 && axis.len() >= 2 {
        let best = speedups.iter().skip(1).copied().fold(0.0f64, f64::max);
        if best <= 1.0 {
            eprintln!(
                "error: no speedup over 1 thread on a {}-core host",
                report.host_cores
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The `custom` experiment: the `--scenario` file under every policy.
fn run_custom(cli: &Cli) -> ExitCode {
    use oml_core::attach::AttachmentMode;
    use oml_core::policy::PolicyKind;
    use oml_sim::metrics::MetricsRow;
    use std::collections::BTreeMap;

    let Some(path) = &cli.scenario else {
        eprintln!("error: `custom` needs --scenario FILE");
        return ExitCode::FAILURE;
    };
    let Some(text) = read_file(path) else {
        return ExitCode::FAILURE;
    };
    let config = match ScenarioConfig::from_config_text(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = cli.opts();
    let mut series = BTreeMap::new();
    for kind in PolicyKind::ALL {
        let out = run_scenario(
            &config,
            kind,
            AttachmentMode::Unrestricted,
            opts.stopping,
            opts.seed,
        );
        series.insert(kind.to_string(), MetricsRow::from(&out.metrics));
    }
    let result = ExperimentResult {
        id: "custom".into(),
        title: format!("custom scenario `{}`", config.name),
        x_label: "clients".into(),
        y_label: "mean communication time per call".into(),
        points: vec![oml_experiments::SweepPoint {
            x: f64::from(config.clients),
            series,
        }],
    };
    emit(&result, cli)
}

/// Replots a previously saved result without re-running it.
fn replot(path: &str, cli: &Cli) -> ExitCode {
    let id = PathBuf::from(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "reloaded".into());
    let Some(csv) = read_file(Path::new(path)) else {
        return ExitCode::FAILURE;
    };
    match ExperimentResult::from_csv(&id, &csv) {
        Ok(result) => emit(&result, cli),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Reads `path`, reporting a failure.
fn read_file(path: &Path) -> Option<String> {
    fs::read_to_string(path)
        .map_err(|e| eprintln!("cannot read {}: {e}", path.display()))
        .ok()
}

fn main() -> ExitCode {
    // worker role: `availability --multiprocess` re-executes this binary as
    // its worker processes with OML_MP_* set; nothing else may run in them
    if let Some(opts) = oml_runtime::WorkerOptions::from_env() {
        let _ = oml_runtime::run_worker(&opts, &multiproc_worker_types());
        return ExitCode::SUCCESS;
    }
    // cold-restart seed/recover roles (`durability --cold-restart`
    // re-executes this binary with OML_COLD_ROLE set); checked after the
    // worker role because worker grandchildren inherit OML_COLD_ROLE too
    if let Some(code) = oml_experiments::cold::maybe_run_child() {
        return code;
    }
    let cli = match parse_args(env::args().skip(1)) {
        Ok(Some(cli)) => cli,
        Ok(None) => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    if let Some(policy) = &cli.fsync {
        // the worker/seed/recover child processes this binary re-executes
        // read the policy from the environment
        env::set_var("OML_FSYNC", policy);
    }
    if cli.paper.is_none() && !matches!(cli.experiment.as_str(), "check" | "explore") {
        eprintln!(
            "(no precision flag given; defaulting to --quick — use --paper for the 1%/p=0.99 rule)"
        );
    }

    if cli.experiment.ends_with(".csv") {
        return replot(&cli.experiment, &cli);
    }
    match EXPERIMENTS.iter().find(|e| e.name == cli.experiment) {
        Some(e) => (e.run)(&cli),
        None => {
            eprintln!("unknown experiment: {}", cli.experiment);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Cli>, String> {
        parse_args(args.iter().map(|&a| a.to_owned()))
    }

    fn parse_ok(args: &[&str]) -> Cli {
        parse(args)
            .unwrap_or_else(|e| panic!("{args:?}: {e}"))
            .expect("not a help request")
    }

    /// A value every flag with `metavar` accepts.
    fn sample_value(metavar: &str) -> &'static str {
        match metavar {
            "N" => "4",
            "N,M,..." => "1,2",
            "chaos|N,M,..." => "1,0x2",
            "always|never|batch:N:MS" => "batch:8:50",
            "DIR" | "FILE" => "some/path",
            other => panic!("no sample value for metavar {other}"),
        }
    }

    #[test]
    fn every_flag_parses() {
        for flag in FLAGS {
            let mut args = vec!["fig4", flag.name];
            if let Value(metavar, _) = flag.arity {
                args.push(sample_value(metavar));
                let missing = parse(&args[..2]).err();
                assert_eq!(missing, Some(format!("{} needs {metavar}", flag.name)));
            }
            let cli = parse_ok(&args);
            assert_eq!(cli.experiment, "fig4", "{}", flag.name);
        }
        let cli = parse_ok(&["check", "--seeds", "1,0x2", "--axis", "1, 2"]);
        assert_eq!(cli.seeds, Some(vec![1, 2]));
        assert_eq!(cli.axis, Some(vec![1, 2]));
        assert_eq!(
            parse_ok(&["check", "--seeds", "chaos"]).seeds.as_deref(),
            Some(CHAOS_SEEDS)
        );
        assert_eq!(
            parse_ok(&["durability", "--fsync", "never"])
                .fsync
                .as_deref(),
            Some("never")
        );
    }

    #[test]
    fn bad_flag_values_are_rejected() {
        for (args, error) in [
            (
                &["fig4", "--threads", "0"][..],
                "--threads must be at least 1",
            ),
            (&["fig4", "--threads", "x"], "bad thread count: x"),
            (&["fig4", "--seed", "-1"], "bad seed: -1"),
            (
                &["durability", "--fsync", "bogus"],
                "bad fsync policy: bogus (always|never|batch:N:MS)",
            ),
            (&["check", "--seeds", "1,x"], "bad seed in --seeds: x"),
            (&["scaling", "--axis", "0"], "bad thread count in --axis: 0"),
            (&["scaling", "--axis", ""], "bad thread count in --axis: "),
            (&["explore", "--budget", "many"], "bad budget: many"),
        ] {
            assert_eq!(parse(args).err().as_deref(), Some(error), "{args:?}");
        }
    }

    #[test]
    fn stray_arguments_are_rejected() {
        assert_eq!(
            parse(&["fig4", "--bogus"]).err().as_deref(),
            Some("unexpected argument: --bogus")
        );
        assert_eq!(
            parse(&["fig4", "fig8"]).err().as_deref(),
            Some("unexpected argument: fig8")
        );
        assert_eq!(
            parse(&["--quick"]).err().as_deref(),
            Some("an experiment name is required")
        );
    }

    #[test]
    fn help_is_a_request_not_an_error() {
        assert!(matches!(parse(&["--help"]), Ok(None)));
        assert!(matches!(parse(&["fig4", "-h"]), Ok(None)));
    }

    #[test]
    fn flag_order_does_not_change_the_run_options() {
        let a = parse_ok(&["fig8", "--threads", "4", "--paper", "--seed", "9"]).opts();
        let b = parse_ok(&["fig8", "--seed", "9", "--paper", "--threads", "4"]).opts();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!((a.threads, a.seed), (4, 9));
        assert_eq!(
            format!("{:?}", a.stopping),
            format!("{:?}", RunOptions::paper().stopping)
        );
        let quick = parse_ok(&["fig8", "--paper", "--quick"]).opts();
        assert_eq!(
            format!("{:?}", quick.stopping),
            format!("{:?}", RunOptions::quick().stopping)
        );
    }

    #[test]
    fn usage_names_every_experiment_and_flag() {
        let text = usage();
        for e in EXPERIMENTS {
            assert!(text.contains(&format!(" {} ", e.name)), "{}", e.name);
        }
        for f in FLAGS {
            assert!(text.contains(f.name), "{}", f.name);
        }
    }

    #[test]
    fn all_runs_the_fifteen_result_experiments() {
        let all: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| e.in_all)
            .map(|e| e.name)
            .collect();
        assert_eq!(
            all,
            [
                "table1",
                "fig4",
                "fig8",
                "fig12",
                "fig14",
                "fig16",
                "fig16x",
                "topology",
                "egoism",
                "break-even",
                "visit",
                "location",
                "faults",
                "availability",
                "durability",
            ]
        );
    }

    #[test]
    fn experiment_and_flag_names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.extend(FLAGS.iter().map(|f| f.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
