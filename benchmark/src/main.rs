//! `fcbench`: one benchmark for the whole fast-coresets stack.
//!
//! ```text
//! fcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fcbench run --all [--smoke] [--seed <n>] [--seconds <s>]
//! fcbench repeat --sets 2 --runs 3 [--seed <n>] [--seconds <s>]
//! fcbench manifest
//! ```
//!
//! The first form is the one `BENCHMARK.json` declares: one workload, one
//! run, the result as one JSON object on the last line of standard output.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` re-runs the
//! workload with spans recorded around every layer call, prints the
//! per-layer metrics and writes `benchmark/out/trace-<workload>.json`.
//! See `benchmark/README.md`.

mod batch;
mod blocks;
mod metrics;
mod probes;
mod producer;
mod quality;
mod run;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use metrics::{Better, Metric, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use run::{Options, Outcome, Run};

const DEFAULT_SEED: u64 = 1;
/// Seconds a smoke run measures per workload and pass.
const SMOKE_SECONDS: f64 = 0.2;

fn usage() -> ExitCode {
    eprintln!(
        "usage: fcbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      fcbench run --all [--smoke] [--seed <n>] [--seconds <s>]\n\
         \x20      fcbench repeat --sets <n> --runs <n> [--seed <n>] [--seconds <s>]\n\
         \x20      fcbench manifest\n\
         workloads: {}",
        WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

/// `--key value` pairs and bare flags after the subcommand.
struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(args: &[String], flags: &[&str]) -> Option<Self> {
        let mut values = BTreeMap::new();
        let mut seen = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let key = arg.strip_prefix("--")?;
            if flags.contains(&key) {
                seen.push(key.to_owned());
            } else {
                values.insert(key.to_owned(), iter.next()?.clone());
            }
        }
        Some(Self {
            values,
            flags: seen,
        })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Option<T> {
        match self.values.get(key) {
            Some(text) => text.parse().ok(),
            None => Some(default),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// Runs one workload once.
fn execute(opts: Options) -> Outcome {
    let started = std::time::Instant::now();
    let mut run = Run::new(opts.clone());
    match serve::spec(&opts.workload) {
        Some(spec) => serve::run(&mut run, &spec),
        None => batch::run(&mut run),
    }
    let (outcome, tracer) = run.finish();
    eprintln!(
        "fcbench: {} trace={} took {:.1} s",
        opts.workload,
        u8::from(opts.traced),
        started.elapsed().as_secs_f64()
    );
    if opts.traced {
        let path = Run::out_dir().join(format!("trace-{}.json", opts.workload));
        match tracer.write(&path, &opts.workload, opts.seed) {
            Ok(()) => eprintln!(
                "fcbench: {} spans written to {}",
                tracer.span_count(),
                path.display()
            ),
            Err(e) => eprintln!("fcbench: cannot write {}: {e}", path.display()),
        }
    }
    outcome
}

/// The metrics a run of this kind reports, in declaration order.
fn declared(traced: bool) -> Vec<Metric> {
    if traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|(m, _)| *m).collect()
    }
}

/// All digits; exponent form (still JSON) where plain decimal would be
/// hundreds of zeros.
fn number(value: f64) -> String {
    if value == 0.0 || (1e-4..1e15).contains(&value.abs()) {
        format!("{value}")
    } else {
        format!("{value:e}")
    }
}

/// Prints one run: a header, `name value unit` per metric, the checks.
fn print_report(opts: &Options, outcome: &Outcome) {
    println!(
        "# workload {} trace={} seed={} seconds={}",
        opts.workload,
        u8::from(opts.traced),
        opts.seed,
        opts.seconds
    );
    for metric in declared(opts.traced) {
        let value = outcome.metrics.get(metric.name).copied().unwrap_or(0.0);
        println!("{} {} {}", metric.name, number(value), metric.unit);
    }
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# attempted {} failed {} failed_share {}",
        outcome.attempted,
        outcome.failed,
        number(outcome.failed as f64 / outcome.attempted as f64)
    );
    for check in &outcome.checks {
        println!(
            "# check {}: {} ({})",
            if check.passed { "ok" } else { "FAILED" },
            check.name,
            check.detail
        );
    }
}

/// The contract's last line.
fn result_line(opts: &Options, outcome: &Outcome) -> String {
    let metrics: Vec<String> = declared(opts.traced)
        .iter()
        .map(|metric| {
            let value = outcome.metrics.get(metric.name).copied().unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                number(value),
                metric.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The facts a number is worthless without.
fn print_machine(seed: u64) {
    let first_line = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|s| s.lines().next().map(str::to_owned))
            .unwrap_or_else(|| "unknown".to_owned())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# machine nproc={nproc} cpu=\"{cpu}\"");
    println!("# rustc {}", first_line("rustc", &["-V"]));
    println!("# git {}", first_line("git", &["rev-parse", "HEAD"]));
    println!("# seed {seed}");
}

fn single(args: &[String]) -> ExitCode {
    let Some(args) = Args::parse(args, &[]) else {
        return usage();
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        args.values.get("workload").cloned(),
        args.get("seed", DEFAULT_SEED),
        args.get("seconds", RUN_SECONDS as f64),
        args.get("trace", 0u8),
    ) else {
        return usage();
    };
    if !WORKLOADS.iter().any(|w| w.name == workload)
        || trace > 1
        || seconds.is_nan()
        || seconds <= 0.0
    {
        return usage();
    }
    let opts = Options {
        workload,
        seed,
        seconds,
        traced: trace == 1,
        smoke: false,
    };
    print_machine(seed);
    let outcome = execute(opts.clone());
    print_report(&opts, &outcome);
    println!("{}", result_line(&opts, &outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_all(args: &[String]) -> ExitCode {
    let Some(args) = Args::parse(args, &["all", "smoke"]) else {
        return usage();
    };
    let smoke = args.flag("smoke");
    let default_seconds = if smoke {
        SMOKE_SECONDS
    } else {
        RUN_SECONDS as f64
    };
    let (true, Some(seed), Some(seconds)) = (
        args.flag("all"),
        args.get("seed", DEFAULT_SEED),
        args.get("seconds", default_seconds),
    ) else {
        return usage();
    };
    print_machine(seed);
    let mut correct = true;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let opts = Options {
                workload: workload.name.to_owned(),
                seed,
                seconds,
                traced,
                smoke,
            };
            let outcome = execute(opts.clone());
            print_report(&opts, &outcome);
            correct &= outcome.correct();
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the untraced suite `sets × runs` times, sets interleaved, and
/// prints per metric and workload each set's median and quartiles and
/// whether the medians agree within the metric's bound.
fn repeat(args: &[String]) -> ExitCode {
    let Some(args) = Args::parse(args, &[]) else {
        return usage();
    };
    let (Some(sets), Some(runs), Some(seed), Some(seconds)) = (
        args.get("sets", 2usize),
        args.get("runs", 3usize),
        args.get("seed", DEFAULT_SEED),
        args.get("seconds", RUN_SECONDS as f64),
    ) else {
        return usage();
    };
    if sets < 2 || runs < 2 {
        eprintln!("fcbench repeat: needs at least 2 sets of at least 2 runs");
        return usage();
    }
    print_machine(seed);
    // values[(workload, metric)][set] = one value per run.
    let mut values: BTreeMap<(&str, &str), Vec<Vec<f64>>> = BTreeMap::new();
    let mut correct = true;
    for run_index in 0..runs {
        for set in 0..sets {
            for workload in WORKLOADS {
                let opts = Options {
                    workload: workload.name.to_owned(),
                    seed: seed + (run_index * sets + set) as u64,
                    seconds,
                    traced: false,
                    smoke: false,
                };
                let outcome = execute(opts.clone());
                correct &= outcome.correct();
                eprintln!(
                    "fcbench repeat: run {run_index} set {set} {} done (failed {})",
                    workload.name, outcome.failed
                );
                for (metric, _) in END_TO_END {
                    let value = outcome.metrics.get(metric.name).copied().unwrap_or(0.0);
                    values
                        .entry((workload.name, metric.name))
                        .or_insert_with(|| vec![Vec::new(); sets])[set]
                        .push(value);
                }
            }
        }
    }
    let mut agree = true;
    println!("# workload metric set median q1 q3 | worst-vs-first bound verdict");
    for workload in WORKLOADS {
        for (metric, bound) in END_TO_END {
            let per_set = &values[&(workload.name, metric.name)];
            let summaries: Vec<(f64, f64, f64)> =
                per_set.iter().map(|v| stats::quartiles(v)).collect();
            let first = summaries[0].1;
            // How much worse than the first set's median any later set's
            // median is, as a share of the first.
            let worst = summaries[1..]
                .iter()
                .map(|(_, med, _)| match metric.better {
                    Better::Lower => (med - first) / first,
                    Better::Higher => (first - med) / first,
                })
                .fold(f64::MIN, f64::max);
            let ok = worst <= *bound;
            agree &= ok;
            for (set, (q1, med, q3)) in summaries.iter().enumerate() {
                println!(
                    "{} {} set{} {} {} {}",
                    workload.name,
                    metric.name,
                    set,
                    number(*med),
                    number(*q1),
                    number(*q3)
                );
            }
            println!(
                "{} {} | {:+.4} {} {}",
                workload.name,
                metric.name,
                worst,
                bound,
                if ok { "agree" } else { "DISAGREE" }
            );
        }
    }
    if correct && agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // On the 2-vCPU reference box the parallel solve tier at its default of
    // two threads is slower than one thread and bimodal from run to run
    // (`geom.par_speedup` is its row); every workload pins it to one unless
    // the caller says otherwise. See README, "Threads".
    if std::env::var_os("FC_SOLVE_THREADS").is_none() {
        fc_geom::par::set_max_threads(1);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("repeat") => repeat(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        Some(flag) if flag.starts_with("--") => single(&args),
        _ => usage(),
    }
}
