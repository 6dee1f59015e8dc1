//! Command line:
//!
//! ```text
//! perfbench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --steady RUNS [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Without `--workload`, every workload runs. The first form runs each
//! workload in turn, in a child process of its own when there are
//! several, and ends each one's output with one JSON line; the
//! second reruns each workload in child processes, one seed per run,
//! and prints each metric's median and quartiles.

use perfbench::env::Scratch;
use perfbench::loops::DEFAULT_SEED;
use perfbench::{run_workload, steady, workload_command, WORKLOADS};
use std::process::ExitCode;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                args.workloads.push(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| bad(&v))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad(&v));
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--steady" => {
                let v = value()?;
                args.steady = Some(v.parse().ok().filter(|&n| n >= 2).ok_or_else(|| bad(&v))?);
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads = if args.workloads.is_empty() {
        WORKLOADS.iter().map(ToString::to_string).collect()
    } else {
        args.workloads
    };
    if let Some(runs) = args.steady {
        return steady::run(&workloads, runs, args.seed, args.seconds, args.trace);
    }
    if let [workload] = &workloads[..] {
        return run_one(workload, args.seed, args.seconds, args.trace);
    }
    // Several workloads: each in a child process of its own, so that
    // `peak_rss_mib` is that workload's peak, not an earlier one's.
    let mut ok = true;
    for workload in &workloads {
        let status = workload_command(workload, args.seed, args.seconds, args.trace)
            .and_then(|mut cmd| cmd.status());
        if !matches!(&status, Ok(s) if s.success()) {
            eprintln!("perfbench: {workload}: {status:?}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` in this process: its metrics, then its JSON line.
fn run_one(workload: &str, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = run_workload(workload, seed, seconds, trace, &scratch)
        .expect("workload names are validated while parsing");
    drop(scratch);
    for (name, value, unit) in report.metrics() {
        println!("{workload}: {name} = {value} {unit}");
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
