//! Steadiness mode: reruns each workload in child processes, one seed
//! per run, and prints each metric's median, quartiles and spread (the
//! interquartile range as a share of the median) beside its bound in
//! `BENCHMARK.json`. This is the evidence the bounds rest on.

use crate::stats::{median, quartiles};
use silo_sim::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// `name -> bound` of the end-to-end metrics in `BENCHMARK.json` in the
/// working directory; empty when it cannot be read.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return BTreeMap::new();
    };
    let Ok(doc) = Json::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let name = m.get("name")?.as_str()?;
            Some((name.to_string(), m.get("bound")?.as_f64()?))
        })
        .collect()
}

/// One child run's metrics, or why it produced none.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<BTreeMap<String, f64>, String> {
    let out = crate::workload_command(workload, seed, seconds, trace)
        .and_then(|mut cmd| cmd.output())
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(last).map_err(|e| format!("exit {}: {e}", out.status))?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!("incorrect run: {last}"));
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("no metrics".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

/// Runs every workload `runs` times with seeds `seed, seed + 1, ...`.
pub fn run(workloads: &[String], runs: usize, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let bounds = bounds();
    let mut all_ok = true;
    for w in workloads {
        let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..runs as u64 {
            match child(w, seed + i, seconds, trace) {
                Ok(m) => {
                    for (k, v) in m {
                        samples.entry(k).or_default().push(v);
                    }
                }
                Err(e) => {
                    all_ok = false;
                    println!("{w} seed {}: {e}", seed + i);
                }
            }
        }
        println!(
            "{w}: {runs} runs of {seconds} s, seeds {seed}..{}",
            seed + runs as u64 - 1
        );
        println!(
            "  {:<34} {:>14} {:>14} {:>14} {:>8} {:>7}",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for (name, xs) in &samples {
            let m = median(xs);
            let [q1, _, q3] = quartiles(xs).unwrap_or([f64::NAN; 3]);
            let spread = (q3 - q1) / m.abs();
            let bound = bounds.get(name).map_or(String::new(), |b| format!("{b}"));
            let flag = match bounds.get(name) {
                Some(&b) if spread > b => " > bound",
                Some(&b) if spread > b / 3.0 => " > bound/3",
                _ => "",
            };
            println!("  {name:<34} {q1:>14.6} {m:>14.6} {q3:>14.6} {spread:>8.4} {bound:>7}{flag}");
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
