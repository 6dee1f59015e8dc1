//! `BENCHMARK.json` and the benchmark agree: every metric it names is
//! printed by a short run of every workload, with the same unit, and
//! every printed metric is named there.

use perfbench::stats::valid_name;
use perfbench::WORKLOADS;
use silo_sim::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits in the repository")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(doc: &Json, list: &str) -> BTreeMap<String, String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).expect("name");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

/// `name -> unit` printed by a one-second run.
fn printed(workload: &str, trace: bool) -> BTreeMap<String, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let line = Json::parse(stdout.lines().last().expect("output")).expect("last line is JSON");
    assert_eq!(
        line.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {stdout}"
    );
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(0));
    assert!(line.get("attempted").and_then(Json::as_u64) >= Some(1));
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    metrics
        .iter()
        .map(|(k, v)| {
            let unit = v.get("unit").and_then(Json::as_str).expect("unit");
            assert!(
                v.get("value").and_then(Json::as_f64).is_some(),
                "{k} has a value"
            );
            (k.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_is_well_formed() {
    let doc = benchmark_json();
    let Json::Obj(fields) = &doc else {
        panic!("BENCHMARK.json is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    assert_eq!(
        sorted,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let mut names = Vec::new();
    for list in ["end_to_end", "per_layer"] {
        names.extend(declared(&doc, list).into_keys());
    }
    for name in &names {
        assert!(valid_name(name), "{name}");
    }
    let n = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), n, "metric names are unique");
    for m in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{m}");
    }
    assert_eq!(
        declared(&doc, "end_to_end")
            .get("setup_s")
            .map(String::as_str),
        Some("s")
    );
}

#[test]
fn every_declared_metric_is_printed_and_nothing_else() {
    let doc = benchmark_json();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    for w in WORKLOADS {
        assert_eq!(printed(w, false), end_to_end, "{w}, untraced");
        assert_eq!(printed(w, true), per_layer, "{w}, traced");
    }
}
