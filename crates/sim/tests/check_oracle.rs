//! The run-time invariant oracle (`--check N`) must be a pure observer:
//! a checked run emits `silo-bench/v1` JSON byte-identical to the
//! unchecked run (only host wall-clock may differ), and a violation —
//! which would indicate a simulator bug — aborts the run instead of
//! producing corrupt rows.

use silo_sim::{bench, Json, RunMode, Scenario, Simulation, SimulationBuilder};
use std::num::NonZeroU64;

/// Drops every `wall_ms` field, recursively: the one host-dependent
/// part of the schema.
fn strip_wall_ms(v: Json) -> Json {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "wall_ms")
                .map(|(k, v)| (k, strip_wall_ms(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(strip_wall_ms).collect()),
        other => other,
    }
}

fn checked(every: u64) -> RunMode {
    RunMode::Checked(NonZeroU64::new(every).expect("nonzero period"))
}

fn pinned() -> SimulationBuilder {
    Simulation::builder()
        .systems(["SILO", "baseline", "silo-no-forward", "baseline-2x"])
        .workloads(["zipf-shared", "uniform-private"])
        .cores([4])
        .refs_per_core(1200)
        .seed(7)
        .warmup_refs(256)
        .epoch_refs(400)
        .threads(1)
}

#[test]
fn checked_run_is_bit_identical_to_an_unchecked_run() {
    let plain = pinned().build().expect("valid config").run();
    // A small period so the oracle fires many times per run, including
    // mid-epoch and inside the warmup window.
    let checked = pinned()
        .check_every(64)
        .build()
        .expect("valid config")
        .run();

    let want = strip_wall_ms(bench::sweep_json(&plain, 7)).to_string();
    let got = strip_wall_ms(bench::sweep_json(&checked, 7)).to_string();
    assert_eq!(
        want, got,
        "--check must not perturb simulated output (only wall_ms may differ)"
    );
}

#[test]
fn check_every_survives_into_the_sweep_spec() {
    let sim = pinned().check_every(64).build().expect("valid config");
    assert_eq!(sim.spec().mode, checked(64));
    let sim = pinned().build().expect("valid config");
    assert_eq!(sim.spec().mode, RunMode::Plain, "oracle is off by default");
}

#[test]
fn check_every_zero_is_rejected() {
    let err = pinned().check_every(0).build().expect_err("0 is invalid");
    assert!(
        err.to_string().contains("at least 1"),
        "unexpected error: {err}"
    );
}

#[test]
fn scenario_check_key_reaches_the_builder() {
    let s = Scenario::parse("check = 128\n").expect("valid scenario");
    assert_eq!(s.check, Some(128));
    let sim = pinned().scenario(&s).build().expect("valid config");
    assert_eq!(sim.spec().mode, checked(128));
}
