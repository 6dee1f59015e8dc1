//! Integration tests for the scenario-first API: registry variants must
//! differ from their parents, scenario files must round-trip to the same
//! results as equivalent builder invocations, and malformed input must
//! produce typed errors, never panics.

mod common;

use common::run_builtin;
use silo_sim::{ConfigError, Scenario, Simulation, SystemConfig, WorkloadSpec};
use std::path::Path;

fn quick_cfg() -> SystemConfig {
    SystemConfig::paper_16core().with_cores(4)
}

#[test]
fn registry_variants_actually_differ_from_their_parents() {
    let cfg = quick_cfg();
    // producer-consumer exchanges dirty lines: the O state matters.
    let spec = WorkloadSpec {
        refs_per_core: 4_000,
        ..WorkloadSpec::producer_consumer()
    };

    let silo = run_builtin("SILO", &cfg, &spec, 42);
    let no_fwd = run_builtin("silo-no-forward", &cfg, &spec, 42);
    assert_eq!(no_fwd.system, "silo-no-forward");
    assert_ne!(
        silo.cycles, no_fwd.cycles,
        "disabling O-state forwarding must change timing"
    );
    assert!(
        no_fwd.ipc() <= silo.ipc(),
        "extra writebacks cannot make SILO faster ({} > {})",
        no_fwd.ipc(),
        silo.ipc()
    );

    let base = run_builtin("baseline", &cfg, &spec, 42);
    let base2x = run_builtin("baseline-2x", &cfg, &spec, 42);
    assert_eq!(base2x.system, "baseline-2x");
    assert!(
        base2x.served.memory.get() < base.served.memory.get(),
        "a doubled LLC must cut memory accesses ({} vs {})",
        base2x.served.memory.get(),
        base.served.memory.get()
    );
}

#[test]
fn scenario_round_trip_matches_equivalent_builder_invocation() {
    let text = "\
        systems = SILO, baseline, baseline-2x\n\
        workloads = uniform-private, zipf:theta=0.9,footprint=4x\n\
        cores = 4\n\
        scale = 64\n\
        mlp = 8\n\
        seed = 11\n\
        refs = 1500\n\
        threads = 2\n";
    let scenario = Scenario::parse(text).expect("valid scenario");
    let from_scenario = Simulation::builder()
        .scenario(&scenario)
        .build()
        .expect("scenario builds")
        .run();
    let from_flags = Simulation::builder()
        .systems(["SILO", "baseline", "baseline-2x"])
        .workloads(["uniform-private", "zipf:theta=0.9,footprint=4x"])
        .cores([4])
        .scales([64])
        .mlps([8])
        .seed(11)
        .refs_per_core(1500)
        .threads(2)
        .build()
        .expect("flags build")
        .run();
    assert_eq!(from_scenario.len(), from_flags.len());
    for (a, b) in from_scenario.iter().zip(&from_flags) {
        assert_eq!(a.runs.len(), 3);
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.stats, y.stats, "scenario and flag paths diverged");
        }
    }
}

#[test]
fn three_way_scenario_keeps_pair_rows_bit_identical_to_concrete_runs() {
    // The acceptance criterion: adding a third system to the comparison
    // must not perturb the SILO and baseline rows.
    let scenario = Scenario::parse(
        "systems = SILO, baseline, silo-no-forward\n\
         workloads = zipf-shared\n\
         cores = 4\n\
         seed = 9\n\
         refs = 1200\n",
    )
    .expect("valid scenario");
    let records = Simulation::builder()
        .scenario(&scenario)
        .build()
        .expect("builds")
        .run();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].runs.len(), 3);

    let cfg = quick_cfg();
    let w = WorkloadSpec {
        refs_per_core: 1200,
        ..WorkloadSpec::zipf_shared()
    };
    assert_eq!(
        records[0].run("SILO").expect("ran").stats,
        run_builtin("SILO", &cfg, &w, 9)
    );
    assert_eq!(
        records[0].run("baseline").expect("ran").stats,
        run_builtin("baseline", &cfg, &w, 9)
    );
}

#[test]
fn malformed_scenarios_produce_config_errors_not_panics() {
    for text in [
        "systems = ghost\n",
        "workloads = not-a-workload\n",
        "workloads = zipf:theta=big\n",
        "cores = 0\n",
        "cores = 99\n",
        "mlp = 0\n",
        "vault = warp\n",
        "refs = 0\n",
        "threads = 0\n",
    ] {
        let scenario = match Scenario::parse(text) {
            Ok(s) => s,
            // Some of these fail at parse time; that is fine too, as
            // long as the error is typed.
            Err(ConfigError::Scenario { .. }) => continue,
            Err(other) => panic!("'{text}' produced unexpected parse error {other:?}"),
        };
        let err = Simulation::builder()
            .scenario(&scenario)
            .build()
            .expect_err(text);
        // Every failure is a ConfigError with a useful message.
        assert!(!err.to_string().is_empty());
    }
}

#[test]
fn example_scenario_file_parses_builds_and_runs() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/paper_fig11.scenario");
    let scenario = Scenario::load(&path).expect("example scenario parses");
    assert!(
        scenario.systems.as_ref().expect("systems set").len() >= 3,
        "the example must be a >=3-way comparison"
    );
    assert!(scenario.warmup.is_some() && scenario.epoch.is_some());
    // Shrink the run so the test stays fast (scaling the warmup window
    // with it); the CI workflow runs the file as-is through the CLI.
    let records = Simulation::builder()
        .scenario(&scenario)
        .refs_per_core(300)
        .cores([2])
        .threads(2)
        .warmup_refs(60)
        .epoch_refs(200)
        .build()
        .expect("example scenario builds")
        .run();
    assert!(!records.is_empty());
    for r in &records {
        assert!(r.runs.len() >= 3);
        assert!(r.speedup().expect("SILO and baseline present") > 0.0);
        for run in &r.runs {
            assert_eq!(run.telemetry.timeline.total_refs(), 600);
        }
    }
}
