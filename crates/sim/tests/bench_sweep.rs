//! Sweep-harness integration tests: the parallel runner must be
//! bit-identical to sequential execution, and the emitted JSON must
//! parse and round-trip the key fields (including the legacy
//! `silo`/`baseline` point objects and the N-way `systems` array).

use silo_sim::bench::{run_sweep, sweep_json, SweepSpec, SCHEMA};
use silo_sim::{
    Json, MeterConfig, RunMode, SystemConfig, SystemRegistry, VaultDesign, WorkloadSpec,
};

fn sweep_spec() -> SweepSpec {
    let shrink = |w: WorkloadSpec| WorkloadSpec {
        refs_per_core: 1_500,
        ..w
    };
    SweepSpec {
        base: SystemConfig::paper_16core(),
        systems: SystemRegistry::builtin().classic_pair(),
        cores: vec![2, 4],
        scales: vec![64, 128],
        mlps: vec![4],
        vaults: vec![VaultDesign::Table2],
        workloads: vec![
            shrink(WorkloadSpec::uniform_private()),
            shrink(WorkloadSpec::producer_consumer()),
        ],
        seed: 7,
        meter: MeterConfig::default(),
        mode: RunMode::Plain,
    }
}

#[test]
fn parallel_sweep_is_bit_identical_to_sequential() {
    let spec = sweep_spec();
    let seq = run_sweep(&spec, 1);
    let par = run_sweep(&spec, 4);
    assert_eq!(seq.len(), 8, "2 workloads x 2 cores x 2 scales");
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        assert_eq!(a.point.workload.name, b.point.workload.name);
        assert_eq!(a.point.cores, b.point.cores);
        assert_eq!(a.point.scale, b.point.scale);
        assert_eq!(a.runs.len(), b.runs.len());
        for (x, y) in a.runs.iter().zip(&b.runs) {
            // RunStats compares every simulated field; only wall_ms may
            // differ between the parallel and sequential runs.
            assert_eq!(
                x.stats, y.stats,
                "{} {} diverged",
                a.point.workload.name, x.stats.system
            );
        }
    }
}

#[test]
fn oversubscribed_thread_counts_still_match() {
    // More threads than points: workers clamp to the point count and
    // the results stay in point order.
    let mut spec = sweep_spec();
    spec.cores = vec![2];
    spec.scales = vec![64];
    let seq = run_sweep(&spec, 1);
    let par = run_sweep(&spec, 64);
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.stats.cycles, y.stats.cycles);
        }
    }
}

#[test]
fn emitted_json_parses_and_round_trips_key_fields() {
    let spec = sweep_spec();
    let records = run_sweep(&spec, 4);
    let text = sweep_json(&records, spec.seed).to_string();
    let doc = Json::parse(&text).expect("bench JSON must parse");

    assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
    assert_eq!(doc.get("seed").and_then(Json::as_i64), Some(7));
    assert!(
        doc.get("geomean_speedup")
            .and_then(Json::as_f64)
            .expect("geomean")
            > 0.0
    );
    let systems = doc
        .get("systems")
        .and_then(Json::as_arr)
        .expect("top-level systems list");
    assert_eq!(systems.len(), 2);
    assert_eq!(systems[0].as_str(), Some("SILO"));

    let points = doc
        .get("points")
        .and_then(Json::as_arr)
        .expect("points array");
    assert_eq!(points.len(), records.len());
    for (p, r) in points.iter().zip(&records) {
        assert_eq!(
            p.get("workload").and_then(Json::as_str),
            Some(r.point.workload.name.as_str())
        );
        assert_eq!(
            p.get("cores").and_then(Json::as_i64),
            Some(r.point.cores as i64)
        );
        assert_eq!(
            p.get("vault_design").and_then(Json::as_str),
            Some(r.point.vault.name())
        );
        let speedup = p.get("speedup").and_then(Json::as_f64).expect("speedup");
        assert!((speedup - r.speedup().expect("pair present")).abs() < 1e-12);
        let listed = p
            .get("systems")
            .and_then(Json::as_arr)
            .expect("per-point systems array");
        assert_eq!(listed.len(), r.runs.len());
        for (key, run) in [
            ("silo", r.run("SILO").expect("silo ran")),
            ("baseline", r.run("baseline").expect("baseline ran")),
        ] {
            let stats = &run.stats;
            let sys = p.get(key).expect("legacy system object");
            assert_eq!(
                sys.get("system").and_then(Json::as_str),
                Some(stats.system.as_str())
            );
            assert_eq!(
                sys.get("cycles").and_then(Json::as_i64),
                Some(stats.cycles.as_u64() as i64),
                "{key} cycles must round-trip exactly"
            );
            assert_eq!(
                sys.get("instructions").and_then(Json::as_i64),
                Some(stats.instructions as i64)
            );
            assert_eq!(
                sys.get("llc_accesses").and_then(Json::as_i64),
                Some(stats.llc_accesses as i64)
            );
            let ipc = sys.get("ipc").and_then(Json::as_f64).expect("ipc");
            assert!((ipc - stats.ipc()).abs() < 1e-12);
            let served = sys.get("served").expect("served fractions");
            let mut total = 0.0;
            for level in [
                "l1",
                "l2",
                "local_vault",
                "remote_vault",
                "shared_llc",
                "memory",
            ] {
                let f = served.get(level).and_then(Json::as_f64).expect("fraction");
                assert!((0.0..=1.0).contains(&f), "{level} fraction {f}");
                total += f;
            }
            assert!((total - 1.0).abs() < 1e-9, "fractions must sum to 1");
            let lat = sys.get("llc_latency").expect("latency percentiles");
            let p50 = lat.get("p50").and_then(Json::as_i64).expect("p50");
            let p99 = lat.get("p99").and_then(Json::as_i64).expect("p99");
            assert!(p50 <= p99, "percentiles must be monotone");
        }
    }
}

#[test]
fn hit_only_ipc_stays_at_or_below_one_through_the_harness() {
    // Acceptance guard for the cursor fix, end to end: a workload whose
    // private region scales down to a single line is all-SRAM-hits
    // after warmup. One core, so aggregate IPC equals per-core IPC and
    // the base-CPI-1 ceiling applies literally.
    let spec = SweepSpec {
        base: SystemConfig::paper_16core(),
        systems: SystemRegistry::builtin().classic_pair(),
        cores: vec![1],
        scales: vec![64],
        mlps: vec![8],
        vaults: vec![VaultDesign::Table2],
        workloads: vec![WorkloadSpec {
            refs_per_core: 4_000,
            private_lines: 64,
            shared_lines: 64,
            code_lines: 128,
            shared_fraction: 0.0,
            ifetch_fraction: 0.0,
            write_fraction: 0.0,
            dependent_fraction: 0.0,
            ..WorkloadSpec::uniform_private()
        }],
        seed: 3,
        meter: MeterConfig::default(),
        mode: RunMode::Plain,
    };
    for r in run_sweep(&spec, 2) {
        for run in &r.runs {
            assert!(
                run.stats.ipc() <= 1.0,
                "hit-heavy {} IPC {} above base-CPI ceiling",
                run.stats.system,
                run.stats.ipc()
            );
        }
    }
}
