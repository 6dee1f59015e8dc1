//! Integration tests for the hot-loop throughput benchmark
//! (`silo_sim::bench::throughput`): the tracked matrix shape, row
//! determinism across worker-thread counts, the `silo-hotloop/v1`
//! snapshot file round trip that `silo-sim bench --json` relies on, and
//! the gate's self-comparison over a real run.

use silo_sim::bench::throughput::{
    append_snapshot, geomean_refs_per_sec, hotloop_doc, hotloop_matrix, load_snapshots,
    refs_per_sec, rows, snapshot_json, HOTLOOP_WORKLOADS,
};
use silo_sim::bench::{gate, run_sweep, BenchRecord, SweepSpec, SCHEMA_HOTLOOP};
use silo_sim::{Json, SystemConfig, SystemRegistry, SystemSpec};

/// A fast matrix: the real hot-loop matrix cut to 2 systems × 2
/// workloads on 2 cores with a small reference count.
fn tiny_spec() -> SweepSpec {
    hotloop_matrix(300)
        .systems(["SILO", "baseline"])
        .workloads(["zipf-shared", "uniform-private"])
        .cores([2])
        .build()
        .expect("tiny matrix is valid")
        .spec()
        .clone()
}

/// A scratch path under the target-owned temp dir; each test uses its
/// own file name so they can run concurrently.
fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("silo-bench-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(name)
}

/// Gates `reps` against `base` and asserts a self-comparison: each of
/// the `rows` rows, and the geomean, come back exactly 1.0x and pass.
fn assert_self_comparison(reps: &[Json], base: &Json, rows: usize) {
    let report = gate::evaluate(reps, base, gate::DEFAULT_MIN_TOLERANCE);
    assert_eq!(report.rows.len(), rows);
    for r in &report.rows {
        assert!(!r.system.is_empty() && !r.workload.is_empty());
        assert!(r.median_rps > 0.0 && r.base_rps > 0.0);
        assert!((r.ratio - 1.0).abs() < 1e-9, "{}: {}", r.system, r.ratio);
        assert_eq!(r.verdict, gate::Verdict::Pass);
    }
    assert!((report.geomean_ratio - 1.0).abs() < 1e-9);
}

#[test]
fn tracked_matrix_is_every_builtin_system_by_three_workloads() {
    let sim = hotloop_matrix(20_000).build().expect("matrix is valid");
    let spec = sim.spec();
    assert_eq!(spec.cores, [8], "the committed trajectory runs 8 cores");
    assert_eq!(
        spec.seed, 42,
        "the committed trajectory is pinned to seed 42"
    );
    let systems: Vec<&str> = spec.systems.iter().map(SystemSpec::name).collect();
    let builtin = SystemRegistry::builtin();
    let want: Vec<&str> = builtin.specs().iter().map(SystemSpec::name).collect();
    assert_eq!(systems, want, "every builtin system is timed");
    assert!(systems.len() >= 4, "found {}", systems.len());
    let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(workloads, HOTLOOP_WORKLOADS);
    assert_eq!(
        workloads,
        ["zipf-shared", "uniform-private", "pointer-chase"]
    );
    assert!(spec.workloads.iter().all(|w| w.refs_per_core == 20_000));
    // Default scale, mlp and Table II vault: every point is the paper's
    // machine cut to 8 cores.
    let paper = format!("{:?}", SystemConfig::paper_16core().with_cores(8));
    let points = spec.points();
    assert_eq!(points.len(), 3);
    for p in &points {
        assert_eq!(format!("{:?}", p.config(&spec.base)), paper);
    }
}

#[test]
fn rows_are_positive_and_in_matrix_order() {
    let spec = tiny_spec();
    let records = run_sweep(&spec, 1);
    let runs: Vec<_> = rows(&records).collect();
    assert_eq!(runs.len(), spec.systems.len() * spec.workloads.len());
    let mut i = 0;
    for sys in &spec.systems {
        for w in &spec.workloads {
            assert_eq!(runs[i].stats.system, sys.name());
            assert_eq!(runs[i].stats.workload, w.name);
            assert_eq!(
                runs[i].stats.served.total(),
                (spec.cores[0] * w.refs_per_core) as u64
            );
            assert!(runs[i].wall_ms >= 0.0);
            assert!(refs_per_sec(runs[i]) > 0.0);
            i += 1;
        }
    }
    assert!(geomean_refs_per_sec(&records) > 0.0);
}

#[test]
fn simulated_fields_do_not_depend_on_worker_threads() {
    let spec = tiny_spec();
    let sequential: Vec<BenchRecord> = run_sweep(&spec, 1);
    let parallel = run_sweep(&spec, 4);
    let (s, p): (Vec<_>, Vec<_>) = (rows(&sequential).collect(), rows(&parallel).collect());
    assert_eq!(s.len(), p.len());
    for (s, p) in s.iter().zip(&p) {
        assert_eq!(s.stats, p.stats, "only wall_ms may vary with the host");
    }
}

#[test]
fn snapshot_document_round_trips_through_the_parser() {
    let spec = tiny_spec();
    let records = run_sweep(&spec, 2);
    let doc = hotloop_doc(vec![snapshot_json("pr-test", &spec, &records)]);
    let parsed = Json::parse(&doc.to_string()).expect("emitted JSON parses");
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some(SCHEMA_HOTLOOP)
    );
    let snaps = parsed
        .get("snapshots")
        .and_then(Json::as_arr)
        .expect("snapshots array");
    assert_eq!(snaps.len(), 1);
    assert_eq!(
        snaps[0].get("label").and_then(Json::as_str),
        Some("pr-test")
    );
    assert_eq!(snaps[0].get("cores").and_then(Json::as_u64), Some(2));
    assert_eq!(
        snaps[0].get("refs_per_core").and_then(Json::as_u64),
        Some(300)
    );
    assert_eq!(snaps[0].get("seed").and_then(Json::as_u64), Some(42));
    let found = gate::select_snapshot(snaps, 2, 300, 42).expect("dimensions match");
    // The gate over the run it was rendered from (A/A) is exactly 1.0x
    // on every row.
    let fresh = snapshot_json("now", &spec, &records);
    assert_self_comparison(&[fresh], found, 4);
}

#[test]
fn append_snapshot_grows_a_trajectory_file() {
    let spec = tiny_spec();
    let records = run_sweep(&spec, 2);
    let path = scratch("trajectory.json");
    let _ = std::fs::remove_file(&path);

    let snapshot = |label| snapshot_json(label, &spec, &records);
    let n = append_snapshot(&path, snapshot("first")).expect("create file");
    assert_eq!(n, 1);
    let n = append_snapshot(&path, snapshot("second")).expect("append");
    assert_eq!(n, 2);

    let snaps = load_snapshots(&path).expect("reload trajectory");
    assert_eq!(snaps.len(), 2);
    assert_eq!(snaps[0].get("label").and_then(Json::as_str), Some("first"));
    assert_eq!(snaps[1].get("label").and_then(Json::as_str), Some("second"));
    // The gate picks the newest snapshot, and the run still compares
    // 1.0x against the file copy.
    let base = gate::select_snapshot(&snaps, 2, 300, 42).expect("dimensions match");
    assert_eq!(base.get("label").and_then(Json::as_str), Some("second"));
    assert_self_comparison(&[snapshot("now")], base, 4);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn load_snapshots_rejects_foreign_schemas() {
    let path = scratch("not-hotloop.json");
    std::fs::write(
        &path,
        "{\"schema\": \"silo-bench/v1\", \"snapshots\": []}\n",
    )
    .expect("write fixture");
    let err = load_snapshots(&path).expect_err("wrong schema must be rejected");
    assert!(err.to_string().contains("silo-hotloop/v1"));
    let _ = std::fs::remove_file(&path);
}
