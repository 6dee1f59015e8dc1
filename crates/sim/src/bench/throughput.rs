//! The hot-loop throughput benchmark: refs/sec per (system, workload).
//!
//! Simulator capacity is measured in *references per second of host
//! time*: every design-space sweep point costs `cores × refs` simulated
//! references, so refs/sec is the unit that converts "how fast is the
//! inner loop" into "how many sweep points per minute". The benchmark
//! is an ordinary sweep ([`hotloop_matrix`]) run by
//! [`crate::bench::run_sweep`], whose per-run wall-clock covers engine
//! instantiation and the hot loop but not workload-source setup. This
//! module reads the records back as system-major rows and renders them
//! into the `silo-hotloop/v1` JSON schema, so the numbers can be
//! committed as a trajectory (`BENCH_hotloop.json`) and compared across
//! PRs by the [`crate::bench::gate`].
//!
//! The tracked matrix is every builtin system × [`HOTLOOP_WORKLOADS`]
//! on 8 cores at seed 42: a cache-friendly skewed workload, a
//! capacity-stressing uniform one, and a dependent-miss chain, so the
//! three qualitatively different hot-path regimes (SRAM-hit dominated,
//! vault/directory dominated, MSHR-serialised) are all represented.
//!
//! Wall-clock is host-dependent by nature; everything else about a row
//! (the simulated stats) is deterministic, and row *order* is fixed by
//! the matrix regardless of the worker-thread count.

use crate::bench::{BenchRecord, SweepSpec, SystemRun, SCHEMA_HOTLOOP};
use crate::builder::{Simulation, SimulationBuilder};
use crate::error::ConfigError;
use crate::json::Json;
use crate::registry::{SystemRegistry, SystemSpec};

/// The tracked matrix's workloads, in column order.
pub const HOTLOOP_WORKLOADS: [&str; 3] = ["zipf-shared", "uniform-private", "pointer-chase"];

/// The tracked hot-loop matrix: every builtin system ×
/// [`HOTLOOP_WORKLOADS`], 8 cores, seed 42, `refs_per_core` references
/// per core, at the builder's default scale, mlp and Table II vault, so
/// every point resolves to `SystemConfig::paper_16core().with_cores(8)`.
/// This is the matrix behind `silo-sim bench` and the committed
/// `BENCH_hotloop.json` trajectory; changing it invalidates cross-PR
/// comparisons. Any setting can still be overridden before `build`.
pub fn hotloop_matrix(refs_per_core: usize) -> SimulationBuilder {
    let registry = SystemRegistry::builtin();
    Simulation::builder()
        .systems(registry.specs().iter().map(SystemSpec::name))
        .workloads(HOTLOOP_WORKLOADS)
        .cores([8])
        .seed(42)
        .refs_per_core(refs_per_core)
}

/// A sweep's runs in row order: system-major, so each system's workload
/// rows are adjacent in reports. The records themselves are
/// workload-major (one record per point, holding every system's run).
pub fn rows(records: &[BenchRecord]) -> impl Iterator<Item = &SystemRun> {
    let systems = records.first().map_or(0, |r| r.runs.len());
    (0..systems).flat_map(move |s| records.iter().map(move |r| &r.runs[s]))
}

/// References simulated per second of host wall-clock in one run.
pub fn refs_per_sec(run: &SystemRun) -> f64 {
    run.stats.served.total() as f64 / (run.wall_ms.max(1e-9) / 1e3)
}

/// Geometric mean of the runs' refs/sec (0.0 for an empty sweep).
pub fn geomean_refs_per_sec(records: &[BenchRecord]) -> f64 {
    let rps: Vec<f64> = rows(records).map(refs_per_sec).collect();
    if rps.is_empty() {
        return 0.0;
    }
    silo_types::geomean(&rps)
}

/// Renders one benchmark run as a `snapshots[]` entry of the
/// `silo-hotloop/v1` document. The matrix dimensions come from the
/// first core count and workload of `spec` (the matrix has one core
/// count and one reference count).
pub fn snapshot_json(label: &str, spec: &SweepSpec, records: &[BenchRecord]) -> Json {
    let row = |r: &SystemRun| {
        Json::Obj(vec![
            ("system".into(), Json::Str(r.stats.system.clone())),
            ("workload".into(), Json::Str(r.stats.workload.clone())),
            ("refs".into(), Json::Int(r.stats.served.total().into())),
            ("wall_ms".into(), Json::Num(r.wall_ms)),
            ("refs_per_sec".into(), Json::Num(refs_per_sec(r))),
        ])
    };
    let dim = |v: Option<usize>| Json::Int(v.unwrap_or(0) as i128);
    Json::Obj(vec![
        ("label".into(), Json::Str(label.into())),
        ("cores".into(), dim(spec.cores.first().copied())),
        (
            "refs_per_core".into(),
            dim(spec.workloads.first().map(|w| w.refs_per_core)),
        ),
        ("seed".into(), Json::Int(spec.seed.into())),
        (
            "geomean_refs_per_sec".into(),
            Json::Num(geomean_refs_per_sec(records)),
        ),
        ("rows".into(), Json::Arr(rows(records).map(row).collect())),
    ])
}

/// Wraps snapshots into the top-level `silo-hotloop/v1` document.
pub fn hotloop_doc(snapshots: Vec<Json>) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA_HOTLOOP.into())),
        ("snapshots".into(), Json::Arr(snapshots)),
    ])
}

/// Loads the snapshots of an existing `silo-hotloop/v1` file.
///
/// # Errors
///
/// Returns [`ConfigError::Trace`] (reused as the generic "file problem"
/// variant) when the file cannot be read, parsed, or has the wrong
/// schema.
pub fn load_snapshots(path: &std::path::Path) -> Result<Vec<Json>, ConfigError> {
    let err = |message: String| ConfigError::Trace {
        path: path.display().to_string(),
        message,
    };
    let text = std::fs::read_to_string(path).map_err(|e| err(e.to_string()))?;
    let doc = Json::parse(&text).map_err(err)?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA_HOTLOOP) => {}
        other => {
            return Err(err(format!(
                "expected schema {SCHEMA_HOTLOOP:?}, found {other:?}"
            )))
        }
    }
    let snapshots = doc
        .get("snapshots")
        .and_then(Json::as_arr)
        .ok_or_else(|| err("missing snapshots array".into()))?;
    Ok(snapshots.to_vec())
}

/// Appends a snapshot to a `silo-hotloop/v1` file (creating it when
/// absent), so repeated `silo-sim bench --json` runs grow a trajectory.
///
/// # Errors
///
/// Propagates parse/IO failures as [`ConfigError`].
pub fn append_snapshot(path: &std::path::Path, snapshot: Json) -> Result<usize, ConfigError> {
    let mut snapshots = if path.exists() {
        load_snapshots(path)?
    } else {
        Vec::new()
    };
    snapshots.push(snapshot);
    let n = snapshots.len();
    std::fs::write(path, format!("{}\n", hotloop_doc(snapshots))).map_err(|e| {
        ConfigError::Trace {
            path: path.display().to_string(),
            message: e.to_string(),
        }
    })?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::run_sweep;

    fn tiny_spec() -> SweepSpec {
        hotloop_matrix(400)
            .cores([2])
            .systems(["SILO", "baseline"])
            .workloads(["zipf-shared", "uniform-private"])
            .build()
            .expect("tiny matrix is valid")
            .spec()
            .clone()
    }

    #[test]
    fn matrix_covers_every_builtin_system_and_three_workloads() {
        let sim = hotloop_matrix(100).build().expect("matrix is valid");
        let spec = sim.spec();
        assert_eq!(spec.cores, [8]);
        assert_eq!(spec.seed, 42);
        let names: Vec<&str> = spec.systems.iter().map(SystemSpec::name).collect();
        let builtin = SystemRegistry::builtin();
        let want: Vec<&str> = builtin.specs().iter().map(SystemSpec::name).collect();
        assert_eq!(names, want);
        assert!(names.len() >= 4);
        let paper = format!("{:?}", crate::SystemConfig::paper_16core().with_cores(8));
        for p in spec.points() {
            assert_eq!(format!("{:?}", p.config(&spec.base)), paper);
        }
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names, HOTLOOP_WORKLOADS);
        assert!(spec.workloads.iter().all(|w| w.refs_per_core == 100));
    }

    #[test]
    fn rows_come_back_in_matrix_order_with_positive_throughput() {
        let spec = tiny_spec();
        let records = run_sweep(&spec, 1);
        let rows: Vec<&SystemRun> = rows(&records).collect();
        assert_eq!(rows.len(), 4);
        let mut i = 0;
        for sys in &spec.systems {
            for w in &spec.workloads {
                assert_eq!(rows[i].stats.system, sys.name());
                assert_eq!(rows[i].stats.workload, w.name);
                assert_eq!(rows[i].stats.served.total(), 2 * 400);
                assert!(refs_per_sec(rows[i]) > 0.0);
                i += 1;
            }
        }
        assert!(geomean_refs_per_sec(&records) > 0.0);
        assert_eq!(geomean_refs_per_sec(&[]), 0.0);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let spec = tiny_spec();
        let records = run_sweep(&spec, 2);
        let snapshot = snapshot_json("test", &spec, &records);
        let doc = hotloop_doc(vec![snapshot.clone()]);
        let parsed = Json::parse(&doc.to_string()).expect("round trip");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(SCHEMA_HOTLOOP)
        );
        let snaps = parsed.get("snapshots").and_then(Json::as_arr).unwrap();
        assert_eq!(snaps, [snapshot]);
        assert_eq!(snaps[0].get("cores").and_then(Json::as_u64), Some(2));
        assert_eq!(
            snaps[0].get("refs_per_core").and_then(Json::as_u64),
            Some(400)
        );
        let r = snaps[0].get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(r.len(), 4);
        assert_eq!(r[1].get("system").and_then(Json::as_str), Some("SILO"));
        assert_eq!(
            r[1].get("workload").and_then(Json::as_str),
            Some("uniform-private")
        );
    }
}
