//! Canonical content hashing of sweeps and sweep points.
//!
//! The serve daemon's result cache is addressed by these hashes: two
//! submissions that *resolve* to the same simulation share cache rows,
//! no matter how their scenario files were spelled. That property
//! comes from hashing the resolved [`SweepSpec`] — after scenario
//! parsing, preset expansion, and validation — rather than the raw
//! submission text, so key reordering, whitespace, and comments never
//! change a hash, while any semantic change (a different core count, a
//! nudged fraction, another system in the comparison) always does.
//!
//! Each point's descriptor covers every input that can reach the bytes
//! of its `silo-bench/v1` row: the canon format version and row schema
//! version (bumping either invalidates old caches), the seed, the
//! meter (warmup/epoch telemetry is part of the row), the system list,
//! the point's swept dimensions, the fully resolved
//! [`crate::config::SystemConfig`],
//! and the workload — with replay workloads described by the SHA-256
//! of their trace file *bytes*, not their path. Thread count and the
//! `--check` oracle period are deliberately excluded: both are
//! documented to leave results bit-identical.
//!
//! [`document_from_rows`] is the inverse companion: it parses cached
//! row strings and hands them to the one `silo-bench/v1` builder behind
//! [`crate::bench::sweep_json`], so the rebuilt
//! `silo-bench/v1` document is byte-identical to a direct run's —
//! possible because the [`crate::json`] writer/parser round-trips
//! exactly.

use crate::bench::{SweepPoint, SweepSpec, SCHEMA};
use crate::json::Json;
use crate::workload::WorkloadSpec;
use silo_types::sha::{sha256_hex, Sha256};

/// Version tag of the canonical descriptor format. Bump on any change
/// to the descriptor text: every cached row is invalidated, which is
/// always safe (cache misses recompute) and never wrong (stale hits
/// cannot happen).
pub const CANON_VERSION: &str = "silo-canon/v1";

/// Canonical one-line description of a workload. Replay workloads hash
/// their trace file's bytes so a capture edited in place (or a
/// different capture at the same path) changes the key.
///
/// # Errors
///
/// Returns a message when a replay workload's trace file cannot be
/// read.
fn canonical_workload(w: &WorkloadSpec) -> Result<String, String> {
    if let Some(path) = &w.trace_file {
        let bytes = std::fs::read(path)
            .map_err(|e| format!("cannot read trace file {}: {e}", path.display()))?;
        return Ok(format!(
            "workload name={} trace_sha256={}",
            w.name,
            sha256_hex(&bytes)
        ));
    }
    Ok(format!(
        "workload name={} refs_per_core={} private_lines={} shared_lines={} code_lines={} \
         shared_fraction={:?} ifetch_fraction={:?} write_fraction={:?} dependent_fraction={:?} \
         mean_gap={} zipf_theta={:?}",
        w.name,
        w.refs_per_core,
        w.private_lines,
        w.shared_lines,
        w.code_lines,
        w.shared_fraction,
        w.ifetch_fraction,
        w.write_fraction,
        w.dependent_fraction,
        w.mean_gap,
        w.zipf_theta,
    ))
}

/// The canonical descriptor text of one sweep point — everything that
/// can influence its row's bytes, and nothing that cannot.
///
/// # Errors
///
/// Propagates trace-file read failures from [`canonical_workload`].
fn point_descriptor(spec: &SweepSpec, point: &SweepPoint) -> Result<String, String> {
    let systems: Vec<&str> = spec
        .systems
        .iter()
        .map(crate::registry::SystemSpec::name)
        .collect();
    let epoch = spec
        .meter
        .epoch_refs
        .map_or_else(|| "none".to_string(), |e| e.to_string());
    Ok(format!(
        "{CANON_VERSION}\nrow-schema {SCHEMA}\nseed {}\nmeter warmup={} epoch={epoch}\n\
         systems {}\npoint cores={} scale={} mlp={} vault={}\nconfig {:?}\n{}\n",
        spec.seed,
        spec.meter.warmup_refs,
        systems.join(","),
        point.cores,
        point.scale,
        point.mlp,
        point.vault.name(),
        point.config(&spec.base),
        canonical_workload(&point.workload)?,
    ))
}

/// The content-address of one sweep point: SHA-256 of its canonical
/// descriptor, as 64 lowercase hex characters.
///
/// # Errors
///
/// Propagates trace-file read failures.
pub fn point_key(spec: &SweepSpec, point: &SweepPoint) -> Result<String, String> {
    Ok(sha256_hex(point_descriptor(spec, point)?.as_bytes()))
}

/// Content-addresses of every point of the sweep, in point order.
///
/// # Errors
///
/// Propagates trace-file read failures.
pub fn point_keys(spec: &SweepSpec) -> Result<Vec<String>, String> {
    spec.points().iter().map(|p| point_key(spec, p)).collect()
}

/// The canonical hash of a whole sweep: SHA-256 over its ordered point
/// keys. Stable across scenario-file spelling, distinct across any
/// semantic change to any point, the axes, or their order.
///
/// # Errors
///
/// Propagates trace-file read failures.
pub fn sweep_hash(spec: &SweepSpec) -> Result<String, String> {
    Ok(sweep_hash_of_keys(&point_keys(spec)?))
}

/// The sweep hash given already-computed point keys (what the serve
/// engine uses — it hashes each point exactly once at plan time).
pub fn sweep_hash_of_keys(keys: &[String]) -> String {
    let mut h = Sha256::new();
    h.update(CANON_VERSION.as_bytes());
    h.update(b" sweep\n");
    for key in keys {
        h.update(key.as_bytes());
        h.update(b"\n");
    }
    h.finish_hex()
}

/// Rebuilds the full `silo-bench/v1` document (with trailing newline,
/// as `--json` writes it) from rendered point rows — the daemon's path
/// from cached rows back to a result byte-identical to a direct run.
///
/// # Errors
///
/// Returns a message when a row is not valid row JSON.
pub fn document_from_rows(rows: &[String], seed: u64) -> Result<String, String> {
    let points = rows
        .iter()
        .enumerate()
        .map(|(i, r)| Json::parse(r).map_err(|e| format!("row {i} is not valid JSON: {e}")))
        .collect::<Result<_, _>>()?;
    Ok(format!("{}\n", crate::bench::document(points, seed)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{record_json, run_sweep, sweep_json};
    use crate::builder::Simulation;
    use crate::scenario::Scenario;

    fn spec_from(text: &str) -> SweepSpec {
        let scenario = Scenario::parse(text).expect("scenario parses");
        Simulation::builder()
            .scenario(&scenario)
            .build()
            .expect("scenario builds")
            .spec()
            .clone()
    }

    const BASE: &str = "\
systems = SILO, baseline
workloads = uniform-private, zipf:theta=0.9,footprint=4x
cores = 4
refs = 800
seed = 11
";

    #[test]
    fn hash_is_stable_across_key_order_and_whitespace() {
        let reordered = "
seed =   11
cores=4
workloads = uniform-private,   zipf:theta=0.9,footprint=4x

refs = 800
systems = SILO,baseline
";
        assert_eq!(
            sweep_hash(&spec_from(BASE)).expect("hash"),
            sweep_hash(&spec_from(reordered)).expect("hash")
        );
    }

    #[test]
    fn hash_distinguishes_semantic_changes() {
        let base = sweep_hash(&spec_from(BASE)).expect("hash");
        for (what, changed) in [
            ("cores", BASE.replace("cores = 4", "cores = 8")),
            ("seed", BASE.replace("seed = 11", "seed = 12")),
            ("refs", BASE.replace("refs = 800", "refs = 801")),
            (
                "systems",
                BASE.replace("SILO, baseline", "SILO, baseline, baseline-2x"),
            ),
            ("workload param", BASE.replace("theta=0.9", "theta=0.8")),
            (
                "workload order",
                BASE.replace(
                    "uniform-private, zipf:theta=0.9,footprint=4x",
                    "zipf:theta=0.9,footprint=4x, uniform-private",
                ),
            ),
            ("meter", format!("{BASE}warmup = 100\n")),
        ] {
            let h = sweep_hash(&spec_from(&changed)).expect("hash");
            assert_ne!(base, h, "{what} change must change the hash");
        }
    }

    #[test]
    fn threads_and_check_do_not_affect_the_hash() {
        let mut spec = spec_from(BASE);
        let base = sweep_hash(&spec).expect("hash");
        spec.mode = crate::run::RunMode::Checked(std::num::NonZeroU64::new(100).expect("nonzero"));
        assert_eq!(base, sweep_hash(&spec).expect("hash"));
    }

    #[test]
    fn point_keys_are_well_formed_and_distinct() {
        let spec = spec_from(BASE);
        let keys = point_keys(&spec).expect("keys");
        assert_eq!(keys.len(), spec.points().len());
        for key in &keys {
            assert_eq!(key.len(), 64);
            assert!(key
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase()));
        }
        assert_ne!(keys[0], keys[1], "distinct points get distinct keys");
    }

    #[test]
    fn document_from_rows_is_bit_identical_to_sweep_json() {
        let spec = spec_from(
            "\
systems = SILO, baseline
workloads = uniform-private
cores = 2
scale = 64, 128
refs = 500
seed = 5
warmup = 100
epoch = 200
",
        );
        let records = run_sweep(&spec, 1);
        let direct = format!("{}\n", sweep_json(&records, spec.seed));
        let rows: Vec<String> = records.iter().map(|r| record_json(r).to_string()).collect();
        let rebuilt = document_from_rows(&rows, spec.seed).expect("rebuild");
        assert_eq!(direct, rebuilt);
    }
}
