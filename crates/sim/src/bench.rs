//! Parallel sweep/bench harness.
//!
//! A [`SweepSpec`] spans the cartesian product of (workload × cores ×
//! scale × mlp × vault design); every point runs each selected system
//! (from the [`crate::registry`]) and yields a [`BenchRecord`]. Runs are
//! deterministic and fully independent (each builds its own engines,
//! timing model, and traces — see `silo_types::stats`), so [`run_sweep`]
//! fans them out across OS threads with `std::thread::scope` and still
//! returns results in point order, bit-identical to a one-worker run.
//! It is the one sweep runner, for the CLI and the hot-loop bench
//! ([`throughput`]) alike; the serve daemon runs the same [`run_point`]
//! one point at a time.
//!
//! [`record_json`] renders one record as a point object, and
//! [`sweep_json`] wraps the point objects into the machine-readable
//! `silo-bench/v1` schema via the dependency-free [`crate::json`]
//! writer, capturing IPC, speedup, served-level fractions, LLC latency
//! percentiles, and per-run wall-clock. When the classic SILO/baseline
//! pair is among the selected systems, the legacy `silo`/`baseline`
//! point fields are emitted unchanged alongside the N-way `systems`
//! array.

use crate::config::{SystemConfig, VaultDesign};
use crate::error::ConfigError;
use crate::json::Json;
use crate::registry::SystemSpec;
use crate::run::{bound_by, overlap, RoundRobin, RunMode, RunStats, PROFILE_PHASES};
use crate::workload::{SyntheticTrace, WorkloadSpec};
use silo_coherence::ServedBy;
use silo_obs::PhaseProfile;
use silo_telemetry::{MeterConfig, Telemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Version tag of the emitted JSON schema.
pub const SCHEMA: &str = "silo-bench/v1";

/// Version tag of the hot-loop throughput trajectory schema
/// (`BENCH_hotloop.json`, written by [`throughput`]).
pub const SCHEMA_HOTLOOP: &str = "silo-hotloop/v1";

/// Version tag of the hot-loop self-profiler schema
/// (`--profile-json`, rendered by [`profile_json`]).
pub const SCHEMA_PROFILE: &str = "silo-profile/v2";

pub mod gate;
pub mod throughput;

/// The swept dimensions. Single-element vectors degenerate to a classic
/// per-workload comparison run.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// Template config; per-point dimensions override it.
    pub base: SystemConfig,
    /// Systems to run at every point, in report order.
    pub systems: Vec<SystemSpec>,
    /// Core counts to sweep.
    pub cores: Vec<usize>,
    /// Capacity-scaling factors to sweep.
    pub scales: Vec<u64>,
    /// MSHR counts to sweep.
    pub mlps: Vec<usize>,
    /// Vault designs to sweep.
    pub vaults: Vec<VaultDesign>,
    /// Workloads to run at every point.
    pub workloads: Vec<WorkloadSpec>,
    /// Workload RNG seed (shared by all points).
    pub seed: u64,
    /// Telemetry meter applied to every run: warmup window and epoch
    /// sampling (disabled by default).
    pub meter: MeterConfig,
    /// How every run drives the hot loop: plain, with the run-time
    /// invariant oracle (`--check`), or with the self-profiler
    /// (`--profile`). Deliberately *not* part of [`MeterConfig`]: the
    /// meter is echoed into the `silo-bench/v1` document, and checked or
    /// profiled runs must keep that document byte-identical to plain
    /// ones.
    pub mode: RunMode,
}

impl SweepSpec {
    /// Expands the cartesian product, workload-major so a degenerate
    /// sweep preserves the classic report order.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut points = Vec::new();
        for w in &self.workloads {
            for &cores in &self.cores {
                for &scale in &self.scales {
                    for &mlp in &self.mlps {
                        for &vault in &self.vaults {
                            points.push(SweepPoint {
                                cores,
                                scale,
                                mlp,
                                vault,
                                workload: w.clone(),
                            });
                        }
                    }
                }
            }
        }
        points
    }
}

/// One point of the sweep: a workload plus the config overrides.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Core count.
    pub cores: usize,
    /// Capacity-scaling factor.
    pub scale: u64,
    /// MSHRs per core.
    pub mlp: usize,
    /// Vault design.
    pub vault: VaultDesign,
    /// Workload run at this point.
    pub workload: WorkloadSpec,
}

impl SweepPoint {
    /// The fully resolved config for this point.
    pub fn config(&self, base: &SystemConfig) -> SystemConfig {
        let mut cfg = self.vault.apply(base.with_cores(self.cores));
        cfg.scale = self.scale;
        cfg.mlp = self.mlp;
        cfg
    }
}

/// One system's result at one sweep point.
#[derive(Clone, Debug)]
pub struct SystemRun {
    /// The simulated statistics.
    pub stats: RunStats,
    /// Host wall-clock of the run, in milliseconds.
    pub wall_ms: f64,
    /// The run's telemetry: named counters, latency histograms, and the
    /// epoch timeline (empty under a disabled meter).
    pub telemetry: Telemetry,
    /// Per-phase wall-clock of the hot loop, present only under
    /// [`RunMode::Profiled`]. Host-dependent, so never rendered into
    /// the `silo-bench/v1` document.
    pub profile: Option<PhaseProfile>,
}

/// The outcome of one sweep point: every selected system's stats plus
/// per-run wall-clock, in system order.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// The point that produced this record.
    pub point: SweepPoint,
    /// One entry per system, in [`SweepSpec::systems`] order.
    pub runs: Vec<SystemRun>,
}

impl BenchRecord {
    /// The run of the system named `name` (case-insensitive), if it was
    /// part of the comparison.
    pub fn run(&self, name: &str) -> Option<&SystemRun> {
        self.runs
            .iter()
            .find(|r| r.stats.system.eq_ignore_ascii_case(name))
    }

    /// IPC ratio of `system` over `reference`, when both ran and the
    /// ratio is meaningful (`None` for degenerate zero-IPC runs, e.g. a
    /// warmup window that swallowed every reference).
    pub fn speedup_of(&self, system: &str, reference: &str) -> Option<f64> {
        let s = self.run(system)?;
        let r = self.run(reference)?;
        let ratio = s.stats.ipc() / r.stats.ipc();
        (ratio.is_finite() && ratio > 0.0).then_some(ratio)
    }

    /// The paper's headline ratio: SILO IPC over baseline IPC, when both
    /// systems were part of the comparison.
    pub fn speedup(&self) -> Option<f64> {
        self.speedup_of("SILO", "baseline")
    }

    /// Total host wall-clock across all systems, in milliseconds.
    pub fn wall_ms(&self) -> f64 {
        self.runs.iter().map(|r| r.wall_ms).sum()
    }
}

/// Runs one sweep point (every selected system) and times each run.
/// Each system pulls its references from a fresh streaming
/// [`silo_trace::TraceSource`] ([`WorkloadSpec::source`]) — the lazy
/// synthetic generator or a `.silotrace` replay — so a point never
/// materializes its trace; identical seeds make the per-system streams
/// identical.
///
/// # Panics
///
/// Panics if the point resolves to an invalid config or a replay file
/// vanished since validation (the builder API checks both up front), or
/// — under [`RunMode::Checked`] — when the invariant oracle
/// detects a violation. An oracle panic is a simulator bug, never a
/// workload problem; the message names the system, workload, and
/// reference count at detection.
pub fn run_point(spec: &SweepSpec, point: &SweepPoint) -> BenchRecord {
    let cfg = point.config(&spec.base);
    cfg.validate().expect("sweep axes validated at build time");
    let runs = spec
        .systems
        .iter()
        .map(|sys| {
            let mut source = point
                .workload
                .source(cfg.cores, cfg.scale, spec.seed)
                .expect("workload sources validated at build time");
            let t = Instant::now();
            let out = sys
                .run(
                    &cfg,
                    &point.workload.name,
                    &mut *source,
                    &spec.meter,
                    spec.mode,
                )
                .unwrap_or_else(|e| {
                    panic!(
                        "--check detected a simulator bug on workload '{}': {e}",
                        point.workload.name
                    )
                });
            SystemRun {
                stats: out.stats,
                wall_ms: t.elapsed().as_secs_f64() * 1e3,
                telemetry: out.telemetry,
                profile: out.profile,
            }
        })
        .collect();
    BenchRecord {
        point: point.clone(),
        runs,
    }
}

/// Captures every generator-backed (workload × cores × scale)
/// combination of `spec` into `dir` as `.silotrace` files, streaming —
/// references flow straight from the lazy generator into the buffered
/// writer, so captures of any length use O(cores) memory. Replay
/// workloads are skipped (they already live on disk), and the mlp /
/// vault axes do not affect traces, so they fan out nothing. Returns
/// the written paths.
///
/// File names are `<name>-c<cores>-s<scale>.silotrace` with
/// non-filename characters of the workload name mapped to `-`; the
/// original name, seed, and spec string travel in the header, and a
/// replay run labels its result rows with that original name — which is
/// what makes record/replay rows byte-identical.
///
/// # Errors
///
/// Returns [`ConfigError::Trace`] when the directory cannot be created
/// or a file cannot be written.
pub fn record_traces(
    spec: &SweepSpec,
    dir: &std::path::Path,
) -> Result<Vec<std::path::PathBuf>, ConfigError> {
    let trace_err = |path: &std::path::Path, message: String| ConfigError::Trace {
        path: path.display().to_string(),
        message,
    };
    std::fs::create_dir_all(dir).map_err(|e| trace_err(dir, e.to_string()))?;
    let mut written = Vec::new();
    for w in &spec.workloads {
        if w.trace_file.is_some() {
            continue;
        }
        for &cores in &spec.cores {
            for &scale in &spec.scales {
                let sanitized: String = w
                    .name
                    .chars()
                    .map(|c| {
                        if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                            c
                        } else {
                            '-'
                        }
                    })
                    .collect();
                let path = dir.join(format!(
                    "{sanitized}-c{cores}-s{scale}.{}",
                    silo_trace::EXTENSION
                ));
                let header = silo_trace::TraceHeader {
                    cores,
                    refs_per_core: w.refs_per_core as u64,
                    seed: spec.seed,
                    name: w.name.clone(),
                    provenance: format!(
                        "silo-sim capture: spec '{}', cores {cores}, scale {scale}, seed {}",
                        w.name, spec.seed
                    ),
                };
                let mut writer = silo_trace::TraceWriter::create(&path, &header)
                    .map_err(|e| trace_err(&path, e.to_string()))?;
                let mut source = SyntheticTrace::new(w, cores, scale, spec.seed);
                // Round-robin interleaving: the order the run loop
                // consumes, so replay buffers at most one record per
                // core.
                let mut pull = RoundRobin::new(cores);
                let mut round = Vec::with_capacity(cores);
                while pull.fill(&mut source, &mut round, cores) > 0 {
                    for (core, mr) in round.drain(..) {
                        writer
                            .write(core, mr)
                            .map_err(|e| trace_err(&path, e.to_string()))?;
                    }
                }
                writer
                    .finish()
                    .map_err(|e| trace_err(&path, e.to_string()))?;
                written.push(path);
            }
        }
    }
    Ok(written)
}

/// Fans the points out across up to `threads` OS threads (work-stealing
/// off a shared index) and returns the records in point order. One
/// worker runs every point on the calling thread; simulated results are
/// bit-identical at any thread count, and only the wall-clock fields
/// depend on the host.
pub fn run_sweep(spec: &SweepSpec, threads: usize) -> Vec<BenchRecord> {
    let points = spec.points();
    let workers = threads.clamp(1, points.len().max(1));
    if workers == 1 {
        return points.iter().map(|p| run_point(spec, p)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<BenchRecord>>> =
        (0..points.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(point) = points.get(i) else { break };
                let record = run_point(spec, point);
                *slots[i].lock().expect("result slot poisoned") = Some(record);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every point filled its slot")
        })
        .collect()
}

fn served_json(s: &RunStats) -> Json {
    let frac = |level| Json::Num(s.served.fraction(level));
    Json::Obj(vec![
        ("l1".into(), frac(ServedBy::L1)),
        ("l2".into(), frac(ServedBy::L2)),
        ("local_vault".into(), frac(ServedBy::LocalVault)),
        ("remote_vault".into(), frac(ServedBy::RemoteVault)),
        ("shared_llc".into(), frac(ServedBy::SharedLlc)),
        ("memory".into(), frac(ServedBy::Memory)),
    ])
}

fn latency_json(s: &RunStats) -> Json {
    // The legacy schema's percentiles are bucket upper edges; the
    // interpolated estimates live in the telemetry object.
    let p = |q| Json::Int(s.llc_latency.percentile_upper_edge(q) as i128);
    Json::Obj(vec![
        ("mean".into(), Json::Num(s.mean_llc_latency())),
        ("p50".into(), p(0.50)),
        ("p95".into(), p(0.95)),
        ("p99".into(), p(0.99)),
        ("max".into(), Json::Int(s.llc_latency.max() as i128)),
    ])
}

/// One system's telemetry as a JSON object: the recorder counters
/// verbatim, interpolated LLC latency percentiles, the timeline size,
/// and derived interconnect-pressure figures. Additive to the schema —
/// the legacy `silo` / `baseline` objects stay bit-identical.
fn telemetry_json(run: &SystemRun) -> Json {
    let t = &run.telemetry;
    let counters = Json::Obj(
        t.recorder
            .counters()
            .iter()
            .map(|(k, v)| (k.clone(), Json::Int(*v as i128)))
            .collect(),
    );
    let latency = t
        .recorder
        .get_histogram("llc_latency")
        .map_or(Json::Null, |h| {
            Json::Obj(vec![
                ("p50".into(), Json::Num(h.percentile(0.50))),
                ("p95".into(), Json::Num(h.percentile(0.95))),
                ("p99".into(), Json::Num(h.percentile(0.99))),
                ("max".into(), Json::Int(h.max() as i128)),
            ])
        });
    Json::Obj(vec![
        ("system".into(), Json::Str(run.stats.system.clone())),
        ("warmup_refs".into(), Json::Int(t.meter.warmup_refs as i128)),
        (
            "epoch_refs".into(),
            t.meter
                .epoch_refs
                .map_or(Json::Null, |e| Json::Int(e as i128)),
        ),
        ("epochs".into(), Json::Int(t.timeline.rows().len() as i128)),
        ("avg_hops".into(), Json::Num(run.stats.avg_hops())),
        ("counters".into(), counters),
        ("llc_latency".into(), latency),
    ])
}

fn system_json(run: &SystemRun) -> Json {
    let s = &run.stats;
    Json::Obj(vec![
        ("system".into(), Json::Str(s.system.clone())),
        ("ipc".into(), Json::Num(s.ipc())),
        ("instructions".into(), Json::Int(s.instructions as i128)),
        ("cycles".into(), Json::Int(s.cycles.as_u64() as i128)),
        ("llc_accesses".into(), Json::Int(s.llc_accesses as i128)),
        ("mesh_messages".into(), Json::Int(s.mesh_messages as i128)),
        ("served".into(), served_json(s)),
        ("llc_latency".into(), latency_json(s)),
        ("wall_ms".into(), Json::Num(run.wall_ms)),
    ])
}

/// Renders one record as a JSON point object. The legacy `silo` /
/// `baseline` fields appear whenever those systems ran (bit-identical to
/// the pairwise-era schema); the `systems` array always lists every
/// system's row.
pub fn record_json(r: &BenchRecord) -> Json {
    let mut fields = vec![
        ("workload".into(), Json::Str(r.point.workload.name.clone())),
        ("cores".into(), Json::Int(r.point.cores as i128)),
        ("scale".into(), Json::Int(r.point.scale as i128)),
        ("mlp".into(), Json::Int(r.point.mlp as i128)),
        (
            "vault_design".into(),
            Json::Str(r.point.vault.name().into()),
        ),
        ("speedup".into(), r.speedup().map_or(Json::Null, Json::Num)),
    ];
    if let Some(run) = r.run("SILO") {
        fields.push(("silo".into(), system_json(run)));
    }
    if let Some(run) = r.run("baseline") {
        fields.push(("baseline".into(), system_json(run)));
    }
    fields.push((
        "systems".into(),
        Json::Arr(r.runs.iter().map(system_json).collect()),
    ));
    fields.push((
        "telemetry".into(),
        Json::Arr(r.runs.iter().map(telemetry_json).collect()),
    ));
    Json::Obj(fields)
}

/// Renders a full sweep into the `silo-bench/v1` document.
pub fn sweep_json(records: &[BenchRecord], seed: u64) -> Json {
    document(records.iter().map(record_json).collect(), seed)
}

/// Wraps rendered point objects ([`record_json`] rows, fresh or parsed
/// back from the serve cache) into the `silo-bench/v1` document. This is
/// the one place the layout lives: the geomean speedup, the system names
/// and the meter echo are all derived from the points, so a document
/// rebuilt from cached rows is byte-identical to a direct run's (the
/// JSON layer round-trips numbers exactly).
pub(crate) fn document(points: Vec<Json>, seed: u64) -> Json {
    let speedups: Vec<f64> = points
        .iter()
        .filter_map(|p| p.get("speedup").and_then(Json::as_f64))
        .collect();
    let geomean = if speedups.is_empty() {
        Json::Null
    } else {
        Json::Num(silo_types::geomean(&speedups))
    };
    let first = points.first();
    let system_names: Vec<Json> = first
        .and_then(|p| p.get("systems"))
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|s| s.get("system").cloned())
        .collect();
    // The meter is uniform across the sweep; echo the first run's once
    // at the top.
    let meter = first
        .and_then(|p| p.get("telemetry"))
        .and_then(Json::as_arr)
        .and_then(<[Json]>::first);
    let echo = |key, absent| meter.and_then(|t| t.get(key)).cloned().unwrap_or(absent);
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("seed".into(), Json::Int(seed.into())),
        (
            "telemetry".into(),
            Json::Obj(vec![
                ("warmup_refs".into(), echo("warmup_refs", Json::Int(0))),
                ("epoch_refs".into(), echo("epoch_refs", Json::Null)),
            ]),
        ),
        ("systems".into(), Json::Arr(system_names)),
        ("geomean_speedup".into(), geomean),
        ("points".into(), Json::Arr(points)),
    ])
}

/// One phase's entry in the `silo-profile/v2` run object; root phases
/// additionally carry a `children` array with the same shape.
fn profile_phase_obj(p: &PhaseProfile, i: usize) -> Vec<(String, Json)> {
    vec![
        ("name".into(), Json::Str(p.labels()[i].clone())),
        ("ns".into(), Json::Int(p.nanos()[i] as i128)),
        ("samples".into(), Json::Int(p.samples()[i] as i128)),
        ("share".into(), Json::Num(p.share(i))),
    ]
}

/// Renders the hot-loop phase profiles of a profiled sweep into the
/// `silo-profile/v2` document: the root phase list once at the top,
/// then one entry per profiled run keyed by the point dimensions. Each
/// run carries its wall-clock, the part of it no calling-thread phase
/// covers, the clock reads the profile took, the stage that bounds it,
/// how far the two stages overlapped ([`overlap`]), and per-phase accumulated nanoseconds, sample counts and shares of
/// the wall. Each root carries a `children` array of the same shape
/// whose `ns` sum to the root's. Unprofiled runs contribute nothing.
pub fn profile_json(records: &[BenchRecord]) -> Json {
    let mut runs = Vec::new();
    for r in records {
        for run in &r.runs {
            let Some(p) = &run.profile else { continue };
            let phases = p
                .roots()
                .into_iter()
                .map(|i| {
                    let mut obj = profile_phase_obj(p, i);
                    let kids = p.children(i).into_iter();
                    let kids = kids.map(|c| Json::Obj(profile_phase_obj(p, c)));
                    obj.push(("children".into(), Json::Arr(kids.collect())));
                    Json::Obj(obj)
                })
                .collect();
            runs.push(Json::Obj(vec![
                ("workload".into(), Json::Str(r.point.workload.name.clone())),
                ("system".into(), Json::Str(run.stats.system.clone())),
                ("cores".into(), Json::Int(r.point.cores as i128)),
                ("scale".into(), Json::Int(r.point.scale as i128)),
                ("mlp".into(), Json::Int(r.point.mlp as i128)),
                ("vault".into(), Json::Str(r.point.vault.name().into())),
                ("wall_ns".into(), Json::Int(p.wall_nanos().into())),
                (
                    "unattributed_ns".into(),
                    Json::Int(p.unattributed_nanos().into()),
                ),
                ("clock_reads".into(), Json::Int(p.clock_reads().into())),
                ("bound_by".into(), Json::Str(bound_by(p).into())),
                ("overlap".into(), Json::Num(overlap(p))),
                ("phases".into(), Json::Arr(phases)),
            ]));
        }
    }
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA_PROFILE.into())),
        (
            "phases".into(),
            Json::Arr(
                PROFILE_PHASES
                    .iter()
                    .map(|s| Json::Str((*s).to_string()))
                    .collect(),
            ),
        ),
        ("runs".into(), Json::Arr(runs)),
    ])
}

/// Merges every run's phase profile into one aggregate, or `None` when
/// no run was profiled. Feeds `--profile-trace` (one Chrome trace with
/// the whole sweep's phase totals laid end-to-end).
pub fn merged_profile(records: &[BenchRecord]) -> Option<PhaseProfile> {
    let mut merged: Option<PhaseProfile> = None;
    for r in records {
        for run in &r.runs {
            let Some(p) = &run.profile else { continue };
            match &mut merged {
                Some(m) => m.merge(p),
                None => merged = Some(p.clone()),
            }
        }
    }
    merged
}

/// Writes the `silo-bench/v1` document to `path`.
///
/// # Errors
///
/// Propagates filesystem errors from the write.
pub fn write_json_file(
    path: &std::path::Path,
    records: &[BenchRecord],
    seed: u64,
) -> std::io::Result<()> {
    std::fs::write(path, format!("{}\n", sweep_json(records, seed)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SystemRegistry;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            base: SystemConfig::paper_16core(),
            systems: SystemRegistry::builtin().classic_pair(),
            cores: vec![2],
            scales: vec![64, 128],
            mlps: vec![4],
            vaults: vec![VaultDesign::Table2],
            workloads: vec![WorkloadSpec {
                refs_per_core: 500,
                ..WorkloadSpec::uniform_private()
            }],
            seed: 5,
            meter: MeterConfig::default(),
            mode: RunMode::Plain,
        }
    }

    #[test]
    fn profiled_sweep_matches_unprofiled_and_renders_profile_json() {
        let spec = tiny_spec();
        let profiled = SweepSpec {
            mode: RunMode::Profiled,
            ..spec.clone()
        };
        let plain = run_sweep(&spec, 1);
        let prof = run_sweep(&profiled, 1);
        // Simulated results are bit-identical; only the profile rides
        // along — so the silo-bench/v1 documents match byte-for-byte,
        // wall_ms aside (compare the host-independent stats directly).
        for (a, b) in plain.iter().zip(&prof) {
            for (ra, rb) in a.runs.iter().zip(&b.runs) {
                assert_eq!(ra.stats, rb.stats);
                assert_eq!(ra.telemetry.recorder, rb.telemetry.recorder);
                assert!(ra.profile.is_none());
                let p = rb.profile.as_ref().expect("profiled run has a profile");
                assert_eq!(p.labels().len(), crate::run::PROFILE_TREE.len());
                // Roots first in the document order, each the sum of its
                // children.
                for root in p.roots() {
                    let kids: u64 = p.children(root).iter().map(|&i| p.nanos()[i]).sum();
                    assert_eq!(kids, p.nanos()[root]);
                }
                // 2 cores x 500 refs fit one batch of either executor.
                assert_eq!(p.samples()[0], 1);
                assert!(p.wall_nanos() > 0);
            }
        }
        let doc = profile_json(&prof);
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(SCHEMA_PROFILE)
        );
        let runs = doc.get("runs").and_then(Json::as_arr).expect("runs");
        assert_eq!(runs.len(), 4, "2 points x 2 systems");
        let run = &runs[0];
        let wall = run.get("wall_ns").and_then(Json::as_i64).expect("wall_ns");
        let unattributed = run
            .get("unattributed_ns")
            .and_then(Json::as_i64)
            .expect("unattributed_ns");
        assert!((0..=wall).contains(&unattributed));
        assert!(run.get("clock_reads").and_then(Json::as_u64).is_some());
        let bound = run
            .get("bound_by")
            .and_then(Json::as_str)
            .expect("bound_by");
        assert!(PROFILE_PHASES.contains(&bound), "{bound}");
        let overlap = run.get("overlap").and_then(Json::as_f64).expect("overlap");
        assert!((0.0..=1.0).contains(&overlap), "{overlap}");
        let phases = run.get("phases").and_then(Json::as_arr).expect("phases");
        assert_eq!(phases.len(), PROFILE_PHASES.len(), "top level lists roots");
        for (root, name) in phases.iter().zip(PROFILE_PHASES) {
            assert_eq!(root.get("name").and_then(Json::as_str), Some(name));
            let ns = root.get("ns").and_then(Json::as_i64).expect("ns");
            let child_ns: i64 = root
                .get("children")
                .and_then(Json::as_arr)
                .expect("children")
                .iter()
                .map(|c| c.get("ns").and_then(Json::as_i64).expect("child ns"))
                .sum();
            assert_eq!(child_ns, ns, "{name} children sum to the root");
            let share = root.get("share").and_then(Json::as_f64).expect("share");
            assert!((share - ns as f64 / wall as f64).abs() < 1e-9);
        }
        // Unprofiled records render an empty runs array.
        let empty = profile_json(&plain);
        assert_eq!(
            empty.get("runs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
        // And the merged profile aggregates all four runs.
        let merged = merged_profile(&prof).expect("profiles present");
        assert_eq!(merged.samples()[0], 4);
        assert!(merged_profile(&plain).is_none());
        assert!(merged.chrome_json().contains("\"name\":\"execute\""));
    }

    #[test]
    fn points_expand_the_cartesian_product() {
        let mut spec = tiny_spec();
        spec.cores = vec![2, 4];
        spec.vaults = vec![VaultDesign::Table2, VaultDesign::Capacity];
        let points = spec.points();
        assert_eq!(points.len(), 2 * 2 * 2);
        // Workload-major, then cores, scale, mlp, vault.
        assert_eq!(points[0].cores, 2);
        assert_eq!(points[0].vault, VaultDesign::Table2);
        assert_eq!(points[1].vault, VaultDesign::Capacity);
    }

    #[test]
    fn point_config_applies_overrides() {
        let spec = tiny_spec();
        let p = &spec.points()[1];
        let cfg = p.config(&spec.base);
        assert_eq!(cfg.cores, 2);
        assert_eq!(cfg.scale, 128);
        assert_eq!(cfg.mlp, 4);
        cfg.validate().expect("point config is valid");
    }

    #[test]
    fn sweep_records_carry_every_system() {
        let spec = tiny_spec();
        let records = run_sweep(&spec, 1);
        assert_eq!(records.len(), 2);
        for r in &records {
            assert_eq!(r.runs.len(), 2);
            assert_eq!(r.runs[0].stats.system, "SILO");
            assert_eq!(r.runs[1].stats.system, "baseline");
            assert!(r.run("silo").is_some(), "lookup is case-insensitive");
            assert!(r.runs[0].stats.instructions > 0);
            assert!(r.speedup().expect("both systems present") > 0.0);
            assert!(r.wall_ms() >= 0.0);
        }
    }

    #[test]
    fn three_way_records_have_null_free_speedups_only_for_the_pair() {
        let mut spec = tiny_spec();
        spec.scales = vec![64];
        let reg = SystemRegistry::builtin();
        spec.systems = vec![
            reg.get("baseline").expect("builtin").clone(),
            reg.get("baseline-2x").expect("builtin").clone(),
        ];
        let records = run_sweep(&spec, 1);
        assert_eq!(records[0].runs.len(), 2);
        assert!(records[0].speedup().is_none(), "no SILO in this selection");
        assert!(records[0]
            .speedup_of("baseline-2x", "baseline")
            .expect("pairing present")
            .is_finite());
        let doc = sweep_json(&records, spec.seed);
        assert_eq!(doc.get("geomean_speedup"), Some(&Json::Null));
    }

    #[test]
    fn sweep_json_has_schema_and_points() {
        let spec = tiny_spec();
        let records = run_sweep(&spec, 1);
        let doc = sweep_json(&records, spec.seed);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(doc.get("seed").and_then(Json::as_i64), Some(5));
        let systems = doc.get("systems").and_then(Json::as_arr).expect("systems");
        assert_eq!(systems.len(), 2);
        let points = doc.get("points").and_then(Json::as_arr).expect("points");
        assert_eq!(points.len(), records.len());
        let ipc = points[0]
            .get("silo")
            .and_then(|s| s.get("ipc"))
            .and_then(Json::as_f64)
            .expect("ipc");
        assert!((ipc - records[0].runs[0].stats.ipc()).abs() < 1e-12);
        let listed = points[0]
            .get("systems")
            .and_then(Json::as_arr)
            .expect("per-point systems array");
        assert_eq!(listed.len(), 2);
    }

    #[test]
    fn telemetry_json_is_additive_to_the_legacy_point_schema() {
        let mut spec = tiny_spec();
        spec.scales = vec![64];
        spec.meter = MeterConfig {
            warmup_refs: 100,
            epoch_refs: Some(200),
        };
        let records = run_sweep(&spec, 1);
        let doc = sweep_json(&records, spec.seed);
        // Top-level meter echo.
        let top = doc.get("telemetry").expect("top-level telemetry");
        assert_eq!(top.get("warmup_refs").and_then(Json::as_u64), Some(100));
        assert_eq!(top.get("epoch_refs").and_then(Json::as_u64), Some(200));
        // Per-point telemetry rows, one per system, with counters.
        let point = &doc.get("points").and_then(Json::as_arr).expect("points")[0];
        let tel = point
            .get("telemetry")
            .and_then(Json::as_arr)
            .expect("telemetry array");
        assert_eq!(tel.len(), 2);
        assert_eq!(tel[0].get("system").and_then(Json::as_str), Some("SILO"));
        let counters = tel[0].get("counters").expect("counters object");
        assert!(counters
            .get("invalidations")
            .and_then(Json::as_u64)
            .is_some());
        assert!(counters
            .get("mesh_total_hops")
            .and_then(Json::as_u64)
            .is_some());
        // Epoch count matches ceil(total refs / epoch_refs): 2 cores x
        // 500 refs at 200/epoch = 5 epochs.
        assert_eq!(tel[0].get("epochs").and_then(Json::as_u64), Some(5));
        // The legacy per-system object is untouched by telemetry keys.
        let silo = point.get("silo").expect("legacy silo object");
        assert!(silo.get("telemetry").is_none());
        assert!(silo.get("ipc").is_some());
    }
}
