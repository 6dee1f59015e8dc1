//! `silo-sim` CLI: a thin shim over the [`silo_sim::Simulation`]
//! builder. Compares any set of registered systems (SILO, the shared-LLC
//! baseline, and registry variants) on synthetic scale-out workloads,
//! either as a Fig. 11-style comparison, a parallel sweep over
//! (cores × scale × mlp × vault design), or a declarative
//! `--scenario` file, with machine-readable JSON output.

#![forbid(unsafe_code)]

use silo_sim::bench::{self, BenchRecord, SweepSpec};
use silo_sim::scenario::{list, scalar, Setting, SETTINGS};
use silo_sim::{ConfigError, Scenario, Simulation, SystemRegistry, SystemSpec, WorkloadSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `--help` up to the settings rows.
const USAGE_HEAD: &str = "\
silo-sim: N-way comparisons of SILO private die-stacked DRAM caches,
the shared NUCA-LLC baseline, and registry-defined variants

USAGE:
    silo-sim [OPTIONS]
    silo-sim trace-info FILE     inspect a .silotrace capture (header,
                                 provenance, record counts, checksum)
    silo-sim bench [OPTIONS]     hot-loop throughput benchmark: time the
                                 fixed matrix (every builtin system x
                                 zipf-shared/uniform-private/pointer-chase,
                                 8 cores, seed 42) and report refs/sec.
                                 Options: --refs N (refs/core, default
                                 20000), --threads N (cells run at
                                 once; default half the host's
                                 threads, at least 1, since each cell
                                 also runs an engine thread),
                                 --label S,
                                 --json PATH (append a snapshot to a
                                 silo-hotloop/v1 trajectory file),
                                 --gate PATH (noise-aware perf gate:
                                 repeat the matrix --gate-reps times
                                 (default 5), take the median refs/sec
                                 per row, and classify each row and the
                                 geomean as pass/noise/regress against
                                 the file's last matching snapshot with
                                 a tolerance derived from the observed
                                 rep spread; exit 1 on regress;
                                 --gate-reps 1 is the quick per-row
                                 comparison),
                                 --gate-json PATH (write the
                                 silo-gate/v1 verdict)
    silo-sim serve [OPTIONS]     simulation-as-a-service daemon: accept
                                 scenario submissions over HTTP, fan
                                 sweep points across a worker pool, and
                                 store every completed row in an
                                 on-disk content-addressed cache so
                                 overlapping or resubmitted sweeps only
                                 compute never-seen points. Endpoints:
                                 POST /jobs (scenario body; 202 + job
                                 id), GET /jobs/ID, GET /jobs/ID/result
                                 (blocks; full silo-bench/v1 JSON),
                                 GET /jobs/ID/stream (rows live as
                                 chunked NDJSON), GET /status,
                                 GET /healthz (liveness), GET /logs
                                 (structured NDJSON log tail;
                                 ?level=info&n=100), GET /version,
                                 POST /shutdown (graceful: running
                                 points finish, queued jobs stay
                                 journalled for --resume).
                                 Options: --addr HOST:PORT (default
                                 127.0.0.1:7878), --workers N (default
                                 2), --queue N (point backpressure
                                 limit; overflow answers 503), --quota N
                                 (active jobs per client; overflow
                                 answers 429), --cache DIR (default
                                 .silo-serve), --cache-cap N (rows kept;
                                 oldest evicted beyond it), --resume
                                 (replay jobs journalled by a previous
                                 run; cached points are not recomputed),
                                 --trace-out PATH (write a Chrome
                                 trace-event JSON of request/job spans on
                                 shutdown; GET /metrics and GET /trace
                                 serve live telemetry either way),
                                 --log-out PATH (append every structured
                                 log record to PATH as NDJSON; GET /logs
                                 serves the bounded tail either way)
    silo-sim hash SCENARIO       print the canonical content hash of the
                                 resolved sweep: stable across scenario
                                 key reordering and whitespace, changed
                                 by any semantic difference. This is the
                                 hash the serve cache is keyed by.
                                 --points also lists every sweep point's
                                 cache key
    silo-sim --version           print the workspace version
    silo-sim check [OPTIONS]     exhaustive model checking: explore every
                                 reachable protocol state of a bounded
                                 world by BFS and assert the coherence
                                 invariants (SWMR, single owner, dirty
                                 ownership, directory agreement, packed
                                 roundtrip, forward policy) on each state
                                 and transition. Exits 1 on a violation,
                                 printing its counterexample trace.
                                 Options: --systems a,b,c (default: all
                                 builtins), --nodes N (default 4),
                                 --max-states N (default 60000),
                                 --json PATH (write silo-check/v1 JSON)

OPTIONS:
    --scenario FILE      load a declarative scenario file: one
                         'key = value' per line for the settings below,
                         spelled without the dashes ('vault' for
                         --vault-design); flags override it
";

/// `--help` after the settings rows, which [`usage`] renders from
/// [`SETTINGS`].
const USAGE_TAIL: &str = "    --profile-json PATH  write the per-run phase profiles as
                         silo-profile/v2 JSON (implies --profile)
    --profile-trace PATH write the merged phase profile as Chrome
                         trace-event JSON for Perfetto / chrome://tracing
                         (implies --profile)
    --timeline PATH      write the per-epoch timeline CSV (needs --epoch
                         or a scenario 'epoch =' key)
    --record-traces DIR  capture every generated (workload, cores,
                         scale) combination of this run to
                         DIR/<name>-c<cores>-s<scale>.silotrace before
                         running; replay later with trace:file=PATH
    --log FILE           append structured NDJSON event records (run
                         start, sweep done, outputs written) to FILE
    --json PATH          write silo-bench/v1 JSON (works in both modes)
    --list-systems       list registered systems and exit
    --list-workloads     list workload presets and the custom-spec
                         grammar, then exit (alias: --list)
    --help               show this help

A list-valued setting (--cores, --scale, --mlp, --vault-design) sweeps
the cartesian product of its values across worker threads. When a
setting is given twice, the later flag wins.

SWEEP MODE (more than one value on an axis, or any --sweep* flag):
    --sweep              print the sweep layout (one row per point and
                         system) even for a single point
    --sweep-cores LIST   same as --cores, and selects the sweep layout;
                         likewise --sweep-scale, --sweep-mlp and
                         --sweep-vault (for --vault-design)
";

/// What the flags ask for: the run settings, collected into a
/// [`Scenario`] that is overlaid on the scenario file's, and the
/// CLI-only outputs and layout switch.
#[derive(Debug, Default)]
struct Cli {
    scenario: Option<PathBuf>,
    settings: Scenario,
    sweep: bool,
    json: Option<PathBuf>,
    log: Option<PathBuf>,
    profile_json: Option<PathBuf>,
    profile_trace: Option<PathBuf>,
    timeline: Option<PathBuf>,
    record_traces: Option<PathBuf>,
}

/// The `--sweep-*` spellings of the axis settings; each also selects
/// the sweep layout.
const SWEEP_ALIASES: &[(&str, &str)] = &[
    ("--sweep-cores", "cores"),
    ("--sweep-scale", "scale"),
    ("--sweep-mlp", "mlp"),
    ("--sweep-vault", "vault"),
];

/// The flag of a setting: `--<key>`, but `--vault-design` for `vault`.
fn flag_of(key: &str) -> String {
    if key == "vault" {
        "--vault-design".into()
    } else {
        format!("--{key}")
    }
}

/// The setting a flag sets, and whether the flag selects the sweep
/// layout too.
fn setting_of(flag: &str) -> Option<(&'static Setting, bool)> {
    if let Some(&(_, key)) = SWEEP_ALIASES.iter().find(|(f, _)| *f == flag) {
        return SETTINGS.iter().find(|s| s.key == key).map(|s| (s, true));
    }
    SETTINGS
        .iter()
        .find(|s| flag_of(s.key) == flag)
        .map(|s| (s, false))
}

/// `--help`, with one row per setting rendered from [`SETTINGS`].
fn usage() -> String {
    let mut out = String::from(USAGE_HEAD);
    for s in SETTINGS {
        let flag = format!("{} {}", flag_of(s.key), s.arg);
        let help = s.help.replace('\n', &format!("\n{:25}", ""));
        out += &format!("    {:<20} {help}\n", flag.trim_end());
    }
    out + USAGE_TAIL
}

fn bad(what: &str, value: impl Into<String>, reason: impl Into<String>) -> ConfigError {
    ConfigError::BadValue {
        what: what.into(),
        value: value.into(),
        reason: reason.into(),
    }
}

/// Takes the value after `flag` and parses it with `parse`, one of the
/// settings table's parsers.
fn value_of<T>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
    parse: impl FnOnce(&str, &str) -> Result<T, String>,
) -> Result<T, ConfigError> {
    let value = args
        .next()
        .ok_or_else(|| bad(flag, "", "the flag needs a value"))?;
    parse(flag, &value).map_err(|m| bad(flag, value, m))
}

/// Parses the argument vector. Returns `None` when a `--list*` / `--help`
/// flag or a subcommand already handled the invocation.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Cli>, ConfigError> {
    let mut cli = Cli::default();
    let mut first = true;
    while let Some(arg) = args.next() {
        if std::mem::take(&mut first) {
            match arg.as_str() {
                "trace-info" => {
                    let path = value_of("trace-info", &mut args, scalar::<PathBuf>)?;
                    return print_trace_info(&path).map(|()| None);
                }
                "bench" => return run_bench(args).map(|()| None),
                "check" => return run_check(args).map(|()| None),
                "serve" => return run_serve(args).map(|()| None),
                "hash" => return run_hash(args).map(|()| None),
                _ => {}
            }
        }
        match arg.as_str() {
            "--scenario" => cli.scenario = Some(value_of("--scenario", &mut args, scalar)?),
            "--sweep" => cli.sweep = true,
            "--json" => cli.json = Some(value_of("--json", &mut args, scalar)?),
            "--log" => cli.log = Some(value_of("--log", &mut args, scalar)?),
            "--profile-json" => {
                cli.profile_json = Some(value_of("--profile-json", &mut args, scalar)?);
                cli.settings.profile = Some(true);
            }
            "--profile-trace" => {
                cli.profile_trace = Some(value_of("--profile-trace", &mut args, scalar)?);
                cli.settings.profile = Some(true);
            }
            "--timeline" => cli.timeline = Some(value_of("--timeline", &mut args, scalar)?),
            "--record-traces" => {
                cli.record_traces = Some(value_of("--record-traces", &mut args, scalar)?);
            }
            "--list-systems" => {
                list_systems();
                return Ok(None);
            }
            "--list" | "--list-workloads" => {
                list_workloads();
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            "--version" | "-V" => {
                println!("silo-sim {}", silo_types::VERSION);
                return Ok(None);
            }
            flag => {
                let Some((setting, sweep)) = setting_of(flag) else {
                    return Err(bad(
                        "argument",
                        flag,
                        "unknown option (see silo-sim --help)",
                    ));
                };
                let settings = &mut cli.settings;
                if setting.arg.is_empty() {
                    // The on/off setting is a bare switch on the CLI.
                    settings
                        .set(setting.key, "on")
                        .map_err(|m| bad(flag, "on", m))?;
                } else {
                    value_of(flag, &mut args, |_, v| settings.set(setting.key, v))?;
                }
                cli.sweep |= sweep;
            }
        }
    }
    Ok(Some(cli))
}

fn list_systems() {
    for spec in SystemRegistry::builtin().specs() {
        println!("{:<18} {}", spec.name(), spec.description());
    }
}

fn list_workloads() {
    for w in WorkloadSpec::all() {
        println!(
            "{:<18} {:>6} refs/core  shared {:>4.0}%  writes {:>4.0}%  zipf {:.1}",
            w.name,
            w.refs_per_core,
            100.0 * w.shared_fraction,
            100.0 * w.write_fraction,
            w.zipf_theta
        );
    }
    println!();
    println!("custom specs: base:key=value[,key=value...], e.g. zipf:theta=0.9,footprint=4x");
    println!("  bases: any preset above, plus the aliases 'zipf' and 'uniform'");
    println!("  keys:  theta, footprint (4x or 64MiB), shared, writes, dependent,");
    println!("         ifetch, refs, gap (fractions in [0,1])");
    println!("trace replay: trace:file=PATH streams a .silotrace capture recorded with");
    println!("  --record-traces; rows keep the original workload name and are");
    println!("  byte-identical to the synthetic run at the same seed and config");
    println!("the same grammar works in --workloads and in scenario files");
}

/// `silo-sim trace-info FILE`: validates the capture end to end (one
/// streaming pass, checksum included) and prints its header and stats.
fn print_trace_info(path: &Path) -> Result<(), ConfigError> {
    let summary = silo_trace::verify(path).map_err(|e| ConfigError::Trace {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    let h = &summary.header;
    println!("trace:        {}", path.display());
    println!("format:       silotrace v{}", silo_trace::VERSION);
    println!("workload:     {}", h.name);
    println!("provenance:   {}", h.provenance);
    println!("seed:         {}", h.seed);
    println!("cores:        {}", h.cores);
    println!("refs/core:    {} (header hint)", h.refs_per_core);
    let (min, max) = (
        summary.per_core.iter().min().copied().unwrap_or(0),
        summary.per_core.iter().max().copied().unwrap_or(0),
    );
    println!(
        "records:      {} (per-core min {min}, max {max})",
        summary.records
    );
    println!(
        "kinds:        {} ifetch / {} read / {} write ({} dependent)",
        summary.kinds[0], summary.kinds[1], summary.kinds[2], summary.dependent
    );
    let per_ref = if summary.records > 0 {
        bytes as f64 / summary.records as f64
    } else {
        0.0
    };
    println!("file size:    {bytes} bytes ({per_ref:.2} bytes/record)");
    println!("checksum:     OK");
    Ok(())
}

/// `silo-sim bench`: runs the fixed hot-loop throughput matrix as a
/// sweep and reports refs/sec per (system, workload) row. `--json`
/// appends the run as a snapshot to a `silo-hotloop/v1` trajectory file
/// (`BENCH_hotloop.json`); `--gate` compares it, repeated
/// `--gate-reps` times, against the file's last matching snapshot.
fn run_bench(mut args: impl Iterator<Item = String>) -> Result<(), ConfigError> {
    use silo_sim::bench::gate;
    use silo_sim::bench::throughput;

    let mut refs: usize = 20_000;
    let mut threads =
        throughput::default_threads(std::thread::available_parallelism().map_or(1, usize::from));
    let mut label: Option<String> = None;
    let mut json: Option<PathBuf> = None;
    let mut gate_base: Option<PathBuf> = None;
    let mut gate_reps: usize = gate::DEFAULT_GATE_REPS;
    let mut gate_json_out: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--refs" => refs = value_of("--refs", &mut args, scalar)?,
            "--threads" => threads = value_of("--threads", &mut args, scalar)?,
            "--label" => label = Some(value_of("--label", &mut args, scalar)?),
            "--json" => json = Some(value_of("--json", &mut args, scalar)?),
            "--gate" => {
                gate_base = Some(value_of("--gate", &mut args, scalar)?);
            }
            "--gate-reps" => gate_reps = value_of("--gate-reps", &mut args, scalar)?,
            "--gate-json" => {
                gate_json_out = Some(value_of("--gate-json", &mut args, scalar)?);
            }
            other => return Err(bad("bench argument", other, "unknown option")),
        }
    }
    if refs == 0 {
        return Err(bad("--refs", "0", "needs at least one reference per core"));
    }
    if gate_reps == 0 {
        return Err(bad("--gate-reps", "0", "needs at least one repetition"));
    }
    let sim = throughput::hotloop_matrix(refs).build()?;
    let spec = sim.spec();
    let (cores, seed) = (spec.cores[0], spec.seed);
    println!(
        "hot-loop bench: {} systems x {} workloads, {cores} cores, {refs} refs/core, seed {seed}, \
         {threads} threads",
        spec.systems.len(),
        spec.workloads.len(),
    );
    let label = label.unwrap_or_else(|| format!("refs{refs}"));
    let records = bench::run_sweep(spec, threads);
    println!(
        "{:<16} {:<16} {:>10} {:>10} {:>14}",
        "system", "workload", "refs", "wall(ms)", "refs/sec"
    );
    for r in throughput::rows(&records) {
        println!(
            "{:<16} {:<16} {:>10} {:>10.1} {:>14.0}",
            r.stats.system,
            r.stats.workload,
            r.stats.served.total(),
            r.wall_ms,
            throughput::refs_per_sec(r)
        );
    }
    println!(
        "geomean {:.0} refs/sec",
        throughput::geomean_refs_per_sec(&records)
    );
    let snapshot = throughput::snapshot_json(&label, spec, threads, &records);
    if let Some(path) = &json {
        let n = throughput::append_snapshot(path, snapshot.clone())?;
        println!(
            "appended snapshot '{label}' to {} ({n} total)",
            path.display()
        );
    }
    if let Some(base_path) = &gate_base {
        let snapshots = throughput::load_snapshots(base_path)?;
        let Some(base) = gate::select_snapshot(&snapshots, cores, refs, seed) else {
            return Err(bad(
                "--gate",
                base_path.display().to_string(),
                format!(
                    "no snapshot matches the matrix (cores {cores}, refs/core {refs}, seed {seed})"
                ),
            ));
        };
        // The matrix above is repetition 1; the rest run back to back at
        // whole-matrix granularity, so host noise lands across every
        // row's sample instead of concentrating in one row.
        let mut reps = vec![snapshot];
        while reps.len() < gate_reps {
            println!("gate repetition {}/{gate_reps}...", reps.len() + 1);
            let records = bench::run_sweep(spec, threads);
            reps.push(throughput::snapshot_json(&label, spec, threads, &records));
        }
        let report = gate::evaluate(&reps, base, gate::DEFAULT_MIN_TOLERANCE);
        println!();
        println!(
            "perf gate vs '{}' ({} reps, median per row, tolerance from observed spread, floor {:.0}%):",
            report.base_label,
            report.reps,
            100.0 * report.min_tolerance
        );
        println!(
            "{:<16} {:<16} {:>12} {:>12} {:>7} {:>7} {:>8}",
            "system", "workload", "base r/s", "median r/s", "ratio", "tol", "verdict"
        );
        for r in &report.rows {
            println!(
                "{:<16} {:<16} {:>12.0} {:>12.0} {:>6.2}x {:>6.1}% {:>8}",
                r.system,
                r.workload,
                r.base_rps,
                r.median_rps,
                r.ratio,
                100.0 * r.tolerance,
                r.verdict.as_str()
            );
        }
        println!(
            "geomean {:.2}x (tolerance {:.1}%): {}",
            report.geomean_ratio,
            100.0 * report.geomean_tolerance,
            report.verdict.as_str()
        );
        if let Some(path) = &gate_json_out {
            let doc = format!("{}\n", gate::gate_json(&report));
            std::fs::write(path, doc).map_err(|e| {
                bad(
                    "--gate-json",
                    path.display().to_string(),
                    format!("cannot write: {e}"),
                )
            })?;
            println!("wrote {} verdict to {}", gate::SCHEMA_GATE, path.display());
        }
        if report.regressed() {
            std::process::exit(1);
        }
    }
    Ok(())
}

/// `silo-sim serve`: starts the simulation-as-a-service daemon and
/// blocks until it drains (POST /shutdown). All simulation semantics —
/// scenario parsing, validation, row rendering — are exactly the CLI's;
/// the daemon adds the job queue, worker pool, content-addressed row
/// cache, and write-ahead journal from `silo-serve`.
fn run_serve(mut args: impl Iterator<Item = String>) -> Result<(), ConfigError> {
    let mut cfg = silo_serve::ServeConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = value_of("--addr", &mut args, scalar)?,
            "--workers" => cfg.workers = value_of("--workers", &mut args, scalar)?,
            "--queue" => cfg.queue_capacity = value_of("--queue", &mut args, scalar)?,
            "--quota" => cfg.client_quota = value_of("--quota", &mut args, scalar)?,
            "--cache" => {
                cfg.cache_dir = value_of("--cache", &mut args, scalar)?;
            }
            "--cache-cap" => cfg.cache_cap = value_of("--cache-cap", &mut args, scalar)?,
            "--resume" => cfg.resume = true,
            "--trace-out" => {
                cfg.trace_out = Some(value_of("--trace-out", &mut args, scalar)?);
            }
            "--log-out" => {
                cfg.log_out = Some(value_of("--log-out", &mut args, scalar)?);
            }
            other => return Err(bad("serve argument", other, "unknown option")),
        }
    }
    if cfg.workers == 0 {
        return Err(bad("--workers", "0", "needs at least one worker"));
    }
    if cfg.queue_capacity == 0 {
        return Err(bad("--queue", "0", "needs room for at least one point"));
    }
    if cfg.client_quota == 0 {
        return Err(bad("--quota", "0", "needs at least one job per client"));
    }
    let banner = cfg.clone();
    let handle = silo_serve::start(silo_sim::SimJobEngine, cfg)
        .map_err(|e| bad("serve", banner.addr.clone(), format!("cannot start: {e}")))?;
    println!(
        "silo-serve {} listening on http://{}",
        silo_types::VERSION,
        handle.addr()
    );
    println!(
        "cache {} (cap {} rows), {} workers, queue {} points, quota {} jobs/client{}",
        banner.cache_dir.display(),
        banner.cache_cap,
        banner.workers,
        banner.queue_capacity,
        banner.client_quota,
        if banner.resume {
            ", resuming journal"
        } else {
            ""
        }
    );
    println!(
        "endpoints: POST /jobs, GET /jobs/ID[/result|/stream], GET /status, \
         GET /healthz, GET /metrics, GET /trace, GET /logs, GET /version, \
         POST /shutdown"
    );
    handle.join();
    println!("silo-serve: drained and stopped");
    Ok(())
}

/// `silo-sim hash SCENARIO`: prints the canonical content hash of the
/// sweep the scenario resolves to — the identity the serve cache keys
/// on. `--points` also lists every point's cache key.
fn run_hash(args: impl Iterator<Item = String>) -> Result<(), ConfigError> {
    let mut path: Option<PathBuf> = None;
    let mut show_points = false;
    for arg in args {
        match arg.as_str() {
            "--points" => show_points = true,
            other if other.starts_with('-') => {
                return Err(bad("hash argument", other, "unknown option"))
            }
            other => {
                if path.is_some() {
                    return Err(bad("hash argument", other, "exactly one scenario file"));
                }
                path = Some(PathBuf::from(other));
            }
        }
    }
    let path = path.ok_or_else(|| bad("hash", "", "usage: silo-sim hash SCENARIO [--points]"))?;
    let sim = Simulation::builder()
        .scenario(&Scenario::load(&path)?)
        .build()?;
    let spec = sim.spec();
    let keys = silo_sim::canon::point_keys(spec)
        .map_err(|e| bad("hash", path.display().to_string(), e))?;
    println!("{}", silo_sim::canon::sweep_hash_of_keys(&keys));
    if show_points {
        for (key, p) in keys.iter().zip(spec.points()) {
            println!(
                "{key}  {} cores={} scale={} mlp={} vault={}",
                p.workload.name,
                p.cores,
                p.scale,
                p.mlp,
                p.vault.name()
            );
        }
    }
    Ok(())
}

/// `silo-sim check`: exhaustive model checking of the registered
/// protocols over a bounded world. Each system's reachable state space
/// is explored by BFS over all interleavings of per-node
/// {read, write, evict} operations, asserting the coherence safety
/// invariants on every state and transition. Writes `silo-check/v1`
/// JSON with `--json` and exits 1 when any system reports a violation,
/// printing the counterexample's operation trace.
fn run_check(mut args: impl Iterator<Item = String>) -> Result<(), ConfigError> {
    use silo_check::{baseline_world, explore, CheckReport, WorldParams};

    let mut systems: Vec<String> = ["SILO", "baseline", "silo-no-forward", "baseline-2x"]
        .map(String::from)
        .to_vec();
    let mut params = WorldParams::default();
    let mut json: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--systems" => systems = value_of("--systems", &mut args, list)?,
            "--nodes" => params.nodes = value_of("--nodes", &mut args, scalar)?,
            "--max-states" => params.max_states = value_of("--max-states", &mut args, scalar)?,
            "--json" => json = Some(value_of("--json", &mut args, scalar)?),
            other => return Err(bad("check argument", other, "unknown option")),
        }
    }
    if !(2..=16).contains(&params.nodes) {
        return Err(bad(
            "--nodes",
            params.nodes.to_string(),
            "the bounded world supports 2..=16 nodes",
        ));
    }
    if params.max_states == 0 {
        return Err(bad("--max-states", "0", "needs at least one state"));
    }

    let mut reports: Vec<CheckReport> = Vec::new();
    for name in &systems {
        let report = match name.to_ascii_lowercase().as_str() {
            "silo" => {
                let (factory, world) = silo_check::silo_world(params, true);
                explore("SILO", factory, &world)
            }
            "silo-no-forward" => {
                let (factory, world) = silo_check::silo_world(params, false);
                explore("silo-no-forward", factory, &world)
            }
            "baseline" => {
                let (factory, world) = baseline_world(params, 1);
                explore("baseline", factory, &world)
            }
            "baseline-2x" => {
                let (factory, world) = baseline_world(params, 2);
                explore("baseline-2x", factory, &world)
            }
            _ => {
                return Err(bad(
                    "--systems",
                    name.clone(),
                    "model checking covers the builtins: \
                     SILO, baseline, silo-no-forward, baseline-2x",
                ))
            }
        };
        print_check_report(&report);
        reports.push(report);
    }

    if let Some(path) = &json {
        let doc = check_json(&params, &reports);
        std::fs::write(path, format!("{doc}\n")).map_err(|e| {
            bad(
                "--json",
                path.display().to_string(),
                format!("cannot write: {e}"),
            )
        })?;
        println!("wrote {} report(s) to {}", reports.len(), path.display());
    }

    let bad_systems: Vec<&str> = reports
        .iter()
        .filter(|r| !r.ok())
        .map(|r| r.system.as_str())
        .collect();
    if bad_systems.is_empty() {
        let states: u64 = reports.iter().map(|r| r.states).sum();
        println!(
            "all invariants hold: {} system(s), {} states total",
            reports.len(),
            states
        );
        Ok(())
    } else {
        eprintln!("invariant violations in: {}", bad_systems.join(", "));
        std::process::exit(1);
    }
}

/// Prints one system's exploration summary (and, on a violation, the
/// counterexample trace) in a human-readable form.
fn print_check_report(r: &silo_check::CheckReport) {
    println!(
        "{}: {} states, {} transitions, depth {}, {} nodes x {} lines{}",
        r.system,
        r.states,
        r.transitions,
        r.max_depth,
        r.nodes,
        r.lines,
        if r.exhausted {
            " (exhaustive)"
        } else {
            " (truncated by --max-states)"
        }
    );
    for inv in &r.invariants {
        println!(
            "  {:<22} checked {:>8}  violations {}",
            inv.name, inv.checked, inv.violations
        );
    }
    for d in &r.deviations {
        println!(
            "  expected deviation: {} ({}x)",
            d.description, d.occurrences
        );
    }
    if let Some(cex) = &r.counterexample {
        println!("  VIOLATION of '{}': {}", cex.invariant, cex.message);
        println!("  counterexample ({} ops):", cex.trace.len());
        for step in &cex.trace {
            println!("    {step}");
        }
    }
    println!();
}

/// Renders the `silo-check/v1` document: world parameters plus one
/// report object per checked system.
fn check_json(
    params: &silo_check::WorldParams,
    reports: &[silo_check::CheckReport],
) -> silo_sim::Json {
    use silo_sim::Json;
    let systems = reports
        .iter()
        .map(|r| {
            let invariants = r
                .invariants
                .iter()
                .map(|i| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(i.name.into())),
                        ("checked".into(), Json::Int(i.checked.into())),
                        ("violations".into(), Json::Int(i.violations.into())),
                    ])
                })
                .collect();
            let deviations = r
                .deviations
                .iter()
                .map(|d| {
                    Json::Obj(vec![
                        ("description".into(), Json::Str(d.description.clone())),
                        ("occurrences".into(), Json::Int(d.occurrences.into())),
                    ])
                })
                .collect();
            let counterexample = r.counterexample.as_ref().map_or(Json::Null, |cex| {
                let trace = cex
                    .trace
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("op".into(), Json::Str(s.op.to_string())),
                            ("state".into(), Json::Int(s.state.into())),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("invariant".into(), Json::Str(cex.invariant.into())),
                    ("message".into(), Json::Str(cex.message.clone())),
                    ("trace".into(), Json::Arr(trace)),
                ])
            });
            Json::Obj(vec![
                ("system".into(), Json::Str(r.system.clone())),
                ("nodes".into(), Json::Int(r.nodes as i128)),
                ("lines".into(), Json::Int(r.lines as i128)),
                ("states".into(), Json::Int(r.states.into())),
                ("transitions".into(), Json::Int(r.transitions.into())),
                ("max_depth".into(), Json::Int(r.max_depth.into())),
                ("exhausted".into(), Json::Bool(r.exhausted)),
                ("ok".into(), Json::Bool(r.ok())),
                ("invariants".into(), Json::Arr(invariants)),
                ("deviations".into(), Json::Arr(deviations)),
                ("counterexample".into(), counterexample),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("schema".into(), Json::Str("silo-check/v1".into())),
        ("nodes".into(), Json::Int(params.nodes as i128)),
        ("max_states".into(), Json::Int(params.max_states as i128)),
        ("systems".into(), Json::Arr(systems)),
    ])
}

/// Builds the run: the flags' settings overlaid on the scenario file's.
fn build_simulation(cli: &Cli) -> Result<Simulation, ConfigError> {
    let file = match &cli.scenario {
        Some(path) => Scenario::load(path)?,
        None => Scenario::default(),
    };
    let sim = Simulation::builder()
        .scenario(&file)
        .scenario(&cli.settings)
        .build()?;
    if let Some(path) = &cli.timeline {
        if sim.spec().meter.epoch_refs.is_none() {
            return Err(bad(
                "--timeline",
                path.display().to_string(),
                "needs --epoch (or a scenario 'epoch =' key) to sample epochs",
            ));
        }
    }
    Ok(sim)
}

fn main() {
    let cli = match parse_args(std::env::args().skip(1)) {
        Ok(Some(cli)) => cli,
        Ok(None) => return,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let sim = match build_simulation(&cli) {
        Ok(sim) => sim,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let log = cli.log.as_ref().map(|path| {
        silo_obs::EventLog::with_sink(1024, path).unwrap_or_else(|e| {
            eprintln!("error: cannot open log {}: {e}", path.display());
            std::process::exit(1);
        })
    });

    let spec = sim.spec();
    if let Some(dir) = &cli.record_traces {
        match bench::record_traces(spec, dir) {
            Ok(paths) => {
                for p in &paths {
                    println!("recorded {}", p.display());
                }
                println!(
                    "{} trace(s) in {} — replay with --workloads trace:file=PATH",
                    paths.len(),
                    dir.display()
                );
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
    }
    print_vault_designs(spec);
    let sweep_mode = cli.sweep
        || spec.cores.len() > 1
        || spec.scales.len() > 1
        || spec.mlps.len() > 1
        || spec.vaults.len() > 1;
    if let Some(log) = &log {
        log.info(
            "sim.run",
            "run started",
            &[
                ("mode", if sweep_mode { "sweep" } else { "classic" }),
                ("points", &spec.points().len().to_string()),
                ("systems", &spec.systems.len().to_string()),
                ("seed", &spec.seed.to_string()),
            ],
        );
    }
    let records = if sweep_mode {
        run_sweep_mode(&sim)
    } else {
        run_classic_mode(&sim)
    };
    if let Some(log) = &log {
        log.info(
            "sim.run",
            "run complete",
            &[("points", &records.len().to_string())],
        );
    }

    if let Some(path) = &cli.json {
        if let Err(e) = bench::write_json_file(path, &records, spec.seed) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {} points to {}", records.len(), path.display());
        if let Some(log) = &log {
            log.info(
                "sim.output",
                "bench json written",
                &[("path", &path.display().to_string())],
            );
        }
    }
    if let Some(path) = &cli.timeline {
        match silo_sim::write_timeline_csv(path, &records) {
            Ok(rows) => println!("wrote {rows} timeline rows to {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    print_profile(&records);
    if let Some(path) = &cli.profile_json {
        let doc = format!("{}\n", bench::profile_json(&records));
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "wrote {} profile to {}",
            bench::SCHEMA_PROFILE,
            path.display()
        );
    }
    if let Some(path) = &cli.profile_trace {
        let Some(merged) = bench::merged_profile(&records) else {
            eprintln!("error: --profile-trace found no profiled runs");
            std::process::exit(1);
        };
        if let Err(e) = std::fs::write(path, merged.chrome_json()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!(
            "wrote merged phase trace to {} (open in Perfetto or chrome://tracing)",
            path.display()
        );
    }
}

/// Prints the merged hot-loop phase profile as a tree: one row per root
/// stage with its wall-clock, batch count, and share of the run's wall,
/// its phases indented under it (they sum to the root), then the wall,
/// the bounding stage and the profiler's own cost. Prints nothing when
/// no run was profiled (neither `--profile` nor a `profile = on` key).
fn print_profile(records: &[BenchRecord]) {
    let Some(p) = bench::merged_profile(records) else {
        return;
    };
    println!();
    println!("hot-loop profile (all runs merged):");
    println!(
        "{:<13} {:>12} {:>12} {:>7}",
        "phase", "wall(ms)", "samples", "share"
    );
    let row = |p: &silo_obs::PhaseProfile, i: usize, indent: &str| {
        println!(
            "{:<13} {:>12.2} {:>12} {:>6.1}%",
            format!("{indent}{}", p.labels()[i]),
            p.nanos()[i] as f64 / 1e6,
            p.samples()[i],
            100.0 * p.share(i)
        );
    };
    for i in p.roots() {
        row(&p, i, "");
        for c in p.children(i) {
            row(&p, c, "  ");
        }
    }
    println!(
        "wall {:.2} ms, bound by {} (overlap {:.2}), {:.2} ms unattributed, {} clock reads",
        p.wall_nanos() as f64 / 1e6,
        silo_sim::run::bound_by(&p),
        silo_sim::run::overlap(&p),
        p.unattributed_nanos() as f64 / 1e6,
        p.clock_reads()
    );
}

/// Reports the resolved `silo-dram` sweep point behind every non-Table II
/// vault design, so users can see the capacity/latency/bank parameters
/// actually simulated.
fn print_vault_designs(spec: &SweepSpec) {
    for v in &spec.vaults {
        if let Some(p) = v.design_point() {
            println!(
                "vault design ({}-optimized): {} ({} MiB bucket), {:.2} ns array, {} banks",
                v.name(),
                silo_types::ByteSize::from_bytes(p.capacity_bytes),
                p.capacity_bucket_mib(),
                p.latency_ns,
                p.config.banks_per_vault(),
            );
        }
    }
}

/// The classic Fig. 11 comparison: the degenerate sweep, one point per
/// workload, printed as the detail table + normalized summaries.
fn run_classic_mode(sim: &Simulation) -> Vec<BenchRecord> {
    let spec = sim.spec();
    // Classic mode has exactly one vault design; apply it so the banner
    // reports the capacity the points actually simulate.
    let cfg = spec
        .vaults
        .first()
        .copied()
        .map_or(spec.base, |v| v.apply(spec.base));
    let cfg = cfg.with_cores(spec.cores[0]);
    let names: Vec<&str> = spec.systems.iter().map(SystemSpec::name).collect();
    println!(
        "simulating {} on {} cores, {}x{} mesh (scale 1/{}, vault {}, LLC {}, seed {})",
        names.join(" vs "),
        cfg.cores,
        cfg.mesh_width,
        cfg.mesh_height,
        spec.scales[0],
        cfg.vault_capacity,
        cfg.llc_capacity,
        spec.seed
    );
    println!();
    let records = sim.run();
    silo_sim::print_report(&records);
    records
}

/// Sweep mode: one compact row per (point, system) plus per-system
/// geomeans against the baseline.
fn run_sweep_mode(sim: &Simulation) -> Vec<BenchRecord> {
    let spec = sim.spec();
    let n_points = spec.points().len();
    println!(
        "sweep: {n_points} points ({} workloads x {} cores x {} scales x {} mlp x {} vaults) x {} systems on {} threads",
        spec.workloads.len(),
        spec.cores.len(),
        spec.scales.len(),
        spec.mlps.len(),
        spec.vaults.len(),
        spec.systems.len(),
        sim.threads(),
    );
    let t0 = Instant::now();
    let records = sim.run();
    let wall = t0.elapsed().as_secs_f64();

    let (wl_w, sys_w) = silo_sim::name_widths(&records);
    let header = format!(
        "{:<wl_w$} {:>5} {:>5} {:>4} {:>9} {:>sys_w$} {:>9} {:>8} {:>9}",
        "workload", "cores", "scale", "mlp", "vault", "system", "IPC", "vs-base", "wall(ms)"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.chars().count()));
    for r in &records {
        for run in &r.runs {
            let vs_base = r
                .speedup_of(&run.stats.system, "baseline")
                .map_or("-".to_string(), |s| format!("{s:.2}x"));
            println!(
                "{:<wl_w$} {:>5} {:>5} {:>4} {:>9} {:>sys_w$} {:>9.3} {:>8} {:>9.1}",
                r.point.workload.name,
                r.point.cores,
                r.point.scale,
                r.point.mlp,
                r.point.vault.name(),
                run.stats.system,
                run.stats.ipc(),
                vs_base,
                run.wall_ms,
            );
        }
    }
    println!();
    print_sweep_geomeans(spec, &records);
    println!("{n_points} points in {wall:.2} s");
    records
}

/// Per-system geomean speedups over the baseline (skipped when the
/// baseline is not part of the comparison).
fn print_sweep_geomeans(spec: &SweepSpec, records: &[BenchRecord]) {
    if !spec
        .systems
        .iter()
        .any(|s| s.name().eq_ignore_ascii_case("baseline"))
    {
        return;
    }
    for sys in &spec.systems {
        if sys.name().eq_ignore_ascii_case("baseline") {
            continue;
        }
        let speedups: Vec<f64> = records
            .iter()
            .filter_map(|r| r.speedup_of(sys.name(), "baseline"))
            .collect();
        if !speedups.is_empty() {
            println!(
                "geomean {}/baseline {:.2}x",
                sys.name(),
                silo_types::geomean(&speedups)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, ConfigError> {
        parse_args(args.iter().map(|a| (*a).to_string())).map(|cli| cli.expect("a run"))
    }

    fn cli(args: &[&str]) -> Cli {
        parse(args).expect("valid flags")
    }

    fn sweep_hash(sim: &Simulation) -> String {
        let keys = silo_sim::canon::point_keys(sim.spec()).expect("hashable");
        silo_sim::canon::sweep_hash_of_keys(&keys)
    }

    fn hash_of_flags(args: &[&str]) -> String {
        sweep_hash(&build_simulation(&cli(args)).expect("flags build"))
    }

    fn hash_of_scenario(text: &str) -> String {
        let s = Scenario::parse(text).expect("scenario parses");
        sweep_hash(&Simulation::builder().scenario(&s).build().expect("builds"))
    }

    #[test]
    fn every_setting_has_a_flag_and_every_help_flag_is_known() {
        for s in SETTINGS {
            let (found, sweep) = setting_of(&flag_of(s.key)).expect(s.key);
            assert_eq!((found.key, sweep), (s.key, false));
        }
        let cli_only = [
            "--scenario",
            "--profile-json",
            "--profile-trace",
            "--timeline",
            "--record-traces",
            "--log",
            "--json",
            "--list-systems",
            "--list-workloads",
            "--help",
            "--sweep",
        ];
        let help = usage();
        let options = &help[help.find("OPTIONS:").expect("options section")..];
        for line in options.lines().filter(|l| l.starts_with("    --")) {
            let flag = line.split_whitespace().next().expect("a flag");
            assert!(
                cli_only.contains(&flag) || setting_of(flag).is_some(),
                "{flag} sets no setting"
            );
        }
    }

    #[test]
    fn every_alias_lands_on_its_key() {
        for (flag, key, value) in [
            ("--vault-design", "vault", "latency"),
            ("--sweep-cores", "cores", "4,8"),
            ("--sweep-scale", "scale", "32,64"),
            ("--sweep-mlp", "mlp", "4,8"),
            ("--sweep-vault", "vault", "table2,latency"),
        ] {
            let (setting, sweep) = setting_of(flag).expect(flag);
            assert_eq!(setting.key, key, "{flag}");
            assert_eq!(sweep, flag.starts_with("--sweep-"), "{flag}");
            let mut want = Scenario::default();
            want.set(key, value).expect("valid value");
            let got = cli(&[flag, value]);
            assert_eq!(got.settings, want, "{flag}");
            assert_eq!(got.sweep, sweep, "{flag}");
        }
        assert_eq!(cli(&["--profile"]).settings.profile, Some(true));
    }

    #[test]
    fn the_later_of_two_flags_wins() {
        let c = cli(&["--sweep-cores", "4,8", "--cores", "16"]);
        assert_eq!(c.settings.cores.as_deref(), Some(&[16usize][..]));
        let c = cli(&["--cores", "16", "--sweep-cores", "4,8"]);
        assert_eq!(c.settings.cores.as_deref(), Some(&[4usize, 8][..]));
        let c = cli(&["--seed", "1", "--seed", "2"]);
        assert_eq!(c.settings.seed, Some(2));
    }

    #[test]
    fn profile_outputs_imply_profile() {
        for flag in ["--profile-json", "--profile-trace"] {
            let c = cli(&[flag, "out.json"]);
            assert_eq!(c.settings.profile, Some(true), "{flag}");
        }
        assert_eq!(cli(&["--json", "out.json"]).settings.profile, None);
    }

    #[test]
    fn bad_values_name_the_flag_and_the_value() {
        for (args, flag, value) in [
            (&["--cores", "4,twelve"][..], "--cores", "4,twelve"),
            (&["--sweep-mlp", "x"][..], "--sweep-mlp", "x"),
            (&["--seed", "-1"][..], "--seed", "-1"),
            (
                &["--workloads", "zipf:bogus=1"][..],
                "--workloads",
                "zipf:bogus=1",
            ),
        ] {
            let msg = parse(args).expect_err(flag).to_string();
            assert!(
                msg.contains(flag) && msg.contains(&format!("'{value}'")),
                "{args:?}: {msg}"
            );
        }
        let msg = parse(&["--cores"]).expect_err("no value").to_string();
        assert!(
            msg.contains("--cores") && msg.contains("needs a value"),
            "{msg}"
        );
    }

    #[test]
    fn a_workload_line_before_the_list_lands_after_it() {
        let path = std::env::temp_dir().join(format!("silo-cli-{}.scenario", std::process::id()));
        std::fs::write(
            &path,
            "workload = code-heavy\nworkloads = zipf-shared\ncores = 2\n",
        )
        .expect("write scenario");
        let mut c = cli(&["--refs", "100"]);
        c.scenario = Some(path.clone());
        let sim = build_simulation(&c);
        std::fs::remove_file(&path).expect("remove scenario");
        let names: Vec<String> = sim
            .expect("builds")
            .spec()
            .workloads
            .iter()
            .map(|w| w.name.clone())
            .collect();
        assert_eq!(names, ["zipf-shared", "code-heavy"]);
    }

    #[test]
    fn ci_sweep_hashes_the_same_as_flags_aliases_and_scenario() {
        let old = hash_of_flags(&[
            "--sweep",
            "--sweep-cores",
            "4,8,16",
            "--sweep-mlp",
            "4,8",
            "--workloads",
            "uniform-private,zipf-shared,producer-consumer",
            "--refs",
            "4000",
            "--threads",
            "4",
        ]);
        let lists = hash_of_flags(&[
            "--cores",
            "4,8,16",
            "--mlp",
            "4,8",
            "--workloads",
            "uniform-private,zipf-shared,producer-consumer",
            "--refs",
            "4000",
            "--threads",
            "4",
        ]);
        let file = hash_of_scenario(
            "cores = 4, 8, 16\nmlp = 4, 8\n\
             workloads = uniform-private, zipf-shared, producer-consumer\n\
             refs = 4000\nthreads = 4\n",
        );
        assert_eq!(old, lists);
        assert_eq!(old, file);
    }

    #[test]
    fn paper_fig11_hashes_the_same_as_its_flag_form() {
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/paper_fig11.scenario");
        let text = std::fs::read_to_string(path).expect("example scenario");
        let flags = hash_of_flags(&[
            "--systems",
            "SILO,baseline,silo-no-forward,baseline-2x",
            "--workloads",
            "uniform-private,producer-consumer,zipf:theta=0.9,footprint=4x",
            "--cores",
            "16",
            "--scale",
            "64",
            "--mlp",
            "8",
            "--vault-design",
            "table2",
            "--seed",
            "42",
            "--refs",
            "4000",
            "--threads",
            "4",
            "--warmup",
            "6400",
            "--epoch",
            "16000",
        ]);
        assert_eq!(flags, hash_of_scenario(&text));
    }
}
