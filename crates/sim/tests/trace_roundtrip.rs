//! Trace-subsystem integration tests: the lazy synthetic generator must
//! match materialized generation bit for bit, a capture/replay round
//! trip must reproduce `RunStats` and `silo-bench/v1` JSON rows exactly
//! (per system, across sweep threads), and corrupt or mismatched trace
//! files must surface as typed `ConfigError`s at build time.

use silo_sim::{bench, ConfigError, Simulation, SyntheticTrace, TraceSource, WorkloadSpec};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("silo-trace-it-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn lazy_synthetic_streams_match_materialized_generation_bit_for_bit() {
    for preset in WorkloadSpec::all() {
        let spec = WorkloadSpec {
            refs_per_core: 400,
            ..preset
        };
        let traces = spec.generate(3, 64, 7);
        let mut stream = SyntheticTrace::new(&spec, 3, 64, 7);
        assert_eq!(stream.len_hint(), Some(3 * 400));
        for i in 0..400 {
            for (core, trace) in traces.iter().enumerate() {
                assert_eq!(
                    stream.next(core),
                    Some(trace[i]),
                    "{}: core {core} ref {i} diverged",
                    spec.name
                );
            }
        }
        for core in 0..3 {
            assert_eq!(stream.next(core), None, "{}: core {core}", spec.name);
        }
    }
}

#[test]
fn every_builtin_workload_replays_with_bit_identical_results() {
    let dir = temp_dir("roundtrip");
    let workload_names: Vec<String> = WorkloadSpec::all().iter().map(|w| w.name.clone()).collect();
    let systems = ["SILO", "baseline", "silo-no-forward", "baseline-2x"];
    let direct = Simulation::builder()
        .systems(systems)
        .workloads(workload_names.clone())
        .cores([2])
        .refs_per_core(600)
        .seed(5)
        .threads(3)
        .warmup_refs(200)
        .epoch_refs(500)
        .build()
        .expect("direct sim builds");
    let paths = bench::record_traces(direct.spec(), &dir).expect("capture succeeds");
    assert_eq!(
        paths.len(),
        workload_names.len(),
        "one capture per workload"
    );
    for p in &paths {
        assert!(
            p.extension().and_then(|e| e.to_str()) == Some("silotrace"),
            "{p:?}"
        );
    }
    let mut direct_records = direct.run();

    let replay_specs: Vec<String> = paths
        .iter()
        .map(|p| format!("trace:file={}", p.display()))
        .collect();
    let replay = Simulation::builder()
        .systems(systems)
        .workloads(replay_specs)
        .cores([2])
        .seed(5)
        .threads(3)
        .warmup_refs(200)
        .epoch_refs(500)
        .build()
        .expect("replay sim builds");
    // The builder resolves replay names from the capture headers, so
    // report rows keep the original workload names.
    let resolved: Vec<String> = replay
        .spec()
        .workloads
        .iter()
        .map(|w| w.name.clone())
        .collect();
    assert_eq!(resolved, workload_names);
    let mut replay_records = replay.run();

    assert_eq!(direct_records.len(), replay_records.len());
    for (a, b) in direct_records.iter().zip(&replay_records) {
        assert_eq!(a.runs.len(), b.runs.len());
        for (x, y) in a.runs.iter().zip(&b.runs) {
            // RunStats compares every simulated field.
            assert_eq!(
                x.stats, y.stats,
                "{} {} replay diverged",
                a.point.workload.name, x.stats.system
            );
            assert_eq!(
                x.telemetry.timeline.rows(),
                y.telemetry.timeline.rows(),
                "{} {} timeline diverged",
                a.point.workload.name,
                x.stats.system
            );
        }
    }

    // The full silo-bench/v1 documents are byte-identical once the
    // host-dependent wall clocks are held constant.
    for records in [&mut direct_records, &mut replay_records] {
        for r in records.iter_mut() {
            for run in &mut r.runs {
                run.wall_ms = 0.0;
            }
        }
    }
    let a = bench::sweep_json(&direct_records, 5).to_string();
    let b = bench::sweep_json(&replay_records, 5).to_string();
    assert_eq!(a, b, "JSON documents diverged");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_trace_files_are_rejected_at_build_time() {
    let dir = temp_dir("corrupt");
    let sim = Simulation::builder()
        .workloads(["uniform-private"])
        .cores([2])
        .refs_per_core(200)
        .build()
        .expect("builds");
    let path = bench::record_traces(sim.spec(), &dir).expect("capture")[0].clone();
    let valid = std::fs::read(&path).expect("readable");

    let build_with = |p: &PathBuf| {
        Simulation::builder()
            .workloads([format!("trace:file={}", p.display())])
            .cores([2])
            .build()
    };

    // The pristine file builds.
    build_with(&path).expect("valid capture builds");

    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("missing magic", b"not a trace at all".to_vec()),
        ("truncated header", valid[..10].to_vec()),
        ("truncated records", valid[..valid.len() / 2].to_vec()),
        ("truncated footer", valid[..valid.len() - 3].to_vec()),
        ("flipped record byte", {
            let mut v = valid.clone();
            let mid = v.len() / 2;
            v[mid] ^= 0x20;
            v
        }),
        ("flipped checksum byte", {
            let mut v = valid.clone();
            let last = v.len() - 1;
            v[last] ^= 0x01;
            v
        }),
    ];
    for (what, bytes) in cases {
        let p = dir.join("bad.silotrace");
        std::fs::write(&p, bytes).expect("write corrupt file");
        let err = build_with(&p).expect_err(what);
        assert!(
            matches!(err, ConfigError::Trace { .. }),
            "{what}: wanted ConfigError::Trace, got {err:?}"
        );
    }

    // A missing file is a trace error too, reported with its path.
    let ghost = dir.join("ghost.silotrace");
    match build_with(&ghost).expect_err("missing file") {
        ConfigError::Trace { path, .. } => assert!(path.contains("ghost")),
        other => panic!("wanted ConfigError::Trace, got {other:?}"),
    }

    // Paths that bypass the builder hit the same validation:
    // WorkloadSpec::source verifies before streaming, so a truncated
    // file cannot silently truncate a `SystemSpec::run` replay.
    let p = dir.join("bad.silotrace");
    std::fs::write(&p, &valid[..valid.len() / 2]).expect("write corrupt file");
    let w = WorkloadSpec::parse(&format!("trace:file={}", p.display())).expect("parses");
    assert!(
        matches!(w.source(2, 64, 0), Err(ConfigError::Trace { .. })),
        "source() must reject unverifiable files"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warmup_check_uses_exact_record_counts_for_uneven_traces() {
    // Per-core streams of 100 and 50 records: refs_per_core resolves to
    // the longest stream (100), but the warmup check must use the exact
    // 150-record total — a 160-ref warmup swallows everything and has
    // to be rejected, even though 100 x 2 cores would suggest headroom.
    use silo_types::{LineAddr, MemRef};
    let dir = temp_dir("uneven");
    let path = dir.join("uneven.silotrace");
    let header = silo_sim::TraceHeader {
        cores: 2,
        refs_per_core: 100,
        seed: 0,
        name: "uneven".into(),
        provenance: "test".into(),
    };
    let traces: Vec<Vec<MemRef>> = vec![
        (0..100).map(|i| MemRef::read(LineAddr::new(i))).collect(),
        (0..50).map(|i| MemRef::read(LineAddr::new(i))).collect(),
    ];
    silo_trace::write_traces(&path, &header, &traces).expect("write");
    let build_with_warmup = |warmup: u64| {
        Simulation::builder()
            .workloads([format!("trace:file={}", path.display())])
            .cores([2])
            .warmup_refs(warmup)
            .build()
    };
    let err = build_with_warmup(160).expect_err("warmup swallows all 150 refs");
    match err {
        ConfigError::BadValue { what, reason, .. } => {
            assert_eq!(what, "warmup");
            assert!(reason.contains("150"), "exact total in message: {reason}");
        }
        other => panic!("wanted ConfigError::BadValue, got {other:?}"),
    }
    build_with_warmup(149).expect("one measurable ref remains");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_capture_replays_alongside_its_source_workload() {
    // The natural one-run validation of record/replay determinism:
    // select the synthetic workload AND its own capture. Uniqueness is
    // judged on the specs as typed, so this must build, and the two
    // rows must carry bit-identical stats under the shared name.
    let dir = temp_dir("alongside");
    let seeded = Simulation::builder()
        .workloads(["shared-mix"])
        .cores([2])
        .refs_per_core(300)
        .seed(21)
        .build()
        .expect("builds");
    let path = bench::record_traces(seeded.spec(), &dir).expect("capture")[0].clone();

    let both = Simulation::builder()
        .workloads([
            "shared-mix".to_string(),
            format!("trace:file={}", path.display()),
        ])
        .cores([2])
        .refs_per_core(300)
        .seed(21)
        .build()
        .expect("replay alongside its source must not be a duplicate");
    let records = silo_sim::run_sweep(both.spec(), 1);
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].point.workload.name, "shared-mix");
    assert_eq!(records[1].point.workload.name, "shared-mix");
    for (a, b) in records[0].runs.iter().zip(&records[1].runs) {
        assert_eq!(a.stats, b.stats, "replay diverged from its source");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replays_reject_core_count_mismatches_and_empty_traces() {
    let dir = temp_dir("mismatch");
    let sim = Simulation::builder()
        .workloads(["pointer-chase"])
        .cores([2])
        .refs_per_core(150)
        .build()
        .expect("builds");
    let path = bench::record_traces(sim.spec(), &dir).expect("capture")[0].clone();

    // Recorded with 2 cores; replaying at 4 must fail with a message
    // naming both counts.
    let err = Simulation::builder()
        .workloads([format!("trace:file={}", path.display())])
        .cores([4])
        .build()
        .expect_err("core mismatch");
    match err {
        ConfigError::Trace { message, .. } => {
            assert!(message.contains('2') && message.contains('4'), "{message}");
        }
        other => panic!("wanted ConfigError::Trace, got {other:?}"),
    }

    // A zero-record capture resolves to zero references: rejected so
    // IPC and speedups cannot go undefined (NaN regression guard).
    let empty = dir.join("empty.silotrace");
    let header = silo_sim::TraceHeader {
        cores: 2,
        refs_per_core: 0,
        seed: 0,
        name: "empty".into(),
        provenance: "test".into(),
    };
    silo_trace::write_traces(&empty, &header, &[Vec::new(), Vec::new()]).expect("write empty");
    let err = Simulation::builder()
        .workloads([format!("trace:file={}", empty.display())])
        .cores([2])
        .build()
        .expect_err("empty trace");
    match err {
        ConfigError::BadValue { what, reason, .. } => {
            assert!(what.contains("empty"), "names the workload: {what}");
            assert!(reason.contains("zero references"), "{reason}");
        }
        other => panic!("wanted ConfigError::BadValue, got {other:?}"),
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_spec_grammar_is_validated_without_io() {
    for bad in [
        "trace",
        "trace:",
        "trace:file=",
        "trace:bogus=1",
        "trace:file",
    ] {
        assert!(
            matches!(
                WorkloadSpec::parse(bad),
                Err(ConfigError::BadWorkloadSpec { .. })
            ),
            "'{bad}' must be rejected"
        );
    }
    let w = WorkloadSpec::parse("trace:file=some/dir/x.silotrace").expect("parses without IO");
    assert_eq!(
        w.trace_file.as_deref(),
        Some(std::path::Path::new("some/dir/x.silotrace"))
    );
    assert_eq!(w.name, "trace:file=some/dir/x.silotrace");
}

#[test]
fn record_traces_skips_replay_workloads() {
    // Capture a trace, then build a mixed direct+replay selection:
    // recording that run must only capture the generator-backed
    // workload, not re-capture the replay.
    let dir = temp_dir("skip");
    let seeded = Simulation::builder()
        .workloads(["code-heavy"])
        .cores([2])
        .refs_per_core(120)
        .build()
        .expect("builds");
    let captured = bench::record_traces(seeded.spec(), &dir).expect("capture")[0].clone();

    let mixed = Simulation::builder()
        .workloads([
            "uniform-private".to_string(),
            format!("trace:file={}", captured.display()),
        ])
        .cores([2])
        .refs_per_core(120)
        .build()
        .expect("mixed builds");
    let out = temp_dir("skip-out");
    let written = bench::record_traces(mixed.spec(), &out).expect("capture");
    let names: Vec<String> = written
        .iter()
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, ["uniform-private-c2-s64.silotrace"]);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&out);
}
