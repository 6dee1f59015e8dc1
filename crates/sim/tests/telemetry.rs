//! Telemetry-subsystem integration tests: warmup-window semantics on
//! the default report path, timeline determinism under the parallel
//! sweep, and epoch-boundary accounting through the full harness.

use silo_coherence::ServedBy;
use silo_sim::{timeline_csv, Json, Simulation};
use silo_telemetry::ServiceLevel;

/// A small zipf comparison; `warmup` is in total references across all
/// cores (4 cores x 2000 refs = 8000 total).
fn zipf_sim(warmup: u64, epoch: Option<u64>, threads: usize) -> Simulation {
    let mut b = Simulation::builder()
        .systems(["SILO", "baseline"])
        .workloads(["zipf-shared"])
        .cores([4])
        .refs_per_core(2_000)
        .seed(11)
        .threads(threads)
        .warmup_refs(warmup);
    if let Some(e) = epoch {
        b = b.epoch_refs(e);
    }
    b.build().expect("valid builder")
}

#[test]
fn warmup_removes_cold_miss_bias_from_the_report_path() {
    // Satellite regression: with a 10% warmup window the served-by-level
    // fractions must come from post-warmup counters only, so the memory
    // fraction (dominated by cold misses early on) drops, and the
    // geomean speedup moves.
    let cold = zipf_sim(0, None, 1).run();
    let warm = zipf_sim(800, None, 1).run();
    for (c, w) in cold[0].runs.iter().zip(&warm[0].runs) {
        let sys = &c.stats.system;
        let cold_mem = c.stats.served.fraction(ServedBy::Memory);
        let warm_mem = w.stats.served.fraction(ServedBy::Memory);
        assert!(
            warm_mem < cold_mem,
            "{sys}: post-warmup memory fraction {warm_mem} not below cold-start {cold_mem}"
        );
        assert!(
            w.stats.served.total() < c.stats.served.total(),
            "{sys}: warmup refs must be excluded from the served counts"
        );
        assert_eq!(
            w.stats.served.total(),
            8_000 - 800,
            "{sys}: measurement window covers exactly the post-warmup refs"
        );
    }
    let cold_speedup = cold[0].speedup().expect("pair present");
    let warm_speedup = warm[0].speedup().expect("pair present");
    assert!(
        (cold_speedup - warm_speedup).abs() > 1e-9,
        "warmup must change the speedup ({cold_speedup} vs {warm_speedup})"
    );
}

#[test]
fn timeline_csv_is_bit_identical_across_sweep_threads() {
    // Satellite: the per-epoch CSV depends only on simulated state, so a
    // parallel sweep renders byte-for-byte the same document as the
    // sequential one.
    let sim = zipf_sim(500, Some(700), 3);
    let par = sim.run();
    let seq = silo_sim::run_sweep(sim.spec(), 1);
    let csv_par = timeline_csv(&par);
    let csv_seq = timeline_csv(&seq);
    assert!(!csv_par.is_empty());
    assert_eq!(csv_par, csv_seq, "parallel CSV diverged from sequential");
}

#[test]
fn epochs_flush_the_partial_tail_and_sum_to_total_refs() {
    // 8000 total refs at 3000/epoch: two full epochs plus a 2000-ref
    // partial one, per system.
    let records = zipf_sim(0, Some(3_000), 1).run();
    for run in &records[0].runs {
        let rows = run.telemetry.timeline.rows();
        assert_eq!(rows.len(), 3, "{}", run.stats.system);
        assert_eq!(rows[0].refs, 3_000);
        assert_eq!(rows[1].refs, 3_000);
        assert_eq!(rows[2].refs, 2_000, "last partial epoch is flushed");
        let total: u64 = rows.iter().map(|r| r.refs).sum();
        assert_eq!(total, 8_000, "epoch ref counts sum to total refs");
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.epoch, i as u64);
            assert!(!row.warmup, "no warmup window configured");
            let served: u64 = row.served.iter().sum();
            assert_eq!(served, row.refs, "every ref is classified");
            assert!(row.ipc() > 0.0);
        }
    }
}

#[test]
fn warmup_epochs_are_flagged_and_measurement_matches_the_tail() {
    // Warmup 4000 at 2000/epoch: the first two epochs are warmup, the
    // last two are measurement; post-warmup instructions reported by the
    // run must equal the instructions of the measurement epochs.
    let records = zipf_sim(4_000, Some(2_000), 1).run();
    for run in &records[0].runs {
        let rows = run.telemetry.timeline.rows();
        let flags: Vec<bool> = rows.iter().map(|r| r.warmup).collect();
        assert_eq!(flags, [true, true, false, false], "{}", run.stats.system);
        let measured: u64 = rows
            .iter()
            .filter(|r| !r.warmup)
            .map(|r| r.instructions)
            .sum();
        assert_eq!(
            measured, run.stats.instructions,
            "{}: measurement epochs must cover exactly the reported instructions",
            run.stats.system
        );
        // SILO serves from vaults, so its vault occupancy shows up in
        // the timeline; the baseline has no vaults at all.
        let vault_busy: u64 = rows.iter().map(|r| r.vault_busy_cycles).sum();
        if run.stats.system == "SILO" {
            assert!(vault_busy > 0, "SILO vaults must be occupied");
            assert!(rows.iter().any(|r| r.vault_occupancy > 0.0));
        } else {
            assert_eq!(vault_busy, 0, "baseline has no vault banks");
        }
        // Mesh pressure is sampled per epoch and sums to the run total.
        let mesh: u64 = rows
            .iter()
            .filter(|r| !r.warmup)
            .map(|r| r.mesh_messages)
            .sum();
        assert_eq!(mesh, run.stats.mesh_messages);
    }
}

#[test]
fn json_telemetry_counters_track_coherence_events_per_system() {
    let records = zipf_sim(0, Some(4_000), 1).run();
    let doc = silo_sim::bench::sweep_json(&records, 11);
    let text = doc.to_string();
    let parsed = Json::parse(&text).expect("document parses");
    let tel = parsed.get("points").and_then(Json::as_arr).expect("points")[0]
        .get("telemetry")
        .and_then(Json::as_arr)
        .expect("per-point telemetry");
    let by_system = |name: &str| {
        tel.iter()
            .find(|t| t.get("system").and_then(Json::as_str) == Some(name))
            .expect("system present")
    };
    let silo = by_system("SILO");
    let base = by_system("baseline");
    let counter = |t: &Json, k: &str| {
        t.get("counters")
            .and_then(|c| c.get(k))
            .and_then(Json::as_u64)
            .expect("counter present")
    };
    // zipf-shared writes to shared lines: both protocols invalidate, but
    // only MOESI performs O-state dirty forwards.
    assert!(counter(silo, "invalidations") > 0);
    assert!(counter(silo, "o_state_forwards") > 0);
    assert_eq!(counter(base, "o_state_forwards"), 0);
    assert!(counter(base, "directory_evictions") > 0);
    assert!(counter(silo, "vault_busy_cycles") > 0);
    assert_eq!(counter(base, "vault_busy_cycles"), 0);
    // Every telemetry row carries interpolated latency percentiles.
    for t in tel {
        let lat = t.get("llc_latency").expect("latency object");
        let p50 = lat.get("p50").and_then(Json::as_f64).expect("p50");
        let p99 = lat.get("p99").and_then(Json::as_f64).expect("p99");
        assert!(p50 <= p99 && p50 > 0.0);
    }
}

#[test]
fn warmup_swallowing_every_reference_is_rejected_at_build_time() {
    // Satellite regression: a measurement window that is provably empty
    // (warmup >= total refs) used to run and report zero-IPC rows with
    // NaN-prone speedups; the builder now rejects it with a typed
    // error. 4 cores x 2000 refs = 8000 total.
    fn build_err(warmup: u64) -> silo_sim::ConfigError {
        Simulation::builder()
            .systems(["SILO", "baseline"])
            .workloads(["zipf-shared"])
            .cores([4])
            .refs_per_core(2_000)
            .warmup_refs(warmup)
            .build()
            .expect_err("empty measurement window must not build")
    }
    for warmup in [8_000, 9_000] {
        match build_err(warmup) {
            silo_sim::ConfigError::BadValue { what, reason, .. } => {
                assert_eq!(what, "warmup");
                assert!(reason.contains("8000"), "reason names the total: {reason}");
            }
            other => panic!("wanted BadValue, got {other:?}"),
        }
    }
    // One reference past the window is measurable again.
    zipf_sim(7_999, None, 1);
}

#[test]
fn warmup_larger_than_the_trace_yields_an_empty_window_not_full_run_stats() {
    // Regression at the run-loop level (the builder rejects this
    // configuration up front, but library callers can still drive
    // `run_metered_source` directly): a warmup window that overshoots
    // the trace must still reset at end of run, so the measurement
    // window is consistently empty — not silently identical to warmup 0.
    use silo_sim::{
        run_metered_source, MeterConfig, SliceTrace, SystemConfig, SystemRegistry, WorkloadSpec,
    };
    let cfg = SystemConfig::paper_16core().with_cores(4);
    let spec = WorkloadSpec {
        refs_per_core: 500,
        ..WorkloadSpec::zipf_shared()
    };
    let traces = spec.generate(cfg.cores, cfg.scale, 11);
    for warmup in [2_000, 9_000] {
        let mut inst = SystemRegistry::builtin()
            .get("SILO")
            .expect("builtin")
            .instantiate(&cfg);
        let (stats, _) = run_metered_source(
            &mut inst.engine,
            &mut inst.timing,
            &cfg,
            &spec.name,
            &mut SliceTrace::new(&traces),
            &MeterConfig {
                warmup_refs: warmup,
                epoch_refs: None,
            },
        );
        assert_eq!(stats.instructions, 0, "warmup {warmup}");
        assert_eq!(stats.served.total(), 0);
        assert_eq!(stats.llc_accesses, 0);
        assert_eq!(stats.mesh_messages, 0);
    }
}

#[test]
fn service_level_columns_cover_every_level() {
    // The CSV serializes the per-level counts in ServiceLevel order;
    // keep the header and the enum in sync.
    for level in ServiceLevel::ALL {
        assert!(
            silo_sim::TIMELINE_HEADER.contains(level.name()),
            "header misses column {}",
            level.name()
        );
    }
}
