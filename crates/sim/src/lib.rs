//! `silo-sim`: the timing core of the SILO reproduction, usable as a
//! library or through the `silo-sim` CLI.
//!
//! The coherence engines in `silo-coherence` are functional: each access
//! yields an [`silo_coherence::AccessResult`] listing the critical-path
//! protocol steps and the background work. This crate prices those steps
//! — mesh hops through `silo-noc`, DRAM bank occupancy through
//! `silo-dram`'s next-free-time reservations — models per-core miss
//! overlap from [`silo_types::MemRef`]'s `gap_instructions`/`dependent`
//! fields, and aggregates `silo_types::stats` into per-workload results.
//!
//! The public API is scenario-first:
//!
//! * [`registry`] — a [`SystemRegistry`] of named [`SystemSpec`]
//!   factories, each producing an [`AnyEngine`] plus its
//!   [`TimingModel`]: the paper's SILO/baseline pair plus sensitivity
//!   variants (`silo-no-forward`, `baseline-2x`), extensible at runtime.
//!   [`SystemSpec::run`] instantiates a system and drives it through
//!   [`run_with`], whose [`RunMode`] selects a plain, invariant-checked
//!   (`--check`), or self-profiled (`--profile`) run. All three take one
//!   batch loop, with the engine stage on a helper thread on multi-CPU
//!   hosts and inline on one-CPU hosts.
//! * [`builder`] — [`Simulation::builder`] composes configs, systems,
//!   workloads, and sweep axes; `build()` returns typed
//!   [`ConfigError`]s instead of panicking.
//! * [`scenario`] — a dependency-free `key = value` scenario-file
//!   format describing a whole comparison, loaded via `--scenario`.
//!
//! The [`mod@bench`] module fans sweeps over (workload × cores × scale ×
//! mlp × vault design) out across OS threads and emits machine-readable
//! `silo-bench/v1` JSON through the dependency-free [`json`] module.
//!
//! The run loop streams: every run pulls references in round-robin
//! batches from a [`TraceSource`] (`silo-trace`) — the lazy synthetic generator
//! ([`SyntheticTrace`]), an in-memory slice, or a `.silotrace` replay
//! file — so trace length is bounded by disk, not RAM.
//! [`bench::record_traces`] (CLI `--record-traces DIR`) captures
//! generated workloads to versioned, checksummed binary files, the
//! `trace:file=PATH` workload spec replays them with result rows
//! byte-identical to the original synthetic run at the same seed, and
//! `silo-sim trace-info FILE` inspects captures.
//!
//! Measurement runs through the `silo-telemetry` subsystem: a
//! [`MeterConfig`] (`--warmup` / `--epoch`, scenario `warmup =` /
//! `epoch =`) adds a warmup window that resets measurement counters
//! while preserving simulated state, plus an epoch-sampled timeline
//! (IPC, served-by-level counts, LLC latency percentiles, mesh link
//! utilization, vault occupancy) exported as CSV by the [`mod@timeline`]
//! module and as an additive `telemetry` object in the JSON.
//!
//! # Library example
//!
//! ```
//! use silo_sim::{ConfigError, Simulation};
//!
//! let sim = Simulation::builder()
//!     .systems(["SILO", "baseline", "baseline-2x"])
//!     .workloads(["uniform-private", "zipf:theta=0.9,footprint=4x"])
//!     .cores([4])
//!     .refs_per_core(500)
//!     .seed(7)
//!     .threads(2)
//!     .build()?;
//! let records = sim.run();
//! assert_eq!(records.len(), 2); // one record per workload
//! for record in &records {
//!     assert_eq!(record.runs.len(), 3); // one run per system
//!     let speedup = record.speedup().expect("SILO and baseline ran");
//!     assert!(speedup.is_finite());
//! }
//! # Ok::<(), ConfigError>(())
//! ```

#![forbid(unsafe_code)]

pub mod bench;
pub mod builder;
pub mod canon;
pub mod config;
pub mod error;
pub mod json;
pub mod registry;
pub mod report;
pub mod run;
pub mod scenario;
pub mod serve;
pub mod timeline;
pub mod timing;
pub mod workload;

pub use bench::{
    record_traces, run_sweep, run_sweep_sequential, BenchRecord, SweepPoint, SweepSpec, SystemRun,
};
pub use builder::{Simulation, SimulationBuilder};
pub use config::{SystemConfig, VaultDesign};
pub use error::ConfigError;
pub use json::Json;
pub use registry::{SystemInstance, SystemRegistry, SystemSpec};
pub use report::{name_widths, print_report, render_report, render_row};
pub use run::{
    run_metered_source, run_with, AnyEngine, Protocol, RunMode, RunOutput, RunStats, ServedCounts,
    PROFILE_PHASES, PROFILE_TREE,
};
pub use scenario::Scenario;
pub use serve::{SimJob, SimJobEngine};
pub use silo_telemetry::{MeterConfig, Telemetry};
pub use silo_trace::{
    SliceTrace, TraceError, TraceHeader, TraceReader, TraceSource, TraceSummary, TraceWriter,
};
pub use timeline::{timeline_csv, write_timeline_csv, TIMELINE_HEADER};
pub use timing::TimingModel;
pub use workload::{Rng, SyntheticTrace, WorkloadSpec};
