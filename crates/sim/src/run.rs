//! The simulation loop: drives a protocol engine over a workload trace
//! and prices every access with a [`TimingModel`].
//!
//! Core model (Sec. V-A: in-order scale-out cores with a few MSHRs):
//! each core retires `gap_instructions` at base CPI 1 between references,
//! SRAM hits are absorbed by the pipeline, and misses overlap up to the
//! MSHR limit unless the reference is `dependent` on the previous miss
//! (pointer chasing), which serialises.
//!
//! The loop is *streaming*: it pulls references from a [`TraceSource`] —
//! a lazy synthetic generator, a `.silotrace` file reader, or an
//! in-memory slice — so trace length is bounded by disk, not RAM.
//!
//! [`run_with`] is the one entry point. Its [`RunMode`] picks the plain,
//! invariant-checked (`--check`), or self-profiled (`--profile`) build
//! of the loop once per run, and every mode returns the same simulated
//! [`RunOutput`] for the same reference stream.
//! [`crate::SystemSpec::run`] instantiates a registered system and calls
//! it; [`run_metered_source`] is its plain-mode shorthand.
//!
//! The engine never reads a cycle: the timing side only consumes its
//! [`Step`]/[`Background`] output. So a plain run may take a two-stage
//! schedule: a helper thread runs the engine over batches of references
//! while the calling thread pulls the trace and retires each batch's
//! results through the MSHRs, the [`TimingModel`] and the telemetry. It
//! does so whenever the host has more than one thread (see [`run_with`]).
//! Both schedules retire every access through one function in one order,
//! so their output is byte-identical. Checked and profiled runs always
//! take the one-thread schedule.
//!
//! Every run drives the telemetry subsystem: a [`MeterConfig`] warmup
//! window resets the measurement aggregates mid-run (cache, directory,
//! and bank-timing state are preserved) and an epoch
//! [`silo_telemetry::Timeline`] samples IPC, served-by-level counts, LLC
//! latency percentiles, mesh link utilization, and vault occupancy every
//! `epoch_refs` references.

use crate::config::SystemConfig;
use crate::timing::{TimingModel, TimingProbe, TIMING_SUBPHASES, TP_MSHR};
use silo_coherence::{
    AccessResult, Background, CoherenceStats, EngineProbe, PrivateMoesi, ServedBy, SharedMesi,
    Step, ENGINE_SUBPHASES,
};
use silo_obs::{Lap, PhaseProfile};
use silo_telemetry::{EpochEnv, MeterConfig, Recorder, ServiceLevel, Telemetry, Timeline};
use silo_trace::TraceSource;
use silo_types::stats::{ratio, Counter, Histogram};
use silo_types::{Cycles, LineAddr, MemRef};
use std::num::{NonZeroU64, NonZeroUsize};
use std::panic;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::OnceLock;
use std::thread;
use std::time::Instant;

/// A protocol engine the simulation loop can drive. [`AnyEngine`]
/// implements it for the built-in engines; tests implement it to inject
/// faults. `Send`, because a plain run may execute the engine on a
/// helper thread.
pub trait Protocol: Send {
    /// Executes one reference from `core`, writing into a caller-owned
    /// result so a hot loop can reuse the step buffers across accesses.
    fn access_into(&mut self, core: usize, mr: MemRef, out: &mut AccessResult);
    /// [`Protocol::access_into`] with sub-phase wall-clock attribution
    /// for the profiled run path: the engine laps its internal segments
    /// (lookup, directory, fill, writeback) into `probe` as it goes.
    fn access_into_probed(
        &mut self,
        core: usize,
        mr: MemRef,
        out: &mut AccessResult,
        probe: &mut EngineProbe,
    );
    /// Hints that `core` will access `line` shortly (the run loop issues
    /// this one round-robin turn ahead of the matching
    /// [`Protocol::access_into`]). Implementations may warm host-side
    /// caches but must not change any observable simulation state.
    fn prefetch(&self, core: usize, mr: MemRef);
    /// Display name of the system.
    fn system_name(&self) -> &str;
    /// The engine's coherence event counters.
    fn coherence_stats(&self) -> CoherenceStats;
    /// Zeroes the coherence event counters without touching protocol
    /// state (the warmup/measurement boundary).
    fn reset_coherence_stats(&mut self);
    /// Verifies the engine's structural invariants (directory caches,
    /// cache/directory agreement, occupancy). Called by the `--check`
    /// oracle.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    fn check_invariants(&self) -> Result<(), String>;
}

/// The engine holder the registry instantiates: one variant per
/// built-in engine, so driving one through [`run_with`]`::<AnyEngine>`
/// turns the per-reference `access_into` call into a direct (inlinable)
/// match arm instead of a vtable dispatch.
pub enum AnyEngine {
    /// The SILO private-vault MOESI engine (either forwarding variant).
    Silo(PrivateMoesi),
    /// The shared-LLC MESI baseline (any capacity).
    Baseline(SharedMesi),
}

impl Protocol for AnyEngine {
    #[inline]
    fn access_into(&mut self, core: usize, mr: MemRef, out: &mut AccessResult) {
        match self {
            AnyEngine::Silo(e) => PrivateMoesi::access_into(e, core, mr, out),
            AnyEngine::Baseline(e) => SharedMesi::access_into(e, core, mr, out),
        }
    }
    #[inline]
    fn access_into_probed(
        &mut self,
        core: usize,
        mr: MemRef,
        out: &mut AccessResult,
        probe: &mut EngineProbe,
    ) {
        match self {
            AnyEngine::Silo(e) => PrivateMoesi::access_into_probed(e, core, mr, out, probe),
            AnyEngine::Baseline(e) => SharedMesi::access_into_probed(e, core, mr, out, probe),
        }
    }
    #[inline]
    fn prefetch(&self, core: usize, mr: MemRef) {
        match self {
            AnyEngine::Silo(e) => e.prefetch_hint(core, mr.line),
            AnyEngine::Baseline(e) => e.prefetch_hint(mr.line),
        }
    }
    fn system_name(&self) -> &str {
        match self {
            AnyEngine::Silo(_) => "SILO",
            AnyEngine::Baseline(_) => "baseline",
        }
    }
    fn coherence_stats(&self) -> CoherenceStats {
        match self {
            AnyEngine::Silo(e) => e.stats(),
            AnyEngine::Baseline(e) => e.stats(),
        }
    }
    fn reset_coherence_stats(&mut self) {
        match self {
            AnyEngine::Silo(e) => e.reset_stats(),
            AnyEngine::Baseline(e) => e.reset_stats(),
        }
    }
    fn check_invariants(&self) -> Result<(), String> {
        match self {
            AnyEngine::Silo(e) => e.check(),
            AnyEngine::Baseline(e) => e.check(),
        }
    }
}

impl From<PrivateMoesi> for AnyEngine {
    fn from(e: PrivateMoesi) -> Self {
        AnyEngine::Silo(e)
    }
}

impl From<SharedMesi> for AnyEngine {
    fn from(e: SharedMesi) -> Self {
        AnyEngine::Baseline(e)
    }
}

/// Phase labels of the hot-loop self-profiler, in index order: trace
/// pull (source + prefetch hint), engine step (`access_into`), timing
/// (MSHR bookkeeping + `TimingModel::charge`), and telemetry (epoch
/// sampling; zero samples when the meter is disabled).
pub const PROFILE_PHASES: [&str; 4] = ["trace_pull", "engine_step", "timing", "telemetry"];

/// Index of `trace_pull` in [`PROFILE_PHASES`].
const PH_TRACE: usize = 0;
/// Index of `engine_step` in [`PROFILE_PHASES`].
const PH_ENGINE: usize = 1;
/// Index of `timing` in [`PROFILE_PHASES`].
const PH_TIMING: usize = 2;
/// Index of `telemetry` in [`PROFILE_PHASES`].
const PH_TELEMETRY: usize = 3;

/// Index of the first engine sub-phase in the profiled phase tree (the
/// [`ENGINE_SUBPHASES`] buckets, children of `engine_step`).
const PH_ENGINE_CHILD0: usize = PROFILE_PHASES.len();
/// Index of the first timing sub-phase in the profiled phase tree (the
/// [`TIMING_SUBPHASES`] buckets, children of `timing`).
const PH_TIMING_CHILD0: usize = PH_ENGINE_CHILD0 + ENGINE_SUBPHASES.len();

/// The profiled run's full phase tree: the four [`PROFILE_PHASES`]
/// roots, then the [`ENGINE_SUBPHASES`] as children of `engine_step`,
/// then the [`TIMING_SUBPHASES`] as children of `timing`. Each
/// sub-phase group tiles its parent exactly — the lap probes take one
/// clock read per segment boundary, so children sum to the parent by
/// construction.
pub fn profile_phase_tree() -> Vec<(&'static str, Option<usize>)> {
    let mut tree: Vec<(&'static str, Option<usize>)> =
        PROFILE_PHASES.iter().map(|&l| (l, None)).collect();
    tree.extend(ENGINE_SUBPHASES.iter().map(|&l| (l, Some(PH_ENGINE))));
    tree.extend(TIMING_SUBPHASES.iter().map(|&l| (l, Some(PH_TIMING))));
    tree
}

/// Nanoseconds since `t`, saturating at `u64::MAX`.
#[inline]
fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The telemetry-side service-level tag of a coherence classification.
fn service_level(s: ServedBy) -> ServiceLevel {
    match s {
        ServedBy::L1 => ServiceLevel::L1,
        ServedBy::L2 => ServiceLevel::L2,
        ServedBy::LocalVault => ServiceLevel::LocalVault,
        ServedBy::RemoteVault => ServiceLevel::RemoteVault,
        ServedBy::SharedLlc => ServiceLevel::SharedLlc,
        ServedBy::Memory => ServiceLevel::Memory,
    }
}

/// Per-service-level access counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServedCounts {
    /// L1 hits.
    pub l1: Counter,
    /// Private L2 hits.
    pub l2: Counter,
    /// Local-vault hits (SILO).
    pub local_vault: Counter,
    /// Remote-vault forwards (SILO).
    pub remote_vault: Counter,
    /// Shared-LLC hits including directory forwards (baseline).
    pub shared_llc: Counter,
    /// Main-memory accesses.
    pub memory: Counter,
}

impl ServedCounts {
    fn record(&mut self, s: ServedBy) {
        match s {
            ServedBy::L1 => self.l1.inc(),
            ServedBy::L2 => self.l2.inc(),
            ServedBy::LocalVault => self.local_vault.inc(),
            ServedBy::RemoteVault => self.remote_vault.inc(),
            ServedBy::SharedLlc => self.shared_llc.inc(),
            ServedBy::Memory => self.memory.inc(),
        }
    }

    /// Total classified accesses.
    pub fn total(&self) -> u64 {
        self.l1.get()
            + self.l2.get()
            + self.local_vault.get()
            + self.remote_vault.get()
            + self.shared_llc.get()
            + self.memory.get()
    }

    /// Fraction of accesses served at the given level.
    pub fn fraction(&self, s: ServedBy) -> f64 {
        let n = match s {
            ServedBy::L1 => self.l1.get(),
            ServedBy::L2 => self.l2.get(),
            ServedBy::LocalVault => self.local_vault.get(),
            ServedBy::RemoteVault => self.remote_vault.get(),
            ServedBy::SharedLlc => self.shared_llc.get(),
            ServedBy::Memory => self.memory.get(),
        };
        ratio(n, self.total())
    }
}

/// Aggregated results of one (system, workload) run.
///
/// `PartialEq` compares every simulated field, so tests can assert two
/// runs are bit-identical (e.g. profiled vs. plain runs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStats {
    /// Registry name of the system ("SILO", "baseline", or a variant).
    pub system: String,
    /// Workload name (preset name or the custom spec string).
    pub workload: String,
    /// Instructions retired across all cores.
    pub instructions: u64,
    /// Makespan: the slowest core's finish cycle.
    pub cycles: Cycles,
    /// Per-level service counts.
    pub served: ServedCounts,
    /// Accesses that missed all SRAM levels (the paper's "LLC accesses").
    pub llc_accesses: u64,
    /// Critical-path latency distribution of LLC accesses.
    pub llc_latency: Histogram,
    /// Mesh messages sent.
    pub mesh_messages: u64,
    /// Total hops traversed by those messages.
    pub mesh_total_hops: u64,
    /// Flits carried by the busiest mesh link.
    pub mesh_max_link_flits: u64,
}

impl RunStats {
    /// Aggregate instructions per cycle (throughput over the makespan).
    pub fn ipc(&self) -> f64 {
        ratio(self.instructions, self.cycles.as_u64().max(1))
    }

    /// Mean critical-path latency of an LLC access, in cycles.
    pub fn mean_llc_latency(&self) -> f64 {
        self.llc_latency.mean()
    }

    /// Mean hops per mesh message (interconnect pressure, Sec. V-D).
    pub fn avg_hops(&self) -> f64 {
        ratio(self.mesh_total_hops, self.mesh_messages)
    }
}

/// A core's MSHR file: the completion times of its outstanding misses,
/// in a fixed-capacity inline buffer sized by `cfg.mlp` so the
/// per-miss path never allocates. Entries are an unordered multiset —
/// the stall rules below depend only on the completion-time *values*
/// (drop everything `<= issue`, stall to the minimum when full), so
/// removal is swap-with-last and the results stay bit-identical to the
/// old growable-`Vec` bookkeeping.
#[derive(Clone, Debug)]
struct Mshrs {
    done: Box<[Cycles]>,
    len: usize,
}

impl Mshrs {
    fn new(mlp: usize) -> Self {
        Mshrs {
            done: vec![Cycles::ZERO; mlp].into_boxed_slice(),
            len: 0,
        }
    }

    /// Retires every miss completed by the issue point.
    #[inline]
    fn drop_completed(&mut self, issue: Cycles) {
        let mut i = 0;
        while i < self.len {
            if self.done[i] <= issue {
                self.len -= 1;
                self.done[i] = self.done[self.len];
            } else {
                i += 1;
            }
        }
    }

    /// Frees a slot for the next miss: while every MSHR is busy, stall
    /// to the earliest-completing one and retire it (not the
    /// oldest-issued — a slow memory access must not pin MSHRs that
    /// vault hits have already vacated). Returns the possibly-delayed
    /// issue time.
    #[inline]
    fn acquire(&mut self, mut issue: Cycles) -> Cycles {
        while self.len >= self.done.len() {
            let mut idx = 0;
            for j in 1..self.len {
                if self.done[j] < self.done[idx] {
                    idx = j;
                }
            }
            issue = issue.max(self.done[idx]);
            self.len -= 1;
            self.done[idx] = self.done[self.len];
        }
        issue
    }

    /// Records a newly issued miss. Call only after [`Mshrs::acquire`],
    /// which guarantees a free slot.
    #[inline]
    fn push(&mut self, done: Cycles) {
        self.done[self.len] = done;
        self.len += 1;
    }
}

/// One core's in-flight state.
#[derive(Clone, Debug)]
struct CoreState {
    /// Retirement cursor (compute cycles consumed so far).
    cursor: Cycles,
    /// Outstanding misses (unordered; completions are not monotonic
    /// across banks and memory).
    mshrs: Mshrs,
    /// Completion of the most recent miss (dependency target).
    last_miss: Cycles,
    /// Latest completion seen (finish time candidate).
    finish: Cycles,
    instructions: u64,
}

impl CoreState {
    fn new(mlp: usize) -> Self {
        CoreState {
            cursor: Cycles::ZERO,
            mshrs: Mshrs::new(mlp),
            last_miss: Cycles::ZERO,
            finish: Cycles::ZERO,
            instructions: 0,
        }
    }
}

/// The two views of the LLC critical-path latency distribution, filled
/// by a single recording call per miss: the fixed-width histogram
/// reported in [`RunStats::llc_latency`] and the log2 histogram
/// exported through the telemetry recorder.
struct LatencyHists {
    linear: Histogram,
    log: Histogram,
}

impl LatencyHists {
    fn new() -> Self {
        LatencyHists {
            linear: Histogram::new(16, 64),
            log: Histogram::log2(),
        }
    }

    #[inline]
    fn record(&mut self, lat: u64) {
        self.linear.record(lat);
        self.log.record(lat);
    }

    fn reset(&mut self) {
        self.linear.reset();
        self.log.reset();
    }
}

/// The slowest core's current position: the makespan so far.
fn makespan(cores: &[CoreState]) -> Cycles {
    cores
        .iter()
        .map(|c| c.finish.max(c.cursor))
        .max()
        .unwrap_or(Cycles::ZERO)
}

/// Cumulative counter values at the warmup boundary; the measurement
/// window reports everything as a delta against these (shared timing
/// resources cannot simply be reset — that would discard bank
/// reservations and change the simulation).
#[derive(Clone, Debug, Default)]
struct MeasureBase {
    instructions: u64,
    cycles: u64,
    mesh_messages: u64,
    mesh_hops: u64,
    link_flits: Vec<u64>,
    vault_busy: u64,
    memory_accesses: u64,
}

/// The cumulative environment snapshot handed to the timeline at an
/// epoch boundary.
fn epoch_env<'a>(
    cores: &[CoreState],
    timing: &'a TimingModel,
    meter: &MeterConfig,
) -> EpochEnv<'a> {
    EpochEnv {
        cycles: makespan(cores).as_u64(),
        mesh_messages: timing.mesh().messages(),
        link_flits: timing.mesh().link_flits(),
        vault_busy_cycles: timing.vault_busy_cycles(),
        vault_banks: timing.vault_banks_total(),
        warmup_refs: meter.warmup_refs,
    }
}

/// Cumulative-counter snapshot the `--check` oracle compares against:
/// these counters are monotone by construction (never reset, not even at
/// the warmup boundary — the measurement window subtracts a baseline
/// instead), so any decrease means corrupted accounting.
#[derive(Clone, Copy, Debug, Default)]
struct OracleBase {
    mesh_messages: u64,
    mesh_hops: u64,
    memory_accesses: u64,
    vault_busy: u64,
}

impl OracleBase {
    fn capture(timing: &TimingModel) -> Self {
        OracleBase {
            mesh_messages: timing.mesh().messages(),
            mesh_hops: timing.mesh().total_hops(),
            memory_accesses: timing.memory_accesses(),
            vault_busy: timing.vault_busy_cycles(),
        }
    }
}

/// One oracle sweep: the engine's own structural invariants, the MSHR
/// occupancy bound, and monotonicity of the cumulative timing counters.
/// `#[cold]` keeps it off the hot loop's inlining budget — with
/// checking disabled the call site is compiled out entirely.
#[cold]
fn oracle_sweep<P: Protocol + ?Sized>(
    engine: &P,
    timing: &TimingModel,
    cores: &[CoreState],
    mlp: usize,
    processed: u64,
    prev: &mut OracleBase,
) -> Result<(), String> {
    engine
        .check_invariants()
        .map_err(|e| format!("after {processed} refs: {e}"))?;
    for (c, core) in cores.iter().enumerate() {
        if core.mshrs.len > mlp {
            return Err(format!(
                "after {processed} refs: core {c} holds {} in-flight misses, MSHR limit {mlp}",
                core.mshrs.len
            ));
        }
    }
    let cur = OracleBase::capture(timing);
    let monotone = [
        ("mesh messages", prev.mesh_messages, cur.mesh_messages),
        ("mesh hops", prev.mesh_hops, cur.mesh_hops),
        ("memory accesses", prev.memory_accesses, cur.memory_accesses),
        ("vault busy cycles", prev.vault_busy, cur.vault_busy),
    ];
    for (name, before, now) in monotone {
        if now < before {
            return Err(format!(
                "after {processed} refs: cumulative {name} went backwards ({before} -> {now})"
            ));
        }
    }
    *prev = cur;
    Ok(())
}

/// How [`run_with`] drives the hot loop. Each mode runs its own
/// monomorphization of the loop, chosen once per run, so the
/// per-reference path never tests the mode. Every mode only observes
/// the simulation: the statistics and telemetry of a run are
/// **bit-identical** across modes (the golden `check_oracle` and the
/// profiled-sweep tests pin this).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RunMode {
    /// Simulate only; the oracle and the profiler are compiled out.
    #[default]
    Plain,
    /// The run-time invariant oracle (`--check`): every `n` processed
    /// references it replays the engine's structural invariants plus
    /// the loop's own cross-layer assertions, and aborts the run with a
    /// located error on the first violation.
    Checked(NonZeroU64),
    /// The hot-loop self-profiler (`--profile`): each of the
    /// [`PROFILE_PHASES`] is wall-clock sampled per reference (trace
    /// pull per round), and the engine and timing phases are further
    /// attributed to the [`profile_phase_tree`] sub-phases by lap
    /// probes.
    Profiled,
}

/// Everything one run produces.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The simulated statistics.
    pub stats: RunStats,
    /// Named counters, latency histograms, and the epoch timeline
    /// (empty under a disabled meter).
    pub telemetry: Telemetry,
    /// Per-phase wall-clock of the hot loop, present only under
    /// [`RunMode::Profiled`].
    pub profile: Option<PhaseProfile>,
}

/// The loop's signature, shared by its three monomorphizations.
type RunCore<P> = fn(
    &mut P,
    &mut TimingModel,
    &SystemConfig,
    &str,
    &mut dyn TraceSource,
    &MeterConfig,
    u64,
) -> Result<RunOutput, String>;

/// Drives `engine` over `source`, pricing every access with `timing`.
/// Cores are interleaved round-robin — one reference per live core per
/// turn — until every core's stream is exhausted, which keeps
/// file-backed replay memory bounded by the reader's buffer instead of
/// the trace length.
///
/// After `meter.warmup_refs` processed references the measurement
/// aggregates reset (simulated state is untouched), and every
/// `meter.epoch_refs` references the timeline records an epoch sample.
///
/// A [`RunMode::Plain`] run takes the two-stage schedule (engine on a
/// helper thread) when `std::thread::available_parallelism()` reports
/// more than one host thread; on a one-thread host, and in every other
/// mode, the run takes one thread. The output is the same either way.
///
/// # Errors
///
/// Only under [`RunMode::Checked`]: returns the first invariant
/// violation, prefixed with the number of references processed when it
/// was detected. A violation indicates a simulator bug, not a workload
/// problem.
pub fn run_with<P: Protocol + ?Sized>(
    engine: &mut P,
    timing: &mut TimingModel,
    cfg: &SystemConfig,
    workload_name: &str,
    source: &mut dyn TraceSource,
    meter: &MeterConfig,
    mode: RunMode,
) -> Result<RunOutput, String> {
    Schedule::of(mode).run(engine, timing, cfg, workload_name, source, meter)
}

/// [`run_with`] in [`RunMode::Plain`], which cannot fail.
pub fn run_metered_source<P: Protocol + ?Sized>(
    engine: &mut P,
    timing: &mut TimingModel,
    cfg: &SystemConfig,
    workload_name: &str,
    source: &mut dyn TraceSource,
    meter: &MeterConfig,
) -> (RunStats, Telemetry) {
    let out = run_with(
        engine,
        timing,
        cfg,
        workload_name,
        source,
        meter,
        RunMode::Plain,
    )
    .unwrap_or_else(|e| unreachable!("unchecked runs cannot fail: {e}"));
    (out.stats, out.telemetry)
}

/// How a run is laid out on host threads. [`run_with`] picks one per run
/// ([`Schedule::of`]); tests force one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Schedule {
    /// One thread runs the loop of the given mode, engine then timing for
    /// each reference.
    Sequential(RunMode),
    /// A plain run in two stages: a helper thread runs the engine over
    /// batches of references while the calling thread pulls the trace
    /// and retires the engine's results ([`run_pipelined`]).
    Pipelined,
}

impl Schedule {
    /// The schedule of a `mode` run: two stages for a plain run on a host
    /// with more than one thread, else one thread. A sweep that already
    /// keeps every core busy loses nothing by it: measured on a 2-vCPU
    /// host, `silo-sim bench` and the default CLI sweep at two worker
    /// threads took the same wall time with every run pipelined as with
    /// runs kept on one thread while both cores were busy.
    pub(crate) fn of(mode: RunMode) -> Schedule {
        if mode == RunMode::Plain && host_threads() >= 2 {
            Schedule::Pipelined
        } else {
            Schedule::Sequential(mode)
        }
    }

    /// Runs the loop under this schedule; the arguments are
    /// [`run_with`]'s.
    pub(crate) fn run<P: Protocol + ?Sized>(
        self,
        engine: &mut P,
        timing: &mut TimingModel,
        cfg: &SystemConfig,
        workload_name: &str,
        source: &mut dyn TraceSource,
        meter: &MeterConfig,
    ) -> Result<RunOutput, String> {
        let (core, check_every): (RunCore<P>, u64) = match self {
            Schedule::Pipelined => {
                let out = run_pipelined(engine, timing, cfg, workload_name, source, meter);
                return Ok(out);
            }
            Schedule::Sequential(RunMode::Plain) => (run_core::<P, false, false>, 0),
            Schedule::Sequential(RunMode::Checked(every)) => {
                (run_core::<P, true, false>, every.get())
            }
            Schedule::Sequential(RunMode::Profiled) => (run_core::<P, false, true>, 0),
        };
        core(
            engine,
            timing,
            cfg,
            workload_name,
            source,
            meter,
            check_every,
        )
    }
}

/// The host threads this process may run on, read once.
fn host_threads() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Pulls references from a source in the loop's order: one per live core
/// per round, cores in index order, until every stream is dry. The order
/// of `source.next` calls does not depend on how the pulls are chunked.
pub(crate) struct RoundRobin {
    exhausted: Vec<bool>,
    live: usize,
    next: usize,
}

impl RoundRobin {
    pub(crate) fn new(cores: usize) -> Self {
        RoundRobin {
            exhausted: vec![false; cores],
            live: cores,
            next: 0,
        }
    }

    /// Appends up to `n` references to `out`; returns how many it
    /// appended, zero once every stream is dry.
    pub(crate) fn fill(
        &mut self,
        source: &mut dyn TraceSource,
        out: &mut Vec<(usize, MemRef)>,
        n: usize,
    ) -> usize {
        let start = out.len();
        while out.len() - start < n && self.live > 0 {
            let c = self.next;
            self.next = if c + 1 == self.exhausted.len() {
                0
            } else {
                c + 1
            };
            if self.exhausted[c] {
                continue;
            }
            match source.next(c) {
                Some(mr) => out.push((c, mr)),
                None => {
                    self.exhausted[c] = true;
                    self.live -= 1;
                }
            }
        }
        out.len() - start
    }
}

/// What the timing side needs of one executed access, besides its steps
/// and background work.
#[derive(Clone, Copy, Debug)]
struct Executed {
    line: LineAddr,
    served: ServedBy,
    llc_access: bool,
    /// Number of critical-path steps.
    steps: u16,
    /// Number of background items.
    background: u16,
}

impl Executed {
    #[inline]
    fn of(res: &AccessResult) -> Self {
        Executed {
            line: res.line,
            served: res.served_by(),
            llc_access: res.llc_access,
            steps: u16::try_from(res.steps.len()).expect("steps per access fit u16"),
            background: u16::try_from(res.background.len())
                .expect("background per access fits u16"),
        }
    }
}

/// The timing side of the loop: everything downstream of the engine.
/// Both schedules feed it the same accesses in the same order through
/// [`Retirer::retire`], so the MSHR, pricing, telemetry and warmup rules
/// exist once.
struct Retirer<'m> {
    meter: &'m MeterConfig,
    cores: Vec<CoreState>,
    served: ServedCounts,
    llc_accesses: u64,
    llc: LatencyHists,
    timeline: Timeline,
    /// Hoisted once: a disabled timeline skips the per-reference
    /// recording calls entirely, so the un-metered path touches no epoch
    /// state inside the loop.
    sampling: bool,
    base: MeasureBase,
    processed: u64,
    warmup_pending: bool,
    /// The hot-loop profile; filled only by profiled runs.
    profile: PhaseProfile,
    /// The timing phase's lap probe (mesh/bank/MSHR); used only by
    /// profiled runs.
    tprobe: TimingProbe,
}

impl<'m> Retirer<'m> {
    fn new(
        cfg: &SystemConfig,
        meter: &'m MeterConfig,
        len_hint: Option<u64>,
        profile: PhaseProfile,
    ) -> Self {
        let mut timeline = Timeline::new(meter.epoch_refs.unwrap_or(0));
        if let Some(refs) = len_hint {
            timeline.reserve_for(refs);
        }
        Retirer {
            meter,
            cores: (0..cfg.cores).map(|_| CoreState::new(cfg.mlp)).collect(),
            served: ServedCounts::default(),
            llc_accesses: 0,
            llc: LatencyHists::new(),
            sampling: timeline.enabled(),
            timeline,
            base: MeasureBase::default(),
            processed: 0,
            warmup_pending: meter.warmup_refs > 0,
            profile,
            tprobe: TimingProbe::new(),
        }
    }

    /// Retires one executed access of core `c`: advances the core,
    /// prices an LLC access through its MSHRs and `timing`, and records
    /// the telemetry. Returns true when this access ends the warmup
    /// window; the engine's coherence counters reset at that point too.
    #[inline(always)]
    fn retire<const PROFILED: bool>(
        &mut self,
        timing: &mut TimingModel,
        c: usize,
        mr: MemRef,
        x: Executed,
        steps: &[Step],
        background: &[Background],
    ) -> bool {
        // The reference instruction itself retires too: charge `gap + 1`
        // cycles to match the `gap + 1` instructions, or a hit-only trace
        // would report IPC above the base-CPI-1 ceiling.
        let instructions = mr.gap_instructions as u64 + 1;
        let mut latency = None;
        let core = &mut self.cores[c];
        core.instructions += instructions;
        core.cursor += Cycles(instructions);
        self.served.record(x.served);
        if PROFILED {
            self.tprobe.begin();
        }
        if !x.llc_access {
            // SRAM hit: absorbed by the pipeline at base CPI.
            core.finish = core.finish.max(core.cursor);
            if PROFILED {
                self.tprobe.lap(TP_MSHR);
            }
        } else {
            self.llc_accesses += 1;

            // Issue time: dependent misses wait for the previous miss;
            // independent ones only wait for a free MSHR.
            let issue = if mr.dependent {
                core.cursor.max(core.last_miss)
            } else {
                core.cursor
            };
            core.mshrs.drop_completed(issue);
            let issue = core.mshrs.acquire(issue);
            if PROFILED {
                self.tprobe.lap(TP_MSHR);
            }

            let done = if PROFILED {
                timing.charge_probed(issue, x.line, steps, background, &mut self.tprobe)
            } else {
                timing.charge(issue, x.line, steps, background)
            };
            let lat = (done - issue).as_u64();
            self.llc.record(lat);
            latency = Some(lat);
            core.mshrs.push(done);
            core.last_miss = done;
            core.finish = core.finish.max(done);
            if mr.dependent {
                // The pipeline stalls behind a serialised miss.
                core.cursor = core.cursor.max(done);
            }
            if PROFILED {
                self.tprobe.lap(TP_MSHR);
            }
        }

        self.processed += 1;
        if self.sampling {
            let t = PROFILED.then(Instant::now);
            self.timeline
                .record_ref(service_level(x.served), instructions, latency);
            if self.timeline.epoch_full() {
                self.timeline
                    .flush(&epoch_env(&self.cores, timing, self.meter));
            }
            if let Some(t) = t {
                self.profile.add(PH_TELEMETRY, elapsed_ns(t));
            }
        }
        if self.warmup_pending && self.processed >= self.meter.warmup_refs {
            self.end_warmup(timing);
            return true;
        }
        false
    }

    /// Ends the warmup window: zeroes the measurement aggregates and
    /// takes counter baselines for the shared resources, but leaves
    /// caches, directories, and bank reservations as they are. Runs at
    /// most once per run.
    fn end_warmup(&mut self, timing: &TimingModel) {
        self.warmup_pending = false;
        self.served = ServedCounts::default();
        self.llc_accesses = 0;
        self.llc.reset();
        self.base = MeasureBase {
            instructions: self.cores.iter().map(|c| c.instructions).sum(),
            cycles: makespan(&self.cores).as_u64(),
            mesh_messages: timing.mesh().messages(),
            mesh_hops: timing.mesh().total_hops(),
            link_flits: timing.mesh().link_flits().to_vec(),
            vault_busy: timing.vault_busy_cycles(),
            memory_accesses: timing.memory_accesses(),
        };
    }

    /// Closes the run once every access has retired and `engine` is back
    /// on the calling thread, and assembles its output. `profiled` keeps
    /// the hot-loop profile, with the timing probe folded in.
    fn finish<P: Protocol + ?Sized>(
        mut self,
        engine: &mut P,
        timing: &TimingModel,
        workload_name: &str,
        profiled: bool,
    ) -> RunOutput {
        if self.warmup_pending {
            // The warmup window swallowed the whole trace: still perform
            // the reset so the measurement window is consistently empty
            // instead of silently reporting cold-start full-run numbers.
            self.end_warmup(timing);
            engine.reset_coherence_stats();
        }
        self.timeline
            .finish(&epoch_env(&self.cores, timing, self.meter));
        if profiled {
            let p = &self.tprobe;
            for (i, (&ns, &n)) in p.nanos().iter().zip(p.samples()).enumerate() {
                self.profile.add_bulk(PH_TIMING_CHILD0 + i, ns, n);
            }
            self.profile.add_bulk(PH_TIMING, p.total_nanos(), p.calls());
        }

        let base = &self.base;
        let mesh = timing.mesh();
        let mesh_messages = mesh.messages() - base.mesh_messages;
        let mesh_total_hops = mesh.total_hops() - base.mesh_hops;
        let mesh_max_link_flits = mesh
            .link_flits()
            .iter()
            .enumerate()
            .map(|(l, &f)| f - base.link_flits.get(l).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let stats = RunStats {
            system: engine.system_name().to_string(),
            workload: workload_name.to_string(),
            instructions: self.cores.iter().map(|c| c.instructions).sum::<u64>()
                - base.instructions,
            cycles: Cycles(makespan(&self.cores).as_u64() - base.cycles),
            served: self.served,
            llc_accesses: self.llc_accesses,
            llc_latency: self.llc.linear,
            mesh_messages,
            mesh_total_hops,
            mesh_max_link_flits,
        };

        let cs = engine.coherence_stats();
        let mut recorder = Recorder::new();
        recorder.set("invalidations", cs.invalidations.get());
        recorder.set("o_state_forwards", cs.o_state_forwards.get());
        recorder.set("directory_evictions", cs.directory_evictions.get());
        recorder.set("upgrades", cs.upgrades.get());
        recorder.set("dirty_writebacks", cs.dirty_writebacks.get());
        recorder.set("mesh_messages", mesh_messages);
        recorder.set("mesh_total_hops", mesh_total_hops);
        recorder.set("mesh_max_link_flits", mesh_max_link_flits);
        recorder.set(
            "memory_accesses",
            timing.memory_accesses() - base.memory_accesses,
        );
        recorder.set(
            "vault_busy_cycles",
            timing.vault_busy_cycles() - base.vault_busy,
        );
        *recorder.histogram("llc_latency") = self.llc.log;
        RunOutput {
            stats,
            telemetry: Telemetry {
                meter: *self.meter,
                recorder,
                timeline: self.timeline,
            },
            profile: profiled.then_some(self.profile),
        }
    }
}

/// The one-thread loop behind [`Schedule::Sequential`]. `CHECKED` and
/// `PROFILED` are const generics so the oracle branch and the profiler's
/// clock reads vanish from the monomorphizations that don't use them
/// instead of costing a per-reference test. Only three monomorphizations
/// exist per engine type, one per [`RunMode`] (the builder rejects
/// combining `--check` with `--profile` — the oracle sweep would dominate
/// the phase timings).
fn run_core<P: Protocol + ?Sized, const CHECKED: bool, const PROFILED: bool>(
    engine: &mut P,
    timing: &mut TimingModel,
    cfg: &SystemConfig,
    workload_name: &str,
    source: &mut dyn TraceSource,
    meter: &MeterConfig,
    check_every: u64,
) -> Result<RunOutput, String> {
    // Untouched unless PROFILED: the clock reads that fill it are
    // compiled out of the other monomorphizations.
    let profile = if PROFILED {
        PhaseProfile::with_tree(&profile_phase_tree())
    } else {
        PhaseProfile::new(&PROFILE_PHASES)
    };
    let mut r = Retirer::new(cfg, meter, source.len_hint(), profile);
    let mut oracle = OracleBase::capture(timing);
    // One result buffer for the whole run: the engines write into it via
    // `access_into`, reusing the step vectors instead of allocating two
    // per reference.
    let mut res = AccessResult::default();
    // The engine's lap probe for the profiled path, folded into the
    // profile once after the loop; untouched (and compiled out of the hot
    // path) when PROFILED is false.
    let mut eprobe = EngineProbe::new();

    // Two-phase rounds: pull one round's worth of references first
    // (issuing the engine's host-cache prefetch hint for each), then
    // execute them in the same order. Per-core streams are independent,
    // so batching the pulls changes neither any stream nor the execution
    // order — only how far ahead of its access each prefetch lands.
    let mut pull = RoundRobin::new(cfg.cores);
    let mut round: Vec<(usize, MemRef)> = Vec::with_capacity(cfg.cores);
    loop {
        round.clear();
        let t = PROFILED.then(Instant::now);
        if pull.fill(source, &mut round, cfg.cores) == 0 {
            break;
        }
        for &(c, mr) in &round {
            engine.prefetch(c, mr);
        }
        if let Some(t) = t {
            r.profile.add(PH_TRACE, elapsed_ns(t));
        }
        for &(c, mr) in &round {
            if PROFILED {
                engine.access_into_probed(c, mr, &mut res, &mut eprobe);
            } else {
                engine.access_into(c, mr, &mut res);
            }
            let x = Executed::of(&res);
            if r.retire::<PROFILED>(timing, c, mr, x, &res.steps, &res.background) {
                engine.reset_coherence_stats();
            }
            if CHECKED && r.processed % check_every == 0 {
                oracle_sweep(
                    &*engine,
                    timing,
                    &r.cores,
                    cfg.mlp,
                    r.processed,
                    &mut oracle,
                )?;
            }
        }
    }

    if PROFILED {
        // Fold the engine's lap-probe buckets into the hierarchical
        // profile: each child gets its accumulated bucket, the parent the
        // probe's total — so children sum to the parent exactly, and the
        // parent sample count is the number of probed calls (one per
        // access). `finish` does the same for the timing probe.
        for (i, (&ns, &n)) in eprobe.nanos().iter().zip(eprobe.samples()).enumerate() {
            r.profile.add_bulk(PH_ENGINE_CHILD0 + i, ns, n);
        }
        r.profile
            .add_bulk(PH_ENGINE, eprobe.total_nanos(), eprobe.calls());
    }
    Ok(r.finish(engine, timing, workload_name, PROFILED))
}

/// References per batch of the two-stage schedule.
const BATCH: usize = 2048;
/// Batches circulating between the two stages: one being executed, one
/// being retired and refilled, and one queued so neither stage waits on
/// the other's jitter.
const BATCHES: usize = 3;

/// One batch of the two-stage schedule. The calling thread fills `refs`;
/// the engine thread appends one [`Executed`] per reference and each
/// access's steps and background work back to back; the calling thread
/// retires it and refills the same buffers, so a run allocates only its
/// first [`BATCHES`] batches.
#[derive(Default)]
struct Batch {
    refs: Vec<(usize, MemRef)>,
    executed: Vec<Executed>,
    steps: Vec<Step>,
    background: Vec<Background>,
}

impl Batch {
    fn clear(&mut self) {
        self.refs.clear();
        self.executed.clear();
        self.steps.clear();
        self.background.clear();
    }
}

/// The engine stage of the two-stage schedule, on the helper thread:
/// executes each batch from `todo` in order and hands it back on `done`.
/// `ahead` is the host-cache prefetch distance (one round of the
/// sequential loop). The coherence counters reset right after reference
/// `warmup_refs`, exactly where the sequential loop resets them; a
/// warmup that swallows the whole trace is closed by the caller. Returns
/// when the caller hangs up either channel.
fn engine_stage<P: Protocol + ?Sized>(
    engine: &mut P,
    ahead: usize,
    warmup_refs: u64,
    todo: Receiver<Batch>,
    done: SyncSender<Batch>,
) {
    let mut res = AccessResult::default();
    let mut processed = 0u64;
    let mut warmup_pending = warmup_refs > 0;
    for mut batch in todo {
        for &(c, mr) in batch.refs.iter().take(ahead) {
            engine.prefetch(c, mr);
        }
        for (i, &(c, mr)) in batch.refs.iter().enumerate() {
            if let Some(&(c, mr)) = batch.refs.get(i + ahead) {
                engine.prefetch(c, mr);
            }
            engine.access_into(c, mr, &mut res);
            batch.executed.push(Executed::of(&res));
            batch.steps.extend_from_slice(&res.steps);
            batch.background.extend_from_slice(&res.background);
            processed += 1;
            if warmup_pending && processed >= warmup_refs {
                warmup_pending = false;
                engine.reset_coherence_stats();
            }
        }
        if done.send(batch).is_err() {
            return;
        }
    }
}

/// The loop behind [`Schedule::Pipelined`]: the engine runs in
/// [`engine_stage`] on a scoped helper thread while this thread pulls
/// references in [`RoundRobin`] order into batches, sends them ahead, and
/// retires the executed batches in order through [`Retirer::retire`].
/// The source stays on this thread. A panic on either side resurfaces
/// here with its own payload: this thread's unwinding hangs up both
/// channels, which ends the helper, and a helper's panic is rethrown
/// when its channel closes.
fn run_pipelined<P: Protocol + ?Sized>(
    engine: &mut P,
    timing: &mut TimingModel,
    cfg: &SystemConfig,
    workload_name: &str,
    source: &mut dyn TraceSource,
    meter: &MeterConfig,
) -> RunOutput {
    let mut r = Retirer::new(
        cfg,
        meter,
        source.len_hint(),
        PhaseProfile::new(&PROFILE_PHASES),
    );
    let (ahead, warmup_refs) = (cfg.cores, meter.warmup_refs);
    let stage = &mut *engine;
    thread::scope(|s| {
        let (todo, todo_rx) = mpsc::sync_channel::<Batch>(BATCHES);
        let (done_tx, done) = mpsc::sync_channel::<Batch>(BATCHES);
        let helper = s.spawn(move || engine_stage(stage, ahead, warmup_refs, todo_rx, done_tx));
        let rethrow = |helper: thread::ScopedJoinHandle<'_, ()>| -> ! {
            match helper.join() {
                Err(payload) => panic::resume_unwind(payload),
                Ok(()) => unreachable!("the engine stage hung up mid-run"),
            }
        };
        let mut pull = RoundRobin::new(cfg.cores);
        let mut spare: Vec<Batch> = (0..BATCHES).map(|_| Batch::default()).collect();
        let mut in_flight = 0;
        loop {
            while let Some(mut batch) = spare.pop() {
                if pull.fill(source, &mut batch.refs, BATCH) == 0 {
                    spare.push(batch);
                    break;
                }
                if todo.send(batch).is_err() {
                    rethrow(helper);
                }
                in_flight += 1;
            }
            if in_flight == 0 {
                break;
            }
            let Ok(mut batch) = done.recv() else {
                rethrow(helper);
            };
            in_flight -= 1;
            let (mut s, mut g) = (0, 0);
            for (&(c, mr), &x) in batch.refs.iter().zip(&batch.executed) {
                let (s_end, g_end) = (s + usize::from(x.steps), g + usize::from(x.background));
                // The engine stage resets its own counters at the warmup
                // boundary.
                r.retire::<false>(
                    timing,
                    c,
                    mr,
                    x,
                    &batch.steps[s..s_end],
                    &batch.background[g..g_end],
                );
                (s, g) = (s_end, g_end);
            }
            batch.clear();
            spare.push(batch);
        }
        drop(todo);
        if let Err(payload) = helper.join() {
            panic::resume_unwind(payload);
        }
    });
    r.finish(engine, timing, workload_name, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SystemRegistry;
    use crate::workload::WorkloadSpec;
    use silo_trace::SliceTrace;
    use silo_types::{AccessKind, LineAddr};

    fn quick_spec() -> WorkloadSpec {
        WorkloadSpec {
            refs_per_core: 2_000,
            ..WorkloadSpec::uniform_private()
        }
    }

    fn quick_cfg() -> SystemConfig {
        SystemConfig::paper_16core().with_cores(4)
    }

    /// Runs the registry system `name` over `spec`'s generated stream.
    fn run_named(
        name: &str,
        cfg: &SystemConfig,
        spec: &WorkloadSpec,
        seed: u64,
        mode: RunMode,
    ) -> Result<RunOutput, String> {
        let mut source = spec.source(cfg.cores, cfg.scale, seed).expect("source");
        SystemRegistry::builtin().get(name).expect("builtin").run(
            cfg,
            &spec.name,
            &mut *source,
            &MeterConfig::default(),
            mode,
        )
    }

    /// Plain-mode statistics of the registry system `name` over `spec`.
    fn stats_of(name: &str, cfg: &SystemConfig, spec: &WorkloadSpec, seed: u64) -> RunStats {
        run_named(name, cfg, spec, seed, RunMode::Plain)
            .expect("plain runs cannot fail")
            .stats
    }

    /// SILO over per-core streams that each hammer one private line.
    fn hit_only(cfg: &SystemConfig) -> RunStats {
        let traces: Vec<Vec<MemRef>> = (0..cfg.cores)
            .map(|c| {
                let line = LineAddr::new(((c as u64 + 1) << 32) | 1);
                (0..5_000)
                    .map(|_| MemRef {
                        line,
                        kind: AccessKind::Read,
                        gap_instructions: 3,
                        dependent: false,
                    })
                    .collect()
            })
            .collect();
        let mut inst = SystemRegistry::builtin()
            .get("SILO")
            .expect("builtin")
            .instantiate(cfg);
        run_metered_source(
            &mut inst.engine,
            &mut inst.timing,
            cfg,
            "hit-only",
            &mut SliceTrace::new(&traces),
            &MeterConfig::default(),
        )
        .0
    }

    #[test]
    fn silo_run_produces_consistent_stats() {
        let s = stats_of("SILO", &quick_cfg(), &quick_spec(), 1);
        assert_eq!(s.system, "SILO");
        assert!(s.instructions > 0);
        assert!(s.cycles > Cycles::ZERO);
        assert!(s.ipc() > 0.0);
        assert_eq!(s.served.total(), 4 * 2_000);
        assert_eq!(s.llc_latency.count(), s.llc_accesses);
        assert!(s.served.local_vault.get() > 0, "vault must serve accesses");
    }

    #[test]
    fn baseline_run_uses_llc_not_vaults() {
        let s = stats_of("baseline", &quick_cfg(), &quick_spec(), 1);
        assert_eq!(s.system, "baseline");
        assert_eq!(s.served.local_vault.get(), 0);
        assert_eq!(s.served.remote_vault.get(), 0);
        assert!(s.served.shared_llc.get() + s.served.memory.get() > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = stats_of("SILO", &quick_cfg(), &quick_spec(), 9);
        let b = stats_of("SILO", &quick_cfg(), &quick_spec(), 9);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.llc_accesses, b.llc_accesses);
    }

    #[test]
    fn both_systems_count_the_same_llc_accesses() {
        // Same SRAM geometry and the same trace: the engines agree on
        // which accesses left the SRAM levels up to the two documented
        // divergence sources (vault conflict back-invalidations and
        // upgrade decisions after L1 evictions of shared lines), so a
        // random workload matches only approximately. Exact equality on
        // a divergence-free trace is covered by the integration test
        // `both_engines_agree_on_llc_access_counts`.
        let cfg = quick_cfg();
        let spec = quick_spec();
        let a = stats_of("SILO", &cfg, &spec, 3);
        let b = stats_of("baseline", &cfg, &spec, 3);
        let diff = a.llc_accesses.abs_diff(b.llc_accesses) as f64;
        assert!(
            diff / b.llc_accesses as f64 <= 0.01,
            "LLC access counts diverged: {} vs {}",
            a.llc_accesses,
            b.llc_accesses
        );
    }

    #[test]
    fn silo_beats_baseline_on_vault_friendly_workload() {
        // The private working set dwarfs the baseline's scaled LLC but
        // fits the vault: SILO must win (the paper's Fig. 11 direction).
        let cfg = quick_cfg();
        let spec = quick_spec();
        let silo = stats_of("SILO", &cfg, &spec, 7);
        let base = stats_of("baseline", &cfg, &spec, 7);
        assert!(
            silo.ipc() > base.ipc(),
            "SILO {} <= baseline {}",
            silo.ipc(),
            base.ipc()
        );
    }

    #[test]
    fn hit_only_workload_never_exceeds_base_cpi() {
        // Every core hammers a single private line: after the cold miss
        // everything is an L1 hit, so throughput is capped by the base
        // CPI of 1 per core. The old loop charged only `gap` cycles for
        // `gap + 1` instructions and reported IPC = (gap+1)/gap > 1 here.
        let s = hit_only(&SystemConfig::paper_16core().with_cores(1));
        assert!(
            s.ipc() <= 1.0,
            "hit-only IPC {} exceeds the base-CPI-1 ceiling",
            s.ipc()
        );
        assert!(s.ipc() > 0.95, "hit-only IPC {} implausibly low", s.ipc());
    }

    #[test]
    fn hit_only_multicore_respects_per_core_ceiling() {
        // Aggregate IPC is throughput over the makespan, so the ceiling
        // for N perfectly pipelined cores is N x base CPI 1.
        let cfg = quick_cfg();
        let s = hit_only(&cfg);
        assert!(
            s.ipc() <= cfg.cores as f64,
            "hit-only aggregate IPC {} exceeds {} x base CPI",
            s.ipc(),
            cfg.cores
        );
    }

    #[test]
    fn profiled_subphases_tile_their_parents_exactly() {
        // The lap probes take one clock read per segment boundary, so
        // the engine and timing children must sum to their parent to the
        // nanosecond — no gaps, no double counting.
        let cfg = SystemConfig::paper_16core().with_cores(8);
        let spec = WorkloadSpec {
            refs_per_core: 2_000,
            ..WorkloadSpec::zipf_shared()
        };
        let out = run_named("SILO", &cfg, &spec, 5, RunMode::Profiled).expect("profiled run");
        let p = out.profile.expect("profiled runs carry a profile");
        assert_eq!(p.labels().len(), profile_phase_tree().len());
        let engine_children: u64 = p.children(PH_ENGINE).iter().map(|&i| p.nanos()[i]).sum();
        assert_eq!(engine_children, p.nanos()[PH_ENGINE]);
        let timing_children: u64 = p.children(PH_TIMING).iter().map(|&i| p.nanos()[i]).sum();
        assert_eq!(timing_children, p.nanos()[PH_TIMING]);
        // One probed engine call and one timing pass per reference.
        assert_eq!(p.samples()[PH_ENGINE], 8 * 2_000);
        assert_eq!(p.samples()[PH_TIMING], 8 * 2_000);
        // Every access goes through the lookup bucket at least once.
        assert!(p.nanos()[PH_ENGINE_CHILD0] > 0);
        // Profiling must not perturb the simulation.
        assert_eq!(out.stats, stats_of("SILO", &cfg, &spec, 5));
    }

    #[test]
    fn dependent_refs_serialise_and_slow_the_core() {
        let cfg = quick_cfg();
        let chasing = WorkloadSpec {
            dependent_fraction: 1.0,
            ..quick_spec()
        };
        let overlapped = WorkloadSpec {
            dependent_fraction: 0.0,
            ..quick_spec()
        };
        let slow = stats_of("SILO", &cfg, &chasing, 2);
        let fast = stats_of("SILO", &cfg, &overlapped, 2);
        assert!(
            slow.cycles > fast.cycles,
            "serialised {} <= overlapped {}",
            slow.cycles,
            fast.cycles
        );
    }

    /// A built-in engine whose invariant check starts failing once it
    /// has executed `fail_after` references, a stand-in for a simulator
    /// bug that corrupts protocol state mid-run, and that panics on
    /// access `panic_at`.
    struct Faulty {
        inner: AnyEngine,
        accesses: u64,
        fail_after: u64,
        panic_at: u64,
    }

    impl Protocol for Faulty {
        fn access_into(&mut self, core: usize, mr: MemRef, out: &mut AccessResult) {
            self.accesses += 1;
            assert!(
                self.accesses != self.panic_at,
                "injected engine panic at access {}",
                self.accesses
            );
            self.inner.access_into(core, mr, out);
        }
        fn access_into_probed(
            &mut self,
            core: usize,
            mr: MemRef,
            out: &mut AccessResult,
            probe: &mut EngineProbe,
        ) {
            self.accesses += 1;
            self.inner.access_into_probed(core, mr, out, probe);
        }
        fn prefetch(&self, core: usize, mr: MemRef) {
            self.inner.prefetch(core, mr);
        }
        fn system_name(&self) -> &str {
            self.inner.system_name()
        }
        fn coherence_stats(&self) -> CoherenceStats {
            self.inner.coherence_stats()
        }
        fn reset_coherence_stats(&mut self) {
            self.inner.reset_coherence_stats();
        }
        fn check_invariants(&self) -> Result<(), String> {
            if self.accesses >= self.fail_after {
                return Err(format!("injected fault at access {}", self.accesses));
            }
            self.inner.check_invariants()
        }
    }

    #[test]
    fn checked_runs_report_the_first_sweep_after_a_fault() {
        let cfg = quick_cfg();
        let spec = quick_spec();
        let sys = SystemRegistry::builtin()
            .get("SILO")
            .expect("builtin")
            .clone();
        let every = NonZeroU64::new(64).expect("nonzero");
        let run_faulty = |fail_after: u64, mode: RunMode| {
            let inst = sys.instantiate(&cfg);
            let mut engine = Faulty {
                inner: inst.engine,
                accesses: 0,
                fail_after,
                panic_at: u64::MAX,
            };
            let mut timing = inst.timing;
            let mut source = spec.source(cfg.cores, cfg.scale, 1).expect("source");
            run_with(
                &mut engine,
                &mut timing,
                &cfg,
                &spec.name,
                &mut *source,
                &MeterConfig::default(),
                mode,
            )
        };
        // The fault appears at reference 1000; the oracle sweeps every
        // 64 references, so the first sweep to see it runs after 1024.
        let err = run_faulty(1_000, RunMode::Checked(every)).expect_err("oracle must fire");
        assert_eq!(err, "after 1024 refs: injected fault at access 1024");
        // A fault on a sweep boundary is caught by that very sweep.
        let err = run_faulty(640, RunMode::Checked(every)).expect_err("oracle must fire");
        assert!(err.starts_with("after 640 refs:"), "{err}");
        // Unchecked runs never consult the oracle.
        let plain = run_faulty(1, RunMode::Plain).expect("plain runs cannot fail");
        assert_eq!(plain.stats, stats_of("SILO", &cfg, &spec, 1));

        // The registry names the failing system ahead of the location.
        let err = sys
            .label(run_faulty(1_000, RunMode::Checked(every)))
            .expect_err("still failing");
        assert_eq!(
            err,
            "SILO: invariant violation after 1024 refs: injected fault at access 1024"
        );
        // A clean checked run through `SystemSpec::run` is bit-identical
        // to the plain one.
        let checked = run_named("SILO", &cfg, &spec, 1, RunMode::Checked(every))
            .expect("builtin engines hold their invariants");
        assert_eq!(checked.stats, plain.stats);
    }

    /// Runs the registry system `name` over `source` under `schedule`.
    fn run_scheduled(
        name: &str,
        cfg: &SystemConfig,
        meter: &MeterConfig,
        source: &mut dyn TraceSource,
        schedule: Schedule,
    ) -> RunOutput {
        let mut inst = SystemRegistry::builtin()
            .get(name)
            .expect("builtin")
            .instantiate(cfg);
        schedule
            .run(&mut inst.engine, &mut inst.timing, cfg, "w", source, meter)
            .expect("plain runs cannot fail")
    }

    /// Asserts that both schedules produce the same statistics and
    /// telemetry for `name` over the stream `source` builds afresh.
    fn assert_schedules_agree<'t>(
        name: &str,
        cfg: &SystemConfig,
        meter: &MeterConfig,
        source: impl Fn() -> Box<dyn TraceSource + 't>,
        what: &str,
    ) {
        let seq = run_scheduled(
            name,
            cfg,
            meter,
            &mut *source(),
            Schedule::Sequential(RunMode::Plain),
        );
        let pipe = run_scheduled(name, cfg, meter, &mut *source(), Schedule::Pipelined);
        assert_eq!(seq.stats, pipe.stats, "{name} on {what}: stats differ");
        assert_eq!(
            seq.telemetry, pipe.telemetry,
            "{name} on {what}: telemetry differs"
        );
        assert!(seq.profile.is_none() && pipe.profile.is_none());
    }

    #[test]
    fn schedules_agree_on_every_builtin_system_and_workload() {
        let cfg = quick_cfg();
        let meter = MeterConfig::default();
        for sys in SystemRegistry::builtin().specs() {
            for spec in [
                WorkloadSpec::uniform_private(),
                WorkloadSpec::zipf_shared(),
                WorkloadSpec::producer_consumer(),
                WorkloadSpec::pointer_chase(),
            ] {
                let spec = WorkloadSpec {
                    refs_per_core: 2_000,
                    ..spec
                };
                let source = || spec.source(cfg.cores, cfg.scale, 11).expect("source");
                assert_schedules_agree(sys.name(), &cfg, &meter, source, &spec.name);
            }
        }
    }

    #[test]
    fn schedules_agree_across_batch_and_warmup_edges() {
        let spec = WorkloadSpec {
            refs_per_core: 2_000,
            ..WorkloadSpec::zipf_shared()
        };
        let cfg = quick_cfg();
        let generated = |cfg: &SystemConfig, spec: &WorkloadSpec| {
            let (cores, scale, spec) = (cfg.cores, cfg.scale, spec.clone());
            move || spec.source(cores, scale, 4).expect("source")
        };
        let metered = |warmup_refs, epoch_refs| MeterConfig {
            warmup_refs,
            epoch_refs,
        };
        for name in ["SILO", "baseline"] {
            // Warmup ends mid-batch (2048 < 3001 < 4096) and epochs
            // straddle batch boundaries.
            let meter = metered(3_001, Some(1_000));
            assert_schedules_agree(
                name,
                &cfg,
                &meter,
                generated(&cfg, &spec),
                "mid-batch warmup",
            );
            // One core: every round is one reference.
            let one = SystemConfig::paper_16core().with_cores(1);
            let long = WorkloadSpec {
                refs_per_core: 5_000,
                ..spec.clone()
            };
            assert_schedules_agree(name, &one, &meter, generated(&one, &long), "one core");
            // A trace shorter than one batch.
            let short = WorkloadSpec {
                refs_per_core: 100,
                ..spec.clone()
            };
            let meter = metered(50, Some(64));
            assert_schedules_agree(name, &cfg, &meter, generated(&cfg, &short), "short trace");
            // Warmup that swallows the trace, exactly and with room.
            for warmup in [8_000, 10_000] {
                let meter = metered(warmup, Some(1_000));
                assert_schedules_agree(
                    name,
                    &cfg,
                    &meter,
                    generated(&cfg, &spec),
                    "warmup >= trace",
                );
            }
        }

        // Uneven streams: cores run dry in different rounds and batches.
        let mut gen = spec.source(cfg.cores, cfg.scale, 8).expect("source");
        let traces: Vec<Vec<MemRef>> = (0..cfg.cores)
            .map(|c| (0..(c + 1) * 700).map_while(|_| gen.next(c)).collect())
            .collect();
        let meter = metered(2_500, Some(300));
        let slices = || Box::new(SliceTrace::new(&traces)) as Box<dyn TraceSource>;
        assert_schedules_agree("SILO", &cfg, &meter, slices, "uneven streams");

        // A recorded capture replayed through the trace reader.
        let header = silo_trace::TraceHeader {
            cores: cfg.cores,
            refs_per_core: 2_800,
            seed: 8,
            name: "uneven".into(),
            provenance: "run.rs test".into(),
        };
        let mut writer = silo_trace::TraceWriter::new(Vec::new(), &header).expect("header");
        let mut interleaved = SliceTrace::new(&traces);
        let mut pull = RoundRobin::new(cfg.cores);
        let mut refs = Vec::new();
        pull.fill(&mut interleaved, &mut refs, usize::MAX);
        for (c, mr) in refs {
            writer.write(c, mr).expect("write");
        }
        let bytes = writer.finish().expect("finish");
        let replay = || {
            Box::new(silo_trace::TraceReader::new(&bytes[..]).expect("capture"))
                as Box<dyn TraceSource>
        };
        assert_schedules_agree("baseline", &cfg, &meter, replay, "trace replay");
        let direct = run_scheduled(
            "baseline",
            &cfg,
            &meter,
            &mut SliceTrace::new(&traces),
            Schedule::Pipelined,
        );
        let replayed = run_scheduled(
            "baseline",
            &cfg,
            &meter,
            &mut *replay(),
            Schedule::Pipelined,
        );
        assert_eq!(
            direct.stats, replayed.stats,
            "replay differs from the direct run"
        );
    }

    #[test]
    fn only_plain_runs_on_a_multi_threaded_host_take_two_threads() {
        let every = NonZeroU64::new(64).expect("nonzero");
        for mode in [RunMode::Checked(every), RunMode::Profiled] {
            assert_eq!(Schedule::of(mode), Schedule::Sequential(mode));
        }
        let plain = if host_threads() >= 2 {
            Schedule::Pipelined
        } else {
            Schedule::Sequential(RunMode::Plain)
        };
        assert_eq!(Schedule::of(RunMode::Plain), plain);
    }

    /// SILO under [`Schedule::Pipelined`], wrapped to panic in the engine
    /// at access `panic_at`.
    fn pipelined_faulty(panic_at: u64, timing: fn(&SystemConfig) -> TimingModel) {
        let cfg = quick_cfg();
        let spec = quick_spec();
        let mut engine = Faulty {
            inner: SystemRegistry::builtin()
                .get("SILO")
                .expect("builtin")
                .instantiate(&cfg)
                .engine,
            accesses: 0,
            fail_after: u64::MAX,
            panic_at,
        };
        let mut source = spec.source(cfg.cores, cfg.scale, 1).expect("source");
        let _ = Schedule::Pipelined.run(
            &mut engine,
            &mut timing(&cfg),
            &cfg,
            &spec.name,
            &mut *source,
            &MeterConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "injected engine panic at access 5000")]
    fn pipelined_engine_panics_resurface_on_the_caller() {
        pipelined_faulty(5_000, TimingModel::silo);
    }

    #[test]
    #[should_panic(expected = "vault step in a system without vaults")]
    fn pipelined_timing_panics_end_the_engine_stage() {
        // A SILO engine priced by the baseline's model: the first vault
        // step panics on the calling thread while the engine thread
        // still has batches to run.
        pipelined_faulty(u64::MAX, TimingModel::baseline);
    }
}
