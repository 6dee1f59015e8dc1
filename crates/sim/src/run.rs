//! The simulation loop: drives a protocol engine over a workload trace
//! and prices every access with a [`TimingModel`].
//!
//! Core model (Sec. V-A: in-order scale-out cores with a few MSHRs):
//! each core retires `gap_instructions` at base CPI 1 between references,
//! SRAM hits are absorbed by the pipeline, and misses overlap up to the
//! MSHR limit unless the reference is `dependent` on the previous miss
//! (pointer chasing), which serialises.
//!
//! The loop is *streaming*: it pulls references one at a time from a
//! [`TraceSource`] — a lazy synthetic generator, a `.silotrace` file
//! reader, or an in-memory slice — so trace length is bounded by disk,
//! not RAM.
//!
//! [`run_with`] is the one entry point. Its [`RunMode`] picks the plain,
//! invariant-checked (`--check`), or self-profiled (`--profile`) build
//! of the loop once per run, and every mode returns the same simulated
//! [`RunOutput`] for the same reference stream.
//! [`crate::SystemSpec::run`] instantiates a registered system and calls
//! it; [`run_metered_source`] is its plain-mode shorthand.
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
    AccessResult, CoherenceStats, EngineProbe, PrivateMoesi, ServedBy, SharedMesi, ENGINE_SUBPHASES,
};
use silo_obs::{Lap, PhaseProfile};
use silo_telemetry::{EpochEnv, MeterConfig, Recorder, ServiceLevel, Telemetry, Timeline};
use silo_trace::TraceSource;
use silo_types::stats::{ratio, Counter, Histogram};
use silo_types::{Cycles, MemRef};
use std::num::NonZeroU64;
use std::time::Instant;

/// A protocol engine the simulation loop can drive. [`AnyEngine`]
/// implements it for the built-in engines; tests implement it to inject
/// faults.
pub trait Protocol {
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

/// Ends the warmup window: zeroes the measurement aggregates and takes
/// counter baselines for the shared resources, but leaves caches,
/// directories, and bank reservations as they are. Executes at most
/// once per run, so the link-flit baseline vector is cloned exactly
/// once at the boundary (the old macro expansion duplicated the
/// capture code at both call sites).
fn end_warmup<P: Protocol + ?Sized>(
    engine: &mut P,
    timing: &TimingModel,
    cores: &[CoreState],
    served: &mut ServedCounts,
    llc_accesses: &mut u64,
    llc: &mut LatencyHists,
) -> MeasureBase {
    *served = ServedCounts::default();
    *llc_accesses = 0;
    llc.reset();
    engine.reset_coherence_stats();
    MeasureBase {
        instructions: cores.iter().map(|c| c.instructions).sum(),
        cycles: makespan(cores).as_u64(),
        mesh_messages: timing.mesh().messages(),
        mesh_hops: timing.mesh().total_hops(),
        link_flits: timing.mesh().link_flits().to_vec(),
        vault_busy: timing.vault_busy_cycles(),
        memory_accesses: timing.memory_accesses(),
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
    let (core, check_every): (RunCore<P>, u64) = match mode {
        RunMode::Plain => (run_core::<P, false, false>, 0),
        RunMode::Checked(every) => (run_core::<P, true, false>, every.get()),
        RunMode::Profiled => (run_core::<P, false, true>, 0),
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

/// The loop behind [`run_with`]. `CHECKED` and `PROFILED` are const
/// generics so the oracle branch and the profiler's clock reads vanish
/// from the monomorphizations that don't use them instead of costing a
/// per-reference test. Only three monomorphizations exist per engine
/// type, one per [`RunMode`] (the builder rejects combining `--check`
/// with `--profile` — the oracle sweep would dominate the phase
/// timings).
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
    let mut profile = if PROFILED {
        PhaseProfile::with_tree(&profile_phase_tree())
    } else {
        PhaseProfile::new(&PROFILE_PHASES)
    };
    let mut cores: Vec<CoreState> = (0..cfg.cores).map(|_| CoreState::new(cfg.mlp)).collect();
    let mut served = ServedCounts::default();
    let mut llc_accesses = 0u64;
    let mut llc = LatencyHists::new();
    let mut timeline = Timeline::new(meter.epoch_refs.unwrap_or(0));
    if let Some(refs) = source.len_hint() {
        timeline.reserve_for(refs);
    }
    let mut base = MeasureBase::default();
    let mut processed = 0u64;
    let mut warmup_pending = meter.warmup_refs > 0;
    let mut oracle = OracleBase::capture(timing);
    // Hoisted once: a disabled timeline skips the per-reference
    // recording calls entirely, so the un-metered path touches no epoch
    // state inside the loop.
    let sampling = timeline.enabled();
    // One result buffer for the whole run: the engines write into it via
    // `access_into`, reusing the step vectors instead of allocating two
    // per reference.
    let mut res = AccessResult::default();
    // Lap probes for the profiled path: the engine laps its internal
    // segments, the timing phase laps mesh/bank/MSHR work. Folded into
    // `profile` once after the loop; untouched (and compiled out of the
    // hot path) when PROFILED is false.
    let mut eprobe = EngineProbe::new();
    let mut tprobe = TimingProbe::new();

    let mut exhausted = vec![false; cfg.cores];
    let mut live = cfg.cores;
    // Two-phase rounds: pull one reference per live core first (issuing
    // the engine's host-cache prefetch hint for each), then execute the
    // round in the same core order. Per-core streams are independent, so
    // batching the pulls changes neither any stream nor the execution
    // order — only how far ahead of its access each prefetch lands.
    let mut round: Vec<(usize, MemRef)> = Vec::with_capacity(cfg.cores);
    while live > 0 {
        round.clear();
        let t = PROFILED.then(Instant::now);
        for (c, done) in exhausted.iter_mut().enumerate() {
            if *done {
                continue;
            }
            match source.next(c) {
                Some(mr) => {
                    engine.prefetch(c, mr);
                    round.push((c, mr));
                }
                None => {
                    *done = true;
                    live -= 1;
                }
            }
        }
        if let Some(t) = t {
            profile.add(PH_TRACE, elapsed_ns(t));
        }
        for &(c, mr) in &round {
            // The reference instruction itself retires too: charge
            // `gap + 1` cycles to match the `gap + 1` instructions, or a
            // hit-only trace would report IPC above the base-CPI-1 ceiling.
            let instructions = mr.gap_instructions as u64 + 1;
            let mut latency = None;
            let served_by;
            {
                let core = &mut cores[c];
                core.instructions += instructions;
                core.cursor += Cycles(instructions);

                if PROFILED {
                    engine.access_into_probed(c, mr, &mut res, &mut eprobe);
                } else {
                    engine.access_into(c, mr, &mut res);
                }
                served_by = res.served_by();
                served.record(served_by);
                if PROFILED {
                    tprobe.begin();
                }
                if !res.llc_access {
                    // SRAM hit: absorbed by the pipeline at base CPI.
                    core.finish = core.finish.max(core.cursor);
                    if PROFILED {
                        tprobe.lap(TP_MSHR);
                    }
                } else {
                    llc_accesses += 1;

                    // Issue time: dependent misses wait for the previous
                    // miss; independent ones only wait for a free MSHR.
                    let issue = if mr.dependent {
                        core.cursor.max(core.last_miss)
                    } else {
                        core.cursor
                    };
                    core.mshrs.drop_completed(issue);
                    let issue = core.mshrs.acquire(issue);
                    if PROFILED {
                        tprobe.lap(TP_MSHR);
                    }

                    let done = if PROFILED {
                        timing.charge_probed(issue, &res, &mut tprobe)
                    } else {
                        timing.charge(issue, &res)
                    };
                    let lat = (done - issue).as_u64();
                    llc.record(lat);
                    latency = Some(lat);
                    core.mshrs.push(done);
                    core.last_miss = done;
                    core.finish = core.finish.max(done);
                    if mr.dependent {
                        // The pipeline stalls behind a serialised miss.
                        core.cursor = core.cursor.max(done);
                    }
                    if PROFILED {
                        tprobe.lap(TP_MSHR);
                    }
                }
            }

            processed += 1;
            if CHECKED && processed % check_every == 0 {
                oracle_sweep(&*engine, timing, &cores, cfg.mlp, processed, &mut oracle)?;
            }
            if sampling {
                let t = PROFILED.then(Instant::now);
                timeline.record_ref(service_level(served_by), instructions, latency);
                if timeline.epoch_full() {
                    timeline.flush(&epoch_env(&cores, timing, meter));
                }
                if let Some(t) = t {
                    profile.add(PH_TELEMETRY, elapsed_ns(t));
                }
            }
            if warmup_pending && processed >= meter.warmup_refs {
                warmup_pending = false;
                base = end_warmup(
                    &mut *engine,
                    timing,
                    &cores,
                    &mut served,
                    &mut llc_accesses,
                    &mut llc,
                );
            }
        }
    }
    if warmup_pending {
        // The warmup window swallowed the whole trace: still perform the
        // reset so the measurement window is consistently empty instead
        // of silently reporting cold-start full-run numbers.
        base = end_warmup(
            &mut *engine,
            timing,
            &cores,
            &mut served,
            &mut llc_accesses,
            &mut llc,
        );
    }
    timeline.finish(&epoch_env(&cores, timing, meter));

    if PROFILED {
        // Fold the lap-probe buckets into the hierarchical profile: each
        // child gets its accumulated bucket, each parent the probe's
        // total — so children sum to the parent exactly, and the parent
        // sample count is the number of probed calls (one per access).
        for (i, (&ns, &n)) in eprobe.nanos().iter().zip(eprobe.samples()).enumerate() {
            profile.add_bulk(PH_ENGINE_CHILD0 + i, ns, n);
        }
        profile.add_bulk(PH_ENGINE, eprobe.total_nanos(), eprobe.calls());
        for (i, (&ns, &n)) in tprobe.nanos().iter().zip(tprobe.samples()).enumerate() {
            profile.add_bulk(PH_TIMING_CHILD0 + i, ns, n);
        }
        profile.add_bulk(PH_TIMING, tprobe.total_nanos(), tprobe.calls());
    }

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
        instructions: cores.iter().map(|c| c.instructions).sum::<u64>() - base.instructions,
        cycles: Cycles(makespan(&cores).as_u64() - base.cycles),
        served,
        llc_accesses,
        llc_latency: llc.linear,
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
    *recorder.histogram("llc_latency") = llc.log;
    let telemetry = Telemetry {
        meter: *meter,
        recorder,
        timeline,
    };
    Ok(RunOutput {
        stats,
        telemetry,
        profile: PROFILED.then_some(profile),
    })
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
    /// has executed `fail_after` references: a stand-in for a simulator
    /// bug that corrupts protocol state mid-run.
    struct Faulty {
        inner: AnyEngine,
        accesses: u64,
        fail_after: u64,
    }

    impl Protocol for Faulty {
        fn access_into(&mut self, core: usize, mr: MemRef, out: &mut AccessResult) {
            self.accesses += 1;
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
}
