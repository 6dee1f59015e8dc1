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
//! [`run_with`] is the one entry point, and every run takes one loop:
//! the calling thread pulls references in round-robin order into a
//! batch, the engine stage executes the batch, and the calling thread
//! retires it through the MSHRs, the [`TimingModel`] and the telemetry.
//! The engine never reads a cycle — the timing side only consumes its
//! [`Step`]/[`Background`] output — so the engine stage may run on a
//! helper thread. The host's thread count alone picks where: inline on
//! the calling thread on a one-thread host, on a helper thread behind
//! bounded channels otherwise. Both executors retire every access
//! through one function in one order, so their output is byte-identical.
//! [`crate::SystemSpec::run`] instantiates a registered system and calls
//! [`run_with`]; [`run_metered_source`] is its plain-mode shorthand.
//!
//! The [`RunMode`] only adds per-batch hooks to that loop: a checked run
//! (`--check N`) cuts batches at multiples of N and sweeps the
//! invariants after each such batch, and a profiled run (`--profile`)
//! reads the clock a few times per batch to time each stage's phases.
//! Every mode returns the same simulated [`RunOutput`] for the same
//! reference stream.
//!
//! Every run drives the telemetry subsystem: a [`MeterConfig`] warmup
//! window resets the measurement aggregates mid-run (cache, directory,
//! and bank-timing state are preserved) and an epoch
//! [`silo_telemetry::Timeline`] samples IPC, served-by-level counts, LLC
//! latency percentiles, mesh link utilization, and vault occupancy every
//! `epoch_refs` references.

use crate::config::SystemConfig;
use crate::timing::TimingModel;
use silo_coherence::{
    AccessResult, Background, CoherenceStats, PrivateMoesi, ServedBy, SharedMesi, Step,
};
use silo_obs::PhaseProfile;
use silo_telemetry::{EpochEnv, MeterConfig, Recorder, ServiceLevel, Telemetry, Timeline};
use silo_trace::TraceSource;
use silo_types::stats::{ratio, Counter, Histogram};
use silo_types::{Cycles, LineAddr, MemRef};
use std::num::{NonZeroU64, NonZeroUsize};
use std::panic;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::OnceLock;
use std::thread::{self, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// A protocol engine the simulation loop can drive. [`AnyEngine`]
/// implements it for the built-in engines; tests implement it to inject
/// faults. `Send`, because a plain run may execute the engine on a
/// helper thread.
pub trait Protocol: Send {
    /// Executes one reference from `core`, writing into a caller-owned
    /// result so a hot loop can reuse the step buffers across accesses.
    fn access_into(&mut self, core: usize, mr: MemRef, out: &mut AccessResult);
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
    /// oracle, on the engine stage, after each batch that ends on a
    /// check boundary.
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

/// The root phases of the hot-loop self-profiler: the calling thread
/// and the engine stage.
pub const PROFILE_PHASES: [&str; 2] = ["caller", "engine"];

/// The profiled run's phase tree, as `(label, parent)`. The `caller`
/// root splits into `pull` (trace pull and dispatch), `retire` (MSHRs,
/// timing and telemetry) and `wait` (blocked on the engine stage); the
/// `engine` root into `execute` and `wait` (blocked on the caller). Each
/// root is the exact sum of its children. Under the inline executor the
/// calling thread runs the engine stage itself, so both `wait` phases
/// stay zero.
pub const PROFILE_TREE: [(&str, Option<usize>); 7] = [
    ("caller", None),
    ("pull", Some(PH_CALLER)),
    ("retire", Some(PH_CALLER)),
    ("wait", Some(PH_CALLER)),
    ("engine", None),
    ("execute", Some(PH_ENGINE)),
    ("wait", Some(PH_ENGINE)),
];

const PH_CALLER: usize = 0;
const PH_PULL: usize = 1;
const PH_RETIRE: usize = 2;
const PH_CALLER_WAIT: usize = 3;
const PH_ENGINE: usize = 4;
const PH_EXECUTE: usize = 5;
const PH_ENGINE_WAIT: usize = 6;

/// The busy time of each root of [`PROFILE_TREE`] (its phases other
/// than `wait`): `(caller, engine)` nanoseconds.
fn busy(p: &PhaseProfile) -> (u64, u64) {
    let ns = p.nanos();
    (ns[PH_PULL] + ns[PH_RETIRE], ns[PH_EXECUTE])
}

/// The stage that bounds a profiled run: the root of [`PROFILE_TREE`]
/// with the larger busy time.
pub fn bound_by(p: &PhaseProfile) -> &'static str {
    let (caller, engine) = busy(p);
    if engine >= caller {
        PROFILE_PHASES[1]
    } else {
        PROFILE_PHASES[0]
    }
}

/// How far the two stages of a profiled run ran at the same time:
/// (caller busy + engine busy − wall) / the smaller busy time, in
/// `[0, 1]`. 1 means the shorter stage ran entirely alongside the
/// longer one, so the longer one bounds the wall; near 0 means the
/// stages took turns, as when two threads share one CPU, and the wall
/// is their sum whichever [`bound_by`] names. Always 0 under the inline
/// executor, where one thread runs both stages.
pub fn overlap(p: &PhaseProfile) -> f64 {
    let (caller, engine) = busy(p);
    let together = (caller + engine).saturating_sub(p.wall_nanos());
    ratio(together, caller.min(engine)).min(1.0)
}

/// One thread's side of a profiled run: a stopwatch whose every lap
/// takes one clock read that ends one [`PROFILE_TREE`] phase and starts
/// the next. Inert — no clock reads — when the run is not profiled.
struct Profiler {
    /// The start and the latest lap; `None` when off.
    clock: Option<(Instant, Instant)>,
    phases: PhaseProfile,
    /// Nanoseconds lapped, and clock reads taken, on this thread.
    lapped: u64,
    reads: u64,
}

impl Profiler {
    fn new(on: bool) -> Self {
        Profiler {
            clock: on.then(|| {
                let now = Instant::now();
                (now, now)
            }),
            phases: PhaseProfile::with_tree(&PROFILE_TREE),
            lapped: 0,
            reads: u64::from(on),
        }
    }

    /// Ends this thread's current phase, attributing it to `phase`.
    #[inline]
    fn lap(&mut self, phase: usize) {
        if let Some((_, last)) = &mut self.clock {
            let now = Instant::now();
            let ns = nanos(now.duration_since(*last));
            *last = now;
            self.lapped += ns;
            self.reads += 1;
            self.phases.add(phase, ns);
        }
    }

    /// The calling thread's finished profile, or `None` when off, with
    /// the `helper` thread's phases folded in: each root gets its
    /// children's sum over one sample per batch, and the wall runs from
    /// the start of the run to this call.
    fn finish(mut self, helper: Option<Profiler>) -> Option<PhaseProfile> {
        let (start, _) = self.clock?;
        let wall = nanos(start.elapsed());
        let p = &mut self.phases;
        if let Some(h) = helper {
            p.merge(&h.phases);
            self.reads += h.reads;
        }
        for (root, kids, per_batch) in [
            (PH_CALLER, PH_PULL..PH_ENGINE, PH_RETIRE),
            (PH_ENGINE, PH_EXECUTE..PROFILE_TREE.len(), PH_EXECUTE),
        ] {
            let ns = kids.map(|k| p.nanos()[k]).sum();
            p.add_bulk(root, ns, p.samples()[per_batch]);
        }
        // The wall's end read counts too.
        p.add_wall(wall, wall.saturating_sub(self.lapped), self.reads + 1);
        Some(self.phases)
    }
}

/// A duration in whole nanoseconds, saturating at `u64::MAX`.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
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
    /// The counts of a [`ServedLevels`] tally.
    fn of(levels: &ServedLevels) -> Self {
        let [l1, l2, local_vault, remote_vault, shared_llc, memory] = levels.0.map(|n| {
            let mut c = Counter::new();
            c.add(n);
            c
        });
        ServedCounts {
            l1,
            l2,
            local_vault,
            remote_vault,
            shared_llc,
            memory,
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

/// The retire loop's served-level tally: one count per [`ServedBy`]
/// variant, indexed by its discriminant, so recording an access is one
/// indexed increment instead of a match.
#[derive(Clone, Copy, Debug, Default)]
struct ServedLevels([u64; 6]);

impl ServedLevels {
    #[inline]
    fn record(&mut self, s: ServedBy) {
        self.0[s as usize] += 1;
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
/// the order removals leave behind never changes a result.
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

    /// Retires every miss completed by the issue point: compacts the
    /// still-outstanding ones to the front, without a data-dependent
    /// branch.
    #[inline]
    fn drop_completed(&mut self, issue: Cycles) {
        let mut kept = 0;
        for i in 0..self.len {
            let done = self.done[i];
            self.done[kept] = done;
            kept += usize::from(done > issue);
        }
        self.len = kept;
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
/// epoch boundary; `link_flits` is the mesh's, derived by the caller.
fn epoch_env<'a>(
    cores: &[CoreState],
    timing: &TimingModel,
    link_flits: &'a [u64],
    meter: &MeterConfig,
) -> EpochEnv<'a> {
    EpochEnv {
        cycles: makespan(cores).as_u64(),
        mesh_messages: timing.mesh().messages(),
        link_flits,
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

/// What [`run_with`] does besides simulating. Each mode is a hook the
/// loop tests once per batch, never per reference. Every mode only
/// observes the simulation: the statistics and telemetry of a run are
/// **bit-identical** across modes (the golden `check_oracle` and the
/// executor × mode identity tests pin this).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RunMode {
    /// Simulate only.
    #[default]
    Plain,
    /// The run-time invariant oracle (`--check`): every `n` processed
    /// references it replays the engine's structural invariants plus
    /// the loop's own cross-layer assertions, and aborts the run with a
    /// located error on the first violation. Batches end at multiples
    /// of `n`, so each sweep sees exactly `n`, `2n`, … references.
    Checked(NonZeroU64),
    /// The hot-loop self-profiler (`--profile`): each stage laps the
    /// [`PROFILE_TREE`] phases once per batch, on the executor the run
    /// takes anyway.
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
/// The engine stage runs on a helper thread when
/// `std::thread::available_parallelism()` reports more than one host
/// thread, and inline on the calling thread otherwise, whatever the
/// `mode`. The output is the same either way.
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

/// Where the engine stage of the loop runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Executor {
    /// On the calling thread: pull a batch, execute it, retire it.
    Inline,
    /// On a helper thread, fed and drained through bounded channels, so
    /// the calling thread pulls and retires while the engine executes.
    Threaded,
}

/// How one run is laid out: its mode and its executor. [`run_with`]
/// takes [`Schedule::of`] its mode; tests force an executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Schedule {
    pub(crate) mode: RunMode,
    pub(crate) executor: Executor,
}

impl Schedule {
    /// The schedule of a `mode` run: the threaded executor on a host with
    /// more than one thread, else the inline one. A sweep that already
    /// keeps every core busy loses nothing by it: measured on a 2-vCPU
    /// host, `silo-sim bench` and the default CLI sweep at two worker
    /// threads took the same wall time with every run threaded as with
    /// runs kept on one thread while both cores were busy.
    pub(crate) fn of(mode: RunMode) -> Schedule {
        let executor = if host_threads() >= 2 {
            Executor::Threaded
        } else {
            Executor::Inline
        };
        Schedule { mode, executor }
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
        let mut prof = Profiler::new(self.mode == RunMode::Profiled);
        let mut r = Retirer::new(cfg, meter, source.len_hint(), timing);
        let mut feed = Feed {
            source,
            pull: RoundRobin::new(cfg.cores),
            pulled: 0,
            check_every: match self.mode {
                RunMode::Checked(n) => Some(n),
                _ => None,
            },
        };
        let stage = EngineStage {
            engine: &mut *engine,
            res: AccessResult::default(),
            ahead: cfg.cores,
            warmup_refs: meter.warmup_refs,
            processed: 0,
        };
        let (checked, helper) = match self.executor {
            Executor::Inline => {
                let mut inline = Inline { stage, ready: None };
                let checked = feed.drive(&mut inline, &mut r, timing, &mut prof, 1);
                (checked, None)
            }
            Executor::Threaded => thread::scope(|s| {
                let (todo, todo_rx) = mpsc::sync_channel::<Batch>(BATCHES);
                let (done_tx, done) = mpsc::sync_channel::<Batch>(BATCHES);
                let profiled = prof.clock.is_some();
                let helper = s.spawn(move || engine_thread(stage, profiled, todo_rx, done_tx));
                let mut threaded = Threaded {
                    todo,
                    done,
                    helper: Some(helper),
                };
                let checked = feed.drive(&mut threaded, &mut r, timing, &mut prof, BATCHES);
                (checked, Some(threaded.join()))
            }),
        };
        checked?;
        let profile = prof.finish(helper);
        Ok(r.finish(engine, timing, workload_name, profile))
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
/// Both executors feed it the same accesses in the same order through
/// [`Retirer::retire_batch`], so the MSHR, pricing, telemetry and warmup
/// rules exist once.
struct Retirer<'m> {
    meter: &'m MeterConfig,
    cores: Vec<CoreState>,
    served: ServedLevels,
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
    mlp: usize,
    /// The counters the last oracle sweep saw.
    oracle: OracleBase,
}

impl<'m> Retirer<'m> {
    fn new(
        cfg: &SystemConfig,
        meter: &'m MeterConfig,
        len_hint: Option<u64>,
        timing: &TimingModel,
    ) -> Self {
        let mut timeline = Timeline::new(meter.epoch_refs.unwrap_or(0));
        if let Some(refs) = len_hint {
            timeline.reserve_for(refs);
        }
        Retirer {
            meter,
            cores: (0..cfg.cores).map(|_| CoreState::new(cfg.mlp)).collect(),
            served: ServedLevels::default(),
            llc_accesses: 0,
            llc: LatencyHists::new(),
            sampling: timeline.enabled(),
            timeline,
            base: MeasureBase::default(),
            processed: 0,
            warmup_pending: meter.warmup_refs > 0,
            mlp: cfg.mlp,
            oracle: OracleBase::capture(timing),
        }
    }

    /// Retires an executed batch, access by access, in order, and sweeps
    /// the oracle after a batch that ends on a check boundary.
    fn retire_batch(&mut self, timing: &mut TimingModel, batch: &mut Batch) -> Result<(), String> {
        let (mut s, mut g) = (0, 0);
        for (&(c, mr), &x) in batch.refs.iter().zip(&batch.executed) {
            let (s_end, g_end) = (s + usize::from(x.steps), g + usize::from(x.background));
            self.retire(
                timing,
                c,
                mr,
                x,
                &batch.steps[s..s_end],
                &batch.background[g..g_end],
            );
            (s, g) = (s_end, g_end);
        }
        if batch.check_due {
            self.oracle_sweep(batch.fault.take(), timing)?;
        }
        Ok(())
    }

    /// One oracle sweep: the engine's own structural invariants (`fault`,
    /// the violation the engine stage found when the batch ended, if
    /// any), then the MSHR occupancy bound and the monotonicity of the
    /// cumulative timing counters.
    #[cold]
    fn oracle_sweep(&mut self, fault: Option<String>, timing: &TimingModel) -> Result<(), String> {
        let (processed, mlp) = (self.processed, self.mlp);
        if let Some(e) = fault {
            return Err(format!("after {processed} refs: {e}"));
        }
        for (c, core) in self.cores.iter().enumerate() {
            if core.mshrs.len > mlp {
                return Err(format!(
                    "after {processed} refs: core {c} holds {} in-flight misses, MSHR limit {mlp}",
                    core.mshrs.len
                ));
            }
        }
        let (prev, cur) = (self.oracle, OracleBase::capture(timing));
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
        self.oracle = cur;
        Ok(())
    }

    /// Retires one executed access of core `c`: advances the core,
    /// prices an LLC access through its MSHRs and `timing`, and records
    /// the telemetry. The engine stage resets its own coherence counters
    /// at the warmup boundary.
    #[inline(always)]
    fn retire(
        &mut self,
        timing: &mut TimingModel,
        c: usize,
        mr: MemRef,
        x: Executed,
        steps: &[Step],
        background: &[Background],
    ) {
        // The reference instruction itself retires too: charge `gap + 1`
        // cycles to match the `gap + 1` instructions, or a hit-only trace
        // would report IPC above the base-CPI-1 ceiling.
        let instructions = mr.gap_instructions as u64 + 1;
        let mut latency = None;
        let core = &mut self.cores[c];
        core.instructions += instructions;
        core.cursor += Cycles(instructions);
        self.served.record(x.served);
        if !x.llc_access {
            // SRAM hit: absorbed by the pipeline at base CPI.
            core.finish = core.finish.max(core.cursor);
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

            let done = timing.charge(issue, x.line, steps, background);
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
        }

        self.processed += 1;
        if self.sampling {
            self.timeline
                .record_ref(service_level(x.served), instructions, latency);
            if self.timeline.epoch_full() {
                let flits = timing.mesh().link_flits();
                self.timeline
                    .flush(&epoch_env(&self.cores, timing, &flits, self.meter));
            }
        }
        if self.warmup_pending && self.processed >= self.meter.warmup_refs {
            self.end_warmup(timing);
        }
    }

    /// Ends the warmup window: zeroes the measurement aggregates and
    /// takes counter baselines for the shared resources, but leaves
    /// caches, directories, and bank reservations as they are. Runs at
    /// most once per run.
    fn end_warmup(&mut self, timing: &TimingModel) {
        self.warmup_pending = false;
        self.served = ServedLevels::default();
        self.llc_accesses = 0;
        self.llc.reset();
        self.base = MeasureBase {
            instructions: self.cores.iter().map(|c| c.instructions).sum(),
            cycles: makespan(&self.cores).as_u64(),
            mesh_messages: timing.mesh().messages(),
            mesh_hops: timing.mesh().total_hops(),
            link_flits: timing.mesh().link_flits(),
            vault_busy: timing.vault_busy_cycles(),
            memory_accesses: timing.memory_accesses(),
        };
    }

    /// Closes the run once every access has retired and `engine` is back
    /// on the calling thread, and assembles its output around `profile`.
    fn finish<P: Protocol + ?Sized>(
        mut self,
        engine: &mut P,
        timing: &TimingModel,
        workload_name: &str,
        profile: Option<PhaseProfile>,
    ) -> RunOutput {
        if self.warmup_pending {
            // The warmup window swallowed the whole trace: still perform
            // the reset so the measurement window is consistently empty
            // instead of silently reporting cold-start full-run numbers.
            self.end_warmup(timing);
            engine.reset_coherence_stats();
        }
        let mesh = timing.mesh();
        let link_flits = mesh.link_flits();
        self.timeline
            .finish(&epoch_env(&self.cores, timing, &link_flits, self.meter));

        let base = &self.base;
        let mesh_messages = mesh.messages() - base.mesh_messages;
        let mesh_total_hops = mesh.total_hops() - base.mesh_hops;
        let mesh_max_link_flits = link_flits
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
            served: ServedCounts::of(&self.served),
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
            profile,
        }
    }
}

/// References per batch, for both executors. Measured on a 2-vCPU host
/// under `taskset -c 0` (`silo-sim bench --refs 100000 --threads 1`),
/// the inline executor ran no faster with batches of 64, 256 or 1024
/// references than with 2048.
const BATCH: usize = 2048;
/// Batches circulating between the threaded executor's two stages: one
/// being executed, one being retired and refilled, and one queued so
/// neither stage waits on the other's jitter.
const BATCHES: usize = 3;

/// One batch of the loop. The calling thread fills `refs` (and
/// `check_due`); the engine stage appends one [`Executed`] per reference
/// and each access's steps and background work back to back; the
/// calling thread retires it and refills the same buffers, so a run
/// allocates only its first few batches.
#[derive(Default)]
struct Batch {
    refs: Vec<(usize, MemRef)>,
    executed: Vec<Executed>,
    steps: Vec<Step>,
    background: Vec<Background>,
    /// The batch ends on a `--check` boundary: the engine stage checks
    /// the engine's invariants after its last reference.
    check_due: bool,
    /// The violation that check found, if any.
    fault: Option<String>,
}

impl Batch {
    fn clear(&mut self) {
        self.refs.clear();
        self.executed.clear();
        self.steps.clear();
        self.background.clear();
    }
}

/// The engine side of the loop, shared by both executors.
struct EngineStage<'e, P: ?Sized> {
    engine: &'e mut P,
    /// One result buffer for the whole run: the engine writes into it,
    /// reusing the step vectors instead of allocating two per reference.
    res: AccessResult,
    /// The host-cache prefetch distance: one round-robin round.
    ahead: usize,
    warmup_refs: u64,
    processed: u64,
}

impl<P: Protocol + ?Sized> EngineStage<'_, P> {
    /// Executes `batch` in order. Each reference's prefetch hint goes out
    /// `ahead` references early; the coherence counters reset right after
    /// reference `warmup_refs` (a warmup that swallows the whole trace is
    /// closed by the caller); and a batch ending on a check boundary
    /// carries the engine's invariant violation back.
    fn execute(&mut self, batch: &mut Batch) {
        let engine = &mut *self.engine;
        for &(c, mr) in batch.refs.iter().take(self.ahead) {
            engine.prefetch(c, mr);
        }
        for (i, &(c, mr)) in batch.refs.iter().enumerate() {
            if let Some(&(c, mr)) = batch.refs.get(i + self.ahead) {
                engine.prefetch(c, mr);
            }
            engine.access_into(c, mr, &mut self.res);
            batch.executed.push(Executed::of(&self.res));
            batch.steps.extend_from_slice(&self.res.steps);
            batch.background.extend_from_slice(&self.res.background);
            self.processed += 1;
            if self.processed == self.warmup_refs {
                engine.reset_coherence_stats();
            }
        }
        if batch.check_due {
            batch.fault = engine.check_invariants().err();
        }
    }
}

/// An executor as the calling thread's loop sees it.
trait Dispatch {
    /// Hands a filled batch to the engine stage.
    fn submit(&mut self, batch: Batch);
    /// Takes back the oldest submitted batch, executed, lapping the
    /// calling thread's time until then into `prof`.
    fn complete(&mut self, prof: &mut Profiler) -> Batch;
}

/// The inline executor: the calling thread executes each batch itself,
/// one batch in flight.
struct Inline<'e, P: ?Sized> {
    stage: EngineStage<'e, P>,
    ready: Option<Batch>,
}

impl<P: Protocol + ?Sized> Dispatch for Inline<'_, P> {
    fn submit(&mut self, batch: Batch) {
        self.ready = Some(batch);
    }

    fn complete(&mut self, prof: &mut Profiler) -> Batch {
        let mut batch = self.ready.take().expect("one batch in flight");
        self.stage.execute(&mut batch);
        prof.lap(PH_EXECUTE);
        batch
    }
}

/// The threaded executor: the engine stage runs [`engine_thread`] on a
/// scoped helper, fed and drained through bounded channels. A panic on
/// either side resurfaces on the calling thread with its own payload:
/// the calling thread's unwinding hangs up both channels, which ends the
/// helper, and a helper's panic is rethrown when its channel closes.
struct Threaded<'s> {
    todo: SyncSender<Batch>,
    done: Receiver<Batch>,
    /// `None` once joined.
    helper: Option<ScopedJoinHandle<'s, Profiler>>,
}

impl Threaded<'_> {
    /// Hangs up both channels, which stops the helper after its current
    /// batch, and joins it.
    fn join(self) -> Profiler {
        drop((self.todo, self.done));
        joined(self.helper.expect("the helper is joined once"))
    }
}

/// The profiler of a helper that has returned, or its panic rethrown.
fn joined(helper: ScopedJoinHandle<'_, Profiler>) -> Profiler {
    helper
        .join()
        .unwrap_or_else(|payload| panic::resume_unwind(payload))
}

impl Dispatch for Threaded<'_> {
    fn submit(&mut self, batch: Batch) {
        // A helper that hung up has panicked; `complete` rethrows that.
        let _ = self.todo.send(batch);
    }

    fn complete(&mut self, prof: &mut Profiler) -> Batch {
        let Ok(batch) = self.done.recv() else {
            joined(self.helper.take().expect("the helper is joined once"));
            unreachable!("the engine stage hung up mid-run");
        };
        prof.lap(PH_CALLER_WAIT);
        batch
    }
}

/// The threaded executor's helper: executes each batch from `todo` in
/// order and hands it back on `done`, lapping the engine's phases when
/// `profiled`. Returns when the caller hangs up either channel.
fn engine_thread<P: Protocol + ?Sized>(
    mut stage: EngineStage<'_, P>,
    profiled: bool,
    todo: Receiver<Batch>,
    done: SyncSender<Batch>,
) -> Profiler {
    let mut prof = Profiler::new(profiled);
    for mut batch in todo {
        prof.lap(PH_ENGINE_WAIT);
        stage.execute(&mut batch);
        prof.lap(PH_EXECUTE);
        if done.send(batch).is_err() {
            break;
        }
    }
    prof
}

/// The calling thread's side of the loop: the source it pulls and the
/// oracle's period.
struct Feed<'s> {
    source: &'s mut dyn TraceSource,
    pull: RoundRobin,
    /// References pulled so far.
    pulled: u64,
    check_every: Option<NonZeroU64>,
}

impl Feed<'_> {
    /// Fills `batch` with up to [`BATCH`] references, ending it early at
    /// the next check boundary. Returns false once every stream is dry.
    fn fill(&mut self, batch: &mut Batch) -> bool {
        let len = self.check_every.map_or(BATCH, |n| {
            let to_boundary = n.get() - self.pulled % n.get();
            usize::try_from(to_boundary).map_or(BATCH, |b| b.min(BATCH))
        });
        let got = self.pull.fill(&mut *self.source, &mut batch.refs, len);
        self.pulled += got as u64;
        batch.check_due = self.check_every.is_some_and(|n| self.pulled % n.get() == 0);
        got > 0
    }

    /// The loop: keeps up to `depth` batches in flight through `x` and
    /// retires each executed batch in order.
    fn drive(
        &mut self,
        x: &mut impl Dispatch,
        r: &mut Retirer<'_>,
        timing: &mut TimingModel,
        prof: &mut Profiler,
        depth: usize,
    ) -> Result<(), String> {
        let mut spare: Vec<Batch> = (0..depth).map(|_| Batch::default()).collect();
        let mut in_flight = 0;
        loop {
            while let Some(mut batch) = spare.pop() {
                if !self.fill(&mut batch) {
                    spare.push(batch);
                    break;
                }
                x.submit(batch);
                in_flight += 1;
            }
            prof.lap(PH_PULL);
            if in_flight == 0 {
                return Ok(());
            }
            let mut batch = x.complete(prof);
            in_flight -= 1;
            r.retire_batch(timing, &mut batch)?;
            prof.lap(PH_RETIRE);
            batch.clear();
            spare.push(batch);
        }
    }
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
        // A profiled run laps each phase once per batch, never per
        // reference: each root is the exact sum of its children, the
        // clock-read count is bounded by the batch count and repeats
        // exactly, and the statistics are the plain run's.
        let cfg = SystemConfig::paper_16core().with_cores(8);
        let spec = WorkloadSpec {
            refs_per_core: 2_000,
            ..WorkloadSpec::zipf_shared()
        };
        let meter = MeterConfig::default();
        let run = |mode, executor| {
            let mut source = spec.source(cfg.cores, cfg.scale, 5).expect("source");
            run_scheduled(
                "SILO",
                &cfg,
                &meter,
                &mut *source,
                Schedule { mode, executor },
            )
            .expect("unchecked runs cannot fail")
        };
        let plain = run(RunMode::Plain, Executor::Inline).stats;
        for executor in [Executor::Inline, Executor::Threaded] {
            let out = run(RunMode::Profiled, executor);
            assert_eq!(out.stats, plain, "{executor:?}: profiling changed the run");
            let p = out.profile.expect("profiled runs carry a profile");
            assert_eq!(p.labels().len(), PROFILE_TREE.len());
            for root in p.roots() {
                let kids: u64 = p.children(root).iter().map(|&i| p.nanos()[i]).sum();
                assert_eq!(
                    kids,
                    p.nanos()[root],
                    "{executor:?}: children tile the root"
                );
            }
            let batches = (8 * 2_000u64).div_ceil(BATCH as u64);
            assert_eq!(p.samples()[PH_CALLER], batches);
            assert_eq!(p.samples()[PH_ENGINE], batches);
            assert!(
                p.clock_reads() <= 8 * batches + 8,
                "{executor:?}: {} clock reads for {batches} batches",
                p.clock_reads()
            );
            let again = run(RunMode::Profiled, executor).profile.expect("profiled");
            assert_eq!(p.clock_reads(), again.clock_reads());
            assert!(p.unattributed_nanos() <= p.wall_nanos());
            assert!(PROFILE_PHASES.contains(&bound_by(&p)));
            assert!((0.0..=1.0).contains(&overlap(&p)), "{executor:?}");
            if executor == Executor::Inline {
                assert_eq!(p.nanos()[PH_CALLER_WAIT], 0);
                assert_eq!(p.nanos()[PH_ENGINE_WAIT], 0);
                assert_eq!(overlap(&p), 0.0);
            }
        }
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
        let period = |n| RunMode::Checked(NonZeroU64::new(n).expect("nonzero"));
        let plain = stats_of("SILO", &cfg, &spec, 1);
        for executor in [Executor::Inline, Executor::Threaded] {
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
                Schedule { mode, executor }.run(
                    &mut engine,
                    &mut timing,
                    &cfg,
                    &spec.name,
                    &mut *source,
                    &MeterConfig::default(),
                )
            };
            // The fault appears at reference 1000; the oracle sweeps every
            // 64 references, so the first sweep to see it runs after 1024.
            let err = run_faulty(1_000, period(64)).expect_err("oracle must fire");
            assert_eq!(err, "after 1024 refs: injected fault at access 1024");
            // A fault on a sweep boundary is caught by that very sweep.
            let err = run_faulty(640, period(64)).expect_err("oracle must fire");
            assert!(err.starts_with("after 640 refs:"), "{err}");
            // A period that does not divide the batch length.
            let err = run_faulty(1_000, period(3_000)).expect_err("oracle must fire");
            assert_eq!(err, "after 3000 refs: injected fault at access 3000");
            // A period longer than the trace never sweeps.
            let long = run_faulty(1, period(10_000)).expect("no sweep, no fault");
            assert_eq!(long.stats, plain, "{executor:?}");
            // Unchecked runs never consult the oracle.
            let unchecked = run_faulty(1, RunMode::Plain).expect("plain runs cannot fail");
            assert_eq!(unchecked.stats, plain, "{executor:?}");

            // The registry names the failing system ahead of the location.
            let err = sys
                .label(run_faulty(1_000, period(64)))
                .expect_err("still failing");
            assert_eq!(
                err,
                "SILO: invariant violation after 1024 refs: injected fault at access 1024"
            );
        }
        // A clean checked run through `SystemSpec::run` is bit-identical
        // to the plain one.
        let checked = run_named("SILO", &cfg, &spec, 1, period(64))
            .expect("builtin engines hold their invariants");
        assert_eq!(checked.stats, plain);
    }

    /// Runs the registry system `name` over `source` under `schedule`.
    fn run_scheduled(
        name: &str,
        cfg: &SystemConfig,
        meter: &MeterConfig,
        source: &mut dyn TraceSource,
        schedule: Schedule,
    ) -> Result<RunOutput, String> {
        let mut inst = SystemRegistry::builtin()
            .get(name)
            .expect("builtin")
            .instantiate(cfg);
        schedule.run(&mut inst.engine, &mut inst.timing, cfg, "w", source, meter)
    }

    /// Asserts that both executors, in every mode, produce the plain
    /// inline run's statistics and telemetry for `name` over the stream
    /// `source` builds afresh, with a profile exactly when profiled.
    fn assert_schedules_agree<'t>(
        name: &str,
        cfg: &SystemConfig,
        meter: &MeterConfig,
        source: impl Fn() -> Box<dyn TraceSource + 't>,
        what: &str,
    ) {
        let run = |mode, executor| {
            run_scheduled(
                name,
                cfg,
                meter,
                &mut *source(),
                Schedule { mode, executor },
            )
            .unwrap_or_else(|e| panic!("{name} on {what}, {mode:?}: {e}"))
        };
        let reference = run(RunMode::Plain, Executor::Inline);
        let every = NonZeroU64::new(64).expect("nonzero");
        for mode in [RunMode::Plain, RunMode::Checked(every), RunMode::Profiled] {
            for executor in [Executor::Inline, Executor::Threaded] {
                let out = run(mode, executor);
                let at = format!("{name} on {what}, {mode:?} {executor:?}");
                assert_eq!(out.stats, reference.stats, "{at}: stats differ");
                assert_eq!(
                    out.telemetry, reference.telemetry,
                    "{at}: telemetry differs"
                );
                assert_eq!(
                    out.profile.is_some(),
                    mode == RunMode::Profiled,
                    "{at}: profile"
                );
            }
        }
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
        let threaded = Schedule {
            mode: RunMode::Plain,
            executor: Executor::Threaded,
        };
        let direct = run_scheduled(
            "baseline",
            &cfg,
            &meter,
            &mut SliceTrace::new(&traces),
            threaded,
        )
        .expect("plain runs cannot fail");
        let replayed = run_scheduled("baseline", &cfg, &meter, &mut *replay(), threaded)
            .expect("plain runs cannot fail");
        assert_eq!(
            direct.stats, replayed.stats,
            "replay differs from the direct run"
        );
    }

    #[test]
    fn every_mode_takes_the_executor_the_host_allows() {
        let executor = if host_threads() >= 2 {
            Executor::Threaded
        } else {
            Executor::Inline
        };
        let every = NonZeroU64::new(64).expect("nonzero");
        for mode in [RunMode::Plain, RunMode::Checked(every), RunMode::Profiled] {
            assert_eq!(Schedule::of(mode), Schedule { mode, executor });
        }
    }

    /// SILO in plain mode under `executor`, wrapped to panic in the
    /// engine at access `panic_at`.
    fn faulty_run(executor: Executor, panic_at: u64, timing: fn(&SystemConfig) -> TimingModel) {
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
        let schedule = Schedule {
            mode: RunMode::Plain,
            executor,
        };
        let _ = schedule.run(
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
        faulty_run(Executor::Threaded, 5_000, TimingModel::silo);
    }

    #[test]
    #[should_panic(expected = "injected engine panic at access 5000")]
    fn inline_engine_panics_surface_on_the_caller() {
        faulty_run(Executor::Inline, 5_000, TimingModel::silo);
    }

    #[test]
    #[should_panic(expected = "vault step in a system without vaults")]
    fn pipelined_timing_panics_end_the_engine_stage() {
        // A SILO engine priced by the baseline's model: the first vault
        // step panics on the calling thread while the engine thread
        // still has batches to run.
        faulty_run(Executor::Threaded, u64::MAX, TimingModel::baseline);
    }

    /// The swap-with-last MSHR removal [`Mshrs::drop_completed`]
    /// replaced, with the same [`Mshrs::acquire`] rule.
    struct SwapRemoveMshrs {
        done: Vec<Cycles>,
        mlp: usize,
    }

    impl SwapRemoveMshrs {
        fn drop_completed(&mut self, issue: Cycles) {
            let mut i = 0;
            while i < self.done.len() {
                if self.done[i] <= issue {
                    self.done.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }

        fn acquire(&mut self, mut issue: Cycles) -> Cycles {
            while self.done.len() >= self.mlp {
                let mut idx = 0;
                for j in 1..self.done.len() {
                    if self.done[j] < self.done[idx] {
                        idx = j;
                    }
                }
                issue = issue.max(self.done[idx]);
                self.done.swap_remove(idx);
            }
            issue
        }
    }

    #[test]
    fn mshr_compaction_matches_swap_remove() {
        use crate::workload::Rng;
        for mlp in 1..=8 {
            for seed in 0..8u64 {
                let mut rng = Rng::new(seed * 31 + mlp as u64);
                let mut new = Mshrs::new(mlp);
                let mut old = SwapRemoveMshrs {
                    done: Vec::new(),
                    mlp,
                };
                let mut cursor = 0u64;
                for step in 0..2_000 {
                    // Small strides and latencies make ties and
                    // equal-to-issue completions common.
                    cursor += rng.below(8);
                    let issue = Cycles(cursor);
                    new.drop_completed(issue);
                    old.drop_completed(issue);
                    let (a, b) = (new.acquire(issue), old.acquire(issue));
                    assert_eq!(a, b, "mlp {mlp} seed {seed} step {step}: issue");
                    let done = a + Cycles(rng.below(40));
                    new.push(done);
                    old.done.push(done);
                    let mut left = new.done[..new.len].to_vec();
                    let mut right = old.done.clone();
                    left.sort_unstable();
                    right.sort_unstable();
                    assert_eq!(left, right, "mlp {mlp} seed {seed} step {step}: multiset");
                }
            }
        }
    }

    #[test]
    fn served_levels_count_each_level_in_its_own_field() {
        let levels = [
            ServedBy::L1,
            ServedBy::L2,
            ServedBy::LocalVault,
            ServedBy::RemoteVault,
            ServedBy::SharedLlc,
            ServedBy::Memory,
        ];
        for (i, &level) in levels.iter().enumerate() {
            let mut tally = ServedLevels::default();
            for _ in 0..=i {
                tally.record(level);
            }
            let counts = ServedCounts::of(&tally);
            assert_eq!(counts.total(), i as u64 + 1, "{level:?}");
            assert_eq!(counts.fraction(level), 1.0, "{level:?}");
        }
    }
}
