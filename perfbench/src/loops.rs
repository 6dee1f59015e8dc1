//! The two hot-loop workloads: `loop-silo` (SILO over the lazily
//! generated `zipf-shared` stream) and `replay-baseline` (the shared
//! NUCA baseline replaying a recorded `uniform-private` capture).
//!
//! Both run closed loop on one thread. Each operation is one *pass*:
//! instantiate the system, open the input, simulate every reference.
//! Passes alternate between the run's base input, already seen (the
//! "cached" kind — for replay, the capture already on disk), and a
//! never-seen input derived from the seed (the "cold" kind — for
//! replay, it must be recorded first).

use crate::env::{derive_seed, peak_rss_mib, Scratch, Tracer};
use crate::layers::{self, Battery};
use crate::stats::{median, pct, tail, Report};
use silo_sim::{
    run_metered_source, MeterConfig, RunStats, SyntheticTrace, SystemConfig, SystemInstance,
    SystemRegistry, SystemSpec, TimingModel, TraceHeader, TraceReader, TraceSource, TraceWriter,
    WorkloadSpec,
};
use silo_types::MemRef;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// References per core in one pass: 16 cores x 20k = 320k references,
/// about a tenth of a second of simulation.
pub const REFS_PER_CORE: usize = 20_000;

/// The percentile every host time of a loop reports. A pass takes
/// 100 ms or more, and the host alternates between fast and slow phases
/// that last seconds. How much of a run each phase takes swings the
/// median pass by up to 1.6x from run to run, but nearly every run spends
/// a tenth of its time in a slow phase, so the 90th percentile repeats.
const TIME_PCT: f64 = 90.0;

/// The seed whose simulated statistics are pinned in `digests.txt`.
pub const DEFAULT_SEED: u64 = 42;

/// `workload seed sha256` lines: the simulated statistics of each loop
/// workload's base pass, and `serve-fig11`'s base sweep document, at
/// [`DEFAULT_SEED`].
const PINNED: &str = include_str!("../digests.txt");

/// Which hot loop runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoopKind {
    /// `loop-silo`.
    Silo,
    /// `replay-baseline`.
    Replay,
}

/// One loop workload's fixed configuration.
pub struct Loop {
    kind: LoopKind,
    /// The simulated machine: the paper's 16-core config.
    cfg: SystemConfig,
    /// The workload generator.
    spec: WorkloadSpec,
    /// The system under test.
    system: SystemSpec,
    /// The other system of the paper's comparison, for `silo_speedup`.
    counterpart: SystemSpec,
    seed: u64,
    base_trace: PathBuf,
    cold_trace: PathBuf,
}

/// Calls `f(core, ref)` for every reference of `src` in the run loop's
/// round-robin order (one reference per live core per turn).
pub fn drain(src: &mut dyn TraceSource, cores: usize, mut f: impl FnMut(usize, MemRef)) {
    let mut live = vec![true; cores];
    let mut left = cores;
    while left > 0 {
        for (core, alive) in live.iter_mut().enumerate() {
            if !*alive {
                continue;
            }
            match src.next(core) {
                Some(mr) => f(core, mr),
                None => {
                    *alive = false;
                    left -= 1;
                }
            }
        }
    }
}

/// Records `spec` at `seed` to a `.silotrace` file at `path`.
///
/// # Errors
///
/// Returns the trace layer's message on any write failure.
pub fn record(
    spec: &WorkloadSpec,
    cfg: &SystemConfig,
    seed: u64,
    path: &Path,
) -> Result<(), String> {
    let header = TraceHeader {
        cores: cfg.cores,
        refs_per_core: spec.refs_per_core as u64,
        seed,
        name: spec.name.clone(),
        provenance: "perfbench capture".into(),
    };
    let mut writer = TraceWriter::create(path, &header).map_err(|e| e.to_string())?;
    let mut result = Ok(());
    drain(
        &mut SyntheticTrace::new(spec, cfg.cores, cfg.scale, seed),
        cfg.cores,
        |core, mr| {
            if result.is_ok() {
                result = writer.write(core, mr);
            }
        },
    );
    result.map_err(|e| e.to_string())?;
    let mut out = writer.finish().map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())
}

/// A canonical digest of a run's simulated statistics.
pub fn stats_digest(stats: &RunStats, timing: &TimingModel) -> String {
    let s = &stats.served;
    let text = format!(
        "{} {} {} | {} {} {} {} {} {} | {} {:016x} | {} {} {} | {} {}",
        stats.system,
        stats.instructions,
        stats.cycles.as_u64(),
        s.l1.get(),
        s.l2.get(),
        s.local_vault.get(),
        s.remote_vault.get(),
        s.shared_llc.get(),
        s.memory.get(),
        stats.llc_accesses,
        stats.mean_llc_latency().to_bits(),
        stats.mesh_messages,
        stats.mesh_total_hops,
        stats.mesh_max_link_flits,
        timing.vault_busy_cycles(),
        timing.memory_accesses(),
    );
    silo_types::sha::sha256_hex(text.as_bytes())
}

/// The pinned digest of `workload` at `seed`, if any.
pub fn pinned(workload: &str, seed: u64) -> Option<&'static str> {
    PINNED.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()? == workload && f.next()?.parse::<u64>().ok()? == seed).then_some(f.next()?)
    })
}

/// What one pass produced.
struct Pass {
    stats: RunStats,
    digest: String,
    total: Duration,
    simulate: Duration,
}

impl Loop {
    /// The loop workload `kind` at `seed`, writing captures under
    /// `scratch`.
    pub fn new(kind: LoopKind, seed: u64, scratch: &Scratch) -> Loop {
        let registry = SystemRegistry::builtin();
        let get = |name: &str| registry.get(name).expect("builtin system").clone();
        let (spec, system, counterpart) = match kind {
            LoopKind::Silo => (WorkloadSpec::zipf_shared(), get("SILO"), get("baseline")),
            LoopKind::Replay => (
                WorkloadSpec::uniform_private(),
                get("baseline"),
                get("SILO"),
            ),
        };
        Loop {
            kind,
            cfg: SystemConfig::paper_16core(),
            spec: WorkloadSpec {
                refs_per_core: REFS_PER_CORE,
                ..spec
            },
            system,
            counterpart,
            seed,
            base_trace: scratch.path().join("base.silotrace"),
            cold_trace: scratch.path().join("cold.silotrace"),
        }
    }

    /// The workload's name on the command line.
    pub fn name(&self) -> &'static str {
        match self.kind {
            LoopKind::Silo => "loop-silo",
            LoopKind::Replay => "replay-baseline",
        }
    }

    /// References one pass simulates.
    fn refs(&self) -> u64 {
        (self.cfg.cores * self.spec.refs_per_core) as u64
    }

    /// Opens input `k` (0 = the base input): the generator at the
    /// `k`-th seed, or for replay a capture of it, recorded first when
    /// never seen.
    fn source(&self, k: u64) -> Result<Box<dyn TraceSource>, String> {
        let seed = derive_seed(self.seed, k);
        let path = match self.kind {
            LoopKind::Silo => {
                let cfg = &self.cfg;
                return Ok(Box::new(SyntheticTrace::new(
                    &self.spec, cfg.cores, cfg.scale, seed,
                )));
            }
            LoopKind::Replay if k == 0 => &self.base_trace,
            LoopKind::Replay => {
                record(&self.spec, &self.cfg, seed, &self.cold_trace)?;
                &self.cold_trace
            }
        };
        Ok(Box::new(
            TraceReader::open(path).map_err(|e| e.to_string())?,
        ))
    }

    /// Set-up: instantiate the system and build the base source; replay
    /// also records the base capture.
    fn setup(&self) -> Result<Duration, String> {
        let t = Instant::now();
        let instance = self.system.instantiate(&self.cfg);
        if self.kind == LoopKind::Replay {
            record(&self.spec, &self.cfg, self.seed, &self.base_trace)?;
        }
        let source = self.source(0)?;
        let took = t.elapsed();
        drop((instance, source));
        Ok(took)
    }

    /// Simulates `input` on a fresh instance of `system`.
    fn simulate(
        &self,
        system: &SystemSpec,
        source: &mut dyn TraceSource,
        tracer: &Tracer,
        parent: Option<u64>,
    ) -> (RunStats, SystemInstance, Duration) {
        let (mut instance, _) = tracer.span("instantiate", "registry", parent, |_| {
            system.instantiate(&self.cfg)
        });
        let ((stats, _telemetry), took) = tracer.span("simulate", "sim", parent, |_| {
            run_metered_source(
                &mut instance.engine,
                &mut instance.timing,
                &self.cfg,
                &self.spec.name,
                source,
                &MeterConfig::default(),
            )
        });
        (stats, instance, took)
    }

    /// One pass over input `k`.
    fn pass(&self, k: u64, tracer: &Tracer) -> Result<Pass, String> {
        let kind = if k == 0 { "cached-pass" } else { "cold-pass" };
        let (out, total) = tracer.span(kind, "perfbench", None, |id| {
            let (source, _) = tracer.span("source", "trace", id, |_| self.source(k));
            let (stats, instance, simulate) =
                self.simulate(&self.system, &mut *source?, tracer, id);
            let digest = stats_digest(&stats, &instance.timing);
            Ok::<_, String>((stats, digest, simulate))
        });
        let (stats, digest, simulate) = out?;
        Ok(Pass {
            stats,
            digest,
            total,
            simulate,
        })
    }

    /// The untimed SILO-over-baseline IPC ratio on the base input.
    fn speedup(&self, base: &RunStats) -> Result<f64, String> {
        let mut source = self.source(0)?;
        let (other, _, _) =
            self.simulate(&self.counterpart, &mut *source, &Tracer::default(), None);
        Ok(match self.kind {
            LoopKind::Silo => base.ipc() / other.ipc(),
            LoopKind::Replay => other.ipc() / base.ipc(),
        })
    }

    /// Runs the workload for `seconds`; with `trace`, reports the
    /// per-layer metrics instead of the end-to-end ones.
    pub fn run(&self, seconds: f64, trace: bool, scratch: &Scratch) -> Report {
        let mut report = Report::default();
        let mut setups = Vec::new();
        let mut setup = |report: &mut Report| match self.setup() {
            Ok(d) => setups.push(d.as_secs_f64()),
            Err(e) => report.check(false, &format!("set-up: {e}")),
        };
        setup(&mut report);
        let tracer = if trace {
            Tracer::on()
        } else {
            Tracer::default()
        };
        let untraced = Tracer::default();
        let mut base: Option<Pass> = None;
        let (mut cold_ms, mut cached_ms, mut simulate_s) = (Vec::new(), Vec::new(), Vec::new());
        let (mut traced_pairs, mut untraced_pairs) = (Vec::new(), Vec::new());
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut k = 0u64;
        let min_pairs = if trace { 2 } else { 1 };
        while k < min_pairs || Instant::now() < deadline {
            // A pair: the base input, then never-seen input k; in a
            // traced run, every other pair is traced.
            let traced = trace && k.is_multiple_of(2);
            let t = if traced { &tracer } else { &untraced };
            k += 1;
            let mut pair = Duration::ZERO;
            for input in [0, k] {
                let pass = match self.pass(input, t) {
                    Ok(p) => p,
                    Err(e) => {
                        report.check(false, &format!("pass {input}: {e}"));
                        continue;
                    }
                };
                pair += pass.total;
                report.check(
                    pass.stats.served.total() == self.refs(),
                    &format!(
                        "pass {input}: served levels sum to {}, {} refs issued",
                        pass.stats.served.total(),
                        self.refs()
                    ),
                );
                simulate_s.push(pass.simulate.as_secs_f64());
                if input == 0 {
                    cached_ms.push(pass.total.as_secs_f64() * 1e3);
                    match &base {
                        Some(b) => report.check(
                            b.stats == pass.stats && b.digest == pass.digest,
                            "a pass over the base input changed its simulated statistics",
                        ),
                        None => base = Some(pass),
                    }
                } else {
                    cold_ms.push(pass.total.as_secs_f64() * 1e3);
                }
            }
            if traced {
                traced_pairs.push(pair.as_secs_f64());
            } else if trace {
                untraced_pairs.push(pair.as_secs_f64());
            }
            // One more set-up sample per pair spreads them over the run
            // like every other sample.
            setup(&mut report);
        }
        let Some(base) = base else {
            return report;
        };
        println!(
            "{}: stats digest at seed {}: {}",
            self.name(),
            self.seed,
            base.digest
        );
        if self.seed == DEFAULT_SEED {
            let want = pinned(self.name(), self.seed);
            report.check(
                want == Some(base.digest.as_str()),
                &format!("stats digest {} != pinned {want:?}", base.digest),
            );
        }
        if trace {
            report.put(
                "trace_overhead_ratio",
                median(&traced_pairs) / median(&untraced_pairs),
                "1",
            );
            let (tail_p, tail_ms) = tail(&cached_ms).unwrap_or((100.0, f64::NAN));
            println!(
                "{}: cached passes: p{TIME_PCT} and tail p{tail_p} of {}",
                self.name(),
                cached_ms.len()
            );
            report.put("cached_ms", pct(&cached_ms, TIME_PCT), "ms");
            report.put("cached_tail_ms", tail_ms, "ms");
            match self.source(0) {
                Ok(mut source) => self
                    .battery(scratch)
                    .run(&mut *source, &mut report, &tracer),
                Err(e) => report.check(false, &format!("battery input: {e}")),
            }
            if let Some(rec) = tracer.recorder() {
                layers::write_trace(rec, self.name(), self.seed);
            }
            return report;
        }
        let speedup = self.speedup(&base.stats);
        report.check(speedup.is_ok(), "counterpart pass for silo_speedup");
        println!(
            "{}: p{TIME_PCT} of {} cold passes and {} set-ups",
            self.name(),
            cold_ms.len(),
            setups.len()
        );
        report.put(
            "refs_per_s",
            self.refs() as f64 / pct(&simulate_s, TIME_PCT),
            "1/s",
        );
        report.put("setup_s", pct(&setups, TIME_PCT), "s");
        report.put("peak_rss_mib", peak_rss_mib(), "MiB");
        report.put("sim_ipc", base.stats.ipc(), "1");
        report.put("silo_speedup", speedup.unwrap_or(f64::NAN), "x");
        report.put("cold_ms", pct(&cold_ms, TIME_PCT), "ms");
        report.put("ok_ratio", report.ok_ratio(), "1");
        report
    }

    /// The per-layer battery over this workload's base input.
    fn battery(&self, scratch: &Scratch) -> Battery {
        let workload = match self.kind {
            LoopKind::Silo => self.spec.name.clone(),
            LoopKind::Replay => format!("trace:file={}", self.base_trace.display()),
        };
        let total = self.refs();
        let scenario = format!(
            "systems = {}\nworkloads = {workload}\ncores = {}\nscale = {}\nmlp = {}\n\
             seed = {}\nrefs = {}\nthreads = 1\nwarmup = {}\nepoch = {}\n",
            self.system.name(),
            self.cfg.cores,
            self.cfg.scale,
            self.cfg.mlp,
            self.seed,
            self.spec.refs_per_core,
            total / 10,
            total / 4,
        );
        Battery {
            cfg: self.cfg,
            systems: vec![self.system.clone()],
            generator: self.spec.clone(),
            seed: self.seed,
            scenario,
            scratch: scratch.path().join("battery"),
        }
    }
}
