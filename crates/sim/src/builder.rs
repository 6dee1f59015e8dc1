//! The builder-pattern library entry point.
//!
//! [`Simulation::builder`] composes a [`SystemConfig`], system
//! selections from the [`SystemRegistry`], workload specs (presets or
//! custom parameterizations), and sweep axes into a validated
//! [`Simulation`]. All validation happens in
//! [`SimulationBuilder::build`], which returns typed [`ConfigError`]s
//! instead of panicking, so `silo-sim` is usable as a library; the CLI
//! is a thin shim over this module. The `--check` and `--profile`
//! settings become one [`RunMode`] per run: hooks on the one batch loop
//! of [`crate::run`], never a different loop.

use crate::bench::{self, BenchRecord, SweepSpec};
use crate::config::{SystemConfig, VaultDesign};
use crate::error::ConfigError;
use crate::registry::{SystemRegistry, SystemSpec};
use crate::run::RunMode;
use crate::scenario::Scenario;
use crate::workload::WorkloadSpec;
use silo_telemetry::MeterConfig;
use std::num::NonZeroU64;

/// A fully validated, runnable comparison: N systems × workloads ×
/// sweep axes. Construct through [`Simulation::builder`].
#[derive(Clone, Debug)]
pub struct Simulation {
    spec: SweepSpec,
    threads: Option<usize>,
}

impl Simulation {
    /// Starts a builder with the paper's defaults: the 16-core Table II
    /// config, the SILO/baseline pair, and all workload presets.
    pub fn builder() -> SimulationBuilder {
        SimulationBuilder::default()
    }

    /// The validated sweep specification.
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// Worker threads the run will use: the explicit setting, else the
    /// host's available parallelism (minimum 4). Results never depend on
    /// this — parallel sweeps are bit-identical to sequential ones.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map_or(4, std::num::NonZeroUsize::get)
                .max(4)
        })
    }

    /// Runs every sweep point over every system, fanning out across
    /// [`Simulation::threads`] workers; records come back in point
    /// order.
    pub fn run(&self) -> Vec<BenchRecord> {
        bench::run_sweep(&self.spec, self.threads())
    }

    /// Runs everything on the calling thread (bit-identical to
    /// [`Simulation::run`]).
    pub fn run_sequential(&self) -> Vec<BenchRecord> {
        bench::run_sweep_sequential(&self.spec)
    }
}

/// Composable configuration for a [`Simulation`]; every setter is
/// chainable and nothing is validated until [`SimulationBuilder::build`].
#[derive(Clone, Debug, Default)]
pub struct SimulationBuilder {
    config: SystemConfig,
    registry: SystemRegistry,
    settings: Scenario,
    workload_specs: Vec<WorkloadSpec>,
}

impl SimulationBuilder {
    /// Sets the template [`SystemConfig`] (per-point axes override it).
    pub fn config(mut self, config: SystemConfig) -> Self {
        self.config = config;
        self
    }

    /// Replaces the system registry.
    pub fn registry(mut self, registry: SystemRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Registers (or replaces) a custom system in this builder's
    /// registry; select it by name with [`SimulationBuilder::systems`].
    pub fn register_system(mut self, spec: SystemSpec) -> Self {
        self.registry.register(spec);
        self
    }

    /// Selects the systems to compare, by registry name, in report
    /// order. Defaults to the SILO/baseline pair.
    pub fn systems<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.settings.systems = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Selects the workloads by spec string: preset names or custom
    /// parameterizations (see [`WorkloadSpec::parse`]). Defaults to all
    /// presets.
    pub fn workloads<I, S>(mut self, specs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.settings.workloads = Some(specs.into_iter().map(Into::into).collect());
        self
    }

    /// Appends one fully built workload spec (for programmatic
    /// workloads that the string grammar cannot express).
    pub fn workload_spec(mut self, spec: WorkloadSpec) -> Self {
        self.workload_specs.push(spec);
        self
    }

    /// Sets the core-count axis (a single value for a flat run).
    pub fn cores(mut self, cores: impl IntoIterator<Item = usize>) -> Self {
        self.settings.cores = Some(cores.into_iter().collect());
        self
    }

    /// Sets the capacity-scale axis.
    pub fn scales(mut self, scales: impl IntoIterator<Item = u64>) -> Self {
        self.settings.scales = Some(scales.into_iter().collect());
        self
    }

    /// Sets the MSHR-count axis.
    pub fn mlps(mut self, mlps: impl IntoIterator<Item = usize>) -> Self {
        self.settings.mlps = Some(mlps.into_iter().collect());
        self
    }

    /// Sets the vault-design axis by name (`table2`, `latency`,
    /// `capacity`).
    pub fn vault_designs<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.settings.vaults = Some(names.into_iter().map(Into::into).collect());
        self
    }

    /// Sets the workload RNG seed (default 42).
    pub fn seed(mut self, seed: u64) -> Self {
        self.settings.seed = Some(seed);
        self
    }

    /// Sets the default per-core reference count: it replaces the
    /// preset counts of name-selected workloads, but an explicit
    /// `refs=` parameter in a custom spec wins, and specs added with
    /// [`SimulationBuilder::workload_spec`] keep their own count.
    pub fn refs_per_core(mut self, refs: usize) -> Self {
        self.settings.refs = Some(refs);
        self
    }

    /// Sets the worker-thread count (default: host parallelism).
    pub fn threads(mut self, threads: usize) -> Self {
        self.settings.threads = Some(threads);
        self
    }

    /// Sets the warmup window: references (summed across cores) after
    /// which every run resets its measurement counters while preserving
    /// cache, directory, and bank-timing state. Zero (the default)
    /// disables warmup.
    pub fn warmup_refs(mut self, refs: u64) -> Self {
        self.settings.warmup = Some(refs);
        self
    }

    /// Enables epoch sampling: every `refs` references each run records
    /// a timeline epoch (IPC, served-by-level counts, LLC latency
    /// percentiles, mesh link utilization, vault occupancy).
    pub fn epoch_refs(mut self, refs: u64) -> Self {
        self.settings.epoch = Some(refs);
        self
    }

    /// Enables the run-time invariant oracle (`--check`): every `refs`
    /// processed references each run replays the engine's structural
    /// invariants plus the loop's cross-layer assertions, panicking on
    /// the first violation (a simulator bug). Off by default; either way
    /// the run takes the same batch loop, and a checked run's results
    /// are bit-identical to an unchecked one's.
    pub fn check_every(mut self, refs: u64) -> Self {
        self.settings.check = Some(refs);
        self
    }

    /// Enables the hot-loop self-profiler (`--profile`): every run
    /// times its caller and engine stages once per batch, on the
    /// executor it takes anyway (see [`crate::run::PROFILE_TREE`]), and
    /// attaches a `PhaseProfile` to its [`crate::bench::SystemRun`].
    /// Off by default; results are bit-identical either way. Mutually
    /// exclusive with [`SimulationBuilder::check_every`].
    pub fn profile(mut self, on: bool) -> Self {
        self.settings.profile = Some(on);
        self
    }

    /// Overlays a [`Scenario`] (a parsed scenario file, or settings
    /// collected from flags): every setting it has replaces the
    /// builder's, so apply the scenario first and explicit overrides
    /// after.
    pub fn scenario(mut self, s: &Scenario) -> Self {
        self.settings.overlay(s);
        self
    }

    /// Validates everything and produces a runnable [`Simulation`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for unknown system / workload / vault
    /// names, duplicate selections, out-of-range axis values, empty
    /// selections, or an inconsistent base config.
    pub fn build(self) -> Result<Simulation, ConfigError> {
        let systems = self.resolve_systems()?;
        let cores = self.validated_axis(
            self.settings.cores.clone(),
            self.config.cores,
            "cores",
            |&c| (1..=64).contains(&c),
            "must be in [1, 64] (directory masks are u64)",
        )?;
        let workloads = self.resolve_workloads(&cores)?;
        let scales = self.validated_axis(
            self.settings.scales.clone(),
            self.config.scale,
            "scale",
            |&s| s >= 1,
            "must be at least 1",
        )?;
        let mlps = self.validated_axis(
            self.settings.mlps.clone(),
            self.config.mlp,
            "mlp",
            |&m| m >= 1,
            "must be at least 1",
        )?;
        let vaults = self.resolve_vaults()?;
        for (what, value) in [
            ("refs", self.settings.refs),
            ("threads", self.settings.threads),
        ] {
            if value == Some(0) {
                return Err(ConfigError::BadValue {
                    what: what.into(),
                    value: "0".into(),
                    reason: "must be at least 1".into(),
                });
            }
        }
        if self.settings.epoch == Some(0) {
            return Err(ConfigError::BadValue {
                what: "epoch".into(),
                value: "0".into(),
                reason: "must be at least 1 reference per epoch".into(),
            });
        }
        let check = self
            .settings
            .check
            .map(|n| {
                NonZeroU64::new(n).ok_or_else(|| ConfigError::BadValue {
                    what: "check".into(),
                    value: "0".into(),
                    reason: "must be at least 1 reference between oracle sweeps".into(),
                })
            })
            .transpose()?;
        let mode = match (check, self.settings.profile.unwrap_or(false)) {
            (None, false) => RunMode::Plain,
            (None, true) => RunMode::Profiled,
            (Some(every), false) => RunMode::Checked(every),
            (Some(_), true) => {
                return Err(ConfigError::BadValue {
                    what: "profile".into(),
                    value: "on".into(),
                    reason: "cannot combine with check: the oracle sweeps would dominate \
                             the phase timings"
                        .into(),
                })
            }
        };
        // Reject runs whose measurement window is provably empty — a
        // warmup window that swallows every reference — instead of
        // reporting undefined IPC and speedups. Trace workloads were
        // already checked against their exact record counts during
        // resolution.
        let warmup = self.settings.warmup.unwrap_or(0);
        for w in workloads.iter().filter(|w| w.trace_file.is_none()) {
            for &c in &cores {
                let total = (w.refs_per_core as u64).saturating_mul(c as u64);
                if total <= warmup {
                    return Err(ConfigError::BadValue {
                        what: "warmup".into(),
                        value: warmup.to_string(),
                        reason: format!(
                            "swallows all {total} references of workload '{}' at {c} cores; \
                             nothing remains to measure",
                            w.name
                        ),
                    });
                }
            }
        }
        self.config.validate()?;
        Ok(Simulation {
            spec: SweepSpec {
                base: self.config,
                systems,
                cores,
                scales,
                mlps,
                vaults,
                workloads,
                seed: self.settings.seed.unwrap_or(42),
                meter: MeterConfig {
                    warmup_refs: self.settings.warmup.unwrap_or(0),
                    epoch_refs: self.settings.epoch,
                },
                mode,
            },
            threads: self.settings.threads,
        })
    }

    fn resolve_systems(&self) -> Result<Vec<SystemSpec>, ConfigError> {
        let Some(names) = &self.settings.systems else {
            return Ok(self.registry.classic_pair());
        };
        if names.is_empty() {
            return Err(ConfigError::Empty("systems"));
        }
        let mut out: Vec<SystemSpec> = Vec::with_capacity(names.len());
        for name in names {
            let spec = self
                .registry
                .get(name)
                .ok_or_else(|| ConfigError::UnknownSystem(name.clone()))?;
            if out.iter().any(|s| s.name().eq_ignore_ascii_case(name)) {
                return Err(ConfigError::Duplicate {
                    what: "system",
                    name: name.clone(),
                });
            }
            out.push(spec.clone());
        }
        Ok(out)
    }

    fn resolve_workloads(&self, cores: &[usize]) -> Result<Vec<WorkloadSpec>, ConfigError> {
        // The global refs setting is a *default*: it replaces the preset
        // reference counts but yields to an explicit `refs=` parameter
        // in a custom spec, and never touches specs added directly with
        // `workload_spec` (their struct already states a count) or
        // `trace:file=` replays (their length is the file's).
        let mut out: Vec<WorkloadSpec> = match &self.settings.workloads {
            Some(raw) => {
                let mut parsed = Vec::with_capacity(raw.len());
                for spec in raw {
                    parsed.push(WorkloadSpec::parse_with_default_refs(
                        spec,
                        self.settings.refs,
                    )?);
                }
                parsed
            }
            None if self.workload_specs.is_empty() => {
                let mut all = WorkloadSpec::all();
                if let Some(refs) = self.settings.refs {
                    for w in &mut all {
                        w.refs_per_core = refs;
                    }
                }
                all
            }
            None => Vec::new(),
        };
        out.extend(self.workload_specs.iter().cloned());
        // Uniqueness is judged on the names as selected (the spec
        // strings), *before* trace resolution substitutes header
        // names: replaying a capture alongside its same-named source
        // workload is the natural way to validate a round trip in one
        // run, and must not be rejected as a duplicate.
        for (i, w) in out.iter().enumerate() {
            if out[..i].iter().any(|o| o.name == w.name) {
                return Err(ConfigError::Duplicate {
                    what: "workload",
                    name: w.name.clone(),
                });
            }
        }
        for w in &mut out {
            resolve_trace_workload(w, cores, self.settings.warmup.unwrap_or(0))?;
        }
        if out.is_empty() {
            return Err(ConfigError::Empty("workloads"));
        }
        Ok(out)
    }

    fn validated_axis<T: Copy + PartialEq + std::fmt::Display>(
        &self,
        values: Option<Vec<T>>,
        default: T,
        what: &str,
        ok: impl Fn(&T) -> bool,
        reason: &str,
    ) -> Result<Vec<T>, ConfigError> {
        let values = values.unwrap_or_else(|| vec![default]);
        if values.is_empty() {
            return Err(ConfigError::Empty("sweep axis"));
        }
        for (i, v) in values.iter().enumerate() {
            if !ok(v) {
                return Err(ConfigError::BadValue {
                    what: what.into(),
                    value: v.to_string(),
                    reason: reason.into(),
                });
            }
            if values[..i].contains(v) {
                return Err(ConfigError::Duplicate {
                    what: "axis value",
                    name: format!("{what} {v}"),
                });
            }
        }
        Ok(values)
    }

    fn resolve_vaults(&self) -> Result<Vec<VaultDesign>, ConfigError> {
        let Some(names) = &self.settings.vaults else {
            return Ok(vec![VaultDesign::Table2]);
        };
        if names.is_empty() {
            return Err(ConfigError::Empty("vault designs"));
        }
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let v = VaultDesign::parse(name)
                .ok_or_else(|| ConfigError::UnknownVaultDesign(name.clone()))?;
            if v != VaultDesign::Table2 && v.design_point().is_none() {
                return Err(ConfigError::InfeasibleVaultDesign(name.clone()));
            }
            if out.contains(&v) {
                return Err(ConfigError::Duplicate {
                    what: "vault design",
                    name: name.clone(),
                });
            }
            out.push(v);
        }
        Ok(out)
    }
}

/// Resolves a `trace:file=` workload against its file: one streaming
/// [`silo_trace::verify`] pass checks the checksum and counts, the
/// header's workload name replaces the spec string (so replayed result
/// rows match the original run's rows byte for byte — two replays of
/// same-named captures will share a row label), the longest per-core
/// stream becomes `refs_per_core`, every value of the cores axis must
/// equal the recorded core count, and the *exact* record count must
/// leave a non-empty measurement window after `warmup` (per-core
/// streams may be uneven, so `refs_per_core × cores` would overcount).
/// Generator-backed workloads pass through untouched.
fn resolve_trace_workload(
    w: &mut WorkloadSpec,
    cores: &[usize],
    warmup: u64,
) -> Result<(), ConfigError> {
    let Some(path) = &w.trace_file else {
        return Ok(());
    };
    let trace_err = |message: String| ConfigError::Trace {
        path: path.display().to_string(),
        message,
    };
    let summary = silo_trace::verify(path).map_err(|e| trace_err(e.to_string()))?;
    let recorded = summary.header.cores;
    for &c in cores {
        if c != recorded {
            return Err(trace_err(format!(
                "recorded with {recorded} cores; replay it with cores = {recorded}, not {c}"
            )));
        }
    }
    w.refs_per_core = summary.per_core.iter().copied().max().unwrap_or(0) as usize;
    if !summary.header.name.is_empty() {
        w.name = summary.header.name.clone();
    }
    if summary.records == 0 {
        return Err(ConfigError::BadValue {
            what: format!("workload '{}'", w.name),
            value: "0 refs".into(),
            reason: "resolves to zero references (empty trace?); \
                     IPC and speedups would be undefined"
                .into(),
        });
    }
    if summary.records <= warmup {
        return Err(ConfigError::BadValue {
            what: "warmup".into(),
            value: warmup.to_string(),
            reason: format!(
                "swallows all {} references of trace workload '{}'; \
                 nothing remains to measure",
                summary.records, w.name
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_the_classic_comparison() {
        let sim = Simulation::builder().build().expect("defaults are valid");
        let spec = sim.spec();
        let names: Vec<&str> = spec.systems.iter().map(SystemSpec::name).collect();
        assert_eq!(names, ["SILO", "baseline"]);
        assert_eq!(spec.workloads.len(), WorkloadSpec::all().len());
        assert_eq!(spec.cores, vec![16]);
        assert_eq!(spec.seed, 42);
    }

    #[test]
    fn build_resolves_custom_selections() {
        let sim = Simulation::builder()
            .systems(["silo", "baseline-2x"])
            .workloads(["zipf:theta=0.3", "code-heavy"])
            .cores([2, 4])
            .mlps([4])
            .refs_per_core(100)
            .seed(7)
            .threads(2)
            .build()
            .expect("valid");
        let spec = sim.spec();
        assert_eq!(spec.systems[0].name(), "SILO");
        assert_eq!(spec.systems[1].name(), "baseline-2x");
        assert_eq!(spec.workloads[0].name, "zipf:theta=0.3");
        assert!(spec.workloads.iter().all(|w| w.refs_per_core == 100));
        assert_eq!(spec.points().len(), 2 * 2);
        assert_eq!(sim.threads(), 2);
    }

    #[test]
    fn build_rejects_bad_inputs_with_typed_errors() {
        let unknown = Simulation::builder().systems(["ghost"]).build();
        assert_eq!(
            unknown.err(),
            Some(ConfigError::UnknownSystem("ghost".into()))
        );

        let dup = Simulation::builder().systems(["SILO", "silo"]).build();
        assert!(matches!(dup, Err(ConfigError::Duplicate { .. })));

        let empty = Simulation::builder().systems(Vec::<String>::new()).build();
        assert_eq!(empty.err(), Some(ConfigError::Empty("systems")));

        let cores = Simulation::builder().cores([0]).build();
        assert!(matches!(cores, Err(ConfigError::BadValue { .. })));

        let cores = Simulation::builder().cores([4, 4]).build();
        assert!(matches!(cores, Err(ConfigError::Duplicate { .. })));

        let wl = Simulation::builder()
            .workloads(["zipf:theta=bogus"])
            .build();
        assert!(matches!(wl, Err(ConfigError::BadWorkloadSpec { .. })));

        let vault = Simulation::builder().vault_designs(["warp"]).build();
        assert_eq!(
            vault.err(),
            Some(ConfigError::UnknownVaultDesign("warp".into()))
        );

        let refs = Simulation::builder().refs_per_core(0).build();
        assert!(matches!(refs, Err(ConfigError::BadValue { .. })));
    }

    #[test]
    fn global_refs_default_yields_to_explicit_refs_params() {
        let sim = Simulation::builder()
            .workloads(["zipf-shared", "pointer-chase:refs=100"])
            .workload_spec(WorkloadSpec {
                name: "hand-built".into(),
                refs_per_core: 77,
                ..WorkloadSpec::uniform_private()
            })
            .refs_per_core(4_000)
            .cores([2])
            .build()
            .expect("valid");
        let w = &sim.spec().workloads;
        assert_eq!(w[0].refs_per_core, 4_000, "preset takes the default");
        assert_eq!(w[1].refs_per_core, 100, "explicit refs= wins");
        assert_eq!(w[2].refs_per_core, 77, "direct specs keep their count");
    }

    #[test]
    fn meter_settings_reach_the_spec_and_validate() {
        let sim = Simulation::builder()
            .warmup_refs(500)
            .epoch_refs(250)
            .build()
            .expect("valid");
        assert_eq!(sim.spec().meter.warmup_refs, 500);
        assert_eq!(sim.spec().meter.epoch_refs, Some(250));

        let off = Simulation::builder().build().expect("valid");
        assert!(off.spec().meter.is_disabled());

        let bad = Simulation::builder().epoch_refs(0).build();
        assert!(matches!(bad, Err(ConfigError::BadValue { .. })));
    }

    #[test]
    fn profile_reaches_the_spec_and_rejects_combining_with_check() {
        let sim = Simulation::builder().profile(true).build().expect("valid");
        assert_eq!(sim.spec().mode, RunMode::Profiled);
        let plain = Simulation::builder().build().expect("valid");
        assert_eq!(plain.spec().mode, RunMode::Plain);

        let bad = Simulation::builder()
            .profile(true)
            .check_every(1000)
            .build();
        assert!(matches!(bad, Err(ConfigError::BadValue { .. })));
        let msg = bad.expect_err("rejected").to_string();
        assert!(msg.contains("cannot combine with check"), "{msg}");
    }

    #[test]
    fn scenario_profile_key_merges_into_the_builder() {
        let scenario = Scenario::parse("profile = on\n").expect("valid scenario");
        let sim = Simulation::builder()
            .scenario(&scenario)
            .build()
            .expect("valid");
        assert_eq!(sim.spec().mode, RunMode::Profiled);
    }

    #[test]
    fn scenario_merges_under_explicit_settings() {
        let scenario =
            Scenario::parse("systems = SILO, baseline, baseline-2x\nseed = 9\ncores = 8\n")
                .expect("valid scenario");
        let sim = Simulation::builder()
            .scenario(&scenario)
            .seed(11) // explicit override applied after the scenario wins
            .build()
            .expect("valid");
        assert_eq!(sim.spec().systems.len(), 3);
        assert_eq!(sim.spec().cores, vec![8]);
        assert_eq!(sim.spec().seed, 11);
    }

    #[test]
    fn registered_custom_systems_resolve() {
        use crate::registry::SystemInstance;
        use crate::timing::TimingModel;
        let spec = SystemSpec::new("mini-llc", "baseline with a quarter LLC", |cfg| {
            let mut small = *cfg;
            small.llc_capacity = silo_types::ByteSize::from_bytes(cfg.llc_capacity.as_bytes() / 4);
            SystemInstance {
                engine: crate::registry::baseline_engine(&small).into(),
                timing: TimingModel::baseline(&small),
            }
        });
        let sim = Simulation::builder()
            .register_system(spec)
            .systems(["baseline", "mini-llc"])
            .workloads(["uniform-private"])
            .cores([2])
            .refs_per_core(300)
            .build()
            .expect("valid");
        let records = sim.run_sequential();
        assert_eq!(records[0].runs.len(), 2);
        assert_eq!(records[0].runs[1].stats.system, "mini-llc");
        assert!(records[0].runs[1].stats.instructions > 0);
    }
}
