//! Helpers shared by the integration tests.

use silo_sim::{MeterConfig, RunMode, RunStats, SystemConfig, SystemRegistry, WorkloadSpec};

/// Plain-mode statistics of the built-in system `name` over `spec`'s
/// generated reference stream at `seed`.
pub fn run_builtin(name: &str, cfg: &SystemConfig, spec: &WorkloadSpec, seed: u64) -> RunStats {
    let mut source = spec
        .source(cfg.cores, cfg.scale, seed)
        .expect("workload source");
    SystemRegistry::builtin()
        .get(name)
        .expect("builtin system")
        .run(
            cfg,
            &spec.name,
            &mut *source,
            &MeterConfig::default(),
            RunMode::Plain,
        )
        .expect("plain runs cannot fail")
        .stats
}
