//! `perfbench`: the repository benchmark. It drives the simulator
//! workspace from outside, through the public library API, on three
//! closed-loop workloads:
//!
//! * `loop-silo` — SILO over the lazily generated `zipf-shared` stream;
//! * `replay-baseline` — the shared-LLC baseline replaying a recorded
//!   `uniform-private` capture;
//! * `serve-fig11` — an in-process `silo_serve` daemon answering one
//!   client's cold and cached Fig. 11 sweeps.
//!
//! An untraced run reports the end-to-end metrics; a traced run reports
//! the per-layer ones and its own overhead. See `README.md`.

pub mod env;
pub mod http;
pub mod layers;
pub mod loops;
pub mod serve;
pub mod stats;
pub mod steady;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["loop-silo", "replay-baseline", "serve-fig11"];

/// Runs workload `name` at `seed` for `seconds`; `None` for an unknown
/// workload.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: &env::Scratch,
) -> Option<stats::Report> {
    use loops::{Loop, LoopKind};
    Some(match name {
        "loop-silo" => Loop::new(LoopKind::Silo, seed, scratch).run(seconds, trace, scratch),
        "replay-baseline" => {
            Loop::new(LoopKind::Replay, seed, scratch).run(seconds, trace, scratch)
        }
        "serve-fig11" => serve::run(seed, seconds, trace, scratch),
        _ => return None,
    })
}

/// A command that reruns this benchmark's executable on one workload,
/// so the child's peak memory is that workload's alone.
///
/// # Errors
///
/// Fails when the running executable cannot be located.
pub fn workload_command(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> std::io::Result<std::process::Command> {
    let mut cmd = std::process::Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    Ok(cmd)
}
