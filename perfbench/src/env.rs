//! Process-level plumbing: the per-run scratch directory, memory
//! readings, seed derivation and the span tracer.

use silo_obs::SpanRecorder;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Directory (relative to the working directory, the checkout root)
/// holding everything a run writes.
pub const RUN_DIR: &str = ".perfbench-run";

/// A fresh directory for one run, removed when dropped — on every exit
/// path, so a later run can never find a previous run's cache rows.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `.perfbench-run/tmp-<pid>-<nanos>` under the working
    /// directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new() -> std::io::Result<Scratch> {
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = std::env::current_dir()?
            .join(RUN_DIR)
            .join(format!("tmp-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A `/proc/self/status` field in MiB (`VmRSS`, `VmHWM`); 0 where the
/// file is unavailable.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Resident set size now, MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

/// Peak resident set size of the process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

/// The `k`-th input seed of a run with seed `seed`: `k == 0` is the
/// run's base input; every other `k` gives a seed no other `k` of the
/// same run gives (a splitmix64 bijection of `seed + k`).
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    if k == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times calls into the layers and, when on, records each call as a
/// span in a [`SpanRecorder`] for the Chrome-trace export.
#[derive(Clone, Default)]
pub struct Tracer {
    rec: Option<SpanRecorder>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Tracer {
        Tracer {
            rec: Some(SpanRecorder::new(1 << 16)),
        }
    }

    /// The recorder, when on.
    pub fn recorder(&self) -> Option<&SpanRecorder> {
        self.rec.as_ref()
    }

    /// Runs `f` inside span `name` of category `cat` under `parent`,
    /// handing `f` the span's id as the parent of nested spans; returns
    /// `f`'s result and its wall time.
    pub fn span<R>(
        &self,
        name: &str,
        cat: &str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> (R, Duration) {
        let Some(rec) = &self.rec else {
            let t = Instant::now();
            let r = f(None);
            return (r, t.elapsed());
        };
        let id = rec.reserve();
        let start = rec.now_us();
        let t = Instant::now();
        let r = f(Some(id));
        let took = t.elapsed();
        rec.record_with_id(id, name, cat, parent, start, rec.now_us());
        (r, took)
    }
}
