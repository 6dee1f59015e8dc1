//! Observability engines for the SILO toolchain.
//!
//! Independent engines plus hot-loop helpers, all dependency-free
//! (only `silo-types`):
//!
//! * [`metrics`] — an ordered metrics registry of counters, gauges, and
//!   log-bucketed histograms, rendered in the Prometheus text
//!   exposition format (`GET /metrics` on the serve daemon).
//! * [`trace`] — a ring-buffered span recorder on a monotonic clock
//!   with parent links, exported as Chrome trace-event JSON that loads
//!   directly in Perfetto or `chrome://tracing`.
//! * [`profile`] — a per-phase wall-clock accumulator for the
//!   simulator's hot loop (`silo-sim --profile`), with the same
//!   trace-event export. Phases may nest; the sub-phase buckets come
//!   from [`probe`] lap probes.
//! * [`probe`] — gap-free stopwatch-lap probes for sub-phase
//!   attribution, compiled out entirely via the [`NoProbe`]
//!   implementation when profiling is off.
//! * [`log`] — a leveled, timestamped, bounded-ring structured event
//!   log with NDJSON export (`GET /logs`, `--log-out`).
//!
//! None of these engines touch simulated state: instrumented paths must
//! produce byte-identical `silo-bench/v1` documents, so everything here
//! observes wall-clock behaviour only.

#![forbid(unsafe_code)]

pub mod log;
pub mod metrics;
pub mod probe;
pub mod profile;
pub mod trace;

pub use crate::log::{EventLog, LogLevel, LogRecord};
pub use metrics::{Counter, Gauge, Histo, Registry};
pub use probe::{Lap, LapProbe, NoProbe};
pub use profile::PhaseProfile;
pub use trace::{Span, SpanRecorder};
