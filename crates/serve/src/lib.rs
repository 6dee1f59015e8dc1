//! `silo-serve` — simulation-as-a-service infrastructure.
//!
//! A long-running daemon that accepts scenario submissions over a
//! dependency-free HTTP/1.1 layer, decomposes each job into individual
//! sweep points on a bounded worker pool, and stores every completed
//! row in an on-disk **content-addressed cache** keyed by a canonical
//! hash of the point's full configuration. Overlapping sweeps — across
//! clients, across restarts — only ever compute the points nobody has
//! computed before.
//!
//! The crate is deliberately simulator-agnostic: it depends only on
//! `silo-types` and drives any [`JobEngine`] implementation. The
//! `silo-sim` crate provides the real engine (scenario parsing via
//! `Simulation::builder()`, point execution via its bench harness) and
//! hosts the `silo-sim serve` subcommand; tests here use mock engines.
//! This split keeps the dependency graph acyclic — the daemon cannot
//! know about the simulator whose binary embeds it.
//!
//! ## Endpoints
//!
//! | Method & path            | Purpose                                      |
//! |--------------------------|----------------------------------------------|
//! | `POST /jobs`             | Submit a scenario body; `202` with job id    |
//! | `GET /jobs/{id}`         | Job progress snapshot                        |
//! | `GET /jobs/{id}/result`  | Block until done; full result document       |
//! | `GET /jobs/{id}/stream`  | Rows streamed live as chunked NDJSON; with   |
//! |                          | `?telemetry=epoch` (or `x-silo-stream:       |
//! |                          | epoch`), typed records interleaving epoch    |
//! |                          | telemetry with rows                          |
//! | `GET /status`            | Daemon counters (queue, compute, cache)      |
//! | `GET /healthz`           | Liveness probe (no job-state lock taken)     |
//! | `GET /metrics`           | Prometheus text exposition of daemon metrics |
//! | `GET /trace`             | Request/job spans as Chrome trace-event JSON |
//! | `GET /logs`              | Structured log tail as NDJSON                |
//! |                          | (`?level=info&n=100`)                        |
//! | `GET /version`           | Workspace version                            |
//! | `POST /shutdown`         | Graceful shutdown (drain, journal persists)  |
//!
//! Backpressure is explicit: `429` when a client exceeds its active-job
//! quota, `503` when the global point queue is full or the daemon is
//! draining.
//!
//! The daemon keeps every active job and the newest
//! [`FINISHED_JOBS_KEPT`] finished ones; the job endpoints answer `410`
//! for an older id (resubmitting the scenario is answered from the row
//! cache) and `404` for an id never issued.

#![forbid(unsafe_code)]

pub mod cache;
pub mod http;
pub mod server;

pub use cache::RowCache;
pub use server::{start, ServeConfig, ServerHandle, FINISHED_JOBS_KEPT};

pub use silo_obs as obs;

/// A planned job: the engine's job value plus how many sweep points it
/// decomposes into and the canonical hash of the whole sweep.
pub struct JobPlan<J> {
    /// Engine-defined job state, shared by every point of the job.
    pub job: J,
    /// Number of sweep points; indices `0..points` address them.
    pub points: usize,
    /// Canonical content hash of the full sweep (stable across
    /// scenario-file key reordering and whitespace).
    pub sweep_hash: String,
}

/// A completed sweep point: the rendered row plus any auxiliary typed
/// event records produced alongside it.
///
/// Events are newline-free NDJSON objects (e.g. `{"type":"epoch",...}`
/// epoch-telemetry records) that the daemon stores next to the row in
/// the cache and interleaves ahead of the row on the opt-in stream.
/// They are *not* part of the result document, so the `silo-bench/v1`
/// bytes stay identical whether or not any events exist.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PointOutput {
    /// The rendered result row.
    pub row: String,
    /// Auxiliary typed records, in emission order.
    pub events: Vec<String>,
}

impl PointOutput {
    /// A point with a row and no auxiliary events.
    pub fn row_only(row: String) -> Self {
        PointOutput {
            row,
            events: Vec::new(),
        }
    }
}

/// The pluggable simulator behind the daemon.
///
/// Implementations must be deterministic for caching to be sound: for
/// a fixed submission body, `point_key(i)` must identify the complete
/// configuration of point `i`, and `run_point(i)` must be a pure
/// function of that configuration — equal keys ⇒ byte-equal rows (and
/// byte-equal event records). `document` must likewise depend only on
/// the job and its rows, so a result reconstructed from cached rows is
/// bit-identical to one computed fresh.
pub trait JobEngine: Send + Sync + 'static {
    /// Per-job state shared by all of the job's points.
    type Job: Send + Sync + 'static;

    /// Parses and validates a submission body into a planned job.
    ///
    /// # Errors
    ///
    /// A human-readable validation message; the daemon answers `400`.
    fn plan(&self, body: &str) -> Result<JobPlan<Self::Job>, String>;

    /// The content-address of point `index`: lowercase hex (8–128
    /// chars), covering every input that affects the row's bytes.
    fn point_key(&self, job: &Self::Job, index: usize) -> String;

    /// Runs point `index` to completion, returning the rendered row
    /// plus any auxiliary event records.
    ///
    /// # Errors
    ///
    /// A human-readable failure; the daemon fails every subscribed job.
    fn run_point(&self, job: &Self::Job, index: usize) -> Result<PointOutput, String>;

    /// Renders the final result document from the job's completed rows
    /// (one per point, in point order).
    ///
    /// # Errors
    ///
    /// A message naming the first row the engine cannot read back; the
    /// daemon answers `500`. (A torn cache file never gets here: it
    /// fails its checksum and is recomputed.)
    fn try_document(&self, job: &Self::Job, rows: &[String]) -> Result<String, String>;

    /// [`JobEngine::try_document`] for rows the caller has just rendered
    /// with [`JobEngine::run_point`], which read back by construction.
    ///
    /// # Panics
    ///
    /// Panics with the engine's message if a row does not read back.
    fn document(&self, job: &Self::Job, rows: &[String]) -> String {
        self.try_document(job, rows)
            .unwrap_or_else(|e| panic!("rendered rows must read back: {e}"))
    }
}
