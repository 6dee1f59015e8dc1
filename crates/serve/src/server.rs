//! The daemon: accept loop, priority point queue, bounded worker pool,
//! write-ahead job journal, and the HTTP routes tying them together.
//!
//! A job arrives as a scenario body (`POST /jobs`), is planned by the
//! [`JobEngine`] into an ordered list of sweep points, and each point
//! becomes one queue entry keyed by its content hash. Points already in
//! the [`RowCache`] are satisfied at submission without touching the
//! queue; points another job is already computing are *subscribed to*
//! rather than re-enqueued, so concurrent overlapping sweeps share
//! work. Completed rows are written back to the cache, making every
//! result durable the moment it exists.
//!
//! Durability is write-ahead: the submission body is journalled to
//! `<cache>/queue/<id>.job` before any point runs and removed when the
//! job finishes, so a crash (even `kill -9`) loses no accepted work —
//! restarting with `resume` replays the journal and completed points
//! come straight from the cache.

use std::collections::{BinaryHeap, HashMap};
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use silo_obs::metrics::{Counter, Gauge, Histo, Registry};
use silo_obs::{EventLog, LogLevel, SpanRecorder};
use silo_types::write_json_escaped;

use crate::cache::{write_atomic, RowCache};
use crate::http;
use crate::{JobEngine, JobPlan, PointOutput};

/// Subdirectory of the cache root holding the write-ahead job journal.
const QUEUE_DIR: &str = "queue";
/// How often blocked waiters re-check the shutdown flag.
const WAIT_TICK: Duration = Duration::from_millis(200);

/// Daemon configuration. `Default` gives sensible local-use values;
/// the CLI overrides from flags.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads running sweep points.
    pub workers: usize,
    /// Maximum sweep points queued across all jobs; submissions that
    /// would exceed it are rejected with 503 (backpressure).
    pub queue_capacity: usize,
    /// Maximum simultaneously active (incomplete) jobs per client;
    /// submissions over quota are rejected with 429.
    pub client_quota: usize,
    /// Root directory of the content-addressed row cache + journal.
    pub cache_dir: PathBuf,
    /// Maximum rows kept in the cache (oldest evicted beyond this);
    /// zero disables caching.
    pub cache_cap: usize,
    /// Replay journalled jobs from a previous run at startup.
    pub resume: bool,
    /// Write the span ring as Chrome trace-event JSON to this file when
    /// the daemon shuts down (`GET /trace` serves the same document
    /// live).
    pub trace_out: Option<PathBuf>,
    /// Maximum request/job spans kept in the trace ring (oldest
    /// evicted).
    pub trace_capacity: usize,
    /// Append every structured log record as an NDJSON line to this
    /// file (`GET /logs` serves the bounded in-memory tail either way).
    pub log_out: Option<PathBuf>,
    /// Maximum structured log records kept in the in-memory ring
    /// (oldest evicted; the `log_out` file keeps everything).
    pub log_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 2,
            queue_capacity: 1024,
            client_quota: 4,
            cache_dir: PathBuf::from(".silo-serve"),
            cache_cap: 100_000,
            resume: false,
            trace_out: None,
            trace_capacity: 4096,
            log_out: None,
            log_capacity: 4096,
        }
    }
}

/// The daemon's metric handles, all registered on one [`Registry`]
/// rendered by `GET /metrics`. Counters and the run-latency histogram
/// are bumped at event sites; the queue/jobs gauges are synced from
/// authoritative daemon state at scrape time, and the busy-workers
/// gauge tracks `run_point` entry/exit.
struct Metrics {
    registry: Registry,
    /// `silo_serve_queue_depth` — sweep points currently queued.
    queue_depth: Gauge,
    /// `silo_serve_workers_busy` — workers inside `run_point` right now.
    workers_busy: Gauge,
    /// `silo_serve_jobs_active` — jobs not yet complete or failed.
    jobs_active: Gauge,
    /// `silo_serve_cache_hits_total` — points served without compute.
    cache_hits: Counter,
    /// `silo_serve_cache_misses_total` — points actually computed.
    cache_misses: Counter,
    /// `silo_serve_point_run_microseconds` — per-point run wall time.
    run_us: Histo,
    /// `silo_serve_stream_bytes_total` — NDJSON bytes streamed.
    stream_bytes: Counter,
    /// `silo_obs_spans_dropped_total` — spans evicted from the bounded
    /// trace ring (synced from the recorder at scrape time).
    spans_dropped: Counter,
    /// `silo_serve_uptime_seconds` — seconds since the daemon started
    /// (synced at scrape time).
    uptime: Gauge,
}

impl Metrics {
    fn new() -> Metrics {
        let registry = Registry::new();
        registry.declare_counter(
            "silo_serve_requests_total",
            "HTTP requests handled, by endpoint and response status.",
        );
        registry
            .gauge_with(
                "silo_build_info",
                "Build metadata carried in labels; the value is always 1.",
                &[("version", silo_types::VERSION)],
            )
            .set(1);
        Metrics {
            queue_depth: registry.gauge(
                "silo_serve_queue_depth",
                "Sweep points currently queued across all jobs.",
            ),
            workers_busy: registry.gauge(
                "silo_serve_workers_busy",
                "Worker threads currently running a sweep point.",
            ),
            jobs_active: registry.gauge(
                "silo_serve_jobs_active",
                "Jobs accepted but not yet complete or failed.",
            ),
            cache_hits: registry.counter(
                "silo_serve_cache_hits_total",
                "Sweep points served from the row cache or shared inflight work.",
            ),
            cache_misses: registry.counter(
                "silo_serve_cache_misses_total",
                "Sweep points computed because no cached row existed.",
            ),
            run_us: registry.histogram(
                "silo_serve_point_run_microseconds",
                "Wall-clock microseconds per computed sweep point.",
            ),
            stream_bytes: registry.counter(
                "silo_serve_stream_bytes_total",
                "Bytes streamed over /jobs/{id}/stream chunks.",
            ),
            spans_dropped: registry.counter(
                "silo_obs_spans_dropped_total",
                "Trace spans evicted from the bounded span ring.",
            ),
            uptime: registry.gauge(
                "silo_serve_uptime_seconds",
                "Seconds since the daemon started.",
            ),
            registry,
        }
    }

    /// The per-endpoint/per-status request counter series.
    fn requests(&self, endpoint: &str, status: u16) -> Counter {
        self.registry.counter_with(
            "silo_serve_requests_total",
            "HTTP requests handled, by endpoint and response status.",
            &[("endpoint", endpoint), ("status", &status.to_string())],
        )
    }
}

/// One queued sweep point. Ordering (for the max-heap): higher
/// priority first, then older job, then lower point index — so a
/// high-priority sweep preempts queued work but points within a job
/// still complete in order.
#[derive(Debug, PartialEq, Eq)]
struct QueuedPoint {
    priority: i64,
    job: u64,
    idx: usize,
    key: String,
    /// Enqueue timestamp on the span recorder's clock, for the
    /// queue-wait span. Not part of the ordering (keys are unique in
    /// the queue, so the tiebreak never reaches it).
    enqueued_us: u64,
}

impl Ord for QueuedPoint {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.job.cmp(&self.job))
            .then_with(|| other.idx.cmp(&self.idx))
            .then_with(|| self.key.cmp(&other.key))
    }
}

impl PartialOrd for QueuedPoint {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Where a job is in its lifecycle.
enum JobPhase {
    Active,
    Complete,
    Failed(String),
}

/// Everything the daemon tracks about one job.
struct JobState<J> {
    client: String,
    job: Arc<J>,
    sweep_hash: String,
    /// Completed row text per point, filled as points finish.
    rows: Vec<Option<String>>,
    /// Auxiliary event records per point (empty when the point produced
    /// none, or when a cache hit predates event sidecars).
    events: Vec<Vec<String>>,
    done: usize,
    /// Points satisfied from the cache at submission.
    cached: usize,
    phase: JobPhase,
}

/// Mutable daemon state behind the mutex.
struct State<J> {
    next_job: u64,
    queue: BinaryHeap<QueuedPoint>,
    jobs: HashMap<u64, JobState<J>>,
    /// Content key -> subscribers `(job, point index)` awaiting it.
    /// Presence means the point is queued or running; later jobs
    /// needing the same key subscribe instead of re-enqueueing.
    inflight: HashMap<String, Vec<(u64, usize)>>,
    /// Active (incomplete) job count per client, for quota checks.
    active_jobs: HashMap<String, usize>,
}

/// Shared daemon internals: engine, cache, state, and wakeups.
struct Shared<E: JobEngine> {
    engine: E,
    cache: RowCache,
    cfg: ServeConfig,
    bound: SocketAddr,
    state: Mutex<State<E::Job>>,
    /// Signals workers that the queue grew.
    work_cv: Condvar,
    /// Signals result/stream waiters that rows landed.
    row_cv: Condvar,
    shutdown: AtomicBool,
    /// Metric handles behind `GET /metrics`.
    metrics: Metrics,
    /// Request/job lifecycle spans behind `GET /trace` / `--trace-out`.
    spans: SpanRecorder,
    /// Structured event log behind `GET /logs` / `--log-out`.
    log: EventLog,
    /// Daemon start time, for the uptime gauge.
    started: Instant,
}

impl<E: JobEngine> Shared<E> {
    fn lock_state(&self) -> MutexGuard<'_, State<E::Job>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn journal_path(&self, id: u64) -> PathBuf {
        self.cfg.cache_dir.join(QUEUE_DIR).join(format!("{id}.job"))
    }
}

/// A running daemon: bound address plus the accept/worker threads.
pub struct ServerHandle<E: JobEngine> {
    shared: Arc<Shared<E>>,
    threads: Vec<JoinHandle<()>>,
}

impl<E: JobEngine> ServerHandle<E> {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.bound
    }

    /// Sweep points computed (cache misses run to completion).
    pub fn points_computed(&self) -> u64 {
        self.shared.metrics.cache_misses.get()
    }

    /// Sweep points served from the cache or shared inflight work.
    pub fn points_cached(&self) -> u64 {
        self.shared.metrics.cache_hits.get()
    }

    /// Initiates graceful shutdown: running points finish and persist,
    /// queued points stay journalled for a later `resume`.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared);
    }

    /// The current `GET /metrics` exposition text.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.registry.render()
    }

    /// The current `GET /trace` Chrome trace-event document.
    pub fn trace_json(&self) -> String {
        self.shared.spans.chrome_json()
    }

    /// The daemon's structured event log (the ring `GET /logs` serves).
    pub fn log(&self) -> &EventLog {
        &self.shared.log
    }

    /// Blocks until the accept loop and all workers have exited, then
    /// writes the trace file if `trace_out` is configured.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(path) = &self.shared.cfg.trace_out {
            match std::fs::write(path, self.shared.spans.chrome_json()) {
                Ok(()) => eprintln!("silo-serve: wrote trace to {}", path.display()),
                Err(e) => eprintln!("silo-serve: trace write to {} failed: {e}", path.display()),
            }
        }
    }
}

/// Starts the daemon: binds, opens the cache, optionally replays the
/// journal, then spawns the worker pool and accept loop.
///
/// # Errors
///
/// Propagates bind and cache-directory I/O failures.
pub fn start<E: JobEngine>(engine: E, cfg: ServeConfig) -> io::Result<ServerHandle<E>> {
    let cache = RowCache::open(&cfg.cache_dir, cfg.cache_cap)?;
    std::fs::create_dir_all(cfg.cache_dir.join(QUEUE_DIR))?;
    let log = match &cfg.log_out {
        Some(path) => EventLog::with_sink(cfg.log_capacity.max(1), path)?,
        None => EventLog::new(cfg.log_capacity.max(1)),
    };
    let listener = TcpListener::bind(&cfg.addr)?;
    let bound = listener.local_addr()?;
    let shared = Arc::new(Shared {
        engine,
        cache,
        bound,
        state: Mutex::new(State {
            next_job: 1,
            queue: BinaryHeap::new(),
            jobs: HashMap::new(),
            inflight: HashMap::new(),
            active_jobs: HashMap::new(),
        }),
        work_cv: Condvar::new(),
        row_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        metrics: Metrics::new(),
        spans: SpanRecorder::new(cfg.trace_capacity.max(1)),
        log,
        started: Instant::now(),
        cfg,
    });
    shared.log.info(
        "serve.daemon",
        "listening",
        &[
            ("addr", &bound.to_string()),
            ("workers", &shared.cfg.workers.to_string()),
        ],
    );
    if shared.cfg.resume {
        resume_journal(&shared);
    }
    let mut threads = Vec::with_capacity(shared.cfg.workers + 1);
    for i in 0..shared.cfg.workers {
        let s = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("silo-serve-worker-{i}"))
                .spawn(move || worker_loop(&s))?,
        );
    }
    let s = Arc::clone(&shared);
    threads.push(
        std::thread::Builder::new()
            .name("silo-serve-accept".to_string())
            .spawn(move || accept_loop(&s, &listener))?,
    );
    Ok(ServerHandle { shared, threads })
}

fn initiate_shutdown<E: JobEngine>(shared: &Shared<E>) {
    if !shared.shutdown.swap(true, Ordering::SeqCst) {
        shared.log.info(
            "serve.daemon",
            "drain initiated; running points finish, queued points stay journalled",
            &[],
        );
    }
    shared.work_cv.notify_all();
    shared.row_cv.notify_all();
    // The accept loop blocks in `accept()`; poke it awake.
    let _ = TcpStream::connect(shared.bound);
}

// ---------------------------------------------------------------------------
// Submission

enum SubmitError {
    Invalid(String),
    QuotaExceeded { limit: usize },
    QueueFull { capacity: usize },
    ShuttingDown,
    Io(String),
}

impl SubmitError {
    fn status(&self) -> u16 {
        match self {
            SubmitError::Invalid(_) => 400,
            SubmitError::QuotaExceeded { .. } => 429,
            SubmitError::QueueFull { .. } | SubmitError::ShuttingDown => 503,
            SubmitError::Io(_) => 500,
        }
    }

    fn message(&self) -> String {
        match self {
            SubmitError::Invalid(m) => m.clone(),
            SubmitError::QuotaExceeded { limit } => {
                format!("client quota exceeded ({limit} active jobs)")
            }
            SubmitError::QueueFull { capacity } => {
                format!("point queue full ({capacity} points); retry later")
            }
            SubmitError::ShuttingDown => "shutting down".to_string(),
            SubmitError::Io(m) => m.clone(),
        }
    }
}

struct SubmitOutcome {
    id: u64,
    points: usize,
    cached: usize,
    sweep_hash: String,
}

/// Plans and enqueues one submission. Cache-satisfied points never
/// enter the queue; points already inflight are subscribed to.
fn submit<E: JobEngine>(
    shared: &Shared<E>,
    client: &str,
    priority: i64,
    body: &str,
    journal: bool,
) -> Result<SubmitOutcome, SubmitError> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(SubmitError::ShuttingDown);
    }
    // Plan (scenario parse + validation through the engine) and hash
    // every point outside the lock; both are pure.
    let JobPlan {
        job,
        points,
        sweep_hash,
    } = shared.engine.plan(body).map_err(SubmitError::Invalid)?;
    if points == 0 {
        return Err(SubmitError::Invalid("job has no sweep points".to_string()));
    }
    let keys: Vec<String> = (0..points)
        .map(|i| shared.engine.point_key(&job, i))
        .collect();
    let job = Arc::new(job);

    let mut st = shared.lock_state();
    if st.active_jobs.get(client).copied().unwrap_or(0) >= shared.cfg.client_quota {
        return Err(SubmitError::QuotaExceeded {
            limit: shared.cfg.client_quota,
        });
    }
    let mut rows: Vec<Option<String>> = vec![None; points];
    let mut events: Vec<Vec<String>> = vec![Vec::new(); points];
    let mut misses: Vec<usize> = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        match shared.cache.get(key) {
            Some(row) => {
                rows[i] = Some(row);
                events[i] = shared.cache.get_events(key).unwrap_or_default();
            }
            None => misses.push(i),
        }
    }
    let fresh = misses
        .iter()
        .filter(|&&i| !st.inflight.contains_key(&keys[i]))
        .count();
    if st.queue.len() + fresh > shared.cfg.queue_capacity {
        return Err(SubmitError::QueueFull {
            capacity: shared.cfg.queue_capacity,
        });
    }

    let id = st.next_job;
    st.next_job += 1;
    let cached = points - misses.len();
    shared.metrics.cache_hits.add(cached as u64);

    if misses.is_empty() {
        // Fully served from the cache: complete on arrival, nothing to
        // journal, no quota consumed.
        st.jobs.insert(
            id,
            JobState {
                client: client.to_string(),
                job,
                sweep_hash: sweep_hash.clone(),
                rows,
                events,
                done: points,
                cached,
                phase: JobPhase::Complete,
            },
        );
        drop(st);
        shared.log.info(
            "serve.job",
            "job complete at submission (all points cached)",
            &[
                ("job", &id.to_string()),
                ("client", client),
                ("points", &points.to_string()),
            ],
        );
        shared.row_cv.notify_all();
        return Ok(SubmitOutcome {
            id,
            points,
            cached,
            sweep_hash,
        });
    }

    if journal {
        // Write-ahead: the body hits disk before any point runs, so a
        // crash after this line cannot lose the accepted job. The write
        // is atomic: a crash during it leaves only a `.job.tmp`, which
        // resume ignores, never a truncated `.job` that could parse as
        // a different scenario.
        let entry = format!("client {client}\npriority {priority}\n\n{body}");
        write_atomic(&shared.journal_path(id), entry)
            .map_err(|e| SubmitError::Io(format!("journal write failed: {e}")))?;
        shared.log.debug(
            "serve.journal",
            "job journalled ahead of execution",
            &[("job", &id.to_string()), ("client", client)],
        );
    }
    *st.active_jobs.entry(client.to_string()).or_insert(0) += 1;
    let enqueued_us = shared.spans.now_us();
    for &i in &misses {
        let key = keys[i].clone();
        match st.inflight.get_mut(&key) {
            Some(subs) => {
                // Another job is already computing this point; ride it.
                subs.push((id, i));
                shared.metrics.cache_hits.inc();
            }
            None => {
                st.inflight.insert(key.clone(), vec![(id, i)]);
                st.queue.push(QueuedPoint {
                    priority,
                    job: id,
                    idx: i,
                    key,
                    enqueued_us,
                });
            }
        }
    }
    shared
        .metrics
        .queue_depth
        .set(i64::try_from(st.queue.len()).unwrap_or(i64::MAX));
    st.jobs.insert(
        id,
        JobState {
            client: client.to_string(),
            job,
            sweep_hash: sweep_hash.clone(),
            rows,
            events,
            done: cached,
            cached,
            phase: JobPhase::Active,
        },
    );
    drop(st);
    shared.log.info(
        "serve.job",
        "job accepted",
        &[
            ("job", &id.to_string()),
            ("client", client),
            ("points", &points.to_string()),
            ("cached", &cached.to_string()),
        ],
    );
    shared.work_cv.notify_all();
    Ok(SubmitOutcome {
        id,
        points,
        cached,
        sweep_hash,
    })
}

/// Replays `<cache>/queue/*.job` entries left by a previous run.
/// Completed points come straight from the cache, so only genuinely
/// missing work re-runs.
fn resume_journal<E: JobEngine>(shared: &Shared<E>) {
    let dir = shared.cfg.cache_dir.join(QUEUE_DIR);
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return;
    };
    let mut files: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "job"))
        .collect();
    files.sort();
    for path in files {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let _ = std::fs::remove_file(&path);
        let Some((header, body)) = text.split_once("\n\n") else {
            shared.log.warn(
                "serve.journal",
                "malformed journal entry skipped",
                &[("source", &path.display().to_string())],
            );
            eprintln!("silo-serve: skipping malformed journal {}", path.display());
            continue;
        };
        let mut client = "anon";
        let mut priority = 0i64;
        for line in header.lines() {
            if let Some(c) = line.strip_prefix("client ") {
                client = c;
            } else if let Some(p) = line.strip_prefix("priority ") {
                priority = p.parse().unwrap_or(0);
            }
        }
        match submit(shared, client, priority, body, true) {
            Ok(out) => {
                shared.log.info(
                    "serve.journal",
                    "journal replayed",
                    &[
                        ("job", &out.id.to_string()),
                        ("points", &out.points.to_string()),
                        ("cached", &out.cached.to_string()),
                        ("source", &path.display().to_string()),
                    ],
                );
                eprintln!(
                    "silo-serve: resumed job {} ({} points, {} from cache)",
                    out.id, out.points, out.cached
                );
            }
            Err(e) => {
                shared.log.warn(
                    "serve.journal",
                    "journalled job dropped",
                    &[
                        ("source", &path.display().to_string()),
                        ("error", &e.message()),
                    ],
                );
                eprintln!(
                    "silo-serve: dropping journalled job from {}: {}",
                    path.display(),
                    e.message()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Workers

fn worker_loop<E: JobEngine>(shared: &Shared<E>) {
    loop {
        let task = {
            let mut st = shared.lock_state();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(p) = st.queue.pop() {
                    shared
                        .metrics
                        .queue_depth
                        .set(i64::try_from(st.queue.len()).unwrap_or(i64::MAX));
                    break p;
                }
                st = shared
                    .work_cv
                    .wait_timeout(st, WAIT_TICK)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        // The point span brackets the whole enqueue→deliver lifecycle;
        // its id is reserved up front so the phase spans can link to it
        // even though it records last.
        let spans = &shared.spans;
        let point_span = spans.reserve();
        spans.record(
            "queue-wait",
            "job",
            Some(point_span),
            task.enqueued_us,
            spans.now_us(),
        );
        // Close the probe-then-enqueue race: the row may have landed
        // (another worker, or a prior run sharing the cache directory)
        // since this point was queued.
        if let Some(row) = shared.cache.get(&task.key) {
            shared.metrics.cache_hits.inc();
            let events = shared.cache.get_events(&task.key).unwrap_or_default();
            spans.record_with_id(
                point_span,
                "point",
                "job",
                None,
                task.enqueued_us,
                spans.now_us(),
            );
            deliver(shared, &task.key, &Ok(PointOutput { row, events }));
            continue;
        }
        let job = {
            let st = shared.lock_state();
            st.jobs.get(&task.job).map(|j| Arc::clone(&j.job))
        };
        let Some(job) = job else {
            deliver(shared, &task.key, &Err("job vanished".to_string()));
            continue;
        };
        // A panicking engine must not wedge subscribers or poison the
        // daemon; convert it into a failed point.
        shared.metrics.workers_busy.inc();
        let t_run = spans.now_us();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            shared.engine.run_point(&job, task.idx)
        }))
        .unwrap_or_else(|_| Err("panic while running sweep point".to_string()));
        let t_run_end = spans.now_us();
        shared.metrics.workers_busy.dec();
        spans.record("run", "job", Some(point_span), t_run, t_run_end);
        shared
            .metrics
            .run_us
            .observe(t_run_end.saturating_sub(t_run));
        match &result {
            Ok(_) => shared.log.debug(
                "serve.point",
                "point computed",
                &[
                    ("job", &task.job.to_string()),
                    ("point", &task.idx.to_string()),
                    ("us", &t_run_end.saturating_sub(t_run).to_string()),
                ],
            ),
            Err(e) => shared.log.error(
                "serve.point",
                "point failed",
                &[
                    ("job", &task.job.to_string()),
                    ("point", &task.idx.to_string()),
                    ("error", e),
                ],
            ),
        }
        if let Ok(out) = &result {
            shared.metrics.cache_misses.inc();
            let t_write = spans.now_us();
            let evicted_before = shared.cache.evictions();
            if let Err(e) = shared.cache.put(&task.key, &out.row) {
                eprintln!("silo-serve: cache write failed for {}: {e}", task.key);
            }
            if let Err(e) = shared.cache.put_events(&task.key, &out.events) {
                eprintln!("silo-serve: event write failed for {}: {e}", task.key);
            }
            let evicted = shared.cache.evictions().saturating_sub(evicted_before);
            if evicted > 0 {
                shared.log.warn(
                    "serve.cache",
                    "rows evicted to hold the cache cap",
                    &[
                        ("evicted", &evicted.to_string()),
                        ("rows", &shared.cache.len().to_string()),
                    ],
                );
            }
            spans.record(
                "cache-write",
                "job",
                Some(point_span),
                t_write,
                spans.now_us(),
            );
        }
        spans.record_with_id(
            point_span,
            "point",
            "job",
            None,
            task.enqueued_us,
            spans.now_us(),
        );
        deliver(shared, &task.key, &result);
    }
}

/// Hands a finished point to every subscribed job and finalizes jobs
/// that just completed (or failed): quota released, journal removed.
fn deliver<E: JobEngine>(shared: &Shared<E>, key: &str, result: &Result<PointOutput, String>) {
    let mut st = shared.lock_state();
    let subs = st.inflight.remove(key).unwrap_or_default();
    let mut finished: Vec<(String, u64, Option<String>)> = Vec::new();
    for (job_id, idx) in subs {
        let Some(job) = st.jobs.get_mut(&job_id) else {
            continue;
        };
        match result {
            Ok(out) => {
                if job.rows[idx].is_none() {
                    job.rows[idx] = Some(out.row.clone());
                    job.events[idx] = out.events.clone();
                    job.done += 1;
                }
                if job.done == job.rows.len() && matches!(job.phase, JobPhase::Active) {
                    job.phase = JobPhase::Complete;
                    finished.push((job.client.clone(), job_id, None));
                }
            }
            Err(e) => {
                if matches!(job.phase, JobPhase::Active) {
                    job.phase = JobPhase::Failed(e.clone());
                    finished.push((job.client.clone(), job_id, Some(e.clone())));
                }
            }
        }
    }
    for (client, id, _) in &finished {
        if let Some(n) = st.active_jobs.get_mut(client) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                st.active_jobs.remove(client);
            }
        }
        let _ = std::fs::remove_file(shared.journal_path(*id));
    }
    drop(st);
    for (client, id, error) in finished {
        match error {
            None => shared.log.info(
                "serve.job",
                "job complete",
                &[("job", &id.to_string()), ("client", &client)],
            ),
            Some(e) => shared.log.error(
                "serve.job",
                "job failed",
                &[("job", &id.to_string()), ("client", &client), ("error", &e)],
            ),
        }
    }
    shared.row_cv.notify_all();
}

// ---------------------------------------------------------------------------
// HTTP front end

fn accept_loop<E: JobEngine>(shared: &Arc<Shared<E>>, listener: &TcpListener) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else {
            continue;
        };
        let s = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("silo-serve-conn".to_string())
            .spawn(move || handle_connection(&s, stream));
    }
}

/// Per-request observability context: the span recorder plus the
/// request's reserved parent span id, threaded through every handler
/// so respond spans link back to their request.
struct ReqCtx<'a> {
    spans: &'a SpanRecorder,
    req_span: u64,
}

fn handle_connection<E: JobEngine>(shared: &Shared<E>, stream: TcpStream) {
    // A stalled peer must not pin a connection thread during parsing;
    // blocking endpoints only ever *write* after this point.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(clone);
    let mut writer = stream;
    let spans = &shared.spans;
    let req_span = spans.reserve();
    let ctx = ReqCtx { spans, req_span };
    let t_start = spans.now_us();
    let parsed = http::read_request(&mut reader);
    spans.record("parse", "http", Some(req_span), t_start, spans.now_us());
    let (endpoint, status) = match parsed {
        Ok(req) => {
            let endpoint = endpoint_label(&req.path);
            let t_route = spans.now_us();
            // 0 = the response never made it onto the wire (peer gone).
            let status = route(shared, &ctx, &req, &mut writer).unwrap_or(0);
            spans.record("route", "http", Some(req_span), t_route, spans.now_us());
            (endpoint, status)
        }
        Err(e) => {
            let status = error_response(&ctx, &mut writer, e.status, &e.message).unwrap_or(0);
            ("parse-error", status)
        }
    };
    spans.record_with_id(req_span, "request", "http", None, t_start, spans.now_us());
    shared.metrics.requests(endpoint, status).inc();
}

/// Normalizes a request path to its route template, bounding the
/// request-counter label cardinality no matter what clients send.
fn endpoint_label(path: &str) -> &'static str {
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    match segs.as_slice() {
        ["version"] => "/version",
        ["status"] => "/status",
        ["healthz"] => "/healthz",
        ["metrics"] => "/metrics",
        ["trace"] => "/trace",
        ["logs"] => "/logs",
        ["shutdown"] => "/shutdown",
        ["jobs"] => "/jobs",
        ["jobs", _] => "/jobs/{id}",
        ["jobs", _, "result"] => "/jobs/{id}/result",
        ["jobs", _, "stream"] => "/jobs/{id}/stream",
        _ => "other",
    }
}

/// Writes a response and records its respond span; returns the status
/// so the caller can count the request.
fn respond(
    ctx: &ReqCtx<'_>,
    w: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
) -> io::Result<u16> {
    let t0 = ctx.spans.now_us();
    http::write_response(w, status, content_type, body)?;
    ctx.spans.record(
        "respond",
        "http",
        Some(ctx.req_span),
        t0,
        ctx.spans.now_us(),
    );
    Ok(status)
}

fn error_response(
    ctx: &ReqCtx<'_>,
    w: &mut impl Write,
    status: u16,
    message: &str,
) -> io::Result<u16> {
    respond(ctx, w, status, "application/json", &error_body("", message))
}

/// `{<prefix>"error":"<message>"}` and a newline, `message` escaped.
fn error_body(prefix: &str, message: &str) -> String {
    let mut body = format!("{{{prefix}\"error\":\"");
    let _ = write_json_escaped(&mut body, message);
    body.push_str("\"}\n");
    body
}

fn route<E: JobEngine>(
    shared: &Shared<E>,
    ctx: &ReqCtx<'_>,
    req: &http::Request,
    w: &mut TcpStream,
) -> io::Result<u16> {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["version"]) => {
            let body = format!("{{\"version\":\"{}\"}}\n", silo_types::VERSION);
            respond(ctx, w, 200, "application/json", &body)
        }
        ("GET", ["status"]) => handle_status(shared, ctx, w),
        // Liveness only: answers without touching job state, so a wedged
        // state mutex can't make the daemon look dead to a prober.
        ("GET", ["healthz"]) => respond(ctx, w, 200, "text/plain", "ok\n"),
        ("GET", ["metrics"]) => handle_metrics(shared, ctx, w),
        ("GET", ["trace"]) => respond(ctx, w, 200, "application/json", &shared.spans.chrome_json()),
        ("GET", ["logs"]) => handle_logs(shared, ctx, req, w),
        ("POST", ["jobs"]) => handle_submit(shared, ctx, req, w),
        ("GET", ["jobs", id]) => match id.parse::<u64>() {
            Ok(id) => handle_job_status(shared, ctx, id, w),
            Err(_) => error_response(ctx, w, 404, "no such job"),
        },
        ("GET", ["jobs", id, "result"]) => match id.parse::<u64>() {
            Ok(id) => handle_result(shared, ctx, id, w),
            Err(_) => error_response(ctx, w, 404, "no such job"),
        },
        ("GET", ["jobs", id, "stream"]) => match id.parse::<u64>() {
            Ok(id) => handle_stream(shared, ctx, req, id, w),
            Err(_) => error_response(ctx, w, 404, "no such job"),
        },
        ("POST", ["shutdown"]) => {
            // Answer first so the client sees the acknowledgement even
            // though shutdown tears the accept loop down.
            let r = respond(
                ctx,
                w,
                200,
                "application/json",
                "{\"shutting_down\":true}\n",
            );
            initiate_shutdown(shared);
            r
        }
        (_, p) => {
            let known = matches!(
                p,
                ["status"]
                    | ["version"]
                    | ["healthz"]
                    | ["metrics"]
                    | ["trace"]
                    | ["logs"]
                    | ["shutdown"]
                    | ["jobs"]
                    | ["jobs", _]
                    | ["jobs", _, "result" | "stream"]
            );
            if known {
                error_response(ctx, w, 405, "method not allowed")
            } else {
                error_response(ctx, w, 404, "not found")
            }
        }
    }
}

fn handle_status<E: JobEngine>(
    shared: &Shared<E>,
    ctx: &ReqCtx<'_>,
    w: &mut impl Write,
) -> io::Result<u16> {
    let (total, active, stuck, done_jobs, failed, queued) = {
        let st = shared.lock_state();
        let mut active = 0usize;
        let mut stuck = 0usize;
        let mut done_jobs = 0usize;
        let mut failed = 0usize;
        for j in st.jobs.values() {
            match j.phase {
                JobPhase::Active => {
                    active += 1;
                    // No progress beyond submission-time cache hits:
                    // still waiting for its first computed point.
                    if j.done == j.cached {
                        stuck += 1;
                    }
                }
                JobPhase::Complete => done_jobs += 1,
                JobPhase::Failed(_) => failed += 1,
            }
        }
        (
            st.next_job - 1,
            active,
            stuck,
            done_jobs,
            failed,
            st.queue.len(),
        )
    };
    let body = format!(
        "{{\"version\":\"{}\",\"jobs\":{{\"total\":{total},\"active\":{active},\
         \"queued\":{stuck},\"done\":{done_jobs},\"failed\":{failed}}},\
         \"points\":{{\"queued\":{queued},\"computed\":{},\"cached\":{}}},\
         \"cache\":{{\"rows\":{}}},\"workers\":{}}}\n",
        silo_types::VERSION,
        shared.metrics.cache_misses.get(),
        shared.metrics.cache_hits.get(),
        shared.cache.len(),
        shared.cfg.workers,
    );
    respond(ctx, w, 200, "application/json", &body)
}

/// Renders the Prometheus exposition, first syncing the gauges whose
/// source of truth is daemon state rather than event counters.
fn handle_metrics<E: JobEngine>(
    shared: &Shared<E>,
    ctx: &ReqCtx<'_>,
    w: &mut impl Write,
) -> io::Result<u16> {
    let (queue, jobs_active) = {
        let st = shared.lock_state();
        (
            st.queue.len(),
            st.jobs
                .values()
                .filter(|j| matches!(j.phase, JobPhase::Active))
                .count(),
        )
    };
    shared
        .metrics
        .queue_depth
        .set(i64::try_from(queue).unwrap_or(i64::MAX));
    shared
        .metrics
        .jobs_active
        .set(i64::try_from(jobs_active).unwrap_or(i64::MAX));
    // The span recorder owns the authoritative eviction count; counters
    // only go up, so apply the delta since the last scrape.
    let dropped = shared.spans.dropped();
    let seen = shared.metrics.spans_dropped.get();
    if dropped > seen {
        shared.metrics.spans_dropped.add(dropped - seen);
    }
    shared
        .metrics
        .uptime
        .set(i64::try_from(shared.started.elapsed().as_secs()).unwrap_or(i64::MAX));
    respond(
        ctx,
        w,
        200,
        "text/plain; version=0.0.4",
        &shared.metrics.registry.render(),
    )
}

/// Serves the structured log tail as NDJSON. `?level=` (default
/// `info`) filters to that severity or above; `?n=` (default 100)
/// bounds the record count.
fn handle_logs<E: JobEngine>(
    shared: &Shared<E>,
    ctx: &ReqCtx<'_>,
    req: &http::Request,
    w: &mut impl Write,
) -> io::Result<u16> {
    let level = match req.query_param("level") {
        None => LogLevel::Info,
        Some(s) => match LogLevel::parse(s) {
            Some(l) => l,
            None => return error_response(ctx, w, 400, "bad level (debug|info|warn|error)"),
        },
    };
    let n = match req.query_param("n").map(str::parse::<usize>) {
        None => 100,
        Some(Ok(n)) if n > 0 => n,
        Some(_) => return error_response(ctx, w, 400, "bad n"),
    };
    respond(
        ctx,
        w,
        200,
        "application/x-ndjson",
        &shared.log.ndjson(level, n),
    )
}

fn handle_submit<E: JobEngine>(
    shared: &Shared<E>,
    ctx: &ReqCtx<'_>,
    req: &http::Request,
    w: &mut impl Write,
) -> io::Result<u16> {
    let client = req.header("x-client").unwrap_or("anon");
    if client.is_empty()
        || client.len() > 64
        || client.chars().any(|c| c.is_control() || c.is_whitespace())
    {
        return error_response(ctx, w, 400, "bad x-client header");
    }
    let priority = match req.query_param("priority").map(str::parse::<i64>) {
        None => 0,
        Some(Ok(p)) => p,
        Some(Err(_)) => return error_response(ctx, w, 400, "bad priority"),
    };
    match submit(shared, client, priority, &req.body, true) {
        Ok(out) => {
            let body = format!(
                "{{\"job\":{},\"points\":{},\"cached\":{},\"sweep\":\"{}\"}}\n",
                out.id, out.points, out.cached, out.sweep_hash
            );
            respond(ctx, w, 202, "application/json", &body)
        }
        Err(e) => error_response(ctx, w, e.status(), &e.message()),
    }
}

fn handle_job_status<E: JobEngine>(
    shared: &Shared<E>,
    ctx: &ReqCtx<'_>,
    id: u64,
    w: &mut impl Write,
) -> io::Result<u16> {
    let st = shared.lock_state();
    let Some(job) = st.jobs.get(&id) else {
        drop(st);
        return error_response(ctx, w, 404, "no such job");
    };
    let (state, error) = match &job.phase {
        JobPhase::Active => ("active", String::new()),
        JobPhase::Complete => ("complete", String::new()),
        JobPhase::Failed(e) => {
            let mut field = String::from(",\"error\":\"");
            let _ = write_json_escaped(&mut field, e);
            field.push('"');
            ("failed", field)
        }
    };
    let body = format!(
        "{{\"job\":{id},\"state\":\"{state}\",\"points\":{},\"done\":{},\
         \"cached\":{},\"sweep\":\"{}\"{error}}}\n",
        job.rows.len(),
        job.done,
        job.cached,
        job.sweep_hash,
    );
    drop(st);
    respond(ctx, w, 200, "application/json", &body)
}

/// Blocks until the job completes, then answers with the full document
/// the engine renders from its rows (bit-identical to a direct run).
fn handle_result<E: JobEngine>(
    shared: &Shared<E>,
    ctx: &ReqCtx<'_>,
    id: u64,
    w: &mut impl Write,
) -> io::Result<u16> {
    let mut st = shared.lock_state();
    loop {
        let Some(job) = st.jobs.get(&id) else {
            drop(st);
            return error_response(ctx, w, 404, "no such job");
        };
        match &job.phase {
            JobPhase::Failed(e) => {
                let msg = e.clone();
                drop(st);
                return error_response(ctx, w, 500, &msg);
            }
            JobPhase::Complete => {
                let job_arc = Arc::clone(&job.job);
                let rows: Vec<String> = job
                    .rows
                    .iter()
                    .map(|r| r.clone().expect("complete job has every row"))
                    .collect();
                drop(st);
                let doc = shared.engine.document(&job_arc, &rows);
                return respond(ctx, w, 200, "application/json", &doc);
            }
            JobPhase::Active => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    drop(st);
                    return error_response(ctx, w, 503, "shutting down");
                }
                st = shared
                    .row_cv
                    .wait_timeout(st, WAIT_TICK)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
    }
}

/// Streams rows live as newline-delimited JSON chunks, in point order,
/// as they complete.
///
/// Two wire formats share this endpoint. The default is the pre-PR-9
/// format — one raw row per line, byte-identical to what older clients
/// parse. Opting in with `?telemetry=epoch` (or an `x-silo-stream:
/// epoch` header) switches every line to a typed record: each point's
/// epoch-telemetry events (`{"type":"epoch",...}`, as produced by the
/// engine) stream ahead of its `{"type":"row","point":N,"data":{...}}`
/// wrapper, and errors become `{"type":"error",...}`.
fn handle_stream<E: JobEngine>(
    shared: &Shared<E>,
    ctx: &ReqCtx<'_>,
    req: &http::Request,
    id: u64,
    w: &mut TcpStream,
) -> io::Result<u16> {
    let epoch_mode = req.query_param("telemetry").is_some_and(|v| v == "epoch")
        || req.header("x-silo-stream").is_some_and(|v| v == "epoch");
    {
        let st = shared.lock_state();
        if !st.jobs.contains_key(&id) {
            drop(st);
            return error_response(ctx, w, 404, "no such job");
        }
    }
    let t_respond = ctx.spans.now_us();
    http::start_chunked(w, 200, "application/x-ndjson")?;
    enum Step {
        Row(String, Vec<String>),
        Done,
        Fail(String),
    }
    let mut cursor = 0usize;
    loop {
        let step = {
            let mut st = shared.lock_state();
            loop {
                let Some(job) = st.jobs.get(&id) else {
                    break Step::Fail("job vanished".to_string());
                };
                if cursor >= job.rows.len() {
                    break Step::Done;
                }
                if let Some(row) = &job.rows[cursor] {
                    let events = if epoch_mode {
                        job.events[cursor].clone()
                    } else {
                        Vec::new()
                    };
                    break Step::Row(row.clone(), events);
                }
                if let JobPhase::Failed(e) = &job.phase {
                    break Step::Fail(e.clone());
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break Step::Fail("shutting down".to_string());
                }
                st = shared
                    .row_cv
                    .wait_timeout(st, WAIT_TICK)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        match step {
            Step::Row(row, events) => {
                let mut chunk = String::new();
                if epoch_mode {
                    for e in &events {
                        chunk.push_str(e);
                        chunk.push('\n');
                    }
                    chunk.push_str(&format!(
                        "{{\"type\":\"row\",\"point\":{cursor},\"data\":{row}}}\n"
                    ));
                } else {
                    chunk = format!("{row}\n");
                }
                shared.metrics.stream_bytes.add(chunk.len() as u64);
                http::write_chunk(w, &chunk)?;
                cursor += 1;
            }
            Step::Done => break,
            Step::Fail(e) => {
                let chunk = error_body(
                    if epoch_mode {
                        "\"type\":\"error\","
                    } else {
                        ""
                    },
                    &e,
                );
                shared.metrics.stream_bytes.add(chunk.len() as u64);
                http::write_chunk(w, &chunk)?;
                break;
            }
        }
    }
    http::finish_chunked(w)?;
    ctx.spans.record(
        "respond",
        "http",
        Some(ctx.req_span),
        t_respond,
        ctx.spans.now_us(),
    );
    Ok(200)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(priority: i64, job: u64, idx: usize) -> QueuedPoint {
        QueuedPoint {
            priority,
            job,
            idx,
            key: format!("{job:032x}{idx:032x}"),
            enqueued_us: 0,
        }
    }

    #[test]
    fn queue_orders_by_priority_then_job_then_index() {
        let mut heap = BinaryHeap::new();
        heap.push(point(0, 2, 1));
        heap.push(point(5, 3, 0));
        heap.push(point(0, 1, 1));
        heap.push(point(0, 1, 0));
        heap.push(point(5, 3, 2));
        let order: Vec<(i64, u64, usize)> = std::iter::from_fn(|| heap.pop())
            .map(|p| (p.priority, p.job, p.idx))
            .collect();
        assert_eq!(
            order,
            vec![(5, 3, 0), (5, 3, 2), (0, 1, 0), (0, 1, 1), (0, 2, 1)]
        );
    }
}
