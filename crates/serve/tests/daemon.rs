//! End-to-end daemon tests over real sockets with a mock [`JobEngine`]:
//! submission and result retrieval, quota (429) and backpressure (503)
//! rejections, inflight sharing across concurrent overlapping jobs,
//! cache persistence across daemon restarts (zero recompute), journal
//! resume after an interrupted run, live row streaming, the bounded
//! table of finished jobs (410 beyond it), and the error surface
//! (400/404/405).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use silo_serve::{start, JobEngine, JobPlan, PointOutput, ServeConfig, FINISHED_JOBS_KEPT};
use silo_types::sha::sha256_hex;

// ---------------------------------------------------------------------------
// Mock engine

/// A counting permit workers block on inside `run_point`, so tests can
/// hold jobs in the Active phase — or let exactly N points finish —
/// deterministically. `u64::MAX` permits means "never block".
struct Gate {
    permits: Mutex<u64>,
    cv: Condvar,
}

impl Gate {
    fn with_permits(n: u64) -> Arc<Gate> {
        Arc::new(Gate {
            permits: Mutex::new(n),
            cv: Condvar::new(),
        })
    }

    fn opened() -> Arc<Gate> {
        Gate::with_permits(u64::MAX)
    }

    fn closed() -> Arc<Gate> {
        Gate::with_permits(0)
    }

    /// Removes the limit: every blocked and future point may run.
    fn release(&self) {
        *self.permits.lock().unwrap_or_else(PoisonError::into_inner) = u64::MAX;
        self.cv.notify_all();
    }

    fn acquire(&self) {
        let mut permits = self.permits.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match *permits {
                0 => {
                    permits = self
                        .cv
                        .wait_timeout(permits, Duration::from_millis(50))
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
                u64::MAX => return,
                ref mut n => {
                    *n -= 1;
                    return;
                }
            }
        }
    }
}

struct MockJob {
    name: String,
    /// Index of the job's first point in the name's point series.
    offset: usize,
}

/// Plans bodies of the form `name = X\npoints = N\n` (plus an optional
/// `offset = K`: the job's points are the name's points `K..K+N`); each
/// point's row is deterministic in (name, index), so overlapping
/// submissions are content-identical the way real sweep points are.
struct MockEngine {
    gate: Arc<Gate>,
    delay: Duration,
    runs: Arc<AtomicU64>,
}

impl MockEngine {
    fn new(gate: Arc<Gate>) -> (Self, Arc<AtomicU64>) {
        let runs = Arc::new(AtomicU64::new(0));
        (
            MockEngine {
                gate,
                delay: Duration::ZERO,
                runs: Arc::clone(&runs),
            },
            runs,
        )
    }
}

impl JobEngine for MockEngine {
    type Job = MockJob;

    fn plan(&self, body: &str) -> Result<JobPlan<MockJob>, String> {
        let mut name = None;
        let mut points = 1usize;
        let mut offset = 0usize;
        for line in body.lines() {
            if let Some((k, v)) = line.split_once('=') {
                match k.trim() {
                    "name" => name = Some(v.trim().to_string()),
                    "points" => {
                        points = v.trim().parse().map_err(|_| "bad points".to_string())?;
                    }
                    "offset" => {
                        offset = v.trim().parse().map_err(|_| "bad offset".to_string())?;
                    }
                    other => return Err(format!("unknown key '{other}'")),
                }
            }
        }
        let name = name.ok_or_else(|| "missing 'name ='".to_string())?;
        let sweep_hash = sha256_hex(format!("{name}/{points}").as_bytes());
        Ok(JobPlan {
            job: MockJob { name, offset },
            points,
            sweep_hash,
        })
    }

    fn point_key(&self, job: &MockJob, index: usize) -> String {
        sha256_hex(format!("{}:{}", job.name, job.offset + index).as_bytes())
    }

    fn run_point(&self, job: &MockJob, index: usize) -> Result<PointOutput, String> {
        self.gate.acquire();
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        self.runs.fetch_add(1, Ordering::SeqCst);
        let index = job.offset + index;
        // Every point of `explode` fails; of `brittle`, only the first.
        if job.name == "explode" || (job.name == "brittle" && index == 0) {
            return Err(format!("point {index} exploded"));
        }
        // Jobs named epoch-* also produce auxiliary typed records, the
        // way the real engine emits epoch telemetry.
        let events = if job.name.starts_with("epoch") {
            (0..2)
                .map(|e| format!("{{\"type\":\"epoch\",\"index\":{index},\"epoch\":{e}}}"))
                .collect()
        } else {
            Vec::new()
        };
        Ok(PointOutput {
            row: format!("{{\"name\":\"{}\",\"point\":{index}}}", job.name),
            events,
        })
    }

    fn try_document(&self, job: &MockJob, rows: &[String]) -> Result<String, String> {
        Ok(format!("{} [{}]\n", job.name, rows.join(",")))
    }
}

// ---------------------------------------------------------------------------
// A minimal blocking HTTP client (the daemon closes every connection).

struct Response {
    status: u16,
    headers: String,
    body: String,
}

fn request(addr: SocketAddr, raw: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("receive");
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in: {text}"));
    let (headers, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in: {text}"));
    let body = if headers.contains("Transfer-Encoding: chunked") {
        dechunk(body)
    } else {
        body.to_string()
    };
    Response {
        status,
        headers: headers.to_string(),
        body,
    }
}

fn dechunk(mut raw: &str) -> String {
    let mut out = String::new();
    loop {
        let (size_line, rest) = raw.split_once("\r\n").expect("chunk size line");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("hex chunk size");
        if size == 0 {
            return out;
        }
        out.push_str(&rest[..size]);
        raw = rest[size..].strip_prefix("\r\n").expect("chunk terminator");
    }
}

fn get(addr: SocketAddr, path: &str) -> Response {
    request(addr, &format!("GET {path} HTTP/1.1\r\n\r\n"))
}

fn post(addr: SocketAddr, path: &str, client: &str, body: &str) -> Response {
    request(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nX-Client: {client}\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// Pulls the integer job id out of a 202 submission body.
fn job_id(submitted: &Response) -> u64 {
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    submitted
        .body
        .strip_prefix("{\"job\":")
        .and_then(|rest| rest.split(',').next())
        .and_then(|id| id.parse().ok())
        .unwrap_or_else(|| panic!("no job id in: {}", submitted.body))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("silo-serve-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn config(tag: &str) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: temp_dir(tag),
        ..ServeConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Tests

#[test]
fn submit_result_status_and_version_roundtrip() {
    let (engine, runs) = MockEngine::new(Gate::opened());
    let server = start(engine, config("roundtrip")).expect("start");
    let addr = server.addr();

    let version = get(addr, "/version");
    assert_eq!(version.status, 200);
    assert!(
        version.body.contains(silo_types::VERSION),
        "{}",
        version.body
    );
    assert!(
        version
            .headers
            .contains(&format!("Server: silo-serve/{}", silo_types::VERSION)),
        "{}",
        version.headers
    );

    let submitted = post(addr, "/jobs", "alice", "name = demo\npoints = 3\n");
    let id = job_id(&submitted);
    assert!(
        submitted.body.contains("\"points\":3"),
        "{}",
        submitted.body
    );
    assert!(
        submitted.body.contains("\"cached\":0"),
        "{}",
        submitted.body
    );

    let result = get(addr, &format!("/jobs/{id}/result"));
    assert_eq!(result.status, 200);
    assert_eq!(
        result.body,
        "demo [{\"name\":\"demo\",\"point\":0},{\"name\":\"demo\",\"point\":1},{\"name\":\"demo\",\"point\":2}]\n"
    );
    assert_eq!(runs.load(Ordering::SeqCst), 3);
    assert_eq!(server.points_computed(), 3);

    let job = get(addr, &format!("/jobs/{id}"));
    assert!(job.body.contains("\"state\":\"complete\""), "{}", job.body);
    let status = get(addr, "/status");
    assert!(status.body.contains("\"computed\":3"), "{}", status.body);

    server.shutdown();
    server.join();
}

#[test]
fn resubmission_is_served_entirely_from_cache() {
    let (engine, runs) = MockEngine::new(Gate::opened());
    let server = start(engine, config("cachehit")).expect("start");
    let addr = server.addr();

    let first = get(
        addr,
        &format!(
            "/jobs/{}/result",
            job_id(&post(addr, "/jobs", "a", "name = x\npoints = 4\n"))
        ),
    );
    assert_eq!(runs.load(Ordering::SeqCst), 4);

    // Identical submission: every point comes from the cache, the job
    // completes on arrival, and nothing runs again.
    let resubmitted = post(addr, "/jobs", "b", "name = x\npoints = 4\n");
    assert!(
        resubmitted.body.contains("\"cached\":4"),
        "{}",
        resubmitted.body
    );
    let second = get(addr, &format!("/jobs/{}/result", job_id(&resubmitted)));
    assert_eq!(first.body, second.body);
    assert_eq!(
        runs.load(Ordering::SeqCst),
        4,
        "zero recompute on resubmission"
    );
    assert_eq!(server.points_cached(), 4);

    server.shutdown();
    server.join();
}

#[test]
fn cache_survives_a_daemon_restart() {
    let dir = temp_dir("restart");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: dir.clone(),
        ..ServeConfig::default()
    };
    let (engine, _) = MockEngine::new(Gate::opened());
    let server = start(engine, cfg.clone()).expect("start");
    let first = get(
        server.addr(),
        &format!(
            "/jobs/{}/result",
            job_id(&post(
                server.addr(),
                "/jobs",
                "a",
                "name = persist\npoints = 3\n"
            ))
        ),
    );
    server.shutdown();
    server.join();

    // A fresh daemon over the same cache directory serves the sweep
    // without computing anything.
    let (engine, runs) = MockEngine::new(Gate::opened());
    let server = start(engine, cfg).expect("restart");
    let resubmitted = post(server.addr(), "/jobs", "a", "name = persist\npoints = 3\n");
    assert!(
        resubmitted.body.contains("\"cached\":3"),
        "{}",
        resubmitted.body
    );
    let second = get(
        server.addr(),
        &format!("/jobs/{}/result", job_id(&resubmitted)),
    );
    assert_eq!(first.body, second.body);
    assert_eq!(runs.load(Ordering::SeqCst), 0, "restart recomputes nothing");
    assert_eq!(server.points_computed(), 0);
    server.shutdown();
    server.join();
}

#[test]
fn concurrent_overlapping_jobs_share_inflight_work() {
    let gate = Gate::closed();
    let (engine, runs) = MockEngine::new(Arc::clone(&gate));
    let server = start(engine, config("overlap")).expect("start");
    let addr = server.addr();

    // Same sweep from two clients while no point can finish: the second
    // job subscribes to the first job's inflight points.
    let id_a = job_id(&post(addr, "/jobs", "alice", "name = shared\npoints = 3\n"));
    let id_b = job_id(&post(addr, "/jobs", "bob", "name = shared\npoints = 3\n"));
    gate.release();

    let doc_a = get(addr, &format!("/jobs/{id_a}/result"));
    let doc_b = get(addr, &format!("/jobs/{id_b}/result"));
    assert_eq!(
        doc_a.body, doc_b.body,
        "shared points yield identical documents"
    );
    assert_eq!(
        runs.load(Ordering::SeqCst),
        3,
        "each point ran exactly once"
    );
    assert_eq!(
        server.points_cached(),
        3,
        "job B rode job A's inflight points"
    );

    server.shutdown();
    server.join();
}

#[test]
fn over_quota_clients_get_429() {
    let gate = Gate::closed();
    let (engine, _) = MockEngine::new(Arc::clone(&gate));
    let cfg = ServeConfig {
        client_quota: 1,
        ..config("quota")
    };
    let server = start(engine, cfg).expect("start");
    let addr = server.addr();

    let first = post(addr, "/jobs", "greedy", "name = q1\npoints = 1\n");
    assert_eq!(first.status, 202, "{}", first.body);
    let second = post(addr, "/jobs", "greedy", "name = q2\npoints = 1\n");
    assert_eq!(second.status, 429, "{}", second.body);
    assert!(second.body.contains("quota"), "{}", second.body);
    // Another client is unaffected.
    let other = post(addr, "/jobs", "patient", "name = q3\npoints = 1\n");
    assert_eq!(other.status, 202, "{}", other.body);

    gate.release();
    let done = get(addr, &format!("/jobs/{}/result", job_id(&first)));
    assert_eq!(done.status, 200);
    // Quota released on completion: the same client may submit again.
    let after = post(addr, "/jobs", "greedy", "name = q4\npoints = 1\n");
    assert_eq!(after.status, 202, "{}", after.body);
    let _ = get(addr, &format!("/jobs/{}/result", job_id(&after)));

    server.shutdown();
    gate.release();
    server.join();
}

#[test]
fn full_point_queue_rejects_with_503() {
    let gate = Gate::closed();
    let (engine, _) = MockEngine::new(Arc::clone(&gate));
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 2,
        ..config("backpressure")
    };
    let server = start(engine, cfg).expect("start");
    let addr = server.addr();

    let first = post(addr, "/jobs", "a", "name = fills\npoints = 2\n");
    assert_eq!(first.status, 202, "{}", first.body);
    let burst = post(addr, "/jobs", "b", "name = overflows\npoints = 2\n");
    assert_eq!(burst.status, 503, "{}", burst.body);
    assert!(burst.body.contains("queue full"), "{}", burst.body);
    // A resubmission of queued content subscribes instead of enqueueing,
    // so it is accepted even while the queue is full.
    let overlap = post(addr, "/jobs", "b", "name = fills\npoints = 2\n");
    assert_eq!(overlap.status, 202, "{}", overlap.body);

    gate.release();
    let _ = get(addr, &format!("/jobs/{}/result", job_id(&first)));
    server.shutdown();
    server.join();
}

#[test]
fn interrupted_jobs_resume_from_the_journal_without_recompute() {
    let dir = temp_dir("resume");
    let base = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_dir: dir.clone(),
        ..ServeConfig::default()
    };

    // Phase 1: accept a 5-point job, allow exactly two points to run,
    // then shut down mid-sweep (the worker drains at most its current
    // point before exiting).
    let gate = Gate::with_permits(2);
    let (engine, runs) = MockEngine::new(Arc::clone(&gate));
    let server = start(engine, base.clone()).expect("start");
    let submitted = post(server.addr(), "/jobs", "a", "name = longhaul\npoints = 5\n");
    assert_eq!(submitted.status, 202, "{}", submitted.body);
    while server.points_computed() < 2 {
        std::thread::sleep(Duration::from_millis(2));
    }
    server.shutdown();
    // The worker may be blocked inside its current point; releasing the
    // gate lets it drain that point and exit.
    gate.release();
    server.join();
    let finished_early = runs.load(Ordering::SeqCst);
    assert!(
        finished_early < 5,
        "shutdown must interrupt the job ({finished_early} points ran)"
    );
    let journal: Vec<_> = std::fs::read_dir(dir.join("queue"))
        .expect("journal dir")
        .flatten()
        .collect();
    assert_eq!(journal.len(), 1, "interrupted job stays journalled");

    // Phase 2: a resuming daemon replays the journal; only the missing
    // points run, and the document is complete.
    let (engine, runs) = MockEngine::new(Gate::opened());
    let server = start(
        engine,
        ServeConfig {
            resume: true,
            ..base
        },
    )
    .expect("resume");
    let result = get(server.addr(), "/jobs/1/result");
    assert_eq!(result.status, 200, "{}", result.body);
    for i in 0..5 {
        assert!(
            result.body.contains(&format!("\"point\":{i}")),
            "resumed document misses point {i}: {}",
            result.body
        );
    }
    assert_eq!(
        runs.load(Ordering::SeqCst) + finished_early,
        5,
        "resume runs exactly the missing points"
    );
    assert!(
        std::fs::read_dir(dir.join("queue"))
            .expect("journal dir")
            .next()
            .is_none(),
        "journal entry removed once the job completes"
    );
    server.shutdown();
    server.join();
}

#[test]
fn stream_delivers_rows_in_order_as_ndjson_chunks() {
    let (engine, _) = MockEngine::new(Gate::opened());
    let server = start(engine, config("stream")).expect("start");
    let addr = server.addr();
    let id = job_id(&post(addr, "/jobs", "a", "name = live\npoints = 3\n"));
    let stream = get(addr, &format!("/jobs/{id}/stream"));
    assert_eq!(stream.status, 200);
    assert!(
        stream.headers.contains("application/x-ndjson"),
        "{}",
        stream.headers
    );
    let rows: Vec<&str> = stream.body.lines().collect();
    assert_eq!(
        rows,
        vec![
            "{\"name\":\"live\",\"point\":0}",
            "{\"name\":\"live\",\"point\":1}",
            "{\"name\":\"live\",\"point\":2}",
        ]
    );
    server.shutdown();
    server.join();
}

#[test]
fn failed_points_fail_the_job_with_500() {
    let (engine, _) = MockEngine::new(Gate::opened());
    let server = start(engine, config("failure")).expect("start");
    let addr = server.addr();
    let id = job_id(&post(addr, "/jobs", "a", "name = explode\npoints = 2\n"));
    let result = get(addr, &format!("/jobs/{id}/result"));
    assert_eq!(result.status, 500);
    assert!(result.body.contains("exploded"), "{}", result.body);
    let job = get(addr, &format!("/jobs/{id}"));
    assert!(job.body.contains("\"state\":\"failed\""), "{}", job.body);
    server.shutdown();
    server.join();
}

/// Submits `body` `n` times, asserting every submission is served
/// entirely from the cache; returns the last job id.
fn submit_cached(addr: SocketAddr, body: &str, points: usize, n: usize) -> u64 {
    let mut last = 0;
    for _ in 0..n {
        let r = post(addr, "/jobs", "a", body);
        assert!(
            r.body.contains(&format!("\"cached\":{points}")),
            "{}",
            r.body
        );
        last = job_id(&r);
    }
    last
}

/// Asserts `/status` reports no active job and these totals.
fn assert_job_counts(addr: SocketAddr, total: usize, done: usize, failed: usize) {
    let body = get(addr, "/status").body;
    let want = format!(
        "\"jobs\":{{\"total\":{total},\"active\":0,\"queued\":0,\"done\":{done},\"failed\":{failed}}}"
    );
    assert!(body.contains(&want), "{body}");
}

#[test]
fn finished_jobs_beyond_the_bound_expire_with_410() {
    let (engine, runs) = MockEngine::new(Gate::opened());
    let server = start(engine, config("expire")).expect("start");
    let addr = server.addr();
    let body = "name = kept\npoints = 2\n";
    let first = job_id(&post(addr, "/jobs", "a", body));
    assert_eq!(first, 1);
    let document = get(addr, "/jobs/1/result");
    assert_eq!(document.status, 200, "{}", document.body);
    let stream = get(addr, "/jobs/1/stream").body;

    let submitted = FINISHED_JOBS_KEPT + 6;
    let last = submit_cached(addr, body, 2, submitted - 1);
    assert_eq!(
        runs.load(Ordering::SeqCst),
        2,
        "resubmissions recompute nothing"
    );
    for path in ["", "/result", "/stream"] {
        let gone = get(addr, &format!("/jobs/1{path}"));
        assert_eq!(gone.status, 410, "/jobs/1{path}: {}", gone.body);
        assert!(gone.body.contains("job 1 expired"), "{}", gone.body);
        assert!(gone.body.contains("row cache"), "{}", gone.body);
    }
    let newest = get(addr, &format!("/jobs/{last}/result"));
    assert_eq!(newest.status, 200, "{}", newest.body);
    assert_eq!(newest.body, document.body);
    assert_eq!(get(addr, &format!("/jobs/{last}/stream")).body, stream);
    assert!(get(addr, &format!("/jobs/{last}"))
        .body
        .contains("\"state\":\"complete\""));
    // Ids never issued stay 404.
    assert_eq!(get(addr, &format!("/jobs/{}", last + 1)).status, 404);
    assert_eq!(get(addr, "/jobs/0").status, 404);
    assert_job_counts(addr, submitted, submitted, 0);

    server.shutdown();
    server.join();
}

#[test]
fn cached_floods_keep_at_most_the_bound_of_finished_jobs() {
    let (engine, _) = MockEngine::new(Gate::opened());
    let server = start(engine, config("flood")).expect("start");
    let addr = server.addr();
    let body = "name = flood\npoints = 3\n";
    let primed = job_id(&post(addr, "/jobs", "a", body));
    assert_eq!(get(addr, &format!("/jobs/{primed}/result")).status, 200);
    let total = usize::try_from(submit_cached(addr, body, 3, 10 * FINISHED_JOBS_KEPT)).unwrap();
    assert_eq!(total, 10 * FINISHED_JOBS_KEPT + 1);

    // Exactly the newest FINISHED_JOBS_KEPT ids are still held.
    let kept: Vec<usize> = (1..=total)
        .filter(|id| match get(addr, &format!("/jobs/{id}")).status {
            200 => true,
            410 => false,
            other => panic!("job {id} answered {other}"),
        })
        .collect();
    assert_eq!(
        kept,
        (total - FINISHED_JOBS_KEPT + 1..=total).collect::<Vec<_>>()
    );
    let metrics = get(addr, "/metrics").body;
    assert!(
        metrics.contains("\nsilo_serve_jobs_active 0\n"),
        "{metrics}"
    );
    assert_job_counts(addr, total, total, 0);

    server.shutdown();
    server.join();
}

#[test]
fn failed_jobs_still_count_after_eviction() {
    let (engine, _) = MockEngine::new(Gate::opened());
    let server = start(engine, config("failedexpire")).expect("start");
    let addr = server.addr();
    let failed = job_id(&post(addr, "/jobs", "a", "name = explode\npoints = 2\n"));
    assert_eq!(get(addr, &format!("/jobs/{failed}/result")).status, 500);
    let body = "name = fine\npoints = 1\n";
    let primed = job_id(&post(addr, "/jobs", "a", body));
    assert_eq!(get(addr, &format!("/jobs/{primed}/result")).status, 200);
    submit_cached(addr, body, 1, FINISHED_JOBS_KEPT);

    assert_eq!(get(addr, &format!("/jobs/{failed}")).status, 410);
    let total = FINISHED_JOBS_KEPT + 2;
    assert_job_counts(addr, total, total - 1, 1);

    server.shutdown();
    server.join();
}

#[test]
fn active_jobs_are_never_evicted() {
    // One permit: the priming job's point runs, the held job's waits.
    let gate = Gate::with_permits(1);
    let (engine, _) = MockEngine::new(Arc::clone(&gate));
    let server = start(engine, config("activekept")).expect("start");
    let addr = server.addr();
    let body = "name = quick\npoints = 1\n";
    let primed = job_id(&post(addr, "/jobs", "a", body));
    assert_eq!(get(addr, &format!("/jobs/{primed}/result")).status, 200);
    let held = job_id(&post(addr, "/jobs", "b", "name = held\npoints = 2\n"));
    submit_cached(addr, body, 1, 2 * FINISHED_JOBS_KEPT);

    assert_eq!(get(addr, &format!("/jobs/{primed}")).status, 410);
    let job = get(addr, &format!("/jobs/{held}"));
    assert!(job.body.contains("\"state\":\"active\""), "{}", job.body);
    assert!(get(addr, "/metrics")
        .body
        .contains("\nsilo_serve_jobs_active 1\n"));
    gate.release();
    let result = get(addr, &format!("/jobs/{held}/result"));
    assert_eq!(result.status, 200, "{}", result.body);
    assert!(result.body.starts_with("held ["), "{}", result.body);

    server.shutdown();
    server.join();
}

#[test]
fn a_point_queued_by_an_evicted_job_still_serves_its_other_subscribers() {
    // One worker, so the queue order below is the run order.
    let gate = Gate::closed();
    let (engine, _) = MockEngine::new(Arc::clone(&gate));
    let server = start(
        engine,
        ServeConfig {
            workers: 1,
            ..config("orphanpoint")
        },
    )
    .expect("start");
    let addr = server.addr();
    let cached = "name = w\npoints = 1\n";
    // The worker takes w's point and waits at the gate.
    let w = job_id(&post(addr, "/jobs", "w", cached));
    while !get(addr, "/metrics")
        .body
        .contains("\nsilo_serve_workers_busy 1\n")
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    // brittle:0 fails; f queues it ahead of everything else.
    let f = job_id(&post(
        addr,
        "/jobs?priority=10",
        "f",
        "name = brittle\npoints = 1\n",
    ));
    // a subscribes to brittle:0 and queues brittle:1; b subscribes to
    // brittle:1 only; x's point runs between brittle:0 and brittle:1.
    let a = job_id(&post(addr, "/jobs", "a", "name = brittle\npoints = 2\n"));
    let b = job_id(&post(
        addr,
        "/jobs",
        "b",
        "name = brittle\npoints = 1\noffset = 1\n",
    ));
    let x = job_id(&post(
        addr,
        "/jobs?priority=5",
        "x",
        "name = x\npoints = 1\n",
    ));
    // Two permits: w's point, then brittle:0, which fails f and a; x's
    // point then waits at the gate.
    *gate.permits.lock().unwrap() = 2;
    gate.cv.notify_all();
    assert_eq!(get(addr, &format!("/jobs/{w}/result")).status, 200);
    assert_eq!(get(addr, &format!("/jobs/{a}/result")).status, 500);
    // Evict f and a while brittle:1, queued by a, still waits.
    submit_cached(addr, cached, 1, FINISHED_JOBS_KEPT);
    assert_eq!(get(addr, &format!("/jobs/{f}")).status, 410);
    assert_eq!(get(addr, &format!("/jobs/{a}")).status, 410);

    gate.release();
    assert_eq!(get(addr, &format!("/jobs/{x}/result")).status, 200);
    let result = get(addr, &format!("/jobs/{b}/result"));
    assert_eq!(result.status, 200, "{}", result.body);
    assert_eq!(
        result.body,
        "brittle [{\"name\":\"brittle\",\"point\":1}]\n"
    );

    server.shutdown();
    server.join();
}

#[test]
fn a_failed_journal_write_releases_the_quota_and_the_queue_slots() {
    let (engine, _) = MockEngine::new(Gate::opened());
    let cfg = ServeConfig {
        // No workers: accepted points stay queued.
        workers: 0,
        client_quota: 1,
        queue_capacity: 2,
        ..config("journalfail")
    };
    let queue = cfg.cache_dir.join("queue");
    let server = start(engine, cfg).expect("start");
    let addr = server.addr();
    let body = "name = j\npoints = 2\n";

    // A file where the journal directory should be fails the write.
    std::fs::remove_dir_all(&queue).expect("remove queue dir");
    std::fs::write(&queue, "").expect("block the queue dir");
    let refused = post(addr, "/jobs", "c", body);
    assert_eq!(refused.status, 500, "{}", refused.body);
    assert!(
        refused.body.contains("journal write failed"),
        "{}",
        refused.body
    );

    // The quota slot and both queue slots came back.
    std::fs::remove_file(&queue).expect("unblock");
    std::fs::create_dir_all(&queue).expect("queue dir");
    let id = job_id(&post(addr, "/jobs", "c", body));
    assert!(queue.join(format!("{id}.job")).exists(), "journalled");
    assert_eq!(post(addr, "/jobs", "d", "name = k\n").status, 503);
    assert_eq!(post(addr, "/jobs", "c", "name = k\n").status, 429);

    server.shutdown();
    server.join();
}

#[test]
fn the_error_surface_has_the_right_statuses() {
    let (engine, _) = MockEngine::new(Gate::opened());
    let server = start(engine, config("errors")).expect("start");
    let addr = server.addr();

    assert_eq!(post(addr, "/jobs", "a", "bogus = 1\n").status, 400);
    assert_eq!(post(addr, "/jobs", "bad client", "name = x\n").status, 400);
    assert_eq!(
        request(
            addr,
            "POST /jobs?priority=nope HTTP/1.1\r\nContent-Length: 9\r\n\r\nname = x\n"
        )
        .status,
        400
    );
    assert_eq!(get(addr, "/jobs/999/result").status, 404);
    assert_eq!(get(addr, "/jobs/999").status, 404);
    assert_eq!(get(addr, "/nowhere").status, 404);
    assert_eq!(get(addr, "/jobs/1/unknown").status, 404);
    assert_eq!(request(addr, "DELETE /status HTTP/1.1\r\n\r\n").status, 405);
    assert_eq!(request(addr, "PUT /jobs HTTP/1.1\r\n\r\n").status, 405);
    assert_eq!(request(addr, "GET /status HTTP/2\r\n\r\n").status, 505);

    server.shutdown();
    server.join();
}

/// Minimal Prometheus text-exposition validity check: every line is a
/// comment or `name[{labels}] value` with a numeric value, every
/// sample's family has HELP and TYPE headers, and histogram buckets
/// are cumulative ending in `+Inf`.
fn assert_valid_exposition(text: &str) {
    let mut seen_types = std::collections::HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("type name");
            let kind = it.next().expect("type kind");
            assert!(
                ["counter", "gauge", "histogram"].contains(&kind),
                "bad kind: {line}"
            );
            seen_types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad sample line: {line}"));
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "non-numeric value in: {line}"
        );
        let name = series.split('{').next().expect("metric name");
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| seen_types.get(*f).map(String::as_str) == Some("histogram"))
            .unwrap_or(name);
        assert!(
            seen_types.contains_key(family),
            "sample {name} has no TYPE header"
        );
    }
}

#[test]
fn metrics_exposition_is_valid_and_counters_move_across_a_job() {
    let (engine, _) = MockEngine::new(Gate::opened());
    let server = start(engine, config("metrics")).expect("start");
    let addr = server.addr();

    let before = get(addr, "/metrics");
    assert_eq!(before.status, 200);
    assert!(before.headers.contains("text/plain"), "{}", before.headers);
    assert_valid_exposition(&before.body);
    // Declared families render even before any job ran.
    assert!(before
        .body
        .contains("# TYPE silo_serve_requests_total counter"));
    assert!(before.body.contains("silo_serve_cache_misses_total 0"));
    assert!(before.body.contains("silo_serve_queue_depth 0"));
    assert!(before.body.contains("silo_obs_spans_dropped_total 0"));
    assert!(
        before.body.contains(&format!(
            "silo_build_info{{version=\"{}\"}} 1",
            silo_types::VERSION
        )),
        "{}",
        before.body
    );
    assert!(
        before.body.contains("silo_serve_uptime_seconds"),
        "{}",
        before.body
    );

    let id = job_id(&post(addr, "/jobs", "a", "name = metered\npoints = 3\n"));
    let _ = get(addr, &format!("/jobs/{id}/result"));
    let _ = get(addr, &format!("/jobs/{id}/stream"));

    let after = get(addr, "/metrics");
    assert_valid_exposition(&after.body);
    assert!(
        after.body.contains("silo_serve_cache_misses_total 3"),
        "{}",
        after.body
    );
    assert!(
        after
            .body
            .contains("silo_serve_point_run_microseconds_count 3"),
        "{}",
        after.body
    );
    assert!(
        after
            .body
            .contains("silo_serve_requests_total{endpoint=\"/jobs\",status=\"202\"} 1"),
        "{}",
        after.body
    );
    assert!(
        after
            .body
            .contains("endpoint=\"/jobs/{id}/result\",status=\"200\""),
        "{}",
        after.body
    );
    // The stream moved the bytes counter.
    let bytes_line = after
        .body
        .lines()
        .find(|l| l.starts_with("silo_serve_stream_bytes_total "))
        .expect("stream bytes sample");
    let bytes: u64 = bytes_line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(bytes > 0, "{bytes_line}");

    // Resubmission: cache hits move, misses don't.
    let _ = post(addr, "/jobs", "b", "name = metered\npoints = 3\n");
    let third = get(addr, "/metrics");
    assert!(
        third.body.contains("silo_serve_cache_hits_total 3"),
        "{}",
        third.body
    );
    assert!(third.body.contains("silo_serve_cache_misses_total 3"));

    server.shutdown();
    server.join();
}

#[test]
fn trace_endpoint_serves_linked_request_and_job_spans() {
    let (engine, _) = MockEngine::new(Gate::opened());
    let server = start(engine, config("trace")).expect("start");
    let addr = server.addr();
    let id = job_id(&post(addr, "/jobs", "a", "name = traced\npoints = 1\n"));
    let _ = get(addr, &format!("/jobs/{id}/result"));

    let trace = get(addr, "/trace");
    assert_eq!(trace.status, 200);
    assert!(
        trace
            .body
            .starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
        "{}",
        trace.body
    );
    for name in [
        "parse",
        "route",
        "respond",
        "request",
        "queue-wait",
        "run",
        "cache-write",
        "point",
    ] {
        assert!(
            trace.body.contains(&format!("\"name\":\"{name}\"")),
            "missing {name} span: {}",
            trace.body
        );
    }
    // Every span is a complete event with parent links riding in args.
    assert!(trace.body.contains("\"ph\":\"X\""));
    assert!(trace.body.contains("\"parent\":"));
    // The in-process accessor serves the same document shape.
    assert!(server.trace_json().contains("\"name\":\"request\""));

    server.shutdown();
    server.join();
}

#[test]
fn status_reports_job_phase_counts() {
    let gate = Gate::closed();
    let (engine, _) = MockEngine::new(Arc::clone(&gate));
    let server = start(engine, config("phases")).expect("start");
    let addr = server.addr();

    // One permit while only the failing job exists: its single point is
    // the only one that can run.
    let failed = job_id(&post(addr, "/jobs", "b", "name = explode\npoints = 1\n"));
    *gate.permits.lock().unwrap() = 1;
    gate.cv.notify_all();
    while !get(addr, &format!("/jobs/{failed}"))
        .body
        .contains("\"state\":\"failed\"")
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    // Now a job stuck behind the (re-closed) gate: active, no point done.
    let stuck = job_id(&post(addr, "/jobs", "a", "name = stuck\npoints = 2\n"));
    let status = get(addr, "/status");
    assert!(
        status
            .body
            .contains("\"jobs\":{\"total\":2,\"active\":1,\"queued\":1,\"done\":0,\"failed\":1}"),
        "{}",
        status.body
    );

    // Drain the stuck job; it moves to done.
    gate.release();
    let _ = get(addr, &format!("/jobs/{stuck}/result"));
    let status = get(addr, "/status");
    assert!(
        status
            .body
            .contains("\"jobs\":{\"total\":2,\"active\":0,\"queued\":0,\"done\":1,\"failed\":1}"),
        "{}",
        status.body
    );

    server.shutdown();
    server.join();
}

#[test]
fn epoch_opt_in_stream_interleaves_typed_records_and_default_stays_raw() {
    let dir = temp_dir("epochstream");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: dir.clone(),
        ..ServeConfig::default()
    };
    let (engine, _) = MockEngine::new(Gate::opened());
    let server = start(engine, cfg.clone()).expect("start");
    let addr = server.addr();
    let id = job_id(&post(addr, "/jobs", "a", "name = epochal\npoints = 2\n"));

    // Default stream: raw rows only, the pre-PR-9 wire format.
    let plain = get(addr, &format!("/jobs/{id}/stream"));
    assert_eq!(
        plain.body.lines().collect::<Vec<_>>(),
        vec![
            "{\"name\":\"epochal\",\"point\":0}",
            "{\"name\":\"epochal\",\"point\":1}",
        ]
    );

    // Opt-in via query param: every line is typed, epochs ahead of rows.
    let typed = get(addr, &format!("/jobs/{id}/stream?telemetry=epoch"));
    let lines: Vec<&str> = typed.body.lines().collect();
    assert_eq!(
        lines,
        vec![
            "{\"type\":\"epoch\",\"index\":0,\"epoch\":0}",
            "{\"type\":\"epoch\",\"index\":0,\"epoch\":1}",
            "{\"type\":\"row\",\"point\":0,\"data\":{\"name\":\"epochal\",\"point\":0}}",
            "{\"type\":\"epoch\",\"index\":1,\"epoch\":0}",
            "{\"type\":\"epoch\",\"index\":1,\"epoch\":1}",
            "{\"type\":\"row\",\"point\":1,\"data\":{\"name\":\"epochal\",\"point\":1}}",
        ]
    );

    // Opt-in via header is equivalent.
    let via_header = request(
        addr,
        &format!("GET /jobs/{id}/stream HTTP/1.1\r\nX-Silo-Stream: epoch\r\n\r\n"),
    );
    assert_eq!(via_header.body, typed.body);
    server.shutdown();
    server.join();

    // Events persist in the cache: a fresh daemon over the same
    // directory serves the epoch records for a fully cached job.
    let (engine, runs) = MockEngine::new(Gate::opened());
    let server = start(engine, cfg).expect("restart");
    let id = job_id(&post(
        server.addr(),
        "/jobs",
        "b",
        "name = epochal\npoints = 2\n",
    ));
    let cached = get(server.addr(), &format!("/jobs/{id}/stream?telemetry=epoch"));
    assert_eq!(cached.body, typed.body, "cached jobs keep their epochs");
    assert_eq!(runs.load(Ordering::SeqCst), 0);
    server.shutdown();
    server.join();
}

#[test]
fn trace_out_writes_a_chrome_trace_on_shutdown() {
    let dir = temp_dir("traceout");
    let trace_path = dir.join("daemon-trace.json");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: dir.clone(),
        trace_out: Some(trace_path.clone()),
        ..ServeConfig::default()
    };
    let (engine, _) = MockEngine::new(Gate::opened());
    let server = start(engine, cfg).expect("start");
    let id = job_id(&post(
        server.addr(),
        "/jobs",
        "a",
        "name = out\npoints = 1\n",
    ));
    let _ = get(server.addr(), &format!("/jobs/{id}/result"));
    server.shutdown();
    server.join();
    let written = std::fs::read_to_string(&trace_path).expect("trace file");
    assert!(written.contains("\"traceEvents\":["), "{written}");
    assert!(written.contains("\"name\":\"run\""), "{written}");
}

#[test]
fn healthz_is_alive_even_while_work_is_wedged() {
    // A closed gate keeps the worker stuck inside run_point; liveness
    // must not care (it answers without touching job state).
    let gate = Gate::closed();
    let (engine, _) = MockEngine::new(Arc::clone(&gate));
    let server = start(engine, config("healthz")).expect("start");
    let addr = server.addr();
    let _ = post(addr, "/jobs", "a", "name = wedged\npoints = 1\n");

    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");
    assert!(health.headers.contains("text/plain"), "{}", health.headers);

    gate.release();
    server.shutdown();
    server.join();
}

#[test]
fn logs_capture_the_job_lifecycle_with_level_filter_and_pagination() {
    let (engine, _) = MockEngine::new(Gate::opened());
    let server = start(engine, config("logs")).expect("start");
    let addr = server.addr();
    let id = job_id(&post(addr, "/jobs", "a", "name = logged\npoints = 2\n"));
    let _ = get(addr, &format!("/jobs/{id}/result"));
    let failed = job_id(&post(addr, "/jobs", "a", "name = explode\npoints = 1\n"));
    while !get(addr, &format!("/jobs/{failed}"))
        .body
        .contains("\"state\":\"failed\"")
    {
        std::thread::sleep(Duration::from_millis(2));
    }

    // Default tail: info and above, rendered as NDJSON records.
    let logs = get(addr, "/logs");
    assert_eq!(logs.status, 200);
    assert!(
        logs.headers.contains("application/x-ndjson"),
        "{}",
        logs.headers
    );
    for line in logs.body.lines() {
        assert!(
            line.starts_with("{\"seq\":") && line.ends_with('}'),
            "bad NDJSON line: {line}"
        );
        assert!(line.contains("\"ts_us\":"), "{line}");
        assert!(line.contains("\"level\":\""), "{line}");
        assert!(line.contains("\"target\":\""), "{line}");
    }
    for msg in ["listening", "job accepted", "job complete", "job failed"] {
        assert!(
            logs.body.contains(&format!("\"msg\":\"{msg}\"")),
            "missing '{msg}' in: {}",
            logs.body
        );
    }
    assert!(
        !logs.body.contains("\"level\":\"debug\""),
        "default tail must exclude debug: {}",
        logs.body
    );

    // Level filter: debug adds per-point and journal records; error
    // strips everything but the failure.
    let debug = get(addr, "/logs?level=debug");
    assert!(
        debug.body.contains("\"msg\":\"point computed\""),
        "{}",
        debug.body
    );
    assert!(
        debug
            .body
            .contains("\"msg\":\"job journalled ahead of execution\""),
        "{}",
        debug.body
    );
    let errors = get(addr, "/logs?level=error");
    assert!(
        errors.body.contains("\"msg\":\"job failed\""),
        "{}",
        errors.body
    );
    assert!(
        !errors.body.contains("\"msg\":\"job accepted\""),
        "{}",
        errors.body
    );

    // Pagination: the tail keeps the most recent records.
    let one = get(addr, "/logs?n=1");
    assert_eq!(one.body.lines().count(), 1, "{}", one.body);

    // Bad parameters are rejected.
    assert_eq!(get(addr, "/logs?level=loud").status, 400);
    assert_eq!(get(addr, "/logs?n=0").status, 400);
    assert_eq!(get(addr, "/logs?n=nope").status, 400);

    server.shutdown();
    server.join();
}

#[test]
fn resume_emits_journal_replay_log_events_and_log_out_persists_them() {
    // A journal left by a killed daemon, plus one malformed entry that
    // must be skipped with a warning.
    let dir = temp_dir("resumelogs");
    std::fs::create_dir_all(dir.join("queue")).expect("queue dir");
    std::fs::write(
        dir.join("queue/7.job"),
        "client a\npriority 0\n\nname = replayed\npoints = 2\n",
    )
    .expect("journal entry");
    std::fs::write(dir.join("queue/9.job"), "no header separator").expect("bad entry");
    let log_path = dir.join("daemon-log.ndjson");

    let (engine, _) = MockEngine::new(Gate::opened());
    let server = start(
        engine,
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: dir.clone(),
            resume: true,
            log_out: Some(log_path.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();
    let result = get(addr, "/jobs/1/result");
    assert_eq!(result.status, 200, "{}", result.body);

    let logs = get(addr, "/logs");
    assert!(
        logs.body.contains("\"msg\":\"journal replayed\""),
        "{}",
        logs.body
    );
    assert!(logs.body.contains("\"points\":\"2\""), "{}", logs.body);
    let warnings = get(addr, "/logs?level=warn");
    assert!(
        warnings
            .body
            .contains("\"msg\":\"malformed journal entry skipped\""),
        "{}",
        warnings.body
    );
    assert!(warnings.body.contains("9.job"), "{}", warnings.body);

    server.shutdown();
    server.join();

    // The sink file kept every record (including debug), NDJSON per line.
    let written = std::fs::read_to_string(&log_path).expect("log file");
    assert!(written.contains("\"msg\":\"listening\""), "{written}");
    assert!(
        written.contains("\"msg\":\"journal replayed\""),
        "{written}"
    );
    assert!(written.contains("\"msg\":\"point computed\""), "{written}");
    assert!(
        written
            .lines()
            .all(|l| l.starts_with("{\"seq\":") && l.ends_with('}')),
        "{written}"
    );
}

#[test]
fn torn_journal_writes_are_not_replayed_on_resume() {
    // A daemon killed while journalling leaves only the temp file of the
    // entry it was writing. Its cut body still parses — as a different
    // job ("points = 1" of "points = 12") — so resume must not replay it.
    let dir = temp_dir("torn");
    std::fs::create_dir_all(dir.join("queue")).expect("queue dir");
    std::fs::write(
        dir.join("queue/3.job"),
        "client a\npriority 0\n\nname = whole\npoints = 2\n",
    )
    .expect("journal entry");
    std::fs::write(
        dir.join("queue/4.job.tmp"),
        "client a\npriority 0\n\nname = torn\npoints = 1",
    )
    .expect("torn entry");

    let (engine, runs) = MockEngine::new(Gate::opened());
    let server = start(
        engine,
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: dir.clone(),
            resume: true,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let addr = server.addr();
    let result = get(addr, "/jobs/1/result");
    assert_eq!(result.status, 200, "{}", result.body);
    assert!(result.body.starts_with("whole ["), "{}", result.body);
    assert_eq!(get(addr, "/jobs/2").status, 404, "the torn entry ran");
    assert_eq!(runs.load(Ordering::SeqCst), 2, "only the whole entry ran");
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_endpoint_acknowledges_then_drains() {
    let (engine, _) = MockEngine::new(Gate::opened());
    let server = start(engine, config("shutdown")).expect("start");
    let addr = server.addr();
    let ack = post(addr, "/shutdown", "a", "");
    assert_eq!(ack.status, 200);
    assert!(ack.body.contains("shutting_down"), "{}", ack.body);
    server.join();
    // Submissions after shutdown are refused at the socket or with 503;
    // either way no new work is accepted.
    assert!(
        TcpStream::connect(addr).is_err() || post(addr, "/jobs", "a", "name = x\n").status == 503
    );
}
