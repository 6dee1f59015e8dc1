//! End-to-end tests of `silo-sim serve` through the library API: a real
//! daemon on a loopback port, a raw-socket HTTP client, and the real
//! simulation engine — checking the ISSUE acceptance criteria directly:
//! served documents are bit-identical to a direct CLI run (`wall_ms`
//! aside), resubmissions are served entirely from the cache with zero
//! recompute, concurrent overlapping sweeps share work, and a daemon
//! interrupted mid-sweep resumes from cached rows.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use silo_serve::{start, ServeConfig, ServerHandle};
use silo_sim::bench::{run_sweep, sweep_json};
use silo_sim::{Json, Scenario, SimJobEngine, Simulation};

const SCENARIO: &str = "\
systems = SILO, baseline
workloads = uniform-private
cores = 2
scale = 64, 128
refs = 400
seed = 9
";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("silo-serve-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn serve(tag: &str) -> ServerHandle<SimJobEngine> {
    start(
        SimJobEngine,
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: temp_dir(tag),
            ..ServeConfig::default()
        },
    )
    .expect("daemon starts")
}

fn request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    stream.write_all(raw.as_bytes()).expect("send");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("receive");
    let status: u16 = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status in: {text}"));
    let (_, body) = text
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("no header/body split in: {text}"));
    (status, body.to_string())
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    request(addr, &format!("GET {path} HTTP/1.1\r\n\r\n"))
}

fn submit(addr: SocketAddr, client: &str, scenario: &str) -> (u16, String) {
    request(
        addr,
        &format!(
            "POST /jobs HTTP/1.1\r\nX-Client: {client}\r\nContent-Length: {}\r\n\r\n{scenario}",
            scenario.len()
        ),
    )
}

fn job_id(status: u16, body: &str) -> u64 {
    assert_eq!(status, 202, "{body}");
    body.strip_prefix("{\"job\":")
        .and_then(|rest| rest.split(',').next())
        .and_then(|id| id.parse().ok())
        .unwrap_or_else(|| panic!("no job id in: {body}"))
}

/// What a direct `silo-sim --scenario ... --json` run writes.
fn direct_document(scenario: &str) -> String {
    let scenario = Scenario::parse(scenario).expect("scenario parses");
    let spec = Simulation::builder()
        .scenario(&scenario)
        .build()
        .expect("scenario builds")
        .spec()
        .clone();
    format!("{}\n", sweep_json(&run_sweep(&spec, 1), spec.seed))
}

/// Drops every `wall_ms` field — the one host-dependent value in a
/// bench document — then re-renders canonically.
fn strip_wall_ms(doc: &str) -> String {
    fn strip(j: &mut Json) {
        match j {
            Json::Obj(fields) => {
                fields.retain(|(k, _)| k != "wall_ms");
                for (_, v) in fields {
                    strip(v);
                }
            }
            Json::Arr(items) => {
                for item in items {
                    strip(item);
                }
            }
            _ => {}
        }
    }
    let mut parsed = Json::parse(doc).expect("document parses");
    strip(&mut parsed);
    parsed.to_string()
}

#[test]
fn served_document_matches_a_direct_run_wall_ms_aside() {
    let server = serve("direct");
    let addr = server.addr();
    let (status, body) = submit(addr, "e2e", SCENARIO);
    let id = job_id(status, &body);
    assert!(body.contains("\"points\":2"), "{body}");
    let (status, served) = get(addr, &format!("/jobs/{id}/result"));
    assert_eq!(status, 200, "{served}");
    assert_eq!(
        strip_wall_ms(&served),
        strip_wall_ms(&direct_document(SCENARIO)),
        "served document must be bit-identical to the direct run, wall_ms aside"
    );
    assert_eq!(server.points_computed(), 2);
    server.shutdown();
    server.join();
}

#[test]
fn resubmission_does_zero_recompute_and_differently_spelled_scenarios_share_rows() {
    let server = serve("cache");
    let addr = server.addr();
    let (status, body) = submit(addr, "first", SCENARIO);
    let (_, first) = get(addr, &format!("/jobs/{}/result", job_id(status, &body)));
    assert_eq!(server.points_computed(), 2);

    // Same sweep, different spelling: reordered keys, extra whitespace.
    // Canonical hashing resolves both to the same point keys.
    let respelled = "\
seed =   9
scale = 64,128
cores = 2

refs = 400
workloads = uniform-private
systems = SILO,baseline
";
    let (status, body) = submit(addr, "second", respelled);
    assert!(body.contains("\"cached\":2"), "{body}");
    let (_, second) = get(addr, &format!("/jobs/{}/result", job_id(status, &body)));
    assert_eq!(first, second, "cache-served document is byte-identical");
    assert_eq!(
        server.points_computed(),
        2,
        "zero recompute on resubmission"
    );
    assert_eq!(server.points_cached(), 2);

    // A half-overlapping sweep computes only its new point.
    let extended = SCENARIO.replace("scale = 64, 128", "scale = 64, 128, 256");
    let (status, body) = submit(addr, "third", &extended);
    assert!(body.contains("\"cached\":2"), "{body}");
    let (status, _) = get(addr, &format!("/jobs/{}/result", job_id(status, &body)));
    assert_eq!(status, 200);
    assert_eq!(server.points_computed(), 3, "only the new point ran");

    server.shutdown();
    server.join();
}

#[test]
fn concurrent_overlapping_clients_get_byte_identical_documents() {
    let server = serve("concurrent");
    let addr = server.addr();
    let docs: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                scope.spawn(move || {
                    let (status, body) = submit(addr, &format!("client{i}"), SCENARIO);
                    let (status, doc) =
                        get(addr, &format!("/jobs/{}/result", job_id(status, &body)));
                    assert_eq!(status, 200, "{doc}");
                    doc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    // Shared inflight points and the cache mean every client sees the
    // same bytes — including wall_ms, since each point ran exactly once.
    assert_eq!(docs[0], docs[1]);
    assert_eq!(docs[0], docs[2]);
    assert_eq!(
        server.points_computed(),
        2,
        "overlap computed each point once"
    );
    server.shutdown();
    server.join();
}

#[test]
fn interrupted_sweep_resumes_from_cached_rows() {
    let dir = temp_dir("resume");
    let cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        cache_dir: dir.clone(),
        ..ServeConfig::default()
    };
    // Heavier points so shutdown lands mid-sweep.
    let slow = SCENARIO
        .replace("refs = 400", "refs = 20000")
        .replace("scale = 64, 128", "scale = 64, 128, 256");

    let server = start(SimJobEngine, cfg.clone()).expect("daemon starts");
    let (status, body) = submit(server.addr(), "e2e", &slow);
    job_id(status, &body);
    while server.points_computed() == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    server.shutdown();
    server.join();

    let resumed = start(
        SimJobEngine,
        ServeConfig {
            resume: true,
            ..cfg
        },
    )
    .expect("daemon resumes");
    let interrupted = std::fs::read_dir(dir.join("queue")).is_ok_and(|mut d| d.next().is_none());
    let id = if interrupted {
        // The journal was replayed at startup as job 1 (or the first
        // run finished everything and left nothing to resume — the
        // resubmission below then completes from the cache either way).
        1
    } else {
        let (status, body) = submit(resumed.addr(), "e2e", &slow);
        job_id(status, &body)
    };
    let (status, served) = get(resumed.addr(), &format!("/jobs/{id}/result"));
    let served = if status == 404 {
        // Nothing was journalled because the first daemon finished the
        // whole sweep; a resubmission must then be fully cache-served.
        let (status, body) = submit(resumed.addr(), "e2e", &slow);
        assert!(body.contains("\"cached\":3"), "{body}");
        let (status, served) = get(
            resumed.addr(),
            &format!("/jobs/{}/result", job_id(status, &body)),
        );
        assert_eq!(status, 200, "{served}");
        served
    } else {
        assert_eq!(status, 200, "{served}");
        served
    };
    assert_eq!(
        strip_wall_ms(&served),
        strip_wall_ms(&direct_document(&slow)),
        "resumed document must match a direct run, wall_ms aside"
    );
    // At least one point was computed (and cached) before the shutdown,
    // so the resumed daemon cannot have recomputed the whole sweep.
    assert!(
        resumed.points_computed() < 3,
        "resume must reuse cached rows (recomputed {})",
        resumed.points_computed()
    );
    resumed.shutdown();
    resumed.join();
}
