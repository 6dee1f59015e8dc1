//! Deterministic mutation testing of the JSON parser and the readers
//! built on it. Seeded byte mutations of the committed JSON documents —
//! the `silo-hotloop/v1` trajectory and the golden `silo-bench/v1`
//! fixture — and of the fixture's point rows (what the serve cache
//! stores) go through `Json::parse`, the perf gate and the cached-row
//! document path. Each must end in `Ok` or a typed error, never a panic
//! or a stack overflow. The budget is fixed, so every run tries the
//! same mutants.

use silo_sim::bench::gate;
use silo_sim::{canon, Json, Rng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Mutants tried per fixture.
const MUTANTS: usize = 1500;

/// Bytes a mutation writes: the format's punctuation, digits, letters
/// of its literals and escapes, and a non-ASCII byte (mutants are read
/// back lossily as UTF-8).
const ALPHABET: &[u8] = b"{}[]\":,.-+eE0123456789 \n\\ulnatrf\xc3";

/// One seeded mutation: overwrite, insert, delete or duplicate a span,
/// or open a run of up to 4,096 nested arrays or objects.
fn mutate(text: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = text.to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(out.len() as u64 + 1) as usize;
        let byte = ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
        match rng.below(5) {
            0 if at < out.len() => out[at] = byte,
            1 => out.insert(at, byte),
            2 if at < out.len() => {
                out.remove(at);
            }
            3 => {
                let open: &[u8] = if rng.below(2) == 0 { b"[" } else { b"{\"k\":" };
                let nest = open.repeat(1 + rng.below(4096) as usize);
                out.splice(at..at, nest);
            }
            _ => {
                let end = (at + rng.below(16) as usize).min(out.len());
                let span = out[at..end].to_vec();
                out.splice(at..at, span);
            }
        }
    }
    out
}

/// Everything that reads one mutated document: the parser, the writer
/// round trip of whatever parsed, and the reader `kind` names.
fn read(kind: Kind, text: &str) -> bool {
    let parsed = Json::parse(text);
    if let Ok(v) = &parsed {
        Json::parse(&v.to_string()).expect("the writer's output parses");
    }
    match kind {
        Kind::Document => {}
        // The gate reads every snapshot of a trajectory file.
        Kind::Trajectory => {
            let snapshots = parsed.as_ref().ok().and_then(|d| d.get("snapshots"));
            for s in snapshots.and_then(Json::as_arr).unwrap_or_default() {
                gate::evaluate(std::slice::from_ref(s), s, gate::DEFAULT_MIN_TOLERANCE);
            }
        }
        // The daemon rebuilds a result document from cached rows.
        Kind::Row => {
            let _ = canon::document_from_rows(&[text.to_string()], 42);
        }
    }
    parsed.is_ok()
}

/// Which reader a fixture feeds.
#[derive(Clone, Copy)]
enum Kind {
    /// A `silo-bench/v1` document.
    Document,
    /// A `silo-hotloop/v1` trajectory.
    Trajectory,
    /// One cached `silo-bench/v1` point row.
    Row,
}

#[test]
fn mutated_json_never_panics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let load = |p: &str| std::fs::read_to_string(root.join(p)).expect("committed fixture");
    let golden = load("tests/golden/bench_pinned.json");
    let mut fixtures = vec![
        (Kind::Trajectory, load("../../BENCH_hotloop.json")),
        (Kind::Document, golden.clone()),
    ];
    let doc = Json::parse(&golden).expect("golden fixture parses");
    let points = doc.get("points").and_then(Json::as_arr).expect("points");
    fixtures.extend(points.iter().map(|p| (Kind::Row, p.to_string())));

    let mut rng = Rng::new(0x750_f022);
    let (mut total, mut parsed) = (0, 0);
    for (kind, fixture) in &fixtures {
        assert!(read(*kind, fixture), "the unmutated fixture parses");
        for _ in 0..MUTANTS {
            let mutant = mutate(fixture.as_bytes(), &mut rng);
            let text = String::from_utf8_lossy(&mutant);
            match catch_unwind(AssertUnwindSafe(|| read(*kind, &text))) {
                Ok(ok) => parsed += usize::from(ok),
                Err(_) => panic!("reading a mutant panicked on:\n{text}"),
            }
            total += 1;
        }
    }
    eprintln!("{total} mutants: {parsed} parsed");
    // Most mutants must fail to parse, but some must get through to
    // the readers behind the parser.
    assert!(parsed * 20 > total && parsed < total);
}
