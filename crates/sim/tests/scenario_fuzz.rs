//! Deterministic mutation testing of the scenario parser. Seeded byte
//! mutations of the example scenario and of the scenario fixtures the
//! other tests use go through `Scenario::parse` and then the builder;
//! each must end in `Ok` or a typed `ConfigError`, never a panic. The
//! budget is fixed, so every run tries the same mutants.

use silo_sim::{Rng, Scenario, Simulation};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// Mutants tried per fixture.
const MUTANTS: usize = 1500;

/// Scenario texts from the unit and integration tests.
const FIXTURES: &[&str] = &[
    "systems = SILO, baseline, baseline-2x\n\
     workloads = uniform-private, zipf:theta=0.9,footprint=4x\n\
     workload = pointer-chase:dependent=0.8  # appended\n\
     cores = 4, 8\nscale = 64\nmlp = 8\nvault = table2\nseed = 42\n\
     refs = 4000\nthreads = 2\nwarmup = 800\nepoch = 1000\ncheck = 5000\n\
     profile = off\n",
    "systems = SILO, baseline\n\
     workloads = uniform-private, zipf:theta=0.9,footprint=4x\n\
     cores = 4\nrefs = 800\nseed = 11\n",
    "systems = SILO, baseline, silo-no-forward\nworkloads = zipf-shared\n\
     cores = 4\nseed = 9\nrefs = 1200\n",
    "workloads = trace:file=/tmp/a#b.silotrace  # comment\nseed = 7 #trailing\n",
    "profile = on\nvault = latency, capacity\nscale = 32, 64\n",
];

/// Bytes a mutation writes: the format's punctuation, digits, letters
/// and a non-ASCII byte (mutants are read back lossily as UTF-8).
const ALPHABET: &[u8] = b"=,:#\n \t0123456789-.xkMiBofnaeSILO\xc3";

/// One seeded mutation: overwrite, insert, delete or duplicate a span.
fn mutate(text: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = text.to_vec();
    for _ in 0..=rng.below(3) {
        let at = rng.below(out.len() as u64 + 1) as usize;
        let byte = ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
        match rng.below(4) {
            0 if at < out.len() => out[at] = byte,
            1 => out.insert(at, byte),
            2 if at < out.len() => {
                out.remove(at);
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

/// How far one scenario text got: parsed, then built.
#[derive(Default)]
struct Reached {
    parsed: usize,
    built: usize,
}

/// Parses and builds one scenario text, returning the panic message if
/// either step panics.
fn run(text: &str, reached: &mut Reached) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(|| {
        if let Ok(s) = Scenario::parse(text) {
            reached.parsed += 1;
            if Simulation::builder().scenario(&s).build().is_ok() {
                reached.built += 1;
            }
        }
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    })
}

#[test]
fn mutated_scenarios_never_panic() {
    let example = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/paper_fig11.scenario");
    let example = std::fs::read_to_string(example).expect("example scenario");
    let mut rng = Rng::new(0x5ce7_a210);
    let mut reached = Reached::default();
    for fixture in FIXTURES.iter().copied().chain([example.as_str()]) {
        for _ in 0..MUTANTS {
            let mutant = mutate(fixture.as_bytes(), &mut rng);
            let text = String::from_utf8_lossy(&mutant);
            if let Err(message) = run(&text, &mut reached) {
                panic!("scenario parse/build panicked ({message}) on:\n{text}");
            }
        }
    }
    // The mutants must reach the builder, not just the parser's errors.
    let total = MUTANTS * (FIXTURES.len() + 1);
    eprintln!(
        "{total} mutants: {} parsed, {} built",
        reached.parsed, reached.built
    );
    assert!(reached.parsed * 4 > total && reached.built * 8 > total);
}
