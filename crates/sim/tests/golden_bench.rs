//! Golden-output regression gate for hot-path changes.
//!
//! `golden/bench_pinned.json` is a full `silo-bench/v1` document
//! captured at a pinned seed (every builtin system × three workload
//! regimes, warmup + epoch telemetry on). Perf work on the inner loop —
//! dispatch, hashing, MSHR bookkeeping, telemetry hoisting — must leave
//! the simulated output *byte-identical*; only host wall-clock may
//! drift. This test re-runs the pinned configuration through the public
//! builder API, strips every `wall_ms` field from both documents, and
//! compares the canonical renders byte for byte.
//!
//! To regenerate after an intentional simulated-stats change (never for
//! a perf-only PR):
//!
//! ```text
//! cargo run --release -- \
//!   --systems SILO,baseline,silo-no-forward,baseline-2x \
//!   --workloads zipf-shared,uniform-private,pointer-chase \
//!   --cores 4 --refs 2000 --seed 12345 --warmup 1024 --epoch 1500 \
//!   --threads 1 --json crates/sim/tests/golden/bench_pinned.json
//! ```
//!
//! `golden/wide_pinned.json` pins the SILO engines where that fixture
//! cannot reach: 17 and 64 cores (directory rows wider than 16 ways)
//! and `--scale 1` (vaults above the dense bound, so rows are allocated
//! sparsely), over the default workload set:
//!
//! ```text
//! cargo run --release -- \
//!   --systems SILO,silo-no-forward --cores 17,64 --scale 1,64 \
//!   --refs 1000 --seed 777 --threads 1 \
//!   --json crates/sim/tests/golden/wide_pinned.json
//! ```

use silo_sim::{bench, Json, Simulation};

/// Drops every `wall_ms` field, recursively: the one host-dependent
/// part of the schema.
fn strip_wall_ms(v: Json) -> Json {
    match v {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "wall_ms")
                .map(|(k, v)| (k, strip_wall_ms(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(strip_wall_ms).collect()),
        other => other,
    }
}

/// Compares `fresh` against the committed `fixture_text` with every
/// `wall_ms` stripped, naming the first divergent byte on a mismatch.
fn assert_matches_fixture(fixture_text: &str, fresh: Json) {
    let fixture = Json::parse(fixture_text).expect("fixture parses");
    let want = strip_wall_ms(fixture).to_string();
    let got = strip_wall_ms(fresh).to_string();
    if want != got {
        // Locate the first divergence so a regression names the byte,
        // not just "documents differ".
        let at = want
            .bytes()
            .zip(got.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| want.len().min(got.len()));
        let lo = at.saturating_sub(80);
        panic!(
            "simulated output drifted from the golden fixture at byte {at}:\n  \
             fixture: …{}…\n  fresh:   …{}…\n\
             hot-path changes must be bit-identical (only wall_ms may differ)",
            &want[lo..(at + 80).min(want.len())],
            &got[lo..(at + 80).min(got.len())],
        );
    }
}

#[test]
fn pinned_seed_bench_json_is_byte_identical_to_the_committed_fixture() {
    let sim = Simulation::builder()
        .systems(["SILO", "baseline", "silo-no-forward", "baseline-2x"])
        .workloads(["zipf-shared", "uniform-private", "pointer-chase"])
        .cores([4])
        .refs_per_core(2000)
        .seed(12345)
        .warmup_refs(1024)
        .epoch_refs(1500)
        .threads(1)
        .build()
        .expect("pinned config is valid");
    let records = sim.run();
    assert_matches_fixture(
        include_str!("golden/bench_pinned.json"),
        bench::sweep_json(&records, 12345),
    );
}

#[test]
fn wide_and_sparse_silo_rows_are_byte_identical_to_the_committed_fixture() {
    let sim = Simulation::builder()
        .systems(["SILO", "silo-no-forward"])
        .cores([17, 64])
        .scales([1, 64])
        .refs_per_core(1000)
        .seed(777)
        .threads(1)
        .build()
        .expect("pinned config is valid");
    let records = sim.run();
    assert_matches_fixture(
        include_str!("golden/wide_pinned.json"),
        bench::sweep_json(&records, 777),
    );
}
