//! The benchmark's own arithmetic: the tail-percentile rule, the
//! quartiles behind the steadiness spreads, the metric-name grammar,
//! the result line and the sweep-document digest.

use perfbench::env::derive_seed;
use perfbench::serve::{doc_digest, prom_value};
use perfbench::stats::{median, percentile, quartiles, tail, valid_name, Report, TAIL_MIN_BEYOND};
use silo_sim::Json;

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
    assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
    assert_eq!(percentile(&ramp(100), 90.0), (90.0, 10));
    // 1000 samples: p99 leaves 10, p99.9 only 1.
    assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
    // 20 samples: only the median leaves 10.
    assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
    // Order of arrival does not matter.
    let mut shuffled = ramp(100);
    shuffled.reverse();
    assert_eq!(tail(&shuffled), Some((90.0, 90.0)));
}

#[test]
fn tail_of_a_small_sample_falls_back_to_the_maximum() {
    assert_eq!(tail(&ramp(19)), Some((100.0, 19.0)));
    assert_eq!(tail(&[7.0]), Some((100.0, 7.0)));
    assert_eq!(tail(&[]), None);
}

#[test]
fn every_reported_tail_leaves_enough_samples_beyond_it() {
    for n in 20..400 {
        let xs = ramp(n);
        let (p, v) = tail(&xs).expect("non-empty");
        let beyond = xs.iter().filter(|&&x| x > v).count();
        assert!(beyond >= TAIL_MIN_BEYOND, "n={n}: p{p} leaves {beyond}");
    }
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
    // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
    assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), Some([1.25, 2.5, 3.75]));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(median(&ramp(10)), 5.5);
}

#[test]
fn metric_names_follow_the_grammar() {
    for good in [
        "refs_per_s",
        "sim.served_l1",
        "0x",
        "a-b.c_d",
        &"m".repeat(64),
    ] {
        assert!(valid_name(good), "{good}");
    }
    for bad in [
        "",
        "_x",
        ".x",
        "-x",
        "a b",
        "a/b",
        "é",
        "a:b",
        &"m".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad}");
    }
}

#[test]
#[should_panic(expected = "bad metric name")]
fn reporting_a_bad_name_is_a_bug() {
    Report::default().put("cache hits", 1.0, "count");
}

#[test]
fn the_result_line_carries_counts_and_units() {
    let mut r = Report::default();
    r.check(true, "first");
    r.check(false, "second");
    r.put("latency_ms", 1.25, "ms");
    let line = Json::parse(&r.json_line()).expect("the result line is JSON");
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(line.get("attempted").and_then(Json::as_u64), Some(2));
    assert_eq!(line.get("failed").and_then(Json::as_u64), Some(1));
    let m = line.get("metrics").and_then(|m| m.get("latency_ms"));
    assert_eq!(
        m.and_then(|m| m.get("value")).and_then(Json::as_f64),
        Some(1.25)
    );
    assert_eq!(
        m.and_then(|m| m.get("unit")).and_then(Json::as_str),
        Some("ms")
    );
    assert_eq!(r.ok_ratio(), 0.5);
}

#[test]
fn derived_seeds_are_distinct_and_start_at_the_base() {
    assert_eq!(derive_seed(42, 0), 42);
    let mut seen: Vec<u64> = (0..10_000).map(|k| derive_seed(42, k)).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), 10_000);
}

#[test]
fn prometheus_values_are_read_by_exact_name() {
    let text = "# TYPE a_total counter\na_total 3\na_total_x 9\nb_sum{le=\"1\"} 2\nb_sum 5.5\n";
    assert_eq!(prom_value(text, "a_total"), Some(3.0));
    assert_eq!(prom_value(text, "b_sum"), Some(5.5));
    assert_eq!(prom_value(text, "c"), None);
}

#[test]
fn document_digests_ignore_wall_time_only() {
    let doc = |wall: f64, ipc: f64| {
        format!(r#"{{"points":[{{"wall_ms":{wall},"silo":{{"ipc":{ipc},"wall_ms":{wall}}}}}]}}"#)
    };
    let base = doc_digest(&doc(1.5, 1.25)).expect("parses");
    assert_eq!(doc_digest(&doc(9.0, 1.25)), Ok(base.clone()));
    assert_ne!(doc_digest(&doc(1.5, 1.5)), Ok(base));
    assert!(doc_digest("not json").is_err());
}
