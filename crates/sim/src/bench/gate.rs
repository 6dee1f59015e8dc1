//! Noise-aware perf-regression gate over the hot-loop matrix.
//!
//! `silo-sim bench --gate BASE.json` runs the tracked throughput matrix
//! several times (repetitions interleaved at whole-matrix granularity,
//! so a load spike on the host hits every row the same way rather than
//! one row's entire sample), takes the **median** refs/sec per row, and
//! compares it against the matching row of a committed
//! `silo-hotloop/v1` snapshot. The pass/fail threshold is not a fixed
//! percentage: each row's tolerance is derived from the *observed*
//! spread of its own repetitions — a noisy host widens its own error
//! bars instead of producing flaky verdicts — floored at a minimum
//! tolerance so a near-zero-spread run still absorbs measurement
//! granularity.
//!
//! Everything downstream of the timed runs is a pure function of the
//! collected snapshots ([`evaluate`]): each repetition is rendered as a
//! `silo-hotloop/v1` snapshot, the same shape as the baseline, so the
//! classification logic is unit-tested with synthetic snapshots: an
//! injected slowdown must be flagged `regress`, and a self-comparison
//! (A/A) must come back `pass`. One repetition is the quick look: it
//! prints each row's ratio against the baseline. The verdict renders as
//! a table and as the machine-readable `silo-gate/v1` document
//! ([`gate_json`]).

use crate::json::Json;

/// Version tag of the gate-verdict schema (`bench --gate-json`).
pub const SCHEMA_GATE: &str = "silo-gate/v1";

/// Default number of interleaved repetitions (`--gate-reps`).
pub const DEFAULT_GATE_REPS: usize = 5;

/// Default tolerance floor: even a zero-spread run tolerates this much
/// slowdown before flagging a regression.
pub const DEFAULT_MIN_TOLERANCE: f64 = 0.05;

/// Classification of one row (or the geomean) against the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// At or above the baseline.
    Pass,
    /// Below the baseline, but within the noise tolerance.
    Noise,
    /// Below the baseline by more than the tolerance.
    Regress,
}

impl Verdict {
    /// Classifies a now/base ratio against a tolerance.
    pub fn classify(ratio: f64, tolerance: f64) -> Verdict {
        if ratio >= 1.0 {
            Verdict::Pass
        } else if ratio >= 1.0 - tolerance {
            Verdict::Noise
        } else {
            Verdict::Regress
        }
    }

    /// The schema string (`"pass"`, `"noise"`, `"regress"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Noise => "noise",
            Verdict::Regress => "regress",
        }
    }
}

/// One matrix row's gate result.
#[derive(Clone, Debug)]
pub struct RowVerdict {
    /// Registry name of the system.
    pub system: String,
    /// Workload name.
    pub workload: String,
    /// The baseline snapshot's refs/sec for this row.
    pub base_rps: f64,
    /// Median refs/sec over the repetitions.
    pub median_rps: f64,
    /// Relative spread of the repetitions: `(max - min) / median`.
    pub spread: f64,
    /// The tolerance used: `max(spread, min_tolerance)`.
    pub tolerance: f64,
    /// `median_rps / base_rps`.
    pub ratio: f64,
    /// The row's classification.
    pub verdict: Verdict,
}

/// The full gate result: per-row verdicts plus the geomean verdict.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// One verdict per matrix row with a baseline counterpart, in
    /// matrix order. Rows absent from the baseline are skipped.
    pub rows: Vec<RowVerdict>,
    /// Geometric mean of the row ratios.
    pub geomean_ratio: f64,
    /// Mean of the row tolerances (the geomean averages row noise, so
    /// its error bar is the average of the rows').
    pub geomean_tolerance: f64,
    /// Classification of the geomean — the gate's overall verdict.
    pub verdict: Verdict,
    /// Number of repetitions behind each median.
    pub reps: usize,
    /// The tolerance floor in effect.
    pub min_tolerance: f64,
    /// Label of the baseline snapshot compared against.
    pub base_label: String,
}

impl GateReport {
    /// True when the overall verdict is a regression (the CLI's exit
    /// code; CI consumes it informationally).
    pub fn regressed(&self) -> bool {
        self.verdict == Verdict::Regress
    }
}

/// Median of a sample (mean of the middle two for even sizes).
fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty sample");
    values.sort_by(|a, b| a.partial_cmp(b).expect("refs/sec is finite"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The last snapshot in a `silo-hotloop/v1` snapshot list whose matrix
/// dimensions (cores, refs_per_core, seed) match — the most recent
/// comparable measurement in a trajectory file.
pub fn select_snapshot(
    snapshots: &[Json],
    cores: usize,
    refs_per_core: usize,
    seed: u64,
) -> Option<&Json> {
    snapshots.iter().rev().find(|s| {
        let dim = |key| s.get(key).and_then(Json::as_u64);
        dim("cores") == Some(cores as u64)
            && dim("refs_per_core") == Some(refs_per_core as u64)
            && dim("seed") == Some(seed)
    })
}

/// The (system, workload, refs/sec) rows of a `silo-hotloop/v1`
/// snapshot, in order; malformed rows are skipped.
fn snapshot_rows(snapshot: &Json) -> Vec<(&str, &str, f64)> {
    let rows = snapshot.get("rows").and_then(Json::as_arr).unwrap_or(&[]);
    rows.iter()
        .filter_map(|r| {
            Some((
                r.get("system")?.as_str()?,
                r.get("workload")?.as_str()?,
                r.get("refs_per_sec")?.as_f64()?,
            ))
        })
        .collect()
}

/// Classifies repeated matrix runs, each rendered as a
/// `silo-hotloop/v1` snapshot, against a baseline snapshot. Pure: all
/// timing has already happened, so this is unit-testable with synthetic
/// snapshots.
///
/// Every repetition must contain the same rows in the same order (the
/// runner guarantees this — the matrix is fixed). Rows without a
/// counterpart in the baseline snapshot are skipped.
///
/// # Panics
///
/// Panics when `reps` is empty or the repetitions disagree on the
/// matrix rows.
pub fn evaluate(reps: &[Json], base: &Json, min_tolerance: f64) -> GateReport {
    assert!(!reps.is_empty(), "gate needs at least one repetition");
    let base_rows = snapshot_rows(base);
    let reps: Vec<_> = reps.iter().map(snapshot_rows).collect();
    let mut rows = Vec::new();
    for (i, &(system, workload, _)) in reps[0].iter().enumerate() {
        let mut rps: Vec<f64> = reps
            .iter()
            .map(|rep| match rep.get(i) {
                Some(&(s, w, rps)) if s == system && w == workload => rps,
                _ => panic!("repetitions disagree on matrix row {i}"),
            })
            .collect();
        let (lo, hi) = rps
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let median_rps = median(&mut rps);
        let Some(&(_, _, base_rps)) = base_rows
            .iter()
            .find(|&&(s, w, _)| s == system && w == workload)
        else {
            continue;
        };
        if base_rps <= 0.0 || median_rps <= 0.0 {
            continue;
        }
        let spread = (hi - lo) / median_rps;
        let tolerance = spread.max(min_tolerance);
        let ratio = median_rps / base_rps;
        rows.push(RowVerdict {
            system: system.to_string(),
            workload: workload.to_string(),
            base_rps,
            median_rps,
            spread,
            tolerance,
            ratio,
            verdict: Verdict::classify(ratio, tolerance),
        });
    }
    let (geomean_ratio, geomean_tolerance) = if rows.is_empty() {
        (1.0, min_tolerance)
    } else {
        let ratios: Vec<f64> = rows.iter().map(|r| r.ratio).collect();
        let tol = rows.iter().map(|r| r.tolerance).sum::<f64>() / rows.len() as f64;
        (silo_types::geomean(&ratios), tol)
    };
    GateReport {
        verdict: Verdict::classify(geomean_ratio, geomean_tolerance),
        rows,
        geomean_ratio,
        geomean_tolerance,
        reps: reps.len(),
        min_tolerance,
        base_label: base
            .get("label")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string(),
    }
}

/// Renders a gate report as the `silo-gate/v1` document.
pub fn gate_json(report: &GateReport) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA_GATE.into())),
        ("base_label".into(), Json::Str(report.base_label.clone())),
        ("reps".into(), Json::Int(report.reps as i128)),
        ("min_tolerance".into(), Json::Num(report.min_tolerance)),
        ("geomean_ratio".into(), Json::Num(report.geomean_ratio)),
        (
            "geomean_tolerance".into(),
            Json::Num(report.geomean_tolerance),
        ),
        ("verdict".into(), Json::Str(report.verdict.as_str().into())),
        (
            "rows".into(),
            Json::Arr(
                report
                    .rows
                    .iter()
                    .map(|r| {
                        Json::Obj(vec![
                            ("system".into(), Json::Str(r.system.clone())),
                            ("workload".into(), Json::Str(r.workload.clone())),
                            ("base_refs_per_sec".into(), Json::Num(r.base_rps)),
                            ("median_refs_per_sec".into(), Json::Num(r.median_rps)),
                            ("spread".into(), Json::Num(r.spread)),
                            ("tolerance".into(), Json::Num(r.tolerance)),
                            ("ratio".into(), Json::Num(r.ratio)),
                            ("verdict".into(), Json::Str(r.verdict.as_str().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic `cores`-core snapshot with one row per wall-clock:
    /// systems `sys0, sys1, ...` on workload `w`, 10,000 refs each.
    fn snap(label: &str, cores: usize, wall_ms: &[f64]) -> Json {
        let rows = wall_ms.iter().enumerate().map(|(i, &w)| {
            Json::Obj(vec![
                ("system".into(), Json::Str(format!("sys{i}"))),
                ("workload".into(), Json::Str("w".into())),
                ("refs_per_sec".into(), Json::Num(10_000.0 / (w / 1e3))),
            ])
        });
        Json::Obj(vec![
            ("label".into(), Json::Str(label.into())),
            ("cores".into(), Json::Int(cores as i128)),
            ("refs_per_core".into(), Json::Int(100)),
            ("seed".into(), Json::Int(42)),
            ("rows".into(), Json::Arr(rows.collect())),
        ])
    }

    fn rows(wall_ms: &[f64]) -> Json {
        snap("rep", 2, wall_ms)
    }

    fn base_for(wall_ms: &[f64]) -> Json {
        snap("base", 2, wall_ms)
    }

    #[test]
    fn self_comparison_passes() {
        // A/A: repetitions identical to the baseline, ratios exactly 1.
        let base = base_for(&[10.0, 20.0]);
        let reps = vec![base.clone(), base.clone(), base.clone()];
        let report = evaluate(&reps, &base, DEFAULT_MIN_TOLERANCE);
        assert_eq!(report.rows.len(), 2);
        for row in &report.rows {
            assert!((row.ratio - 1.0).abs() < 1e-12);
            assert_eq!(row.verdict, Verdict::Pass);
        }
        assert_eq!(report.verdict, Verdict::Pass);
        assert!(!report.regressed());
    }

    #[test]
    fn injected_slowdown_is_flagged_as_regress() {
        // The binary got 1.5x slower: every repetition's wall clock is
        // up 50%, far outside a tight observed spread.
        let base = base_for(&[10.0, 20.0]);
        let slow = rows(&[15.0, 30.0]);
        let reps = vec![slow.clone(), slow.clone(), slow];
        let report = evaluate(&reps, &base, DEFAULT_MIN_TOLERANCE);
        for row in &report.rows {
            assert!((row.ratio - 1.0 / 1.5).abs() < 1e-9);
            assert_eq!(row.verdict, Verdict::Regress);
        }
        assert_eq!(report.verdict, Verdict::Regress);
        assert!(report.regressed());
    }

    #[test]
    fn noisy_host_widens_its_own_tolerance() {
        // Median is 8% below base, but the repetitions themselves
        // spread 25% — the dip is within the observed noise.
        let base = base_for(&[10.0]);
        let reps = vec![rows(&[10.0]), rows(&[10.87]), rows(&[12.2])];
        let report = evaluate(&reps, &base, DEFAULT_MIN_TOLERANCE);
        let row = &report.rows[0];
        assert!(row.ratio < 1.0 - DEFAULT_MIN_TOLERANCE);
        assert!(row.spread > DEFAULT_MIN_TOLERANCE);
        assert_eq!(row.verdict, Verdict::Noise);
    }

    #[test]
    fn tolerance_floor_absorbs_tiny_dips() {
        // Zero spread (identical reps) but only 2% below base: the
        // min-tolerance floor keeps this out of the regress bucket.
        let base = base_for(&[10.0]);
        let dip = rows(&[10.2]);
        let reps = vec![dip.clone(), dip];
        let report = evaluate(&reps, &base, DEFAULT_MIN_TOLERANCE);
        let row = &report.rows[0];
        assert_eq!(row.spread, 0.0);
        assert_eq!(row.tolerance, DEFAULT_MIN_TOLERANCE);
        assert_eq!(row.verdict, Verdict::Noise);
    }

    #[test]
    fn rows_missing_from_the_baseline_are_skipped() {
        let base = base_for(&[10.0]);
        let now = vec![rows(&[10.0, 5.0])];
        let report = evaluate(&now, &base, DEFAULT_MIN_TOLERANCE);
        assert_eq!(report.rows.len(), 1, "sys1 has no baseline counterpart");
    }

    #[test]
    #[should_panic(expected = "repetitions disagree on matrix row 1")]
    fn repetitions_with_different_rows_are_rejected() {
        let base = base_for(&[10.0, 20.0]);
        evaluate(&[rows(&[10.0, 20.0]), rows(&[10.0])], &base, 0.05);
    }

    #[test]
    fn select_snapshot_takes_the_last_matching_dimensions() {
        let snaps = vec![
            snap("old", 2, &[10.0]),
            snap("other-dims", 8, &[10.0]),
            snap("new", 2, &[10.0]),
        ];
        let found = select_snapshot(&snaps, 2, 100, 42).expect("match");
        assert_eq!(found.get("label").and_then(Json::as_str), Some("new"));
        let found = select_snapshot(&snaps, 8, 100, 42).expect("match");
        assert_eq!(
            found.get("label").and_then(Json::as_str),
            Some("other-dims")
        );
        assert!(select_snapshot(&snaps, 16, 100, 42).is_none());
        assert!(select_snapshot(&snaps, 2, 200, 42).is_none());
        assert!(select_snapshot(&snaps, 2, 100, 7).is_none());
    }

    #[test]
    fn gate_json_round_trips_the_verdict() {
        let base = base_for(&[10.0]);
        let reps = vec![rows(&[15.0])];
        let doc = gate_json(&evaluate(&reps, &base, DEFAULT_MIN_TOLERANCE));
        let parsed = Json::parse(&doc.to_string()).expect("round trip");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(SCHEMA_GATE)
        );
        assert_eq!(
            parsed.get("verdict").and_then(Json::as_str),
            Some("regress")
        );
        let rows = parsed.get("rows").and_then(Json::as_arr).expect("rows");
        assert_eq!(
            rows[0].get("verdict").and_then(Json::as_str),
            Some("regress")
        );
        assert_eq!(
            parsed.get("base_label").and_then(Json::as_str),
            Some("base")
        );
    }
}
