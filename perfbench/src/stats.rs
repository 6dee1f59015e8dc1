//! Sample statistics and the result line every run ends with.

use silo_sim::Json;

/// The percentile ladder a tail is picked from, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a reported percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (the mean of the middle pair for even counts); NaN
/// when empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile `p` of `xs`; NaN when empty.
pub fn pct(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    percentile(xs, p).0
}

/// Nearest-rank percentile `p` of `xs` and the number of samples
/// strictly beyond its rank.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    assert!(!xs.is_empty(), "percentile of no samples");
    let s = sorted(xs);
    let n = s.len();
    // Nearest rank: the smallest value with at least p% of samples at
    // or below it.
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (s[rank - 1], n - rank)
}

/// The highest ladder percentile of `xs` that leaves at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)`.
/// Too small a sample for even the median falls back to the maximum,
/// `(100.0, max)`; an empty one gives `None`.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.is_empty() {
        return None;
    }
    let found = TAIL_LADDER
        .iter()
        .rev()
        .map(|&p| (p, percentile(xs, p)))
        .find(|(_, (_, beyond))| *beyond >= TAIL_MIN_BEYOND)
        .map(|(p, (v, _))| (p, v));
    found.or_else(|| Some((100.0, percentile(xs, 100.0).0)))
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the default "exclusive" method), so spreads printed here match ones
/// computed from the result lines in Python. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-');
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(ok)
}

/// The outcome of one benchmark run: metrics in print order, plus the
/// operation counts the output checks produced.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    /// Operations attempted (passes, requests, battery steps).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
}

impl Report {
    /// Adds metric `name` in `unit`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name or a non-finite value:
    /// all are bugs here.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.metrics.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records one checked operation; `ok == false` counts a failure
    /// and prints `what` to stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {what}");
        }
    }

    /// The metrics reported so far, in order.
    pub fn metrics(&self) -> &[(String, f64, &'static str)] {
        &self.metrics
    }

    /// Share of attempted operations that passed their check.
    pub fn ok_ratio(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The single JSON result line.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let v = Json::Obj(vec![
                    ("value".into(), Json::Num(*value)),
                    ("unit".into(), Json::Str((*unit).into())),
                ]);
                (name.clone(), v)
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::Int(i128::from(self.attempted))),
            ("failed".into(), Json::Int(i128::from(self.failed))),
            ("metrics".into(), Json::Obj(metrics)),
        ])
        .to_string()
    }
}
