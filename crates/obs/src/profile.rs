//! Per-phase wall-clock accumulation for the simulator's hot loop.
//!
//! A [`PhaseProfile`] is a fixed set of named phases, each accumulating
//! total nanoseconds and a sample count, plus the wall-clock of the
//! profiled interval. The run loop adds to it once per batch of
//! references, never per reference, so profiling costs a handful of
//! clock reads per batch.
//!
//! Phases may form a tree ([`PhaseProfile::with_tree`]): a child phase
//! attributes a sub-interval of its parent. Roots may overlap in time
//! (two pipeline stages run side by side), so a phase's
//! [`share`](PhaseProfile::share) is of the recorded wall-clock, not of
//! the sum of the roots.
//!
//! Profiles from multiple runs [`merge`](PhaseProfile::merge), and a
//! profile exports as Chrome trace-event JSON (root phases laid
//! end-to-end, children nested inside their parent's interval, so
//! Perfetto shows the relative share of each phase at a glance).

use crate::trace::{chrome_document, Span};

/// Accumulated wall-clock per named phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseProfile {
    labels: Vec<String>,
    parents: Vec<Option<usize>>,
    nanos: Vec<u64>,
    samples: Vec<u64>,
    wall_nanos: u64,
    unattributed_nanos: u64,
    clock_reads: u64,
}

impl PhaseProfile {
    /// Creates a hierarchical profile: each phase is `(label, parent)`,
    /// where `parent` indexes an earlier phase (or `None` for a root).
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty or a parent index does not point at
    /// an earlier phase.
    pub fn with_tree(phases: &[(&str, Option<usize>)]) -> Self {
        assert!(!phases.is_empty(), "profile needs at least one phase");
        for (i, (label, parent)) in phases.iter().enumerate() {
            if let Some(p) = parent {
                assert!(
                    *p < i,
                    "phase '{label}' ({i}) must name an earlier phase as parent, got {p}"
                );
            }
        }
        PhaseProfile {
            labels: phases.iter().map(|(l, _)| (*l).to_string()).collect(),
            parents: phases.iter().map(|(_, p)| *p).collect(),
            nanos: vec![0; phases.len()],
            samples: vec![0; phases.len()],
            wall_nanos: 0,
            unattributed_nanos: 0,
            clock_reads: 0,
        }
    }

    /// Adds one timed sample to phase `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn add(&mut self, idx: usize, nanos: u64) {
        self.nanos[idx] += nanos;
        self.samples[idx] += 1;
    }

    /// Adds pre-accumulated time to phase `idx`: `nanos` total across
    /// `samples` samples.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn add_bulk(&mut self, idx: usize, nanos: u64, samples: u64) {
        self.nanos[idx] += nanos;
        self.samples[idx] += samples;
    }

    /// Records the profiled interval: `wall` nanoseconds on the measuring
    /// thread, `unattributed` of them outside every phase that thread
    /// timed, and the `clock_reads` the measurement took.
    pub fn add_wall(&mut self, wall: u64, unattributed: u64, clock_reads: u64) {
        self.wall_nanos += wall;
        self.unattributed_nanos += unattributed;
        self.clock_reads += clock_reads;
    }

    /// Phase labels, in construction order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Indices of the direct children of `idx`, in construction order.
    pub fn children(&self, idx: usize) -> Vec<usize> {
        (0..self.labels.len())
            .filter(|&i| self.parents[i] == Some(idx))
            .collect()
    }

    /// Indices of the root phases, in construction order.
    pub fn roots(&self) -> Vec<usize> {
        (0..self.labels.len())
            .filter(|&i| self.parents[i].is_none())
            .collect()
    }

    /// Accumulated nanoseconds per phase, parallel to `labels()`.
    pub fn nanos(&self) -> &[u64] {
        &self.nanos
    }

    /// Sample counts per phase, parallel to `labels()`.
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    /// Wall-clock of the profiled interval, in nanoseconds.
    pub fn wall_nanos(&self) -> u64 {
        self.wall_nanos
    }

    /// The part of [`wall_nanos`](PhaseProfile::wall_nanos) the
    /// measuring thread spent outside every phase it timed.
    pub fn unattributed_nanos(&self) -> u64 {
        self.unattributed_nanos
    }

    /// Clock reads the measurement took.
    pub fn clock_reads(&self) -> u64 {
        self.clock_reads
    }

    /// Fraction of the wall-clock spent in phase `idx` (0.0 when no wall
    /// was recorded). Roots may overlap in time, so shares of different
    /// roots need not sum to one.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn share(&self, idx: usize) -> f64 {
        silo_types::stats::ratio(self.nanos[idx], self.wall_nanos)
    }

    /// Accumulates another profile into this one.
    ///
    /// # Panics
    ///
    /// Panics if the phase labels or the tree shape differ.
    pub fn merge(&mut self, other: &PhaseProfile) {
        assert_eq!(self.labels, other.labels, "phase label mismatch");
        assert_eq!(self.parents, other.parents, "phase tree mismatch");
        for (n, o) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *n += o;
        }
        for (s, o) in self.samples.iter_mut().zip(other.samples.iter()) {
            *s += o;
        }
        self.add_wall(
            other.wall_nanos,
            other.unattributed_nanos,
            other.clock_reads,
        );
    }

    /// Renders the profile as a Chrome trace-event JSON document: one
    /// complete event per phase. Root phases lie end-to-end on a single
    /// track in label order; each child nests inside its parent's
    /// interval (children of one parent laid end-to-end from the
    /// parent's start), with a `parent` arg linking the events.
    /// Timestamps are in microseconds, nanosecond remainders rounded to
    /// nearest.
    pub fn chrome_json(&self) -> String {
        let mut spans = Vec::with_capacity(self.labels.len());
        // Start of each phase's interval; for parents this doubles as
        // the running cursor its children advance.
        let mut cursor = vec![0u64; self.labels.len()];
        let mut root_cursor = 0u64;
        for (i, label) in self.labels.iter().enumerate() {
            let dur_us = (self.nanos[i] + 500) / 1_000;
            let (start, parent) = match self.parents[i] {
                None => {
                    let s = root_cursor;
                    root_cursor += dur_us;
                    (s, None)
                }
                Some(p) => {
                    let s = cursor[p];
                    cursor[p] += dur_us;
                    (s, Some(p as u64 + 1))
                }
            };
            cursor[i] = start;
            spans.push(Span {
                id: i as u64 + 1,
                parent,
                name: label.clone(),
                cat: "profile".to_string(),
                tid: 0,
                start_us: start,
                dur_us,
            });
        }
        chrome_document(&spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_shares() {
        let mut p = PhaseProfile::with_tree(&[("pull", None), ("step", None)]);
        p.add(0, 300);
        p.add(0, 100);
        p.add(1, 600);
        p.add_wall(1250, 250, 7);
        assert_eq!(p.nanos(), &[400, 600]);
        assert_eq!(p.samples(), &[2, 1]);
        assert_eq!(p.wall_nanos(), 1250);
        assert_eq!(p.unattributed_nanos(), 250);
        assert_eq!(p.clock_reads(), 7);
        assert!((p.share(0) - 0.32).abs() < 1e-12);
        assert!((p.share(1) - 0.48).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_has_zero_shares() {
        let p = PhaseProfile::with_tree(&[("only", None)]);
        assert_eq!(p.wall_nanos(), 0);
        assert_eq!(p.share(0), 0.0);
    }

    #[test]
    fn merge_sums_matching_phases() {
        let mut a = PhaseProfile::with_tree(&[("x", None), ("y", None)]);
        let mut b = PhaseProfile::with_tree(&[("x", None), ("y", None)]);
        a.add(0, 10);
        b.add(0, 5);
        b.add(1, 7);
        a.add_wall(20, 5, 3);
        b.add_wall(30, 1, 4);
        a.merge(&b);
        assert_eq!(a.nanos(), &[15, 7]);
        assert_eq!(a.samples(), &[2, 1]);
        assert_eq!(
            (a.wall_nanos(), a.unattributed_nanos(), a.clock_reads()),
            (50, 6, 7)
        );
    }

    #[test]
    #[should_panic(expected = "phase label mismatch")]
    fn merge_rejects_different_labels() {
        let mut a = PhaseProfile::with_tree(&[("x", None)]);
        a.merge(&PhaseProfile::with_tree(&[("y", None)]));
    }

    #[test]
    #[should_panic(expected = "phase tree mismatch")]
    fn merge_rejects_different_trees() {
        let mut a = PhaseProfile::with_tree(&[("x", None), ("y", None)]);
        a.merge(&PhaseProfile::with_tree(&[("x", None), ("y", Some(0))]));
    }

    #[test]
    fn overlapping_roots_share_the_wall() {
        let mut p = PhaseProfile::with_tree(&[
            ("caller", None),
            ("pull", Some(0)),
            ("retire", Some(0)),
            ("engine", None),
        ]);
        p.add(1, 300);
        p.add(2, 700);
        p.add_bulk(0, 1000, 2); // the parent: its children's sum
        p.add(3, 900);
        p.add_wall(1000, 0, 4);
        assert!((p.share(0) - 1.0).abs() < 1e-12);
        assert!((p.share(3) - 0.9).abs() < 1e-12, "stages overlap");
        assert!((p.share(2) - 0.7).abs() < 1e-12);
        assert_eq!(p.samples(), &[2, 1, 1, 1]);
        assert_eq!(p.children(0), vec![1, 2]);
        assert_eq!(p.roots(), vec![0, 3]);
    }

    #[test]
    #[should_panic(expected = "must name an earlier phase")]
    fn tree_rejects_forward_parents() {
        let _ = PhaseProfile::with_tree(&[("a", Some(0))]);
    }

    #[test]
    fn chrome_export_lays_phases_end_to_end() {
        let mut p = PhaseProfile::with_tree(&[("pull", None), ("step", None)]);
        p.add(0, 2_000_000); // 2000us
        p.add(1, 1_000_000); // 1000us
        let json = p.chrome_json();
        assert!(json.contains("\"name\":\"pull\""));
        assert!(json.contains("\"ts\":0,\"dur\":2000"));
        assert!(json.contains("\"name\":\"step\""));
        assert!(json.contains("\"ts\":2000,\"dur\":1000"));
    }

    #[test]
    fn chrome_export_nests_children_in_the_parent_interval() {
        let mut p = PhaseProfile::with_tree(&[
            ("pull", None),
            ("step", None),
            ("lookup", Some(1)),
            ("dir", Some(1)),
        ]);
        p.add(0, 1_000_000);
        p.add(1, 2_000_000);
        p.add(2, 500_000);
        p.add(3, 1_500_000);
        let json = p.chrome_json();
        // step starts after pull; its children tile it from its start.
        assert!(json.contains("\"name\":\"step\""));
        assert!(json.contains("\"ts\":1000,\"dur\":2000"));
        assert!(json.contains("\"ts\":1000,\"dur\":500"));
        assert!(json.contains("\"ts\":1500,\"dur\":1500"));
        assert!(
            json.contains("\"parent\":2"),
            "children link to the parent event"
        );
    }
}
