//! Per-core SRAM cache hierarchy (L1-I, L1-D, optional private L2).
//!
//! Nodes track *presence* only; coherence state is maintained at the
//! backing level (the vault in SILO, the LLC directory in the shared
//! baseline), which is accurate because the on-chip levels are inclusive
//! with respect to their backing store in every evaluated system.

use silo_cache::{ReplacementPolicy, SetAssocCache};
use silo_types::{AccessKind, ByteSize, LineAddr};

/// Geometry of a node's SRAM levels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeSpec {
    /// L1 instruction cache capacity (64 KiB, 8-way in Table II).
    pub l1i_capacity: ByteSize,
    /// L1 data cache capacity.
    pub l1d_capacity: ByteSize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// Optional private L2 (512 KiB in the 3-level study, Sec. VII-F).
    pub l2_capacity: Option<ByteSize>,
    /// L2 associativity.
    pub l2_ways: usize,
}

impl Default for NodeSpec {
    fn default() -> Self {
        NodeSpec {
            l1i_capacity: ByteSize::from_kib(64),
            l1d_capacity: ByteSize::from_kib(64),
            l1_ways: 8,
            l2_capacity: None,
            l2_ways: 8,
        }
    }
}

impl NodeSpec {
    /// The paper's 2-level node: 64 KiB 8-way L1s, no L2.
    pub fn two_level() -> Self {
        Self::default()
    }

    /// The 3-level node: adds a 512 KiB 8-way private L2.
    pub fn three_level() -> Self {
        NodeSpec {
            l2_capacity: Some(ByteSize::from_kib(512)),
            ..Self::default()
        }
    }
}

/// One core's private SRAM hierarchy.
#[derive(Clone, Debug)]
pub struct Node {
    l1i: SetAssocCache<()>,
    l1d: SetAssocCache<()>,
    l2: Option<SetAssocCache<()>>,
}

/// Which SRAM level (if any) hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SramHit {
    /// Hit in the relevant L1.
    L1,
    /// Missed L1, hit the private L2.
    L2,
    /// Missed all SRAM levels.
    Miss,
}

impl Node {
    /// Builds a node, scaling capacities down by `scale` (the simulator's
    /// capacity-scaling knob; working sets are scaled identically).
    pub fn new(spec: &NodeSpec, scale: u64) -> Self {
        let mk = |cap: ByteSize, ways: usize| {
            SetAssocCache::with_capacity_rounded(
                cap.scaled_down(scale),
                ways,
                ReplacementPolicy::Lru,
            )
        };
        Node {
            l1i: mk(spec.l1i_capacity, spec.l1_ways),
            l1d: mk(spec.l1d_capacity, spec.l1_ways),
            l2: spec.l2_capacity.map(|cap| mk(cap, spec.l2_ways)),
        }
    }

    /// Probes the SRAM levels for `line`, filling upper levels on an L2
    /// hit. Returns where it hit.
    pub fn probe(&mut self, line: LineAddr, kind: AccessKind) -> SramHit {
        let l1 = if kind.is_ifetch() {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        if l1.get(line).is_some() {
            return SramHit::L1;
        }
        if let Some(l2) = &mut self.l2 {
            if l2.get(line).is_some() {
                l1.insert(line, ());
                return SramHit::L2;
            }
        }
        SramHit::Miss
    }

    /// Fills `line` into the appropriate L1 (and L2 if present) after the
    /// backing level supplied it.
    ///
    /// Returns the line that left the node entirely, if any: with an L2,
    /// the L2 is inclusive of both L1s (its victims are back-invalidated),
    /// so only L2 victims leave the node; without one, L1 victims do —
    /// unless the *other* L1 still holds the line (a line resident in
    /// both the L1-I and L1-D). The caller (protocol engine) uses this to
    /// keep directory sharer information exact.
    pub fn fill(&mut self, line: LineAddr, kind: AccessKind) -> Option<LineAddr> {
        let (l1, other_l1) = if kind.is_ifetch() {
            (&mut self.l1i, &self.l1d)
        } else {
            (&mut self.l1d, &self.l1i)
        };
        let l1_victim = l1.insert(line, ()).map(|v| v.line);
        let Some(l2) = &mut self.l2 else {
            // The L1 that evicted the victim cannot still hold it.
            return l1_victim.filter(|&v| !other_l1.contains(v));
        };
        let l2_victim = l2.insert(line, ()).map(|v| v.line);
        if let Some(v) = l2_victim {
            // Enforce L2 inclusion of the L1s.
            self.l1i.invalidate(v);
            self.l1d.invalidate(v);
        }
        l2_victim
    }

    /// [`Node::fill`] for callers that do not track SRAM residency
    /// (SILO keeps sharer state per vault, not per SRAM line): performs
    /// the same insertions and inclusion invalidations but skips the
    /// other-L1 residency scan that computing the departing line costs
    /// on every two-level victim.
    pub fn fill_untracked(&mut self, line: LineAddr, kind: AccessKind) {
        let l1 = if kind.is_ifetch() {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        l1.insert(line, ());
        if let Some(l2) = &mut self.l2 {
            if let Some(v) = l2.insert(line, ()) {
                self.l1i.invalidate(v.line);
                self.l1d.invalidate(v.line);
            }
        }
    }

    /// Removes `line` from every SRAM level (inclusion enforcement on
    /// backing-store eviction, or a coherence invalidation). Returns true
    /// if any level held it.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        let a = self.l1i.invalidate(line).is_some();
        let b = self.l1d.invalidate(line).is_some();
        let c = self
            .l2
            .as_mut()
            .is_some_and(|l2| l2.invalidate(line).is_some());
        a || b || c
    }

    /// True if any SRAM level holds the line.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.l1i.contains(line)
            || self.l1d.contains(line)
            || self.l2.as_ref().is_some_and(|l2| l2.contains(line))
    }

    /// True when the node has a private L2.
    pub fn has_l2(&self) -> bool {
        self.l2.is_some()
    }

    /// L1-D hit/miss counters (hits, misses) — for MPKI-style statistics.
    pub fn l1d_stats(&self) -> (u64, u64) {
        (self.l1d.hits(), self.l1d.misses())
    }

    /// L1-I hit/miss counters.
    pub fn l1i_stats(&self) -> (u64, u64) {
        (self.l1i.hits(), self.l1i.misses())
    }

    /// Resets hit/miss statistics on all levels, keeping contents.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        if let Some(l2) = &mut self.l2 {
            l2.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node2() -> Node {
        Node::new(&NodeSpec::two_level(), 64)
    }

    fn node3() -> Node {
        Node::new(&NodeSpec::three_level(), 64)
    }

    #[test]
    fn ifetch_and_data_use_separate_l1s() {
        let mut n = node2();
        n.fill(LineAddr::new(1), AccessKind::IFetch);
        assert_eq!(n.probe(LineAddr::new(1), AccessKind::IFetch), SramHit::L1);
        assert_eq!(n.probe(LineAddr::new(1), AccessKind::Read), SramHit::Miss);
    }

    #[test]
    fn l2_backs_l1_in_three_level() {
        let mut n = node3();
        n.fill(LineAddr::new(5), AccessKind::Read);
        // Evict line 5 from the L1-D (1 KiB = 8 ways x 2 sets at scale
        // 64) by filling eight more odd lines into its set, picked to
        // land in L2 set 1 (8 KiB = 8 ways x 16 sets) so line 5's L2 copy
        // in set 5 survives.
        for i in 0..8 {
            n.fill(LineAddr::new(1009 + i * 16), AccessKind::Read);
        }
        // Line 5 fell out of L1 but should still be in the 8 KiB L2.
        let hit = n.probe(LineAddr::new(5), AccessKind::Read);
        assert_eq!(hit, SramHit::L2);
        // And the L2 hit refilled L1.
        assert_eq!(n.probe(LineAddr::new(5), AccessKind::Read), SramHit::L1);
    }

    #[test]
    fn victim_resident_in_other_l1_does_not_leave_node() {
        let mut n = node2();
        // Line 5 in both L1s (ifetch then load).
        n.fill(LineAddr::new(5), AccessKind::IFetch);
        n.fill(LineAddr::new(5), AccessKind::Read);
        // Evict 5 from the L1-D (1 KiB = 8 ways x 2 sets at scale 64) by
        // filling eight more odd lines; the L1-I copy survives, so no
        // fill may report line 5 as having left the node.
        for i in 0..8 {
            assert_eq!(n.fill(LineAddr::new(7 + i * 2), AccessKind::Read), None);
        }
        assert!(n.contains(LineAddr::new(5)), "L1-I copy must survive");
        assert_eq!(n.probe(LineAddr::new(5), AccessKind::Read), SramHit::Miss);
        assert_eq!(n.probe(LineAddr::new(5), AccessKind::IFetch), SramHit::L1);
    }

    #[test]
    fn two_level_node_has_no_l2() {
        let n = node2();
        assert!(!n.has_l2());
        assert!(node3().has_l2());
    }

    #[test]
    fn invalidate_clears_all_levels() {
        let mut n = node3();
        n.fill(LineAddr::new(9), AccessKind::Write);
        assert!(n.contains(LineAddr::new(9)));
        assert!(n.invalidate(LineAddr::new(9)));
        assert!(!n.contains(LineAddr::new(9)));
        assert!(!n.invalidate(LineAddr::new(9)));
        assert_eq!(n.probe(LineAddr::new(9), AccessKind::Read), SramHit::Miss);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut n = node2();
        n.probe(LineAddr::new(1), AccessKind::Read);
        n.fill(LineAddr::new(1), AccessKind::Read);
        n.probe(LineAddr::new(1), AccessKind::Read);
        let (h, m) = n.l1d_stats();
        assert_eq!((h, m), (1, 1));
        n.reset_stats();
        assert_eq!(n.l1d_stats(), (0, 0));
        assert!(n.contains(LineAddr::new(1)));
    }
}
