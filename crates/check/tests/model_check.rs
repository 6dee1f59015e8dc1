//! End-to-end model-checker tests: the four shipped protocol worlds
//! must explore cleanly, and a deliberately broken protocol must be
//! caught with a counterexample trace — proving the checker detects
//! bugs rather than vacuously passing.

use silo_check::{
    baseline_world, explore, silo_world, DirtyForwardPolicy, ModelEngine, Op, World, WorldParams,
};
use silo_coherence::{AccessResult, DuplicateTagDirectory, ServedBy, State};
use silo_types::{LineAddr, MemRef};

fn params(max_states: usize) -> WorldParams {
    WorldParams {
        nodes: 4,
        max_states,
    }
}

#[test]
fn silo_world_explores_clean() {
    let (factory, world) = silo_world(params(8000), true);
    let report = explore("silo", factory, &world);
    assert!(report.ok(), "{:?}", report.counterexample);
    assert!(report.states >= 4000, "only {} states", report.states);
    assert!(report.transitions > report.states);
    // The O-forwarding transition table must actually have been
    // exercised, or the run proves nothing about the paper's protocol.
    assert!(
        report
            .deviations
            .iter()
            .any(|d| d.description.contains("-> O") && d.occurrences > 0),
        "no O-forwarding transitions observed: {:?}",
        report.deviations
    );
    let forward = report
        .invariants
        .iter()
        .find(|i| i.name == "forward-policy")
        .expect("forward-policy tallied");
    assert!(forward.checked > 0);
}

#[test]
fn silo_no_forward_deviates_as_documented() {
    let (factory, world) = silo_world(params(8000), false);
    let report = explore("silo-no-forward", factory, &world);
    assert!(report.ok(), "{:?}", report.counterexample);
    // The documented degradation: dirty reads write back to memory and
    // the owner falls to S. It must appear as an expected deviation,
    // never as a violation, and O must never be reached.
    assert!(
        report
            .deviations
            .iter()
            .any(|d| d.description.contains("main-memory writeback") && d.occurrences > 0),
        "no writeback deviations observed: {:?}",
        report.deviations
    );
    let no_o = report
        .invariants
        .iter()
        .find(|i| i.name == "no-o-state")
        .expect("no-o-state tallied");
    assert!(no_o.checked > 0 && no_o.violations == 0);
}

#[test]
fn baseline_worlds_explore_clean() {
    for mult in [1u64, 2] {
        let (factory, world) = baseline_world(params(8000), mult);
        let report = explore("baseline", factory, &world);
        assert!(report.ok(), "mult {mult}: {:?}", report.counterexample);
        assert!(report.states >= 4000, "only {} states", report.states);
        assert!(
            report
                .deviations
                .iter()
                .any(|d| d.description.contains("writeback into the LLC")),
            "mult {mult}: no LLC writeback forwards observed: {:?}",
            report.deviations
        );
    }
}

#[test]
fn truncated_search_reports_not_exhausted() {
    let (factory, world) = silo_world(params(50), true);
    let report = explore("silo", factory, &world);
    assert!(report.ok());
    assert!(!report.exhausted);
    assert_eq!(report.states, 50);
}

/// A toy MSI protocol with a seeded mutation: stores take M without
/// invalidating the other sharers. Everything else (reads, dirty-owner
/// degradation with a memory writeback) is implemented correctly, so
/// the *only* way the checker can flag it is by actually reaching a
/// state where an M copy coexists with stale sharers.
struct BrokenMsi {
    dir: DuplicateTagDirectory,
    n: usize,
}

impl BrokenMsi {
    fn new(n: usize) -> Self {
        BrokenMsi {
            dir: DuplicateTagDirectory::new(n),
            n,
        }
    }
}

impl ModelEngine for BrokenMsi {
    fn n_nodes(&self) -> usize {
        self.n
    }

    fn access(&mut self, node: usize, mr: MemRef) -> AccessResult {
        let line = mr.line;
        let mut r = AccessResult {
            served: Some(ServedBy::Memory),
            llc_access: true,
            line,
            is_write: mr.kind.is_write(),
            ..AccessResult::default()
        };
        if mr.kind.is_write() {
            // SEEDED BUG: the other holders are never invalidated.
            self.dir.set_state(line, node, State::M);
        } else if !self.dir.state_of(line, node).is_valid() {
            let owner = (0..self.n).find(|&o| self.dir.state_of(line, o) == State::M);
            if let Some(o) = owner {
                self.dir.set_state(line, o, State::S);
                r.background.push(silo_coherence::Background::MemoryWrite);
            }
            self.dir.set_state(line, node, State::S);
        }
        r
    }

    fn state_of(&self, node: usize, line: LineAddr) -> State {
        self.dir.state_of(line, node)
    }
    fn cached_in_sram(&self, node: usize, line: LineAddr) -> bool {
        self.dir.state_of(line, node).is_valid()
    }
    fn backing(&self, _line: LineAddr) -> Option<bool> {
        None
    }
    fn has_dirty_holder(&self, line: LineAddr) -> bool {
        (0..self.n).any(|o| self.dir.state_of(line, o).is_dirty())
    }
    fn check(&self) -> Result<(), String> {
        Ok(())
    }
    fn allows_o(&self) -> bool {
        false
    }
    fn dirty_forward_policy(&self) -> DirtyForwardPolicy {
        DirtyForwardPolicy::MemoryWriteback
    }
}

#[test]
fn seeded_mutation_is_caught_with_a_counterexample() {
    let world = World {
        lines: vec![LineAddr::new(1), LineAddr::new(2)],
        max_states: 10_000,
    };
    let report = explore("broken-msi", || BrokenMsi::new(3), &world);
    assert!(!report.ok());
    let cex = report.counterexample.expect("counterexample produced");
    assert_eq!(
        cex.invariant, "swmr",
        "unexpected invariant: {}",
        cex.message
    );
    assert!(!cex.trace.is_empty());
    // The trace is a reproduction recipe: replaying it on a fresh
    // engine must land in the same violating state.
    let mut e = BrokenMsi::new(3);
    for step in &cex.trace {
        let _ = e.access(step.op.node, step.op.mem_ref_for_test());
    }
    let line = cex.trace.last().unwrap().op.line;
    let writers = (0..3)
        .filter(|&n| e.dir.state_of(line, n).can_write_silently())
        .count();
    let valid = (0..3)
        .filter(|&n| e.dir.state_of(line, n).is_valid())
        .count();
    assert!(
        writers > 1 || (writers == 1 && valid > 1),
        "replayed trace does not violate SWMR"
    );
}

/// Minimal re-derivation of `Op -> MemRef` for the replay assertion, so
/// the test does not depend on a private helper.
trait OpExt {
    fn mem_ref_for_test(&self) -> MemRef;
}
impl OpExt for Op {
    fn mem_ref_for_test(&self) -> MemRef {
        if self.write {
            MemRef::write(self.line)
        } else {
            MemRef::read(self.line)
        }
    }
}
