//! The exhaustive bounded model checker.
//!
//! [`explore`] runs a breadth-first search over every interleaving of
//! per-node reads and writes to the world's lines, fingerprinting each
//! reachable configuration (per-line, per-node directory state and SRAM
//! presence, plus the shared backing level's present/dirty bits) and
//! checking the protocol invariants at every state and transition.
//!
//! States are reconstructed by replaying the operation path from the
//! initial state rather than cloned: engines size their vault rows and
//! directory tables for full-scale runs, so a clone per state would cost far more
//! than replaying a BFS-shallow prefix of cheap accesses in a 4-line
//! world. The same parent links double as the counterexample trace.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use silo_coherence::{AccessResult, Background, DuplicateTagDirectory, State};
use silo_types::hash::FxHashMap;
use silo_types::{LineAddr, MemRef};

use crate::engine::{DirtyForwardPolicy, ModelEngine};
use crate::report::{CheckReport, Counterexample, Deviation, InvariantStatus, TraceStep};

/// One operation of the search alphabet: a read or write by one node to
/// one world line. Evictions are not a separate op — accessing a line's
/// conflict partner evicts it through the engine's real replacement
/// path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Requesting node.
    pub node: usize,
    /// Target line.
    pub line: LineAddr,
    /// Store (true) or load (false).
    pub write: bool,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {} {} {}",
            self.node,
            if self.write { "writes" } else { "reads" },
            self.line
        )
    }
}

impl Op {
    fn mem_ref(self) -> MemRef {
        if self.write {
            MemRef::write(self.line)
        } else {
            MemRef::read(self.line)
        }
    }
}

/// The bounded world: which lines exist and how far to search.
#[derive(Clone, Debug)]
pub struct World {
    /// Lines of the world (chosen by the world builders to conflict in
    /// the direct-mapped cache levels).
    pub lines: Vec<LineAddr>,
    /// Stop after this many distinct states and report the search
    /// truncated.
    pub max_states: usize,
}

/// Stable invariant order of [`CheckReport::invariants`].
const INVARIANT_NAMES: [&str; 8] = [
    "swmr",
    "single-owner",
    "no-o-state",
    "directory-agreement",
    "packed-roundtrip",
    "dirty-ownership",
    "forward-policy",
    "served-classification",
];
const INV_SWMR: usize = 0;
const INV_SINGLE_OWNER: usize = 1;
const INV_NO_O: usize = 2;
const INV_DIR_AGREE: usize = 3;
const INV_PACKED: usize = 4;
const INV_DIRTY_OWNERSHIP: usize = 5;
const INV_FORWARD_POLICY: usize = 6;
const INV_SERVED: usize = 7;

/// Smallest node count that forces the directory's boxed Large entry
/// form; the packed-roundtrip invariant replays every reachable state
/// vector through both forms.
const LARGE_FORM_NODES: usize = 17;

struct Tally {
    checked: [u64; INVARIANT_NAMES.len()],
    failed: Option<(usize, String)>,
}

impl Tally {
    fn new() -> Self {
        Tally {
            checked: [0; INVARIANT_NAMES.len()],
            failed: None,
        }
    }

    /// Records one evaluation of invariant `inv`; on `Err` latches the
    /// first failure.
    fn assert(&mut self, inv: usize, result: Result<(), String>) -> bool {
        self.checked[inv] += 1;
        match result {
            Ok(()) => true,
            Err(msg) => {
                if self.failed.is_none() {
                    self.failed = Some((inv, msg));
                }
                false
            }
        }
    }
}

/// The first node holding `line` in an owner-like state, with that
/// state.
fn owner_of<E: ModelEngine>(e: &E, n_nodes: usize, line: LineAddr) -> Option<(usize, State)> {
    (0..n_nodes).find_map(|node| {
        let s = e.state_of(node, line);
        s.is_ownerlike().then_some((node, s))
    })
}

/// Serializes the checker-visible configuration: one byte per
/// (line, node) packing the directory state nibble and the SRAM
/// presence bit, plus one byte per line for the shared backing level.
/// Complete because every cache level in the bounded worlds is
/// direct-mapped (no replacement recency to hide).
fn fingerprint<E: ModelEngine>(e: &E, lines: &[LineAddr], n_nodes: usize) -> Vec<u8> {
    let mut fp = Vec::with_capacity(lines.len() * (n_nodes + 1));
    for &line in lines {
        for node in 0..n_nodes {
            let s = e.state_of(node, line).to_bits();
            let sram = u8::from(e.cached_in_sram(node, line));
            fp.push((s << 1) | sram);
        }
        fp.push(match e.backing(line) {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }
    fp
}

/// Per-state invariants: SWMR, at most one owner, no O where the
/// protocol forbids it, the engine's structural `check`, and the
/// packed-entry roundtrip replay.
#[allow(clippy::too_many_arguments)]
fn check_state<E: ModelEngine>(
    e: &E,
    lines: &[LineAddr],
    n_nodes: usize,
    allows_o: bool,
    tally: &mut Tally,
    scratch_small: &mut DuplicateTagDirectory,
    scratch_large: &mut DuplicateTagDirectory,
    states_buf: &mut Vec<State>,
) -> bool {
    for &line in lines {
        states_buf.clear();
        states_buf.extend((0..n_nodes).map(|node| e.state_of(node, line)));

        let writers = states_buf.iter().filter(|s| s.can_write_silently()).count();
        let valid = states_buf.iter().filter(|s| s.is_valid()).count();
        let ok = if writers > 1 {
            Err(format!("{line}: {writers} M/E copies coexist"))
        } else if writers == 1 && valid > 1 {
            Err(format!(
                "{line}: an M/E copy coexists with {valid} valid copies"
            ))
        } else {
            Ok(())
        };
        if !tally.assert(INV_SWMR, ok) {
            return false;
        }

        let owners = states_buf.iter().filter(|s| s.is_ownerlike()).count();
        let ok = if owners > 1 {
            Err(format!("{line}: {owners} owner-like copies coexist"))
        } else {
            Ok(())
        };
        if !tally.assert(INV_SINGLE_OWNER, ok) {
            return false;
        }

        if !allows_o {
            let ok = match states_buf.iter().position(|&s| s == State::O) {
                Some(node) => Err(format!(
                    "{line}: O state at node {node} in a protocol without O"
                )),
                None => Ok(()),
            };
            if !tally.assert(INV_NO_O, ok) {
                return false;
            }
        }

        if !tally.assert(
            INV_PACKED,
            packed_roundtrip(line, states_buf, scratch_small),
        ) || !tally.assert(
            INV_PACKED,
            packed_roundtrip(line, states_buf, scratch_large),
        ) {
            return false;
        }
    }
    tally.assert(INV_DIR_AGREE, e.check())
}

/// Replays `states` for `line` into a scratch directory through
/// `set_state` (the packed write path) and compares what the packed
/// entry reports — per-node states, holders mask, owner — against the
/// unpacked reference vector. The scratch directory is restored to
/// empty before returning. One scratch uses the inline Small entry
/// form, the other the boxed Large form, so both packings are checked
/// against every reachable state vector.
fn packed_roundtrip(
    line: LineAddr,
    states: &[State],
    scratch: &mut DuplicateTagDirectory,
) -> Result<(), String> {
    let mut result = Ok(());
    for (node, &s) in states.iter().enumerate() {
        let bits = s.to_bits();
        if State::from_bits(bits) != s {
            result = Err(format!(
                "{line}: {s:?} does not roundtrip through bits {bits}"
            ));
        }
        scratch.set_state(line, node, s);
    }

    let ref_mask: u64 = states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_valid())
        .map(|(node, _)| 1u64 << node)
        .sum();
    let ref_owner = states.iter().position(|s| s.is_ownerlike());

    if result.is_ok() {
        let n_scratch = scratch.n_nodes();
        let readback_ok = scratch
            .lookup_states(line)
            .take(states.len())
            .eq(states.iter().copied());
        if !readback_ok {
            result = Err(format!(
                "{line}: packed entry readback disagrees with reference states"
            ));
        } else if scratch.holders_mask(line) != ref_mask {
            result = Err(format!(
                "{line}: packed mask {:#x} != reference {ref_mask:#x} ({n_scratch}-node form)",
                scratch.holders_mask(line)
            ));
        } else if scratch.owner(line) != ref_owner {
            result = Err(format!(
                "{line}: packed owner {:?} != reference {ref_owner:?} ({n_scratch}-node form)",
                scratch.owner(line)
            ));
        }
    }

    for node in 0..states.len() {
        scratch.set_state(line, node, State::I);
    }
    result
}

/// Per-transition invariants: the access is classified and echoes the
/// request, dirty data never vanishes without writeback evidence, and
/// dirty read forwards follow the protocol's declared policy.
#[allow(clippy::too_many_arguments)]
fn check_transition<E: ModelEngine>(
    e: &E,
    op: Op,
    r: &AccessResult,
    pre_dirty: &[bool],
    pre_owner: Option<(usize, State)>,
    lines: &[LineAddr],
    n_nodes: usize,
    policy: DirtyForwardPolicy,
    tally: &mut Tally,
    deviations: &mut BTreeMap<String, u64>,
) -> bool {
    let ok = if r.served.is_none() {
        Err(format!("{op}: engine did not classify the access"))
    } else if r.line != op.line || r.is_write != op.write {
        Err(format!(
            "{op}: result echoes line {} write={}",
            r.line, r.is_write
        ))
    } else {
        Ok(())
    };
    if !tally.assert(INV_SERVED, ok) {
        return false;
    }

    let writeback_evidence = r.background.iter().any(|b| {
        matches!(
            b,
            Background::MemoryWrite
                | Background::VaultFill {
                    dirty_writeback: true,
                    ..
                }
                | Background::LlcFill {
                    dirty_writeback: true,
                    ..
                }
        )
    });
    for (i, &line) in lines.iter().enumerate() {
        let ok = if pre_dirty[i] && !e.has_dirty_holder(line) && !writeback_evidence {
            Err(format!(
                "{line}: dirty data vanished without a writeback on {op}"
            ))
        } else {
            Ok(())
        };
        if !tally.assert(INV_DIRTY_OWNERSHIP, ok) {
            return false;
        }
    }

    // A dirty read forward: a load that left the SRAM levels and found a
    // dirty owner elsewhere. This is the transition where the protocols
    // differ (the paper's O-state forwarding vs writeback degradation).
    if let Some((o, ostate)) = pre_owner {
        if !op.write && o != op.node && ostate.is_dirty() && r.llc_access {
            let post = e.state_of(o, op.line);
            let memory_write = r
                .background
                .iter()
                .any(|b| matches!(b, Background::MemoryWrite));
            let l1_writeback = r
                .background
                .iter()
                .any(|b| matches!(b, Background::L1Writeback { .. }));
            let (ok, description) = match policy {
                DirtyForwardPolicy::MoesiForward => (
                    if post == State::O && !memory_write {
                        Ok(())
                    } else {
                        Err(format!(
                            "{op}: dirty owner {ostate:?} at node {o} became {post:?} \
                             (memory write: {memory_write}) under O-forwarding"
                        ))
                    },
                    format!("dirty read forward: owner {ostate:?} -> O, supplied core-to-core, no memory traffic"),
                ),
                DirtyForwardPolicy::MemoryWriteback => (
                    if post == State::S && memory_write {
                        Ok(())
                    } else {
                        Err(format!(
                            "{op}: dirty owner {ostate:?} at node {o} became {post:?} \
                             (memory write: {memory_write}) with O-forwarding disabled"
                        ))
                    },
                    format!("dirty read forward: owner {ostate:?} -> S with main-memory writeback (O-forwarding disabled)"),
                ),
                DirtyForwardPolicy::LlcWriteback => (
                    if post == State::S && l1_writeback {
                        Ok(())
                    } else {
                        Err(format!(
                            "{op}: dirty owner {ostate:?} at node {o} became {post:?} \
                             (L1 writeback: {l1_writeback}) under MESI"
                        ))
                    },
                    format!("dirty read forward: owner {ostate:?} -> S with writeback into the LLC"),
                ),
            };
            let passed = tally.assert(INV_FORWARD_POLICY, ok);
            *deviations.entry(description).or_insert(0) += 1;
            if !passed {
                return false;
            }
        }
    }
    let _ = n_nodes;
    true
}

/// Walks the parent links from `id` back to the initial state and
/// returns the operation trace in forward order.
fn trace_to(parents: &[Option<(u32, Op)>], mut id: u32) -> Vec<TraceStep> {
    let mut steps = Vec::new();
    while let Some((parent, op)) = parents[id as usize] {
        steps.push(TraceStep { op, state: id });
        id = parent;
    }
    steps.reverse();
    steps
}

/// Exhaustively explores `world` on engines built by `factory`,
/// checking every invariant at every reachable state and transition.
/// Stops at the first violation (the report then carries a
/// [`Counterexample`]) or when the reachable space is exhausted or the
/// `max_states` bound is hit.
///
/// # Panics
///
/// Panics if the engine reports zero nodes or the world has no lines.
pub fn explore<E: ModelEngine>(
    system: &str,
    factory: impl Fn() -> E,
    world: &World,
) -> CheckReport {
    let probe = factory();
    let n_nodes = probe.n_nodes();
    let allows_o = probe.allows_o();
    let policy = probe.dirty_forward_policy();
    assert!(n_nodes > 0, "world must have nodes");
    assert!(!world.lines.is_empty(), "world must have lines");
    drop(probe);

    let mut ops = Vec::with_capacity(n_nodes * world.lines.len() * 2);
    for node in 0..n_nodes {
        for &line in &world.lines {
            for write in [false, true] {
                ops.push(Op { node, line, write });
            }
        }
    }

    let mut tally = Tally::new();
    let mut deviations: BTreeMap<String, u64> = BTreeMap::new();
    let mut scratch_small = DuplicateTagDirectory::new(n_nodes);
    let mut scratch_large = DuplicateTagDirectory::new(n_nodes.max(LARGE_FORM_NODES));
    let mut states_buf: Vec<State> = Vec::with_capacity(n_nodes);
    let mut pre_dirty = vec![false; world.lines.len()];

    let mut visited: FxHashMap<Vec<u8>, u32> = FxHashMap::default();
    let mut parents: Vec<Option<(u32, Op)>> = Vec::new();
    let mut queue: VecDeque<u32> = VecDeque::new();
    let mut depth: Vec<u32> = Vec::new();

    let mut transitions = 0u64;
    let mut max_depth = 0u32;
    let mut truncated = false;
    let mut counterexample = None;

    let root = factory();
    visited.insert(fingerprint(&root, &world.lines, n_nodes), 0);
    parents.push(None);
    depth.push(0);
    if check_state(
        &root,
        &world.lines,
        n_nodes,
        allows_o,
        &mut tally,
        &mut scratch_small,
        &mut scratch_large,
        &mut states_buf,
    ) {
        queue.push_back(0);
    }
    drop(root);

    'bfs: while let Some(id) = queue.pop_front() {
        let path = trace_to(&parents, id);
        for &op in &ops {
            // Rebuild the pre-state by replaying the path on a fresh
            // engine (see module docs for why this beats cloning).
            let mut e = factory();
            for step in &path {
                let _ = e.access(step.op.node, step.op.mem_ref());
            }
            for (i, &line) in world.lines.iter().enumerate() {
                pre_dirty[i] = e.has_dirty_holder(line);
            }
            let pre_owner = owner_of(&e, n_nodes, op.line);

            let r = e.access(op.node, op.mem_ref());
            transitions += 1;

            let fp = fingerprint(&e, &world.lines, n_nodes);
            let next_id = u32::try_from(visited.len()).expect("state ids fit u32");
            let (post_id, is_new) = match visited.entry(fp) {
                std::collections::hash_map::Entry::Occupied(entry) => (*entry.get(), false),
                std::collections::hash_map::Entry::Vacant(entry) => {
                    entry.insert(next_id);
                    parents.push(Some((id, op)));
                    let d = depth[id as usize] + 1;
                    depth.push(d);
                    max_depth = max_depth.max(d);
                    (next_id, true)
                }
            };

            let transition_ok = check_transition(
                &e,
                op,
                &r,
                &pre_dirty,
                pre_owner,
                &world.lines,
                n_nodes,
                policy,
                &mut tally,
                &mut deviations,
            );
            if !transition_ok {
                let mut trace = trace_to(&parents, id);
                trace.push(TraceStep { op, state: post_id });
                let (inv, message) = tally.failed.clone().expect("failed check latches");
                counterexample = Some(Counterexample {
                    invariant: INVARIANT_NAMES[inv],
                    message,
                    trace,
                });
                break 'bfs;
            }

            if is_new {
                let state_ok = check_state(
                    &e,
                    &world.lines,
                    n_nodes,
                    allows_o,
                    &mut tally,
                    &mut scratch_small,
                    &mut scratch_large,
                    &mut states_buf,
                );
                if !state_ok {
                    let (inv, message) = tally.failed.clone().expect("failed check latches");
                    counterexample = Some(Counterexample {
                        invariant: INVARIANT_NAMES[inv],
                        message,
                        trace: trace_to(&parents, post_id),
                    });
                    break 'bfs;
                }
                if visited.len() >= world.max_states {
                    truncated = true;
                    break 'bfs;
                }
                queue.push_back(post_id);
            }
        }
    }

    // A violation found at the root (before the BFS ran) also needs its
    // (empty) counterexample trace.
    if counterexample.is_none() {
        if let Some((inv, message)) = tally.failed.clone() {
            counterexample = Some(Counterexample {
                invariant: INVARIANT_NAMES[inv],
                message,
                trace: Vec::new(),
            });
        }
    }

    let invariants = INVARIANT_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| InvariantStatus {
            name,
            checked: tally.checked[i],
            violations: match &tally.failed {
                Some((inv, _)) if *inv == i => 1,
                _ => 0,
            },
        })
        .collect();

    CheckReport {
        system: system.to_string(),
        nodes: n_nodes,
        lines: world.lines.len(),
        states: visited.len() as u64,
        transitions,
        max_depth,
        exhausted: !truncated && queue.is_empty() && counterexample.is_none(),
        invariants,
        deviations: deviations
            .into_iter()
            .map(|(description, occurrences)| Deviation {
                description,
                occurrences,
            })
            .collect(),
        counterexample,
    }
}
