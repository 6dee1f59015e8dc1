//! The checker's view of a protocol engine, implemented by the *real*
//! simulator engines — the model checker exercises the same transition
//! code the hot loop runs, not a re-implementation of it.
//!
//! The bounded worlds are deliberately tiny and adversarial: every
//! cache level is direct-mapped (no replacement-policy hidden state, so
//! the observable fingerprint fully determines future behaviour) and
//! the world's lines are chosen to conflict pairwise in both the L1 and
//! the vault/LLC sets, so evictions, back-invalidations, and dirty
//! victim writebacks are reachable interleavings rather than rare
//! accidents.

use silo_coherence::{
    AccessResult, NodeSpec, PrivateMoesi, PrivateMoesiConfig, SharedMesi, SharedMesiConfig, State,
};
use silo_types::{ByteSize, LineAddr, MemRef};

use crate::model::World;

/// Default node count of the bounded worlds (the paper's protocols are
/// symmetric in the node id, so a handful of nodes reaches every
/// transition kind).
pub const DEFAULT_NODES: usize = 4;

/// Default cap on distinct visited states before the search reports
/// itself truncated.
pub const DEFAULT_MAX_STATES: usize = 60_000;

/// How a protocol is expected to handle a read request hitting a dirty
/// owner — the per-protocol dirty-forward transition table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirtyForwardPolicy {
    /// MOESI with O-state forwarding (the paper's SILO): the owner
    /// supplies the data core-to-core and retains it dirty in O. No
    /// memory traffic.
    MoesiForward,
    /// `silo-no-forward`: the owner supplies the data but writes the
    /// line back to main memory and degrades to S (MESI-over-vaults) —
    /// the documented protocol deviation.
    MemoryWriteback,
    /// The shared-LLC MESI baseline: the owner degrades to S and the
    /// dirty line is written back *into the LLC* (not memory).
    LlcWriteback,
}

/// A protocol engine the model checker can drive and inspect. The
/// inspection methods must be read-only (no hit/miss accounting, no
/// recency updates): the checker fingerprints states between
/// transitions and a probe that mutated hidden state would make equal
/// fingerprints behaviourally unequal.
pub trait ModelEngine {
    /// Number of nodes.
    fn n_nodes(&self) -> usize;
    /// Executes one reference from `node` (the same entry point the
    /// simulation loop drives).
    fn access(&mut self, node: usize, mr: MemRef) -> AccessResult;
    /// The coherence state the directory records for `line` at `node`
    /// (I when the node holds no copy).
    fn state_of(&self, node: usize, line: LineAddr) -> State;
    /// True when `node`'s private SRAM holds the line.
    fn cached_in_sram(&self, node: usize, line: LineAddr) -> bool;
    /// The shared backing level's view of the line: `Some(dirty)` when
    /// a shared LLC holds it, `None` for protocols without one (SILO's
    /// vaults are private and tracked through the directory).
    fn backing(&self, line: LineAddr) -> Option<bool>;
    /// True when some component still holds the line's data dirty with
    /// respect to main memory (an M/O copy, or a dirty LLC line).
    fn has_dirty_holder(&self, line: LineAddr) -> bool;
    /// The engine's own structural invariants (SILO: the MOESI
    /// invariants over its vault rows; the baseline: directory caches
    /// and directory/SRAM agreement).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    fn check(&self) -> Result<(), String>;
    /// Whether the protocol may legally reach the O state.
    fn allows_o(&self) -> bool;
    /// The expected dirty-forward transition for this protocol.
    fn dirty_forward_policy(&self) -> DirtyForwardPolicy;
}

impl ModelEngine for PrivateMoesi {
    fn n_nodes(&self) -> usize {
        self.n_cores()
    }
    fn access(&mut self, node: usize, mr: MemRef) -> AccessResult {
        PrivateMoesi::access(self, node, mr)
    }
    fn state_of(&self, node: usize, line: LineAddr) -> State {
        self.vault_state(node, line)
    }
    fn cached_in_sram(&self, node: usize, line: LineAddr) -> bool {
        self.sram_contains(node, line)
    }
    fn backing(&self, _line: LineAddr) -> Option<bool> {
        None
    }
    fn has_dirty_holder(&self, line: LineAddr) -> bool {
        (0..self.n_cores()).any(|n| self.vault_state(n, line).is_dirty())
    }
    fn check(&self) -> Result<(), String> {
        PrivateMoesi::check(self)
    }
    fn allows_o(&self) -> bool {
        self.o_state_forwarding()
    }
    fn dirty_forward_policy(&self) -> DirtyForwardPolicy {
        if self.o_state_forwarding() {
            DirtyForwardPolicy::MoesiForward
        } else {
            DirtyForwardPolicy::MemoryWriteback
        }
    }
}

impl ModelEngine for SharedMesi {
    fn n_nodes(&self) -> usize {
        self.n_cores()
    }
    fn access(&mut self, node: usize, mr: MemRef) -> AccessResult {
        SharedMesi::access(self, node, mr)
    }
    fn state_of(&self, node: usize, line: LineAddr) -> State {
        self.directory().state_of(line, node)
    }
    fn cached_in_sram(&self, node: usize, line: LineAddr) -> bool {
        self.sram_contains(node, line)
    }
    fn backing(&self, line: LineAddr) -> Option<bool> {
        self.llc_state(line)
    }
    fn has_dirty_holder(&self, line: LineAddr) -> bool {
        let dir = SharedMesi::directory(self);
        (0..self.n_cores()).any(|n| dir.state_of(line, n) == State::M)
            || self.llc_state(line) == Some(true)
    }
    fn check(&self) -> Result<(), String> {
        SharedMesi::check(self)
    }
    fn allows_o(&self) -> bool {
        false
    }
    fn dirty_forward_policy(&self) -> DirtyForwardPolicy {
        DirtyForwardPolicy::LlcWriteback
    }
}

/// Tunables of a bounded world.
#[derive(Clone, Copy, Debug)]
pub struct WorldParams {
    /// Node count (2..=16; the default reaches every transition kind).
    pub nodes: usize,
    /// Cap on distinct visited states before the search stops and
    /// reports itself truncated.
    pub max_states: usize,
}

impl Default for WorldParams {
    fn default() -> Self {
        WorldParams {
            nodes: DEFAULT_NODES,
            max_states: DEFAULT_MAX_STATES,
        }
    }
}

/// Four lines forming two conflict pairs: with a 4-set direct-mapped
/// vault, lines 1/5 alias set 1 and lines 2/6 alias set 2 — and with a
/// 2-set direct-mapped L1-D, each pair aliases there too. Accessing a
/// line's partner *is* the evict operation of the {read, write, evict}
/// op alphabet, realized through the engine's real eviction path
/// (back-invalidation, directory retirement, dirty victim writeback)
/// instead of a synthetic hook.
fn world_lines() -> Vec<LineAddr> {
    [1u64, 5, 2, 6].into_iter().map(LineAddr::new).collect()
}

/// SRAM geometry of the bounded world: a 2-line direct-mapped L1-D (so
/// the conflict pairs alias), same for the (unused) L1-I, no L2.
fn tiny_node_spec() -> NodeSpec {
    NodeSpec {
        l1i_capacity: ByteSize::from_bytes(128),
        l1d_capacity: ByteSize::from_bytes(128),
        l1_ways: 1,
        l2_capacity: None,
        l2_ways: 1,
    }
}

/// Builds the SILO bounded world: 4-line direct-mapped private vaults
/// over the tiny SRAM node, with or without O-state forwarding. Returns
/// the engine factory and the world description.
pub fn silo_world(
    params: WorldParams,
    o_state_forwarding: bool,
) -> (impl Fn() -> PrivateMoesi, World) {
    let nodes = params.nodes;
    let factory = move || {
        PrivateMoesi::new(
            nodes,
            &PrivateMoesiConfig {
                node_spec: tiny_node_spec(),
                vault_capacity: ByteSize::from_bytes(256),
                scale: 1,
                ideal_miss_predict: true,
                o_state_forwarding,
            },
        )
    };
    (
        factory,
        World {
            lines: world_lines(),
            max_states: params.max_states,
        },
    )
}

/// Builds the shared-LLC MESI bounded world. `llc_capacity_mult`
/// scales the aggregate LLC (1 for the baseline geometry, 2 for
/// `baseline-2x`): per-bank capacity is 4 lines x mult, direct-mapped.
pub fn baseline_world(
    params: WorldParams,
    llc_capacity_mult: u64,
) -> (impl Fn() -> SharedMesi, World) {
    let nodes = params.nodes;
    let factory = move || {
        SharedMesi::new(
            nodes,
            &SharedMesiConfig {
                node_spec: tiny_node_spec(),
                llc_capacity: ByteSize::from_bytes(256 * nodes as u64 * llc_capacity_mult),
                llc_ways: 1,
                scale: 1,
            },
        )
    };
    (
        factory,
        World {
            lines: world_lines(),
            max_states: params.max_states,
        },
    )
}
