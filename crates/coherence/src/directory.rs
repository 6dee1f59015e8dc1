//! Duplicate-tag directory (Sec. V-B, Fig. 9).
//!
//! The directory is logically an N-way-associative tag store where N is
//! the core count: the way position of an entry encodes which core's
//! vault caches the block, so no sharing vector is needed. Finding the
//! sharers of a block reads all N ways; most updates touch one entry, but
//! a full-set transition (e.g. a block shared by every core moving to
//! exclusive) touches N.
//!
//! Physically the directory is distributed across the vaults in an
//! address-interleaved fashion; this structure is the *functional*
//! content, and the engine emits `DirLookup`/`DirUpdate` steps against the
//! home node so the simulator charges the DRAM accesses.

use crate::state::State;
use silo_types::hash::{fx_map_with_capacity, FxHashMap};
use silo_types::LineAddr;

/// Buckets reserved up front: enough to track the hot working set of a
/// scaled run without rehashing, small enough to be free at rest.
const PRESIZE_LINES: usize = 1 << 12;

/// Compact result of one directory lookup: the information the protocol
/// engines act on, without materializing the per-node state vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirView {
    /// Bitmask of nodes holding the line in any valid state.
    pub mask: u64,
    /// The node holding the line in an owner-like state (M, O, or E),
    /// with that state; at most one exists (protocol invariant).
    pub owner: Option<(usize, State)>,
}

/// One tracked line: the per-node states packed 4 bits each (the paper
/// stores 3 bits per way, Fig. 9 — we round up to a nibble for cheap
/// shifts), plus the holder mask and owner-like node cached so the hot
/// [`DuplicateTagDirectory::lookup_view`] path is O(1) instead of a
/// scan over a heap-allocated state vector.
///
/// `mask` is maintained unconditionally in `set_state` and therefore
/// always equals the valid bits of `states`. `owner` is maintained under
/// the single-writer invariant (at most one owner-like node); the
/// inspection APIs that must work even on deliberately broken state
/// ([`DuplicateTagDirectory::owner`],
/// [`DuplicateTagDirectory::check_invariants`]) scan `states` instead.
#[derive(Clone, Copy, Debug)]
struct LargeEntry {
    /// 4 bits per node, node `n` at bits `4*(n%16)` of word `n/16`;
    /// zeroed storage decodes to all-I.
    states: [u64; 4],
    /// Bitmask of nodes whose packed state is valid.
    mask: u64,
    /// The owner-like node and its state, under the protocol invariant.
    owner: Option<(u8, State)>,
}

/// `Small::owner` encoding: no owner.
const NO_OWNER: u16 = u16::MAX;

#[derive(Clone, Debug)]
enum Entry {
    /// Up to 16 nodes (the paper's machine is 16-core): the whole state
    /// vector in one word, 16 bytes per entry. Directory entries are
    /// the largest metadata population of a run, so halving them keeps
    /// far more of the map in host cache.
    Small {
        /// 4 bits per node, node `n` at bits `4n`.
        states: u64,
        /// Bitmask of nodes whose packed state is valid.
        mask: u16,
        /// `state.to_bits() << 8 | node`, or [`NO_OWNER`].
        owner: u16,
    },
    /// 17–64 nodes, boxed to keep the common case small.
    Large(Box<LargeEntry>),
}

impl Entry {
    fn empty(n_nodes: usize) -> Entry {
        if n_nodes <= 16 {
            Entry::Small {
                states: 0,
                mask: 0,
                owner: NO_OWNER,
            }
        } else {
            Entry::Large(Box::new(LargeEntry {
                states: [0; 4],
                mask: 0,
                owner: None,
            }))
        }
    }

    #[inline]
    fn get(&self, node: usize) -> State {
        match self {
            Entry::Small { states, .. } => State::from_bits(((states >> (node * 4)) & 0xF) as u8),
            Entry::Large(e) => {
                State::from_bits(((e.states[node >> 4] >> ((node & 15) * 4)) & 0xF) as u8)
            }
        }
    }

    #[inline]
    fn set(&mut self, node: usize, s: State) {
        match self {
            Entry::Small { states, .. } => {
                let shift = node * 4;
                *states = (*states & !(0xF << shift)) | (u64::from(s.to_bits()) << shift);
            }
            Entry::Large(e) => {
                let shift = (node & 15) * 4;
                let word = &mut e.states[node >> 4];
                *word = (*word & !(0xF << shift)) | (u64::from(s.to_bits()) << shift);
            }
        }
    }

    #[inline]
    fn mask(&self) -> u64 {
        match self {
            Entry::Small { mask, .. } => u64::from(*mask),
            Entry::Large(e) => e.mask,
        }
    }

    #[inline]
    fn set_mask_bit(&mut self, node: usize, on: bool) {
        match self {
            Entry::Small { mask, .. } => {
                if on {
                    *mask |= 1 << node;
                } else {
                    *mask &= !(1 << node);
                }
            }
            Entry::Large(e) => {
                if on {
                    e.mask |= 1 << node;
                } else {
                    e.mask &= !(1 << node);
                }
            }
        }
    }

    #[inline]
    fn owner(&self) -> Option<(usize, State)> {
        match self {
            Entry::Small { owner, .. } => (*owner != NO_OWNER).then(|| {
                (
                    (owner & 0xFF) as usize,
                    State::from_bits((owner >> 8) as u8),
                )
            }),
            Entry::Large(e) => e.owner.map(|(n, s)| (n as usize, s)),
        }
    }

    #[inline]
    fn set_owner(&mut self, new: Option<(u8, State)>) {
        match self {
            Entry::Small { owner, .. } => {
                *owner = new.map_or(NO_OWNER, |(n, s)| {
                    u16::from(s.to_bits()) << 8 | u16::from(n)
                });
            }
            Entry::Large(e) => e.owner = new,
        }
    }

    fn unpack(&self, n_nodes: usize) -> Vec<State> {
        (0..n_nodes).map(|n| self.get(n)).collect()
    }
}

/// The functional duplicate-tag directory: per line, one coherence state
/// per node (way position = node id).
#[derive(Clone, Debug)]
pub struct DuplicateTagDirectory {
    n_nodes: usize,
    entries: FxHashMap<LineAddr, Entry>,
    lookups: u64,
    updates: u64,
}

impl DuplicateTagDirectory {
    /// Creates a directory for `n_nodes` vaults.
    ///
    /// # Panics
    ///
    /// Panics if `n_nodes` is zero or exceeds 64 (sharer masks are u64).
    pub fn new(n_nodes: usize) -> Self {
        assert!(
            (1..=64).contains(&n_nodes),
            "node count {n_nodes} outside [1, 64]"
        );
        DuplicateTagDirectory {
            n_nodes,
            entries: fx_map_with_capacity(PRESIZE_LINES),
            lookups: 0,
            updates: 0,
        }
    }

    /// Number of nodes (directory ways).
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// State of `line` at `node`.
    pub fn state_of(&self, line: LineAddr, node: usize) -> State {
        self.entries.get(&line).map_or(State::I, |e| e.get(node))
    }

    /// Records a directory lookup (sharer scan) and iterates the
    /// per-node states without allocating (I for absent). Same
    /// accounting as [`DuplicateTagDirectory::lookup_view`].
    pub fn lookup_states(&mut self, line: LineAddr) -> impl Iterator<Item = State> + '_ {
        self.lookups += 1;
        let entry = self.entries.get(&line);
        (0..self.n_nodes).map(move |n| entry.map_or(State::I, |e| e.get(n)))
    }

    /// Records a directory lookup and returns the compact per-line view
    /// the protocol engines act on: the holder bitmask and the owner-like
    /// node with its state (at most one, by the single-writer invariant).
    /// O(1): both fields are maintained incrementally by
    /// [`DuplicateTagDirectory::set_state`].
    pub fn lookup_view(&mut self, line: LineAddr) -> DirView {
        self.lookups += 1;
        match self.entries.get(&line) {
            None => DirView {
                mask: 0,
                owner: None,
            },
            Some(e) => DirView {
                mask: e.mask(),
                owner: e.owner(),
            },
        }
    }

    /// Sets the state of `line` at `node`, creating or garbage-collecting
    /// the entry as needed. Returns the previous state.
    pub fn set_state(&mut self, line: LineAddr, node: usize, state: State) -> State {
        assert!(node < self.n_nodes, "node {node} out of range");
        self.updates += 1;
        match self.entries.get_mut(&line) {
            Some(e) => {
                let prev = e.get(node);
                e.set(node, state);
                e.set_mask_bit(node, state.is_valid());
                if state.is_ownerlike() {
                    e.set_owner(Some((node as u8, state)));
                } else if e.owner().is_some_and(|(n, _)| n == node) {
                    e.set_owner(None);
                }
                if e.mask() == 0 {
                    self.entries.remove(&line);
                }
                prev
            }
            None => {
                if state.is_valid() {
                    let mut e = Entry::empty(self.n_nodes);
                    e.set(node, state);
                    e.set_mask_bit(node, true);
                    if state.is_ownerlike() {
                        e.set_owner(Some((node as u8, state)));
                    }
                    self.entries.insert(line, e);
                }
                State::I
            }
        }
    }

    /// The node holding the line in an owner-like state (M, O, or E), if
    /// any. At most one such node exists (protocol invariant); this scans
    /// the packed states rather than trusting the cached owner, so it
    /// stays meaningful on invariant-violating state under test.
    pub fn owner(&self, line: LineAddr) -> Option<usize> {
        let e = self.entries.get(&line)?;
        (0..self.n_nodes).find(|&n| e.get(n).is_ownerlike())
    }

    /// Bitmask of nodes holding the line in any valid state.
    pub fn holders_mask(&self, line: LineAddr) -> u64 {
        self.entries.get(&line).map_or(0, Entry::mask)
    }

    /// Lowest-numbered node holding the line in any valid state,
    /// excluding `except`.
    pub fn first_holder_except(&self, line: LineAddr, except: usize) -> Option<usize> {
        let m = self.entries.get(&line)?.mask() & !(1u64 << except);
        (m != 0).then(|| m.trailing_zeros() as usize)
    }

    /// True when no node caches the line.
    pub fn is_uncached(&self, line: LineAddr) -> bool {
        !self.entries.contains_key(&line)
    }

    /// Number of tracked lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the directory tracks nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup operations performed.
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Update operations performed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Total valid copies tracked across all lines: the sum of holder
    /// populations. For an inclusive hierarchy (SILO's vaults) this must
    /// equal the sum of the per-node cache occupancies — the cross-layer
    /// occupancy invariant checked by the `--check` oracle.
    pub fn total_holders(&self) -> u64 {
        self.entries
            .values()
            .map(|e| u64::from(e.mask().count_ones()))
            .sum()
    }

    /// Checks the MOESI single-writer invariants for every tracked line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant:
    /// * at most one node in an owner-like state (M/O/E);
    /// * M and E never coexist with any other valid copy;
    /// * no fully-invalid entries survive (garbage collection);
    /// * the cached holder mask equals the valid bits of the packed
    ///   states;
    /// * the cached owner equals the scanned owner-like node.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (line, e) in &self.entries {
            let states = e.unpack(self.n_nodes);
            let ownerlike = states.iter().filter(|s| s.is_ownerlike()).count();
            if ownerlike > 1 {
                return Err(format!("{line}: {ownerlike} owner-like copies"));
            }
            let valid = states.iter().filter(|s| s.is_valid()).count();
            if valid == 0 {
                return Err(format!("{line}: empty entry not collected"));
            }
            let exclusive = states.iter().any(|s| matches!(s, State::M | State::E));
            if exclusive && valid > 1 {
                return Err(format!("{line}: M/E coexists with other copies"));
            }
            // The cached mask and owner are redundant encodings of the
            // packed states; a disagreement means an update path skipped
            // the incremental maintenance.
            let scanned_mask = states
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_valid())
                .fold(0u64, |m, (n, _)| m | 1u64 << n);
            if e.mask() != scanned_mask {
                return Err(format!(
                    "{line}: cached mask {:#x} != scanned {scanned_mask:#x}",
                    e.mask()
                ));
            }
            let scanned_owner = states
                .iter()
                .enumerate()
                .find(|(_, s)| s.is_ownerlike())
                .map(|(n, &s)| (n, s));
            if e.owner() != scanned_owner {
                return Err(format!(
                    "{line}: cached owner {:?} != scanned {scanned_owner:?}",
                    e.owner()
                ));
            }
        }
        Ok(())
    }

    /// Test-only: installs a raw entry whose packed states, cached mask,
    /// and cached owner are set *independently*, bypassing the
    /// maintenance in [`DuplicateTagDirectory::set_state`] — so tests can
    /// construct the corrupt configurations (stale mask, stale owner,
    /// double writer) that `check_invariants` must reject.
    #[cfg(test)]
    fn install_raw_entry(
        &mut self,
        line: LineAddr,
        states: &[State],
        cached_mask: u64,
        cached_owner: Option<(u8, State)>,
    ) {
        assert_eq!(states.len(), self.n_nodes);
        let mut e = Entry::empty(self.n_nodes);
        for (n, &s) in states.iter().enumerate() {
            e.set(n, s);
        }
        match &mut e {
            Entry::Small { mask, .. } => {
                *mask = u16::try_from(cached_mask).expect("small entry mask fits u16");
            }
            Entry::Large(le) => le.mask = cached_mask,
        }
        e.set_owner(cached_owner);
        self.entries.insert(line, e);
    }

    /// Iterates over tracked lines and their (unpacked) state vectors.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, Vec<State>)> + '_ {
        self.entries
            .iter()
            .map(|(l, e)| (*l, e.unpack(self.n_nodes)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_lines_are_invalid_everywhere() {
        let mut d = DuplicateTagDirectory::new(4);
        assert_eq!(d.state_of(LineAddr::new(1), 0), State::I);
        assert!(d.is_uncached(LineAddr::new(1)));
        let states: Vec<State> = d.lookup_states(LineAddr::new(1)).collect();
        assert_eq!(states, vec![State::I; 4]);
        assert_eq!(d.lookups(), 1);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut d = DuplicateTagDirectory::new(4);
        assert_eq!(d.set_state(LineAddr::new(7), 2, State::M), State::I);
        assert_eq!(d.state_of(LineAddr::new(7), 2), State::M);
        assert_eq!(d.owner(LineAddr::new(7)), Some(2));
        assert_eq!(d.holders_mask(LineAddr::new(7)), 0b0100);
    }

    #[test]
    fn entry_garbage_collected_when_all_invalid() {
        let mut d = DuplicateTagDirectory::new(2);
        d.set_state(LineAddr::new(3), 0, State::S);
        assert_eq!(d.len(), 1);
        d.set_state(LineAddr::new(3), 0, State::I);
        assert_eq!(d.len(), 0);
        assert!(d.is_empty());
    }

    #[test]
    fn setting_invalid_on_absent_line_is_noop() {
        let mut d = DuplicateTagDirectory::new(2);
        d.set_state(LineAddr::new(3), 1, State::I);
        assert!(d.is_empty());
        assert_eq!(d.updates(), 1);
    }

    #[test]
    fn owner_prefers_ownerlike_over_shared() {
        let mut d = DuplicateTagDirectory::new(4);
        d.set_state(LineAddr::new(9), 0, State::S);
        d.set_state(LineAddr::new(9), 3, State::O);
        assert_eq!(d.owner(LineAddr::new(9)), Some(3));
        assert_eq!(d.holders_mask(LineAddr::new(9)), 0b1001);
    }

    #[test]
    fn first_holder_except_skips_requester() {
        let mut d = DuplicateTagDirectory::new(4);
        d.set_state(LineAddr::new(9), 1, State::S);
        d.set_state(LineAddr::new(9), 2, State::S);
        assert_eq!(d.first_holder_except(LineAddr::new(9), 1), Some(2));
        assert_eq!(d.first_holder_except(LineAddr::new(9), 0), Some(1));
        d.set_state(LineAddr::new(9), 2, State::I);
        assert_eq!(d.first_holder_except(LineAddr::new(9), 1), None);
    }

    #[test]
    fn lookup_view_matches_vector_lookup() {
        let mut d = DuplicateTagDirectory::new(4);
        assert_eq!(
            d.lookup_view(LineAddr::new(1)),
            DirView {
                mask: 0,
                owner: None
            }
        );
        d.set_state(LineAddr::new(1), 0, State::S);
        d.set_state(LineAddr::new(1), 2, State::O);
        let v = d.lookup_view(LineAddr::new(1));
        assert_eq!(v.mask, 0b0101);
        assert_eq!(v.owner, Some((2, State::O)));
        assert_eq!(d.lookups(), 2);
    }

    #[test]
    fn invariants_catch_double_owner() {
        let mut d = DuplicateTagDirectory::new(4);
        d.set_state(LineAddr::new(5), 0, State::M);
        assert!(d.check_invariants().is_ok());
        d.set_state(LineAddr::new(5), 1, State::M);
        assert!(d.check_invariants().is_err());
    }

    #[test]
    fn invariants_catch_exclusive_with_sharer() {
        let mut d = DuplicateTagDirectory::new(4);
        d.set_state(LineAddr::new(5), 0, State::E);
        d.set_state(LineAddr::new(5), 1, State::S);
        assert!(d.check_invariants().is_err());
    }

    #[test]
    fn owned_with_sharers_is_legal() {
        let mut d = DuplicateTagDirectory::new(4);
        d.set_state(LineAddr::new(5), 0, State::O);
        d.set_state(LineAddr::new(5), 1, State::S);
        d.set_state(LineAddr::new(5), 2, State::S);
        assert!(d.check_invariants().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn node_bounds_checked() {
        DuplicateTagDirectory::new(2).set_state(LineAddr::new(0), 5, State::S);
    }

    #[test]
    fn iter_exposes_entries() {
        let mut d = DuplicateTagDirectory::new(2);
        d.set_state(LineAddr::new(1), 0, State::S);
        d.set_state(LineAddr::new(2), 1, State::M);
        assert_eq!(d.iter().count(), 2);
    }

    #[test]
    fn large_entries_track_nodes_beyond_sixteen() {
        // 32 nodes picks the boxed `Entry::Large` layout; exercise every
        // operation the Small path covers, at node ids above 16.
        let mut d = DuplicateTagDirectory::new(32);
        assert_eq!(d.set_state(LineAddr::new(7), 31, State::O), State::I);
        d.set_state(LineAddr::new(7), 0, State::S);
        d.set_state(LineAddr::new(7), 17, State::S);
        assert_eq!(d.state_of(LineAddr::new(7), 31), State::O);
        assert_eq!(d.state_of(LineAddr::new(7), 17), State::S);
        assert_eq!(d.state_of(LineAddr::new(7), 16), State::I);
        assert_eq!(d.owner(LineAddr::new(7)), Some(31));
        assert_eq!(d.holders_mask(LineAddr::new(7)), 1 << 31 | 1 << 17 | 1);
        let v = d.lookup_view(LineAddr::new(7));
        assert_eq!(v.mask, 1 << 31 | 1 << 17 | 1);
        assert_eq!(v.owner, Some((31, State::O)));
        assert_eq!(d.first_holder_except(LineAddr::new(7), 0), Some(17));
        assert_eq!(d.lookup_states(LineAddr::new(7)).count(), 32);
        assert!(d.check_invariants().is_ok());
    }

    #[test]
    fn lookup_states_matches_lookup_and_counts_once() {
        let mut d = DuplicateTagDirectory::new(4);
        d.set_state(LineAddr::new(11), 1, State::O);
        d.set_state(LineAddr::new(11), 3, State::S);
        let via_iter: Vec<State> = d.lookup_states(LineAddr::new(11)).collect();
        assert_eq!(via_iter, vec![State::I, State::O, State::I, State::S]);
        let view = d.lookup_view(LineAddr::new(11));
        assert_eq!(view.mask, 0b1010);
        assert_eq!(view.owner, Some((1, State::O)));
        assert_eq!(d.lookups(), 2, "each lookup flavour counts once");
        // Absent lines iterate all-I without creating an entry.
        assert_eq!(
            d.lookup_states(LineAddr::new(99))
                .filter(|s| s.is_valid())
                .count(),
            0
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn total_holders_sums_valid_copies() {
        let mut d = DuplicateTagDirectory::new(4);
        assert_eq!(d.total_holders(), 0);
        d.set_state(LineAddr::new(1), 0, State::O);
        d.set_state(LineAddr::new(1), 2, State::S);
        d.set_state(LineAddr::new(2), 3, State::M);
        assert_eq!(d.total_holders(), 3);
        d.set_state(LineAddr::new(1), 2, State::I);
        assert_eq!(d.total_holders(), 2);
    }

    /// Small-form corruption: each distinct `check_invariants` error
    /// message fires for a deliberately inconsistent packed entry.
    #[test]
    fn small_entry_corruptions_name_each_invariant() {
        let l = LineAddr::new(77);
        // Two M holders (consistent caches, broken protocol).
        let mut d = DuplicateTagDirectory::new(4);
        d.install_raw_entry(
            l,
            &[State::M, State::M, State::I, State::I],
            0b0011,
            Some((0, State::M)),
        );
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("2 owner-like copies"), "{e}");

        // O holder whose mask bit was dropped (stale cached mask).
        let mut d = DuplicateTagDirectory::new(4);
        d.install_raw_entry(
            l,
            &[State::O, State::S, State::I, State::I],
            0b0010,
            Some((0, State::O)),
        );
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("cached mask"), "{e}");

        // Cached owner pointing at a node that no longer owns.
        let mut d = DuplicateTagDirectory::new(4);
        d.install_raw_entry(
            l,
            &[State::S, State::S, State::I, State::I],
            0b0011,
            Some((1, State::M)),
        );
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("cached owner"), "{e}");

        // All-invalid entry that survived garbage collection.
        let mut d = DuplicateTagDirectory::new(4);
        d.install_raw_entry(l, &[State::I; 4], 0, None);
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("empty entry not collected"), "{e}");

        // M coexisting with a sharer (caches consistent, SWMR broken).
        let mut d = DuplicateTagDirectory::new(4);
        d.install_raw_entry(
            l,
            &[State::M, State::S, State::I, State::I],
            0b0011,
            Some((0, State::M)),
        );
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("M/E coexists"), "{e}");
    }

    /// The same corruptions through the boxed Large form (> 16 nodes),
    /// at node ids beyond the Small range.
    #[test]
    fn large_entry_corruptions_name_each_invariant() {
        let l = LineAddr::new(88);
        let n = 20;
        let vec_with = |pairs: &[(usize, State)]| {
            let mut v = vec![State::I; n];
            for &(i, s) in pairs {
                v[i] = s;
            }
            v
        };

        let mut d = DuplicateTagDirectory::new(n);
        d.install_raw_entry(
            l,
            &vec_with(&[(17, State::M), (19, State::M)]),
            1 << 17 | 1 << 19,
            Some((17, State::M)),
        );
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("2 owner-like copies"), "{e}");

        let mut d = DuplicateTagDirectory::new(n);
        d.install_raw_entry(
            l,
            &vec_with(&[(18, State::O), (3, State::S)]),
            1 << 3,
            Some((18, State::O)),
        );
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("cached mask"), "{e}");

        let mut d = DuplicateTagDirectory::new(n);
        d.install_raw_entry(
            l,
            &vec_with(&[(2, State::S), (19, State::S)]),
            1 << 2 | 1 << 19,
            Some((19, State::M)),
        );
        let e = d.check_invariants().unwrap_err();
        assert!(e.contains("cached owner"), "{e}");
    }

    #[test]
    fn well_formed_states_pass_the_extended_invariants() {
        let mut d = DuplicateTagDirectory::new(20);
        d.set_state(LineAddr::new(1), 0, State::O);
        d.set_state(LineAddr::new(1), 17, State::S);
        d.set_state(LineAddr::new(2), 19, State::M);
        d.set_state(LineAddr::new(3), 4, State::E);
        d.check_invariants().unwrap();
    }

    #[test]
    fn large_entries_garbage_collect_and_drop_the_owner_cache() {
        let mut d = DuplicateTagDirectory::new(20);
        d.set_state(LineAddr::new(3), 19, State::M);
        assert_eq!(d.lookup_view(LineAddr::new(3)).owner, Some((19, State::M)));
        // Downgrading the owner clears the cached owner but keeps the
        // entry; invalidating the last copy collects it.
        d.set_state(LineAddr::new(3), 19, State::S);
        assert_eq!(d.lookup_view(LineAddr::new(3)).owner, None);
        assert_eq!(d.holders_mask(LineAddr::new(3)), 1 << 19);
        assert_eq!(d.set_state(LineAddr::new(3), 19, State::I), State::S);
        assert!(d.is_empty());
    }
}
