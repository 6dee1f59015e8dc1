//! SILO's all-private hierarchy: directory-based MOESI over per-core
//! DRAM-cache vaults (Sec. V-B).
//!
//! Every core owns an inclusive, direct-mapped DRAM cache vault stacked
//! above it. Coherence state lives with the vault tags, and the
//! duplicate-tag directory is those same tags seen across cores: the
//! paper's N-way directory set in which way `c` is core `c`'s vault
//! (Fig. 9). The engine stores exactly that, once. Vault set `s` of
//! every core is one *row* of `n` slots, slot `c` holding core `c`'s
//! tag and MOESI state, so
//!
//! * a local vault probe reads one slot;
//! * a directory lookup (holder mask and owner) scans one row;
//! * a vault fill overwrites the victim's slot, and that write is also
//!   the victim's directory update.
//!
//! Directory lookups happen at address-interleaved *home* vaults, whose
//! DRAM accesses the emitted steps charge. The O state lets a dirty
//! block be supplied core-to-core without a main-memory writeback — the
//! common case for the read-mostly sharing of scale-out workloads.
//!
//! The engine owns the SRAM nodes and the vault rows, performs all
//! state transitions, and emits an [`AccessResult`] whose [`Step`]s the
//! timing simulator prices with mesh hops and bank reservations.

use crate::directory::DirView;
use crate::node::{Node, NodeSpec, SramHit};
use crate::state::State;
use crate::stats::CoherenceStats;
use crate::step::{AccessResult, Background, ServedBy, Step};
use silo_types::hash::FxHashMap;
use silo_types::{ByteSize, LineAddr, MemRef};

/// Vaults of at most this many lines (64 Ki: a scale-64 Table I vault)
/// find a set's row through a flat `u32` per set (256 KiB) and reserve
/// room for every row up front; larger vaults (`--scale 1`: millions of
/// sets, almost all untouched) find it through a hash map of the sets
/// filled so far, and grow the store as they go. Either way a row is
/// appended on its set's first fill, so only the rows of sets a run
/// touches are ever written. A `sets × N` store allocated zeroed was
/// cleared in full whenever the allocator served it from its heap, and
/// a store grown row by row faulted its pages in anew for each engine;
/// reserved capacity is written only as rows are appended, so when the
/// allocator hands one engine's freed block to the next, its resident
/// pages are reused as they are.
const DENSE_MAX_LINES: u64 = 1 << 16;

/// Configuration of the SILO private hierarchy.
#[derive(Clone, Copy, Debug)]
pub struct PrivateMoesiConfig {
    /// Per-core SRAM geometry.
    pub node_spec: NodeSpec,
    /// Capacity of each private vault (256 MiB for the latency-optimized
    /// design point of Table I).
    pub vault_capacity: ByteSize,
    /// Capacity-scaling knob shared with the workload generators.
    pub scale: u64,
    /// Model the ideal vault miss predictor of Sec. V-C: a known local
    /// miss skips the local TAD probe entirely.
    pub ideal_miss_predict: bool,
    /// Keep the O state: a dirty owner supplies readers core-to-core
    /// without a main-memory writeback (the paper's protocol). When
    /// disabled, a dirty owner forwarding to a reader writes the line
    /// back to memory and degrades to S — MESI-over-vaults, the
    /// `silo-no-forward` sensitivity variant.
    pub o_state_forwarding: bool,
}

impl Default for PrivateMoesiConfig {
    fn default() -> Self {
        PrivateMoesiConfig {
            node_spec: NodeSpec::two_level(),
            vault_capacity: ByteSize::from_mib(256),
            scale: 64,
            ideal_miss_predict: true,
            o_state_forwarding: true,
        }
    }
}

/// Every core's direct-mapped vault, transposed into rows: slot
/// `row + c` is core `c`'s way of the set the row stands for. A slot
/// whose state is I (0) is empty; its tag is stale and never read as a
/// line. Rows are appended in first-fill order, and `map` finds a set's.
#[derive(Clone, Debug)]
struct Rows {
    /// Slots per row: the core count.
    n: usize,
    /// Vault set count minus one (set counts are powers of two).
    set_mask: u64,
    tags: Vec<u64>,
    /// `State::to_bits` per slot.
    states: Vec<u8>,
    map: RowMap,
}

/// Set -> offset of its row + 1, 0 for a set never filled. An offset,
/// not a row number, keeps a multiply off the lookup.
#[derive(Clone, Debug)]
enum RowMap {
    /// One entry per set (vaults of at most [`DENSE_MAX_LINES`] lines).
    Dense(Vec<u32>),
    /// Only the sets filled so far (larger vaults).
    Sparse(FxHashMap<u64, u32>),
}

impl Rows {
    /// An empty store for `n` cores over `sets` sets, finding rows
    /// through a per-set table (with room reserved for every row) when
    /// `dense`, a hash map otherwise.
    fn new(n: usize, sets: u64, dense: bool) -> Self {
        let slots = if dense { sets as usize * n } else { 0 };
        Rows {
            n,
            set_mask: sets - 1,
            tags: Vec::with_capacity(slots),
            states: Vec::with_capacity(slots),
            map: if dense {
                RowMap::Dense(vec![0; sets as usize])
            } else {
                RowMap::Sparse(FxHashMap::default())
            },
        }
    }

    /// Offset of the row holding `line`'s set, if that set was filled.
    #[inline]
    fn row(&self, line: LineAddr) -> Option<usize> {
        let set = line.as_u64() & self.set_mask;
        let id = match &self.map {
            RowMap::Dense(ids) => ids[set as usize],
            RowMap::Sparse(ids) => ids.get(&set).copied().unwrap_or(0),
        };
        (id != 0).then(|| (id - 1) as usize)
    }

    /// Offset of the row holding `line`'s set, appending it (all slots
    /// empty) on the set's first fill.
    #[inline]
    fn row_or_insert(&mut self, line: LineAddr) -> usize {
        let set = line.as_u64() & self.set_mask;
        let id = match &mut self.map {
            RowMap::Dense(ids) => &mut ids[set as usize],
            RowMap::Sparse(ids) => ids.entry(set).or_insert(0),
        };
        if *id == 0 {
            let row = self.tags.len();
            *id = u32::try_from(row + 1).expect("store of fewer than 2^32 slots");
            self.tags.resize(row + self.n, 0);
            self.states.resize(row + self.n, 0);
        }
        (*id - 1) as usize
    }

    /// State of `line` in slot `slot` (I unless the slot holds it).
    #[inline]
    fn state_at(&self, slot: usize, line: LineAddr) -> State {
        if self.tags[slot] == line.as_u64() {
            State::from_bits(self.states[slot])
        } else {
            State::I
        }
    }

    /// The directory's view of `line` from its row: which slots hold it,
    /// and the owner-like one (at most one, by the single-writer
    /// invariant).
    #[inline]
    fn view(&self, row: usize, line: LineAddr) -> DirView {
        let mut view = DirView {
            mask: 0,
            owner: None,
        };
        let tags = &self.tags[row..row + self.n];
        let states = &self.states[row..row + self.n];
        for (c, (&tag, &bits)) in tags.iter().zip(states).enumerate() {
            if tag == line.as_u64() && bits != 0 {
                view.mask |= 1 << c;
                let s = State::from_bits(bits);
                if s.is_ownerlike() {
                    view.owner = Some((c, s));
                }
            }
        }
        view
    }
}

/// The SILO protocol engine: N private nodes over N private vaults,
/// whose tags double as the duplicate-tag MOESI directory homed by
/// address interleave.
#[derive(Clone, Debug)]
pub struct PrivateMoesi {
    nodes: Vec<Node>,
    rows: Rows,
    ideal_miss_predict: bool,
    o_state_forwarding: bool,
    stats: CoherenceStats,
}

impl PrivateMoesi {
    /// Builds the SILO hierarchy for `n_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero or exceeds 64.
    pub fn new(n_cores: usize, cfg: &PrivateMoesiConfig) -> Self {
        assert!(
            (1..=64).contains(&n_cores),
            "core count {n_cores} outside [1, 64]"
        );
        // Direct-mapped: one line per set, floored to a power of two.
        let lines = cfg.vault_capacity.scaled_down(cfg.scale).lines().max(1);
        let sets = 1 << (63 - lines.leading_zeros());
        PrivateMoesi {
            nodes: (0..n_cores)
                .map(|_| Node::new(&cfg.node_spec, cfg.scale))
                .collect(),
            rows: Rows::new(n_cores, sets, sets <= DENSE_MAX_LINES),
            ideal_miss_predict: cfg.ideal_miss_predict,
            o_state_forwarding: cfg.o_state_forwarding,
            stats: CoherenceStats::default(),
        }
    }

    /// Coherence event counters since construction (or the last
    /// [`PrivateMoesi::reset_stats`]).
    pub fn stats(&self) -> CoherenceStats {
        self.stats
    }

    /// Zeroes the event counters without touching any protocol state
    /// (the telemetry warmup boundary).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Number of cores/nodes.
    pub fn n_cores(&self) -> usize {
        self.nodes.len()
    }

    /// Directory home node of a line (address-interleaved, scrambled).
    #[inline]
    pub fn home_of(&self, line: LineAddr) -> usize {
        line.interleave(self.nodes.len())
    }

    /// Host-cache prefetch hint for an upcoming access by `core` to
    /// `line`: warms the local vault slot's tag and state, the hottest
    /// and largest arrays on the access path. Changes no simulated
    /// state, and fills no row. Large vaults have no row address before
    /// a hash probe, so there the hint does nothing.
    #[inline]
    pub fn prefetch_hint(&self, core: usize, line: LineAddr) {
        if let RowMap::Dense(_) = self.rows.map {
            if let Some(row) = self.rows.row(line) {
                silo_cache::prefetch(&self.rows.tags[row + core]);
                silo_cache::prefetch(&self.rows.states[row + core]);
            }
        }
    }

    /// Whether dirty reads forward through the O state (the paper's
    /// protocol) instead of writing back to memory (`silo-no-forward`).
    pub fn o_state_forwarding(&self) -> bool {
        self.o_state_forwarding
    }

    /// True when `core`'s SRAM hierarchy (L1-I, L1-D, or L2) holds the
    /// line. Read-only introspection for the model checker.
    pub fn sram_contains(&self, core: usize, line: LineAddr) -> bool {
        self.nodes[core].contains(line)
    }

    /// The coherence state of `line` in `core`'s vault, which is also
    /// the directory's record of it (I when absent). Read-only.
    pub fn vault_state(&self, core: usize, line: LineAddr) -> State {
        self.rows
            .row(line)
            .map_or(State::I, |row| self.rows.state_at(row + core, line))
    }

    /// Executes one memory reference from `core` and returns the protocol
    /// steps for the timing simulator.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, mr: MemRef) -> AccessResult {
        let mut r = AccessResult::default();
        self.access_into(core, mr, &mut r);
        r
    }

    /// [`PrivateMoesi::access`] writing into a caller-owned result, so a
    /// hot loop can reuse the step buffers instead of allocating two
    /// vectors per access.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access_into(&mut self, core: usize, mr: MemRef, r: &mut AccessResult) {
        assert!(core < self.nodes.len(), "core {core} out of range");
        r.clear();
        r.line = mr.line;
        r.is_write = mr.kind.is_write();
        match self.nodes[core].probe(mr.line, mr.kind) {
            SramHit::L1 => {
                r.served = Some(ServedBy::L1);
                if mr.kind.is_write() {
                    self.write_permission(core, mr.line, r);
                }
            }
            SramHit::L2 => {
                r.served = Some(ServedBy::L2);
                if mr.kind.is_write() {
                    self.write_permission(core, mr.line, r);
                }
            }
            SramHit::Miss => self.sram_miss(core, mr, r),
        }
    }

    /// Ensures `core` may write a line it already caches (SRAM or vault
    /// hit): silent E->M, or an upgrade transaction for S/O copies.
    fn write_permission(&mut self, core: usize, line: LineAddr, r: &mut AccessResult) {
        let row = self
            .rows
            .row(line)
            .expect("SRAM-resident line must be vault-resident (inclusion)");
        match self.rows.state_at(row + core, line) {
            State::M => {}
            // Silent upgrade: no transaction.
            State::E => self.rows.states[row + core] = State::M.to_bits(),
            State::S | State::O => self.upgrade(core, line, row, r),
            State::I => unreachable!("SRAM-resident line must be vault-resident (inclusion)"),
        }
    }

    /// Write-upgrade transaction: invalidate every other holder through
    /// the home directory, then take M.
    fn upgrade(&mut self, core: usize, line: LineAddr, row: usize, r: &mut AccessResult) {
        r.llc_access = true;
        self.stats.upgrades.inc();
        let home = self.home_of(line);
        r.steps.push(Step::Net {
            from: core,
            to: home,
        });
        r.steps.push(Step::VaultAccess { node: home });
        let mask = self.rows.view(row, line).mask & !(1u64 << core);
        if mask != 0 {
            r.steps.push(Step::Invalidations { home, mask });
            self.invalidate_holders(line, row, mask);
        }
        r.steps.push(Step::Net {
            from: home,
            to: core,
        });
        self.rows.states[row + core] = State::M.to_bits();
        r.background.push(Background::DirUpdate {
            home,
            ways: mask.count_ones() + 1,
        });
    }

    /// Handles an access that missed every SRAM level.
    fn sram_miss(&mut self, core: usize, mr: MemRef, r: &mut AccessResult) {
        r.llc_access = true;
        let line = mr.line;
        let is_write = mr.kind.is_write();
        // Every SRAM miss either hits the vault or fills it, so the row
        // is needed either way.
        let row = self.rows.row_or_insert(line);

        // Local vault TAD probe.
        if self.rows.state_at(row + core, line).is_valid() {
            r.steps.push(Step::VaultAccess { node: core });
            r.served = Some(ServedBy::LocalVault);
            if is_write {
                self.write_permission(core, line, r);
            }
            // SRAM victims stay vault-resident: no directory update.
            self.nodes[core].fill_untracked(line, mr.kind);
            return;
        }
        // Known local miss: with the ideal miss predictor the TAD probe is
        // skipped; otherwise the failed DRAM access is on the critical path.
        if !self.ideal_miss_predict {
            r.steps.push(Step::VaultAccess { node: core });
        }

        // Go to the home directory.
        let home = self.home_of(line);
        r.steps.push(Step::Net {
            from: core,
            to: home,
        });
        r.steps.push(Step::VaultAccess { node: home });
        let view = self.rows.view(row, line);
        let mask = view.mask & !(1u64 << core);
        let mut dir_ways = 1u32;

        let new_state = if let Some((o, ostate)) = view.owner {
            debug_assert_ne!(o, core, "requester missed its vault, so cannot own");
            // Forward from the owner's vault.
            r.steps.push(Step::Net { from: home, to: o });
            r.steps.push(Step::VaultAccess { node: o });
            r.steps.push(Step::Net { from: o, to: core });
            r.served = Some(ServedBy::RemoteVault);
            if is_write {
                // Invalidate the owner (rides the forward) and, in
                // parallel, any S sharers.
                let sharer_mask = mask & !(1u64 << o);
                if sharer_mask != 0 {
                    r.steps.push(Step::Invalidations {
                        home,
                        mask: sharer_mask,
                    });
                }
                self.invalidate_holders(line, row, mask);
                dir_ways += mask.count_ones();
                State::M
            } else {
                // MOESI read: dirty owners keep supplying without a
                // writeback (M->O); clean exclusives degrade to S. With
                // O-state forwarding disabled the dirty owner instead
                // writes back to memory and degrades to S.
                let downgraded = match ostate {
                    State::M | State::O if self.o_state_forwarding => {
                        self.stats.o_state_forwards.inc();
                        State::O
                    }
                    State::M | State::O => {
                        r.background.push(Background::MemoryWrite);
                        self.stats.dirty_writebacks.inc();
                        State::S
                    }
                    State::E => State::S,
                    _ => unreachable!("owner must be ownerlike"),
                };
                self.rows.states[row + o] = downgraded.to_bits();
                dir_ways += 1;
                State::S
            }
        } else if mask != 0 {
            // Clean sharers only: forward from the first holder's vault.
            let s = mask.trailing_zeros() as usize;
            r.steps.push(Step::Net { from: home, to: s });
            r.steps.push(Step::VaultAccess { node: s });
            r.steps.push(Step::Net { from: s, to: core });
            r.served = Some(ServedBy::RemoteVault);
            if is_write {
                r.steps.push(Step::Invalidations { home, mask });
                self.invalidate_holders(line, row, mask);
                dir_ways += mask.count_ones();
                State::M
            } else {
                State::S
            }
        } else {
            // Uncached anywhere: main memory.
            r.steps.push(Step::Memory);
            r.steps.push(Step::Net {
                from: home,
                to: core,
            });
            r.served = Some(ServedBy::Memory);
            if is_write {
                State::M
            } else {
                State::E
            }
        };

        r.background.push(Background::DirUpdate {
            home,
            ways: dir_ways,
        });

        // Fill the vault slot. Overwriting a direct-mapped victim is also
        // its directory update at its home; the victim leaves the SRAM
        // (inclusion), and dirty data goes back to memory.
        let slot = row + core;
        let victim = State::from_bits(self.rows.states[slot]);
        let victim_line =
            LineAddr::new(std::mem::replace(&mut self.rows.tags[slot], line.as_u64()));
        self.rows.states[slot] = new_state.to_bits();
        if victim.is_valid() {
            self.nodes[core].invalidate(victim_line);
            self.stats.directory_evictions.inc();
            if victim.is_dirty() {
                self.stats.dirty_writebacks.inc();
            }
            r.background.push(Background::DirUpdate {
                home: self.home_of(victim_line),
                ways: 1,
            });
        }
        r.background.push(Background::VaultFill {
            node: core,
            dirty_writeback: victim.is_dirty(),
        });
        self.nodes[core].fill_untracked(line, mr.kind);
    }

    /// Invalidates every node in `mask`: its vault slot in `row` (and so
    /// its directory entry) and its SRAM. Invalidated dirty copies need
    /// no writeback — they are superseded by the requester's M copy.
    fn invalidate_holders(&mut self, line: LineAddr, row: usize, mask: u64) {
        self.stats.invalidations.add(u64::from(mask.count_ones()));
        for node in 0..self.nodes.len() {
            if mask & (1u64 << node) != 0 {
                self.rows.states[row + node] = State::I.to_bits();
                self.nodes[node].invalidate(line);
            }
        }
    }

    /// Verifies the MOESI invariants over every row: each valid slot
    /// sits in the row its line indexes, at most one holder of a line is
    /// owner-like (M/O/E), and M or E is the only valid copy.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check(&self) -> Result<(), String> {
        let rows = &self.rows;
        for slot in (0..rows.states.len()).filter(|&slot| rows.states[slot] != 0) {
            let (row, line) = (slot - slot % rows.n, LineAddr::new(rows.tags[slot]));
            if rows.row(line) != Some(row) {
                return Err(format!(
                    "{line}: vault {} holds it outside its set's row",
                    slot - row
                ));
            }
            let holders: Vec<State> = (row..row + rows.n)
                .map(|w| rows.state_at(w, line))
                .filter(|s| s.is_valid())
                .collect();
            let ownerlike = holders.iter().filter(|s| s.is_ownerlike()).count();
            if ownerlike > 1 {
                return Err(format!("{line}: {ownerlike} owner-like copies"));
            }
            if holders.len() > 1 && holders.iter().any(|s| s.can_write_silently()) {
                return Err(format!("{line}: M/E coexists with other copies"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use silo_types::MemRef;

    fn small() -> PrivateMoesi {
        PrivateMoesi::new(
            4,
            &PrivateMoesiConfig {
                vault_capacity: ByteSize::from_kib(64),
                scale: 1,
                ..PrivateMoesiConfig::default()
            },
        )
    }

    #[test]
    fn cold_read_goes_to_memory_and_takes_e() {
        let mut p = small();
        let l = LineAddr::new(42);
        let r = p.access(0, MemRef::read(l));
        assert_eq!(r.served_by(), ServedBy::Memory);
        assert!(r.llc_access);
        assert!(r.steps.contains(&Step::Memory));
        assert_eq!(p.vault_state(0, l), State::E);
        p.check().unwrap();
    }

    #[test]
    fn second_access_hits_l1_silently() {
        let mut p = small();
        let l = LineAddr::new(42);
        p.access(0, MemRef::read(l));
        let r = p.access(0, MemRef::read(l));
        assert_eq!(r.served_by(), ServedBy::L1);
        assert!(!r.llc_access);
        assert!(r.steps.is_empty());
    }

    #[test]
    fn remote_read_forwards_from_owner_vault() {
        let mut p = small();
        let l = LineAddr::new(42);
        p.access(0, MemRef::read(l));
        let r = p.access(1, MemRef::read(l));
        assert_eq!(r.served_by(), ServedBy::RemoteVault);
        // E owner degrades to S on a clean read.
        assert_eq!(p.vault_state(0, l), State::S);
        assert_eq!(p.vault_state(1, l), State::S);
        p.check().unwrap();
    }

    #[test]
    fn dirty_owner_moves_to_o_without_writeback() {
        let mut p = small();
        let l = LineAddr::new(42);
        p.access(0, MemRef::write(l));
        assert_eq!(p.vault_state(0, l), State::M);
        let r = p.access(1, MemRef::read(l));
        assert_eq!(r.served_by(), ServedBy::RemoteVault);
        assert_eq!(p.vault_state(0, l), State::O);
        assert_eq!(p.vault_state(1, l), State::S);
        // No memory step anywhere: the O state avoided the writeback.
        assert!(!r.steps.contains(&Step::Memory));
        p.check().unwrap();
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut p = small();
        let l = LineAddr::new(42);
        p.access(0, MemRef::read(l));
        p.access(1, MemRef::read(l));
        p.access(2, MemRef::read(l));
        let r = p.access(3, MemRef::write(l));
        assert_eq!(r.served_by(), ServedBy::RemoteVault);
        assert!(r
            .steps
            .iter()
            .any(|s| matches!(s, Step::Invalidations { .. })));
        for core in 0..3 {
            assert_eq!(p.vault_state(core, l), State::I);
        }
        assert_eq!(p.vault_state(3, l), State::M);
        p.check().unwrap();
    }

    #[test]
    fn upgrade_on_l1_write_hit_to_shared_line() {
        let mut p = small();
        let l = LineAddr::new(42);
        p.access(0, MemRef::read(l));
        p.access(1, MemRef::read(l));
        // Core 0 has the line in L1 (S in vault): write hits SRAM but
        // needs an upgrade transaction.
        let r = p.access(0, MemRef::write(l));
        assert_eq!(r.served_by(), ServedBy::L1);
        assert!(r.llc_access, "upgrade is a coherence transaction");
        assert_eq!(p.vault_state(0, l), State::M);
        assert_eq!(p.vault_state(1, l), State::I);
        p.check().unwrap();
    }

    #[test]
    fn silent_e_to_m_upgrade_is_free() {
        let mut p = small();
        let l = LineAddr::new(42);
        p.access(0, MemRef::read(l));
        let r = p.access(0, MemRef::write(l));
        assert!(!r.llc_access);
        assert!(r.steps.is_empty());
        assert_eq!(p.vault_state(0, l), State::M);
        p.check().unwrap();
    }

    #[test]
    fn vault_conflict_evicts_and_back_invalidates() {
        let mut p = small();
        // 64 KiB direct-mapped vault = 1024 lines; lines l and l+1024
        // conflict.
        let a = LineAddr::new(7);
        let b = LineAddr::new(7 + 1024);
        p.access(0, MemRef::write(a));
        p.access(0, MemRef::read(b));
        assert_eq!(p.vault_state(0, a), State::I, "victim retired");
        assert_eq!(p.vault_state(0, b), State::E);
        // A re-access misses SRAM and vault: memory again.
        let r = p.access(0, MemRef::read(a));
        assert_eq!(r.served_by(), ServedBy::Memory);
        p.check().unwrap();
    }

    #[test]
    fn local_vault_hit_after_sram_eviction() {
        // 128 KiB direct-mapped vault (2048 sets) so the L1-thrashing
        // lines below never alias line 3's vault set.
        let mut p = PrivateMoesi::new(
            4,
            &PrivateMoesiConfig {
                vault_capacity: ByteSize::from_kib(128),
                scale: 1,
                ..PrivateMoesiConfig::default()
            },
        );
        let l = LineAddr::new(3);
        p.access(0, MemRef::read(l));
        // Thrash L1-D (64 KiB, 8-way at scale 1 = 128 sets; same-set
        // lines are 128 apart) to evict l from SRAM only.
        for i in 1..=8 {
            p.access(0, MemRef::read(LineAddr::new(3 + i * 128)));
        }
        let r = p.access(0, MemRef::read(l));
        assert_eq!(r.served_by(), ServedBy::LocalVault);
        assert_eq!(r.steps, vec![Step::VaultAccess { node: 0 }]);
        p.check().unwrap();
    }

    #[test]
    fn disabled_o_forwarding_writes_back_and_degrades_to_s() {
        let mut p = PrivateMoesi::new(
            4,
            &PrivateMoesiConfig {
                vault_capacity: ByteSize::from_kib(64),
                scale: 1,
                o_state_forwarding: false,
                ..PrivateMoesiConfig::default()
            },
        );
        let l = LineAddr::new(42);
        p.access(0, MemRef::write(l));
        assert_eq!(p.vault_state(0, l), State::M);
        let r = p.access(1, MemRef::read(l));
        // Data still forwards from the owner's vault, but the dirty line
        // goes back to memory and the owner degrades to S, never O.
        assert_eq!(r.served_by(), ServedBy::RemoteVault);
        assert!(r.background.contains(&Background::MemoryWrite));
        assert_eq!(p.vault_state(0, l), State::S);
        assert_eq!(p.vault_state(1, l), State::S);
        p.check().unwrap();
    }

    #[test]
    fn non_ideal_predictor_charges_failed_probe() {
        let mut p = PrivateMoesi::new(
            2,
            &PrivateMoesiConfig {
                vault_capacity: ByteSize::from_kib(64),
                scale: 1,
                ideal_miss_predict: false,
                ..PrivateMoesiConfig::default()
            },
        );
        let r = p.access(0, MemRef::read(LineAddr::new(1)));
        assert_eq!(r.steps.first(), Some(&Step::VaultAccess { node: 0 }));
    }

    #[test]
    fn stats_count_forwards_invalidations_and_evictions() {
        let mut p = small();
        let l = LineAddr::new(42);
        p.access(0, MemRef::write(l));
        p.access(1, MemRef::read(l)); // dirty forward, M -> O
        assert_eq!(p.stats().o_state_forwards.get(), 1);
        p.access(2, MemRef::write(l)); // invalidates owner 0 and sharer 1
        assert_eq!(p.stats().invalidations.get(), 2);
        // Vault conflict: 64 KiB direct-mapped = 1024 lines.
        p.access(2, MemRef::read(LineAddr::new(42 + 1024)));
        assert_eq!(p.stats().directory_evictions.get(), 1);
        assert!(p.stats().dirty_writebacks.get() >= 1, "dirty victim");
        p.reset_stats();
        assert_eq!(p.stats(), crate::CoherenceStats::default());
        p.check().unwrap();
    }

    /// A 4-core engine whose 8 MiB scale-1 vaults (128 Ki sets) find
    /// their rows through the sparse map.
    fn large() -> PrivateMoesi {
        PrivateMoesi::new(
            4,
            &PrivateMoesiConfig {
                vault_capacity: ByteSize::from_mib(8),
                scale: 1,
                ..PrivateMoesiConfig::default()
            },
        )
    }

    #[test]
    fn a_fresh_engine_holds_no_rows() {
        for p in [
            small(),
            large(),
            PrivateMoesi::new(16, &PrivateMoesiConfig::default()),
        ] {
            assert!(p.rows.tags.is_empty() && p.rows.states.is_empty());
        }
        assert!(matches!(small().rows.map, RowMap::Dense(_)));
        assert!(matches!(large().rows.map, RowMap::Sparse(_)));
    }

    #[test]
    fn each_filled_set_allocates_one_row() {
        for mut p in [small(), large()] {
            let sets = p.rows.set_mask + 1;
            // Five sets, each filled from several cores, re-read, and
            // hit by a conflicting line: one row apiece.
            for (k, set) in [3u64, 900, 17, 1023, 511].into_iter().enumerate() {
                for core in 0..4 {
                    p.access(core, MemRef::read(LineAddr::new(set)));
                }
                p.access(1, MemRef::write(LineAddr::new(set + sets)));
                assert_eq!(p.rows.tags.len(), (k + 1) * 4);
                assert_eq!(p.rows.states.len(), (k + 1) * 4);
            }
            p.check().unwrap();
        }
    }

    #[test]
    fn reads_of_never_filled_sets_allocate_nothing() {
        for mut p in [small(), large()] {
            p.access(0, MemRef::write(LineAddr::new(5)));
            for line in [6u64, 1 << 20, 77, 5 + (1 << 30)].map(LineAddr::new) {
                for core in 0..4 {
                    assert_eq!(p.vault_state(core, line), State::I);
                    p.prefetch_hint(core, line);
                }
            }
            p.check().unwrap();
            assert_eq!(p.rows.tags.len(), 4, "only line 5's set has a row");
            assert_eq!(p.rows.states.len(), 4);
        }
    }

    #[test]
    fn dense_and_sparse_maps_give_the_same_rows() {
        const OPS: usize = if cfg!(miri) { 300 } else { 20_000 };
        let (mut dense, mut sparse) = (Rows::new(3, 256, true), Rows::new(3, 256, false));
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..OPS {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = LineAddr::new((rng >> 20) % 4096);
            if rng >> 62 == 0 {
                assert_eq!(dense.row_or_insert(line), sparse.row_or_insert(line));
            } else {
                assert_eq!(dense.row(line), sparse.row(line), "{line}");
            }
            assert_eq!(dense.tags.len(), sparse.tags.len());
        }
        assert_eq!(dense.tags.len(), 256 * 3, "every set filled by the end");
    }

    #[test]
    fn served_classification_is_always_set() {
        let mut p = small();
        let mut rng = 0x1234_5678_u64;
        for i in 0..2000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let core = (rng >> 33) as usize % 4;
            let line = LineAddr::new((rng >> 17) % 4096);
            let mr = if i % 3 == 0 {
                MemRef::write(line)
            } else {
                MemRef::read(line)
            };
            let r = p.access(core, mr);
            let _ = r.served_by();
        }
        p.check().unwrap();
    }
}
