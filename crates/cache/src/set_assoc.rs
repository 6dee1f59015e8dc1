//! Set-associative cache array with pluggable replacement.
//!
//! The array stores an arbitrary payload per resident line (coherence
//! state, dirty bit, ...). Small arrays are flat slot vectors; beyond
//! 64 Ki lines sets are allocated lazily in a hash map, so that
//! multi-hundred-MB caches cost memory proportional to the lines
//! actually touched.

use silo_types::hash::{fx_map_with_capacity, FxHashMap};
use silo_types::{ByteSize, LineAddr};

use crate::prefetch;

/// Upper bound on the number of set buckets reserved up front.
///
/// Pre-sizing avoids rehash-and-move cycles while a run warms the
/// cache, but a full-capacity reservation would defeat the sparse
/// design (a full-scale LLC bank has many sets, most untouched in a
/// short run). 4096 buckets gives the large tables a rehash-free head
/// start at negligible memory cost.
const PRESIZE_SETS: u64 = 1 << 12;

/// Replacement policy for a set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used (the paper's baseline LLC policy, Table II).
    #[default]
    Lru,
    /// Pseudo-random (deterministic, hash-of-line based).
    Random,
}

/// A line evicted by an insertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictionVictim<P> {
    /// The evicted line.
    pub line: LineAddr,
    /// The payload it carried.
    pub payload: P,
}

#[derive(Clone, Debug)]
struct Way<P> {
    line: LineAddr,
    payload: P,
    /// Recency stamp; larger is more recent.
    stamp: u64,
}

/// Storage-dense arrays up to this many lines (`sets * ways`) skip the
/// hash map for a flat slot vector indexed by set: every probe becomes
/// an offset instead of a hash + bucket walk. 64 Ki lines covers every
/// SRAM array and the scale-64 LLC banks at a few MB apiece, while
/// full-scale arrays stay sparse.
const DENSE_MAX_LINES: u64 = 1 << 16;

/// Backing store, specialized by geometry.
///
/// * `Dense` — flat structure-of-arrays store for small LRU arrays
///   (every probe on the simulated L1/LLC path hits one of these, so
///   this is the hot layout). Slot `s*ways + w` is way `w` of set `s`,
///   and the slot's line, recency stamp and payload live in three
///   parallel arrays, so one set's tags are contiguous: an 8-way set's
///   tags fill one 64-byte host line. A slot is empty exactly when its
///   stamp is 0. Ticks start at 1, so no resident line has stamp 0;
///   the tag cannot mark emptiness because a [`LineAddr`] may be any
///   `u64`. An empty slot's tag and payload are stale and never read as
///   a line. Bit-compatible with the sparse layouts because recency
///   stamps are globally unique, so the LRU victim is identified by
///   stamp value alone, never by slot order; it is therefore not used
///   for multi-way `Random` arrays, whose victim pick is order-sensitive.
///   A direct-mapped (`ways == 1`) array is dense under either policy:
///   with one way the victim is always the sole resident line, so
///   neither recency nor the victim pick can be observed.
/// * `Assoc` — sparse set-associative: lazily allocated way lists.
#[derive(Clone, Debug)]
enum Table<P> {
    Dense(Dense<P>),
    Assoc(FxHashMap<u64, Vec<Way<P>>>),
}

/// The `Dense` table's parallel slot arrays (see [`Table`]).
#[derive(Clone, Debug)]
struct Dense<P> {
    tags: Box<[u64]>,
    /// Recency stamp per slot; 0 marks an empty slot.
    stamps: Box<[u64]>,
    /// `Some` exactly when the slot's stamp is nonzero.
    payloads: Box<[Option<P>]>,
}

impl<P> Dense<P> {
    fn new(lines: usize) -> Self {
        Dense {
            tags: vec![0; lines].into_boxed_slice(),
            stamps: vec![0; lines].into_boxed_slice(),
            payloads: std::iter::repeat_with(|| None).take(lines).collect(),
        }
    }

    /// Slot index of `line` among the `ways` slots from `base`.
    #[inline]
    fn find(&self, base: usize, ways: usize, line: LineAddr) -> Option<usize> {
        let tags = &self.tags[base..base + ways];
        let stamps = &self.stamps[base..base + ways];
        (0..ways)
            .find(|&w| tags[w] == line.as_u64() && stamps[w] != 0)
            .map(|w| base + w)
    }
}

/// A set-associative cache keyed by [`LineAddr`] with payload `P`.
///
/// # Examples
///
/// ```
/// use silo_cache::{ReplacementPolicy, SetAssocCache};
/// use silo_types::{ByteSize, LineAddr};
///
/// let mut l1: SetAssocCache<()> =
///     SetAssocCache::with_capacity_rounded(ByteSize::from_kib(64), 8, ReplacementPolicy::Lru);
/// assert!(l1.get(LineAddr::new(42)).is_none());
/// l1.insert(LineAddr::new(42), ());
/// assert!(l1.get(LineAddr::new(42)).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache<P> {
    sets: u64,
    ways: usize,
    policy: ReplacementPolicy,
    table: Table<P>,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl<P> SetAssocCache<P> {
    /// Creates a cache with an explicit set count and associativity.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `ways` is zero.
    pub fn new(sets: u64, ways: usize, policy: ReplacementPolicy) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0, "need at least one way");
        let buckets = sets.min(PRESIZE_SETS) as usize;
        let lines = sets.saturating_mul(ways as u64);
        let table = if lines <= DENSE_MAX_LINES && (ways == 1 || policy == ReplacementPolicy::Lru) {
            Table::Dense(Dense::new(lines as usize))
        } else {
            Table::Assoc(fx_map_with_capacity(buckets))
        };
        SetAssocCache {
            sets,
            ways,
            policy,
            table,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Creates a cache sized for `capacity` with the given associativity,
    /// flooring the set count to a power of two and to at least one set:
    /// capacities are derived (scaled by an arbitrary factor or split
    /// across an arbitrary bank count) and need not divide evenly.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero.
    pub fn with_capacity_rounded(
        capacity: ByteSize,
        ways: usize,
        policy: ReplacementPolicy,
    ) -> Self {
        assert!(ways > 0, "need at least one way");
        let sets = (capacity.lines() / ways as u64).max(1);
        let sets = 1u64 << (63 - sets.leading_zeros());
        Self::new(sets, ways, policy)
    }

    /// Total line capacity.
    pub fn capacity_lines(&self) -> u64 {
        self.sets * self.ways as u64
    }

    /// Lines currently resident.
    pub fn len(&self) -> usize {
        match &self.table {
            Table::Dense(d) => d.stamps.iter().filter(|&&s| s != 0).count(),
            Table::Assoc(m) => m.values().map(Vec::len).sum(),
        }
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        match &self.table {
            Table::Dense(d) => d.stamps.iter().all(|&s| s == 0),
            Table::Assoc(m) => m.is_empty(),
        }
    }

    /// Set index of a line (low-order bits, as in a real indexed array).
    #[inline]
    fn set_of(&self, line: LineAddr) -> u64 {
        line.as_u64() & (self.sets - 1)
    }

    /// Hints the host CPU to pull the line's set into cache ahead of an
    /// upcoming [`get`](Self::get)/[`insert`](Self::insert). Purely a
    /// performance hint: recency, counters, and contents are untouched,
    /// so issuing it (or not) can never change simulation results. The
    /// run loop issues these one round-robin turn ahead, hiding the
    /// host-memory latency of the multi-MB dense LLC bank arrays. Sparse
    /// tables hash-probe, so they have no slot address to hint and the
    /// call is a no-op.
    #[inline]
    pub fn prefetch(&self, line: LineAddr) {
        if let Table::Dense(d) = &self.table {
            prefetch(&d.tags[self.set_of(line) as usize * self.ways]);
        }
    }

    /// Looks up a line, updating recency on hit. Counts hit/miss stats.
    #[inline]
    pub fn get(&mut self, line: LineAddr) -> Option<&mut P> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let ways_n = self.ways;
        let hit = match &mut self.table {
            Table::Dense(d) => d.find(set as usize * ways_n, ways_n, line).and_then(|i| {
                d.stamps[i] = tick;
                d.payloads[i].as_mut()
            }),
            Table::Assoc(m) => match m.get_mut(&set) {
                Some(ways) => ways.iter_mut().find(|w| w.line == line).map(|w| {
                    w.stamp = tick;
                    &mut w.payload
                }),
                None => None,
            },
        };
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Looks up a line without touching recency or statistics.
    pub fn peek(&self, line: LineAddr) -> Option<&P> {
        let set = self.set_of(line);
        match &self.table {
            Table::Dense(d) => d
                .find(set as usize * self.ways, self.ways, line)
                .and_then(|i| d.payloads[i].as_ref()),
            Table::Assoc(m) => m
                .get(&set)?
                .iter()
                .find(|w| w.line == line)
                .map(|w| &w.payload),
        }
    }

    /// True when the line is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts a line, returning the victim if the set was full.
    ///
    /// If the line is already resident its payload is replaced and recency
    /// refreshed; no eviction happens.
    pub fn insert(&mut self, line: LineAddr, payload: P) -> Option<EvictionVictim<P>> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let ways_n = self.ways;
        let evicted = match &mut self.table {
            Table::Dense(d) => {
                // One pass over the set: the resident copy of `line`, else
                // the first empty slot, else the least-recent way (stamps
                // are unique, so the minimum is unambiguous). Multi-way
                // dense tables are LRU only (see `Table`).
                let base = set as usize * ways_n;
                let tags = &d.tags[base..base + ways_n];
                let stamps = &d.stamps[base..base + ways_n];
                let mut empty = None;
                let mut lru = (u64::MAX, 0);
                for w in 0..ways_n {
                    let stamp = stamps[w];
                    if stamp == 0 {
                        empty = empty.or(Some(w));
                    } else if tags[w] == line.as_u64() {
                        d.stamps[base + w] = tick;
                        d.payloads[base + w] = Some(payload);
                        return None;
                    } else if stamp < lru.0 {
                        lru = (stamp, w);
                    }
                }
                let i = base + empty.unwrap_or(lru.1);
                d.stamps[i] = tick;
                let old = d.payloads[i].replace(payload);
                let old_line = std::mem::replace(&mut d.tags[i], line.as_u64());
                old.map(|payload| Way {
                    line: LineAddr::new(old_line),
                    payload,
                    stamp: 0,
                })
            }
            Table::Assoc(m) => {
                let new_way = Way {
                    line,
                    payload,
                    stamp: tick,
                };
                let ways = m.entry(set).or_default();

                if let Some(w) = ways.iter_mut().find(|w| w.line == line) {
                    *w = new_way;
                    return None;
                }

                if ways.len() < self.ways {
                    ways.push(new_way);
                    return None;
                }

                let victim_idx = match self.policy {
                    ReplacementPolicy::Lru => ways
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, w)| w.stamp)
                        .map(|(i, _)| i)
                        .expect("set is full, so non-empty"),
                    ReplacementPolicy::Random => (line.scramble() ^ tick) as usize % ways.len(),
                };
                Some(std::mem::replace(&mut ways[victim_idx], new_way))
            }
        };

        evicted.map(|old| EvictionVictim {
            line: old.line,
            payload: old.payload,
        })
    }

    /// Removes a line, returning its payload.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<P> {
        let set = self.set_of(line);
        match &mut self.table {
            Table::Dense(d) => {
                let i = d.find(set as usize * self.ways, self.ways, line)?;
                d.stamps[i] = 0;
                d.payloads[i].take()
            }
            Table::Assoc(m) => {
                let ways = m.get_mut(&set)?;
                let idx = ways.iter().position(|w| w.line == line)?;
                let w = ways.swap_remove(idx);
                if ways.is_empty() {
                    m.remove(&set);
                }
                Some(w.payload)
            }
        }
    }

    /// Iterates over all resident (line, payload) pairs in arbitrary
    /// order; used by invariant checks and warm-state inspection.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &P)> {
        let (dense, assoc) = match &self.table {
            Table::Dense(s) => (Some(s), None),
            Table::Assoc(m) => (None, Some(m)),
        };
        dense
            .into_iter()
            .flat_map(|d| {
                d.tags
                    .iter()
                    .zip(d.payloads.iter())
                    .filter_map(|(&t, p)| Some((LineAddr::new(t), p.as_ref()?)))
            })
            .chain(assoc.into_iter().flat_map(|m| {
                m.values()
                    .flat_map(|ways| ways.iter().map(|w| (w.line, &w.payload)))
            }))
    }

    /// Hits recorded by [`get`](Self::get).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded by [`get`](Self::get).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets hit/miss statistics, keeping contents (used at the
    /// warmup/measurement boundary).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(ways: usize) -> SetAssocCache<u32> {
        // 4 sets.
        SetAssocCache::new(4, ways, ReplacementPolicy::Lru)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny(2);
        assert!(c.get(LineAddr::new(5)).is_none());
        c.insert(LineAddr::new(5), 7);
        assert_eq!(c.get(LineAddr::new(5)), Some(&mut 7));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2);
        // Lines 0, 4, 8 all map to set 0.
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(4), 4);
        // Touch 0 so 4 becomes LRU.
        c.get(LineAddr::new(0));
        let victim = c.insert(LineAddr::new(8), 8).expect("eviction");
        assert_eq!(victim.line, LineAddr::new(4));
        assert!(c.contains(LineAddr::new(0)));
        assert!(c.contains(LineAddr::new(8)));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(4, 1, ReplacementPolicy::Lru);
        c.insert(LineAddr::new(1), ());
        let v = c.insert(LineAddr::new(5), ()).expect("conflict eviction");
        assert_eq!(v.line, LineAddr::new(1));
        assert!(!c.contains(LineAddr::new(1)));
    }

    #[test]
    fn reinsert_updates_payload_without_eviction() {
        let mut c = tiny(2);
        c.insert(LineAddr::new(3), 1);
        assert!(c.insert(LineAddr::new(3), 9).is_none());
        assert_eq!(c.peek(LineAddr::new(3)), Some(&9));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny(2);
        c.insert(LineAddr::new(3), 1);
        assert_eq!(c.invalidate(LineAddr::new(3)), Some(1));
        assert!(!c.contains(LineAddr::new(3)));
        assert_eq!(c.invalidate(LineAddr::new(3)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_disturb_lru_or_stats() {
        let mut c = tiny(2);
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(4), 4);
        // Peek 0; 0 stays LRU because peek must not refresh recency.
        assert_eq!(c.peek(LineAddr::new(0)), Some(&0));
        let victim = c.insert(LineAddr::new(8), 8).expect("eviction");
        assert_eq!(victim.line, LineAddr::new(0));
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        SetAssocCache::<()>::new(3, 1, ReplacementPolicy::Lru);
    }

    #[test]
    fn with_capacity_rounded_floors_to_power_of_two() {
        // 100 lines / 8 ways = 12 sets -> floored to 8.
        let c: SetAssocCache<()> = SetAssocCache::with_capacity_rounded(
            ByteSize::from_bytes(100 * 64),
            8,
            ReplacementPolicy::Lru,
        );
        assert_eq!(c.sets, 8);
        // Smaller than one line per way still yields one set.
        let c: SetAssocCache<()> = SetAssocCache::with_capacity_rounded(
            ByteSize::from_bytes(64),
            16,
            ReplacementPolicy::Lru,
        );
        assert_eq!(c.sets, 1);
        // Exact powers of two are preserved.
        let c: SetAssocCache<()> =
            SetAssocCache::with_capacity_rounded(ByteSize::from_kib(64), 8, ReplacementPolicy::Lru);
        assert_eq!((c.sets, c.ways), (128, 8));
        assert_eq!(c.capacity_lines(), 1024);
    }

    #[test]
    fn random_policy_fills_before_evicting() {
        let mut c: SetAssocCache<()> = SetAssocCache::new(1, 4, ReplacementPolicy::Random);
        for i in 0..4 {
            assert!(c.insert(LineAddr::new(i), ()).is_none());
        }
        assert!(c.insert(LineAddr::new(99), ()).is_some());
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn iter_visits_all_lines() {
        let mut c = tiny(4);
        for i in 0..8 {
            c.insert(LineAddr::new(i), i as u32);
        }
        let mut lines: Vec<u64> = c.iter().map(|(l, _)| l.as_u64()).collect();
        lines.sort_unstable();
        assert_eq!(lines, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny(2);
        c.insert(LineAddr::new(1), 1);
        c.get(LineAddr::new(1));
        c.get(LineAddr::new(2));
        c.reset_stats();
        assert_eq!(c.hits() + c.misses(), 0);
        assert!(c.contains(LineAddr::new(1)), "reset_stats keeps contents");
    }

    /// Sets × ways beyond [`DENSE_MAX_LINES`] at one way, forcing the
    /// sparse layout for a direct-mapped array.
    fn sparse_direct() -> SetAssocCache<u32> {
        SetAssocCache::new(DENSE_MAX_LINES * 2, 1, ReplacementPolicy::Lru)
    }

    /// Sets × ways beyond [`DENSE_MAX_LINES`] at 4 ways, forcing the
    /// sparse set-associative layout.
    fn sparse_assoc() -> SetAssocCache<u32> {
        SetAssocCache::new(DENSE_MAX_LINES / 2, 4, ReplacementPolicy::Lru)
    }

    #[test]
    fn sparse_direct_mapped_conflicts_like_dense() {
        let mut c = sparse_direct();
        assert!(
            matches!(c.table, Table::Assoc(_)),
            "layout above the dense bound"
        );
        let sets = c.sets;
        c.insert(LineAddr::new(1), 10);
        assert_eq!(c.get(LineAddr::new(1)), Some(&mut 10));
        // The conflicting line one stride away evicts the resident one.
        let v = c
            .insert(LineAddr::new(1 + sets), 20)
            .expect("conflict eviction");
        assert_eq!(v.line, LineAddr::new(1));
        assert_eq!(v.payload, 10);
        assert!(!c.contains(LineAddr::new(1)));
        assert_eq!(c.invalidate(LineAddr::new(1 + sets)), Some(20));
        assert!(c.is_empty());
    }

    #[test]
    fn sparse_assoc_evicts_least_recent() {
        let mut c = sparse_assoc();
        assert!(
            matches!(c.table, Table::Assoc(_)),
            "layout above the dense bound"
        );
        let sets = c.sets;
        // Fill set 0's four ways, touch line 0 so `sets` becomes LRU.
        for i in 0..4 {
            assert!(c.insert(LineAddr::new(i * sets), i as u32).is_none());
        }
        c.get(LineAddr::new(0));
        let v = c.insert(LineAddr::new(4 * sets), 4).expect("eviction");
        assert_eq!(v.line, LineAddr::new(sets));
        assert!(c.contains(LineAddr::new(0)));
        assert_eq!(c.len(), 4);
        let mut lines: Vec<u64> = c.iter().map(|(l, _)| l.as_u64()).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![0, 2 * sets, 3 * sets, 4 * sets]);
    }

    #[test]
    fn prefetch_is_inert_on_every_layout() {
        let mut caches = [
            SetAssocCache::new(4, 1, ReplacementPolicy::Lru), // Dense, direct-mapped
            SetAssocCache::new(4, 2, ReplacementPolicy::Lru), // Dense
            sparse_direct(),                                  // Assoc, one way
            sparse_assoc(),                                   // Assoc
        ];
        for c in &mut caches {
            c.insert(LineAddr::new(3), 1);
            c.prefetch(LineAddr::new(3));
            c.prefetch(LineAddr::new(1_000_003));
            assert_eq!(c.hits(), 0, "a prefetch hint records no probe");
            assert_eq!(c.misses(), 0);
            assert_eq!(c.len(), 1, "a prefetch hint moves no lines");
            assert!(c.contains(LineAddr::new(3)));
        }
    }
}
