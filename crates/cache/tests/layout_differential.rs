//! Differential test of every `SetAssocCache` storage layout against a
//! reference LRU model.
//!
//! The cache picks its table from the geometry: `Dense` for small LRU
//! arrays and small direct-mapped ones under either policy, and the
//! sparse `Assoc` map beyond 64 Ki lines. Each
//! layout here runs seeded streams of every public operation over a
//! pool of about 40 lines, crowded into a few sets so that the sets
//! overflow and evict. After every operation the test compares return
//! values, victims, the hit/miss counters, `len` and the sorted `iter`
//! with a model that keeps, per set, a plain `Vec<(line, payload,
//! stamp)>` and the cache's tick rule: `get` and `insert` advance the
//! tick and stamp what they touch, and the LRU victim is the smallest
//! stamp.

use silo_cache::{EvictionVictim, ReplacementPolicy, SetAssocCache};
use silo_types::LineAddr;

/// Operations per stream. Miri interprets every probe, so it runs a
/// short prefix of the same streams.
const OPS: usize = if cfg!(miri) { 300 } else { 10_000 };

/// Seeds per layout.
const SEEDS: u64 = if cfg!(miri) { 1 } else { 3 };

/// Lines in each stream's pool.
const POOL: usize = 40;

/// Sets × ways above which the cache switches to its sparse tables
/// (`DENSE_MAX_LINES` in `set_assoc.rs`).
const DENSE_MAX_LINES: u64 = 1 << 16;

/// SplitMix64 over a counter: the workspace's line scrambler doubles as
/// a seeded generator, so the streams are the same on every host.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        LineAddr::new(self.0).scramble()
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One layout under test: its name, geometry and policy.
struct Layout {
    name: &'static str,
    sets: u64,
    ways: usize,
    policy: ReplacementPolicy,
}

/// Every table variant. The sets are few enough, or the pool crowded
/// enough, that each set sees more lines than it has ways.
const LAYOUTS: &[Layout] = &[
    Layout {
        name: "Dense 2-way",
        sets: 8,
        ways: 2,
        policy: ReplacementPolicy::Lru,
    },
    Layout {
        name: "Dense 8-way",
        sets: 4,
        ways: 8,
        policy: ReplacementPolicy::Lru,
    },
    Layout {
        name: "Dense 16-way",
        sets: 2,
        ways: 16,
        policy: ReplacementPolicy::Lru,
    },
    Layout {
        name: "Dense direct-mapped",
        sets: 16,
        ways: 1,
        policy: ReplacementPolicy::Lru,
    },
    // With one way the victim is the sole resident line under either
    // policy, so a direct-mapped `Random` array matches the LRU model.
    Layout {
        name: "Dense direct-mapped (random policy)",
        sets: 16,
        ways: 1,
        policy: ReplacementPolicy::Random,
    },
    Layout {
        name: "Assoc direct-mapped (sparse)",
        sets: DENSE_MAX_LINES * 2,
        ways: 1,
        policy: ReplacementPolicy::Lru,
    },
    Layout {
        name: "Assoc (sparse)",
        sets: DENSE_MAX_LINES / 2,
        ways: 4,
        policy: ReplacementPolicy::Lru,
    },
];

/// The reference: per set, the resident `(line, payload, stamp)`s.
struct Model {
    sets: Vec<Vec<(u64, u64, u64)>>,
    ways: usize,
    mask: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Model {
    /// A model of `sets` sets. Only the sets the pool touches exist:
    /// `set` finds a line's set by the position of `line & mask` in the
    /// pool's set list.
    fn new(sets: u64, ways: usize) -> Self {
        Model {
            sets: Vec::new(),
            ways,
            mask: sets - 1,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set(&mut self, line: u64, slots: &[u64]) -> &mut Vec<(u64, u64, u64)> {
        let idx = slots
            .iter()
            .position(|&s| s == line & self.mask)
            .expect("pool lines fall in the listed sets");
        if self.sets.len() <= idx {
            self.sets.resize_with(idx + 1, Vec::new);
        }
        &mut self.sets[idx]
    }

    fn get(&mut self, line: u64, slots: &[u64]) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let hit = self
            .set(line, slots)
            .iter_mut()
            .find(|w| w.0 == line)
            .map(|w| {
                w.2 = tick;
                w.1
            });
        if hit.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    fn peek(&mut self, line: u64, slots: &[u64]) -> Option<u64> {
        self.set(line, slots)
            .iter()
            .find(|w| w.0 == line)
            .map(|w| w.1)
    }

    fn insert(&mut self, line: u64, slots: &[u64], payload: u64) -> Option<(u64, u64)> {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        let set = self.set(line, slots);
        if let Some(w) = set.iter_mut().find(|w| w.0 == line) {
            *w = (line, payload, tick);
            return None;
        }
        if set.len() < ways {
            set.push((line, payload, tick));
            return None;
        }
        let lru = (0..set.len())
            .min_by_key(|&i| set[i].2)
            .expect("a full set is non-empty");
        let old = std::mem::replace(&mut set[lru], (line, payload, tick));
        Some((old.0, old.1))
    }

    fn invalidate(&mut self, line: u64, slots: &[u64]) -> Option<u64> {
        let set = self.set(line, slots);
        let i = set.iter().position(|w| w.0 == line)?;
        Some(set.remove(i).1)
    }

    fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    fn lines(&self) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = self
            .sets
            .iter()
            .flatten()
            .map(|&(l, p, _)| (l, p))
            .collect();
        all.sort_unstable();
        all
    }
}

/// About 40 distinct lines in three sets: the sets of line 0 and of
/// `u64::MAX` (both always in the pool) and set 1, with random high
/// bits. Returns the pool and its set indices.
fn pool(g: &mut Gen, sets: u64) -> (Vec<u64>, Vec<u64>) {
    let mask = sets - 1;
    // `u64::MAX & mask` is `mask`: the last set.
    let mut slots = vec![0, mask, 1 & mask];
    slots.dedup();
    let mut lines = vec![0, u64::MAX];
    while lines.len() < POOL {
        let set = slots[g.below(slots.len() as u64) as usize];
        let line = (g.next() & !mask) | set;
        if !lines.contains(&line) {
            lines.push(line);
        }
    }
    (lines, slots)
}

fn victim(v: Option<EvictionVictim<u64>>) -> Option<(u64, u64)> {
    v.map(|v| (v.line.as_u64(), v.payload))
}

fn run_stream(layout: &Layout, seed: u64) {
    let mut g = Gen(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut cache = SetAssocCache::<u64>::new(layout.sets, layout.ways, layout.policy);
    let mut model = Model::new(layout.sets, layout.ways);
    let (lines, slots) = pool(&mut g, layout.sets);
    for op in 0..OPS {
        let line = lines[g.below(lines.len() as u64) as usize];
        let addr = LineAddr::new(line);
        let payload = g.next();
        let at = || format!("{} seed {seed} op {op} line {line:#x}", layout.name);
        match g.below(100) {
            0..=34 => assert_eq!(
                cache.get(addr).copied(),
                model.get(line, &slots),
                "get: {}",
                at()
            ),
            35..=69 => assert_eq!(
                victim(cache.insert(addr, payload)),
                model.insert(line, &slots, payload),
                "insert: {}",
                at()
            ),
            70..=79 => assert_eq!(
                cache.peek(addr).copied(),
                model.peek(line, &slots),
                "peek: {}",
                at()
            ),
            80..=96 => assert_eq!(
                cache.invalidate(addr),
                model.invalidate(line, &slots),
                "invalidate: {}",
                at()
            ),
            _ => {
                cache.reset_stats();
                model.reset_stats();
            }
        }
        assert_eq!(
            (cache.hits(), cache.misses()),
            (model.hits, model.misses),
            "counters: {}",
            at()
        );
        let expected = model.lines();
        assert_eq!(cache.len(), expected.len(), "len: {}", at());
        assert_eq!(cache.is_empty(), expected.is_empty(), "is_empty: {}", at());
        let mut resident: Vec<(u64, u64)> = cache.iter().map(|(l, &p)| (l.as_u64(), p)).collect();
        resident.sort_unstable();
        assert_eq!(resident, expected, "iter: {}", at());
    }
}

#[test]
fn every_layout_matches_the_reference_lru_model() {
    for layout in LAYOUTS {
        for seed in 1..=SEEDS {
            run_stream(layout, seed);
        }
    }
}

#[test]
fn streams_evict_in_every_layout() {
    // Guards the test itself: a pool that never overflowed a set would
    // compare nothing but fills.
    for layout in LAYOUTS {
        let mut g = Gen(7);
        let mut cache = SetAssocCache::<u64>::new(layout.sets, layout.ways, layout.policy);
        let (lines, _) = pool(&mut g, layout.sets);
        let evictions = lines
            .iter()
            .chain(&lines)
            .filter(|&&line| cache.insert(LineAddr::new(line), 0).is_some())
            .count();
        assert!(evictions > 0, "{} never evicted", layout.name);
        assert!(cache.len() < lines.len(), "{}", layout.name);
    }
}
