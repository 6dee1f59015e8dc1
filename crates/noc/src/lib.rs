//! 2D mesh on-chip network model.
//!
//! The paper's 16-core chip uses a 4x4 2D mesh with 3 cycles per hop
//! (Table II). Requests to a shared NUCA LLC bank, to a directory home
//! node, or to a remote vault traverse the mesh with dimension-ordered
//! (XY) routing. The latency model is hop-count based — the paper itself
//! quotes average round-trip figures (23 cycles for a baseline LLC hit,
//! 41 for shared vaults) that we reproduce from first principles — and a
//! per-link traffic accounting layer exposes utilization statistics for
//! the interconnect-pressure discussion of Sec. V-D.

#![forbid(unsafe_code)]

use silo_types::Cycles;

/// A node coordinate in the mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Returns the id as a usize.
    pub const fn as_usize(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A `width x height` 2D mesh with XY routing.
///
/// The XY route of every ordered node pair is computed once, in
/// [`Mesh::new`]. A send only counts one message for its ordered pair
/// and returns the pair's precomputed latency, so it costs the same at
/// any distance. The traffic figures ([`messages`](Mesh::messages),
/// [`total_hops`](Mesh::total_hops), [`link_flits`](Mesh::link_flits)
/// and the link maxima) are derived from the pair counts and the route
/// table when read: every message of a pair crosses the same links, so
/// the sums are exact. The table holds `nodes^2` routes of at most
/// `width + height - 2` links each; the simulator's meshes have at most
/// 64 nodes.
#[derive(Clone, Debug)]
pub struct Mesh {
    width: usize,
    height: usize,
    hop_cycles: Cycles,
    /// `route_start[a * nodes + b]..route_start[a * nodes + b + 1]` is
    /// the slice of `route_links` the XY route from `a` to `b` crosses, so
    /// its length is the pair's hop count.
    route_start: Vec<u32>,
    /// Link indices of every route, back to back. Links are indexed as
    /// `node * 4 + direction` (0=E, 1=W, 2=N, 3=S).
    route_links: Vec<u32>,
    /// Per ordered pair `a * nodes + b`: messages sent and the one-way
    /// latency.
    pairs: Vec<Pair>,
}

/// One ordered node pair's traffic counter and latency, side by side so
/// a send touches one slot.
#[derive(Clone, Copy, Debug)]
struct Pair {
    messages: u64,
    latency: Cycles,
}

/// Direction encoding for link indexing.
const EAST: usize = 0;
const WEST: usize = 1;
const NORTH: usize = 2;
const SOUTH: usize = 3;

impl Mesh {
    /// Creates a mesh of the given dimensions with a per-hop latency.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize, hop_cycles: Cycles) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        let nodes = width * height;
        let mut route_start = Vec::with_capacity(nodes * nodes + 1);
        let mut route_links = Vec::new();
        let mut pairs = Vec::with_capacity(nodes * nodes);
        route_start.push(0);
        for a in 0..nodes {
            for b in 0..nodes {
                let before = route_links.len();
                xy_route(width, a, b, &mut route_links);
                route_start.push(u32::try_from(route_links.len()).expect("route table fits u32"));
                pairs.push(Pair {
                    messages: 0,
                    latency: hop_cycles * (route_links.len() - before) as u64,
                });
            }
        }
        Mesh {
            width,
            height,
            hop_cycles,
            route_start,
            route_links,
            pairs,
        }
    }

    /// The 4x4, 3-cycle-per-hop mesh of Table II.
    pub fn paper_16core() -> Self {
        Mesh::new(4, 4, Cycles(3))
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Mesh width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mesh height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Per-hop latency.
    pub fn hop_cycles(&self) -> Cycles {
        self.hop_cycles
    }

    /// (x, y) coordinate of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        assert!(node.0 < self.nodes(), "node {node} out of range");
        (node.0 % self.width, node.0 / self.width)
    }

    /// The index of the ordered pair `(a, b)` in `pairs`.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    #[inline]
    fn pair(&self, a: NodeId, b: NodeId) -> usize {
        let n = self.nodes();
        for node in [a, b] {
            assert!(node.0 < n, "node {node} out of range");
        }
        a.0 * n + b.0
    }

    /// The `route_links` range of the XY route of pair `pair`.
    fn route(&self, pair: usize) -> std::ops::Range<usize> {
        self.route_start[pair] as usize..self.route_start[pair + 1] as usize
    }

    /// Manhattan hop count between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u64 {
        self.route(self.pair(a, b)).len() as u64
    }

    /// One-way latency between two nodes (zero when `a == b`).
    pub fn latency(&self, a: NodeId, b: NodeId) -> Cycles {
        self.hop_cycles * self.hops(a, b)
    }

    /// Round-trip latency between two nodes.
    pub fn round_trip(&self, a: NodeId, b: NodeId) -> Cycles {
        self.latency(a, b) * 2
    }

    /// Average one-way hop count from every node to every node (uniform
    /// traffic), the quantity behind the paper's "average round trip"
    /// figures.
    pub fn mean_hops(&self) -> f64 {
        let n = self.nodes();
        let mut total = 0u64;
        for a in 0..n {
            for b in 0..n {
                total += self.hops(NodeId(a), NodeId(b));
            }
        }
        total as f64 / (n * n) as f64
    }

    /// Sends a message from `a` to `b`, counting it against the pair's
    /// XY route, and returns the one-way latency.
    #[inline]
    pub fn send(&mut self, a: NodeId, b: NodeId) -> Cycles {
        let pair = self.pair(a, b);
        let p = &mut self.pairs[pair];
        p.messages += 1;
        p.latency
    }

    /// Messages sent through [`send`](Self::send).
    pub fn messages(&self) -> u64 {
        self.pairs.iter().map(|p| p.messages).sum()
    }

    /// Total hops traversed by all messages.
    pub fn total_hops(&self) -> u64 {
        self.pairs
            .iter()
            .enumerate()
            .map(|(pair, p)| p.messages * self.route(pair).len() as u64)
            .sum()
    }

    /// Cumulative flit counters of every directed link, indexed as
    /// `node * 4 + direction` (0=E, 1=W, 2=N, 3=S), summed from the pair
    /// counts over their routes on each call. Exposed so the telemetry
    /// subsystem can difference consecutive snapshots into per-epoch
    /// link utilization.
    pub fn link_flits(&self) -> Vec<u64> {
        let mut flits = vec![0; self.nodes() * 4];
        for (pair, p) in self.pairs.iter().enumerate() {
            if p.messages > 0 {
                for &link in &self.route_links[self.route(pair)] {
                    flits[link as usize] += p.messages;
                }
            }
        }
        flits
    }

    /// Flits carried by the busiest link.
    pub fn max_link_flits(&self) -> u64 {
        self.link_flits().into_iter().max().unwrap_or(0)
    }

    /// Mean flits per link over links that carried any traffic.
    pub fn mean_link_flits(&self) -> f64 {
        let flits = self.link_flits();
        let used = flits.iter().filter(|&&f| f > 0).count();
        if used == 0 {
            0.0
        } else {
            flits.iter().sum::<u64>() as f64 / used as f64
        }
    }
}

/// Appends the links of the dimension-ordered route from node `a` to
/// node `b` of a `width`-wide mesh: X first, then Y.
fn xy_route(width: usize, a: usize, b: usize, links: &mut Vec<u32>) {
    let (ax, ay) = (a % width, a / width);
    let (bx, by) = (b % width, b / width);
    let mut push = |node: usize, dir: usize| {
        links.push(u32::try_from(node * 4 + dir).expect("link index fits u32"));
    };
    let mut x = ax;
    while x != bx {
        if bx > x {
            push(ay * width + x, EAST);
            x += 1;
        } else {
            push(ay * width + x, WEST);
            x -= 1;
        }
    }
    let mut y = ay;
    while y != by {
        if by > y {
            push(y * width + bx, SOUTH);
            y += 1;
        } else {
            push(y * width + bx, NORTH);
            y -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_and_hops() {
        let m = Mesh::paper_16core();
        assert_eq!(m.coords(NodeId(0)), (0, 0));
        assert_eq!(m.coords(NodeId(5)), (1, 1));
        assert_eq!(m.coords(NodeId(15)), (3, 3));
        assert_eq!(m.hops(NodeId(0), NodeId(15)), 6);
        assert_eq!(m.hops(NodeId(5), NodeId(5)), 0);
        assert_eq!(m.hops(NodeId(0), NodeId(3)), 3);
    }

    #[test]
    fn latency_is_hops_times_hop_cycles() {
        let m = Mesh::paper_16core();
        assert_eq!(m.latency(NodeId(0), NodeId(15)), Cycles(18));
        assert_eq!(m.round_trip(NodeId(0), NodeId(15)), Cycles(36));
        assert_eq!(m.latency(NodeId(7), NodeId(7)), Cycles::ZERO);
    }

    #[test]
    fn mean_hops_matches_4x4_analytic() {
        // For a 4x4 mesh under uniform traffic the mean one-way distance
        // is 2 * mean 1-D distance = 2 * 1.25 = 2.5.
        let m = Mesh::paper_16core();
        assert!((m.mean_hops() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn baseline_llc_round_trip_close_to_paper() {
        // Paper: 23-cycle average round trip for a shared LLC hit
        // including a 5-cycle bank access. Our mesh: 2.5 mean hops each
        // way at 3 cycles = 15, plus 5-cycle bank = 20; the paper's 23
        // includes router/injection overheads we fold into config, so the
        // mesh itself must land in [14, 16].
        let m = Mesh::paper_16core();
        let rt = 2.0 * m.mean_hops() * m.hop_cycles().as_u64() as f64;
        assert!((14.0..=16.0).contains(&rt), "round trip {rt}");
    }

    #[test]
    fn send_records_traffic_on_xy_path() {
        let mut m = Mesh::paper_16core();
        let lat = m.send(NodeId(0), NodeId(15));
        assert_eq!(lat, Cycles(18));
        assert_eq!(m.messages(), 1);
        assert_eq!(m.total_hops(), 6);
        assert_eq!(m.max_link_flits(), 1);
        // Six links used.
        assert!((m.mean_link_flits() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn send_to_self_is_free() {
        let mut m = Mesh::paper_16core();
        assert_eq!(m.send(NodeId(3), NodeId(3)), Cycles::ZERO);
        assert_eq!(m.total_hops(), 0);
    }

    #[test]
    fn rectangular_mesh_works() {
        let m = Mesh::new(2, 8, Cycles(1));
        assert_eq!(m.nodes(), 16);
        assert_eq!(m.coords(NodeId(9)), (1, 4));
        assert_eq!(m.hops(NodeId(0), NodeId(15)), 1 + 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_panics() {
        Mesh::paper_16core().coords(NodeId(16));
    }

    /// The coordinate-walking XY router the route table replaced: link
    /// flits, hop count and latency of one message from `a` to `b`.
    fn walked(m: &Mesh, a: NodeId, b: NodeId) -> (Vec<u64>, u64, Cycles) {
        let mut flits = vec![0; m.nodes() * 4];
        let (ax, ay) = m.coords(a);
        let (bx, by) = m.coords(b);
        let mut x = ax;
        while x != bx {
            let node = ay * m.width() + x;
            if bx > x {
                flits[node * 4 + EAST] += 1;
                x += 1;
            } else {
                flits[node * 4 + WEST] += 1;
                x -= 1;
            }
        }
        let mut y = ay;
        while y != by {
            let node = y * m.width() + bx;
            if by > y {
                flits[node * 4 + SOUTH] += 1;
                y += 1;
            } else {
                flits[node * 4 + NORTH] += 1;
                y -= 1;
            }
        }
        let hops = (ax.abs_diff(bx) + ay.abs_diff(by)) as u64;
        (flits, hops, m.hop_cycles() * hops)
    }

    #[test]
    fn route_table_matches_the_xy_walk() {
        for (w, h) in [(1, 1), (2, 8), (3, 3), (4, 4), (8, 8)] {
            let fresh = Mesh::new(w, h, Cycles(3));
            for a in (0..fresh.nodes()).map(NodeId) {
                for b in (0..fresh.nodes()).map(NodeId) {
                    let (flits, hops, latency) = walked(&fresh, a, b);
                    let mut m = fresh.clone();
                    assert_eq!(m.send(a, b), latency, "{w}x{h} {a}->{b}");
                    assert_eq!(m.link_flits(), flits, "{w}x{h} {a}->{b}");
                    assert_eq!(m.total_hops(), hops, "{w}x{h} {a}->{b}");
                    assert_eq!(m.hops(a, b), hops);
                    assert_eq!(m.latency(a, b), latency);
                    assert_eq!(m.round_trip(a, b), latency * 2);
                }
            }
        }
    }

    /// SplitMix64, for the seeded message sequences below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn derived_traffic_matches_the_walked_sum_over_random_sequences() {
        for (w, h) in [(1, 1), (2, 8), (3, 3), (4, 4), (8, 8)] {
            for seed in 1..=4u64 {
                let mut m = Mesh::new(w, h, Cycles(3));
                let n = m.nodes() as u64;
                let mut state = seed * 0x1234_5678 + (w * 100 + h) as u64;
                let (mut flits, mut hops, mut messages) = (vec![0; m.nodes() * 4], 0, 0);
                for i in 0..500 {
                    let a = NodeId((splitmix(&mut state) % n) as usize);
                    let b = NodeId((splitmix(&mut state) % n) as usize);
                    let (f, h_ab, latency) = walked(&m, a, b);
                    assert_eq!(m.send(a, b), latency, "{w}x{h} seed {seed} {a}->{b}");
                    flits.iter_mut().zip(&f).for_each(|(sum, f)| *sum += f);
                    hops += h_ab;
                    messages += 1;
                    // Read back part-way too: reading changes nothing.
                    if i % 97 == 0 {
                        assert_eq!(m.link_flits(), flits, "{w}x{h} seed {seed} at {i}");
                    }
                }
                assert_eq!(m.messages(), messages, "{w}x{h} seed {seed}");
                assert_eq!(m.total_hops(), hops, "{w}x{h} seed {seed}");
                assert_eq!(m.link_flits(), flits, "{w}x{h} seed {seed}");
                assert_eq!(m.max_link_flits(), flits.iter().copied().max().unwrap_or(0));
                let used = flits.iter().filter(|&&f| f > 0).count();
                let mean = if used == 0 {
                    0.0
                } else {
                    flits.iter().sum::<u64>() as f64 / used as f64
                };
                assert_eq!(m.mean_link_flits(), mean, "{w}x{h} seed {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_send_panics() {
        // Node 16 would alias pair (1, 0) in the flat route table.
        Mesh::paper_16core().send(NodeId(0), NodeId(16));
    }

    #[test]
    fn westward_and_northward_routes_work() {
        let mut m = Mesh::paper_16core();
        // From 15 (3,3) to 0 (0,0): west then north.
        let lat = m.send(NodeId(15), NodeId(0));
        assert_eq!(lat, Cycles(18));
        assert_eq!(m.total_hops(), 6);
    }
}
