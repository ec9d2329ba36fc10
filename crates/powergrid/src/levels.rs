//! Level-ordered topology — the data layout of the paper's GPU method.
//!
//! Buses are permuted into BFS *level order* with one extra guarantee:
//! within each level, **children of the same parent are contiguous**
//! (FIFO BFS gives this for free). The layout is what makes the GPU
//! sweeps data-parallel:
//!
//! * a level is a contiguous slice → one kernel launch per level;
//! * a parent's children form a *segment* of the next level, and the
//!   segments of consecutive parents are adjacent → one `n + 1` offset
//!   array ([`LevelOrder::child_offsets`]) holds every child range, and
//!   summing child branch currents is a segmented reduction;
//! * the whole permutation is computed once per topology and reused every
//!   iteration (topology is static during a solve).
//!
//! Everything here is in *position* space (`0..n` in level order); the
//! [`LevelOrder::order`] / [`LevelOrder::pos_of`] arrays convert to and
//! from bus ids.

use crate::network::RadialNetwork;

/// Sentinel for "no parent" (the root position's parent).
pub const NO_PARENT: u32 = u32::MAX;

/// Why a topology layout could not be built from a raw edge list.
///
/// A *validated* [`RadialNetwork`] can never trip these, but the delta
/// workflows (line outage, splice preview) hand the layout builders edge
/// lists that are no longer guaranteed to span every bus — most
/// importantly the post-outage case, where cutting one branch strands an
/// entire subtree. Before this error existed, [`LevelOrder::from_edges`]
/// silently produced garbage on such inputs (a short `order` with
/// `u32::MAX` holes in `pos_of`) and [`DfsOrder::from_edges`] indexed out
/// of bounds in release builds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// An edge endpoint names a bus outside `0..n`.
    BadEdge {
        /// Upstream bus id.
        from: u32,
        /// Downstream bus id.
        to: u32,
        /// Bus count.
        n: usize,
    },
    /// An edge's downstream end is the root (the root has no parent).
    RootHasParent,
    /// Two edges feed the same downstream bus.
    DuplicateParent(u32),
    /// Traversal from the root did not reach these buses (sorted ids).
    Unreachable {
        /// Every bus the traversal never visited.
        orphans: Vec<u32>,
    },
}

impl std::fmt::Display for LayoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LayoutError::BadEdge { from, to, n } => {
                write!(f, "edge {from}→{to} references a bus outside 0..{n}")
            }
            LayoutError::RootHasParent => write!(f, "an edge feeds the root bus"),
            LayoutError::DuplicateParent(b) => write!(f, "bus {b} has two upstream edges"),
            LayoutError::Unreachable { orphans } => {
                write!(f, "{} bus(es) unreachable from the root (first: {:?})",
                    orphans.len(), orphans.first())
            }
        }
    }
}

impl std::error::Error for LayoutError {}

/// The level-order permutation and per-position topology arrays.
#[derive(Clone, Debug)]
pub struct LevelOrder {
    /// `order[p]` = bus id at position `p` (position 0 is the root).
    pub order: Vec<u32>,
    /// Inverse permutation: `pos_of[bus]` = its position.
    pub pos_of: Vec<u32>,
    /// Level `l` occupies positions `level_offsets[l] ..
    /// level_offsets[l+1]`; `level_offsets.len() == num_levels() + 1`.
    pub level_offsets: Vec<u32>,
    /// Parent position per position ([`NO_PARENT`] at the root).
    pub parent_pos: Vec<u32>,
    /// The children of position `p` occupy positions
    /// `child_offsets[p] .. child_offsets[p + 1]` (an empty range for a
    /// leaf); `child_offsets.len() == len() + 1`. BFS assigns children in
    /// parent order, so one parent's range ends where the next one's
    /// starts.
    pub child_offsets: Vec<u32>,
}

impl LevelOrder {
    /// Computes the level order of a network by FIFO BFS from the root.
    pub fn new(net: &RadialNetwork) -> Self {
        let edges: Vec<(u32, u32)> =
            net.branches().iter().map(|br| (br.from as u32, br.to as u32)).collect();
        Self::from_edges(net.num_buses(), net.root(), &edges)
    }

    /// Computes the level order of any validated radial edge list
    /// (`(from, to)` pairs, one per non-root bus) — shared by the
    /// single- and three-phase network types. Panics (with the orphan
    /// set) on inputs [`LevelOrder::try_from_edges`] rejects.
    pub fn from_edges(n: usize, root: usize, edges: &[(u32, u32)]) -> Self {
        assert_eq!(edges.len(), n.saturating_sub(1), "radial edge count");
        Self::try_from_edges(n, root, edges)
            .unwrap_or_else(|e| panic!("from_edges on an invalid edge list: {e}"))
    }

    /// Fallible [`LevelOrder::from_edges`] for edge lists that may not
    /// span every bus — the post-outage case. Accepts any forest-shaped
    /// list (`edges.len() ≤ n − 1`); buses the BFS never reaches are
    /// reported as an explicit orphan set instead of silently producing
    /// a truncated layout.
    pub fn try_from_edges(n: usize, root: usize, edges: &[(u32, u32)]) -> Result<Self, LayoutError> {
        assert!(root < n, "root bus out of range");
        let mut has_parent = vec![false; n];
        for &(from, to) in edges {
            if from as usize >= n || to as usize >= n {
                return Err(LayoutError::BadEdge { from, to, n });
            }
            if to as usize == root {
                return Err(LayoutError::RootHasParent);
            }
            if has_parent[to as usize] {
                return Err(LayoutError::DuplicateParent(to));
            }
            has_parent[to as usize] = true;
        }

        // Children adjacency in edge-insertion order (deterministic).
        let mut child_count = vec![0u32; n];
        for &(from, _) in edges {
            child_count[from as usize] += 1;
        }
        let mut adj_off = vec![0u32; n + 1];
        for i in 0..n {
            adj_off[i + 1] = adj_off[i] + child_count[i];
        }
        let mut adj = vec![0u32; edges.len()];
        let mut cursor = adj_off.clone();
        for &(from, to) in edges {
            adj[cursor[from as usize] as usize] = to;
            cursor[from as usize] += 1;
        }

        let mut order = Vec::with_capacity(n);
        let mut pos_of = vec![u32::MAX; n];
        let mut parent_pos = Vec::with_capacity(n);
        let mut child_offsets = Vec::with_capacity(n + 1);
        let mut level_offsets = vec![0u32];

        // FIFO BFS: `order` doubles as the queue (head = next position to
        // process, tail = next position to assign).
        order.push(root as u32);
        pos_of[root] = 0;
        parent_pos.push(NO_PARENT);
        let mut head = 0usize;
        let mut level_end = 1usize;
        while head < order.len() {
            if head == level_end {
                level_offsets.push(level_end as u32);
                level_end = order.len();
            }
            let bus = order[head] as usize;
            let p = head as u32;
            child_offsets.push(order.len() as u32);
            for k in adj_off[bus]..adj_off[bus + 1] {
                let c = adj[k as usize];
                pos_of[c as usize] = order.len() as u32;
                order.push(c);
                parent_pos.push(p);
            }
            head += 1;
        }
        if order.len() < n {
            let orphans: Vec<u32> =
                (0..n as u32).filter(|&b| pos_of[b as usize] == u32::MAX).collect();
            return Err(LayoutError::Unreachable { orphans });
        }
        level_offsets.push(n as u32);
        child_offsets.push(n as u32);

        Ok(LevelOrder { order, pos_of, level_offsets, parent_pos, child_offsets })
    }

    /// Number of buses.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True for the (impossible after validation) empty layout.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of BFS levels (a 1-bus network has 1 level).
    pub fn num_levels(&self) -> usize {
        self.level_offsets.len() - 1
    }

    /// Position range of level `l`.
    pub fn level_range(&self, l: usize) -> std::ops::Range<usize> {
        self.level_offsets[l] as usize..self.level_offsets[l + 1] as usize
    }

    /// Position range of the children of position `p`.
    pub fn children(&self, p: usize) -> std::ops::Range<usize> {
        self.child_offsets[p] as usize..self.child_offsets[p + 1] as usize
    }

    /// Width (bus count) of level `l`.
    pub fn level_width(&self, l: usize) -> usize {
        self.level_range(l).len()
    }

    /// Mean level width = n / depth; the paper's topology discussion
    /// turns on this number (wide levels parallelise, narrow ones pay
    /// launch overhead).
    pub fn mean_level_width(&self) -> f64 {
        self.len() as f64 / self.num_levels() as f64
    }

    /// Permutes a by-bus attribute array into position order.
    pub fn permute<T: Copy>(&self, by_bus: &[T]) -> Vec<T> {
        assert_eq!(by_bus.len(), self.len(), "permute: length mismatch");
        self.order.iter().map(|&b| by_bus[b as usize]).collect()
    }

    /// Un-permutes a by-position array back to bus order.
    pub fn unpermute<T: Copy>(&self, by_pos: &[T]) -> Vec<T> {
        assert_eq!(by_pos.len(), self.len(), "unpermute: length mismatch");
        let mut out = vec![by_pos[0]; self.len()];
        for (p, &b) in self.order.iter().enumerate() {
            out[b as usize] = by_pos[p];
        }
        out
    }

    /// Internal consistency check (used by tests and debug assertions):
    /// verifies the permutation, level monotonicity and child
    /// contiguity. Panics with a description on violation.
    pub fn check_invariants(&self) {
        let n = self.len();
        assert_eq!(self.pos_of.len(), n);
        assert_eq!(self.parent_pos.len(), n);
        assert_eq!(self.child_offsets.len(), n + 1);
        // order/pos_of are inverse permutations.
        for p in 0..n {
            assert_eq!(self.pos_of[self.order[p] as usize] as usize, p, "inverse permutation");
        }
        // Levels tile 0..n.
        assert_eq!(*self.level_offsets.first().unwrap(), 0);
        assert_eq!(*self.level_offsets.last().unwrap() as usize, n);
        assert!(self.level_offsets.windows(2).all(|w| w[0] < w[1]), "empty level");
        // Parents live exactly one level up; children are contiguous.
        for l in 0..self.num_levels() {
            for p in self.level_range(l) {
                if l == 0 {
                    assert_eq!(self.parent_pos[p], NO_PARENT);
                } else {
                    let pp = self.parent_pos[p] as usize;
                    assert!(self.level_range(l - 1).contains(&pp), "parent one level up");
                    assert!(self.children(pp).contains(&p), "child within parent range");
                }
            }
        }
        // Child ranges tile the non-root positions exactly once, and each
        // child's parent pointer agrees with the range that claims it —
        // together these reject duplicated or dropped buses that the
        // per-position checks above cannot see.
        assert_eq!(self.child_offsets[0], 1, "the root's children come first");
        assert_eq!(self.child_offsets[n] as usize, n, "child ranges must end at n");
        let sorted = self.child_offsets.windows(2).all(|w| w[0] <= w[1]);
        assert!(sorted, "child offsets must not decrease");
        for p in 0..n {
            for c in self.children(p) {
                assert_eq!(self.parent_pos[c] as usize, p, "child {c} claims another parent");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use numc::{c, Complex};

    /// Builds the example tree:
    /// ```text
    ///        0
    ///      / | \
    ///     1  2  3
    ///    /|     |
    ///   4 5     6
    ///           |
    ///           7
    /// ```
    fn example() -> RadialNetwork {
        let mut b = NetworkBuilder::new(c(1.0, 0.0));
        for _ in 0..8 {
            b.add_bus(Complex::ZERO);
        }
        for (f, t) in [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (3, 6), (6, 7)] {
            b.connect(f, t, c(0.1, 0.05));
        }
        b.build().unwrap()
    }

    use crate::network::RadialNetwork;

    #[test]
    fn example_levels_are_correct() {
        let lo = LevelOrder::new(&example());
        lo.check_invariants();
        assert_eq!(lo.len(), 8);
        assert_eq!(lo.num_levels(), 4);
        assert_eq!(lo.order, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(lo.level_offsets, vec![0, 1, 4, 7, 8]);
        assert_eq!(lo.level_width(0), 1);
        assert_eq!(lo.level_width(1), 3);
        assert_eq!(lo.level_width(2), 3);
        assert_eq!(lo.level_width(3), 1);
        assert_eq!(lo.parent_pos[4], 1);
        assert_eq!(lo.parent_pos[6], 3);
        assert_eq!(lo.parent_pos[7], 6);
        // Children ranges: 0 → 1..4, 1 → 4..6, 2 a leaf, 3 → 6..7, 6 → 7..8.
        assert_eq!(lo.child_offsets, vec![1, 4, 6, 6, 7, 7, 7, 8, 8]);
        assert_eq!(lo.children(2), 6..6);
    }

    #[test]
    fn shuffled_bus_ids_still_level_order() {
        // Same shape as `example` but bus ids permuted and branches in
        // scrambled insertion order.
        let mut b = NetworkBuilder::new(c(1.0, 0.0));
        for _ in 0..8 {
            b.add_bus(Complex::ZERO);
        }
        // root = 0; map example ids {1→5, 2→3, 3→1, 4→7, 5→2, 6→6, 7→4}.
        for (f, t) in [(1, 6), (0, 5), (5, 7), (0, 3), (6, 4), (0, 1), (5, 2)] {
            b.connect(f, t, c(0.1, 0.05));
        }
        let lo = LevelOrder::new(&b.build().unwrap());
        lo.check_invariants();
        assert_eq!(lo.num_levels(), 4);
        assert_eq!(lo.level_offsets, vec![0, 1, 4, 7, 8]);
    }

    #[test]
    fn single_bus_network() {
        let mut b = NetworkBuilder::new(c(1.0, 0.0));
        b.add_bus(Complex::ZERO);
        let lo = LevelOrder::new(&b.build().unwrap());
        lo.check_invariants();
        assert_eq!(lo.len(), 1);
        assert_eq!(lo.num_levels(), 1);
        assert_eq!(lo.child_offsets, vec![1, 1]);
        assert_eq!(lo.parent_pos, vec![NO_PARENT]);
    }

    #[test]
    fn chain_has_n_levels() {
        let mut b = NetworkBuilder::new(c(1.0, 0.0));
        for _ in 0..5 {
            b.add_bus(Complex::ZERO);
        }
        for i in 0..4 {
            b.connect(i, i + 1, c(0.1, 0.0));
        }
        let lo = LevelOrder::new(&b.build().unwrap());
        lo.check_invariants();
        assert_eq!(lo.num_levels(), 5);
        assert!(lo.level_offsets.windows(2).all(|w| w[1] - w[0] == 1));
        assert_eq!(lo.mean_level_width(), 1.0);
    }

    #[test]
    fn star_has_two_levels() {
        let mut b = NetworkBuilder::new(c(1.0, 0.0));
        for _ in 0..6 {
            b.add_bus(Complex::ZERO);
        }
        for i in 1..6 {
            b.connect(0, i, c(0.1, 0.0));
        }
        let lo = LevelOrder::new(&b.build().unwrap());
        lo.check_invariants();
        assert_eq!(lo.num_levels(), 2);
        assert_eq!(lo.level_width(1), 5);
        // Level 1 is one segment: every bus is a child of the root.
        assert_eq!(lo.children(0), lo.level_range(1));
    }

    #[test]
    fn permute_roundtrip() {
        let lo = LevelOrder::new(&example());
        let by_bus: Vec<f64> = (0..8).map(|i| i as f64 * 10.0).collect();
        let by_pos = lo.permute(&by_bus);
        assert_eq!(lo.unpermute(&by_pos), by_bus);
    }

    // ---- try_from_edges regression tests: edge lists with buses
    // unreachable from the root (the post-outage case) must surface a
    // structured orphan set, never silent garbage.

    #[test]
    fn cut_branch_reports_its_stranded_subtree() {
        // example() minus the (3, 6) branch: buses 6 and 7 are stranded.
        let edges = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (6, 7)];
        let err = LevelOrder::try_from_edges(8, 0, &edges).unwrap_err();
        assert_eq!(err, LayoutError::Unreachable { orphans: vec![6, 7] });
    }

    #[test]
    fn detached_cycle_is_unreachable_not_a_hang() {
        let edges = [(0, 1), (2, 3), (3, 2)];
        let err = LevelOrder::try_from_edges(4, 0, &edges).unwrap_err();
        assert!(matches!(err, LayoutError::DuplicateParent(2) | LayoutError::Unreachable { .. }));
    }

    #[test]
    fn full_span_try_matches_from_edges() {
        let net = example();
        let edges: Vec<(u32, u32)> =
            net.branches().iter().map(|br| (br.from as u32, br.to as u32)).collect();
        let lo = LevelOrder::try_from_edges(8, 0, &edges).unwrap();
        lo.check_invariants();
        assert_eq!(lo.order, LevelOrder::new(&net).order);
    }

    #[test]
    fn bad_endpoint_and_root_edge_are_structured_errors() {
        assert_eq!(
            LevelOrder::try_from_edges(3, 0, &[(0, 1), (1, 9)]).unwrap_err(),
            LayoutError::BadEdge { from: 1, to: 9, n: 3 }
        );
        assert_eq!(
            LevelOrder::try_from_edges(3, 0, &[(1, 0), (1, 2)]).unwrap_err(),
            LayoutError::RootHasParent
        );
        assert_eq!(
            LevelOrder::try_from_edges(3, 0, &[(0, 2), (1, 2)]).unwrap_err(),
            LayoutError::DuplicateParent(2)
        );
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn from_edges_panics_loudly_on_orphans() {
        // Right edge count (n−1 = 3) but buses 2 and 3 form a detached
        // cycle — the panicking wrapper must name the problem instead of
        // returning a truncated layout.
        let _ = LevelOrder::from_edges(4, 0, &[(0, 1), (2, 3), (3, 2)]);
    }

    #[test]
    fn error_display_names_the_orphans() {
        let e = LayoutError::Unreachable { orphans: vec![4, 5] };
        assert!(e.to_string().contains("2 bus(es)"));
        assert!(LayoutError::RootHasParent.to_string().contains("root"));
    }
}
