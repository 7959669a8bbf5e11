//! The coverage plan: every spatial answer the per-frame hot path needs,
//! for static and moving fields alike.
//!
//! The per-frame transmit path asks the same spatial questions — who does
//! this beam cover, and from which bearing and distance does the energy
//! arrive — millions of times. The original plan answered them from dense
//! pairwise matrices: perfect at the paper's 30–130 nodes, fatal at 100k
//! (10¹⁰ entries). A [`CoveragePlan`] rests on a [`SpatialGrid`] (cell
//! edge ≥ the coverage reach), so both construction and queries touch
//! only the 3×3 cell neighbourhood of the transmitter. Per node it caches:
//!
//! * the **omni neighbour list**, ascending by id, materialised from the
//!   grid's candidate superset with the reference omni predicate
//!   (`d² ≤ R² + EPSILON`) and served as a borrowed slice;
//! * next to it, the **bearing and squared distance of each edge**,
//!   computed once per edge with the *same expressions* the reference
//!   [`Channel`] evaluates.
//!
//! Every query is answered from those caches:
//!
//! * **Arrival geometry** is one binary search of the receiver's list
//!   plus the cached pair (the distance is the square root of the cached
//!   square, which is exactly how [`Channel::distance`] computes it);
//!   non-neighbours fall back to computing both on the spot.
//! * **Directional footprints** filter the transmitter's omni list per
//!   query through `beam_covers_neighbor` on the cached bearings: a beam
//!   shares the omni disk's exact distance bound (`Sector::contains` and
//!   `TxPattern::covers` both test `d² ≤ R² + EPSILON`), so every
//!   footprint is a subset of the omni list and the filter preserves its
//!   ascending order — O(deg) comparisons, no trigonometry.
//! * **Strict adjacency** (`d² ≤ R²`, for traffic generation) filters the
//!   list on the cached squared distances.
//!
//! # Moving nodes
//!
//! A static run is a plan that never receives [`CoveragePlan::apply_moves`].
//! Under mobility each position epoch refreshes the caches
//! *incrementally*:
//!
//! 1. **Re-bin only the movers.** Each moved node is moved between grid
//!    buckets ([`SpatialGrid::rebin`]); unmoved nodes are never touched.
//! 2. **Rebuild only the affected 3×3 blocks.** A node's caches depend
//!    only on positions within the coverage reach of it, and the grid's
//!    cell edge ≥ reach, so the caches that can change are exactly the
//!    occupants of the 3×3 cell blocks around each mover's old and new
//!    cells. Those are collected (after re-binning, so movers are found
//!    via their new cells and unmoved witnesses via the old blocks),
//!    deduplicated, and rebuilt in ascending id order — list and edge
//!    geometry together, never the whole plan.
//!
//! An empty move list does **zero** cache work: no re-bins, no rebuilds.
//! The counters in [`InvalidationStats`] make that auditable — the
//! regressions in `tests/dynamic_plan.rs` assert that zero-motion epochs
//! leave both counters at exactly zero (counter-asserted, not timed), and
//! the equivalence proptest pins that after any sequence of epochs the
//! incrementally-maintained plan equals a from-scratch build field for
//! field.
//!
//! # Equivalence and determinism
//!
//! Every query is equal to its reference implementation
//! ([`Channel::covered_by`] / [`Channel::heading`] /
//! [`Channel::distance`]) by construction: the grid only ever *widens*
//! the candidate superset, the filters are the exact reference
//! predicates, and every emitted slice is ascending by id. Buckets are
//! id-sorted and the affected set of an epoch is sorted before
//! rebuilding, so a plan's contents are a pure function of `(initial
//! positions, move history)`. The property tests in
//! `tests/coverage_plan.rs`, `tests/spatial_grid.rs` and
//! `tests/dynamic_plan.rs` pin that equivalence across random, adversarial
//! and moving topologies and beamwidths.

use dirca_geometry::{Angle, Beamwidth, Point, EPSILON};

use crate::channel::{Channel, TxPattern};
use crate::spatial::SpatialGrid;
use crate::NodeId;

/// Counters for the incremental-invalidation work the position epochs of
/// a plan performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvalidationStats {
    /// Number of [`CoveragePlan::apply_moves`] calls.
    pub epochs: u64,
    /// Nodes moved between grid buckets.
    pub rebins: u64,
    /// Per-node caches rebuilt: one rebuild refreshes one node's
    /// neighbour list and its edge geometry.
    pub rebuilds: u64,
}

/// One node's cached spatial answers.
#[derive(Debug, Clone, PartialEq, Default)]
struct NodeCache {
    /// Omni neighbourhood, ascending by id (the `d² ≤ R² + EPSILON`
    /// coverage predicate).
    neighbors: Vec<NodeId>,
    /// `edges[i]` is the bearing from the owner toward `neighbors[i]` and
    /// the squared distance between them.
    edges: Vec<(Angle, f64)>,
}

/// Spatial tables for one set of node positions, range and beamwidth,
/// backed by a uniform-grid index — O(n · local density) memory and
/// build, O(local density) per query — and kept current under mobility by
/// [`CoveragePlan::apply_moves`].
///
/// # Example
///
/// ```
/// use dirca_geometry::{Beamwidth, Point};
/// use dirca_radio::{Channel, CoveragePlan, NodeId, TxPattern};
/// use dirca_sim::SimDuration;
///
/// let chan = Channel::new(
///     vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0), Point::new(0.0, 0.7)],
///     1.0,
///     SimDuration::from_micros(1),
/// )?;
/// let beam = Beamwidth::from_degrees(30.0).unwrap();
/// let mut plan = CoveragePlan::new(&chan, beam);
/// // Omni neighbourhoods match the reference query...
/// assert_eq!(plan.neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
/// // ...and so does the footprint of a beam aimed 0 → 1.
/// let aimed = TxPattern::aimed(
///     chan.position(NodeId(0))?,
///     chan.position(NodeId(1))?,
///     beam,
/// );
/// assert_eq!(
///     plan.directional_coverage(NodeId(0), NodeId(1)),
///     chan.covered_by(NodeId(0), aimed)?,
/// );
/// // Node 2 walks out of range: only its old neighbourhood is rebuilt.
/// plan.apply_moves(&[(2, Point::new(0.0, 3.0))]);
/// assert_eq!(plan.neighbors(NodeId(0)), &[NodeId(1)]);
/// # Ok::<(), dirca_radio::ChannelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoveragePlan {
    /// The current node positions (`positions[id]`).
    positions: Vec<Point>,
    /// The transmission range `R`.
    range: f64,
    beamwidth: Beamwidth,
    /// Uniform grid over `positions` with cell edge ≥ the coverage reach.
    grid: SpatialGrid,
    /// Per-node caches, position-parallel.
    nodes: Vec<NodeCache>,
    stats: InvalidationStats,
    /// Scratch: affected node ids of the current epoch (kept across calls
    /// to avoid reallocation; returned as a slice from `apply_moves`).
    affected: Vec<NodeId>,
}

impl PartialEq for CoveragePlan {
    /// Field-for-field cache equality: positions, build parameters and
    /// every per-node cache. Work counters and grid bounding boxes are
    /// excluded — two plans built over different move histories
    /// legitimately differ there while serving identical answers.
    fn eq(&self, other: &Self) -> bool {
        self.positions == other.positions
            && self.range.to_bits() == other.range.to_bits()
            && self.beamwidth == other.beamwidth
            && self.nodes == other.nodes
    }
}

impl CoveragePlan {
    /// Builds the plan for `channel`'s positions and range with
    /// directional footprints filtered at `beamwidth`.
    ///
    /// Cost: O(n · local density) time for the grid and the omni lists,
    /// plus one bearing and one squared distance per edge — linear in n at
    /// fixed density, never pairwise-quadratic.
    pub fn new(channel: &Channel, beamwidth: Beamwidth) -> Self {
        Self::from_positions(channel.positions().to_vec(), channel.range(), beamwidth)
    }

    /// Builds the plan over `positions` from scratch.
    ///
    /// # Panics
    ///
    /// Panics unless `range` is positive and finite.
    fn from_positions(positions: Vec<Point>, range: f64, beamwidth: Beamwidth) -> Self {
        assert!(
            range.is_finite() && range > 0.0,
            "range must be positive and finite, got {range}"
        );
        // The widest distance any coverage predicate accepts is
        // √(R² + EPSILON); the extra 1e-9 relative margin dwarfs the ulp
        // error of the grid's float cell arithmetic, so the 3×3 block is a
        // guaranteed superset of every acceptable candidate.
        let reach = (range * range + EPSILON).sqrt() * (1.0 + 1e-9);
        let grid = SpatialGrid::new(&positions, reach);
        let mut plan = CoveragePlan {
            nodes: vec![NodeCache::default(); positions.len()],
            positions,
            range,
            beamwidth,
            grid,
            stats: InvalidationStats::default(),
            affected: Vec::new(),
        };
        let mut scratch = Vec::new();
        for id in 0..plan.positions.len() {
            plan.rebuild_node(id, &mut scratch);
        }
        plan
    }

    /// Number of nodes covered by the plan.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the plan covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The current node positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The beamwidth the directional footprints are filtered at.
    pub fn beamwidth(&self) -> Beamwidth {
        self.beamwidth
    }

    /// The underlying spatial grid (the sharded engine's partition key,
    /// and a diagnostic for tests).
    pub fn grid(&self) -> &SpatialGrid {
        &self.grid
    }

    /// The incremental-invalidation work counters since construction (all
    /// zero for a plan that never received a position epoch).
    pub fn stats(&self) -> InvalidationStats {
        self.stats
    }

    /// Approximate resident bytes of the whole plan: positions, the
    /// per-node lists and edge geometry, and the grid index. Grows
    /// O(n + Σ deg) — linear in n at fixed density, never O(n²).
    pub fn index_bytes(&self) -> usize {
        let cached: usize = self
            .nodes
            .iter()
            .map(|c| {
                c.neighbors.capacity() * std::mem::size_of::<NodeId>()
                    + c.edges.capacity() * std::mem::size_of::<(Angle, f64)>()
            })
            .sum();
        std::mem::size_of::<Self>()
            + self.positions.len() * std::mem::size_of::<Point>()
            + self.nodes.len() * std::mem::size_of::<NodeCache>()
            + cached
            + self.grid.index_bytes()
    }

    /// Applies one position epoch: `moves` is the ascending-by-index list
    /// of `(node, new position)` pairs (the contract
    /// `dirca_topology::MobilityState::step` upholds). Re-bins only the
    /// movers and rebuilds only the caches whose 3×3 cell block changed;
    /// an empty list does zero cache work (only the epoch counter ticks).
    ///
    /// Returns the affected node ids (ascending, deduplicated) — the
    /// nodes whose caches were rebuilt, which callers use to refresh their
    /// own derived per-node state.
    ///
    /// # Panics
    ///
    /// Panics if a move names an out-of-range node.
    pub fn apply_moves(&mut self, moves: &[(usize, Point)]) -> &[NodeId] {
        self.stats.epochs += 1;
        self.affected.clear();
        if moves.is_empty() {
            return &self.affected;
        }
        // Phase 1: update positions and re-bin the movers, remembering
        // each mover's old and new cells.
        let mut blocks: Vec<(u32, u32)> = Vec::with_capacity(moves.len() * 2);
        for &(id, new_pos) in moves {
            assert!(
                id < self.positions.len(),
                "move names node {id} out of range"
            );
            let old_pos = std::mem::replace(&mut self.positions[id], new_pos);
            if self.grid.rebin(NodeId(id), old_pos, new_pos) {
                self.stats.rebins += 1;
                blocks.push(self.grid.cell_of(new_pos));
            }
            blocks.push(self.grid.cell_of(old_pos));
        }
        // Phase 2: the caches that can change are exactly the occupants of
        // the 3×3 blocks around each mover's old and new cells (collected
        // *after* re-binning: movers are found via their new cells,
        // unmoved witnesses of a departure via the old blocks). Sort and
        // deduplicate both the blocks and the node set so shared cells are
        // walked once and every cache rebuilds exactly once, ascending.
        blocks.sort_unstable();
        blocks.dedup();
        let affected = &mut self.affected;
        for &block in &blocks {
            self.grid.for_each_in_block(block, |id| affected.push(id));
        }
        affected.sort_unstable();
        affected.dedup();
        // Phase 3: rebuild in ascending id order.
        let mut scratch = Vec::new();
        for i in 0..self.affected.len() {
            let id = self.affected[i];
            self.rebuild_node(id.0, &mut scratch);
        }
        self.stats.rebuilds += self.affected.len() as u64;
        &self.affected
    }

    /// Rebuilds node `id`'s neighbour list and edge geometry from the grid
    /// and current positions with the exact reference expressions. The
    /// list is gathered in `scratch` and copied, so a fresh build
    /// allocates each list at its exact length and later rebuilds refill
    /// in place.
    fn rebuild_node(&mut self, id: usize, scratch: &mut Vec<NodeId>) {
        // panic-path: callers pass ids below `positions.len()`, the caches
        // vector is position-parallel, and grid buckets only hold ids the
        // plan indexed.
        let origin = self.positions[id];
        let range = self.range;
        let positions = &self.positions;
        scratch.clear();
        self.grid.for_each_candidate(origin, |p| {
            if p.0 != id && TxPattern::Omni.covers(origin, range, positions[p.0]) {
                scratch.push(p);
            }
        });
        scratch.sort_unstable();
        let NodeCache { neighbors, edges } = &mut self.nodes[id];
        neighbors.clear();
        neighbors.extend_from_slice(scratch);
        edges.clear();
        edges.extend(scratch.iter().map(|p| {
            let q = positions[p.0];
            (origin.heading_to(q), origin.distance_squared(q))
        }));
    }

    /// Distance |a − b|, equal to [`Channel::distance`] bit for bit (same
    /// expression over the same coordinates).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        assert!(
            a.0 < self.positions.len() && b.0 < self.positions.len(),
            "node id out of range"
        );
        self.positions[a.0].distance(self.positions[b.0])
    }

    /// Bearing `from` → `to`, equal to [`Channel::heading`] bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn heading(&self, from: NodeId, to: NodeId) -> Angle {
        assert!(
            from.0 < self.positions.len() && to.0 < self.positions.len(),
            "node id out of range"
        );
        self.positions[from.0].heading_to(self.positions[to.0])
    }

    /// The omni neighbourhood of `id` in ascending id order, equal to
    /// [`Channel::neighbors`]. Borrowed slice; no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        // panic-path: an out-of-range id panics on the cache read, which
        // is the documented contract.
        &self.nodes[id.0].neighbors
    }

    /// The bearing and distance of a signal arriving at `dst` from `src`,
    /// as the pair `(heading dst → src, |dst − src|)` — bit-identical to
    /// ([`Channel::heading`], [`Channel::distance`]).
    ///
    /// The hot path for wave delivery: when `src` is inside `dst`'s
    /// neighbourhood (every physically arriving signal is, since beam and
    /// omni share one distance bound and distance is symmetric) both
    /// values come from the edge cache after one binary search; the
    /// out-of-range fallback computes them with the same expressions.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn arrival_geometry(&self, dst: NodeId, src: NodeId) -> (Angle, f64) {
        let cache = &self.nodes[dst.0];
        match cache.neighbors.binary_search(&src) {
            // panic-path: `edges` is parallel to `neighbors` by
            // construction, so a found index reads both.
            Ok(i) => {
                let (heading, d2) = cache.edges[i];
                (heading, d2.sqrt())
            }
            Err(_) => (self.heading(dst, src), self.distance(dst, src)),
        }
    }

    /// Fills `out` with the footprint of a beam from `src` aimed at `dst`
    /// at the plan's beamwidth, in ascending id order — equal to
    /// [`Channel::covered_by`] for the beam aimed from `src` at `dst`, for
    /// **any** dst (neighbour or not; a beam aimed at an unreachable peer
    /// still covers whatever falls in its sector).
    ///
    /// Cost: one binary search for the aim's cached bearing (computed on
    /// the spot for an out-of-neighbourhood aim, which a MAC never
    /// produces), then an O(deg) filter of `src`'s omni list against the
    /// cached edge bearings — because the sector shares the omni disk's
    /// exact distance bound, the footprint is a subset of that list and
    /// the filter preserves its ascending order.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn directional_coverage_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        // The bearing src → dst is the arrival heading at src of a signal
        // from dst.
        let (boresight, _) = self.arrival_geometry(src, dst);
        let cache = &self.nodes[src.0];
        for (&p, &(bearing, d2)) in cache.neighbors.iter().zip(&cache.edges) {
            if beam_covers_neighbor(self.beamwidth, boresight, d2, bearing) {
                out.push(p);
            }
        }
    }

    /// Allocating convenience form of
    /// [`CoveragePlan::directional_coverage_into`].
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn directional_coverage(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.directional_coverage_into(src, dst, &mut out);
        out
    }

    /// Fills `out` with the nodes strictly within range of `id` under the
    /// topology-layer adjacency predicate `d² ≤ R²` (**no** EPSILON slack),
    /// ascending by id — bit-identical to one row of
    /// `Topology::adjacency`.
    ///
    /// This is deliberately a *different* predicate from
    /// [`CoveragePlan::neighbors`] (`d² ≤ R² + EPSILON`): traffic
    /// generation has always drawn destinations from the strict set while
    /// signal coverage uses the slack bound, and collapsing the two would
    /// shift golden traces. Since strict ⊆ slack, this filters the omni
    /// list on its cached squared distances.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn adjacency_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let r2 = self.range * self.range;
        let cache = &self.nodes[id.0];
        out.extend(
            cache
                .neighbors
                .iter()
                .zip(&cache.edges)
                .filter(|&(_, &(_, d2))| d2 <= r2)
                .map(|(&p, _)| p),
        );
    }
}

/// The constructor that builds a [`CoveragePlan`] straight from a
/// position slice, for callers that track positions without a
/// [`Channel`] (mobility replays and benchmarks). It is a namespace only:
/// the plan it returns is the one plan type, and moving fields drive it
/// through [`CoveragePlan::apply_moves`].
#[derive(Debug)]
pub enum DynamicCoveragePlan {}

impl DynamicCoveragePlan {
    /// Builds a [`CoveragePlan`] over `positions` with range `range` and
    /// directional footprints filtered at `beamwidth`.
    ///
    /// # Panics
    ///
    /// Panics unless `range` is positive and finite.
    // The constructor's name and signature predate the merge of the static
    // and mobile plans, and callers outside the workspace build against it.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(positions: &[Point], range: f64, beamwidth: Beamwidth) -> CoveragePlan {
        CoveragePlan::from_positions(positions.to_vec(), range, beamwidth)
    }
}

/// Whether a beam aimed at `boresight` covers an omni neighbour at squared
/// distance `d2` and bearing `bearing` — [`dirca_geometry::Sector::contains`]
/// minus its range test, which every omni neighbour already passes (both
/// bound `d² ≤ R² + EPSILON` with the same expression). The apex rule and
/// the angular predicate are the sector's own.
#[inline]
fn beam_covers_neighbor(beamwidth: Beamwidth, boresight: Angle, d2: f64, bearing: Angle) -> bool {
    d2 <= EPSILON || beamwidth.covers_bearing(boresight, bearing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirca_sim::SimDuration;

    fn chan(points: Vec<Point>) -> Channel {
        Channel::new(points, 1.0, SimDuration::from_micros(1)).unwrap()
    }

    fn cross() -> Channel {
        chan(vec![
            Point::new(0.0, 0.0),
            Point::new(0.9, 0.0),
            Point::new(0.0, 0.9),
            Point::new(-0.9, 0.0),
            Point::new(0.0, -0.9),
            Point::new(3.0, 3.0), // isolated
        ])
    }

    fn beam(deg: f64) -> Beamwidth {
        Beamwidth::from_degrees(deg).unwrap()
    }

    #[test]
    fn neighbors_match_reference() {
        let c = cross();
        let plan = CoveragePlan::new(&c, beam(30.0));
        for i in 0..c.len() {
            assert_eq!(
                plan.neighbors(NodeId(i)),
                c.covered_by(NodeId(i), TxPattern::Omni).unwrap().as_slice(),
                "node {i}"
            );
        }
    }

    #[test]
    fn directional_sets_match_reference_for_all_aims() {
        let c = cross();
        for theta in [15.0, 90.0, 181.0, 360.0] {
            let plan = CoveragePlan::new(&c, beam(theta));
            for src in 0..c.len() {
                // Every aim — neighbour, isolated node, or self — must
                // reproduce the reference footprint.
                for dst in 0..c.len() {
                    let pattern = TxPattern::aimed(
                        c.position(NodeId(src)).unwrap(),
                        c.position(NodeId(dst)).unwrap(),
                        beam(theta),
                    );
                    assert_eq!(
                        plan.directional_coverage(NodeId(src), NodeId(dst)),
                        c.covered_by(NodeId(src), pattern).unwrap(),
                        "θ={theta} {src}→{dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn matrices_match_reference_bit_for_bit() {
        let c = cross();
        let plan = CoveragePlan::new(&c, beam(90.0));
        for a in 0..c.len() {
            for b in 0..c.len() {
                let (a, b) = (NodeId(a), NodeId(b));
                assert_eq!(
                    plan.distance(a, b).to_bits(),
                    c.distance(a, b).unwrap().to_bits()
                );
                assert_eq!(
                    plan.heading(a, b).radians().to_bits(),
                    c.heading(a, b).unwrap().radians().to_bits()
                );
            }
        }
    }

    #[test]
    fn omni_beamwidth_equals_the_neighbour_slice() {
        let c = cross();
        let plan = CoveragePlan::new(&c, Beamwidth::OMNI);
        for src in 0..c.len() {
            for &dst in plan.neighbors(NodeId(src)) {
                assert_eq!(
                    plan.directional_coverage(NodeId(src), dst),
                    plan.neighbors(NodeId(src)),
                    "360° beam must equal the omni footprint"
                );
            }
        }
    }

    #[test]
    fn adjacency_matches_strict_predicate() {
        let c = cross();
        let plan = CoveragePlan::new(&c, beam(30.0));
        let mut out = Vec::new();
        for i in 0..c.len() {
            plan.adjacency_into(NodeId(i), &mut out);
            // Brute-force strict oracle (the Topology::adjacency
            // predicate: d² ≤ R², no EPSILON).
            let oracle: Vec<NodeId> = (0..c.len())
                .filter(|&j| {
                    j != i
                        && c.position(NodeId(i))
                            .unwrap()
                            .distance_squared(c.position(NodeId(j)).unwrap())
                            <= 1.0
                })
                .map(NodeId)
                .collect();
            assert_eq!(out, oracle, "node {i}");
        }
    }

    #[test]
    fn plan_memory_is_subquadratic() {
        // A constant-density field: plan bytes must grow ~linearly, far
        // below the dense 24·n² matrices the old plan carried.
        let make = |side: usize| {
            let pts: Vec<Point> = (0..side * side)
                .map(|i| Point::new((i % side) as f64 * 0.7, (i / side) as f64 * 0.7))
                .collect();
            let n = pts.len();
            let plan = CoveragePlan::new(&chan(pts), beam(45.0));
            (n, plan.index_bytes())
        };
        let (n_small, b_small) = make(10);
        let (n_large, b_large) = make(30);
        let growth = b_large as f64 / b_small as f64;
        let quadratic = ((n_large * n_large) / (n_small * n_small)) as f64;
        assert!(
            growth < quadratic / 2.0,
            "bytes grew {growth:.1}× for {quadratic:.0}× the pair count"
        );
    }

    #[test]
    fn empty_channel_builds_an_empty_plan() {
        let c = Channel::new(vec![], 1.0, SimDuration::ZERO).unwrap();
        let plan = CoveragePlan::new(&c, beam(90.0));
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert_eq!(plan.stats(), InvalidationStats::default());
    }

    #[test]
    fn accessors_report_build_parameters() {
        let c = cross();
        let plan = CoveragePlan::new(&c, beam(45.0));
        assert_eq!(plan.len(), 6);
        assert!(!plan.is_empty());
        assert!((plan.beamwidth().degrees() - 45.0).abs() < 1e-12);
        assert!(!plan.grid().is_empty());
        assert!(plan.index_bytes() > 0);
    }

    #[test]
    #[should_panic(expected = "node id out of range")]
    fn out_of_range_lookup_panics() {
        let c = cross();
        let plan = CoveragePlan::new(&c, beam(90.0));
        let _ = plan.distance(NodeId(0), NodeId(99));
    }
}
