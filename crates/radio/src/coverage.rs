//! Grid-backed coverage plans for static geometry.
//!
//! Node positions, the range `R`, and the beamwidth θ are immutable for
//! the lifetime of a simulation run, yet the per-frame transmit path asks
//! the same spatial questions — who does this beam cover, and from which
//! bearing does the energy arrive — millions of times. The original plan
//! answered them from dense pairwise matrices: perfect at the paper's
//! 30–130 nodes, fatal at 100k (10¹⁰ entries). A [`CoveragePlan`] now
//! rests on a [`SpatialGrid`] (cell edge ≥ the coverage reach), so both
//! construction and queries touch only the 3×3 cell neighbourhood of the
//! transmitter:
//!
//! * **Omni neighbour lists** are materialised once per node from the
//!   grid's candidate superset — O(n · local density) build, O(n) total
//!   memory — and served as borrowed id-sorted slices, allocation-free.
//! * **Distance and bearing** are computed once per *edge* (per omni
//!   arena slot) with the *same expressions* the reference [`Channel`]
//!   evaluates, and cached: results are bit-identical to the old cached
//!   matrices without the O(n²) storage; arbitrary-pair queries compute on
//!   demand.
//! * **Directional footprints** are precomputed per edge, not per node
//!   pair: a beam shares the omni disk's exact distance bound
//!   (`Sector::contains` and `TxPattern::covers` both test
//!   `d² ≤ R² + EPSILON`), so every aimable footprint is a filter of the
//!   transmitter's omni slice. The filter compares the cached bearings
//!   against the aim's cached bearing (`Beamwidth::covers_bearing`, the
//!   sector's own angular test), so the build does O(Σ deg) trigonometry
//!   and O(Σ deg²) comparisons — linear in n at fixed density — instead of
//!   the old n² range matrix. Lookup is a binary search of the id-sorted
//!   neighbour slice. Aims at out-of-neighbourhood destinations (which a
//!   MAC never produces) are filtered on the fly with the same predicate.
//! * **Strict adjacency** (`d² ≤ R²`, for traffic generation) filters the
//!   omni slice, a superset that is already sorted.
//!
//! Every query is equal to its reference implementation
//! ([`Channel::covered_by`] / [`Channel::heading`] /
//! [`Channel::distance`]) by construction: the grid only ever *widens*
//! the candidate superset, the filters are the exact reference
//! predicates, and every emitted slice is ascending by id. The property
//! tests in `tests/coverage_plan.rs` and `tests/spatial_grid.rs` pin that
//! equivalence across random and adversarial topologies and beamwidths.

use dirca_geometry::{Angle, Beamwidth, EPSILON};

use crate::channel::{Channel, TxPattern};
use crate::spatial::SpatialGrid;
use crate::NodeId;

/// Precomputed spatial tables for one immutable [`Channel`] + beamwidth,
/// backed by a uniform-grid index — O(n) memory, O(local density) per
/// query.
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
/// let plan = CoveragePlan::new(&chan, beam);
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
/// # Ok::<(), dirca_radio::ChannelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoveragePlan {
    /// Node positions, identical to the channel's (`positions[id]`).
    positions: Vec<dirca_geometry::Point>,
    /// The channel's transmission range `R`.
    range: f64,
    beamwidth: Beamwidth,
    /// Uniform grid over `positions` with cell edge ≥ the coverage reach.
    grid: SpatialGrid,
    /// `n + 1` arena offsets delimiting each node's omni neighbour slice.
    omni_offsets: Vec<u32>,
    /// The shared slice arena: omni neighbour lists first (ascending id
    /// order within each slice), directional footprints appended after.
    arena: Vec<NodeId>,
    /// Per-edge distance cache: `edge_dist[slot]` is the distance between
    /// a slice's owner and `arena[slot]`, for every omni arena slot.
    edge_dist: Vec<f64>,
    /// Per-edge arrival-bearing cache: `edge_heading[slot]` is the
    /// heading from a slice's owner *toward* `arena[slot]`.
    edge_heading: Vec<Angle>,
    /// Per-edge directional footprint ranges into `arena` for the aim
    /// (owner → `arena[slot]`); aliases the owner's omni slice when the
    /// beam covers the whole neighbourhood.
    dir_ranges: Vec<(u32, u32)>,
}

impl CoveragePlan {
    /// Builds the plan for `channel` with directional sets computed at
    /// `beamwidth`.
    ///
    /// Cost: O(n · local density) time for the grid and omni lists, one
    /// distance and one bearing per edge, and O(Σ deg²) angle comparisons
    /// (no trigonometry) for the per-edge directional footprints — linear
    /// in n at fixed density, never pairwise-quadratic.
    ///
    /// # Panics
    ///
    /// Panics if the channel holds ≥ `u32::MAX` nodes (the arena uses
    /// 32-bit offsets; a simulated channel is orders of magnitude smaller).
    pub fn new(channel: &Channel, beamwidth: Beamwidth) -> Self {
        let n = channel.len();
        assert!(
            (n as u64) < u64::from(u32::MAX),
            "coverage plan supports fewer than u32::MAX nodes"
        );
        let positions = channel.positions().to_vec();
        let range = channel.range();
        // The widest distance any coverage predicate accepts is
        // √(R² + EPSILON); the extra 1e-9 relative margin dwarfs the ulp
        // error of the grid's float cell arithmetic, so the 3×3 block is a
        // guaranteed superset of every acceptable candidate.
        let reach = (range * range + EPSILON).sqrt() * (1.0 + 1e-9);
        let grid = SpatialGrid::new(&positions, reach);

        // Materialise each node's omni neighbourhood from the grid
        // superset with the exact reference predicate, then sort: equal to
        // `Channel::covered_by(src, Omni)` output by construction (same
        // membership, and the reference emits ascending ids).
        let mut arena: Vec<NodeId> = Vec::new();
        let mut omni_offsets = Vec::with_capacity(n + 1);
        omni_offsets.push(0u32);
        let mut scratch: Vec<NodeId> = Vec::new();
        for src in 0..n {
            // panic-path: `src` iterates `0..n` over the same positions
            // vector, so indexing cannot fail.
            let origin = positions[src];
            scratch.clear();
            grid.for_each_candidate(origin, |id| {
                if id.0 != src && TxPattern::Omni.covers(origin, range, positions[id.0]) {
                    scratch.push(id);
                }
            });
            scratch.sort_unstable();
            arena.extend_from_slice(&scratch);
            omni_offsets.push(arena_offset(arena.len()));
        }
        let edges = arena.len();

        // Per-edge caches, indexed by omni arena slot: the distance and
        // bearing from a slice's owner to the neighbour in that slot (the
        // exact reference expressions, so values are bit-identical to
        // `Channel::distance` / `Channel::heading`), each computed once per
        // edge. The directional footprint of the beam aimed owner →
        // neighbour then filters the owner's omni slice through
        // `beam_covers_neighbor` against those cached bearings — no
        // trigonometry per (aim, neighbour) pair — which yields exactly
        // `Channel::covered_by` for the aimed pattern, ascending order
        // preserved, in an O(Σ deg²) table instead of O(n²).
        let mut edge_dist = Vec::with_capacity(edges);
        let mut edge_heading = Vec::with_capacity(edges);
        let mut dir_ranges = Vec::with_capacity(edges);
        let mut dist_squared: Vec<f64> = Vec::new();
        for src in 0..n {
            let (lo, hi) = (omni_offsets[src], omni_offsets[src + 1]);
            // panic-path: `src` iterates `0..n`, matching `positions`, and
            // omni slots hold ids the plan indexed.
            let origin = positions[src];
            scratch.clear();
            scratch.extend_from_slice(&arena[lo as usize..hi as usize]);
            dist_squared.clear();
            for &dst in &scratch {
                let p = positions[dst.0];
                dist_squared.push(origin.distance_squared(p));
                edge_dist.push(origin.distance(p));
                edge_heading.push(origin.heading_to(p));
            }
            let headings = &edge_heading[lo as usize..];
            for &boresight in headings {
                // Append the filtered footprint to the arena, then roll it
                // back if the beam turned out to cover the whole
                // neighbourhood (wide θ or a degenerate layout) — aliasing
                // src's omni slice keeps the arena compact.
                let start = arena.len();
                for ((&p, &d2), &bearing) in scratch.iter().zip(&dist_squared).zip(headings) {
                    if beam_covers_neighbor(beamwidth, boresight, d2, bearing) {
                        arena.push(p);
                    }
                }
                dir_ranges.push(if arena.len() - start == scratch.len() {
                    arena.truncate(start);
                    (lo, hi)
                } else {
                    (arena_offset(start), arena_offset(arena.len()))
                });
            }
        }

        CoveragePlan {
            positions,
            range,
            beamwidth,
            grid,
            omni_offsets,
            arena,
            edge_dist,
            edge_heading,
            dir_ranges,
        }
    }

    /// Number of nodes covered by the plan.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the plan covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The beamwidth the directional footprints are filtered at.
    pub fn beamwidth(&self) -> Beamwidth {
        self.beamwidth
    }

    /// The underlying spatial grid (sharding key for future
    /// partitioned-execution work, and a diagnostic for tests).
    pub fn grid(&self) -> &SpatialGrid {
        &self.grid
    }

    /// Total arena entries (a size diagnostic for tests and tooling).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Approximate resident bytes of the whole plan: positions, the slice
    /// arena + offsets, the per-edge caches, and the grid index. Grows
    /// O(n + Σ deg²) — linear in n at fixed density, never O(n²).
    pub fn index_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.positions.len() * std::mem::size_of::<dirca_geometry::Point>()
            + self.omni_offsets.len() * std::mem::size_of::<u32>()
            + self.arena.len() * std::mem::size_of::<NodeId>()
            + self.edge_dist.len() * std::mem::size_of::<f64>()
            + self.edge_heading.len() * std::mem::size_of::<Angle>()
            + self.dir_ranges.len() * std::mem::size_of::<(u32, u32)>()
            + self.grid.index_bytes()
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
        // panic-path: offsets are monotone within the arena length by
        // construction; an out-of-range id panics on the offset read,
        // which is the documented contract.
        let start = self.omni_offsets[id.0] as usize;
        let end = self.omni_offsets[id.0 + 1] as usize;
        &self.arena[start..end]
    }

    /// The omni arena slot of `needle` inside `owner`'s neighbour slice,
    /// found by binary search (slices ascend by id).
    ///
    /// panic-path: callers pass an in-range `owner`, so the offset read is
    /// within the n+1-length offsets vector.
    #[inline]
    fn edge_slot(&self, owner: NodeId, needle: NodeId) -> Option<usize> {
        let start = self.omni_offsets[owner.0] as usize;
        self.neighbors(owner)
            .binary_search(&needle)
            .ok()
            .map(|i| start + i)
    }

    /// The bearing and distance of a signal arriving at `dst` from `src`,
    /// as the pair `(heading dst → src, |dst − src|)` — bit-identical to
    /// ([`Channel::heading`], [`Channel::distance`]).
    ///
    /// The hot path for wave delivery: when `src` is inside `dst`'s
    /// neighbourhood (every physically arriving signal is, since beam and
    /// omni share one distance bound and distance is symmetric) both
    /// values come from the per-edge cache after one binary search; the
    /// out-of-range fallback computes them with the same expressions.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn arrival_geometry(&self, dst: NodeId, src: NodeId) -> (Angle, f64) {
        match self.edge_slot(dst, src) {
            // panic-path: per-edge caches are arena-slot-parallel by
            // construction, so a found slot indexes all of them.
            Some(slot) => (self.edge_heading[slot], self.edge_dist[slot]),
            None => (self.heading(dst, src), self.distance(dst, src)),
        }
    }

    /// Fills `out` with the footprint of a beam from `src` aimed at `dst`
    /// at the plan's beamwidth, in ascending id order — equal to
    /// [`Channel::covered_by`] with [`TxPattern::aimed`] for **any** dst
    /// (neighbour or not; a beam aimed at an unreachable peer still covers
    /// whatever falls in its sector).
    ///
    /// Cost for the aims a MAC produces (dst inside src's neighbourhood):
    /// one binary search plus a slice copy from the per-edge footprint
    /// table. Cold aims at out-of-neighbourhood destinations filter the
    /// omni slice on the fly with the same predicate — because the sector
    /// shares the omni disk's exact distance bound, the footprint is a
    /// subset of the omni neighbourhood and the filter preserves the
    /// slice's ascending order.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn directional_coverage_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<NodeId>) {
        assert!(
            src.0 < self.positions.len() && dst.0 < self.positions.len(),
            "node id out of range"
        );
        out.clear();
        if let Some(slot) = self.edge_slot(src, dst) {
            // panic-path: stored ranges delimit arena slices built above.
            let (start, end) = self.dir_ranges[slot];
            out.extend_from_slice(&self.arena[start as usize..end as usize]);
            return;
        }
        let origin = self.positions[src.0];
        let boresight = origin.heading_to(self.positions[dst.0]);
        let start = self.omni_offsets[src.0] as usize;
        let neighbors = self.neighbors(src);
        // panic-path: per-edge caches are arena-slot-parallel, so the omni
        // slice's slots index `edge_heading`.
        let headings = &self.edge_heading[start..start + neighbors.len()];
        for (&p, &bearing) in neighbors.iter().zip(headings) {
            // panic-path: neighbour slices only hold ids the plan indexed.
            let d2 = origin.distance_squared(self.positions[p.0]);
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
    /// slice, which is already ascending by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn adjacency_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        assert!(id.0 < self.positions.len(), "node id out of range");
        out.clear();
        let origin = self.positions[id.0];
        let r2 = self.range * self.range;
        // panic-path: neighbour slices only hold ids the plan indexed.
        out.extend(
            self.neighbors(id)
                .iter()
                .copied()
                .filter(|p| origin.distance_squared(self.positions[p.0]) <= r2),
        );
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

/// Narrows an arena length to the 32-bit offset type.
///
/// panic-path: the arena holds one entry per (node, neighbour) edge and
/// the constructor caps n below `u32::MAX`, so the length always fits.
fn arena_offset(len: usize) -> u32 {
    u32::try_from(len).expect("arena stays below u32::MAX entries")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirca_geometry::Point;
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
        assert_eq!(plan.arena_len(), 0);
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
