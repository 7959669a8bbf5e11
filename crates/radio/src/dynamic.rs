//! Incrementally-maintained coverage plan for mobile geometry.
//!
//! [`crate::CoveragePlan`] is immutable by design: positions never change,
//! so every spatial answer is precomputed once. Mobility breaks that
//! contract. A [`DynamicCoveragePlan`] serves the same queries — omni
//! neighbour lists, per-edge distance/heading, directional footprints, the
//! strict traffic adjacency — over a mutable uniform grid. It caches only
//! each node's two id lists (the omni neighbourhood and the strict traffic
//! adjacency); distance, heading and directional footprints are computed
//! per query from the current positions with the reference expressions,
//! because a position epoch would invalidate any cached geometry long
//! before most of it is read. [`DynamicCoveragePlan::apply_moves`]
//! refreshes the lists *incrementally* on a position epoch:
//!
//! 1. **Re-bin only the movers.** Each moved node is removed from its old
//!    grid bucket and inserted (id-sorted) into its new one; unmoved nodes
//!    are never touched.
//! 2. **Rebuild only the affected 3×3 blocks.** A node's cache depends
//!    only on positions within the coverage reach of it, and the grid's
//!    cell edge ≥ reach, so the caches that can change are exactly the
//!    occupants of the 3×3 cell blocks around each mover's old and new
//!    cells. Those are collected (after re-binning, so movers are found
//!    via their new cells and unmoved witnesses via the old blocks),
//!    deduplicated, and rebuilt in ascending id order — never the whole
//!    arena.
//!
//! An empty move list does **zero** cache work: no re-bins, no rebuilds.
//! The counters in [`InvalidationStats`] make that auditable — the golden
//! regression in `tests/dynamic_plan.rs` asserts the zero-motion epochs of
//! a speed-0 run leave both counters at exactly zero (counter-asserted,
//! not timed), and the equivalence proptest pins that after any sequence
//! of epochs the incrementally-maintained plan equals a from-scratch
//! rebuild field for field.
//!
//! # Determinism
//!
//! Buckets are id-sorted `Vec`s, the affected set is sorted and
//! deduplicated before rebuilding, and every cache is rebuilt with the
//! exact reference predicates ([`TxPattern::covers`] and the
//! `Topology::adjacency` strict bound) over the current positions — no
//! hashing, no iteration-order dependence anywhere, so a plan's contents
//! are a pure function of `(initial positions, move history)`.
//!
//! # Out-of-box movement
//!
//! The grid's bounding box is fixed at construction; movers that wander
//! outside it clamp to the border cells. Clamping is monotone and
//! 1-Lipschitz in cell units, so two positions within one reach of each
//! other still land within one cell of each other and the 3×3 superset
//! guarantee survives arbitrary excursions (dense border cells only cost
//! time, never correctness).

use dirca_geometry::{Angle, Beamwidth, Point, EPSILON};

use crate::channel::TxPattern;
use crate::NodeId;

/// Counters for the incremental-invalidation work an epoch performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InvalidationStats {
    /// Number of [`DynamicCoveragePlan::apply_moves`] calls.
    pub epochs: u64,
    /// Nodes moved between grid buckets.
    pub rebins: u64,
    /// Per-node caches rebuilt: one rebuild refreshes one node's
    /// neighbour and adjacency lists.
    pub rebuilds: u64,
}

/// One node's cached spatial answers: the two id lists every query
/// starts from. Edge geometry and footprints are derived per query.
#[derive(Debug, Clone, PartialEq, Default)]
struct NodeCache {
    /// Omni neighbourhood, ascending by id (the `d² ≤ R² + EPSILON`
    /// coverage predicate).
    neighbors: Vec<NodeId>,
    /// Strict traffic adjacency (`d² ≤ R²`, no EPSILON), ascending by id.
    adjacency: Vec<NodeId>,
}

/// A mutable uniform grid mirroring [`crate::SpatialGrid`]'s geometry with
/// per-cell `Vec` buckets so single nodes can be re-binned in O(bucket).
#[derive(Debug, Clone)]
struct DynamicGrid {
    cell: f64,
    min_x: f64,
    min_y: f64,
    cols: u32,
    rows: u32,
    /// Row-major buckets; ids ascend within each bucket.
    buckets: Vec<Vec<NodeId>>,
}

impl DynamicGrid {
    /// Builds the grid over `positions` with cell edge ≥ `reach`, using
    /// the same bounding-box, soft cell-count cap, and clamped cell
    /// arithmetic as [`crate::SpatialGrid`].
    fn new(positions: &[Point], reach: f64) -> Self {
        assert!(
            reach.is_finite() && reach > 0.0,
            "grid reach must be positive and finite, got {reach}"
        );
        let n = positions.len();
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for p in positions {
            if p.x.is_finite() && p.y.is_finite() {
                min_x = min_x.min(p.x);
                min_y = min_y.min(p.y);
                max_x = max_x.max(p.x);
                max_y = max_y.max(p.y);
            }
        }
        if !min_x.is_finite() {
            (min_x, min_y, max_x, max_y) = (0.0, 0.0, 0.0, 0.0);
        }
        let width = max_x - min_x;
        let height = max_y - min_y;
        let per_axis = (((4 * n.max(4)) as f64).sqrt().floor()).max(1.0);
        let cell = reach.max(width / per_axis).max(height / per_axis);
        let cols = ((width / cell).floor().clamp(0.0, u32::MAX as f64 - 2.0) as u32) + 1;
        let rows = ((height / cell).floor().clamp(0.0, u32::MAX as f64 - 2.0) as u32) + 1;
        let mut grid = DynamicGrid {
            cell,
            min_x,
            min_y,
            cols,
            rows,
            buckets: vec![Vec::new(); (cols as usize) * (rows as usize)],
        };
        // Walking ids in ascending order keeps every bucket id-sorted.
        for (id, p) in positions.iter().enumerate() {
            let cell = grid.cell_of(*p);
            grid.bucket_mut(cell).push(NodeId(id));
        }
        grid
    }

    /// The clamped (col, row) cell of `p` — identical arithmetic to
    /// `SpatialGrid::cell_of`, so out-of-box and non-finite positions stay
    /// deterministic.
    fn cell_of(&self, p: Point) -> (u32, u32) {
        let c = ((p.x - self.min_x) / self.cell)
            .floor()
            .clamp(0.0, (self.cols - 1) as f64) as u32;
        let r = ((p.y - self.min_y) / self.cell)
            .floor()
            .clamp(0.0, (self.rows - 1) as f64) as u32;
        (c, r)
    }

    fn bucket_mut(&mut self, (c, r): (u32, u32)) -> &mut Vec<NodeId> {
        // panic-path: cell_of clamps both axes into the grid, so the
        // row-major index is always within the bucket vector.
        &mut self.buckets[(r as usize) * (self.cols as usize) + (c as usize)]
    }

    /// Moves `id` from the bucket of `old` to the bucket of `new`,
    /// preserving ascending id order. Returns whether the buckets differed
    /// (i.e. a re-bin actually happened).
    fn rebin(&mut self, id: NodeId, old: (u32, u32), new: (u32, u32)) -> bool {
        if old == new {
            return false;
        }
        let from = self.bucket_mut(old);
        // panic-path: the plan re-bins a node exactly once per move and
        // tracks positions itself, so the node is present in its old
        // bucket by construction.
        let pos = from
            .binary_search(&id)
            .expect("mover present in its old grid bucket");
        from.remove(pos);
        let to = self.bucket_mut(new);
        let at = to.binary_search(&id).unwrap_or_else(|i| i);
        to.insert(at, id);
        true
    }

    /// Invokes `f` for every node in the 3×3 cell block around cell
    /// `(c, r)`, row-major, ids ascending within each bucket.
    fn for_each_in_block(&self, (c, r): (u32, u32), mut f: impl FnMut(NodeId)) {
        let c1 = (c + 1).min(self.cols - 1);
        let r1 = (r + 1).min(self.rows - 1);
        for row in r.saturating_sub(1)..=r1 {
            for col in c.saturating_sub(1)..=c1 {
                // panic-path: clamped col/row are within the grid.
                for &id in &self.buckets[(row as usize) * (self.cols as usize) + (col as usize)] {
                    f(id);
                }
            }
        }
    }
}

/// A coverage plan over *mobile* geometry: the same query surface as
/// [`crate::CoveragePlan`], plus [`DynamicCoveragePlan::apply_moves`] for
/// position epochs with incremental cache invalidation.
#[derive(Debug, Clone)]
pub struct DynamicCoveragePlan {
    positions: Vec<Point>,
    range: f64,
    beamwidth: Beamwidth,
    grid: DynamicGrid,
    nodes: Vec<NodeCache>,
    stats: InvalidationStats,
    /// Scratch: affected node ids of the current epoch (kept across calls
    /// to avoid reallocation; returned as a slice from `apply_moves`).
    affected: Vec<NodeId>,
}

impl PartialEq for DynamicCoveragePlan {
    /// Field-for-field cache equality: positions and every per-node cache
    /// (neighbour and adjacency lists). Work counters and grid bounding
    /// boxes are excluded — two plans built over different move histories
    /// legitimately differ there while serving identical answers.
    fn eq(&self, other: &Self) -> bool {
        self.positions == other.positions
            && self.range.to_bits() == other.range.to_bits()
            && self.beamwidth == other.beamwidth
            && self.nodes == other.nodes
    }
}

impl DynamicCoveragePlan {
    /// Builds the plan from scratch over `positions`.
    ///
    /// # Panics
    ///
    /// Panics unless `range` is positive and finite.
    pub fn new(positions: &[Point], range: f64, beamwidth: Beamwidth) -> Self {
        assert!(
            range.is_finite() && range > 0.0,
            "range must be positive and finite, got {range}"
        );
        // Same reach bound as the static plan: the widest distance any
        // coverage predicate accepts, with margin dwarfing cell-arithmetic
        // ulp error.
        let reach = (range * range + EPSILON).sqrt() * (1.0 + 1e-9);
        let grid = DynamicGrid::new(positions, reach);
        let mut plan = DynamicCoveragePlan {
            positions: positions.to_vec(),
            range,
            beamwidth,
            grid,
            nodes: vec![NodeCache::default(); positions.len()],
            stats: InvalidationStats::default(),
            affected: Vec::new(),
        };
        for id in 0..plan.positions.len() {
            plan.rebuild_node(id);
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

    /// The incremental-invalidation work counters since construction.
    pub fn stats(&self) -> InvalidationStats {
        self.stats
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
            let old_cell = self.grid.cell_of(self.positions[id]);
            let new_cell = self.grid.cell_of(new_pos);
            self.positions[id] = new_pos;
            if self.grid.rebin(NodeId(id), old_cell, new_cell) {
                self.stats.rebins += 1;
            }
            blocks.push(old_cell);
            if new_cell != old_cell {
                blocks.push(new_cell);
            }
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
        for i in 0..self.affected.len() {
            let id = self.affected[i];
            self.rebuild_node(id.0);
            self.stats.rebuilds += 1;
        }
        &self.affected
    }

    /// Rebuilds node `id`'s cache from the grid and current positions with
    /// the exact reference predicates, refilling its lists in place so the
    /// steady state allocates nothing.
    fn rebuild_node(&mut self, id: usize) {
        // panic-path: callers pass ids below `positions.len()`, and the
        // caches vector is position-parallel by construction.
        let origin = self.positions[id];
        let range = self.range;
        let r2 = range * range;
        let positions = &self.positions;
        let NodeCache {
            neighbors,
            adjacency,
        } = &mut self.nodes[id];
        neighbors.clear();
        adjacency.clear();
        self.grid.for_each_in_block(self.grid.cell_of(origin), |p| {
            if p.0 == id {
                return;
            }
            // panic-path: grid buckets only hold ids the plan indexed.
            let q = positions[p.0];
            if TxPattern::Omni.covers(origin, range, q) {
                neighbors.push(p);
            }
            if origin.distance_squared(q) <= r2 {
                adjacency.push(p);
            }
        });
        neighbors.sort_unstable();
        adjacency.sort_unstable();
    }

    /// The omni neighbourhood of `id` in ascending id order — same
    /// predicate and ordering as [`crate::CoveragePlan::neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.0].neighbors
    }

    /// Distance |a − b| over the current positions (reference expression).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.positions[a.0].distance(self.positions[b.0])
    }

    /// Bearing `from` → `to` over the current positions.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn heading(&self, from: NodeId, to: NodeId) -> Angle {
        self.positions[from.0].heading_to(self.positions[to.0])
    }

    /// The bearing and distance of a signal arriving at `dst` from `src`,
    /// as the pair `(heading dst → src, |dst − src|)` over the current
    /// positions — the expressions [`crate::CoveragePlan::arrival_geometry`]
    /// caches, so the values are bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn arrival_geometry(&self, dst: NodeId, src: NodeId) -> (Angle, f64) {
        (self.heading(dst, src), self.distance(dst, src))
    }

    /// Fills `out` with the footprint of a beam from `src` aimed at `dst`
    /// at the plan's beamwidth, ascending by id: the sector filter of
    /// `src`'s neighbour slice (the sector shares the omni disk's distance
    /// bound, so the footprint is a subset of it). Mirrors
    /// [`crate::CoveragePlan::directional_coverage_into`].
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn directional_coverage_into(&self, src: NodeId, dst: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let origin = self.positions[src.0];
        let pattern = TxPattern::aimed(origin, self.positions[dst.0], self.beamwidth);
        for &p in &self.nodes[src.0].neighbors {
            if pattern.covers(origin, self.range, self.positions[p.0]) {
                out.push(p);
            }
        }
    }

    /// Fills `out` with the strict traffic adjacency of `id`
    /// (`d² ≤ R²`, no EPSILON), ascending by id — served from the cache.
    /// Mirrors [`crate::CoveragePlan::adjacency_into`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn adjacency_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend_from_slice(&self.nodes[id.0].adjacency);
    }
}
