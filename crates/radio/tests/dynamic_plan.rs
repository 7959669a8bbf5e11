//! Equivalence battery for the coverage plan under real mobility traces.
//!
//! The plan caches each node's neighbour list and the bearing and squared
//! distance of every edge, and [`CoveragePlan::apply_moves`] refreshes
//! them incrementally on each position epoch. The property that matters:
//! after *any* sequence of epochs driven by the deterministic mobility
//! models, the incrementally maintained plan equals a from-scratch build
//! over the final positions **field for field** (via `PartialEq`), and it
//! answers every query — every arrival pair, every aim, and the strict
//! traffic adjacency — exactly like the reference [`Channel`] full scan
//! over the same positions (bearings and distances bit for bit). Checked
//! by proptest across epoch counts, node densities, beamwidths, and both
//! mobility families.
//!
//! The golden regression rides along: a zero-motion epoch does **zero**
//! cache work — counter-asserted via [`dirca_radio::InvalidationStats`],
//! not timed.

// Unwraps and exact float comparisons are idiomatic in test assertions.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use dirca_geometry::{Beamwidth, Point};
use dirca_radio::{Channel, CoveragePlan, DynamicCoveragePlan, NodeId, TxPattern};
use dirca_sim::SimDuration;
use dirca_topology::{MobilityModel, MobilityState};
use proptest::prelude::*;

const RANGE: f64 = 1.0;

fn positions_strategy() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (-2.5f64..2.5, -2.5f64..2.5).prop_map(|(x, y)| Point::new(x, y)),
        2..14,
    )
}

fn beamwidth_strategy() -> impl Strategy<Value = Beamwidth> {
    prop_oneof![
        (1.0f64..360.0).prop_map(|d| Beamwidth::from_degrees(d).unwrap()),
        Just(Beamwidth::OMNI),
    ]
}

fn model_strategy() -> impl Strategy<Value = MobilityModel> {
    prop_oneof![
        (0.5f64..2.0, 0.0f64..3.0, 0.0f64..0.2).prop_map(|(lo, extra, pause)| {
            MobilityModel::RandomWaypoint {
                speed_min: lo,
                speed_max: lo + extra,
                pause_secs: pause,
            }
        }),
        (1usize..4, 0.5f64..2.0, 0.0f64..3.0, 0.0f64..0.5).prop_map(
            |(groups, lo, extra, deviation)| MobilityModel::Rpgm {
                groups,
                speed_min: lo,
                speed_max: lo + extra,
                pause_secs: 0.0,
                deviation,
            }
        ),
    ]
}

/// Asserts `plan` answers every query exactly like the reference
/// [`Channel`] full scan over the plan's current positions — the oracle
/// the incremental path must never drift from.
fn assert_matches_oracle(plan: &CoveragePlan, beamwidth: Beamwidth) {
    let chan = Channel::new(
        plan.positions().to_vec(),
        RANGE,
        SimDuration::from_micros(1),
    )
    .expect("finite positions");
    let mut got = Vec::new();
    for i in 0..plan.len() {
        let src = NodeId(i);
        assert_eq!(
            plan.neighbors(src),
            chan.covered_by(src, TxPattern::Omni).unwrap().as_slice(),
            "neighbours of {src}"
        );
        // Brute-force strict oracle (the `Topology::adjacency` predicate:
        // d² ≤ R², no EPSILON).
        let origin = chan.position(src).unwrap();
        let strict: Vec<NodeId> = (0..plan.len())
            .map(NodeId)
            .filter(|&j| {
                j != src && origin.distance_squared(chan.position(j).unwrap()) <= RANGE * RANGE
            })
            .collect();
        plan.adjacency_into(src, &mut got);
        assert_eq!(got, strict, "adjacency of {src}");
        for j in 0..plan.len() {
            let dst = NodeId(j);
            let (heading, distance) = plan.arrival_geometry(dst, src);
            assert_eq!(
                heading.radians().to_bits(),
                chan.heading(dst, src).unwrap().radians().to_bits(),
                "heading {dst}→{src}"
            );
            assert_eq!(
                distance.to_bits(),
                chan.distance(dst, src).unwrap().to_bits(),
                "distance {dst}→{src}"
            );
            let aimed = TxPattern::aimed(origin, chan.position(dst).unwrap(), beamwidth);
            plan.directional_coverage_into(src, dst, &mut got);
            assert_eq!(
                got,
                chan.covered_by(src, aimed).unwrap(),
                "footprint {src}→{dst}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After k mobility epochs the incremental plan equals a from-scratch
    /// rebuild field for field, and matches the reference channel.
    #[test]
    fn incremental_plan_equals_scratch_rebuild(
        positions in positions_strategy(),
        beamwidth in beamwidth_strategy(),
        model in model_strategy(),
        epochs in 1usize..7,
        dt in 0.02f64..0.4,
        seed in 0u64..1_000,
    ) {
        let radius = MobilityState::field_radius(&positions, RANGE);
        let mut state = MobilityState::new(model, &positions, radius, seed);
        let mut plan = DynamicCoveragePlan::new(&positions, RANGE, beamwidth);
        for _ in 0..epochs {
            let moves = state.step(dt).to_vec();
            plan.apply_moves(&moves);
        }
        let scratch = DynamicCoveragePlan::new(state.positions(), RANGE, beamwidth);
        prop_assert_eq!(&plan, &scratch, "incremental plan drifted from a scratch rebuild");
        assert_matches_oracle(&plan, beamwidth);
    }

    /// The cross-crate contract `apply_moves` relies on: `step` reports
    /// exactly the changed nodes, strictly ascending by index, with the
    /// positions it claims.
    #[test]
    fn step_reports_exactly_the_movers_in_order(
        positions in positions_strategy(),
        model in model_strategy(),
        dt in 0.02f64..0.4,
        seed in 0u64..1_000,
    ) {
        let radius = MobilityState::field_radius(&positions, RANGE);
        let mut state = MobilityState::new(model, &positions, radius, seed);
        let before = state.positions().to_vec();
        let moves = state.step(dt).to_vec();
        prop_assert!(
            moves.windows(2).all(|w| w[0].0 < w[1].0),
            "moves not strictly ascending: {:?}", moves
        );
        for &(idx, pos) in &moves {
            prop_assert_eq!(state.positions()[idx], pos);
        }
        let moved: Vec<usize> = moves.iter().map(|m| m.0).collect();
        for (i, b) in before.iter().enumerate() {
            let changed = state.positions()[i] != *b;
            prop_assert_eq!(changed, moved.contains(&i), "node {} misreported", i);
        }
    }

    /// Golden regression, counter-asserted: feeding a speed-0 model's
    /// (empty) move lists through the plan does zero cache work — the
    /// epoch counter ticks, re-bins and rebuilds stay at exactly zero, and
    /// the plan still equals a fresh build.
    #[test]
    fn zero_motion_epochs_do_zero_cache_work(
        positions in positions_strategy(),
        beamwidth in beamwidth_strategy(),
        epochs in 1u64..12,
    ) {
        let radius = MobilityState::field_radius(&positions, RANGE);
        let mut state = MobilityState::new(MobilityModel::STATIC, &positions, radius, 7);
        let mut plan = DynamicCoveragePlan::new(&positions, RANGE, beamwidth);
        for _ in 0..epochs {
            let moves = state.step(0.1).to_vec();
            prop_assert!(moves.is_empty(), "a static model produced moves");
            prop_assert!(plan.apply_moves(&moves).is_empty());
        }
        let stats = plan.stats();
        prop_assert_eq!(stats.epochs, epochs);
        prop_assert_eq!(stats.rebins, 0, "zero-motion epochs re-binned");
        prop_assert_eq!(stats.rebuilds, 0, "zero-motion epochs rebuilt caches");
        let fresh = DynamicCoveragePlan::new(&positions, RANGE, beamwidth);
        prop_assert_eq!(&plan, &fresh);
    }

    /// Work-proportionality: a single mover's epoch rebuilds only caches in
    /// its 3×3 neighbourhood blocks — bounded by the occupancy around its
    /// old and new cells, never the whole arena.
    #[test]
    fn single_move_work_is_local(
        beamwidth in beamwidth_strategy(),
        dx in -0.4f64..0.4,
        dy in -0.4f64..0.4,
    ) {
        // A sparse 6×6 lattice at pitch 1.2 (> range): each node's 3×3
        // block holds a bounded handful of the 36 nodes.
        let positions: Vec<Point> = (0..36)
            .map(|i| Point::new((i % 6) as f64 * 1.2, (i / 6) as f64 * 1.2))
            .collect();
        let mut plan = DynamicCoveragePlan::new(&positions, RANGE, beamwidth);
        let target = Point::new(positions[14].x + dx, positions[14].y + dy);
        plan.apply_moves(&[(14, target)]);
        let stats = plan.stats();
        prop_assert!(
            stats.rebuilds <= 18,
            "one sub-cell move rebuilt {} of 36 caches", stats.rebuilds
        );
        assert_matches_oracle(&plan, beamwidth);
    }
}

fn beam(deg: f64) -> Beamwidth {
    Beamwidth::from_degrees(deg).unwrap()
}

fn grid_points(side: usize, pitch: f64) -> Vec<Point> {
    (0..side * side)
        .map(|i| Point::new((i % side) as f64 * pitch, (i / side) as f64 * pitch))
        .collect()
}

#[test]
fn fresh_plan_matches_reference() {
    for theta in [30.0, 120.0, 360.0] {
        let plan = DynamicCoveragePlan::new(&grid_points(4, 0.6), RANGE, beam(theta));
        assert_matches_oracle(&plan, beam(theta));
    }
}

#[test]
fn empty_moves_do_zero_cache_work() {
    let mut plan = DynamicCoveragePlan::new(&grid_points(4, 0.6), RANGE, beam(45.0));
    for _ in 0..10 {
        assert!(plan.apply_moves(&[]).is_empty());
    }
    let stats = plan.stats();
    assert_eq!(stats.epochs, 10);
    assert_eq!(stats.rebins, 0, "zero-motion epochs must not re-bin");
    assert_eq!(stats.rebuilds, 0, "zero-motion epochs must not rebuild");
}

#[test]
fn single_move_updates_queries() {
    let mut plan = DynamicCoveragePlan::new(&grid_points(4, 0.6), RANGE, beam(60.0));
    // Walk node 5 far away and back in several epochs.
    for target in [
        Point::new(10.0, 10.0),
        Point::new(-3.0, 4.0),
        Point::new(0.6, 0.6),
    ] {
        plan.apply_moves(&[(5, target)]);
        assert_matches_oracle(&plan, beam(60.0));
    }
    assert!(plan.stats().rebuilds > 0);
}

#[test]
fn moves_within_a_cell_still_invalidate() {
    // A sub-cell wiggle changes distances and may change coverage even
    // though no re-bin happens.
    let mut plan = DynamicCoveragePlan::new(&grid_points(3, 0.9), RANGE, beam(90.0));
    plan.apply_moves(&[(4, Point::new(0.95, 0.9))]);
    let stats = plan.stats();
    assert_eq!(stats.rebins, 0, "same-cell move must not re-bin");
    assert!(stats.rebuilds > 0, "same-cell move must still rebuild");
    assert_matches_oracle(&plan, beam(90.0));
}

#[test]
fn moves_are_strictly_local() {
    // A big sparse field: moving one corner node must not rebuild
    // caches on the far side.
    let mut plan = DynamicCoveragePlan::new(&grid_points(8, 1.1), RANGE, beam(45.0));
    let n = plan.len() as u64;
    plan.apply_moves(&[(0, Point::new(0.2, 0.3))]);
    let stats = plan.stats();
    assert!(
        stats.rebuilds < n / 2,
        "one corner move rebuilt {} of {} caches",
        stats.rebuilds,
        n
    );
    assert_matches_oracle(&plan, beam(45.0));
}

#[test]
fn affected_list_is_sorted_and_deduplicated() {
    let mut plan = DynamicCoveragePlan::new(&grid_points(4, 0.6), RANGE, beam(60.0));
    let affected = plan.apply_moves(&[(1, Point::new(0.1, 0.2)), (2, Point::new(1.4, 0.1))]);
    assert!(
        affected.windows(2).all(|w| w[0] < w[1]),
        "affected not strictly ascending: {affected:?}"
    );
}

#[test]
fn equality_compares_caches_not_history() {
    let points = grid_points(4, 0.6);
    let mut a = DynamicCoveragePlan::new(&points, RANGE, beam(60.0));
    // Move away and back: same final geometry, different history.
    a.apply_moves(&[(3, Point::new(5.0, 5.0))]);
    a.apply_moves(&[(3, points[3])]);
    let b = DynamicCoveragePlan::new(&points, RANGE, beam(60.0));
    assert_eq!(a, b, "round-trip move must restore cache equality");
    a.apply_moves(&[(3, Point::new(5.0, 5.0))]);
    assert_ne!(a, b);
}

#[test]
fn out_of_box_excursions_stay_correct() {
    let mut plan = DynamicCoveragePlan::new(&grid_points(3, 0.8), RANGE, beam(90.0));
    // March two nodes far outside the original bounding box, close to
    // each other: they must still see each other.
    plan.apply_moves(&[(0, Point::new(50.0, 50.0)), (1, Point::new(50.5, 50.0))]);
    assert_eq!(plan.neighbors(NodeId(0)), &[NodeId(1)]);
    assert_matches_oracle(&plan, beam(90.0));
}

#[test]
fn empty_plan_is_well_formed() {
    let mut plan = DynamicCoveragePlan::new(&[], RANGE, beam(45.0));
    assert!(plan.is_empty());
    assert!(plan.apply_moves(&[]).is_empty());
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_move_panics() {
    let mut plan = DynamicCoveragePlan::new(&grid_points(2, 0.5), RANGE, beam(45.0));
    plan.apply_moves(&[(99, Point::ORIGIN)]);
}
