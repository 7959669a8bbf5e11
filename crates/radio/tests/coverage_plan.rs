//! Property tests pinning [`CoveragePlan`] to the reference channel
//! queries it serves.
//!
//! The plan is grid-backed — candidates come from a 3×3 cell superset and
//! are filtered by the reference predicates — so these tests guard
//! against the failure mode that matters: the index drifting from
//! `Channel::covered_by` / `heading` / `distance` under a future
//! "optimisation" of the build. Every property is checked across random
//! topologies and beamwidths, including the θ = 360° equivalence case and
//! degenerate collinear layouts where sector membership sits on the
//! boundary.

// Unwraps and exact float comparisons are idiomatic in test assertions.
#![allow(clippy::unwrap_used, clippy::float_cmp)]

use dirca_geometry::{Beamwidth, Point};
use dirca_radio::{Channel, CoveragePlan, NodeId, TxPattern};
use dirca_sim::SimDuration;
use proptest::prelude::*;

fn positions_strategy() -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(
        (-3.0f64..3.0, -3.0f64..3.0).prop_map(|(x, y)| Point::new(x, y)),
        2..12,
    )
}

/// Nodes on a shared line through the origin: every heading is either the
/// line's bearing or its opposite, so beam-edge membership is exercised
/// constantly.
fn collinear_strategy() -> impl Strategy<Value = Vec<Point>> {
    let pi = std::f64::consts::PI;
    (prop::collection::vec(-3.0f64..3.0, 2..10), -pi..pi).prop_map(|(ts, angle)| {
        ts.iter()
            .map(|t| Point::new(t * angle.cos(), t * angle.sin()))
            .collect()
    })
}

fn beamwidth_strategy() -> impl Strategy<Value = Beamwidth> {
    prop_oneof![
        (1.0f64..360.0).prop_map(|d| Beamwidth::from_degrees(d).unwrap()),
        // Weight the exact-360° equivalence path explicitly; a uniform
        // draw essentially never lands on it.
        Just(Beamwidth::OMNI),
    ]
}

fn channel(positions: Vec<Point>) -> Channel {
    Channel::new(positions, 1.0, SimDuration::from_micros(1)).unwrap()
}

/// Asserts every plan lookup equals its reference query on `chan`.
fn assert_plan_matches_reference(chan: &Channel, beamwidth: Beamwidth) {
    let plan = CoveragePlan::new(chan, beamwidth);
    for a in 0..chan.len() {
        let a = NodeId(a);
        // Distance and heading: bit-for-bit, not approximately — the plan
        // must evaluate the exact reference expressions.
        for b in 0..chan.len() {
            let b = NodeId(b);
            assert_eq!(
                plan.distance(a, b).to_bits(),
                chan.distance(a, b).unwrap().to_bits(),
                "distance {a} → {b}"
            );
            assert_eq!(
                plan.heading(a, b).radians().to_bits(),
                chan.heading(a, b).unwrap().radians().to_bits(),
                "heading {a} → {b}"
            );
        }
        // Omni neighbour lists.
        assert_eq!(
            plan.neighbors(a),
            chan.covered_by(a, TxPattern::Omni).unwrap().as_slice(),
            "omni neighbourhood of {a}"
        );
        // Directional footprints for *every* aim — in-range neighbours,
        // unreachable peers, and the self-aim degenerate case alike.
        for dst in 0..chan.len() {
            let dst = NodeId(dst);
            let pattern = TxPattern::aimed(
                chan.position(a).unwrap(),
                chan.position(dst).unwrap(),
                beamwidth,
            );
            assert_eq!(
                plan.directional_coverage(a, dst),
                chan.covered_by(a, pattern).unwrap(),
                "aim {a} → {dst} at θ = {}°",
                beamwidth.degrees()
            );
        }
    }
}

proptest! {
    // 128 random cases each across three properties (plus the collinear
    // and 360° variants below) comfortably exceeds 200 distinct
    // topology × beamwidth draws per run.
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn plan_matches_reference_on_random_topologies(
        positions in positions_strategy(),
        beamwidth in beamwidth_strategy(),
    ) {
        assert_plan_matches_reference(&channel(positions), beamwidth);
    }

    #[test]
    fn plan_matches_reference_on_collinear_topologies(
        positions in collinear_strategy(),
        beamwidth in beamwidth_strategy(),
    ) {
        // Collinear nodes put receivers exactly on beam boresights and
        // exactly opposite them: the sector boundary is hit on purpose.
        assert_plan_matches_reference(&channel(positions), beamwidth);
    }

    #[test]
    fn full_circle_beam_equals_omni_footprint(positions in positions_strategy()) {
        // θ = 360° must equal the omni neighbourhood: a full-circle beam
        // and the omni pattern are the same physical footprint.
        let chan = channel(positions);
        let plan = CoveragePlan::new(&chan, Beamwidth::OMNI);
        for src in 0..chan.len() {
            let src = NodeId(src);
            for &dst in plan.neighbors(src) {
                prop_assert_eq!(
                    plan.directional_coverage(src, dst),
                    plan.neighbors(src),
                    "360° aim {} → {} diverged from omni", src, dst
                );
            }
        }
    }

    #[test]
    fn strict_adjacency_matches_topology_predicate(
        positions in positions_strategy(),
    ) {
        // The traffic-layer adjacency query must reproduce the strict
        // `d² ≤ R²` predicate (no EPSILON slack) in ascending order —
        // the behavioural gate separating traffic neighbour draws from
        // signal coverage.
        let chan = channel(positions);
        let plan = CoveragePlan::new(&chan, Beamwidth::OMNI);
        let mut out = Vec::new();
        for i in 0..chan.len() {
            plan.adjacency_into(NodeId(i), &mut out);
            let oracle: Vec<NodeId> = (0..chan.len())
                .filter(|&j| {
                    j != i
                        && chan
                            .position(NodeId(i))
                            .unwrap()
                            .distance_squared(chan.position(NodeId(j)).unwrap())
                            <= 1.0
                })
                .map(NodeId)
                .collect();
            prop_assert_eq!(&out, &oracle, "strict adjacency of node {}", i);
        }
    }
}

fn beam(degrees: f64) -> Beamwidth {
    Beamwidth::from_degrees(degrees).unwrap()
}

/// Stepping a finite non-negative f64 by `ulps` units in the last place.
fn ulp_step(x: f64, ulps: i64) -> f64 {
    f64::from_bits(x.to_bits().checked_add_signed(ulps).unwrap())
}

/// The largest `y ≥ 0` whose bearing `atan2(y, x)` from the origin is
/// still `≤ limit`, found by bisecting the bit patterns of `y` (bearing is
/// non-decreasing in `y` for `x > 0`).
fn last_y_within(x: f64, limit: f64) -> f64 {
    let bearing = |bits: u64| f64::from_bits(bits).atan2(x);
    let (mut lo, mut hi) = (0u64, 1e3f64.to_bits());
    assert!(bearing(lo) <= limit && bearing(hi) > limit);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if bearing(mid) <= limit {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    f64::from_bits(lo)
}

#[test]
fn co_located_nodes_match_reference() {
    // Exact duplicates and a pair just inside the apex rule (d² ≤
    // EPSILON): both are covered by every beam regardless of bearing.
    let positions = vec![
        Point::new(0.0, 0.0),
        Point::new(0.0, 0.0),
        Point::new(5e-7, 5e-7),
        Point::new(-8e-7, 0.0),
        Point::new(0.6, 0.1),
        Point::new(-0.3, -0.7),
        Point::new(0.6, 0.1),
    ];
    for degrees in [1.0, 15.0, 30.0, 90.0, 180.0, 359.0, 360.0] {
        assert_plan_matches_reference(&channel(positions.clone()), beam(degrees));
    }
}

#[test]
fn neighbours_on_the_beam_edge_match_reference() {
    // A source at the origin aimed along +x (bearing exactly 0), with
    // neighbours placed at the last bearing still inside ±θ/2 — both the
    // nominal half-width and the predicate's effective edge — and one and
    // two ulps either side of it.
    for degrees in [15.0, 30.0, 90.0, 150.0] {
        let theta = beam(degrees);
        // Edge neighbours land ~0.6 from the source, well inside R = 1.
        let x = 0.6 * theta.half_radians().cos();
        let mut positions = vec![Point::ORIGIN, Point::new(0.5, 0.0)];
        for limit in [theta.half_radians(), theta.half_radians() + 1e-12] {
            let y = last_y_within(x, limit);
            for ulps in -2..=2 {
                let y = ulp_step(y, ulps);
                positions.push(Point::new(x, y));
                positions.push(Point::new(x, -y));
            }
        }
        // The edge neighbours really straddle the predicate: all ten around
        // the nominal half-width are inside, and of the ten around the
        // effective edge the two one and two ulps past it (each side) are
        // not.
        let bore = Point::ORIGIN.heading_to(Point::new(0.5, 0.0));
        let covered = positions[2..]
            .iter()
            .filter(|&&p| theta.covers_bearing(bore, Point::ORIGIN.heading_to(p)))
            .count();
        assert_eq!(covered, 16, "θ = {degrees}°");
        assert!(positions.iter().all(|&p| Point::ORIGIN.distance(p) < 0.7));
        assert_plan_matches_reference(&channel(positions), theta);
    }
}

#[test]
fn bearings_straddling_the_pi_seam_match_reference() {
    // Neighbours on and just off the negative x-axis: `atan2(-0.0, x < 0)`
    // is −π, which normalizes to π, while the points just above and below
    // sit at π − δ and −π + δ.
    let tiny = f64::from_bits(1);
    let mut positions = vec![Point::ORIGIN];
    for y in [
        0.0, -0.0, tiny, -tiny, 1e-15, -1e-15, 1e-9, -1e-9, 0.05, -0.05,
    ] {
        positions.push(Point::new(-0.5, y));
    }
    positions.push(Point::new(0.5, -0.0));
    for degrees in [1.0, 15.0, 30.0, 90.0, 360.0] {
        assert_plan_matches_reference(&channel(positions.clone()), beam(degrees));
    }
}

#[test]
fn adjacency_is_strict_at_exactly_the_range() {
    // d = R exactly is adjacent (d² ≤ R²); one ulp further is inside the
    // coverage slack (d² ≤ R² + EPSILON) but not adjacent.
    let at_range = Point::new(1.0, 0.0);
    let past_range = Point::new(ulp_step(1.0, 1), 0.0);
    let chan = channel(vec![
        Point::ORIGIN,
        at_range,
        past_range,
        Point::new(0.0, ulp_step(1.0, -1)),
        Point::new(-0.6, 0.8),
    ]);
    let plan = CoveragePlan::new(&chan, beam(30.0));
    let mut out = Vec::new();
    plan.adjacency_into(NodeId(0), &mut out);
    assert!(out.contains(&NodeId(1)), "d = R must be adjacent");
    assert!(!out.contains(&NodeId(2)), "d > R must not be adjacent");
    assert!(plan.neighbors(NodeId(0)).contains(&NodeId(2)));
    for i in 0..chan.len() {
        let origin = chan.position(NodeId(i)).unwrap();
        let oracle: Vec<NodeId> = (0..chan.len())
            .filter(|&j| {
                j != i && origin.distance_squared(chan.position(NodeId(j)).unwrap()) <= 1.0
            })
            .map(NodeId)
            .collect();
        plan.adjacency_into(NodeId(i), &mut out);
        assert_eq!(out, oracle, "strict adjacency of node {i}");
    }
}
