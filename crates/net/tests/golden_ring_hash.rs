//! Recorded golden ring traces: the full frame trace of one seeded random
//! ring run per scheme, pinned by FNV-1a hash.
//!
//! The determinism test (`determinism.rs`) proves two same-seed runs agree
//! with *each other*; this test pins them against values recorded before
//! the precomputed-coverage fast path landed (PR 2), proving the cached
//! transmit path reproduces the reference `Channel::covered_by` path
//! byte-for-byte. If a deliberate behaviour change invalidates these
//! hashes, re-record them with `cargo test -p dirca-net --test
//! golden_ring_hash -- --nocapture print_current_hashes --ignored`.

mod common;

use common::{ring_config, ring_topology, trace_hash, VariantRow, VARIANT_ROWS};
use dirca_mac::Scheme;
use dirca_net::{NetWorld, SimConfig};
use dirca_sim::{SimTime, Simulation};

/// FNV-1a over the debug-serialized frame trace.
fn ring_trace_hash(scheme: Scheme, seed: u64) -> u64 {
    ring_trace_hash_with(ring_config(scheme, seed), false).0
}

/// Runs the golden ring under `config` (its seed also seeds the ring) and
/// hashes its frame trace. With `recorder` set (trace feature only), a
/// [`dirca_net::trace::RingTrace`] recorder rides along and its JSONL
/// export is returned for inspection — the frame-trace hash must not
/// change either way, which is the observability layer's
/// non-perturbation proof.
fn ring_trace_hash_with(config: SimConfig, recorder: bool) -> (u64, Option<String>) {
    let topology = ring_topology(config.seed);
    let mut world = NetWorld::build(&topology, &config);
    world.enable_trace();
    #[cfg(feature = "trace")]
    if recorder {
        world.attach_recorder(dirca_net::trace::RingTrace::with_capacity(1 << 16));
    }
    #[cfg(not(feature = "trace"))]
    let _ = recorder;
    let mut sim = Simulation::new(world);
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.prime(sched);
    }
    sim.run_until(SimTime::from_millis(400));
    #[cfg_attr(not(feature = "trace"), allow(unused_mut))]
    let mut world = sim.into_world();
    #[cfg(feature = "trace")]
    let jsonl = world.take_recorder().map(|r| r.to_jsonl());
    #[cfg(not(feature = "trace"))]
    let jsonl = None;
    (trace_hash(world.trace().expect("trace enabled")), jsonl)
}

/// (scheme, seed, FNV-1a of the trace) recorded on the pre-fast-path tree.
const RECORDED: &[(Scheme, u64, u64)] = &[
    (Scheme::OrtsOcts, 7, 0xe4d2_1263_1a44_5525),
    (Scheme::OrtsOcts, 21, 0x12d8_5da6_451d_a8af),
    (Scheme::DrtsDcts, 7, 0x2996_f717_dc7f_4175),
    (Scheme::DrtsDcts, 21, 0xaddc_d313_d5fc_6531),
    (Scheme::DrtsOcts, 7, 0xb224_28fd_d601_3676),
    (Scheme::DrtsOcts, 21, 0x3e5c_4317_2f31_0d37),
];

#[test]
fn ring_traces_match_recorded_golden_hashes() {
    for &(scheme, seed, want) in RECORDED {
        let got = ring_trace_hash(scheme, seed);
        assert_eq!(
            got, want,
            "{scheme} seed {seed}: trace diverged from the recorded golden run"
        );
    }
}

/// The classic trace hash of one variant row.
fn variant_hash(row: &VariantRow) -> u64 {
    ring_trace_hash_with((row.mutate)(ring_config(Scheme::DrtsDcts, row.seed)), false).0
}

/// The paths saturated, fault-free traffic never reaches — Poisson
/// arrivals into a bounded queue, frame errors, a node outage — pinned on
/// DRTS-DCTS at 30°.
#[test]
fn variant_traces_match_recorded_golden_hashes() {
    for row in VARIANT_ROWS {
        let got = variant_hash(row);
        assert_eq!(
            got, row.classic,
            "{} seed {}: trace diverged from the recorded golden run",
            row.name, row.seed
        );
    }
}

/// The observability layer's non-perturbation battery: attaching the
/// trace recorder must reproduce the recorded golden hashes byte-for-byte
/// (the recorder observes frames and RNG draws without touching either),
/// and the exported JSONL itself must be deterministic across same-seed
/// runs.
#[cfg(feature = "trace")]
mod recorder_does_not_perturb {
    use super::*;

    #[test]
    fn golden_hashes_survive_an_attached_recorder() {
        for &(scheme, seed, want) in RECORDED {
            let (got, jsonl) = ring_trace_hash_with(ring_config(scheme, seed), true);
            assert_eq!(
                got, want,
                "{scheme} seed {seed}: attaching the trace recorder perturbed the run"
            );
            assert!(
                jsonl.expect("recorder attached").lines().count() > 100,
                "{scheme} seed {seed}: recorder captured implausibly few records"
            );
        }
    }

    #[test]
    fn same_seed_runs_emit_identical_jsonl() {
        for scheme in Scheme::ALL {
            let (_, a) = ring_trace_hash_with(ring_config(scheme, 7), true);
            let (_, b) = ring_trace_hash_with(ring_config(scheme, 7), true);
            assert_eq!(
                a, b,
                "{scheme}: two same-seed runs exported different JSONL traces"
            );
        }
    }
}

#[test]
#[ignore = "recording helper: prints the current hashes for RECORDED and VARIANT_ROWS"]
fn print_current_hashes() {
    for scheme in Scheme::ALL {
        for seed in [7u64, 21] {
            println!(
                "    (Scheme::{scheme:?}, {seed}, 0x{:016x}),",
                ring_trace_hash(scheme, seed)
            );
        }
    }
    for row in VARIANT_ROWS {
        println!(
            "    {} seed {}: classic 0x{:016x}",
            row.name,
            row.seed,
            variant_hash(row)
        );
    }
}
