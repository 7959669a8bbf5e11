//! Golden hash battery for the sharded engine.
//!
//! Four layers of pinning, all over the same seeded random-ring workload
//! as `golden_ring_hash.rs`, on saturated fault-free traffic and on the
//! variant rows of `common::VARIANT_ROWS` (Poisson arrivals, frame errors,
//! a node outage):
//!
//! 1. **One shard ≡ classic** — the single-stripe sharded run must hash to
//!    the *same recorded constants* as the classic sequential engine, for
//!    every scheme and seed in the battery. This anchors the whole sharded
//!    code path (replica build, shard scheduler, window loop) to the
//!    pre-existing golden bytes.
//! 2. **Four shards, worker-invariant** — the partitioned run has its own
//!    recorded constants (the stripe interleaving legitimately differs
//!    from the single-queue engine), and those bytes must be identical at
//!    1, 2, and 4 workers.
//! 3. **Recorder non-perturbation** (trace feature) — attaching ring-trace
//!    recorders to every shard must leave the sharded hashes untouched.
//! 4. **One shard records what classic records** (trace feature) — the
//!    single-stripe run's recorder JSONL equals the classic engine's byte
//!    for byte.
//!
//! Re-record after a deliberate behaviour change with `cargo test -p
//! dirca-net --test sharded_golden -- --nocapture print_current_hashes
//! --ignored`.

mod common;

use common::{ring_config, ring_topology, trace_hash, VariantRow, VARIANT_ROWS};
use dirca_mac::Scheme;
use dirca_net::{ShardedNetSim, SimConfig};
use dirca_sim::SimTime;

/// Runs the golden ring configuration on the sharded engine and hashes the
/// merged frame trace (FNV-1a over the debug serialization, the same
/// digest as `golden_ring_hash.rs`).
fn sharded_ring_hash(scheme: Scheme, seed: u64, shards: u32, workers: usize) -> u64 {
    sharded_ring_hash_with(ring_config(scheme, seed), shards, workers, false)
}

/// The sharded trace hash of one variant row.
fn sharded_variant_hash(row: &VariantRow, shards: u32, workers: usize) -> u64 {
    let config = (row.mutate)(ring_config(Scheme::DrtsDcts, row.seed));
    sharded_ring_hash_with(config, shards, workers, false)
}

/// Runs the golden ring under `config` (its seed also seeds the ring) on
/// `shards` stripes and `workers` threads, optionally with a recorder on
/// every shard, and hashes the merged frame trace.
fn sharded_ring_hash_with(config: SimConfig, shards: u32, workers: usize, recorder: bool) -> u64 {
    let topology = ring_topology(config.seed);
    let mut sim = ShardedNetSim::build(&topology, &config, shards);
    sim.enable_trace();
    #[cfg(feature = "trace")]
    if recorder {
        for s in 0..sim.shard_count() {
            sim.net_world_mut(s)
                .attach_recorder(dirca_net::trace::RingTrace::with_capacity(1 << 16));
        }
    }
    #[cfg(not(feature = "trace"))]
    let _ = recorder;
    sim.prime();
    sim.run_until(SimTime::from_millis(400), workers);
    trace_hash(&sim.merged_trace().expect("trace enabled on every shard"))
}

/// The classic engine's recorded constants (from `golden_ring_hash.rs`):
/// the one-shard sharded run must reproduce them byte for byte.
const RECORDED_CLASSIC: &[(Scheme, u64, u64)] = &[
    (Scheme::OrtsOcts, 7, 0xe4d2_1263_1a44_5525),
    (Scheme::OrtsOcts, 21, 0x12d8_5da6_451d_a8af),
    (Scheme::DrtsDcts, 7, 0x2996_f717_dc7f_4175),
    (Scheme::DrtsDcts, 21, 0xaddc_d313_d5fc_6531),
    (Scheme::DrtsOcts, 7, 0xb224_28fd_d601_3676),
    (Scheme::DrtsOcts, 21, 0x3e5c_4317_2f31_0d37),
];

#[test]
fn one_shard_reproduces_the_classic_golden_hashes() {
    for &(scheme, seed, want) in RECORDED_CLASSIC {
        let got = sharded_ring_hash(scheme, seed, 1, 1);
        assert_eq!(
            got, want,
            "{scheme} seed {seed}: one-shard run diverged from the classic golden trace"
        );
    }
}

/// Recorded constants of the four-stripe partitioned run (its interleaving
/// across stripes legitimately differs from the single-queue engine, so it
/// carries its own battery).
const RECORDED_SHARDED: &[(Scheme, u64, u64)] = &[
    (Scheme::OrtsOcts, 7, 0x9078_d4ce_549a_ccc3),
    (Scheme::OrtsOcts, 21, 0xe0e0_1fdc_51fc_a56b),
    (Scheme::DrtsDcts, 7, 0x3d64_57a3_0152_cffb),
    (Scheme::DrtsDcts, 21, 0xa62e_bdb4_adc6_fbc3),
    (Scheme::DrtsOcts, 7, 0x2461_b12b_7d5b_8aa8),
    (Scheme::DrtsOcts, 21, 0x5fbd_7dff_b75f_cef7),
];

#[test]
fn four_shards_are_byte_identical_at_any_worker_count() {
    for &(scheme, seed, want) in RECORDED_SHARDED {
        for workers in [1usize, 2, 4] {
            let got = sharded_ring_hash(scheme, seed, 4, workers);
            assert_eq!(
                got, want,
                "{scheme} seed {seed} workers {workers}: partitioned trace diverged"
            );
        }
    }
}

/// The variant rows (Poisson arrivals, frame errors, an outage): one
/// stripe reproduces the classic engine's recorded hash, four stripes
/// their own recorded hash at every worker count.
#[test]
fn variant_rows_reproduce_recorded_hashes() {
    for row in VARIANT_ROWS {
        assert_eq!(
            sharded_variant_hash(row, 1, 1),
            row.classic,
            "{} seed {}: one-shard run diverged from the classic golden trace",
            row.name,
            row.seed
        );
        for workers in [1usize, 2, 4] {
            assert_eq!(
                sharded_variant_hash(row, 4, workers),
                row.sharded,
                "{} seed {} workers {workers}: partitioned trace diverged",
                row.name,
                row.seed
            );
        }
    }
}

/// The observability non-perturbation battery extended to the sharded
/// engine: a recorder on every shard must not move a byte.
#[cfg(feature = "trace")]
#[test]
fn sharded_hashes_survive_attached_recorders() {
    for &(scheme, seed, want) in RECORDED_SHARDED {
        let got = sharded_ring_hash_with(ring_config(scheme, seed), 4, 2, true);
        assert_eq!(
            got, want,
            "{scheme} seed {seed}: attaching recorders perturbed the sharded run"
        );
    }
}

/// The recorder stream of a one-stripe sharded run equals the classic
/// engine's, record for record: the frame-hash rows check what goes on the
/// air, this checks every other `record(..)` call as well (receptions, NAV
/// loads, timeouts, backoff draws, fault losses).
#[cfg(feature = "trace")]
#[test]
fn one_shard_recorder_stream_equals_the_classic_one() {
    use dirca_net::trace::RingTrace;
    use dirca_net::NetWorld;
    use dirca_sim::Simulation;

    let end = SimTime::from_millis(400);
    for seed in [7u64, 21] {
        for mutate in [
            std::convert::identity as fn(SimConfig) -> SimConfig,
            common::fer,
        ] {
            let config = mutate(ring_config(Scheme::DrtsDcts, seed));
            let topology = ring_topology(seed);

            let mut world = NetWorld::build(&topology, &config);
            world.attach_recorder(RingTrace::with_capacity(1 << 16));
            let mut classic = Simulation::new(world);
            {
                let (world, sched) = classic.world_and_scheduler_mut();
                world.prime(sched);
            }
            classic.run_until(end);
            let want = classic
                .world_mut()
                .take_recorder()
                .expect("recorder attached")
                .to_jsonl();

            let mut sharded = ShardedNetSim::build(&topology, &config, 1);
            sharded
                .net_world_mut(0)
                .attach_recorder(RingTrace::with_capacity(1 << 16));
            sharded.prime();
            sharded.run_until(end, 1);
            let got = sharded
                .net_world_mut(0)
                .take_recorder()
                .expect("recorder attached")
                .to_jsonl();

            assert!(want.lines().count() > 1_000, "seed {seed}: too few records");
            assert!(
                got == want,
                "seed {seed}, FER {}: one-shard recorder stream diverged from the classic one",
                config.fault.frame_error_rate
            );
        }
    }
}

#[test]
#[ignore = "recording helper: prints the current hashes for RECORDED_SHARDED and VARIANT_ROWS"]
fn print_current_hashes() {
    for scheme in Scheme::ALL {
        for seed in [7u64, 21] {
            println!(
                "    (Scheme::{scheme:?}, {seed}, 0x{:016x}),",
                sharded_ring_hash(scheme, seed, 4, 1)
            );
        }
    }
    for row in VARIANT_ROWS {
        println!(
            "    {} seed {}: sharded 0x{:016x}",
            row.name,
            row.seed,
            sharded_variant_hash(row, 4, 1)
        );
    }
}
