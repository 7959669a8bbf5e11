//! The golden ring workload shared by the classic and sharded hash
//! batteries (`golden_ring_hash.rs`, `sharded_golden.rs`).

// Each battery compiles this module on its own and reads only part of it.
#![allow(dead_code)]

use dirca_mac::Scheme;
use dirca_net::{FaultPlan, SimConfig, TraceEntry, TrafficModel};
use dirca_radio::NodeId;
use dirca_sim::rng::stream_rng;
use dirca_sim::SimTime;
use dirca_topology::{RingSpec, Topology};

/// The seeded random ring every golden row runs on.
pub fn ring_topology(seed: u64) -> Topology {
    let spec = RingSpec::paper(5, 1.0);
    let mut topo_rng = stream_rng(seed, 0xA11CE);
    spec.generate(&mut topo_rng).expect("ring topology")
}

/// The golden config: `scheme` at 30° with the run's master seed.
pub fn ring_config(scheme: Scheme, seed: u64) -> SimConfig {
    SimConfig::new(scheme)
        .with_seed(seed)
        .with_beamwidth_degrees(30.0)
}

/// FNV-1a over the debug-serialized frame trace.
pub fn trace_hash(trace: &[TraceEntry]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{trace:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One golden row beyond saturated, fault-free traffic: a named change to
/// the DRTS-DCTS ring config, the seed, and the recorded FNV-1a trace
/// hashes of the classic engine and of the four-stripe sharded engine.
pub struct VariantRow {
    /// What the change exercises.
    pub name: &'static str,
    /// The change applied to [`ring_config`].
    pub mutate: fn(SimConfig) -> SimConfig,
    /// Master seed (also seeds the ring).
    pub seed: u64,
    /// Classic engine; the one-stripe sharded run must match it too.
    pub classic: u64,
    /// Four-stripe sharded engine, at any worker count.
    pub sharded: u64,
}

/// Poisson arrivals into a bounded source queue (drops at the source).
pub fn poisson(c: SimConfig) -> SimConfig {
    c.with_traffic(TrafficModel::Poisson {
        packets_per_sec: 40.0,
        max_queue: 8,
    })
}

/// A 10% frame error rate on every link.
pub fn fer(c: SimConfig) -> SimConfig {
    c.with_fault(FaultPlan::default().with_frame_error_rate(0.1))
}

/// Node 0's radio out of service from 100 ms to 200 ms.
pub fn outage(c: SimConfig) -> SimConfig {
    c.with_fault(FaultPlan::default().with_outage(
        NodeId(0),
        SimTime::from_millis(100),
        SimTime::from_millis(200),
    ))
}

/// The traffic and channel paths the saturated, fault-free rows never
/// reach, each on DRTS-DCTS at 30°.
pub const VARIANT_ROWS: &[VariantRow] = &[
    VariantRow {
        name: "poisson 40 pkt/s, queue 8",
        mutate: poisson,
        seed: 7,
        classic: 0xbb2a_c754_c85f_283a,
        sharded: 0xbb2a_c754_c85f_283a,
    },
    VariantRow {
        name: "poisson 40 pkt/s, queue 8",
        mutate: poisson,
        seed: 21,
        classic: 0x763a_77dc_36f4_cb3a,
        sharded: 0x763a_77dc_36f4_cb3a,
    },
    VariantRow {
        name: "FER 0.1",
        mutate: fer,
        seed: 7,
        classic: 0x1aa0_f396_61f1_d242,
        sharded: 0xe47a_4354_77eb_af9c,
    },
    VariantRow {
        name: "FER 0.1",
        mutate: fer,
        seed: 21,
        classic: 0x863b_2a40_088e_c8fa,
        sharded: 0x9443_0adf_cb76_8b36,
    },
    VariantRow {
        name: "node 0 outage 100-200 ms",
        mutate: outage,
        seed: 7,
        classic: 0x19af_6b4f_86aa_142a,
        sharded: 0x8a78_6138_9b3c_13ba,
    },
    VariantRow {
        name: "node 0 outage 100-200 ms",
        mutate: outage,
        seed: 21,
        classic: 0xf8e8_5799_ad37_6ab1,
        sharded: 0x65fc_d1a8_a88f_9c11,
    },
];
