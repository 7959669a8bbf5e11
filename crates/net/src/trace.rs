//! Traced runs and metrics snapshots (compiled only with the `trace`
//! feature).
//!
//! [`run_traced`] is [`crate::run`] with a structured recorder attached:
//! the returned [`RingTrace`] holds the run's last `capacity` records, and
//! the returned [`RunResult`] is byte-identical to an untraced run's — the
//! golden ring-hash tests enforce that attaching the recorder perturbs
//! nothing.
//!
//! [`metrics_snapshot`] folds a [`RunResult`] into a
//! [`MetricsRegistry`]: the statically-named counters/gauges/histograms
//! that the experiment harness embeds in its report JSON next to the
//! per-cell results.

pub use dirca_trace::{Json, MetricsRegistry, RecordKind, RingTrace, TraceRecord};

use dirca_sim::Watchdog;
use dirca_topology::Topology;

use crate::{NetWorld, RunResult, SimConfig};

/// Like [`crate::run`], but records MAC/PHY activity into a ring buffer of
/// `capacity` records attached for the whole run (warm-up included, so the
/// recorder's presence is uniform across the run).
///
/// # Panics
///
/// Panics on the same invalid inputs as [`crate::run`], or if `capacity`
/// is zero.
pub fn run_traced(
    topology: &Topology,
    config: &SimConfig,
    capacity: usize,
) -> (RunResult, RingTrace) {
    let mut world = NetWorld::build(topology, config);
    world.attach_recorder(RingTrace::with_capacity(capacity));
    let (mut world, events) =
        crate::drive(world, config, None).unwrap_or_else(|abort| panic!("{abort}"));
    let trace = world.take_recorder().expect("recorder was attached above");
    (RunResult::collect(world, config.measure, events), trace)
}

/// Folds `result` into a metrics registry: handshake counters, airtime and
/// throughput gauges, and distribution histograms.
///
/// Pass the `watchdog` the run executed under (if any) to get budget-margin
/// gauges — how much of the event/sim-time budget the run left unused.
pub fn metrics_snapshot(result: &RunResult, watchdog: Option<Watchdog>) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    let c = result.aggregate_counters();
    m.add_counter("rts_tx", c.rts_tx);
    m.add_counter("cts_tx", c.cts_tx);
    m.add_counter("data_tx", c.data_tx);
    m.add_counter("ack_tx", c.ack_tx);
    m.add_counter("packets_acked", c.packets_acked);
    m.add_counter("packets_dropped", c.packets_dropped);
    m.add_counter("cts_timeouts", c.cts_timeouts);
    m.add_counter("data_timeouts", c.data_timeouts);
    m.add_counter("ack_timeouts", c.ack_timeouts);
    m.add_counter("duplicates_dropped", c.duplicates_dropped);
    m.add_counter("queue_drops", result.queue_drops());
    m.add_counter("fer_losses", result.fer_losses());
    m.add_counter("outage_losses", result.outage_losses());
    m.add_counter("events_processed", result.events_processed());
    m.add_counter("queue_depth_total", result.total_backlog());

    let airtime = result.airtime_breakdown();
    m.set_gauge("airtime_rts_s", airtime.rts.as_secs_f64());
    m.set_gauge("airtime_cts_s", airtime.cts.as_secs_f64());
    m.set_gauge("airtime_data_s", airtime.data.as_secs_f64());
    m.set_gauge("airtime_ack_s", airtime.ack.as_secs_f64());
    m.set_gauge("airtime_control_s", airtime.control().as_secs_f64());
    m.set_gauge("airtime_total_s", airtime.total().as_secs_f64());
    m.set_gauge(
        "aggregate_throughput_bps",
        result.aggregate_throughput_bps(),
    );
    if let Some(ratio) = result.collision_ratio() {
        m.set_gauge("collision_ratio", ratio);
    }
    if let Some(delay) = result.mean_delay() {
        m.set_gauge("mean_mac_delay_ms", delay.as_secs_f64() * 1e3);
    }
    if let Some(w) = watchdog {
        m.set_gauge(
            "watchdog_event_margin",
            w.max_events.saturating_sub(result.events_processed()) as f64,
        );
    }

    // Per-node throughput spread: 0..2.5 Mbit/s covers the 2 Mbit/s PHY
    // with headroom; 25 bins give 100 kbit/s resolution.
    for bps in result.node_throughputs_bps() {
        m.record_histogram("node_throughput_bps", 0.0, 2.5e6, 25, bps);
    }
    // End-to-end delays (only present when the run recorded them).
    for delay in result.delay_samples() {
        m.record_histogram("delay_s", 0.0, 1.0, 50, delay);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use dirca_mac::Scheme;
    use dirca_sim::SimDuration;
    use dirca_topology::fixtures;

    fn quick(scheme: Scheme) -> SimConfig {
        SimConfig::new(scheme)
            .with_seed(42)
            .with_warmup(SimDuration::from_millis(50))
            .with_measure(SimDuration::from_millis(500))
    }

    #[test]
    fn traced_run_matches_untraced_result() {
        let topo = fixtures::hidden_terminal();
        let config = quick(Scheme::OrtsOcts);
        let plain = crate::run(&topo, &config);
        let (traced, trace) = run_traced(&topo, &config, 1 << 14);
        assert_eq!(plain.packets_acked(), traced.packets_acked());
        assert_eq!(plain.events_processed(), traced.events_processed());
        assert!(!trace.is_empty(), "a contended run must produce records");
    }

    #[test]
    fn trace_contains_full_handshakes() {
        let topo = fixtures::pair(0.5, 1.0);
        let (_, trace) = run_traced(&topo, &quick(Scheme::OrtsOcts), 1 << 14);
        let mut tx = 0u64;
        let mut rx = 0u64;
        let mut corrupted = 0u64;
        let mut acked = 0u64;
        for r in trace.iter() {
            match r.kind {
                RecordKind::FrameTx { .. } => tx += 1,
                RecordKind::FrameRx { .. } => rx += 1,
                RecordKind::RxCorrupted => corrupted += 1,
                RecordKind::PacketAcked => acked += 1,
                _ => {}
            }
        }
        assert!(
            tx > 0 && rx > 0 && acked > 0,
            "tx={tx} rx={rx} acked={acked}"
        );
        // Nothing is decoded that was never sent, and on a mostly-clean
        // pair the vast majority of frames do get decoded. (The gap is
        // simultaneous transmissions: a busy or transmitting receiver
        // decodes nothing, sometimes without even a corruption report.)
        assert!(
            rx + corrupted <= tx,
            "rx={rx} corrupted={corrupted} tx={tx}"
        );
        assert!(rx * 10 >= tx * 9, "too many lost frames: rx={rx} tx={tx}");
    }

    #[test]
    fn every_record_round_trips_through_the_schema() {
        let topo = fixtures::hidden_terminal();
        let (_, trace) = run_traced(&topo, &quick(Scheme::DrtsDcts), 1 << 14);
        for line in trace.to_jsonl().lines() {
            let parsed = Json::parse(line).expect("trace lines are valid JSON");
            let record = TraceRecord::from_json(&parsed).expect("trace lines match the schema");
            assert_eq!(record.to_json(), line, "encode(decode(x)) != x");
        }
    }

    #[test]
    fn metrics_snapshot_is_consistent_with_result() {
        let topo = fixtures::hidden_terminal();
        let config = quick(Scheme::OrtsOcts);
        let result = crate::run(&topo, &config);
        let m = metrics_snapshot(&result, Some(Watchdog::max_events(10_000_000)));
        assert_eq!(m.counter("packets_acked"), Some(result.packets_acked()));
        assert_eq!(
            m.counter("events_processed"),
            Some(result.events_processed())
        );
        let agg = m.gauge("aggregate_throughput_bps").expect("gauge set");
        assert!((agg - result.aggregate_throughput_bps()).abs() < 1e-9);
        let margin = m.gauge("watchdog_event_margin").expect("margin set");
        assert!((margin - (10_000_000 - result.events_processed()) as f64).abs() < 1e-9);
        let h = m.histogram("node_throughput_bps").expect("histogram set");
        assert_eq!(
            h.total() + h.underflow() + h.overflow(),
            result.node_throughputs_bps().len() as u64
        );
        // The snapshot must render to parseable JSON.
        assert!(Json::parse(&m.to_json()).is_ok());
    }

    #[test]
    fn ring_capacity_bounds_memory_not_correctness() {
        let topo = fixtures::hidden_terminal();
        let config = quick(Scheme::OrtsOcts);
        let (full_result, full) = run_traced(&topo, &config, 1 << 16);
        let (small_result, small) = run_traced(&topo, &config, 64);
        assert_eq!(
            full_result.events_processed(),
            small_result.events_processed(),
            "ring capacity must not perturb the run"
        );
        assert_eq!(small.len(), 64);
        assert!(small.overwritten() > 0);
        // The small ring holds exactly the tail of the full trace.
        let all: Vec<_> = full.iter().copied().collect();
        let tail = &all[all.len() - 64..];
        let held: Vec<_> = small.iter().copied().collect();
        assert_eq!(held, tail);
    }
}
