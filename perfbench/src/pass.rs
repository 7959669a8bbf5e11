//! One simulation driven through `dirca-net`'s public lifecycle
//! (`NetWorld::build` → `prime` → `Simulation::run_until` → collection),
//! timed phase by phase, plus the deterministic counters it produced.

use std::time::Instant;

use dirca_mac::MacCounters;
use dirca_net::{NetWorld, SimConfig};
use dirca_sim::{SimTime, Simulation};
use dirca_topology::Topology;

use crate::report::Report;

/// Deterministic counters of one or more simulations. Identical inputs
/// must give identical tallies, whatever the host or the timing.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Simulations summed.
    pub runs: u64,
    /// Nodes simulated, summed over runs.
    pub nodes: u64,
    /// Simulated node-seconds (nodes × (warm-up + measure)), summed.
    pub node_seconds: f64,
    /// Events dispatched (warm-up included).
    pub events: u64,
    /// MAC counters of the measured nodes over the measurement windows.
    pub mac: MacCounters,
    /// Σ over runs of the mean per-node throughput, normalized to the
    /// channel bit rate (divide by `runs` for the mean).
    pub norm_throughput_sum: f64,
    /// Smallest per-run normalized throughput seen.
    pub norm_throughput_min: f64,
    /// Largest per-run normalized throughput seen.
    pub norm_throughput_max: f64,
    /// Mobility epochs applied to the coverage plan.
    pub epochs: u64,
    /// Nodes moved between grid buckets by those epochs.
    pub rebins: u64,
    /// Per-node coverage caches rebuilt by those epochs.
    pub rebuilds: u64,
}

impl Tally {
    /// The counters of one finished simulation held in `world`.
    pub fn collect(world: &NetWorld, config: &SimConfig, events: u64) -> Tally {
        let nodes = world.macs().len();
        let measured = world.measured();
        let mut mac = MacCounters::new();
        for m in &world.macs()[..measured] {
            mac.merge(m.counters());
        }
        let inv = world.invalidation_stats().unwrap_or_default();
        let window = (config.warmup + config.measure).as_secs_f64();
        let norm = mac.data_acked_bytes as f64 * 8.0
            / config.measure.as_secs_f64()
            / config.params.bit_rate_bps as f64
            / measured.max(1) as f64;
        Tally {
            runs: 1,
            nodes: nodes as u64,
            node_seconds: nodes as f64 * window,
            events,
            mac,
            norm_throughput_sum: norm,
            norm_throughput_min: norm,
            norm_throughput_max: norm,
            epochs: inv.epochs,
            rebins: inv.rebins,
            rebuilds: inv.rebuilds,
        }
    }

    /// Adds another tally into this one.
    pub fn add(&mut self, other: &Tally) {
        let first = self.runs == 0;
        self.runs += other.runs;
        self.nodes += other.nodes;
        self.node_seconds += other.node_seconds;
        self.events += other.events;
        self.mac.merge(&other.mac);
        self.norm_throughput_sum += other.norm_throughput_sum;
        self.norm_throughput_min = if first {
            other.norm_throughput_min
        } else {
            self.norm_throughput_min.min(other.norm_throughput_min)
        };
        self.norm_throughput_max = self.norm_throughput_max.max(other.norm_throughput_max);
        self.epochs += other.epochs;
        self.rebins += other.rebins;
        self.rebuilds += other.rebuilds;
    }

    /// RTS + CTS + DATA + ACK frames put on the air.
    pub fn frames(&self) -> u64 {
        self.mac.rts_tx + self.mac.cts_tx + self.mac.data_tx + self.mac.ack_tx
    }

    /// Checks the physical invariants: every run's normalized throughput
    /// in [0, 1] and their mean above 0, packets acknowledged ≤ DATA frames
    /// sent, and a collision ratio in [0, 1]. Returns whether all held.
    pub fn check_physics(&self, what: &str, report: &mut Report) -> bool {
        let (lo, hi) = (self.norm_throughput_min, self.norm_throughput_max);
        let mean = self.norm_throughput_sum / self.runs.max(1) as f64;
        let mut ok = report.check(lo >= 0.0 && hi <= 1.0 && mean > 0.0, || {
            format!("{what}: normalized throughput mean {mean} in [{lo}, {hi}] is not in (0, 1]")
        });
        let (acked, data) = (self.mac.packets_acked, self.mac.data_tx);
        ok &= report.check(acked <= data, || {
            format!("{what}: {acked} packets acked but only {data} DATA frames sent")
        });
        let cr = self.mac.collision_ratio();
        ok &= report.check(cr.is_some_and(|c| (0.0..=1.0).contains(&c)), || {
            format!("{what}: collision ratio {cr:?} is not in [0, 1]")
        });
        ok
    }

    /// The exact counters that identify a tally: equal inputs must give
    /// equal lists, and the report's digest is made of them.
    pub fn exact(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("runs", self.runs),
            ("nodes", self.nodes),
            ("sim.events", self.events),
            ("mac.frames", self.frames()),
            ("mac.data_tx", self.mac.data_tx),
            ("mac.packets_acked", self.mac.packets_acked),
            ("mac.data_acked_bytes", self.mac.data_acked_bytes),
            ("mac.ack_timeouts", self.mac.ack_timeouts),
            ("radio.epochs", self.epochs),
            ("radio.rebins", self.rebins),
            ("radio.rebuilds", self.rebuilds),
        ]
    }

    /// Adds this tally's exact counters to the report's digest.
    pub fn digest(&self, report: &mut Report) {
        for (name, value) in self.exact() {
            report.counter(name, value);
        }
    }
}

/// Wall-clock seconds spent in each phase of one simulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// `NetWorld::build`, which also builds the coverage plan.
    pub build_s: f64,
    /// `Simulation::new` plus `NetWorld::prime`.
    pub prime_s: f64,
    /// Warm-up and measurement `run_until` calls (counter reset included).
    pub dispatch_s: f64,
    /// Counter collection and tearing the simulation down.
    pub collect_s: f64,
}

impl Phases {
    /// Everything but dispatch and collection: the time until the first
    /// event could be dispatched.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.prime_s
    }

    /// The whole simulation.
    pub fn total_s(&self) -> f64 {
        self.build_s + self.prime_s + self.dispatch_s + self.collect_s
    }
}

/// What a probed pass adds to [`simulate`]. The end-to-end run passes
/// `()`, which adds nothing: warm-up and measurement are each dispatched
/// in one `run_until` call.
pub trait Hooks {
    /// Called once the simulation exists, before `prime`.
    fn install(&mut self, _sim: &mut Simulation<NetWorld>) {}

    /// `run_until` calls per simulated window (warm-up plus measurement).
    fn chunks(&self) -> u64 {
        1
    }

    /// Called after every `run_until` call with the pending event count.
    fn sampled(&mut self, _pending: usize) {}
}

impl Hooks for () {}

/// Simulates `topology` under `config` the way `dirca_net::run` does,
/// timing each phase.
pub fn simulate(
    topology: &Topology,
    config: &SimConfig,
    hooks: &mut impl Hooks,
) -> (Phases, Tally) {
    let t = Instant::now();
    let world = NetWorld::build(topology, config);
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut sim = Simulation::new(world);
    hooks.install(&mut sim);
    {
        let (world, sched) = sim.world_and_scheduler_mut();
        world.prime(sched);
    }
    let prime_s = t.elapsed().as_secs_f64();

    // The window is dispatched in `hooks.chunks()` equal steps, one of
    // which always ends exactly at the warm-up's end, where the counters
    // are reset.
    let t = Instant::now();
    let warmup_end = SimTime::ZERO + config.warmup;
    let end = warmup_end + config.measure;
    let chunk = (end.as_nanos() / hooks.chunks().max(1)).max(1);
    let mut at = SimTime::ZERO;
    let mut reset = false;
    while !reset || at < end {
        let mut next = SimTime::from_nanos((at.as_nanos() + chunk).min(end.as_nanos()));
        if !reset && next >= warmup_end {
            next = warmup_end;
        }
        sim.run_until(next);
        if !reset && next == warmup_end {
            sim.world_mut().reset_counters();
            reset = true;
        }
        hooks.sampled(sim.scheduler_mut().pending());
        at = next;
    }
    let dispatch_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let tally = Tally::collect(sim.world(), config, sim.events_processed());
    drop(sim);
    let collect_s = t.elapsed().as_secs_f64();

    (
        Phases {
            build_s,
            prime_s,
            dispatch_s,
            collect_s,
        },
        tally,
    )
}
