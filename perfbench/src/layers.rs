//! The per-layer run (built with the `trace` feature): times each layer
//! from the benchmark's side of its public calls, and splits dispatch by
//! event class through `dirca-sim`'s `Probe` hook.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use dirca_experiments::report::combined_report;
use dirca_experiments::ringsim::{run_cell, topology_config};
use dirca_experiments::runner::enumerate_cells;
use dirca_net::{salts, NetEvent, NetWorld, ShardedNetSim, SimConfig, DEFAULT_SHARDS};
use dirca_radio::{Channel, CoveragePlan, DynamicCoveragePlan};
use dirca_sim::probe::Probe;
use dirca_sim::rng::derive_seed;
use dirca_sim::{EventQueue, SimTime, Simulation};
use dirca_topology::{MobilityState, Topology};

use crate::fields::{Field, FieldInput};
use crate::pass::{simulate, Hooks, Phases, Tally};
use crate::report::{median, Report};
use crate::ring;

/// Rounds of (every cell on one thread, one served grid) in the
/// `ring_grid` per-layer run.
const SERVE_ROUNDS: usize = 3;

/// Queue-depth samples taken per simulated window.
const DEPTH_SAMPLES: u64 = 200;

/// Handled time and count per event class.
#[derive(Debug, Default)]
struct ClassTimes {
    classes: Vec<(&'static str, u64, u64)>,
}

impl ClassTimes {
    fn add(&mut self, class: &'static str, count: u64, ns: u64) {
        match self.classes.iter_mut().find(|(c, _, _)| *c == class) {
            Some(entry) => {
                entry.1 += count;
                entry.2 += ns;
            }
            None => self.classes.push((class, count, ns)),
        }
    }
}

/// The probe: stamps the clock around every `World::handle` and books the
/// elapsed time under the event's class.
#[derive(Debug)]
struct HandleTimer {
    times: Rc<RefCell<ClassTimes>>,
    inflight: Option<(&'static str, Instant)>,
}

impl Probe<NetWorld> for HandleTimer {
    fn before_event(&mut self, _now: SimTime, event: &NetEvent) {
        self.inflight = Some((event.class(), Instant::now()));
    }

    fn after_event(&mut self, _now: SimTime) {
        if let Some((class, start)) = self.inflight.take() {
            let ns = start.elapsed().as_nanos() as u64;
            self.times.borrow_mut().add(class, 1, ns);
        }
    }
}

/// The hooks of probed simulations: the handle timer, and queue depth
/// sampled between `DEPTH_SAMPLES` `run_until` chunks, summed over every
/// simulation they are installed in.
#[derive(Debug, Default)]
struct Probed {
    times: Rc<RefCell<ClassTimes>>,
    depth_sum: f64,
    depth_samples: u64,
    depth_max: usize,
}

impl Hooks for Probed {
    fn install(&mut self, sim: &mut Simulation<NetWorld>) {
        sim.set_probe(Some(Box::new(HandleTimer {
            times: Rc::clone(&self.times),
            inflight: None,
        })));
    }

    fn chunks(&self) -> u64 {
        DEPTH_SAMPLES
    }

    fn sampled(&mut self, pending: usize) {
        self.depth_sum += pending as f64;
        self.depth_samples += 1;
        self.depth_max = self.depth_max.max(pending);
    }
}

/// Layer figures accumulated over one or more probed simulations.
#[derive(Debug, Default)]
struct Layers {
    tally: Tally,
    generate_s: f64,
    plan_build_s: f64,
    plan_index_bytes: u64,
    phases: Phases,
    probed: Probed,
}

impl Layers {
    /// Mean handled nanoseconds per event of `class` (0 if none ran).
    fn ns_per(&self, class: &str) -> f64 {
        self.probed
            .times
            .borrow()
            .classes
            .iter()
            .find(|(c, _, _)| *c == class)
            .map_or(0.0, |&(_, n, ns)| ns as f64 / n as f64)
    }

    /// Times a standalone `CoveragePlan` build for `topology`, then
    /// simulates it with the probe installed, sampling queue depth between
    /// `run_until` chunks.
    fn simulate(&mut self, topology: &Topology, config: &SimConfig) {
        let t = Instant::now();
        let channel = Channel::new(
            topology.positions.clone(),
            topology.range,
            config.params.propagation_delay,
        )
        .expect("generated topologies have a valid range");
        let plan = CoveragePlan::new(&channel, config.beamwidth);
        self.plan_build_s += t.elapsed().as_secs_f64();
        self.plan_index_bytes += black_box(plan).index_bytes() as u64;

        let (phases, tally) = simulate(topology, config, &mut self.probed);
        self.phases.build_s += phases.build_s;
        self.phases.prime_s += phases.prime_s;
        self.phases.dispatch_s += phases.dispatch_s;
        self.phases.collect_s += phases.collect_s;
        self.tally.add(&tally);
    }

    /// Wall time of the simulated part (plan build excluded).
    fn sim_wall_s(&self) -> f64 {
        self.generate_s + self.phases.total_s()
    }

    /// Records every figure that comes from probed simulations.
    fn emit(&self, report: &mut Report) {
        let times = self.probed.times.borrow();
        let handled_ns: u64 = times.classes.iter().map(|&(_, _, ns)| ns).sum();
        let handled_s = handled_ns as f64 * 1e-9;
        let dispatch_s = self.phases.dispatch_s;
        let events = self.tally.events;
        report.check(handled_s <= dispatch_s, || {
            format!("handled time {handled_s} s exceeds dispatch time {dispatch_s} s")
        });
        report.metric("topology.generate_s", self.generate_s, "s");
        report.metric("radio.plan_build_s", self.plan_build_s, "s");
        report.metric(
            "radio.plan_index_bytes",
            self.plan_index_bytes as f64,
            "bytes",
        );
        report.metric("net.world_build_s", self.phases.build_s, "s");
        report.metric("net.prime_s", self.phases.prime_s, "s");
        report.metric("net.wave_start_ns", self.ns_per("wave_start"), "ns");
        report.metric("net.wave_end_ns", self.ns_per("wave_end"), "ns");
        report.metric(
            "net.mobility_epoch_ms",
            self.ns_per("mobility_epoch") * 1e-6,
            "ms",
        );
        report.metric("mac.timer_ns", self.ns_per("mac_timer"), "ns");
        report.metric("mac.tx_end_ns", self.ns_per("tx_end"), "ns");
        report.metric("mac.frames", self.tally.frames() as f64, "count");
        report.metric(
            "mac.rts_success_ratio",
            self.tally.mac.rts_success_ratio().unwrap_or(0.0),
            "ratio",
        );
        report.metric("sim.events", events as f64, "count");
        report.metric("sim.dispatch_s", dispatch_s, "s");
        report.metric("sim.handled_s", handled_s, "s");
        report.metric("sim.engine_self_s", dispatch_s - handled_s, "s");
        report.metric(
            "sim.engine_self_ns_per_event",
            (dispatch_s - handled_s) * 1e9 / events.max(1) as f64,
            "ns",
        );
        report.metric(
            "sim.queue_depth_mean",
            self.probed.depth_sum / self.probed.depth_samples.max(1) as f64,
            "count",
        );
        report.metric("sim.queue_depth_max", self.probed.depth_max as f64, "count");
        report.metric("radio.rebins", self.tally.rebins as f64, "count");
        report.metric("radio.rebuilds", self.tally.rebuilds as f64, "count");
        let slots = self.tally.nodes * self.tally.epochs;
        report.metric(
            "radio.rebuild_frac",
            if slots == 0 {
                0.0
            } else {
                self.tally.rebuilds as f64 / slots as f64
            },
            "ratio",
        );
        for (class, n, ns) in &times.classes {
            eprintln!(
                "  handled {class:>14}: {n:>10} events, {:>9.1} ns/event",
                *ns as f64 / *n as f64
            );
        }
    }
}

/// Times `EventQueue` pop+push cycles at a steady depth, with the
/// near-future deadlines the simulator produces.
fn queue_cycle_ns(depth: u64, cycles: u64) -> f64 {
    let mut q = EventQueue::with_capacity(depth as usize + 1);
    for i in 0..depth {
        q.push(
            SimTime::from_nanos(i * 7919 % 50_000),
            NetEvent::MobilityEpoch,
        );
    }
    let mut horizon = 0u64;
    let start = Instant::now();
    for i in 0..cycles {
        let (t, e) = q.pop().expect("the queue stays at its depth");
        horizon = horizon.max(t.as_nanos());
        q.push(
            SimTime::from_nanos(horizon + (i * 977) % 40_000),
            black_box(e),
        );
    }
    let ns = start.elapsed().as_secs_f64() * 1e9 / cycles as f64;
    black_box(q.len());
    ns
}

/// The queue depth sweep: 400 / 4k / 40k / 400k pending events.
fn queue_sweep(report: &mut Report) {
    for (name, depth) in [
        ("d400", 400),
        ("d4k", 4_000),
        ("d40k", 40_000),
        ("d400k", 400_000),
    ] {
        report.metric(
            format!("sim.queue_cycle_ns.{name}"),
            queue_cycle_ns(depth, 1_000_000),
            "ns",
        );
    }
}

/// Mean cost of the probe's own clock reads per event.
fn probe_ns_per_event() -> f64 {
    let n = 1_000_000u32;
    let start = Instant::now();
    let mut acc = 0u128;
    for _ in 0..n {
        let t = Instant::now();
        acc += black_box(t.elapsed().as_nanos());
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e9 / f64::from(n)
}

/// Metrics this workload does not exercise: printed as 0 so every traced
/// run carries the full per-layer set, and named on standard output.
fn not_exercised(workload: &str, metrics: &[(&str, &'static str)], report: &mut Report) {
    let names: Vec<&str> = metrics.iter().map(|&(name, _)| name).collect();
    println!(
        "{workload}: not exercised (reported as 0): {}",
        names.join(" ")
    );
    for &(name, unit) in metrics {
        report.metric(name, 0.0, unit);
    }
}

const SHARDED: &[(&str, &str)] = &[
    ("sim.sharded_build_s.w1", "s"),
    ("sim.sharded_build_s.w2", "s"),
    ("sim.sharded_dispatch_s.w1", "s"),
    ("sim.sharded_dispatch_s.w2", "s"),
    ("sim.sharded_vs_classic.w2", "x"),
];
const MOBILITY: &[(&str, &str)] = &[
    ("topology.mobility_step_s", "s"),
    ("radio.dynamic_apply_s", "s"),
];
const RING: &[(&str, &str)] = &[
    ("experiments.cell_s.median", "s"),
    ("experiments.cell_s.max", "s"),
    ("experiments.pool_speedup_2t", "x"),
    ("serve.overhead_s", "s"),
    ("serve.frames", "count"),
];

/// The per-layer run of a field workload.
pub fn run_field(field: Field, input: &FieldInput, report: &mut Report) {
    let name = match field {
        Field::Large => "large_field",
        Field::Mobile => "mobile_field",
    };
    // Untraced reference first: the same simulation with no probe.
    let t = Instant::now();
    let topology = input.topology();
    let (plain, plain_tally) = simulate(&topology, &input.config, &mut ());
    let plain_wall = t.elapsed().as_secs_f64();
    drop(topology);

    let mut layers = Layers::default();
    let t = Instant::now();
    let topology = input.topology();
    layers.generate_s = t.elapsed().as_secs_f64();
    layers.simulate(&topology, &input.config);
    report.check(layers.tally.exact() == plain_tally.exact(), || {
        format!(
            "the probe perturbed the run: {:?} against {:?}",
            layers.tally.exact(),
            plain_tally.exact()
        )
    });
    layers.tally.check_physics("probed run", report);
    report.operation(report.correct());
    layers.tally.digest(report);
    layers.emit(report);
    report.metric(
        "trace.overhead_frac",
        layers.sim_wall_s() / plain_wall,
        "ratio",
    );
    report.metric("trace.probe_ns_per_event", probe_ns_per_event(), "ns");

    match field {
        Field::Mobile => {
            mobility_replay(&topology, &input.config, &layers.tally, report);
            not_exercised(name, SHARDED, report);
        }
        Field::Large => {
            not_exercised(name, MOBILITY, report);
            sharded(&topology, &input.config, &plain, report);
        }
    }
    not_exercised(name, RING, report);
    queue_sweep(report);
}

/// Replays the run's mobility standalone: `MobilityState::step` for every
/// epoch the run applied, then `DynamicCoveragePlan::apply_moves` over the
/// same move lists. The replay must redo exactly the run's cache work.
fn mobility_replay(topology: &Topology, config: &SimConfig, run: &Tally, report: &mut Report) {
    let m = config.mobility.expect("the mobile field has mobility");
    let radius = MobilityState::field_radius(&topology.positions, topology.range);
    let mut state = MobilityState::new(
        m.model,
        &topology.positions,
        radius,
        derive_seed(config.seed, salts::MOBILITY_STREAM_SALT),
    );
    let dt = m.epoch.as_secs_f64();
    let mut step_s = 0.0;
    let mut lists = Vec::with_capacity(run.epochs as usize);
    for _ in 0..run.epochs {
        let t = Instant::now();
        let moves = state.step(dt);
        step_s += t.elapsed().as_secs_f64();
        lists.push(moves.to_vec());
    }
    let mut plan = DynamicCoveragePlan::new(&topology.positions, topology.range, config.beamwidth);
    let t = Instant::now();
    for moves in &lists {
        black_box(plan.apply_moves(moves));
    }
    let apply_s = t.elapsed().as_secs_f64();
    let stats = plan.stats();
    report.check(
        (stats.epochs, stats.rebins, stats.rebuilds) == (run.epochs, run.rebins, run.rebuilds),
        || {
            format!(
                "mobility replay did {stats:?}, the run {:?}",
                (run.epochs, run.rebins, run.rebuilds)
            )
        },
    );
    report.metric("topology.mobility_step_s", step_s, "s");
    report.metric("radio.dynamic_apply_s", apply_s, "s");
}

/// The sharded engine on the same input at 1 and 2 workers, world build
/// and dispatch timed apart, each compared against the classic engine.
fn sharded(topology: &Topology, config: &SimConfig, classic: &Phases, report: &mut Report) {
    let classic_s = classic.total_s();
    let mut events = Vec::new();
    for workers in [1usize, 2] {
        let t = Instant::now();
        let mut sim = ShardedNetSim::build(topology, config, DEFAULT_SHARDS);
        sim.prime();
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let warmup_end = SimTime::ZERO + config.warmup;
        sim.run_until(warmup_end, workers);
        sim.reset_counters();
        sim.run_until(warmup_end + config.measure, workers);
        let dispatch_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let result = sim.into_result(config.measure);
        let total_s = build_s + dispatch_s + t.elapsed().as_secs_f64();
        events.push(result.events_processed());
        eprintln!(
            "  sharded w{workers}: build {build_s:.3} s, dispatch {dispatch_s:.3} s, {} events; \
             classic build {:.3} s, dispatch {:.3} s",
            result.events_processed(),
            classic.setup_s(),
            classic.dispatch_s,
        );
        report.metric(format!("sim.sharded_build_s.w{workers}"), build_s, "s");
        report.metric(
            format!("sim.sharded_dispatch_s.w{workers}"),
            dispatch_s,
            "s",
        );
        if workers == 2 {
            report.metric("sim.sharded_vs_classic.w2", classic_s / total_s, "x");
        }
    }
    report.check(events[0] == events[1], || {
        format!(
            "sharded runs differ by worker count: {} vs {} events",
            events[0], events[1]
        )
    });
}

/// The per-layer run of `ring_grid`.
pub fn run_ring(seed: u64, scratch: &std::path::Path, report: &mut Report) {
    let spec = ring::spec(seed);
    let scale = ring::scale(&spec);
    let cells = enumerate_cells(&scale);

    // The batch harness's report (every cell through `ringsim::run_cell`
    // on one thread) and an unprobed pass over every topology first: they
    // also warm the process up.
    let expected = combined_report(&scale);
    let t = Instant::now();
    let plain_tally = ring::tally(&scale, report);
    let plain_wall = t.elapsed().as_secs_f64();

    // Rounds of every cell through `ringsim::run_cell` on one thread,
    // each followed by the same grid served once; the serve overhead is
    // the median of the paired differences.
    let mut cell_s = vec![Vec::new(); cells.len()];
    let mut overheads = Vec::new();
    let mut one_thread = Vec::new();
    let mut frames = 0;
    for round in 1..=SERVE_ROUNDS {
        let mut sum = 0.0;
        for (i, cell) in cells.iter().enumerate() {
            let experiment = scale.cell(cell.scheme, cell.n, cell.theta);
            let t = Instant::now();
            black_box(run_cell(&experiment, 1));
            let s = t.elapsed().as_secs_f64();
            cell_s[i].push(s);
            sum += s;
        }
        one_thread.push(sum);
        match ring::round_trip(&spec, &ring::state_dir(scratch, round)) {
            Ok(trip) => {
                let what = format!("round trip {round}");
                let failed = ring::check_trip(&trip, &expected, &what, report);
                report.operation(failed == 0);
                eprintln!(
                    "  {what}: setup {:.4} s, wall {:.3} s; run_cell at 1 thread {sum:.3} s",
                    trip.setup_s, trip.wall_s
                );
                overheads.push(trip.wall_s - sum);
                frames = trip.frames;
            }
            Err(e) => {
                report.check(false, || format!("round trip {round}: {e}"));
                report.operation(false);
            }
        }
    }
    let cell_medians: Vec<f64> = cell_s.iter().map(|s| median(s)).collect();
    let t = Instant::now();
    for cell in &cells {
        black_box(run_cell(&scale.cell(cell.scheme, cell.n, cell.theta), 2));
    }
    let two_thread_s = t.elapsed().as_secs_f64();

    // Every topology of every cell again, probed.
    let mut layers = Layers::default();
    for cell in &cells {
        let experiment = scale.cell(cell.scheme, cell.n, cell.theta);
        for index in 0..experiment.topologies {
            let t = Instant::now();
            let (topology, config) = topology_config(&experiment, index);
            layers.generate_s += t.elapsed().as_secs_f64();
            layers.simulate(&topology, &config);
        }
    }
    report.check(layers.tally.exact() == plain_tally.exact(), || {
        format!(
            "the probe perturbed the grid: {:?} against {:?}",
            layers.tally.exact(),
            plain_tally.exact()
        )
    });
    layers.tally.digest(report);
    layers.emit(report);
    report.metric(
        "trace.overhead_frac",
        layers.sim_wall_s() / plain_wall,
        "ratio",
    );
    report.metric("trace.probe_ns_per_event", probe_ns_per_event(), "ns");
    report.metric("experiments.cell_s.median", median(&cell_medians), "s");
    report.metric(
        "experiments.cell_s.max",
        cell_medians.iter().copied().fold(0.0, f64::max),
        "s",
    );
    report.metric(
        "experiments.pool_speedup_2t",
        median(&one_thread) / two_thread_s,
        "x",
    );
    report.metric(
        "serve.overhead_s",
        if overheads.is_empty() {
            0.0
        } else {
            median(&overheads)
        },
        "s",
    );
    report.metric("serve.frames", frames as f64, "count");
    not_exercised("ring_grid", MOBILITY, report);
    not_exercised("ring_grid", SHARDED, report);
    queue_sweep(report);
}
