//! The end-to-end run (built without the `trace` feature): each workload
//! repeats until its time budget has passed, and the medians over the
//! repetitions are reported.

use std::path::Path;
use std::time::{Duration, Instant};

use dirca_experiments::report::combined_report;

use crate::cpu::process_cpu_s;
use crate::fields::FieldInput;
use crate::pass::{simulate, Phases, Tally};
use crate::report::{fnv1a, median, Report};
use crate::ring;

/// Fewest repetitions a run makes, however long each takes. A zero
/// budget makes exactly one, which is how `run.py` measures the peak
/// memory of a single repetition in a fresh process.
fn min_reps(budget: Duration) -> usize {
    if budget.is_zero() {
        1
    } else {
        3
    }
}

/// A field workload: repeats generate → build → prime → dispatch →
/// collect. Every repetition is one operation; it fails if its counters
/// differ from the first repetition's or break a physical invariant.
pub fn field(input: &FieldInput, budget: Duration, report: &mut Report) {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let mut phases = Vec::new();
    let mut cpus = Vec::new();
    let mut first: Option<Tally> = None;
    while walls.len() < min_reps(budget) || start.elapsed() < budget {
        let cpu = process_cpu_s();
        let t = Instant::now();
        let topology = input.topology();
        let generate_s = t.elapsed().as_secs_f64();
        let (phase, tally) = simulate(&topology, &input.config, &mut ());
        drop(topology);
        let wall = t.elapsed().as_secs_f64();
        cpus.push(process_cpu_s() - cpu);
        let setup = generate_s + phase.setup_s();
        walls.push(wall);
        setups.push(setup);
        rates.push(tally.node_seconds / (wall - setup));
        phases.push(phase);

        let rep = walls.len();
        let mut ok = tally.check_physics(&format!("repetition {rep}"), report);
        match &first {
            None => first = Some(tally),
            Some(f) => {
                ok &= report.check(f.exact() == tally.exact(), || {
                    format!(
                        "repetition {rep}: counters {:?} differ from the first repetition's {:?}",
                        tally.exact(),
                        f.exact()
                    )
                });
            }
        }
        report.operation(ok);
    }
    if let Some(f) = &first {
        f.digest(report);
    }
    let pick = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    eprintln!(
        "  {} repetitions; median phases: build {:.4} s, prime {:.4} s, dispatch {:.4} s, \
         collect {:.4} s, simulation total {:.4} s",
        walls.len(),
        pick(|p| p.build_s),
        pick(|p| p.prime_s),
        pick(|p| p.dispatch_s),
        pick(|p| p.collect_s),
        pick(Phases::total_s),
    );
    print_cpu("repetition", &walls, &cpus);
    report.metric("wall_s", median(&walls), "s");
    report.metric("setup_s", median(&setups), "s");
    report.metric("node_sim_s_per_s", median(&rates), "node-s/s");
}

/// Prints the medians of wall time and of the process's on-CPU time, per
/// repetition.
fn print_cpu(what: &str, walls: &[f64], cpus: &[f64]) {
    println!(
        "cpu: per {what}, median wall {:.4} s, on-CPU {:.2} s",
        median(walls),
        median(cpus),
    );
}

/// `ring_grid`: checks the grid once against the batch harness (untimed),
/// then repeats served round trips, each with a fresh server and state
/// directory. Every cell of every round trip is one operation.
pub fn ring_grid(seed: u64, budget: Duration, scratch: &Path, report: &mut Report) {
    let spec = ring::spec(seed);
    let scale = ring::scale(&spec);
    // The batch harness's report: every cell through `ringsim::run_cell`
    // on the scale's one thread.
    let expected = combined_report(&scale);
    let tally = ring::tally(&scale, report);
    tally.digest(report);
    report.counter(
        "serve.report_fnv1a",
        format!("{:016x}", fnv1a(expected.as_bytes())),
    );
    let node_s = tally.node_seconds;

    let start = Instant::now();
    let (mut walls, mut setups, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut cpus = Vec::new();
    let mut rep = 0;
    while rep < min_reps(budget) || start.elapsed() < budget {
        rep += 1;
        let cpu = process_cpu_s();
        let trip = ring::round_trip(&spec, &ring::state_dir(scratch, rep));
        cpus.push(process_cpu_s() - cpu);
        let failed = match trip {
            Ok(trip) => {
                walls.push(trip.wall_s);
                setups.push(trip.setup_s);
                rates.push(node_s / (trip.wall_s - trip.setup_s));
                ring::check_trip(&trip, &expected, &format!("round trip {rep}"), report)
            }
            Err(e) => {
                report.check(false, || format!("round trip {rep}: {e}"));
                ring::CELLS
            }
        };
        for cell in 0..ring::CELLS {
            report.operation(cell >= failed);
        }
    }
    eprintln!("  {rep} round trips");
    if walls.is_empty() {
        return;
    }
    print_cpu("round trip", &walls, &cpus);
    report.metric("wall_s", median(&walls), "s");
    report.metric("setup_s", median(&setups), "s");
    report.metric("node_sim_s_per_s", median(&rates), "node-s/s");
}
