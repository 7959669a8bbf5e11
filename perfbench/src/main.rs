//! `dirca-perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! dirca-perfbench --workload <ring_grid|large_field|mobile_field> --seed <n>
//!                 --seconds <s> --scratch <dir>
//! ```
//!
//! Built without the `trace` feature it runs the end-to-end measurement:
//! the workload repeats until `--seconds` have passed and the medians of
//! `wall_s`, `setup_s` and `node_sim_s_per_s` are printed. Built with
//! `trace` it runs the per-layer measurement once instead. Either way the
//! outputs are checked, a digest of the deterministic counters is printed,
//! and the last line of standard output is the JSON result. The process
//! exits with status 1 if any check failed. `run.py` builds the variant a
//! run needs and adds the end-to-end run's peak resident memory.

mod cpu;
#[cfg(not(feature = "trace"))]
mod e2e;
mod fields;
#[cfg(feature = "trace")]
mod layers;
mod pass;
mod report;
mod ring;

use std::path::PathBuf;
use std::time::Duration;

use fields::{Field, FieldInput};
use report::Report;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    scratch: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut scratch = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?,
                )
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dirca-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let field = match args.workload.as_str() {
        "ring_grid" => None,
        "large_field" => Some(Field::Large),
        "mobile_field" => Some(Field::Mobile),
        other => {
            eprintln!("dirca-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    // The single repetition whose peak memory `run.py` measures skips the
    // reference kernel, which would add its own memory.
    let probe_host = args.seconds > 0;
    if probe_host {
        cpu::print_host_probe("before");
    }
    run(&args, field, Duration::from_secs(args.seconds), &mut report);
    if probe_host {
        cpu::print_host_probe("after");
    }
    report.print(&args.workload, args.seed);
    if !report.correct() {
        std::process::exit(1);
    }
}

/// The end-to-end run: repeats the workload for `budget`.
#[cfg(not(feature = "trace"))]
fn run(args: &Args, field: Option<Field>, budget: Duration, report: &mut Report) {
    match field {
        None => e2e::ring_grid(args.seed, budget, &args.scratch, report),
        Some(field) => e2e::field(&FieldInput::new(field, args.seed), budget, report),
    }
}

/// The per-layer run: one probed pass over the workload, whatever the
/// budget.
#[cfg(feature = "trace")]
fn run(args: &Args, field: Option<Field>, _budget: Duration, report: &mut Report) {
    match field {
        None => layers::run_ring(args.seed, &args.scratch, report),
        Some(field) => layers::run_field(field, &FieldInput::new(field, args.seed), report),
    }
}
