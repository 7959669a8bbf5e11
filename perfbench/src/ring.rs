//! The `ring_grid` workload: the paper's Figs. 6/7 grid (3 schemes ×
//! N ∈ {3, 5, 8} × θ ∈ {30°, 90°, 150°} on ring topologies) submitted as a
//! `ScenarioSpec` to an in-process `dirca-serve` over loopback.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dirca_experiments::report::GridScale;
use dirca_experiments::ringsim::topology_config;
use dirca_experiments::runner::enumerate_cells;
use dirca_serve::proto::{decode_done, decode_progress, decode_reject, decode_report, FrameConn};
use dirca_serve::{shutdown, ClientConfig, ScenarioSpec, Server, ServerConfig};
use dirca_sim::rng::derive_seed;
use dirca_trace::wire::kind;

use crate::pass::{simulate, Tally};
use crate::report::Report;

/// Salt that turns the benchmark seed into the grid's master seed.
const GRID_SALT: u64 = 0x0121_6C1D;

/// Cells in the paper's grid.
pub const CELLS: u32 = 27;

/// The grid's spec for benchmark seed `seed`: the quick profile (4
/// topologies per cell, 100 ms warm-up, 1 s measurement). A failed cell
/// is not retried, so it shows as failed.
pub fn spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        seed: derive_seed(seed, GRID_SALT),
        topologies: 4,
        measure_ms: 1_000,
        warmup_ms: 100,
        densities: vec![3, 5, 8],
        beamwidths: vec![30.0, 90.0, 150.0],
        fer: 0.0,
        retries: 0,
        events_budget: 0,
        inject_panic: None,
    }
}

/// The batch-harness scale equivalent to `spec`, on one worker thread.
pub fn scale(spec: &ScenarioSpec) -> GridScale {
    spec.scale(1)
}

/// What one submit → report round trip returned.
#[derive(Debug)]
pub struct RoundTrip {
    /// `Server::bind` until the server's `ACCEPT` frame arrived.
    pub setup_s: f64,
    /// `Server::bind` until the `DONE` frame arrived.
    pub wall_s: f64,
    /// Frames the client received.
    pub frames: u64,
    /// `PROGRESS` heartbeats that reported a successful cell.
    pub cells_ok: u32,
    /// The served report text.
    pub report: String,
    /// The `DONE` summary: executed, restored, failed.
    pub done: (u32, u32, u32),
}

/// Runs one grid through a fresh server: binds it on an ephemeral
/// loopback port with one worker thread and a fresh `state_dir`, submits
/// `spec`, reads the streamed answer, then shuts the server down through
/// `client::shutdown`, joins its thread and removes `state_dir`.
pub fn round_trip(spec: &ScenarioSpec, state_dir: &Path) -> Result<RoundTrip, String> {
    if state_dir.exists() {
        std::fs::remove_dir_all(state_dir)
            .map_err(|e| format!("cannot clear {}: {e}", state_dir.display()))?;
    }
    let t0 = Instant::now();
    let server = Server::bind(ServerConfig {
        listen: "127.0.0.1:0".into(),
        state_dir: state_dir.to_path_buf(),
        queue_cap: 4,
        threads: 1,
        io_timeout: Duration::from_secs(60),
    })
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    // Connect and submit before the accept loop starts: the listener's
    // backlog holds the connection, so the loop's first accept finds it
    // instead of sleeping through an idle poll.
    let submitted = TcpStream::connect(addr)
        .map_err(|e| format!("connect: {e}"))
        .and_then(|stream| {
            stream
                .set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| format!("set timeout: {e}"))?;
            let mut conn = FrameConn::new(stream);
            conn.write_frame(kind::SUBMIT, &spec.encode())
                .map_err(|e| format!("submit: {e}"))?;
            Ok(conn)
        });
    let server_thread = std::thread::spawn(move || {
        let mut server = server;
        server.run()
    });
    let outcome = submitted.and_then(|mut conn| read_answer(&mut conn, t0));

    let stopped =
        shutdown(&ClientConfig::to(addr.to_string())).map_err(|e| format!("shutdown: {e}"));
    let joined = match server_thread.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server: {e}")),
        Err(_) => Err("server thread panicked".to_string()),
    };
    let removed = std::fs::remove_dir_all(state_dir)
        .map_err(|e| format!("cannot remove {}: {e}", state_dir.display()));
    let trip = outcome?;
    stopped?;
    joined?;
    removed?;
    Ok(trip)
}

/// Reads `ACCEPT`, the `PROGRESS` heartbeats, `REPORT` and `DONE`.
fn read_answer(conn: &mut FrameConn, t0: Instant) -> Result<RoundTrip, String> {
    let mut setup_s = None;
    let mut frames = 0u64;
    let mut cells_ok = 0u32;
    let mut report = None;
    loop {
        let frame = conn.expect_frame().map_err(|e| format!("read: {e}"))?;
        frames += 1;
        match frame.kind {
            kind::ACCEPT => setup_s = Some(t0.elapsed().as_secs_f64()),
            kind::PROGRESS => {
                let p = decode_progress(&frame.payload).map_err(|e| e.to_string())?;
                cells_ok += u32::from(p.ok);
            }
            kind::REPORT => {
                report = Some(decode_report(&frame.payload).map_err(|e| e.to_string())?);
            }
            kind::DONE => {
                let wall_s = t0.elapsed().as_secs_f64();
                let d = decode_done(&frame.payload).map_err(|e| e.to_string())?;
                return Ok(RoundTrip {
                    setup_s: setup_s.ok_or("DONE before ACCEPT")?,
                    wall_s,
                    frames,
                    cells_ok,
                    report: report.ok_or("DONE before REPORT")?,
                    done: (d.executed, d.restored, d.failed),
                });
            }
            kind::REJECT => {
                let r = decode_reject(&frame.payload).map_err(|e| e.to_string())?;
                return Err(format!("rejected ({}): {}", r.code, r.message));
            }
            kind::BUSY => return Err("server busy".to_string()),
            other => return Err(format!("unexpected frame kind {other:#04x}")),
        }
    }
}

/// Checks one round trip: all 27 cells executed, none restored (a
/// restored cell would mean a checkpoint was reused, i.e. the run timed a
/// cache hit), none failed, one frame per cell plus `ACCEPT`, `REPORT` and
/// `DONE`, and the report equal to the expected one. Returns how many
/// cells count as failed.
pub fn check_trip(trip: &RoundTrip, expected: &str, what: &str, report: &mut Report) -> u32 {
    let (executed, restored, failed) = trip.done;
    let done_ok = report.check((executed, restored, failed) == (CELLS, 0, 0), || {
        format!("{what}: DONE reported executed={executed} restored={restored} failed={failed}")
    });
    let frames = trip.frames;
    let frames_ok = report.check(frames == u64::from(CELLS) + 3, || {
        format!("{what}: {frames} frames received")
    });
    let report_ok = report.check(trip.report == expected, || {
        format!("{what}: served report differs from the batch harness's")
    });
    if done_ok && frames_ok && report_ok {
        CELLS.saturating_sub(trip.cells_ok)
    } else {
        CELLS
    }
}

/// Every topology of every cell simulated once through [`simulate`]: the
/// grid's deterministic counters, whose physical invariants it checks.
pub fn tally(scale: &GridScale, report: &mut Report) -> Tally {
    let mut tally = Tally::default();
    for cell in enumerate_cells(scale) {
        let experiment = scale.cell(cell.scheme, cell.n, cell.theta);
        for index in 0..experiment.topologies {
            let (topology, config) = topology_config(&experiment, index);
            tally.add(&simulate(&topology, &config, &mut ()).1);
        }
    }
    tally.check_physics("grid", report);
    tally
}

/// A fresh per-round-trip state directory under `scratch`.
pub fn state_dir(scratch: &Path, rep: usize) -> PathBuf {
    scratch.join(format!("serve-state-{}-{rep}", std::process::id()))
}
