//! What the host did while a run was measured: the process's on-CPU time
//! and the speed of a fixed reference kernel that uses none of the
//! repository's code.
//!
//! Both are printed next to each run's wall time, so a run shows whether
//! the host's load changed its figures. A process that waits for a CPU
//! shows less on-CPU time than wall time; one that runs slower while it
//! is on a CPU shows on-CPU time growing with wall time, and, if the
//! slow-down is the host's and not the code's, a slower reference kernel
//! too.

use std::hint::black_box;
use std::time::Instant;

/// Seconds this process's threads, live and ended, have run on a CPU,
/// from `/proc/self/stat` (in the kernel's fixed 100 ticks per second).
/// 0 where the kernel does not provide it. The end-to-end run prints it.
#[cfg(not(feature = "trace"))]
pub fn process_cpu_s() -> f64 {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The fields after the parenthesized command name start at the third;
    // user and system time are the 14th and 15th.
    let after_name = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after_name
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().unwrap_or(0))
        .sum();
    ticks as f64 / 100.0
}

/// Nanoseconds per step of a dependent random walk over `bytes` of memory
/// (one cyclic permutation of `u32` indices, so every load waits for the
/// one before it). At 1 MiB the walk stays in a core's own cache; at
/// 16 MiB it goes to the cache the host's cores share.
pub fn chase_ns(bytes: usize, steps: u32) -> f64 {
    let len = bytes / std::mem::size_of::<u32>();
    // Sattolo's shuffle of 0..len gives a single cycle through all slots.
    let mut next: Vec<u32> = (0..len as u32).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..len).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let start = Instant::now();
    let mut at = 0u32;
    for _ in 0..steps {
        at = next[at as usize];
    }
    black_box(at);
    start.elapsed().as_secs_f64() * 1e9 / f64::from(steps)
}

/// Prints the reference kernel's speed on a `host:` line.
pub fn print_host_probe(when: &str) {
    println!(
        "host: reference walk {when} the workload: {:.2} ns/step in 1 MiB, {:.2} ns/step in 16 MiB",
        chase_ns(1 << 20, 4_000_000),
        chase_ns(16 << 20, 3_000_000),
    );
}
