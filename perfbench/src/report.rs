//! What one benchmark process prints: human-readable lines, a digest of
//! the deterministic counters, and the final one-line JSON result.

use std::fmt::Write as _;

/// Everything a workload run found: operation counts, failed checks,
/// metrics and the deterministic counters that make up its digest.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    counters: Vec<(String, String)>,
}

impl Report {
    /// Books one operation; `ok == false` counts it as failed.
    pub fn operation(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records an output check. A failed check makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            let what = what();
            eprintln!("check failed: {what}");
            self.problems.push(what);
        }
        ok
    }

    /// Records one metric by name. A value that is not finite is itself a
    /// failed check, since JSON cannot carry it.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() {
            value
        } else {
            self.check(false, || format!("metric {name} is not finite ({value})"));
            0.0
        };
        self.metrics.push((name, value, unit));
    }

    /// Records one deterministic counter for the digest line. Counters
    /// must repeat exactly on every run of the same seed and code.
    pub fn counter(&mut self, name: &str, value: impl std::fmt::Display) {
        self.counters.push((name.to_string(), value.to_string()));
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Prints the digest line, one `name = value unit` line per metric,
    /// and the JSON result as the last line of standard output.
    pub fn print(&self, workload: &str, seed: u64) {
        let mut canon = String::new();
        for (k, v) in &self.counters {
            let _ = write!(canon, "{k}={v};");
        }
        println!(
            "digest {workload} seed={seed} fnv1a={:016x} {}",
            fnv1a(canon.as_bytes()),
            canon.trim_end_matches(';').replace(';', " ")
        );
        let failed_frac = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "{workload}: failed_frac = {failed_frac} ratio ({} of {} operations)",
            self.failed, self.attempted
        );
        for (name, value, unit) in &self.metrics {
            println!("{workload}: {name} = {value} {unit}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// 64-bit FNV-1a, the hash the repository's golden traces use.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
