//! Sample summaries and the result line.

pub use mirage_bench::percentile as pct;
use std::time::{Duration, Instant};

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 50.0)
}

/// Runs `f` until at least `min_reps` calls and `budget` of wall time
/// have passed (at most `max_reps` calls) and returns the median call
/// time in milliseconds.
pub fn time_median_ms(
    min_reps: usize,
    max_reps: usize,
    budget: Duration,
    mut f: impl FnMut(),
) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < max_reps && (samples.len() < min_reps || start.elapsed() < budget) {
        let t = Instant::now();
        f();
        samples.push(ms(t.elapsed()));
    }
    median(&samples)
}

/// Named metrics in insertion order, printed as the result line.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// Every metric as `name = value unit` lines, for the report.
    pub fn report(&self) -> String {
        self.entries
            .iter()
            .map(|(n, v, u)| format!("  {n} = {v} {u}\n"))
            .collect()
    }

    /// The JSON result object the benchmark prints last.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .entries
            .iter()
            .map(|(n, v, u)| {
                // JSON has no NaN or infinity; a non-finite value is a
                // benchmark bug, not a measurement.
                assert!(v.is_finite(), "metric {n} is not finite: {v}");
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
