//! Measurement plumbing: quantiles, peak memory, collector snapshots and
//! the result line.

use deflection_telemetry::{Collector, HistogramSample, Snapshot};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What a `--setup-only 1` run prints once its set-up served correctly.
pub const SETUP_READY: &str = "setup ready";

/// The `q`-quantile of `values` (nearest rank on a sorted copy); 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The quiet-side quartile of per-round times: their lower quartile.
///
/// The measurement host is shared. Its slow stretches last from 10 s to
/// minutes and only ever add time, so a run's median round moves with how
/// much of the run they covered. The lower quartile is set by the quieter
/// rounds. A change to the program moves every round, so it moves this
/// figure in full.
pub fn quiet_time(per_round: &[f64]) -> f64 {
    quantile(per_round, 0.25)
}

/// The quiet-side quartile of per-round rates: their upper quartile (see
/// [`quiet_time`]).
pub fn quiet_rate(per_round: &[f64]) -> f64 {
    quantile(per_round, 0.75)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `n` cold set-ups. Each runs this program with `--setup-only 1` in
/// a fresh process and is timed from the spawn until the child reports
/// that its first timed request or deploy could start. Returns the times
/// and whether every set-up served correct verdicts.
pub fn cold_setups(n: usize, workload: &str, seed: u64) -> (Vec<f64>, bool) {
    let exe = std::env::current_exe().expect("path of this program");
    let seed = seed.to_string();
    let mut times = Vec::new();
    let mut ok = true;
    for _ in 0..n {
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed, "--setup-only", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("set-up process starts");
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        times.push(t0.elapsed().as_secs_f64());
        let exited = child.wait().is_ok_and(|s| s.success());
        ok &= read.is_ok() && line.trim_end() == SETUP_READY && exited;
    }
    (times, ok)
}

/// Runs `f` with the telemetry collector zeroed and enabled, then takes
/// one snapshot and switches it off again.
pub fn traced<R>(f: impl FnOnce() -> R) -> (R, Snapshot) {
    Collector::reset();
    Collector::enable();
    let r = f();
    let snap = Collector::snapshot();
    Collector::disable();
    (r, snap)
}

/// Reads exported counters and histograms by their Prometheus name and
/// label body, summed over one or more [`Snapshot`]s.
pub struct Exported<'a>(Vec<&'a Snapshot>);

impl<'a> Exported<'a> {
    pub fn of(snap: &'a Snapshot) -> Self {
        Exported(vec![snap])
    }

    pub fn merged(snaps: Vec<&'a Snapshot>) -> Self {
        Exported(snaps)
    }

    pub fn counter(&self, name: &str, labels: &str) -> f64 {
        let found = self.0.iter().flat_map(|s| &s.samples);
        found.filter(|s| s.name == name && s.labels == labels).map(|s| s.value as f64).sum()
    }

    /// The histogram merged over every snapshot, bucket by bucket.
    pub fn hist(&self, name: &str, labels: &str) -> Option<HistogramSample> {
        let mut found = self.0.iter().flat_map(|s| &s.histograms);
        let mut all = found.find(|h| h.name == name && h.labels == labels)?.clone();
        for h in found.filter(|h| h.name == name && h.labels == labels) {
            all.count += h.count;
            all.sum += h.sum;
            if all.buckets.len() < h.buckets.len() {
                all.buckets.resize(h.buckets.len(), 0);
            }
            all.buckets.iter_mut().zip(&h.buckets).for_each(|(a, b)| *a += b);
        }
        Some(all)
    }

    pub fn hist_sum(&self, name: &str, labels: &str) -> f64 {
        self.hist(name, labels).map_or(0.0, |h| h.sum as f64)
    }

    pub fn hist_count(&self, name: &str, labels: &str) -> f64 {
        self.hist(name, labels).map_or(0.0, |h| h.count as f64)
    }

    pub fn hist_mean(&self, name: &str, labels: &str) -> f64 {
        ratio(self.hist_sum(name, labels), self.hist_count(name, labels))
    }

    pub fn hist_quantile(&self, name: &str, labels: &str, q: f64) -> f64 {
        self.hist(name, labels).map_or(0.0, |h| h.percentile(q))
    }

    /// `deflection_pool_events_total` for one event.
    pub fn pool_event(&self, event: &str) -> f64 {
        self.counter("deflection_pool_events_total", &format!("event=\"{event}\""))
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every verdict the run checked matched its oracle.
    pub correct: bool,
    pub attempted: u64,
    /// Shed, errored and wrong requests or deploys.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn merged_snapshots_sum_counters_and_histogram_buckets() {
        use deflection_telemetry::Sample;
        let snap = |hits: i64, buckets: Vec<u64>| Snapshot {
            samples: vec![Sample {
                name: "deflection_pool_events_total",
                labels: "event=\"install_cache_hit\"",
                value: hits,
            }],
            histograms: vec![HistogramSample {
                name: "h",
                labels: "",
                count: buckets.iter().sum(),
                sum: 10,
                buckets,
            }],
        };
        let (a, b) = (snap(2, vec![0, 1]), snap(3, vec![1, 0, 2]));
        let x = Exported::merged(vec![&a, &b]);
        assert_eq!(x.pool_event("install_cache_hit"), 5.0);
        assert_eq!(x.pool_event("install_cache_miss"), 0.0);
        let h = x.hist("h", "").expect("present in both");
        assert_eq!((h.count, h.sum, h.buckets), (4, 20, vec![1, 1, 2]));
        assert_eq!(x.hist_mean("h", ""), 5.0);
        assert!(x.hist("absent", "").is_none());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome { correct: true, attempted: 3, failed: 0, ..Outcome::default() };
        o.push("latency_p50_ms", 1.25, "ms");
        assert_eq!(
            o.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
