//! Metric names, units, the result line, and the small statistics the
//! workloads share.

use std::collections::BTreeMap;

/// End-to-end metrics, reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("io_amplification", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every traced run (`--trace 1`). A layer a
/// workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("exec.launches", "count"),
    ("exec.launch_ms_p50", "ms"),
    ("array.gather_ns_p50", "ns"),
    ("array.gather_ns_p99", "ns"),
    ("array.write_ns_p50", "ns"),
    ("array.write_ns_p99", "ns"),
    ("cache.hit_rate", "ratio"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.writebacks", "count"),
    ("cache.probes_per_access", "ratio"),
    ("cache.coalesced_frac", "ratio"),
    ("cache.reused_refs", "count"),
    ("cache.flush_ms", "ms"),
    ("iostack.fetch_ns_p50", "ns"),
    ("iostack.fetch_ns_p99", "ns"),
    ("iostack.writeback_ns_p50", "ns"),
    ("iostack.writeback_ns_p99", "ns"),
    ("iostack.read_cmds", "count"),
    ("iostack.write_cmds", "count"),
    ("iostack.retries", "count"),
    ("queue.submissions", "count"),
    ("queue.cmds_per_doorbell", "ratio"),
    ("nvme.commands", "count"),
    ("nvme.cmds_per_doorbell_seen", "ratio"),
    ("nvme.failed_commands", "count"),
    ("journal.appends", "count"),
    ("journal.bytes", "B"),
    ("journal.bytes_per_user_byte", "ratio"),
    ("journal.replay_ms", "ms"),
    ("sim.events", "count"),
    ("sim.completed", "count"),
    ("sim.shard_speedup", "ratio"),
    ("sim.span_overhead", "ratio"),
    ("sim.telemetry_overhead", "ratio"),
    ("bench.queries", "count"),
    ("bench.trace_overhead", "ratio"),
];

/// Measured values by metric name. Names must come from [`END_TO_END`] or
/// [`PER_LAYER`].
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is in neither registry, or `value` is not finite:
    /// both are bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the registry"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, value);
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The unit of a registered metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// What one run reports: the op counts and its metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Ops attempted (queries on graph-miss and sim-tenants, lookups plus
    /// updates on embed-hot-rw).
    pub attempted: u64,
    /// Ops that returned an error or failed a correctness check, plus one
    /// per failed end-of-run check.
    pub failed: u64,
    /// Every metric the run measured.
    pub metrics: Metrics,
    /// Workload parameters for the run manifest, as `(key, value)` pairs.
    pub params: Vec<(&'static str, String)>,
    /// `GpuExecutor` workers (0 when the workload launches no kernels).
    pub exec_workers: usize,
    /// Simulator shard workers (0 when the workload runs no simulation).
    pub sim_workers: usize,
    /// Host-probe iterations per second over the untraced phase; the
    /// end-to-end times are scaled by it over [`crate::host::NOMINAL_RATE`].
    pub host_rate: f64,
}

impl Outcome {
    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The metric set a run prints: every end-to-end metric when untraced,
/// every per-layer metric when traced, with 0 for metrics not measured.
pub fn selected(metrics: &Metrics, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
    let names = if traced { PER_LAYER } else { END_TO_END };
    names
        .iter()
        .map(|&(n, u)| (n, metrics.get(n).unwrap_or(0.0), u))
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_json(outcome: &Outcome, traced: bool) -> String {
    let body: Vec<String> = selected(&outcome.metrics, traced)
        .into_iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(v)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
pub fn num(v: f64) -> String {
    format!("{v:?}")
}

/// A JSON string literal (the manifest values are plain ASCII, but quote
/// and backslash are escaped all the same).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank quantile of `samples` (sorted in place); 0 when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// Median of `samples` (sorted in place); 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The process's peak resident set in MiB (`VmHWM`), or 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registries_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), 5.0);
        assert_eq!(quantile(&mut v, 0.9), 9.0);
        assert_eq!(quantile(&mut v, 1.0), 10.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(1.0), "1.0");
        assert_eq!(num(0.1234567891), "0.1234567891");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    #[should_panic(expected = "not in the registry")]
    fn unknown_metric_names_are_rejected() {
        Metrics::default().set("no.such.metric", 1.0);
    }
}
