//! Per-layer counters of the functional stack (`cache`, `iostack`, `queue`,
//! `nvme`, `journal`), read from what `BamSystem` already exposes.
//!
//! A phase starts with [`begin_phase`]: it resets the software metrics
//! (`BamSystem::reset_metrics`) and marks the device and queue counters,
//! which cannot be reset and are differenced instead.

use bam_core::BamSystem;

use crate::metrics::{ratio, Metrics};

/// Device and queue counters at the start of a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackMark {
    submissions: u64,
    doorbell_writes: u64,
    nvme_commands: u64,
    nvme_doorbells_seen: u64,
    nvme_failed: u64,
}

impl StackMark {
    fn take(sys: &BamSystem) -> Self {
        let stats = sys.ssd_stats();
        Self {
            submissions: sys.total_submissions(),
            doorbell_writes: sys.total_doorbell_writes(),
            nvme_commands: stats.iter().map(|s| s.total_commands()).sum(),
            nvme_doorbells_seen: stats.iter().map(|s| s.doorbell_observations).sum(),
            nvme_failed: stats.iter().map(|s| s.failed_commands).sum(),
        }
    }
}

/// Starts a measured phase on `sys`.
pub fn begin_phase(sys: &BamSystem) -> StackMark {
    sys.reset_metrics();
    StackMark::take(sys)
}

/// Records the stack's per-layer metrics accumulated since `mark`.
///
/// `elem_bytes` is the element size of the workload's array (to turn
/// requested bytes into element accesses) and `user_write_bytes` the bytes
/// the workload asked to write (the base of `journal.bytes_per_user_byte`).
pub fn record_layers(
    sys: &BamSystem,
    mark: StackMark,
    elem_bytes: u64,
    user_write_bytes: u64,
    m: &mut Metrics,
) {
    let snap = sys.metrics();
    let now = StackMark::take(sys);
    let accesses = (snap.bytes_requested / elem_bytes) as f64;
    m.set("cache.hit_rate", snap.hit_rate());
    m.set("cache.misses", snap.cache_misses as f64);
    m.set("cache.evictions", snap.cache_evictions as f64);
    m.set("cache.writebacks", snap.cache_writebacks as f64);
    m.set(
        "cache.probes_per_access",
        ratio(snap.probe_attempts as f64, accesses),
    );
    m.set(
        "cache.coalesced_frac",
        ratio(snap.coalesced_accesses as f64, accesses),
    );
    m.set("cache.reused_refs", snap.reused_references as f64);

    let prom = sys.metrics_export();
    for (histo, p50, p99) in [
        (
            "bam_fetch_latency_ns",
            "iostack.fetch_ns_p50",
            "iostack.fetch_ns_p99",
        ),
        (
            "bam_writeback_latency_ns",
            "iostack.writeback_ns_p50",
            "iostack.writeback_ns_p99",
        ),
    ] {
        let buckets = prom_buckets(&prom, histo);
        m.set(p50, bucket_quantile(&buckets, 0.5) as f64);
        m.set(p99, bucket_quantile(&buckets, 0.99) as f64);
    }
    m.set("iostack.read_cmds", snap.read_requests as f64);
    m.set("iostack.write_cmds", snap.write_requests as f64);
    m.set("iostack.retries", snap.storage_retries as f64);

    let submissions = now.submissions - mark.submissions;
    m.set("queue.submissions", submissions as f64);
    m.set(
        "queue.cmds_per_doorbell",
        ratio(
            submissions as f64,
            (now.doorbell_writes - mark.doorbell_writes) as f64,
        ),
    );
    let commands = now.nvme_commands - mark.nvme_commands;
    m.set("nvme.commands", commands as f64);
    m.set(
        "nvme.cmds_per_doorbell_seen",
        ratio(
            commands as f64,
            (now.nvme_doorbells_seen - mark.nvme_doorbells_seen) as f64,
        ),
    );
    m.set(
        "nvme.failed_commands",
        (now.nvme_failed - mark.nvme_failed) as f64,
    );

    m.set("journal.appends", snap.journal_appends as f64);
    m.set("journal.bytes", snap.journal_bytes as f64);
    m.set(
        "journal.bytes_per_user_byte",
        ratio(snap.journal_bytes as f64, user_write_bytes as f64),
    );
}

/// The cumulative `(upper bound ns, count)` buckets of histogram `name` in
/// Prometheus text `prom`, `+Inf` excluded.
pub fn prom_buckets(prom: &str, name: &str) -> Vec<(u64, u64)> {
    let prefix = format!("{name}_bucket{{le=\"");
    prom.lines()
        .filter_map(|line| line.strip_prefix(&prefix))
        .filter_map(|rest| {
            let (le, count) = rest.split_once("\"} ")?;
            Some((le.parse().ok()?, count.trim().parse().ok()?))
        })
        .collect()
}

/// The upper bound of the first cumulative bucket holding the
/// nearest-rank `q` quantile; 0 for an empty histogram.
pub fn bucket_quantile(buckets: &[(u64, u64)], q: f64) -> u64 {
    let total = buckets.last().map_or(0, |&(_, c)| c);
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).max(1);
    buckets
        .iter()
        .find(|&&(_, c)| c >= rank)
        .map_or(0, |&(le, _)| le)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prom_histogram_quantiles() {
        let prom = "# TYPE x histogram\nx_bucket{le=\"10\"} 1\nx_bucket{le=\"20\"} 9\n\
                    x_bucket{le=\"40\"} 10\nx_bucket{le=\"+Inf\"} 10\nx_sum 200\nx_count 10\n";
        let b = prom_buckets(prom, "x");
        assert_eq!(b, vec![(10, 1), (20, 9), (40, 10)]);
        assert_eq!(bucket_quantile(&b, 0.5), 20);
        assert_eq!(bucket_quantile(&b, 0.99), 40);
        assert_eq!(bucket_quantile(&[], 0.5), 0);
    }
}
