//! Per-shard accounting for the engine.
//!
//! The timing spine (`engine::drive_events`) owns every service center and
//! the one seeded RNG — the global RNG draw order is part of the engine's
//! determinism contract, so timing decisions stay sequential. What *can*
//! parallelize is everything downstream of a timing decision: stage-dwell
//! histograms, span events, latency vectors, and occupancy meters are all
//! order-independent merges (integer histograms, min/max folds, sorted
//! vectors). The spine therefore emits a compact [`Rec`] stream, partitioned
//! by owning device, and each shard applies its slice independently.
//!
//! Every record about a request routes to the shard of the request's queue
//! pair, so a shard sees its own requests' records in global `(time, seq)`
//! order — exactly the order one un-sharded [`Accounting`] would apply them
//! in. Merging shard results back (see [`merge_tenants`] and
//! [`occupancy_stats`]) reproduces that un-sharded accounting bit for bit.

use bam_obs::{BlameMark, BlameRow, SpanEvent, SpanId, Stage, StageBreakdown, WindowedSeries};

use crate::clock::SimTime;
use crate::engine::{RequestDesc, TelemetrySpec};

/// What observability the engine collects during a run: the run-level
/// telemetry spec plus each tenant's SLO evaluation window (0 = none).
/// Every shard receives the same plan, so their outputs merge.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ObsPlan<'a> {
    pub(crate) telemetry: TelemetrySpec,
    pub(crate) tenant_slo_windows: &'a [u64],
    /// Thinned member attribution for class runs: `member_of[req]` is the
    /// synthetic member (within its class) each request belongs to. `None`
    /// skips per-member accounting entirely.
    pub(crate) member_of: Option<&'a [u32]>,
}

/// Time-weighted occupancy accounting for one queue pair.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct OccupancyMeter {
    integral_ns: u128,
    last_change: SimTime,
    current: u64,
    max: u64,
}

impl OccupancyMeter {
    pub(crate) fn update(&mut self, now: SimTime, occupancy: u64) {
        self.integral_ns += u128::from(now - self.last_change) * u128::from(self.current);
        self.last_change = now;
        self.current = occupancy;
        self.max = self.max.max(occupancy);
    }

    pub(crate) fn mean(&self, end: SimTime) -> f64 {
        let total = end - SimTime::ZERO;
        if total == 0 {
            return 0.0;
        }
        let integral =
            self.integral_ns + u128::from(end - self.last_change) * u128::from(self.current);
        integral as f64 / total as f64
    }
}

/// Mean-over-queue-pairs and global max of a meter bank. Meters are always
/// folded in ascending queue-pair order, so the f64 summation order — and
/// therefore the reported mean — is identical at any shard count.
pub(crate) fn occupancy_stats(meters: &[OccupancyMeter], end: SimTime) -> (f64, u64) {
    let mean = if meters.is_empty() {
        0.0
    } else {
        meters.iter().map(|m| m.mean(end)).sum::<f64>() / meters.len() as f64
    };
    let max = meters.iter().map(|m| m.max).max().unwrap_or(0);
    (mean, max)
}

/// One accounting fact from the timing spine. `idx` is the record's global
/// emission index — the total order that reconstructs the span stream after
/// a parallel run.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rec {
    /// Request `req` entered the system at `at`.
    Arrive { req: u32, at: SimTime },
    /// Request `req` closed pipeline stage `stage` at `at`. `service_ns` is
    /// the stage's pure service time — the spine knows it exactly (it
    /// scheduled the departure) — so shards can split the dwell into service
    /// vs wait without re-deriving timing decisions.
    Stage {
        req: u32,
        stage: Stage,
        at: SimTime,
        idx: u64,
        service_ns: u64,
    },
    /// Request `req` completed at `at` (closes the Completion stage).
    Complete {
        req: u32,
        at: SimTime,
        idx: u64,
        service_ns: u64,
    },
    /// Queue pair `qp` changed occupancy at `at`.
    Meter {
        qp: u32,
        at: SimTime,
        occupancy: u64,
    },
    /// The admission controller pushed request `req` back at `at` (it will
    /// be re-offered after its class's deferral backoff).
    Defer { req: u32, at: SimTime },
    /// The admission controller rejected request `req` at `at` (it exhausted
    /// its deferral budget and never enters the pipeline).
    Reject { req: u32, at: SimTime },
}

impl Rec {
    /// Virtual instant the record was emitted at.
    pub(crate) fn at(&self) -> SimTime {
        match *self {
            Rec::Arrive { at, .. }
            | Rec::Stage { at, .. }
            | Rec::Complete { at, .. }
            | Rec::Meter { at, .. }
            | Rec::Defer { at, .. }
            | Rec::Reject { at, .. } => at,
        }
    }
}

/// Static shard topology: devices are dealt round-robin over
/// `min(workers, num_ssds)` shards, and a queue pair belongs to its device's
/// shard. Every record about a request routes to the shard of the request's
/// queue pair, so per-request state never crosses shards.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardMap {
    pub(crate) shards: usize,
    queue_pairs_per_ssd: u32,
}

impl ShardMap {
    pub(crate) fn new(workers: usize, num_ssds: u32, queue_pairs_per_ssd: u32) -> Self {
        Self {
            shards: workers.min(num_ssds as usize).max(1),
            queue_pairs_per_ssd,
        }
    }

    /// The shard owning queue pair `qp`.
    pub(crate) fn of_qp(&self, qp: u32) -> usize {
        ((qp / self.queue_pairs_per_ssd) as usize) % self.shards
    }

    /// The shard a record routes to.
    pub(crate) fn route(&self, rec: &Rec, qp_of: &[u32]) -> usize {
        match *rec {
            Rec::Arrive { req, .. }
            | Rec::Stage { req, .. }
            | Rec::Complete { req, .. }
            | Rec::Defer { req, .. }
            | Rec::Reject { req, .. } => self.of_qp(qp_of[req as usize]),
            Rec::Meter { qp, .. } => self.of_qp(qp),
        }
    }
}

/// Accounting-side state of one tenant (the spine keeps issue state; see
/// `engine::IssueState`).
#[derive(Debug)]
pub(crate) struct TenantAcc {
    /// Completed-request latencies, in completion order.
    pub(crate) latencies: Vec<u64>,
    /// When the tenant's first request arrived.
    pub(crate) first_arrival: Option<SimTime>,
    /// When the tenant's last request completed.
    pub(crate) last_completion: SimTime,
    /// Per-stage dwell-time histograms over the tenant's requests.
    pub(crate) stages: StageBreakdown,
    /// The tenant's completion telemetry on its SLO evaluation window
    /// (disabled — window 0 — for tenants without an SLO).
    pub(crate) slo_series: WindowedSeries,
    /// Requests first offered to the tenant (deferral re-offers not
    /// recounted).
    pub(crate) offered: u64,
    /// Admission-controller deferral decisions (one request may defer more
    /// than once).
    pub(crate) deferrals: u64,
    /// Requests the admission controller rejected outright.
    pub(crate) rejected: u64,
    /// Per-member completion histograms for class runs with thinned
    /// attribution (empty when `ObsPlan::member_of` is `None`).
    pub(crate) members: std::collections::BTreeMap<u32, bam_obs::LatencyHisto>,
}

impl TenantAcc {
    fn new(slo_window_ns: u64) -> Self {
        Self {
            latencies: Vec::new(),
            first_arrival: None,
            last_completion: SimTime::ZERO,
            stages: StageBreakdown::new(),
            slo_series: WindowedSeries::new(slo_window_ns),
            offered: 0,
            deferrals: 0,
            rejected: 0,
            members: std::collections::BTreeMap::new(),
        }
    }
}

/// Merges per-shard tenant accounts elementwise. Latency vectors concatenate
/// in shard order — every consumer is order-independent (histograms, min/max
/// folds, or an explicit sort) — first arrivals min-fold, last completions
/// max-fold, and stage histograms merge exactly.
pub(crate) fn merge_tenants(parts: Vec<Vec<TenantAcc>>) -> Vec<TenantAcc> {
    let mut parts = parts.into_iter();
    let mut merged = parts.next().expect("at least one shard");
    for part in parts {
        for (into, from) in merged.iter_mut().zip(part) {
            into.latencies.extend_from_slice(&from.latencies);
            into.first_arrival = match (into.first_arrival, from.first_arrival) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            into.last_completion = into.last_completion.max(from.last_completion);
            into.stages.merge(&from.stages);
            into.slo_series.merge(&from.slo_series);
            into.offered += from.offered;
            into.deferrals += from.deferrals;
            into.rejected += from.rejected;
            for (member, histo) in from.members {
                into.members.entry(member).or_default().merge(&histo);
            }
        }
    }
    merged
}

/// One shard's accounting state: everything tracked per request and per
/// tenant, applied from the record stream rather than inside the event
/// loop.
///
/// `local_of` densely remaps request ids onto this shard's own slots so the
/// per-request arrays cost memory proportional to the shard's share, not the
/// whole run ([`None`] means the identity map — the test-only un-sharded
/// reference accounts every request).
pub(crate) struct Accounting<'a> {
    requests: &'a [RequestDesc],
    tenant_of: &'a [u32],
    qp_of: &'a [u32],
    local_of: Option<&'a [u32]>,
    /// Thinned member attribution (class runs only; see
    /// [`ObsPlan::member_of`]).
    member_of: Option<&'a [u32]>,
    /// Arrival instant of each owned request (dense via `local_of`).
    arrive_at: Vec<SimTime>,
    /// Last stage boundary of each owned request.
    last_mark: Vec<SimTime>,
    pub(crate) meters: Vec<OccupancyMeter>,
    pub(crate) tenants: Vec<TenantAcc>,
    /// Completed-read latencies, in completion order.
    pub(crate) read_latencies: Vec<u64>,
    /// Completed-write latencies, in completion order.
    pub(crate) write_latencies: Vec<u64>,
    /// Span events tagged with their emission index, for the post-run
    /// merge (`None` when untraced).
    spans: Option<Vec<(u64, SpanEvent)>>,
    /// Run-level windowed telemetry (disabled — window 0 — when the plan
    /// asks for none; every record is then a single branch).
    pub(crate) series: WindowedSeries,
    /// Per-request blame rows (empty when the plan disables blame). Dense
    /// via `local_of`, like the other per-request arrays.
    rows: Vec<BlameRow>,
    /// Whether blame rows are being collected.
    blame: bool,
}

impl<'a> Accounting<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        requests: &'a [RequestDesc],
        tenant_of: &'a [u32],
        qp_of: &'a [u32],
        local_of: Option<&'a [u32]>,
        slots: usize,
        total_qps: u32,
        plan: &ObsPlan<'a>,
        traced: bool,
    ) -> Self {
        let blame = plan.telemetry.blame;
        Self {
            requests,
            tenant_of,
            qp_of,
            local_of,
            member_of: plan.member_of,
            arrive_at: vec![SimTime::ZERO; slots],
            last_mark: vec![SimTime::ZERO; slots],
            meters: vec![OccupancyMeter::default(); total_qps as usize],
            tenants: plan
                .tenant_slo_windows
                .iter()
                .map(|&w| TenantAcc::new(w))
                .collect(),
            read_latencies: Vec::new(),
            write_latencies: Vec::new(),
            spans: traced.then(Vec::new),
            series: WindowedSeries::new(plan.telemetry.window_ns),
            rows: if blame {
                (0..slots)
                    .map(|_| BlameRow {
                        id: 0,
                        arrive_ns: 0,
                        marks: Vec::new(),
                    })
                    .collect()
            } else {
                Vec::new()
            },
            blame,
        }
    }

    #[inline]
    fn local(&self, req: u32) -> usize {
        match self.local_of {
            Some(map) => map[req as usize] as usize,
            None => req as usize,
        }
    }

    /// Closes one pipeline stage of `req` at `now`: the dwell since the
    /// request's previous stage boundary lands in its tenant's
    /// [`StageBreakdown`] and (when tracing) in the span output on the
    /// request's queue-pair track. Dwell times tile the request's life
    /// exactly — their sum is the end-to-end latency. `service_ns` is the
    /// stage's pure service time from the spine; the dwell's remainder is
    /// queueing wait, recorded into the windowed series and (when blame is
    /// on) the request's blame row.
    fn mark(&mut self, req: u32, stage: Stage, now: SimTime, idx: u64, service_ns: u64) {
        let slot = self.local(req);
        let start = self.last_mark[slot];
        let dwell = now - start;
        self.tenants[self.tenant_of[req as usize] as usize]
            .stages
            .record(stage, dwell);
        self.series
            .record_stage(now.as_ns(), stage, dwell, dwell - service_ns.min(dwell));
        if self.blame {
            self.rows[slot].marks.push(BlameMark {
                stage,
                end_ns: now.as_ns(),
                service_ns,
            });
        }
        if let Some(buf) = &mut self.spans {
            buf.push((
                idx,
                Self::span_event(self.requests, self.qp_of, req, stage, start, now),
            ));
        }
        self.last_mark[slot] = now;
    }

    fn span_event(
        requests: &[RequestDesc],
        qp_of: &[u32],
        req: u32,
        stage: Stage,
        start: SimTime,
        end: SimTime,
    ) -> SpanEvent {
        SpanEvent {
            span: SpanId(u64::from(req)),
            stage,
            start_ns: start.as_ns(),
            end_ns: end.as_ns(),
            track: qp_of[req as usize],
            arg: requests[req as usize].bytes,
        }
    }

    /// Applies one record. Records arrive in global `(time, seq)` order for
    /// this shard's requests and queue pairs, so the state transitions are
    /// the same ones an un-sharded accounting performs.
    pub(crate) fn apply(&mut self, rec: Rec) {
        match rec {
            Rec::Arrive { req, at } => {
                let slot = self.local(req);
                self.arrive_at[slot] = at;
                self.last_mark[slot] = at;
                self.series.record_arrival(at.as_ns());
                if self.blame {
                    self.rows[slot].id = u64::from(req);
                    self.rows[slot].arrive_ns = at.as_ns();
                }
                let tenant = &mut self.tenants[self.tenant_of[req as usize] as usize];
                tenant.first_arrival.get_or_insert(at);
                tenant.offered += 1;
                tenant.slo_series.record_arrival(at.as_ns());
            }
            Rec::Stage {
                req,
                stage,
                at,
                idx,
                service_ns,
            } => self.mark(req, stage, at, idx, service_ns),
            Rec::Complete {
                req,
                at,
                idx,
                service_ns,
            } => {
                self.mark(req, Stage::Completion, at, idx, service_ns);
                let latency = at - self.arrive_at[self.local(req)];
                self.series.record_completion(at.as_ns(), latency);
                let tenant = &mut self.tenants[self.tenant_of[req as usize] as usize];
                tenant.latencies.push(latency);
                tenant.last_completion = at;
                tenant.slo_series.record_completion(at.as_ns(), latency);
                if let Some(member_of) = self.member_of {
                    tenant
                        .members
                        .entry(member_of[req as usize])
                        .or_default()
                        .record(latency);
                }
                if self.requests[req as usize].write {
                    self.write_latencies.push(latency);
                } else {
                    self.read_latencies.push(latency);
                }
            }
            Rec::Meter { qp, at, occupancy } => {
                self.meters[qp as usize].update(at, occupancy);
                self.series.record_occupancy(at.as_ns(), occupancy);
            }
            Rec::Defer { req, at } => {
                let tenant = &mut self.tenants[self.tenant_of[req as usize] as usize];
                tenant.deferrals += 1;
                tenant.slo_series.record_deferral(at.as_ns());
                self.series.record_deferral(at.as_ns());
            }
            Rec::Reject { req, at } => {
                let tenant = &mut self.tenants[self.tenant_of[req as usize] as usize];
                tenant.rejected += 1;
                tenant.slo_series.record_rejection(at.as_ns());
                self.series.record_rejection(at.as_ns());
            }
        }
    }

    /// The shard's buffered `(emission index, span event)` pairs, in
    /// emission order (empty when untraced).
    pub(crate) fn take_spans(&mut self) -> Vec<(u64, SpanEvent)> {
        self.spans.take().unwrap_or_default()
    }

    /// The shard's blame rows (empty when blame was disabled).
    pub(crate) fn take_blame_rows(&mut self) -> Vec<BlameRow> {
        std::mem::take(&mut self.rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_deals_devices_round_robin() {
        let map = ShardMap::new(2, 4, 2);
        assert_eq!(map.shards, 2);
        // Queue pairs 0-1 → device 0 → shard 0; 2-3 → device 1 → shard 1 …
        assert_eq!(map.of_qp(0), 0);
        assert_eq!(map.of_qp(1), 0);
        assert_eq!(map.of_qp(2), 1);
        assert_eq!(map.of_qp(4), 0);
        assert_eq!(map.of_qp(7), 1);
        // Never more shards than devices, never zero.
        assert_eq!(ShardMap::new(8, 4, 2).shards, 4);
        assert_eq!(ShardMap::new(0, 4, 2).shards, 1);
    }

    #[test]
    fn merge_tenants_folds_min_max_and_concats() {
        let mut a = TenantAcc::new(0);
        a.latencies.push(10);
        a.first_arrival = Some(SimTime::from_ns(5));
        a.last_completion = SimTime::from_ns(100);
        let mut b = TenantAcc::new(0);
        b.latencies.push(20);
        b.first_arrival = Some(SimTime::from_ns(2));
        b.last_completion = SimTime::from_ns(50);
        let merged = merge_tenants(vec![vec![a], vec![b]]);
        assert_eq!(merged[0].latencies, vec![10, 20]);
        assert_eq!(merged[0].first_arrival, Some(SimTime::from_ns(2)));
        assert_eq!(merged[0].last_completion, SimTime::from_ns(100));
    }

    #[test]
    fn occupancy_stats_match_meter_arithmetic() {
        let mut m = OccupancyMeter::default();
        m.update(SimTime::from_ns(0), 2);
        m.update(SimTime::from_ns(100), 0);
        let (mean, max) = occupancy_stats(&[m], SimTime::from_ns(200));
        assert!((mean - 1.0).abs() < 1e-12, "{mean}");
        assert_eq!(max, 2);
        assert_eq!(occupancy_stats(&[], SimTime::from_ns(200)), (0.0, 0));
    }
}
