//! The discrete-event engine.
//!
//! Requests flow through the five-stage pipeline of
//! [`crate::pipeline::PipelineParams`] over a virtual nanosecond clock. Every
//! resource (queue pairs, media channel pools, per-device links, the shared
//! GPU link) is a FIFO service center; contention shows up as queueing delay
//! and therefore in the latency distribution — the dynamics the closed-form
//! models in `bam-timing` average away.
//!
//! Runs are deterministic: the event heap breaks ties by insertion order and
//! all randomness comes from one seeded SplitMix64 generator.
//!
//! One engine runs every entry point: the sequential timing spine
//! (`drive_events`) feeds arrivals from a time-sorted cursor and streams
//! accounting records to `min(workers, num_ssds)` per-SSD worker shards
//! (the private `shard` and `coordinator` modules), whose merged results
//! are bit-identical at any worker count. Explicit tenants lower to
//! one-member [`TenantClass`]es and run on the class path; only a
//! single-workload run, whose requests may pin devices and queues, keeps
//! its own routing.

use std::collections::VecDeque;

use bam_obs::{SpanRecorder, Stage, StageBreakdown};
use rand::rngs::StdRng;
use rand::SeedableRng;

use bam_obs::{evaluate_slo, BlameRow, WindowedSeries};

use crate::clock::SimTime;
use crate::coordinator;
use crate::dist::LatencyDist;
use crate::event::{Event, EventQueue};
use crate::pipeline::{fair_shares, PipelineParams, QueuePairPolicy};
use crate::report::{
    build_run_telemetry, AdmissionReport, DepthTimeline, LatencySummary, MemberSummary,
    MultiTenantReport, RunTelemetry, SimReport, TenantSummary,
};
#[cfg(test)]
use crate::shard::{occupancy_stats, Accounting};
use crate::shard::{ObsPlan, Rec, TenantAcc};
use crate::tenant::{ArrivalProcess, Superposition, TenantClass, TenantSpec};

/// What run-level telemetry the engine collects.
///
/// The disabled spec costs one predictable branch per accounting record;
/// enabled telemetry perturbs nothing — the report of an observed run is
/// bit-identical to the unobserved run's, at any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetrySpec {
    /// Windowed-series window size in virtual nanoseconds (0 = no series).
    pub window_ns: u64,
    /// Collect per-request blame rows (service/wait decomposition).
    pub blame: bool,
    /// Slowest-request exemplars kept in the blame report.
    pub blame_top_k: usize,
}

impl TelemetrySpec {
    /// No telemetry: empty series, no blame rows.
    pub const fn disabled() -> Self {
        Self {
            window_ns: 0,
            blame: false,
            blame_top_k: 0,
        }
    }

    /// Full telemetry: a windowed series on `window_ns` plus blame
    /// decomposition keeping `blame_top_k` exemplars.
    pub const fn full(window_ns: u64, blame_top_k: usize) -> Self {
        Self {
            window_ns,
            blame: true,
            blame_top_k,
        }
    }
}

/// Static description of one simulated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestDesc {
    /// `true` for a write (uses the write media distribution).
    pub write: bool,
    /// Payload bytes (link occupancy scales with this).
    pub bytes: u64,
    /// Device to route to; `None` round-robins across the array.
    pub device: Option<u32>,
    /// Queue pair within the device; `None` round-robins.
    pub queue: Option<u32>,
}

impl RequestDesc {
    /// A round-robin-routed read of `bytes`.
    pub fn read(bytes: u64) -> Self {
        Self {
            write: false,
            bytes,
            device: None,
            queue: None,
        }
    }

    /// A round-robin-routed write of `bytes`.
    pub fn write(bytes: u64) -> Self {
        Self {
            write: true,
            bytes,
            device: None,
            queue: None,
        }
    }
}

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Workload {
    /// Arrivals at a fixed rate regardless of completions (queue growth is
    /// possible — that is the point).
    OpenLoop {
        /// Arrival rate in requests per second.
        rate_per_s: f64,
    },
    /// A fixed number of outstanding requests; every completion immediately
    /// launches the next (the GPU-threads-keep-queues-full model of §2.2).
    ClosedLoop {
        /// Concurrently outstanding requests.
        in_flight: u32,
    },
}

/// Engine configuration: the array geometry plus the per-SSD pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// RNG seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// Devices in the array.
    pub num_ssds: u32,
    /// Queue pairs per device.
    pub queue_pairs_per_ssd: u32,
    /// Per-SSD stage parameters.
    pub pipeline: PipelineParams,
}

impl SimConfig {
    /// Total queue pairs across the array.
    pub fn total_queue_pairs(&self) -> u32 {
        self.num_ssds * self.queue_pairs_per_ssd
    }

    /// A configuration with *pure-delay* service of `latency_us` and no
    /// bandwidth or serialization constraints: the §2.2 worked examples,
    /// where only Little's law governs the in-flight population.
    pub fn worked_example(latency_us: f64, seed: u64) -> Self {
        Self {
            seed,
            num_ssds: 1,
            queue_pairs_per_ssd: 1024,
            pipeline: PipelineParams {
                qp_forward_ns: 0,
                qp_recovery_ns: 0,
                ctrl_fetch_ns: 0,
                read_media: LatencyDist::fixed_us(latency_us),
                write_media: LatencyDist::fixed_us(latency_us),
                media_channels: u32::MAX,
                ssd_link_ns_per_byte: 0.0,
                gpu_link_ns_per_byte: 0.0,
                completion_ns: 0,
                access_bytes: 512,
                journal_flush_ns: 0,
            },
        }
    }
}

/// A FIFO service center with `capacity` parallel servers.
#[derive(Debug)]
struct Center {
    busy: u32,
    capacity: u32,
    waiting: VecDeque<u32>,
}

impl Center {
    fn new(capacity: u32) -> Self {
        Self {
            busy: 0,
            capacity,
            waiting: VecDeque::new(),
        }
    }

    /// Admits `req`: returns `true` if a server was free (caller schedules
    /// the departure), otherwise queues it.
    fn admit(&mut self, req: u32) -> bool {
        if self.busy < self.capacity {
            self.busy += 1;
            true
        } else {
            self.waiting.push_back(req);
            false
        }
    }

    /// Releases one server; if a request was waiting it is started
    /// immediately (the caller schedules its departure).
    fn release(&mut self) -> Option<u32> {
        let next = self.waiting.pop_front();
        if next.is_none() {
            self.busy -= 1;
        }
        next
    }

    /// Requests currently at this center (in service + waiting).
    fn occupancy(&self) -> u64 {
        u64::from(self.busy) + self.waiting.len() as u64
    }
}

/// Spine-side issue state of one tenant: which requests exist and how
/// closed-loop completions refill them. Accounting state lives in
/// [`TenantAcc`].
pub(crate) struct IssueState {
    /// First global request index of the tenant's contiguous block.
    pub(crate) base: u64,
    /// Requests in the block.
    pub(crate) count: u64,
    /// Requests whose arrivals have been scheduled so far.
    pub(crate) issued: u64,
    /// `Some(in_flight)` for closed-loop tenants: completions refill.
    pub(crate) refill: Option<u32>,
}

impl IssueState {
    pub(crate) fn new(base: u64, count: u64, issued: u64, refill: Option<u32>) -> Self {
        Self {
            base,
            count,
            issued,
            refill,
        }
    }
}

/// `ln(100)`: the p99-to-mean ratio of an exponential sojourn tail
/// (`P[T > t] = e^(-t/mean)` crosses 1% at `t = mean·ln 100`). Hardcoded so
/// controller thresholds never depend on the platform's `ln`.
const LN_100: f64 = 4.605_170_185_988_092;

/// The admission controller of one tenant class, actuating its SLO in the
/// arrival path.
///
/// The control law inverts Little's law: with offered rate λ and an
/// exponential-tail projection, the class's p99 stays under `target_p99_us`
/// while its in-flight population stays under
/// `steady_state_in_flight(λ, target_p99_us / ln 100)`. Below that depth
/// every request is admitted. Above it, admissions draw from a token bucket
/// (so transient bursts ride through); an empty bucket defers the request by
/// `defer_ns`, and a request that exhausts `max_defers` is rejected.
///
/// All decisions run on the sequential timing spine over virtual time, so
/// they are deterministic and invariant under the engine's worker count.
#[derive(Debug)]
pub(crate) struct AdmissionCtl {
    /// In-flight depth below which admission is unconditional.
    depth_limit: u64,
    /// The class's currently admitted-but-incomplete requests.
    in_flight: u64,
    /// Token bucket: current fill, capacity, and virtual-time refill rate.
    tokens: f64,
    burst: f64,
    refill_per_s: f64,
    last_refill: SimTime,
    /// Deferral backoff and per-request deferral budget.
    defer_ns: u64,
    max_defers: u32,
}

/// What the admission controller decided for one offered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admission {
    /// Enter the pipeline now.
    Admit,
    /// Re-offer after the class's deferral backoff.
    Defer { until_ns: u64 },
    /// Drop the request; it never enters the pipeline.
    Reject,
}

impl AdmissionCtl {
    fn new(
        spec: &crate::tenant::AdmissionSpec,
        offered_rate_per_s: f64,
        target_p99_us: f64,
    ) -> Self {
        assert!(
            offered_rate_per_s > 0.0,
            "admission control needs a positive offered rate"
        );
        assert!(target_p99_us > 0.0, "admission control needs a p99 budget");
        let depth_limit =
            bam_timing::steady_state_in_flight(offered_rate_per_s, target_p99_us / LN_100).floor()
                as u64;
        Self {
            depth_limit: depth_limit.max(1),
            in_flight: 0,
            tokens: f64::from(spec.burst),
            burst: f64::from(spec.burst),
            refill_per_s: spec.refill_per_s,
            last_refill: SimTime::ZERO,
            defer_ns: spec.defer_ns,
            max_defers: spec.max_defers,
        }
    }

    /// The depth threshold the control law derived from the class's SLO.
    pub(crate) fn depth_limit(&self) -> u64 {
        self.depth_limit
    }

    fn decide(&mut self, now: SimTime, defers_so_far: u32) -> Admission {
        let elapsed_ns = now - self.last_refill;
        self.tokens = (self.tokens + elapsed_ns as f64 * self.refill_per_s / 1e9).min(self.burst);
        self.last_refill = now;
        if self.in_flight < self.depth_limit {
            self.in_flight += 1;
            return Admission::Admit;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            self.in_flight += 1;
            return Admission::Admit;
        }
        if defers_so_far < self.max_defers {
            Admission::Defer {
                until_ns: now.as_ns() + self.defer_ns,
            }
        } else {
            Admission::Reject
        }
    }
}

/// Per-run admission state: one optional controller per engine tenant plus
/// each request's deferral count. [`AdmissionState::none`] (every
/// non-class entry point) is a zero-cost pass-through — the spine's event
/// schedule is byte-identical to the pre-admission engine's.
pub(crate) struct AdmissionState {
    ctls: Vec<Option<AdmissionCtl>>,
    /// Deferrals each request has absorbed so far (empty when no controller
    /// is armed).
    defers: Vec<u32>,
}

impl AdmissionState {
    /// No admission control anywhere: every offer admits immediately.
    pub(crate) fn none() -> Self {
        Self {
            ctls: Vec::new(),
            defers: Vec::new(),
        }
    }

    pub(crate) fn new(ctls: Vec<Option<AdmissionCtl>>, num_requests: usize) -> Self {
        let armed = ctls.iter().any(Option::is_some);
        Self {
            ctls,
            defers: if armed {
                vec![0; num_requests]
            } else {
                Vec::new()
            },
        }
    }

    /// Deferrals request `req` has absorbed so far.
    fn defer_count(&self, req: u32) -> u32 {
        self.defers.get(req as usize).copied().unwrap_or(0)
    }

    /// Runs tenant `tenant`'s controller (if armed) on an offer of `req`.
    fn offer(&mut self, tenant: usize, req: u32, now: SimTime) -> Admission {
        let Some(ctl) = self.ctls.get_mut(tenant).and_then(Option::as_mut) else {
            return Admission::Admit;
        };
        let decision = ctl.decide(now, self.defers[req as usize]);
        if let Admission::Defer { .. } = decision {
            self.defers[req as usize] += 1;
        }
        decision
    }

    /// Releases one in-flight slot of `tenant`'s controller on completion.
    fn complete(&mut self, tenant: usize) {
        if let Some(ctl) = self.ctls.get_mut(tenant).and_then(Option::as_mut) {
            ctl.in_flight -= 1;
        }
    }
}

/// Worst-case simultaneously pending events, reserved up front so the heap
/// never reallocates mid-run: at most one in-service event per request (a
/// deferred re-offer or a closed-loop refill is its request's one event),
/// and up to two pending events per queue pair (`QpForwarded` +
/// `QpRecovered` are scheduled together). Pre-scheduled arrivals never
/// enter the heap: the spine feeds them from a cursor.
fn heap_reservation(num_requests: usize, total_qps: u32) -> usize {
    num_requests + 2 * total_qps as usize + 16
}

/// What the timing spine hands back to the engine.
pub(crate) struct SpineOutcome {
    pub(crate) end: SimTime,
    pub(crate) depth: DepthTimeline,
    /// Events processed (identical at every worker count).
    pub(crate) events: u64,
    /// Most events ever simultaneously pending in the heap.
    pub(crate) peak_queued: usize,
}

/// The timing spine: drives `requests` (routed by `qp_of`, attributed by
/// `tenant_of`) from the pre-scheduled `arrivals` through the five-stage
/// pipeline, refilling closed-loop tenants on completion, and emits every
/// accounting fact as a [`Rec`] through `sink` in global `(time, seq)`
/// order.
///
/// The pre-scheduled arrivals are fed from the already time-sorted slice
/// rather than heap-loaded, so the heap is sized by in-flight work, not by
/// run length. A pending arrival fires before any heap event at the same
/// instant: every pre-scheduled arrival precedes every runtime event in
/// insertion order, so this is the order one heap holding both would give.
#[allow(clippy::too_many_arguments)]
pub(crate) fn drive_events(
    config: &SimConfig,
    requests: &[RequestDesc],
    tenant_of: &[u32],
    qp_of: &[u32],
    arrivals: &[(SimTime, u32)],
    issue: &mut [IssueState],
    admission: &mut AdmissionState,
    sink: &mut impl FnMut(Rec),
) -> SpineOutcome {
    let n = requests.len() as u64;
    let total_qps = config.total_queue_pairs();
    let p = &config.pipeline;
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut queue_pairs: Vec<Center> = (0..total_qps).map(|_| Center::new(1)).collect();
    let mut media: Vec<Center> = (0..config.num_ssds)
        .map(|_| Center::new(p.media_channels))
        .collect();
    let mut ssd_links: Vec<Center> = (0..config.num_ssds).map(|_| Center::new(1)).collect();
    let mut gpu_link = Center::new(1);

    let device_of = |req: u32| qp_of[req as usize] / config.queue_pairs_per_ssd;
    let ssd_link_ns =
        |desc: &RequestDesc| (desc.bytes as f64 * p.ssd_link_ns_per_byte).round() as u64;
    let gpu_link_ns =
        |desc: &RequestDesc| (desc.bytes as f64 * p.gpu_link_ns_per_byte).round() as u64;

    // Media service times are drawn when the channel is seized; the stash
    // lets the departure event report the drawn sample as the stage's
    // service share (every other stage's service is a pipeline constant).
    let mut media_service: Vec<u64> = vec![0; requests.len()];

    let mut completed: u64 = 0;
    let mut rejected: u64 = 0;
    let mut depth_timeline = DepthTimeline::default();
    let mut depth: u32 = 0;
    let mut now = SimTime::ZERO;
    let mut processed: u64 = 0;
    let mut rec_idx: u64 = 0;
    let mut next_arrival = 0usize;

    let mut events = EventQueue::with_capacity(heap_reservation(requests.len(), total_qps));

    // Closes one stage of `req` at the current instant (dwell measured from
    // the request's previous boundary — the shard owns that state). The
    // third operand is the stage's pure service time: the spine scheduled
    // the departure, so it knows it exactly, and the shard splits the dwell
    // into service vs wait without re-deriving any timing decision.
    macro_rules! mark {
        ($req:expr, $stage:expr, $service:expr) => {{
            let idx = rec_idx;
            rec_idx += 1;
            sink(Rec::Stage {
                req: $req,
                stage: $stage,
                at: now,
                idx,
                service_ns: $service,
            });
        }};
    }
    macro_rules! meter {
        ($qp:expr) => {
            sink(Rec::Meter {
                qp: $qp as u32,
                at: now,
                occupancy: queue_pairs[$qp].occupancy(),
            })
        };
    }

    loop {
        let take_arrival = next_arrival < arrivals.len()
            && events
                .peek_time()
                .is_none_or(|t| arrivals[next_arrival].0 <= t);
        let (at, event) = if take_arrival {
            let (at, req) = arrivals[next_arrival];
            next_arrival += 1;
            (at, Event::Arrive { req })
        } else if let Some(popped) = events.pop() {
            popped
        } else {
            break;
        };
        debug_assert!(at >= now, "time went backwards");
        now = at;
        processed += 1;
        match event {
            Event::Arrive { req } => {
                // Latency is measured from the *first* offer: a deferred
                // request's re-offers don't re-arm its arrival record, so
                // its admission wait counts against its latency.
                let deferred_before = admission.defer_count(req);
                if deferred_before == 0 {
                    sink(Rec::Arrive { req, at: now });
                }
                match admission.offer(tenant_of[req as usize] as usize, req, now) {
                    Admission::Admit => {
                        if deferred_before > 0 {
                            // The whole dwell since first offer is admission
                            // wait (zero service), so stage dwells still tile
                            // the request's latency exactly.
                            mark!(req, Stage::Admission, 0);
                        }
                        depth += 1;
                        depth_timeline.record(now, depth);
                        // A write's journal record must be durable before the
                        // request may ring its doorbell; when journalling is
                        // off (`journal_flush_ns == 0`) no extra event exists
                        // and the schedule is identical to the unjournalled
                        // engine.
                        if requests[req as usize].write && p.journal_flush_ns > 0 {
                            events
                                .schedule(now + p.journal_flush_ns, Event::JournalFlushed { req });
                        } else {
                            let qp = qp_of[req as usize] as usize;
                            if queue_pairs[qp].admit(req) {
                                events.schedule(now + p.qp_forward_ns, Event::QpForwarded { req });
                                events.schedule(
                                    now + p.qp_recovery_ns,
                                    Event::QpRecovered { qp: qp as u32 },
                                );
                            }
                            meter!(qp);
                        }
                    }
                    Admission::Defer { until_ns } => {
                        sink(Rec::Defer { req, at: now });
                        events.schedule(SimTime::from_ns(until_ns), Event::Arrive { req });
                    }
                    Admission::Reject => {
                        sink(Rec::Reject { req, at: now });
                        rejected += 1;
                    }
                }
            }
            Event::JournalFlushed { req } => {
                mark!(req, Stage::JournalFlush, p.journal_flush_ns);
                let qp = qp_of[req as usize] as usize;
                if queue_pairs[qp].admit(req) {
                    events.schedule(now + p.qp_forward_ns, Event::QpForwarded { req });
                    events.schedule(now + p.qp_recovery_ns, Event::QpRecovered { qp: qp as u32 });
                }
                meter!(qp);
            }
            Event::QpRecovered { qp } => {
                let qp = qp as usize;
                if let Some(next) = queue_pairs[qp].release() {
                    events.schedule(now + p.qp_forward_ns, Event::QpForwarded { req: next });
                    events.schedule(now + p.qp_recovery_ns, Event::QpRecovered { qp: qp as u32 });
                }
                meter!(qp);
            }
            Event::QpForwarded { req } => {
                mark!(req, Stage::QueuePair, p.qp_forward_ns);
                events.schedule(now + p.ctrl_fetch_ns, Event::FetchDone { req });
            }
            Event::FetchDone { req } => {
                mark!(req, Stage::CtrlFetch, p.ctrl_fetch_ns);
                let dev = device_of(req) as usize;
                if media[dev].admit(req) {
                    let desc = &requests[req as usize];
                    let dist = if desc.write {
                        &p.write_media
                    } else {
                        &p.read_media
                    };
                    let service = dist.sample(&mut rng);
                    media_service[req as usize] = service;
                    events.schedule(now + service, Event::MediaDone { req });
                }
            }
            Event::MediaDone { req } => {
                mark!(req, Stage::Media, media_service[req as usize]);
                let dev = device_of(req) as usize;
                if let Some(next) = media[dev].release() {
                    let desc = &requests[next as usize];
                    let dist = if desc.write {
                        &p.write_media
                    } else {
                        &p.read_media
                    };
                    let service = dist.sample(&mut rng);
                    media_service[next as usize] = service;
                    events.schedule(now + service, Event::MediaDone { req: next });
                }
                if ssd_links[dev].admit(req) {
                    events.schedule(
                        now + ssd_link_ns(&requests[req as usize]),
                        Event::SsdLinkDone { req },
                    );
                }
            }
            Event::SsdLinkDone { req } => {
                mark!(req, Stage::SsdLink, ssd_link_ns(&requests[req as usize]));
                let dev = device_of(req) as usize;
                if let Some(next) = ssd_links[dev].release() {
                    events.schedule(
                        now + ssd_link_ns(&requests[next as usize]),
                        Event::SsdLinkDone { req: next },
                    );
                }
                if gpu_link.admit(req) {
                    events.schedule(
                        now + gpu_link_ns(&requests[req as usize]),
                        Event::GpuLinkDone { req },
                    );
                }
            }
            Event::GpuLinkDone { req } => {
                mark!(req, Stage::GpuLink, gpu_link_ns(&requests[req as usize]));
                if let Some(next) = gpu_link.release() {
                    events.schedule(
                        now + gpu_link_ns(&requests[next as usize]),
                        Event::GpuLinkDone { req: next },
                    );
                }
                events.schedule(now + p.completion_ns, Event::Complete { req });
            }
            Event::Complete { req } => {
                let idx = rec_idx;
                rec_idx += 1;
                sink(Rec::Complete {
                    req,
                    at: now,
                    idx,
                    service_ns: p.completion_ns,
                });
                completed += 1;
                depth -= 1;
                depth_timeline.record(now, depth);
                admission.complete(tenant_of[req as usize] as usize);
                // Closed-loop tenants launch their next request immediately.
                let t = &mut issue[tenant_of[req as usize] as usize];
                if t.refill.is_some() && t.issued < t.count {
                    let next = (t.base + t.issued) as u32;
                    t.issued += 1;
                    events.schedule(now, Event::Arrive { req: next });
                }
            }
        }
        // Once every request has either completed or been rejected, anything
        // still queued is bookkeeping for finished requests (events pop in
        // time order, so the last settlement is necessarily final).
        if completed + rejected == n {
            break;
        }
    }

    // Regression guard for the heap reservation: `with_capacity` must cover
    // the run's true peak, or mid-run reallocation silently returns.
    assert!(
        events.peak_len() <= events.reserved(),
        "event heap outgrew its reservation: peak {} > reserved {}",
        events.peak_len(),
        events.reserved()
    );

    SpineOutcome {
        end: now,
        depth: depth_timeline,
        events: processed,
        peak_queued: events.peak_len(),
    }
}

/// Where the spine's accounting records are applied.
#[derive(Debug, Clone, Copy)]
enum Arm {
    /// The shard coordinator with `workers` accounting workers: the only
    /// arm a public entry point can select.
    Sharded(usize),
    /// One un-sharded [`Accounting`] applied on the spine thread: the
    /// test-only reference the coordinator is checked against.
    #[cfg(test)]
    Reference,
}

/// How one run executes and what it records besides its report.
#[derive(Clone, Copy)]
struct Exec<'a> {
    arm: Arm,
    recorder: Option<&'a SpanRecorder>,
    telemetry: TelemetrySpec,
}

impl<'a> Exec<'a> {
    /// An untraced, unobserved run on `workers` accounting workers.
    fn workers(workers: usize) -> Self {
        Self {
            arm: Arm::Sharded(workers),
            recorder: None,
            telemetry: TelemetrySpec::disabled(),
        }
    }

    /// The same run, traced into `recorder`.
    fn traced(self, recorder: &'a SpanRecorder) -> Self {
        let recorder = Some(recorder);
        Self { recorder, ..self }
    }

    /// The same run, observed per `telemetry`.
    fn observed(self, telemetry: TelemetrySpec) -> Self {
        Self { telemetry, ..self }
    }
}

/// What the engine hands back to the report builders.
pub(crate) struct EngineOutput {
    pub(crate) end: SimTime,
    pub(crate) depth: DepthTimeline,
    pub(crate) events: u64,
    /// Most events ever simultaneously pending in the spine's heap. Not part
    /// of any report; read only by the reservation regression test.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) peak_queued: usize,
    pub(crate) occupancy_mean: f64,
    pub(crate) occupancy_max: u64,
    /// Completed-read latencies, concatenated in shard order (consumers are
    /// order-independent).
    pub(crate) read_latencies: Vec<u64>,
    /// Completed-write latencies. Includes the journal-flush stage when
    /// enabled — latency is measured from arrival.
    pub(crate) write_latencies: Vec<u64>,
    /// Per-tenant accounting, in tenant declaration order.
    pub(crate) tenants: Vec<TenantAcc>,
    /// Run-level windowed telemetry (empty when the plan disabled it).
    pub(crate) series: WindowedSeries,
    /// Per-request blame rows (empty when the plan disabled blame;
    /// shard-concatenated — the report builder sorts).
    pub(crate) blame_rows: Vec<BlameRow>,
}

impl EngineOutput {
    /// Moves the run-level telemetry out, folding in the depth timeline.
    fn take_telemetry(&mut self, blame_top_k: usize) -> RunTelemetry {
        let series = std::mem::replace(&mut self.series, WindowedSeries::new(0));
        let rows = std::mem::take(&mut self.blame_rows);
        build_run_telemetry(series, rows, &self.depth, blame_top_k)
    }
}

/// Runs the spine with its accounting applied by `exec.arm`.
#[allow(clippy::too_many_arguments)]
fn execute(
    config: &SimConfig,
    requests: &[RequestDesc],
    tenant_of: &[u32],
    qp_of: &[u32],
    arrivals: &[(SimTime, u32)],
    issue: &mut [IssueState],
    admission: &mut AdmissionState,
    exec: Exec<'_>,
    plan: &ObsPlan<'_>,
) -> EngineOutput {
    let recorder = exec.recorder;
    match exec.arm {
        Arm::Sharded(workers) => coordinator::run_sharded_core(
            config, requests, tenant_of, qp_of, arrivals, issue, admission, recorder, workers, plan,
        ),
        #[cfg(test)]
        Arm::Reference => reference_core(
            config, requests, tenant_of, qp_of, arrivals, issue, admission, recorder, plan,
        ),
    }
}

/// The reference arm: the spine's records applied in emission order to one
/// un-sharded [`Accounting`] on the spine thread, its spans replayed into
/// the recorder as emitted. No threads, channels or merges, so it is the
/// independent execution the coordinator's output is compared against.
#[cfg(test)]
#[allow(clippy::too_many_arguments)]
fn reference_core(
    config: &SimConfig,
    requests: &[RequestDesc],
    tenant_of: &[u32],
    qp_of: &[u32],
    arrivals: &[(SimTime, u32)],
    issue: &mut [IssueState],
    admission: &mut AdmissionState,
    recorder: Option<&SpanRecorder>,
    plan: &ObsPlan<'_>,
) -> EngineOutput {
    let mut acct = Accounting::new(
        requests,
        tenant_of,
        qp_of,
        None,
        requests.len(),
        config.total_queue_pairs(),
        plan,
        recorder.is_some(),
    );
    let spine = drive_events(
        config,
        requests,
        tenant_of,
        qp_of,
        arrivals,
        issue,
        admission,
        &mut |rec| acct.apply(rec),
    );
    if let Some(rec) = recorder {
        for (_, event) in acct.take_spans() {
            rec.record(event);
        }
    }
    let (occupancy_mean, occupancy_max) = occupancy_stats(&acct.meters, spine.end);
    let blame_rows = acct.take_blame_rows();
    EngineOutput {
        end: spine.end,
        depth: spine.depth,
        events: spine.events,
        peak_queued: spine.peak_queued,
        occupancy_mean,
        occupancy_max,
        read_latencies: acct.read_latencies,
        write_latencies: acct.write_latencies,
        tenants: acct.tenants,
        series: acct.series,
        blame_rows,
    }
}

/// Runs `requests` through the pipeline under the given arrival process and
/// returns the run's report. The timing spine streams accounting to
/// `min(workers, num_ssds)` per-SSD shards applied by a worker pool; the
/// report is bit-identical at any worker count.
///
/// # Panics
///
/// Panics if `requests` is empty, the configuration has no queue pairs, an
/// open-loop rate is not positive, or `workers` is zero.
pub fn run_sharded(
    config: &SimConfig,
    workload: Workload,
    requests: &[RequestDesc],
    workers: usize,
) -> SimReport {
    run_with(config, workload, requests, Exec::workers(workers)).0
}

/// [`run_sharded`] with span tracing: every request's stage intervals are
/// recorded into `recorder` as [`bam_obs::SpanEvent`]s with
/// virtual-nanosecond timestamps. Shards buffer their span events and the
/// coordinator replays them in global emission order, so the recorder's
/// contents (ring wrap and drop count included) are bit-identical at any
/// worker count. Tracing changes no simulation state — the report is
/// identical to the untraced run's.
pub fn run_sharded_traced(
    config: &SimConfig,
    workload: Workload,
    requests: &[RequestDesc],
    workers: usize,
    recorder: &SpanRecorder,
) -> SimReport {
    let exec = Exec::workers(workers).traced(recorder);
    run_with(config, workload, requests, exec).0
}

/// [`run_sharded`] with run-level telemetry: alongside the (bit-identical)
/// report, returns the windowed series and blame decomposition described by
/// `telemetry`. The telemetry is bit-identical at any worker count.
pub fn run_observed(
    config: &SimConfig,
    workload: Workload,
    requests: &[RequestDesc],
    workers: usize,
    telemetry: TelemetrySpec,
) -> (SimReport, RunTelemetry) {
    let exec = Exec::workers(workers).observed(telemetry);
    run_with(config, workload, requests, exec)
}

/// Legacy routing: explicit overrides win, everything else round-robins
/// devices first and local queues second on the global request index.
///
/// Single-workload runs keep this adapter rather than lowering to a class:
/// an arbitrary [`RequestDesc`] list may pin devices and queues, which no
/// class routing expresses.
fn legacy_qp_of(config: &SimConfig, requests: &[RequestDesc]) -> Vec<u32> {
    let mut qp_of: Vec<u32> = Vec::with_capacity(requests.len());
    for (i, desc) in requests.iter().enumerate() {
        let device = desc
            .device
            .map_or_else(|| (i as u32) % config.num_ssds, |d| d % config.num_ssds);
        let local = desc.queue.map_or_else(
            || ((i as u32) / config.num_ssds) % config.queue_pairs_per_ssd,
            |q| q % config.queue_pairs_per_ssd,
        );
        qp_of.push(device * config.queue_pairs_per_ssd + local);
    }
    qp_of
}

/// The pre-scheduled arrival stream of a single-tenant workload over `n`
/// requests (time-ascending by construction).
fn workload_arrivals(workload: Workload, n: u64) -> Vec<(SimTime, u32)> {
    match workload {
        Workload::OpenLoop { rate_per_s } => {
            assert!(rate_per_s > 0.0, "open-loop rate must be positive");
            (0..n)
                .map(|i| {
                    (
                        SimTime::from_ns((i as f64 * 1e9 / rate_per_s).round() as u64),
                        i as u32,
                    )
                })
                .collect()
        }
        Workload::ClosedLoop { in_flight } => {
            assert!(in_flight > 0, "closed loop needs at least one request");
            (0..u64::from(in_flight).min(n))
                .map(|i| (SimTime::ZERO, i as u32))
                .collect()
        }
    }
}

/// Runs a single workload as one engine tenant on the legacy routing.
fn execute_single(
    config: &SimConfig,
    workload: Workload,
    requests: &[RequestDesc],
    exec: Exec<'_>,
) -> EngineOutput {
    assert!(!requests.is_empty(), "nothing to simulate");
    assert!(
        config.total_queue_pairs() > 0,
        "need at least one queue pair"
    );
    let n = requests.len() as u64;
    let qp_of = legacy_qp_of(config, requests);
    let arrivals = workload_arrivals(workload, n);
    let refill = match workload {
        Workload::ClosedLoop { in_flight } => Some(in_flight),
        Workload::OpenLoop { .. } => None,
    };
    let mut issue = [IssueState::new(0, n, arrivals.len() as u64, refill)];
    let tenant_of = vec![0u32; requests.len()];
    let plan = ObsPlan {
        telemetry: exec.telemetry,
        tenant_slo_windows: &[0],
        member_of: None,
    };
    execute(
        config,
        requests,
        &tenant_of,
        &qp_of,
        &arrivals,
        &mut issue,
        &mut AdmissionState::none(),
        exec,
        &plan,
    )
}

fn run_with(
    config: &SimConfig,
    workload: Workload,
    requests: &[RequestDesc],
    exec: Exec<'_>,
) -> (SimReport, RunTelemetry) {
    let mut outcome = execute_single(config, workload, requests, exec);
    let run_telemetry = outcome.take_telemetry(exec.telemetry.blame_top_k);
    let acc = outcome.tenants.remove(0);
    let report = SimReport::build(
        acc.latencies,
        outcome.read_latencies,
        outcome.write_latencies,
        outcome.depth,
        outcome.end,
        outcome.events,
        outcome.occupancy_mean,
        outcome.occupancy_max,
        acc.stages,
    );
    (report, run_telemetry)
}

/// Runs the superposed workloads of `tenants` through the pipeline, with
/// queue pairs allocated by `policy`, on `workers` accounting workers, and
/// returns per-tenant accounting plus the merged view. The report is
/// bit-identical at any worker count.
///
/// Each tenant's `requests` block uses the pipeline's access size with its
/// writes Bresenham-interleaved, routed round-robin across the tenant's
/// queue-pair allocation. Arrival streams are generated from per-tenant RNGs
/// (`TenantSpec::rng`), so a tenant's stream is invariant under changes to
/// its neighbours. Each tenant runs as a one-member [`TenantClass`] with its
/// id, which draws the same stream and reports the same summary row.
///
/// # Panics
///
/// Panics if `tenants` is empty, ids repeat, `workers` is zero, or
/// ([`QueuePairPolicy::WeightedFair`] only) there are fewer queue pairs than
/// tenants. A tenant with zero requests is legal: it contributes nothing to
/// the run and gets an all-zero summary.
pub fn run_tenants_sharded(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
    workers: usize,
) -> MultiTenantReport {
    run_tenants_core(config, tenants, policy, Exec::workers(workers)).0
}

/// [`run_tenants_sharded`] with span tracing into `recorder` (see
/// [`run_sharded_traced`]).
pub fn run_tenants_sharded_traced(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
    workers: usize,
    recorder: &SpanRecorder,
) -> MultiTenantReport {
    let exec = Exec::workers(workers).traced(recorder);
    run_tenants_core(config, tenants, policy, exec).0
}

/// [`run_tenants_sharded`] with run-level telemetry (see [`run_observed`]):
/// returns the multi-tenant report — including per-tenant SLO evaluations
/// for tenants carrying a [`bam_obs::SloSpec`] — plus the run's windowed
/// series and blame decomposition. Bit-identical at any worker count.
pub fn run_tenants_observed(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
    workers: usize,
    telemetry: TelemetrySpec,
) -> (MultiTenantReport, RunTelemetry) {
    let exec = Exec::workers(workers).observed(telemetry);
    run_tenants_core(config, tenants, policy, exec)
}

/// Runs explicit tenants on the class path, each lowered to a one-member
/// class.
fn run_tenants_core(
    config: &SimConfig,
    tenants: &[TenantSpec],
    policy: QueuePairPolicy,
    exec: Exec<'_>,
) -> (MultiTenantReport, RunTelemetry) {
    assert!(!tenants.is_empty(), "no tenants to simulate");
    for (i, t) in tenants.iter().enumerate() {
        assert!(
            tenants[..i].iter().all(|u| u.id != t.id),
            "duplicate tenant id {}",
            t.id
        );
    }
    let classes: Vec<TenantClass> = tenants.iter().map(TenantClass::solo).collect();
    run_classes_core(config, &classes, policy, exec, Granularity::Class)
}

/// Accounting granularity of a class run (see [`run_classes`]).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Granularity {
    /// One engine tenant per class — the production mode, O(classes)
    /// accounting regardless of member count.
    Class,
    /// [`Granularity::Class`] plus the thinned per-member histograms.
    Attributed,
    /// One engine tenant per logical member: the *oracle* mode the
    /// equivalence suite compares against. The merged stream, routing and
    /// request table are identical to `Class` mode — only accounting
    /// granularity changes — so the overall report must match bit for bit.
    Member,
}

/// Runs the closed-form-merged streams of `classes` through the pipeline on
/// `workers` accounting workers: one engine-level stream per class, so a
/// million logical tenants cost O(classes) in the event loop. Classes with
/// an [`crate::AdmissionSpec`] get per-class SLO admission control in the
/// arrival path (reported via [`TenantSummary::admission`]). Bit-identical
/// at any worker count.
///
/// # Panics
///
/// Panics if `classes` is empty, ids repeat, a class has zero members, a
/// class arms admission without an SLO or with a closed-loop process (a
/// closed loop has no open-loop offered rate to project from), or `workers`
/// is zero.
pub fn run_classes(
    config: &SimConfig,
    classes: &[TenantClass],
    policy: QueuePairPolicy,
    workers: usize,
) -> MultiTenantReport {
    let exec = Exec::workers(workers);
    run_classes_core(config, classes, policy, exec, Granularity::Class).0
}

/// [`run_classes`] with run-level telemetry (see [`run_observed`]).
/// Bit-identical at any worker count.
pub fn run_classes_observed(
    config: &SimConfig,
    classes: &[TenantClass],
    policy: QueuePairPolicy,
    workers: usize,
    telemetry: TelemetrySpec,
) -> (MultiTenantReport, RunTelemetry) {
    let exec = Exec::workers(workers).observed(telemetry);
    run_classes_core(config, classes, policy, exec, Granularity::Class)
}

/// [`run_classes`] with thinned per-member attribution: each class's
/// [`TenantSummary::members`] carries one [`crate::report::MemberSummary`]
/// per synthetic member that completed a request. The report is otherwise
/// bit-identical to [`run_classes`]'s — attribution reads the thinning
/// stream, never the arrival stream.
pub fn run_classes_attributed(
    config: &SimConfig,
    classes: &[TenantClass],
    policy: QueuePairPolicy,
    workers: usize,
) -> MultiTenantReport {
    let exec = Exec::workers(workers);
    run_classes_core(config, classes, policy, exec, Granularity::Attributed).0
}

/// The equivalence oracle: runs the *same* merged streams as
/// [`run_classes`], but accounts each logical member as its own engine
/// tenant (one [`TenantSummary`] per member, in `(class, member)` order).
/// The overall report is bit-identical to [`run_classes`]'s, and each
/// member's latencies equal its [`run_classes_attributed`] histogram — the
/// property `tests/class_equivalence.rs` asserts.
///
/// O(total members) accounting: meant for small oracle runs, not the
/// million-tenant path.
///
/// # Panics
///
/// Panics on [`run_classes`]'s conditions, or if any class is closed-loop or
/// arms admission (the oracle covers open, uncontrolled streams).
pub fn run_class_members(
    config: &SimConfig,
    classes: &[TenantClass],
    policy: QueuePairPolicy,
    workers: usize,
) -> MultiTenantReport {
    let exec = Exec::workers(workers);
    run_classes_core(config, classes, policy, exec, Granularity::Member).0
}

fn run_classes_core(
    config: &SimConfig,
    classes: &[TenantClass],
    policy: QueuePairPolicy,
    exec: Exec<'_>,
    granularity: Granularity,
) -> (MultiTenantReport, RunTelemetry) {
    assert!(!classes.is_empty(), "no classes to simulate");
    assert!(
        config.total_queue_pairs() > 0,
        "need at least one queue pair"
    );
    for (i, c) in classes.iter().enumerate() {
        assert!(
            classes[..i].iter().all(|u| u.id != c.id),
            "duplicate class id {}",
            c.id
        );
        assert!(c.members > 0, "class {} has no members", c.id);
        if c.admission.is_some() {
            assert!(
                c.slo.is_some(),
                "class {} arms admission without an SLO budget",
                c.id
            );
            assert!(
                c.offered_rate_per_s().is_some(),
                "class {} arms admission on a closed loop",
                c.id
            );
        }
        if granularity == Granularity::Member {
            assert!(
                c.admission.is_none()
                    && !matches!(c.member_arrival, ArrivalProcess::ClosedLoop { .. }),
                "the member oracle covers open, uncontrolled classes (class {})",
                c.id
            );
        }
    }

    let total_qps = config.total_queue_pairs();
    let weights: Vec<u32> = classes.iter().map(|c| c.weight).collect();
    let shares: Vec<u32> = match policy {
        QueuePairPolicy::Shared => vec![total_qps; classes.len()],
        QueuePairPolicy::WeightedFair => fair_shares(total_qps, &weights),
    };
    let mut share_base: Vec<u32> = Vec::with_capacity(classes.len());
    let mut acc = 0u32;
    for &s in &shares {
        share_base.push(acc);
        acc += s;
    }

    // Flat request table, routed exactly as a merged explicit tenant would
    // be: the class's own arrival counter drives the round-robin, so the
    // schedule is independent of accounting granularity.
    let mut bases: Vec<u64> = Vec::with_capacity(classes.len());
    let mut requests: Vec<RequestDesc> = Vec::new();
    let mut class_of: Vec<u32> = Vec::new();
    let mut qp_of: Vec<u32> = Vec::new();
    for (ci, c) in classes.iter().enumerate() {
        bases.push(requests.len() as u64);
        requests.extend(mixed_requests(config, c.requests, c.writes));
        for k in 0..c.requests {
            class_of.push(ci as u32);
            let k = k as u32;
            let qp = match policy {
                // Devices first, local queues second — the legacy spread,
                // but on the class's own arrival counter.
                QueuePairPolicy::Shared => {
                    let device = k % config.num_ssds;
                    let local = (k / config.num_ssds) % config.queue_pairs_per_ssd;
                    device * config.queue_pairs_per_ssd + local
                }
                // Round-robin within the class's partition of the global
                // queue-pair space.
                QueuePairPolicy::WeightedFair => share_base[ci] + (k % shares[ci]),
            };
            qp_of.push(qp);
        }
    }

    let specs: Vec<TenantSpec> = classes.iter().map(TenantClass::merged_spec).collect();
    let superposition = Superposition::generate(config.seed, &specs, &bases);
    // Thinning costs a draw and a slot per request, so only runs that
    // account members pay for it.
    let member_of = match granularity {
        Granularity::Class => Vec::new(),
        _ => Superposition::thin(config.seed, classes, &bases),
    };

    let mut issue: Vec<IssueState>;
    let tenant_of: Vec<u32>;
    let slo_windows: Vec<u64>;
    let mut admission: AdmissionState;
    match granularity {
        Granularity::Class | Granularity::Attributed => {
            tenant_of = class_of;
            issue = classes
                .iter()
                .zip(&bases)
                .map(|(c, &base)| {
                    let merged = c.merged_arrival();
                    let refill = match merged {
                        ArrivalProcess::ClosedLoop { in_flight } => Some(in_flight),
                        _ => None,
                    };
                    IssueState::new(base, c.requests, merged.prescheduled(c.requests), refill)
                })
                .collect();
            slo_windows = classes
                .iter()
                .map(|c| c.slo.map_or(0, |s| s.window_ns))
                .collect();
            let ctls: Vec<Option<AdmissionCtl>> = classes
                .iter()
                .map(|c| {
                    c.admission.as_ref().map(|spec| {
                        AdmissionCtl::new(
                            spec,
                            c.offered_rate_per_s().expect("asserted open"),
                            c.slo.expect("asserted SLO").target_p99_us,
                        )
                    })
                })
                .collect();
            admission = AdmissionState::new(ctls, requests.len());
        }
        Granularity::Member => {
            // One accounting slot per logical member, in (class, member)
            // order. Issue state is vestigial (open streams never refill).
            let mut member_base: Vec<u32> = Vec::with_capacity(classes.len());
            let mut acc = 0u32;
            for c in classes {
                member_base.push(acc);
                acc += c.members;
            }
            tenant_of = class_of
                .iter()
                .zip(&member_of)
                .map(|(&ci, &m)| member_base[ci as usize] + m)
                .collect();
            issue = (0..acc).map(|_| IssueState::new(0, 0, 0, None)).collect();
            slo_windows = vec![0; acc as usize];
            admission = AdmissionState::none();
        }
    }

    let plan = ObsPlan {
        telemetry: exec.telemetry,
        tenant_slo_windows: &slo_windows,
        member_of: (granularity == Granularity::Attributed).then_some(member_of.as_slice()),
    };
    let mut outcome = execute(
        config,
        &requests,
        &tenant_of,
        &qp_of,
        &superposition.arrivals,
        &mut issue,
        &mut admission,
        exec,
        &plan,
    );
    let run_telemetry = outcome.take_telemetry(exec.telemetry.blame_top_k);

    // One report row per engine tenant: each class, or under the member
    // oracle each `(class, member)` pair in that order.
    let rows: Vec<(usize, Option<u32>)> = match granularity {
        Granularity::Class | Granularity::Attributed => {
            (0..classes.len()).map(|ci| (ci, None)).collect()
        }
        Granularity::Member => classes
            .iter()
            .enumerate()
            .flat_map(|(ci, c)| (0..c.members).map(move |m| (ci, Some(m))))
            .collect(),
    };
    let mut all_latencies: Vec<u64> = Vec::with_capacity(requests.len());
    let mut overall_stages = StageBreakdown::new();
    let mut summaries: Vec<TenantSummary> = Vec::with_capacity(rows.len());
    for ((ci, member), acc) in rows.into_iter().zip(outcome.tenants) {
        all_latencies.extend_from_slice(&acc.latencies);
        overall_stages.merge(&acc.stages);
        let ctl = admission.ctls.get(ci).and_then(Option::as_ref);
        summaries.push(tenant_summary(&classes[ci], member, shares[ci], ctl, acc));
    }
    let report = MultiTenantReport {
        overall: SimReport::build(
            all_latencies,
            outcome.read_latencies,
            outcome.write_latencies,
            outcome.depth,
            outcome.end,
            outcome.events,
            outcome.occupancy_mean,
            outcome.occupancy_max,
            overall_stages,
        ),
        tenants: summaries,
    };
    (report, run_telemetry)
}

/// The report row of one engine tenant: class `c`'s aggregate, or with
/// `member` one logical member of it (the oracle's rows carry no SLO).
/// `ctl` is the class's admission controller, when armed.
fn tenant_summary(
    c: &TenantClass,
    member: Option<u32>,
    queue_pairs: u32,
    ctl: Option<&AdmissionCtl>,
    acc: TenantAcc,
) -> TenantSummary {
    let (id, name, slo) = match member {
        None => (
            c.id,
            c.name.clone(),
            c.slo
                .as_ref()
                .map(|spec| evaluate_slo(&acc.slo_series, spec)),
        ),
        Some(m) => (m, format!("{}#{m}", c.name), None),
    };
    let admission = ctl.map(|ctl| AdmissionReport {
        offered: acc.offered,
        admitted: acc.offered - acc.rejected,
        deferrals: acc.deferrals,
        rejected: acc.rejected,
        depth_limit: ctl.depth_limit(),
    });
    let members: Vec<MemberSummary> = acc
        .members
        .into_iter()
        .map(|(member, histo)| MemberSummary {
            member,
            completed: histo.count(),
            latency: LatencySummary::from_histo(&histo),
            histogram: histo,
        })
        .collect();
    let histo = bam_obs::LatencyHisto::from_samples(acc.latencies);
    let first_arrival = acc.first_arrival.unwrap_or(SimTime::ZERO);
    let span_s = (acc.last_completion - first_arrival) as f64 / 1e9;
    TenantSummary {
        id,
        name,
        weight: c.weight,
        queue_pairs,
        latency: LatencySummary::from_histo(&histo),
        completed: histo.count(),
        throughput_per_s: if span_s > 0.0 {
            histo.count() as f64 / span_s
        } else {
            0.0
        },
        first_arrival_s: first_arrival.as_secs_f64(),
        last_completion_s: acc.last_completion.as_secs_f64(),
        stages: acc.stages,
        slo,
        admission,
        members,
    }
}

/// Convenience: `n` identical round-robin reads of the pipeline's access
/// size.
pub fn uniform_reads(config: &SimConfig, n: u64) -> Vec<RequestDesc> {
    vec![RequestDesc::read(config.pipeline.access_bytes); n as usize]
}

/// Convenience: `n` round-robin requests of which an evenly interleaved
/// `writes` are writes (deterministic Bresenham spread).
pub fn mixed_requests(config: &SimConfig, n: u64, writes: u64) -> Vec<RequestDesc> {
    let writes = writes.min(n);
    (0..n)
        .map(|i| {
            let is_write = (i + 1) * writes / n != i * writes / n;
            if is_write {
                RequestDesc::write(config.pipeline.access_bytes)
            } else {
                RequestDesc::read(config.pipeline.access_bytes)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bam_nvme_sim::SsdSpec;
    use bam_pcie::LinkSpec;

    use crate::tenant::AdmissionSpec;

    fn optane_config(num_ssds: u32, queue_pairs_per_ssd: u32, bytes: u64, seed: u64) -> SimConfig {
        SimConfig {
            seed,
            num_ssds,
            queue_pairs_per_ssd,
            pipeline: PipelineParams::from_specs(
                &SsdSpec::intel_optane_p5800x(),
                &LinkSpec::gen4_x4(),
                &LinkSpec::gen4_x16(),
                bytes,
            ),
        }
    }

    #[test]
    fn single_request_sees_unloaded_latency() {
        let cfg = optane_config(1, 8, 512, 1);
        let cfg = SimConfig {
            pipeline: cfg.pipeline.deterministic(),
            ..cfg
        };
        let reqs = uniform_reads(&cfg, 1);
        let report = run_sharded(&cfg, Workload::ClosedLoop { in_flight: 1 }, &reqs, 1);
        assert_eq!(report.completed, 1);
        let expected = cfg.pipeline.unloaded_read_latency_us();
        assert!(
            (report.latency.mean_us / expected - 1.0).abs() < 0.01,
            "mean {} vs unloaded {expected}",
            report.latency.mean_us
        );
    }

    #[test]
    fn closed_loop_saturates_near_media_peak() {
        // 1 Optane SSD at 512B: media peak 5.1M IOPS. With ample outstanding
        // requests the simulated throughput should come within ~10%.
        let cfg = optane_config(1, 128, 512, 2);
        let reqs = uniform_reads(&cfg, 60_000);
        let report = run_sharded(&cfg, Workload::ClosedLoop { in_flight: 1024 }, &reqs, 1);
        let miops = report.throughput_per_s / 1e6;
        assert!((4.6..5.7).contains(&miops), "throughput {miops} MIOPS");
    }

    #[test]
    fn few_outstanding_requests_cannot_saturate() {
        // The left edge of Fig 4: 16 in flight over ~11us is ~1.45M IOPS.
        let cfg = optane_config(1, 128, 512, 3);
        let reqs = uniform_reads(&cfg, 20_000);
        let low = run_sharded(&cfg, Workload::ClosedLoop { in_flight: 16 }, &reqs, 1);
        let high = run_sharded(&cfg, Workload::ClosedLoop { in_flight: 1024 }, &reqs, 1);
        assert!(
            low.throughput_per_s < high.throughput_per_s * 0.5,
            "low {} high {}",
            low.throughput_per_s,
            high.throughput_per_s
        );
    }

    #[test]
    fn queue_pair_starvation_reproduces_fig11_knee() {
        // 4 SSDs at 4KB: media-bound near 6M IOPS with plentiful queue
        // pairs; 8 total QPs serialize at ~150K each → ~1.2M.
        let plenty = optane_config(4, 32, 4096, 4);
        let starved = optane_config(4, 2, 4096, 4);
        let reqs = uniform_reads(&plenty, 40_000);
        let fast = run_sharded(&plenty, Workload::ClosedLoop { in_flight: 2048 }, &reqs, 1);
        let slow = run_sharded(&starved, Workload::ClosedLoop { in_flight: 2048 }, &reqs, 1);
        assert!(
            slow.throughput_per_s < fast.throughput_per_s * 0.4,
            "starved {} vs plenty {}",
            slow.throughput_per_s,
            fast.throughput_per_s
        );
        // The starved run's queue pairs are visibly backed up.
        assert!(slow.queue_occupancy_mean > fast.queue_occupancy_mean);
    }

    #[test]
    fn deterministic_across_runs_same_seed() {
        let cfg = optane_config(2, 16, 4096, 42);
        let reqs = mixed_requests(&cfg, 10_000, 1_000);
        let closed = Workload::ClosedLoop { in_flight: 256 };
        let a = run_sharded(&cfg, closed, &reqs, 1);
        let b = run_sharded(&cfg, closed, &reqs, 1);
        assert_eq!(a, b);
        let c = run_sharded(
            &SimConfig {
                seed: 43,
                ..cfg.clone()
            },
            closed,
            &reqs,
            1,
        );
        assert_ne!(a.sorted_latencies_ns, c.sorted_latencies_ns);
    }

    #[test]
    fn open_loop_below_capacity_tracks_littles_law() {
        let cfg = optane_config(1, 64, 512, 5);
        let reqs = uniform_reads(&cfg, 50_000);
        // 2M/s against ~11us → ~22 in flight.
        let report = run_sharded(&cfg, Workload::OpenLoop { rate_per_s: 2.0e6 }, &reqs, 1);
        let measured = report.depth.steady_state_mean();
        let littles = report.littles_in_flight();
        assert!(
            (measured / littles - 1.0).abs() < 0.1,
            "measured {measured} vs littles {littles}"
        );
    }

    #[test]
    fn mixed_requests_spread_writes_evenly() {
        let cfg = optane_config(1, 8, 512, 6);
        let reqs = mixed_requests(&cfg, 10, 3);
        assert_eq!(reqs.iter().filter(|r| r.write).count(), 3);
        // Not all bunched at one end.
        assert!(reqs[..5].iter().any(|r| r.write));
        assert!(reqs[5..].iter().any(|r| r.write));
    }

    fn steady(id: u32, rate_per_s: f64, requests: u64) -> TenantSpec {
        TenantSpec::new(
            id,
            &format!("steady-{id}"),
            ArrivalProcess::Poisson { rate_per_s },
            requests,
        )
    }

    fn antagonist_mmpp() -> crate::dist::Mmpp2 {
        crate::dist::Mmpp2 {
            calm_rate_per_s: 50.0e3,
            burst_rate_per_s: 1.6e6,
            mean_calm_s: 4.0e-3,
            mean_burst_s: 1.0e-3,
        }
    }

    #[test]
    fn run_tenants_is_deterministic_per_seed() {
        let cfg = optane_config(4, 2, 4096, 21);
        let tenants = [
            steady(0, 100.0e3, 4_000),
            TenantSpec::new(1, "burst", ArrivalProcess::Mmpp(antagonist_mmpp()), 8_000),
        ];
        for policy in [QueuePairPolicy::Shared, QueuePairPolicy::WeightedFair] {
            let a = run_tenants_sharded(&cfg, &tenants, policy, 1);
            let b = run_tenants_sharded(&cfg, &tenants, policy, 1);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn superposed_fixed_streams_add_their_rates() {
        // Two 1M/s tenants behave like one 2M/s stream: overall throughput
        // matches the aggregate arrival rate (the array is unsaturated).
        let cfg = optane_config(1, 64, 512, 22);
        let tenants = [
            TenantSpec::new(
                0,
                "a",
                ArrivalProcess::FixedRate { rate_per_s: 1.0e6 },
                20_000,
            ),
            TenantSpec::new(
                1,
                "b",
                ArrivalProcess::FixedRate { rate_per_s: 1.0e6 },
                20_000,
            ),
        ];
        let report = run_tenants_sharded(&cfg, &tenants, QueuePairPolicy::Shared, 1);
        assert_eq!(report.overall.completed, 40_000);
        assert!(
            (report.overall.throughput_per_s / 2.0e6 - 1.0).abs() < 0.02,
            "aggregate throughput {}",
            report.overall.throughput_per_s
        );
        for t in &report.tenants {
            assert!((t.throughput_per_s / 1.0e6 - 1.0).abs() < 0.02);
            assert!(t.latency.p50_us > 0.0);
        }
    }

    #[test]
    fn weighted_fair_shares_follow_weights() {
        let cfg = optane_config(4, 2, 4096, 23);
        let mut heavy = steady(0, 100.0e3, 2_000);
        heavy.weight = 3;
        let tenants = [heavy, steady(1, 100.0e3, 2_000)];
        let report = run_tenants_sharded(&cfg, &tenants, QueuePairPolicy::WeightedFair, 1);
        assert_eq!(report.tenants[0].queue_pairs, 6);
        assert_eq!(report.tenants[1].queue_pairs, 2);
        // Shared policy reports the whole array for everyone.
        let shared = run_tenants_sharded(&cfg, &tenants, QueuePairPolicy::Shared, 1);
        assert!(shared.tenants.iter().all(|t| t.queue_pairs == 8));
    }

    #[test]
    fn closed_loop_tenant_coexists_with_open_stream() {
        let cfg = optane_config(1, 32, 512, 24);
        let tenants = [
            TenantSpec::new(
                0,
                "cl",
                ArrivalProcess::ClosedLoop { in_flight: 64 },
                20_000,
            ),
            steady(1, 200.0e3, 2_000),
        ];
        let report = run_tenants_sharded(&cfg, &tenants, QueuePairPolicy::Shared, 1);
        assert_eq!(report.overall.completed, 22_000);
        let cl = report.tenant(0).unwrap();
        let open = report.tenant(1).unwrap();
        // The closed loop saturates its window; the Poisson tenant trickles.
        assert!(cl.throughput_per_s > open.throughput_per_s * 5.0);
        assert_eq!(cl.completed, 20_000);
        assert_eq!(open.completed, 2_000);
    }

    #[test]
    fn tenant_write_mix_is_bresenham_interleaved() {
        let cfg = optane_config(1, 8, 512, 25);
        let mut t = steady(0, 1.0e6, 10);
        t.writes = 3;
        let report = run_tenants_sharded(&cfg, &[t], QueuePairPolicy::Shared, 1);
        assert_eq!(report.overall.completed, 10);
        // The run exercises the write path (slower media): latency spread
        // between p50 and max reflects the two service classes.
        assert!(report.overall.latency.max_us > report.overall.latency.p50_us);
    }

    #[test]
    #[should_panic(expected = "duplicate tenant id")]
    fn run_tenants_rejects_duplicate_ids() {
        let cfg = optane_config(1, 8, 512, 26);
        let tenants = [steady(0, 1.0e5, 10), steady(0, 1.0e5, 10)];
        run_tenants_sharded(&cfg, &tenants, QueuePairPolicy::Shared, 1);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn observed_runs_reject_zero_workers() {
        let cfg = optane_config(1, 8, 512, 27);
        let reqs = uniform_reads(&cfg, 10);
        run_observed(
            &cfg,
            Workload::ClosedLoop { in_flight: 4 },
            &reqs,
            0,
            TelemetrySpec::disabled(),
        );
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn class_runs_reject_zero_workers() {
        let cfg = optane_config(1, 8, 512, 28);
        let class = TenantClass::new(0, "c", 4, ArrivalProcess::Poisson { rate_per_s: 1.0e4 }, 10);
        run_classes(&cfg, &[class], QueuePairPolicy::Shared, 0);
    }

    #[test]
    fn journal_flush_charges_writes_and_leaves_reads_alone() {
        // Pure-delay pipeline so the shift is exact: every write pays the
        // journal-flush bound on top of its service time, reads never do.
        let base = SimConfig::worked_example(10.0, 9);
        let journalled = SimConfig {
            pipeline: PipelineParams {
                journal_flush_ns: 5_000,
                ..base.pipeline.clone()
            },
            ..base.clone()
        };
        let reqs = mixed_requests(&base, 1_000, 250);
        let open = Workload::OpenLoop { rate_per_s: 1.0e6 };
        let plain = run_sharded(&base, open, &reqs, 1);
        let durable = run_sharded(&journalled, open, &reqs, 1);
        assert_eq!(plain.read_latency.count, 750);
        assert_eq!(plain.write_latency.count, 250);
        assert_eq!(durable.read_latency, plain.read_latency);
        assert!(
            (durable.write_latency.mean_us - plain.write_latency.mean_us - 5.0).abs() < 1e-9,
            "write mean shifted by {} us",
            durable.write_latency.mean_us - plain.write_latency.mean_us
        );
    }

    #[test]
    fn zero_journal_flush_is_bit_identical_to_the_unjournalled_engine() {
        // `journal_flush_ns: 0` must add no events: the report — including
        // the event-order-sensitive depth timeline — is exactly what the
        // engine produced before the stage existed.
        let cfg = optane_config(2, 16, 4096, 11);
        let zeroed = SimConfig {
            pipeline: PipelineParams {
                journal_flush_ns: 0,
                ..cfg.pipeline.clone()
            },
            ..cfg.clone()
        };
        let reqs = mixed_requests(&cfg, 8_000, 2_000);
        let a = run_sharded(&cfg, Workload::ClosedLoop { in_flight: 256 }, &reqs, 1);
        let b = run_sharded(&zeroed, Workload::ClosedLoop { in_flight: 256 }, &reqs, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn stage_dwells_tile_every_request_latency() {
        // The breakdown must attribute (well over) 95% of each request's
        // end-to-end latency to named stages; by construction the dwell
        // times tile the request's life, so the sums agree exactly.
        let cfg = optane_config(2, 4, 4096, 31);
        let cfg = SimConfig {
            pipeline: cfg.pipeline.with_journal_flush(48),
            ..cfg
        };
        let reqs = mixed_requests(&cfg, 5_000, 1_500);
        let report = run_sharded(&cfg, Workload::ClosedLoop { in_flight: 128 }, &reqs, 1);
        let total_latency_ns: u64 = report.sorted_latencies_ns.iter().sum();
        assert_eq!(report.stages.total_ns(), total_latency_ns);
        // Every pipeline stage saw every request; journal flush only writes.
        for stage in [
            Stage::QueuePair,
            Stage::CtrlFetch,
            Stage::Media,
            Stage::SsdLink,
            Stage::GpuLink,
            Stage::Completion,
        ] {
            assert_eq!(report.stages.histo(stage).count(), 5_000, "{stage:?}");
        }
        assert_eq!(report.stages.histo(Stage::JournalFlush).count(), 1_500);
        assert!(report.stages.histo(Stage::CacheProbe).is_empty());
    }

    #[test]
    fn tracing_changes_nothing_and_is_deterministic() {
        let cfg = optane_config(2, 8, 4096, 32);
        let reqs = mixed_requests(&cfg, 3_000, 600);
        let closed = Workload::ClosedLoop { in_flight: 256 };
        let plain = run_sharded(&cfg, closed, &reqs, 1);
        let rec_a = SpanRecorder::with_capacity(1 << 20);
        let traced = run_sharded_traced(&cfg, closed, &reqs, 1, &rec_a);
        assert_eq!(plain, traced, "tracing must not perturb the simulation");
        let rec_b = SpanRecorder::with_capacity(1 << 20);
        run_sharded_traced(&cfg, closed, &reqs, 1, &rec_b);
        assert_eq!(
            rec_a.events(),
            rec_b.events(),
            "traces must be bit-identical"
        );
        assert_eq!(rec_a.dropped(), 0);
        // 6 pipeline stages per request (journalling is off in this config).
        assert_eq!(rec_a.len(), 3_000 * 6);
        assert_eq!(
            bam_obs::chrome_trace_json(&rec_a.events()),
            bam_obs::chrome_trace_json(&rec_b.events())
        );
    }

    #[test]
    fn zero_request_tenant_is_legal_and_zeroed() {
        let cfg = optane_config(4, 2, 4096, 33);
        let tenants = [steady(0, 100.0e3, 2_000), steady(1, 100.0e3, 0)];
        let report = run_tenants_sharded(&cfg, &tenants, QueuePairPolicy::Shared, 1);
        assert_eq!(report.overall.completed, 2_000);
        let idle = report.tenant(1).unwrap();
        assert_eq!(idle.completed, 0);
        assert_eq!(idle.latency, crate::report::LatencySummary::default());
        assert_eq!(idle.throughput_per_s, 0.0);
        assert!(idle.stages.is_empty());
        // Its interference ratio is a NaN-free sentinel, not a panic.
        let ratio = crate::report::interference_ratio(idle.latency.p99_us, idle.latency.p99_us);
        assert_eq!(ratio, 1.0);
    }

    #[test]
    fn heap_reservation_covers_the_peak() {
        // The spine feeds pre-scheduled arrivals from a cursor, so the heap
        // holds in-flight work only and the reservation is sized by the
        // request count, never by the arrival stream. The engine asserts
        // peak ≤ reserved internally; this test pins the arithmetic.
        let peak = |cfg: &SimConfig, workload, reqs: &[RequestDesc]| {
            let out = execute_single(cfg, workload, reqs, Exec::workers(1));
            let reserved = heap_reservation(reqs.len(), cfg.total_queue_pairs());
            assert!(out.peak_queued > 0 && out.peak_queued <= reserved);
            out.peak_queued
        };
        let cfg = optane_config(4, 2, 4096, 51);
        let reqs = uniform_reads(&cfg, 20_000);
        peak(&cfg, Workload::ClosedLoop { in_flight: 2048 }, &reqs);
        // The open loop's 20,000 arrivals never enter the heap: requests
        // waiting on the starved queue pairs sit in their centers' FIFOs.
        let open = peak(&cfg, Workload::OpenLoop { rate_per_s: 6.0e6 }, &reqs);
        assert!(open * 100 < reqs.len(), "open-loop peak {open}");
        // Unbounded media channels: ~10,000 requests in flight at once, each
        // holding one pending departure, so the per-request term of the
        // reservation is the one that covers this peak.
        let delay = SimConfig::worked_example(1_000.0, 52);
        let reqs = uniform_reads(&delay, 20_000);
        let busy = peak(&delay, Workload::OpenLoop { rate_per_s: 1.0e7 }, &reqs);
        assert!(
            busy > heap_reservation(0, delay.total_queue_pairs()),
            "peak {busy}"
        );
    }

    /// Runs one single-workload shape on the reference arm and on the
    /// coordinator at one worker — traced into a `span_capacity` ring, with
    /// full telemetry — and requires every output to match; the untraced,
    /// unobserved public run must report the same too.
    fn assert_single_matches(
        name: &str,
        cfg: &SimConfig,
        workload: Workload,
        reqs: &[RequestDesc],
        span_capacity: usize,
    ) -> SpanRecorder {
        let spec = TelemetrySpec::full(50_000, 8);
        let rec_ref = SpanRecorder::with_capacity(span_capacity);
        let rec_one = SpanRecorder::with_capacity(span_capacity);
        let exec = Exec::workers(1).observed(spec);
        let reference = Exec {
            arm: Arm::Reference,
            ..exec.traced(&rec_ref)
        };
        let reference = run_with(cfg, workload, reqs, reference);
        let sharded = run_with(cfg, workload, reqs, exec.traced(&rec_one));
        assert_eq!(reference, sharded, "{name}");
        assert_eq!(rec_ref.events(), rec_one.events(), "{name}: spans");
        assert_eq!(rec_ref.dropped(), rec_one.dropped(), "{name}: drops");
        let untraced = run_sharded(cfg, workload, reqs, 1);
        assert_eq!(reference.0, untraced, "{name}: untraced");
        rec_ref
    }

    #[test]
    fn reference_matches_the_coordinator_on_single_workloads() {
        let starved = optane_config(4, 2, 4096, 4);
        let reqs = uniform_reads(&starved, 6_000);
        let closed = Workload::ClosedLoop { in_flight: 2048 };
        assert_single_matches("closed", &starved, closed, &reqs, 1 << 20);
        let wide = optane_config(4, 128, 4096, 9);
        let open = Workload::OpenLoop { rate_per_s: 3.0e6 };
        assert_single_matches("open", &wide, open, &reqs, 1 << 20);
        let base = optane_config(2, 4, 4096, 23);
        let journalled = SimConfig {
            pipeline: base.pipeline.with_journal_flush(48),
            ..base
        };
        let mixed = mixed_requests(&journalled, 4_000, 1_500);
        let closed = Workload::ClosedLoop { in_flight: 128 };
        assert_single_matches("journalled", &journalled, closed, &mixed, 1 << 20);
        // A ring smaller than the span stream: both arms wrap and drop
        // identically.
        let small = optane_config(2, 8, 4096, 77);
        let reqs = uniform_reads(&small, 2_000);
        let closed = Workload::ClosedLoop { in_flight: 64 };
        let rec = assert_single_matches("overflow", &small, closed, &reqs, 1024);
        assert!(rec.dropped() > 0, "stream must overflow the ring");
    }

    #[test]
    fn reference_matches_the_coordinator_on_tenants_and_classes() {
        let cfg = optane_config(4, 2, 4096, 13);
        let mut tenants: Vec<TenantSpec> = (0..4)
            .map(|i| steady(i, 100.0e3, 1_500).with_slo(30.0, 500_000))
            .collect();
        tenants.push(TenantSpec::new(
            100,
            "antagonist",
            ArrivalProcess::Mmpp(antagonist_mmpp()),
            5_400,
        ));
        tenants.push(TenantSpec::new(
            200,
            "closed",
            ArrivalProcess::ClosedLoop { in_flight: 32 },
            3_000,
        ));
        let admission = AdmissionSpec {
            burst: 8,
            refill_per_s: 1_000.0,
            defer_ns: 200_000,
            max_defers: 2,
        };
        let poisson = |rate_per_s| ArrivalProcess::Poisson { rate_per_s };
        let armed = vec![
            TenantClass::new(0, "steady", 10_000, poisson(150.0), 8_000)
                .with_slo(30.0, 1_000_000)
                .with_admission(admission),
            TenantClass::new(5, "background", 1_000, poisson(50.0), 1_000)
                .with_slo(60.0, 1_000_000),
        ];
        let spec = TelemetrySpec::full(100_000, 8);
        let lowered: Vec<TenantClass> = tenants.iter().map(TenantClass::solo).collect();
        for policy in [QueuePairPolicy::Shared, QueuePairPolicy::WeightedFair] {
            for (classes, granularity) in [
                (&lowered, Granularity::Class),
                (&armed, Granularity::Attributed),
            ] {
                let rec_ref = SpanRecorder::with_capacity(1 << 20);
                let rec_one = SpanRecorder::with_capacity(1 << 20);
                let exec = Exec::workers(1).observed(spec);
                let reference = Exec {
                    arm: Arm::Reference,
                    ..exec.traced(&rec_ref)
                };
                let reference = run_classes_core(&cfg, classes, policy, reference, granularity);
                let exec = exec.traced(&rec_one);
                let sharded = run_classes_core(&cfg, classes, policy, exec, granularity);
                assert_eq!(reference, sharded, "{granularity:?} {policy:?}");
                assert_eq!(rec_ref.events(), rec_one.events(), "{policy:?}");
                assert_eq!(reference.0.prom_export(), sharded.0.prom_export());
            }
            // The armed class really deferred in this run.
            let adm = run_classes(&cfg, &armed, policy, 1).tenants[0].admission;
            assert!(adm.expect("armed class reports admission").deferrals > 0);
            // The public tenant entry point is the lowered class run.
            assert_eq!(
                run_tenants_observed(&cfg, &tenants, policy, 1, spec),
                run_classes_observed(&cfg, &lowered, policy, 1, spec),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn writes_are_slower_than_reads_on_optane_512b() {
        // Optane 512B write IOPS (1M) is 5x below read (5.1M); a write-heavy
        // closed loop must take longer.
        let cfg = optane_config(1, 64, 512, 7);
        let reads = uniform_reads(&cfg, 30_000);
        let writes: Vec<RequestDesc> = reads
            .iter()
            .map(|r| RequestDesc { write: true, ..*r })
            .collect();
        let closed = Workload::ClosedLoop { in_flight: 1024 };
        let r = run_sharded(&cfg, closed, &reads, 1);
        let w = run_sharded(&cfg, closed, &writes, 1);
        assert!(
            w.sim_time_s > r.sim_time_s * 2.0,
            "writes {} reads {}",
            w.sim_time_s,
            r.sim_time_s
        );
    }
}
