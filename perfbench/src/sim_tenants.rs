//! `sim-tenants`: the 8-tenant antagonist workload of
//! `bam_bench::engine_exp::engine_workload` on the sharded engine.
//!
//! Seven steady Poisson tenants and one MMPP antagonist share the queue
//! pairs of a 4-SSD array. A query is one whole simulation at
//! `workers = nproc - 1`; it loads `bam-sim` (spine, shards, coordinator) and
//! the `bam-obs` histogram merges, and none of the functional layers. The
//! simulated statistics are deterministic per seed: every report must equal
//! the single-worker report of the same seed, so a speed-up that changes any
//! simulated count is a wrong answer.

use std::time::Instant;

use bam_bench::engine_exp::engine_workload;
use bam_obs::SpanRecorder;
use bam_sim::{MultiTenantReport, TelemetrySpec};

use crate::engine::{run_engine, Observe};
use crate::metrics::{ratio, Metrics, Outcome};
use crate::{closed_loop, timed_setup, Query, RunCfg, Scale};

/// Sizes of one `sim-tenants` run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Requests of each steady tenant (the antagonist issues ~3.6x more).
    pub steady_requests: u64,
    /// Queries each measured phase runs at least.
    pub min_queries: usize,
    /// Set-ups (a workload build plus a warm-up run of a
    /// [`WARMUP_FRACTION`] of its requests) whose median is `setup_s`.
    pub setup_reps: usize,
}

/// The warm-up run of a set-up simulates `steady_requests / WARMUP_FRACTION`
/// requests per steady tenant: it pages in the engine and primes the
/// allocator at a fraction of a query's cost, so that many set-ups fit in a
/// run.
pub const WARMUP_FRACTION: u64 = 8;

/// The sizes at `scale`.
pub fn params(scale: Scale) -> Params {
    match scale {
        Scale::Full => Params {
            steady_requests: 60_000,
            min_queries: 10,
            setup_reps: 12,
        },
        Scale::Tiny => Params {
            steady_requests: 1_200,
            min_queries: 2,
            setup_reps: 1,
        },
    }
}

/// Seed, steady requests, events, completions and p99 (ns) of a pinned
/// reference run.
pub const PINNED: (u64, u64, u64, u64, u64) = (29, 60_000, 5_088_000, 636_000, 13_434_880);

/// The pinned-count gate: for the pinned seed and size, the report must
/// carry the pinned counts; any other run passes.
pub fn pinned_ok(seed: u64, steady_requests: u64, report: &MultiTenantReport) -> bool {
    let (pseed, psteady, events, completed, p99) = PINNED;
    seed != pseed
        || steady_requests != psteady
        || (report.overall.events == events
            && report.overall.completed == completed
            && report.overall.histogram.value_at_quantile(0.99) == p99)
}

/// The report gate: a run must reproduce the single-worker reference of its
/// seed exactly, every simulated count and histogram included.
pub fn check(report: &MultiTenantReport, reference: &MultiTenantReport) -> bool {
    report == reference
}

/// Runs `sim-tenants`.
pub fn run(cfg: &RunCfg) -> Outcome {
    let p = params(cfg.scale);
    let (config, tenants) = engine_workload(cfg.seed, p.steady_requests);
    let reference = run_engine(&config, &tenants, 1, Observe::Off);
    let mut failed = u64::from(!pinned_ok(cfg.seed, p.steady_requests, &reference));
    let workers = cfg.sim_workers();

    let ((config, tenants), setup_s) = timed_setup(p.setup_reps, || {
        let (config, tenants) = engine_workload(cfg.seed, p.steady_requests);
        let (small, small_tenants) =
            engine_workload(cfg.seed, (p.steady_requests / WARMUP_FRACTION).max(1));
        run_engine(&small, &small_tenants, workers, Observe::Off);
        (config, tenants)
    });

    let query = |observe: Observe<'_>| {
        let start = Instant::now();
        let report = run_engine(&config, &tenants, workers, observe);
        let latency = start.elapsed();
        let ok = check(&report, &reference);
        Query {
            latency,
            work: if ok {
                report.overall.events as f64
            } else {
                0.0
            },
            attempted: 1,
            failed: u64::from(!ok),
        }
    };

    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    let plain = closed_loop(cfg.phase_seconds(), p.min_queries, || query(Observe::Off));
    plain.record_end_to_end(&mut m);
    // No cache sits in front of the simulated devices: each request moves
    // exactly its own bytes.
    m.set("io_amplification", 1.0);
    let mut attempted = plain.attempted;
    failed += plain.failed;

    if cfg.traced {
        let recorder = SpanRecorder::new();
        let traced = closed_loop(cfg.phase_seconds(), p.min_queries, || {
            recorder.clear();
            query(Observe::Spans(&recorder))
        });
        let mut walls_ms = |observe: Observe<'_>, workers: usize| {
            let start = Instant::now();
            let report = run_engine(&config, &tenants, workers, observe);
            let wall_ms = start.elapsed().as_secs_f64() * 1e3;
            attempted += 1;
            failed += u64::from(!check(&report, &reference));
            wall_ms
        };
        // The observed entry point runs the inline engine at one worker, so
        // the telemetry cost is taken at two or more.
        let wide = cfg.workers.max(2);
        let one_worker_ms = walls_ms(Observe::Off, 1);
        let wide_ms = walls_ms(Observe::Off, wide);
        let telemetry_ms = walls_ms(Observe::Telemetry(TelemetrySpec::full(1_000_000, 5)), wide);
        m.set("sim.events", reference.overall.events as f64);
        m.set("sim.completed", reference.overall.completed as f64);
        m.set("sim.shard_speedup", ratio(one_worker_ms, wide_ms));
        m.set("sim.telemetry_overhead", ratio(telemetry_ms, wide_ms));
        m.set("sim.span_overhead", ratio(traced.p50_ms(), plain.p50_ms()));
        m.set("bench.queries", traced.latencies_ms.len() as f64);
        m.set(
            "bench.trace_overhead",
            ratio(traced.ops_per_s(), plain.ops_per_s()),
        );
        attempted += traced.attempted;
        failed += traced.failed;
    }

    Outcome {
        attempted,
        failed,
        metrics: m,
        host_rate: plain.host_rate,
        exec_workers: 0,
        sim_workers: workers,
        params: vec![
            ("steady_requests", p.steady_requests.to_string()),
            ("tenants", tenants.len().to_string()),
            ("events", reference.overall.events.to_string()),
        ],
    }
}
