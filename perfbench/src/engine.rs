//! The benchmark's one route into `bam_sim::engine`.
//!
//! Every simulator run the benchmark makes goes through [`run_engine`], so a
//! change to the engine's entry points changes this one call site and
//! nothing the benchmark measures.

use bam_obs::SpanRecorder;
use bam_sim::{engine, MultiTenantReport, QueuePairPolicy, SimConfig, TelemetrySpec, TenantSpec};

/// What a run records besides its report.
#[derive(Clone, Copy)]
pub enum Observe<'a> {
    /// Nothing: the untraced engine.
    Off,
    /// Spans of every request into the recorder.
    Spans(&'a SpanRecorder),
    /// Windowed series and blame decomposition.
    Telemetry(TelemetrySpec),
}

/// Runs `tenants` on shared queue pairs with `workers` accounting shards.
pub fn run_engine(
    config: &SimConfig,
    tenants: &[TenantSpec],
    workers: usize,
    observe: Observe<'_>,
) -> MultiTenantReport {
    let policy = QueuePairPolicy::Shared;
    match observe {
        Observe::Off => engine::run_tenants_sharded(config, tenants, policy, workers),
        Observe::Spans(rec) => {
            engine::run_tenants_sharded_traced(config, tenants, policy, workers, rec)
        }
        Observe::Telemetry(spec) => {
            engine::run_tenants_observed(config, tenants, policy, workers, spec).0
        }
    }
}
