//! Criterion bench of event-engine throughput (events/s) at 1/2/4
//! accounting workers, on a reduced-scale cut of the `engine` harness's
//! 8-tenant MMPP-antagonist workload.
//!
//! Throughput is reported in events (`Throughput::Elements`), so Criterion's
//! elem/s figure *is* events/s — the unit the `engine` harness reports on
//! stderr at full scale.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use bam_bench::engine_exp::{engine_workload, ENGINE_SEED};
use bam_sim::{engine, QueuePairPolicy};

fn bench_engine_events(c: &mut Criterion) {
    let (config, tenants) = engine_workload(ENGINE_SEED, 6_000);
    let policy = QueuePairPolicy::Shared;
    let events = engine::run_tenants_sharded(&config, &tenants, policy, 1)
        .overall
        .events;

    let mut group = c.benchmark_group("engine/events");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3))
        .throughput(Throughput::Elements(events));
    for workers in [1usize, 2, 4] {
        group.bench_function(format!("sharded_{workers}w"), |b| {
            b.iter(|| {
                std::hint::black_box(engine::run_tenants_sharded(
                    &config, &tenants, policy, workers,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_events);
criterion_main!(benches);
