//! Engine-throughput sweep: the event engine at 1/2/4 accounting workers
//! (see `bam_bench::engine_exp`).
//!
//! Every point is asserted bit-identical to the single-worker run before its
//! throughput is reported. Stdout and, under `--json`, `BENCH_engine.json`
//! carry only deterministic fields (identical across runs and machines — CI
//! double-runs this binary and diffs the output, and the drift gate checks
//! the JSON like every other baseline); the machine-dependent wall-clock
//! figures go to stderr only.
//!
//! Flags: `--requests <n>` overrides the per-steady-tenant request count,
//! `--json` writes `BENCH_engine.json`.

use bam_bench::engine_exp::{
    engine_sweep, ENGINE_SEED, ENGINE_STEADY_REQUESTS, ENGINE_STEADY_TENANTS,
};
use bam_bench::jsonout::{emit_bench_json, json_array, json_mode, JsonObject};
use bam_bench::print_table;

/// The value following `--requests`, if present.
fn requests_arg() -> Option<u64> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--requests" {
            let v = args.next().expect("--requests needs a value");
            return Some(v.parse().expect("--requests must be an integer"));
        }
    }
    None
}

fn main() {
    let steady_requests = requests_arg().unwrap_or(ENGINE_STEADY_REQUESTS);
    let rows = engine_sweep(ENGINE_SEED, steady_requests);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workers.to_string(),
                r.completed.to_string(),
                r.events.to_string(),
                r.p99_ns.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Engine equivalence across accounting workers on the 8-tenant antagonist workload \
             ({ENGINE_STEADY_TENANTS} steady tenants x {steady_requests} requests + MMPP \
             antagonist; every report asserted bit-identical to the 1-worker run)"
        ),
        &["Workers", "Completed", "Events", "p99 (ns)"],
        &table,
    );
    println!(
        "\nCheck: every row completes the same requests through the same {} events to the \
         same p99 — worker counts differ only in wall-clock (stderr).",
        rows[0].events
    );
    eprintln!("wall-clock (machine-dependent):");
    for r in &rows {
        eprintln!(
            "  workers={} {:.3}s {:>12.0} events/s speedup {:.2}x",
            r.workers, r.wall_s, r.events_per_sec, r.speedup
        );
    }
    if json_mode() {
        let body = JsonObject::new()
            .str("bench", "engine")
            .int("seed", ENGINE_SEED)
            .int("steady_tenants", u64::from(ENGINE_STEADY_TENANTS))
            .int("steady_requests", steady_requests)
            .raw(
                "rows",
                json_array(rows.iter().map(|r| {
                    JsonObject::new()
                        .str("engine", "sharded")
                        .int("workers", r.workers as u64)
                        .int("completed", r.completed)
                        .int("events", r.events)
                        .int("p99_ns", r.p99_ns)
                        .build()
                })),
            )
            .build();
        emit_bench_json("engine", &body);
    }
}
