//! The benchmark's contract at tiny scale: every metric `BENCHMARK.json`
//! names is emitted with its unit, traced and untraced runs report the same
//! end-to-end names, and every correctness gate rejects a wrong answer.

use perfbench::metrics::{result_json, Metrics, Outcome, END_TO_END, PER_LAYER};
use perfbench::{embed, graph_miss, report_lines, run, sim_tenants, RunCfg, Scale, Workload};

/// `(name, unit)` of every object in the `key` array of `BENCHMARK.json`
/// (`unit` is empty for the workloads, which have none).
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let body = &text[start..];
    let body = &body[body.find('[').expect("array")..body.find(']').expect("array end")];
    let field = |obj: &str, f: &str| {
        let at = obj
            .find(&format!("\"{f}\""))
            .map(|i| &obj[i + f.len() + 2..]);
        at.map_or(String::new(), |rest| {
            let rest = &rest[rest.find('"').expect("string value") + 1..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn tiny(traced: bool) -> RunCfg {
    RunCfg {
        seed: 7,
        seconds: 0.05,
        traced,
        scale: Scale::Tiny,
        workers: 2,
    }
}

/// `(name, unit)` pairs of a result line's metrics.
fn emitted(result: &str) -> Vec<(String, String)> {
    let metrics = &result[result.find("\"metrics\": {").expect("metrics")..];
    metrics
        .split("\": {\"value\": ")
        .zip(metrics.split("\": {\"value\": ").skip(1))
        .map(|(before, after)| {
            let name = &before[before.rfind('"').expect("name quote") + 1..];
            let unit = after.split("\"unit\": \"").nth(1).expect("unit");
            (
                name.to_string(),
                unit[..unit.find('"').expect("unit end")].to_string(),
            )
        })
        .collect()
}

#[test]
fn registries_match_benchmark_json() {
    let owned = |r: &[(&str, &str)]| -> Vec<(String, String)> {
        r.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_emits_every_declared_metric_with_its_unit() {
    for workload in Workload::ALL {
        let mut end_to_end_lines = Vec::new();
        for traced in [false, true] {
            let outcome = run(workload, &tiny(traced));
            assert_eq!(outcome.failed, 0, "{} traced={traced}", workload.name());
            assert!(outcome.attempted > 0);
            let lines = report_lines(workload, &tiny(traced), &outcome, "test");
            let last = lines.last().expect("result line");
            assert!(last.starts_with("{\"correct\": true, \"attempted\": "));
            let want = declared(if traced { "per_layer" } else { "end_to_end" });
            assert_eq!(emitted(last), want, "{} traced={traced}", workload.name());
            assert!(lines[0].starts_with("manifest {\"workload\": "));
            for key in [
                "\"seed\": 7",
                "\"nproc\": ",
                "\"exec_workers\": ",
                "\"sim_workers\": ",
            ] {
                assert!(lines[0].contains(key), "manifest lacks {key}");
            }
            assert!(lines[0].contains(&format!("\"traced\": {traced}")));
            let names: Vec<String> = lines
                .iter()
                .filter_map(|l| l.split(" = ").next())
                .filter(|n| END_TO_END.iter().any(|(e, _)| e == n))
                .map(str::to_string)
                .collect();
            end_to_end_lines.push(names);
        }
        // The traced run measures the end-to-end metrics too (its untraced
        // phase), under the same names.
        assert_eq!(end_to_end_lines[0], end_to_end_lines[1]);
        assert_eq!(end_to_end_lines[0].len(), END_TO_END.len());
    }
}

#[test]
fn a_failed_check_makes_the_result_incorrect() {
    let outcome = Outcome {
        attempted: 10,
        failed: 1,
        metrics: Metrics::default(),
        params: Vec::new(),
        exec_workers: 1,
        sim_workers: 0,
        host_rate: 0.0,
    };
    assert!(result_json(&outcome, false)
        .starts_with("{\"correct\": false, \"attempted\": 10, \"failed\": 1,"));
    assert_eq!(outcome.failed_frac(), 0.1);
}

#[test]
fn graph_gate_rejects_wrong_distances() {
    let p = graph_miss::params(Scale::Tiny);
    let inp = graph_miss::inputs(3, &p);
    let want = &inp.references[0];
    assert!(graph_miss::check(&Ok(want.clone()), want));
    let mut wrong = want.clone();
    let reached = wrong
        .distances
        .iter()
        .position(|&d| d == 1)
        .expect("a neighbour");
    wrong.distances[reached] = 2;
    assert!(!graph_miss::check(&Ok(wrong), want));
    let mut short = want.clone();
    short.edges_traversed -= 1;
    assert!(!graph_miss::check(&Ok(short), want));
    assert!(!graph_miss::check(&Err(bam_core::BamError::Crashed), want));
}

#[test]
fn embed_gates_reject_wrong_values() {
    let p = embed::params(Scale::Tiny);
    let inp = embed::inputs(3, &p);
    let batch = &inp.pool[0];
    let model = inp.initial.clone();
    let updated = batch.updated[0];
    let untouched = (0..p.table_len as u32)
        .find(|k| batch.updated.binary_search(k).is_err())
        .expect("a key the batch does not update");
    let ok = |key: u32, got: u64| embed::read_ok(&model, batch, 5, key, got);
    // The value before the batch, or this batch's own update: accepted.
    assert!(ok(updated, model[updated as usize]));
    assert!(ok(updated, embed::value(updated, 5)));
    // Another batch's value, an update this batch did not make, garbage.
    assert!(!ok(updated, embed::value(updated, 4)));
    assert!(!ok(untouched, embed::value(untouched, 5)));
    assert!(!ok(untouched, !model[untouched as usize]));

    let mut table = model.clone();
    assert_eq!(embed::table_mismatches(Ok(table.clone()), &model), 0);
    table[3] ^= 1;
    assert_eq!(embed::table_mismatches(Ok(table), &model), 1);
    assert_eq!(
        embed::table_mismatches(Err(bam_core::BamError::Crashed), &model),
        model.len() as u64
    );
}

#[test]
fn sim_gates_reject_a_changed_report() {
    let p = sim_tenants::params(Scale::Tiny);
    let (config, tenants) = bam_bench::engine_exp::engine_workload(3, p.steady_requests);
    let off = perfbench::engine::Observe::Off;
    let reference = perfbench::engine::run_engine(&config, &tenants, 1, off);
    let sharded = perfbench::engine::run_engine(&config, &tenants, 2, off);
    assert!(sim_tenants::check(&sharded, &reference));
    // Any simulated count that moves is a wrong answer.
    let mutations: [fn(&mut bam_sim::MultiTenantReport); 4] = [
        |r| r.overall.events += 1,
        |r| r.overall.completed -= 1,
        |r| r.overall.histogram.record(1),
        |r| r.tenants[0].completed += 1,
    ];
    for mutate in mutations {
        let mut changed = sharded.clone();
        mutate(&mut changed);
        assert!(!sim_tenants::check(&changed, &reference));
    }

    // The pinned counts bind only the pinned seed and size.
    let (seed, steady, ..) = sim_tenants::PINNED;
    assert!(sim_tenants::pinned_ok(3, p.steady_requests, &reference));
    assert!(!sim_tenants::pinned_ok(seed, steady, &reference));
}
