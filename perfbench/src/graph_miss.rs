//! `graph-miss`: BFS queries from high-degree sources over an R-MAT edge
//! list 12x the cache, on 4 KiB lines and one SSD.
//!
//! Every query traverses the giant component, so it streams the whole edge
//! list through a cache that holds a twelfth of it: the miss path (`cache`
//! miss and evict, `iostack`, `queue`, the `nvme` controller) dominates,
//! launched by `exec`. Each query's distances are checked against
//! `bfs_reference`.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use bam_core::{BamConfig, BamError, BamSystem};
use bam_gpu_sim::{GpuExecutor, GpuSpec};
use bam_obs::SpanRecorder;
use bam_workloads::graph::{
    bfs_bam, bfs_reference, rmat, upload_edge_list, BfsResult, CsrGraph, RmatParams,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{Metrics, Outcome};
use crate::{closed_loop, stack, timed_setup, Query, RunCfg, Scale};

/// Sizes of one `graph-miss` run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// R-MAT scale: `2^rmat_scale` nodes.
    pub rmat_scale: u32,
    /// Undirected R-MAT edges (the stored list holds both directions).
    pub rmat_edges: u64,
    /// Edge-list bytes per cache byte.
    pub list_per_cache: u64,
    /// Distinct BFS sources queries draw from.
    pub sources: usize,
    /// Queries each measured phase runs at least.
    pub min_queries: usize,
    /// System builds whose median is `setup_s`.
    pub setup_reps: usize,
}

/// Cache line and I/O size.
pub const LINE_BYTES: u64 = 4096;

/// The sizes at `scale`.
pub fn params(scale: Scale) -> Params {
    match scale {
        Scale::Full => Params {
            rmat_scale: 12,
            rmat_edges: 1 << 18,
            list_per_cache: 12,
            sources: 16,
            min_queries: 100,
            setup_reps: 15,
        },
        Scale::Tiny => Params {
            rmat_scale: 11,
            rmat_edges: 1 << 15,
            list_per_cache: 8,
            sources: 4,
            min_queries: 3,
            setup_reps: 1,
        },
    }
}

/// Generated inputs: the graph, the query sources and their reference
/// answers.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The R-MAT graph.
    pub graph: CsrGraph,
    /// BFS sources, drawn from the highest-degree nodes.
    pub sources: Vec<u32>,
    /// `bfs_reference` of each source.
    pub references: Vec<BfsResult>,
}

/// Generates the inputs of `seed`.
pub fn inputs(seed: u64, p: &Params) -> Inputs {
    let graph = rmat(p.rmat_scale, p.rmat_edges, RmatParams::gap_kron(), seed);
    let mut by_degree: Vec<u32> = (0..graph.num_nodes()).collect();
    by_degree.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    by_degree.truncate((p.sources * 4).max(64));
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_50C5);
    for i in 0..p.sources {
        let j = rng.gen_range(i..by_degree.len());
        by_degree.swap(i, j);
    }
    by_degree.truncate(p.sources);
    let references = by_degree
        .iter()
        .map(|&s| bfs_reference(&graph, s))
        .collect();
    Inputs {
        graph,
        sources: by_degree,
        references,
    }
}

/// The system configuration for an edge list of `list_bytes`.
pub fn config(list_bytes: u64, p: &Params) -> BamConfig {
    let cache_bytes = (list_bytes / p.list_per_cache)
        .next_multiple_of(LINE_BYTES)
        .max(16 * LINE_BYTES);
    BamConfig {
        cache_line_bytes: LINE_BYTES,
        cache_bytes,
        num_ssds: 1,
        ssd_capacity_bytes: (list_bytes * 2).next_power_of_two().max(8 << 20),
        queue_pairs_per_ssd: 4,
        queue_depth: 64,
        gpu_memory_bytes: cache_bytes + (16 << 20),
        ..BamConfig::default()
    }
}

/// The correctness gate: a query passes only if it returned the reference
/// distances and traversed the reference's edge count.
pub fn check(got: &Result<BfsResult, BamError>, want: &BfsResult) -> bool {
    matches!(got, Ok(r) if r.distances == want.distances && r.edges_traversed == want.edges_traversed)
}

/// Runs `graph-miss`.
pub fn run(cfg: &RunCfg) -> Outcome {
    let p = params(cfg.scale);
    let inp = inputs(cfg.seed, &p);
    let config = config(inp.graph.edge_list_bytes(), &p);
    let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), cfg.exec_workers(config.num_ssds));
    let offsets = &inp.graph.offsets;

    let ((sys, edges), setup_s) = timed_setup(p.setup_reps, || {
        let sys = BamSystem::new(config.clone()).expect("graph-miss system builds");
        let edges = upload_edge_list(&sys, &inp.graph).expect("edge list uploads");
        // Warm-up: one untimed query brings the cache to its steady state.
        let _ = bfs_bam(offsets, &edges, inp.sources[0], &exec);
        (sys, edges)
    });

    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0BF5_0BDE);
    let launches = Cell::new(0u64);
    let mut query = || {
        let i = rng.gen_range(0..inp.sources.len());
        let start = Instant::now();
        let got = bfs_bam(offsets, &edges, inp.sources[i], &exec);
        let latency = start.elapsed();
        launches.set(launches.get() + got.as_ref().map_or(0, |r| u64::from(r.iterations)));
        let ok = check(&got, &inp.references[i]);
        Query {
            latency,
            work: if ok {
                inp.references[i].edges_traversed as f64
            } else {
                0.0
            },
            attempted: 1,
            failed: u64::from(!ok),
        }
    };

    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    sys.reset_metrics();
    let plain = closed_loop(cfg.phase_seconds(), p.min_queries, &mut query);
    plain.record_end_to_end(&mut m);
    m.set("io_amplification", sys.metrics().io_amplification());
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;

    if cfg.traced {
        sys.set_span_recorder(Some(Arc::new(SpanRecorder::new())));
        let mark = stack::begin_phase(&sys);
        launches.set(0);
        let traced = closed_loop(cfg.phase_seconds(), p.min_queries, &mut query);
        stack::record_layers(&sys, mark, 4, 0, &mut m);
        sys.set_span_recorder(None);
        m.set("exec.launches", launches.get() as f64);
        m.set("bench.queries", traced.latencies_ms.len() as f64);
        m.set(
            "bench.trace_overhead",
            crate::metrics::ratio(traced.ops_per_s(), plain.ops_per_s()),
        );
        let start = Instant::now();
        failed += u64::from(sys.flush().is_err());
        m.set("cache.flush_ms", start.elapsed().as_secs_f64() * 1e3);
        attempted += traced.attempted;
        failed += traced.failed;
    }

    Outcome {
        attempted,
        failed,
        metrics: m,
        host_rate: plain.host_rate,
        exec_workers: exec.workers(),
        sim_workers: 0,
        params: vec![
            ("rmat_scale", p.rmat_scale.to_string()),
            ("rmat_edges", p.rmat_edges.to_string()),
            ("edge_list_bytes", inp.graph.edge_list_bytes().to_string()),
            ("cache_bytes", config.cache_bytes.to_string()),
            ("line_bytes", LINE_BYTES.to_string()),
            ("ssds", config.num_ssds.to_string()),
            ("sources", p.sources.to_string()),
        ],
    }
}
