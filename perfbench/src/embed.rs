//! `embed-hot-rw`: a recommender-style lookup/update mix on a table that
//! fits in the cache.
//!
//! Each query is one kernel launch. Lanes read through
//! `BamArray::gather_warp` and update through `BamArray::write`; keys follow
//! Zipf(0.99) over a seeded permutation of the table, and one op in five is
//! an update. The table is half the cache and is warmed before timing, so
//! every op hits: this loads the cache hit path, warp coalescing, journal
//! appends and the closing write-back, and bypasses the miss path.
//!
//! A run is a sequence of epochs of a fixed query count. Each epoch builds a
//! fresh system, uploads and warms the table (its timed set-up), runs its
//! queries, and ends with a flush. So the in-memory journal, and with it the
//! peak RSS, is bounded by one epoch, and an epoch's I/O amplification does
//! not depend on how many queries the run's time allowed.
//!
//! An update's value depends only on its key and batch, so racing updates
//! agree and a read must return either the value before the batch or the
//! batch's own update. After each epoch's flush the table must equal the
//! host model; a traced run also replays the journal of its last epoch into
//! a fresh system and checks the same table comes back.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bam_core::{BamArray, BamConfig, BamSystem};
use bam_gpu_sim::{GpuExecutor, GpuSpec, WarpCtx, WARP_SIZE};
use bam_obs::{LatencyHisto, SpanRecorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::{median, ratio, Metrics, Outcome};
use crate::{stack, Phase, Query, Recorder, RunCfg, Scale};

/// Sizes of one `embed-hot-rw` run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Table entries (`u64` each).
    pub table_len: u64,
    /// Cache bytes (twice the table).
    pub cache_bytes: u64,
    /// Warps per query launch; each lane does one op.
    pub warps_per_query: usize,
    /// Queries of one epoch: a fresh system, warmed, runs this many
    /// queries and is flushed and checked. A phase runs whole epochs, and
    /// query `i` of every epoch runs batch `i` of the pool.
    pub epoch_queries: usize,
}

/// Cache line and I/O size.
pub const LINE_BYTES: u64 = 4096;
/// Zipf exponent of the key popularity.
pub const ZIPF_S: f64 = 0.99;
/// One op in `UPDATE_EVERY` is an update.
pub const UPDATE_EVERY: u32 = 5;

/// The sizes at `scale`.
pub fn params(scale: Scale) -> Params {
    match scale {
        Scale::Full => Params {
            table_len: 1 << 18,
            cache_bytes: 4 << 20,
            warps_per_query: 256,
            epoch_queries: 25,
        },
        Scale::Tiny => Params {
            table_len: 1 << 12,
            cache_bytes: 64 << 10,
            warps_per_query: 4,
            epoch_queries: 3,
        },
    }
}

/// One lane's op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Table index.
    pub key: u32,
    /// Update (`true`) or lookup.
    pub update: bool,
}

/// One query's ops, plus the sorted distinct keys it updates.
#[derive(Debug, Clone)]
pub struct Batch {
    /// One op per lane.
    pub ops: Vec<Op>,
    /// Sorted distinct updated keys.
    pub updated: Vec<u32>,
}

/// Generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The table's initial contents.
    pub initial: Vec<u64>,
    /// The batch pool, one batch per query of an epoch.
    pub pool: Vec<Batch>,
}

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The value batch `batch` writes to `key` (batch 0 is the initial table).
pub fn value(key: u32, batch: u64) -> u64 {
    mix(u64::from(key) ^ mix(batch))
}

/// Generates the inputs of `seed`.
pub fn inputs(seed: u64, p: &Params) -> Inputs {
    let n = p.table_len as usize;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE4BE_D0A1);
    // Popularity rank -> key, so hot keys spread over the table's lines.
    let mut key_of_rank: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        key_of_rank.swap(i, rng.gen_range(0..i + 1));
    }
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 1..=n {
        acc += (rank as f64).powf(-ZIPF_S);
        cdf.push(acc);
    }
    let pool = (0..p.epoch_queries)
        .map(|_| {
            let ops: Vec<Op> = (0..p.warps_per_query * WARP_SIZE)
                .map(|_| {
                    let u = rng.gen::<f64>() * acc;
                    let rank = cdf.partition_point(|&c| c < u).min(n - 1);
                    Op {
                        key: key_of_rank[rank],
                        update: rng.gen_range(0..UPDATE_EVERY) == 0,
                    }
                })
                .collect();
            let mut updated: Vec<u32> = ops.iter().filter(|o| o.update).map(|o| o.key).collect();
            updated.sort_unstable();
            updated.dedup();
            Batch { ops, updated }
        })
        .collect();
    Inputs {
        initial: (0..n as u32).map(|k| value(k, 0)).collect(),
        pool,
    }
}

/// The system configuration.
pub fn config(p: &Params) -> BamConfig {
    BamConfig {
        cache_line_bytes: LINE_BYTES,
        cache_bytes: p.cache_bytes,
        num_ssds: 1,
        ssd_capacity_bytes: 8 << 20,
        queue_pairs_per_ssd: 4,
        queue_depth: 64,
        gpu_memory_bytes: p.cache_bytes + (16 << 20),
        ..BamConfig::default()
    }
}

/// The lookup gate: batch `batch` may read the pre-batch model value or
/// its own update of the key, nothing else.
pub fn read_ok(model: &[u64], batch: &Batch, batch_id: u64, key: u32, got: u64) -> bool {
    got == model[key as usize]
        || (got == value(key, batch_id) && batch.updated.binary_search(&key).is_ok())
}

/// The table gate: the number of entries of `got` that differ from `model`
/// (a read error counts every entry).
pub fn table_mismatches(got: Result<Vec<u64>, bam_core::BamError>, model: &[u64]) -> u64 {
    match got {
        Ok(v) if v.len() == model.len() => {
            v.iter().zip(model).filter(|(a, b)| a != b).count() as u64
        }
        _ => model.len() as u64,
    }
}

/// Per-call timings of a traced phase.
#[derive(Default)]
struct CallTimes {
    gather: Mutex<LatencyHisto>,
    write: Mutex<LatencyHisto>,
}

/// Runs one batch as one kernel launch; returns the failed op count.
fn launch(
    exec: &GpuExecutor,
    table: &BamArray<u64>,
    batch: &Batch,
    batch_id: u64,
    model: &[u64],
    times: Option<&CallTimes>,
) -> u64 {
    let failed = AtomicU64::new(0);
    // Untraced launches read no clock: `since` is 0 without `times`.
    let clock = || times.map(|_| Instant::now());
    let since = |start: Option<Instant>| start.map_or(0, |s| s.elapsed().as_nanos() as u64);
    exec.launch(batch.ops.len(), |warp: &WarpCtx| {
        let mut idx = [None; WARP_SIZE];
        let mut reads = 0u64;
        for (lane, tid) in warp.lanes() {
            let op = batch.ops[tid];
            if !op.update {
                idx[lane] = Some(u64::from(op.key));
                reads += 1;
            }
        }
        let mut gather_ns = None;
        let mut write_ns = [0u64; WARP_SIZE];
        let mut writes = 0;
        let mut bad = 0;
        if reads > 0 {
            let start = clock();
            let got = table.gather_warp(warp, &idx);
            gather_ns = Some(since(start));
            match got {
                Ok(vals) => {
                    for (lane, tid) in warp.lanes() {
                        let key = batch.ops[tid].key;
                        if idx[lane].is_some() {
                            let ok =
                                vals[lane].is_some_and(|v| read_ok(model, batch, batch_id, key, v));
                            bad += u64::from(!ok);
                        }
                    }
                }
                Err(_) => bad += reads,
            }
        }
        for (_, tid) in warp.lanes() {
            let op = batch.ops[tid];
            if op.update {
                let start = clock();
                let res = table.write(u64::from(op.key), value(op.key, batch_id));
                write_ns[writes] = since(start);
                writes += 1;
                bad += u64::from(res.is_err());
            }
        }
        if let Some(t) = times {
            if let Some(ns) = gather_ns {
                t.gather.lock().expect("gather histogram").record(ns);
            }
            let mut h = t.write.lock().expect("write histogram");
            write_ns[..writes].iter().for_each(|&ns| h.record(ns));
        }
        if bad > 0 {
            failed.fetch_add(bad, Ordering::Relaxed);
        }
    });
    failed.into_inner()
}

/// One epoch: a fresh system holding the warmed table, the host model of
/// the table, and the updates made so far.
struct Epoch {
    sys: BamSystem,
    table: BamArray<u64>,
    model: Vec<u64>,
    next_batch: u64,
    updates: u64,
    /// Stack counters at the epoch's start, when traced.
    mark: Option<stack::StackMark>,
}

/// What a finished epoch leaves: its I/O amplification and failed ops, and
/// when traced its per-layer metrics, the journal a crash before the
/// closing flush would leave, and the model that journal must restore.
struct EpochEnd {
    io_amplification: f64,
    failed: u64,
    traced: Option<(Metrics, Vec<u8>, Vec<u64>)>,
}

impl Epoch {
    /// Builds a system, uploads and warms the table (the timed set-up), and
    /// installs a span recorder when `traced`.
    fn start(config: &BamConfig, inp: &Inputs, p: &Params, traced: bool) -> Self {
        let sys = BamSystem::new(config.clone()).expect("embed system builds");
        let table = sys
            .create_array::<u64>(p.table_len)
            .expect("table fits the namespace");
        table.preload(&inp.initial).expect("table uploads");
        table.prefetch(0, p.table_len).expect("table warms");
        if traced {
            sys.set_span_recorder(Some(Arc::new(SpanRecorder::new())));
        }
        let mark = if traced {
            Some(stack::begin_phase(&sys))
        } else {
            sys.reset_metrics();
            None
        };
        Self {
            sys,
            table,
            model: inp.initial.clone(),
            next_batch: 1,
            updates: 0,
            mark,
        }
    }

    /// Runs the next batch of the pool as one launch.
    fn query(&mut self, exec: &GpuExecutor, pool: &[Batch], times: Option<&CallTimes>) -> Query {
        let batch_id = self.next_batch;
        self.next_batch += 1;
        let batch = &pool[(batch_id as usize - 1) % pool.len()];
        let start = Instant::now();
        let failed = launch(exec, &self.table, batch, batch_id, &self.model, times);
        let latency = start.elapsed();
        for &k in &batch.updated {
            self.model[k as usize] = value(k, batch_id);
        }
        self.updates += batch.ops.iter().filter(|o| o.update).count() as u64;
        let ops = batch.ops.len() as u64;
        Query {
            latency,
            work: (ops - failed) as f64,
            attempted: ops,
            failed,
        }
    }

    /// Flushes the table back to storage and checks it against the model.
    fn finish(self) -> EpochEnd {
        let journal = self
            .mark
            .map(|_| self.sys.journal().map(|j| j.snapshot()).unwrap_or_default());
        let start = Instant::now();
        let mut failed = u64::from(self.sys.flush().is_err());
        let flush_ms = start.elapsed().as_secs_f64() * 1e3;
        let io_amplification = self.sys.metrics().io_amplification();
        failed += table_mismatches(self.table.read_run(0, self.model.len() as u64), &self.model);
        let traced = self.mark.zip(journal).map(|(mark, journal)| {
            let mut m = Metrics::default();
            stack::record_layers(&self.sys, mark, 8, self.updates * 8, &mut m);
            m.set("cache.flush_ms", flush_ms);
            m.set("exec.launches", (self.next_batch - 1) as f64);
            self.sys.set_span_recorder(None);
            (m, journal, self.model)
        });
        EpochEnd {
            io_amplification,
            failed,
            traced,
        }
    }
}

/// The epochs of one phase.
struct Epochs {
    phase: Phase,
    setup_s: Vec<f64>,
    ends: Vec<EpochEnd>,
}

/// Runs whole epochs of `epoch_queries` closed-loop queries until
/// `seconds` have passed.
fn run_epochs(
    seconds: f64,
    exec: &GpuExecutor,
    config: &BamConfig,
    inp: &Inputs,
    p: &Params,
    times: Option<&CallTimes>,
) -> Epochs {
    let mut rec = Recorder::default();
    let mut setup_s = Vec::new();
    let mut ends = Vec::new();
    while ends.is_empty() || rec.elapsed_s() < seconds {
        let start = Instant::now();
        let mut epoch = Epoch::start(config, inp, p, times.is_some());
        setup_s.push(start.elapsed().as_secs_f64());
        for _ in 0..p.epoch_queries {
            rec.record(epoch.query(exec, &inp.pool, times));
        }
        ends.push(epoch.finish());
    }
    Epochs {
        phase: rec.finish(),
        setup_s,
        ends,
    }
}

/// Runs `embed-hot-rw`.
pub fn run(cfg: &RunCfg) -> Outcome {
    let p = params(cfg.scale);
    let inp = inputs(cfg.seed, &p);
    let config = config(&p);
    let exec = GpuExecutor::with_workers(GpuSpec::a100_80gb(), cfg.exec_workers(config.num_ssds));

    let mut m = Metrics::default();
    let plain = run_epochs(cfg.phase_seconds(), &exec, &config, &inp, &p, None);
    plain.phase.record_end_to_end(&mut m);
    m.set(
        "setup_s",
        median(&mut plain.setup_s.clone()) * plain.phase.time_scale,
    );
    let mut amps: Vec<f64> = plain.ends.iter().map(|e| e.io_amplification).collect();
    m.set("io_amplification", median(&mut amps));
    let mut attempted = plain.phase.attempted;
    let mut failed = plain.phase.failed + plain.ends.iter().map(|e| e.failed).sum::<u64>();

    if cfg.traced {
        let times = CallTimes::default();
        let traced = run_epochs(cfg.phase_seconds(), &exec, &config, &inp, &p, Some(&times));
        let phase = &traced.phase;
        attempted += phase.attempted;
        failed += phase.failed + traced.ends.iter().map(|e| e.failed).sum::<u64>();
        // The per-layer counters and the crash replay are those of the
        // phase's last epoch.
        let last = traced.ends.into_iter().last().and_then(|e| e.traced);
        let (layers, journal, model) = last.expect("a traced phase runs a traced epoch");
        for &(name, _) in crate::metrics::PER_LAYER {
            if let Some(v) = layers.get(name) {
                m.set(name, v);
            }
        }
        m.set("exec.launch_ms_p50", phase.p50_ms());
        for (h, p50, p99) in [
            (&times.gather, "array.gather_ns_p50", "array.gather_ns_p99"),
            (&times.write, "array.write_ns_p50", "array.write_ns_p99"),
        ] {
            let h = h.lock().expect("call histogram");
            m.set(p50, h.value_at_quantile(0.5) as f64);
            m.set(p99, h.value_at_quantile(0.99) as f64);
        }
        m.set("bench.queries", phase.latencies_ms.len() as f64);
        m.set(
            "bench.trace_overhead",
            ratio(phase.ops_per_s(), plain.phase.ops_per_s()),
        );
        let fresh = BamSystem::new(config.clone()).expect("embed system builds");
        let (replay_ms, mismatches) = replay(&journal, fresh, &p, &inp.initial, &model);
        m.set("journal.replay_ms", replay_ms);
        failed += mismatches;
    }

    Outcome {
        attempted,
        failed,
        metrics: m,
        host_rate: plain.phase.host_rate,
        exec_workers: exec.workers(),
        sim_workers: 0,
        params: vec![
            ("table_bytes", (p.table_len * 8).to_string()),
            ("cache_bytes", p.cache_bytes.to_string()),
            ("line_bytes", LINE_BYTES.to_string()),
            ("ops_per_query", (p.warps_per_query * WARP_SIZE).to_string()),
            ("queries_per_epoch", p.epoch_queries.to_string()),
            ("zipf_s", ZIPF_S.to_string()),
            ("update_every", UPDATE_EVERY.to_string()),
        ],
    }
}

/// Replays `journal` into `fresh`, a new system, after uploading the
/// initial table; returns the replay time in ms and the table gate's
/// mismatch count.
fn replay(
    journal: &[u8],
    fresh: BamSystem,
    p: &Params,
    initial: &[u64],
    model: &[u64],
) -> (f64, u64) {
    let table = fresh
        .create_array::<u64>(p.table_len)
        .expect("table fits the namespace");
    table.preload(initial).expect("table uploads");
    let start = Instant::now();
    let replayed = fresh.recover_from_journal(journal);
    let replay_ms = start.elapsed().as_secs_f64() * 1e3;
    if replayed.is_err() {
        return (replay_ms, model.len() as u64);
    }
    (
        replay_ms,
        table_mismatches(table.read_run(0, p.table_len), model),
    )
}
