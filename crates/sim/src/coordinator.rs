//! The engine's coordinator: a worker pool of per-SSD accounting shards fed
//! by the timing spine. Every public run goes through [`run_sharded_core`].
//!
//! The spine (`engine::drive_events`) stays sequential — the global RNG draw
//! order is part of the determinism contract — while each shard applies its
//! own device's accounting records concurrently. Records are batched and
//! flushed under conservative lookahead: a shard may lag the spine by at
//! most [`BATCH_RECORDS`] records or one [`lookahead_epsilon`] of virtual
//! time, whichever trips first. The epsilon is derived from the pipeline's
//! forwarding latencies — the soonest any cross-shard effect (a completion
//! refilling an arrival, the shared GPU link draining) can propagate — so
//! flushing on that horizon keeps every shard's view causally complete
//! without per-record synchronization.
//!
//! Determinism does not depend on the flush schedule: each shard receives
//! its records in global `(time, seq)` order regardless of batch boundaries,
//! and every merged aggregate is order-independent (see [`crate::shard`]).
//! The flush policy only bounds shard lag and channel traffic.

use std::sync::mpsc;

use bam_obs::{merge_indexed_spans, BlameRow, SpanEvent, SpanRecorder, WindowedSeries};

use crate::clock::SimTime;
use crate::engine::{
    drive_events, AdmissionState, EngineOutput, IssueState, RequestDesc, SimConfig,
};
use crate::pipeline::PipelineParams;
use crate::shard::{
    merge_tenants, occupancy_stats, Accounting, ObsPlan, OccupancyMeter, Rec, ShardMap,
};

/// Records a shard batch may accumulate before it is flushed regardless of
/// virtual time.
const BATCH_RECORDS: usize = 4096;

/// Outstanding batches per shard channel before the spine blocks
/// (backpressure, so a slow shard bounds memory instead of growing it).
const CHANNEL_DEPTH: usize = 4;

/// The conservative-lookahead flush stride in virtual nanoseconds: the
/// pipeline's forwarding path (doorbell forward → controller fetch →
/// completion post) is the soonest any cross-shard effect can propagate, so
/// one epsilon is a safe horizon; the stride factor amortizes channel
/// traffic over many horizons without affecting results (see module docs).
fn lookahead_epsilon(p: &PipelineParams) -> u64 {
    (p.qp_forward_ns + p.ctrl_fetch_ns + p.completion_ns).max(1) * 64
}

/// Runs the spine with `min(workers, num_ssds)` accounting shards and merges
/// their results into one [`EngineOutput`], bit-identical at any worker
/// count.
///
/// # Panics
///
/// Panics if `workers` is zero: this is the one place every entry point
/// checks it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_sharded_core(
    config: &SimConfig,
    requests: &[RequestDesc],
    tenant_of: &[u32],
    qp_of: &[u32],
    arrivals: &[(SimTime, u32)],
    issue: &mut [IssueState],
    admission: &mut AdmissionState,
    recorder: Option<&SpanRecorder>,
    workers: usize,
    plan: &ObsPlan<'_>,
) -> EngineOutput {
    assert!(workers > 0, "need at least one worker");
    let map = ShardMap::new(workers, config.num_ssds, config.queue_pairs_per_ssd);
    let shards = map.shards;
    let total_qps = config.total_queue_pairs();
    let traced = recorder.is_some();

    // Dense per-shard slots: request i is its shard's local_of[i]-th request,
    // so shard arrays cost memory proportional to the shard's share.
    let mut local_of = vec![0u32; requests.len()];
    let mut slots = vec![0u32; shards];
    for (i, &qp) in qp_of.iter().enumerate() {
        let s = map.of_qp(qp);
        local_of[i] = slots[s];
        slots[s] += 1;
    }

    let epsilon = lookahead_epsilon(&config.pipeline);

    let (spine, mut accts) = std::thread::scope(|scope| {
        let mut txs = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for &shard_slots in &slots {
            let (tx, rx) = mpsc::sync_channel::<Vec<Rec>>(CHANNEL_DEPTH);
            txs.push(tx);
            let acct = Accounting::new(
                requests,
                tenant_of,
                qp_of,
                Some(&local_of),
                shard_slots as usize,
                total_qps,
                plan,
                traced,
            );
            handles.push(scope.spawn(move || {
                let mut acct = acct;
                for batch in rx {
                    for rec in batch {
                        acct.apply(rec);
                    }
                }
                acct
            }));
        }

        let mut buffers: Vec<Vec<Rec>> = (0..shards)
            .map(|_| Vec::with_capacity(BATCH_RECORDS))
            .collect();
        let mut next_flush = SimTime::ZERO;
        let spine = drive_events(
            config,
            requests,
            tenant_of,
            qp_of,
            arrivals,
            issue,
            admission,
            &mut |rec| {
                let at = rec.at();
                let s = map.route(&rec, qp_of);
                buffers[s].push(rec);
                if buffers[s].len() >= BATCH_RECORDS {
                    let batch =
                        std::mem::replace(&mut buffers[s], Vec::with_capacity(BATCH_RECORDS));
                    txs[s].send(batch).expect("shard worker exited early");
                }
                if at >= next_flush {
                    next_flush = at + epsilon;
                    for (buf, tx) in buffers.iter_mut().zip(&txs) {
                        if !buf.is_empty() {
                            tx.send(std::mem::take(buf))
                                .expect("shard worker exited early");
                        }
                    }
                }
            },
        );
        for (buf, tx) in buffers.into_iter().zip(&txs) {
            if !buf.is_empty() {
                tx.send(buf).expect("shard worker exited early");
            }
        }
        drop(txs);
        let accts: Vec<Accounting> = handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect();
        (spine, accts)
    });

    // Merge in global queue-pair order, so the f64 occupancy fold is the
    // same at every shard count, bit for bit.
    let meters: Vec<OccupancyMeter> = (0..total_qps)
        .map(|qp| accts[map.of_qp(qp)].meters[qp as usize])
        .collect();
    let (occupancy_mean, occupancy_max) = occupancy_stats(&meters, spine.end);

    let mut read_latencies = Vec::new();
    let mut write_latencies = Vec::new();
    for acct in &mut accts {
        read_latencies.append(&mut acct.read_latencies);
        write_latencies.append(&mut acct.write_latencies);
    }

    // Replay the merged span stream into the caller's recorder in global
    // emission order — the same sequence of `record` calls an un-sharded
    // run makes, so ring-buffer wrap and drop counts match exactly too.
    if let Some(rec) = recorder {
        let parts: Vec<Vec<(u64, SpanEvent)>> = accts.iter_mut().map(|a| a.take_spans()).collect();
        for event in merge_indexed_spans(parts) {
            rec.record(event);
        }
    }

    // Fold the shard series and concatenate blame rows. The series merge is
    // commutative, and the blame report builder sorts rows by request id, so
    // both outputs are bit-identical at any shard count.
    let mut series = WindowedSeries::new(plan.telemetry.window_ns);
    let mut blame_rows: Vec<BlameRow> = Vec::new();
    for acct in &mut accts {
        series.merge(&acct.series);
        blame_rows.append(&mut acct.take_blame_rows());
    }

    let tenants = merge_tenants(accts.into_iter().map(|a| a.tenants).collect());

    EngineOutput {
        end: spine.end,
        depth: spine.depth,
        events: spine.events,
        peak_queued: spine.peak_queued,
        occupancy_mean,
        occupancy_max,
        read_latencies,
        write_latencies,
        tenants,
        series,
        blame_rows,
    }
}
