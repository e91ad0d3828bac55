//! Wall-clock benchmark of the BaM functional stack and simulator.
//!
//! Three closed-loop workloads run from one process: `graph-miss` (BFS over
//! an edge list many times the cache: the miss path), `embed-hot-rw`
//! (Zipf lookups and updates on a cache-resident table: the hit path and
//! the journal) and `sim-tenants` (the 8-tenant antagonist run of the
//! sharded simulator). See `README.md` in this directory for what each
//! workload loads and bypasses.

pub mod embed;
pub mod engine;
pub mod graph_miss;
pub mod host;
pub mod metrics;
pub mod sim_tenants;
pub mod stack;

use std::time::{Duration, Instant};

use host::HostProbe;
use metrics::{median, quantile, Metrics, Outcome};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// BFS queries over an edge list 8-16x the cache.
    GraphMiss,
    /// Zipf lookups and updates on a table that fits in the cache.
    EmbedHotRw,
    /// The 8-tenant antagonist simulation on the sharded engine.
    SimTenants,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Self::GraphMiss, Self::EmbedHotRw, Self::SimTenants];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Self::GraphMiss => "graph-miss",
            Self::EmbedHotRw => "embed-hot-rw",
            Self::SimTenants => "sim-tenants",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `Full` is what the benchmark measures; `Tiny` keeps the
/// benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Test sizes.
    Tiny,
}

/// How one run is made.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Seed all inputs derive from.
    pub seed: u64,
    /// Wall seconds of closed-loop queries.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Cores the run may load (`nproc`).
    pub workers: usize,
}

impl RunCfg {
    /// Seconds of each measured phase. A traced run splits its time between
    /// an untraced and a traced phase, whose ratio is the tracing overhead.
    pub fn phase_seconds(&self) -> f64 {
        if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Executor workers of a functional workload on `ssds` SSDs. Each SSD's
    /// controller service thread polls a core of its own, so the executor
    /// gets the remaining cores, and at least one.
    pub fn exec_workers(&self, ssds: usize) -> usize {
        self.workers.saturating_sub(ssds).max(1)
    }

    /// Shard workers of the simulator: the spine thread that drives them
    /// holds one core, the shards get the rest, and at least one.
    pub fn sim_workers(&self) -> usize {
        self.workers.saturating_sub(1).max(1)
    }
}

/// Runs `workload` and returns what it measured. The end-to-end
/// `peak_rss_mb` is read last, after every check.
pub fn run(workload: Workload, cfg: &RunCfg) -> Outcome {
    let mut outcome = match workload {
        Workload::GraphMiss => graph_miss::run(cfg),
        Workload::EmbedHotRw => embed::run(cfg),
        Workload::SimTenants => sim_tenants::run(cfg),
    };
    outcome.metrics.set("peak_rss_mb", metrics::peak_rss_mb());
    outcome
}

/// One query's result, as the closed loop sees it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Query {
    /// Time inside the calls into the system (checks excluded).
    pub latency: Duration,
    /// Work done: edges traversed, ops, or simulated events.
    pub work: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that errored or failed a check.
    pub failed: u64,
}

/// The queries of one measured phase. Its times are raw; the methods scale
/// them to the reference host (see [`host`]).
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Per-query latency in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Per-query work per second.
    pub rates: Vec<f64>,
    /// Sum of query latencies in seconds.
    pub busy_s: f64,
    /// Probe iterations per second over the phase.
    pub host_rate: f64,
    /// [`HostProbe::time_scale`] over the phase.
    pub time_scale: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
}

impl Phase {
    /// Median over the queries of their work per second, on the reference
    /// host.
    pub fn ops_per_s(&self) -> f64 {
        metrics::ratio(median(&mut self.rates.clone()), self.time_scale)
    }

    /// Median query latency in ms, on the reference host.
    pub fn p50_ms(&self) -> f64 {
        median(&mut self.latencies_ms.clone()) * self.time_scale
    }

    /// 90th-percentile query latency in ms, on the reference host.
    pub fn p90_ms(&self) -> f64 {
        quantile(&mut self.latencies_ms.clone(), 0.9) * self.time_scale
    }

    /// Records `ops_per_s`, `query_p50_ms` and `query_p90_ms`.
    pub fn record_end_to_end(&self, m: &mut Metrics) {
        m.set("ops_per_s", self.ops_per_s());
        m.set("query_p50_ms", self.p50_ms());
        m.set("query_p90_ms", self.p90_ms());
    }
}

/// Records the queries of one phase as a closed loop issues them, running
/// host-probe slices between queries.
pub struct Recorder {
    start: Instant,
    probe: HostProbe,
    phase: Phase,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            start: Instant::now(),
            probe: HostProbe::default(),
            phase: Phase::default(),
        }
    }
}

impl Recorder {
    /// Records query `q`, then lets the probe keep up.
    pub fn record(&mut self, q: Query) {
        let phase = &mut self.phase;
        let secs = q.latency.as_secs_f64();
        phase.latencies_ms.push(secs * 1e3);
        phase.rates.push(metrics::ratio(q.work, secs));
        phase.busy_s += secs;
        phase.attempted += q.attempted;
        phase.failed += q.failed;
        self.probe.keep_up(phase.busy_s);
    }

    /// Queries recorded so far.
    pub fn queries(&self) -> usize {
        self.phase.latencies_ms.len()
    }

    /// Wall seconds since the phase began.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// The phase, with the host speed the probe saw during it.
    pub fn finish(mut self) -> Phase {
        self.phase.host_rate = self.probe.rate();
        self.phase.time_scale = self.probe.time_scale();
        self.phase
    }
}

/// Closed loop: issues query `i + 1` only after query `i` returns, until
/// `seconds` have passed and at least `min_queries` have run.
pub fn closed_loop(seconds: f64, min_queries: usize, mut query: impl FnMut() -> Query) -> Phase {
    let mut rec = Recorder::default();
    while rec.queries() < min_queries || rec.elapsed_s() < seconds {
        rec.record(query());
    }
    rec.finish()
}

/// Builds with `build` `reps` times (dropping each previous build first, so
/// its threads stop outside the timing) and returns the last build with the
/// median build time in seconds, scaled to the reference host by probe
/// slices run between the builds.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut probe = HostProbe::default();
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
        probe.keep_up(times.iter().sum());
    }
    (
        last.expect("at least one build"),
        median(&mut times) * probe.time_scale(),
    )
}

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// `--workload <name>`.
    pub workload: Workload,
    /// `--seed <n>`.
    pub seed: u64,
    /// `--seconds <n>`.
    pub seconds: f64,
    /// `--trace <0|1>`.
    pub trace: bool,
}

/// Command-line usage.
pub const USAGE: &str = "usage: perfbench --workload <graph-miss|embed-hot-rw|sim-tenants> \
                         [--seed <n>] [--seconds <n>] [--trace <0|1>]";

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`;
    /// only the workload is required (seed 1, 10 seconds, untraced).
    ///
    /// # Errors
    ///
    /// Describes the first flag or value that does not parse.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    if !(seconds > 0.0 && seconds <= 3600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// The commit of the git checkout in the working directory, or `unknown`.
pub fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(".git/HEAD");
    let commit = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(r) => read(&format!(".git/{r}")).or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(r).map(|c| c.trim().to_string()))
        }),
        None => head,
    };
    commit.unwrap_or_else(|| "unknown".into())
}

/// The run manifest as one JSON object: what was run, with which inputs,
/// on how many cores, and whether traced.
pub fn manifest_json(workload: Workload, cfg: &RunCfg, outcome: &Outcome, commit: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut fields = vec![
        ("workload", metrics::json_str(workload.name())),
        ("seed", cfg.seed.to_string()),
        ("seconds", metrics::num(cfg.seconds)),
        ("traced", cfg.traced.to_string()),
        ("nproc", nproc.to_string()),
        ("exec_workers", outcome.exec_workers.to_string()),
        ("sim_workers", outcome.sim_workers.to_string()),
        ("host_probe_rate", metrics::num(outcome.host_rate)),
        ("host_nominal_rate", metrics::num(host::NOMINAL_RATE)),
        ("commit", metrics::json_str(commit)),
    ];
    let params: Vec<String> = outcome
        .params
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", metrics::json_str(v)))
        .collect();
    fields.push(("params", format!("{{{}}}", params.join(", "))));
    let body: Vec<String> = fields
        .into_iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Everything a run prints: the manifest, one line per metric with its unit
/// (end-to-end ones always, per-layer ones when traced), `failed_frac`, and
/// last the result line, which holds the end-to-end metrics of an untraced
/// run and the per-layer metrics of a traced one.
pub fn report_lines(
    workload: Workload,
    cfg: &RunCfg,
    outcome: &Outcome,
    commit: &str,
) -> Vec<String> {
    let mut lines = vec![format!(
        "manifest {}",
        manifest_json(workload, cfg, outcome, commit)
    )];
    let mut shown = metrics::selected(&outcome.metrics, false);
    if cfg.traced {
        shown.extend(metrics::selected(&outcome.metrics, true));
    }
    for (name, value, unit) in shown {
        lines.push(format!("{name} = {value} {unit}"));
    }
    lines.push(format!(
        "failed_frac = {} ratio ({} failed of {} attempted)",
        outcome.failed_frac(),
        outcome.failed,
        outcome.attempted
    ));
    lines.push(metrics::result_json(outcome, cfg.traced));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn phase_times_are_scaled_to_the_reference_host() {
        let mut rec = Recorder::default();
        for ms in [1, 2, 3] {
            rec.record(Query {
                latency: Duration::from_millis(ms),
                work: 6.0,
                attempted: 1,
                failed: 0,
            });
        }
        let mut phase = rec.finish();
        assert!(phase.host_rate > 0.0);
        phase.time_scale = 2.0;
        assert_eq!(phase.p50_ms(), 4.0);
        assert_eq!(phase.p90_ms(), 6.0);
        // Per-query rates 6000, 3000 and 2000 per second; their median,
        // halved on a host twice as fast as the measuring one.
        assert_eq!(phase.ops_per_s(), 1500.0);
    }

    #[test]
    fn parses_the_command_line_and_rejects_bad_input() {
        let args = parse("--workload sim-tenants --seed 4 --seconds 10 --trace 1");
        let want = Args {
            workload: Workload::SimTenants,
            seed: 4,
            seconds: 10.0,
            trace: true,
        };
        assert_eq!(args, Ok(want));
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload graph-miss --trace 2",
            "--workload graph-miss --seconds 0",
            "--workload graph-miss --bogus 1",
            "--workload graph-miss --seed",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
