//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <window-lsm|agg-sharded|join-tcp> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One run generates the workload's trace from the seed, replays it
//! once untimed against a `MemStore` reference model, replays it once
//! more as a checked warm-up, then replays it on a fresh store per pass,
//! at least five times and until `--seconds` of replay have been
//! measured. A pass replays the trace as consecutive chunks, each timed
//! on its own. Every pass is gated against the reference. The last line
//! of standard output is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics`, the end-to-end metrics with `--trace 0` and
//! the per-layer ones with `--trace 1`. The exit code is 0 only when
//! every pass was correct. See `perfbench/README.md` for the workloads
//! and metrics.

mod cpu;
mod gate;
mod probe;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;

use gadget_kv::StoreError;
use gadget_obs::trace::{self, Category, TraceLog};
use gadget_obs::{LogHistogram, MetricsSnapshot};
use gadget_replay::RunReport;
use gadget_types::{OpType, Trace};

use gate::Reference;
use probe::{phase_id, ratio, Call};
use stats::{mean, median, percentile_us, total_seconds};
use workload::{split, Fault, Layers, Pass, Target, Workload};

const USAGE: &str = "usage: perfbench --workload <window-lsm|agg-sharded|join-tcp> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Where runs keep store directories and the traced run's Perfetto
/// file, relative to the directory the benchmark runs from.
const OUT_DIR: &str = ".perfbench_out";

/// Timed passes of an untraced run, at least.
const MIN_TIMED_PASSES: usize = 5;

/// Consecutive chunks a pass replays its trace in. The end-to-end
/// timings are taken over the chunks the hypervisor stole least from,
/// so a second of steal spoils one chunk, not a whole pass.
const CHUNKS_PER_PASS: usize = 16;

/// What one run does.
#[derive(Clone, Copy)]
struct Config {
    workload: Workload,
    /// Source events; `Workload::events` except in tests.
    events: u64,
    seed: u64,
    /// Replay time to measure, summed over timed passes.
    seconds: f64,
    /// Run the per-layer probes and a trace session (`--trace 1`).
    traced: bool,
    fault: Option<Fault>,
    /// CPUs the process may run on, read before it pins itself to one.
    nproc: usize,
}

/// One named metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// One JSON object recording the inputs and host of the run.
    provenance: String,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Ops attempted and ops that failed or disagreed with the reference.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Gates one replay: a store error fails every op of the pass, and
    /// each result that disagrees with the reference fails one op.
    fn gate(
        &mut self,
        target: &Target,
        ops: u64,
        reference: &Reference,
        replay: Result<Pass, StoreError>,
    ) -> Option<Pass> {
        self.attempted += ops;
        let checked = replay.and_then(|pass| {
            let _span = trace::span(Category::Phase, phase_id::VERIFY);
            let bad = target.mismatches(reference, &pass.report)?;
            Ok((pass, bad))
        });
        match checked {
            Ok((pass, bad)) => {
                let unacked = ops.saturating_sub(pass.report.operations);
                if bad + unacked > 0 {
                    eprintln!(
                        "perfbench: {} results disagree with the reference, {unacked} ops unacknowledged",
                        bad
                    );
                }
                self.failed += (bad + unacked).min(ops);
                Some(pass)
            }
            Err(e) => {
                eprintln!("perfbench: store error: {e}");
                self.failed += ops;
                None
            }
        }
    }
}

/// FNV-1a over every access of the trace.
fn digest(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for a in trace.iter() {
        eat(&[a.op as u8]);
        eat(&a.key.encode());
        eat(&a.value_size.to_le_bytes());
        eat(&a.ts.to_le_bytes());
    }
    h
}

/// Key and value bytes the trace asks the store to write.
fn user_bytes(trace: &Trace) -> f64 {
    trace
        .iter()
        .map(|a| match a.op {
            OpType::Get => 0,
            OpType::Delete => 16,
            OpType::Put | OpType::Merge => 16 + a.value_size as u64,
        })
        .sum::<u64>() as f64
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Host CPU ticks: (stolen by the hypervisor, all), from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; the guest fields
    // after them are already counted in user and nice.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Starts a new peak-memory window: returns the allocator's free pages
/// to the system, so memory a finished pass freed does not count, and
/// resets the kernel's peak resident set (`VmHWM`) to the current one.
fn reset_peak_rss() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers and only releases memory
    // the allocator holds free.
    unsafe { malloc_trim(0) };
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The histogram called `name` in a report's per-op or segment list.
fn named<'a>(list: &'a [(String, LogHistogram)], name: &str) -> Option<&'a LogHistogram> {
    list.iter().find(|(n, _)| n == name).map(|(_, h)| h)
}

/// What one timed chunk contributes to the end-to-end metrics.
struct Sample {
    /// Share of the host's CPU time the hypervisor stole during the chunk.
    steal: f64,
    ops: u64,
    seconds: f64,
    all: LogHistogram,
    reads: LogHistogram,
    writes: LogHistogram,
}

impl Sample {
    fn of(report: &RunReport, steal: f64) -> Sample {
        let mut writes = LogHistogram::new();
        for op in ["put", "merge", "delete"] {
            if let Some(h) = named(&report.per_op_hist, op) {
                writes.merge(h);
            }
        }
        Sample {
            steal,
            ops: report.operations,
            seconds: report.seconds,
            all: report.latency_hist.clone(),
            reads: named(&report.per_op_hist, "get")
                .cloned()
                .unwrap_or_default(),
            writes,
        }
    }
}

/// The end-to-end timings over `chunks`: throughput and latency
/// percentiles over their pooled ops.
///
/// Pooling, not a median over the chunks, keeps the timings steady: on
/// a shared 2-vCPU machine a chunk runs in one of two regimes about
/// 1.5× apart (`join-tcp` p50 ≈16 or ≈25 µs), and the percentiles of
/// the pooled ops move smoothly with the share of slow chunks where a
/// median over chunks jumps between the two.
fn end_to_end(chunks: &[Sample]) -> Vec<Metric> {
    let mut pooled = (
        LogHistogram::new(),
        LogHistogram::new(),
        LogHistogram::new(),
    );
    for c in chunks {
        pooled.0.merge(&c.all);
        pooled.1.merge(&c.reads);
        pooled.2.merge(&c.writes);
    }
    let ops: u64 = chunks.iter().map(|c| c.ops).sum();
    let seconds: f64 = chunks.iter().map(|c| c.seconds).sum();
    vec![
        metric("throughput_ops_s", "ops/s", ratio(ops as f64, seconds)),
        metric("p50_us", "us", percentile_us(&pooled.0, 50.0)),
        metric("p99_us", "us", percentile_us(&pooled.0, 99.0)),
        metric("read_p99_us", "us", percentile_us(&pooled.1, 99.0)),
        metric("write_p99_us", "us", percentile_us(&pooled.2, 99.0)),
    ]
}

/// Replays a pass's `chunks` in order on `target`: the whole pass, and
/// one sample per chunk.
fn replay_pass(
    target: &Target,
    chunks: &[Trace],
    client_trace: bool,
) -> Result<(Pass, Vec<Sample>), StoreError> {
    let mut pass: Option<Pass> = None;
    let mut samples = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let before = cpu_ticks();
        let part = target.replay(chunk, client_trace)?;
        let after = cpu_ticks();
        let steal = ratio((after.0 - before.0) as f64, (after.1 - before.1) as f64);
        samples.push(Sample::of(&part.report, steal));
        match &mut pass {
            Some(pass) => pass.absorb(part),
            None => pass = Some(part),
        }
    }
    let pass = pass.ok_or_else(|| StoreError::Config("the trace is empty".to_string()))?;
    Ok((pass, samples))
}

/// Per-layer metric names and units, in output order. Every name is
/// reported on every workload; a layer a workload bypasses reads 0.
const LAYER_METRICS: [(&str, &str); 30] = [
    ("core.generate_s", "s"),
    ("core.accesses", "count"),
    ("replay.self_s", "s"),
    ("replay.store_calls", "count"),
    ("replay.op_s", "s"),
    ("replay.p999_us", "us"),
    ("kv.sharded.apply_s", "s"),
    ("kv.sharded.fanout_s", "s"),
    ("kv.sharded.shards_per_batch", "count"),
    ("kv.sharded.skew", "ratio"),
    ("hashlog.apply_s", "s"),
    ("lsm.get_s", "s"),
    ("lsm.merge_s", "s"),
    ("lsm.delete_s", "s"),
    ("lsm.flushes", "count"),
    ("lsm.compactions", "count"),
    ("lsm.write_stalls", "count"),
    ("lsm.flush_s", "s"),
    ("lsm.compaction_s", "s"),
    ("lsm.write_amp", "ratio"),
    ("lsm.block_cache_hit_ratio", "ratio"),
    ("server.store_s", "s"),
    ("server.client_queue_us", "us"),
    ("server.outbound_us", "us"),
    ("server.service_us", "us"),
    ("server.return_path_us", "us"),
    ("server.bytes_per_op", "B/op"),
    ("trace.overhead_frac", "ratio"),
    ("trace.spans_dropped", "count"),
    ("trace.passes", "count"),
];

/// Per-layer figures of one traced pass, keyed like `LAYER_METRICS`.
fn layer_sample(
    workload: Workload,
    target: &Target,
    pass: &Pass,
    snap: &MetricsSnapshot,
    log: &TraceLog,
    user_bytes: f64,
) -> Vec<(&'static str, f64)> {
    let report = &pass.report;
    let mut out = vec![
        ("core.accesses", report.operations as f64),
        ("replay.p999_us", percentile_us(&report.latency_hist, 99.9)),
        (
            "replay.op_s",
            report
                .per_op_hist
                .iter()
                .map(|(_, h)| total_seconds(h))
                .sum(),
        ),
        ("trace.spans_dropped", log.dropped as f64),
    ];
    // Busy time of `count` background jobs of one category. A job that
    // reads blocks leaves a cache-fill span per block on the same ring,
    // which can overwrite older job spans; the mean over the spans kept
    // then stands in for the lost ones.
    let job_seconds = |cat: Category, count: f64| {
        let durations: Vec<f64> = log.spans_of(cat).map(|s| s.dur_ns as f64 / 1e9).collect();
        mean(&durations) * count
    };
    match workload {
        Workload::WindowLsm => {
            let times = target.timed.as_ref().expect("traced pass has probes");
            let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
            let compactions = counter("compactions_l0")
                + counter("compactions_size")
                + counter("compactions_lethe");
            out.extend([
                ("replay.self_s", report.seconds - times.total_seconds()),
                ("replay.store_calls", times.calls() as f64),
                ("lsm.get_s", times.seconds(Call::Get)),
                ("lsm.merge_s", times.seconds(Call::Merge)),
                ("lsm.delete_s", times.seconds(Call::Delete)),
                ("lsm.flushes", counter("flushes")),
                ("lsm.compactions", compactions),
                ("lsm.write_stalls", counter("write_stalls")),
                (
                    "lsm.flush_s",
                    job_seconds(Category::Flush, counter("flushes")),
                ),
                (
                    "lsm.compaction_s",
                    job_seconds(Category::Compaction, compactions),
                ),
                (
                    "lsm.write_amp",
                    ratio(
                        counter("wal_bytes")
                            + counter("flush_bytes_written")
                            + counter("compaction_bytes_written"),
                        user_bytes,
                    ),
                ),
                (
                    "lsm.block_cache_hit_ratio",
                    ratio(
                        counter("block_cache_hits"),
                        counter("block_cache_hits") + counter("block_cache_misses"),
                    ),
                ),
            ]);
        }
        Workload::AggSharded => {
            let probe = target.fanout.as_ref().expect("traced pass has probes");
            out.extend([
                (
                    "replay.self_s",
                    report.seconds * workload.threads() as f64 - probe.times.total_seconds(),
                ),
                ("replay.store_calls", probe.times.calls() as f64),
                ("kv.sharded.apply_s", probe.times.seconds(Call::Batch)),
                ("kv.sharded.fanout_s", probe.fanout_seconds()),
                ("kv.sharded.shards_per_batch", probe.shards_per_batch()),
                ("kv.sharded.skew", probe.skew()),
                ("hashlog.apply_s", probe.shard_seconds()),
            ]);
        }
        Workload::JoinTcp => {
            let times = target.timed.as_ref().expect("traced pass has probes");
            let segment = |name: &str| named(&report.decomposition, name);
            let end_to_end = segment("end_to_end");
            let seg_p50 = |name: &str| segment(name).map_or(0.0, |h| percentile_us(h, 50.0));
            out.extend([
                (
                    "replay.self_s",
                    report.seconds - end_to_end.map_or(0.0, total_seconds),
                ),
                (
                    "replay.store_calls",
                    end_to_end.map_or(0.0, |h| h.count() as f64),
                ),
                ("server.store_s", times.total_seconds()),
                ("server.client_queue_us", seg_p50("client_queue")),
                ("server.outbound_us", seg_p50("outbound")),
                ("server.service_us", seg_p50("service")),
                ("server.return_path_us", seg_p50("return_path")),
                (
                    "server.bytes_per_op",
                    ratio(pass.wire_bytes as f64, report.operations as f64),
                ),
            ]);
        }
    }
    out
}

/// Folds several traced passes' logs into one timeline.
fn merge_logs(logs: Vec<TraceLog>) -> Option<TraceLog> {
    let mut iter = logs.into_iter();
    let mut merged = iter.next()?;
    for log in iter {
        merged.events.extend(log.events);
        for thread in log.threads {
            if !merged.threads.contains(&thread) {
                merged.threads.push(thread);
            }
        }
        merged.dropped += log.dropped;
        merged.session_end_ns = log.session_end_ns;
    }
    merged.events.sort_by_key(|e| (e.start_ns, e.tid));
    Some(merged)
}

/// Runs one workload as `cfg` says. Errors are set-up failures (a store
/// that cannot open); store errors during a pass fail the pass instead.
fn run(cfg: &Config, out_dir: &Path) -> Result<Outcome, StoreError> {
    let workload = cfg.workload;
    // A pass of a `single_cpu` workload starts on the next CPU in turn,
    // and the threads it starts (server, connections, client) inherit
    // it: no op crosses vCPUs, and a run still samples every CPU's
    // share of the host, which moves on its own by about 1.5×.
    let cpus = cpu::allowed().map_err(StoreError::Io)?;
    let mut passes = 0;
    let mut place = || -> Result<(), StoreError> {
        if workload.single_cpu() {
            cpu::pin(cpus[passes % cpus.len()]).map_err(StoreError::Io)?;
        }
        passes += 1;
        Ok(())
    };
    let mut tally = Tally::default();
    let mut generate_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut loads = Vec::new();
    let mut steals = Vec::new();

    // The first set-up: trace, reference, and a checked warm-up pass
    // that pays connection set-up and page-cache fill before timing.
    let gen = || {
        let _span = trace::span(Category::Phase, phase_id::GENERATE);
        workload.generate(cfg.events, cfg.seed)
    };
    let open = |layers: Layers| {
        let _span = trace::span(Category::Phase, phase_id::OPEN);
        Target::open(
            workload,
            Layers {
                fault: cfg.fault,
                ..layers
            },
        )
    };
    place()?;
    let (trace, g) = timed(gen);
    let trace_digest = digest(&trace);
    let trace_ops = trace.len() as u64;
    let user_bytes = user_bytes(&trace);
    let reference = Reference::compute(&trace)?;
    let chunks = split(trace, CHUNKS_PER_PASS);
    let (target, o) = timed(|| {
        open(Layers {
            check: true,
            ..Layers::default()
        })
    });
    let target = target?;
    generate_s.push(g);
    setup_s.push(g + o);
    loads.push(loadavg());
    let replay = replay_pass(&target, &chunks, false).map(|(pass, _)| pass);
    tally.gate(&target, trace_ops, &reference, replay);
    target.close()?;
    drop(chunks);

    // Timed passes, each on a fresh store over a freshly generated
    // trace. Traced runs alternate untraced and traced passes so the
    // tracing overhead is measured within one run.
    let kinds: &[bool] = if cfg.traced { &[false, true] } else { &[false] };
    let mut untraced: Vec<Sample> = Vec::new();
    let mut untraced_tput = Vec::new();
    let mut rss = Vec::new();
    let mut traced_tput = Vec::new();
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut logs = Vec::new();
    let mut measured = 0.0;
    let min_passes = if cfg.traced { 1 } else { MIN_TIMED_PASSES };
    while tally.failed == 0 && (untraced_tput.len() < min_passes || measured < cfg.seconds) {
        for &probes in kinds {
            place()?;
            loads.push(loadavg());
            let session = probes.then(trace::start_session);
            let (trace, g) = timed(gen);
            if digest(&trace) != trace_digest {
                eprintln!("perfbench: the generator produced a different trace for the same seed");
                tally.attempted += trace.len() as u64;
                tally.failed += trace.len() as u64;
                break;
            }
            let chunks = split(trace, CHUNKS_PER_PASS);
            let (target, o) = timed(|| {
                open(Layers {
                    probes,
                    ..Layers::default()
                })
            });
            let target = target?;
            generate_s.push(g);
            setup_s.push(g + o);
            reset_peak_rss();
            let ticks = cpu_ticks();
            let replay = replay_pass(&target, &chunks, probes);
            let after = cpu_ticks();
            let rss_mb = peak_rss_mb();
            let steal = ratio((after.0 - ticks.0) as f64, (after.1 - ticks.1) as f64);
            steals.push(format!("{steal:.4}"));
            // Read before the gate's read-back moves the backend's counters.
            let snapshot = target.backend_metrics();
            let (replay, chunk_samples) = match replay {
                Ok((pass, samples)) => (Ok(pass), samples),
                Err(e) => (Err(e), Vec::new()),
            };
            let pass = tally.gate(&target, trace_ops, &reference, replay);
            let log = session.map(|s| s.finish());
            if let Some(pass) = &pass {
                let r = &pass.report;
                eprintln!(
                    "perfbench: pass {}{}: {:.1} s, {:.0} ops/s, p50 {:.2} us, p99 {:.2} us, \
                     {rss_mb:.1} MiB, steal {:.3}",
                    untraced_tput.len() + traced_tput.len() + 1,
                    if probes { " (traced)" } else { "" },
                    r.seconds,
                    r.throughput,
                    percentile_us(&r.latency_hist, 50.0),
                    percentile_us(&r.latency_hist, 99.0),
                    steal,
                );
                measured += r.seconds;
                match &log {
                    Some(log) => {
                        traced_tput.push(r.throughput);
                        samples.push(layer_sample(
                            workload, &target, pass, &snapshot, log, user_bytes,
                        ));
                    }
                    None => {
                        untraced_tput.push(r.throughput);
                        rss.push(rss_mb);
                        untraced.extend(chunk_samples);
                    }
                }
            }
            logs.extend(log);
            target.close()?;
        }
    }

    let metrics = if cfg.traced {
        let mut run_level = vec![
            ("core.generate_s", median(&generate_s)),
            (
                "trace.overhead_frac",
                1.0 - ratio(median(&traced_tput), median(&untraced_tput)),
            ),
            ("trace.passes", samples.len() as f64),
        ];
        let merged = merge_logs(logs);
        if let Some(log) = &merged {
            std::fs::create_dir_all(out_dir)?;
            let path = out_dir.join(format!(
                "{}-seed{}.perfetto.json",
                workload.name(),
                cfg.seed
            ));
            log.write_chrome(&path)?;
            eprintln!("perfbench: wrote {}", path.display());
        }
        run_level.extend(sample_means(&samples));
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = run_level
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v);
                metric(name, unit, value)
            })
            .collect()
    } else {
        let mut metrics = end_to_end(least_disturbed(&mut untraced));
        metrics.push(metric("setup_s", "s", median(&setup_s)));
        metrics.push(metric("peak_rss_mb", "MiB", median(&rss)));
        metrics.push(metric(
            "acked_frac",
            "ratio",
            1.0 - ratio(tally.failed as f64, tally.attempted as f64),
        ));
        metrics
    };

    let meta = gadget_report::capture("");
    let loads: Vec<String> = loads.iter().map(|l| format!("\"{l}\"")).collect();
    let provenance = format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \
         \"git_sha\": \"{}\", \"git_describe\": \"{}\", \"nproc\": {}, \
         \"trace_digest\": \"{trace_digest:016x}\", \"trace_ops\": {trace_ops}, \
         \"timed_passes\": {}, \"chunks_per_pass\": {CHUNKS_PER_PASS}, \
         \"loadavg_before_each_pass\": [{}], \
         \"steal_during_each_timed_pass\": [{}]}}}}",
        workload.name(),
        cfg.seed,
        cfg.traced,
        meta.git_sha,
        meta.git_describe,
        cfg.nproc,
        untraced_tput.len() + traced_tput.len(),
        loads.join(", "),
        steals.join(", ")
    );
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        provenance,
    })
}

/// Steal share below which a pass counts as undisturbed.
const QUIET_STEAL: f64 = 0.02;

/// The chunks the end-to-end timings are taken from: every chunk that
/// lost less than `QUIET_STEAL` of the CPU to the hypervisor, and at
/// least the `n / 2 + 1` of `n` that lost the least.
///
/// On a shared virtual machine, stolen time stalls the replay and the
/// server threads alike and moves every timing of the chunk, the tail
/// most: at a quarter of the CPU stolen, `join-tcp`'s p99 grows more
/// than tenfold. Steal is outside the program, so the chunks it hit
/// least measure the program best.
fn least_disturbed(chunks: &mut [Sample]) -> &[Sample] {
    chunks.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    let quiet = chunks.iter().filter(|c| c.steal < QUIET_STEAL).count();
    let keep = quiet.max(chunks.len() / 2 + 1).min(chunks.len());
    &chunks[..keep]
}

/// Mean of each per-layer figure over the traced passes.
fn sample_means(samples: &[Vec<(&'static str, f64)>]) -> Vec<(&'static str, f64)> {
    let Some(first) = samples.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|&(name, _)| {
            let values: Vec<f64> = samples
                .iter()
                .filter_map(|s| s.iter().find(|(n, _)| *n == name).map(|(_, v)| *v))
                .collect();
            (name, mean(&values))
        })
        .collect()
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u32>()
                        .ok()
                        .filter(|s| *s > 0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config {
        workload,
        events: workload.events(),
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")? as f64,
        traced: traced.ok_or("--trace is required")?,
        fault: None,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Store directories go under a directory of the run's own, inside
    // the directory the benchmark runs from; `build_store` places them
    // under the temp dir. Set before any thread starts.
    let out_dir = PathBuf::from(OUT_DIR);
    let run_dir = out_dir.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        std::process::exit(1);
    }
    let run_dir = run_dir.canonicalize().unwrap_or(run_dir);
    std::env::set_var("TMPDIR", &run_dir);

    let outcome = run(&cfg, &out_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    match outcome {
        Ok(outcome) => {
            for m in &outcome.metrics {
                eprintln!("{:>28} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{}", outcome.provenance);
            println!("{}", outcome.result_json());
            std::process::exit(if outcome.correct() { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    use bytes::Bytes;
    use gadget_kv::{BatchResult, StateStore};
    use gadget_types::Op;

    /// Acknowledges every write but silently loses the first one.
    struct DropFirstWrite {
        inner: Arc<dyn StateStore>,
        dropped: AtomicBool,
    }

    impl DropFirstWrite {
        fn wrap(inner: Arc<dyn StateStore>) -> Arc<dyn StateStore> {
            Arc::new(DropFirstWrite {
                inner,
                dropped: AtomicBool::new(false),
            })
        }

        fn drop_this(&self) -> bool {
            !self.dropped.swap(true, Ordering::SeqCst)
        }
    }

    impl StateStore for DropFirstWrite {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
            self.inner.get(key)
        }
        fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
            if self.drop_this() {
                return Ok(());
            }
            self.inner.put(key, value)
        }
        fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
            if self.drop_this() {
                return Ok(());
            }
            self.inner.merge(key, operand)
        }
        fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
            self.inner.delete(key)
        }
        fn supports_merge(&self) -> bool {
            self.inner.supports_merge()
        }
        fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
            let first_write = batch
                .iter()
                .position(|op| matches!(op, Op::Put { .. } | Op::Merge { .. }));
            match first_write {
                Some(i) if self.drop_this() => {
                    let kept: Vec<Op> = batch
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, op)| op.clone())
                        .collect();
                    let mut results = self.inner.apply_batch(&kept)?;
                    results.insert(i, BatchResult::Applied);
                    Ok(results)
                }
                _ => self.inner.apply_batch(batch),
            }
        }
    }

    fn small(workload: Workload, fault: Option<Fault>, traced: bool) -> Outcome {
        // One directory per call: tests run in parallel, and each
        // removes its directory when it ends.
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let out = std::env::temp_dir().join(format!(
            "perfbench-test-{}-{}",
            std::process::id(),
            CALLS.fetch_add(1, Ordering::SeqCst)
        ));
        let cfg = Config {
            workload,
            events: 3_000,
            seed: 7,
            seconds: 0.0,
            traced,
            fault,
            nproc: 1,
        };
        let outcome = run(&cfg, &out).expect("set-up succeeds");
        let _ = std::fs::remove_dir_all(&out);
        outcome
    }

    #[test]
    fn clean_runs_pass_the_gate() {
        for workload in Workload::ALL {
            let outcome = small(workload, None, false);
            assert!(outcome.correct(), "{}", workload.name());
            assert!(outcome.attempted > 0);
            let json = outcome.result_json();
            for name in [
                "throughput_ops_s",
                "p50_us",
                "p99_us",
                "read_p99_us",
                "write_p99_us",
                "setup_s",
                "peak_rss_mb",
                "acked_frac",
            ] {
                assert!(json.contains(&format!("\"{name}\"")), "{name} in {json}");
            }
        }
    }

    #[test]
    fn a_silently_dropped_write_fails_the_gate() {
        for workload in Workload::ALL {
            let outcome = small(workload, Some(DropFirstWrite::wrap), false);
            assert!(
                !outcome.correct(),
                "{} passed with a lost write",
                workload.name()
            );
            assert!(outcome.result_json().starts_with("{\"correct\": false"));
        }
    }

    #[test]
    fn traced_runs_report_every_layer_metric() {
        for workload in Workload::ALL {
            let outcome = small(workload, None, true);
            assert!(outcome.correct(), "{}", workload.name());
            let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
            assert_eq!(names, expected);
            let value = |name: &str| {
                outcome
                    .metrics
                    .iter()
                    .find(|m| m.name == name)
                    .map(|m| m.value)
                    .unwrap()
            };
            let fanout = value("kv.sharded.fanout_s");
            if workload == Workload::AggSharded {
                assert!(fanout > 0.0);
            } else {
                assert_eq!(fanout, 0.0);
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let cfg = parse_args(&args("--workload join-tcp --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(cfg.workload, Workload::JoinTcp);
        assert!(cfg.traced);
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 0",
            "--workload join-tcp --seed x --seconds 10 --trace 0",
            "--workload join-tcp --seed 3 --seconds 0 --trace 0",
            "--workload join-tcp --seed 3 --seconds 10 --trace 2",
            "--workload join-tcp --seed 3 --seconds 10",
            "--workload join-tcp --seed 3 --seconds 10 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
