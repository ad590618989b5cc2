//! The three workloads: their traces, the stores they run against, and
//! one replay pass over a fresh store.

use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use gadget_bench::experiments::fig13;
use gadget_bench::{build_store, Scale, StoreInstance};
use gadget_core::{GadgetConfig, OperatorKind};
use gadget_distrib::KeyDistributionConfig;
use gadget_kv::{shard_of, BatchResult, MemStore, ShardedStore, StateStore, StoreError};
use gadget_obs::LogHistogram;
use gadget_replay::{ReplayOptions, RunReport, TraceReplayer};
use gadget_server::{drive, DriveOptions, Server, ServerConfig};
use gadget_types::{Op, Trace};

use crate::gate::{Checked, Reference};
use crate::probe::{CallTimes, FanoutProbe, Timed};

/// One operator family of the paper, replayed against the layers it
/// stresses most.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Holistic sliding window into an unsharded LSM whose state
    /// outgrows its memtable and block cache.
    WindowLsm,
    /// Rolling aggregation into a 4-shard hash-log store, in 64-op
    /// batches from 2 shard-affine threads.
    AggSharded,
    /// Continuous join over one TCP connection at a time to an
    /// in-process server.
    JoinTcp,
}

/// Distinct keys of every source (Zipf θ = 0.99 over them).
const KEYS: u64 = 100_000;
/// LSM budget divisor for `build_store`: 4 MiB memtable, 2 MiB cache.
const LSM_SHRINK: usize = 32;
/// Shards of `agg-sharded`'s store.
const SHARDS: usize = 4;
/// Replay threads of `agg-sharded`. They divide `SHARDS`, so each
/// thread owns its shards and `FanoutProbe`'s split is exact.
const REPLAY_THREADS: usize = 2;
/// Ops per `apply_batch` call in `agg-sharded`.
const BATCH: usize = 64;

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::WindowLsm, Workload::AggSharded, Workload::JoinTcp];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WindowLsm => "window-lsm",
            Workload::AggSharded => "agg-sharded",
            Workload::JoinTcp => "join-tcp",
        }
    }

    fn operator(self) -> OperatorKind {
        match self {
            Workload::WindowLsm => OperatorKind::SlidingHol,
            Workload::AggSharded => OperatorKind::Aggregation,
            Workload::JoinTcp => OperatorKind::ContinuousJoin,
        }
    }

    /// Source events of the full-size workload: a few seconds of replay
    /// on a 2-vCPU virtual machine, so a run holds several passes.
    pub fn events(self) -> u64 {
        match self {
            Workload::WindowLsm => 100_000,
            Workload::AggSharded => 1_000_000,
            Workload::JoinTcp => 100_000,
        }
    }

    /// Whether each pass runs on one CPU, the CPUs taking turns.
    ///
    /// `join-tcp` hands every request and reply between a client and
    /// two server threads. On a virtual machine each hand-off to another
    /// vCPU waits for the hypervisor to wake it, and that wait, not the
    /// program, then sets the tail: p99 read 90–5000 µs across runs on a
    /// 2-vCPU machine, against 35–70 µs with the threads on one CPU.
    /// `agg-sharded` pins each replay thread instead (`PinnedReplay`).
    pub fn single_cpu(self) -> bool {
        self == Workload::JoinTcp
    }

    /// Replay threads (or connections) the workload drives its store with.
    pub fn threads(self) -> usize {
        match self {
            Workload::AggSharded => REPLAY_THREADS,
            _ => 1,
        }
    }

    /// Generates the workload's trace: the synthetic source of the
    /// paper's store evaluation (Poisson arrivals, 256 B values) over
    /// `KEYS` keys, run through the workload's operator.
    pub fn generate(self, events: u64, seed: u64) -> Trace {
        let scale = Scale {
            events,
            ops: 0,
            seed,
            metrics: None,
            trace: None,
            batch: 1,
            reports: None,
        };
        let mut source = fig13::source(&scale, self.operator());
        source.events = events;
        source.keys = KeyDistributionConfig::Zipfian {
            n: KEYS,
            theta: 0.99,
        };
        GadgetConfig::synthetic(self.operator(), source).run()
    }
}

/// Wraps the store a pass serves, innermost first. Tests use it to
/// inject faults below the gate.
pub type Fault = fn(Arc<dyn StateStore>) -> Arc<dyn StateStore>;

/// How a pass decorates the store it serves.
#[derive(Clone, Copy, Default)]
pub struct Layers {
    /// Time the layers' calls (traced passes).
    pub probes: bool,
    /// Check every result against an inline model (the warm-up pass).
    pub check: bool,
    /// A fault to inject right above the backend.
    pub fault: Option<Fault>,
}

thread_local! {
    /// Whether `PinnedReplay` has pinned this thread.
    static PINNED: Cell<bool> = const { Cell::new(false) };
}

/// Pins each `agg-sharded` replay thread to a CPU of its own on its
/// first batch: replay thread `shard_of(key, REPLAY_THREADS)` of the
/// batch's keys runs on the CPU of that index.
///
/// The shard threads a batch starts inherit their caller's CPU, so a
/// batch never waits for a wake-up on another vCPU, while the two
/// replay threads still run side by side. With every thread free to
/// move, that wait set the tail (p99 spread 0.15–0.30 of its median
/// over ten runs); with the whole process on one CPU, that CPU's share
/// of the host, which swings about 1.5× within seconds, set every
/// timing (p50 spread up to 0.26).
struct PinnedReplay {
    inner: Arc<dyn StateStore>,
    /// The CPUs the process may run on.
    cpus: Vec<usize>,
}

impl StateStore for PinnedReplay {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.inner.get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.inner.put(key, value)
    }
    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.inner.merge(key, operand)
    }
    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.inner.delete(key)
    }
    fn supports_merge(&self) -> bool {
        self.inner.supports_merge()
    }
    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        if let Some(op) = batch.first() {
            if !PINNED.with(Cell::get) {
                let thread = shard_of(op.key(), REPLAY_THREADS);
                crate::cpu::pin(self.cpus[thread % self.cpus.len()]).map_err(StoreError::Io)?;
                PINNED.with(|p| p.set(true));
            }
        }
        self.inner.apply_batch(batch)
    }
}

/// A fresh store (and server) for one pass, removed when dropped.
pub struct Target {
    workload: Workload,
    /// What the replayer or the server calls.
    store: Arc<dyn StateStore>,
    /// What final values are read back from: the backend itself, on the
    /// server side for `join-tcp`.
    backend: Arc<dyn StateStore>,
    server: Option<Server>,
    /// Top-level store call times (LSM, or the served store).
    pub timed: Option<Arc<CallTimes>>,
    /// `ShardedStore` call times and their fan-out split.
    pub fanout: Option<Arc<FanoutProbe>>,
    checked: Option<Arc<Checked>>,
    /// Backing stores and their directories. Declared last so every
    /// handle above drops before the directories are removed.
    _instances: Vec<StoreInstance>,
}

/// What one replay measured: a chunk of a pass, or the whole pass.
pub struct Pass {
    pub report: RunReport,
    /// Wire bytes both ways (`join-tcp` only).
    pub wire_bytes: u64,
}

impl Pass {
    /// Folds the next chunk of the same pass into this one.
    pub fn absorb(&mut self, chunk: Pass) {
        let (total, part) = (&mut self.report, chunk.report);
        total.operations += part.operations;
        total.seconds += part.seconds;
        total.throughput = total.operations as f64 / total.seconds.max(f64::MIN_POSITIVE);
        total.hits += part.hits;
        total.misses += part.misses;
        total.latency_hist.merge(&part.latency_hist);
        merge_named(&mut total.per_op_hist, part.per_op_hist);
        merge_named(&mut total.decomposition, part.decomposition);
        self.wire_bytes += chunk.wire_bytes;
    }
}

fn merge_named(into: &mut Vec<(String, LogHistogram)>, from: Vec<(String, LogHistogram)>) {
    for (name, hist) in from {
        match into.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => h.merge(&hist),
            None => into.push((name, hist)),
        }
    }
}

/// Splits `trace` into `parts` consecutive chunks of equal length (the
/// last may be shorter). Replaying them in order on one store is
/// replaying the trace: every key sees its ops in the same order.
pub fn split(trace: Trace, parts: usize) -> Vec<Trace> {
    let size = trace.len().div_ceil(parts.max(1)).max(1);
    let (input_events, input_distinct_keys) = (trace.input_events, trace.input_distinct_keys);
    let mut accesses = trace.accesses.into_iter();
    let mut chunks = Vec::with_capacity(parts);
    loop {
        let chunk: Vec<_> = accesses.by_ref().take(size).collect();
        if chunk.is_empty() {
            return chunks;
        }
        chunks.push(Trace {
            accesses: chunk,
            input_events,
            input_distinct_keys,
        });
    }
}

impl Target {
    /// Opens the workload's store, wrapped as `layers` asks, and for
    /// `join-tcp` starts a server on a free loopback port.
    pub fn open(workload: Workload, layers: Layers) -> Result<Target, StoreError> {
        let mut timed = None;
        let mut fanout = None;
        let mut instances = Vec::new();
        let backend: Arc<dyn StateStore>;
        let mut store: Arc<dyn StateStore> = match workload {
            Workload::WindowLsm | Workload::JoinTcp => {
                backend = if workload == Workload::WindowLsm {
                    let inst = build_store("rocksdb-class", LSM_SHRINK);
                    let store = inst.store.clone();
                    instances.push(inst);
                    store
                } else {
                    Arc::new(MemStore::new())
                };
                if layers.probes {
                    let times = Arc::new(CallTimes::default());
                    timed = Some(times.clone());
                    Arc::new(Timed::new(backend.clone(), times, true))
                } else {
                    backend.clone()
                }
            }
            Workload::AggSharded => {
                let mut shard_times = Vec::new();
                let mut shards = Vec::new();
                for _ in 0..SHARDS {
                    let inst = build_store("faster-class", 1);
                    shards.push(if layers.probes {
                        let times = Arc::new(CallTimes::default());
                        shard_times.push(times.clone());
                        Arc::new(Timed::new(inst.store.clone(), times, false))
                            as Arc<dyn StateStore>
                    } else {
                        inst.store.clone()
                    });
                    instances.push(inst);
                }
                let sharded = Arc::new(ShardedStore::from_stores(shards)?);
                backend = sharded.clone();
                if layers.probes {
                    let probe = Arc::new(FanoutProbe::new(sharded, shard_times));
                    fanout = Some(probe.clone());
                    probe
                } else {
                    backend.clone()
                }
            }
        };
        if let Some(fault) = layers.fault {
            store = fault(store);
        }
        let mut checked = None;
        if layers.check {
            let c = Arc::new(Checked::new(store));
            checked = Some(c.clone());
            store = c;
        }
        if workload == Workload::AggSharded {
            let cpus = crate::cpu::allowed().map_err(StoreError::Io)?;
            store = Arc::new(PinnedReplay { inner: store, cpus });
        }
        let server = match workload {
            Workload::JoinTcp => Some(Server::start(
                "127.0.0.1:0",
                store.clone(),
                ServerConfig::default(),
            )?),
            _ => None,
        };
        Ok(Target {
            workload,
            store,
            backend,
            server,
            timed,
            fanout,
            checked,
            _instances: instances,
        })
    }

    /// Replays `trace`, a whole trace or one chunk of it, once.
    /// `client_trace` arms the TCP client's per-request latency
    /// decomposition.
    pub fn replay(&self, trace: &Trace, client_trace: bool) -> Result<Pass, StoreError> {
        let name = self.workload.name();
        match &self.server {
            None => {
                let options = ReplayOptions {
                    batch_size: if self.workload == Workload::AggSharded {
                        BATCH
                    } else {
                        1
                    },
                    replay_threads: self.workload.threads(),
                    ..ReplayOptions::default()
                };
                let report =
                    TraceReplayer::new(options).replay(trace, self.store.as_ref(), name)?;
                Ok(Pass {
                    report,
                    wire_bytes: 0,
                })
            }
            Some(server) => {
                let options = DriveOptions {
                    connections: 1,
                    client_trace,
                    ..DriveOptions::default()
                };
                let summary = drive(&server.local_addr().to_string(), trace, name, &options)?;
                Ok(Pass {
                    report: summary.report,
                    wire_bytes: summary.bytes_in + summary.bytes_out,
                })
            }
        }
    }

    /// Results of the last pass that disagree with `reference`,
    /// including those the warm-up's inline model caught.
    pub fn mismatches(&self, reference: &Reference, report: &RunReport) -> Result<u64, StoreError> {
        let checked = self.checked.as_ref().map_or(0, |c| c.mismatches());
        Ok(checked + reference.mismatches(report.hits, report.misses, self.backend.as_ref())?)
    }

    /// The backend's own metrics (the LSM's, for `window-lsm`).
    pub fn backend_metrics(&self) -> gadget_obs::MetricsSnapshot {
        self.backend.metrics().unwrap_or_default()
    }

    /// Stops the server, if any, waiting for its connections to drain.
    pub fn close(mut self) -> Result<(), StoreError> {
        match self.server.take() {
            Some(server) => server.stop(),
            None => Ok(()),
        }
    }
}

impl Drop for Target {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            let _ = server.stop();
        }
    }
}
