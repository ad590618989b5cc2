//! Benchmark-owned timing wrappers around the layers' public calls.
//!
//! The layers are measured from outside: each probe is a `StateStore`
//! that forwards to the layer it wraps and adds the time spent inside
//! each call to relaxed atomic counters. Probes sit in the store chain
//! only during traced passes, so untraced (end-to-end) passes run the
//! layers unwrapped.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use gadget_kv::{BatchResult, ShardedStore, StateStore, StoreError};
use gadget_obs::trace::{self, Category};
use gadget_obs::MetricsSnapshot;
use gadget_types::Op;

/// Call kinds a probe times separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    Get = 0,
    Put = 1,
    Merge = 2,
    Delete = 3,
    Batch = 4,
}

/// Busy time and call counts of one wrapped store.
#[derive(Debug, Default)]
pub struct CallTimes {
    ns: [AtomicU64; 5],
    calls: [AtomicU64; 5],
    /// Operations carried by batch calls.
    batch_ops: AtomicU64,
}

impl CallTimes {
    /// Adds one call of `ns` nanoseconds; returns the calls of its kind
    /// before it.
    fn add(&self, call: Call, ns: u64) -> u64 {
        self.ns[call as usize].fetch_add(ns, Ordering::Relaxed);
        self.calls[call as usize].fetch_add(1, Ordering::Relaxed)
    }

    fn add_batch(&self, ns: u64, ops: u64) -> u64 {
        self.batch_ops.fetch_add(ops, Ordering::Relaxed);
        self.add(Call::Batch, ns)
    }

    /// Seconds spent inside calls of `call`'s kind.
    pub fn seconds(&self, call: Call) -> f64 {
        self.ns(call) as f64 / 1e9
    }

    fn ns(&self, call: Call) -> u64 {
        self.ns[call as usize].load(Ordering::Relaxed)
    }

    /// Seconds spent inside any call.
    pub fn total_seconds(&self) -> f64 {
        self.ns
            .iter()
            .map(|n| n.load(Ordering::Relaxed))
            .sum::<u64>() as f64
            / 1e9
    }

    /// Calls of any kind.
    pub fn calls(&self) -> u64 {
        self.calls.iter().map(|n| n.load(Ordering::Relaxed)).sum()
    }

    /// Operations carried by batch calls.
    pub fn batch_ops(&self) -> u64 {
        self.batch_ops.load(Ordering::Relaxed)
    }
}

/// Records one span in every `SPAN_EVERY` probe calls: a span per call
/// would overwrite the per-thread trace rings many times over a pass.
const SPAN_EVERY: u64 = 1024;

/// Phase-span ids the benchmark uses for its own spans (the library's
/// own phases use 0..=3).
pub mod phase_id {
    /// `GadgetConfig::run`.
    pub const GENERATE: u64 = 100;
    /// Store open and server start.
    pub const OPEN: u64 = 101;
    /// Final-value read-back against the reference model.
    pub const VERIFY: u64 = 102;
    /// One sampled outer `ShardedStore::apply_batch` call.
    pub const SHARDED_BATCH: u64 = 110;
    /// One sampled `apply_batch` call into a wrapped store.
    pub const STORE_BATCH: u64 = 111;
}

/// The span a sampled call of `call`'s kind leaves: category and argument.
fn span_of(call: Call) -> (Category, u64) {
    match call {
        Call::Get => (Category::OpGet, 0),
        Call::Put => (Category::OpPut, 0),
        Call::Merge => (Category::OpMerge, 0),
        Call::Delete => (Category::OpDelete, 0),
        Call::Batch => (Category::Phase, phase_id::STORE_BATCH),
    }
}

/// Times every call into `inner`.
pub struct Timed {
    inner: Arc<dyn StateStore>,
    times: Arc<CallTimes>,
    /// Whether sampled calls also leave a span. Off for stores called
    /// from `ShardedStore`'s per-batch threads: each new thread that
    /// records a span registers a trace ring that lives until exit.
    spans: bool,
}

impl Timed {
    pub fn new(inner: Arc<dyn StateStore>, times: Arc<CallTimes>, spans: bool) -> Timed {
        Timed {
            inner,
            times,
            spans,
        }
    }

    fn time<T>(&self, call: Call, ops: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let before = if call == Call::Batch {
            self.times.add_batch(ns, ops)
        } else {
            self.times.add(call, ns)
        };
        if self.spans && before.is_multiple_of(SPAN_EVERY) {
            let (category, arg) = span_of(call);
            trace::record_ending_now(category, arg, ns);
        }
        out
    }
}

impl StateStore for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.time(Call::Get, 1, || self.inner.get(key))
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.time(Call::Put, 1, || self.inner.put(key, value))
    }
    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.time(Call::Merge, 1, || self.inner.merge(key, operand))
    }
    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.time(Call::Delete, 1, || self.inner.delete(key))
    }
    fn supports_merge(&self) -> bool {
        self.inner.supports_merge()
    }
    fn flush(&self) -> Result<(), StoreError> {
        self.inner.flush()
    }
    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        self.time(Call::Batch, batch.len() as u64, || {
            self.inner.apply_batch(batch)
        })
    }
    fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner.metrics()
    }
    fn internal_counters(&self) -> Vec<(String, u64)> {
        self.inner.internal_counters()
    }
}

/// Times `ShardedStore::apply_batch` and splits each call into the
/// slowest inner shard call and the rest: routing, thread fan-out and
/// result stitching.
///
/// The split reads the inner shards' [`CallTimes`] before and after
/// the outer call, so it is exact only while no other thread calls the
/// same shards at the same time. Shard-affine replay gives that: with
/// `t` threads and `n` shards, `t` dividing `n`, thread `i` only sends
/// keys of shards `s` with `s % t == i`.
pub struct FanoutProbe {
    sharded: Arc<ShardedStore>,
    shard_times: Vec<Arc<CallTimes>>,
    /// Outer call times.
    pub times: CallTimes,
    fanout_ns: AtomicU64,
    shard_calls: AtomicU64,
}

impl FanoutProbe {
    pub fn new(sharded: Arc<ShardedStore>, shard_times: Vec<Arc<CallTimes>>) -> FanoutProbe {
        FanoutProbe {
            sharded,
            shard_times,
            times: CallTimes::default(),
            fanout_ns: AtomicU64::new(0),
            shard_calls: AtomicU64::new(0),
        }
    }

    /// Σ (outer call − slowest inner shard call), in seconds.
    pub fn fanout_seconds(&self) -> f64 {
        self.fanout_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Inner shard calls per outer batch.
    pub fn shards_per_batch(&self) -> f64 {
        let batches = self.times.calls[Call::Batch as usize].load(Ordering::Relaxed);
        ratio(
            self.shard_calls.load(Ordering::Relaxed) as f64,
            batches as f64,
        )
    }

    /// Max ÷ mean operations per shard, over batch calls: the gate's
    /// read-back reaches the shards one `get` at a time.
    pub fn skew(&self) -> f64 {
        let ops: Vec<f64> = self
            .shard_times
            .iter()
            .map(|t| t.batch_ops() as f64)
            .collect();
        let mean = ops.iter().sum::<f64>() / ops.len().max(1) as f64;
        ratio(ops.iter().cloned().fold(0.0, f64::max), mean)
    }

    /// Σ inner shard `apply_batch` time, in seconds.
    pub fn shard_seconds(&self) -> f64 {
        self.shard_times
            .iter()
            .map(|t| t.seconds(Call::Batch))
            .sum()
    }

    fn single<T>(&self, call: Call, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.times.add(call, start.elapsed().as_nanos() as u64);
        out
    }
}

impl StateStore for FanoutProbe {
    fn name(&self) -> &'static str {
        self.sharded.name()
    }
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        self.single(Call::Get, || self.sharded.get(key))
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.single(Call::Put, || self.sharded.put(key, value))
    }
    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.single(Call::Merge, || self.sharded.merge(key, operand))
    }
    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.single(Call::Delete, || self.sharded.delete(key))
    }
    fn supports_merge(&self) -> bool {
        self.sharded.supports_merge()
    }
    fn flush(&self) -> Result<(), StoreError> {
        self.sharded.flush()
    }
    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        let mut touched = vec![false; self.shard_times.len()];
        for op in batch {
            touched[self.sharded.shard_for_key(op.key())] = true;
        }
        let inner_ns = |s: usize| self.shard_times[s].ns(Call::Batch);
        let before: Vec<u64> = (0..touched.len()).map(inner_ns).collect();
        let start_ns = trace::now_ns();
        let start = Instant::now();
        let out = self.sharded.apply_batch(batch);
        let outer = start.elapsed().as_nanos() as u64;
        let slowest = (0..touched.len())
            .filter(|&s| touched[s])
            .map(|s| inner_ns(s) - before[s])
            .max()
            .unwrap_or(0);
        let before = self.times.add_batch(outer, batch.len() as u64);
        self.fanout_ns
            .fetch_add(outer.saturating_sub(slowest), Ordering::Relaxed);
        self.shard_calls.fetch_add(
            touched.iter().filter(|&&t| t).count() as u64,
            Ordering::Relaxed,
        );
        if before.is_multiple_of(SPAN_EVERY / 16) {
            trace::record_complete(Category::Phase, phase_id::SHARDED_BATCH, start_ns, outer);
        }
        out
    }
    fn metrics(&self) -> Option<MetricsSnapshot> {
        self.sharded.metrics()
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
