//! The [`StateStore`] trait.

use bytes::Bytes;
use gadget_obs::{Counter, MetricsRegistry, MetricsSnapshot};
use gadget_types::Op;
use std::path::Path;
use std::sync::Arc;

use crate::durability::{CheckpointManifest, Durability};
use crate::error::StoreError;

/// The per-operation outcome of [`StateStore::apply_batch`].
///
/// Results are positional: `results[i]` is the outcome of `batch[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchResult {
    /// Outcome of a `get`: the value, or `None` if the key was absent.
    Value(Option<Bytes>),
    /// Outcome of a write (`put`, `merge`, `delete`).
    Applied,
}

impl BatchResult {
    /// The value returned by a `get`, or `None` for writes and missing keys.
    pub fn value(&self) -> Option<&Bytes> {
        match self {
            BatchResult::Value(v) => v.as_ref(),
            BatchResult::Applied => None,
        }
    }

    /// Whether this result is a `get` that found a value.
    pub fn found(&self) -> bool {
        matches!(self, BatchResult::Value(Some(_)))
    }
}

/// Applies each op through the store's single-op methods, in order.
///
/// This is the default [`StateStore::apply_batch`] body; wrappers also use
/// it for single-op batches so the per-op instrumentation path (sampling,
/// per-op network delays) stays identical to unbatched operation.
pub fn apply_ops_serially<S: StateStore + ?Sized>(
    store: &S,
    batch: &[Op],
) -> Result<Vec<BatchResult>, StoreError> {
    let mut out = Vec::with_capacity(batch.len());
    for op in batch {
        out.push(match op {
            Op::Get { key } => BatchResult::Value(store.get(key)?),
            Op::Put { key, value } => {
                store.put(key, value)?;
                BatchResult::Applied
            }
            Op::Merge { key, operand } => {
                store.merge(key, operand)?;
                BatchResult::Applied
            }
            Op::Delete { key } => {
                store.delete(key)?;
                BatchResult::Applied
            }
        });
    }
    Ok(out)
}

/// A key-value state store, as seen by a streaming operator task.
///
/// Methods take `&self`: every implementation synchronizes internally so
/// that multiple operator tasks may share one store instance, matching the
/// paper's concurrent-operators experiment (§6.4). The dataflow model still
/// guarantees a single *writer* per key, but the store must not assume a
/// single client.
///
/// # Merge semantics
///
/// `merge(key, operand)` is a lazy read-modify-write that *appends*
/// `operand` to the existing value (the list-append merge operator that
/// stream processors use for window buckets). Stores with native merge
/// support (the LSM substrates) buffer operands and fold them on read or
/// compaction; stores without it (`supports_merge() == false`) may emulate
/// it as `get` + concatenate + `put`, which is exactly the "reading and
/// copying a growing vector" cost the paper attributes to FASTER and
/// BerkeleyDB on holistic operators (§6.5).
pub trait StateStore: Send + Sync {
    /// A short human-readable store name for reports (e.g. `"lsm"`).
    fn name(&self) -> &'static str;

    /// Returns the value stored under `key`, or `None`.
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError>;

    /// Stores `value` under `key`, overwriting any previous value.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError>;

    /// Appends `operand` to the value stored under `key`.
    ///
    /// If the key does not exist, the operand becomes the initial value.
    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError>;

    /// Removes `key` from the store. Deleting a missing key is not an error.
    fn delete(&self, key: &[u8]) -> Result<(), StoreError>;

    /// Returns every live `(key, value)` pair with `lo <= key <= hi`, in
    /// ascending key order.
    ///
    /// Ordered stores (LSM, B+Tree) support this natively; hash-indexed
    /// stores return [`StoreError::Unsupported`], mirroring the real
    /// systems they model (FASTER has no range scans). Check
    /// [`StateStore::supports_scan`] first.
    ///
    /// Keys are returned as [`Bytes`], like every other value-bearing API
    /// on this trait, so callers can hold scan results without copying.
    fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
        let _ = (lo, hi);
        Err(StoreError::Unsupported("range scan"))
    }

    /// Whether [`StateStore::scan`] is implemented.
    fn supports_scan(&self) -> bool {
        false
    }

    /// Whether the store supports lazy merges natively.
    ///
    /// When `false`, the performance evaluator translates `merge` requests
    /// into read-modify-write sequences before timing them.
    fn supports_merge(&self) -> bool {
        false
    }

    /// Flushes buffered writes to durable storage (no-op by default).
    fn flush(&self) -> Result<(), StoreError> {
        Ok(())
    }

    /// Implementation-specific counters (compactions, cache hits, …) for
    /// reports and ablation studies. Empty by default.
    fn internal_counters(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    /// A point-in-time snapshot of the store's metrics, or `None` for
    /// stores that are not instrumented.
    ///
    /// This returns a value (not live instrument handles) so callers
    /// can hold, merge, and serialize readings without worrying about
    /// instruments going stale across flushes or restarts. Instrumented
    /// stores assemble the snapshot from their internal registry plus
    /// any computed gauges (e.g. live bytes derived from shard state)
    /// at call time.
    fn metrics(&self) -> Option<MetricsSnapshot> {
        None
    }

    /// How this store survives process death. Defaults to
    /// [`Durability::Ephemeral`]; file-backed stores override.
    fn durability(&self) -> Durability {
        Durability::Ephemeral
    }

    /// Whether every [`StateStore::apply_batch`] call waits off the CPU
    /// for a device or network round trip: an fsync, or a request and
    /// its reply on a socket. A caller holding sub-batches for several
    /// such stores overlaps them on threads; for stores that only
    /// compute and touch memory the hand-off costs more than the work.
    /// An occasional wait (a write stall, a page miss) does not count.
    /// Defaults to `false`; decorators forward it.
    fn batch_waits_off_cpu(&self) -> bool {
        false
    }

    /// Writes a point-in-time snapshot of the store's state into `dir`,
    /// returning the manifest describing it.
    ///
    /// The snapshot is *consistent*: it reflects some prefix of the
    /// store's serialized operation history, even if writes race the
    /// checkpoint. Re-checkpointing into the same directory is allowed
    /// and may reuse unchanged immutable files (incremental mode); the
    /// manifest's `reused_files` reports how many were skipped. The
    /// manifest is written last, so a directory with a readable manifest
    /// is always a complete checkpoint.
    fn checkpoint(&self, dir: &Path) -> Result<CheckpointManifest, StoreError> {
        let _ = dir;
        Err(StoreError::Unsupported("checkpoint"))
    }

    /// Replaces the store's current state with the checkpoint in `dir`.
    ///
    /// After a successful restore the store serves exactly the state
    /// captured by the checkpoint; all state written since (including
    /// WAL tails) is discarded. Fails with
    /// [`StoreError::Corruption`] if the checkpoint is incomplete,
    /// fails validation, or was taken by an incompatible store.
    fn restore(&self, dir: &Path) -> Result<(), StoreError> {
        let _ = dir;
        Err(StoreError::Unsupported("restore"))
    }

    /// Applies a batch of operations in order, returning one
    /// [`BatchResult`] per op.
    ///
    /// Semantically identical to issuing the ops one at a time; native
    /// implementations amortize per-op costs instead (the LSM takes its
    /// write lock once and group-commits the WAL with a single fsync, the
    /// hash store takes each shard mutex once per batch, the B+Tree holds
    /// its tree lock across the batch). The default falls back to op-by-op
    /// dispatch, so every store is batch-correct even before it is
    /// batch-fast.
    ///
    /// Errors fail the whole call; ops already applied before the failing
    /// one remain applied (same as issuing them individually).
    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        apply_ops_serially(self, batch)
    }
}

/// A shared store is a store: every method forwards to the pointee, so
/// wrappers take an `Arc` directly and no method can silently fall back
/// to a trait default (op-by-op batches, `Ephemeral` durability,
/// `Unsupported` checkpoints).
///
/// Pass `store.as_ref()` where a `&dyn StateStore` is wanted: `&store`
/// would make a trait object of the `Arc` and add a second virtual call
/// per operation.
impl<S: StateStore + ?Sized> StateStore for Arc<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        (**self).get(key)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        (**self).put(key, value)
    }
    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        (**self).merge(key, operand)
    }
    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        (**self).delete(key)
    }
    fn scan(&self, lo: &[u8], hi: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
        (**self).scan(lo, hi)
    }
    fn supports_scan(&self) -> bool {
        (**self).supports_scan()
    }
    fn supports_merge(&self) -> bool {
        (**self).supports_merge()
    }
    fn flush(&self) -> Result<(), StoreError> {
        (**self).flush()
    }
    fn internal_counters(&self) -> Vec<(String, u64)> {
        (**self).internal_counters()
    }
    fn metrics(&self) -> Option<MetricsSnapshot> {
        (**self).metrics()
    }
    fn durability(&self) -> Durability {
        (**self).durability()
    }
    fn batch_waits_off_cpu(&self) -> bool {
        (**self).batch_waits_off_cpu()
    }
    fn checkpoint(&self, dir: &Path) -> Result<CheckpointManifest, StoreError> {
        (**self).checkpoint(dir)
    }
    fn restore(&self, dir: &Path) -> Result<(), StoreError> {
        (**self).restore(dir)
    }
    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        (**self).apply_batch(batch)
    }
}

/// Cheap atomic operation counters shared by store implementations.
///
/// Stores embed one of these and bump it per public operation so reports
/// can show per-store request mixes without external instrumentation.
/// Built via [`StoreCounters::registered`], the counters live in the
/// store's [`MetricsRegistry`] and show up in its snapshots for free.
#[derive(Debug, Default)]
pub struct StoreCounters {
    gets: Counter,
    puts: Counter,
    merges: Counter,
    deletes: Counter,
}

impl StoreCounters {
    /// Creates zeroed counters not tied to any registry.
    pub fn new() -> Self {
        StoreCounters::default()
    }

    /// Creates counters registered as `gets`/`puts`/`merges`/`deletes`
    /// in `registry`, so registry snapshots include them.
    pub fn registered(registry: &MetricsRegistry) -> Self {
        StoreCounters {
            gets: registry.counter("gets"),
            puts: registry.counter("puts"),
            merges: registry.counter("merges"),
            deletes: registry.counter("deletes"),
        }
    }

    /// Records one `get`.
    pub fn record_get(&self) {
        self.gets.inc();
    }

    /// Records one `put`.
    pub fn record_put(&self) {
        self.puts.inc();
    }

    /// Records one `merge`.
    pub fn record_merge(&self) {
        self.merges.inc();
    }

    /// Records one `delete`.
    pub fn record_delete(&self) {
        self.deletes.inc();
    }

    /// Snapshot of all counters as (name, value) pairs.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        vec![
            ("gets".to_string(), self.gets.get()),
            ("puts".to_string(), self.puts.get()),
            ("merges".to_string(), self.merges.get()),
            ("deletes".to_string(), self.deletes.get()),
        ]
    }

    /// Total operations recorded.
    pub fn total(&self) -> u64 {
        self.gets.get() + self.puts.get() + self.merges.get() + self.deletes.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = StoreCounters::new();
        c.record_get();
        c.record_get();
        c.record_put();
        c.record_merge();
        c.record_delete();
        assert_eq!(c.total(), 5);
        let snap = c.snapshot();
        assert!(snap.contains(&("gets".to_string(), 2)));
        assert!(snap.contains(&("puts".to_string(), 1)));
    }

    /// Answers every method with a value no trait default gives and
    /// records which methods were called.
    #[derive(Default)]
    struct Probe {
        calls: std::sync::Mutex<Vec<&'static str>>,
    }

    impl Probe {
        fn hit(&self, method: &'static str) {
            self.calls.lock().unwrap().push(method);
        }
    }

    impl StateStore for Probe {
        fn name(&self) -> &'static str {
            self.hit("name");
            "probe"
        }
        fn get(&self, _: &[u8]) -> Result<Option<Bytes>, StoreError> {
            self.hit("get");
            Ok(Some(Bytes::from_static(b"v")))
        }
        fn put(&self, _: &[u8], _: &[u8]) -> Result<(), StoreError> {
            self.hit("put");
            Ok(())
        }
        fn merge(&self, _: &[u8], _: &[u8]) -> Result<(), StoreError> {
            self.hit("merge");
            Ok(())
        }
        fn delete(&self, _: &[u8]) -> Result<(), StoreError> {
            self.hit("delete");
            Ok(())
        }
        fn scan(&self, _: &[u8], _: &[u8]) -> Result<Vec<(Bytes, Bytes)>, StoreError> {
            self.hit("scan");
            Ok(Vec::new())
        }
        fn supports_scan(&self) -> bool {
            self.hit("supports_scan");
            true
        }
        fn supports_merge(&self) -> bool {
            self.hit("supports_merge");
            true
        }
        fn flush(&self) -> Result<(), StoreError> {
            self.hit("flush");
            Ok(())
        }
        fn internal_counters(&self) -> Vec<(String, u64)> {
            self.hit("internal_counters");
            vec![("probe".to_string(), 1)]
        }
        fn metrics(&self) -> Option<MetricsSnapshot> {
            self.hit("metrics");
            Some(MetricsSnapshot::default())
        }
        fn durability(&self) -> Durability {
            self.hit("durability");
            Durability::WalBacked { sync: true }
        }
        fn batch_waits_off_cpu(&self) -> bool {
            self.hit("batch_waits_off_cpu");
            true
        }
        fn checkpoint(&self, _: &Path) -> Result<CheckpointManifest, StoreError> {
            self.hit("checkpoint");
            Ok(CheckpointManifest::new("probe"))
        }
        fn restore(&self, _: &Path) -> Result<(), StoreError> {
            self.hit("restore");
            Ok(())
        }
        fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
            self.hit("apply_batch");
            Ok(vec![BatchResult::Applied; batch.len()])
        }
    }

    #[test]
    fn arc_forwards_every_method() {
        let probe = Arc::new(Probe::default());
        // Through a generic bound, so each call resolves to the `Arc`
        // impl rather than auto-dereferencing to the probe.
        fn exercise<S: StateStore>(s: &S) {
            let dir = Path::new("unused");
            assert_eq!(s.name(), "probe");
            assert!(s.get(b"k").unwrap().is_some());
            s.put(b"k", b"v").unwrap();
            s.merge(b"k", b"v").unwrap();
            s.delete(b"k").unwrap();
            s.scan(b"a", b"z").unwrap();
            assert!(s.supports_scan());
            assert!(s.supports_merge());
            s.flush().unwrap();
            assert_eq!(s.internal_counters().len(), 1);
            assert!(s.metrics().is_some());
            assert_eq!(s.durability(), Durability::WalBacked { sync: true });
            assert!(s.batch_waits_off_cpu());
            s.checkpoint(dir).unwrap();
            s.restore(dir).unwrap();
            let batch = [Op::put(b"k".to_vec(), b"v".to_vec())];
            assert_eq!(s.apply_batch(&batch).unwrap(), vec![BatchResult::Applied]);
        }
        exercise(&probe);
        let shared: Arc<dyn StateStore> = probe.clone();
        exercise(&shared);
        let expected = [
            "name",
            "get",
            "put",
            "merge",
            "delete",
            "scan",
            "supports_scan",
            "supports_merge",
            "flush",
            "internal_counters",
            "metrics",
            "durability",
            "batch_waits_off_cpu",
            "checkpoint",
            "restore",
            "apply_batch",
        ];
        let calls = probe.calls.lock().unwrap();
        assert_eq!(calls.len(), 2 * expected.len());
        assert_eq!(&calls[..expected.len()], &expected[..]);
        assert_eq!(&calls[expected.len()..], &expected[..]);
    }
}
