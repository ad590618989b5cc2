//! The correctness gate: every pass is compared with a `MemStore`
//! reference model of the same trace.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use gadget_kv::{BatchResult, MemStore, StateStore, StoreError};
use gadget_obs::MetricsSnapshot;
use gadget_replay::{ReplayOptions, TraceReplayer};
use gadget_types::{Op, Trace};

/// What a correct pass over the trace must observe.
pub struct Reference {
    /// `get`s that find a value.
    pub hits: u64,
    /// `get`s that find nothing.
    pub misses: u64,
    /// Final value of every distinct trace key, in key order.
    finals: Vec<([u8; 16], Option<Bytes>)>,
}

impl Reference {
    /// Replays `trace` once, untimed, against a fresh `MemStore`.
    pub fn compute(trace: &Trace) -> Result<Reference, StoreError> {
        let model = MemStore::new();
        let report =
            TraceReplayer::new(ReplayOptions::default()).replay(trace, &model, "reference")?;
        let keys: BTreeSet<[u8; 16]> = trace.iter().map(|a| a.key.encode()).collect();
        let finals = keys
            .into_iter()
            .map(|key| Ok((key, model.get(&key)?)))
            .collect::<Result<_, StoreError>>()?;
        Ok(Reference {
            hits: report.hits,
            misses: report.misses,
            finals,
        })
    }

    /// Disagreements of one pass with the reference: the hit and miss
    /// differences plus every key whose final value in `backend`
    /// differs from the model's.
    pub fn mismatches(
        &self,
        hits: u64,
        misses: u64,
        backend: &dyn StateStore,
    ) -> Result<u64, StoreError> {
        let mut bad = hits.abs_diff(self.hits) + misses.abs_diff(self.misses);
        for (key, want) in &self.finals {
            if backend.get(key)? != *want {
                bad += 1;
            }
        }
        Ok(bad)
    }
}

/// Applies every call to `inner` and to an inline `MemStore` model and
/// counts the `get` results that differ.
///
/// Hits, misses and final values alone miss a lost write whose key is
/// read but still found, or deleted before the run ends (every window
/// of `window-lsm` is). The warm-up pass runs under this wrapper, so
/// such a write is caught too. Threads may share one `Checked` as long
/// as each key is only ever sent by one of them, which shard-affine
/// replay guarantees.
pub struct Checked {
    inner: Arc<dyn StateStore>,
    model: MemStore,
    mismatches: AtomicU64,
}

impl Checked {
    pub fn new(inner: Arc<dyn StateStore>) -> Checked {
        Checked {
            inner,
            model: MemStore::new(),
            mismatches: AtomicU64::new(0),
        }
    }

    /// `get` results that differed from the model so far.
    pub fn mismatches(&self) -> u64 {
        self.mismatches.load(Ordering::Relaxed)
    }

    fn note(&self, differ: bool) {
        if differ {
            self.mismatches.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl StateStore for Checked {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn get(&self, key: &[u8]) -> Result<Option<Bytes>, StoreError> {
        let got = self.inner.get(key)?;
        self.note(got != self.model.get(key)?);
        Ok(got)
    }
    fn put(&self, key: &[u8], value: &[u8]) -> Result<(), StoreError> {
        self.inner.put(key, value)?;
        self.model.put(key, value)
    }
    fn merge(&self, key: &[u8], operand: &[u8]) -> Result<(), StoreError> {
        self.inner.merge(key, operand)?;
        self.model.merge(key, operand)
    }
    fn delete(&self, key: &[u8]) -> Result<(), StoreError> {
        self.inner.delete(key)?;
        self.model.delete(key)
    }
    fn supports_merge(&self) -> bool {
        self.inner.supports_merge()
    }
    fn flush(&self) -> Result<(), StoreError> {
        self.inner.flush()
    }
    fn apply_batch(&self, batch: &[Op]) -> Result<Vec<BatchResult>, StoreError> {
        let got = self.inner.apply_batch(batch)?;
        let want = self.model.apply_batch(batch)?;
        for (g, w) in got.iter().zip(&want) {
            self.note(g != w);
        }
        self.note(got.len() != want.len());
        Ok(got)
    }
    fn metrics(&self) -> Option<MetricsSnapshot> {
        self.inner.metrics()
    }
}
