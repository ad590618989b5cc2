//! The store zoo: one label table, one parser and one opener, shared by
//! the `gadget` CLI (replay, online, concurrent, serve, sweep, crash)
//! and the experiment binaries, so a label names the same configuration
//! whichever entry point opens it.
//!
//! Memory budgets follow the paper's setup (§6): RocksDB/Lethe with
//! 128 MiB memtables and a 64 MiB block cache, BerkeleyDB with a
//! 256 MiB page cache, FASTER with a 64 MiB mutable log region. Callers
//! may divide every budget by a `shrink` factor (1 = paper sizes) so CI
//! machines need not hold gigabytes.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gadget_btree::{BTreeConfig, BTreeStore};
use gadget_hashlog::{HashLogConfig, HashLogStore};
use gadget_kv::{MemStore, NetworkProfile, RemoteStore, ShardedStore, StateStore, StoreError};
use gadget_lsm::{LsmConfig, LsmStore};
use gadget_server::NetStore;

/// An in-process store class; [`BACKENDS`] describes each. The paper's
/// RocksDB, Lethe, FASTER and BerkeleyDB come first. `RocksDbSmall`
/// flushes, compacts, fsyncs and fills its cache within a few thousand
/// operations, for traced smoke runs where the paper-scale config would
/// never leave memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    RocksDb,
    Lethe,
    Faster,
    BerkeleyDb,
    RocksDbSmall,
    Mem,
}

/// Every in-process store: its label and what `gadget stores` says of it.
const BACKENDS: [(Backend, &str, &str); 6] = [
    (
        Backend::RocksDb,
        "rocksdb-class",
        "LSM tree with lazy merge operator (gadget-lsm)",
    ),
    (
        Backend::Lethe,
        "lethe-class",
        "LSM tree with delete-aware compaction (gadget-lsm)",
    ),
    (
        Backend::Faster,
        "faster-class",
        "hash index over a record log (gadget-hashlog)",
    ),
    (
        Backend::BerkeleyDb,
        "berkeleydb-class",
        "page-cached B+Tree (gadget-btree)",
    ),
    (
        Backend::RocksDbSmall,
        "rocksdb-small",
        "shrunk LSM (tiny memtable/cache, sync WAL) for traced smoke runs",
    ),
    (
        Backend::Mem,
        "mem",
        "reference in-memory hash map (gadget-kv)",
    ),
];

/// Short names for when all you want is "an LSM".
const ALIASES: [(&str, Backend); 3] = [
    ("lsm", Backend::RocksDb),
    ("hashlog", Backend::Faster),
    ("btree", Backend::BerkeleyDb),
];

impl Backend {
    /// The label reports and `gadget stores` use.
    pub fn label(self) -> &'static str {
        BACKENDS
            .iter()
            .find(|(b, ..)| *b == self)
            .map(|(_, label, _)| *label)
            .expect("every backend has a label")
    }

    /// Opens one instance in `dir`, every memory budget divided by
    /// `shrink`. `shard` tags LSM instances with their shard id (worker
    /// thread names and trace spans).
    fn open(
        self,
        dir: &Path,
        shard: Option<u64>,
        shrink: usize,
    ) -> Result<Arc<dyn StateStore>, StoreError> {
        let shrink = shrink.max(1);
        let lsm = |base: LsmConfig| -> Result<Arc<dyn StateStore>, StoreError> {
            let cfg = LsmConfig {
                shard_id: shard,
                ..shrunk_lsm(base, shrink)
            };
            Ok(Arc::new(LsmStore::open(dir, cfg)?))
        };
        match self {
            Backend::RocksDb => lsm(LsmConfig::paper_rocksdb()),
            Backend::Lethe => lsm(LsmConfig::paper_lethe()),
            Backend::RocksDbSmall => lsm(LsmConfig {
                wal_sync: true,
                ..LsmConfig::small()
            }),
            Backend::Faster => {
                let base = HashLogConfig::default();
                Ok(Arc::new(HashLogStore::new(HashLogConfig {
                    mutable_bytes: base.mutable_bytes / shrink,
                    ..base
                })))
            }
            Backend::BerkeleyDb => {
                let base = BTreeConfig::default();
                let cfg = BTreeConfig {
                    page_cache_bytes: base.page_cache_bytes / shrink,
                    ..base
                };
                Ok(Arc::new(BTreeStore::open(dir.join("data.db"), cfg)?))
            }
            Backend::Mem => Ok(Arc::new(MemStore::new())),
        }
    }
}

/// `base` with its memtable, cache and level budgets divided by `shrink`.
fn shrunk_lsm(base: LsmConfig, shrink: usize) -> LsmConfig {
    LsmConfig {
        memtable_bytes: base.memtable_bytes / shrink,
        block_cache_bytes: base.block_cache_bytes / shrink,
        l1_target_bytes: base.l1_target_bytes / shrink as u64,
        target_file_bytes: base.target_file_bytes / shrink,
        ..base
    }
}

/// A parsed store label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreSpec {
    /// An in-process store.
    Embedded(Backend),
    /// `remote-<label>`: any store behind a synthetic datacenter network
    /// (paper §8, external state management). It never leaves the
    /// process.
    Remote(Box<StoreSpec>),
    /// `net:<host:port>`: a running `gadget serve` instance over real
    /// TCP, so runs measure actual wire latency.
    Net(String),
}

/// A label no store answers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownStore(pub String);

impl fmt::Display for UnknownStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown store {}; run `gadget stores` for the list",
            self.0
        )
    }
}

impl std::error::Error for UnknownStore {}

impl StoreSpec {
    /// Parses a label: one of [`BACKENDS`], an alias (`lsm`, `hashlog`,
    /// `btree`), `remote-<label>` or `net:<addr>`.
    pub fn parse(label: &str) -> Result<StoreSpec, UnknownStore> {
        if let Some(addr) = label.strip_prefix("net:") {
            return Ok(StoreSpec::Net(addr.to_string()));
        }
        if let Some(inner) = label.strip_prefix("remote-") {
            return Ok(StoreSpec::Remote(Box::new(StoreSpec::parse(inner)?)));
        }
        BACKENDS
            .iter()
            .map(|(b, l, _)| (*l, *b))
            .chain(ALIASES)
            .find(|(l, _)| *l == label)
            .map(|(_, b)| StoreSpec::Embedded(b))
            .ok_or_else(|| UnknownStore(label.to_string()))
    }

    /// How a run's operations reach the store, for report provenance:
    /// `"tcp"` for `net:`, `"embedded"` otherwise (the simulated
    /// `remote-*` network included).
    pub fn transport(&self) -> &'static str {
        match self {
            StoreSpec::Net(_) => "tcp",
            _ => "embedded",
        }
    }

    /// Opens one instance in `dir` (created if missing), every memory
    /// budget divided by `shrink`. `shard` tags LSM instances with their
    /// shard id.
    pub fn open(
        &self,
        dir: &Path,
        shard: Option<u64>,
        shrink: usize,
    ) -> Result<Arc<dyn StateStore>, StoreError> {
        std::fs::create_dir_all(dir)?;
        match self {
            StoreSpec::Embedded(backend) => backend.open(dir, shard, shrink),
            StoreSpec::Remote(inner) => Ok(Arc::new(RemoteStore::new(
                inner.open(dir, shard, shrink)?,
                NetworkProfile::datacenter(),
            ))),
            StoreSpec::Net(addr) => Ok(Arc::new(NetStore::connect(addr)?)),
        }
    }

    /// Opens `shards` instances behind a hash-partitioned
    /// [`ShardedStore`], each in its own `shard-<i>` subdirectory of
    /// `dir` with independent WAL, memtables, files and background
    /// threads. The store keeps this spec as its factory, so a live
    /// `split_shard` builds new shards the same way.
    pub fn open_sharded(
        &self,
        dir: &Path,
        shards: usize,
        shrink: usize,
    ) -> Result<ShardedStore, StoreError> {
        let (spec, base) = (self.clone(), dir.to_path_buf());
        ShardedStore::from_factory(shards, move |shard| {
            spec.open(
                &base.join(format!("shard-{shard}")),
                Some(shard as u64),
                shrink,
            )
        })
    }

    /// Opens the store at paper sizes in `dir`, sharded when `shards > 1`.
    pub fn open_in(&self, dir: StoreDir, shards: usize) -> Result<OpenStore, StoreError> {
        let sharded = match shards {
            0 | 1 => None,
            n => Some(Arc::new(self.open_sharded(dir.path(), n, 1)?)),
        };
        let store = match &sharded {
            Some(sharded) => sharded.clone() as Arc<dyn StateStore>,
            None => self.open(dir.path(), None, 1)?,
        };
        Ok(OpenStore {
            spec: self.clone(),
            store,
            sharded,
            dir,
        })
    }
}

impl fmt::Display for StoreSpec {
    /// The canonical label (aliases resolved).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreSpec::Embedded(backend) => f.write_str(backend.label()),
            StoreSpec::Remote(inner) => write!(f, "remote-{inner}"),
            StoreSpec::Net(addr) => write!(f, "net:{addr}"),
        }
    }
}

/// The label list `gadget stores` prints.
pub fn store_list() -> String {
    let mut out = String::from("available store labels:");
    let wrappers = [
        (
            "remote-<label>",
            "any of the above behind a synthetic datacenter network",
        ),
        (
            "net:<host:port>",
            "a running `gadget serve` instance, over real TCP",
        ),
    ];
    for (label, what) in BACKENDS.iter().map(|(_, l, w)| (*l, *w)).chain(wrappers) {
        out.push_str(&format!("\n  {label:<18}{what}"));
    }
    out
}

/// A store's working directory: one the caller named, kept after the
/// run, or a fresh scratch directory under [`std::env::temp_dir`],
/// removed when this value drops.
#[derive(Debug)]
pub struct StoreDir {
    path: PathBuf,
    scratch: bool,
}

impl StoreDir {
    /// `dir` when given, else a new scratch directory. Either way the
    /// directory exists on return.
    pub fn new(dir: Option<&Path>) -> std::io::Result<StoreDir> {
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir)?;
            return Ok(StoreDir {
                path: dir.to_path_buf(),
                scratch: false,
            });
        }
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("gadget-{}-{n}", std::process::id()));
        // A directory by this name was left by a dead process with our pid.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(StoreDir {
            path,
            scratch: true,
        })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        if self.scratch {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// A store opened by [`StoreSpec::open_in`].
pub struct OpenStore {
    /// What was opened.
    pub spec: StoreSpec,
    /// The store operations go to.
    pub store: Arc<dyn StateStore>,
    /// The same store as a [`ShardedStore`] when it has two or more
    /// shards: the handle live topology changes operate on.
    pub sharded: Option<Arc<ShardedStore>>,
    /// Where the store lives. Declared last, so the handles above drop
    /// before a scratch directory is removed.
    pub dir: StoreDir,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_aliases_and_wrappers_parse() {
        for (backend, label, _) in BACKENDS {
            assert_eq!(StoreSpec::parse(label), Ok(StoreSpec::Embedded(backend)));
            assert_eq!(backend.label(), label);
        }
        for (alias, backend) in ALIASES {
            let spec = StoreSpec::parse(alias).unwrap();
            assert_eq!(spec, StoreSpec::Embedded(backend));
            assert_eq!(spec.to_string(), backend.label());
        }
        let remote = StoreSpec::parse("remote-lsm").unwrap();
        assert_eq!(remote.to_string(), "remote-rocksdb-class");
        assert_eq!(remote.transport(), "embedded");
        let net = StoreSpec::parse("net:127.0.0.1:4547").unwrap();
        assert_eq!(net, StoreSpec::Net("127.0.0.1:4547".to_string()));
        assert_eq!(net.transport(), "tcp");
        for bad in ["nope", "remote-nope", "LSM", ""] {
            let err = StoreSpec::parse(bad).unwrap_err();
            assert!(err.to_string().starts_with("unknown store"), "{bad}: {err}");
        }
    }

    #[test]
    fn the_list_names_every_label() {
        let list = store_list();
        for (_, label, _) in BACKENDS {
            assert!(list.contains(&format!("  {label} ")), "{label}");
        }
        assert!(list.contains("remote-<label>"));
        assert!(list.contains("net:<host:port>"));
    }

    #[test]
    fn scratch_dirs_are_unique_and_removed_on_drop() {
        let a = StoreDir::new(None).unwrap();
        let b = StoreDir::new(None).unwrap();
        assert_ne!(a.path(), b.path());
        assert!(a.path().starts_with(std::env::temp_dir()));
        let path = a.path().to_path_buf();
        std::fs::write(path.join("f"), b"x").unwrap();
        drop(a);
        assert!(!path.exists());

        let kept = b.path().join("kept");
        drop(StoreDir::new(Some(&kept)).unwrap());
        assert!(kept.is_dir(), "a named directory outlives its StoreDir");
    }

    #[test]
    fn sharded_labels_overlap_only_shards_that_wait_off_cpu() {
        let dir = StoreDir::new(None).unwrap();
        let server = gadget_server::Server::start(
            "127.0.0.1:0",
            Arc::new(MemStore::new()),
            gadget_server::ServerConfig::default(),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let sync_wal = gadget_kv::Durability::WalBacked { sync: true };
        for (label, waits) in [
            ("mem", false),
            ("faster-class", false),
            ("berkeleydb-class", false),
            ("rocksdb-class", false),
            ("rocksdb-small", true),
            ("remote-faster-class", true),
            ("remote-rocksdb-small", true),
            (&format!("net:{addr}"), true),
        ] {
            let spec = StoreSpec::parse(label).unwrap();
            let shard_dir = StoreDir::new(Some(&dir.path().join(label.replace(':', "_")))).unwrap();
            let store = spec.open_in(shard_dir, 2).unwrap().store;
            assert_eq!(store.batch_waits_off_cpu(), waits, "{label}");
            if label.ends_with("rocksdb-small") {
                assert_eq!(store.durability(), sync_wal, "{label}");
            }
            if matches!(spec, StoreSpec::Net(_)) {
                continue;
            }
            // Every in-process label checkpoints and restores through
            // whatever wraps it.
            let ckpt = dir.path().join(format!("{}-ckpt", label.replace(':', "_")));
            store.put(b"k", b"before").unwrap();
            store.checkpoint(&ckpt).expect(label);
            store.put(b"k", b"after").unwrap();
            store.restore(&ckpt).expect(label);
            assert_eq!(
                store.get(b"k").unwrap().as_deref(),
                Some(&b"before"[..]),
                "{label}"
            );
        }
        server.stop().unwrap();
    }

    #[test]
    fn shrink_divides_the_paper_budgets() {
        let cfg = shrunk_lsm(LsmConfig::paper_rocksdb(), 64);
        assert_eq!(cfg.memtable_bytes, (128 << 20) / 64);
        assert_eq!(cfg.block_cache_bytes, (64 << 20) / 64);
        assert_eq!(cfg.l1_target_bytes, (256 << 20) / 64);
        assert_eq!(cfg.target_file_bytes, (64 << 20) / 64);

        let dir = StoreDir::new(None).unwrap();
        for label in [
            "rocksdb-class",
            "lethe-class",
            "faster-class",
            "berkeleydb-class",
        ] {
            let spec = StoreSpec::parse(label).unwrap();
            let store = spec.open(&dir.path().join(label), None, 64).unwrap();
            store.put(b"k", b"v").unwrap();
            assert_eq!(
                store.get(b"k").unwrap().as_deref(),
                Some(&b"v"[..]),
                "{label}"
            );
        }
    }
}
