//! End-to-end crash-recovery harness tests, driving the real `gadget`
//! binary. The harness re-execs itself (`crash` spawns `crash-child`),
//! so it cannot run inside a unit test — the current executable there
//! is the libtest runner, which rejects the child's flags.

use std::path::{Path, PathBuf};
use std::process::Command;

use gadget_report::RunReport;

fn gadget() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gadget"))
}

fn tmp(name: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .subsec_nanos();
    let dir = std::env::temp_dir().join(format!(
        "gadget-crash-{name}-{}-{nanos}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_crash(dir: &Path, extra: &[&str]) -> RunReport {
    let report_path = dir.join("report.json");
    let mut cmd = gadget();
    cmd.args([
        "crash",
        "--ops",
        "600",
        "--seed",
        "42",
        "--dir",
        dir.to_str().unwrap(),
        "--report-out",
        report_path.to_str().unwrap(),
    ]);
    cmd.args(extra);
    let out = cmd.output().expect("spawn gadget");
    assert!(
        out.status.success(),
        "gadget crash failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    RunReport::load(&report_path).expect("crash report parses")
}

#[test]
fn sync_wal_lsm_recovers_with_zero_acknowledged_loss() {
    let dir = tmp("wal");
    let report = run_crash(&dir, &["--store", "lsm", "--kill-at-frac", "0.5"]);
    let r = report
        .recovery
        .expect("crash report has a recovery section");
    assert_eq!(
        r.loss_window, 0,
        "sync-WAL store lost acknowledged writes: {r:?}"
    );
    assert_eq!(r.kill_at_op, 300);
    assert!(r.acked_ops > 0, "child acknowledged nothing");
    assert!(r.recovery_us > 0);
    assert!(r.replayed_wal_bytes > 0, "WAL recovery replayed no bytes");
    assert!(!r.checkpoint_restored);
    assert_eq!(r.torn_tail, "none");
    assert_eq!(report.workload, "crash");
    assert_eq!(report.operations, r.acked_ops);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_wal_tail_is_tolerated() {
    // Damaging the newest WAL segment's tail must not prevent recovery;
    // at worst the final acknowledged batch is lost (CRC-bounded
    // replay stops at the tear).
    let dir = tmp("torn");
    let report = run_crash(
        &dir,
        &[
            "--store",
            "lsm",
            "--kill-at-frac",
            "0.5",
            "--torn-tail",
            "garble",
        ],
    );
    let r = report.recovery.expect("recovery section");
    assert_eq!(r.torn_tail, "garble");
    assert!(
        r.loss_window <= 1,
        "a garbled tail can cost at most the final unsynced record, lost {}",
        r.loss_window
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_restore_recovers_prefix_up_to_checkpoint() {
    let dir = tmp("ckpt");
    let report = run_crash(
        &dir,
        &[
            "--store",
            "lsm",
            "--kill-at-frac",
            "0.8",
            "--checkpoint-at-frac",
            "0.4",
        ],
    );
    let r = report.recovery.expect("recovery section");
    assert!(r.checkpoint_restored);
    // Recovering from the checkpoint alone abandons the WAL suffix:
    // the loss window is real and must be reported, not hidden.
    assert!(
        r.loss_window > 0,
        "checkpoint-only recovery cannot cover post-checkpoint writes"
    );
    assert!(r.loss_window < r.acked_ops);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_sync_wal_recovers_with_zero_loss() {
    let dir = tmp("sharded");
    let report = run_crash(
        &dir,
        &[
            "--store",
            "lsm",
            "--kill-at-frac",
            "0.5",
            "--shards",
            "4",
            "--batch-size",
            "16",
        ],
    );
    let r = report.recovery.expect("recovery section");
    assert_eq!(r.loss_window, 0, "sharded sync-WAL lost writes: {r:?}");
    assert_eq!(report.meta.shards, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn btree_without_checkpoint_is_rejected() {
    let dir = tmp("btree-reject");
    let out = gadget()
        .args([
            "crash",
            "--store",
            "btree",
            "--kill-at-frac",
            "0.5",
            "--ops",
            "600",
            "--dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("spawn gadget");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checkpoint-at-frac"),
        "unhelpful error: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn remote_store_checkpoints_and_restores() {
    // The simulated network wrapper forwards checkpoint/restore to the
    // LSM it wraps.
    let dir = tmp("remote-ckpt");
    let report = run_crash(
        &dir,
        &[
            "--store",
            "remote-rocksdb-small",
            "--checkpoint-at-frac",
            "0.3",
            "--kill-at-frac",
            "0.6",
        ],
    );
    let r = report.recovery.expect("recovery section");
    assert!(r.checkpoint_restored);
    assert_eq!(r.kill_at_op, 360);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_failing_child_reports_its_error_once() {
    let dir = tmp("net-refused");
    let out = gadget()
        .args([
            "crash",
            "--store",
            "net:127.0.0.1:1",
            "--ops",
            "500",
            "--dir",
            dir.to_str().unwrap(),
        ])
        .output()
        .expect("spawn gadget");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("crash child did not crash"), "{stderr}");
    assert_eq!(
        stderr.matches("os error").count(),
        1,
        "the child's error should appear once: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
