//! Commands run without `--dir` keep their stores in a scratch directory
//! under the temp dir and remove it when they end. Each test gives the
//! `gadget` child process a private `TMPDIR` and checks it is left
//! empty.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh base directory holding the inputs, and an empty private
/// temp dir inside it for the child.
fn setup(name: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir().join(format!("gadget-scratch-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let private = base.join("tmp");
    std::fs::create_dir_all(&private).unwrap();
    (base, private)
}

fn gadget(tmpdir: &Path, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_gadget"))
        .env("TMPDIR", tmpdir)
        .args(args)
        .output()
        .expect("spawn gadget")
}

fn ycsb_trace(base: &Path, tmpdir: &Path) -> PathBuf {
    let trace = base.join("w.gdt");
    let out = gadget(
        tmpdir,
        &[
            "ycsb",
            "--workload",
            "A",
            "--records",
            "200",
            "--ops",
            "3000",
            "--out",
            trace.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    trace
}

fn assert_empty(dir: &Path) {
    let left: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(left.is_empty(), "left behind: {left:?}");
}

#[test]
fn replay_without_dir_leaves_the_temp_dir_empty() {
    let (base, private) = setup("replay");
    let trace = ycsb_trace(&base, &private);
    for args in [
        &["--store", "rocksdb-class"][..],
        &["--store", "berkeleydb-class", "--shards", "2"][..],
    ] {
        let mut cmd = vec!["replay", "--trace", trace.to_str().unwrap()];
        cmd.extend_from_slice(args);
        let out = gadget(&private, &cmd);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_empty(&private);
    }
    // A rejected label creates nothing either.
    let out = gadget(
        &private,
        &[
            "replay",
            "--trace",
            trace.to_str().unwrap(),
            "--store",
            "nope",
        ],
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown store nope"));
    assert_empty(&private);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn replay_accepts_the_lsm_alias() {
    let (base, private) = setup("alias");
    let trace = ycsb_trace(&base, &private);
    let out = gadget(
        &private,
        &[
            "replay",
            "--trace",
            trace.to_str().unwrap(),
            "--store",
            "lsm",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("store=lsm"), "{stdout}");
    assert_empty(&private);
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn crash_without_dir_leaves_the_temp_dir_empty() {
    let (base, private) = setup("crash");
    let out = gadget(
        &private,
        &[
            "crash",
            "--store",
            "lsm",
            "--ops",
            "600",
            "--kill-at-frac",
            "0.5",
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_empty(&private);
    let _ = std::fs::remove_dir_all(&base);
}
