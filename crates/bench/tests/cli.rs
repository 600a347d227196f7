//! The `experiments` binary's command line: every argument is a flag
//! with its value, `all`, or a known experiment id; the `trace-compile`
//! and `crash-torture` subcommands accept only their own flags.

use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

#[test]
fn unknown_id_exits_2_even_when_another_id_matches() {
    let out = experiments().args(["t1", "bogus"]).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(r#"unknown experiment id "bogus"; try --list"#),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing may run before the error");
}

#[test]
fn flag_values_are_not_taken_for_ids() {
    let dir = std::env::temp_dir().join(format!("ssmc-cli-{}", std::process::id()));
    let out = experiments()
        .args(["t1", "--threads", "2", "--json"])
        .arg(&dir)
        .output()
        .expect("run");
    let wrote = dir.join("t1.json").is_file();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(wrote, "t1.json was not written");
}

/// Runs a subcommand whose `--json`/`--out` file is `path` plus `extra`
/// arguments, and checks it exits 2 without writing the file or
/// printing a result.
fn assert_rejected(subcommand: &str, path_flag: &str, extra: &[&str], want: &str) {
    let path = std::env::temp_dir().join(format!(
        "ssmc-cli-{subcommand}-{}-{}",
        std::process::id(),
        extra.join("_").replace('-', "")
    ));
    let out = experiments()
        .arg(subcommand)
        .arg(path_flag)
        .arg(&path)
        .args(extra)
        .output()
        .expect("run");
    let wrote = path.exists();
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{extra:?}: stderr: {stderr}");
    assert!(stderr.contains(want), "{extra:?}: stderr: {stderr}");
    assert!(!wrote, "{extra:?}: {} was written", path.display());
    assert!(out.stdout.is_empty(), "{extra:?}: nothing may run first");
}

#[test]
fn trace_compile_rejects_unknown_and_stray_arguments() {
    let sub = "trace-compile";
    assert_rejected(
        sub,
        "--out",
        &["--ops", "10", "--wrokload", "office"],
        r#"unknown trace-compile flag "--wrokload""#,
    );
    assert_rejected(
        sub,
        "--out",
        &["office"],
        r#"unexpected trace-compile argument "office""#,
    );
    assert_rejected(sub, "--out", &["--ops"], "--ops needs a positive integer");
}

#[test]
fn crash_torture_rejects_unknown_and_stray_arguments() {
    let sub = "crash-torture";
    assert_rejected(
        sub,
        "--json",
        &["--ops", "20", "--tears", "clean"],
        r#"unknown crash-torture flag "--tears""#,
    );
    assert_rejected(
        sub,
        "--json",
        &["--ops", "20", "clean"],
        r#"unexpected crash-torture argument "clean""#,
    );
    assert_rejected(
        sub,
        "--json",
        &["--ops", "20", "--tear"],
        "--tear needs a mode",
    );
}
