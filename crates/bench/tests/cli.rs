//! The `experiments` binary's command line: every argument is a flag
//! with its value, `all`, or a known experiment id.

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
