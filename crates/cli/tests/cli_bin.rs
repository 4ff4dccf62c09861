//! Black-box tests of the `splitmfg` binary: exit codes and which stream
//! each kind of output lands on.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_splitmfg"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for spelling in [&["help"][..], &["--help"][..], &["-h"][..]] {
        let out = run(spelling);
        assert_eq!(out.status.code(), Some(0), "{spelling:?}");
        let stdout = String::from_utf8(out.stdout).expect("utf8");
        assert!(stdout.contains("commands:"), "{spelling:?}: {stdout}");
        assert!(stdout.contains("models"), "{spelling:?}");
        assert!(!stdout.contains("bench-serve"), "{spelling:?}");
        assert!(
            out.stderr.is_empty(),
            "help must not write to stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn missing_command_prints_error_to_stderr_and_help_to_stdout() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(stderr.contains("no subcommand"), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf8");
    assert!(stdout.contains("commands:"), "{stdout}");
}

#[test]
fn unknown_command_and_unknown_flag_exit_one_with_stderr_diagnostics() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command 'frobnicate'"));

    let out = run(&["info", "--dri", "somewhere"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("unknown flag --dri"), "{stderr}");
}

#[test]
fn bad_threads_value_exits_one_with_typed_message() {
    let out = run(&["train", "--dir", "x", "--out", "y", "--threads", "banana"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(stderr.contains("--threads"), "{stderr}");
    assert!(stderr.contains("banana"), "{stderr}");
}

#[test]
fn challenge_beyond_the_coordinate_bound_is_a_typed_error_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("splitmfg_cli_huge_die_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let suite = dir.to_str().expect("utf8 temp path");
    let out = run(&["gen", "--out", suite, "--scale", "0.02", "--split", "8"]);
    assert_eq!(out.status.code(), Some(0), "gen failed");
    // A die sized past any grid the attack could allocate.
    let path = dir.join("sb1.challenge");
    let text = std::fs::read_to_string(&path).expect("challenge written");
    let die = text
        .lines()
        .find(|l| l.starts_with("die "))
        .expect("die line")
        .to_owned();
    let huge = "die 0 0 4000000000000000000 4000000000000000000";
    std::fs::write(&path, text.replace(&die, huge)).expect("rewrite challenge");

    let out = run(&[
        "attack",
        "--dir",
        suite,
        "--target",
        "sb1",
        "--config",
        "imp-11",
        "--threads",
        "sequential",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("line 4: die x1"), "{stderr}");
    assert!(stderr.contains("outside"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
