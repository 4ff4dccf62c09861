//! Process-level crash/chaos tests of the `splitmfg attack` pipeline: kill
//! the binary at injected fail points (`SM_FAILPOINTS`), resume, and
//! require the resumed output to be *byte-identical* to an uninterrupted
//! golden run. Companion to the in-process proofs in
//! `crates/core/tests/checkpoint_resume.rs`.
#![cfg(unix)]

use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

const SIGKILL: i32 = 9;

fn run_in(dir: &Path, args: &[&str], failpoints: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_splitmfg"));
    cmd.args(args).current_dir(dir).env_remove("SM_FAILPOINTS");
    if let Some(spec) = failpoints {
        cmd.env("SM_FAILPOINTS", spec);
    }
    cmd.output().expect("binary runs")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The `done/total` target cursor of the run's stderr notice that it
/// resumed the checkpoint `ckpt`, if it printed one.
fn resume_notice(out: &Output, ckpt: &Path) -> Option<(usize, usize)> {
    let prefix = format!("resuming from checkpoint {} at ", ckpt.display());
    let stderr = stderr_of(out);
    let cursor = stderr
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))?;
    let (done, total) = cursor.strip_suffix(" targets")?.split_once('/')?;
    Some((done.parse().ok()?, total.parse().ok()?))
}

/// Requires the notice of a resumed run: a cursor past the first shard
/// and short of the end.
fn assert_resumed(out: &Output, ckpt: &Path) {
    let (done, total) = resume_notice(out, ckpt)
        .unwrap_or_else(|| panic!("no resume notice for {ckpt:?}: {}", stderr_of(out)));
    assert!(0 < done && done < total, "cursor {done}/{total}");
}

/// Shared fixture: a generated challenge suite, a trained model artifact,
/// and the golden (uninterrupted) attack output — built once, read by
/// every test.
struct Fixture {
    dir: PathBuf,
    golden: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join("smattack_chaos_fixture");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let out = run_in(
            &dir,
            &["gen", "--out", "suite", "--scale", "0.02", "--split", "8"],
            None,
        );
        assert_eq!(out.status.code(), Some(0), "gen: {}", stderr_of(&out));
        let out = run_in(
            &dir,
            &[
                "train",
                "--dir",
                "suite",
                "--target",
                "sb1",
                "--out",
                "model.bin",
            ],
            None,
        );
        assert_eq!(out.status.code(), Some(0), "train: {}", stderr_of(&out));
        let out = run_in(
            &dir,
            &[
                "attack",
                "--dir",
                "suite",
                "--target",
                "sb1",
                "--model",
                "model.bin",
                "--json",
                "golden.json",
            ],
            None,
        );
        assert_eq!(out.status.code(), Some(0), "golden: {}", stderr_of(&out));
        let golden = std::fs::read(dir.join("golden.json")).expect("golden json");
        Fixture { dir, golden }
    })
}

/// The flags that score with the fixture's trained artifact.
const WITH_MODEL: &[&str] = &["--model", "model.bin"];

/// Flags that train the fixture's model in-process instead, under one and
/// under two threads.
const RETRAIN_1_THREAD: &[&str] = &["--config", "imp-11", "--threads", "1"];
const RETRAIN_2_THREADS: &[&str] = &["--config", "imp-11", "--threads", "2"];

/// One killed-then-resumed cycle in its own checkpoint dir; returns the
/// output of the killed run so callers can assert how it died. `extra`
/// picks the model (and any other flags) of the killed run.
fn kill_and_resume(tag: &str, failpoints: &str, extra: &[&str]) -> (Output, PathBuf) {
    let fx = fixture();
    let ck = format!("ck_{tag}");
    let _ = std::fs::remove_dir_all(fx.dir.join(&ck));
    let mut args = vec!["attack", "--dir", "suite", "--target", "sb1"];
    args.extend(extra);
    args.extend(["--checkpoint-dir", &ck, "--checkpoint-every", "2"]);
    let killed = run_in(&fx.dir, &args, Some(failpoints));
    (killed, fx.dir.join(ck))
}

fn resume_and_compare(tag: &str, ck: &Path, extra: &[&str]) {
    let fx = fixture();
    let json = format!("resumed_{tag}.json");
    // No --checkpoint-every here: the resume runs with the (much larger)
    // default shard size, so the persisted cursor lands mid-shard — the
    // realign path must score the tail, not skip it.
    let ckpt = ck.join("attack-sb1.ckpt");
    assert!(ckpt.exists(), "{tag}: the killed run left no checkpoint");
    let mut args = vec!["attack", "--dir", "suite", "--target", "sb1"];
    args.extend(extra);
    args.extend([
        "--checkpoint-dir",
        ck.to_str().expect("utf8 path"),
        "--resume",
        "true",
        "--json",
        &json,
    ]);
    let out = run_in(&fx.dir, &args, None);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{tag} resume: {}",
        stderr_of(&out)
    );
    assert_resumed(&out, &ckpt);
    let resumed = std::fs::read(fx.dir.join(&json)).expect("resumed json");
    assert_eq!(
        resumed, fx.golden,
        "{tag}: resumed output differs from the uninterrupted golden run"
    );
    assert!(
        !ck.join("attack-sb1.ckpt").exists(),
        "{tag}: checkpoint must be removed after a completed resume"
    );
}

/// SIGKILL at three distinct checkpoint-write sites — before the tmp file
/// exists, after the tmp is written but before the rename, and after the
/// rename but before the directory fsync. Every site must leave either no
/// checkpoint or a valid one, and resuming must reproduce the golden
/// bytes exactly. The `retrained` case runs without `--model`: each leg
/// trains the fixture's model itself, the killed one under `--threads 1`
/// and the resumed one under `--threads 2`, and the thread count is not
/// part of the run's identity.
#[test]
fn sigkill_at_every_checkpoint_write_site_resumes_byte_identical() {
    let m = WITH_MODEL;
    for (tag, failpoints, killed_with, resumed_with) in [
        ("before_tmp", "checkpoint.before_tmp=kill@2", m, m),
        ("after_tmp", "checkpoint.after_tmp=kill@2", m, m),
        ("after_rename", "checkpoint.after_rename=kill@2", m, m),
        ("after_dir_sync", "checkpoint.after_dir_sync=kill@1", m, m),
        (
            "retrained",
            "checkpoint.after_rename=kill@2",
            RETRAIN_1_THREAD,
            RETRAIN_2_THREADS,
        ),
    ] {
        let (killed, ck) = kill_and_resume(tag, failpoints, killed_with);
        assert_eq!(
            killed.status.signal(),
            Some(SIGKILL),
            "{tag}: expected death by SIGKILL, got {:?}",
            killed.status
        );
        resume_and_compare(tag, &ck, resumed_with);
    }
}

/// SIGTERM mid-run drains the in-flight shard, writes a final checkpoint,
/// and exits with the documented code 3; the checkpoint then resumes to
/// the golden bytes.
#[test]
fn sigterm_drains_to_a_resumable_checkpoint_and_exits_three() {
    let (out, ck) = kill_and_resume("term", "checkpoint.after_rename=term@1", WITH_MODEL);
    assert_eq!(out.status.code(), Some(3), "stderr: {}", stderr_of(&out));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("--resume true"), "{stderr}");
    assert!(
        ck.join("attack-sb1.ckpt").exists(),
        "a drained run must leave its checkpoint"
    );
    resume_and_compare("term", &ck, WITH_MODEL);
}

#[test]
fn corrupt_checkpoint_refuses_to_resume_with_exit_one() {
    let (killed, ck) = kill_and_resume("corrupt", "checkpoint.after_rename=kill@2", WITH_MODEL);
    assert_eq!(killed.status.signal(), Some(SIGKILL));
    let path = ck.join("attack-sb1.ckpt");
    let mut bytes = std::fs::read(&path).expect("checkpoint exists");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).expect("corrupts");
    let fx = fixture();
    let out = run_in(
        &fx.dir,
        &[
            "attack",
            "--dir",
            "suite",
            "--target",
            "sb1",
            "--model",
            "model.bin",
            "--checkpoint-dir",
            ck.to_str().expect("utf8 path"),
            "--resume",
            "true",
        ],
        None,
    );
    assert_eq!(out.status.code(), Some(1), "must refuse, not resume");
    let stderr = stderr_of(&out);
    assert!(stderr.contains("checksum"), "{stderr}");
    assert!(path.exists(), "refusal must leave the evidence in place");
}

/// `--resume true` with no checkpoint on disk is simply a fresh run.
#[test]
fn resume_with_no_checkpoint_is_a_fresh_start() {
    let fx = fixture();
    let ck = fx.dir.join("ck_fresh");
    let _ = std::fs::remove_dir_all(&ck);
    let json = "fresh.json";
    let out = run_in(
        &fx.dir,
        &[
            "attack",
            "--dir",
            "suite",
            "--target",
            "sb1",
            "--model",
            "model.bin",
            "--checkpoint-dir",
            ck.to_str().expect("utf8 path"),
            "--resume",
            "true",
            "--json",
            json,
        ],
        None,
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr_of(&out));
    assert!(
        !stderr_of(&out).contains("resuming from checkpoint"),
        "a fresh run must not claim a resume: {}",
        stderr_of(&out)
    );
    assert_eq!(
        std::fs::read(fx.dir.join(json)).expect("json written"),
        fx.golden
    );
}

/// The same SIGKILL-and-resume cycle for `pa`: its scoring checkpoint
/// resumes to stdout byte-identical to an uninterrupted run, also when
/// each leg trains its own model under a different `--threads`.
#[test]
fn pa_sigkilled_mid_scoring_resumes_byte_identical() {
    let fx = fixture();
    let pa = ["pa", "--dir", "suite", "--target", "sb1"];
    let golden = run_in(&fx.dir, &[&pa[..], WITH_MODEL].concat(), None);
    assert_eq!(golden.status.code(), Some(0), "{}", stderr_of(&golden));
    for (tag, killed_with, resumed_with) in [
        ("pa", WITH_MODEL, WITH_MODEL),
        ("pa_retrained", RETRAIN_1_THREAD, RETRAIN_2_THREADS),
    ] {
        let ck = fx.dir.join(format!("ck_{tag}"));
        let _ = std::fs::remove_dir_all(&ck);
        let ck_flag = ck.to_str().expect("utf8 path");
        let with = |model: &[&'static str], extra: &[&'static str]| {
            let mut args = pa.to_vec();
            args.extend(model);
            args.extend(["--checkpoint-dir", ck_flag]);
            args.extend(extra);
            args
        };
        let killed = run_in(
            &fx.dir,
            &with(killed_with, &["--checkpoint-every", "2"]),
            Some("checkpoint.after_tmp=kill@2"),
        );
        assert_eq!(
            killed.status.signal(),
            Some(SIGKILL),
            "{tag}: expected death by SIGKILL, got {:?}",
            killed.status
        );
        let resumed = run_in(&fx.dir, &with(resumed_with, &["--resume", "true"]), None);
        assert_eq!(resumed.status.code(), Some(0), "{}", stderr_of(&resumed));
        assert_resumed(&resumed, &ck.join("pa-sb1.ckpt"));
        assert_eq!(
            resumed.stdout, golden.stdout,
            "{tag}: resumed pa output differs from the uninterrupted run"
        );
        assert!(
            !ck.join("pa-sb1.ckpt").exists(),
            "{tag}: checkpoint must be removed after a completed resume"
        );
    }
}
