//! Resume bit-identity and corruption-refusal proofs for the crash-safe
//! attack pipeline (`sm_attack::checkpoint`).
//!
//! The central claims, proven the way `enumeration_parity` proves scoring ==
//! `oracle::score`:
//!
//! 1. an uninterrupted resumable run equals a plain `score` call bit for
//!    bit, for any shard size and parallelism;
//! 2. a run interrupted at *every possible shard boundary* and resumed —
//!    even with a different shard size and thread count — converges to
//!    the same bytes;
//! 3. a corrupt, truncated, or foreign checkpoint is a typed refusal,
//!    never a partial resume;
//! 4. a payload edited and re-sealed with a valid checksum (the checksum
//!    catches corruption, not tampering) decodes or is a typed error, and
//!    one that decodes resumes without a panic.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sm_attack::attack::{AttackConfig, ScoreOptions, TrainedAttack, HIST_BINS};
use sm_attack::checkpoint::{
    score_resumable, score_resumable_as, Checkpoint, CheckpointError, CheckpointSpec, Fingerprint,
    Resume, RunState, ScoreOutcome, ScoringState, ViewId, CHECKPOINT_FORMAT,
};
use sm_attack::durable::{self, EnvelopeError};
use sm_attack::Parallelism;
use sm_layout::{SplitLayer, SplitView, Suite};

fn views() -> Vec<SplitView> {
    Suite::ispd2011_like(0.02)
        .expect("valid scale")
        .split_all(SplitLayer::new(8).expect("valid layer"))
}

fn train(config: &AttackConfig, views: &[SplitView], target: usize) -> TrainedAttack {
    let train: Vec<&SplitView> = views
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != target)
        .map(|(_, v)| v)
        .collect();
    TrainedAttack::train(config, &train, None).expect("trains")
}

fn temp_spec(tag: &str, every: usize) -> CheckpointSpec {
    let dir = std::env::temp_dir().join(format!("smattack_ckpt_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    CheckpointSpec {
        path: dir.join("run.ckpt"),
        every,
    }
}

fn cleanup(spec: &CheckpointSpec) {
    if let Some(parent) = spec.path.parent() {
        let _ = std::fs::remove_dir_all(parent);
    }
}

#[test]
fn uninterrupted_resumable_run_matches_plain_score_bit_for_bit() {
    let views = views();
    let model = train(&AttackConfig::imp9(), &views, 0);
    let direct = model.score(&views[0], &ScoreOptions::default());
    for (i, (every, parallelism)) in [
        (1, Parallelism::Sequential),
        (7, Parallelism::Threads(3)),
        (64, Parallelism::Sequential),
        (usize::MAX, Parallelism::Threads(2)),
    ]
    .into_iter()
    .enumerate()
    {
        let spec = temp_spec(&format!("complete_{i}"), every);
        let options = ScoreOptions {
            parallelism,
            ..ScoreOptions::default()
        };
        let outcome = score_resumable(&model, &views[0], &options, &spec, Resume::Fresh, &|| false)
            .expect("runs");
        match outcome {
            ScoreOutcome::Complete(scored) => {
                assert_eq!(scored, direct, "every={every} {parallelism:?} diverged");
            }
            other => panic!("expected completion, got {other:?}"),
        }
        assert!(
            !spec.path.exists(),
            "checkpoint must be removed on completion"
        );
        cleanup(&spec);
    }
}

/// Kill-at-every-boundary: stop after each shard in turn, resume with a
/// *different* shard size and parallelism, and require the final result
/// to match an uninterrupted run exactly.
#[test]
fn stepwise_interruption_and_resume_converges_bit_for_bit() {
    let views = views();
    let model = train(&AttackConfig::imp9(), &views, 0);
    let direct = model.score(&views[0], &ScoreOptions::default());
    let spec = temp_spec("stepwise", 3);
    let seq = ScoreOptions {
        parallelism: Parallelism::Sequential,
        ..ScoreOptions::default()
    };
    // First leg: stop at the very first shard boundary.
    let outcome =
        score_resumable(&model, &views[0], &seq, &spec, Resume::Fresh, &|| true).expect("runs");
    let ScoreOutcome::Interrupted {
        targets_done,
        num_targets,
    } = outcome
    else {
        panic!("a single shard must not finish the view");
    };
    assert_eq!(targets_done, 3);
    assert!(spec.path.exists(), "interruption must leave a checkpoint");
    // Remaining legs: a different shard size and parallelism per resume,
    // stopping at every boundary until done.
    let resumed_spec = CheckpointSpec {
        path: spec.path.clone(),
        every: 2,
    };
    let par = ScoreOptions {
        parallelism: Parallelism::Threads(2),
        ..ScoreOptions::default()
    };
    let mut done = targets_done;
    let mut legs = 0;
    let scored = loop {
        legs += 1;
        assert!(legs < 10_000, "resume loop does not converge");
        match score_resumable(
            &model,
            &views[0],
            &par,
            &resumed_spec,
            Resume::IfPresent,
            &|| true,
        )
        .expect("resumes")
        {
            ScoreOutcome::Complete(scored) => break scored,
            ScoreOutcome::Interrupted { targets_done, .. } => {
                assert!(targets_done > done, "the cursor must advance every leg");
                done = targets_done;
            }
        }
    };
    assert!(num_targets > 0 && done < num_targets);
    assert_eq!(scored, direct, "stepwise resume diverged from direct run");
    assert!(!spec.path.exists());
    cleanup(&spec);
}

/// Regression: resuming with a shard size *larger* than the one that
/// wrote the checkpoint puts the cursor mid-way into the first (and
/// possibly only) shard. That shard must be realigned and scored, not
/// skipped — the original skip test (`range.start < cursor`) dropped
/// the whole tail and reported a 3-of-20-targets run as complete.
#[test]
fn resume_with_a_larger_shard_size_scores_the_tail() {
    let views = views();
    let model = train(&AttackConfig::imp9(), &views, 0);
    let direct = model.score(&views[0], &ScoreOptions::default());
    let spec = temp_spec("larger_every", 3);
    let opts = ScoreOptions::default();
    // Interrupt with cursor = 3 ...
    score_resumable(&model, &views[0], &opts, &spec, Resume::Fresh, &|| true).expect("first leg");
    // ... then resume with one giant shard covering the whole view: the
    // cursor sits mid-shard and the remaining targets must all score.
    let giant = CheckpointSpec {
        path: spec.path.clone(),
        every: usize::MAX,
    };
    let outcome = score_resumable(&model, &views[0], &opts, &giant, Resume::IfPresent, &|| {
        false
    })
    .expect("resumes");
    match outcome {
        ScoreOutcome::Complete(scored) => {
            assert_eq!(scored, direct, "tail targets were dropped on resume");
        }
        other => panic!("expected completion, got {other:?}"),
    }
    assert!(!spec.path.exists());
    cleanup(&spec);
}

#[test]
fn fresh_run_refuses_to_clobber_an_existing_checkpoint() {
    let views = views();
    let model = train(&AttackConfig::imp9(), &views, 0);
    let spec = temp_spec("clobber", 5);
    score_resumable(
        &model,
        &views[0],
        &ScoreOptions::default(),
        &spec,
        Resume::Fresh,
        &|| true,
    )
    .expect("first leg runs");
    let before = std::fs::read(&spec.path).expect("checkpoint exists");
    let err = score_resumable(
        &model,
        &views[0],
        &ScoreOptions::default(),
        &spec,
        Resume::Fresh,
        &|| false,
    )
    .expect_err("must refuse");
    assert!(matches!(err, CheckpointError::Exists(_)), "{err:?}");
    assert_eq!(
        std::fs::read(&spec.path).expect("still there"),
        before,
        "a refused fresh start must not touch the checkpoint"
    );
    cleanup(&spec);
}

#[test]
fn mismatched_runs_are_typed_refusals_naming_the_field() {
    let views = views();
    let imp9 = train(&AttackConfig::imp9(), &views, 0);
    let spec = temp_spec("mismatch", 5);
    let opts = ScoreOptions::default();
    score_resumable(&imp9, &views[0], &opts, &spec, Resume::Fresh, &|| true).expect("first leg");

    let mismatch_field = |err: CheckpointError| match err {
        CheckpointError::Mismatch { field, .. } => field,
        other => panic!("expected a mismatch, got {other:?}"),
    };
    // Different config (and therefore a different model too).
    let imp7 = train(&AttackConfig::imp7(), &views, 0);
    let err = score_resumable(&imp7, &views[0], &opts, &spec, Resume::IfPresent, &|| false)
        .expect_err("foreign config must refuse");
    assert_eq!(mismatch_field(err), "config");
    // Different view.
    let err = score_resumable(&imp9, &views[1], &opts, &spec, Resume::IfPresent, &|| false)
        .expect_err("foreign view must refuse");
    assert_eq!(mismatch_field(err), "views");
    // Different top-K shape.
    let wider = ScoreOptions {
        top_floor: opts.top_floor + 1,
        ..opts.clone()
    };
    let err = score_resumable(&imp9, &views[0], &wider, &spec, Resume::IfPresent, &|| {
        false
    })
    .expect_err("different top_floor must refuse");
    assert_eq!(mismatch_field(err), "top_floor");
    // Different run kind: a pa checkpoint cannot resume an attack run.
    let err = score_resumable_as(
        "pa",
        &imp9,
        &views[0],
        &opts,
        &spec,
        Resume::IfPresent,
        &|| false,
        &|_, _| panic!("a foreign kind must not resume"),
    )
    .expect_err("foreign kind must refuse");
    assert_eq!(mismatch_field(err), "run kind");
    // The intended owner still resumes fine after all those refusals.
    let outcome = score_resumable(&imp9, &views[0], &opts, &spec, Resume::IfPresent, &|| false)
        .expect("owner resumes");
    assert!(matches!(outcome, ScoreOutcome::Complete(_)));
    cleanup(&spec);
}

#[test]
fn explicit_targets_are_rejected_by_the_resumable_driver() {
    let views = views();
    let model = train(&AttackConfig::imp9(), &views, 0);
    let spec = temp_spec("targets", 5);
    let opts = ScoreOptions {
        targets: Some(vec![0, 1]),
        ..ScoreOptions::default()
    };
    let err = score_resumable(&model, &views[0], &opts, &spec, Resume::Fresh, &|| false)
        .expect_err("must reject");
    assert!(matches!(err, CheckpointError::Unsupported(_)), "{err:?}");
    cleanup(&spec);
}

/// Mirrors the PR 4 artifact truncation test: cut the checkpoint at every
/// framing boundary and flip payload bits; every variant must be a typed
/// [`CheckpointError`] and a clean refuse-to-resume.
#[test]
fn corrupt_checkpoints_are_typed_errors_and_refuse_to_resume() {
    let views = views();
    let model = train(&AttackConfig::imp9(), &views, 0);
    let spec = temp_spec("corrupt", 5);
    let opts = ScoreOptions::default();
    score_resumable(&model, &views[0], &opts, &spec, Resume::Fresh, &|| true).expect("first leg");
    let good = std::fs::read_to_string(&spec.path).expect("checkpoint exists");
    let (header, payload) = good.split_once('\n').expect("two-line format");

    // Still-valid baseline: a missing trailing newline parses fine.
    assert!(Checkpoint::decode(good.trim_end()).is_ok());

    let truncations: Vec<(String, &str)> = vec![
        (String::new(), "empty file"),
        (header[..header.len() / 2].to_owned(), "mid-header cut"),
        (format!("{header}\n"), "header only"),
        (
            format!("{header}\n{}", &payload[..payload.len() / 2]),
            "mid-payload cut",
        ),
    ];
    for (text, what) in &truncations {
        let err = Checkpoint::decode(text).expect_err(what);
        assert!(
            matches!(
                err,
                CheckpointError::Envelope(
                    EnvelopeError::Malformed { .. } | EnvelopeError::ChecksumMismatch { .. }
                )
            ),
            "{what}: {err:?}"
        );
    }
    // Bit-flips in the payload: every flipped position must trip the
    // checksum (the payload is covered end to end).
    let flip = |s: &str, i: usize| {
        let mut bytes = s.as_bytes().to_vec();
        bytes[i] ^= 0x01;
        String::from_utf8(bytes).expect("ascii payloads survive single-bit flips")
    };
    for i in [0, payload.len() / 3, payload.len() - 2] {
        let text = format!("{header}\n{}", flip(payload, i));
        let err = Checkpoint::decode(&text).expect_err("flipped payload");
        assert!(
            matches!(
                err,
                CheckpointError::Envelope(EnvelopeError::ChecksumMismatch { .. })
            ),
            "flip at {i}: {err:?}"
        );
    }
    // Foreign magic and version are their own typed refusals.
    let foreign = good.replace("SPLITMFG-CHECKPOINT", "SPLITMFG-CHECKPOINX");
    assert!(matches!(
        Checkpoint::decode(&foreign).expect_err("bad magic"),
        CheckpointError::Envelope(EnvelopeError::BadMagic { .. })
    ));
    let vnext = good.replace("\"version\":1", "\"version\":999");
    assert!(matches!(
        Checkpoint::decode(&vnext).expect_err("future version"),
        CheckpointError::Envelope(EnvelopeError::UnsupportedVersion {
            found: 999,
            supported: 1,
            ..
        })
    ));

    // And end to end: a corrupt file on disk refuses to resume — typed,
    // with the corrupt checkpoint left in place for forensics.
    std::fs::write(&spec.path, format!("{header}\n{}", flip(payload, 10))).expect("writes");
    let err = score_resumable(&model, &views[0], &opts, &spec, Resume::IfPresent, &|| {
        false
    })
    .expect_err("must refuse");
    assert!(
        matches!(
            err,
            CheckpointError::Envelope(EnvelopeError::ChecksumMismatch { .. })
        ),
        "{err:?}"
    );
    assert!(spec.path.exists(), "refusal must not delete the evidence");
    cleanup(&spec);
}

/// Deepest `[`/`{` nesting of a JSON text, string contents skipped.
fn nesting_depth(json: &str) -> usize {
    let (mut depth, mut deepest) = (0usize, 0usize);
    let (mut in_string, mut escaped) = (false, false);
    for b in json.bytes() {
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            b']' | b'}' => depth -= 1,
            _ => {}
        }
    }
    deepest
}

/// The parser refuses nesting past `serde_json::RECURSION_LIMIT`; pin
/// checkpoints well under it.
#[test]
fn checkpoints_nest_far_below_the_parser_depth_limit() {
    let views = views();
    let model = train(&AttackConfig::imp9(), &views, 0);
    let spec = temp_spec("depth_scoring", 5);
    score_resumable(
        &model,
        &views[0],
        &ScoreOptions::default(),
        &spec,
        Resume::Fresh,
        &|| true,
    )
    .expect("first leg");
    let text = std::fs::read_to_string(&spec.path).expect("scoring checkpoint");
    cleanup(&spec);

    let depth = text.lines().map(nesting_depth).max().expect("two lines");
    assert!(
        depth <= serde_json::RECURSION_LIMIT / 8,
        "checkpoint nests {depth} deep"
    );
    Checkpoint::decode(&text).expect("decodes under the limit");
}

#[test]
fn checkpoint_bytes_are_pinned_to_the_released_format() {
    let checkpoint = Checkpoint {
        fingerprint: Fingerprint {
            kind: "attack".into(),
            config_hash: "fnv1a64:0000000000000001".into(),
            model_hash: "fnv1a64:0000000000000002".into(),
            views: vec![ViewId {
                name: "sb1".into(),
                num_vpins: 2,
            }],
            top_fraction: 0.06,
            top_floor: 1,
        },
        state: RunState::Scoring(ScoringState {
            targets_done: 0,
            slots: vec![],
            hist: vec![0; HIST_BINS],
            pairs_scored: 0,
            num_view_vpins: 2,
        }),
    };
    let text = checkpoint.encode();
    // The checksum covers the payload, so this line pins both lines.
    assert_eq!(
        text.lines().next(),
        Some(
            "{\"magic\":\"SPLITMFG-CHECKPOINT\",\"version\":1,\
             \"checksum\":\"fnv1a64:e098f26bd242c1b9\"}"
        )
    );
    assert!(text.ends_with("}}}\n"), "one trailing newline");
}

/// Scoring states that would index past the view or overflow the pair
/// count on resume, re-sealed with valid checksums, are payload errors.
#[test]
fn resealed_scoring_states_out_of_bounds_are_payload_errors() {
    let views = views();
    let model = train(&AttackConfig::imp9(), &views, 0);
    let opts = ScoreOptions::default();
    let spec = temp_spec("scoring_bounds", 5);
    score_resumable(&model, &views[0], &opts, &spec, Resume::Fresh, &|| true).expect("first leg");
    let good = Checkpoint::load(&spec.path).expect("loads");
    let n = views[0].num_vpins();
    type Edit = fn(&mut ScoringState, usize);
    let edits: [(&str, Edit); 6] = [
        ("slot out of order", |s, _| s.slots[1].vpin = 3),
        ("candidate past the view", |s, n| {
            s.slots[0].top[0].index = n as u32;
        }),
        ("pairs off the histogram", |s, _| s.pairs_scored += 1),
        ("histogram sum overflows", |s, _| {
            s.hist[0] = u64::MAX;
            s.hist[1] = 1;
        }),
        ("more pairs than the view has", |s, n| {
            s.hist[0] = (5 * n * n) as u64;
            s.pairs_scored = s.hist.iter().sum();
        }),
        ("v-pin count off the fingerprint", |s, _| {
            s.num_view_vpins += 1
        }),
    ];
    for (what, edit) in edits {
        let mut bad = good.clone();
        let RunState::Scoring(state) = &mut bad.state;
        edit(state, n);
        let text = bad.encode();
        assert!(
            matches!(Checkpoint::decode(&text), Err(CheckpointError::Payload(_))),
            "{what}"
        );
        std::fs::write(&spec.path, &text).expect("writes");
        let resumed = score_resumable(&model, &views[0], &opts, &spec, Resume::IfPresent, &|| true);
        assert!(
            matches!(resumed, Err(CheckpointError::Payload(_))),
            "{what}: {resumed:?}"
        );
    }
    cleanup(&spec);
}

/// `payload` with one random edit: a byte replaced (by a digit
/// half the time, so many edits keep the JSON valid and reach the state
/// checks), a short range cut out, or a short range copied elsewhere.
/// ASCII in, ASCII out, so a re-seal reaches the decoder.
fn mutate(payload: &str, rng: &mut ChaCha8Rng) -> String {
    const BYTES: &[u8] = b"0123456789-+.eE\"\\,:[]{}ntrufals ";
    assert!(payload.is_ascii() && !payload.contains('\n'));
    let mut bytes = payload.as_bytes().to_vec();
    let at = rng.gen_range(0..bytes.len());
    let end = (at + rng.gen_range(1..=24usize)).min(bytes.len());
    match rng.gen_range(0..4u8) {
        0 => bytes[at] = b'0' + rng.gen_range(0..10u8),
        1 => bytes[at] = BYTES[rng.gen_range(0..BYTES.len())],
        2 => {
            bytes.drain(at..end);
        }
        _ => {
            let piece = bytes[at..end].to_vec();
            let to = rng.gen_range(0..=bytes.len());
            bytes.splice(to..to, piece);
        }
    }
    String::from_utf8(bytes).expect("ASCII edits of an ASCII payload")
}

/// Decoder property on checkpoint payloads: every edited, re-sealed
/// payload decodes or is a `Payload` error, and every one that decodes
/// resumes (one shard at most) to a result or a typed error, never a panic.
#[test]
fn mutated_checkpoint_payloads_fail_typed_and_resume_without_panics() {
    let views = views();
    let model = train(&AttackConfig::imp9(), &views, 0);
    let opts = ScoreOptions::default();
    let spec = temp_spec("mutated", 5);
    score_resumable(&model, &views[0], &opts, &spec, Resume::Fresh, &|| true).expect("first leg");
    let text = std::fs::read_to_string(&spec.path).expect("scoring checkpoint");
    let payload = durable::open(&CHECKPOINT_FORMAT, &text).expect("valid envelope");

    let mut rng = ChaCha8Rng::seed_from_u64(0xc4e);
    let mut resumed = 0;
    for case in 0..300 {
        let text = durable::seal(&CHECKPOINT_FORMAT, &mutate(payload, &mut rng));
        match Checkpoint::decode(&text) {
            Err(CheckpointError::Payload(_)) => continue,
            Err(e) => panic!("case {case}: {e:?}"),
            Ok(_) => resumed += 1,
        }
        std::fs::write(&spec.path, &text).expect("writes");
        // Ok or any typed error: a fingerprint edit is a Mismatch.
        let _ = score_resumable(&model, &views[0], &opts, &spec, Resume::IfPresent, &|| true);
    }
    assert!(resumed > 0, "no edit kept the payload valid");
    cleanup(&spec);
}

/// Version 1 once had a cross-validation state kind that no binary wrote.
/// A payload of that shape, sealed with a valid checksum, is now a typed
/// payload error rather than a resumable state.
#[test]
fn cross_validation_checkpoints_are_payload_errors() {
    let zeros = format!("[{}]", vec!["0.0"; HIST_BINS].join(","));
    let payload = format!(
        "{{\"fingerprint\":{{\"kind\":\"xval\",\"config_hash\":\"fnv1a64:0000000000000001\",\
         \"model_hash\":\"-\",\"views\":[{{\"name\":\"sb1\",\"num_vpins\":2}},\
         {{\"name\":\"sb5\",\"num_vpins\":3}}],\"top_fraction\":0.06,\"top_floor\":1}},\
         \"state\":{{\"Xval\":{{\"folds_done\":1,\"fold_names\":[\"sb1\"],\"curve\":\
         {{\"num_views\":1,\"acc\":{zeros},\"mean_loc\":{zeros},\"loc_fraction\":{zeros}}}}}}}}}"
    );
    let text = durable::seal(&CHECKPOINT_FORMAT, &payload);
    match Checkpoint::decode(&text) {
        Err(CheckpointError::Payload(m)) => assert!(m.contains("Xval"), "{m}"),
        other => panic!("an xval payload decoded as {other:?}"),
    }
}
