//! Serialization round-trip determinism: a model loaded from an artifact
//! must reproduce the freshly-trained model's scoring — the whole LoC
//! histogram, every slot, every probability — bit for bit. This extends
//! the workspace's parallel-determinism guarantee across a save/load
//! cycle (and therefore across processes).

use sm_attack::attack::{AttackConfig, ScoreOptions, TrainedAttack};
use sm_attack::durable::EnvelopeError;
use sm_attack::{oracle, Fingerprint, Parallelism};
use sm_layout::{SplitLayer, Suite};
use sm_serve::artifact::{ArtifactError, ModelArtifact, TrainMeta};

fn leave_one_out(
    scale: f64,
    split: u8,
    config: &AttackConfig,
) -> (TrainedAttack, sm_layout::SplitView) {
    let views = Suite::ispd2011_like(scale)
        .expect("valid scale")
        .split_all(SplitLayer::new(split).expect("valid layer"));
    let train: Vec<_> = views[1..].iter().collect();
    let model = TrainedAttack::train(config, &train, None).expect("trains");
    (model, views.into_iter().next().expect("five views"))
}

#[test]
fn loaded_model_reproduces_the_loc_histogram_bit_for_bit() {
    for (config, split) in [
        (AttackConfig::imp9(), 8),
        (AttackConfig::imp11().with_y_limit(), 8),
        (AttackConfig::imp7(), 6),
    ] {
        let (fresh, test_view) = leave_one_out(0.01, split, &config);

        let dir = std::env::temp_dir().join(format!("smserve_roundtrip_{}", config.name));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("model.artifact");
        ModelArtifact::from_trained(&fresh, TrainMeta::default())
            .save(&path)
            .expect("saves");
        let loaded = ModelArtifact::load(&path).expect("loads").into_trained();
        assert_eq!(
            fresh, loaded,
            "{}: model must survive the disk",
            config.name
        );

        // Scoring through the reloaded model — with a different parallelism
        // setting for good measure — must be indistinguishable.
        let fresh_scored = test_view.clone();
        let a = fresh.score(
            &fresh_scored,
            &ScoreOptions {
                parallelism: Parallelism::Sequential,
                ..ScoreOptions::default()
            },
        );
        let b = loaded.score(
            &test_view,
            &ScoreOptions {
                parallelism: Parallelism::Threads(3),
                ..ScoreOptions::default()
            },
        );
        assert_eq!(
            a.hist, b.hist,
            "{}: LoC histogram must be bit-identical after reload",
            config.name
        );
        assert_eq!(a, b, "{}: full scored view must be identical", config.name);
        assert_eq!(
            a.mean_loc_at(0.5).to_bits(),
            b.mean_loc_at(0.5).to_bits(),
            "{}: derived LoC stats must match to the last bit",
            config.name
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The training kernel and thread count are a how, not a what: a model
/// from the binned tree fit must serialize to the byte-identical artifact
/// of one the oracle's per-node scan fits (same payload, same checksum),
/// and so must models trained under `Sequential` and `Threads(2)`, whose
/// checkpoint fingerprints must also agree. Reloading the binned model
/// must reproduce the LoC histogram of both the in-process model and the
/// oracle-trained model, bit for bit.
#[test]
fn binned_trained_artifact_is_backend_invariant_on_disk_and_in_scoring() {
    let views = Suite::ispd2011_like(0.01)
        .expect("valid scale")
        .split_all(SplitLayer::new(8).expect("valid layer"));
    let train: Vec<_> = views[1..].iter().collect();
    let config = AttackConfig::imp9();
    let (samples, radius) = TrainedAttack::prepare_samples(&config, &train, None).expect("samples");
    let reference = oracle::train(&config, samples, radius).expect("oracle train");
    let binned = TrainedAttack::train(&config, &train, None).expect("binned train");

    let encoded_ref = ModelArtifact::from_trained(&reference, TrainMeta::default()).encode();
    let encoded_bin = ModelArtifact::from_trained(&binned, TrainMeta::default()).encode();
    assert_eq!(
        encoded_ref, encoded_bin,
        "artifact bytes (payload + checksum) must not depend on the tree-fitting kernel"
    );
    let [sequential, threaded] = [Parallelism::Sequential, Parallelism::Threads(2)].map(|p| {
        let config = config.clone().with_parallelism(p);
        TrainedAttack::train(&config, &train, None).expect("train")
    });
    for model in [&sequential, &threaded] {
        assert_eq!(
            ModelArtifact::from_trained(model, TrainMeta::default()).encode(),
            encoded_bin,
            "artifact bytes must not depend on the training thread count"
        );
    }
    let fingerprint =
        |model| Fingerprint::for_scoring("attack", model, &views[0], &ScoreOptions::default());
    assert_eq!(
        fingerprint(&sequential),
        fingerprint(&threaded),
        "a resume may change --threads, so the run identity must not include it"
    );

    let dir = std::env::temp_dir().join("smserve_roundtrip_binned");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("model.artifact");
    ModelArtifact::from_trained(&binned, TrainMeta::default())
        .save(&path)
        .expect("saves");
    let loaded = ModelArtifact::load(&path).expect("loads").into_trained();

    let opts = ScoreOptions::default();
    let scored_loaded = loaded.score(&views[0], &opts);
    let scored_binned = binned.score(&views[0], &opts);
    let scored_reference = reference.score(&views[0], &opts);
    assert_eq!(
        scored_loaded.hist, scored_binned.hist,
        "reloaded binned model must reproduce the in-process LoC histogram"
    );
    assert_eq!(
        scored_loaded.hist, scored_reference.hist,
        "reloaded binned model must reproduce the oracle-trained LoC histogram"
    );
    assert_eq!(scored_loaded, scored_reference);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn artifact_errors_are_typed_not_panics() {
    let (model, _) = leave_one_out(0.01, 8, &AttackConfig::imp9());
    let art = ModelArtifact::from_trained(&model, TrainMeta::default());
    let text = art.encode();

    // Flip one payload byte (still valid UTF-8): checksum must catch it.
    let mut corrupted = text.clone().into_bytes();
    let payload_start = text.find('\n').expect("two lines") + 1;
    let idx = payload_start + 100;
    corrupted[idx] = if corrupted[idx] == b'5' { b'6' } else { b'5' };
    let corrupted = String::from_utf8(corrupted).expect("ascii flip keeps utf8");
    if corrupted != text {
        assert!(matches!(
            ModelArtifact::decode(&corrupted),
            Err(ArtifactError::Envelope(
                EnvelopeError::ChecksumMismatch { .. }
            ))
        ));
    }

    // A future-versioned artifact must be refused, not misread.
    let future = text.replacen("\"version\":1", "\"version\":2", 1);
    assert!(matches!(
        ModelArtifact::decode(&future),
        Err(ArtifactError::Envelope(EnvelopeError::UnsupportedVersion {
            found: 2,
            supported: 1,
            ..
        }))
    ));

    // Loading a nonexistent path is a typed Io error.
    assert!(matches!(
        ModelArtifact::load(std::path::Path::new("/nonexistent/m.artifact")),
        Err(ArtifactError::Io(_))
    ));
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

/// The parser refuses nesting past `serde_json::RECURSION_LIMIT`. Trees are
/// flat node arrays, so an artifact's depth does not grow with the model;
/// pin every configuration family well under the limit.
#[test]
fn artifacts_nest_far_below_the_parser_depth_limit() {
    for config in [
        AttackConfig::ml9(),
        AttackConfig::imp9(),
        AttackConfig::imp11().with_y_limit(),
    ] {
        let (model, _) = leave_one_out(0.01, 8, &config);
        let meta = TrainMeta {
            benchmarks: vec!["sb5".into(), "sb10".into()],
            split_layer: "V8".into(),
            excluded_target: Some("sb1".into()),
            created_unix_s: 1,
        };
        let text = ModelArtifact::from_trained(&model, meta).encode();
        let depth = text.lines().map(nesting_depth).max().expect("two lines");
        assert!(
            depth <= serde_json::RECURSION_LIMIT / 8,
            "{}: artifact nests {depth} deep",
            config.name
        );
        ModelArtifact::decode(&text).expect("decodes under the limit");
    }
}
