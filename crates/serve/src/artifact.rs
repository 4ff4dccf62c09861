//! Versioned, checksummed on-disk model artifacts.
//!
//! An artifact is a payload sealed in the workspace's two-line envelope
//! ([`sm_attack::durable`], format [`ARTIFACT_FORMAT`]):
//!
//! ```text
//! {"magic":"SPLITMFG-MODEL","version":1,"checksum":"fnv1a64:<16 hex>"}
//! {"parts":{...},"schema":{...},"meta":{...}}
//! ```
//!
//! The payload line holds the trained ensemble and everything needed
//! to reconstruct a [`TrainedAttack`] that scores bit-identically
//! ([`sm_attack::TrainedParts`]), the feature/binning schema the model was
//! trained under, and free-form training metadata.
//!
//! [`ModelArtifact::load`] validates the envelope (structure, magic,
//! version, checksum), then payload shape and schema coherence, each
//! failure a typed [`ArtifactError`] — a corrupt or stale file is always a
//! typed error, never a panic. The checksum catches corruption, not
//! tampering, so payload shape includes each tree's structure (checked by
//! the tree's own decoding): a crafted file cannot send the compiled
//! kernel out of bounds or into a cycle.

use std::path::Path;

use serde::{Deserialize, Serialize};
use sm_attack::attack::HIST_BINS;
use sm_attack::durable::{self, EnvelopeError, Format};
use sm_attack::{Parallelism, TrainedAttack, TrainedParts};

/// Current artifact format version. Bump policy: see `DESIGN.md` — any
/// change to [`TrainedParts`]' serialized shape, the feature semantics, or
/// the histogram convention requires a bump; readers reject other versions.
pub const ARTIFACT_VERSION: u32 = 1;

/// The artifact envelope: magic `SPLITMFG-MODEL`, [`ARTIFACT_VERSION`].
pub const ARTIFACT_FORMAT: Format = Format {
    magic: "SPLITMFG-MODEL",
    version: ARTIFACT_VERSION,
    noun: "model artifact",
};

/// Typed artifact validation/read failure.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure reading or writing the artifact.
    Io(std::io::Error),
    /// The envelope is broken: structure, magic, version or checksum
    /// (corruption).
    Envelope(EnvelopeError),
    /// The payload passed the checksum but does not decode as a model
    /// payload (written by a different build of the same version — stale).
    Payload(String),
    /// The payload decoded but is incoherent with this build's attack
    /// pipeline (wrong histogram bin count, feature schema mismatch, ...).
    Incompatible(String),
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(e) => write!(f, "artifact i/o: {e}"),
            ArtifactError::Envelope(e) => write!(f, "{e}"),
            ArtifactError::Payload(m) => write!(f, "artifact payload does not decode: {m}"),
            ArtifactError::Incompatible(m) => {
                write!(f, "artifact incompatible with this build: {m}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// Free-form provenance recorded alongside the model.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrainMeta {
    /// Names of the designs the model was trained on.
    pub benchmarks: Vec<String>,
    /// Split layer the training views were cut at (e.g. "V8").
    pub split_layer: String,
    /// The held-out target this model deliberately excludes, if any
    /// (leave-one-out training for a later `attack --model` run).
    pub excluded_target: Option<String>,
    /// Unix timestamp (seconds) of training, 0 if unknown.
    pub created_unix_s: u64,
}

/// The feature/binning contract the model was trained under, validated on
/// load so a stale artifact cannot silently score garbage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureSchema {
    /// Feature names in model input order.
    pub feature_names: Vec<String>,
    /// Number of LoC histogram bins ([`HIST_BINS`]); bin `k` spans
    /// `k / bins <= p < (k + 1) / bins` with the top bin closed.
    pub loc_hist_bins: usize,
}

/// The checksummed payload line of an artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactPayload {
    /// The trained model components.
    pub parts: TrainedParts,
    /// Feature/binning schema for load-time validation.
    pub schema: FeatureSchema,
    /// Training provenance.
    pub meta: TrainMeta,
}

/// An in-memory model artifact: encode/decode to the two-line on-disk
/// format, or convert to/from a live [`TrainedAttack`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    payload: ArtifactPayload,
}

impl ModelArtifact {
    /// Wraps a trained model and its provenance into an artifact.
    ///
    /// The thread count the model was trained with is not recorded: it
    /// does not change the model, so the artifact's bytes and checksum do
    /// not depend on it. Every artifact records `Parallelism::default()`.
    pub fn from_trained(model: &TrainedAttack, meta: TrainMeta) -> Self {
        let mut parts = model.to_parts();
        parts.config.parallelism = Parallelism::default();
        let schema = FeatureSchema {
            feature_names: parts
                .config
                .features
                .features()
                .iter()
                .map(|f| f.name().to_owned())
                .collect(),
            loc_hist_bins: HIST_BINS,
        };
        Self {
            payload: ArtifactPayload {
                parts,
                schema,
                meta,
            },
        }
    }

    /// The payload (model parts, schema, metadata).
    pub fn payload(&self) -> &ArtifactPayload {
        &self.payload
    }

    /// Reconstructs the live model. Every artifact is schema-coherent by
    /// construction: [`Self::decode`] checks the schema and
    /// [`Self::from_trained`] derives it from the model.
    pub fn into_trained(self) -> TrainedAttack {
        TrainedAttack::from_parts(self.payload.parts)
    }

    fn validate_schema(&self) -> Result<(), ArtifactError> {
        let schema = &self.payload.schema;
        if schema.loc_hist_bins != HIST_BINS {
            return Err(ArtifactError::Incompatible(format!(
                "artifact uses {} LoC histogram bins, this build uses {HIST_BINS}",
                schema.loc_hist_bins
            )));
        }
        let current: Vec<String> = self
            .payload
            .parts
            .config
            .features
            .features()
            .iter()
            .map(|f| f.name().to_owned())
            .collect();
        if schema.feature_names != current {
            return Err(ArtifactError::Incompatible(format!(
                "artifact feature schema {:?} does not match the trained config's features {:?}",
                schema.feature_names, current
            )));
        }
        // The scorer fills rows of exactly the config's width; a member
        // trained on another width would fail the kernel's stride check.
        if let Some(tree) = self
            .payload
            .parts
            .model
            .trees()
            .iter()
            .find(|t| t.num_features() != current.len())
        {
            return Err(ArtifactError::Incompatible(format!(
                "ensemble trees take {} features, the feature schema has {}",
                tree.num_features(),
                current.len()
            )));
        }
        Ok(())
    }

    /// Serializes to the two-line on-disk format.
    pub fn encode(&self) -> String {
        let payload =
            serde_json::to_string(&self.payload).expect("payload serialization is infallible");
        durable::seal(&ARTIFACT_FORMAT, &payload)
    }

    /// Parses and fully validates the two-line format.
    ///
    /// # Errors
    ///
    /// Returns the first failing check as a typed [`ArtifactError`]: the
    /// envelope, an undecodable payload, or an incompatible schema.
    pub fn decode(text: &str) -> Result<Self, ArtifactError> {
        let payload = durable::open(&ARTIFACT_FORMAT, text).map_err(ArtifactError::Envelope)?;
        let payload: ArtifactPayload =
            serde_json::from_str(payload).map_err(|e| ArtifactError::Payload(e.to_string()))?;
        let artifact = Self { payload };
        artifact.validate_schema()?;
        Ok(artifact)
    }

    /// Writes the artifact to `path` crash-durably: the bytes go to a
    /// `.tmp` sibling first, are fsynced, atomically renamed over `path`,
    /// and the parent directory is fsynced so the rename itself survives
    /// power loss. A crash mid-save therefore leaves either the previous
    /// artifact or a stray `.tmp` — never a truncated file at `path` (and
    /// even a truncated file fails loading with a typed checksum/structure
    /// error, see [`ModelArtifact::decode`]). Fail-point site family:
    /// `artifact`.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] on filesystem failure; the `.tmp`
    /// sibling is removed best-effort on the error path.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        durable::atomic_write(path, self.encode().as_bytes(), "artifact").map_err(ArtifactError::Io)
    }

    /// Reads and validates an artifact from `path`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure, otherwise the typed
    /// validation errors of [`ModelArtifact::decode`].
    pub fn load(path: &Path) -> Result<Self, ArtifactError> {
        let text = std::fs::read_to_string(path)?;
        Self::decode(&text)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use sm_attack::attack::AttackConfig;
    use sm_attack::durable::fnv1a64;
    use sm_layout::{SplitLayer, Suite};

    pub(crate) fn small_model() -> TrainedAttack {
        let views = Suite::ispd2011_like(0.01)
            .expect("valid scale")
            .split_all(SplitLayer::new(8).expect("valid layer"));
        let train: Vec<_> = views[1..].iter().collect();
        TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("trains")
    }

    #[test]
    fn encode_decode_roundtrips_exactly() {
        let model = small_model();
        let art = ModelArtifact::from_trained(&model, TrainMeta::default());
        let back = ModelArtifact::decode(&art.encode()).expect("decodes");
        assert_eq!(art, back);
        assert_eq!(back.into_trained(), model);
    }

    #[test]
    fn checksum_is_stable_and_position_dependent() {
        assert_eq!(fnv1a64(b""), "fnv1a64:cbf29ce484222325");
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn corrupt_payload_is_a_checksum_mismatch() {
        let art = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        let text = art.encode();
        let flipped = text.replace("\"num_training_samples\"", "\"num_training_sampleZ\"");
        assert_ne!(text, flipped, "corruption must change the payload");
        assert!(matches!(
            ModelArtifact::decode(&flipped),
            Err(ArtifactError::Envelope(
                EnvelopeError::ChecksumMismatch { .. }
            ))
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        let art = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        let text = art.encode();
        let bad_magic = text.replacen(ARTIFACT_FORMAT.magic, "NOT-A-MODEL", 1);
        assert!(matches!(
            ModelArtifact::decode(&bad_magic),
            Err(ArtifactError::Envelope(EnvelopeError::BadMagic { .. }))
        ));
        let bad_version = text.replacen("\"version\":1", "\"version\":99", 1);
        assert!(matches!(
            ModelArtifact::decode(&bad_version),
            Err(ArtifactError::Envelope(EnvelopeError::UnsupportedVersion {
                found: 99,
                supported: ARTIFACT_VERSION,
                ..
            }))
        ));
    }

    #[test]
    fn truncated_and_garbage_inputs_are_malformed() {
        for text in [
            "",
            "{\"magic\":\"SPLITMFG-MODEL\",\"version\":1,\"checksum\":\"x\"}",
            "not json\nnot json either\n",
        ] {
            assert!(matches!(
                ModelArtifact::decode(text),
                Err(ArtifactError::Envelope(EnvelopeError::Malformed { .. }))
            ));
        }
    }

    #[test]
    fn save_is_atomic_and_truncated_files_load_as_typed_errors() {
        let art = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        let dir = std::env::temp_dir().join("smserve_atomic_save");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("model.artifact");
        art.save(&path).expect("saves");
        assert!(
            !dir.join("model.artifact.tmp").exists(),
            "the staging file must be renamed away on success"
        );
        let text = std::fs::read_to_string(&path).expect("reads");
        assert_eq!(
            ModelArtifact::load(&path).expect("loads"),
            art,
            "atomic save round-trips"
        );

        // A crash mid-write manifests as a truncated file. At *every*
        // sampled truncation point the loader must answer with a typed
        // ArtifactError — never a panic, never a silently-loaded model.
        let cut_points = [
            0,
            1,
            text.len() / 4,
            text.find('\n').expect("two lines"), // header only
            text.find('\n').expect("two lines") + 1, // header + empty payload
            text.len() / 2,
            text.len() - 2,
        ];
        for cut in cut_points {
            std::fs::write(&path, &text[..cut]).expect("writes truncation");
            let err = ModelArtifact::load(&path).expect_err("truncated must fail");
            assert!(
                matches!(
                    err,
                    ArtifactError::Envelope(
                        EnvelopeError::Malformed { .. } | EnvelopeError::ChecksumMismatch { .. }
                    ) | ArtifactError::Payload(_)
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }

        // Saving over a corrupt file repairs it (rename replaces).
        art.save(&path).expect("saves again");
        assert_eq!(ModelArtifact::load(&path).expect("loads"), art);

        // A directory path (no file name) is a typed Io error.
        assert!(matches!(
            art.save(Path::new("/")),
            Err(ArtifactError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `art`'s payload text and the byte range of its first tree's node
    /// list (between the brackets).
    fn first_node_list(art: &ModelArtifact) -> (String, std::ops::Range<usize>) {
        let payload = serde_json::to_string(&art.payload).expect("serializes");
        let start = payload.find("\"nodes\":[").expect("a tree") + "\"nodes\":[".len();
        let end = start + payload[start..].find(']').expect("node list ends");
        (payload, start..end)
    }

    /// `art` re-encoded with `edit` applied to its first tree's root node
    /// (the JSON object text).
    fn with_edited_root(art: &ModelArtifact, edit: impl FnOnce(&str) -> String) -> String {
        let (payload, nodes) = first_node_list(art);
        let end = nodes.start + payload[nodes.clone()].find('}').expect("root node") + 1;
        let root = edit(&payload[nodes.start..end]);
        durable::seal(
            &ARTIFACT_FORMAT,
            &format!("{}{root}{}", &payload[..nodes.start], &payload[end..]),
        )
    }

    /// Replaces the `"key":<integer>` field of a node's JSON text.
    fn set_field(node: &str, key: &str, value: &str) -> String {
        let tag = format!("\"{key}\":");
        let at = node.find(&tag).expect("field present") + tag.len();
        let len = node[at..].find([',', '}']).expect("field value ends");
        format!("{}{value}{}", &node[..at], &node[at + len..])
    }

    fn assert_payload_error(text: &str, case: &str) {
        match ModelArtifact::decode(text) {
            Err(ArtifactError::Payload(_)) => {}
            other => panic!("{case}: expected a typed payload error, got {other:?}"),
        }
    }

    #[test]
    fn crafted_self_loop_root_is_a_payload_error() {
        // A root whose left child is itself: a recursive lowering would
        // overflow the stack on it, and a walk would never reach a leaf.
        let art = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        let text = with_edited_root(&art, |root| {
            assert!(!root.contains("\"feature\":-1"), "root must be a split");
            set_field(root, "left", "0")
        });
        assert_payload_error(&text, "self-loop root");
    }

    #[test]
    fn crafted_empty_tree_is_a_payload_error() {
        let art = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        let (payload, nodes) = first_node_list(&art);
        let payload = format!("{}{}", &payload[..nodes.start], &payload[nodes.end..]);
        assert_payload_error(
            &durable::seal(&ARTIFACT_FORMAT, &payload),
            "empty node list",
        );
    }

    #[test]
    fn crafted_empty_ensemble_is_a_payload_error() {
        // No trees: every pair would score 0/0 = NaN and an attack would
        // report 0% accuracy with exit 0 instead of a typed error.
        let art = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        let payload = serde_json::to_string(&art.payload).expect("serializes");
        let start = payload.find("\"trees\":[").expect("an ensemble") + "\"trees\":[".len();
        let mut depth = 1usize;
        let end = start
            + payload[start..]
                .bytes()
                .position(|b| {
                    match b {
                        b'[' => depth += 1,
                        b']' => depth -= 1,
                        _ => {}
                    }
                    depth == 0
                })
                .expect("tree list ends");
        let payload = format!("{}{}", &payload[..start], &payload[end..]);
        assert!(payload.contains("\"trees\":[]"), "emptied the ensemble");
        assert_payload_error(&durable::seal(&ARTIFACT_FORMAT, &payload), "empty ensemble");
    }

    #[test]
    fn crafted_out_of_range_feature_is_a_payload_error() {
        let art = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        let text = with_edited_root(&art, |root| set_field(root, "feature", "70000"));
        assert_payload_error(&text, "feature 70000");
    }

    #[test]
    fn ensemble_wider_than_the_schema_is_incompatible() {
        // Every split stays in range, but the trees claim more features
        // than the scorer's rows carry.
        let art = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        let payload = serde_json::to_string(&art.payload).expect("serializes");
        let text = durable::seal(
            &ARTIFACT_FORMAT,
            &payload.replace("\"num_features\":9", "\"num_features\":12"),
        );
        assert!(matches!(
            ModelArtifact::decode(&text),
            Err(ArtifactError::Incompatible(_))
        ));
    }

    #[test]
    fn stale_schema_is_incompatible() {
        let mut stale = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        stale.payload.schema.loc_hist_bins = 16;
        // Re-encoding the stale payload produces a valid checksum, so decode
        // must still reject it on schema grounds.
        assert!(matches!(
            ModelArtifact::decode(&stale.encode()),
            Err(ArtifactError::Incompatible(_))
        ));
    }

    /// `payload` with one random edit: a byte replaced (by a
    /// digit half the time, so many edits keep the JSON valid and reach
    /// the model checks), a short range cut out, or a short range copied
    /// elsewhere. ASCII in, ASCII out, so the result is still one UTF-8
    /// line and a re-seal reaches the payload decoder.
    pub(crate) fn mutate(payload: &str, rng: &mut ChaCha8Rng) -> String {
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

    #[test]
    fn envelope_header_is_pinned_to_the_released_bytes() {
        assert_eq!(
            durable::seal(&ARTIFACT_FORMAT, "{\"pinned\":true}"),
            "{\"magic\":\"SPLITMFG-MODEL\",\"version\":1,\"checksum\":\"fnv1a64:b1eb29eedcee1085\"}\n\
             {\"pinned\":true}\n"
        );
    }

    /// Decoder property on the artifact payload: edits re-sealed past the
    /// envelope decode or fail as `Payload`/`Incompatible`, and every model
    /// that decodes compiles and scores a row.
    #[test]
    fn mutated_payloads_fail_typed_and_decoded_models_score() {
        let art = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        let payload = serde_json::to_string(&art.payload).expect("serializes");
        let mut rng = ChaCha8Rng::seed_from_u64(0xa27);
        let mut decoded = 0;
        for case in 0..1_000 {
            let text = durable::seal(&ARTIFACT_FORMAT, &mutate(&payload, &mut rng));
            match ModelArtifact::decode(&text) {
                Ok(artifact) => {
                    decoded += 1;
                    let model = artifact.into_trained();
                    let width = model.config().features.len();
                    let mut prob = [f64::NAN];
                    model
                        .model()
                        .compile()
                        .proba_batch(&vec![0.5; width], width, &mut prob);
                    assert!((0.0..=1.0).contains(&prob[0]), "case {case}: {prob:?}");
                }
                Err(ArtifactError::Payload(_) | ArtifactError::Incompatible(_)) => {}
                Err(e) => panic!("case {case}: {e:?}"),
            }
        }
        assert!(decoded > 0, "no edit kept the payload valid");
    }
}
