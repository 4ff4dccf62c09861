//! Versioned, checksummed on-disk model artifacts.
//!
//! An artifact is a two-line UTF-8 file:
//!
//! ```text
//! {"magic":"SPLITMFG-MODEL","version":1,"checksum":"fnv1a64:<16 hex>"}
//! {"parts":{...},"schema":{...},"meta":{...}}
//! ```
//!
//! Line 1 is the **header**: a magic string identifying the file type, the
//! format version, and an FNV-1a-64 checksum of the payload line's bytes.
//! Line 2 is the **payload**: the trained ensemble and everything needed
//! to reconstruct a [`TrainedAttack`] that scores bit-identically
//! ([`sm_attack::TrainedParts`]), the feature/binning schema the model was
//! trained under, and free-form training metadata.
//!
//! [`ModelArtifact::load`] validates magic, version, checksum, payload
//! shape, and schema coherence in that order, each failure mapped to its
//! own [`ArtifactError`] variant — a corrupt or stale file is always a
//! typed error, never a panic. The checksum catches corruption, not
//! tampering, so payload shape includes each tree's structure (checked by
//! the tree's own decoding): a crafted file cannot send the compiled
//! kernel out of bounds or into a cycle.

use std::path::Path;

use serde::{Deserialize, Serialize};
use sm_attack::attack::HIST_BINS;
use sm_attack::{TrainedAttack, TrainedParts};

/// First token of every artifact header; anything else is not an artifact.
pub const ARTIFACT_MAGIC: &str = "SPLITMFG-MODEL";

/// Current artifact format version. Bump policy: see `DESIGN.md` — any
/// change to [`TrainedParts`]' serialized shape, the feature semantics, or
/// the histogram convention requires a bump; readers reject other versions.
pub const ARTIFACT_VERSION: u32 = 1;

/// Typed artifact validation/read failure.
#[derive(Debug)]
pub enum ArtifactError {
    /// Filesystem failure reading or writing the artifact.
    Io(std::io::Error),
    /// The file is not a two-line header+payload document, or the header
    /// line is not valid JSON of the expected shape.
    Malformed(String),
    /// The header's magic string is wrong — not a model artifact.
    BadMagic {
        /// What the header contained instead of [`ARTIFACT_MAGIC`].
        found: String,
    },
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The single version this build supports ([`ARTIFACT_VERSION`]).
        supported: u32,
    },
    /// The payload bytes do not hash to the header's checksum (corruption
    /// or tampering).
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: String,
        /// Checksum of the payload actually present.
        found: String,
    },
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
            ArtifactError::Malformed(m) => write!(f, "malformed artifact: {m}"),
            ArtifactError::BadMagic { found } => {
                write!(f, "not a model artifact (magic '{found}')")
            }
            ArtifactError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "artifact format version {found} unsupported (this build reads {supported})"
                )
            }
            ArtifactError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "artifact checksum mismatch: header says {expected}, payload hashes to {found}"
                )
            }
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

#[derive(Debug, Serialize, Deserialize)]
struct Header {
    magic: String,
    version: u32,
    checksum: String,
}

/// FNV-1a 64-bit hash of `bytes`, formatted as the checksum string used
/// by both artifact headers and registry index entries
/// (`fnv1a64:<16 hex>`). Re-exported from the workspace-wide durability
/// helper so artifacts, registry indexes and attack checkpoints share one
/// definition.
pub(crate) use sm_attack::durable::fnv1a64;

/// Writes `bytes` to `path` crash-durably via
/// [`sm_attack::durable::atomic_write`] (`.tmp` sibling, fsync, atomic
/// rename, **parent-directory fsync** — the last step was missing here
/// before the durability fix: the rename was atomic but a power cut could
/// roll the directory entry back). `site` names the fail-point family
/// (`"artifact"` or `"registry_index"`) so chaos tests can kill the
/// process at each stage.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8], site: &str) -> Result<(), ArtifactError> {
    sm_attack::durable::atomic_write(path, bytes, site).map_err(ArtifactError::Io)
}

impl ModelArtifact {
    /// Wraps a trained model and its provenance into an artifact.
    pub fn from_trained(model: &TrainedAttack, meta: TrainMeta) -> Self {
        let parts = model.to_parts();
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

    /// Reconstructs the live model, re-validating schema coherence.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Incompatible`] if the recorded schema does
    /// not match this build's feature set or histogram convention.
    pub fn into_trained(self) -> Result<TrainedAttack, ArtifactError> {
        self.validate_schema()?;
        Ok(TrainedAttack::from_parts(self.payload.parts))
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
        let header = Header {
            magic: ARTIFACT_MAGIC.to_owned(),
            version: ARTIFACT_VERSION,
            checksum: fnv1a64(payload.as_bytes()),
        };
        let header = serde_json::to_string(&header).expect("header serialization is infallible");
        format!("{header}\n{payload}\n")
    }

    /// Parses and fully validates the two-line format.
    ///
    /// # Errors
    ///
    /// Returns the first failing check as a typed [`ArtifactError`]:
    /// malformed structure, bad magic, unsupported version, checksum
    /// mismatch, undecodable payload, or incompatible schema.
    pub fn decode(text: &str) -> Result<Self, ArtifactError> {
        let mut lines = text.lines();
        let header_line = lines
            .next()
            .ok_or_else(|| ArtifactError::Malformed("empty file".into()))?;
        let payload_line = lines
            .next()
            .ok_or_else(|| ArtifactError::Malformed("missing payload line".into()))?;
        if lines.next().is_some_and(|l| !l.trim().is_empty()) {
            return Err(ArtifactError::Malformed(
                "unexpected content after payload line".into(),
            ));
        }
        let header: Header = serde_json::from_str(header_line)
            .map_err(|e| ArtifactError::Malformed(format!("header does not parse: {e}")))?;
        if header.magic != ARTIFACT_MAGIC {
            return Err(ArtifactError::BadMagic {
                found: header.magic,
            });
        }
        if header.version != ARTIFACT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: header.version,
                supported: ARTIFACT_VERSION,
            });
        }
        let found = fnv1a64(payload_line.as_bytes());
        if header.checksum != found {
            return Err(ArtifactError::ChecksumMismatch {
                expected: header.checksum,
                found,
            });
        }
        let payload: ArtifactPayload = serde_json::from_str(payload_line)
            .map_err(|e| ArtifactError::Payload(e.to_string()))?;
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
        write_atomic(path, self.encode().as_bytes(), "artifact")
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
mod tests {
    use super::*;
    use sm_attack::attack::AttackConfig;
    use sm_layout::{SplitLayer, Suite};

    fn small_model() -> TrainedAttack {
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
        assert_eq!(back.into_trained().expect("coherent"), model);
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
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_typed_errors() {
        let art = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        let text = art.encode();
        let bad_magic = text.replacen(ARTIFACT_MAGIC, "NOT-A-MODEL", 1);
        assert!(matches!(
            ModelArtifact::decode(&bad_magic),
            Err(ArtifactError::BadMagic { .. })
        ));
        let bad_version = text.replacen("\"version\":1", "\"version\":99", 1);
        assert!(matches!(
            ModelArtifact::decode(&bad_version),
            Err(ArtifactError::UnsupportedVersion {
                found: 99,
                supported: ARTIFACT_VERSION
            })
        ));
    }

    #[test]
    fn truncated_and_garbage_inputs_are_malformed() {
        assert!(matches!(
            ModelArtifact::decode(""),
            Err(ArtifactError::Malformed(_))
        ));
        assert!(matches!(
            ModelArtifact::decode(
                "{\"magic\":\"SPLITMFG-MODEL\",\"version\":1,\"checksum\":\"x\"}"
            ),
            Err(ArtifactError::Malformed(_))
        ));
        assert!(matches!(
            ModelArtifact::decode("not json\nnot json either\n"),
            Err(ArtifactError::Malformed(_))
        ));
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
                    ArtifactError::Malformed(_)
                        | ArtifactError::ChecksumMismatch { .. }
                        | ArtifactError::Payload(_)
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

    /// A two-line artifact around `payload` with a matching header
    /// checksum, so only the payload's own checks can reject it.
    fn reencode(payload: &str) -> String {
        let header = Header {
            magic: ARTIFACT_MAGIC.to_owned(),
            version: ARTIFACT_VERSION,
            checksum: fnv1a64(payload.as_bytes()),
        };
        let header = serde_json::to_string(&header).expect("serializes");
        format!("{header}\n{payload}\n")
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
        reencode(&format!(
            "{}{root}{}",
            &payload[..nodes.start],
            &payload[end..]
        ))
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
        assert_payload_error(&reencode(&payload), "empty node list");
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
        assert_payload_error(&reencode(&payload), "empty ensemble");
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
        let text = reencode(&payload.replace("\"num_features\":9", "\"num_features\":12"));
        assert!(matches!(
            ModelArtifact::decode(&text),
            Err(ArtifactError::Incompatible(_))
        ));
    }

    #[test]
    fn stale_schema_is_incompatible() {
        let art = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        let mut stale = art.clone();
        stale.payload.schema.loc_hist_bins = 16;
        assert!(matches!(
            stale.clone().into_trained(),
            Err(ArtifactError::Incompatible(_))
        ));
        // Re-encoding the stale payload produces a valid checksum, so decode
        // must still reject it on schema grounds.
        assert!(matches!(
            ModelArtifact::decode(&stale.encode()),
            Err(ArtifactError::Incompatible(_))
        ));
    }
}
