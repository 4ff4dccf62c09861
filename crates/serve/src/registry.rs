//! Versioned on-disk model registry and the in-memory catalog it loads
//! into.
//!
//! A registry is a directory of [`ModelArtifact`] files plus one
//! checksummed `index` file naming them:
//!
//! ```text
//! registry/
//!   index            <- two-line header + payload, FNV-1a-64 checksummed
//!   incumbent.model  <- ordinary model artifacts (themselves checksummed)
//!   retrained.model
//! ```
//!
//! The `index` file is sealed in the same envelope as an artifact
//! ([`sm_attack::durable`], format [`REGISTRY_FORMAT`]; header
//! `{"magic":"SPLITMFG-REGISTRY","version":1,"checksum":...}`). Its
//! payload is the default model id plus one [`IndexEntry`] per
//! model (`model_id → artifact path, artifact checksum, schema version,
//! train metadata`). [`RegistryIndex::load`] reports a broken envelope as
//! [`RegistryError::Envelope`]; [`publish`] writes an artifact
//! plus the updated index crash-safely (tmp + fsync + rename, both
//! files).
//!
//! [`Catalog::load`] turns a registry into the in-memory serving set: it
//! checks every artifact file against its index entry (the same check
//! [`verify`] reports per model) and lowers each ensemble into a
//! [`CompiledEnsemble`] once at load time (compilation is load-time
//! lowering — the wire format is untouched).
//! The server holds the whole catalog behind one atomically-swapped
//! `Arc`, so a `Reload` replaces every model in one pointer store while
//! in-flight requests keep the `Arc` they started with.

use std::collections::HashSet;
use std::path::{Component, Path};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use sm_attack::durable::{self, fnv1a64, EnvelopeError, Format};
use sm_attack::TrainedAttack;
use sm_ml::CompiledEnsemble;

use crate::artifact::{ArtifactError, ModelArtifact, TrainMeta, ARTIFACT_FORMAT};

/// Current index format version. Bump policy: see `DESIGN.md` — any
/// change to the [`IndexEntry`] shape or the checksum convention requires
/// a bump; readers reject other versions. Artifact *payload* changes bump
/// [`crate::ARTIFACT_VERSION`] instead, which every entry records as its
/// `schema_version`.
pub const REGISTRY_VERSION: u32 = 1;

/// The index envelope: magic `SPLITMFG-REGISTRY`, [`REGISTRY_VERSION`].
pub const REGISTRY_FORMAT: Format = Format {
    magic: "SPLITMFG-REGISTRY",
    version: REGISTRY_VERSION,
    noun: "registry index",
};

/// The model id a single-model (non-registry) server publishes itself
/// under, so routing and reporting work identically in both modes.
pub const SINGLE_MODEL_ID: &str = "default";

/// File name of the index inside a registry directory.
pub const INDEX_FILE: &str = "index";

/// Typed registry failure: every way a registry directory, its index, or
/// one of its artifacts can be unusable maps to its own variant — a
/// corrupt registry is always a typed error, never a panic and never a
/// silently half-loaded catalog.
#[derive(Debug)]
pub enum RegistryError {
    /// Filesystem failure reading or writing the registry.
    Io(std::io::Error),
    /// The index envelope is broken: structure, magic, version or
    /// checksum.
    Envelope(EnvelopeError),
    /// The index passed its checksum but its payload does not decode.
    Payload(String),
    /// A model id is empty, too long, or contains characters outside
    /// `[A-Za-z0-9._-]` (ids become file names; anything fancier is a
    /// path-traversal lever).
    BadModelId(String),
    /// The same model id appears twice in the index.
    DuplicateModel(String),
    /// A referenced model id (default, shadow, or an entry's artifact
    /// path target) does not exist.
    UnknownModel(String),
    /// The index lists no models at all.
    Empty,
    /// An entry's artifact path escapes the registry directory.
    BadPath {
        /// The offending entry.
        model_id: String,
        /// The path as recorded in the index.
        path: String,
    },
    /// An entry's artifact file does not hash to the checksum recorded in
    /// the index (the artifact was overwritten or corrupted after
    /// publication).
    ArtifactChecksum {
        /// The offending entry.
        model_id: String,
        /// Checksum recorded in the index.
        expected: String,
        /// Checksum of the file actually on disk.
        found: String,
    },
    /// An entry's recorded schema version does not match this build.
    UnsupportedSchema {
        /// The offending entry.
        model_id: String,
        /// Schema version recorded in the index.
        found: u32,
        /// The version this build serves ([`crate::ARTIFACT_VERSION`]).
        supported: u32,
    },
    /// An entry's artifact failed its own (artifact-level) validation.
    Artifact {
        /// The offending entry.
        model_id: String,
        /// The underlying artifact failure.
        error: ArtifactError,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Io(e) => write!(f, "registry i/o: {e}"),
            RegistryError::Envelope(e) => write!(f, "{e}"),
            RegistryError::Payload(m) => write!(f, "registry index payload does not decode: {m}"),
            RegistryError::BadModelId(id) => write!(
                f,
                "bad model id '{id}' (need 1-64 chars of [A-Za-z0-9._-])"
            ),
            RegistryError::DuplicateModel(id) => {
                write!(f, "model id '{id}' appears twice in the index")
            }
            RegistryError::UnknownModel(id) => write!(f, "model '{id}' not found in the registry"),
            RegistryError::Empty => write!(f, "registry index lists no models"),
            RegistryError::BadPath { model_id, path } => write!(
                f,
                "model '{model_id}' has artifact path '{path}' escaping the registry directory"
            ),
            RegistryError::ArtifactChecksum {
                model_id,
                expected,
                found,
            } => write!(
                f,
                "model '{model_id}' artifact checksum mismatch: index says {expected}, file hashes to {found}"
            ),
            RegistryError::UnsupportedSchema {
                model_id,
                found,
                supported,
            } => write!(
                f,
                "model '{model_id}' has schema version {found} (this build serves {supported})"
            ),
            RegistryError::Artifact { model_id, error } => {
                write!(f, "model '{model_id}': {error}")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<std::io::Error> for RegistryError {
    fn from(e: std::io::Error) -> Self {
        RegistryError::Io(e)
    }
}

/// Checks the model-id contract: 1–64 chars of `[A-Za-z0-9._-]`, and not
/// a dotfile-ish name (`.`/`..`). Ids become artifact file names, so the
/// charset is the path-traversal defence.
///
/// # Errors
///
/// Returns [`RegistryError::BadModelId`] naming the offender.
pub fn validate_model_id(id: &str) -> Result<(), RegistryError> {
    let ok_len = !id.is_empty() && id.len() <= 64;
    let ok_chars = id
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
    if ok_len && ok_chars && id != "." && id != ".." {
        Ok(())
    } else {
        Err(RegistryError::BadModelId(id.to_owned()))
    }
}

/// One model's row in the registry index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexEntry {
    /// Routing key: the id clients put in `model_id` request fields.
    pub model_id: String,
    /// Artifact file path relative to the registry directory.
    pub path: String,
    /// FNV-1a-64 checksum of the artifact file's exact bytes (both
    /// lines), re-verified on every catalog load.
    pub checksum: String,
    /// Artifact format version the entry was published under
    /// ([`crate::ARTIFACT_VERSION`] at publish time).
    pub schema_version: u32,
    /// Training provenance copied out of the artifact for listing
    /// without decoding the model.
    pub meta: TrainMeta,
}

/// The checksummed payload of a registry `index` file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegistryIndex {
    /// The id requests without a `model_id` route to.
    pub default_model: String,
    /// Every published model, in publication order.
    pub entries: Vec<IndexEntry>,
}

impl RegistryIndex {
    /// Structural validation shared by decode and publish: ids are legal
    /// and unique, paths stay inside the registry, the default exists,
    /// and the index is non-empty.
    fn validate(&self) -> Result<(), RegistryError> {
        if self.entries.is_empty() {
            return Err(RegistryError::Empty);
        }
        let mut seen = HashSet::new();
        for entry in &self.entries {
            validate_model_id(&entry.model_id)?;
            if !seen.insert(entry.model_id.as_str()) {
                return Err(RegistryError::DuplicateModel(entry.model_id.clone()));
            }
            let path = Path::new(&entry.path);
            let escapes = path.is_absolute()
                || path
                    .components()
                    .any(|c| !matches!(c, Component::Normal(_)));
            if escapes {
                return Err(RegistryError::BadPath {
                    model_id: entry.model_id.clone(),
                    path: entry.path.clone(),
                });
            }
        }
        if !self
            .entries
            .iter()
            .any(|e| e.model_id == self.default_model)
        {
            return Err(RegistryError::UnknownModel(self.default_model.clone()));
        }
        Ok(())
    }

    /// The entry for `model_id`, if published.
    #[must_use]
    pub fn get(&self, model_id: &str) -> Option<&IndexEntry> {
        self.entries.iter().find(|e| e.model_id == model_id)
    }

    /// Serializes to the two-line checksummed on-disk format.
    pub fn encode(&self) -> String {
        let payload = serde_json::to_string(self).expect("index serialization is infallible");
        durable::seal(&REGISTRY_FORMAT, &payload)
    }

    /// Parses and fully validates the two-line index format.
    ///
    /// # Errors
    ///
    /// The first failing check as a typed [`RegistryError`]: the
    /// envelope, an undecodable payload, or an incoherent entry set.
    pub fn decode(text: &str) -> Result<Self, RegistryError> {
        let payload = durable::open(&REGISTRY_FORMAT, text).map_err(RegistryError::Envelope)?;
        let index: RegistryIndex =
            serde_json::from_str(payload).map_err(|e| RegistryError::Payload(e.to_string()))?;
        index.validate()?;
        Ok(index)
    }

    /// Reads and validates `dir`'s index file.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] on filesystem failure (including a missing
    /// index), otherwise the typed validation errors of
    /// [`RegistryIndex::decode`].
    pub fn load(dir: &Path) -> Result<Self, RegistryError> {
        let text = std::fs::read_to_string(dir.join(INDEX_FILE))?;
        Self::decode(&text)
    }

    /// Writes the index into `dir` crash-durably (tmp + fsync + rename +
    /// parent-dir fsync; fail-point site family `registry_index`).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] on filesystem failure; re-validates first so
    /// an incoherent index can never be published.
    pub fn save(&self, dir: &Path) -> Result<(), RegistryError> {
        self.validate()?;
        durable::atomic_write(
            &dir.join(INDEX_FILE),
            self.encode().as_bytes(),
            "registry_index",
        )?;
        Ok(())
    }
}

/// Publishes `artifact` into the registry at `dir` under `model_id`:
/// writes `<model_id>.model` (atomic), then installs/replaces the id's
/// index entry (atomic). A new registry's first published model becomes
/// the default; `make_default` promotes on republish. Readers racing a
/// publish see either the old index or the new one, never a torn state.
///
/// # Errors
///
/// [`RegistryError::BadModelId`] for an illegal id,
/// [`RegistryError::Io`] for filesystem failures, plus index validation
/// errors for a pre-existing corrupt index.
pub fn publish(
    dir: &Path,
    model_id: &str,
    artifact: &ModelArtifact,
    make_default: bool,
) -> Result<IndexEntry, RegistryError> {
    validate_model_id(model_id)?;
    std::fs::create_dir_all(dir)?;
    // One encoding is both the file's bytes and the index's checksum.
    let encoded = artifact.encode();
    let file_name = format!("{model_id}.model");
    durable::atomic_write(&dir.join(&file_name), encoded.as_bytes(), "artifact")?;
    // The window between publish's two atomic writes: a crash here leaves
    // the artifact on disk but not yet in the index — readers never see
    // it, and a re-publish simply overwrites it.
    sm_attack::failpoint::hit("registry.after_artifact");
    let entry = IndexEntry {
        model_id: model_id.to_owned(),
        path: file_name,
        checksum: fnv1a64(encoded.as_bytes()),
        schema_version: crate::ARTIFACT_VERSION,
        meta: artifact.payload().meta.clone(),
    };
    let mut index = match RegistryIndex::load(dir) {
        Ok(index) => index,
        // A fresh directory has no index yet; anything else is real.
        Err(RegistryError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => RegistryIndex {
            default_model: model_id.to_owned(),
            entries: Vec::new(),
        },
        Err(e) => return Err(e),
    };
    match index.entries.iter_mut().find(|e| e.model_id == model_id) {
        Some(slot) => *slot = entry.clone(),
        None => index.entries.push(entry.clone()),
    }
    if make_default {
        index.default_model = model_id.to_owned();
    }
    index.save(dir)?;
    // The index is durable; anything it no longer references is garbage.
    gc_unreferenced(dir, &index);
    Ok(entry)
}

/// Best-effort sweep of `*.model` files in `dir` that no index entry
/// references — the leftovers of a publish that crashed between its two
/// atomic writes (artifact on disk, index never updated; see the
/// `registry.after_artifact` fail point). Runs after every successful
/// [`publish`] index save, so orphans survive at most until the next
/// publish. Only files ending in `.model` are candidates; the index and
/// any unrelated files are never touched. Deletion failures are ignored
/// — the next publish simply retries.
fn gc_unreferenced(dir: &Path, index: &RegistryIndex) {
    let live: std::collections::HashSet<&str> =
        index.entries.iter().map(|e| e.path.as_str()).collect();
    let Ok(listing) = std::fs::read_dir(dir) else {
        return;
    };
    for item in listing.flatten() {
        let name = item.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        if name.ends_with(".model") && !live.contains(name) {
            let _ = std::fs::remove_file(item.path());
        }
    }
}

/// Reads `entry`'s artifact file from the registry at `dir` and checks it
/// against the index: the schema version is this build's, the file's
/// bytes hash to the recorded checksum, and it decodes as an artifact.
/// [`Catalog::load`] serves what this returns; [`verify`] reports it.
///
/// # Errors
///
/// [`RegistryError::UnsupportedSchema`], [`RegistryError::Io`] naming the
/// unreadable file, [`RegistryError::ArtifactChecksum`], or
/// [`RegistryError::Artifact`] for an artifact that fails its own checks.
fn load_entry(dir: &Path, entry: &IndexEntry) -> Result<ModelArtifact, RegistryError> {
    if entry.schema_version != crate::ARTIFACT_VERSION {
        return Err(RegistryError::UnsupportedSchema {
            model_id: entry.model_id.clone(),
            found: entry.schema_version,
            supported: crate::ARTIFACT_VERSION,
        });
    }
    let bytes = std::fs::read(dir.join(&entry.path)).map_err(|e| {
        std::io::Error::new(e.kind(), format!("artifact {} unreadable: {e}", entry.path))
    })?;
    let found = fnv1a64(&bytes);
    if found != entry.checksum {
        return Err(RegistryError::ArtifactChecksum {
            model_id: entry.model_id.clone(),
            expected: entry.checksum.clone(),
            found,
        });
    }
    let artifact = match std::str::from_utf8(&bytes) {
        Ok(text) => ModelArtifact::decode(text),
        Err(e) => Err(ArtifactError::Envelope(EnvelopeError::Malformed {
            noun: ARTIFACT_FORMAT.noun,
            reason: format!("not UTF-8: {e}"),
        })),
    };
    artifact.map_err(|error| RegistryError::Artifact {
        model_id: entry.model_id.clone(),
        error,
    })
}

/// One model's verdict from [`verify`]: `Ok(checksum)` when the artifact
/// passes `load_entry`'s checks, `Err(reason)` naming the failed check
/// otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedModel {
    /// The index entry's model id.
    pub model_id: String,
    /// Per-model verdict.
    pub status: Result<String, String>,
}

/// Offline integrity sweep of the registry at `dir` (the `models
/// --verify` command): validates the index (envelope and coherence),
/// then checks **every** artifact — schema version supported, file
/// readable, bytes hash to the index's recorded checksum, artifact
/// decodes — reporting per model instead of failing at the first
/// corruption the way the fail-fast [`Catalog::load`] does.
///
/// # Errors
///
/// A typed [`RegistryError`] when the index itself is unreadable or
/// corrupt (there is nothing meaningful to sweep). Per-artifact problems
/// are *not* errors — they come back as `Err` statuses in the report.
pub fn verify(dir: &Path) -> Result<Vec<VerifiedModel>, RegistryError> {
    let index = RegistryIndex::load(dir)?;
    Ok(index
        .entries
        .iter()
        .map(|entry| VerifiedModel {
            model_id: entry.model_id.clone(),
            status: load_entry(dir, entry)
                .map(|_| entry.checksum.clone())
                .map_err(|e| e.to_string()),
        })
        .collect())
}

/// One servable model: the decoded ensemble, its load-time-compiled form,
/// and the provenance/identity fields Health/Stats/ListModels report.
#[derive(Debug)]
pub struct ModelEntry {
    /// Routing key.
    pub model_id: String,
    /// FNV-1a-64 checksum of the artifact file this entry was loaded
    /// from — the identity a client can compare against the registry.
    pub checksum: String,
    /// Artifact format version of the loaded file.
    pub schema_version: u32,
    /// Training provenance from the artifact.
    pub meta: TrainMeta,
    /// The live model (attack entry points, configuration, metadata).
    pub model: TrainedAttack,
    /// The ensemble lowered once at load time (compiled scoring path).
    pub compiled: CompiledEnsemble,
}

impl ModelEntry {
    fn from_trained(
        model_id: &str,
        checksum: String,
        schema_version: u32,
        meta: TrainMeta,
        model: TrainedAttack,
    ) -> Arc<Self> {
        let compiled = model.model().compile();
        Arc::new(Self {
            model_id: model_id.to_owned(),
            checksum,
            schema_version,
            meta,
            model,
            compiled,
        })
    }
}

/// The in-memory serving set: every loaded model keyed by id, plus the
/// default. Immutable once built — the server swaps whole catalogs behind
/// an `Arc`, so a request that resolved an entry keeps scoring against
/// that exact model even if a `Reload` lands mid-request.
#[derive(Debug)]
pub struct Catalog {
    default_id: String,
    /// Sorted by `model_id` for deterministic lookups and listings.
    entries: Vec<Arc<ModelEntry>>,
}

impl Catalog {
    /// Loads and fully validates every model in the registry at `dir`.
    /// `default_override` replaces the index's default (it must name a
    /// published model). Each artifact file is re-hashed against the
    /// index's recorded checksum before decoding, so a silently replaced
    /// or corrupted artifact can never be served.
    ///
    /// # Errors
    ///
    /// Any [`RegistryError`]: index validation, per-entry checksum or
    /// schema mismatches, or artifact-level failures (each naming the
    /// offending `model_id`).
    pub fn load(dir: &Path, default_override: Option<&str>) -> Result<Self, RegistryError> {
        let index = RegistryIndex::load(dir)?;
        let default_id = match default_override {
            Some(id) => {
                if index.get(id).is_none() {
                    return Err(RegistryError::UnknownModel(id.to_owned()));
                }
                id.to_owned()
            }
            None => index.default_model.clone(),
        };
        let mut entries = Vec::with_capacity(index.entries.len());
        for entry in &index.entries {
            let artifact = load_entry(dir, entry)?;
            let meta = artifact.payload().meta.clone();
            let model = artifact.into_trained();
            entries.push(ModelEntry::from_trained(
                &entry.model_id,
                entry.checksum.clone(),
                entry.schema_version,
                meta,
                model,
            ));
        }
        entries.sort_by(|a, b| a.model_id.cmp(&b.model_id));
        Ok(Self {
            default_id,
            entries,
        })
    }

    /// Wraps one already-trained model as a single-entry catalog under
    /// [`SINGLE_MODEL_ID`] — the `serve --model FILE` mode. The checksum
    /// is computed over the model's canonical artifact encoding, so it
    /// matches what `publish` would record for the same model.
    #[must_use]
    pub fn single(model: TrainedAttack) -> Self {
        let artifact = ModelArtifact::from_trained(&model, TrainMeta::default());
        let checksum = fnv1a64(artifact.encode().as_bytes());
        Self {
            default_id: SINGLE_MODEL_ID.to_owned(),
            entries: vec![ModelEntry::from_trained(
                SINGLE_MODEL_ID,
                checksum,
                crate::ARTIFACT_VERSION,
                TrainMeta::default(),
                model,
            )],
        }
    }

    /// The id requests without a `model_id` route to.
    #[must_use]
    pub fn default_id(&self) -> &str {
        &self.default_id
    }

    /// The default entry (always present — catalogs cannot be empty).
    #[must_use]
    pub fn default_entry(&self) -> &Arc<ModelEntry> {
        self.get(&self.default_id)
            .expect("catalog default always resolves")
    }

    /// Looks up a model by id.
    #[must_use]
    pub fn get(&self, model_id: &str) -> Option<&Arc<ModelEntry>> {
        self.entries
            .binary_search_by(|e| e.model_id.as_str().cmp(model_id))
            .ok()
            .map(|k| &self.entries[k])
    }

    /// Routes a request's optional `model_id`: `None` means the default.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] if an explicit id is not in the
    /// catalog — the server maps this to the `not_found` error code.
    pub fn resolve(&self, model_id: Option<&str>) -> Result<&Arc<ModelEntry>, RegistryError> {
        match model_id {
            None => Ok(self.default_entry()),
            Some(id) => self
                .get(id)
                .ok_or_else(|| RegistryError::UnknownModel(id.to_owned())),
        }
    }

    /// All entries, sorted by model id.
    #[must_use]
    pub fn entries(&self) -> &[Arc<ModelEntry>] {
        &self.entries
    }

    /// Number of loaded models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Catalogs are never empty, but clippy insists `len` has a partner.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::tests::{mutate, small_model};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::path::PathBuf;

    fn tmp_registry(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smserve_registry_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn model_id_charset_is_enforced() {
        for ok in ["a", "incumbent", "v1.2-rc_3", "A-Z.09", &"x".repeat(64)] {
            assert!(validate_model_id(ok).is_ok(), "{ok}");
        }
        for bad in [
            "",
            ".",
            "..",
            "a/b",
            "../up",
            "sp ace",
            "ünïcode",
            &"x".repeat(65),
        ] {
            assert!(
                matches!(validate_model_id(bad), Err(RegistryError::BadModelId(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn index_encode_decode_roundtrips_and_rejects_corruption() {
        let index = RegistryIndex {
            default_model: "a".into(),
            entries: vec![
                IndexEntry {
                    model_id: "a".into(),
                    path: "a.model".into(),
                    checksum: "fnv1a64:0000000000000000".into(),
                    schema_version: crate::ARTIFACT_VERSION,
                    meta: TrainMeta::default(),
                },
                IndexEntry {
                    model_id: "b".into(),
                    path: "b.model".into(),
                    checksum: "fnv1a64:0000000000000001".into(),
                    schema_version: crate::ARTIFACT_VERSION,
                    meta: TrainMeta::default(),
                },
            ],
        };
        let text = index.encode();
        assert_eq!(RegistryIndex::decode(&text).expect("decodes"), index);

        let flipped = text.replace("\"b.model\"", "\"c.model\"");
        assert!(matches!(
            RegistryIndex::decode(&flipped),
            Err(RegistryError::Envelope(
                EnvelopeError::ChecksumMismatch { .. }
            ))
        ));
        let bad_magic = text.replacen(REGISTRY_FORMAT.magic, "NOT-AN-INDEX", 1);
        assert!(matches!(
            RegistryIndex::decode(&bad_magic),
            Err(RegistryError::Envelope(EnvelopeError::BadMagic { .. }))
        ));
        let bad_version = text.replacen("\"version\":1", "\"version\":9", 1);
        assert!(matches!(
            RegistryIndex::decode(&bad_version),
            Err(RegistryError::Envelope(EnvelopeError::UnsupportedVersion {
                found: 9,
                supported: REGISTRY_VERSION,
                ..
            }))
        ));
        assert!(matches!(
            RegistryIndex::decode(""),
            Err(RegistryError::Envelope(EnvelopeError::Malformed { .. }))
        ));
    }

    #[test]
    fn incoherent_indexes_are_typed_errors() {
        let empty = RegistryIndex {
            default_model: "a".into(),
            entries: vec![],
        };
        assert!(matches!(empty.validate(), Err(RegistryError::Empty)));

        let dup = RegistryIndex {
            default_model: "a".into(),
            entries: vec![entry("a"), entry("a")],
        };
        assert!(matches!(
            dup.validate(),
            Err(RegistryError::DuplicateModel(_))
        ));

        let no_default = RegistryIndex {
            default_model: "ghost".into(),
            entries: vec![entry("a")],
        };
        assert!(matches!(
            no_default.validate(),
            Err(RegistryError::UnknownModel(_))
        ));

        let mut escape = RegistryIndex {
            default_model: "a".into(),
            entries: vec![entry("a")],
        };
        escape.entries[0].path = "../outside.model".into();
        assert!(matches!(
            escape.validate(),
            Err(RegistryError::BadPath { .. })
        ));
        escape.entries[0].path = "/abs/path.model".into();
        assert!(matches!(
            escape.validate(),
            Err(RegistryError::BadPath { .. })
        ));
    }

    #[test]
    fn publish_then_load_roundtrips_and_first_publish_sets_default() {
        let dir = tmp_registry("publish");
        let model = small_model();
        let artifact = ModelArtifact::from_trained(&model, TrainMeta::default());
        let entry = publish(&dir, "incumbent", &artifact, false).expect("publishes");
        assert_eq!(entry.path, "incumbent.model");
        assert_eq!(entry.schema_version, crate::ARTIFACT_VERSION);

        let index = RegistryIndex::load(&dir).expect("index loads");
        assert_eq!(index.default_model, "incumbent", "first publish is default");
        assert_eq!(index.entries.len(), 1);

        // Second publish under a new id does not steal the default ...
        publish(&dir, "retrained", &artifact, false).expect("publishes");
        let index = RegistryIndex::load(&dir).expect("index loads");
        assert_eq!(index.default_model, "incumbent");
        assert_eq!(index.entries.len(), 2);

        // ... unless promoted.
        publish(&dir, "retrained", &artifact, true).expect("republish promotes");
        let index = RegistryIndex::load(&dir).expect("index loads");
        assert_eq!(index.default_model, "retrained");
        assert_eq!(index.entries.len(), 2, "republish replaces, not appends");

        let catalog = Catalog::load(&dir, None).expect("catalog loads");
        assert_eq!(catalog.len(), 2);
        assert_eq!(catalog.default_id(), "retrained");
        assert_eq!(
            catalog.get("incumbent").expect("present").checksum,
            entry.checksum
        );
        // Loaded models score bit-identically to the one we published.
        let loaded = &catalog.get("incumbent").expect("present").model;
        assert_eq!(loaded, &model);

        assert!(matches!(
            publish(&dir, "../evil", &artifact, false),
            Err(RegistryError::BadModelId(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_load_rejects_tampered_artifacts_and_unknown_overrides() {
        let dir = tmp_registry("tamper");
        let artifact = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        publish(&dir, "only", &artifact, true).expect("publishes");

        assert!(matches!(
            Catalog::load(&dir, Some("ghost")),
            Err(RegistryError::UnknownModel(_))
        ));

        // Overwrite the artifact *without* updating the index: the file is
        // a perfectly valid artifact, but not the one the index promised.
        let other = ModelArtifact::from_trained(
            &small_model(),
            TrainMeta {
                split_layer: "V6".into(),
                ..TrainMeta::default()
            },
        );
        other.save(&dir.join("only.model")).expect("overwrites");
        assert!(matches!(
            Catalog::load(&dir, None),
            Err(RegistryError::ArtifactChecksum { model_id, .. }) if model_id == "only"
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_catalog_routes_like_a_registry() {
        let model = small_model();
        let catalog = Catalog::single(model.clone());
        assert_eq!(catalog.default_id(), SINGLE_MODEL_ID);
        assert_eq!(catalog.len(), 1);
        assert!(!catalog.is_empty());
        assert_eq!(catalog.resolve(None).expect("default").model, model);
        assert_eq!(
            catalog.resolve(Some(SINGLE_MODEL_ID)).expect("by id").model,
            model
        );
        assert!(matches!(
            catalog.resolve(Some("nope")),
            Err(RegistryError::UnknownModel(_))
        ));
        // The synthetic checksum matches what publishing the same model
        // would record — identity is stable across both serve modes.
        let canonical = fnv1a64(
            ModelArtifact::from_trained(&model, TrainMeta::default())
                .encode()
                .as_bytes(),
        );
        assert_eq!(catalog.default_entry().checksum, canonical);
    }

    #[test]
    fn publish_garbage_collects_unreferenced_artifacts() {
        let dir = tmp_registry("gc");
        let artifact = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        publish(&dir, "live", &artifact, true).expect("publishes");
        // An orphan from a crashed publish (artifact written, index never
        // updated) and an unrelated stray file.
        std::fs::write(dir.join("orphan.model"), b"leftover bytes").expect("writes orphan");
        std::fs::write(dir.join("notes.txt"), b"keep me").expect("writes stray");
        publish(&dir, "second", &artifact, false).expect("publishes again");
        assert!(!dir.join("orphan.model").exists(), "stale artifact removed");
        assert!(dir.join("live.model").exists(), "live artifact survives");
        assert!(dir.join("second.model").exists(), "new artifact survives");
        assert!(
            dir.join("notes.txt").exists(),
            "non-artifact files untouched"
        );
        // The swept registry still verifies clean end to end.
        let report = verify(&dir).expect("verifies");
        assert_eq!(report.len(), 2);
        assert!(report.iter().all(|m| m.status.is_ok()), "{report:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn index_save_is_atomic_and_truncations_fail_typed() {
        let dir = tmp_registry("atomic");
        let artifact = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        publish(&dir, "m", &artifact, true).expect("publishes");
        assert!(
            !dir.join("index.tmp").exists(),
            "staging file renamed away on success"
        );
        let text = std::fs::read_to_string(dir.join(INDEX_FILE)).expect("reads");
        for cut in [0, 1, text.len() / 2, text.len() - 2] {
            std::fs::write(dir.join(INDEX_FILE), &text[..cut]).expect("writes truncation");
            let err = RegistryIndex::load(&dir).expect_err("truncated index must fail");
            assert!(
                matches!(
                    err,
                    RegistryError::Envelope(
                        EnvelopeError::Malformed { .. } | EnvelopeError::ChecksumMismatch { .. }
                    )
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn entry(id: &str) -> IndexEntry {
        IndexEntry {
            model_id: id.into(),
            path: format!("{id}.model"),
            checksum: "fnv1a64:0000000000000000".into(),
            schema_version: crate::ARTIFACT_VERSION,
            meta: TrainMeta::default(),
        }
    }

    #[test]
    fn index_bytes_are_pinned_to_the_released_format() {
        let index = RegistryIndex {
            default_model: "a".into(),
            entries: vec![entry("a")],
        };
        assert_eq!(
            index.encode(),
            "{\"magic\":\"SPLITMFG-REGISTRY\",\"version\":1,\"checksum\":\"fnv1a64:799697ca316c3ff7\"}\n\
             {\"default_model\":\"a\",\"entries\":[{\"model_id\":\"a\",\"path\":\"a.model\",\
             \"checksum\":\"fnv1a64:0000000000000000\",\"schema_version\":1,\"meta\":{\"benchmarks\":[],\
             \"split_layer\":\"\",\"excluded_target\":null,\"created_unix_s\":0}}]}\n"
        );
    }

    /// Decoder property on the index payload: edits re-sealed past the
    /// envelope decode to an index that round-trips, or fail with one of
    /// the index's own typed errors.
    #[test]
    fn mutated_index_payloads_decode_or_fail_typed() {
        let index = RegistryIndex {
            default_model: "b".into(),
            entries: vec![entry("a"), entry("b"), entry("c")],
        };
        let payload = serde_json::to_string(&index).expect("serializes");
        let mut rng = ChaCha8Rng::seed_from_u64(0x1d3);
        for case in 0..2_000 {
            let text = durable::seal(&REGISTRY_FORMAT, &mutate(&payload, &mut rng));
            match RegistryIndex::decode(&text) {
                Ok(index) => {
                    let again = RegistryIndex::decode(&index.encode()).expect("re-decodes");
                    assert_eq!(again, index, "case {case}");
                }
                Err(
                    RegistryError::Payload(_)
                    | RegistryError::BadModelId(_)
                    | RegistryError::DuplicateModel(_)
                    | RegistryError::UnknownModel(_)
                    | RegistryError::Empty
                    | RegistryError::BadPath { .. },
                ) => {}
                Err(e) => panic!("case {case}: {e:?}"),
            }
        }
    }

    /// `verify` reports each entry through the same check `Catalog::load`
    /// serves from, and each failure names what failed.
    #[test]
    fn verify_names_the_failing_check_per_model() {
        let dir = tmp_registry("verify_checks");
        let artifact = ModelArtifact::from_trained(&small_model(), TrainMeta::default());
        for id in ["ok", "flipped", "gone", "stale", "garbled"] {
            publish(&dir, id, &artifact, id == "ok").expect("publishes");
        }
        let mut bytes = std::fs::read(dir.join("flipped.model")).expect("reads");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(dir.join("flipped.model"), bytes).expect("corrupts");
        std::fs::remove_file(dir.join("gone.model")).expect("deletes");
        // A garbled file the index vouches for: its checksum matches, so
        // the artifact's own decoding must catch it.
        std::fs::write(dir.join("garbled.model"), b"garbage\n").expect("garbles");
        let mut index = RegistryIndex::load(&dir).expect("index loads");
        for e in &mut index.entries {
            match e.model_id.as_str() {
                "stale" => e.schema_version = 99,
                "garbled" => e.checksum = fnv1a64(b"garbage\n"),
                _ => {}
            }
        }
        index.save(&dir).expect("saves");

        let report = verify(&dir).expect("index verifies");
        let status = |id: &str| {
            report
                .iter()
                .find(|m| m.model_id == id)
                .expect("reported")
                .status
                .clone()
        };
        assert_eq!(
            status("ok"),
            Ok(index.get("ok").expect("ok").checksum.clone())
        );
        for (id, check) in [
            ("flipped", "artifact checksum mismatch"),
            ("gone", "artifact gone.model unreadable"),
            ("stale", "schema version 99"),
            ("garbled", "malformed model artifact"),
        ] {
            let reason = status(id).expect_err(id);
            assert!(reason.contains(check), "{id}: {reason}");
        }
        assert!(matches!(
            Catalog::load(&dir, None),
            Err(RegistryError::ArtifactChecksum { model_id, .. }) if model_id == "flipped"
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
