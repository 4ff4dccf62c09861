//! Versioned, checksummed attack checkpoints and the resumable scoring
//! driver.
//!
//! A checkpoint is sealed in the workspace's two-line envelope
//! ([`crate::durable`], format [`CHECKPOINT_FORMAT`]):
//!
//! ```text
//! {"magic":"SPLITMFG-CHECKPOINT","version":1,"checksum":"fnv1a64:<16 hex>"}
//! {"fingerprint":{...},"state":{...}}
//! ```
//!
//! The payload line is a [`Fingerprint`] of the
//! run the state belongs to, plus the [`RunState`]: the partial scoring
//! of one view (completed per-v-pin top-K slots, the partial candidate
//! histogram, the pair count and the target cursor).
//!
//! ## Resume is bit-identical
//!
//! [`score_resumable`] cuts the target list into deterministic shards
//! ([`sm_ml::parallel::shard_ranges`]) and scores each with
//! `ScoreOptions { targets: Some(shard) }`. Per-target work depends only
//! on the model, the view and `top_k` — and `top_k` is computed from the
//! *view's* v-pin count, never from the target list — so concatenating
//! per-shard slots in target order, adding the per-shard `u64` histograms
//! and summing the pair counts reproduces a whole-view scoring call bit
//! for bit. This is exactly the in-order-merge discipline
//! `sm_ml::parallel::par_chunks` already applies *within* one call,
//! lifted to a boundary that can be persisted: the state at a shard
//! boundary is a pure function of which shards completed, so a process
//! killed anywhere and resumed from its last checkpoint converges to the
//! same bytes as an uninterrupted run (proven by the `chaos_attack`
//! suite and the parity tests in `tests/checkpoint_resume.rs`).
//!
//! Because the fingerprint covers only result-affecting inputs, a resume
//! may legally change `--threads` and `--checkpoint-every` — both proven
//! bit-identical knobs — while a
//! different config, model, view or top-K shape is a typed
//! [`CheckpointError::Mismatch`] refusal. A run without `--model` trains
//! under its own `--threads`; the `retrained` case of the `chaos_attack`
//! suite's `sigkill_at_every_checkpoint_write_site_resumes_byte_identical`
//! kills one under `--threads 1` and resumes it under `--threads 2`.
//!
//! ## Version-bump policy
//!
//! Any change to the serialized shape of [`Fingerprint`], [`RunState`],
//! [`VpinScore`]/[`Cand`](crate::attack::Cand), or the histogram
//! convention requires bumping [`CHECKPOINT_VERSION`]; readers reject
//! other versions with a typed error. Checkpoints are short-lived (they
//! are deleted when a run completes), so no cross-version migration is
//! provided — an old checkpoint after an upgrade is a refusal, and the
//! run restarts from scratch.
//!
//! Version 1 once also carried a cross-validation state. Dropping it
//! needed no bump: the scoring payload kept its bytes, and no binary ever
//! wrote a cross-validation checkpoint (only a library driver with no
//! caller did), so one now decodes as a [`CheckpointError::Payload`].

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};
use sm_layout::SplitView;
use sm_ml::parallel::shard_ranges;

use crate::attack::{ScoreOptions, ScoredView, TrainedAttack, VpinScore, HIST_BINS};
use crate::durable::{self, atomic_write, fnv1a64, EnvelopeError, Format};
use crate::Parallelism;

/// Current checkpoint format version (bump policy: see the module docs).
pub const CHECKPOINT_VERSION: u32 = 1;

/// The checkpoint envelope: magic `SPLITMFG-CHECKPOINT`, [`CHECKPOINT_VERSION`].
pub const CHECKPOINT_FORMAT: Format = Format {
    magic: "SPLITMFG-CHECKPOINT",
    version: CHECKPOINT_VERSION,
    noun: "checkpoint",
};

/// Default targets per shard between checkpoint writes.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 2048;

/// Typed checkpoint failure. Loading a corrupt, stale or mismatched
/// checkpoint is always one of these — never a panic and never a partial
/// resume.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure reading or writing the checkpoint.
    Io(std::io::Error),
    /// The envelope is broken: structure, magic, version or checksum.
    Envelope(EnvelopeError),
    /// The payload passed the checksum but does not decode, or decodes
    /// into an internally inconsistent state (cursor past the end, wrong
    /// histogram arity, ...).
    Payload(String),
    /// The checkpoint belongs to a different run: resuming would splice
    /// state from one computation into another.
    Mismatch {
        /// Which fingerprint field disagreed.
        field: &'static str,
        /// The running configuration's value.
        expected: String,
        /// The checkpoint's value.
        found: String,
    },
    /// A checkpoint file already exists and `resume` was not requested;
    /// starting fresh would clobber resumable state.
    Exists(PathBuf),
    /// The requested operation cannot be checkpointed.
    Unsupported(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o: {e}"),
            CheckpointError::Envelope(e) => write!(f, "{e}"),
            CheckpointError::Payload(m) => {
                write!(f, "checkpoint payload does not decode: {m}")
            }
            CheckpointError::Mismatch {
                field,
                expected,
                found,
            } => write!(
                f,
                "checkpoint belongs to a different run: {field} is {found}, \
                 this run has {expected}"
            ),
            CheckpointError::Exists(path) => write!(
                f,
                "checkpoint {} already exists; resume it or delete it to start fresh",
                path.display()
            ),
            CheckpointError::Unsupported(m) => write!(f, "cannot checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Identity of one view as far as resume safety is concerned.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ViewId {
    /// Design name.
    pub name: String,
    /// Number of v-pins (also pins `top_k`, which derives from it).
    pub num_vpins: usize,
}

impl ViewId {
    fn of(view: &SplitView) -> Self {
        Self {
            name: view.name.clone(),
            num_vpins: view.num_vpins(),
        }
    }
}

/// What a checkpoint's state is a function of: everything that affects
/// the *bytes* of the final result. Deliberately excluded — and therefore
/// free to change across a resume — are parallelism, kernel, enumeration
/// and the shard size, all proven bit-identical knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fingerprint {
    /// Run kind: `"attack"` or `"pa"` — resuming an attack checkpoint
    /// into a pa run is a refusal even with equal configs.
    pub kind: String,
    /// FNV-1a-64 of the serialized [`crate::attack::AttackConfig`], its
    /// `parallelism` reset to the default.
    pub config_hash: String,
    /// FNV-1a-64 of the serialized [`crate::attack::TrainedParts`], the
    /// config's `parallelism` reset to the default.
    pub model_hash: String,
    /// The view the run scores, as a one-element list.
    pub views: Vec<ViewId>,
    /// [`ScoreOptions::top_fraction`] — changes the retained top-K.
    pub top_fraction: f64,
    /// [`ScoreOptions::top_floor`] — changes the retained top-K.
    pub top_floor: usize,
}

impl Fingerprint {
    /// Fingerprint of a single-view scoring run (`attack` / `pa`).
    #[must_use]
    pub fn for_scoring(
        kind: &str,
        model: &TrainedAttack,
        view: &SplitView,
        options: &ScoreOptions,
    ) -> Self {
        // A model trained in-process carries the run's `--threads` in its
        // config; hash it as if trained with the default, so the thread
        // count stays free to change across a resume.
        let mut parts = model.to_parts();
        parts.config.parallelism = Parallelism::default();
        let config =
            serde_json::to_string(&parts.config).expect("config serialization is infallible");
        let parts = serde_json::to_string(&parts).expect("model serialization is infallible");
        Self {
            kind: kind.to_owned(),
            config_hash: fnv1a64(config.as_bytes()),
            model_hash: fnv1a64(parts.as_bytes()),
            views: vec![ViewId::of(view)],
            top_fraction: options.top_fraction,
            top_floor: options.top_floor,
        }
    }

    /// Verifies a loaded checkpoint's fingerprint against this run's,
    /// reporting the first disagreeing field.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] naming the field.
    pub fn verify(&self, found: &Fingerprint) -> Result<(), CheckpointError> {
        let fail = |field, expected: String, found: String| {
            Err(CheckpointError::Mismatch {
                field,
                expected,
                found,
            })
        };
        if self.kind != found.kind {
            return fail("run kind", self.kind.clone(), found.kind.clone());
        }
        if self.config_hash != found.config_hash {
            return fail(
                "config",
                self.config_hash.clone(),
                found.config_hash.clone(),
            );
        }
        if self.model_hash != found.model_hash {
            return fail("model", self.model_hash.clone(), found.model_hash.clone());
        }
        if self.views != found.views {
            let show = |v: &[ViewId]| {
                v.iter()
                    .map(|v| format!("{}({} v-pins)", v.name, v.num_vpins))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            return fail("views", show(&self.views), show(&found.views));
        }
        if self.top_fraction.to_bits() != found.top_fraction.to_bits() {
            return fail(
                "top_fraction",
                self.top_fraction.to_string(),
                found.top_fraction.to_string(),
            );
        }
        if self.top_floor != found.top_floor {
            return fail(
                "top_floor",
                self.top_floor.to_string(),
                found.top_floor.to_string(),
            );
        }
        Ok(())
    }
}

/// Partial scoring of one view: the first `targets_done` targets are
/// complete, everything else has not started (shards are sequential, so
/// there is no in-between).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoringState {
    /// Targets completed (== `slots.len()`; the resume cursor).
    pub targets_done: usize,
    /// Per-target records of the completed targets, in target order.
    pub slots: Vec<VpinScore>,
    /// Partial candidate histogram (contributions of completed targets).
    pub hist: Vec<u64>,
    /// Candidate pairs evaluated so far.
    pub pairs_scored: u64,
    /// Total v-pins in the view (denominator of LoC fractions).
    pub num_view_vpins: usize,
}

/// The resumable state a checkpoint carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RunState {
    /// Partial scoring of a single view.
    Scoring(ScoringState),
}

/// The checksummed payload line of a checkpoint file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Which run this state belongs to.
    pub fingerprint: Fingerprint,
    /// The resumable state.
    pub state: RunState,
}

impl Checkpoint {
    /// Serializes to the two-line on-disk format.
    #[must_use]
    pub fn encode(&self) -> String {
        let payload = serde_json::to_string(self).expect("checkpoint serialization is infallible");
        durable::seal(&CHECKPOINT_FORMAT, &payload)
    }

    /// Parses and fully validates the two-line format.
    ///
    /// # Errors
    ///
    /// The first failing check as a typed [`CheckpointError`]: the
    /// envelope, then an undecodable or inconsistent payload.
    pub fn decode(text: &str) -> Result<Self, CheckpointError> {
        let payload = durable::open(&CHECKPOINT_FORMAT, text).map_err(CheckpointError::Envelope)?;
        let checkpoint: Checkpoint =
            serde_json::from_str(payload).map_err(|e| CheckpointError::Payload(e.to_string()))?;
        checkpoint.validate()?;
        Ok(checkpoint)
    }

    /// Internal consistency of the decoded state (checksummed corruption
    /// is already excluded; this catches a payload written by a buggy or
    /// foreign producer). Everything resume and the result's consumers
    /// index or add up is checked here, so a crafted state is a typed
    /// error instead of a panic.
    fn validate(&self) -> Result<(), CheckpointError> {
        let payload = |m: String| Err(CheckpointError::Payload(m));
        let RunState::Scoring(s) = &self.state;
        if s.slots.len() != s.targets_done {
            return payload(format!(
                "cursor says {} targets done but {} slots are recorded",
                s.targets_done,
                s.slots.len()
            ));
        }
        if s.hist.len() != HIST_BINS {
            return payload(format!(
                "histogram has {} bins, this build uses {HIST_BINS}",
                s.hist.len()
            ));
        }
        let total: usize = self.fingerprint.views.first().map_or(0, |v| v.num_vpins);
        if s.targets_done > total {
            return payload(format!(
                "cursor {} is past the view's {total} v-pins",
                s.targets_done
            ));
        }
        if s.num_view_vpins != total {
            return payload(format!(
                "state counts {} v-pins, the fingerprint's view has {total}",
                s.num_view_vpins
            ));
        }
        // Targets are scored in order, so slot k is v-pin k, and
        // every candidate is a v-pin of the view.
        for (k, slot) in s.slots.iter().enumerate() {
            if slot.vpin as usize != k || slot.top.iter().any(|c| c.index as usize >= total) {
                return payload(format!("slot {k} is not a scoring of v-pin {k}"));
            }
        }
        // Each scored pair lands in one bin, and a target scores at
        // most every v-pin, so the counts cannot overflow on resume.
        let binned = s.hist.iter().try_fold(0u64, |acc, &h| acc.checked_add(h));
        let most = (s.targets_done as u64).checked_mul(total as u64);
        if binned != Some(s.pairs_scored) || most.is_none_or(|m| s.pairs_scored > m) {
            return payload(format!(
                "{} pairs scored do not match the histogram of {} targets",
                s.pairs_scored, s.targets_done
            ));
        }
        Ok(())
    }

    /// Writes the checkpoint crash-durably (tmp + fsync + rename +
    /// parent-dir fsync, fail-point site family `checkpoint`).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        atomic_write(path, self.encode().as_bytes(), "checkpoint").map_err(CheckpointError::Io)
    }

    /// Reads and validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure (including a missing
    /// file), otherwise the typed validation errors of
    /// [`Checkpoint::decode`].
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        let text = std::fs::read_to_string(path)?;
        Self::decode(&text)
    }
}

/// Where and how often a resumable driver checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointSpec {
    /// Checkpoint file path (created/replaced atomically, deleted on
    /// completion).
    pub path: PathBuf,
    /// Targets per shard between checkpoint writes, clamped to at least
    /// one. May differ between the interrupted and the resuming process.
    pub every: usize,
}

/// Outcome of a resumable scoring run.
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreOutcome {
    /// The run finished; the checkpoint file has been removed.
    Complete(ScoredView),
    /// The run stopped at a shard boundary after `should_stop` turned
    /// true; the final checkpoint is on disk.
    Interrupted {
        /// Targets completed and persisted.
        targets_done: usize,
        /// Total targets of the run.
        num_targets: usize,
    },
}

/// How a resumable driver should start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resume {
    /// Start from scratch; an existing checkpoint file is a typed
    /// [`CheckpointError::Exists`] refusal (never silently clobbered).
    Fresh,
    /// Resume from the checkpoint file if present (fingerprint-verified),
    /// start fresh if absent.
    IfPresent,
}

/// Scores `view` like [`TrainedAttack::score`], checkpointing after every
/// [`CheckpointSpec::every`] targets and stopping cleanly at the next
/// shard boundary once `should_stop` returns true.
///
/// The result is bit-identical to an uninterrupted
/// `model.score(view, options)` call, for any interleaving of kills and
/// resumes and any `every` (see the module docs for the argument and
/// `tests/checkpoint_resume.rs` for the proof).
///
/// # Errors
///
/// Typed [`CheckpointError`]s: i/o, a corrupt checkpoint (refused, never
/// partially applied), a fingerprint mismatch, or
/// [`CheckpointError::Exists`] when `resume` is [`Resume::Fresh`] but a
/// checkpoint file is present. `options.targets` must be `None` — the
/// driver owns the target cursor — otherwise
/// [`CheckpointError::Unsupported`].
pub fn score_resumable(
    model: &TrainedAttack,
    view: &SplitView,
    options: &ScoreOptions,
    spec: &CheckpointSpec,
    resume: Resume,
    should_stop: &dyn Fn() -> bool,
) -> Result<ScoreOutcome, CheckpointError> {
    score_resumable_as(
        "attack",
        model,
        view,
        options,
        spec,
        resume,
        should_stop,
        &|_, _| {},
    )
}

/// [`score_resumable`] with an explicit run kind (`"attack"` / `"pa"`),
/// so a proximity-attack checkpoint can never resume a plain attack run,
/// and `on_resume`, called with the loaded cursor (targets done, targets
/// in all) before any scoring when a checkpoint is resumed.
#[allow(clippy::too_many_arguments)]
pub fn score_resumable_as(
    kind: &str,
    model: &TrainedAttack,
    view: &SplitView,
    options: &ScoreOptions,
    spec: &CheckpointSpec,
    resume: Resume,
    should_stop: &dyn Fn() -> bool,
    on_resume: &dyn Fn(usize, usize),
) -> Result<ScoreOutcome, CheckpointError> {
    if options.targets.is_some() {
        return Err(CheckpointError::Unsupported(
            "explicit score targets (the resumable driver owns the target cursor)",
        ));
    }
    let fingerprint = Fingerprint::for_scoring(kind, model, view, options);
    let n = view.num_vpins();
    let mut state = match (resume, spec.path.exists()) {
        (Resume::Fresh, true) => return Err(CheckpointError::Exists(spec.path.clone())),
        (_, false) => ScoringState {
            targets_done: 0,
            slots: Vec::new(),
            hist: vec![0u64; HIST_BINS],
            pairs_scored: 0,
            num_view_vpins: n,
        },
        (Resume::IfPresent, true) => {
            let checkpoint = Checkpoint::load(&spec.path)?;
            fingerprint.verify(&checkpoint.fingerprint)?;
            let RunState::Scoring(s) = checkpoint.state;
            on_resume(s.targets_done, n);
            s
        }
    };
    for range in shard_ranges(n, spec.every) {
        if range.end <= state.targets_done {
            continue; // shard fully completed before the interruption
        }
        // A resume with a different `every` may land mid-shard; realign
        // the shard start to the persisted cursor.
        let start = state.targets_done;
        let targets: Vec<u32> = (start as u32..range.end as u32).collect();
        if !targets.is_empty() {
            let part = model.score(
                view,
                &ScoreOptions {
                    targets: Some(targets),
                    ..options.clone()
                },
            );
            state.targets_done = range.end;
            state.slots.extend(part.slots);
            for (acc, add) in state.hist.iter_mut().zip(&part.hist) {
                *acc += add;
            }
            state.pairs_scored += part.pairs_scored;
        }
        Checkpoint {
            fingerprint: fingerprint.clone(),
            state: RunState::Scoring(state.clone()),
        }
        .save(&spec.path)?;
        if state.targets_done < n && should_stop() {
            return Ok(ScoreOutcome::Interrupted {
                targets_done: state.targets_done,
                num_targets: n,
            });
        }
    }
    match std::fs::remove_file(&spec.path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(CheckpointError::Io(e)),
    }
    Ok(ScoreOutcome::Complete(ScoredView {
        slots: state.slots,
        hist: state.hist,
        num_view_vpins: state.num_view_vpins,
        pairs_scored: state.pairs_scored,
    }))
}
