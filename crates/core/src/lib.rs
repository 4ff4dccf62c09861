//! # sm-attack — machine-learning attack on split manufacturing
//!
//! Implementation of the attack framework of *"Analysis of Security of
//! Split Manufacturing Using Machine Learning"* (Zeng, Zhang, Davoodi):
//! given the FEOL view of a split-manufactured layout
//! ([`sm_layout::SplitView`]), recover which v-pins belong to the same net.
//!
//! The pipeline (paper Fig. 1): extract the 11 pair features
//! ([`features`]), generate balanced training samples ([`samples`]) —
//! optionally restricted to a ManhattanVpin neighborhood ([`neighborhood`],
//! the scalable `Imp` variants) and/or to same-track pairs (`Y` variants) —
//! train a Bagging-of-REPTrees classifier, score every candidate pair of
//! the held-out design ([`attack`]), and derive lists of candidates at any
//! threshold ([`loc`]), two-level pruned refinements ([`two_level`]), and
//! validation-based proximity attacks ([`proximity`]). The prior-work
//! comparator \[5\] lives in [`baseline`]; the obfuscation defence in
//! [`obfuscate`]; the brute-force scans the fast scoring and training
//! paths are checked against in [`oracle`].
//!
//! ## Quick start
//!
//! ```
//! use sm_attack::attack::{AttackConfig, ScoreOptions};
//! use sm_attack::xval::leave_one_out;
//! use sm_layout::{SplitLayer, Suite};
//!
//! // A small suite; real experiments use scale 1.0.
//! let views = Suite::ispd2011_like(0.02)?.split_all(SplitLayer::new(8)?);
//! let folds = leave_one_out(&AttackConfig::imp11(), &views, &ScoreOptions::default())?;
//! for fold in &folds {
//!     let curve = fold.scored.curve();
//!     println!(
//!         "{}: accuracy {:.1}% with mean LoC {:.1}",
//!         fold.test_name,
//!         100.0 * fold.scored.accuracy_at(0.5),
//!         fold.scored.mean_loc_at(0.5),
//!     );
//!     let _ = curve.min_loc_at_accuracy(0.9);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod attack;
pub mod baseline;
pub mod checkpoint;
pub mod defenses;
pub mod durable;
pub mod error;
pub mod failpoint;
pub mod features;
pub mod interrupt;
pub mod loc;
pub mod matching;
pub mod neighborhood;
pub mod obfuscate;
pub mod oracle;
pub mod proximity;
pub mod samples;
pub mod two_level;
pub mod xval;

pub use attack::{
    AttackConfig, BaseClassifier, ScoreOptions, ScoredView, TrainOptions, TrainedAttack,
    TrainedParts,
};
pub use checkpoint::{
    score_resumable, Checkpoint, CheckpointError, CheckpointSpec, Fingerprint, Resume, ScoreOutcome,
};
pub use error::AttackError;
pub use features::{FeatureSet, PairFeature, PairKernel, ALL_FEATURES};
pub use loc::{CurvePoint, LocCurve};
pub use matching::{greedy_matching, mutual_best, MatchingOutcome};
pub use proximity::{proximity_attack, validate_pa_fraction, PaOutcome, PaValidation};
pub use sm_ml::Parallelism;
