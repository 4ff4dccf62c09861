//! The machine-learning attack: model configurations, training, and pair
//! scoring (paper Sections III-B–III-G).
//!
//! A [`TrainedAttack`] is produced from N−1 training [`SplitView`]s and
//! scores every candidate v-pin pair of a held-out test view, yielding a
//! [`ScoredView`] from which lists of candidates (LoC) at any probability
//! threshold, trade-off curves, and proximity attacks are derived without
//! re-running inference (Section III-F).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use sm_layout::SplitView;
use sm_ml::parallel::par_chunks;
use sm_ml::{Bagging, Dataset, Parallelism, RandomTreeLearner, RepTreeLearner};

use crate::error::AttackError;
use crate::features::{FeatureSet, PairKernel};
use crate::neighborhood::{neighborhood_radius, VpinIndex, DEFAULT_NEIGHBORHOOD_QUANTILE};
use crate::samples::{generate_samples, SampleOptions};

/// Number of probability bins in a [`ScoredView`]'s candidate histogram.
pub const HIST_BINS: usize = 4096;

/// Candidates scored per [`sm_ml::CompiledEnsemble::proba_batch`] call in
/// the compiled kernel's scoring loop: large enough to amortise the batch
/// setup, small enough that the row buffer (`SCORE_BATCH x features`)
/// stays in L1/L2 cache.
pub const SCORE_BATCH: usize = 256;

/// Default [`ScoreOptions::top_floor`].
pub const DEFAULT_TOP_FLOOR: usize = 16;

/// Training-time execution options. There are none today: the type stays
/// so that [`TrainedAttack::train_opt`] and [`TrainedAttack::from_samples`]
/// keep their signatures for callers that pass `TrainOptions::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainOptions {}

/// The ensemble used to classify pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BaseClassifier {
    /// Bagging of reduced-error-pruned trees (this paper; Weka default 10).
    RepTreeBagging {
        /// Number of member trees.
        n_trees: usize,
    },
    /// Bagging of unpruned random trees — equivalent to Weka's
    /// `RandomForest`, the configuration of the conference version \[18\].
    RandomTreeBagging {
        /// Number of member trees.
        n_trees: usize,
    },
}

impl Default for BaseClassifier {
    fn default() -> Self {
        BaseClassifier::RepTreeBagging { n_trees: 10 }
    }
}

/// A full model configuration (the paper's `ML-9`, `Imp-9`, `Imp-7`,
/// `Imp-11` and their `Y` variants).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackConfig {
    /// Display name, e.g. `Imp-9Y`.
    pub name: String,
    /// The pair features used for training and testing.
    pub features: FeatureSet,
    /// Whether to restrict sampling/testing to the ManhattanVpin
    /// neighborhood (the `Imp` scalability improvement, Section III-D).
    pub scalable: bool,
    /// CDF quantile defining the neighborhood radius (default 90 %).
    pub neighborhood_quantile: f64,
    /// Whether to force `DiffVpinY = 0` (top-split-layer convention,
    /// Section III-G).
    pub limit_diff_vpin_y: bool,
    /// The ensemble classifier.
    pub base: BaseClassifier,
    /// Seed driving sampling and training.
    pub seed: u64,
    /// Parallelism of training (per-tree) and of cross-validation folds.
    /// Results are bit-identical across settings; only wall-clock changes.
    pub parallelism: Parallelism,
}

impl AttackConfig {
    fn new(name: &str, features: FeatureSet, scalable: bool) -> Self {
        Self {
            name: name.to_owned(),
            features,
            scalable,
            neighborhood_quantile: DEFAULT_NEIGHBORHOOD_QUANTILE,
            limit_diff_vpin_y: false,
            base: BaseClassifier::default(),
            seed: 0xa77ac4,
            parallelism: Parallelism::Auto,
        }
    }

    /// This configuration with an explicit [`Parallelism`] setting.
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// `ML-9`: first 9 features, no scalability restriction.
    pub fn ml9() -> Self {
        Self::new("ML-9", FeatureSet::nine(), false)
    }

    /// `Imp-9`: first 9 features with the neighborhood restriction.
    pub fn imp9() -> Self {
        Self::new("Imp-9", FeatureSet::nine(), true)
    }

    /// `Imp-7`: neighborhood restriction, 7 features (drops
    /// `TotalWirelength`, `TotalArea`).
    pub fn imp7() -> Self {
        Self::new("Imp-7", FeatureSet::seven(), true)
    }

    /// `Imp-11`: neighborhood restriction, all 11 features.
    pub fn imp11() -> Self {
        Self::new("Imp-11", FeatureSet::eleven(), true)
    }

    /// The `Y` variant of this configuration: limits `DiffVpinY` to zero
    /// (only sound when the split layer is the highest via layer).
    pub fn with_y_limit(mut self) -> Self {
        self.limit_diff_vpin_y = true;
        self.name.push('Y');
        self
    }

    /// The four standard configurations.
    pub fn standard_four() -> Vec<Self> {
        vec![Self::ml9(), Self::imp9(), Self::imp7(), Self::imp11()]
    }

    /// The four standard configurations plus their `Y` variants
    /// (the eight rows of Table IV's layer-8 block).
    pub fn standard_eight() -> Vec<Self> {
        let mut v = Self::standard_four();
        v.extend(Self::standard_four().into_iter().map(Self::with_y_limit));
        v
    }

    /// The neighborhood radius this configuration trains and scores with
    /// on `training_views`: their match-distance quantile for the
    /// scalable configurations, none otherwise.
    pub(crate) fn training_radius(&self, training_views: &[&SplitView]) -> Option<i64> {
        if self.scalable {
            neighborhood_radius(training_views, self.neighborhood_quantile)
        } else {
            None
        }
    }

    /// The sampling options this configuration implies given a resolved
    /// neighborhood radius.
    pub(crate) fn sample_options(&self, radius: Option<i64>) -> SampleOptions {
        SampleOptions {
            radius,
            limit_diff_vpin_y: self.limit_diff_vpin_y,
        }
    }
}

/// A trained attack model, ready to score test views.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedAttack {
    config: AttackConfig,
    model: Bagging,
    radius: Option<i64>,
    num_training_samples: usize,
}

/// The serializable components of a [`TrainedAttack`].
///
/// A trained model is exactly these four parts; [`TrainedAttack::into_parts`]
/// / [`TrainedAttack::from_parts`] convert losslessly in both directions, so
/// an artifact store can checkpoint a model and later reconstruct one that
/// scores bit-identically.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainedParts {
    /// The configuration the model was trained with.
    pub config: AttackConfig,
    /// The fitted Bagging ensemble.
    pub model: Bagging,
    /// The resolved neighborhood radius (None for `ML` configurations).
    pub radius: Option<i64>,
    /// Number of training samples the model saw.
    pub num_training_samples: usize,
}

impl TrainedAttack {
    /// Trains the attack on `training_views` (the paper's N−1 designs).
    ///
    /// `vpin_filter`, when present, restricts sample generation to the
    /// masked v-pins (used by proximity-attack validation).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::NoTrainingData`] for an empty view list,
    /// [`AttackError::NoSamples`] if every candidate pair was filtered out,
    /// or a wrapped training error.
    pub fn train(
        config: &AttackConfig,
        training_views: &[&SplitView],
        vpin_filter: Option<&[Vec<bool>]>,
    ) -> Result<Self, AttackError> {
        Self::train_opt(config, training_views, vpin_filter, TrainOptions::default())
    }

    /// [`TrainedAttack::train`] with explicit [`TrainOptions`].
    ///
    /// # Errors
    ///
    /// Same contract as [`TrainedAttack::train`].
    pub fn train_opt(
        config: &AttackConfig,
        training_views: &[&SplitView],
        vpin_filter: Option<&[Vec<bool>]>,
        options: TrainOptions,
    ) -> Result<Self, AttackError> {
        let (samples, radius) = Self::prepare_samples(config, training_views, vpin_filter)?;
        Self::from_samples(config, samples, radius, options)
    }

    /// Resolves the neighborhood radius and extracts the training sample
    /// set — everything [`TrainedAttack::train`] does before ensemble
    /// fitting. Exposed so benchmarks can time sample extraction and
    /// fitting as separate stages; `train_opt` is exactly
    /// `prepare_samples` followed by [`TrainedAttack::from_samples`].
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::NoTrainingData`] for an empty view list.
    pub fn prepare_samples(
        config: &AttackConfig,
        training_views: &[&SplitView],
        vpin_filter: Option<&[Vec<bool>]>,
    ) -> Result<(Dataset, Option<i64>), AttackError> {
        if training_views.is_empty() {
            return Err(AttackError::NoTrainingData);
        }
        let radius = config.training_radius(training_views);
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let samples = generate_samples(
            training_views,
            &config.features,
            config.sample_options(radius),
            vpin_filter,
            &mut rng,
        );
        Ok((samples, radius))
    }

    /// Fits the ensemble on an already-generated sample set with an
    /// already-resolved neighborhood radius. This is [`TrainedAttack::train`]
    /// minus the sample extraction — the cross-validation driver feeds it
    /// fold sample sets assembled from its per-design cache, which is
    /// bit-identical to regeneration because each design's sample stream is
    /// seeded by name (see [`crate::samples::view_sample_seed`]).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::NoSamples`] for an empty sample set, or a
    /// wrapped training error.
    pub fn from_samples(
        config: &AttackConfig,
        samples: Dataset,
        radius: Option<i64>,
        _options: TrainOptions,
    ) -> Result<Self, AttackError> {
        if samples.is_empty() {
            return Err(AttackError::NoSamples);
        }
        let model = match config.base {
            BaseClassifier::RepTreeBagging { n_trees } => Bagging::fit_with(
                &samples,
                &RepTreeLearner::default(),
                n_trees,
                config.seed,
                config.parallelism,
            )?,
            BaseClassifier::RandomTreeBagging { n_trees } => Bagging::fit_with(
                &samples,
                &RandomTreeLearner::default(),
                n_trees,
                config.seed,
                config.parallelism,
            )?,
        };
        Ok(Self {
            config: config.clone(),
            model,
            radius,
            num_training_samples: samples.len(),
        })
    }

    /// Assembles a model from pre-trained parts: the inverse of
    /// [`TrainedAttack::into_parts`]. Used by the artifact store to
    /// reconstruct checkpointed models and by two-level pruning, which
    /// builds its Level-2 model from a custom sample set.
    pub fn from_parts(parts: TrainedParts) -> Self {
        Self {
            config: parts.config,
            model: parts.model,
            radius: parts.radius,
            num_training_samples: parts.num_training_samples,
        }
    }

    /// Decomposes the model into its serializable [`TrainedParts`].
    pub fn into_parts(self) -> TrainedParts {
        TrainedParts {
            config: self.config,
            model: self.model,
            radius: self.radius,
            num_training_samples: self.num_training_samples,
        }
    }

    /// The serializable parts of this model, cloned.
    pub fn to_parts(&self) -> TrainedParts {
        self.clone().into_parts()
    }

    /// The configuration this model was trained with.
    pub fn config(&self) -> &AttackConfig {
        &self.config
    }

    /// The resolved neighborhood radius (None for `ML` configurations).
    pub fn radius(&self) -> Option<i64> {
        self.radius
    }

    /// Number of training samples the model saw.
    pub fn num_training_samples(&self) -> usize {
        self.num_training_samples
    }

    /// The underlying ensemble.
    pub fn model(&self) -> &Bagging {
        &self.model
    }

    /// Scores every candidate pair of `view` (Section III-C's testing
    /// stage) and records, per v-pin, the probability of its true match and
    /// its highest-probability candidates.
    ///
    /// `options` controls which v-pins are scored and how many candidates
    /// are retained; see [`ScoreOptions`].
    pub fn score(&self, view: &SplitView, options: &ScoreOptions) -> ScoredView {
        let candidates = CandidateSource::Config;
        score_with(self, view, options, &candidates)
    }
}

/// Options for the scoring stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoreOptions {
    /// Fraction of the view's v-pins to retain per target as the
    /// top-probability candidate list (never fewer than
    /// [`Self::top_floor`]). The proximity attack can only consider PA-LoC
    /// fractions up to this value.
    pub top_fraction: f64,
    /// Minimum retained candidates per target, applied *after* the
    /// `ceil(top_fraction x v-pins)` sizing (default
    /// [`DEFAULT_TOP_FLOOR`] = 16). On tiny views the floor, not the
    /// fraction, decides the list size — e.g. a 100-v-pin view at the
    /// default 6 % keeps 16 candidates per target, not 6 — which silently
    /// inflates LoC lists unless lowered here.
    pub top_floor: usize,
    /// If set, only these v-pins are scored as targets (candidates still
    /// come from the whole view). Used by PA validation.
    pub targets: Option<Vec<u32>>,
    /// Worker threads for pair scoring. The scored result is bit-identical
    /// across settings; only wall-clock changes.
    pub parallelism: Parallelism,
}

impl Default for ScoreOptions {
    fn default() -> Self {
        Self {
            top_fraction: 0.06,
            top_floor: DEFAULT_TOP_FLOOR,
            targets: None,
            parallelism: Parallelism::Auto,
        }
    }
}

/// Internal candidate enumeration strategy.
pub(crate) enum CandidateSource<'a> {
    /// Derive from the trained configuration (neighborhood and/or Y-limit).
    Config,
    /// Explicit per-target candidate lists (two-level pruning's Level-2
    /// stage). Must be indexed like the score targets.
    Explicit(&'a [Vec<u32>]),
}

/// One retained candidate of a target v-pin.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cand {
    /// Ensemble probability that the pair is connected.
    pub p: f64,
    /// Candidate v-pin index.
    pub index: u32,
    /// Manhattan distance between the two v-pins.
    pub dist: i64,
}

/// Per-target scoring record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VpinScore {
    /// The target v-pin.
    pub vpin: u32,
    /// Probability assigned to the true match, or `None` if the true match
    /// was never scored (filtered by legality, neighborhood, or Y-limit) —
    /// a permanent miss that caps the achievable accuracy.
    pub true_prob: Option<f64>,
    /// Retained candidates, sorted by descending probability.
    pub top: Vec<Cand>,
}

/// The complete scoring of a test view: everything needed to derive LoC
/// sizes, accuracies and proximity attacks at any threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoredView {
    /// Per-target records.
    pub slots: Vec<VpinScore>,
    /// Histogram over all scored candidate probabilities (per-target
    /// entries; bin `k` covers `k / HIST_BINS <= p < (k + 1) / HIST_BINS`,
    /// with the top bin closed so it also holds `p = 1`).
    pub hist: Vec<u64>,
    /// Total v-pins in the underlying view (denominator of LoC fractions).
    pub num_view_vpins: usize,
    /// Total candidate pairs evaluated.
    pub pairs_scored: u64,
}

/// Maps a probability to its histogram bin: floor-based edges, so bin `k`
/// holds `k / HIST_BINS <= p < (k + 1) / HIST_BINS` (top bin closed).
pub(crate) fn hist_bin(p: f64) -> usize {
    ((p * HIST_BINS as f64) as usize).min(HIST_BINS - 1)
}

/// Lower edge of histogram bin `k`, the probability threshold it
/// represents in sweeps.
pub(crate) fn bin_threshold(k: usize) -> f64 {
    k as f64 / HIST_BINS as f64
}

/// First histogram bin containing only probabilities `>= t`: the shared
/// bin-edge convention of every threshold query. A threshold is snapped
/// *up* to the next bin edge (capped at the top bin), so a bin is counted
/// iff all its probabilities meet the effective threshold
/// [`bin_threshold`]`(first_bin(t))`.
pub(crate) fn first_bin(t: f64) -> usize {
    ((t * HIST_BINS as f64).ceil() as usize).min(HIST_BINS - 1)
}

pub(crate) fn score_with(
    attack: &TrainedAttack,
    view: &SplitView,
    options: &ScoreOptions,
    source: &CandidateSource<'_>,
) -> ScoredView {
    let n = view.num_vpins();
    let targets: Vec<u32> = match &options.targets {
        Some(t) => t.clone(),
        None => (0..n as u32).collect(),
    };
    // A target has fewer than `n` candidates, so capping the width at `n`
    // keeps the same lists and bounds the keeper's buffer.
    let top_k = ((options.top_fraction * n as f64).ceil() as usize)
        .max(options.top_floor)
        .min(n);
    let need_index = matches!(source, CandidateSource::Config)
        && (attack.radius.is_some() || attack.config.limit_diff_vpin_y);
    let index = if need_index {
        Some(match attack.radius {
            Some(r) => VpinIndex::with_radius(view, r),
            None => VpinIndex::new(view, 10_000),
        })
    } else {
        None
    };

    // The kernel's shared tables are built once per scoring call: the SoA
    // feature columns of this view and the flattened ensemble. Both are
    // read-only during the sharded loop.
    let kernel = PairKernel::new(view.vpins(), &attack.config.features);
    let ensemble = attack.model.compile();

    // Shard the targets into contiguous v-pin ranges: each worker fills its
    // own slot list, feature buffer and local histogram, and the parts are
    // merged in target order, so the result is bit-identical for any
    // parallelism setting.
    let index = index.as_ref();
    let targets = &targets[..];
    let parts = par_chunks(options.parallelism, targets.len(), |range| {
        let mut local_hist = vec![0u64; HIST_BINS];
        let mut local_pairs = 0u64;
        let mut local_slots = Vec::with_capacity(range.len());
        let nf = attack.config.features.len();
        let mut cands: Vec<u32> = Vec::new();
        let mut rows: Vec<f64> = Vec::with_capacity(SCORE_BATCH * nf);
        let mut probs: Vec<f64> = Vec::with_capacity(SCORE_BATCH);
        let mut top = TopK::new(top_k);
        let drives = kernel.drives();
        for slot_idx in range {
            let i = targets[slot_idx];
            let iu = i as usize;
            let truth = view.true_match(iu);
            enumerate_candidates(attack, view, source, index, slot_idx, i, drives, &mut cands);
            let mut slot = VpinScore {
                vpin: i,
                true_prob: None,
                top: Vec::new(),
            };
            // Score SCORE_BATCH legal candidates per kernel call.
            for chunk in cands.chunks(SCORE_BATCH) {
                kernel.fill_batch(i, chunk, &mut rows);
                probs.clear();
                probs.resize(chunk.len(), 0.0);
                ensemble.proba_batch(&rows, nf, &mut probs);
                for (&j, &p) in chunk.iter().zip(&probs) {
                    let ju = j as usize;
                    local_pairs += 1;
                    local_hist[hist_bin(p)] += 1;
                    if ju == truth {
                        slot.true_prob = Some(p);
                    }
                    top.offer(p, j, || view.distance(iu, ju));
                }
            }
            slot.top = top.take_sorted();
            local_slots.push(slot);
        }
        (local_slots, local_hist, local_pairs)
    });

    let mut slots: Vec<VpinScore> = Vec::with_capacity(targets.len());
    let mut hist = vec![0u64; HIST_BINS];
    let mut pairs_scored = 0u64;
    for (part_slots, part_hist, part_pairs) in parts {
        slots.extend(part_slots);
        for (h, ph) in hist.iter_mut().zip(part_hist) {
            *h += ph;
        }
        pairs_scored += part_pairs;
    }

    ScoredView {
        slots,
        hist,
        num_view_vpins: n,
        pairs_scored,
    }
}

/// Writes the legal candidates of target `i` to `out` (cleared first):
/// the pairs [`SplitView::is_legal_pair`] allows, picked by the spatial
/// index's driver/sink lists where there is one, filtered by the `drives`
/// flags while enumerating otherwise.
#[allow(clippy::too_many_arguments)]
fn enumerate_candidates(
    attack: &TrainedAttack,
    view: &SplitView,
    source: &CandidateSource<'_>,
    index: Option<&VpinIndex>,
    slot_idx: usize,
    i: u32,
    drives: &[bool],
    out: &mut Vec<u32>,
) {
    let iu = i as usize;
    let legal = |j: u32| j != i && !(drives[iu] && drives[j as usize]);
    out.clear();
    match source {
        CandidateSource::Explicit(lists) => {
            out.extend(lists[slot_idx].iter().copied().filter(|&j| legal(j)));
        }
        CandidateSource::Config => {
            if attack.config.limit_diff_vpin_y {
                let index = index.expect("index exists for Y-limited configs");
                index.partners_same_y(view, iu, out);
                if let Some(r) = attack.radius {
                    out.retain(|&j| view.distance(iu, j as usize) <= r);
                }
            } else if let Some(r) = attack.radius {
                let index = index.expect("index exists for neighborhood configs");
                index.partners_within_radius(view, iu, r, out);
            } else {
                // Unrestricted (`ML`) configuration: every legal v-pin is a
                // candidate.
                out.extend((0..drives.len() as u32).filter(|&j| legal(j)));
            }
        }
    }
}

/// Total preference order on candidates: probability descending, then
/// distance ascending, then index ascending, where `Ordering::Greater`
/// means `a` is preferred. Every tie is broken down to the v-pin index, so
/// the retained top-K list is a pure function of the candidate *set* —
/// independent of enumeration order — which is what makes the spatial
/// queries bit-identical to the all-pairs scan of [`crate::oracle::score`].
pub(crate) fn cand_cmp(a: &Cand, b: &Cand) -> std::cmp::Ordering {
    a.p.total_cmp(&b.p)
        .then(b.dist.cmp(&a.dist))
        .then(b.index.cmp(&a.index))
}

/// How many times `k` candidates a [`TopK`] buffers between cuts. Replaying
/// the candidate streams of the layer-8 and layer-6 benchmark targets
/// through the keeper alone (2-vCPU Xeon), a factor of 2 cost about 22 ns
/// per pair, 4 about 20, and larger factors no less; the sorted list this
/// keeper replaced cost 75–80.
const TOPK_BUFFER: usize = 4;

/// Bounded buffer-and-select keeper: retains the `k` best candidates of one
/// target under [`cand_cmp`].
///
/// Candidates are appended unsorted to a buffer of up to
/// [`TOPK_BUFFER`]` x k`. When it fills, one `select_nth_unstable_by` cuts
/// it back to its `k` best, and the worst of those becomes the floor every
/// later candidate must beat. That is amortised O(1) comparisons per
/// candidate, against the O(k) sift of a sorted list, which ensemble
/// probabilities made the common case: they tie heavily, and a tie with the
/// worst kept candidate still enters on distance or index. The floor only
/// rises, so most candidates are rejected on probability alone, before
/// their distance is computed.
struct TopK {
    k: usize,
    buf: Vec<Cand>,
    floor: Option<Cand>,
}

impl TopK {
    fn new(k: usize) -> Self {
        Self {
            k,
            buf: Vec::with_capacity(TOPK_BUFFER * k),
            floor: None,
        }
    }

    /// Offers candidate `index` of probability `p`; `dist` is called only
    /// when the probability does not already rule it out.
    #[inline]
    fn offer(&mut self, p: f64, index: u32, dist: impl FnOnce() -> i64) {
        if self.k == 0 || self.floor.is_some_and(|f| p < f.p) {
            return;
        }
        let c = Cand {
            p,
            index,
            dist: dist(),
        };
        if self
            .floor
            .is_some_and(|f| cand_cmp(&c, &f) != std::cmp::Ordering::Greater)
        {
            return;
        }
        self.buf.push(c);
        if self.buf.len() == TOPK_BUFFER * self.k {
            self.cut();
        }
    }

    /// Cuts the buffer back to its `k` best and raises the floor.
    fn cut(&mut self) {
        if self.buf.len() > self.k {
            let last = self.k - 1;
            self.buf.select_nth_unstable_by(last, |a, b| cand_cmp(b, a));
            self.buf.truncate(self.k);
            self.floor = Some(self.buf[last]);
        }
    }

    /// The kept candidates, best first, leaving the keeper empty for the
    /// next target.
    fn take_sorted(&mut self) -> Vec<Cand> {
        self.cut();
        self.buf.sort_unstable_by(|a, b| cand_cmp(b, a));
        self.floor = None;
        let top = self.buf.clone();
        self.buf.clear();
        top
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_layout::{SplitLayer, Suite};

    fn suite_views(split: u8) -> Vec<SplitView> {
        Suite::ispd2011_like(0.02)
            .expect("valid scale")
            .split_all(SplitLayer::new(split).expect("valid"))
    }

    fn leave_one_out(views: &[SplitView], test: usize) -> (Vec<&SplitView>, &SplitView) {
        let train: Vec<&SplitView> = views
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != test)
            .map(|(_, v)| v)
            .collect();
        (train, &views[test])
    }

    #[test]
    fn config_names_and_feature_counts() {
        assert_eq!(AttackConfig::ml9().name, "ML-9");
        assert_eq!(AttackConfig::imp7().features.len(), 7);
        assert_eq!(AttackConfig::imp11().with_y_limit().name, "Imp-11Y");
        assert_eq!(AttackConfig::standard_eight().len(), 8);
        assert!(AttackConfig::imp9().scalable);
        assert!(!AttackConfig::ml9().scalable);
    }

    #[test]
    fn training_requires_views() {
        let err = TrainedAttack::train(&AttackConfig::imp9(), &[], None);
        assert!(matches!(err, Err(AttackError::NoTrainingData)));
    }

    #[test]
    fn imp_training_resolves_a_radius_ml_does_not() {
        let views = suite_views(6);
        let (train, _) = leave_one_out(&views, 0);
        let imp = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
        assert!(imp.radius().is_some());
        let ml = TrainedAttack::train(&AttackConfig::ml9(), &train, None).expect("train");
        assert!(ml.radius().is_none());
        assert!(imp.num_training_samples() > 0);
    }

    #[test]
    fn scoring_covers_every_target_and_finds_matches() {
        let views = suite_views(6);
        let (train, test) = leave_one_out(&views, 0);
        let model = TrainedAttack::train(&AttackConfig::imp11(), &train, None).expect("train");
        let scored = model.score(test, &ScoreOptions::default());
        assert_eq!(scored.slots.len(), test.num_vpins());
        let with_truth = scored
            .slots
            .iter()
            .filter(|s| s.true_prob.is_some())
            .count();
        // The 90% neighborhood must retain the large majority of matches.
        assert!(
            with_truth as f64 / scored.slots.len() as f64 > 0.6,
            "only {with_truth}/{} matches were scored",
            scored.slots.len()
        );
        assert!(scored.pairs_scored > 0);
    }

    #[test]
    fn attack_separates_matches_from_nonmatches() {
        let views = suite_views(6);
        let (train, test) = leave_one_out(&views, 1);
        let model = TrainedAttack::train(&AttackConfig::imp11(), &train, None).expect("train");
        let scored = model.score(test, &ScoreOptions::default());
        // Mean probability of true matches should far exceed the mean over
        // all candidates.
        let truths: Vec<f64> = scored.slots.iter().filter_map(|s| s.true_prob).collect();
        let mean_truth = truths.iter().sum::<f64>() / truths.len() as f64;
        let total: u64 = scored.hist.iter().sum();
        let mean_all: f64 = scored
            .hist
            .iter()
            .enumerate()
            .map(|(k, &c)| bin_threshold(k) * c as f64)
            .sum::<f64>()
            / total as f64;
        assert!(
            mean_truth > mean_all + 0.2,
            "no separation: matches {mean_truth:.3} vs all {mean_all:.3}"
        );
    }

    #[test]
    fn y_limit_scores_only_same_track_pairs() {
        let views = suite_views(8);
        let (train, test) = leave_one_out(&views, 0);
        let cfg = AttackConfig::imp9().with_y_limit();
        let model = TrainedAttack::train(&cfg, &train, None).expect("train");
        let scored = model.score(test, &ScoreOptions::default());
        for slot in &scored.slots {
            let yi = test.vpins()[slot.vpin as usize].loc.y;
            for c in &slot.top {
                assert_eq!(test.vpins()[c.index as usize].loc.y, yi);
            }
        }
    }

    #[test]
    fn targets_option_restricts_scoring() {
        let views = suite_views(6);
        let (train, test) = leave_one_out(&views, 0);
        let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
        let opts = ScoreOptions {
            targets: Some(vec![0, 5, 7]),
            ..ScoreOptions::default()
        };
        let scored = model.score(test, &opts);
        assert_eq!(scored.slots.len(), 3);
        assert_eq!(scored.slots[1].vpin, 5);
        assert_eq!(scored.num_view_vpins, test.num_vpins());
    }

    #[test]
    fn top_lists_are_sorted_and_bounded() {
        let views = suite_views(6);
        let (train, test) = leave_one_out(&views, 2);
        let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
        let opts = ScoreOptions {
            top_fraction: 0.01,
            ..ScoreOptions::default()
        };
        let scored = model.score(test, &opts);
        let cap = ((0.01 * test.num_vpins() as f64).ceil() as usize).max(16);
        for s in &scored.slots {
            assert!(s.top.len() <= cap);
            assert!(
                s.top.windows(2).all(|w| w[0].p >= w[1].p),
                "top list must be sorted"
            );
        }
    }

    #[test]
    fn scoring_is_deterministic_across_thread_counts() {
        let views = suite_views(8);
        let (train, test) = leave_one_out(&views, 0);
        let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
        let one = model.score(
            test,
            &ScoreOptions {
                parallelism: Parallelism::Sequential,
                ..ScoreOptions::default()
            },
        );
        let four = model.score(
            test,
            &ScoreOptions {
                parallelism: Parallelism::Threads(4),
                ..ScoreOptions::default()
            },
        );
        assert_eq!(
            one, four,
            "scoring must be bit-identical across thread counts"
        );
    }

    /// Runs `cands` through a keeper of width `k`.
    fn keep(cands: &[Cand], k: usize) -> Vec<Cand> {
        let mut top = TopK::new(k);
        for c in cands {
            top.offer(c.p, c.index, || c.dist);
        }
        top.take_sorted()
    }

    #[test]
    fn keeper_breaks_ties_by_distance_then_index() {
        // Equal probabilities: the nearer candidate wins; equal distances:
        // the lower index wins — independent of arrival order, which is
        // what makes the keeper enumeration-order-invariant.
        let mk = |index, dist| Cand {
            p: 0.5,
            index,
            dist,
        };
        let orders: [[Cand; 3]; 2] = [
            [mk(2, 30), mk(1, 10), mk(3, 10)],
            [mk(3, 10), mk(2, 30), mk(1, 10)],
        ];
        for cs in orders {
            let kept: Vec<u32> = keep(&cs, 2).iter().map(|c| c.index).collect();
            assert_eq!(kept, vec![1, 3]);
        }
    }

    #[test]
    fn keeper_matches_a_full_sort_under_heavy_ties() {
        // Few distinct probabilities and distances, so most candidates tie
        // with the floor and the index decides; every width from none to
        // more than the stream exercises the cut and the final sort.
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for round in 0..200 {
            let n = rng.gen_range(0..300usize);
            let mut cands: Vec<Cand> = (0..n as u32)
                .map(|index| Cand {
                    p: f64::from(rng.gen_range(0..4u8)) / 4.0,
                    index,
                    dist: rng.gen_range(0..5i64),
                })
                .collect();
            cands.shuffle(&mut rng);
            for k in [0, 1, 2, 3, 16, 47, n / 2, n, n + 5] {
                let mut want = cands.clone();
                want.sort_by(|a, b| cand_cmp(b, a));
                want.truncate(k);
                assert_eq!(keep(&cands, k), want, "round {round}, n {n}, k {k}");
            }
        }
    }

    #[test]
    fn keeper_is_empty_again_after_each_target() {
        // Enough offers to fill the buffer, so a cut sets a floor.
        let mut top = TopK::new(2);
        for index in 0..3 * TOPK_BUFFER as u32 {
            top.offer(0.9 - f64::from(index) / 100.0, index, || 0);
        }
        assert_eq!(top.take_sorted().len(), 2);
        // The previous target's floor must not gate the next one.
        top.offer(0.1, 0, || 0);
        assert_eq!(top.take_sorted().len(), 1);
    }

    #[test]
    fn extreme_widths_keep_nothing_or_everything() {
        let views = suite_views(8);
        let (train, test) = leave_one_out(&views, 0);
        let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
        let width = |top_fraction, top_floor| {
            model.score(
                test,
                &ScoreOptions {
                    top_fraction,
                    top_floor,
                    ..ScoreOptions::default()
                },
            )
        };
        let none = width(0.0, 0);
        assert!(none.pairs_scored > 0);
        assert!(none.slots.iter().all(|s| s.top.is_empty()));
        // A width beyond the view keeps every candidate, like a width of
        // exactly the view, instead of sizing a buffer from it.
        assert_eq!(width(1e300, 0), width(1.0, 0));
        assert_eq!(width(0.0, usize::MAX), width(1.0, 0));
    }

    #[test]
    fn top_floor_controls_tiny_view_lists() {
        // On a view smaller than the default floor of 16, the floor — not
        // top_fraction — decides the retained list size. An explicit
        // top_floor restores fraction-proportional lists.
        let views = suite_views(8);
        let (train, test) = leave_one_out(&views, 0);
        let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
        // Restrict to a handful of targets; list sizes depend only on
        // top_k, so any view exercises the floor arithmetic.
        let small_floor = model.score(
            test,
            &ScoreOptions {
                top_fraction: 1e-9, // ceil -> 1 retained candidate
                top_floor: 2,
                targets: Some(vec![0, 1, 2]),
                ..ScoreOptions::default()
            },
        );
        for s in &small_floor.slots {
            assert!(
                s.top.len() <= 2,
                "floor 2 must cap lists, got {}",
                s.top.len()
            );
        }
        let default_floor = model.score(
            test,
            &ScoreOptions {
                top_fraction: 1e-9,
                targets: Some(vec![0, 1, 2]),
                ..ScoreOptions::default()
            },
        );
        // The silent-inflation behavior the explicit floor documents: the
        // same fraction keeps up to 16 candidates under the default.
        assert!(default_floor.slots.iter().any(|s| s.top.len() > 2));
        assert!(default_floor
            .slots
            .iter()
            .all(|s| s.top.len() <= DEFAULT_TOP_FLOOR));
    }

    #[test]
    fn top_floor_governs_views_smaller_than_the_floor() {
        // A synthetic view with 8 v-pins — fewer than DEFAULT_TOP_FLOOR —
        // so every candidate list is floor-limited: the default keeps all
        // 7 legal partners regardless of top_fraction, and only an
        // explicit lower floor trims the lists.
        use sm_layout::geom::{Point, Rect};
        use sm_layout::{SplitLayer, VPin};
        let n = 8usize;
        assert!(n < DEFAULT_TOP_FLOOR);
        let vpins: Vec<VPin> = (0..n)
            .map(|i| {
                let x = 1000 * i as i64;
                VPin {
                    loc: Point::new(x, 500),
                    pin_loc: Point::new(x, 700),
                    wirelength: 900 + x,
                    in_area: if i % 2 == 0 { 0 } else { 4000 },
                    out_area: if i % 2 == 0 { 4000 } else { 0 },
                    pc: 1.5,
                    rc: 2.5,
                }
            })
            .collect();
        // Partner each driver (even) with the next sink (odd).
        let partner: Vec<u32> = (0..n as u32).map(|i| i ^ 1).collect();
        let tiny = sm_layout::SplitView::from_parts(
            "tiny".into(),
            SplitLayer::new(8).expect("valid layer"),
            Rect::new(Point::new(0, 0), Point::new(10_000, 10_000)),
            vpins,
            partner,
        )
        .expect("valid tiny view");

        let views = suite_views(8);
        let train: Vec<&SplitView> = views.iter().collect();
        let model = TrainedAttack::train(&AttackConfig::ml9(), &train, None).expect("train");
        let default_floor = model.score(&tiny, &ScoreOptions::default());
        assert!(default_floor
            .slots
            .iter()
            .any(|s| !s.top.is_empty() && s.top.len() > 3));
        let floored = model.score(
            &tiny,
            &ScoreOptions {
                top_floor: 3,
                ..ScoreOptions::default()
            },
        );
        assert!(floored.slots.iter().all(|s| s.top.len() <= 3));
        assert!(floored.slots.iter().any(|s| s.top.len() == 3));
    }

    #[test]
    fn keeper_keeps_the_k_best() {
        let cands: Vec<Cand> = [0.1, 0.9, 0.5, 0.95, 0.2, 0.8]
            .iter()
            .enumerate()
            .map(|(i, &p)| Cand {
                p,
                index: i as u32,
                dist: 0,
            })
            .collect();
        let ps: Vec<f64> = keep(&cands, 3).iter().map(|c| c.p).collect();
        assert_eq!(ps, vec![0.95, 0.9, 0.8]);
    }

    #[test]
    fn hist_bins_are_monotone_and_in_range() {
        assert_eq!(hist_bin(0.0), 0);
        assert_eq!(hist_bin(1.0), HIST_BINS - 1);
        assert!(hist_bin(0.5) < hist_bin(0.75));
        assert!((bin_threshold(hist_bin(0.5)) - 0.5).abs() < 1e-3);
    }

    #[test]
    fn bin_edges_share_one_convention() {
        // A probability on a bin edge stays at or above that edge's
        // threshold; first_bin snaps thresholds up to the next edge.
        assert_eq!(first_bin(0.0), 0);
        assert_eq!(first_bin(1.0), HIST_BINS - 1);
        assert_eq!(first_bin(0.5), hist_bin(0.5));
        assert_eq!(bin_threshold(hist_bin(0.5)), 0.5);
        // Off-edge thresholds round up, never down: a candidate strictly
        // below t must never be counted by a histogram sweep from
        // first_bin(t).
        let t = 0.5 + 0.25 / HIST_BINS as f64;
        assert_eq!(first_bin(t), hist_bin(0.5) + 1);
        for k in 0..HIST_BINS {
            assert_eq!(first_bin(bin_threshold(k)), k.min(HIST_BINS - 1));
        }
    }
}
