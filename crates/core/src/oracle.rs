//! Test oracles for the attack: plain scans that the shipped scoring and
//! training paths are checked against, bit for bit.
//!
//! Nothing in the product calls these. [`score`] is the all-pairs,
//! per-pair, keep-everything version of [`TrainedAttack::score`]; [`train`]
//! fits the ensemble with the per-node scan learners of [`sm_ml::oracle`];
//! [`prepare_samples`] draws each negative from its sorted candidate pool.
//! The parity suites and the `sm-bench` gates compare against them.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sm_layout::SplitView;
use sm_ml::{oracle as ml, Bagging, Dataset};

use crate::attack::{
    cand_cmp, hist_bin, AttackConfig, BaseClassifier, Cand, ScoreOptions, ScoredView,
    TrainedAttack, TrainedParts, VpinScore, HIST_BINS,
};
use crate::error::AttackError;
use crate::features::FeatureSet;
use crate::neighborhood::VpinIndex;
use crate::samples::{sample_base_seed, view_sample_seed, SampleOptions};

/// Scores `view` like [`TrainedAttack::score`] by brute force.
///
/// For each target it scans all v-pins and applies the model's filters:
/// legality, the Y-limit and the neighborhood radius. Each surviving pair
/// is scored with [`crate::FeatureSet::compute_into`] and
/// [`Bagging::proba`]. Every candidate is collected in one scratch list
/// that is reused across targets, sorted by preference, and the first
/// keep-width of them are copied into the slot, so memory stays at one
/// target's candidates plus the kept lists. `targets`, `top_fraction` and
/// `top_floor` are honoured; `parallelism` is ignored, since the scan is
/// sequential.
pub fn score(attack: &TrainedAttack, view: &SplitView, options: &ScoreOptions) -> ScoredView {
    let n = view.num_vpins();
    let width = ((options.top_fraction * n as f64).ceil() as usize).max(options.top_floor);
    let targets: Vec<u32> = match &options.targets {
        Some(t) => t.clone(),
        None => (0..n as u32).collect(),
    };
    let config = attack.config();
    let vpins = view.vpins();
    let mut hist = vec![0u64; HIST_BINS];
    let mut pairs_scored = 0u64;
    let mut row = Vec::new();
    let mut cands: Vec<Cand> = Vec::new();
    let slots = targets
        .iter()
        .map(|&i| {
            let iu = i as usize;
            let mut true_prob = None;
            cands.clear();
            for ju in 0..n {
                if !view.is_legal_pair(iu, ju) {
                    continue;
                }
                if config.limit_diff_vpin_y && vpins[ju].loc.y != vpins[iu].loc.y {
                    continue;
                }
                let dist = view.distance(iu, ju);
                if attack.radius().is_some_and(|r| dist > r) {
                    continue;
                }
                config
                    .features
                    .compute_into(&vpins[iu], &vpins[ju], &mut row);
                let p = attack.model().proba(&row);
                pairs_scored += 1;
                hist[hist_bin(p)] += 1;
                if ju == view.true_match(iu) {
                    true_prob = Some(p);
                }
                cands.push(Cand {
                    p,
                    index: ju as u32,
                    dist,
                });
            }
            cands.sort_by(|a, b| cand_cmp(b, a));
            VpinScore {
                vpin: i,
                true_prob,
                top: cands[..width.min(cands.len())].to_vec(),
            }
        })
        .collect();
    ScoredView {
        slots,
        hist,
        num_view_vpins: n,
        pairs_scored,
    }
}

/// Fits the model like [`TrainedAttack::from_samples`], with the oracle
/// learners of [`sm_ml::oracle`] in place of the histogram tree fit.
///
/// # Errors
///
/// Returns [`AttackError::NoSamples`] for an empty sample set, or a
/// wrapped training error.
pub fn train(
    config: &AttackConfig,
    samples: Dataset,
    radius: Option<i64>,
) -> Result<TrainedAttack, AttackError> {
    if samples.is_empty() {
        return Err(AttackError::NoSamples);
    }
    let (seed, parallelism) = (config.seed, config.parallelism);
    let model = match config.base {
        BaseClassifier::RepTreeBagging { n_trees } => Bagging::fit_with(
            &samples,
            &ml::RepTreeLearner::default(),
            n_trees,
            seed,
            parallelism,
        )?,
        BaseClassifier::RandomTreeBagging { n_trees } => Bagging::fit_with(
            &samples,
            &ml::RandomTreeLearner::default(),
            n_trees,
            seed,
            parallelism,
        )?,
    };
    Ok(TrainedAttack::from_parts(TrainedParts {
        config: config.clone(),
        model,
        radius,
        num_training_samples: samples.len(),
    }))
}

/// Extracts the training samples like [`TrainedAttack::prepare_samples`],
/// drawing every design's negatives with [`generate_view_samples`].
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
    let base = sample_base_seed(&mut ChaCha8Rng::seed_from_u64(config.seed));
    let mut samples = Dataset::new(config.features.len());
    for (vi, view) in training_views.iter().enumerate() {
        let filter = vpin_filter.map(|f| f[vi].as_slice());
        let seed = view_sample_seed(base, &view.name);
        let opts = config.sample_options(radius);
        let sub = generate_view_samples(view, &config.features, opts, filter, seed);
        samples.extend_from(&sub).expect("feature arities match");
    }
    Ok((samples, radius))
}

/// Draws one design's samples like
/// [`crate::samples::generate_view_samples`], by sorting.
///
/// Each negative's candidate pool is enumerated in full: the same-track
/// list, or every v-pin within the radius by
/// [`VpinIndex::within_radius_unordered`], sorted into ascending index
/// order. Illegal, filtered and true-match candidates are then dropped one
/// by one, and the draw is `cands[k]` for `k = gen_range(0..len)` from
/// the design's seeded stream. A v-pin alone on its track falls back to
/// the radius pool, or to the whole view without a radius. Rows come from
/// [`FeatureSet::compute_into`].
pub fn generate_view_samples(
    view: &SplitView,
    features: &FeatureSet,
    opts: SampleOptions,
    filter: Option<&[bool]>,
    seed: u64,
) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ds = Dataset::new(features.len());
    let mut buf = Vec::new();
    let n = view.num_vpins();
    let included = |j: usize| filter.is_none_or(|f| f[j]);
    let index = match (opts.radius, opts.limit_diff_vpin_y) {
        (Some(r), _) => Some(VpinIndex::with_radius(view, r)),
        (None, true) => Some(VpinIndex::new(view, 10_000)),
        (None, false) => None,
    };
    let sorted_ball = |index: &VpinIndex, i: usize, r: i64, out: &mut Vec<u32>| {
        index.within_radius_unordered(view, view.vpins()[i].loc, r, i as u32, out);
        out.sort_unstable();
    };
    let mut cands = Vec::new();
    for i in 0..n {
        let m = view.true_match(i);
        if !included(i) || !included(m) || !opts.eligible(view, i, m) {
            continue;
        }
        features.compute_into(&view.vpins()[i], &view.vpins()[m], &mut buf);
        ds.push(&buf, true).expect("arity");
        let keep = |j: usize| j != m && included(j) && view.is_legal_pair(i, j);
        let drew = match &index {
            None => (0..64)
                .map(|_| rng.gen_range(0..n))
                .find(|&j| j != i && keep(j)),
            Some(index) => {
                if opts.limit_diff_vpin_y {
                    index.same_y(view.vpins()[i].loc.y, i as u32, &mut cands);
                    if let Some(r) = opts.radius {
                        cands.retain(|&j| view.distance(i, j as usize) <= r);
                    }
                } else if let Some(r) = opts.radius {
                    sorted_ball(index, i, r, &mut cands);
                }
                cands.retain(|&j| keep(j as usize));
                if cands.is_empty() && opts.limit_diff_vpin_y {
                    match opts.radius {
                        Some(r) => sorted_ball(index, i, r, &mut cands),
                        None => cands.extend((0..n as u32).filter(|&j| j != i as u32)),
                    }
                    cands.retain(|&j| keep(j as usize));
                }
                (!cands.is_empty()).then(|| cands[rng.gen_range(0..cands.len())] as usize)
            }
        };
        if let Some(j) = drew {
            features.compute_into(&view.vpins()[i], &view.vpins()[j], &mut buf);
            ds.push(&buf, false).expect("arity");
        }
    }
    ds
}
