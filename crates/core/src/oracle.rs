//! Test oracles for the attack: plain scans that the shipped scoring and
//! training paths are checked against, bit for bit.
//!
//! Nothing in the product calls these. [`score`] is the all-pairs,
//! per-pair, keep-everything version of [`TrainedAttack::score`]; [`train`]
//! fits the ensemble with the per-node scan learners of [`sm_ml::oracle`].
//! The parity suites and the `sm-bench` gates compare against them.

use sm_layout::SplitView;
use sm_ml::{oracle as ml, Bagging, Dataset};

use crate::attack::{
    cand_cmp, hist_bin, AttackConfig, BaseClassifier, Cand, ScoreOptions, ScoredView,
    TrainedAttack, TrainedParts, VpinScore, HIST_BINS,
};
use crate::error::AttackError;

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
