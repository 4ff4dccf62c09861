//! Two-level pruning (paper Section III-E).
//!
//! The Level-1 model's list of candidates contains, besides the true match,
//! exactly the non-matches Level 1 *cannot* distinguish — which makes them
//! ideal "high-quality" negatives. Two-level pruning therefore tests the
//! Level-1 model on its own training designs, samples one negative per
//! v-pin from the resulting LoC, trains a Level-2 model on those hard
//! negatives (plus all positives), and at attack time applies Level 2 only
//! inside the Level-1 LoC of the target design. Cross-validation stays
//! intact: both levels see only the N−1 training designs.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sm_layout::SplitView;
use sm_ml::{Bagging, Dataset, RandomTreeLearner, RepTreeLearner};

use crate::attack::{
    score_with, AttackConfig, BaseClassifier, CandidateSource, ScoreOptions, ScoredView,
    TrainedAttack,
};
use crate::error::AttackError;
use crate::features::PairKernel;
use crate::samples::SampleOptions;

/// Level-1 probability threshold defining the LoC that Level 2 refines.
pub const LEVEL1_THRESHOLD: f64 = 0.5;

/// The outcome of a two-level attack on one test view.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoLevelOutcome {
    /// Level-1 scoring of the test view (equivalent to the plain attack).
    pub level1: ScoredView,
    /// Level-2 scoring, restricted to each v-pin's Level-1 LoC.
    pub level2: ScoredView,
}

/// Trains both levels and attacks `test_view`.
///
/// # Errors
///
/// Propagates training errors from either level; returns
/// [`AttackError::NoSamples`] if Level-1 LoCs yield no usable negatives.
///
/// # Examples
///
/// ```
/// use sm_attack::attack::{AttackConfig, ScoreOptions};
/// use sm_attack::two_level::two_level_attack;
/// use sm_layout::{SplitLayer, Suite};
///
/// let suite = Suite::ispd2011_like(0.02)?;
/// let views = suite.split_all(SplitLayer::new(8)?);
/// let train: Vec<&_> = views[1..].iter().collect();
/// let out = two_level_attack(
///     &AttackConfig::imp11(),
///     &train,
///     &views[0],
///     &ScoreOptions::default(),
/// )?;
/// assert_eq!(out.level1.slots.len(), out.level2.slots.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn two_level_attack(
    config: &AttackConfig,
    training_views: &[&SplitView],
    test_view: &SplitView,
    score_options: &ScoreOptions,
) -> Result<TwoLevelOutcome, AttackError> {
    let level1 = TrainedAttack::train(config, training_views, None)?;

    // --- Build the Level-2 training set from Level-1 LoCs ----------------
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x2e7e1);
    let sample_opts = SampleOptions {
        radius: level1.radius(),
        limit_diff_vpin_y: config.limit_diff_vpin_y,
    };
    let rows = 2 * training_views.iter().map(|v| v.num_vpins()).sum::<usize>();
    let mut l2_data = Dataset::with_capacity(config.features.len(), rows);
    let mut batch = Vec::new();
    for view in training_views {
        let scored = level1.score(view, score_options);
        let kernel = PairKernel::new(view.vpins(), &config.features);
        let nf = kernel.num_features();
        for slot in &scored.slots {
            let i = slot.vpin as usize;
            let m = view.true_match(i);
            if !sample_opts.eligible(view, i, m) {
                continue;
            }
            // All positives, as in Level 1, and one hard negative from the
            // Level-1 LoC.
            let loc: Vec<u32> = slot
                .top
                .iter()
                .filter(|c| c.p >= LEVEL1_THRESHOLD && c.index as usize != m)
                .map(|c| c.index)
                .collect();
            match pick(&loc, &mut rng) {
                Some(&j) => kernel.fill_batch(slot.vpin, &[m as u32, j], &mut batch),
                None => kernel.fill_batch(slot.vpin, &[m as u32], &mut batch),
            }
            l2_data.push(&batch[..nf], true).expect("arity matches");
            if batch.len() > nf {
                l2_data.push(&batch[nf..], false).expect("arity matches");
            }
        }
    }
    if l2_data.is_empty() || l2_data.num_positive() == l2_data.len() {
        return Err(AttackError::NoSamples);
    }
    let l2_model = match config.base {
        BaseClassifier::RepTreeBagging { n_trees } => Bagging::fit(
            &l2_data,
            &RepTreeLearner::default(),
            n_trees,
            config.seed ^ 0xb,
        )?,
        BaseClassifier::RandomTreeBagging { n_trees } => Bagging::fit(
            &l2_data,
            &RandomTreeLearner::default(),
            n_trees,
            config.seed ^ 0xb,
        )?,
    };
    let mut l2_config = config.clone();
    l2_config.name = format!("{}-L2", config.name);
    let level2_attack = TrainedAttack::from_parts(crate::attack::TrainedParts {
        config: l2_config,
        model: l2_model,
        radius: level1.radius(),
        num_training_samples: l2_data.len(),
    });

    // --- Attack the target: Level 1, then Level 2 inside its LoC ---------
    let scored1 = level1.score(test_view, score_options);
    let lists: Vec<Vec<u32>> = scored1
        .slots
        .iter()
        .map(|s| {
            s.top
                .iter()
                .filter(|c| c.p >= LEVEL1_THRESHOLD)
                .map(|c| c.index)
                .collect()
        })
        .collect();
    let targets: Vec<u32> = scored1.slots.iter().map(|s| s.vpin).collect();
    // The Level-2 pass scores explicit per-target lists, so the
    // `enumeration` option is moot here: `CandidateSource::Explicit`
    // bypasses candidate enumeration entirely.
    let opts2 = ScoreOptions {
        targets: Some(targets),
        ..score_options.clone()
    };
    let scored2 = score_with(
        &level2_attack,
        test_view,
        &opts2,
        &CandidateSource::Explicit(&lists),
    );

    Ok(TwoLevelOutcome {
        level1: scored1,
        level2: scored2,
    })
}

fn pick<'a, T, R: Rng>(xs: &'a [T], rng: &mut R) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.gen_range(0..xs.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_layout::{SplitLayer, Suite};

    fn views(split: u8) -> Vec<SplitView> {
        Suite::ispd2011_like(0.02)
            .expect("valid scale")
            .split_all(SplitLayer::new(split).expect("valid"))
    }

    #[test]
    fn level2_loc_is_a_subset_of_level1() {
        let vs = views(8);
        let train: Vec<&SplitView> = vs[1..].iter().collect();
        let out = two_level_attack(
            &AttackConfig::imp11(),
            &train,
            &vs[0],
            &ScoreOptions::default(),
        )
        .expect("two-level runs");
        for (s1, s2) in out.level1.slots.iter().zip(&out.level2.slots) {
            assert_eq!(s1.vpin, s2.vpin);
            let l1: std::collections::HashSet<u32> = s1
                .top
                .iter()
                .filter(|c| c.p >= LEVEL1_THRESHOLD)
                .map(|c| c.index)
                .collect();
            for c in &s2.top {
                assert!(l1.contains(&c.index), "L2 candidate outside L1 LoC");
            }
        }
    }

    #[test]
    fn level2_prunes_mean_loc_at_default_threshold() {
        let vs = views(8);
        let train: Vec<&SplitView> = vs[1..].iter().collect();
        let out = two_level_attack(
            &AttackConfig::imp11(),
            &train,
            &vs[0],
            &ScoreOptions::default(),
        )
        .expect("two-level runs");
        let l1 = out.level1.mean_loc_at(0.5);
        let l2 = out.level2.mean_loc_at(0.5);
        assert!(
            l2 <= l1 + 1e-9,
            "Level 2 must not grow the candidate list ({l1:.2} -> {l2:.2})"
        );
    }

    #[test]
    fn two_level_fails_cleanly_without_training_views() {
        let vs = views(8);
        let err = two_level_attack(
            &AttackConfig::imp11(),
            &[],
            &vs[0],
            &ScoreOptions::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn pick_is_none_on_empty() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert!(pick::<u32, _>(&[], &mut rng).is_none());
        assert_eq!(pick(&[42], &mut rng), Some(&42));
    }
}
