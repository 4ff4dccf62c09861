//! Leave-one-out cross-validation driver (paper Section III-C).
//!
//! With N benchmarks, each is attacked by a model trained on the other
//! N−1, keeping training and testing strictly separated — the key
//! methodological fix over the prior work \[5\].
//!
//! [`leave_one_out`] returns every fold's [`FoldResult`] at once: the
//! table, figure and ablation harnesses read each fold's scored view, so
//! memory grows with the suite (N scored views plus the sample cache).
//!
//! Per-design samples are extracted **once** and shared across folds: a
//! design's sample stream is seeded by its name (see
//! [`crate::samples::view_sample_seed`]), so its samples depend only on the
//! run seed and the fold's neighborhood radius, never on which other
//! designs are in the fold. Each fold's training set is then assembled by
//! concatenating the cached per-design sets in view order — bit-identical
//! to regenerating them from scratch (the naive path re-extracted features
//! for N−1 of the N designs per fold, N(N−1) extractions instead of at
//! most one per distinct (design, radius) pair).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sm_layout::SplitView;
use sm_ml::parallel::par_map;
use sm_ml::Dataset;

use crate::attack::{AttackConfig, ScoreOptions, ScoredView, TrainOptions, TrainedAttack};
use crate::error::AttackError;
use crate::samples::{generate_view_samples, sample_base_seed, view_sample_seed};

/// One fold's outcome: the held-out design, its scoring, and timings.
#[derive(Debug, Clone)]
pub struct FoldResult {
    /// Name of the held-out (attacked) design.
    pub test_name: String,
    /// Scoring of the held-out design.
    pub scored: ScoredView,
    /// Wall-clock training time of this fold's model (sample-set assembly
    /// plus ensemble fitting; per-design sample extraction is shared
    /// across folds and not attributed to any one of them).
    pub train_time: Duration,
    /// Wall-clock scoring time.
    pub score_time: Duration,
}

/// Runs leave-one-out cross-validation of `config` over `views`.
///
/// Folds are independent, so they run in parallel per
/// `config.parallelism`; results come back in view order and are
/// bit-identical to a sequential run (per-fold wall-clock timings may
/// differ under contention).
///
/// # Errors
///
/// Propagates the first fold failure; returns
/// [`AttackError::NoTrainingData`] if fewer than two views are supplied.
///
/// # Examples
///
/// ```
/// use sm_attack::attack::{AttackConfig, ScoreOptions};
/// use sm_attack::xval::leave_one_out;
/// use sm_layout::{SplitLayer, Suite};
///
/// let views = Suite::ispd2011_like(0.02)?.split_all(SplitLayer::new(8)?);
/// let folds = leave_one_out(&AttackConfig::imp9(), &views, &ScoreOptions::default())?;
/// assert_eq!(folds.len(), views.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn leave_one_out(
    config: &AttackConfig,
    views: &[SplitView],
    score_options: &ScoreOptions,
) -> Result<Vec<FoldResult>, AttackError> {
    if views.len() < 2 {
        return Err(AttackError::NoTrainingData);
    }
    // Fold radii first: the radius is a quantile over the fold's N−1
    // training designs, so it can differ between folds, and a design's
    // samples depend on it (it bounds the negative-candidate pool).
    let radii: Vec<Option<i64>> = (0..views.len())
        .map(|t| {
            let train: Vec<&SplitView> = views
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != t)
                .map(|(_, v)| v)
                .collect();
            config.training_radius(&train)
        })
        .collect();

    // Extract each distinct (design, radius) sample set exactly once, in
    // parallel. `base` reproduces the seed draw `TrainedAttack::train`
    // performs, so the cached sets are bit-identical to the uncached path.
    let base = sample_base_seed(&mut ChaCha8Rng::seed_from_u64(config.seed));
    let mut keys: Vec<(usize, Option<i64>)> = Vec::new();
    for (t, radius) in radii.iter().enumerate() {
        for d in 0..views.len() {
            if d != t && !keys.contains(&(d, *radius)) {
                keys.push((d, *radius));
            }
        }
    }
    let extracted: Vec<Dataset> = par_map(config.parallelism, keys.len(), |k| {
        let (d, radius) = keys[k];
        generate_view_samples(
            &views[d],
            &config.features,
            config.sample_options(radius),
            None,
            view_sample_seed(base, &views[d].name),
        )
    });
    let cache: HashMap<(usize, Option<i64>), &Dataset> =
        keys.iter().copied().zip(extracted.iter()).collect();

    par_map(config.parallelism, views.len(), |t| {
        let test = &views[t];
        let t0 = Instant::now();
        let mut samples = Dataset::new(config.features.len());
        for d in 0..views.len() {
            if d != t {
                samples
                    .extend_from(cache[&(d, radii[t])])
                    .expect("cached sample sets share the config's feature arity");
            }
        }
        let model =
            TrainedAttack::from_samples(config, samples, radii[t], TrainOptions::default())?;
        let train_time = t0.elapsed();
        let t1 = Instant::now();
        let scored = model.score(test, score_options);
        let score_time = t1.elapsed();
        Ok(FoldResult {
            test_name: test.name.clone(),
            scored,
            train_time,
            score_time,
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sm_layout::{SplitLayer, Suite};

    #[test]
    fn folds_cover_every_design_once() {
        let views = Suite::ispd2011_like(0.02)
            .expect("valid scale")
            .split_all(SplitLayer::new(8).expect("valid"));
        let folds = leave_one_out(&AttackConfig::imp9(), &views, &ScoreOptions::default())
            .expect("xval runs");
        let names: Vec<&str> = folds.iter().map(|f| f.test_name.as_str()).collect();
        assert_eq!(names, ["sb1", "sb5", "sb10", "sb12", "sb18"]);
        for (f, v) in folds.iter().zip(&views) {
            assert_eq!(f.scored.slots.len(), v.num_vpins());
        }
    }

    #[test]
    fn too_few_views_is_an_error() {
        let views = Suite::ispd2011_like(0.02)
            .expect("valid scale")
            .split_all(SplitLayer::new(8).expect("valid"));
        let one = vec![views[0].clone()];
        assert!(matches!(
            leave_one_out(&AttackConfig::imp9(), &one, &ScoreOptions::default()),
            Err(AttackError::NoTrainingData)
        ));
    }

    /// The per-design sample cache must be invisible in results: every
    /// fold's scoring equals training that fold from scratch with
    /// `TrainedAttack::train` (the uncached path), bit for bit. Covers
    /// radius-bearing (`Imp`), unrestricted (`ML`) and Y-limited configs,
    /// whose sample pools are shaped differently per fold.
    #[test]
    fn cached_fold_assembly_is_bit_identical_to_uncached_training() {
        for (split, config) in [
            (6u8, AttackConfig::imp9()),
            (6u8, AttackConfig::ml9()),
            (8u8, AttackConfig::imp9().with_y_limit()),
        ] {
            let views = Suite::ispd2011_like(0.02)
                .expect("valid scale")
                .split_all(SplitLayer::new(split).expect("valid"));
            let folds =
                leave_one_out(&config, &views, &ScoreOptions::default()).expect("cached xval runs");
            for (t, fold) in folds.iter().enumerate() {
                let train: Vec<&SplitView> = views
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != t)
                    .map(|(_, v)| v)
                    .collect();
                let model = TrainedAttack::train(&config, &train, None).expect("uncached train");
                let scored = model.score(&views[t], &ScoreOptions::default());
                assert_eq!(
                    fold.scored, scored,
                    "{} fold {} diverged from the uncached path",
                    config.name, fold.test_name
                );
            }
        }
    }
}
