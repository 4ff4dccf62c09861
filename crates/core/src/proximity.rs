//! Proximity attack with validation-based PA-LoC sizing (Section III-H).
//!
//! The proximity attack picks, for each target v-pin, the *nearest* v-pin
//! inside its PA-LoC — the top-probability candidates, sized per target as
//! a fraction of the benchmark's v-pin count. The right fraction is a
//! bias/variance trade-off (too small misses the match, too large admits a
//! nearer non-match), so it is chosen by validating candidate fractions on
//! held-out v-pins of the training designs.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use sm_layout::SplitView;
use sm_ml::parallel::par_map;
use sm_ml::Parallelism;

use crate::attack::{AttackConfig, ScoreOptions, ScoredView, TrainedAttack};
use crate::error::AttackError;

/// The PA-LoC fractions validated by default.
pub const DEFAULT_PA_FRACTIONS: [f64; 6] = [0.001, 0.002, 0.005, 0.01, 0.02, 0.05];

/// Fraction of training v-pins used for model fitting during validation
/// (the rest validate), per the paper's 80/20 protocol.
const PA_VALIDATION_TRAIN_FRACTION: f64 = 0.8;

/// Outcome of a proximity attack over a set of target v-pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PaOutcome {
    /// Targets whose selected candidate was the true match.
    pub successes: usize,
    /// Targets attacked.
    pub total: usize,
}

impl PaOutcome {
    /// Success rate in `[0, 1]`.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.successes as f64 / self.total as f64
        }
    }
}

impl std::fmt::Display for PaOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} ({:.2}%)",
            self.successes,
            self.total,
            100.0 * self.rate()
        )
    }
}

/// Runs the proximity attack on a scored view with PA-LoC size
/// `fraction × (total v-pins)` per target (Eq. (4)): the nearest candidate
/// in the PA-LoC wins, ties broken by higher probability, then randomly.
///
/// # Examples
///
/// ```
/// use sm_attack::attack::{AttackConfig, ScoreOptions, TrainedAttack};
/// use sm_attack::proximity::proximity_attack;
/// use sm_layout::{SplitLayer, Suite};
///
/// let suite = Suite::ispd2011_like(0.02)?;
/// let views = suite.split_all(SplitLayer::new(8)?);
/// let train: Vec<&_> = views[1..].iter().collect();
/// let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None)?;
/// let scored = model.score(&views[0], &ScoreOptions::default());
/// let outcome = proximity_attack(&scored, &views[0], 0.02, 7);
/// assert_eq!(outcome.total, views[0].num_vpins());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn proximity_attack(
    scored: &ScoredView,
    view: &SplitView,
    fraction: f64,
    seed: u64,
) -> PaOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let k = ((fraction * scored.num_view_vpins as f64).round() as usize).max(1);
    let mut successes = 0usize;
    for slot in &scored.slots {
        let pa_loc = &slot.top[..k.min(slot.top.len())];
        if pa_loc.is_empty() {
            continue;
        }
        // Nearest candidate; ties by probability; then random.
        let best_d = pa_loc.iter().map(|c| c.dist).min().expect("non-empty");
        let best_p = pa_loc
            .iter()
            .filter(|c| c.dist == best_d)
            .map(|c| c.p)
            .fold(f64::NEG_INFINITY, f64::max);
        let finalists: Vec<u32> = pa_loc
            .iter()
            .filter(|c| c.dist == best_d && c.p == best_p)
            .map(|c| c.index)
            .collect();
        let choice = finalists[rng.gen_range(0..finalists.len())];
        if choice as usize == view.true_match(slot.vpin as usize) {
            successes += 1;
        }
    }
    PaOutcome {
        successes,
        total: scored.slots.len(),
    }
}

/// Proximity attack with the PA-LoC defined by a fixed probability
/// threshold instead of a per-target size — the conference version's \[18\]
/// protocol (`t = 0.5`), which the validated-fraction PA improves on.
///
/// The PA-LoC is capped by the candidates retained during scoring
/// ([`crate::attack::ScoreOptions::top_fraction`]), which keeps exactly the
/// highest-probability pairs and therefore never removes a member of a
/// threshold-defined LoC below that cap.
pub fn pa_at_threshold(scored: &ScoredView, view: &SplitView, t: f64, seed: u64) -> PaOutcome {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut successes = 0usize;
    for slot in &scored.slots {
        let end = slot.top.partition_point(|c| c.p >= t);
        let pa_loc = &slot.top[..end];
        if pa_loc.is_empty() {
            continue;
        }
        let best_d = pa_loc.iter().map(|c| c.dist).min().expect("non-empty");
        let best_p = pa_loc
            .iter()
            .filter(|c| c.dist == best_d)
            .map(|c| c.p)
            .fold(f64::NEG_INFINITY, f64::max);
        let finalists: Vec<u32> = pa_loc
            .iter()
            .filter(|c| c.dist == best_d && c.p == best_p)
            .map(|c| c.index)
            .collect();
        let choice = finalists[rng.gen_range(0..finalists.len())];
        if choice as usize == view.true_match(slot.vpin as usize) {
            successes += 1;
        }
    }
    PaOutcome {
        successes,
        total: scored.slots.len(),
    }
}

/// Result of the PA-LoC fraction validation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaValidation {
    /// The fraction with the best validation success rate.
    pub best_fraction: f64,
    /// Mean validation success rate per candidate fraction, in input order.
    pub rates: Vec<(f64, f64)>,
}

/// Validates PA-LoC fractions on the training designs (Section III-H):
/// 80 % of each training design's v-pins feed the model, the remaining
/// 20 % are attacked at each candidate fraction, and the fraction with the
/// best mean success rate wins.
///
/// # Errors
///
/// Propagates training failures; returns [`AttackError::NoTrainingData`]
/// for an empty view list.
///
/// # Panics
///
/// Panics if `fractions` is empty.
pub fn validate_pa_fraction(
    config: &AttackConfig,
    training_views: &[&SplitView],
    fractions: &[f64],
    seed: u64,
) -> Result<PaValidation, AttackError> {
    assert!(
        !fractions.is_empty(),
        "need at least one candidate fraction"
    );
    if training_views.is_empty() {
        return Err(AttackError::NoTrainingData);
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let masks: Vec<Vec<bool>> = training_views
        .iter()
        .map(|v| {
            (0..v.num_vpins())
                .map(|_| rng.gen_bool(PA_VALIDATION_TRAIN_FRACTION))
                .collect()
        })
        .collect();
    let model = TrainedAttack::train(config, training_views, Some(&masks))?;

    // Each training view is scored and attacked independently, so the
    // per-view evaluation parallelises per `config.parallelism`; the inner
    // scoring stays sequential to avoid nesting thread pools. Per-view
    // rate vectors are accumulated in view order, keeping the floating
    // sums bit-identical to a sequential run.
    let max_fraction = fractions.iter().copied().fold(0.0, f64::max);
    let per_view: Vec<Vec<f64>> = par_map(config.parallelism, training_views.len(), |vi| {
        let view = training_views[vi];
        let targets: Vec<u32> = masks[vi]
            .iter()
            .enumerate()
            .filter(|(_, selected)| !**selected)
            .map(|(i, _)| i as u32)
            .collect();
        if targets.is_empty() {
            return vec![0.0; fractions.len()];
        }
        let scored = model.score(
            view,
            &ScoreOptions {
                top_fraction: (max_fraction * 1.05).max(0.01),
                targets: Some(targets),
                parallelism: Parallelism::Sequential,
                // Inherits the default top floor.
                ..ScoreOptions::default()
            },
        );
        fractions
            .iter()
            .enumerate()
            .map(|(fi, &f)| proximity_attack(&scored, view, f, seed ^ fi as u64).rate())
            .collect()
    });
    let mut sum_rates = vec![0.0f64; fractions.len()];
    for rates in &per_view {
        for (fi, r) in rates.iter().enumerate() {
            sum_rates[fi] += r;
        }
    }
    let n = training_views.len() as f64;
    let rates: Vec<(f64, f64)> = fractions
        .iter()
        .zip(&sum_rates)
        .map(|(&f, &s)| (f, s / n))
        .collect();
    let best_fraction = rates
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(f, _)| f)
        .expect("fractions non-empty");
    Ok(PaValidation {
        best_fraction,
        rates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{Cand, VpinScore, HIST_BINS};
    use sm_layout::{SplitLayer, Suite};

    fn synthetic_scored(top: Vec<Vec<Cand>>, n_view: usize) -> ScoredView {
        let slots = top
            .into_iter()
            .enumerate()
            .map(|(i, t)| VpinScore {
                vpin: i as u32,
                true_prob: None,
                top: t,
            })
            .collect();
        ScoredView {
            slots,
            hist: vec![0; HIST_BINS],
            num_view_vpins: n_view,
            pairs_scored: 0,
        }
    }

    fn views(split: u8) -> Vec<SplitView> {
        Suite::ispd2011_like(0.02)
            .expect("valid scale")
            .split_all(SplitLayer::new(split).expect("valid"))
    }

    #[test]
    fn pa_picks_nearest_in_pa_loc() {
        // v-pin 0's true match is v-pin 1 at distance 10; a non-match sits
        // at distance 5 but with lower probability, *outside* the top-1
        // PA-LoC.
        let suite = views(8);
        let view = &suite[0];
        let truth = view.true_match(0) as u32;
        let top = vec![vec![
            Cand {
                p: 0.99,
                index: truth,
                dist: 10,
            },
            Cand {
                p: 0.40,
                index: (truth + 1) % view.num_vpins() as u32,
                dist: 5,
            },
        ]];
        let scored = synthetic_scored(top, view.num_vpins());
        // Fraction so small the PA-LoC has exactly one entry -> success.
        let win = proximity_attack(&scored, view, 1e-9, 0);
        assert_eq!(win.successes, 1);
        // Large fraction admits the nearer non-match -> failure.
        let lose = proximity_attack(&scored, view, 1.0, 0);
        assert_eq!(lose.successes, 0);
        assert_eq!(lose.total, 1);
    }

    #[test]
    fn pa_tie_breaks_by_probability() {
        let suite = views(8);
        let view = &suite[0];
        let truth = view.true_match(0) as u32;
        let other = (truth + 1) % view.num_vpins() as u32;
        let top = vec![vec![
            Cand {
                p: 0.9,
                index: truth,
                dist: 7,
            },
            Cand {
                p: 0.5,
                index: other,
                dist: 7,
            },
        ]];
        let scored = synthetic_scored(top, view.num_vpins());
        let out = proximity_attack(&scored, view, 1.0, 0);
        assert_eq!(out.successes, 1, "equal distance resolves to higher p");
    }

    #[test]
    fn pa_handles_empty_pa_loc() {
        let suite = views(8);
        let view = &suite[0];
        let scored = synthetic_scored(vec![vec![]], view.num_vpins());
        let out = proximity_attack(&scored, view, 0.01, 0);
        assert_eq!(out.successes, 0);
        assert_eq!(out.total, 1);
    }

    #[test]
    fn outcome_rate_and_display() {
        let o = PaOutcome {
            successes: 1,
            total: 4,
        };
        assert!((o.rate() - 0.25).abs() < 1e-12);
        assert!(o.to_string().contains("25.00%"));
        assert_eq!(
            PaOutcome {
                successes: 0,
                total: 0
            }
            .rate(),
            0.0
        );
    }

    #[test]
    fn validation_returns_a_fraction_from_the_grid() {
        let vs = views(8);
        let train: Vec<&SplitView> = vs[..4].iter().collect();
        let grid = [0.01, 0.05];
        let val =
            validate_pa_fraction(&AttackConfig::imp9(), &train, &grid, 3).expect("validation runs");
        assert!(grid.contains(&val.best_fraction));
        assert_eq!(val.rates.len(), 2);
        for (_, r) in &val.rates {
            assert!((0.0..=1.0).contains(r));
        }
    }

    #[test]
    fn validation_requires_training_views() {
        let err = validate_pa_fraction(&AttackConfig::imp9(), &[], &[0.01], 0);
        assert!(matches!(err, Err(AttackError::NoTrainingData)));
    }

    #[test]
    fn end_to_end_pa_beats_zero_on_split8() {
        let vs = views(8);
        let train: Vec<&SplitView> = vs[1..].iter().collect();
        let cfg = AttackConfig::imp9().with_y_limit();
        let model = TrainedAttack::train(&cfg, &train, None).expect("train");
        let scored = model.score(&vs[0], &ScoreOptions::default());
        let out = proximity_attack(&scored, &vs[0], 0.02, 1);
        assert!(out.total > 0);
        assert!(
            out.rate() > 0.0,
            "split-8 Y-limited PA should land some hits"
        );
    }
}
