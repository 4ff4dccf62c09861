//! Global matching extensions beyond the paper's per-v-pin attacks.
//!
//! The paper scores pairs independently and attacks each v-pin in
//! isolation (Section III-H), noting that attackers "could combine
//! [existing techniques] for even better performance". The natural
//! combination step is to exploit the *matching structure*: every v-pin
//! has exactly one partner, so two v-pins claiming the same candidate
//! cannot both be right. This module implements two such refinements on
//! top of a [`ScoredView`]:
//!
//! - [`greedy_matching`] — sort all retained candidate pairs by
//!   probability and commit them greedily, never reusing a v-pin (a 1/2-
//!   approximation of maximum-weight matching, scalable to every design
//!   size the paper uses — unlike the network-flow formulation of \[13\]
//!   which the paper rules out at scale).
//! - [`mutual_best`] — commit only pairs that are each other's top
//!   candidate; lower recall, much higher precision.

use serde::{Deserialize, Serialize};
use sm_layout::SplitView;

use crate::attack::ScoredView;

/// Outcome of a global matching attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchingOutcome {
    /// Committed pairs that are true matches.
    pub correct: usize,
    /// Total committed pairs.
    pub committed: usize,
    /// Total v-pins in the view.
    pub total_vpins: usize,
}

impl MatchingOutcome {
    /// Precision: correct / committed.
    pub fn precision(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.correct as f64 / self.committed as f64
        }
    }

    /// Recall: correctly matched v-pins / all v-pins.
    pub fn recall(&self) -> f64 {
        if self.total_vpins == 0 {
            0.0
        } else {
            (2 * self.correct) as f64 / self.total_vpins as f64
        }
    }
}

/// Greedy maximum-weight matching over the retained candidates: pairs are
/// committed in descending probability order, skipping any pair touching
/// an already-matched v-pin. Pairs below `min_prob` are never committed.
///
/// # Examples
///
/// ```
/// use sm_attack::attack::{AttackConfig, ScoreOptions, TrainedAttack};
/// use sm_attack::matching::greedy_matching;
/// use sm_layout::{SplitLayer, Suite};
///
/// let views = Suite::ispd2011_like(0.02)?.split_all(SplitLayer::new(8)?);
/// let train: Vec<&_> = views[1..].iter().collect();
/// let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None)?;
/// let scored = model.score(&views[0], &ScoreOptions::default());
/// let outcome = greedy_matching(&scored, &views[0], 0.5);
/// assert!(outcome.committed * 2 <= views[0].num_vpins());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn greedy_matching(scored: &ScoredView, view: &SplitView, min_prob: f64) -> MatchingOutcome {
    // Collect unique candidate pairs (i < j) with their probability.
    let mut pairs: Vec<(f64, u32, u32)> = Vec::new();
    for slot in &scored.slots {
        for c in &slot.top {
            if c.p >= min_prob {
                let (a, b) = if slot.vpin < c.index {
                    (slot.vpin, c.index)
                } else {
                    (c.index, slot.vpin)
                };
                pairs.push((c.p, a, b));
            }
        }
    }
    pairs.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
    pairs.dedup_by(|a, b| a.1 == b.1 && a.2 == b.2 && a.0 == b.0);

    let n = view.num_vpins();
    let mut used = vec![false; n];
    let mut correct = 0usize;
    let mut committed = 0usize;
    for (_, a, b) in pairs {
        let (au, bu) = (a as usize, b as usize);
        if used[au] || used[bu] {
            continue;
        }
        used[au] = true;
        used[bu] = true;
        committed += 1;
        if view.true_match(au) == bu {
            correct += 1;
        }
    }
    MatchingOutcome {
        correct,
        committed,
        total_vpins: n,
    }
}

/// Commits only pairs that are mutually each other's highest-probability
/// candidate (with `p >= min_prob` on both sides).
pub fn mutual_best(scored: &ScoredView, view: &SplitView, min_prob: f64) -> MatchingOutcome {
    let n = view.num_vpins();
    // Top candidate of each scored v-pin.
    let mut best: Vec<Option<u32>> = vec![None; n];
    for slot in &scored.slots {
        if let Some(c) = slot.top.first() {
            if c.p >= min_prob {
                best[slot.vpin as usize] = Some(c.index);
            }
        }
    }
    let mut correct = 0usize;
    let mut committed = 0usize;
    for i in 0..n {
        if let Some(j) = best[i] {
            let ju = j as usize;
            if i < ju && best[ju] == Some(i as u32) {
                committed += 1;
                if view.true_match(i) == ju {
                    correct += 1;
                }
            }
        }
    }
    MatchingOutcome {
        correct,
        committed,
        total_vpins: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{AttackConfig, ScoreOptions, TrainedAttack};
    use crate::attack::{Cand, VpinScore, HIST_BINS};
    use sm_layout::{SplitLayer, Suite};

    fn views(split: u8) -> Vec<SplitView> {
        Suite::ispd2011_like(0.02)
            .expect("valid scale")
            .split_all(SplitLayer::new(split).expect("valid"))
    }

    fn synthetic(top: Vec<Vec<Cand>>, n: usize) -> ScoredView {
        ScoredView {
            slots: top
                .into_iter()
                .enumerate()
                .map(|(i, t)| VpinScore {
                    vpin: i as u32,
                    true_prob: None,
                    top: t,
                })
                .collect(),
            hist: vec![0; HIST_BINS],
            num_view_vpins: n,
            pairs_scored: 0,
        }
    }

    #[test]
    fn greedy_never_reuses_a_vpin() {
        let vs = views(8);
        let v = &vs[0];
        // Every slot claims v-pin 0 with high probability.
        let tops: Vec<Vec<Cand>> = (0..v.num_vpins())
            .map(|i| {
                vec![Cand {
                    p: 1.0 - i as f64 * 1e-4,
                    index: 0,
                    dist: 1,
                }]
            })
            .collect();
        let scored = synthetic(tops, v.num_vpins());
        let out = greedy_matching(&scored, v, 0.0);
        // Only one pair can involve v-pin 0.
        assert_eq!(out.committed, 1);
    }

    #[test]
    fn greedy_matching_beats_committing_everything() {
        let vs = views(8);
        let train: Vec<&SplitView> = vs[1..].iter().collect();
        let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
        let scored = model.score(&vs[0], &ScoreOptions::default());
        let matched = greedy_matching(&scored, &vs[0], 0.5);
        assert!(matched.committed > 0);
        assert!(matched.precision() > 0.0);
        assert!(matched.recall() <= 1.0);
        // Committed pairs are disjoint, so at most n/2.
        assert!(matched.committed * 2 <= vs[0].num_vpins());
    }

    #[test]
    fn mutual_best_is_a_subset_of_greedy_commitments() {
        let vs = views(8);
        let train: Vec<&SplitView> = vs[1..].iter().collect();
        let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
        let scored = model.score(&vs[0], &ScoreOptions::default());
        let mutual = mutual_best(&scored, &vs[0], 0.5);
        let greedy = greedy_matching(&scored, &vs[0], 0.5);
        assert!(mutual.committed <= greedy.committed);
        // Mutual-best is the high-precision variant.
        if mutual.committed > 0 {
            assert!(mutual.precision() >= greedy.precision() - 0.05);
        }
    }

    #[test]
    fn outcome_metrics_handle_degenerate_cases() {
        let o = MatchingOutcome {
            correct: 0,
            committed: 0,
            total_vpins: 0,
        };
        assert_eq!(o.precision(), 0.0);
        assert_eq!(o.recall(), 0.0);
        let o = MatchingOutcome {
            correct: 3,
            committed: 4,
            total_vpins: 10,
        };
        assert!((o.precision() - 0.75).abs() < 1e-12);
        assert!((o.recall() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn min_prob_filters_commitments() {
        let vs = views(8);
        let v = &vs[0];
        let tops = vec![vec![Cand {
            p: 0.4,
            index: 1,
            dist: 5,
        }]];
        let scored = synthetic(tops, v.num_vpins());
        assert_eq!(greedy_matching(&scored, v, 0.5).committed, 0);
        assert_eq!(greedy_matching(&scored, v, 0.3).committed, 1);
        assert_eq!(mutual_best(&scored, v, 0.5).committed, 0);
    }
}
