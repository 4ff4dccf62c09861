//! Training-sample generation (paper Section III-B).
//!
//! For every v-pin in the training designs we emit one *positive* sample
//! (the v-pin paired with its true match) and one *negative* sample (the
//! v-pin paired with a random non-match), keeping the classes balanced as
//! the paper requires for this heavily imbalanced problem. Pairs that would
//! short two drivers are illegal and never sampled. The scalable (`Imp`)
//! configurations restrict both positives and negatives to the
//! neighborhood radius; the `Y` configurations restrict them to pairs with
//! `DiffVpinY = 0`.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sm_layout::SplitView;
use sm_ml::Dataset;

use crate::features::FeatureSet;
use crate::neighborhood::VpinIndex;

/// Options controlling which pairs are eligible as samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SampleOptions {
    /// Restrict pairs to this Manhattan radius (the `Imp` neighborhood).
    pub radius: Option<i64>,
    /// Restrict pairs to `DiffVpinY = 0` (top-split-layer convention).
    pub limit_diff_vpin_y: bool,
}

impl SampleOptions {
    /// Whether the pair `(i, j)` of `view` is eligible under these options.
    pub fn eligible(&self, view: &SplitView, i: usize, j: usize) -> bool {
        if !view.is_legal_pair(i, j) {
            return false;
        }
        if self.limit_diff_vpin_y && view.vpins()[i].loc.y != view.vpins()[j].loc.y {
            return false;
        }
        if let Some(r) = self.radius {
            if view.distance(i, j) > r {
                return false;
            }
        }
        true
    }
}

/// Generates the balanced training set over `views`.
///
/// `vpin_filter`, when given, must hold one mask per view; only v-pins
/// whose mask entry is `true` contribute samples (used by the proximity
/// attack's 80/20 validation split). Positives whose partner is filtered
/// out are skipped, keeping training and validation pairs disjoint.
///
/// Each design draws its negatives from its own RNG stream, seeded by
/// [`view_sample_seed`] from a base drawn once from `rng` — so a design's
/// samples depend only on the base seed and its own name, never on which
/// *other* designs are in `views`. The cross-validation driver relies on
/// this: it extracts each design's samples once and assembles every
/// leave-one-out fold by concatenation, bit-identical to calling this
/// function per fold.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use sm_attack::features::FeatureSet;
/// use sm_attack::samples::{generate_samples, SampleOptions};
/// use sm_layout::{SplitLayer, Suite};
///
/// let suite = Suite::ispd2011_like(0.02)?;
/// let views = suite.split_all(SplitLayer::new(6)?);
/// let refs: Vec<&_> = views.iter().collect();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let ds = generate_samples(
///     &refs,
///     &FeatureSet::eleven(),
///     SampleOptions::default(),
///     None,
///     &mut rng,
/// );
/// assert!(ds.len() > 0);
/// assert_eq!(ds.num_positive() * 2, ds.len()); // balanced classes
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn generate_samples(
    views: &[&SplitView],
    features: &FeatureSet,
    opts: SampleOptions,
    vpin_filter: Option<&[Vec<bool>]>,
    rng: &mut ChaCha8Rng,
) -> Dataset {
    let base = sample_base_seed(rng);
    let mut ds = Dataset::new(features.len());
    for (vi, view) in views.iter().enumerate() {
        let filter = vpin_filter.map(|f| f[vi].as_slice());
        let sub = generate_view_samples(
            view,
            features,
            opts,
            filter,
            view_sample_seed(base, &view.name),
        );
        ds.extend_from(&sub).expect("feature arities match");
    }
    ds
}

/// Draws the run-level base seed all per-design sample streams derive from.
/// Consumes exactly one `u64` from `rng`.
pub fn sample_base_seed(rng: &mut ChaCha8Rng) -> u64 {
    rng.next_u64()
}

/// Seed of one design's sample stream: FNV-1a-64 of the design name, XORed
/// with the run's base seed. Keyed by *name* rather than position so a
/// design's samples are identical no matter which training subset it
/// appears in. This derivation is a stability contract — changing it
/// changes every trained model.
pub fn view_sample_seed(base: u64, name: &str) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(PRIME);
    }
    base ^ h
}

/// Generates one design's balanced samples from its own seeded RNG stream.
/// `filter` is this view's v-pin mask (see [`generate_samples`]).
pub fn generate_view_samples(
    view: &SplitView,
    features: &FeatureSet,
    opts: SampleOptions,
    filter: Option<&[bool]>,
    seed: u64,
) -> Dataset {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ds = Dataset::new(features.len());
    let mut buf = Vec::with_capacity(features.len());
    let mut cands = Vec::new();
    let n = view.num_vpins();
    if n < 2 {
        return ds;
    }
    let included = |i: usize| filter.is_none_or(|m| m[i]);
    let index = if opts.radius.is_some() || opts.limit_diff_vpin_y {
        Some(match opts.radius {
            Some(r) => VpinIndex::with_radius(view, r),
            None => VpinIndex::new(view, 10_000),
        })
    } else {
        None
    };
    for i in 0..n {
        if !included(i) {
            continue;
        }
        let m = view.true_match(i);
        if !included(m) || !opts.eligible(view, i, m) {
            continue;
        }
        // Positive sample.
        features.compute_into(&view.vpins()[i], &view.vpins()[m], &mut buf);
        ds.push(&buf, true).expect("buffer arity matches");

        // One matching negative, drawn from the same candidate pool the
        // testing stage will use. The draw takes the k-th smallest v-pin
        // index of the candidate *set*, so it is a pure function of the
        // seed and that set, not of the order in which the spatial index
        // returns it.
        let drew = draw_negative(
            view,
            i,
            m,
            &opts,
            index.as_ref(),
            filter,
            &mut rng,
            &mut cands,
        );
        if let Some(j) = drew {
            features.compute_into(&view.vpins()[i], &view.vpins()[j], &mut buf);
            ds.push(&buf, false).expect("buffer arity matches");
        }
    }
    ds
}

#[allow(clippy::too_many_arguments)]
fn draw_negative(
    view: &SplitView,
    i: usize,
    m: usize,
    opts: &SampleOptions,
    index: Option<&VpinIndex>,
    filter: Option<&[bool]>,
    rng: &mut ChaCha8Rng,
    cands: &mut Vec<u32>,
) -> Option<usize> {
    let n = view.num_vpins();
    // Every check a negative needs; the radius pool below makes the
    // legality check through its choice of buckets instead.
    let negative = |j: usize| j != m && filter.is_none_or(|f| f[j]) && view.is_legal_pair(i, j);
    let Some(index) = index else {
        // Unrestricted: rejection-sample a uniform non-match.
        for _ in 0..64 {
            let j = rng.gen_range(0..n);
            if negative(j) {
                return Some(j);
            }
        }
        return None;
    };
    // Enumerate the candidate pool once, then sample from it.
    if opts.limit_diff_vpin_y {
        index.same_y(view.vpins()[i].loc.y, i as u32, cands);
        cands.retain(|&j| {
            let j = j as usize;
            opts.radius.is_none_or(|r| view.distance(i, j) <= r) && negative(j)
        });
        if cands.is_empty() {
            // A v-pin alone on its track has no same-track negative; fall
            // back to its spatial neighborhood so the classes stay
            // balanced. (At testing time these pairs are never evaluated,
            // so the model only becomes *more* conservative.)
            match opts.radius {
                Some(r) => radius_pool(index, view, i, m, r, filter, cands),
                None => cands.extend((0..n as u32).filter(|&j| negative(j as usize))),
            }
        }
    } else if let Some(r) = opts.radius {
        radius_pool(index, view, i, m, r, filter, cands);
    }
    if cands.is_empty() {
        return None;
    }
    let k = rng.gen_range(0..cands.len());
    Some(*cands.select_nth_unstable(k).1 as usize)
}

/// The legal partners of `i` within radius `r`, less its true match `m`
/// and any v-pin `filter` masks out, written to `cands` in no set order.
fn radius_pool(
    index: &VpinIndex,
    view: &SplitView,
    i: usize,
    m: usize,
    r: i64,
    filter: Option<&[bool]>,
    cands: &mut Vec<u32>,
) {
    index.partners_within_radius(view, i, r, cands);
    match filter {
        None => {
            if let Some(p) = cands.iter().position(|&j| j as usize == m) {
                cands.swap_remove(p);
            }
        }
        Some(f) => cands.retain(|&j| j as usize != m && f[j as usize]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sm_layout::{SplitLayer, Suite};

    fn views(split: u8) -> Vec<SplitView> {
        Suite::ispd2011_like(0.02)
            .expect("valid scale")
            .split_all(SplitLayer::new(split).expect("valid"))
    }

    fn refs(v: &[SplitView]) -> Vec<&SplitView> {
        v.iter().collect()
    }

    #[test]
    fn unrestricted_sampling_is_balanced() {
        let vs = views(6);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let ds = generate_samples(
            &refs(&vs),
            &FeatureSet::nine(),
            SampleOptions::default(),
            None,
            &mut rng,
        );
        let total_vpins: usize = vs.iter().map(SplitView::num_vpins).sum();
        assert_eq!(ds.num_positive(), total_vpins, "one positive per v-pin");
        // Negatives can very occasionally fail to draw, but not often.
        assert!(ds.len() >= 2 * total_vpins - total_vpins / 50);
    }

    #[test]
    fn neighborhood_restriction_shrinks_positive_count() {
        let vs = views(6);
        let all = {
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            generate_samples(
                &refs(&vs),
                &FeatureSet::nine(),
                SampleOptions::default(),
                None,
                &mut rng,
            )
        };
        let tight = {
            let mut rng = ChaCha8Rng::seed_from_u64(0);
            generate_samples(
                &refs(&vs),
                &FeatureSet::nine(),
                SampleOptions {
                    radius: Some(10_000),
                    limit_diff_vpin_y: false,
                },
                None,
                &mut rng,
            )
        };
        assert!(tight.num_positive() < all.num_positive());
    }

    #[test]
    fn y_limit_keeps_all_positives_at_split8() {
        let vs = views(8);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let ds = generate_samples(
            &refs(&vs),
            &FeatureSet::nine(),
            SampleOptions {
                radius: None,
                limit_diff_vpin_y: true,
            },
            None,
            &mut rng,
        );
        let total_vpins: usize = vs.iter().map(SplitView::num_vpins).sum();
        // At the top split layer every true pair has DiffVpinY = 0, so the
        // limit costs no positives.
        assert_eq!(ds.num_positive(), total_vpins);
    }

    #[test]
    fn vpin_filter_excludes_pairs_touching_validation_vpins() {
        let vs = views(6);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        // Mask out every odd v-pin; since partners are (2k, 2k+1), every
        // positive pair touches a masked v-pin and must be dropped.
        let masks: Vec<Vec<bool>> = vs
            .iter()
            .map(|v| (0..v.num_vpins()).map(|i| i % 2 == 0).collect())
            .collect();
        let ds = generate_samples(
            &refs(&vs),
            &FeatureSet::nine(),
            SampleOptions::default(),
            Some(&masks),
            &mut rng,
        );
        assert_eq!(ds.len(), 0);
    }

    #[test]
    fn eligibility_respects_all_three_constraints() {
        let vs = views(8);
        let v = &vs[0];
        let opts = SampleOptions {
            radius: Some(1),
            limit_diff_vpin_y: true,
        };
        // Distance 0 to itself is excluded by legality (i == j).
        assert!(!opts.eligible(v, 0, 0));
        // The true match is farther than radius 1 for essentially every pair.
        let m = v.true_match(0);
        assert!(!opts.eligible(v, 0, m) || v.distance(0, m) <= 1);
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let vs = views(6);
        let mk = |seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            generate_samples(
                &refs(&vs),
                &FeatureSet::seven(),
                SampleOptions {
                    radius: Some(50_000),
                    limit_diff_vpin_y: false,
                },
                None,
                &mut rng,
            )
        };
        assert_eq!(mk(5), mk(5));
    }
}
