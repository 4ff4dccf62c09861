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

use crate::features::{FeatureSet, PairKernel};
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
    let filter = |vi: usize| vpin_filter.map(|f| f[vi].as_slice());
    let rows = views
        .iter()
        .enumerate()
        .map(|(vi, view)| 2 * positive_pairs(view, opts, filter(vi)).count())
        .sum();
    let mut ds = Dataset::with_capacity(features.len(), rows);
    for (vi, view) in views.iter().enumerate() {
        let seed = view_sample_seed(base, &view.name);
        push_view_samples(&mut ds, view, features, opts, filter(vi), seed);
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
    let rows = 2 * positive_pairs(view, opts, filter).count();
    let mut ds = Dataset::with_capacity(features.len(), rows);
    push_view_samples(&mut ds, view, features, opts, filter, seed);
    ds
}

/// The v-pins of `view` that give a positive sample, each with its true
/// match, in index order.
fn positive_pairs<'a>(
    view: &'a SplitView,
    opts: SampleOptions,
    filter: Option<&'a [bool]>,
) -> impl Iterator<Item = (usize, usize)> + 'a {
    let included = move |j: usize| filter.is_none_or(|f| f[j]);
    (0..view.num_vpins()).filter_map(move |i| {
        let m = view.true_match(i);
        (included(i) && included(m) && opts.eligible(view, i, m)).then_some((i, m))
    })
}

/// Appends one design's samples to `ds`: for each positive pair, its row
/// and then the row of one negative drawn from the design's stream.
fn push_view_samples(
    ds: &mut Dataset,
    view: &SplitView,
    features: &FeatureSet,
    opts: SampleOptions,
    filter: Option<&[bool]>,
    seed: u64,
) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let kernel = PairKernel::new(view.vpins(), features);
    let nf = kernel.num_features();
    let mut rows = Vec::with_capacity(2 * nf);
    let mut draw = Draw::new(view, opts, filter);
    for (i, m) in positive_pairs(view, opts, filter) {
        // One matching negative, drawn from the same candidate pool the
        // testing stage will use. The draw takes the k-th smallest v-pin
        // index of the candidate *set*, so it is a pure function of the
        // seed and that set.
        match draw.negative(view, i, m, &mut rng) {
            Some(j) => kernel.fill_batch(i as u32, &[m as u32, j as u32], &mut rows),
            None => kernel.fill_batch(i as u32, &[m as u32], &mut rows),
        }
        ds.push(&rows[..nf], true).expect("kernel rows match");
        if rows.len() > nf {
            ds.push(&rows[nf..], false).expect("kernel rows match");
        }
    }
}

/// One design's negative draw: its options, v-pin filter and the
/// structures the restricted pools are read from.
struct Draw<'a> {
    opts: SampleOptions,
    filter: Option<&'a [bool]>,
    /// The same-track lists, for `DiffVpinY = 0` pools.
    tracks: Option<VpinIndex>,
    /// The radius pools, and the same-track fallback.
    table: Option<DrawTable>,
    cands: Vec<u32>,
}

impl<'a> Draw<'a> {
    fn new(view: &SplitView, opts: SampleOptions, filter: Option<&'a [bool]>) -> Self {
        let restricted = opts.radius.is_some() || opts.limit_diff_vpin_y;
        Self {
            opts,
            filter,
            tracks: opts.limit_diff_vpin_y.then(|| VpinIndex::new(view, 10_000)),
            table: restricted.then(|| DrawTable::new(view, filter)),
            cands: Vec::new(),
        }
    }

    /// A non-match partner for `i` (true match `m`), or `None` when its
    /// pool is empty.
    fn negative(
        &mut self,
        view: &SplitView,
        i: usize,
        m: usize,
        rng: &mut ChaCha8Rng,
    ) -> Option<usize> {
        let filter = self.filter;
        let negative = |j: usize| j != m && filter.is_none_or(|f| f[j]) && view.is_legal_pair(i, j);
        let Some(table) = &mut self.table else {
            // Unrestricted: rejection-sample a uniform non-match.
            let n = view.num_vpins();
            return (0..64).map(|_| rng.gen_range(0..n)).find(|&j| negative(j));
        };
        if let Some(tracks) = &self.tracks {
            // `same_y` lists its track in ascending index order, so the
            // pool's k-th smallest index is `cands[k]`.
            let radius = self.opts.radius;
            tracks.same_y(view.vpins()[i].loc.y, i as u32, &mut self.cands);
            self.cands.retain(|&j| {
                let j = j as usize;
                radius.is_none_or(|r| view.distance(i, j) <= r) && negative(j)
            });
            if !self.cands.is_empty() {
                return Some(self.cands[rng.gen_range(0..self.cands.len())] as usize);
            }
            // A v-pin alone on its track has no same-track negative; fall
            // back to its spatial neighborhood (the whole view without a
            // radius) so the classes stay balanced. At testing time these
            // pairs are never evaluated, so the model only becomes *more*
            // conservative.
        }
        table.draw(view, i, m, self.opts.radius, rng)
    }
}

/// Width of the chunks [`DrawTable`] counts members in.
const CHUNK: usize = 64;

/// One view's v-pins in rotated coordinates, for drawing from a target's
/// Manhattan ball without building it.
///
/// With `u = x + y` and `v = x − y`, the ball of radius `r` around a
/// v-pin is the square `|Δu| <= r, |Δv| <= r`, so membership is four
/// compares. [`sm_layout::split::MAX_COORD`] keeps every `u` and `v` in
/// `i32`. A draw counts the members of each [`CHUNK`] of v-pins in one
/// branch-free pass, takes `k` from the counts exactly as the pool's
/// length would give it, and scans one chunk for the `k`-th member in index
/// order: the `k`-th smallest index of the pool, with neither the pool nor
/// a sort.
struct DrawTable {
    u: Vec<i32>,
    v: Vec<i32>,
    /// 1 where a v-pin may partner a non-driver: it passes the filter.
    any: Vec<i32>,
    /// 1 where a v-pin may partner a driver: it passes the filter and
    /// does not drive (see [`SplitView::is_legal_pair`]).
    sink: Vec<i32>,
    /// Members per chunk in the current draw.
    counts: Vec<usize>,
}

impl DrawTable {
    fn new(view: &SplitView, filter: Option<&[bool]>) -> Self {
        let vpins = view.vpins();
        let rotated = |f: fn(i64, i64) -> i64| -> Vec<i32> {
            vpins
                .iter()
                .map(|p| i32::try_from(f(p.loc.x, p.loc.y)).expect("coordinates within MAX_COORD"))
                .collect()
        };
        let passes = |j: usize| filter.is_none_or(|f| f[j]);
        Self {
            u: rotated(|x, y| x + y),
            v: rotated(|x, y| x - y),
            any: (0..vpins.len()).map(|j| i32::from(passes(j))).collect(),
            sink: (0..vpins.len())
                .map(|j| i32::from(passes(j) && !vpins[j].drives()))
                .collect(),
            counts: Vec::with_capacity(vpins.len().div_ceil(CHUNK)),
        }
    }

    /// The `k`-th smallest index, `k = rng.gen_range(0..len)`, of the pool
    /// of `i`'s legal partners that pass the filter and lie within
    /// `radius` of it (anywhere in the view for `None`), less `i` and its
    /// true match `m`; `None`, drawing nothing, for an empty pool.
    fn draw(
        &mut self,
        view: &SplitView,
        i: usize,
        m: usize,
        radius: Option<i64>,
        rng: &mut ChaCha8Rng,
    ) -> Option<usize> {
        let (u, v) = (&self.u, &self.v);
        let eligible = if view.vpins()[i].drives() {
            &self.sink
        } else {
            &self.any
        };
        let window = |c: i32| match radius {
            None => (i32::MIN, i32::MAX),
            Some(r) => {
                let clamp = |x: i64| x.clamp(i32::MIN.into(), i32::MAX.into()) as i32;
                (
                    clamp(i64::from(c).saturating_sub(r)),
                    clamp(i64::from(c).saturating_add(r)),
                )
            }
        };
        let (ulo, uhi) = window(u[i]);
        let (vlo, vhi) = window(v[i]);
        let member = |u: i32, v: i32, e: i32| {
            i32::from((ulo <= u) & (u <= uhi) & (vlo <= v) & (v <= vhi)) & e
        };
        self.counts.clear();
        let mut total = 0;
        for ((cu, cv), ce) in u
            .chunks(CHUNK)
            .zip(v.chunks(CHUNK))
            .zip(eligible.chunks(CHUNK))
        {
            let c: i32 = cu
                .iter()
                .zip(cv)
                .zip(ce)
                .map(|((&u, &v), &e)| member(u, v, e))
                .sum();
            self.counts.push(c as usize);
            total += c as usize;
        }
        // 1 where v-pin `j` lies in `chunk` and is a member, else 0: what
        // `i` or `m` adds to that chunk's count but not to the pool.
        let excluded = |chunk: usize, j: usize| {
            usize::from(j / CHUNK == chunk) * member(u[j], v[j], eligible[j]) as usize
        };
        total -= excluded(i / CHUNK, i) + excluded(m / CHUNK, m);
        if total == 0 {
            return None;
        }
        let mut k = rng.gen_range(0..total);
        for (chunk, &count) in self.counts.iter().enumerate() {
            let count = count - excluded(chunk, i) - excluded(chunk, m);
            if k >= count {
                k -= count;
                continue;
            }
            let start = chunk * CHUNK;
            let end = (start + CHUNK).min(u.len());
            for j in start..end {
                if j != i && j != m && member(u[j], v[j], eligible[j]) != 0 {
                    if k == 0 {
                        return Some(j);
                    }
                    k -= 1;
                }
            }
        }
        unreachable!("k is below the pool's size")
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
