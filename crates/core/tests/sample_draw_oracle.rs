//! Bit-identity of the training-sample draw against the sorted draw it
//! replaced. The oracle below rebuilds that draw from public APIs only: it
//! enumerates each negative's candidate pool, sorts it into ascending v-pin
//! order, drops illegal and excluded candidates one by one, and takes
//! `cands[k]` for `k = gen_range(0..len)` from the design's seeded stream.
//! `generate_view_samples` must give the identical `Dataset` for every
//! option set, including the same-track fallback and a v-pin filter.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sm_attack::features::FeatureSet;
use sm_attack::neighborhood::{neighborhood_radius, VpinIndex};
use sm_attack::samples::{generate_view_samples, view_sample_seed, SampleOptions};
use sm_layout::{SplitLayer, SplitView, Suite};
use sm_ml::Dataset;

fn views(layer: u8) -> Vec<SplitView> {
    Suite::ispd2011_like(0.02)
        .expect("valid scale")
        .split_all(SplitLayer::new(layer).expect("valid layer"))
}

fn imp_radius(vs: &[SplitView]) -> i64 {
    let refs: Vec<&SplitView> = vs.iter().collect();
    neighborhood_radius(&refs, 0.9).expect("suite has matches")
}

/// The sorted draw, and how many negatives took the same-track fallback.
fn sorted_draw_samples(
    view: &SplitView,
    features: &FeatureSet,
    opts: SampleOptions,
    filter: Option<&[bool]>,
    seed: u64,
) -> (Dataset, usize) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ds = Dataset::new(features.len());
    let mut buf = Vec::new();
    let mut fallbacks = 0;
    let n = view.num_vpins();
    if n < 2 {
        return (ds, fallbacks);
    }
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
                    fallbacks += 1;
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
    (ds, fallbacks)
}

/// Compares both draws on every view of `vs` for each base seed; returns
/// the number of same-track fallbacks the oracle took.
fn assert_draws_agree(
    vs: &[SplitView],
    opts: SampleOptions,
    masks: Option<&[Vec<bool>]>,
    bases: &[u64],
) -> usize {
    let features = FeatureSet::eleven();
    let mut fallbacks = 0;
    for &base in bases {
        for (vi, view) in vs.iter().enumerate() {
            let filter = masks.map(|m| m[vi].as_slice());
            let seed = view_sample_seed(base, &view.name);
            let got = generate_view_samples(view, &features, opts, filter, seed);
            let (want, fell_back) = sorted_draw_samples(view, &features, opts, filter, seed);
            assert!(!want.is_empty(), "{} {opts:?}: no samples", view.name);
            assert_eq!(got, want, "{} {opts:?} base {base}", view.name);
            fallbacks += fell_back;
        }
    }
    fallbacks
}

fn random_bases(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n).map(|_| rng.next_u64()).collect()
}

#[test]
fn radius_draw_matches_the_sorted_draw_at_every_layer() {
    for layer in [4u8, 6, 8] {
        let vs = views(layer);
        let opts = SampleOptions {
            radius: Some(imp_radius(&vs)),
            limit_diff_vpin_y: false,
        };
        assert_draws_agree(&vs, opts, None, &random_bases(u64::from(layer), 4));
    }
}

#[test]
fn every_option_set_matches_the_sorted_draw() {
    let bases = random_bases(7, 2);
    for layer in [6u8, 8] {
        let vs = views(layer);
        let radius = imp_radius(&vs);
        let only_radius = SampleOptions {
            radius: Some(radius),
            limit_diff_vpin_y: false,
        };
        let only_y = SampleOptions {
            radius: None,
            limit_diff_vpin_y: true,
        };
        let y_and_radius = SampleOptions {
            radius: Some(radius),
            limit_diff_vpin_y: true,
        };
        assert_draws_agree(&vs, SampleOptions::default(), None, &bases);
        assert_draws_agree(&vs, only_radius, None, &bases);
        assert_draws_agree(&vs, only_y, None, &bases);
        let fallbacks = assert_draws_agree(&vs, y_and_radius, None, &bases);
        assert!(fallbacks > 0, "layer {layer}: the fallback never ran");

        // An 80/20 mask, as the proximity attack's validation split uses.
        let mut rng = ChaCha8Rng::seed_from_u64(u64::from(layer));
        let masks: Vec<Vec<bool>> = vs
            .iter()
            .map(|v| (0..v.num_vpins()).map(|_| rng.gen_bool(0.8)).collect())
            .collect();
        assert_draws_agree(&vs, only_radius, Some(&masks), &bases);
        assert_draws_agree(&vs, y_and_radius, Some(&masks), &bases);
    }
}
