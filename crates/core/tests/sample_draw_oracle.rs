//! Bit-identity of the training-sample draw against the sorted draw it
//! replaced, `sm_attack::oracle::generate_view_samples`: that oracle
//! enumerates each negative's candidate pool, sorts it into ascending
//! v-pin order, drops illegal and excluded candidates one by one, and
//! takes `cands[k]` for `k = gen_range(0..len)` from the design's seeded
//! stream. `generate_view_samples` must give the identical `Dataset` for
//! every option set, including the same-track fallback and a v-pin filter,
//! on the suite's designs and on random views.

use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sm_attack::features::FeatureSet;
use sm_attack::neighborhood::neighborhood_radius;
use sm_attack::oracle;
use sm_attack::samples::{generate_view_samples, view_sample_seed, SampleOptions};
use sm_layout::geom::{Point, Rect};
use sm_layout::split::MAX_COORD;
use sm_layout::{SplitLayer, SplitView, Suite, VPin};

fn views(layer: u8) -> Vec<SplitView> {
    Suite::ispd2011_like(0.02)
        .expect("valid scale")
        .split_all(SplitLayer::new(layer).expect("valid layer"))
}

fn imp_radius(vs: &[SplitView]) -> i64 {
    let refs: Vec<&SplitView> = vs.iter().collect();
    neighborhood_radius(&refs, 0.9).expect("suite has matches")
}

/// How many of `view`'s negatives take the same-track fallback: the
/// positives with no eligible, unfiltered non-match on their track.
fn same_track_fallbacks(view: &SplitView, opts: SampleOptions, filter: Option<&[bool]>) -> usize {
    if !opts.limit_diff_vpin_y {
        return 0;
    }
    let n = view.num_vpins();
    let included = |j: usize| filter.is_none_or(|f| f[j]);
    (0..n)
        .filter(|&i| {
            let m = view.true_match(i);
            included(i)
                && included(m)
                && opts.eligible(view, i, m)
                && !(0..n).any(|j| j != m && included(j) && opts.eligible(view, i, j))
        })
        .count()
}

/// Compares both draws on every view of `vs` for each base seed; returns
/// the number of same-track fallbacks the draws took.
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
            let want = oracle::generate_view_samples(view, &features, opts, filter, seed);
            assert!(!want.is_empty(), "{} {opts:?}: no samples", view.name);
            assert_eq!(got, want, "{} {opts:?} base {base}", view.name);
            fallbacks += same_track_fallbacks(view, opts, filter);
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

/// The coordinate shapes of [`random_view`]: each shape's die, and a
/// coordinate drawn for it.
#[derive(Clone, Copy)]
enum Shape {
    /// A coarse lattice: many v-pins share a location or a track.
    Lattice,
    /// Negative and out-of-die coordinates around a small die.
    OffDie,
    /// The bound's extremes and their neighbours.
    Extremes,
    /// Anywhere within the bound.
    Anywhere,
}

impl Shape {
    fn die(self) -> Rect {
        match self {
            Shape::Lattice => Rect::with_size(8_000, 8_000),
            Shape::OffDie => Rect::with_size(10_000, 10_000),
            Shape::Extremes => Rect::new(
                Point::new(-MAX_COORD, -MAX_COORD),
                Point::new(MAX_COORD, MAX_COORD),
            ),
            Shape::Anywhere => Rect::with_size(MAX_COORD, MAX_COORD),
        }
    }

    fn coord(self, rng: &mut ChaCha8Rng) -> i64 {
        match self {
            Shape::Lattice => rng.gen_range(0..8i64) * 1_000,
            Shape::OffDie => rng.gen_range(-30_000..40_000i64),
            Shape::Extremes => {
                let c = [-MAX_COORD, MAX_COORD, 0][rng.gen_range(0..3usize)];
                c - c.signum() * rng.gen_range(0..3i64)
            }
            Shape::Anywhere => rng.gen_range(-MAX_COORD..=MAX_COORD),
        }
    }
}

/// A random view for the draw property: up to 100 random pairs (four
/// draw chunks) over coordinates of one [`Shape`], each pair with at most
/// one driver.
fn random_view(rng: &mut ChaCha8Rng) -> SplitView {
    let pairs = rng.gen_range(1..=100usize);
    let n = 2 * pairs;
    let shape = [
        Shape::Lattice,
        Shape::OffDie,
        Shape::Extremes,
        Shape::Anywhere,
    ][rng.gen_range(0..4usize)];
    let coord = |rng: &mut ChaCha8Rng| shape.coord(rng);
    let die = shape.die();
    // Y from a few tracks, so same-track pools are seldom all empty.
    let tracks: Vec<i64> = (0..rng.gen_range(1..=4usize)).map(|_| coord(rng)).collect();
    // Share of pairs with a driver: none, some, or every pair (the most a
    // legal matching allows, since no pair may join two drivers).
    let driver_share = [0.0, 0.5, 1.0][rng.gen_range(0..3usize)];
    let mut order: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        order.swap(k, rng.gen_range(0..=k));
    }
    let mut vpins = vec![None; n];
    let mut partner = vec![0u32; n];
    for pair in order.chunks_exact(2) {
        let (a, b) = (pair[0], pair[1]);
        partner[a] = b as u32;
        partner[b] = a as u32;
        let driver = rng
            .gen_bool(driver_share)
            .then(|| pair[rng.gen_range(0..2usize)]);
        for j in [a, b] {
            let drives = driver == Some(j);
            let loc = Point::new(coord(rng), tracks[rng.gen_range(0..tracks.len())]);
            vpins[j] = Some(VPin {
                loc,
                pin_loc: Point::new(coord(rng), coord(rng)),
                wirelength: rng.gen_range(0..5_000),
                in_area: if drives { 0 } else { rng.gen_range(1..4_000) },
                out_area: if drives { rng.gen_range(1..4_000) } else { 0 },
                pc: rng.gen_range(0.0..3.0),
                rc: rng.gen_range(0.0..3.0),
            });
        }
    }
    let vpins = vpins
        .into_iter()
        .map(|v| v.expect("every v-pin set"))
        .collect();
    SplitView::from_parts(
        "random".into(),
        SplitLayer::new(6).expect("valid layer"),
        die,
        vpins,
        partner,
    )
    .expect("a legal matching within the bound")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    fn draw_equals_the_sorted_pool_on_random_views(seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let view = random_view(&mut rng);
        let span = 4 * MAX_COORD;
        let radius = match rng.gen_range(0..5u8) {
            0 => None,
            1 => Some(0),
            2 => Some(rng.gen_range(0..20_000)),
            3 => Some(rng.gen_range(0..=span)),
            _ => Some(span + rng.gen_range(0..1_000i64)),
        };
        let opts = SampleOptions {
            radius,
            limit_diff_vpin_y: rng.gen_bool(0.5),
        };
        let mask: Option<Vec<bool>> = rng
            .gen_bool(0.5)
            .then(|| (0..view.num_vpins()).map(|_| rng.gen_bool(0.8)).collect());
        let features = FeatureSet::eleven();
        let stream = rng.next_u64();
        let got = generate_view_samples(&view, &features, opts, mask.as_deref(), stream);
        let want = oracle::generate_view_samples(&view, &features, opts, mask.as_deref(), stream);
        prop_assert_eq!(got, want, "{:?}", opts);
    }
}
