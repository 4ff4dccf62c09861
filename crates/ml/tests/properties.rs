//! Property-based tests of the ML substrate: probability bounds, metric
//! ranges, soft-voting arithmetic, and dataset round-trips.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sm_ml::compiled::{LANES, LOCKSTEP_DEPTH};
use sm_ml::learners::{RandomTreeLearner, RepTreeLearner, TreeLearner};
use sm_ml::metrics::{correlation, fisher_ratio, information_gain};
use sm_ml::oracle;
use sm_ml::tree::{Tree, TreeParams};
use sm_ml::{Bagging, Dataset, Parallelism};

/// A random small binary dataset with at least one sample per class.
fn arb_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(
        (prop::collection::vec(-1000.0f64..1000.0, 3), any::<bool>()),
        8..64,
    )
    .prop_map(|rows| {
        let mut ds = Dataset::new(3);
        for (i, (x, y)) in rows.iter().enumerate() {
            // Force both classes to exist.
            let label = if i == 0 {
                true
            } else if i == 1 {
                false
            } else {
                *y
            };
            ds.push(x, label).expect("3 features");
        }
        ds
    })
}

proptest! {
    #[test]
    fn dataset_roundtrips_rows(rows in prop::collection::vec(
        (prop::collection::vec(-1e6f64..1e6, 4), any::<bool>()), 1..50)) {
        let mut ds = Dataset::new(4);
        for (x, y) in &rows {
            ds.push(x, *y).expect("4 features");
        }
        prop_assert_eq!(ds.len(), rows.len());
        for (i, (x, y)) in rows.iter().enumerate() {
            prop_assert_eq!(ds.row(i), x.as_slice());
            prop_assert_eq!(ds.label(i), *y);
        }
        let pos = rows.iter().filter(|(_, y)| *y).count();
        prop_assert_eq!(ds.num_positive(), pos);
    }

    #[test]
    fn tree_probabilities_are_probabilities(ds in arb_dataset(), q in prop::collection::vec(-1000.0f64..1000.0, 3)) {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let tree = Tree::fit(&ds, &ds.all_indices(), TreeParams::default(), &mut rng)
            .expect("fit");
        let p = tree.proba(&q);
        prop_assert!((0.0..=1.0).contains(&p));
        prop_assert_eq!(tree.predict(&q), p >= 0.5);
    }

    #[test]
    fn rep_tree_never_grows_beyond_unpruned(ds in arb_dataset()) {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let unpruned = Tree::fit(&ds, &ds.all_indices(), TreeParams::default(), &mut rng)
            .expect("fit");
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let rep = RepTreeLearner::default()
            .fit_tree(&ds, &ds.all_indices(), &mut rng)
            .expect("fit");
        // Pruned trees are grown on 2/3 of the data and then collapsed;
        // they cannot exceed the unpruned tree by more than the growth
        // difference allows — sanity-bound the size.
        prop_assert!(rep.num_nodes() <= 2 * unpruned.num_nodes() + 1);
        prop_assert!(rep.num_leaves() >= 1);
        prop_assert!(rep.depth() < 64);
    }

    #[test]
    fn bagging_soft_vote_is_the_tree_mean(ds in arb_dataset(), q in prop::collection::vec(-1000.0f64..1000.0, 3)) {
        if let Ok(m) = Bagging::fit(&ds, &RepTreeLearner::default(), 5, 3) {
            let mean: f64 =
                m.trees().iter().map(|t| t.proba(&q)).sum::<f64>() / m.num_trees() as f64;
            prop_assert!((m.proba(&q) - mean).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&m.proba(&q)));
        }
    }

    #[test]
    fn information_gain_bounded_by_label_entropy(
        values in prop::collection::vec(-100.0f64..100.0, 2..100),
        seed in any::<u64>()
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let labels: Vec<bool> = (0..values.len()).map(|_| rng.gen_bool(0.5)).collect();
        let pos = labels.iter().filter(|&&l| l).count() as f64;
        let n = labels.len() as f64;
        let h = if pos == 0.0 || pos == n {
            0.0
        } else {
            let p = pos / n;
            -(p * p.ln() + (1.0 - p) * (1.0 - p).ln())
        };
        let g = information_gain(&values, &labels);
        prop_assert!(g >= 0.0);
        prop_assert!(g <= h + 1e-9, "gain {g} exceeds entropy {h}");
    }

    #[test]
    fn correlation_is_in_unit_interval(
        values in prop::collection::vec(-1e6f64..1e6, 2..100),
        seed in any::<u64>()
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let labels: Vec<bool> = (0..values.len()).map(|_| rng.gen_bool(0.4)).collect();
        let c = correlation(&values, &labels);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
    }

    #[test]
    fn fisher_ratio_is_non_negative(
        values in prop::collection::vec(-1e6f64..1e6, 2..100),
        seed in any::<u64>()
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        use rand::Rng;
        let labels: Vec<bool> = (0..values.len()).map(|_| rng.gen_bool(0.6)).collect();
        let f = fisher_ratio(&values, &labels);
        prop_assert!(f >= 0.0);
    }

    #[test]
    fn bootstrap_indices_stay_in_range(n in 1usize..500, seed in any::<u64>()) {
        let mut ds = Dataset::new(1);
        for i in 0..n {
            ds.push(&[i as f64], i % 2 == 0).expect("1 feature");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let idx = ds.bootstrap_indices(&mut rng);
        prop_assert_eq!(idx.len(), n);
        prop_assert!(idx.iter().all(|&i| (i as usize) < n));
    }

    #[test]
    fn compiled_ensemble_matches_bagging_bitwise(
        ds in arb_dataset(),
        queries in prop::collection::vec(prop::collection::vec(-1000.0f64..1000.0, 3), 1..20),
        n_trees in 1usize..8,
        seed in any::<u64>()
    ) {
        // The tentpole parity property: lowering a trained ensemble into
        // the flattened node table must not change a single probability
        // bit, scalar or batched (same operand order end to end).
        if let Ok(m) = Bagging::fit(&ds, &RepTreeLearner::default(), n_trees, seed) {
            let compiled = m.compile();
            for q in &queries {
                prop_assert_eq!(m.proba(q).to_bits(), compiled.proba(q).to_bits());
            }
            let stride = 3;
            let rows: Vec<f64> = queries.iter().flatten().copied().collect();
            let mut batch = vec![0.0; queries.len()];
            compiled.proba_batch(&rows, stride, &mut batch);
            for (q, b) in queries.iter().zip(&batch) {
                prop_assert_eq!(m.proba(q).to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn both_compiled_walks_match_bagging_bitwise(
        deep in any::<bool>(),
        n_trees in 1usize..9,
        len in 0usize..(3 * LANES + 2),
        pad in 0usize..3,
        specials in prop::collection::vec((0usize..64, 0usize..3, 0usize..8), 0..16),
        seed in any::<u64>()
    ) {
        // Kernel parity over both walks. Deep: unpruned RandomTrees on
        // label noise grow far past the lockstep depth, so the batch takes
        // the lockstep walk; stopping splits below five samples leaves
        // mixed leaves (1/3, 3/4, ...), whose sums depend on the order of
        // addition. Shallow: pruned REPTrees on a clean signal stay on the
        // scalar walk. Batches run from empty through three full
        // lane groups plus a tail, over padded strides, with NaN, ±inf, ±0
        // and subnormal values planted in the rows.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ds = Dataset::new(3);
        for i in 0..(if deep { 1_000 } else { 300 }) {
            let x: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..1.0)).collect();
            let label = if deep { rng.gen_bool(0.5) } else { x[0] > 0.5 };
            ds.push(&x, label || i == 0).expect("3 features");
        }
        let model = if deep {
            let learner = RandomTreeLearner {
                params: TreeParams {
                    min_samples_split: 5,
                    ..RandomTreeLearner::default().params
                },
                ..RandomTreeLearner::default()
            };
            Bagging::fit(&ds, &learner, n_trees, seed)
        } else {
            Bagging::fit(&ds, &RepTreeLearner::default(), n_trees, seed)
        }
        .expect("both classes present");
        let compiled = model.compile();
        let deepest = model.trees().iter().map(Tree::depth).max().expect("trees");
        prop_assert_eq!(compiled.walks_in_lockstep(), deepest >= LOCKSTEP_DEPTH);
        prop_assert_eq!(compiled.walks_in_lockstep(), deep);

        let stride = 3 + pad;
        let mut rows: Vec<f64> = (0..len * stride).map(|_| rng.gen_range(-0.1..1.1)).collect();
        const SPECIAL: [f64; 8] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 4.0,
            0.5,
        ];
        for &(r, c, k) in &specials {
            if len > 0 {
                rows[(r % len) * stride + c] = SPECIAL[k];
            }
        }
        let mut out = vec![f64::NAN; len];
        compiled.proba_batch(&rows, stride, &mut out);
        for (r, p) in out.iter().enumerate() {
            let x = &rows[r * stride..(r + 1) * stride];
            prop_assert_eq!(p.to_bits(), model.proba(x).to_bits());
            prop_assert_eq!(p.to_bits(), compiled.proba(x).to_bits());
        }
    }

    #[test]
    fn binned_tree_matches_reference_bitwise(
        ds in arb_dataset(),
        depth in 1usize..16,
        bins in 2usize..40,
        subset in prop::option::of(1usize..4),
        seed in any::<u64>()
    ) {
        // The training-kernel parity property: the binned histogram build
        // must grow the exact tree the oracle's scan grows — same node
        // layout, same thresholds bit-for-bit, same counts — across random
        // datasets, depth caps, bin counts, feature subsets and RNG seeds.
        let params = TreeParams {
            max_depth: depth,
            bins,
            feature_subset: subset,
            ..TreeParams::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let oracle = oracle::fit_tree(&ds, &ds.all_indices(), params, &mut rng)
            .expect("oracle fit");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let binned = Tree::fit(&ds, &ds.all_indices(), params, &mut rng).expect("binned fit");
        prop_assert_eq!(&oracle, &binned);
        // Bitwise equality including every f64 threshold: the vendored
        // serde_json prints shortest-roundtrip floats, so equal strings
        // mean equal bits.
        prop_assert_eq!(
            serde_json::to_string(&oracle).expect("serialize"),
            serde_json::to_string(&binned).expect("serialize")
        );
    }

    #[test]
    fn binned_learners_match_reference_through_pruning_and_bagging(
        ds in arb_dataset(),
        n_trees in 1usize..6,
        seed in any::<u64>()
    ) {
        // End-to-end learner parity: REPTree (grow + reduced-error prune +
        // backfit) and RandomTree (random subsets), alone and under
        // Bagging's per-tree bootstrap/seeding, must match the oracle
        // learners.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rep_oracle = oracle::RepTreeLearner::default()
            .fit_tree(&ds, &ds.all_indices(), &mut rng).expect("fit");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rep = RepTreeLearner::default()
            .fit_tree(&ds, &ds.all_indices(), &mut rng).expect("fit");
        prop_assert_eq!(rep_oracle, rep);

        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rt_oracle = oracle::RandomTreeLearner::default()
            .fit_tree(&ds, &ds.all_indices(), &mut rng).expect("fit");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rt = RandomTreeLearner::default()
            .fit_tree(&ds, &ds.all_indices(), &mut rng).expect("fit");
        prop_assert_eq!(rt_oracle, rt);

        let bag_oracle = Bagging::fit_with(
            &ds,
            &oracle::RepTreeLearner::default(),
            n_trees,
            seed,
            Parallelism::Sequential,
        );
        let bag = Bagging::fit_with(
            &ds,
            &RepTreeLearner::default(),
            n_trees,
            seed,
            Parallelism::Threads(3),
        );
        match (bag_oracle, bag) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert_eq!(a.is_err(), b.is_err()),
        }
    }

    #[test]
    fn split_indices_partition(n in 2usize..300, frac in 0.05f64..0.95, seed in any::<u64>()) {
        let mut ds = Dataset::new(1);
        for i in 0..n {
            ds.push(&[i as f64], i % 2 == 0).expect("1 feature");
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (a, b) = ds.split_indices(frac, &mut rng);
        prop_assert!(!a.is_empty() && !b.is_empty());
        let mut all: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n as u32).collect::<Vec<_>>());
    }
}
