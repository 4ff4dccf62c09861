//! Classifier bake-off: the survey behind \[18\]'s remark that the tree
//! ensemble had "the best performance among all classifiers we
//! experimented".
//!
//! Each classifier trains on the pooled pair samples of four designs and
//! is tested on the held-out design's samples (balanced classes, so 50% is
//! chance). Reported: held-out accuracy, mean probability assigned to true
//! matches, and train/inference runtime.

use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sm_attack::features::FeatureSet;
use sm_attack::neighborhood::neighborhood_radius;
use sm_attack::samples::{generate_samples, SampleOptions};
use sm_bench::{dur, header, pct, row, Harness};
use sm_layout::SplitView;
use sm_ml::{
    Bagging, Dataset, GaussianNaiveBayes, KNearest, LogisticParams, LogisticRegression,
    RandomTreeLearner, RepTreeLearner,
};

/// A trained model type-erased to its probability function.
type ProbaFn = Box<dyn Fn(&[f64]) -> f64>;

/// A classifier under comparison.
struct Contender {
    name: &'static str,
    train: Box<dyn Fn(&Dataset) -> ProbaFn>,
}

fn contenders() -> Vec<Contender> {
    vec![
        Contender {
            name: "Bagging+REP10",
            train: Box::new(|ds| {
                let m = Bagging::fit(ds, &RepTreeLearner::default(), 10, 1).expect("fit");
                Box::new(move |x| m.proba(x))
            }),
        },
        Contender {
            name: "RandForest100",
            train: Box::new(|ds| {
                let m = Bagging::fit(ds, &RandomTreeLearner::default(), 100, 1).expect("fit");
                Box::new(move |x| m.proba(x))
            }),
        },
        Contender {
            name: "Logistic",
            train: Box::new(|ds| {
                let m = LogisticRegression::fit(ds, &LogisticParams::default(), 1).expect("fit");
                Box::new(move |x| m.proba(x))
            }),
        },
        Contender {
            name: "NaiveBayes",
            train: Box::new(|ds| {
                let m = GaussianNaiveBayes::fit(ds).expect("fit");
                Box::new(move |x| m.proba(x))
            }),
        },
        Contender {
            name: "kNN (k=9)",
            train: Box::new(|ds| {
                let m = KNearest::fit(ds, 9).expect("fit");
                Box::new(move |x| m.proba(x))
            }),
        },
    ]
}

fn main() {
    let harness = Harness::from_env();
    let layer = 6u8;
    let views = harness.views(layer);
    let features = FeatureSet::eleven();

    // Leave-one-out at the *sample* level: pooled training samples from
    // four designs, held-out samples from the fifth.
    let t = 0usize; // hold out sb1; sample-level results are stable across folds
    let train_views: Vec<&SplitView> = views
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != t)
        .map(|(_, v)| v)
        .collect();
    let radius = neighborhood_radius(&train_views, 0.9);
    let opts = SampleOptions {
        radius,
        limit_diff_vpin_y: false,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let train_ds = generate_samples(&train_views, &features, opts, None, &mut rng);
    let test_ds = generate_samples(&[&views[t]], &features, opts, None, &mut rng);
    println!(
        "\n=== Classifier comparison (layer {layer}; {} train / {} test samples) ===",
        train_ds.len(),
        test_ds.len()
    );
    header(
        "classifier",
        &["held-out acc", "mean p(match)", "train", "infer"],
    );

    for c in contenders() {
        let t0 = Instant::now();
        let proba = (c.train)(&train_ds);
        let train_time = t0.elapsed();
        let t1 = Instant::now();
        let mut correct = 0usize;
        let mut p_match_sum = 0.0;
        let mut n_match = 0usize;
        for i in 0..test_ds.len() {
            let p = proba(test_ds.row(i));
            if (p >= 0.5) == test_ds.label(i) {
                correct += 1;
            }
            if test_ds.label(i) {
                p_match_sum += p;
                n_match += 1;
            }
        }
        let infer_time = t1.elapsed();
        row(
            c.name,
            &[
                pct(Some(correct as f64 / test_ds.len() as f64)),
                format!("{:.3}", p_match_sum / n_match.max(1) as f64),
                dur(train_time),
                dur(infer_time),
            ],
        );
    }
}
