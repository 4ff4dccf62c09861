//! The binned training kernel must be invisible in results: for every
//! benchmark and split layer, a model trained by `TrainedAttack::train`
//! (histogram split-finding with sibling subtraction) equals the model
//! `oracle::train` fits with the per-node scan bit for bit — same
//! ensemble, same radius, same scoring — including the REPTree
//! grow/prune/backfit pipeline the paper's classifier runs.

use splitmfg::attack::attack::{AttackConfig, ScoreOptions, TrainedAttack};
use splitmfg::attack::oracle;
use splitmfg::attack::xval::leave_one_out;
use splitmfg::layout::{SplitLayer, SplitView, Suite};

const SCALE: f64 = 0.02;

fn views(split: u8) -> Vec<SplitView> {
    Suite::ispd2011_like(SCALE)
        .expect("suite generation")
        .split_all(SplitLayer::new(split).expect("valid"))
}

/// Every view but the `t`-th.
fn training(vs: &[SplitView], t: usize) -> Vec<&SplitView> {
    vs.iter()
        .enumerate()
        .filter(|(i, _)| *i != t)
        .map(|(_, v)| v)
        .collect()
}

/// The oracle model for `train`: same sample extraction, scan-fit trees.
fn oracle_train(cfg: &AttackConfig, train: &[&SplitView]) -> TrainedAttack {
    let (samples, radius) = TrainedAttack::prepare_samples(cfg, train, None).expect("samples");
    oracle::train(cfg, samples, radius).expect("oracle train")
}

#[test]
fn binned_backend_reproduces_reference_on_every_benchmark_and_layer() {
    for split in [4u8, 6, 8] {
        let vs = views(split);
        for t in 0..vs.len() {
            let train = training(&vs, t);
            let cfg = AttackConfig::imp9();
            let reference = oracle_train(&cfg, &train);
            let binned = TrainedAttack::train(&cfg, &train, None).expect("binned train");
            assert_eq!(
                reference, binned,
                "layer {split}, target {}: trained models diverged",
                vs[t].name
            );
            let scored_ref = reference.score(&vs[t], &ScoreOptions::default());
            let scored_bin = binned.score(&vs[t], &ScoreOptions::default());
            assert_eq!(
                scored_ref.hist, scored_bin.hist,
                "layer {split}, target {}: LoC histogram diverged",
                vs[t].name
            );
            assert_eq!(
                scored_ref, scored_bin,
                "layer {split}, target {}: scored view diverged",
                vs[t].name
            );
            assert_eq!(
                scored_ref.curve().points(),
                scored_bin.curve().points(),
                "layer {split}, target {}: LoC curve diverged",
                vs[t].name
            );
        }
    }
}

#[test]
fn cross_validation_is_backend_invariant() {
    // The full leave-one-out driver — per-design sample cache, fold
    // assembly, training, scoring — must score each fold exactly like a
    // model the oracle trains from scratch on that fold's designs.
    let vs = views(8);
    let cfg = AttackConfig::imp11();
    let opts = ScoreOptions::default();
    let folds = leave_one_out(&cfg, &vs, &opts).expect("xval");
    assert_eq!(folds.len(), vs.len());
    for (t, fold) in folds.iter().enumerate() {
        assert_eq!(fold.test_name, vs[t].name);
        let reference = oracle_train(&cfg, &training(&vs, t)).score(&vs[t], &opts);
        assert_eq!(
            reference, fold.scored,
            "{}: fold scoring diverged",
            fold.test_name
        );
    }
}
