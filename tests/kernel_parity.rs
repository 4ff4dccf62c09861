//! The compiled scoring kernel must be invisible in results: for every
//! benchmark and split layer, the SoA feature batch (`PairKernel`) and the
//! flattened ensemble (`CompiledEnsemble::proba_batch`) produce exactly
//! the rows of `FeatureSet::compute_into` and the probabilities of
//! `Bagging::proba` for every pair of the view, bit for bit; a full
//! threaded attack run equals the sequential `oracle::score`; and the
//! benchmark's deep and shallow models take the walks their depth selects.

use splitmfg::attack::attack::{AttackConfig, ScoreOptions, TrainedAttack};
use splitmfg::attack::{oracle, PairKernel, Parallelism};
use splitmfg::layout::{SplitLayer, SplitView, Suite};

const SCALE: f64 = 0.02;

fn views(split: u8) -> Vec<SplitView> {
    Suite::ispd2011_like(SCALE)
        .expect("suite generation")
        .split_all(SplitLayer::new(split).expect("valid"))
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn compiled_kernel_reproduces_reference_on_every_benchmark_and_layer() {
    for split in [4u8, 6, 8] {
        let vs = views(split);
        for t in 0..vs.len() {
            let train: Vec<&SplitView> = vs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != t)
                .map(|(_, v)| v)
                .collect();
            let cfg = AttackConfig::imp9();
            let model = TrainedAttack::train(&cfg, &train, None).expect("train");
            let compiled = model.model().compile();
            let view = &vs[t];
            let vpins = view.vpins();
            let kernel = PairKernel::new(vpins, &cfg.features);
            let nf = kernel.num_features();
            let cands: Vec<u32> = (0..view.num_vpins() as u32).collect();
            let (mut rows, mut row) = (Vec::new(), Vec::new());
            let mut probs = vec![0.0; cands.len()];
            for (i, target) in vpins.iter().enumerate() {
                kernel.fill_batch(i as u32, &cands, &mut rows);
                compiled.proba_batch(&rows, nf, &mut probs);
                for (j, cand) in vpins.iter().enumerate() {
                    let case = format!("layer {split}, target {}, pair ({i}, {j})", view.name);
                    cfg.features.compute_into(target, cand, &mut row);
                    assert_eq!(
                        bits(&row),
                        bits(&rows[j * nf..(j + 1) * nf]),
                        "{case}: feature row diverged"
                    );
                    assert_eq!(
                        model.model().proba(&row).to_bits(),
                        probs[j].to_bits(),
                        "{case}: probability diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn compiled_kernel_is_also_parallelism_invariant() {
    // The kernel and thread axes compose: compiled + threads must equal
    // the sequential oracle scan at the top split layer.
    let vs = views(8);
    let train: Vec<&SplitView> = vs[1..].iter().collect();
    let model = TrainedAttack::train(&AttackConfig::imp11(), &train, None).expect("train");
    let baseline = oracle::score(
        &model,
        &vs[0],
        &ScoreOptions {
            parallelism: Parallelism::Sequential,
            ..ScoreOptions::default()
        },
    );
    let threaded = model.score(
        &vs[0],
        &ScoreOptions {
            parallelism: Parallelism::Threads(3),
            ..ScoreOptions::default()
        },
    );
    assert_eq!(baseline, threaded);
}

/// The benchmark's deep and shallow models must land on either side of
/// the lockstep depth rule: `attack_walk` scores the layer-6 model (scale
/// 0.5) and gains from the lockstep walk; `attack_keep` (scale 2) and the
/// serve workloads (scale 1) score layer-8 models, where lanes are slower
/// than the scalar walk. Set up like the benchmark: Imp-11 trained on four
/// designs with `sb1` held out.
#[test]
fn benchmark_models_take_the_walk_their_depth_selects() {
    for (scale, split, lockstep) in [(0.5, 6u8, true), (2.0, 8, false), (1.0, 8, false)] {
        let vs = Suite::ispd2011_like(scale)
            .expect("suite generation")
            .split_all(SplitLayer::new(split).expect("valid"));
        let train: Vec<&SplitView> = vs[1..].iter().collect();
        let model = TrainedAttack::train(&AttackConfig::imp11(), &train, None).expect("train");
        let depths: Vec<usize> = model.model().trees().iter().map(|t| t.depth()).collect();
        assert_eq!(
            model.model().compile().walks_in_lockstep(),
            lockstep,
            "scale {scale}, layer {split}: tree depths {depths:?}"
        );
    }
}
