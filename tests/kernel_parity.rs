//! The compiled scoring kernel must be invisible in results: for every
//! benchmark and split layer, the SoA feature batch (`PairKernel`) and the
//! flattened ensemble (`CompiledEnsemble::proba_batch`) produce exactly
//! the rows of `FeatureSet::compute_into` and the probabilities of
//! `Bagging::proba` for every pair of the view, bit for bit; and a full
//! threaded attack run equals the sequential `oracle::score`.

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
