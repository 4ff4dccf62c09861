//! The shipped scoring path must be invisible in results. For every
//! benchmark, split layer and arm of the candidate enumeration,
//! `TrainedAttack::score` (spatial grid queries, SoA feature batches, the
//! compiled ensemble, the buffer-and-select keeper, sharded parallelism)
//! produces exactly the `ScoredView` of `oracle::score` (an all-pairs scan
//! scoring pair by pair and keeping every candidate): LoC histogram, slot
//! probabilities, top lists and derived curve, bit for bit. This is the
//! guarantee that makes paper-scale (`SM_SCALE >= 10`) attacks
//! trustworthy without ever running the quadratic oracle there.
//! `kernel_parity.rs` checks the per-pair kernel on its own.

use splitmfg::attack::attack::{AttackConfig, ScoreOptions, TrainedAttack};
use splitmfg::attack::{oracle, Parallelism};
use splitmfg::layout::{SplitLayer, SplitView, Suite};

const SCALE: f64 = 0.02;

fn views(split: u8) -> Vec<SplitView> {
    Suite::ispd2011_like(SCALE)
        .expect("suite generation")
        .split_all(SplitLayer::new(split).expect("valid"))
}

/// One configuration per arm of the enumeration: the neighborhood radius
/// query everywhere, the unrestricted `ML` scan at layer 6, and the
/// same-track query at the top split layer, where partners share a track.
fn configs(split: u8) -> Vec<AttackConfig> {
    match split {
        6 => vec![AttackConfig::imp9(), AttackConfig::ml9()],
        8 => vec![AttackConfig::imp9(), AttackConfig::imp9().with_y_limit()],
        _ => vec![AttackConfig::imp9()],
    }
}

/// The scoring options compared: the default, threaded scoring, a target
/// subset (the PA-validation and checkpoint-shard path), a keep-width of
/// zero, and keep-widths of at least the view.
fn option_sets(num_vpins: usize) -> Vec<(&'static str, ScoreOptions)> {
    let base = ScoreOptions {
        parallelism: Parallelism::Sequential,
        ..ScoreOptions::default()
    };
    let subset: Vec<u32> = (0..num_vpins as u32).step_by(3).collect();
    vec![
        ("default", base.clone()),
        (
            "threads",
            ScoreOptions {
                parallelism: Parallelism::Threads(3),
                ..base.clone()
            },
        ),
        (
            "targets",
            ScoreOptions {
                targets: Some(subset),
                ..base.clone()
            },
        ),
        (
            "width 0",
            ScoreOptions {
                top_fraction: 0.0,
                top_floor: 0,
                ..base.clone()
            },
        ),
        (
            "width beyond the view",
            ScoreOptions {
                top_fraction: 1e300,
                top_floor: 0,
                ..base.clone()
            },
        ),
        (
            "floor beyond the view",
            ScoreOptions {
                top_fraction: 0.0,
                top_floor: usize::MAX,
                ..base
            },
        ),
    ]
}

#[test]
fn spatial_enumeration_reproduces_the_oracle_on_every_benchmark_and_layer() {
    for split in [4u8, 6, 8] {
        let vs = views(split);
        for cfg in configs(split) {
            for t in 0..vs.len() {
                let train: Vec<&SplitView> = vs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != t)
                    .map(|(_, v)| v)
                    .collect();
                let model = TrainedAttack::train(&cfg, &train, None).expect("train");
                for (label, opts) in option_sets(vs[t].num_vpins()) {
                    let want = oracle::score(&model, &vs[t], &opts);
                    let got = model.score(&vs[t], &opts);
                    let case = format!(
                        "layer {split}, {}, target {}, {label}",
                        cfg.name, vs[t].name
                    );
                    assert_eq!(want.hist, got.hist, "{case}: LoC histogram diverged");
                    assert_eq!(want, got, "{case}: scored view diverged");
                    assert_eq!(
                        want.curve().points(),
                        got.curve().points(),
                        "{case}: LoC curve diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn enumeration_kernel_and_parallelism_axes_compose() {
    // The spatial enumeration, the compiled kernel, threads and a target
    // subset at once, with the eleven-feature set the loop above does not
    // use, at the lowest split layer (the radius query covers a small part
    // of the die), must equal the sequential all-pairs oracle.
    let vs = views(4);
    let train: Vec<&SplitView> = vs[1..].iter().collect();
    let model = TrainedAttack::train(&AttackConfig::imp11(), &train, None).expect("train");
    let targets: Vec<u32> = (0..vs[0].num_vpins() as u32).rev().step_by(2).collect();
    let baseline = oracle::score(
        &model,
        &vs[0],
        &ScoreOptions {
            parallelism: Parallelism::Sequential,
            targets: Some(targets.clone()),
            ..ScoreOptions::default()
        },
    );
    let streamed = model.score(
        &vs[0],
        &ScoreOptions {
            parallelism: Parallelism::Threads(3),
            targets: Some(targets),
            ..ScoreOptions::default()
        },
    );
    assert_eq!(baseline, streamed);
}
