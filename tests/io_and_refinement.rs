//! Integration tests of the interchange format and the global-matching
//! extension, spanning all three library crates.

use splitmfg::attack::attack::{AttackConfig, ScoreOptions, TrainedAttack};
use splitmfg::attack::matching::{greedy_matching, mutual_best};
use splitmfg::layout::io::{read_challenge, write_challenge, write_truth};
use splitmfg::layout::{SplitLayer, SplitView, Suite};

const SCALE: f64 = 0.05;

fn views(split: u8) -> Vec<SplitView> {
    Suite::ispd2011_like(SCALE)
        .expect("suite generation")
        .split_all(SplitLayer::new(split).expect("valid"))
}

#[test]
fn attack_results_survive_an_io_roundtrip() {
    // Serialising a challenge to text and parsing it back must not change
    // what the attack computes (determinism across the IO boundary).
    let vs = views(8);
    let roundtripped: Vec<SplitView> = vs
        .iter()
        .map(|v| read_challenge(&write_challenge(v), &write_truth(v)).expect("roundtrip parses"))
        .collect();
    let cfg = AttackConfig::imp9();
    let train_a: Vec<&SplitView> = vs[1..].iter().collect();
    let train_b: Vec<&SplitView> = roundtripped[1..].iter().collect();
    let model_a = TrainedAttack::train(&cfg, &train_a, None).expect("train");
    let model_b = TrainedAttack::train(&cfg, &train_b, None).expect("train");
    let opts = ScoreOptions {
        parallelism: splitmfg::attack::Parallelism::Sequential,
        ..ScoreOptions::default()
    };
    let scored_a = model_a.score(&vs[0], &opts);
    let scored_b = model_b.score(&roundtripped[0], &opts);
    assert_eq!(scored_a.pairs_scored, scored_b.pairs_scored);
    for (a, b) in scored_a.slots.iter().zip(&scored_b.slots) {
        assert_eq!(a.true_prob, b.true_prob);
    }
}

#[test]
fn global_matching_is_consistent_with_scoring() {
    let vs = views(8);
    let train: Vec<&SplitView> = vs[1..].iter().collect();
    let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
    let scored = model.score(&vs[0], &ScoreOptions::default());
    let greedy = greedy_matching(&scored, &vs[0], 0.5);
    let mutual = mutual_best(&scored, &vs[0], 0.5);
    assert!(greedy.committed * 2 <= vs[0].num_vpins());
    assert!(mutual.committed <= greedy.committed);
    assert!(greedy.recall() <= 1.0 && mutual.recall() <= greedy.recall() + 1e-12);
}

#[test]
fn challenge_files_hide_the_matching() {
    // The challenge text alone must not leak truth: parsing it with a
    // wrong (shuffled) truth file yields a different matching, proving the
    // matching lives only in the truth file.
    let v = &views(8)[0];
    let challenge = write_challenge(v);
    assert!(
        !challenge.contains("truth"),
        "challenge must not embed truth data"
    );
    // Build an alternative valid involution: rotate pairs.
    let n = v.num_vpins();
    if n >= 4 {
        let mut alt = String::from("# splitmfg truth v1\nname x\n");
        let drivers: Vec<usize> = (0..n).filter(|&i| v.vpins()[i].drives()).collect();
        let loads: Vec<usize> = (0..n).filter(|&i| !v.vpins()[i].drives()).collect();
        if drivers.len() == loads.len() && !drivers.is_empty() {
            for (d, l) in drivers.iter().zip(loads.iter().rev()) {
                alt.push_str(&format!("{d} {l}\n"));
            }
            let parsed = read_challenge(&challenge, &alt).expect("alt truth parses");
            let differs = (0..n).any(|i| parsed.true_match(i) != v.true_match(i));
            assert!(
                differs,
                "alternative truth must produce a different matching"
            );
        }
    }
}
