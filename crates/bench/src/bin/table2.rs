//! Table II: RandomTree (\[18\], as in Weka's RandomForest with 100 trees)
//! versus REPTree (this paper, Bagging with 10 trees) as the base
//! classifier, with the `Imp-7` configuration at split layers 8 and 6.
//!
//! Expected shape: near-identical |LoC| and accuracy, with the REPTree
//! ensemble roughly an order of magnitude faster.

use sm_attack::attack::{AttackConfig, BaseClassifier, ScoreOptions};
use sm_bench::{dur, header, pct, row, run_config, Harness};

fn main() {
    let harness = Harness::from_env();

    let mut random_tree = AttackConfig::imp7();
    random_tree.name = "Imp-7/RT[18]".into();
    random_tree.base = BaseClassifier::RandomTreeBagging { n_trees: 100 };
    let mut rep_tree = AttackConfig::imp7();
    rep_tree.name = "Imp-7/REP".into();
    rep_tree.base = BaseClassifier::RepTreeBagging { n_trees: 10 };

    for layer in [8u8, 6] {
        let views = harness.views(layer);
        let rt = run_config(&random_tree, &views, &ScoreOptions::default());
        let rep = run_config(&rep_tree, &views, &ScoreOptions::default());

        println!("\n=== Table II — split layer {layer} (Imp-7) ===");
        header("design", &["RT |LoC|", "RT Acc", "REP |LoC|", "REP Acc"]);
        let mut avg = [0.0f64; 4];
        for (d, view) in views.iter().enumerate() {
            let (a, b) = (&rt.folds[d].scored, &rep.folds[d].scored);
            let cells = vec![
                format!("{:.1}", a.mean_loc_at(0.5)),
                pct(Some(a.accuracy_at(0.5))),
                format!("{:.1}", b.mean_loc_at(0.5)),
                pct(Some(b.accuracy_at(0.5))),
            ];
            avg[0] += a.mean_loc_at(0.5) / views.len() as f64;
            avg[1] += a.accuracy_at(0.5) / views.len() as f64;
            avg[2] += b.mean_loc_at(0.5) / views.len() as f64;
            avg[3] += b.accuracy_at(0.5) / views.len() as f64;
            row(view.name.as_str(), &cells);
        }
        row(
            "Avg",
            &[
                format!("{:.1}", avg[0]),
                pct(Some(avg[1])),
                format!("{:.1}", avg[2]),
                pct(Some(avg[3])),
            ],
        );
        println!(
            "  runtime: RandomTree(100) {} vs REPTree(10) {}  (speedup {:.1}x)",
            dur(rt.runtime),
            dur(rep.runtime),
            rt.runtime.as_secs_f64() / rep.runtime.as_secs_f64().max(1e-9),
        );
    }
}
