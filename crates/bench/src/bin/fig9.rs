//! Fig. 9: trade-off between LoC fraction and accuracy (averaged over the
//! five benchmarks), one curve per configuration per split layer, with the
//! prior work \[5\] swept across window margins for comparison.
//!
//! Expected shape: ML curves sit far above the prior work everywhere;
//! layer-8 curves hug 100 % accuracy at tiny fractions; `Imp` curves
//! saturate on the right (their neighborhood excludes some matches); at
//! layer 8 the `Y` variants shift the curves up.

use sm_attack::attack::{AttackConfig, ScoreOptions};
use sm_attack::baseline::PriorWorkModel;
use sm_bench::{run_config, Harness};
use sm_layout::SplitView;

/// LoC fractions at which the curves are sampled (log-spaced).
const SAMPLES: [f64; 12] = [
    0.00003, 0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.2, 0.3, 0.5, 1.0,
];

const PRIOR_MARGINS: [f64; 7] = [0.25, 0.5, 1.0, 1.5, 2.0, 4.0, 8.0];

fn main() {
    let harness = Harness::from_env();

    for layer in [8u8, 6, 4] {
        let configs = if layer == 8 {
            AttackConfig::standard_eight()
        } else {
            AttackConfig::standard_four()
        };
        let views = harness.views(layer);
        println!("\n=== Fig. 9 — LoC fraction vs accuracy, split layer {layer} ===");
        print!("{:<14}", "config");
        for s in SAMPLES {
            print!(" {:>9}", format!("{s:.5}"));
        }
        println!();
        for config in &configs {
            let run = run_config(config, &views, &ScoreOptions::default());
            print!("{:<14}", config.name);
            for s in SAMPLES {
                match run.curve.accuracy_at_loc_fraction(s) {
                    Some(a) => print!(" {:>9.4}", a),
                    None => print!(" {:>9}", "—"),
                }
            }
            println!();
        }
        // Prior work: margin sweep, averaged over benchmarks.
        let refs: Vec<&SplitView> = views.iter().collect();
        let prior = PriorWorkModel::fit(&refs);
        print!("{:<14}", "[5] margins");
        for &m in &PRIOR_MARGINS {
            let mut frac = 0.0;
            let mut acc = 0.0;
            for v in &views {
                let r = prior.evaluate(v, m);
                frac += r.loc_fraction / views.len() as f64;
                acc += r.accuracy / views.len() as f64;
            }
            print!(" {:>14}", format!("({frac:.4},{acc:.3})"));
        }
        println!("   [as (loc-fraction, accuracy) pairs]");
    }
}
