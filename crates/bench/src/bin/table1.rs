//! Table I: comparison with the prior work \[5\] at split layers 8, 6, 4.
//!
//! For each design the prior-work baseline reports a (|LoC|, accuracy)
//! operating point; each of our configurations is then read off its own
//! trade-off curve at (a) the same accuracy — reporting how much smaller
//! the LoC is — and (b) the same |LoC| — reporting how much higher the
//! accuracy is.

use sm_attack::attack::{AttackConfig, ScoreOptions};
use sm_attack::baseline::PriorWorkModel;
use sm_bench::{header, num, pct, row, run_config, Harness};
use sm_layout::SplitView;

/// Window margin at which the prior-work model is evaluated (calibrated so
/// its accuracy sits mid-range, like the published numbers).
const PRIOR_MARGIN: f64 = 1.5;

fn main() {
    let harness = Harness::from_env();
    let configs = AttackConfig::standard_four();

    for layer in [8u8, 6, 4] {
        let views = harness.views(layer);
        let refs: Vec<&SplitView> = views.iter().collect();
        // As in [5]: fit on all designs, no train/test separation.
        let prior = PriorWorkModel::fit(&refs);
        let prior_results: Vec<_> = views
            .iter()
            .map(|v| prior.evaluate(v, PRIOR_MARGIN))
            .collect();

        let runs: Vec<_> = configs
            .iter()
            .map(|c| run_config(c, &views, &ScoreOptions::default()))
            .collect();

        println!("\n=== Table I — split layer {layer} ===");
        let mut cells: Vec<&str> = vec!["#v-pin", "[5] |LoC|", "[5] Acc"];
        for c in &configs {
            cells.push(&c.name);
        }
        for c in &configs {
            cells.push(&c.name);
        }
        header("design", &cells);
        println!(
            "{:>60} {:^60} | {:^60}",
            "", "|LoC| @ [5] accuracy", "accuracy @ [5] |LoC|"
        );

        let mut avg_loc = vec![0.0; configs.len()];
        let mut avg_acc = vec![0.0; configs.len()];
        let mut avg_prior = (0.0f64, 0.0f64, 0.0f64);
        for (d, view) in views.iter().enumerate() {
            let pr = &prior_results[d];
            let mut cells = vec![
                format!("{}", view.num_vpins()),
                format!("{:.1}", pr.mean_loc),
                pct(Some(pr.accuracy)),
            ];
            for (ci, run) in runs.iter().enumerate() {
                let curve = run.folds[d].scored.curve();
                let loc = curve.min_loc_at_accuracy(pr.accuracy).map(|p| p.mean_loc);
                avg_loc[ci] += loc.unwrap_or(f64::NAN) / views.len() as f64;
                cells.push(num(loc));
            }
            for (ci, run) in runs.iter().enumerate() {
                let curve = run.folds[d].scored.curve();
                let acc = curve.max_accuracy_at_loc(pr.mean_loc).map(|p| p.accuracy);
                avg_acc[ci] += acc.unwrap_or(0.0) / views.len() as f64;
                cells.push(pct(acc));
            }
            avg_prior.0 += view.num_vpins() as f64 / views.len() as f64;
            avg_prior.1 += pr.mean_loc / views.len() as f64;
            avg_prior.2 += pr.accuracy / views.len() as f64;
            row(view.name.as_str(), &cells);
        }
        let mut cells = vec![
            format!("{:.0}", avg_prior.0),
            format!("{:.1}", avg_prior.1),
            pct(Some(avg_prior.2)),
        ];
        for v in &avg_loc {
            cells.push(if v.is_nan() {
                "—".into()
            } else {
                format!("{v:.1}")
            });
        }
        for v in &avg_acc {
            cells.push(pct(Some(*v)));
        }
        row("Avg", &cells);
        for (c, run) in configs.iter().zip(&runs) {
            println!("  runtime {}: {}", c.name, sm_bench::dur(run.runtime));
        }
    }
}
