//! Table V: proximity-attack success rates per design, configuration and
//! split layer, with the PA-LoC fraction chosen by cross-validation, plus
//! the prior work's \[5\] nearest-in-window PA and the fixed-threshold PA of
//! the conference version \[18\].
//!
//! Expected shape: validated PA beats the fixed `t = 0.5` PA (especially
//! at layers 6 and 4), both beat \[5\] by an order of magnitude, layer 8 is
//! far easier than the lower layers, and the `Y` variants help at layer 8.

use std::time::Instant;

use sm_attack::attack::{AttackConfig, ScoreOptions, TrainedAttack};
use sm_attack::baseline::PriorWorkModel;
use sm_attack::proximity::{
    pa_at_threshold, proximity_attack, validate_pa_fraction, DEFAULT_PA_FRACTIONS,
};
use sm_bench::{dur, header, pct, row, Harness};
use sm_layout::SplitView;

fn main() {
    let harness = Harness::from_env();

    for layer in [8u8, 6, 4] {
        let configs = if layer == 8 {
            AttackConfig::standard_eight()
        } else {
            AttackConfig::standard_four()
        };
        let views = harness.views(layer);
        let refs: Vec<&SplitView> = views.iter().collect();
        let prior = PriorWorkModel::fit(&refs);

        println!("\n=== Table V — split layer {layer} ===");
        let mut head: Vec<String> = vec!["[5] %PA".into(), "[18] %PA".into()];
        head.extend(configs.iter().map(|c| c.name.clone()));
        let head_refs: Vec<&str> = head.iter().map(String::as_str).collect();
        header("design", &head_refs);

        // Per-design validated PA rates per config; [18] column uses the
        // first config (ML-9) at the fixed 0.5 threshold.
        let mut rates = vec![vec![0.0f64; views.len()]; configs.len()];
        let mut fixed18 = vec![0.0f64; views.len()];
        let mut prior5 = vec![0.0f64; views.len()];
        let mut val_time = vec![std::time::Duration::ZERO; configs.len()];

        for (ci, config) in configs.iter().enumerate() {
            for t in 0..views.len() {
                let train: Vec<&SplitView> = views
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != t)
                    .map(|(_, v)| v)
                    .collect();
                let tv = Instant::now();
                let val = validate_pa_fraction(config, &train, &DEFAULT_PA_FRACTIONS, 17)
                    .expect("validation");
                val_time[ci] += tv.elapsed();
                let model = TrainedAttack::train(config, &train, None).expect("train");
                let scored = model.score(&views[t], &ScoreOptions::default());
                rates[ci][t] = proximity_attack(&scored, &views[t], val.best_fraction, 23).rate();
                if ci == 0 {
                    fixed18[t] = pa_at_threshold(&scored, &views[t], 0.5, 29).rate();
                    prior5[t] = prior.evaluate(&views[t], 1.5).pa_rate;
                }
            }
        }

        for (t, view) in views.iter().enumerate() {
            let mut cells = vec![pct(Some(prior5[t])), pct(Some(fixed18[t]))];
            cells.extend((0..configs.len()).map(|ci| pct(Some(rates[ci][t]))));
            row(view.name.as_str(), &cells);
        }
        let n = views.len() as f64;
        let mut cells = vec![
            pct(Some(prior5.iter().sum::<f64>() / n)),
            pct(Some(fixed18.iter().sum::<f64>() / n)),
        ];
        cells.extend(rates.iter().map(|r| pct(Some(r.iter().sum::<f64>() / n))));
        row("Avg", &cells);
        let mut cells = vec!["".to_owned(), "".to_owned()];
        cells.extend(val_time.iter().map(|d| dur(*d)));
        row("Val. time", &cells);
    }
}
