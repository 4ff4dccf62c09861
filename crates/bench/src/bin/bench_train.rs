//! Training-kernel benchmark: the shipped binned tree fit (histogram
//! split-finding with sibling subtraction, `TrainedAttack::from_samples`)
//! versus the oracle's per-node scan (`oracle::train`), fitting the same
//! ensemble on the same sample set.
//!
//! Training is forced to `Parallelism::Sequential` so the reported ratio
//! is a pure single-thread kernel comparison (the CI host has one CPU;
//! thread-level parallelism would only add noise). Sample extraction is
//! shared, so it is timed once and reported separately: the gate compares
//! fit time only, where the two fits actually differ.
//!
//! Emits a machine-readable report (`BENCH_train.json` shape) and exits
//! nonzero if the binned fit is not faster than the oracle — the CI guard
//! against training-performance regressions. The two fitted
//! models are also asserted equal, so the guard doubles as an end-to-end
//! bit-identity check on the benchmark workload.
//!
//! `SM_BENCH_SPLIT=4|6|8` picks the split layer (default 8). Layer-8
//! trees are shallow; layer 6 grows the deep trees whose small nodes the
//! fit's sparse split search serves.
//!
//! ```bash
//! SM_SCALE=0.2 cargo run --release -p sm-bench --bin bench_train -- results/BENCH_train.json
//! SM_SCALE=0.2 SM_BENCH_SPLIT=6 cargo run --release -p sm-bench --bin bench_train -- results/BENCH_train_split6.json
//! ```

use std::time::Instant;

use serde::Serialize;
use sm_attack::attack::{AttackConfig, TrainOptions, TrainedAttack};
use sm_attack::{oracle, AttackError, Parallelism};
use sm_bench::{env_parse, Harness};
use sm_layout::SplitView;
use sm_ml::Dataset;

/// Measured iterations per fit; the fastest is reported (standard
/// best-of-N to shed scheduler noise without a long run).
const ITERS: usize = 3;

#[derive(Serialize)]
struct BackendResult {
    /// Fastest ensemble fit, seconds (sample extraction excluded).
    best_fit_s: f64,
    /// Training samples consumed per second of fit time.
    samples_per_s: f64,
}

#[derive(Serialize)]
struct Report {
    scale: f64,
    split_layer: u8,
    config: String,
    n_trees: usize,
    num_samples: usize,
    num_features: usize,
    /// Seconds spent extracting the sample set (shared by both fits,
    /// measured once, outside the gated comparison).
    sample_extraction_s: f64,
    /// `oracle::train`, the per-node scan the binned fit is checked against.
    reference: BackendResult,
    /// `TrainedAttack::from_samples`, the shipped binned fit.
    binned: BackendResult,
    /// Fit-stage speedup: reference best fit / binned best fit.
    fit_speedup: f64,
    /// End-to-end speedup with the shared extraction stage included:
    /// (extraction + reference fit) / (extraction + binned fit).
    train_speedup: f64,
}

/// Times `fit` on copies of `samples`, best of [`ITERS`] passes.
fn time_fit(
    samples: &Dataset,
    fit: impl Fn(Dataset) -> Result<TrainedAttack, AttackError>,
) -> (f64, TrainedAttack) {
    let mut best = f64::INFINITY;
    let mut model = None;
    // First pass doubles as warm-up; it can only lose the min race.
    for _ in 0..=ITERS {
        let owned = samples.clone();
        let t = Instant::now();
        let fitted = fit(owned).expect("fit");
        best = best.min(t.elapsed().as_secs_f64());
        model = Some(fitted);
    }
    (best, model.expect("at least one fit ran"))
}

fn main() {
    let out_path = std::env::args().nth(1);
    let harness = Harness::from_env();
    let layer: u8 = env_parse("SM_BENCH_SPLIT", 8);
    let views = harness.views(layer);
    let train: Vec<&SplitView> = views[1..].iter().collect();
    // The paper's flagship configuration (all 11 features, neighborhood
    // restriction); override with SM_BENCH_CONFIG=ml-9|imp-7|imp-9|imp-11.
    let config = match std::env::var("SM_BENCH_CONFIG").as_deref() {
        Ok("ml-9") => AttackConfig::ml9(),
        Ok("imp-7") => AttackConfig::imp7(),
        Ok("imp-9") => AttackConfig::imp9(),
        Ok("imp-11") | Err(_) => AttackConfig::imp11(),
        Ok(other) => panic!("unknown SM_BENCH_CONFIG {other:?}"),
    };
    let config = config.with_parallelism(Parallelism::Sequential);
    let n_trees = match config.base {
        sm_attack::attack::BaseClassifier::RepTreeBagging { n_trees }
        | sm_attack::attack::BaseClassifier::RandomTreeBagging { n_trees } => n_trees,
    };

    eprintln!("[bench_train] extracting {} samples ...", config.name);
    let t = Instant::now();
    let (samples, radius) =
        TrainedAttack::prepare_samples(&config, &train, None).expect("sample extraction");
    let sample_extraction_s = t.elapsed().as_secs_f64();
    eprintln!(
        "[bench_train] {} samples x {} features in {sample_extraction_s:.3}s",
        samples.len(),
        samples.num_features()
    );

    eprintln!("[bench_train] fitting with the oracle ...");
    let (ref_s, ref_model) = time_fit(&samples, |s| oracle::train(&config, s, radius));
    eprintln!("[bench_train] fitting with the binned kernel ...");
    let (bin_s, bin_model) = time_fit(&samples, |s| {
        TrainedAttack::from_samples(&config, s, radius, TrainOptions::default())
    });
    assert_eq!(
        ref_model, bin_model,
        "the binned fit must reproduce the oracle's model bit for bit"
    );

    let report = Report {
        scale: harness.scale(),
        split_layer: layer,
        config: config.name.clone(),
        n_trees,
        num_samples: samples.len(),
        num_features: samples.num_features(),
        sample_extraction_s,
        reference: BackendResult {
            best_fit_s: ref_s,
            samples_per_s: samples.len() as f64 / ref_s,
        },
        binned: BackendResult {
            best_fit_s: bin_s,
            samples_per_s: samples.len() as f64 / bin_s,
        },
        fit_speedup: ref_s / bin_s,
        train_speedup: (sample_extraction_s + ref_s) / (sample_extraction_s + bin_s),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{json}");
    if let Some(path) = out_path {
        std::fs::write(&path, json + "\n").expect("write report");
        eprintln!("[bench_train] wrote {path}");
    }
    if bin_s >= ref_s {
        eprintln!(
            "[bench_train] FAIL: binned fit ({bin_s:.3}s) is not faster than the oracle ({ref_s:.3}s)"
        );
        std::process::exit(1);
    }
    eprintln!(
        "[bench_train] binned {:.2}x faster fit ({:.0} vs {:.0} samples/s)",
        report.fit_speedup, report.binned.samples_per_s, report.reference.samples_per_s
    );
}
