//! Training benchmark, in two stages that are each timed against their
//! oracle in the same run:
//!
//! - sample extraction: `TrainedAttack::prepare_samples` (each negative
//!   drawn by counting the view in v-pin order) against
//!   `oracle::prepare_samples` (each negative's candidate pool enumerated
//!   and sorted);
//! - the ensemble fit: the shipped binned tree fit
//!   (`TrainedAttack::from_samples`) against the oracle's per-node scan
//!   (`oracle::train`), on the same sample set.
//!
//! Training is forced to `Parallelism::Sequential` so the reported ratios
//! are pure single-thread comparisons (the CI host has one CPU; thread
//! level parallelism would only add noise). Every stage is timed best of
//! [`ITERS`] passes after a warm-up pass.
//!
//! Emits a machine-readable report (`BENCH_train.json` shape). Both
//! sample sets and both fitted models are asserted equal, so the run
//! doubles as an end-to-end bit-identity check on the benchmark workload.
//! It exits nonzero if the binned fit is not faster than the oracle, or if
//! at split layer [`MAX_EXTRACTION_GATED_LAYER`] or below extraction is
//! less than [`MIN_EXTRACTION_SPEEDUP`] times as fast as the sorted draw.
//!
//! `SM_BENCH_SPLIT=4|6|8` picks the split layer (default 8). Layer-8
//! trees are shallow; layer 6 grows the deep trees whose small nodes the
//! fit's sparse split search serves, and has the large neighborhoods the
//! extraction gate is about.
//!
//! ```bash
//! SM_SCALE=0.2 cargo run --release -p sm-bench --bin bench_train -- results/BENCH_train.json
//! SM_SCALE=0.2 SM_BENCH_SPLIT=6 cargo run --release -p sm-bench --bin bench_train -- results/BENCH_train_split6.json
//! ```

use std::time::Instant;

use serde::Serialize;
use sm_attack::attack::{AttackConfig, TrainOptions, TrainedAttack};
use sm_attack::{oracle, Parallelism};
use sm_bench::{env_parse, Harness};
use sm_layout::SplitView;

/// Measured passes per stage; the fastest is reported (standard
/// best-of-N to shed scheduler noise without a long run).
const ITERS: usize = 3;

/// The sorted draw must take at least this many times as long as the
/// shipped extraction in the same run, at split layers up to
/// [`MAX_EXTRACTION_GATED_LAYER`]. On a 2-vCPU host, fifteen layer-6 runs
/// at `SM_SCALE=0.2` gave 7.6-16x, and fifteen of a build that draws by
/// selection from the enumerated partner ball, as the draw did before
/// counting, 2.0-3.9x.
const MIN_EXTRACTION_SPEEDUP: f64 = 5.0;

/// Deepest split layer whose extraction speedup is gated. Layer-8
/// neighborhoods hold few v-pins at `SM_SCALE=0.2`, and its extraction
/// takes about a millisecond, so its ratio is reported only.
const MAX_EXTRACTION_GATED_LAYER: u8 = 6;

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
    /// Fastest `TrainedAttack::prepare_samples`, seconds.
    sample_extraction_s: f64,
    /// Fastest `oracle::prepare_samples` (the sorted draw), seconds.
    reference_extraction_s: f64,
    /// Extraction speedup: reference extraction / shipped extraction.
    extraction_speedup: f64,
    /// `oracle::train`, the per-node scan the binned fit is checked against.
    reference: BackendResult,
    /// `TrainedAttack::from_samples`, the shipped binned fit.
    binned: BackendResult,
    /// Fit-stage speedup: reference best fit / binned best fit.
    fit_speedup: f64,
    /// End-to-end speedup: (reference extraction + reference fit) /
    /// (shipped extraction + binned fit).
    train_speedup: f64,
}

/// Runs `pass` on a fresh `input()` [`ITERS`] + 1 times, timing only
/// `pass`, and returns the fastest time with the last result. The first
/// pass doubles as warm-up; it can only lose the min race.
fn best_of<I, T>(mut input: impl FnMut() -> I, mut pass: impl FnMut(I) -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..=ITERS {
        let owned = input();
        let t = Instant::now();
        let out = pass(owned);
        best = best.min(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (best, last.expect("at least one pass ran"))
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
    let (extract_s, (samples, radius)) = best_of(
        || (),
        |()| TrainedAttack::prepare_samples(&config, &train, None).expect("sample extraction"),
    );
    eprintln!("[bench_train] extracting them with the sorted draw ...");
    let (ref_extract_s, reference_samples) = best_of(
        || (),
        |()| oracle::prepare_samples(&config, &train, None).expect("sample extraction"),
    );
    assert_eq!(
        (&samples, radius),
        (&reference_samples.0, reference_samples.1),
        "the shipped draw must reproduce the sorted draw's samples bit for bit"
    );
    eprintln!(
        "[bench_train] {} samples x {} features in {extract_s:.4}s (sorted draw {ref_extract_s:.4}s)",
        samples.len(),
        samples.num_features()
    );

    eprintln!("[bench_train] fitting with the oracle ...");
    let (ref_s, ref_model) = best_of(
        || samples.clone(),
        |s| oracle::train(&config, s, radius).expect("fit"),
    );
    eprintln!("[bench_train] fitting with the binned kernel ...");
    let (bin_s, bin_model) = best_of(
        || samples.clone(),
        |s| TrainedAttack::from_samples(&config, s, radius, TrainOptions::default()).expect("fit"),
    );
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
        sample_extraction_s: extract_s,
        reference_extraction_s: ref_extract_s,
        extraction_speedup: ref_extract_s / extract_s,
        reference: BackendResult {
            best_fit_s: ref_s,
            samples_per_s: samples.len() as f64 / ref_s,
        },
        binned: BackendResult {
            best_fit_s: bin_s,
            samples_per_s: samples.len() as f64 / bin_s,
        },
        fit_speedup: ref_s / bin_s,
        train_speedup: (ref_extract_s + ref_s) / (extract_s + bin_s),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{json}");
    if let Some(path) = out_path {
        std::fs::write(&path, json + "\n").expect("write report");
        eprintln!("[bench_train] wrote {path}");
    }
    let mut failed = false;
    if bin_s >= ref_s {
        eprintln!(
            "[bench_train] FAIL: binned fit ({bin_s:.3}s) is not faster than the oracle ({ref_s:.3}s)"
        );
        failed = true;
    }
    let ratio = report.extraction_speedup;
    eprintln!(
        "[bench_train] extraction {ratio:.2}x faster than the sorted draw; binned {:.2}x faster fit ({:.0} vs {:.0} samples/s)",
        report.fit_speedup, report.binned.samples_per_s, report.reference.samples_per_s
    );
    if layer <= MAX_EXTRACTION_GATED_LAYER && ratio < MIN_EXTRACTION_SPEEDUP {
        eprintln!(
            "[bench_train] FAIL: extraction speedup {ratio:.2}x is below {MIN_EXTRACTION_SPEEDUP} at split layer {layer}"
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
