//! Attack-scoring benchmark: `TrainedAttack::score` against the
//! brute-force `oracle::score`, and spatial against all-pairs candidate
//! enumeration, on the same trained model and target design.
//!
//! Emits a machine-readable report (`BENCH_attack.json` shape) with
//! end-to-end pairs/s of the shipped scoring path (`compiled`) and of the
//! oracle (`reference`: all-pairs scan, per-pair features and ensemble
//! walk, a full sort of every target's candidates), a per-stage split of
//! the compiled kernel (feature fill vs ensemble evaluation against
//! per-pair extraction and walk), the enumeration-stage ns/pair of the
//! spatial grid queries vs the all-pairs scan, and the process peak RSS.
//! Exits nonzero if the shipped path is not faster than the oracle, if
//! the compiled kernel is not faster than the per-pair kernel on the same
//! pairs, if the index and the all-pairs scan enumerate different legal
//! partners, if at split layer 6 or below spatial enumeration is less
//! than [`MIN_ENUM_SPEEDUP`] times as fast as the scan, or if the shipped
//! `ScoredView` diverges from the oracle's — the CI guards against
//! performance and correctness regressions.
//!
//! ```bash
//! SM_SCALE=0.2 cargo run --release -p sm-bench --bin bench_attack -- results/BENCH_attack.json
//! ```
//!
//! Environment knobs:
//!
//! - `SM_BENCH_CONFIG=ml-9|imp-7|imp-9|imp-11` — model configuration
//!   (default `imp-11`).
//! - `SM_BENCH_SPLIT=4|6|8` — split layer (default 8; use 4 for the
//!   enumeration-bound regime, where the neighborhood ball covers a small
//!   fraction of the die).
//! - `SM_BENCH_ITERS=N` — timed passes per measurement, best-of-N
//!   (default 3; 1 skips the warm-up pass too).
//! - `SM_BENCH_ORACLE=0` — skip every quadratic oracle pass (oracle
//!   scoring, all-pairs enumeration, stage split, divergence check) for
//!   paper-scale streaming runs; the matching report fields are null.
//! - `SM_BENCH_TOP_FRACTION=F` — per-target top-list fraction (default
//!   0.06). At `SM_SCALE=10` the default would retain ~17 GB of
//!   candidates; pick the PA fraction actually needed (e.g. 0.002).

use std::time::Instant;

use serde::Serialize;
use sm_attack::attack::{AttackConfig, ScoreOptions, ScoredView, TrainedAttack, SCORE_BATCH};
use sm_attack::neighborhood::VpinIndex;
use sm_attack::{oracle, PairKernel};
use sm_bench::{env_parse, peak_rss_bytes, Harness};
use sm_layout::SplitView;

/// The all-pairs scan must take at least this many times as long as the
/// index query in the same run, at split layers up to
/// [`MAX_ENUM_GATED_LAYER`]. On a 2-vCPU host a layer-6 run at
/// `SM_SCALE=0.2` gives 1.5-2.6x, and a build whose query scans every
/// v-pin 0.87-1.07x.
const MIN_ENUM_SPEEDUP: f64 = 1.3;

/// Deepest split layer whose enumeration speedup is gated. Layer 8 has
/// few v-pins per design (78 on sb1 at `SM_SCALE=0.2`), too few partners
/// per target for the grid to beat a scan, so its ratio is reported only.
const MAX_ENUM_GATED_LAYER: u8 = 6;

#[derive(Serialize)]
struct KernelResult {
    best_s: f64,
    pairs_per_s: f64,
}

#[derive(Serialize)]
struct StageSplit {
    /// Legal pairs pushed through the staged measurement.
    pairs: u64,
    /// Seconds spent filling SoA feature batches ([`PairKernel`]).
    feature_fill_s: f64,
    /// Seconds spent in the flattened-ensemble batch evaluation.
    proba_batch_s: f64,
    /// Seconds the reference path spends extracting the same features
    /// pair by pair (`FeatureSet::compute_into`).
    reference_compute_s: f64,
    /// Seconds the reference path spends in per-pair `Bagging::proba`.
    reference_proba_s: f64,
    /// Kernel-only throughput ratio: (reference compute + proba) /
    /// (compiled fill + batch) over the identical pair set.
    kernel_speedup: f64,
}

#[derive(Serialize)]
struct EnumStage {
    /// Legal candidate pairs enumerated per full pass (both directions).
    pairs_enumerated: u64,
    /// Best full-pass time of the spatial grid queries
    /// (`partners_within_radius` per target).
    spatial_best_s: f64,
    /// Spatial enumeration cost per enumerated pair.
    spatial_ns_per_pair: f64,
    /// Best full-pass time of the all-pairs oracle scan (null in
    /// streaming-only mode).
    all_pairs_best_s: Option<f64>,
    /// Oracle scan cost per enumerated pair (null in streaming-only mode).
    all_pairs_ns_per_pair: Option<f64>,
    /// all-pairs / spatial pass-time ratio (null in streaming-only mode).
    enumeration_speedup: Option<f64>,
}

#[derive(Serialize)]
struct Report {
    scale: f64,
    split_layer: u8,
    config: String,
    design: String,
    num_vpins: usize,
    top_fraction: f64,
    pairs_scored: u64,
    /// `oracle::score`, the brute-force scan the shipped path is checked
    /// against. Null when `SM_BENCH_ORACLE=0` skips it.
    reference: Option<KernelResult>,
    /// `TrainedAttack::score`, the shipped scoring path.
    compiled: KernelResult,
    /// reference / compiled end-to-end time (null in streaming-only mode).
    speedup: Option<f64>,
    stage_split: Option<StageSplit>,
    /// Null for `ML` configurations (no neighborhood radius: both
    /// enumerations degenerate to the same full scan).
    enumeration: Option<EnumStage>,
    /// Whether the shipped `ScoredView` was verified bit-identical to the
    /// oracle's in this run.
    oracle_checked: bool,
    peak_rss_bytes: Option<u64>,
}

fn env_flag(name: &str, default: bool) -> bool {
    match std::env::var(name).as_deref() {
        Ok("0") | Ok("false") => false,
        Ok("1") | Ok("true") => true,
        Err(_) => default,
        Ok(other) => panic!("{name} must be 0 or 1, got {other:?}"),
    }
}

/// Times `score`, best of `iters` passes; returns the best pass time and
/// the last pass's result.
fn time_scoring(iters: usize, score: impl Fn() -> ScoredView) -> (f64, ScoredView) {
    // Warm-up pass (page in the model, populate allocator pools) —
    // skipped for single-pass paper-scale runs, where a pass is minutes.
    if iters > 1 {
        score();
    }
    let mut best = f64::INFINITY;
    let mut scored = None;
    for _ in 0..iters.max(1) {
        // Free the previous pass first, so one view is live at a time.
        drop(scored.take());
        let t = Instant::now();
        let pass = score();
        best = best.min(t.elapsed().as_secs_f64());
        scored = Some(pass);
    }
    (best, scored.expect("at least one pass ran"))
}

/// Runs feature fill and ensemble evaluation as separate timed stages over
/// every legal pair, batched exactly like the attack's inner loop. Each
/// measurement pass is repeated `iters` times and the fastest pass is
/// kept — per-stage times come from the same best pass, so the reported
/// split stays self-consistent.
fn stage_split(model: &TrainedAttack, view: &SplitView, iters: usize) -> StageSplit {
    let kernel = PairKernel::new(view.vpins(), &model.config().features);
    let ensemble = model.model().compile();
    let nf = kernel.num_features();
    let n = view.num_vpins();
    let mut rows: Vec<f64> = Vec::with_capacity(SCORE_BATCH * nf);
    let mut probs: Vec<f64> = Vec::with_capacity(SCORE_BATCH);
    let mut cands: Vec<u32> = Vec::new();
    let mut sink = 0.0_f64;
    let (mut fill_s, mut proba_s, mut pairs) = (f64::INFINITY, f64::INFINITY, 0_u64);
    for _ in 0..=iters {
        // First pass doubles as warm-up; it can only lose the min race.
        let (mut pass_fill, mut pass_proba, mut pass_pairs) = (0.0_f64, 0.0_f64, 0_u64);
        for i in 0..n {
            cands.clear();
            cands.extend(
                ((i + 1)..n)
                    .filter(|&j| view.is_legal_pair(i, j))
                    .map(|j| u32::try_from(j).expect("v-pin index fits u32")),
            );
            let target = u32::try_from(i).expect("v-pin index fits u32");
            for chunk in cands.chunks(SCORE_BATCH) {
                let t = Instant::now();
                kernel.fill_batch(target, chunk, &mut rows);
                pass_fill += t.elapsed().as_secs_f64();
                probs.clear();
                probs.resize(chunk.len(), 0.0);
                let t = Instant::now();
                ensemble.proba_batch(&rows, nf, &mut probs);
                pass_proba += t.elapsed().as_secs_f64();
                pass_pairs += chunk.len() as u64;
                sink += probs.iter().sum::<f64>();
            }
        }
        if pass_fill + pass_proba < fill_s + proba_s {
            (fill_s, proba_s) = (pass_fill, pass_proba);
        }
        pairs = pass_pairs;
    }
    // Reference staging over the identical pair set, whole-pass timed so
    // the timer itself stays out of the measured loops: one pass of pure
    // feature extraction, one pass of extraction + ensemble walk; the
    // difference is the per-pair `Bagging::proba` cost.
    let features = &model.config().features;
    let ensemble_ref = model.model();
    let mut buf: Vec<f64> = Vec::with_capacity(nf);
    let vpins = view.vpins();
    let (mut ref_compute_s, mut ref_total_s) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..=iters {
        let t = Instant::now();
        for i in 0..n {
            for j in (i + 1)..n {
                if !view.is_legal_pair(i, j) {
                    continue;
                }
                features.compute_into(&vpins[i], &vpins[j], &mut buf);
                sink += buf[0];
            }
        }
        ref_compute_s = ref_compute_s.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for i in 0..n {
            for j in (i + 1)..n {
                if !view.is_legal_pair(i, j) {
                    continue;
                }
                features.compute_into(&vpins[i], &vpins[j], &mut buf);
                sink += ensemble_ref.proba(&buf);
            }
        }
        ref_total_s = ref_total_s.min(t.elapsed().as_secs_f64());
    }
    let ref_proba_s = (ref_total_s - ref_compute_s).max(0.0);
    // Keep the optimizer honest about the probabilities being computed.
    assert!(sink.is_finite());
    StageSplit {
        pairs,
        feature_fill_s: fill_s,
        proba_batch_s: proba_s,
        reference_compute_s: ref_compute_s,
        reference_proba_s: ref_proba_s,
        kernel_speedup: (ref_compute_s + ref_proba_s) / (fill_s + proba_s),
    }
}

/// Times candidate enumeration alone, normalised per enumerated pair:
/// the legal partners within the neighborhood radius of every target,
/// from the [`VpinIndex`] query scoring runs
/// (`partners_within_radius`) and from the per-target all-pairs scan
/// with the legality filter (the loop `oracle::score` runs). Asserts
/// both give every target the same partner set. Returns `None` for
/// configurations without a neighborhood radius, where both
/// enumerations are the same scan.
fn enumeration_split(
    model: &TrainedAttack,
    view: &SplitView,
    iters: usize,
    oracle: bool,
) -> Option<EnumStage> {
    let radius = model.radius()?;
    let n = view.num_vpins();
    let mut out: Vec<u32> = Vec::new();
    let index = VpinIndex::with_radius(view, radius);
    let scan = |i: usize, out: &mut Vec<u32>| {
        out.clear();
        out.extend((0..n as u32).filter(|&j| {
            view.distance(i, j as usize) <= radius && view.is_legal_pair(i, j as usize)
        }));
    };
    let mut pairs = 0u64;
    let mut spatial_best = f64::INFINITY;
    for pass in 0..=iters {
        let t = Instant::now();
        let mut count = 0u64;
        for i in 0..n {
            index.partners_within_radius(view, i, radius, &mut out);
            count += out.len() as u64;
        }
        let dt = t.elapsed().as_secs_f64();
        if pass > 0 {
            spatial_best = spatial_best.min(dt);
        }
        pairs = count;
    }
    let (mut all_pairs_best, mut all_ns, mut speedup) = (None, None, None);
    if oracle {
        let mut expect: Vec<u32> = Vec::new();
        for i in 0..n {
            index.partners_within_radius(view, i, radius, &mut out);
            out.sort_unstable();
            scan(i, &mut expect);
            assert_eq!(out, expect, "v-pin {i}: the index and the scan disagree");
        }
        let mut best = f64::INFINITY;
        for pass in 0..=iters {
            let t = Instant::now();
            let mut count = 0u64;
            for i in 0..n {
                scan(i, &mut out);
                count += out.len() as u64;
            }
            let dt = t.elapsed().as_secs_f64();
            if pass > 0 {
                best = best.min(dt);
            }
            assert_eq!(
                count, pairs,
                "oracle scan enumerated a different pair count"
            );
        }
        all_pairs_best = Some(best);
        all_ns = Some(best * 1e9 / pairs.max(1) as f64);
        speedup = Some(best / spatial_best);
    }
    Some(EnumStage {
        pairs_enumerated: pairs,
        spatial_best_s: spatial_best,
        spatial_ns_per_pair: spatial_best * 1e9 / pairs.max(1) as f64,
        all_pairs_best_s: all_pairs_best,
        all_pairs_ns_per_pair: all_ns,
        enumeration_speedup: speedup,
    })
}

fn main() {
    let out_path = std::env::args().nth(1);
    let harness = Harness::from_env();
    let layer: u8 = env_parse("SM_BENCH_SPLIT", 8);
    let iters: usize = env_parse("SM_BENCH_ITERS", 3);
    let oracle = env_flag("SM_BENCH_ORACLE", true);
    let top_fraction: f64 = env_parse("SM_BENCH_TOP_FRACTION", 0.06);
    assert!(
        top_fraction > 0.0 && top_fraction <= 1.0,
        "SM_BENCH_TOP_FRACTION must be in (0, 1]"
    );
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
    eprintln!("[bench_attack] training {} ...", config.name);
    let model = TrainedAttack::train(&config, &train, None).expect("train");
    let target = &views[0];
    let base = ScoreOptions {
        top_fraction,
        ..ScoreOptions::default()
    };

    eprintln!("[bench_attack] scoring with the shipped path ...");
    let (comp_s, compiled) = time_scoring(iters, || model.score(target, &base));
    let comp_pairs = compiled.pairs_scored;

    let (mut reference, mut speedup, mut stages) = (None, None, None);
    let mut oracle_checked = false;
    if oracle {
        eprintln!("[bench_attack] scoring with the oracle ...");
        let (ref_s, oracle_view) = time_scoring(iters, || oracle::score(&model, target, &base));
        assert_eq!(
            compiled, oracle_view,
            "the shipped ScoredView diverged from the oracle"
        );
        oracle_checked = true;
        reference = Some(KernelResult {
            best_s: ref_s,
            pairs_per_s: comp_pairs as f64 / ref_s,
        });
        speedup = Some(ref_s / comp_s);
        eprintln!("[bench_attack] measuring per-stage kernel split ...");
        stages = Some(stage_split(&model, target, iters));
    }
    eprintln!("[bench_attack] measuring enumeration stage ...");
    let enumeration = enumeration_split(&model, target, iters, oracle);

    let pairs = comp_pairs;
    let report = Report {
        scale: harness.scale(),
        split_layer: layer,
        config: config.name.clone(),
        design: target.name.clone(),
        num_vpins: target.num_vpins(),
        top_fraction,
        pairs_scored: pairs,
        reference,
        compiled: KernelResult {
            best_s: comp_s,
            pairs_per_s: pairs as f64 / comp_s,
        },
        speedup,
        stage_split: stages,
        enumeration,
        oracle_checked,
        peak_rss_bytes: peak_rss_bytes(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    println!("{json}");
    if let Some(path) = out_path {
        std::fs::write(&path, json.clone() + "\n").expect("write report");
        eprintln!("[bench_attack] wrote {path}");
    }
    if let Some(rss) = report.peak_rss_bytes {
        eprintln!(
            "[bench_attack] peak RSS {:.0} MiB",
            rss as f64 / (1 << 20) as f64
        );
    }
    let mut failed = false;
    if let Some(ref reference) = report.reference {
        if comp_s >= reference.best_s {
            eprintln!(
                "[bench_attack] FAIL: shipped scoring ({comp_s:.3}s) is not faster than the oracle ({:.3}s)",
                reference.best_s
            );
            failed = true;
        } else {
            eprintln!(
                "[bench_attack] shipped scoring {:.2}x faster than the oracle ({:.0} vs {:.0} pairs/s)",
                report.speedup.unwrap_or(f64::NAN),
                report.compiled.pairs_per_s,
                reference.pairs_per_s
            );
        }
    }
    if let Some(ref st) = report.stage_split {
        if st.kernel_speedup <= 1.0 {
            eprintln!(
                "[bench_attack] FAIL: the compiled kernel is not faster than the per-pair kernel ({:.2}x over {} pairs)",
                st.kernel_speedup, st.pairs
            );
            failed = true;
        } else {
            eprintln!(
                "[bench_attack] compiled kernel {:.2}x faster than the per-pair kernel over {} pairs",
                st.kernel_speedup, st.pairs
            );
        }
    }
    if let Some(ref e) = report.enumeration {
        match (e.enumeration_speedup, e.all_pairs_ns_per_pair) {
            (Some(ratio), Some(all_ns)) => {
                eprintln!(
                    "[bench_attack] enumeration {ratio:.2}x faster than the all-pairs scan ({:.2} vs {all_ns:.2} ns/pair over {} pairs)",
                    e.spatial_ns_per_pair, e.pairs_enumerated
                );
                if layer <= MAX_ENUM_GATED_LAYER && ratio < MIN_ENUM_SPEEDUP {
                    eprintln!(
                        "[bench_attack] FAIL: enumeration speedup {ratio:.2}x is below {MIN_ENUM_SPEEDUP} at split layer {layer}"
                    );
                    failed = true;
                }
            }
            _ => eprintln!(
                "[bench_attack] spatial enumeration {:.2} ns/pair over {} pairs (oracle skipped)",
                e.spatial_ns_per_pair, e.pairs_enumerated
            ),
        }
    }
    if failed {
        std::process::exit(1);
    }
}
