//! `train`: `TrainedAttack::train_opt` with the binned backend on four
//! designs at layer 6, repeated, every model checked against the first.

use std::time::{Duration, Instant};

use sm_attack::attack::{TrainOptions, TrainedAttack};
use sm_layout::SplitView;

use crate::inputs::{config, repeat_setup, split_views, train as train_timed, SetupTimes};
use crate::report::Outcome;
use crate::stats::{digest, median};
use crate::trace::Tracer;

/// Layer 6 at scale 1: about 23,000 training samples, of which sample
/// extraction (the unoptimized stage) takes about two thirds of the time
/// and the ensemble fit the rest. No scoring layer runs.
const SCALE: f64 = 1.0;
const LAYER: u8 = 6;

/// Runs the training workload for `seconds` of timed repetitions.
/// `golden` is the committed digest of the model at seed 0.
///
/// # Errors
///
/// Returns a set-up or training error.
pub fn run(
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    golden: Option<&str>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let views = repeat_setup(
        &mut out,
        || {
            let mut times = SetupTimes::default();
            let views = split_views(SCALE, LAYER, seed, tracer, &mut times)?;
            Ok((views, times))
        },
        |views| views.iter().map(SplitView::num_vpins).collect::<Vec<_>>(),
        |_| Ok(()),
    )?;
    let cfg = config();
    let training: Vec<&SplitView> = views[1..].iter().collect();
    let train_opt = || {
        TrainedAttack::train_opt(&cfg, &training, None, TrainOptions::default())
            .map_err(|e| e.to_string())
    };

    // The warm-up repetition gives the model every later one must equal.
    let first = train_opt()?;
    out.attempted += 1;
    let text = serde_json::to_string(&first.to_parts()).expect("models serialize");
    let got = digest(text.as_bytes());
    eprintln!("[benchmark] first model digest {got}");
    if let Some(want) = golden {
        out.check(got == want, || {
            format!("digest {got} differs from golden {want}")
        });
    }
    let samples = first.num_training_samples() as f64;
    out.set("samples.count", samples);
    out.set("compiled.nodes", first.model().total_nodes() as f64);

    let phase = tracer.phase_seconds(seconds);
    let mut reps = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(phase);
    while reps.is_empty() || Instant::now() < deadline {
        let t = Instant::now();
        let model = train_opt()?;
        reps.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        out.check(model == first, || {
            "a repetition trained another model".into()
        });
    }
    let e2e = median(&reps) * 1e9 / samples;
    out.set("ns_per_item", e2e);
    if !tracer.enabled() {
        return Ok(out);
    }

    // Traced: the same two calls `train_opt` makes, each in its own span.
    let (mut extract, mut fit, mut total) = (Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(phase);
    while total.is_empty() || Instant::now() < deadline {
        let mut times = SetupTimes::default();
        let root = tracer.begin("train");
        let t = Instant::now();
        let model = train_timed(&views, tracer, &mut times)?;
        total.push(t.elapsed().as_secs_f64());
        tracer.end(root);
        extract.push(times.extract_s);
        fit.push(times.fit_s);
        out.attempted += 1;
        out.check(model == first, || {
            "a traced repetition trained another model".into()
        });
    }
    let traced = median(&total) * 1e9 / samples;
    out.set("trace.overhead_pct", (traced / e2e - 1.0) * 100.0);
    out.set("samples.extract_s", median(&extract));
    out.set("binned.fit_s", median(&fit));
    let parts = [
        median(&extract) * 1e9 / samples,
        median(&fit) * 1e9 / samples,
    ];
    out.set("samples.ns_per_item", parts[0]);
    out.set("binned.ns_per_item", parts[1]);
    out.set_unattributed(traced, &parts);
    Ok(out)
}
