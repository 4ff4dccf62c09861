//! `attack_keep` and `attack_walk`: `TrainedAttack::score` over the
//! held-out design, timed whole, checked against its own first pass, and,
//! in a traced run, taken apart by isolated passes through each layer.

use std::hint::black_box;
use std::time::{Duration, Instant};

use sm_attack::attack::{ScoreOptions, ScoredView, TrainedAttack, SCORE_BATCH};
use sm_attack::neighborhood::VpinIndex;
use sm_attack::{PairKernel, Parallelism};
use sm_layout::SplitView;

use crate::inputs::{repeat_setup, split_views, train, SetupTimes};
use crate::report::Outcome;
use crate::stats::{digest, median};
use crate::trace::Tracer;

/// One attack workload's inputs. Both workloads score with the options
/// every caller uses (`ScoreOptions::default()`, so `top_fraction` 0.06),
/// on one thread.
pub struct Spec {
    /// Suite scale (1.0 = 1/20 of the paper's v-pin counts).
    pub scale: f64,
    /// Split layer.
    pub layer: u8,
}

/// Layer 8 at scale 2 (784 target v-pins): the layer-8 model is small, so
/// the top-K keeper, not the tree walk, sets the time. A keeper or
/// histogram change shows here.
pub const KEEP: Spec = Spec {
    scale: 2.0,
    layer: 8,
};

/// Layer 6 at scale 0.5 (1,075 target v-pins): the layer-6 model is about
/// thirty times larger, so the tree walk sets the time and the keeper is a
/// small share. A walk change shows here. The small scale gives about
/// thirty passes per run for the median.
pub const WALK: Spec = Spec {
    scale: 0.5,
    layer: 6,
};

/// Targets whose retained candidates are re-scored through the
/// reference feature and ensemble code after the first pass.
const SAMPLED_SLOTS: usize = 16;

/// Runs one attack workload for `seconds` of timed passes. `golden` is
/// the committed digest of the first pass at seed 0.
///
/// # Errors
///
/// Returns a set-up error.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    golden: Option<&str>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (views, model) = repeat_setup(
        &mut out,
        || {
            let mut times = SetupTimes::default();
            let views = split_views(spec.scale, spec.layer, seed, tracer, &mut times)?;
            let model = train(&views, tracer, &mut times)?;
            Ok(((views, model), times))
        },
        |(_, model)| model.clone(),
        |_| Ok(()),
    )?;
    out.set("samples.count", model.num_training_samples() as f64);
    out.set("compiled.nodes", model.model().total_nodes() as f64);
    let target = &views[0];
    let opts = ScoreOptions {
        parallelism: Parallelism::Sequential,
        ..ScoreOptions::default()
    };

    // The warm-up pass doubles as the reference every timed pass must
    // reproduce exactly.
    let first = model.score(target, &opts);
    out.attempted += 1;
    check_first(&mut out, &model, target, &first, golden);
    let pairs = first.pairs_scored as f64;

    let phase = tracer.phase_seconds(seconds);
    let untraced = passes(
        &model,
        target,
        &opts,
        &first,
        phase,
        &mut Tracer::new(false),
        &mut out,
    );
    let e2e = median(&untraced) * 1e9 / pairs;
    out.set("ns_per_item", e2e);
    if !tracer.enabled() {
        return Ok(out);
    }

    let traced = median(&passes(
        &model, target, &opts, &first, phase, tracer, &mut out,
    )) * 1e9
        / pairs;
    out.set("trace.overhead_pct", (traced / e2e - 1.0) * 100.0);
    probe_layers(&model, target, &opts, &first, traced, tracer, &mut out)?;
    Ok(out)
}

/// Scores `view` until `seconds` have passed (at least once), checking
/// every pass against `reference`; returns each pass's wall time.
fn passes(
    model: &TrainedAttack,
    view: &SplitView,
    opts: &ScoreOptions,
    reference: &ScoredView,
    seconds: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Vec<f64> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut times = Vec::new();
    while times.is_empty() || Instant::now() < deadline {
        let span = tracer.begin("attack");
        let t = Instant::now();
        let scored = model.score(view, opts);
        times.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        out.attempted += 1;
        out.check(scored == *reference, || {
            format!("pass {} differs from the first pass", times.len())
        });
    }
    times
}

/// Untimed checks of the first pass: its digest against the committed
/// one, and a sample of targets re-scored pair by pair through
/// `FeatureSet::compute_into` and `Bagging::proba`.
fn check_first(
    out: &mut Outcome,
    model: &TrainedAttack,
    view: &SplitView,
    first: &ScoredView,
    golden: Option<&str>,
) {
    let text = serde_json::to_string(first).expect("scored views serialize");
    let got = digest(text.as_bytes());
    eprintln!("[benchmark] first pass digest {got}");
    if let Some(want) = golden {
        out.check(got == want, || {
            format!("digest {got} differs from golden {want}")
        });
    }
    out.check(first.pairs_scored > 0, || "no pair was scored".into());
    out.check(first.slots.len() == view.num_vpins(), || {
        "a target was not scored".into()
    });
    let features = &model.config().features;
    let vpins = view.vpins();
    let mut row = Vec::with_capacity(features.len());
    let mut proba = |i: usize, j: usize| {
        features.compute_into(&vpins[i], &vpins[j], &mut row);
        model.model().proba(&row)
    };
    let step = (first.slots.len() / SAMPLED_SLOTS).max(1);
    for slot in first.slots.iter().step_by(step) {
        let i = slot.vpin as usize;
        if let Some(p) = slot.true_prob {
            let truth = view.true_match(i);
            out.check(proba(i, truth).to_bits() == p.to_bits(), || {
                format!("true_prob of v-pin {i} differs from Bagging::proba")
            });
        }
        out.check(slot.top.windows(2).all(|w| w[0].p >= w[1].p), || {
            format!("top list of v-pin {i} is not sorted")
        });
        for c in &slot.top {
            let j = c.index as usize;
            let ok = view.is_legal_pair(i, j)
                && c.dist == view.distance(i, j)
                && proba(i, j).to_bits() == c.p.to_bits();
            out.check(ok, || {
                format!("candidate {j} of v-pin {i} does not re-score")
            });
        }
    }
}

/// Isolated passes over the target through each layer's public calls,
/// one span per target or batch, and the attribution of the traced pass
/// time `e2e` (ns per scored pair) to those layers.
fn probe_layers(
    model: &TrainedAttack,
    view: &SplitView,
    opts: &ScoreOptions,
    first: &ScoredView,
    e2e: f64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let radius = model
        .radius()
        .ok_or("the Imp-11 model has no neighborhood radius")?;
    let n = view.num_vpins();
    let target = |i: usize| u32::try_from(i).expect("v-pin index fits u32");

    // Enumeration: the spatial index and one radius query per target.
    let root = tracer.begin("probe.enumerate");
    let span = tracer.begin("neighborhood");
    let index = VpinIndex::with_radius(view, radius);
    tracer.end(span);
    let mut cands: Vec<u32> = Vec::new();
    let mut cand_ends = Vec::with_capacity(n);
    let mut buf = Vec::new();
    for (i, vp) in view.vpins().iter().enumerate() {
        let span = tracer.begin("neighborhood");
        index.within_radius_unordered(view, vp.loc, radius, target(i), &mut buf);
        tracer.end(span);
        cands.extend_from_slice(&buf);
        cand_ends.push(cands.len());
    }
    tracer.end(root);

    // Legality over each target's candidates.
    let root = tracer.begin("probe.legality");
    let mut legal: Vec<u32> = Vec::with_capacity(first.pairs_scored as usize);
    let mut legal_ends = Vec::with_capacity(n);
    let mut start = 0;
    for (i, &end) in cand_ends.iter().enumerate() {
        let span = tracer.begin("legality");
        legal.extend(
            cands[start..end]
                .iter()
                .copied()
                .filter(|&j| view.is_legal_pair(i, j as usize)),
        );
        tracer.end(span);
        legal_ends.push(legal.len());
        start = end;
    }
    tracer.end(root);
    out.check(legal.len() as u64 == first.pairs_scored, || {
        format!(
            "{} legal pairs enumerated, {} scored",
            legal.len(),
            first.pairs_scored
        )
    });

    // Feature fill and ensemble walk, batched like the scoring loop.
    let root = tracer.begin("probe.kernel");
    let span = tracer.begin("features");
    let kernel = PairKernel::new(view.vpins(), &model.config().features);
    tracer.end(span);
    let t = Instant::now();
    let span = tracer.begin("compiled");
    let ensemble = model.model().compile();
    tracer.end(span);
    out.set("compiled.compile_s", t.elapsed().as_secs_f64());
    let nf = kernel.num_features();
    let (mut rows, mut probs) = (Vec::new(), Vec::new());
    let mut sink = 0.0;
    let mut start = 0;
    for (i, &end) in legal_ends.iter().enumerate() {
        for chunk in legal[start..end].chunks(SCORE_BATCH) {
            let span = tracer.begin("features");
            kernel.fill_batch(target(i), chunk, &mut rows);
            tracer.end(span);
            probs.clear();
            probs.resize(chunk.len(), 0.0);
            let span = tracer.begin("compiled");
            ensemble.proba_batch(&rows, nf, &mut probs);
            tracer.end(span);
            sink += probs.iter().sum::<f64>();
        }
        start = end;
    }
    tracer.end(root);
    black_box(sink);

    // The keeper: the same scoring call keeping one candidate per target.
    let top1 = ScoreOptions {
        top_fraction: f64::MIN_POSITIVE,
        top_floor: 1,
        ..opts.clone()
    };
    let mut top1_s = Vec::new();
    for _ in 0..3 {
        let span = tracer.begin("attack.top1");
        let t = Instant::now();
        let scored = model.score(view, &top1);
        top1_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        out.check(scored.pairs_scored == first.pairs_scored, || {
            "the one-candidate pass scored another pair count".into()
        });
    }

    let pairs = first.pairs_scored as f64;
    let own = tracer.self_ns_by_name();
    let per_pair = |name: &str| own.get(name).copied().unwrap_or(0) as f64 / pairs;
    let layers = [
        ("neighborhood.ns_per_item", per_pair("neighborhood")),
        ("legality.ns_per_item", per_pair("legality")),
        ("features.ns_per_item", per_pair("features")),
        ("compiled.ns_per_item", per_pair("compiled")),
        (
            "attack.topk_ns_per_item",
            e2e - median(&top1_s) * 1e9 / pairs,
        ),
    ];
    for (name, value) in layers {
        out.set(name, value);
    }
    let parts: Vec<f64> = layers.iter().map(|(_, v)| *v).collect();
    out.set_unattributed(e2e, &parts);
    out.set("neighborhood.pairs_enumerated", cands.len() as f64);
    out.set("legality.legal_ratio", pairs / cands.len() as f64);
    out.set("attack.pairs_scored", pairs);
    Ok(())
}
