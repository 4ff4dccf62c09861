//! Seeded inputs: the five-design suite with the run's seed mixed into
//! every design, cut at one split layer, and the attack model trained on
//! four of the designs with the fifth held out.

use std::time::Instant;

use sm_attack::attack::{AttackConfig, TrainOptions, TrainedAttack};
use sm_attack::Parallelism;
use sm_layout::generator::{generate, DesignSpec};
use sm_layout::route::route;
use sm_layout::{SplitLayer, SplitView, Suite};

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::Tracer;

/// Set-ups per run. `setup_s` is their median, so one slow set-up on a
/// shared host does not move it.
pub const SETUPS: usize = 5;

/// The suite's design specs at `scale` with `seed` XORed into each
/// design's own seed. Seed 0 leaves [`Suite::ispd2011_like`] unchanged.
pub fn seeded_specs(scale: f64, seed: u64) -> Vec<DesignSpec> {
    Suite::specs_scaled(scale)
        .into_iter()
        .map(|mut spec| {
            spec.seed ^= seed;
            spec
        })
        .collect()
}

/// The attack configuration every workload trains: the paper's Imp-11
/// (all eleven features, neighborhood restriction), single-threaded so
/// that two workers on a two-CPU host do not measure each other.
pub fn config() -> AttackConfig {
    AttackConfig::imp11().with_parallelism(Parallelism::Sequential)
}

/// Wall times of one set-up, by layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    /// The whole set-up.
    pub total_s: f64,
    /// `generate` + `route` of the five designs.
    pub generate_s: f64,
    /// `SplitView::cut` of the five designs.
    pub split_s: f64,
    /// `TrainedAttack::prepare_samples`, when the set-up trains.
    pub extract_s: f64,
    /// `TrainedAttack::from_samples`, when the set-up trains.
    pub fit_s: f64,
}

/// The five designs at `scale`, seeded, cut at `layer`; `views[0]` is
/// `sb1`, the held-out target.
///
/// # Errors
///
/// Returns the layout error of an invalid scale or layer.
pub fn split_views(
    scale: f64,
    layer: u8,
    seed: u64,
    tracer: &mut Tracer,
    times: &mut SetupTimes,
) -> Result<Vec<SplitView>, String> {
    let layer = SplitLayer::new(layer).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let span = tracer.begin("layout");
    let designs = seeded_specs(scale, seed)
        .iter()
        .map(|spec| generate(spec).map(route))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    tracer.end(span);
    times.generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let span = tracer.begin("layout");
    let views = designs.iter().map(|d| SplitView::cut(d, layer)).collect();
    tracer.end(span);
    times.split_s = t.elapsed().as_secs_f64();
    Ok(views)
}

/// Trains [`config`] on `views[1..]`, timing sample extraction and the
/// ensemble fit as separate layers; `TrainedAttack::train_opt` is exactly
/// these two calls.
///
/// # Errors
///
/// Returns the attack error of an empty sample set.
pub fn train(
    views: &[SplitView],
    tracer: &mut Tracer,
    times: &mut SetupTimes,
) -> Result<TrainedAttack, String> {
    let cfg = config();
    let training: Vec<&SplitView> = views[1..].iter().collect();
    let t = Instant::now();
    let span = tracer.begin("samples");
    let (samples, radius) =
        TrainedAttack::prepare_samples(&cfg, &training, None).map_err(|e| e.to_string())?;
    tracer.end(span);
    times.extract_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let span = tracer.begin("binned");
    let model = TrainedAttack::from_samples(&cfg, samples, radius, TrainOptions::default())
        .map_err(|e| e.to_string())?;
    tracer.end(span);
    times.fit_s = t.elapsed().as_secs_f64();
    Ok(model)
}

/// Runs `set_up` [`SETUPS`] times, checks that every result has the
/// first one's `key`, records the median of each layer's time, and
/// returns the last result. Each earlier result is handed to `retire`
/// before the next set-up starts, so no two are live at once.
///
/// # Errors
///
/// Returns the first set-up or retire error.
pub fn repeat_setup<T, K: PartialEq>(
    out: &mut Outcome,
    mut set_up: impl FnMut() -> Result<(T, SetupTimes), String>,
    key: impl Fn(&T) -> K,
    mut retire: impl FnMut(T) -> Result<(), String>,
) -> Result<T, String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut first_key: Option<K> = None;
    let mut last: Option<T> = None;
    for _ in 0..SETUPS {
        if let Some(previous) = last.take() {
            retire(previous)?;
        }
        let t = Instant::now();
        let (value, mut layer_times) = set_up()?;
        layer_times.total_s = t.elapsed().as_secs_f64();
        eprintln!(
            "[benchmark] set-up {} of {SETUPS}: {:.3} s",
            times.len() + 1,
            layer_times.total_s
        );
        times.push(layer_times);
        let k = key(&value);
        match &first_key {
            None => first_key = Some(k),
            Some(f) => out.check(*f == k, || "set-ups produced different inputs".into()),
        }
        last = Some(value);
    }
    let med = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", med(|t| t.total_s));
    out.set("layout.generate_s", med(|t| t.generate_s));
    out.set("layout.split_s", med(|t| t.split_s));
    if times.iter().all(|t| t.fit_s > 0.0) {
        out.set("samples.extract_s", med(|t| t.extract_s));
        out.set("binned.fit_s", med(|t| t.fit_s));
    }
    Ok(last.expect("SETUPS is positive"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_reproduces_the_suite() {
        let scale = 0.02;
        let suite = Suite::ispd2011_like(scale).expect("valid scale");
        let layer = SplitLayer::new(8).expect("valid layer");
        let expected = suite.split_all(layer);
        let mut times = SetupTimes::default();
        let views = split_views(scale, 8, 0, &mut Tracer::new(false), &mut times)
            .expect("seeded suite generates");
        assert_eq!(views.len(), expected.len());
        for (a, b) in views.iter().zip(&expected) {
            assert_eq!(
                serde_json::to_string(a).expect("view serializes"),
                serde_json::to_string(b).expect("view serializes"),
                "{}",
                a.name
            );
        }
        let other = split_views(scale, 8, 1, &mut Tracer::new(false), &mut times)
            .expect("seeded suite generates");
        assert_ne!(
            serde_json::to_string(&other[0]).expect("view serializes"),
            serde_json::to_string(&expected[0]).expect("view serializes"),
            "another seed must give another layout"
        );
    }
}
