//! Criterion micro-benchmarks backing Table IV's runtime column: training
//! and scoring cost of the attack configurations per split layer, and the
//! scalability gap between `ML` (all pairs) and `Imp` (neighborhood).
//!
//! Run with `cargo bench -p sm-bench --bench attack_runtime`. Uses a small
//! suite scale so a full criterion pass stays in minutes; the harness
//! binaries measure the full-size runtimes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sm_attack::attack::{AttackConfig, ScoreOptions, TrainedAttack};
use sm_attack::oracle;
use sm_attack::Parallelism;
use sm_layout::{SplitLayer, SplitView, Suite};

const BENCH_SCALE: f64 = 0.1;

fn views_at(suite: &Suite, layer: u8) -> Vec<SplitView> {
    suite.split_all(SplitLayer::new(layer).expect("valid layer"))
}

fn bench_training(c: &mut Criterion) {
    let suite = Suite::ispd2011_like(BENCH_SCALE).expect("suite");
    let mut group = c.benchmark_group("train");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for layer in [8u8, 6] {
        let views = views_at(&suite, layer);
        let train: Vec<&SplitView> = views[1..].iter().collect();
        for config in [
            AttackConfig::ml9(),
            AttackConfig::imp9(),
            AttackConfig::imp11(),
        ] {
            group.bench_with_input(
                BenchmarkId::new(config.name.clone(), format!("layer{layer}")),
                &config,
                |b, cfg| {
                    b.iter(|| TrainedAttack::train(cfg, &train, None).expect("train"));
                },
            );
        }
    }
    group.finish();
}

fn bench_scoring(c: &mut Criterion) {
    let suite = Suite::ispd2011_like(BENCH_SCALE).expect("suite");
    let mut group = c.benchmark_group("score");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for layer in [8u8, 6] {
        let views = views_at(&suite, layer);
        let train: Vec<&SplitView> = views[1..].iter().collect();
        for config in [AttackConfig::ml9(), AttackConfig::imp9()] {
            let model = TrainedAttack::train(&config, &train, None).expect("train");
            group.bench_with_input(
                BenchmarkId::new(config.name.clone(), format!("layer{layer}")),
                &model,
                |b, m| {
                    b.iter(|| m.score(&views[0], &ScoreOptions::default()));
                },
            );
        }
    }
    group.finish();
}

fn bench_y_limit_speedup(c: &mut Criterion) {
    // Table IV notes the Y variants roughly halve layer-8 runtime; here the
    // effect is much larger because same-track pools are enumerated
    // directly.
    let suite = Suite::ispd2011_like(BENCH_SCALE).expect("suite");
    let views = views_at(&suite, 8);
    let train: Vec<&SplitView> = views[1..].iter().collect();
    let mut group = c.benchmark_group("y_limit");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for config in [AttackConfig::imp9(), AttackConfig::imp9().with_y_limit()] {
        let model = TrainedAttack::train(&config, &train, None).expect("train");
        group.bench_with_input(BenchmarkId::from_parameter(&config.name), &model, |b, m| {
            b.iter(|| m.score(&views[0], &ScoreOptions::default()));
        });
    }
    group.finish();
}

fn bench_scoring_kernels(c: &mut Criterion) {
    // The shipped path (spatial queries, flattened ensemble + SoA
    // features, batched) vs the brute-force oracle — same model, same
    // design, bit-identical output.
    // The `BENCH_attack.json` emitter reports the same comparison
    // end-to-end; this group tracks it with criterion statistics.
    let suite = Suite::ispd2011_like(BENCH_SCALE).expect("suite");
    let views = views_at(&suite, 8);
    let train: Vec<&SplitView> = views[1..].iter().collect();
    let mut group = c.benchmark_group("scoring_kernels");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for config in [AttackConfig::ml9(), AttackConfig::imp9()] {
        let model = TrainedAttack::train(&config, &train, None).expect("train");
        let opts = ScoreOptions {
            parallelism: Parallelism::Sequential,
            ..ScoreOptions::default()
        };
        group.bench_with_input(
            BenchmarkId::new(config.name.clone(), "compiled"),
            &opts,
            |b, o| {
                b.iter(|| model.score(&views[0], o));
            },
        );
        group.bench_with_input(
            BenchmarkId::new(config.name.clone(), "reference"),
            &opts,
            |b, o| {
                b.iter(|| oracle::score(&model, &views[0], o));
            },
        );
    }
    group.finish();
}

fn bench_parallel_scaling(c: &mut Criterion) {
    // The deterministic parallel layer: identical results at every
    // setting, so this group measures pure wall-clock scaling of pair
    // scoring with worker count (the CHANGES.md speedup figure).
    let suite = Suite::ispd2011_like(BENCH_SCALE).expect("suite");
    let views = views_at(&suite, 6);
    let train: Vec<&SplitView> = views[1..].iter().collect();
    let model = TrainedAttack::train(&AttackConfig::imp9(), &train, None).expect("train");
    let mut group = c.benchmark_group("parallel_score");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(3));
    for (label, par) in [
        ("seq", Parallelism::Sequential),
        ("t2", Parallelism::Threads(2)),
        ("t4", Parallelism::Threads(4)),
    ] {
        let opts = ScoreOptions {
            parallelism: par,
            ..ScoreOptions::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), &opts, |b, o| {
            b.iter(|| model.score(&views[0], o));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_training,
    bench_scoring,
    bench_scoring_kernels,
    bench_y_limit_speedup,
    bench_parallel_scaling
);
criterion_main!(benches);
