//! Criterion benchmark for the training kernel: the binned (histogram
//! split-finding) tree fit versus the oracle's per-node scan on the same
//! synthetic sample set. The `bench_train` harness binary gates
//! CI on the real attack workload; this group tracks the kernel in
//! isolation across dataset sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sm_ml::{oracle, Bagging, Dataset, RepTreeLearner};

/// Synthetic pair-classification-like dataset: a distance-dominated signal
/// with noisy secondary features, similar in shape to the attack's samples.
fn training_set(n: usize) -> Dataset {
    let mut ds = Dataset::new(9);
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    for _ in 0..n {
        let label = rng.gen_bool(0.5);
        let d: f64 = if label {
            rng.gen_range(0.0..0.3)
        } else {
            rng.gen_range(0.1..1.0)
        };
        let mut x = vec![d, d * 0.6, d * 1.6];
        for _ in 0..6 {
            x.push(rng.gen_range(0.0..1.0) + if label { 0.05 } else { 0.0 });
        }
        ds.push(&x, label).expect("9 features");
    }
    ds
}

fn bench_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("training");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(5));
    for n in [2_000usize, 8_000] {
        let ds = training_set(n);
        group.bench_function(BenchmarkId::new("reference", n), |b| {
            let learner = oracle::RepTreeLearner::default();
            b.iter(|| Bagging::fit(&ds, &learner, 10, 1).expect("fit"));
        });
        group.bench_function(BenchmarkId::new("binned", n), |b| {
            let learner = RepTreeLearner::default();
            b.iter(|| Bagging::fit(&ds, &learner, 10, 1).expect("fit"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_training);
criterion_main!(benches);
