//! Chain-inference benchmarks: filtering, Viterbi and smoothing
//! throughput versus sequence length on a detector-sized model, and the
//! online tagger's per-alert update.
//!
//! The general BP engine and the skip-chain session model these benches
//! once compared against are gone; `BENCH_1.json` keeps their
//! measurements as frozen history.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use factorgraph::chain::ChainModel;
use std::hint::black_box;

fn model() -> ChainModel {
    // Stage-count and alphabet comparable to the deployed detector.
    let s = detect::Stage::COUNT;
    let o = alertlib::AlertKind::COUNT;
    let mut learner = factorgraph::learn::ChainLearner::new(s, o, 0.1);
    // A few synthetic labeled sequences to make the tables non-uniform.
    for i in 0..10usize {
        let states: Vec<usize> = (0..s).collect();
        let obs: Vec<usize> = (0..s).map(|k| (k * 7 + i) % o).collect();
        learner.observe(&states, &obs);
    }
    learner.build()
}

fn bench_chain(c: &mut Criterion) {
    let m = model();
    let mut group = c.benchmark_group("chain_inference");
    for len in [4usize, 16, 64, 256] {
        let obs: Vec<usize> = (0..len).map(|i| (i * 13) % m.n_obs()).collect();
        group.bench_with_input(BenchmarkId::new("filter", len), &obs, |b, obs| {
            b.iter(|| black_box(m.filter(obs)))
        });
        group.bench_with_input(BenchmarkId::new("viterbi", len), &obs, |b, obs| {
            b.iter(|| black_box(m.viterbi(obs)))
        });
        group.bench_with_input(BenchmarkId::new("posteriors", len), &obs, |b, obs| {
            b.iter(|| black_box(m.posteriors(obs)))
        });
    }
    group.finish();
}

fn bench_online_step(c: &mut Criterion) {
    use alertlib::{Alert, Entity};
    use detect::{AttackTagger, TaggerConfig};
    use simnet::time::SimTime;
    let tagger_model = detect::toy_training_model();
    c.bench_function("attack_tagger_observe", |b| {
        let mut tagger = AttackTagger::new(tagger_model.clone(), TaggerConfig::default());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let a = Alert::new(
                SimTime::from_secs(i),
                alertlib::AlertKind::from_index((i % 40) as usize),
                Entity::User(format!("u{}", i % 64).into()),
            );
            black_box(tagger.observe(&a))
        })
    });
}

criterion_group!(benches, bench_chain, bench_online_step);
criterion_main!(benches);
