//! Factor-graph inference benchmarks: chain filtering/Viterbi throughput
//! versus sequence length, generic BP on equivalent chain graphs, and the
//! seed-vs-optimized engine comparison on the skip-chain session
//! workload (the repo's first measured perf milestone, frozen in
//! `BENCH_1.json`; these benches still time the same workloads).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use detect::fg_session::{build_session_graph, SessionEngine, SessionGraphConfig};
use factorgraph::chain::{ChainGraphBuffer, ChainModel};
use factorgraph::sumproduct::{reference, run_in, BpOptions, BpSchedule, BpWorkspace};
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

/// A synthetic per-user session with recurring indicative kinds, so the
/// session graph carries skip factors and is loopy.
fn session_alerts(len: usize) -> Vec<alertlib::Alert> {
    use alertlib::{Alert, AlertKind, Entity};
    use simnet::time::SimTime;
    let indicative = [
        AlertKind::DownloadSensitive,
        AlertKind::CompileKernelModule,
        AlertKind::SshKeyEnumeration,
    ];
    (0..len)
        .map(|t| {
            let kind = if t % 5 == 2 {
                indicative[(t / 5) % indicative.len()]
            } else {
                AlertKind::from_index((t * 13) % alertlib::AlertKind::COUNT)
            };
            Alert::new(SimTime::from_secs(t as u64), kind, Entity::User("u".into()))
        })
        .collect()
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

fn bench_bp_vs_chain(c: &mut Criterion) {
    let m = model();
    let obs: Vec<usize> = (0..24).map(|i| (i * 13) % m.n_obs()).collect();
    let mut group = c.benchmark_group("bp_vs_exact_chain");
    group.bench_function("exact_forward_backward", |b| {
        b.iter(|| black_box(m.posteriors(&obs)))
    });
    group.bench_function("generic_bp_seed_rebuild", |b| {
        b.iter(|| {
            let g = m.to_factor_graph(&obs);
            black_box(reference::run(&g, &BpOptions::default()))
        })
    });
    group.bench_function("generic_bp_workspace_reuse", |b| {
        let mut buf = ChainGraphBuffer::new();
        let mut ws = BpWorkspace::default();
        b.iter(|| {
            m.fill_factor_graph(&obs, &mut buf);
            black_box(run_in(buf.graph(), &BpOptions::default(), &mut ws))
        })
    });
    group.finish();
}

fn bench_session_engine(c: &mut Criterion) {
    let tagger_model = detect::toy_training_model();
    let cfg = SessionGraphConfig::default();
    let mut group = c.benchmark_group("skip_chain_session");
    for len in [32usize, 128] {
        let alerts = session_alerts(len);
        let (graph, skips) = build_session_graph(&tagger_model, &alerts, &cfg);
        assert!(
            skips > 0,
            "workload must exercise the loopy skip-chain path"
        );
        let opts = BpOptions {
            max_iters: cfg.max_iters,
            damping: cfg.damping,
            tolerance: 1e-8,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("seed_flooding", len), &graph, |b, g| {
            b.iter(|| black_box(reference::run(g, &opts)))
        });
        group.bench_with_input(BenchmarkId::new("stride_workspace", len), &graph, |b, g| {
            let mut ws = BpWorkspace::new(g);
            b.iter(|| black_box(run_in(g, &opts, &mut ws)))
        });
        group.bench_with_input(
            BenchmarkId::new("stride_workspace_parallel", len),
            &graph,
            |b, g| {
                let mut ws = BpWorkspace::new(g);
                let par = BpOptions {
                    schedule: BpSchedule::ParallelFlood,
                    ..opts.clone()
                };
                b.iter(|| black_box(run_in(g, &par, &mut ws)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("stride_workspace_residual", len),
            &graph,
            |b, g| {
                let mut ws = BpWorkspace::new(g);
                let res = BpOptions {
                    schedule: BpSchedule::Residual,
                    ..opts.clone()
                };
                b.iter(|| black_box(run_in(g, &res, &mut ws)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("end_to_end_engine", len),
            &alerts,
            |b, a| {
                let mut engine = SessionEngine::new(tagger_model.clone(), cfg.clone());
                b.iter(|| black_box(engine.run(a)))
            },
        );
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

criterion_group!(
    benches,
    bench_chain,
    bench_bp_vs_chain,
    bench_session_engine,
    bench_online_step
);
criterion_main!(benches);
