//! Layout benchmarks + the Barnes–Hut θ ablation (README "Ablations":
//! quadtree vs naive O(n²), sequential vs parallel).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simnet::rng::SimRng;
use std::hint::black_box;
use vizgraph::{layout, Body, Graph, LayoutConfig, NodeGroup, QuadTree};

fn star_graph(leaves: usize) -> Graph {
    let mut g = Graph::new();
    let hub = g.add_node("hub", NodeGroup::MassScanner);
    for i in 0..leaves {
        let l = g.add_node(format!("l{i}"), NodeGroup::Internal);
        g.add_edge(hub, l);
    }
    g
}

fn random_bodies(n: usize) -> Vec<Body> {
    let mut rng = SimRng::seed(1);
    (0..n)
        .map(|_| Body {
            x: rng.uniform(-100.0, 100.0),
            y: rng.uniform(-100.0, 100.0),
            mass: 1.0,
        })
        .collect()
}

fn bench_quadtree_theta(c: &mut Criterion) {
    let bodies = random_bodies(5_000);
    let tree = QuadTree::build(&bodies);
    let kernel = |d: f64, m: f64| m * 100.0 / d;
    let mut group = c.benchmark_group("repulsion_5k_bodies");
    for theta in [0.0, 0.5, 0.9, 1.2] {
        group.bench_with_input(
            BenchmarkId::new("barnes_hut", theta),
            &theta,
            |b, &theta| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for body in bodies.iter().step_by(50) {
                        let (fx, fy) = tree.force_at(body.x, body.y, theta, -1, &kernel);
                        acc += fx + fy;
                    }
                    black_box(acc)
                })
            },
        );
    }
    group.bench_function("naive_exact", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for body in bodies.iter().step_by(50) {
                let (fx, fy) = QuadTree::force_exact(&bodies, body.x, body.y, -1, &kernel);
                acc += fx + fy;
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_layout_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("layout_star");
    group.sample_size(10);
    for n in [500usize, 2_000, 8_000] {
        let g = star_graph(n);
        group.bench_with_input(BenchmarkId::new("parallel", n), &g, |b, g| {
            b.iter(|| {
                let cfg = LayoutConfig {
                    max_iters: 10,
                    parallel: true,
                    ..Default::default()
                };
                black_box(layout(g, &cfg))
            })
        });
        group.bench_with_input(BenchmarkId::new("sequential", n), &g, |b, g| {
            b.iter(|| {
                let cfg = LayoutConfig {
                    max_iters: 10,
                    parallel: false,
                    ..Default::default()
                };
                black_box(layout(g, &cfg))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_quadtree_theta, bench_layout_scaling);
criterion_main!(benches);
