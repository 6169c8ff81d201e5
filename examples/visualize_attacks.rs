//! Reproduce Fig. 1: build the connection graph (mass scanner star, a
//! smaller scanner, legitimate traffic, and the two-edge real attack), lay
//! it out with the Yifan Hu algorithm, and export DOT + SVG.
//!
//! ```text
//! cargo run --release --example visualize_attacks
//! ```
//! Outputs `fig1.dot` and `fig1.svg` in the workspace's `target/`, from
//! any working directory.

use attack_tagger::prelude::*;
use scenario::{fig1_flows, Fig1Config};
use vizgraph::{
    annotate_scanners, graph_from_flows, hub_dominance, layout, to_dot, to_svg, top_hubs,
    DotOptions, NodeGroup, SvgOptions,
};

fn main() {
    let mut rng = SimRng::seed(20_240_801);
    let (flows, gt) = fig1_flows(&Fig1Config::default(), &mut rng);
    println!("generated {} flows", flows.len());

    let mut graph = graph_from_flows(&flows, |a| {
        simnet::addr::ncsa_production().contains(a) || simnet::addr::ncsa_secondary().contains(a)
    });
    println!(
        "graph: {} nodes, {} edges (paper: 29,075 / 27,336)",
        graph.node_count(),
        graph.edge_count()
    );

    // Annotate: scanners structurally, attacker/targets from ground truth
    // (the paper annotates manually by cross-examining detector output).
    annotate_scanners(&mut graph, 20.0);
    graph.annotate(&gt.attacker.to_string(), NodeGroup::Attacker);
    for t in &gt.targets {
        graph.annotate(&t.to_string(), NodeGroup::Target);
    }

    println!("hub dominance: {:.2}", hub_dominance(&graph));
    for h in top_hubs(&graph, 3) {
        println!("  hub {} degree {}", h.label, h.degree);
    }

    let cfg = LayoutConfig {
        max_iters: 60,
        ..Default::default()
    };
    let t0 = std::time::Instant::now();
    let (positions, stats) = layout(&graph, &cfg);
    println!(
        "layout: {} levels, {} total iterations, converged={}, {:?}",
        stats.levels,
        stats.total_iterations,
        stats.converged,
        t0.elapsed()
    );

    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
    std::fs::create_dir_all(&out).expect("create target/");
    let dot = to_dot(&graph, &DotOptions::default());
    std::fs::write(out.join("fig1.dot"), &dot).expect("write dot");
    let svg = to_svg(&graph, &positions, &SvgOptions::default());
    std::fs::write(out.join("fig1.svg"), &svg).expect("write svg");
    println!("wrote target/fig1.dot ({} bytes)", dot.len());
    println!("wrote target/fig1.svg ({} bytes)", svg.len());

    // The structural story of Fig. 1 holds: the mass scanner is the
    // dominant hub, while the real attack is two low-degree edges.
    let scanner_id = graph.id_of(&gt.mass_scanner.to_string()).unwrap();
    let attacker_id = graph.id_of(&gt.attacker.to_string()).unwrap();
    assert!(graph.degree(scanner_id) > 5_000);
    assert_eq!(graph.degree(attacker_id), 2);
    println!("done.");
}
