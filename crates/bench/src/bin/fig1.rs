//! E2 — Fig. 1: the attack graph.
//!
//! Builds the sampled connection graph (mass scanner star A, secondary
//! scanner C, legitimate traffic D, and the two-edge real attack B), lays
//! it out with multilevel Yifan Hu, checks the structural story, and
//! exports DOT + SVG.

use bench::{artifact_dir, banner, compare, write_artifact};
use scenario::background::{fig1_flows, Fig1Config};
use simnet::rng::SimRng;
use vizgraph::{
    annotate_scanners, graph_from_flows, hub_dominance, layout, to_dot, to_svg, top_hubs,
    DotOptions, LayoutConfig, NodeGroup, SvgOptions,
};

fn main() {
    banner("Fig. 1: attack graph (E2)");
    let mut rng = SimRng::seed(20_240_801);
    let (flows, gt) = fig1_flows(&Fig1Config::default(), &mut rng);
    println!("flows sampled: {}", flows.len());

    let mut graph = graph_from_flows(&flows, |a| {
        simnet::addr::ncsa_production().contains(a) || simnet::addr::ncsa_secondary().contains(a)
    });
    compare("graph nodes", graph.node_count() as f64, 29_075.0);
    compare("graph edges", graph.edge_count() as f64, 27_336.0);

    // Annotation: scanners structurally, attacker/targets from detector
    // ground truth (the paper's manual cross-examination).
    let n_scanners = annotate_scanners(&mut graph, 20.0);
    graph.annotate(&gt.attacker.to_string(), NodeGroup::Attacker);
    for t in &gt.targets {
        graph.annotate(&t.to_string(), NodeGroup::Target);
    }
    println!("structural scanners annotated: {n_scanners}");
    println!("hub dominance: {:.3}", hub_dominance(&graph));
    for h in top_hubs(&graph, 3) {
        println!("  hub {:<18} degree {}", h.label, h.degree);
    }
    let attacker_id = graph
        .id_of(&gt.attacker.to_string())
        .expect("attacker present");
    println!(
        "real attack: {} -> 2 internal targets (degree {})",
        gt.attacker,
        graph.degree(attacker_id)
    );
    assert_eq!(
        graph.degree(attacker_id),
        2,
        "part B is exactly two connections"
    );

    let t0 = std::time::Instant::now();
    let (positions, stats) = layout(
        &graph,
        &LayoutConfig {
            max_iters: 60,
            ..Default::default()
        },
    );
    let elapsed = t0.elapsed();
    println!(
        "layout: levels={} iterations={} converged={} elapsed={:?}",
        stats.levels, stats.total_iterations, stats.converged, elapsed
    );

    // Structural check: the scanner star is tight around its hub compared
    // with the diffuse legit cloud (Fig. 1's visual contrast).
    let scanner_id = graph
        .id_of(&gt.mass_scanner.to_string())
        .expect("scanner present");
    let (sx, sy) = positions[scanner_id as usize];
    let mut star_d = Vec::new();
    for (i, n) in graph.nodes().iter().enumerate() {
        if n.group == NodeGroup::Internal && graph.neighbors(scanner_id).contains(&(i as u32)) {
            let (x, y) = positions[i];
            star_d.push(((x - sx).powi(2) + (y - sy).powi(2)).sqrt());
        }
    }
    let star_mean = star_d.iter().sum::<f64>() / star_d.len().max(1) as f64;
    println!("mean scanner-to-target distance: {star_mean:.2} (tight star)");

    let dir = artifact_dir();
    let dot = to_dot(&graph, &DotOptions::default());
    std::fs::write(dir.join("fig1.dot"), &dot).expect("write dot");
    let svg = to_svg(&graph, &positions, &SvgOptions::default());
    std::fs::write(dir.join("fig1.svg"), &svg).expect("write svg");
    println!("wrote target/experiments/fig1.dot and fig1.svg");

    write_artifact(
        "fig1",
        &serde_json::json!({
            "nodes": graph.node_count(),
            "edges": graph.edge_count(),
            "paper": {"nodes": 29_075, "edges": 27_336},
            "mass_scanner": gt.mass_scanner.to_string(),
            "mass_scanner_degree": graph.degree(scanner_id),
            "attacker": gt.attacker.to_string(),
            "attack_edges": 2,
            "hub_dominance": hub_dominance(&graph),
            "layout_iterations": stats.total_iterations,
            "layout_levels": stats.levels,
        }),
    );
}
