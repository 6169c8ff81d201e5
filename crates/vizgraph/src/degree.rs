//! Degree analytics: finding the scanner in the haystack.
//!
//! Fig. 1's annotation ("the scanner is located at the center") falls out
//! of structure: the mass scanner is the extreme-degree hub; the real
//! attack is a low-degree node touching internal targets. These helpers
//! compute the supporting statistics.

use crate::graph::{Graph, NodeGroup};

/// A `(node, degree)` ranking entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HubEntry {
    pub node: u32,
    pub label: String,
    pub degree: usize,
}

/// Top-k nodes by degree, descending.
pub fn top_hubs(graph: &Graph, k: usize) -> Vec<HubEntry> {
    let mut entries: Vec<HubEntry> = (0..graph.node_count() as u32)
        .map(|i| HubEntry {
            node: i,
            label: graph.node(i).label.clone(),
            degree: graph.degree(i),
        })
        .collect();
    entries.sort_by(|a, b| b.degree.cmp(&a.degree).then_with(|| a.node.cmp(&b.node)));
    entries.truncate(k);
    entries
}

/// Degree distribution as `(degree, count)` pairs, ascending by degree.
pub fn degree_histogram(graph: &Graph) -> Vec<(usize, usize)> {
    let mut counts: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for i in 0..graph.node_count() as u32 {
        *counts.entry(graph.degree(i)).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

/// Gini-style hub dominance: fraction of all edge endpoints touching the
/// single largest hub. Near 0.5 for a pure star, near 0 for a random graph.
pub fn hub_dominance(graph: &Graph) -> f64 {
    if graph.edge_count() == 0 {
        return 0.0;
    }
    let max_degree = (0..graph.node_count() as u32)
        .map(|i| graph.degree(i))
        .max()
        .unwrap_or(0);
    max_degree as f64 / (2.0 * graph.edge_count() as f64)
}

/// Structural scanner detection: nodes whose degree exceeds
/// `threshold × mean_degree`. Returns them ranked.
pub fn structural_scanners(graph: &Graph, threshold: f64) -> Vec<HubEntry> {
    if graph.node_count() == 0 {
        return Vec::new();
    }
    let mean = 2.0 * graph.edge_count() as f64 / graph.node_count() as f64;
    top_hubs(graph, graph.node_count())
        .into_iter()
        .filter(|h| h.degree as f64 > threshold * mean.max(1e-9))
        .collect()
}

/// Auto-annotate a graph from structure: the top hub becomes
/// `MassScanner`, other high-degree sources become `Scanner`.
pub fn annotate_scanners(graph: &mut Graph, threshold: f64) -> usize {
    let scanners = structural_scanners(graph, threshold);
    let mut annotated = 0;
    for (rank, hub) in scanners.iter().enumerate() {
        let group = if rank == 0 {
            NodeGroup::MassScanner
        } else {
            NodeGroup::Scanner
        };
        let label = hub.label.clone();
        if graph.annotate(&label, group) {
            annotated += 1;
        }
    }
    annotated
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scanner_graph() -> Graph {
        let mut g = Graph::new();
        let hub = g.add_node("103.102.8.9", NodeGroup::External);
        for i in 0..200 {
            let t = g.add_node(format!("141.142.2.{i}"), NodeGroup::Internal);
            g.add_edge(hub, t);
        }
        // A small second scanner.
        let s2 = g.add_node("77.72.3.4", NodeGroup::External);
        for i in 0..30 {
            let t = g.add_node(format!("141.142.9.{i}"), NodeGroup::Internal);
            g.add_edge(s2, t);
        }
        // Legit pairs.
        for i in 0..50 {
            let a = g.add_node(format!("legit-a{i}"), NodeGroup::External);
            let b = g.add_node(format!("legit-b{i}"), NodeGroup::Internal);
            g.add_edge(a, b);
        }
        g
    }

    #[test]
    fn top_hub_is_the_mass_scanner() {
        let g = scanner_graph();
        let hubs = top_hubs(&g, 2);
        assert_eq!(hubs[0].label, "103.102.8.9");
        assert_eq!(hubs[0].degree, 200);
        assert_eq!(hubs[1].label, "77.72.3.4");
    }

    #[test]
    fn histogram_shape() {
        let g = scanner_graph();
        let hist = degree_histogram(&g);
        // Most nodes have degree 1 (scan targets + legit endpoints).
        let ones = hist.iter().find(|(d, _)| *d == 1).map(|(_, c)| *c).unwrap();
        assert!(ones > 300);
        assert!(hist.iter().any(|(d, _)| *d == 200));
    }

    #[test]
    fn dominance_reflects_star_weight() {
        let g = scanner_graph();
        let d = hub_dominance(&g);
        assert!(d > 0.3, "mass scanner dominates: {d}");
        let empty = Graph::new();
        assert_eq!(hub_dominance(&empty), 0.0);
    }

    #[test]
    fn auto_annotation_marks_scanners() {
        let mut g = scanner_graph();
        let n = annotate_scanners(&mut g, 5.0);
        assert_eq!(n, 2);
        let hub_id = g.id_of("103.102.8.9").unwrap();
        assert_eq!(g.node(hub_id).group, NodeGroup::MassScanner);
        let s2 = g.id_of("77.72.3.4").unwrap();
        assert_eq!(g.node(s2).group, NodeGroup::Scanner);
    }
}
