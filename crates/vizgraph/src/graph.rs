//! The visualization graph.
//!
//! Fig. 1's graph is built from connection records: nodes are IP-address
//! endpoints (annotated with their role, once known) and edges are
//! observed connections. Parallel edges collapse; the paper's graph has
//! 29,075 nodes and 27,336 edges for ~27 K sampled connections.

use std::net::Ipv4Addr;

use simnet::flow::Flow;
use simnet::rng::{FxHashMap, FxHashSet};

/// Role annotation for rendering (the manual annotation of Fig. 1 is done
/// by cross-examining detector ground truth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeGroup {
    /// The dominant mass scanner (Fig. 1-A).
    MassScanner,
    /// A smaller scanner (Fig. 1-C).
    Scanner,
    /// The real attacker (Fig. 1-B, red).
    Attacker,
    /// Internal target of the real attack (blue).
    Target,
    /// Other internal endpoint.
    Internal,
    /// Other external endpoint.
    External,
}

/// A node.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub label: String,
    pub group: NodeGroup,
}

/// An undirected-for-layout, directed-for-export graph.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    /// Directed edges (src, dst), deduplicated.
    edges: Vec<(u32, u32)>,
    by_label: FxHashMap<String, u32>,
    /// Undirected adjacency for layout.
    adjacency: Vec<Vec<u32>>,
    edge_set: FxHashSet<(u32, u32)>,
}

impl Graph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or get) a node by label.
    pub fn add_node(&mut self, label: impl Into<String>, group: NodeGroup) -> u32 {
        let label = label.into();
        if let Some(&id) = self.by_label.get(&label) {
            return id;
        }
        let id = self.nodes.len() as u32;
        self.by_label.insert(label.clone(), id);
        self.nodes.push(Node { label, group });
        self.adjacency.push(Vec::new());
        id
    }

    /// Upgrade a node's group (annotation pass).
    pub fn annotate(&mut self, label: &str, group: NodeGroup) -> bool {
        match self.by_label.get(label) {
            Some(&id) => {
                self.nodes[id as usize].group = group;
                true
            }
            None => false,
        }
    }

    /// Add a directed edge, deduplicating repeats. A reverse-direction
    /// duplicate is recorded as a new directed edge but does not duplicate
    /// the undirected layout adjacency.
    pub fn add_edge(&mut self, src: u32, dst: u32) -> bool {
        if src == dst {
            return false;
        }
        if !self.edge_set.insert((src, dst)) {
            return false;
        }
        self.edges.push((src, dst));
        if !self.edge_set.contains(&(dst, src)) {
            self.adjacency[src as usize].push(dst);
            self.adjacency[dst as usize].push(src);
        }
        true
    }

    pub fn node(&self, id: u32) -> &Node {
        &self.nodes[id as usize]
    }

    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    pub fn neighbors(&self, id: u32) -> &[u32] {
        &self.adjacency[id as usize]
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    pub fn degree(&self, id: u32) -> usize {
        self.adjacency[id as usize].len()
    }

    pub fn id_of(&self, label: &str) -> Option<u32> {
        self.by_label.get(label).copied()
    }
}

/// Build a graph from flows, labelling nodes by address. `internal_is` is
/// used to split unannotated endpoints into internal/external groups.
pub fn graph_from_flows(flows: &[Flow], internal_is: impl Fn(Ipv4Addr) -> bool) -> Graph {
    let mut g = Graph::new();
    for f in flows {
        let sg = if internal_is(f.src) {
            NodeGroup::Internal
        } else {
            NodeGroup::External
        };
        let dg = if internal_is(f.dst) {
            NodeGroup::Internal
        } else {
            NodeGroup::External
        };
        let s = g.add_node(f.src.to_string(), sg);
        let d = g.add_node(f.dst.to_string(), dg);
        g.add_edge(s, d);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::flow::FlowId;
    use simnet::time::SimTime;

    #[test]
    fn dedup_nodes_and_edges() {
        let mut g = Graph::new();
        let a = g.add_node("a", NodeGroup::External);
        let b = g.add_node("b", NodeGroup::Internal);
        let a2 = g.add_node("a", NodeGroup::External);
        assert_eq!(a, a2);
        assert!(g.add_edge(a, b));
        assert!(!g.add_edge(a, b), "duplicate edge rejected");
        assert!(!g.add_edge(a, a), "self loop rejected");
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(a), 1);
    }

    #[test]
    fn reverse_direction_is_a_new_edge_but_not_new_adjacency() {
        let mut g = Graph::new();
        let a = g.add_node("a", NodeGroup::External);
        let b = g.add_node("b", NodeGroup::Internal);
        g.add_edge(a, b);
        assert!(g.add_edge(b, a));
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(a), 1, "layout adjacency stays simple");
    }

    #[test]
    fn annotation() {
        let mut g = Graph::new();
        g.add_node("103.102.8.9", NodeGroup::External);
        assert!(g.annotate("103.102.8.9", NodeGroup::MassScanner));
        assert!(!g.annotate("1.2.3.4", NodeGroup::Scanner));
        assert_eq!(g.node(0).group, NodeGroup::MassScanner);
    }

    #[test]
    fn from_flows_builds_star() {
        let scanner: Ipv4Addr = "103.102.8.9".parse().unwrap();
        let flows: Vec<Flow> = (0..100)
            .map(|i| {
                Flow::probe(
                    FlowId(i),
                    SimTime::from_secs(i),
                    scanner,
                    format!("141.142.2.{}", i + 1).parse().unwrap(),
                    22,
                )
            })
            .collect();
        let g = graph_from_flows(&flows, |a| simnet::addr::ncsa_production().contains(a));
        assert_eq!(g.node_count(), 101);
        assert_eq!(g.edge_count(), 100);
        let sid = g.id_of(&scanner.to_string()).unwrap();
        assert_eq!(g.degree(sid), 100);
        assert_eq!(g.node(sid).group, NodeGroup::External);
    }
}
