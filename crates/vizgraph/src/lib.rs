//! # vizgraph — attack graph visualization
//!
//! The Fig. 1 pipeline: build a connection graph from flows, lay it out
//! with Yifan Hu's multilevel force-directed algorithm (the paper's
//! ref \[4\], as used by Gephi), and export DOT (the paper's anonymized
//! `103.102. -> 141.142.` format) or SVG. Degree analytics surface the
//! mass scanner structurally.
//!
//! - [`graph`] — nodes/edges with role annotations.
//! - [`quadtree`] — Barnes–Hut approximation for repulsive forces.
//! - [`layout`](mod@layout) — multilevel Yifan Hu with adaptive cooling, parallel
//!   force accumulation (rayon).
//! - [`dot`] / [`svg`] — exporters (+ DOT parser).
//! - [`degree`] — hubs, histograms, structural scanner detection.

pub mod degree;
pub mod dot;
pub mod graph;
pub mod layout;
pub mod quadtree;
pub mod svg;

pub use degree::{
    annotate_scanners, degree_histogram, hub_dominance, structural_scanners, top_hubs, HubEntry,
};
pub use dot::{from_dot, to_dot, DotOptions};
pub use graph::{graph_from_flows, Graph, Node, NodeGroup};
pub use layout::{layout, mean_edge_length, LayoutConfig, LayoutStats, Positions};
pub use quadtree::{Body, QuadTree};
pub use svg::{to_svg, SvgOptions};
