//! Yifan Hu force-directed layout.
//!
//! The paper renders Fig. 1 with Gephi, whose default large-graph layout
//! is Yifan Hu's multilevel force-directed algorithm (the paper's ref \[4\]:
//! "Efficient, high-quality force-directed graph drawing"). We implement
//! the full scheme:
//!
//! - attractive force along edges `f_a(d) = d²/K`,
//! - repulsive force between all pairs `f_r(d) = -C·K²/d`, approximated
//!   with a Barnes–Hut quadtree,
//! - adaptive step control (cooling with progress detection),
//! - multilevel coarsening by greedy heavy-edge matching, laying out the
//!   coarse graph first and interpolating positions back up.
//!
//! Per-iteration force accumulation is data-parallel over nodes (rayon).

use rayon::prelude::*;
use simnet::rng::SimRng;

use crate::graph::Graph;
use crate::quadtree::{Body, QuadTree};

/// Layout parameters.
#[derive(Debug, Clone)]
pub struct LayoutConfig {
    /// Optimal edge length K.
    pub k: f64,
    /// Relative repulsion strength C.
    pub c: f64,
    /// Barnes–Hut opening parameter θ (0 = exact).
    pub theta: f64,
    /// Iterations per level.
    pub max_iters: usize,
    /// Convergence: stop when max displacement < tol·K.
    pub tolerance: f64,
    /// Initial step length (relative to K).
    pub initial_step: f64,
    /// Multilevel: coarsen until below this size.
    pub coarsest_size: usize,
    /// Use rayon for force accumulation.
    pub parallel: bool,
    /// RNG seed for initial placement.
    pub seed: u64,
}

impl Default for LayoutConfig {
    fn default() -> Self {
        LayoutConfig {
            k: 1.0,
            c: 0.2,
            theta: 0.9,
            max_iters: 120,
            tolerance: 0.01,
            initial_step: 0.1,
            coarsest_size: 64,
            parallel: true,
            seed: 1,
        }
    }
}

/// Node positions, indexed like the graph's nodes.
pub type Positions = Vec<(f64, f64)>;

/// Statistics of a layout run.
#[derive(Debug, Clone, Default)]
pub struct LayoutStats {
    pub levels: usize,
    pub total_iterations: usize,
    pub converged: bool,
}

/// A coarsened level: mapping fine-node → coarse-node.
struct Level {
    /// Coarse adjacency with edge weights.
    adjacency: Vec<Vec<(u32, f64)>>,
    /// Node weights (number of fine nodes merged).
    weights: Vec<f64>,
    /// fine → coarse mapping (len = finer level size).
    mapping: Vec<u32>,
}

/// Coarsen one level by greedy heavy-edge matching.
fn coarsen(adjacency: &[Vec<(u32, f64)>], weights: &[f64]) -> Option<Level> {
    let n = adjacency.len();
    let mut matched = vec![u32::MAX; n];
    let mut coarse_count = 0u32;
    // Visit nodes in order; match each unmatched node with its
    // heaviest-edge unmatched neighbor.
    for u in 0..n {
        if matched[u] != u32::MAX {
            continue;
        }
        let mut best: Option<(u32, f64)> = None;
        for &(v, w) in &adjacency[u] {
            if matched[v as usize] == u32::MAX
                && v as usize != u
                && best.is_none_or(|(_, bw)| w > bw)
            {
                best = Some((v, w));
            }
        }
        let cid = coarse_count;
        coarse_count += 1;
        matched[u] = cid;
        if let Some((v, _)) = best {
            matched[v as usize] = cid;
        }
    }
    // Star-like graphs barely coarsen (leaves cannot match once the hub is
    // taken). Demand a real reduction, or multilevel degenerates into O(n)
    // levels of O(n) memory each.
    if coarse_count as usize >= (n * 9) / 10 {
        return None;
    }
    let mut coarse_adj: Vec<Vec<(u32, f64)>> = vec![Vec::new(); coarse_count as usize];
    let mut coarse_w = vec![0.0f64; coarse_count as usize];
    for u in 0..n {
        coarse_w[matched[u] as usize] += weights[u];
        for &(v, w) in &adjacency[u] {
            let (cu, cv) = (matched[u], matched[v as usize]);
            if cu == cv {
                continue;
            }
            match coarse_adj[cu as usize].iter_mut().find(|(x, _)| *x == cv) {
                Some((_, acc)) => *acc += w,
                None => coarse_adj[cu as usize].push((cv, w)),
            }
        }
    }
    Some(Level {
        adjacency: coarse_adj,
        weights: coarse_w,
        mapping: matched,
    })
}

/// One force-directed refinement pass on an abstract weighted graph.
#[allow(clippy::too_many_arguments)]
fn refine(
    adjacency: &[Vec<(u32, f64)>],
    weights: &[f64],
    positions: &mut Positions,
    cfg: &LayoutConfig,
    stats: &mut LayoutStats,
) {
    let n = adjacency.len();
    if n <= 1 {
        return;
    }
    let k = cfg.k;
    let c = cfg.c;
    let mut step = cfg.initial_step * k * (n as f64).sqrt();
    let mut progress = 0u32;
    let mut last_energy = f64::INFINITY;
    let repulse = move |d: f64, m: f64| c * m * k * k / d;

    for _ in 0..cfg.max_iters {
        stats.total_iterations += 1;
        let bodies: Vec<Body> = positions
            .iter()
            .zip(weights)
            .map(|(&(x, y), &m)| Body { x, y, mass: m })
            .collect();
        let tree = QuadTree::build(&bodies);

        let compute = |i: usize| -> (f64, f64) {
            let (x, y) = positions[i];
            let (mut fx, mut fy) = tree.force_at(x, y, cfg.theta, i as i32, &repulse);
            for &(j, w) in &adjacency[i] {
                let (jx, jy) = positions[j as usize];
                let dx = jx - x;
                let dy = jy - y;
                let d = (dx * dx + dy * dy).sqrt().max(1e-9);
                // Attractive: d²/K, scaled by edge weight.
                let f = w * d * d / k;
                fx += f * dx / d;
                fy += f * dy / d;
            }
            (fx, fy)
        };
        let forces: Vec<(f64, f64)> = if cfg.parallel {
            (0..n).into_par_iter().map(compute).collect()
        } else {
            (0..n).map(compute).collect()
        };

        let mut energy = 0.0;
        let mut max_move = 0.0f64;
        for (i, &(fx, fy)) in forces.iter().enumerate() {
            let mag = (fx * fx + fy * fy).sqrt();
            energy += mag * mag;
            if mag > 1e-12 {
                let mv = step.min(mag);
                positions[i].0 += fx / mag * mv;
                positions[i].1 += fy / mag * mv;
                max_move = max_move.max(mv);
            }
        }
        // Adaptive step (Yifan Hu's cooling with progress detection).
        if energy < last_energy {
            progress += 1;
            if progress >= 5 {
                progress = 0;
                step /= 0.9; // speed up
            }
        } else {
            progress = 0;
            step *= 0.9; // cool down
        }
        last_energy = energy;
        if max_move < cfg.tolerance * k {
            stats.converged = true;
            break;
        }
    }
}

/// Lay out a graph. Returns positions (indexed by node id) and stats.
pub fn layout(graph: &Graph, cfg: &LayoutConfig) -> (Positions, LayoutStats) {
    let n = graph.node_count();
    let mut stats = LayoutStats::default();
    if n == 0 {
        return (Vec::new(), stats);
    }
    // Build the level-0 weighted adjacency.
    let mut adjacency: Vec<Vec<(u32, f64)>> = Vec::with_capacity(n);
    for i in 0..n as u32 {
        adjacency.push(graph.neighbors(i).iter().map(|&j| (j, 1.0)).collect());
    }
    let weights = vec![1.0f64; n];

    // Multilevel coarsening.
    let mut levels: Vec<Level> = Vec::new();
    {
        let mut cur_adj = &adjacency;
        let mut cur_w = &weights;
        while cur_adj.len() > cfg.coarsest_size {
            match coarsen(cur_adj, cur_w) {
                Some(level) => {
                    levels.push(level);
                    let l = levels.last().expect("just pushed");
                    cur_adj = &l.adjacency;
                    cur_w = &l.weights;
                }
                None => break,
            }
        }
    }
    stats.levels = levels.len() + 1;

    // Initial placement at the coarsest level.
    let mut rng = SimRng::seed(cfg.seed);
    let coarsest_n = levels.last().map_or(n, |l| l.adjacency.len());
    let spread = cfg.k * (coarsest_n as f64).sqrt();
    let mut positions: Positions = (0..coarsest_n)
        .map(|_| (rng.uniform(-spread, spread), rng.uniform(-spread, spread)))
        .collect();

    // Refine coarsest, then interpolate down.
    if let Some(last) = levels.last() {
        refine(
            &last.adjacency,
            &last.weights,
            &mut positions,
            cfg,
            &mut stats,
        );
    }
    for li in (0..levels.len()).rev() {
        // Expand positions from level li to the finer level (li-1 or 0).
        let mapping = &levels[li].mapping;
        let finer_n = mapping.len();
        let mut finer: Positions = Vec::with_capacity(finer_n);
        let mut rng_jitter = SimRng::seed(cfg.seed ^ (li as u64 + 1));
        for u in 0..finer_n {
            let (x, y) = positions[mapping[u] as usize];
            finer.push((
                x + rng_jitter.uniform(-0.05, 0.05) * cfg.k,
                y + rng_jitter.uniform(-0.05, 0.05) * cfg.k,
            ));
        }
        positions = finer;
        if li == 0 {
            refine(&adjacency, &weights, &mut positions, cfg, &mut stats);
        } else {
            let l = &levels[li - 1];
            refine(&l.adjacency, &l.weights, &mut positions, cfg, &mut stats);
        }
    }
    if levels.is_empty() {
        refine(&adjacency, &weights, &mut positions, cfg, &mut stats);
    }
    (positions, stats)
}

/// Mean edge-length to K ratio — a layout quality metric (≈1 is ideal for
/// uniformly weighted edges).
pub fn mean_edge_length(graph: &Graph, positions: &Positions) -> f64 {
    if graph.edge_count() == 0 {
        return 0.0;
    }
    let sum: f64 = graph
        .edges()
        .iter()
        .map(|&(a, b)| {
            let (ax, ay) = positions[a as usize];
            let (bx, by) = positions[b as usize];
            ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt()
        })
        .sum();
    sum / graph.edge_count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeGroup;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new();
        let ids: Vec<u32> = (0..n)
            .map(|i| g.add_node(format!("n{i}"), NodeGroup::Internal))
            .collect();
        for w in ids.windows(2) {
            g.add_edge(w[0], w[1]);
        }
        g
    }

    fn star_graph(leaves: usize) -> Graph {
        let mut g = Graph::new();
        let hub = g.add_node("hub", NodeGroup::MassScanner);
        for i in 0..leaves {
            let l = g.add_node(format!("leaf{i}"), NodeGroup::Internal);
            g.add_edge(hub, l);
        }
        g
    }

    fn dist(a: (f64, f64), b: (f64, f64)) -> f64 {
        ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
    }

    #[test]
    fn connected_nodes_end_up_closer_than_random_pairs() {
        let g = path_graph(40);
        let cfg = LayoutConfig {
            parallel: false,
            ..Default::default()
        };
        let (pos, _) = layout(&g, &cfg);
        let mean_edge = mean_edge_length(&g, &pos);
        // Mean distance between far-apart path nodes:
        let far = dist(pos[0], pos[39]);
        assert!(
            far > 3.0 * mean_edge,
            "path endpoints spread out: {far} vs {mean_edge}"
        );
    }

    #[test]
    fn star_hub_is_central() {
        let g = star_graph(60);
        let cfg = LayoutConfig {
            parallel: false,
            seed: 3,
            ..Default::default()
        };
        let (pos, _) = layout(&g, &cfg);
        // The hub should sit near the leaves' centroid — the visual
        // signature of the Fig. 1 mass scanner.
        let (mut cx, mut cy) = (0.0, 0.0);
        for p in &pos[1..] {
            cx += p.0;
            cy += p.1;
        }
        cx /= (pos.len() - 1) as f64;
        cy /= (pos.len() - 1) as f64;
        let hub_to_centroid = dist(pos[0], (cx, cy));
        let mean_leaf_dist: f64 =
            pos[1..].iter().map(|&p| dist(p, (cx, cy))).sum::<f64>() / (pos.len() - 1) as f64;
        assert!(
            hub_to_centroid < 0.5 * mean_leaf_dist,
            "hub {hub_to_centroid} vs leaf ring {mean_leaf_dist}"
        );
    }

    #[test]
    fn multilevel_kicks_in_for_larger_graphs() {
        let g = path_graph(500);
        let cfg = LayoutConfig {
            parallel: false,
            max_iters: 30,
            ..Default::default()
        };
        let (_, stats) = layout(&g, &cfg);
        assert!(
            stats.levels > 1,
            "expected coarsening, got {} levels",
            stats.levels
        );
    }

    #[test]
    fn parallel_and_sequential_agree() {
        // Same seed → same deterministic force sums (rayon only changes
        // evaluation order of an identical pure map).
        let g = star_graph(50);
        let seq = layout(
            &g,
            &LayoutConfig {
                parallel: false,
                ..Default::default()
            },
        )
        .0;
        let par = layout(
            &g,
            &LayoutConfig {
                parallel: true,
                ..Default::default()
            },
        )
        .0;
        for (a, b) in seq.iter().zip(&par) {
            assert!((a.0 - b.0).abs() < 1e-9 && (a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_and_single_node() {
        let g = Graph::new();
        let (pos, _) = layout(&g, &LayoutConfig::default());
        assert!(pos.is_empty());
        let mut g1 = Graph::new();
        g1.add_node("only", NodeGroup::Internal);
        let (pos, _) = layout(
            &g1,
            &LayoutConfig {
                parallel: false,
                ..Default::default()
            },
        );
        assert_eq!(pos.len(), 1);
        assert!(pos[0].0.is_finite());
    }

    #[test]
    fn coarsening_halves_path() {
        let adjacency: Vec<Vec<(u32, f64)>> = (0..10u32)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push((i - 1, 1.0));
                }
                if i < 9 {
                    v.push((i + 1, 1.0));
                }
                v
            })
            .collect();
        let weights = vec![1.0; 10];
        let level = coarsen(&adjacency, &weights).expect("path must coarsen");
        assert_eq!(level.adjacency.len(), 5);
        assert_eq!(level.mapping.len(), 10);
        let total_weight: f64 = level.weights.iter().sum();
        assert!((total_weight - 10.0).abs() < 1e-12, "mass conserved");
    }
}
