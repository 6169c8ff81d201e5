//! Sum-product belief propagation.
//!
//! The public entry points run on the stride/arena engine of
//! [`crate::engine`]: messages in flat `f64` arenas addressed by
//! precomputed edge offsets, factor marginalization by stride walks with
//! a pairwise matrix–vector specialization, and a [`BpWorkspace`] that
//! is built once per graph shape and reused across runs with zero
//! steady-state allocation. Three schedules are available via
//! [`BpOptions::schedule`]: serial flooding (default, exact on forests
//! after `diameter` iterations), a rayon-parallel flooding sweep that
//! computes identical messages, and a residual-priority schedule for
//! loopy session graphs.
//!
//! The seed implementation — per-edge `Vec<Vec<Vec<f64>>>` storage and an
//! odometer walk per factor table — is preserved unchanged in
//! [`reference`](mod@reference) as the baseline the benchmark suite and the equivalence
//! tests compare against.

use crate::factor::Factor;
use crate::graph::{FactorGraph, FactorId};
use crate::variable::VarId;

pub use crate::engine::{BpSchedule, BpStats, BpWorkspace};

/// Options for a BP run.
#[derive(Debug, Clone)]
pub struct BpOptions {
    /// Maximum flooding iterations (for the residual schedule, the
    /// equivalent factor-update budget `max_iters × num_factors`).
    pub max_iters: usize,
    /// Convergence threshold on the max absolute message change.
    pub tolerance: f64,
    /// Damping in `[0, 1)`: new = (1-d)*computed + d*old.
    pub damping: f64,
    /// Message-passing schedule.
    pub schedule: BpSchedule,
}

impl Default for BpOptions {
    fn default() -> Self {
        BpOptions {
            max_iters: 100,
            tolerance: 1e-9,
            damping: 0.0,
            schedule: BpSchedule::Flood,
        }
    }
}

/// Result of a BP run.
#[derive(Debug, Clone)]
pub struct BpResult {
    /// Per-variable normalized marginals, indexed by `VarId`.
    pub marginals: Vec<Vec<f64>>,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Whether the message updates converged below tolerance.
    pub converged: bool,
}

impl BpResult {
    /// Marginal distribution of one variable.
    pub fn marginal(&self, var: VarId) -> &[f64] {
        &self.marginals[var.0 as usize]
    }

    /// MAP estimate per variable from the marginals (max-marginal decoding).
    pub fn argmax(&self, var: VarId) -> usize {
        let m = self.marginal(var);
        let mut best = 0;
        for (i, &v) in m.iter().enumerate() {
            if v > m[best] {
                best = i;
            }
        }
        best
    }
}

/// Run sum-product BP and return per-variable marginals.
///
/// Convenience wrapper that builds a throwaway [`BpWorkspace`]; hot paths
/// should hold a workspace and call [`run_in`] to amortize construction
/// and reach the allocation-free steady state.
pub fn run(graph: &FactorGraph, opts: &BpOptions) -> BpResult {
    let mut ws = BpWorkspace::new(graph);
    let stats = run_in(graph, opts, &mut ws);
    BpResult {
        marginals: ws.marginals_vec(),
        iterations: stats.iterations,
        converged: stats.converged,
    }
}

/// Run sum-product BP inside a reusable workspace. Once the workspace has
/// seen this graph shape, serial-schedule runs perform no heap
/// allocation; read the marginals back through
/// [`BpWorkspace::marginal`].
pub fn run_in(graph: &FactorGraph, opts: &BpOptions, ws: &mut BpWorkspace) -> BpStats {
    ws.run::<false>(graph, opts)
}

/// Exact marginals by brute-force enumeration — O(∏ card). Testing and
/// validation utility; compare BP against this on small graphs.
pub fn brute_force_marginals(graph: &FactorGraph) -> Vec<Vec<f64>> {
    let cards: Vec<usize> = graph.variables().iter().map(|v| v.card).collect();
    let n = cards.len();
    let total: usize = cards.iter().product();
    let mut marginals: Vec<Vec<f64>> = cards.iter().map(|&c| vec![0.0; c]).collect();
    let mut assignment = vec![0usize; n];
    for _ in 0..total {
        let w = graph.joint_value(&assignment);
        for (vi, &val) in assignment.iter().enumerate() {
            marginals[vi][val] += w;
        }
        for d in (0..n).rev() {
            assignment[d] += 1;
            if assignment[d] < cards[d] {
                break;
            }
            assignment[d] = 0;
        }
    }
    for m in &mut marginals {
        normalize(m);
    }
    marginals
}

fn normalize(v: &mut [f64]) {
    let s: f64 = v.iter().sum();
    if s > 0.0 {
        for x in v.iter_mut() {
            *x /= s;
        }
    } else {
        let u = 1.0 / v.len() as f64;
        for x in v.iter_mut() {
            *x = u;
        }
    }
}

/// Evidence helper: returns a copy of the graph with `var = value` clamped
/// by appending an indicator factor.
pub fn with_evidence(graph: &FactorGraph, evidence: &[(VarId, usize)]) -> FactorGraph {
    let mut g = graph.clone();
    for &(var, value) in evidence {
        let card = graph.variable(var).card;
        let mut table = vec![0.0; card];
        table[value] = 1.0;
        g.add_factor(Factor::new(vec![var], vec![card], table));
    }
    g
}

/// Identify the factor most responsible for a variable's belief — a simple
/// explanation facility for operator-facing output.
pub fn dominant_factor(graph: &FactorGraph, result: &BpResult, var: VarId) -> Option<FactorId> {
    let best_state = result.argmax(var);
    graph.factors_of(var).iter().copied().max_by(|&a, &b| {
        let fa = factor_support(graph.factor(a), var, best_state);
        let fb = factor_support(graph.factor(b), var, best_state);
        fa.partial_cmp(&fb).unwrap_or(std::cmp::Ordering::Equal)
    })
}

fn factor_support(f: &Factor, var: VarId, state: usize) -> f64 {
    let reduced = f.reduce(var, state);
    let total: f64 = f.table().iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    reduced.table().iter().sum::<f64>() / total
}

/// The seed flooding implementation, kept verbatim as the measured
/// baseline: per-edge `Vec` message storage, per-call allocation, and an
/// odometer `assignment` vector walk over every factor table. Used by
/// `bench` for before/after comparisons and by the property tests as a
/// semantic reference.
pub mod reference {
    use super::{normalize, BpOptions, BpResult};
    use crate::graph::FactorGraph;
    use crate::variable::VarId;

    struct Messages {
        var_to_fac: Vec<Vec<Vec<f64>>>,
        fac_to_var: Vec<Vec<Vec<f64>>>,
    }

    impl Messages {
        fn new(graph: &FactorGraph) -> Messages {
            let mut var_to_fac = Vec::with_capacity(graph.num_factors());
            let mut fac_to_var = Vec::with_capacity(graph.num_factors());
            for f in graph.factors() {
                let slots: Vec<Vec<f64>> =
                    f.cards().iter().map(|&c| vec![1.0 / c as f64; c]).collect();
                var_to_fac.push(slots.clone());
                fac_to_var.push(slots);
            }
            Messages {
                var_to_fac,
                fac_to_var,
            }
        }
    }

    /// Seed `sumproduct::run`: flooding schedule, allocation per message.
    pub fn run(graph: &FactorGraph, opts: &BpOptions) -> BpResult {
        let mut msgs = Messages::new(graph);
        let mut iterations = 0;
        let mut converged = false;

        let mut incidences: Vec<Vec<(usize, usize)>> = vec![Vec::new(); graph.num_variables()];
        for (fi, f) in graph.factors().iter().enumerate() {
            for (pos, v) in f.vars().iter().enumerate() {
                incidences[v.0 as usize].push((fi, pos));
            }
        }

        let mut scratch = Vec::new();
        for iter in 0..opts.max_iters {
            iterations = iter + 1;
            let mut max_delta: f64 = 0.0;

            for (vi, inc) in incidences.iter().enumerate() {
                let card = graph.variable(VarId(vi as u32)).card;
                for &(fi, pos) in inc {
                    scratch.clear();
                    scratch.resize(card, 1.0);
                    for &(ofi, opos) in inc {
                        if (ofi, opos) == (fi, pos) {
                            continue;
                        }
                        for (k, s) in scratch.iter_mut().enumerate() {
                            *s *= msgs.fac_to_var[ofi][opos][k];
                        }
                    }
                    normalize(&mut scratch);
                    let slot = &mut msgs.var_to_fac[fi][pos];
                    for k in 0..card {
                        let new = (1.0 - opts.damping) * scratch[k] + opts.damping * slot[k];
                        max_delta = max_delta.max((new - slot[k]).abs());
                        slot[k] = new;
                    }
                }
            }

            for (fi, f) in graph.factors().iter().enumerate() {
                let nscope = f.vars().len();
                for pos in 0..nscope {
                    let card = f.cards()[pos];
                    scratch.clear();
                    scratch.resize(card, 0.0);
                    let mut assignment = vec![0usize; nscope];
                    for &val in f.table() {
                        let mut w = val;
                        if w != 0.0 {
                            for (opos, &a) in assignment.iter().enumerate() {
                                if opos != pos {
                                    w *= msgs.var_to_fac[fi][opos][a];
                                }
                            }
                            scratch[assignment[pos]] += w;
                        }
                        for d in (0..nscope).rev() {
                            assignment[d] += 1;
                            if assignment[d] < f.cards()[d] {
                                break;
                            }
                            assignment[d] = 0;
                        }
                    }
                    normalize(&mut scratch);
                    let slot = &mut msgs.fac_to_var[fi][pos];
                    for k in 0..card {
                        let new = (1.0 - opts.damping) * scratch[k] + opts.damping * slot[k];
                        max_delta = max_delta.max((new - slot[k]).abs());
                        slot[k] = new;
                    }
                }
            }

            if max_delta < opts.tolerance {
                converged = true;
                break;
            }
        }

        let mut marginals = Vec::with_capacity(graph.num_variables());
        for (vi, inc) in incidences.iter().enumerate() {
            let card = graph.variable(VarId(vi as u32)).card;
            let mut belief = vec![1.0; card];
            for &(fi, pos) in inc {
                for (k, b) in belief.iter_mut().enumerate() {
                    *b *= msgs.fac_to_var[fi][pos][k];
                }
            }
            normalize(&mut belief);
            marginals.push(belief);
        }
        BpResult {
            marginals,
            iterations,
            converged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn single_variable_prior() {
        let mut g = FactorGraph::new();
        let x = g.add_variable(3);
        g.add_factor(Factor::new(vec![x], vec![3], vec![1.0, 2.0, 7.0]));
        let r = run(&g, &BpOptions::default());
        assert!(r.converged);
        assert!(close(r.marginal(x), &[0.1, 0.2, 0.7], 1e-9));
        assert_eq!(r.argmax(x), 2);
    }

    #[test]
    fn chain_matches_brute_force() {
        let mut g = FactorGraph::new();
        let x0 = g.add_variable(2);
        let x1 = g.add_variable(3);
        let x2 = g.add_variable(2);
        g.add_factor(Factor::new(vec![x0], vec![2], vec![0.3, 0.7]));
        g.add_factor(Factor::from_fn(vec![x0, x1], vec![2, 3], |a| {
            0.5 + (a[0] + a[1]) as f64 * 0.25
        }));
        g.add_factor(Factor::from_fn(vec![x1, x2], vec![3, 2], |a| {
            1.0 + (a[0] * 2 + a[1]) as f64 * 0.1
        }));
        let exact = brute_force_marginals(&g);
        for schedule in [
            BpSchedule::Flood,
            BpSchedule::ParallelFlood,
            BpSchedule::Residual,
        ] {
            let r = run(
                &g,
                &BpOptions {
                    schedule,
                    ..Default::default()
                },
            );
            assert!(r.converged, "{schedule:?}");
            for (vi, m) in exact.iter().enumerate() {
                assert!(
                    close(&r.marginals[vi], m, 1e-7),
                    "{schedule:?} var {vi}: bp {:?} vs exact {:?}",
                    r.marginals[vi],
                    m
                );
            }
        }
    }

    #[test]
    fn tree_with_branching_matches_brute_force() {
        let mut g = FactorGraph::new();
        let root = g.add_variable(2);
        let kids: Vec<VarId> = (0..3).map(|_| g.add_variable(2)).collect();
        g.add_factor(Factor::new(vec![root], vec![2], vec![0.4, 0.6]));
        for (i, &k) in kids.iter().enumerate() {
            g.add_factor(Factor::from_fn(vec![root, k], vec![2, 2], move |a| {
                if a[0] == a[1] {
                    0.8 + i as f64 * 0.01
                } else {
                    0.2
                }
            }));
        }
        assert!(g.is_forest());
        let r = run(&g, &BpOptions::default());
        let exact = brute_force_marginals(&g);
        for (vi, m) in exact.iter().enumerate() {
            assert!(close(&r.marginals[vi], m, 1e-7), "var {vi}");
        }
    }

    #[test]
    fn high_arity_factor_matches_brute_force() {
        // Exercises the product-expansion + divide-out path (arity ≥ 3)
        // including a zero message entry via a hard indicator factor.
        let mut g = FactorGraph::new();
        let x = g.add_variable(2);
        let y = g.add_variable(3);
        let z = g.add_variable(2);
        g.add_factor(Factor::from_fn(vec![x, y, z], vec![2, 3, 2], |a| {
            0.2 + ((a[0] * 5 + a[1] * 3 + a[2] * 2) % 7) as f64 * 0.1
        }));
        g.add_factor(Factor::new(vec![x], vec![2], vec![0.0, 1.0])); // hard evidence
        g.add_factor(Factor::new(vec![y], vec![3], vec![0.5, 0.2, 0.3]));
        let r = run(&g, &BpOptions::default());
        let exact = brute_force_marginals(&g);
        assert!(r.converged);
        for (vi, m) in exact.iter().enumerate() {
            assert!(
                close(&r.marginals[vi], m, 1e-7),
                "var {vi}: {:?} vs {:?}",
                r.marginals[vi],
                m
            );
        }
    }

    #[test]
    fn loopy_graph_converges_with_damping() {
        // A frustrated 3-cycle of pairwise agreement factors.
        let mut g = FactorGraph::new();
        let xs: Vec<VarId> = (0..3).map(|_| g.add_variable(2)).collect();
        for i in 0..3 {
            let a = xs[i];
            let b = xs[(i + 1) % 3];
            g.add_factor(Factor::from_fn(vec![a, b], vec![2, 2], |v| {
                if v[0] == v[1] {
                    0.9
                } else {
                    0.1
                }
            }));
        }
        g.add_factor(Factor::new(vec![xs[0]], vec![2], vec![0.8, 0.2]));
        assert!(!g.is_forest());
        for schedule in [
            BpSchedule::Flood,
            BpSchedule::ParallelFlood,
            BpSchedule::Residual,
        ] {
            let r = run(
                &g,
                &BpOptions {
                    damping: 0.3,
                    schedule,
                    ..Default::default()
                },
            );
            assert!(
                r.converged,
                "loopy BP should converge with damping ({schedule:?})"
            );
            for &x in &xs {
                assert_eq!(r.argmax(x), 0, "{schedule:?}");
            }
        }
    }

    #[test]
    fn matches_reference_implementation_exactly_on_forests() {
        let mut g = FactorGraph::new();
        let x0 = g.add_variable(3);
        let x1 = g.add_variable(2);
        let x2 = g.add_variable(4);
        g.add_factor(Factor::from_fn(vec![x0], vec![3], |a| 0.2 + a[0] as f64));
        g.add_factor(Factor::from_fn(vec![x0, x1], vec![3, 2], |a| {
            0.1 + (a[0] + 2 * a[1]) as f64 * 0.3
        }));
        g.add_factor(Factor::from_fn(vec![x1, x2], vec![2, 4], |a| {
            0.4 + (3 * a[0] + a[1]) as f64 * 0.2
        }));
        let opts = BpOptions::default();
        let fast = run(&g, &opts);
        let slow = reference::run(&g, &opts);
        assert_eq!(fast.converged, slow.converged);
        for vi in 0..3 {
            assert!(
                close(&fast.marginals[vi], &slow.marginals[vi], 1e-12),
                "var {vi}: {:?} vs {:?}",
                fast.marginals[vi],
                slow.marginals[vi]
            );
        }
    }

    #[test]
    fn workspace_reuse_across_same_shape_graphs() {
        let build = |bias: f64| {
            let mut g = FactorGraph::new();
            let x = g.add_variable(2);
            let y = g.add_variable(2);
            g.add_factor(Factor::new(vec![x], vec![2], vec![bias, 1.0 - bias]));
            g.add_factor(Factor::from_fn(vec![x, y], vec![2, 2], |a| {
                if a[0] == a[1] {
                    0.9
                } else {
                    0.1
                }
            }));
            g
        };
        let g1 = build(0.9);
        let g2 = build(0.1);
        let mut ws = BpWorkspace::new(&g1);
        run_in(&g1, &BpOptions::default(), &mut ws);
        let m1 = ws.marginal(VarId(0)).to_vec();
        assert!(!ws.prepare(&g2), "same shape must not rebuild");
        run_in(&g2, &BpOptions::default(), &mut ws);
        let m2 = ws.marginal(VarId(0)).to_vec();
        assert!(
            m1[0] > 0.5 && m2[0] < 0.5,
            "different tables, different answers"
        );
        assert!(close(&m1, &brute_force_marginals(&g1)[0], 1e-9));
        assert!(close(&m2, &brute_force_marginals(&g2)[0], 1e-9));
    }

    #[test]
    fn evidence_clamping() {
        let mut g = FactorGraph::new();
        let x0 = g.add_variable(2);
        let x1 = g.add_variable(2);
        g.add_factor(Factor::from_fn(vec![x0, x1], vec![2, 2], |a| {
            if a[0] == a[1] {
                0.9
            } else {
                0.1
            }
        }));
        let clamped = with_evidence(&g, &[(x0, 1)]);
        let r = run(&clamped, &BpOptions::default());
        assert_eq!(r.argmax(x0), 1);
        assert!(r.marginal(x1)[1] > 0.85);
    }

    #[test]
    fn dominant_factor_identified() {
        let mut g = FactorGraph::new();
        let x = g.add_variable(2);
        let weak = g.add_factor(Factor::new(vec![x], vec![2], vec![0.5, 0.5]));
        let strong = g.add_factor(Factor::new(vec![x], vec![2], vec![0.05, 0.95]));
        let r = run(&g, &BpOptions::default());
        assert_eq!(r.argmax(x), 1);
        let dom = dominant_factor(&g, &r, x).unwrap();
        assert_eq!(dom, strong);
        assert_ne!(dom, weak);
    }

    #[test]
    fn empty_graph_and_isolated_variable() {
        let g = FactorGraph::new();
        let r = run(&g, &BpOptions::default());
        assert!(r.marginals.is_empty());
        assert!(r.converged);

        let mut g = FactorGraph::new();
        let x = g.add_variable(3);
        let _y = g.add_variable(2); // no factors at all
        g.add_factor(Factor::new(vec![x], vec![3], vec![3.0, 1.0, 1.0]));
        let r = run(&g, &BpOptions::default());
        assert!(close(r.marginal(VarId(1)), &[0.5, 0.5], 1e-12));
        assert!(close(r.marginal(x), &[0.6, 0.2, 0.2], 1e-9));
    }
}
