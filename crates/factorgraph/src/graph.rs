//! The bipartite factor graph.

use crate::factor::Factor;
use crate::variable::{VarId, Variable};

/// Identifier of a factor within a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FactorId(pub u32);

/// A factor graph: variables, factors, and the bipartite adjacency.
#[derive(Debug, Clone, Default)]
pub struct FactorGraph {
    variables: Vec<Variable>,
    factors: Vec<Factor>,
    /// For each variable, the factors whose scope contains it.
    var_factors: Vec<Vec<FactorId>>,
}

impl FactorGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable with the given cardinality; ids are dense.
    pub fn add_variable(&mut self, card: usize) -> VarId {
        let id = VarId(self.variables.len() as u32);
        self.variables.push(Variable::new(id, card));
        self.var_factors.push(Vec::new());
        id
    }

    /// Add a factor. Its scope must reference existing variables with
    /// matching cardinalities.
    ///
    /// # Panics
    /// Panics on scope/cardinality mismatch.
    pub fn add_factor(&mut self, factor: Factor) -> FactorId {
        for (i, v) in factor.vars().iter().enumerate() {
            let var = &self.variables[v.0 as usize];
            assert_eq!(
                var.card,
                factor.cards()[i],
                "factor cardinality mismatch on {v}"
            );
        }
        let id = FactorId(self.factors.len() as u32);
        for v in factor.vars() {
            self.var_factors[v.0 as usize].push(id);
        }
        self.factors.push(factor);
        id
    }

    pub fn num_variables(&self) -> usize {
        self.variables.len()
    }

    pub fn num_factors(&self) -> usize {
        self.factors.len()
    }

    pub fn variable(&self, id: VarId) -> &Variable {
        &self.variables[id.0 as usize]
    }

    pub fn variables(&self) -> &[Variable] {
        &self.variables
    }

    pub fn factor(&self, id: FactorId) -> &Factor {
        &self.factors[id.0 as usize]
    }

    /// Mutable access to a factor, for in-place table refresh via
    /// [`Factor::fill_from_fn`] when reusing a graph across observation
    /// sequences. The scope cannot change through this handle in a way
    /// that would desynchronize the adjacency (only table values are
    /// mutable through `Factor`'s API).
    pub fn factor_mut(&mut self, id: FactorId) -> &mut Factor {
        &mut self.factors[id.0 as usize]
    }

    pub fn factors(&self) -> &[Factor] {
        &self.factors
    }

    /// Factors adjacent to a variable.
    pub fn factors_of(&self, var: VarId) -> &[FactorId] {
        &self.var_factors[var.0 as usize]
    }

    /// Total number of (factor, variable) edges.
    pub fn num_edges(&self) -> usize {
        self.factors.iter().map(|f| f.vars().len()).sum()
    }

    /// Whether the graph is a forest (acyclic), in which case belief
    /// propagation is exact. Uses union-find over the bipartite edges.
    pub fn is_forest(&self) -> bool {
        // Nodes: variables [0, nv), factors [nv, nv+nf).
        let nv = self.variables.len();
        let mut parent: Vec<usize> = (0..nv + self.factors.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (fi, f) in self.factors.iter().enumerate() {
            for v in f.vars() {
                let a = find(&mut parent, v.0 as usize);
                let b = find(&mut parent, nv + fi);
                if a == b {
                    return false;
                }
                parent[a] = b;
            }
        }
        true
    }

    /// The unnormalized joint value of a full assignment (one value per
    /// variable, indexed by `VarId`).
    pub fn joint_value(&self, assignment: &[usize]) -> f64 {
        assert_eq!(assignment.len(), self.variables.len());
        let mut scratch = Vec::new();
        let mut product = 1.0;
        for f in &self.factors {
            scratch.clear();
            scratch.extend(f.vars().iter().map(|v| assignment[v.0 as usize]));
            product *= f.value(&scratch);
        }
        product
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> FactorGraph {
        let mut g = FactorGraph::new();
        let x0 = g.add_variable(2);
        let x1 = g.add_variable(2);
        let x2 = g.add_variable(2);
        g.add_factor(Factor::new(vec![x0], vec![2], vec![0.6, 0.4]));
        g.add_factor(Factor::new(
            vec![x0, x1],
            vec![2, 2],
            vec![0.9, 0.1, 0.2, 0.8],
        ));
        g.add_factor(Factor::new(
            vec![x1, x2],
            vec![2, 2],
            vec![0.7, 0.3, 0.3, 0.7],
        ));
        g
    }

    #[test]
    fn adjacency_built() {
        let g = chain3();
        assert_eq!(g.num_variables(), 3);
        assert_eq!(g.num_factors(), 3);
        assert_eq!(g.factors_of(VarId(0)).len(), 2);
        assert_eq!(g.factors_of(VarId(1)).len(), 2);
        assert_eq!(g.factors_of(VarId(2)).len(), 1);
        assert_eq!(g.num_edges(), 5);
    }

    #[test]
    fn chain_is_forest_loop_is_not() {
        let mut g = chain3();
        assert!(g.is_forest());
        // Close the loop x2 - x0.
        g.add_factor(Factor::uniform(vec![VarId(2), VarId(0)], vec![2, 2]));
        assert!(!g.is_forest());
    }

    #[test]
    fn joint_value_multiplies_factors() {
        let g = chain3();
        // P(0,0,0) ∝ 0.6 * 0.9 * 0.7
        assert!((g.joint_value(&[0, 0, 0]) - 0.6 * 0.9 * 0.7).abs() < 1e-12);
        assert!((g.joint_value(&[1, 1, 1]) - 0.4 * 0.8 * 0.7).abs() < 1e-12);
    }

    #[test]
    fn mismatched_cardinality_rejected() {
        let mut g = FactorGraph::new();
        let x = g.add_variable(2);
        let bad = Factor::uniform(vec![x], vec![3]);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.add_factor(bad);
        }))
        .is_err());
    }
}
