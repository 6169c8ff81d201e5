//! Tabular factors over discrete variables.
//!
//! A [`Factor`] holds a non-negative table over the joint assignments of
//! its scope. Assignments are indexed row-major with the **last** scope
//! variable varying fastest. Factor product, marginalization (sum and max),
//! evidence reduction and normalization are the primitive operations that
//! belief propagation and exact inference are built from.

use crate::variable::VarId;

/// A tabular factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor {
    vars: Vec<VarId>,
    cards: Vec<usize>,
    table: Vec<f64>,
}

impl Factor {
    /// Create a factor from an explicit table.
    ///
    /// # Panics
    /// Panics if the table length does not equal the product of
    /// cardinalities, if scope/cardinality lengths differ, if the scope
    /// contains duplicates, or if any entry is negative/NaN.
    pub fn new(vars: Vec<VarId>, cards: Vec<usize>, table: Vec<f64>) -> Factor {
        assert_eq!(vars.len(), cards.len(), "scope/cardinality length mismatch");
        let size: usize = cards.iter().product();
        assert_eq!(
            table.len(),
            size,
            "table size {} != expected {}",
            table.len(),
            size
        );
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                assert_ne!(vars[i], vars[j], "duplicate variable {} in scope", vars[i]);
            }
        }
        assert!(
            table.iter().all(|v| v.is_finite() && *v >= 0.0),
            "factor entries must be finite and non-negative"
        );
        Factor { vars, cards, table }
    }

    /// Create a factor by evaluating `f` on every assignment.
    pub fn from_fn(vars: Vec<VarId>, cards: Vec<usize>, f: impl Fn(&[usize]) -> f64) -> Factor {
        let size: usize = cards.iter().product();
        let mut table = Vec::with_capacity(size);
        let mut assignment = vec![0usize; cards.len()];
        for _ in 0..size {
            table.push(f(&assignment));
            // Increment mixed-radix counter, last digit fastest.
            for d in (0..cards.len()).rev() {
                assignment[d] += 1;
                if assignment[d] < cards[d] {
                    break;
                }
                assignment[d] = 0;
            }
        }
        Factor::new(vars, cards, table)
    }

    /// A uniform (all-ones) factor over the scope.
    pub fn uniform(vars: Vec<VarId>, cards: Vec<usize>) -> Factor {
        let size: usize = cards.iter().product();
        Factor::new(vars, cards, vec![1.0; size])
    }

    /// Scope of the factor.
    pub fn vars(&self) -> &[VarId] {
        &self.vars
    }

    /// Cardinalities, parallel to [`Factor::vars`].
    pub fn cards(&self) -> &[usize] {
        &self.cards
    }

    /// Raw table (row-major, last variable fastest).
    pub fn table(&self) -> &[f64] {
        &self.table
    }

    /// Overwrite the table in place by evaluating `f` on every
    /// assignment, without reallocating. The scope (and therefore the
    /// table length) is unchanged; entries must stay finite and
    /// non-negative, as in [`Factor::new`].
    pub fn fill_from_fn(&mut self, f: impl FnMut(&[usize]) -> f64) {
        let mut f = f;
        let mut assignment = [0usize; 8];
        let arity = self.cards.len();
        assert!(arity <= 8, "fill_from_fn supports arity ≤ 8");
        let assignment = &mut assignment[..arity];
        for slot in &mut self.table {
            let v = f(assignment);
            debug_assert!(
                v.is_finite() && v >= 0.0,
                "factor entries must stay non-negative"
            );
            *slot = v;
            for d in (0..arity).rev() {
                assignment[d] += 1;
                if assignment[d] < self.cards[d] {
                    break;
                }
                assignment[d] = 0;
            }
        }
    }

    /// Number of table entries.
    pub fn size(&self) -> usize {
        self.table.len()
    }

    /// Position of a variable in the scope.
    pub fn position(&self, var: VarId) -> Option<usize> {
        self.vars.iter().position(|v| *v == var)
    }

    /// Flat index of an assignment (values parallel to scope order).
    pub fn index_of(&self, assignment: &[usize]) -> usize {
        debug_assert_eq!(assignment.len(), self.vars.len());
        let mut idx = 0;
        for (d, &val) in assignment.iter().enumerate() {
            debug_assert!(
                val < self.cards[d],
                "value {} out of range for position {}",
                val,
                d
            );
            idx = idx * self.cards[d] + val;
        }
        idx
    }

    /// Table value at an assignment.
    pub fn value(&self, assignment: &[usize]) -> f64 {
        self.table[self.index_of(assignment)]
    }

    /// Decode a flat index into an assignment.
    pub fn assignment_of(&self, mut idx: usize) -> Vec<usize> {
        let mut assignment = vec![0usize; self.cards.len()];
        for d in (0..self.cards.len()).rev() {
            assignment[d] = idx % self.cards[d];
            idx /= self.cards[d];
        }
        assignment
    }

    /// Pointwise product with another factor, over the union scope.
    pub fn product(&self, other: &Factor) -> Factor {
        // Union scope: self's vars, then other's vars not already present.
        let mut vars = self.vars.clone();
        let mut cards = self.cards.clone();
        for (i, v) in other.vars.iter().enumerate() {
            if !vars.contains(v) {
                vars.push(*v);
                cards.push(other.cards[i]);
            }
        }
        // Map each result dimension to positions in the operand scopes.
        let self_pos: Vec<Option<usize>> = vars.iter().map(|v| self.position(*v)).collect();
        let other_pos: Vec<Option<usize>> = vars.iter().map(|v| other.position(*v)).collect();
        let size: usize = cards.iter().product();
        let mut table = Vec::with_capacity(size);
        let mut assignment = vec![0usize; cards.len()];
        let mut a_self = vec![0usize; self.vars.len()];
        let mut a_other = vec![0usize; other.vars.len()];
        for _ in 0..size {
            for (d, &val) in assignment.iter().enumerate() {
                if let Some(p) = self_pos[d] {
                    a_self[p] = val;
                }
                if let Some(p) = other_pos[d] {
                    a_other[p] = val;
                }
            }
            table.push(self.value(&a_self) * other.value(&a_other));
            for d in (0..cards.len()).rev() {
                assignment[d] += 1;
                if assignment[d] < cards[d] {
                    break;
                }
                assignment[d] = 0;
            }
        }
        Factor::new(vars, cards, table)
    }

    fn marginalize_impl(&self, keep: &[VarId], max_mode: bool) -> Factor {
        let kept: Vec<usize> = keep
            .iter()
            .map(|v| {
                self.position(*v)
                    .expect("marginalize: variable not in scope")
            })
            .collect();
        let out_cards: Vec<usize> = kept.iter().map(|&p| self.cards[p]).collect();
        let out_size: usize = out_cards.iter().product();
        let init = if max_mode { f64::NEG_INFINITY } else { 0.0 };
        let mut out = vec![init; out_size];
        let mut assignment = vec![0usize; self.cards.len()];
        for &v in &self.table {
            let mut out_idx = 0;
            for (k, &p) in kept.iter().enumerate() {
                out_idx = out_idx * out_cards[k] + assignment[p];
            }
            if max_mode {
                if v > out[out_idx] {
                    out[out_idx] = v;
                }
            } else {
                out[out_idx] += v;
            }
            for d in (0..self.cards.len()).rev() {
                assignment[d] += 1;
                if assignment[d] < self.cards[d] {
                    break;
                }
                assignment[d] = 0;
            }
        }
        if max_mode {
            for v in &mut out {
                if *v == f64::NEG_INFINITY {
                    *v = 0.0;
                }
            }
        }
        Factor::new(keep.to_vec(), out_cards, out)
    }

    /// Sum out all variables except `keep` (in the given order).
    pub fn marginalize(&self, keep: &[VarId]) -> Factor {
        self.marginalize_impl(keep, false)
    }

    /// Max out all variables except `keep` (in the given order).
    pub fn max_marginalize(&self, keep: &[VarId]) -> Factor {
        self.marginalize_impl(keep, true)
    }

    /// Condition on evidence `var = value`, removing `var` from the scope.
    pub fn reduce(&self, var: VarId, value: usize) -> Factor {
        let pos = self.position(var).expect("reduce: variable not in scope");
        assert!(value < self.cards[pos], "evidence value out of range");
        let mut vars = self.vars.clone();
        let mut cards = self.cards.clone();
        vars.remove(pos);
        cards.remove(pos);
        let out_size: usize = cards.iter().product();
        let mut table = Vec::with_capacity(out_size);
        let mut assignment = vec![0usize; cards.len()];
        let mut full = vec![0usize; self.cards.len()];
        for _ in 0..out_size.max(1) {
            if cards.is_empty() {
                full[pos] = value;
                table.push(self.value(&full));
                break;
            }
            let mut fi = 0;
            for (d, &val) in assignment.iter().enumerate() {
                let target = if d < pos { d } else { d + 1 };
                full[target] = val;
                fi += 1;
            }
            debug_assert_eq!(fi, assignment.len());
            full[pos] = value;
            table.push(self.value(&full));
            for d in (0..cards.len()).rev() {
                assignment[d] += 1;
                if assignment[d] < cards[d] {
                    break;
                }
                assignment[d] = 0;
            }
        }
        Factor::new(vars, cards, table)
    }

    /// Normalize so entries sum to 1. No-op on an all-zero table.
    pub fn normalize(&mut self) {
        let sum: f64 = self.table.iter().sum();
        if sum > 0.0 {
            for v in &mut self.table {
                *v /= sum;
            }
        }
    }

    /// Normalized copy.
    pub fn normalized(&self) -> Factor {
        let mut f = self.clone();
        f.normalize();
        f
    }

    /// Index of the largest entry (ties broken toward lower index).
    pub fn argmax(&self) -> usize {
        let mut best = 0;
        for (i, &v) in self.table.iter().enumerate() {
            if v > self.table[best] {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn indexing_last_var_fastest() {
        let f = Factor::new(
            vec![v(0), v(1)],
            vec![2, 3],
            (0..6).map(|x| x as f64).collect(),
        );
        assert_eq!(f.value(&[0, 0]), 0.0);
        assert_eq!(f.value(&[0, 2]), 2.0);
        assert_eq!(f.value(&[1, 0]), 3.0);
        assert_eq!(f.value(&[1, 2]), 5.0);
        assert_eq!(f.assignment_of(4), vec![1, 1]);
        assert_eq!(f.index_of(&[1, 1]), 4);
    }

    #[test]
    fn from_fn_agrees_with_manual() {
        let f = Factor::from_fn(vec![v(0), v(1)], vec![2, 2], |a| (a[0] * 2 + a[1]) as f64);
        assert_eq!(f.table(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn product_disjoint_scopes() {
        let a = Factor::new(vec![v(0)], vec![2], vec![1.0, 2.0]);
        let b = Factor::new(vec![v(1)], vec![2], vec![3.0, 4.0]);
        let p = a.product(&b);
        assert_eq!(p.vars(), &[v(0), v(1)]);
        assert_eq!(p.value(&[0, 0]), 3.0);
        assert_eq!(p.value(&[1, 1]), 8.0);
    }

    #[test]
    fn product_shared_scope() {
        let a = Factor::new(vec![v(0), v(1)], vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Factor::new(vec![v(1)], vec![2], vec![10.0, 100.0]);
        let p = a.product(&b);
        assert_eq!(p.vars(), &[v(0), v(1)]);
        assert_eq!(p.value(&[0, 0]), 10.0);
        assert_eq!(p.value(&[0, 1]), 200.0);
        assert_eq!(p.value(&[1, 0]), 30.0);
        assert_eq!(p.value(&[1, 1]), 400.0);
    }

    #[test]
    fn marginalize_sum_and_max() {
        let f = Factor::new(vec![v(0), v(1)], vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let m = f.marginalize(&[v(0)]);
        assert_eq!(m.table(), &[3.0, 7.0]);
        let mm = f.max_marginalize(&[v(1)]);
        assert_eq!(mm.table(), &[3.0, 4.0]);
    }

    #[test]
    fn marginalize_to_empty_scope_gives_partition() {
        let f = Factor::new(vec![v(0)], vec![3], vec![1.0, 2.0, 3.0]);
        let z = f.marginalize(&[]);
        assert_eq!(z.table(), &[6.0]);
    }

    #[test]
    fn reduce_conditions_on_evidence() {
        let f = Factor::new(
            vec![v(0), v(1)],
            vec![2, 3],
            (0..6).map(|x| x as f64).collect(),
        );
        let r = f.reduce(v(0), 1);
        assert_eq!(r.vars(), &[v(1)]);
        assert_eq!(r.table(), &[3.0, 4.0, 5.0]);
        let r2 = f.reduce(v(1), 2);
        assert_eq!(r2.vars(), &[v(0)]);
        assert_eq!(r2.table(), &[2.0, 5.0]);
        // Reduce to scalar.
        let s = r2.reduce(v(0), 0);
        assert!(s.vars().is_empty());
        assert_eq!(s.table(), &[2.0]);
    }

    #[test]
    fn normalize_and_argmax() {
        let mut f = Factor::new(vec![v(0)], vec![4], vec![1.0, 3.0, 4.0, 2.0]);
        f.normalize();
        let total: f64 = f.table().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(f.argmax(), 2);
    }

    #[test]
    fn invalid_tables_rejected() {
        assert!(std::panic::catch_unwind(|| Factor::new(vec![v(0)], vec![2], vec![1.0])).is_err());
        assert!(
            std::panic::catch_unwind(|| Factor::new(vec![v(0)], vec![2], vec![1.0, -1.0])).is_err()
        );
        assert!(std::panic::catch_unwind(|| Factor::new(
            vec![v(0), v(0)],
            vec![2, 2],
            vec![1.0; 4]
        ))
        .is_err());
    }
}
