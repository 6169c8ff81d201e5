//! Discrete random variables.

use std::fmt;

/// Identifier of a variable within a [`crate::graph::FactorGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A discrete variable with cardinality `card` (values `0..card`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Variable {
    pub id: VarId,
    pub card: usize,
}

impl Variable {
    pub fn new(id: VarId, card: usize) -> Self {
        assert!(card > 0, "variable {id} must have positive cardinality");
        Variable { id, card }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let v = Variable::new(VarId(3), 4);
        assert_eq!(v.id, VarId(3));
        assert_eq!(v.card, 4);
        assert_eq!(v.id.to_string(), "x3");
    }

    #[test]
    fn zero_cardinality_rejected() {
        assert!(std::panic::catch_unwind(|| Variable::new(VarId(0), 0)).is_err());
    }
}
