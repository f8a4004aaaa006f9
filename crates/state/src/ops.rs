//! The small backend-agnostic predicate interface shared by the explicit
//! bitset [`Predicate`] and the symbolic `kpt_bdd::SymbolicPredicate`.
//!
//! Code written against [`PredicateOps`] (invariant checks, entailment
//! chains, figure replays, the eq. (25) iteration) runs unchanged
//! on either backend; the differential suite instantiates both and
//! compares.

use crate::predicate::Predicate;

/// Boolean-algebra and query operations every predicate backend provides.
///
/// Semantics are over *valid states* of the underlying space: `negate` is
/// complement within the space, `everywhere`/`count` range over the
/// space's states, and `==` (via `PartialEq`) is semantic equality.
pub trait PredicateOps: Clone + PartialEq {
    /// Conjunction.
    #[must_use]
    fn and(&self, other: &Self) -> Self;
    /// Disjunction.
    #[must_use]
    fn or(&self, other: &Self) -> Self;
    /// Complement within the space.
    #[must_use]
    fn negate(&self) -> Self;
    /// Material implication.
    #[must_use]
    fn implies(&self, other: &Self) -> Self;
    /// Biconditional.
    #[must_use]
    fn iff(&self, other: &Self) -> Self;
    /// Holds nowhere?
    fn is_false(&self) -> bool;
    /// Holds on every state?
    fn everywhere(&self) -> bool;
    /// Does `self ⇒ other` hold everywhere?
    fn entails(&self, other: &Self) -> bool;
    /// Number of satisfying states.
    fn count(&self) -> u64;
    /// Membership of one explicit state.
    fn holds(&self, state: u64) -> bool;
}

impl PredicateOps for Predicate {
    fn and(&self, other: &Self) -> Self {
        Predicate::and(self, other)
    }
    fn or(&self, other: &Self) -> Self {
        Predicate::or(self, other)
    }
    fn negate(&self) -> Self {
        Predicate::negate(self)
    }
    fn implies(&self, other: &Self) -> Self {
        Predicate::implies(self, other)
    }
    fn iff(&self, other: &Self) -> Self {
        Predicate::iff(self, other)
    }
    fn is_false(&self) -> bool {
        Predicate::is_false(self)
    }
    fn everywhere(&self) -> bool {
        Predicate::everywhere(self)
    }
    fn entails(&self, other: &Self) -> bool {
        Predicate::entails(self, other)
    }
    fn count(&self) -> u64 {
        Predicate::count(self)
    }
    fn holds(&self, state: u64) -> bool {
        Predicate::holds(self, state)
    }
}
