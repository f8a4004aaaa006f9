//! [`PredicateOps`] (defined in `kpt-state`, next to the explicit
//! bitset [`kpt_state::Predicate`]) for the symbolic
//! [`SymbolicPredicate`](crate::SymbolicPredicate).

use kpt_state::PredicateOps;

use crate::predicate::SymbolicPredicate;

impl PredicateOps for SymbolicPredicate {
    fn and(&self, other: &Self) -> Self {
        SymbolicPredicate::and(self, other)
    }
    fn or(&self, other: &Self) -> Self {
        SymbolicPredicate::or(self, other)
    }
    fn negate(&self) -> Self {
        SymbolicPredicate::negate(self)
    }
    fn implies(&self, other: &Self) -> Self {
        SymbolicPredicate::implies(self, other)
    }
    fn iff(&self, other: &Self) -> Self {
        SymbolicPredicate::iff(self, other)
    }
    fn is_false(&self) -> bool {
        SymbolicPredicate::is_false(self)
    }
    fn everywhere(&self) -> bool {
        SymbolicPredicate::everywhere(self)
    }
    fn entails(&self, other: &Self) -> bool {
        SymbolicPredicate::entails(self, other)
    }
    fn count(&self) -> u64 {
        SymbolicPredicate::count(self)
    }
    fn holds(&self, state: u64) -> bool {
        SymbolicPredicate::holds(self, state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::BddSpace;
    use kpt_state::{Predicate, StateSpace};

    /// The same generic checks pass on both backends.
    fn exercise<P: PredicateOps>(p: P, q: P, total: u64) {
        assert!(p.and(&q).entails(&p));
        assert!(p.entails(&p.or(&q)));
        assert!(p.or(&p.negate()).everywhere());
        assert!(p.and(&p.negate()).is_false());
        assert_eq!(p.negate().count(), total - p.count());
        assert!(p.iff(&p).everywhere());
        assert!(p.implies(&p.or(&q)).everywhere());
        for s in 0..total {
            assert_eq!(p.and(&q).holds(s), p.holds(s) && q.holds(s));
        }
    }

    #[test]
    fn both_backends_satisfy_the_contract() {
        let space = StateSpace::builder()
            .nat_var("i", 6)
            .unwrap()
            .bool_var("b")
            .unwrap()
            .build()
            .unwrap();
        let i = space.var("i").unwrap();
        let b = space.var("b").unwrap();
        let total = space.num_states();

        let ep = Predicate::from_var_fn(&space, i, |x| x % 2 == 0);
        let eq = Predicate::var_is_true(&space, b);
        exercise(ep, eq, total);

        let bdd = BddSpace::new(&space);
        let sp = SymbolicPredicate::from_var_fn(&bdd, i, |x| x % 2 == 0);
        let sq = SymbolicPredicate::var_is_true(&bdd, b);
        exercise(sp, sq, total);
    }
}
