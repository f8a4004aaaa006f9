//! The symbolic counterpart of `kpt_state::Predicate`.

use std::sync::Arc;

use kpt_state::{Predicate, VarId, VarSet};

use crate::manager::{NodeId, FALSE, TRUE};
use crate::space::BddSpace;

/// A predicate over a [`BddSpace`], stored as one ROBDD root.
///
/// Roots are *restricted*: they imply the space's domain constraint on the
/// current-state levels. Combined with hash-consing this makes equality a
/// root-id comparison — `p == q` is O(1) and exact, which the symbolic
/// fixpoints and the KBP cycle detector rely on.
///
/// The value is an RAII root handle: constructing it pins the root against
/// garbage collection, cloning adds a reference, and dropping releases it.
pub struct SymbolicPredicate {
    space: Arc<BddSpace>,
    root: NodeId,
}

impl Clone for SymbolicPredicate {
    fn clone(&self) -> Self {
        self.space.lock().add_root(self.root);
        SymbolicPredicate {
            space: Arc::clone(&self.space),
            root: self.root,
        }
    }
}

impl Drop for SymbolicPredicate {
    fn drop(&mut self) {
        self.space.release_root(self.root);
    }
}

impl std::fmt::Debug for SymbolicPredicate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicPredicate")
            .field("count", &self.count())
            .field("nodes", &self.node_count())
            .finish()
    }
}

impl PartialEq for SymbolicPredicate {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.space, &other.space) && self.root == other.root
    }
}

impl Eq for SymbolicPredicate {}

impl std::hash::Hash for SymbolicPredicate {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.root.hash(state);
    }
}

impl SymbolicPredicate {
    /// Wrap a computed root as an owned handle. Takes the manager lock to
    /// pin the root — the caller must have released its guard.
    pub(crate) fn new(space: &Arc<BddSpace>, root: NodeId) -> Self {
        space.lock().add_root(root);
        SymbolicPredicate {
            space: Arc::clone(space),
            root,
        }
    }

    /// Take over a root reference the caller already holds.
    pub(crate) fn adopt(space: &Arc<BddSpace>, root: NodeId) -> Self {
        SymbolicPredicate {
            space: Arc::clone(space),
            root,
        }
    }

    pub(crate) fn root(&self) -> NodeId {
        self.root
    }

    fn check_same_space(&self, other: &Self) {
        assert!(
            Arc::ptr_eq(&self.space, &other.space),
            "symbolic predicates from different BDD spaces"
        );
    }

    /// The symbolic space this predicate lives in.
    pub fn space(&self) -> &Arc<BddSpace> {
        &self.space
    }

    /// `false` — holds nowhere.
    pub fn ff(space: &Arc<BddSpace>) -> Self {
        SymbolicPredicate::new(space, FALSE)
    }

    /// `true` — holds on every valid state (the root is the domain
    /// constraint, the restricted form of the constant-true function).
    pub fn tt(space: &Arc<BddSpace>) -> Self {
        SymbolicPredicate::new(space, space.domain_ok_cur())
    }

    /// States where variable `v` equals `value`.
    pub fn var_eq(space: &Arc<BddSpace>, v: VarId, value: u64) -> Self {
        let mut mgr = space.lock();
        let cube = space.value_cube(&mut mgr, v, value, false);
        let root = {
            let d = space.domain_ok_cur();
            mgr.and(cube, d)
        };
        drop(mgr);
        SymbolicPredicate::new(space, root)
    }

    /// States where variable `v` is non-zero (true for booleans).
    pub fn var_is_true(space: &Arc<BddSpace>, v: VarId) -> Self {
        let mut mgr = space.lock();
        let root = space.var_fn_raw(&mut mgr, v, |x| x != 0);
        drop(mgr);
        SymbolicPredicate::new(space, root)
    }

    /// States where `f(value of v)` holds.
    pub fn from_var_fn(space: &Arc<BddSpace>, v: VarId, f: impl FnMut(u64) -> bool) -> Self {
        let mut mgr = space.lock();
        let root = space.var_fn_raw(&mut mgr, v, f);
        drop(mgr);
        SymbolicPredicate::new(space, root)
    }

    /// Bit-blast an explicit predicate (must share the space's shape).
    /// Costs one cube per satisfying state.
    pub fn from_explicit(space: &Arc<BddSpace>, p: &Predicate) -> Self {
        assert!(
            p.space().same_shape(space.space()),
            "explicit predicate from a different state space"
        );
        let mut mgr = space.lock();
        let root = space.encode_explicit_raw(&mut mgr, p);
        drop(mgr);
        SymbolicPredicate::new(space, root)
    }

    /// Materialize as an explicit bitset predicate. Costs one BDD
    /// evaluation per state of the space — only do this on small spaces.
    pub fn to_explicit(&self) -> Predicate {
        let mgr = self.space.lock();
        Predicate::from_fn(self.space.space(), |st| {
            mgr.eval(self.root, |l| self.space.state_bit(st, l / 2))
        })
    }

    /// Conjunction.
    pub fn and(&self, other: &Self) -> Self {
        self.check_same_space(other);
        let root = self.space.lock().and(self.root, other.root);
        SymbolicPredicate::new(&self.space, root)
    }

    /// Disjunction.
    pub fn or(&self, other: &Self) -> Self {
        self.check_same_space(other);
        let root = self.space.lock().or(self.root, other.root);
        SymbolicPredicate::new(&self.space, root)
    }

    /// Complement, relative to the valid states.
    pub fn negate(&self) -> Self {
        let mut mgr = self.space.lock();
        let n = mgr.not(self.root);
        let root = {
            let d = self.space.domain_ok_cur();
            mgr.and(n, d)
        };
        drop(mgr);
        SymbolicPredicate::new(&self.space, root)
    }

    /// Material implication, restricted to the valid states.
    pub fn implies(&self, other: &Self) -> Self {
        self.check_same_space(other);
        let mut mgr = self.space.lock();
        let imp = mgr.implies(self.root, other.root);
        let root = {
            let d = self.space.domain_ok_cur();
            mgr.and(imp, d)
        };
        drop(mgr);
        SymbolicPredicate::new(&self.space, root)
    }

    /// Biconditional, restricted to the valid states.
    pub fn iff(&self, other: &Self) -> Self {
        self.check_same_space(other);
        let mut mgr = self.space.lock();
        let eq = mgr.iff(self.root, other.root);
        let root = {
            let d = self.space.domain_ok_cur();
            mgr.and(eq, d)
        };
        drop(mgr);
        SymbolicPredicate::new(&self.space, root)
    }

    /// Set difference: `self ∧ ¬other`.
    pub fn minus(&self, other: &Self) -> Self {
        self.check_same_space(other);
        let mut mgr = self.space.lock();
        let n = mgr.not(other.root);
        let root = mgr.and(self.root, n);
        drop(mgr);
        SymbolicPredicate::new(&self.space, root)
    }

    /// Existentially quantify every variable in `vars` — the cylinder of
    /// the paper's eq. 6, over the complement view.
    pub fn exists_vars(&self, vars: VarSet) -> Self {
        let mut mgr = self.space.lock();
        let root = self.space.exists_vars_raw(&mut mgr, self.root, vars.iter());
        drop(mgr);
        SymbolicPredicate::new(&self.space, root)
    }

    /// Universally quantify every variable in `vars`, relative to their
    /// domains — `wcyl.V̄` in the paper's eq. 6.
    pub fn forall_vars(&self, vars: VarSet) -> Self {
        let mut mgr = self.space.lock();
        let root = self.space.forall_vars_raw(&mut mgr, self.root, vars.iter());
        drop(mgr);
        SymbolicPredicate::new(&self.space, root)
    }

    /// Does the predicate hold at explicit state `state`?
    pub fn holds(&self, state: u64) -> bool {
        let mgr = self.space.lock();
        mgr.eval(self.root, |l| self.space.state_bit(state, l / 2))
    }

    /// Holds nowhere? O(1): restricted roots are canonical.
    pub fn is_false(&self) -> bool {
        self.root == FALSE
    }

    /// Holds on every valid state? O(1) against the domain constraint.
    pub fn everywhere(&self) -> bool {
        self.root == self.space.domain_ok_cur()
    }

    /// `self ⇒ other` on every valid state?
    pub fn entails(&self, other: &Self) -> bool {
        self.check_same_space(other);
        self.space.lock().implies(self.root, other.root) == TRUE
    }

    /// Exact number of satisfying valid states.
    pub fn count(&self) -> u64 {
        let mgr = self.space.lock();
        let c = mgr.satcount(self.root, self.space.cur_levels());
        u64::try_from(c).expect("state spaces are capped at 2^32 states")
    }

    /// Some satisfying state, or `None` when false.
    pub fn witness(&self) -> Option<u64> {
        let mgr = self.space.lock();
        let path = mgr.witness_path(self.root)?;
        drop(mgr);
        Some(self.space.decode_cur_path(&path))
    }

    /// Distinct ROBDD nodes reachable from the root — the symbolic "size"
    /// the scaling experiments report.
    pub fn node_count(&self) -> usize {
        self.space.lock().reachable_nodes(self.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_state::StateSpace;

    fn setup() -> (Arc<StateSpace>, Arc<BddSpace>) {
        let space = StateSpace::builder()
            .nat_var("i", 5)
            .unwrap()
            .bool_var("b")
            .unwrap()
            .build()
            .unwrap();
        let bdd = BddSpace::new(&space);
        (space, bdd)
    }

    #[test]
    fn constants_and_counts() {
        let (space, bdd) = setup();
        let tt = SymbolicPredicate::tt(&bdd);
        let ff = SymbolicPredicate::ff(&bdd);
        assert!(tt.everywhere());
        assert!(ff.is_false());
        assert_eq!(tt.count(), space.num_states());
        assert_eq!(ff.count(), 0);
        assert_eq!(tt.negate(), ff);
        assert_eq!(ff.negate(), tt);
    }

    #[test]
    fn boolean_algebra_is_restricted() {
        let (space, bdd) = setup();
        let i = space.var("i").unwrap();
        let b = space.var("b").unwrap();
        let p = SymbolicPredicate::from_var_fn(&bdd, i, |x| x >= 2);
        let q = SymbolicPredicate::var_is_true(&bdd, b);
        assert_eq!(p.count(), 3 * 2);
        assert_eq!(q.count(), 5);
        assert_eq!(p.and(&q).count(), 3);
        assert_eq!(p.or(&q).count(), 6 + 5 - 3);
        // ¬¬p = p exactly (canonical restricted roots).
        assert_eq!(p.negate().negate(), p);
        // p ∧ ¬p = ff, p ∨ ¬p = tt.
        assert!(p.and(&p.negate()).is_false());
        assert!(p.or(&p.negate()).everywhere());
        // Entailment and iff.
        assert!(p.and(&q).entails(&p));
        assert!(!p.entails(&q));
        assert!(p.iff(&p).everywhere());
        assert_eq!(p.minus(&q).count(), 3);
    }

    #[test]
    fn holds_matches_explicit_roundtrip() {
        let (space, bdd) = setup();
        let i = space.var("i").unwrap();
        let p = SymbolicPredicate::var_eq(&bdd, i, 3);
        let explicit = p.to_explicit();
        for st in 0..space.num_states() {
            assert_eq!(p.holds(st), explicit.holds(st));
            assert_eq!(explicit.holds(st), space.value(st, i) == 3);
        }
        let back = SymbolicPredicate::from_explicit(&bdd, &explicit);
        assert_eq!(back, p);
    }

    #[test]
    fn quantifiers_project_views() {
        let (space, bdd) = setup();
        let i = space.var("i").unwrap();
        let b = space.var("b").unwrap();
        let p = SymbolicPredicate::var_eq(&bdd, i, 3);
        let q = SymbolicPredicate::var_is_true(&bdd, b);
        let conj = p.and(&q);
        // ∃b. (i = 3 ∧ b) = (i = 3); ∀b. same = ff.
        let only_b = VarSet::from_vars([b]);
        assert_eq!(conj.exists_vars(only_b), p);
        assert!(conj.forall_vars(only_b).is_false());
        // ∀b. (i = 3 ∨ b) = (i = 3).
        assert_eq!(p.or(&q).forall_vars(only_b), p);
        // Quantifying everything yields tt/ff.
        assert!(conj.exists_vars(space.all_vars()).everywhere());
    }

    #[test]
    fn witness_satisfies() {
        let (space, bdd) = setup();
        let i = space.var("i").unwrap();
        let p = SymbolicPredicate::from_var_fn(&bdd, i, |x| x == 4);
        let w = p.witness().unwrap();
        assert!(p.holds(w));
        assert_eq!(space.value(w, i), 4);
        assert!(SymbolicPredicate::ff(&bdd).witness().is_none());
    }
}
