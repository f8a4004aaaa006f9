//! Compiled UNITY programs: exact transition semantics plus the UNITY
//! property checkers of §5.
//!
//! A [`CompiledProgram`] holds one [`DetTransition`] per statement: the
//! states its guard enables and its update moves, with their targets; every
//! other state is fixed (§5: a disabled statement "has no effect"). The
//! paper's proof rules become *decision procedures* here because the
//! strongest invariant `SI` is exactly computable (eq. 5):
//!
//! * `invariant p  ≡  [SI ⇒ p]` — [`CompiledProgram::invariant`];
//! * `p unless q` per eq. (27) — [`CompiledProgram::unless`];
//! * `p ensures q` per eq. (28) — [`CompiledProgram::ensures`];
//! * `stable p ≡ p unless false` (eq. 33) — [`CompiledProgram::stable`];
//! * `p ↦ q` — decided by the SCC-based model checker in
//!   [`crate::leads_to`], surfaced as [`CompiledProgram::leads_to`].

use std::sync::{Arc, OnceLock};

use kpt_state::{Predicate, StateSpace};
use kpt_transformers::{sp_union, strongest_invariant_frontier, DetTransition};

use crate::leadsto::{leads_to, LeadsToReport};
use crate::program::Process;

/// A UNITY program compiled to exact per-statement transitions.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    name: String,
    space: Arc<StateSpace>,
    init: Predicate,
    statement_names: Vec<String>,
    transitions: Vec<DetTransition>,
    processes: Vec<Process>,
    si: OnceLock<Predicate>,
}

impl CompiledProgram {
    pub(crate) fn new(
        name: String,
        space: &Arc<StateSpace>,
        init: Predicate,
        statement_names: Vec<String>,
        transitions: Vec<DetTransition>,
        processes: Vec<Process>,
    ) -> Self {
        CompiledProgram {
            name,
            space: Arc::clone(space),
            init,
            statement_names,
            transitions,
            processes,
            si: OnceLock::new(),
        }
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The state space.
    pub fn space(&self) -> &Arc<StateSpace> {
        &self.space
    }

    /// The initial-state predicate.
    pub fn init(&self) -> &Predicate {
        &self.init
    }

    /// Number of statements.
    pub fn num_statements(&self) -> usize {
        self.transitions.len()
    }

    /// Name of statement `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn statement_name(&self, idx: usize) -> &str {
        &self.statement_names[idx]
    }

    /// The compiled transitions, one per statement.
    pub fn transitions(&self) -> &[DetTransition] {
        &self.transitions
    }

    /// The declared processes.
    pub fn processes(&self) -> &[Process] {
        &self.processes
    }

    /// Execute statement `idx` atomically from `state`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn step(&self, idx: usize, state: u64) -> u64 {
        self.transitions[idx].step(state)
    }

    /// The whole-program strongest postcondition `SP.p` of eq. (26).
    #[must_use]
    pub fn sp(&self, p: &Predicate) -> Predicate {
        sp_union(&self.transitions, p)
    }

    /// The strongest invariant `SI = sst.init` (eq. 5): the exact set of
    /// reachable states. Computed once and cached, by frontier propagation
    /// over the statement transitions.
    pub fn si(&self) -> &Predicate {
        self.si
            .get_or_init(|| strongest_invariant_frontier(&self.transitions, &self.init))
    }

    /// `invariant p ≡ [SI ⇒ p]` (eq. 5).
    pub fn invariant(&self, p: &Predicate) -> bool {
        self.si().entails(p)
    }

    /// `stable p`: once true, `p` stays true — `p unless false` (eq. 33).
    /// Checked relative to `SI`, like all properties in the modified logic
    /// of \[San91\].
    pub fn stable(&self, p: &Predicate) -> bool {
        self.unless(p, &Predicate::ff(&self.space))
    }

    /// `p unless q` per eq. (27):
    /// `(∀ s :: [SI ⇒ ((p ∧ ¬q) ⇒ wp.s.(p ∨ q))])`.
    pub fn unless(&self, p: &Predicate, q: &Predicate) -> bool {
        let si = self.si();
        let pre = p.minus(q).and(si);
        let post = p.or(q);
        self.transitions.iter().all(|t| pre.entails(&t.wp(&post)))
    }

    /// `p ensures q` per eq. (28): `p unless q` and some single statement
    /// establishes `q` from every `SI ∧ p ∧ ¬q` state.
    pub fn ensures(&self, p: &Predicate, q: &Predicate) -> bool {
        self.ensures_by(p, q).is_some()
    }

    /// Like [`CompiledProgram::ensures`], but returns the index of a
    /// witnessing statement.
    pub fn ensures_by(&self, p: &Predicate, q: &Predicate) -> Option<usize> {
        if !self.unless(p, q) {
            return None;
        }
        let pre = p.minus(q).and(self.si());
        self.transitions.iter().position(|t| pre.entails(&t.wp(q)))
    }

    /// Decide `p ↦ q` under UNITY's unconditional fairness, with a
    /// counterexample report on failure.
    pub fn leads_to(&self, p: &Predicate, q: &Predicate) -> LeadsToReport {
        leads_to(self, p, q)
    }

    /// Whether `p ↦ q` holds (convenience over [`CompiledProgram::leads_to`]).
    pub fn leads_to_holds(&self, p: &Predicate, q: &Predicate) -> bool {
        self.leads_to(p, q).holds()
    }

    /// The *fixed point* predicate `FP`: states where no statement changes
    /// anything (§5: "the analogy to termination is reaching a fixed
    /// point").
    #[must_use]
    pub fn fixed_point(&self) -> Predicate {
        let mut fp = Predicate::tt(&self.space);
        for t in &self.transitions {
            fp.and_assign(&t.fixed_states());
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;
    use crate::statement::Statement;

    fn counter() -> CompiledProgram {
        let space = StateSpace::builder()
            .nat_var("i", 5)
            .unwrap()
            .bool_var("flag")
            .unwrap()
            .build()
            .unwrap();
        Program::builder("counter", &space)
            .init_str("i = 0 /\\ ~flag")
            .unwrap()
            .statement(
                Statement::new("inc")
                    .guard_str("i < 4")
                    .unwrap()
                    .assign_str("i", "i + 1")
                    .unwrap(),
            )
            .statement(
                Statement::new("raise")
                    .guard_str("i = 4")
                    .unwrap()
                    .assign_str("flag", "1")
                    .unwrap(),
            )
            .build()
            .unwrap()
            .compile()
            .unwrap()
    }

    #[test]
    fn si_is_reachable_set() {
        let c = counter();
        let sp = c.space().clone();
        let i = sp.var("i").unwrap();
        let flag = sp.var("flag").unwrap();
        let si = c.si();
        // Reachable: flag can only be true when i = 4.
        for idx in 0..sp.num_states() {
            let reach = !sp.value_bool(idx, flag) || sp.value(idx, i) == 4;
            assert_eq!(si.holds(idx), reach, "state {}", sp.render_state(idx));
        }
    }

    #[test]
    fn invariant_check() {
        let c = counter();
        let sp = c.space().clone();
        let flag = sp.var("flag").unwrap();
        let i = sp.var("i").unwrap();
        let inv = Predicate::var_is_true(&sp, flag).implies(&Predicate::var_eq(&sp, i, 4));
        assert!(c.invariant(&inv));
        assert!(!c.invariant(&Predicate::var_eq(&sp, i, 0)));
        assert!(c.invariant(&Predicate::tt(&sp)));
    }

    #[test]
    fn unless_and_stable() {
        let c = counter();
        let sp = c.space().clone();
        let i = sp.var("i").unwrap();
        // i = 2 unless i = 3.
        assert!(c.unless(&Predicate::var_eq(&sp, i, 2), &Predicate::var_eq(&sp, i, 3)));
        // i = 2 is not stable.
        assert!(!c.stable(&Predicate::var_eq(&sp, i, 2)));
        // i >= 2 is stable.
        let ge2 = Predicate::from_var_fn(&sp, i, |v| v >= 2);
        assert!(c.stable(&ge2));
        // false and true are trivially stable.
        assert!(c.stable(&Predicate::ff(&sp)));
        assert!(c.stable(&Predicate::tt(&sp)));
    }

    #[test]
    fn ensures_needs_single_witness_statement() {
        let c = counter();
        let sp = c.space().clone();
        let i = sp.var("i").unwrap();
        let p = Predicate::var_eq(&sp, i, 2);
        let q = Predicate::var_eq(&sp, i, 3);
        assert_eq!(c.ensures_by(&p, &q), Some(0));
        // i = 2 does not ensure i = 4 (no single statement gets there).
        assert!(!c.ensures(&p, &Predicate::var_eq(&sp, i, 4)));
    }

    #[test]
    fn fixed_point_is_terminal_state() {
        let c = counter();
        let sp = c.space().clone();
        let fp = c.fixed_point();
        // FP: i = 4 ∧ flag (inc disabled, raise idempotent... raise sets
        // flag, so FP requires flag already true).
        let i = sp.var("i").unwrap();
        let flag = sp.var("flag").unwrap();
        for idx in fp.iter() {
            assert_eq!(sp.value(idx, i), 4);
            assert!(sp.value_bool(idx, flag));
        }
        assert!(!fp.is_false());
    }

    #[test]
    fn unless_uses_si() {
        // A property that fails somewhere unreachable but holds on SI.
        let c = counter();
        let sp = c.space().clone();
        let i = sp.var("i").unwrap();
        let flag = sp.var("flag").unwrap();
        // In unreachable states (flag ∧ i<4), "inc" would break p = ¬flag ∨ i=4...
        // Construct: p = flag => i = 4 is invariant hence stable *on SI*.
        let p = Predicate::var_is_true(&sp, flag).implies(&Predicate::var_eq(&sp, i, 4));
        assert!(c.stable(&p));
    }
}
