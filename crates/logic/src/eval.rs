//! Evaluation of syntactic [`Formula`]s to semantic [`Predicate`]s.
//!
//! An [`EvalContext`] carries the state space, values of *rigid parameters*
//! (the implicitly-universally-quantified free variables like `k` in the
//! paper's property (35)), and — optionally — a knowledge semantics used to
//! interpret `K{i}` atoms. The knowledge semantics is supplied as a closure
//! so that this crate stays independent of how knowledge is defined;
//! `kpt-core` plugs in the paper's eq. (13).

use std::collections::HashMap;
use std::sync::Arc;

use kpt_state::{exists_var, forall_var, Predicate, StateSpace, VarId};

use crate::ast::{CmpOp, Formula};
use crate::error::EvalError;
use crate::term::Term;
use crate::walk::{resolve_binder, resolve_bool_atom, walk, BoolAtom, Engine};

/// The signature of a pluggable knowledge semantics: given a process name
/// and the semantic predicate of the body, produce the semantic predicate of
/// `K{process}(body)`.
pub type KnowledgeFn<'a> = dyn Fn(&str, &Predicate) -> Result<Predicate, EvalError> + 'a;

/// Context for evaluating formulas over a state space.
///
/// # Examples
/// ```
/// use kpt_logic::{parse_formula, EvalContext};
/// use kpt_state::StateSpace;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = StateSpace::builder().nat_var("i", 4)?.nat_var("j", 4)?.build()?;
/// let ctx = EvalContext::new(&space).with_param("k", 2);
/// let p = ctx.eval(&parse_formula("i = k /\\ j >= k")?)?;
/// assert_eq!(p.count(), 2); // i=2, j ∈ {2,3}
/// # Ok(())
/// # }
/// ```
pub struct EvalContext<'a> {
    space: &'a Arc<StateSpace>,
    params: HashMap<String, i64>,
    knowledge: Option<&'a KnowledgeFn<'a>>,
}

impl<'a> EvalContext<'a> {
    /// A context with no rigid parameters and no knowledge semantics.
    pub fn new(space: &'a Arc<StateSpace>) -> Self {
        EvalContext {
            space,
            params: HashMap::new(),
            knowledge: None,
        }
    }

    /// Bind a rigid parameter. Parameters shadow program variables of the
    /// same name (bind them explicitly to avoid ambiguity).
    #[must_use]
    pub fn with_param(mut self, name: impl Into<String>, value: i64) -> Self {
        self.params.insert(name.into(), value);
        self
    }

    /// Attach a knowledge semantics for `K{i}` atoms.
    #[must_use]
    pub fn with_knowledge(mut self, k: &'a KnowledgeFn<'a>) -> Self {
        self.knowledge = Some(k);
        self
    }

    /// The state space of this context.
    pub fn space(&self) -> &'a Arc<StateSpace> {
        self.space
    }

    /// Evaluate a formula to the exact set of states where it holds: the
    /// bitset engine of [`walk`](crate::walk).
    ///
    /// # Errors
    /// [`EvalError::UnknownIdentifier`] for unresolvable names,
    /// [`EvalError::Type`] for ill-typed formulas, and
    /// [`EvalError::KnowledgeUnavailable`] if a `K{i}` atom appears without
    /// an attached knowledge semantics.
    pub fn eval(&self, f: &Formula) -> Result<Predicate, EvalError> {
        walk(&mut Bitsets(self), self.space, &self.params, f)
    }

    /// Evaluate a formula and test whether it holds everywhere (`[φ]`).
    ///
    /// # Errors
    /// As for [`EvalContext::eval`].
    pub fn holds_everywhere(&self, f: &Formula) -> Result<bool, EvalError> {
        Ok(self.eval(f)?.everywhere())
    }

    /// Evaluate a formula at a *single* state — `O(|φ| · domain)` instead of
    /// `O(states)`, so run monitors can check formulas along executions
    /// cheaply. Knowledge atoms still require the full predicate (their
    /// semantics quantifies over the space) and fall back to [`Self::eval`].
    /// Connectives short-circuit, so an ill-typed operand they skip is not
    /// reported.
    ///
    /// # Errors
    /// As for [`EvalContext::eval`].
    ///
    /// # Panics
    /// Panics if `state` is out of range for the space.
    pub fn holds_at(&self, f: &Formula, state: u64) -> Result<bool, EvalError> {
        assert!(state < self.space.num_states(), "state index out of range");
        match f {
            Formula::Const(b) => Ok(*b),
            Formula::BoolVar(name) => {
                Ok(match resolve_bool_atom(self.space, &self.params, name)? {
                    BoolAtom::Const(b) => b,
                    BoolAtom::Var(var) => self.space.value_bool(state, var),
                })
            }
            Formula::Cmp(op, lhs, rhs) => {
                let (l, r) = Term::resolve_cmp(self.space, &self.params, lhs, rhs)?;
                Ok(op.apply(
                    l.eval_state(self.space, state),
                    r.eval_state(self.space, state),
                ))
            }
            Formula::Not(g) => Ok(!self.holds_at(g, state)?),
            Formula::And(a, b) => Ok(self.holds_at(a, state)? && self.holds_at(b, state)?),
            Formula::Or(a, b) => Ok(self.holds_at(a, state)? || self.holds_at(b, state)?),
            Formula::Implies(a, b) => Ok(!self.holds_at(a, state)? || self.holds_at(b, state)?),
            Formula::Iff(a, b) => Ok(self.holds_at(a, state)? == self.holds_at(b, state)?),
            Formula::Forall(name, body) | Formula::Exists(name, body) => {
                // ∃ stops at the first witness, ∀ at the first counterexample.
                let var = resolve_binder(self.space, name)?;
                let stop_at = matches!(f, Formula::Exists(..));
                for v in 0..self.space.domain(var).size() {
                    if self.holds_at(body, self.space.with_value(state, var, v))? == stop_at {
                        return Ok(stop_at);
                    }
                }
                Ok(!stop_at)
            }
            Formula::Knows(..) => Ok(self.eval(f)?.holds(state)),
        }
    }
}

/// The explicit engine: state sets as bitsets over the context's space.
struct Bitsets<'c, 'a>(&'c EvalContext<'a>);

impl Engine for Bitsets<'_, '_> {
    type Value = Predicate;
    type Error = EvalError;

    fn constant(&mut self, b: bool) -> Predicate {
        if b {
            Predicate::tt(self.0.space)
        } else {
            Predicate::ff(self.0.space)
        }
    }

    fn bool_var(&mut self, var: VarId) -> Predicate {
        Predicate::var_is_true(self.0.space, var)
    }

    fn cmp(&mut self, op: CmpOp, l: &Term, r: &Term) -> Result<Predicate, EvalError> {
        let space = self.0.space;
        Ok(Predicate::from_fn(space, |idx| {
            op.apply(l.eval_state(space, idx), r.eval_state(space, idx))
        }))
    }

    fn not(&mut self, a: Predicate) -> Predicate {
        a.negate()
    }

    fn and(&mut self, a: Predicate, b: Predicate) -> Predicate {
        a.and(&b)
    }

    fn or(&mut self, a: Predicate, b: Predicate) -> Predicate {
        a.or(&b)
    }

    fn implies(&mut self, a: Predicate, b: Predicate) -> Predicate {
        a.implies(&b)
    }

    fn iff(&mut self, a: Predicate, b: Predicate) -> Predicate {
        a.iff(&b)
    }

    fn forall(&mut self, var: VarId, body: Predicate) -> Predicate {
        forall_var(&body, var)
    }

    fn exists(&mut self, var: VarId, body: Predicate) -> Predicate {
        exists_var(&body, var)
    }

    fn knows(&mut self, process: &str, body: Predicate) -> Option<Result<Predicate, EvalError>> {
        self.0.knowledge.map(|k| k(process, &body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_formula;

    fn space() -> Arc<StateSpace> {
        StateSpace::builder()
            .bool_var("b")
            .unwrap()
            .nat_var("i", 4)
            .unwrap()
            .nat_var("j", 4)
            .unwrap()
            .enum_var("z", ["bot", "m0", "m1"])
            .unwrap()
            .build()
            .unwrap()
    }

    fn eval(s: &str, ctx: &EvalContext) -> Predicate {
        ctx.eval(&parse_formula(s).unwrap()).unwrap()
    }

    #[test]
    fn compound_sides_never_label_resolve() {
        // Regression (found preparing the differential fuzz campaign): the
        // enum-label fallback used to fire for *compound* sides too, so
        // `(m0 + 1) = z` silently evaluated as `code(m0) = z`, dropping the
        // `+ 1`. Only a bare identifier may read as a label.
        let sp = space();
        let ctx = EvalContext::new(&sp);
        assert_eq!(eval("z = m0", &ctx).count(), 32); // bare: fine
        for bad in ["(m0 + 1) = z", "z = m0 + 1", "m0 - 0 = z"] {
            let e = ctx.eval(&parse_formula(bad).unwrap()).unwrap_err();
            assert_eq!(e, EvalError::UnknownIdentifier("m0".into()), "{bad}: {e}");
            // The single-state evaluator agrees.
            let e2 = ctx.holds_at(&parse_formula(bad).unwrap(), 0).unwrap_err();
            assert_eq!(e, e2, "{bad}");
        }
    }

    #[test]
    fn leftmost_unresolved_identifier_is_reported() {
        let sp = space();
        let ctx = EvalContext::new(&sp);
        for (src, name) in [
            ("ghost1 = ghost2", "ghost1"),
            ("ghost1 + 1 = ghost2", "ghost1"),
            ("i = ghost2 + ghost3", "ghost2"),
            ("i + ghost9 = ghost2", "ghost9"),
        ] {
            let e = ctx.eval(&parse_formula(src).unwrap()).unwrap_err();
            assert_eq!(e, EvalError::UnknownIdentifier(name.into()), "{src}");
        }
    }

    #[test]
    fn constants_and_bool_vars() {
        let sp = space();
        let ctx = EvalContext::new(&sp);
        assert!(eval("true", &ctx).everywhere());
        assert!(eval("false", &ctx).is_false());
        let b = eval("b", &ctx);
        assert_eq!(b, Predicate::var_is_true(&sp, sp.var("b").unwrap()));
    }

    #[test]
    fn comparisons_and_arithmetic() {
        let sp = space();
        let ctx = EvalContext::new(&sp);
        let p = eval("i + 1 = j", &ctx);
        for idx in 0..sp.num_states() {
            let i = sp.value(idx, sp.var("i").unwrap()) as i64;
            let j = sp.value(idx, sp.var("j").unwrap()) as i64;
            assert_eq!(p.holds(idx), i + 1 == j);
        }
        let q = eval("i - j >= 1", &ctx);
        assert!(!q.is_false());
    }

    #[test]
    fn enum_labels_resolve_in_comparisons() {
        let sp = space();
        let ctx = EvalContext::new(&sp);
        let p = eval("z = m1", &ctx);
        assert_eq!(p, Predicate::var_eq(&sp, sp.var("z").unwrap(), 2));
        let q = eval("bot = z", &ctx); // symmetric resolution
        assert_eq!(q, Predicate::var_eq(&sp, sp.var("z").unwrap(), 0));
        let r = eval("z != bot", &ctx);
        assert_eq!(r, p.or(&Predicate::var_eq(&sp, sp.var("z").unwrap(), 1)));
    }

    #[test]
    fn rigid_parameters() {
        let sp = space();
        let ctx = EvalContext::new(&sp).with_param("k", 2);
        let p = eval("i = k", &ctx);
        assert_eq!(p, Predicate::var_eq(&sp, sp.var("i").unwrap(), 2));
        // Parameters shadow nothing here, but do work inside K-free formulas
        // with arithmetic:
        let q = eval("j >= k - 1", &ctx);
        let manual = Predicate::from_var_fn(&sp, sp.var("j").unwrap(), |v| v >= 1);
        assert_eq!(q, manual);
    }

    #[test]
    fn connectives() {
        let sp = space();
        let ctx = EvalContext::new(&sp);
        let p = eval("b /\\ i = 0", &ctx);
        let q = eval("~(~b \\/ ~(i = 0))", &ctx);
        assert_eq!(p, q);
        let r = eval("b => i = 0", &ctx);
        assert_eq!(r, eval("~b \\/ i = 0", &ctx));
        let s = eval("b <=> i = 0", &ctx);
        assert_eq!(s, eval("(b => i = 0) /\\ (i = 0 => b)", &ctx));
    }

    #[test]
    fn state_quantifiers() {
        let sp = space();
        let ctx = EvalContext::new(&sp);
        // ∃i :: i = j  is true everywhere (j ranges 0..4 too).
        assert!(eval("exists i :: i = j", &ctx).everywhere());
        // ∀i :: i = j is false everywhere.
        assert!(eval("forall i :: i = j", &ctx).is_false());
        // ∀i :: i < 4 is true.
        assert!(eval("forall i :: i < 4", &ctx).everywhere());
    }

    #[test]
    fn knowledge_requires_semantics() {
        let sp = space();
        let ctx = EvalContext::new(&sp);
        let e = ctx.eval(&parse_formula("K{S}(b)").unwrap()).unwrap_err();
        assert_eq!(e, EvalError::KnowledgeUnavailable);
    }

    #[test]
    fn knowledge_callback_is_used() {
        let sp = space();
        // A degenerate "knowledge" that returns the body unchanged.
        let k: Box<KnowledgeFn> = Box::new(|_proc, p: &Predicate| Ok(p.clone()));
        let ctx = EvalContext::new(&sp).with_knowledge(&k);
        let p = ctx.eval(&parse_formula("K{S}(b)").unwrap()).unwrap();
        assert_eq!(p, Predicate::var_is_true(&sp, sp.var("b").unwrap()));
    }

    #[test]
    fn unknown_identifier_errors() {
        let sp = space();
        let ctx = EvalContext::new(&sp);
        assert!(matches!(
            ctx.eval(&parse_formula("nosuch = 1").unwrap()),
            Err(EvalError::UnknownIdentifier(_))
        ));
        assert!(matches!(
            ctx.eval(&parse_formula("nosuch").unwrap()),
            Err(EvalError::UnknownIdentifier(_))
        ));
        // Label on both sides (neither resolvable).
        assert!(matches!(
            ctx.eval(&parse_formula("foo = bar").unwrap()),
            Err(EvalError::UnknownIdentifier(_))
        ));
    }

    #[test]
    fn type_errors() {
        let sp = space();
        let ctx = EvalContext::new(&sp);
        // nat variable used as boolean atom
        assert!(matches!(
            ctx.eval(&parse_formula("i").unwrap()),
            Err(EvalError::Type(_))
        ));
        let ctx2 = EvalContext::new(&sp).with_param("k", 7);
        assert!(matches!(
            ctx2.eval(&parse_formula("k").unwrap()),
            Err(EvalError::Type(_))
        ));
        // Boolean-valued parameter is fine.
        let ctx3 = EvalContext::new(&sp).with_param("k", 1);
        assert!(ctx3
            .eval(&parse_formula("k").unwrap())
            .unwrap()
            .everywhere());
    }

    #[test]
    fn holds_at_agrees_with_eval_everywhere() {
        let sp = space();
        let ctx = EvalContext::new(&sp).with_param("k", 2);
        for src in [
            "true",
            "b",
            "i + 1 = j",
            "z = m1",
            "b => i = k",
            "~(b /\\ i = 0) <=> (~b \\/ i != 0)",
            "forall i :: i < 4",
            "exists j :: j = i",
            "forall j :: j = i => i = j",
        ] {
            let f = parse_formula(src).unwrap();
            let full = ctx.eval(&f).unwrap();
            for st in 0..sp.num_states() {
                assert_eq!(
                    ctx.holds_at(&f, st).unwrap(),
                    full.holds(st),
                    "{src} at state {st}"
                );
            }
        }
    }

    #[test]
    fn holds_at_knowledge_falls_back() {
        let sp = space();
        let k: Box<KnowledgeFn> = Box::new(|_proc, p: &Predicate| Ok(p.clone()));
        let ctx = EvalContext::new(&sp).with_knowledge(&k);
        let f = parse_formula("K{S}(b)").unwrap();
        let full = ctx.eval(&f).unwrap();
        for st in (0..sp.num_states()).step_by(7) {
            assert_eq!(ctx.holds_at(&f, st).unwrap(), full.holds(st));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn holds_at_bad_state_panics() {
        let sp = space();
        let ctx = EvalContext::new(&sp);
        let _ = ctx.holds_at(&parse_formula("true").unwrap(), sp.num_states());
    }

    #[test]
    fn holds_everywhere_judgement() {
        let sp = space();
        let ctx = EvalContext::new(&sp);
        assert!(ctx
            .holds_everywhere(&parse_formula("i < 4").unwrap())
            .unwrap());
        assert!(!ctx
            .holds_everywhere(&parse_formula("i < 3").unwrap())
            .unwrap());
    }
}
