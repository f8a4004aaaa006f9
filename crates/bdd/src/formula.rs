//! Symbolic evaluation of `kpt_logic::Formula` — the same semantics as
//! `kpt_logic::EvalContext` (parameters, domain-bounded quantifiers,
//! knowledge atoms), producing BDD roots instead of bitsets.
//!
//! Comparisons are the only atoms that need value arithmetic. Their sides
//! resolve through `kpt_logic::Term`, as in the explicit evaluator, and
//! are translated by walking the points of the two sides' *support* (the
//! product of the mentioned variables' domains, never the whole state
//! space) and OR-ing the cube of every point where the comparison holds.

use std::collections::HashMap;
use std::sync::Arc;

use kpt_logic::{CmpOp, EvalError, Expr, Formula, Term};
use kpt_state::{Domain, VarId, VarSet};

use crate::error::BddError;
use crate::knowledge::SymbolicKnowledge;
use crate::manager::{Manager, NodeId, FALSE};
use crate::predicate::SymbolicPredicate;
use crate::space::{term_at, BddSpace};

/// Evaluation context for symbolic formula evaluation: a space, named
/// integer parameters, and optionally a knowledge operator for `K{i}`
/// atoms.
pub struct SymbolicEvalContext<'a> {
    space: &'a Arc<BddSpace>,
    params: HashMap<String, i64>,
    knowledge: Option<&'a SymbolicKnowledge>,
}

impl<'a> SymbolicEvalContext<'a> {
    /// A context with no parameters and no knowledge semantics.
    pub fn new(space: &'a Arc<BddSpace>) -> Self {
        SymbolicEvalContext {
            space,
            params: HashMap::new(),
            knowledge: None,
        }
    }

    /// Bind a named parameter.
    #[must_use]
    pub fn with_param(mut self, name: &str, value: i64) -> Self {
        self.params.insert(name.to_owned(), value);
        self
    }

    /// Bind every parameter in `params`.
    #[must_use]
    pub fn with_params(mut self, params: &HashMap<String, i64>) -> Self {
        for (k, v) in params {
            self.params.insert(k.clone(), *v);
        }
        self
    }

    /// Attach knowledge semantics for `K{i}` atoms.
    #[must_use]
    pub fn with_knowledge(mut self, k: &'a SymbolicKnowledge) -> Self {
        self.knowledge = Some(k);
        self
    }

    /// Evaluate a formula to a symbolic predicate.
    ///
    /// # Errors
    /// The same failures as `kpt_logic::EvalContext::eval`, wrapped in
    /// [`BddError::Eval`], plus [`BddError::SupportTooLarge`] when a
    /// comparison mentions too many variable values to enumerate.
    pub fn eval(&self, f: &Formula) -> Result<SymbolicPredicate, BddError> {
        let mut mgr = self.space.lock();
        let root = self.eval_raw(&mut mgr, f)?;
        drop(mgr);
        Ok(SymbolicPredicate::new(self.space, root))
    }

    /// Evaluate and test validity over all valid states.
    ///
    /// # Errors
    /// As for [`SymbolicEvalContext::eval`].
    pub fn holds_everywhere(&self, f: &Formula) -> Result<bool, BddError> {
        Ok(self.eval(f)?.everywhere())
    }

    pub(crate) fn eval_raw(&self, mgr: &mut Manager, f: &Formula) -> Result<NodeId, BddError> {
        let space = self.space;
        let st_space = space.space();
        match f {
            Formula::Const(b) => Ok(if *b { space.domain_ok_cur() } else { FALSE }),
            Formula::BoolVar(name) => {
                if let Some(&v) = self.params.get(name) {
                    return match v {
                        0 => Ok(FALSE),
                        1 => Ok(space.domain_ok_cur()),
                        _ => Err(EvalError::Type(format!(
                            "parameter `{name}` used as boolean but has value {v}"
                        ))
                        .into()),
                    };
                }
                let var = st_space
                    .var(name)
                    .map_err(|_| EvalError::UnknownIdentifier(name.clone()))?;
                match st_space.domain(var) {
                    Domain::Bool => Ok(space.var_fn_raw(mgr, var, |x| x != 0)),
                    d => Err(EvalError::Type(format!(
                        "variable `{name}` of domain {d} used as boolean atom"
                    ))
                    .into()),
                }
            }
            Formula::Cmp(op, lhs, rhs) => self.eval_cmp(mgr, *op, lhs, rhs),
            Formula::Not(g) => {
                let inner = self.eval_raw(mgr, g)?;
                let n = mgr.not(inner);
                Ok(mgr.and(n, space.domain_ok_cur()))
            }
            Formula::And(a, b) => {
                let l = self.eval_raw(mgr, a)?;
                let r = self.eval_raw(mgr, b)?;
                Ok(mgr.and(l, r))
            }
            Formula::Or(a, b) => {
                let l = self.eval_raw(mgr, a)?;
                let r = self.eval_raw(mgr, b)?;
                Ok(mgr.or(l, r))
            }
            Formula::Implies(a, b) => {
                let l = self.eval_raw(mgr, a)?;
                let r = self.eval_raw(mgr, b)?;
                let imp = mgr.implies(l, r);
                Ok(mgr.and(imp, space.domain_ok_cur()))
            }
            Formula::Iff(a, b) => {
                let l = self.eval_raw(mgr, a)?;
                let r = self.eval_raw(mgr, b)?;
                let eq = mgr.iff(l, r);
                Ok(mgr.and(eq, space.domain_ok_cur()))
            }
            Formula::Forall(name, body) => {
                let var = self.quantified_var(name)?;
                let inner = self.eval_raw(mgr, body)?;
                Ok(space.forall_vars_raw(mgr, inner, [var]))
            }
            Formula::Exists(name, body) => {
                let var = self.quantified_var(name)?;
                let inner = self.eval_raw(mgr, body)?;
                Ok(space.exists_vars_raw(mgr, inner, [var]))
            }
            Formula::Knows(process, body) => {
                let inner = self.eval_raw(mgr, body)?;
                match self.knowledge {
                    Some(k) => {
                        let view = k.view(process)?;
                        Ok(k.knows_view_raw(mgr, view, inner))
                    }
                    None => Err(EvalError::KnowledgeUnavailable.into()),
                }
            }
        }
    }

    fn quantified_var(&self, name: &str) -> Result<VarId, BddError> {
        self.space
            .space()
            .var(name)
            .map_err(|_| EvalError::UnknownIdentifier(name.to_owned()).into())
    }

    fn eval_cmp(
        &self,
        mgr: &mut Manager,
        op: CmpOp,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Result<NodeId, BddError> {
        let st_space = self.space.space();
        let (l, r) = Term::resolve_cmp(st_space, &self.params, lhs, rhs)?;
        let mut support = VarSet::default();
        l.support(&mut support);
        r.support(&mut support);
        let vars: Vec<VarId> = support.iter().collect();
        self.space
            .check_support(&vars, || format!("comparison `{}`", op.symbol()))?;
        let mut acc = FALSE;
        self.space
            .for_each_support_point(mgr, &vars, |mgr, point, cube| {
                if op.apply(term_at(&l, &vars, point), term_at(&r, &vars, point)) {
                    acc = mgr.or(acc, cube);
                }
            });
        Ok(mgr.and(acc, self.space.domain_ok_cur()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_logic::parse_formula;
    use kpt_state::StateSpace;

    fn setup() -> (Arc<StateSpace>, Arc<BddSpace>) {
        let space = StateSpace::builder()
            .bool_var("b")
            .unwrap()
            .nat_var("i", 4)
            .unwrap()
            .nat_var("j", 4)
            .unwrap()
            .enum_var("z", ["bot", "m0", "m1"])
            .unwrap()
            .build()
            .unwrap();
        let bdd = BddSpace::new(&space);
        (space, bdd)
    }

    fn agree(src: &str, space: &Arc<StateSpace>, bdd: &Arc<BddSpace>) {
        let f = parse_formula(src).unwrap();
        let explicit = kpt_logic::EvalContext::new(space)
            .with_param("k", 2)
            .eval(&f)
            .unwrap();
        let symbolic = SymbolicEvalContext::new(bdd)
            .with_param("k", 2)
            .eval(&f)
            .unwrap();
        assert_eq!(symbolic.to_explicit(), explicit, "formula `{src}`");
    }

    #[test]
    fn formulas_agree_with_explicit_evaluation() {
        let (space, bdd) = setup();
        for src in [
            "true",
            "false",
            "b",
            "~b",
            "i = 2",
            "i != j",
            "i + 1 <= j",
            "i - j >= 0",
            "i = k",
            "z = m1",
            "bot = z",
            "b && i < 2",
            "b || i < 2",
            "(i <= j) => (j >= i)",
            "(i = j) <=> (j = i)",
            "forall i :: i <= 3",
            "exists j :: j > i",
            "forall i :: (exists j :: j = i)",
        ] {
            agree(src, &space, &bdd);
        }
    }

    #[test]
    fn errors_mirror_explicit_evaluation() {
        let (space, bdd) = setup();
        let ctx = SymbolicEvalContext::new(&bdd);
        // Only a bare side reads as a label (`m0 + 1` is arithmetic on an
        // unknown name), and the leftmost culprit is named, left side first.
        let explicit = kpt_logic::EvalContext::new(&space);
        for (src, name) in [
            ("(m0 + 1) = z", "m0"),
            ("z = m0 + 1", "m0"),
            ("m0 - 0 = z", "m0"),
            ("ghost1 = ghost2", "ghost1"),
            ("ghost1 + 1 = ghost2", "ghost1"),
            ("i = ghost2 + ghost3", "ghost2"),
            ("i + ghost9 = ghost2", "ghost9"),
        ] {
            let f = parse_formula(src).unwrap();
            let want = EvalError::UnknownIdentifier(name.into());
            assert_eq!(explicit.eval(&f).unwrap_err(), want, "{src}");
            match ctx.eval(&f) {
                Err(BddError::Eval(e)) => assert_eq!(e, want, "{src}"),
                other => panic!("`{src}`: symbolic gave {other:?}, explicit {want:?}"),
            }
        }
        let f = parse_formula("nosuch = 3").unwrap();
        assert!(matches!(
            ctx.eval(&f),
            Err(BddError::Eval(EvalError::UnknownIdentifier(_)))
        ));
        let f = parse_formula("i = 1 && K{P}(b)").unwrap();
        assert!(matches!(
            ctx.eval(&f),
            Err(BddError::Eval(EvalError::KnowledgeUnavailable))
        ));
        let f = parse_formula("i").unwrap();
        assert!(matches!(
            ctx.eval(&f),
            Err(BddError::Eval(EvalError::Type(_)))
        ));
    }
}
