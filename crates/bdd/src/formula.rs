//! Symbolic evaluation of `kpt_logic::Formula`: the BDD engine of
//! `kpt_logic::walk`, which resolves names and types the formula for this
//! engine and the explicit one alike. Only the set operations live here.

use std::collections::HashMap;
use std::sync::Arc;

use kpt_logic::{walk, CmpOp, Engine, Formula, Term};
use kpt_state::{VarId, VarSet};

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
        self.params
            .extend(params.iter().map(|(k, v)| (k.clone(), *v)));
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

    /// Evaluate under the manager lock the caller already holds: the BDD
    /// engine of `kpt_logic::walk`, on raw roots.
    pub(crate) fn eval_raw(&self, mgr: &mut Manager, f: &Formula) -> Result<NodeId, BddError> {
        let mut engine = Bdds {
            space: self.space,
            mgr,
            knowledge: self.knowledge,
        };
        walk(&mut engine, self.space.space(), &self.params, f)
    }
}

/// The symbolic engine: state sets as raw roots of the locked manager.
/// Every set stays inside `domain_ok`, so a complement never adds the
/// codes past a domain's end that its bits can spell.
struct Bdds<'c, 'm> {
    space: &'c Arc<BddSpace>,
    mgr: &'m mut Manager,
    knowledge: Option<&'c SymbolicKnowledge>,
}

impl Bdds<'_, '_> {
    fn valid(&mut self, n: NodeId) -> NodeId {
        self.mgr.and(n, self.space.domain_ok_cur())
    }
}

impl Engine for Bdds<'_, '_> {
    type Value = NodeId;
    type Error = BddError;

    fn constant(&mut self, b: bool) -> NodeId {
        if b {
            self.space.domain_ok_cur()
        } else {
            FALSE
        }
    }

    fn bool_var(&mut self, var: VarId) -> NodeId {
        self.space.var_fn_raw(self.mgr, var, |x| x != 0)
    }

    /// OR of the cube of every point of the sides' support (the product of
    /// the variables they read, never the whole space) where `l op r`.
    fn cmp(&mut self, op: CmpOp, l: &Term, r: &Term) -> Result<NodeId, BddError> {
        let mut support = VarSet::default();
        l.support(&mut support);
        r.support(&mut support);
        let vars: Vec<VarId> = support.iter().collect();
        self.space
            .check_support(&vars, || format!("comparison `{}`", op.symbol()))?;
        let mut acc = FALSE;
        self.space
            .for_each_support_point(self.mgr, &vars, |mgr, point, cube| {
                if op.apply(term_at(l, &vars, point), term_at(r, &vars, point)) {
                    acc = mgr.or(acc, cube);
                }
            });
        Ok(self.valid(acc))
    }

    fn not(&mut self, a: NodeId) -> NodeId {
        let n = self.mgr.not(a);
        self.valid(n)
    }

    fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.mgr.and(a, b)
    }

    fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.mgr.or(a, b)
    }

    fn implies(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let n = self.mgr.implies(a, b);
        self.valid(n)
    }

    fn iff(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let n = self.mgr.iff(a, b);
        self.valid(n)
    }

    fn forall(&mut self, var: VarId, body: NodeId) -> NodeId {
        self.space.forall_vars_raw(self.mgr, body, [var])
    }

    fn exists(&mut self, var: VarId, body: NodeId) -> NodeId {
        self.space.exists_vars_raw(self.mgr, body, [var])
    }

    fn knows(&mut self, process: &str, body: NodeId) -> Option<Result<NodeId, BddError>> {
        let k = self.knowledge?;
        Some(
            k.view(process)
                .map(|view| k.knows_view_raw(self.mgr, view, body)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_logic::{parse_formula, EvalError};
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

        // Boolean parameters, binders and knowledge atoms (knowledge
        // attached, `P` seeing only `b`): the explicit engine, the symbolic
        // engine and `holds_at` give the same answer or the same error.
        let views = vec![("P".to_owned(), VarSet::from_vars([space.var("b").unwrap()]))];
        let explicit_k = kpt_core::KnowledgeContext::new(
            &space,
            views.clone(),
            kpt_state::Predicate::tt(&space),
        )
        .unwrap();
        let kfn = explicit_k.knowledge_fn();
        let symbolic_k = SymbolicKnowledge::with_si(&bdd, views, &SymbolicPredicate::tt(&bdd));
        let type_error = |v: i64| {
            Err(EvalError::Type(format!(
                "parameter `k` used as boolean but has value {v}"
            )))
        };
        let unknown = |name: &str| Err(EvalError::UnknownIdentifier(name.into()));
        let ok = Ok(());
        for (k, src, want) in [
            (0, "k", ok.clone()),
            (1, "k", ok.clone()),
            (0, "~k /\\ b", ok.clone()),
            (1, "k => i = 1", ok.clone()),
            (2, "k", type_error(2)),
            (2, "~k \\/ b", type_error(2)),
            (0, "K{P}(b) /\\ i = 0", ok.clone()),
            (0, "forall ghost :: b", unknown("ghost")),
            (0, "exists ghost :: K{P}(b)", unknown("ghost")),
            (
                0,
                "K{Nobody}(b)",
                Err(EvalError::UnknownProcess("Nobody".into())),
            ),
        ] {
            let f = parse_formula(src).unwrap();
            let explicit = kpt_logic::EvalContext::new(&space)
                .with_param("k", k)
                .with_knowledge(&*kfn);
            let symbolic = SymbolicEvalContext::new(&bdd)
                .with_param("k", k)
                .with_knowledge(&symbolic_k);
            let (e, s) = (explicit.eval(&f), symbolic.eval(&f));
            match (&e, &s, &want) {
                (Ok(e), Ok(s), Ok(())) => assert_eq!(&s.to_explicit(), e, "k = {k}: `{src}`"),
                (Err(e), Err(BddError::Eval(s)), Err(w)) => {
                    assert_eq!((e, s), (w, w), "k = {k}: `{src}`");
                }
                _ => panic!("k = {k}: `{src}`: explicit {e:?}, symbolic {s:?}, want {want:?}"),
            }
            for st in 0..space.num_states() {
                let at = explicit.holds_at(&f, st);
                match &e {
                    Ok(p) => assert_eq!(at, Ok(p.holds(st)), "k = {k}: `{src}` at {st}"),
                    Err(err) => assert_eq!(at.as_ref(), Err(err), "k = {k}: `{src}` at {st}"),
                }
            }
        }
    }
}
