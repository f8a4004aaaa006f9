//! Shared analysis helpers: polarity-aware knowledge erasure, guard
//! predicates, identifier resolution, and a small expression evaluator
//! mirroring the semantics of `kpt-unity`'s compiler.

use std::cell::OnceCell;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use kpt_logic::{EvalContext, Expr, Formula};
use kpt_state::{Predicate, StateSpace};
use kpt_unity::{Guard, Program, Statement, UnityError};

/// Replace every knowledge modality by a knowledge-free bound, polarity
/// aware. At positive polarity `K{i}(φ)` becomes (the erasure of) `φ` —
/// an *upper* bound, sound by eq. (14) `[K_i p ⇒ p]`; at negative polarity
/// it becomes `ff` — the trivial *lower* bound (knowledge can be empty).
///
/// The result over-approximates the original formula under **every**
/// candidate invariant, so guards only get weaker: the erased program's
/// `SI` contains the `SI` of every solution of the KBP.
pub fn erase_knowledge(f: &Formula, positive: bool) -> Formula {
    match f {
        Formula::Const(_) | Formula::BoolVar(_) | Formula::Cmp(..) => f.clone(),
        Formula::Not(g) => erase_knowledge(g, !positive).not(),
        Formula::And(a, b) => erase_knowledge(a, positive).and(erase_knowledge(b, positive)),
        Formula::Or(a, b) => erase_knowledge(a, positive).or(erase_knowledge(b, positive)),
        Formula::Implies(a, b) => {
            erase_knowledge(a, !positive).implies(erase_knowledge(b, positive))
        }
        // Both sides of an equivalence occur at both polarities; expand to
        // the two implications so each copy gets the right treatment.
        Formula::Iff(a, b) => {
            if f.mentions_knowledge() {
                let fwd = Formula::Implies(a.clone(), b.clone());
                let bwd = Formula::Implies(b.clone(), a.clone());
                erase_knowledge(&fwd, positive).and(erase_knowledge(&bwd, positive))
            } else {
                f.clone()
            }
        }
        Formula::Forall(v, body) => Formula::forall(v.clone(), erase_knowledge(body, positive)),
        Formula::Exists(v, body) => Formula::exists(v.clone(), erase_knowledge(body, positive)),
        Formula::Knows(_, body) => {
            if positive {
                erase_knowledge(body, true)
            } else {
                Formula::ff()
            }
        }
    }
}

/// The guard of a statement as an over-approximating predicate (knowledge
/// erased at positive polarity). `None` when the erased formula does not
/// evaluate — the declaration pass reports that separately.
pub fn guard_over_approx(space: &Arc<StateSpace>, stmt: &Statement) -> Option<Predicate> {
    match stmt.guard() {
        Guard::Always => Some(Predicate::tt(space)),
        Guard::Pred(p) => Some(p.clone()),
        Guard::Formula(f) => {
            let erased = erase_knowledge(f, true).simplify();
            let mut ctx = EvalContext::new(space);
            for (name, value) in stmt.params() {
                ctx = ctx.with_param(name.clone(), *value);
            }
            ctx.eval(&erased).ok()
        }
    }
}

/// The erased guards of one lint run: statement `i`'s
/// [`guard_over_approx`], evaluated on first use and shared by every pass
/// that reads it (the declaration pass's `KPT002` scan, `KPT007`/`KPT008`
/// and the erased program's `SI`).
pub(crate) struct ErasedGuards<'p> {
    program: &'p Program,
    guards: Vec<OnceCell<Option<Predicate>>>,
}

impl<'p> ErasedGuards<'p> {
    /// Nothing evaluated yet.
    pub(crate) fn new(program: &'p Program) -> Self {
        ErasedGuards {
            program,
            guards: program
                .statements()
                .iter()
                .map(|_| OnceCell::new())
                .collect(),
        }
    }

    /// Statement `i`'s erased guard; `None` when it does not evaluate.
    pub(crate) fn get(&self, i: usize) -> Option<&Predicate> {
        self.guards[i]
            .get_or_init(|| guard_over_approx(self.program.space(), &self.program.statements()[i]))
            .as_ref()
    }
}

/// The knowledge-erased over-approximation of a program: same space, init,
/// processes and updates; every guard formula erased at positive polarity.
/// Lint compiles the same program from its shared [`ErasedGuards`]; this
/// builder is the reference the differential tests compare it against.
///
/// # Errors
/// Construction errors from the builder (none for a well-formed input).
pub fn erased_program(program: &Program) -> Result<Program, UnityError> {
    let space = program.space();
    let mut b = Program::builder(format!("{}+erased", program.name()), space)
        .init_pred(program.init().clone());
    for p in program.processes() {
        let names: Vec<&str> = p.view().iter().map(|v| space.name(v)).collect();
        b = b.process(p.name(), names)?;
    }
    for s in program.statements() {
        let mut st = Statement::new(s.name());
        st = match s.guard() {
            Guard::Always => st,
            Guard::Pred(p) => st.guard_pred(p.clone()),
            Guard::Formula(f) => st.guard_formula(erase_knowledge(f, true).simplify()),
        };
        for (name, value) in s.params() {
            st = st.param(name.clone(), *value);
        }
        if let Some(f) = s.update_fn() {
            let f = Arc::clone(f);
            st = st.update_with(move |sp: &StateSpace, state: u64| f(sp, state));
        } else {
            for (var, e) in s.assignments() {
                st = st.assign(var.clone(), e.clone());
            }
        }
        b = b.statement(st);
    }
    b.build()
}

/// The process names of every knowledge atom in `f`, including nested ones.
pub fn all_knowledge_agents(f: &Formula, out: &mut BTreeSet<String>) {
    match f {
        Formula::Const(_) | Formula::BoolVar(_) | Formula::Cmp(..) => {}
        Formula::Not(g) | Formula::Forall(_, g) | Formula::Exists(_, g) => {
            all_knowledge_agents(g, out);
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            all_knowledge_agents(a, out);
            all_knowledge_agents(b, out);
        }
        Formula::Knows(p, body) => {
            out.insert(p.clone());
            all_knowledge_agents(body, out);
        }
    }
}

/// The *top-level* knowledge subterms of `f`: `(process, body)` pairs not
/// nested inside another knowledge modality. These are the atoms that make
/// the enclosing statement "process `i`'s" for the view and circularity
/// analyses; nested modalities belong to the outer agent's reasoning.
pub fn top_level_knowledge(f: &Formula, out: &mut Vec<(String, Formula)>) {
    match f {
        Formula::Const(_) | Formula::BoolVar(_) | Formula::Cmp(..) => {}
        Formula::Not(g) | Formula::Forall(_, g) | Formula::Exists(_, g) => {
            top_level_knowledge(g, out);
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            top_level_knowledge(a, out);
            top_level_knowledge(b, out);
        }
        Formula::Knows(p, body) => out.push((p.clone(), (**body).clone())),
    }
}

/// The identifiers of `f` occurring *outside* any knowledge modality (the
/// objective part a guard tests directly).
pub fn objective_idents(f: &Formula, out: &mut BTreeSet<String>) {
    match f {
        Formula::Const(_) => {}
        Formula::BoolVar(n) => {
            out.insert(n.clone());
        }
        Formula::Cmp(_, a, b) => {
            expr_idents(a, out);
            expr_idents(b, out);
        }
        Formula::Not(g) | Formula::Forall(_, g) | Formula::Exists(_, g) => {
            objective_idents(g, out);
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            objective_idents(a, out);
            objective_idents(b, out);
        }
        Formula::Knows(..) => {}
    }
}

/// Collect the identifiers of an expression.
pub fn expr_idents(e: &Expr, out: &mut BTreeSet<String>) {
    match e {
        Expr::Const(_) => {}
        Expr::Ident(n) => {
            out.insert(n.clone());
        }
        Expr::Add(a, b) | Expr::Sub(a, b) => {
            expr_idents(a, out);
            expr_idents(b, out);
        }
    }
}

/// Evaluate an assignment right-hand side at a state, mirroring the
/// `kpt-unity` compiler: identifiers resolve as statement parameters, then
/// program variables; a *bare* identifier right-hand side may also resolve
/// as an enum label of the target variable's domain. `None` when an
/// identifier does not resolve (reported as `KPT001` elsewhere).
pub fn eval_assign_rhs(
    space: &StateSpace,
    params: &HashMap<String, i64>,
    target_label_code: impl Fn(&str) -> Option<u64>,
    rhs: &Expr,
    state: u64,
) -> Option<i64> {
    // A bare identifier RHS gets the label fallback; compounds do not.
    if let Expr::Ident(name) = rhs {
        if let Some(&v) = params.get(name.as_str()) {
            return Some(v);
        }
        if let Ok(var) = space.var(name) {
            return Some(space.value(state, var) as i64);
        }
        return target_label_code(name).map(|c| c as i64);
    }
    eval_arith(space, params, rhs, state)
}

fn eval_arith(
    space: &StateSpace,
    params: &HashMap<String, i64>,
    e: &Expr,
    state: u64,
) -> Option<i64> {
    match e {
        Expr::Const(n) => Some(*n),
        Expr::Ident(name) => {
            if let Some(&v) = params.get(name.as_str()) {
                return Some(v);
            }
            space
                .var(name)
                .ok()
                .map(|var| space.value(state, var) as i64)
        }
        Expr::Add(a, b) => {
            Some(eval_arith(space, params, a, state)? + eval_arith(space, params, b, state)?)
        }
        Expr::Sub(a, b) => {
            Some(eval_arith(space, params, a, state)? - eval_arith(space, params, b, state)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_logic::parse_formula;

    #[test]
    fn erasure_is_polarity_aware() {
        let f = parse_formula("K{P}(x)").unwrap();
        assert_eq!(
            erase_knowledge(&f, true).simplify(),
            parse_formula("x").unwrap().simplify()
        );
        assert_eq!(erase_knowledge(&f, false), Formula::ff());
        // Negation flips polarity: ~K{P}(x) erases to ~ff = tt.
        let neg = parse_formula("~K{P}(x)").unwrap();
        assert_eq!(erase_knowledge(&neg, true).simplify(), Formula::tt());
        // Nested knowledge collapses transitively at positive polarity.
        let nested = parse_formula("K{S}(K{R}(x))").unwrap();
        assert_eq!(
            erase_knowledge(&nested, true).simplify(),
            parse_formula("x").unwrap().simplify()
        );
    }

    #[test]
    fn top_level_knowledge_does_not_descend() {
        let f = parse_formula("K{S}(K{R}(x)) /\\ y").unwrap();
        let mut tops = Vec::new();
        top_level_knowledge(&f, &mut tops);
        assert_eq!(tops.len(), 1);
        assert_eq!(tops[0].0, "S");
        let mut agents = BTreeSet::new();
        all_knowledge_agents(&f, &mut agents);
        assert_eq!(
            agents.iter().map(String::as_str).collect::<Vec<_>>(),
            ["R", "S"]
        );
    }

    #[test]
    fn objective_idents_skip_knowledge_bodies() {
        let f = parse_formula("shared /\\ K{P}(x)").unwrap();
        let mut ids = BTreeSet::new();
        objective_idents(&f, &mut ids);
        assert_eq!(
            ids.iter().map(String::as_str).collect::<Vec<_>>(),
            ["shared"]
        );
    }
}
