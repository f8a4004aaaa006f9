//! The one walk over a [`Formula`]: how names resolve, the typing rules
//! and the wording of their errors, decided once for every engine. An
//! [`Engine`] builds state sets in one representation (the bitsets of
//! [`crate::EvalContext`], the BDDs of `kpt-bdd`) and [`walk`] maps a
//! formula onto it. Evaluators that build no sets
//! ([`crate::EvalContext::holds_at`], the linter) call [`resolve_bool_atom`]
//! and [`resolve_binder`] directly and keep their own error policy.

use std::collections::HashMap;

use kpt_state::{Domain, StateSpace, VarId};

use crate::ast::{CmpOp, Formula};
use crate::error::EvalError;
use crate::term::Term;

/// What a bare boolean atom denotes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoolAtom {
    /// A rigid parameter bound to 0 or 1.
    Const(bool),
    /// A boolean program variable.
    Var(VarId),
}

/// Resolve the boolean atom `name`: a parameter shadows a variable of the
/// same name.
///
/// # Errors
/// [`EvalError::Type`] for a parameter other than 0/1 or a non-boolean
/// variable, [`EvalError::UnknownIdentifier`] when `name` is neither.
pub fn resolve_bool_atom(
    space: &StateSpace,
    params: &HashMap<String, i64>,
    name: &str,
) -> Result<BoolAtom, EvalError> {
    if let Some(&v) = params.get(name) {
        return match v {
            0 | 1 => Ok(BoolAtom::Const(v == 1)),
            _ => Err(EvalError::Type(format!(
                "parameter `{name}` used as boolean but has value {v}"
            ))),
        };
    }
    let var = resolve_binder(space, name)?;
    match space.domain(var) {
        Domain::Bool => Ok(BoolAtom::Var(var)),
        d => Err(EvalError::Type(format!(
            "variable `{name}` of domain {d} used as boolean atom"
        ))),
    }
}

/// Resolve the variable a quantifier binds. Parameters do not count: a
/// quantifier ranges over a program variable's domain.
///
/// # Errors
/// [`EvalError::UnknownIdentifier`] when `name` is not a variable.
pub fn resolve_binder(space: &StateSpace, name: &str) -> Result<VarId, EvalError> {
    space
        .var(name)
        .map_err(|_| EvalError::UnknownIdentifier(name.to_owned()))
}

/// One representation of state sets, with the operations a formula is
/// built from. Names arrive resolved; [`walk`] has checked them.
pub trait Engine {
    /// A set of states.
    type Value;
    /// The engine's error, able to carry the walker's [`EvalError`]s.
    type Error: From<EvalError>;

    /// Every state, or none.
    fn constant(&mut self, b: bool) -> Self::Value;
    /// The states where the boolean variable `var` holds.
    fn bool_var(&mut self, var: VarId) -> Self::Value;
    /// The states where `lhs op rhs`.
    ///
    /// # Errors
    /// Engine limits (e.g. a support too large to enumerate).
    fn cmp(&mut self, op: CmpOp, lhs: &Term, rhs: &Term) -> Result<Self::Value, Self::Error>;
    /// `¬a`.
    fn not(&mut self, a: Self::Value) -> Self::Value;
    /// `a ∧ b`.
    fn and(&mut self, a: Self::Value, b: Self::Value) -> Self::Value;
    /// `a ∨ b`.
    fn or(&mut self, a: Self::Value, b: Self::Value) -> Self::Value;
    /// `a ⇒ b`.
    fn implies(&mut self, a: Self::Value, b: Self::Value) -> Self::Value;
    /// `a ≡ b`.
    fn iff(&mut self, a: Self::Value, b: Self::Value) -> Self::Value;
    /// `(∀ var :: body)` over `var`'s domain.
    fn forall(&mut self, var: VarId, body: Self::Value) -> Self::Value;
    /// `(∃ var :: body)` over `var`'s domain.
    fn exists(&mut self, var: VarId, body: Self::Value) -> Self::Value;
    /// `K{process}(body)`, or `None` when no knowledge semantics is
    /// attached.
    fn knows(
        &mut self,
        process: &str,
        body: Self::Value,
    ) -> Option<Result<Self::Value, Self::Error>>;
}

/// Build the set of states where `f` holds, with the parameters `params`
/// bound, in `engine`'s representation over `space`. Every AST node walked
/// counts once in the `logic.eval.nodes` counter.
///
/// # Errors
/// [`EvalError::UnknownIdentifier`] for unresolvable names,
/// [`EvalError::Type`] for ill-typed boolean atoms,
/// [`EvalError::KnowledgeUnavailable`] for a `K{i}` atom the engine has no
/// semantics for, and whatever the engine itself reports.
pub fn walk<E: Engine>(
    engine: &mut E,
    space: &StateSpace,
    params: &HashMap<String, i64>,
    f: &Formula,
) -> Result<E::Value, E::Error> {
    kpt_obs::counter!("logic.eval.nodes").incr();
    let sub = |g: &Formula, engine: &mut E| walk(engine, space, params, g);
    Ok(match f {
        Formula::Const(b) => engine.constant(*b),
        Formula::BoolVar(name) => match resolve_bool_atom(space, params, name)? {
            BoolAtom::Const(b) => engine.constant(b),
            BoolAtom::Var(var) => engine.bool_var(var),
        },
        Formula::Cmp(op, lhs, rhs) => {
            let (l, r) = Term::resolve_cmp(space, params, lhs, rhs)?;
            engine.cmp(*op, &l, &r)?
        }
        Formula::Not(g) => {
            let g = sub(g, engine)?;
            engine.not(g)
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            let (a, b) = (sub(a, engine)?, sub(b, engine)?);
            match f {
                Formula::And(..) => engine.and(a, b),
                Formula::Or(..) => engine.or(a, b),
                Formula::Implies(..) => engine.implies(a, b),
                _ => engine.iff(a, b),
            }
        }
        Formula::Forall(name, body) | Formula::Exists(name, body) => {
            let var = resolve_binder(space, name)?;
            let body = sub(body, engine)?;
            if matches!(f, Formula::Forall(..)) {
                engine.forall(var, body)
            } else {
                engine.exists(var, body)
            }
        }
        Formula::Knows(process, body) => {
            let body = sub(body, engine)?;
            engine
                .knows(process, body)
                .unwrap_or_else(|| Err(EvalError::KnowledgeUnavailable.into()))?
        }
    })
}
