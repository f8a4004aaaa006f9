//! Resolved arithmetic: a `.kpt` [`Expr`] with every identifier bound.
//!
//! This module owns the identifier-resolution rule of the formula
//! language. An identifier is a rigid parameter, else a program variable.
//! Failing both, a *bare* identifier (a whole comparison side or a whole
//! assignment right-hand side) may still be an enum label: of the
//! assignment's target, or of the comparison's other side when that side
//! is a variable. An identifier inside `+`/`-` never reads as a label —
//! `m0 + 1` has no meaning even when `m0` is a label of the peer.
//!
//! The explicit evaluator, the UNITY compiler, the BDD translator and the
//! linter all resolve through [`Term`], so they accept the same programs
//! and name the same culprit when they reject one.

use std::collections::HashMap;

use kpt_state::{StateSpace, VarId, VarSet};

use crate::ast::Expr;
use crate::error::EvalError;

/// An integer expression over raw domain codes, every identifier resolved.
///
/// # Examples
/// ```
/// use std::collections::HashMap;
/// use kpt_logic::{parse_expr, Term};
/// use kpt_state::StateSpace;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = StateSpace::builder().nat_var("i", 4)?.build()?;
/// let params = HashMap::from([("k".to_owned(), 2)]);
/// let t = Term::resolve(&space, &params, &parse_expr("i + k")?)?;
/// let i = space.var("i")?;
/// assert_eq!(t.eval(|v| if v == i { 1 } else { 0 }), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A literal, a parameter's value, or an enum label's code.
    Const(i64),
    /// A program variable's domain code.
    Var(VarId),
    /// `a + b`.
    Add(Box<Term>, Box<Term>),
    /// `a - b`.
    Sub(Box<Term>, Box<Term>),
}

impl Term {
    /// Resolve every identifier of `e` as a parameter, else a variable.
    ///
    /// # Errors
    /// [`EvalError::UnknownIdentifier`] naming the leftmost identifier
    /// that is neither.
    pub fn resolve(
        space: &StateSpace,
        params: &HashMap<String, i64>,
        e: &Expr,
    ) -> Result<Term, EvalError> {
        match e {
            Expr::Const(n) => Ok(Term::Const(*n)),
            Expr::Ident(name) => {
                if let Some(&v) = params.get(name) {
                    Ok(Term::Const(v))
                } else if let Ok(var) = space.var(name) {
                    Ok(Term::Var(var))
                } else {
                    Err(EvalError::UnknownIdentifier(name.clone()))
                }
            }
            Expr::Add(a, b) => Ok(Term::Add(
                Box::new(Self::resolve(space, params, a)?),
                Box::new(Self::resolve(space, params, b)?),
            )),
            Expr::Sub(a, b) => Ok(Term::Sub(
                Box::new(Self::resolve(space, params, a)?),
                Box::new(Self::resolve(space, params, b)?),
            )),
        }
    }

    /// Resolve the right-hand side of an assignment to `target`: as
    /// [`Term::resolve`], and a bare identifier may also be a label of
    /// `target`'s domain (`z := bot`).
    ///
    /// # Errors
    /// As for [`Term::resolve`].
    pub fn resolve_assign(
        space: &StateSpace,
        params: &HashMap<String, i64>,
        e: &Expr,
        target: VarId,
    ) -> Result<Term, EvalError> {
        Self::resolve(space, params, e).or_else(|err| label(space, target, e).ok_or(err))
    }

    /// Resolve both sides of a comparison. A bare side may also be a label
    /// of the other side's domain when that side resolved to a variable
    /// (`z = m1`, `bot = z`).
    ///
    /// # Errors
    /// [`EvalError::UnknownIdentifier`] naming the leftmost unresolved
    /// identifier, left side first.
    pub fn resolve_cmp(
        space: &StateSpace,
        params: &HashMap<String, i64>,
        lhs: &Expr,
        rhs: &Expr,
    ) -> Result<(Term, Term), EvalError> {
        match (
            Self::resolve(space, params, lhs),
            Self::resolve(space, params, rhs),
        ) {
            (Ok(l), Ok(r)) => Ok((l, r)),
            (Err(err), Ok(r)) => Ok((peer_label(space, &r, lhs).ok_or(err)?, r)),
            (Ok(l), Err(err)) => {
                let r = peer_label(space, &l, rhs).ok_or(err)?;
                Ok((l, r))
            }
            (Err(err), Err(_)) => Err(err),
        }
    }

    /// The value at explicit state `idx` of `space`: the per-state hot
    /// path of compilation and lint, so it is offered to other crates for
    /// inlining.
    #[inline]
    pub fn eval_state(&self, space: &StateSpace, idx: u64) -> i64 {
        match self {
            Term::Const(n) => *n,
            Term::Var(v) => space.value(idx, *v) as i64,
            Term::Add(a, b) => a.eval_state(space, idx) + b.eval_state(space, idx),
            Term::Sub(a, b) => a.eval_state(space, idx) - b.eval_state(space, idx),
        }
    }

    /// The value under a valuation of (at least) the term's
    /// [support](Term::support).
    pub fn eval(&self, value: impl Fn(VarId) -> u64) -> i64 {
        self.eval_with(&value)
    }

    fn eval_with<F: Fn(VarId) -> u64>(&self, value: &F) -> i64 {
        match self {
            Term::Const(n) => *n,
            Term::Var(v) => value(*v) as i64,
            Term::Add(a, b) => a.eval_with(value) + b.eval_with(value),
            Term::Sub(a, b) => a.eval_with(value) - b.eval_with(value),
        }
    }

    /// Add the variables the term reads to `out`.
    pub fn support(&self, out: &mut VarSet) {
        match self {
            Term::Const(_) => {}
            Term::Var(v) => out.insert(*v),
            Term::Add(a, b) | Term::Sub(a, b) => {
                a.support(out);
                b.support(out);
            }
        }
    }
}

/// `e` read as a label of the peer side's domain, if the peer is a variable.
fn peer_label(space: &StateSpace, peer: &Term, e: &Expr) -> Option<Term> {
    match peer {
        Term::Var(v) => label(space, *v, e),
        _ => None,
    }
}

/// `e` read as a label of `var`'s domain; only a bare identifier can be one.
fn label(space: &StateSpace, var: VarId, e: &Expr) -> Option<Term> {
    let Expr::Ident(name) = e else { return None };
    let code = space.domain(var).label_code(name)?;
    Some(Term::Const(code as i64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn space() -> std::sync::Arc<StateSpace> {
        StateSpace::builder()
            .nat_var("i", 4)
            .unwrap()
            .enum_var("z", ["bot", "m0", "m1"])
            .unwrap()
            .build()
            .unwrap()
    }

    fn cmp(space: &StateSpace, l: &str, r: &str) -> Result<(Term, Term), EvalError> {
        let (l, r) = (parse_expr(l).unwrap(), parse_expr(r).unwrap());
        Term::resolve_cmp(space, &HashMap::new(), &l, &r)
    }

    fn unknown(name: &str) -> EvalError {
        EvalError::UnknownIdentifier(name.into())
    }

    #[test]
    fn parameters_shadow_variables() {
        let sp = space();
        let params = HashMap::from([("i".to_owned(), 3)]);
        let t = Term::resolve(&sp, &params, &parse_expr("i + 1").unwrap()).unwrap();
        assert_eq!(t.eval(|_| unreachable!("a constant reads no variable")), 4);
        let mut support = VarSet::default();
        t.support(&mut support);
        assert!(support.is_empty());
    }

    #[test]
    fn only_bare_sides_read_as_peer_labels() {
        let sp = space();
        let z = sp.var("z").unwrap();
        assert_eq!(cmp(&sp, "z", "m1"), Ok((Term::Var(z), Term::Const(2))));
        assert_eq!(cmp(&sp, "bot", "z"), Ok((Term::Const(0), Term::Var(z))));
        assert_eq!(cmp(&sp, "m0 + 1", "z"), Err(unknown("m0")));
        // The peer must be a variable, not merely mention one.
        assert_eq!(cmp(&sp, "z + 0", "m1"), Err(unknown("m1")));
    }

    #[test]
    fn assignments_read_labels_of_their_target() {
        let sp = space();
        let (i, z) = (sp.var("i").unwrap(), sp.var("z").unwrap());
        let none = HashMap::new();
        let rhs = |s: &str| parse_expr(s).unwrap();
        assert_eq!(
            Term::resolve_assign(&sp, &none, &rhs("m1"), z),
            Ok(Term::Const(2))
        );
        assert_eq!(
            Term::resolve_assign(&sp, &none, &rhs("m1"), i),
            Err(unknown("m1"))
        );
        assert_eq!(
            Term::resolve_assign(&sp, &none, &rhs("m0 + 1"), z),
            Err(unknown("m0"))
        );
    }

    #[test]
    fn both_evaluators_agree() {
        let sp = space();
        let t = Term::resolve(&sp, &HashMap::new(), &parse_expr("z - i + 2").unwrap()).unwrap();
        for idx in 0..sp.num_states() {
            let by_state = t.eval_state(&sp, idx);
            assert_eq!(t.eval(|v| sp.value(idx, v)), by_state);
        }
    }
}
