//! UNITY statements: guarded, multiple, deterministic, terminating
//! assignments (§5 of the paper).
//!
//! A statement `x, y := f(x,y), g(x,y,z) if b` evaluates the guard `b` and
//! the right-hand sides simultaneously, then assigns. If the guard is false
//! "the execution of the statement has no effect" — it denotes the identity
//! on that state. Guards may be formulas (including *knowledge* formulas,
//! making the program a knowledge-based protocol, §4) or semantic
//! predicates; updates may be expression assignments or arbitrary
//! deterministic functions of the state.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use kpt_logic::{parse_expr, parse_formula, EvalContext, Expr, Formula, KnowledgeFn};
use kpt_state::{Predicate, StateSpace};

use crate::error::UnityError;

/// The type of a functional statement update: given the space and the
/// pre-state index, produce the post-state index (deterministic, total).
pub type UpdateFn = dyn Fn(&StateSpace, u64) -> u64 + Send + Sync;

/// The guard of a statement.
#[derive(Clone)]
pub enum Guard {
    /// Always enabled (`if true`).
    Always,
    /// A formula over the program variables, possibly containing knowledge
    /// modalities `K{i}(..)`.
    Formula(Formula),
    /// A pre-computed semantic predicate.
    Pred(Predicate),
}

impl Guard {
    /// Whether the guard mentions a knowledge modality (making the
    /// enclosing program a knowledge-based protocol).
    pub fn mentions_knowledge(&self) -> bool {
        match self {
            Guard::Formula(f) => f.mentions_knowledge(),
            _ => false,
        }
    }
}

impl fmt::Debug for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guard::Always => write!(f, "true"),
            Guard::Formula(g) => write!(f, "{g}"),
            Guard::Pred(p) => write!(f, "<semantic {} states>", p.count()),
        }
    }
}

/// The deterministic update function of a statement.
#[derive(Clone)]
pub enum Update {
    /// Simultaneous assignments `var := expr` (expressions evaluated in the
    /// pre-state; enum labels allowed as whole right-hand sides).
    Assignments(Vec<(String, Expr)>),
    /// An arbitrary deterministic successor function, given the space and
    /// the pre-state index, returning the post-state index. Used for
    /// updates that are awkward as arithmetic (e.g. `w := w;α` sequence
    /// appends in the paper's Figure 3/4 encodings).
    Fn(Arc<UpdateFn>),
}

impl fmt::Debug for Update {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Update::Assignments(asgs) => {
                for (i, (v, e)) in asgs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " || ")?;
                    }
                    write!(f, "{v} := {e}")?;
                }
                Ok(())
            }
            Update::Fn(_) => write!(f, "<function update>"),
        }
    }
}

/// A single UNITY statement.
///
/// Build with the fluent methods and add to a
/// [`crate::ProgramBuilder`]:
///
/// ```
/// use kpt_unity::Statement;
/// # fn main() -> Result<(), kpt_unity::UnityError> {
/// // x, shared := true, false if shared   (process 1 of Figure 1)
/// let s = Statement::new("p1")
///     .guard_str("shared")?
///     .assign_str("x", "1")?
///     .assign_str("shared", "0")?;
/// assert_eq!(s.name(), "p1");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Statement {
    name: String,
    guard: Guard,
    assignments: Vec<(String, Expr)>,
    update_fn: Option<Arc<UpdateFn>>,
    params: HashMap<String, i64>,
}

impl Statement {
    /// A new statement with guard `true` and an empty (skip) update.
    pub fn new(name: impl Into<String>) -> Self {
        Statement {
            name: name.into(),
            guard: Guard::Always,
            assignments: Vec::new(),
            update_fn: None,
            params: HashMap::new(),
        }
    }

    /// The statement's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The statement's guard.
    pub fn guard(&self) -> &Guard {
        &self.guard
    }

    /// Rigid parameters bound on this statement (used by quantified
    /// statement generation, e.g. one statement per `α ∈ A`).
    pub fn params(&self) -> &HashMap<String, i64> {
        &self.params
    }

    /// The simultaneous expression assignments.
    pub fn assignments(&self) -> &[(String, Expr)] {
        &self.assignments
    }

    /// The functional part of the update, if any.
    pub fn update_fn(&self) -> Option<&Arc<UpdateFn>> {
        self.update_fn.as_ref()
    }

    /// The guard as a semantic predicate over `space`, with the
    /// statement's parameters bound and `K{i}` subterms answered by
    /// `knowledge`.
    ///
    /// # Errors
    /// Evaluation errors (unknown identifiers, a knowledge guard without
    /// a knowledge semantics, …).
    pub fn eval_guard(
        &self,
        space: &Arc<StateSpace>,
        knowledge: Option<&KnowledgeFn<'_>>,
    ) -> Result<Predicate, UnityError> {
        match &self.guard {
            Guard::Always => Ok(Predicate::tt(space)),
            Guard::Pred(p) => Ok(p.clone()),
            Guard::Formula(f) => {
                let mut ctx = EvalContext::new(space);
                for (k, v) in &self.params {
                    ctx = ctx.with_param(k.clone(), *v);
                }
                if let Some(k) = knowledge {
                    ctx = ctx.with_knowledge(k);
                }
                Ok(ctx.eval(f)?)
            }
        }
    }

    /// Set the guard from a formula AST.
    #[must_use]
    pub fn guard_formula(mut self, f: Formula) -> Self {
        self.guard = Guard::Formula(f);
        self
    }

    /// Set the guard from concrete syntax.
    ///
    /// # Errors
    /// Propagates parse errors.
    pub fn guard_str(mut self, src: &str) -> Result<Self, UnityError> {
        self.guard = Guard::Formula(parse_formula(src)?);
        Ok(self)
    }

    /// Set the guard to a pre-computed semantic predicate.
    #[must_use]
    pub fn guard_pred(mut self, p: Predicate) -> Self {
        self.guard = Guard::Pred(p);
        self
    }

    /// Add a simultaneous assignment `var := expr` (AST form).
    #[must_use]
    pub fn assign(mut self, var: impl Into<String>, expr: Expr) -> Self {
        self.assignments.push((var.into(), expr));
        self
    }

    /// Add a simultaneous assignment `var := expr` from concrete syntax.
    ///
    /// # Errors
    /// Propagates parse errors.
    pub fn assign_str(self, var: impl Into<String>, expr: &str) -> Result<Self, UnityError> {
        Ok(self.assign(var, parse_expr(expr)?))
    }

    /// Set a functional update applied *after* the expression assignments
    /// (both read the pre-state; the function receives the state with the
    /// expression assignments already applied, so prefer using only one of
    /// the two forms per statement).
    #[must_use]
    pub fn update_with<F>(mut self, f: F) -> Self
    where
        F: Fn(&StateSpace, u64) -> u64 + Send + Sync + 'static,
    {
        self.update_fn = Some(Arc::new(f));
        self
    }

    /// Bind a rigid parameter visible to this statement's guard and
    /// assignment expressions. Quantified statement generation
    /// (`⟨ ∥ α : α ∈ A : … ⟩`) binds the bound variable per generated
    /// statement this way.
    #[must_use]
    pub fn param(mut self, name: impl Into<String>, value: i64) -> Self {
        self.params.insert(name.into(), value);
        self
    }
}

impl fmt::Debug for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: ", self.name)?;
        for (i, (v, e)) in self.assignments.iter().enumerate() {
            if i > 0 {
                write!(f, " || ")?;
            }
            write!(f, "{v} := {e}")?;
        }
        if self.update_fn.is_some() {
            if !self.assignments.is_empty() {
                write!(f, " || ")?;
            }
            write!(f, "<function update>")?;
        }
        if self.assignments.is_empty() && self.update_fn.is_none() {
            write!(f, "skip")?;
        }
        write!(f, " if {:?}", self.guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates() {
        let s = Statement::new("t")
            .guard_str("i < 3")
            .unwrap()
            .assign_str("i", "i + 1")
            .unwrap()
            .param("k", 2);
        assert_eq!(s.name(), "t");
        assert_eq!(s.assignments().len(), 1);
        assert_eq!(s.params()["k"], 2);
        assert!(!s.guard().mentions_knowledge());
    }

    #[test]
    fn knowledge_guard_detected() {
        let s = Statement::new("t").guard_str("K{S}(x)").unwrap();
        assert!(s.guard().mentions_knowledge());
        let p = Statement::new("u").guard_str("x").unwrap();
        assert!(!p.guard().mentions_knowledge());
    }

    #[test]
    fn debug_forms() {
        let s = Statement::new("t")
            .guard_str("x")
            .unwrap()
            .assign_str("i", "i + 1")
            .unwrap();
        let d = format!("{s:?}");
        assert!(d.contains("i + 1"), "{d}");
        let u = Update::Assignments(vec![
            ("a".into(), Expr::Const(1)),
            ("b".into(), Expr::ident("a")),
        ]);
        assert_eq!(format!("{u:?}"), "a := 1 || b := a");
        assert_eq!(format!("{:?}", Guard::Always), "true");
    }

    #[test]
    fn parse_errors_propagate() {
        assert!(Statement::new("t").guard_str("((").is_err());
        assert!(Statement::new("t").assign_str("i", "1 +").is_err());
    }
}
