//! Abstract syntax of the UNITY/knowledge formula notation.
//!
//! Formulas are *syntactic* objects; [`crate::EvalContext`] maps them to the
//! semantic [`kpt_state::Predicate`]s of §2 of the paper. The knowledge
//! modality `K{i}(φ)` (the paper's `K_i φ`) is part of the syntax so that
//! knowledge-based protocols (§4) can be written down directly.

use std::collections::BTreeSet;

/// Integer-valued expressions (values are raw domain codes / naturals).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer constant.
    Const(i64),
    /// Named identifier: either a program variable or (in comparison
    /// context) an enum label, resolved during evaluation.
    Ident(String),
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction (may go negative; comparisons are over `i64`).
    Sub(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Constant expression.
    pub fn constant(n: i64) -> Expr {
        Expr::Const(n)
    }

    /// Identifier expression.
    pub fn ident(name: impl Into<String>) -> Expr {
        Expr::Ident(name.into())
    }

    /// `self + other`.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // builder method, not arithmetic on Expr values
    pub fn add(self, other: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(other))
    }

    /// `self - other`.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // builder method, not arithmetic on Expr values
    pub fn sub(self, other: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(other))
    }

    /// Collect the expression's identifiers (variables, labels and
    /// parameters alike) into `out`.
    pub fn idents(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Const(_) => {}
            Expr::Ident(n) => {
                out.insert(n.clone());
            }
            Expr::Add(a, b) | Expr::Sub(a, b) => {
                a.idents(out);
                b.idents(out);
            }
        }
    }

    /// Substitute `Const(value)` for every occurrence of identifier `name`.
    #[must_use]
    pub fn subst_const(&self, name: &str, value: i64) -> Expr {
        match self {
            Expr::Const(_) => self.clone(),
            Expr::Ident(n) if n == name => Expr::Const(value),
            Expr::Ident(_) => self.clone(),
            Expr::Add(a, b) => Expr::Add(
                Box::new(a.subst_const(name, value)),
                Box::new(b.subst_const(name, value)),
            ),
            Expr::Sub(a, b) => Expr::Sub(
                Box::new(a.subst_const(name, value)),
                Box::new(b.subst_const(name, value)),
            ),
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Apply the comparison to two integers.
    pub fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The mirrored operator: `a op b` iff `b op.flip() a`.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Concrete syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Formulas of the extended-UNITY notation, including the knowledge modality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Formula {
    /// `true` or `false`.
    Const(bool),
    /// A boolean program variable used as an atom.
    BoolVar(String),
    /// Comparison of two expressions.
    Cmp(CmpOp, Expr, Expr),
    /// Negation `¬φ`.
    Not(Box<Formula>),
    /// Conjunction `φ ∧ ψ`.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction `φ ∨ ψ`.
    Or(Box<Formula>, Box<Formula>),
    /// Implication `φ ⇒ ψ` (pointwise, as in the paper).
    Implies(Box<Formula>, Box<Formula>),
    /// Equivalence `φ ≡ ψ` (pointwise).
    Iff(Box<Formula>, Box<Formula>),
    /// Universal quantification over a program variable's domain.
    Forall(String, Box<Formula>),
    /// Existential quantification over a program variable's domain.
    Exists(String, Box<Formula>),
    /// The knowledge modality `K{process}(φ)` — the paper's `K_i φ`.
    Knows(String, Box<Formula>),
}

impl Formula {
    /// The constant `true`.
    pub fn tt() -> Formula {
        Formula::Const(true)
    }

    /// The constant `false`.
    pub fn ff() -> Formula {
        Formula::Const(false)
    }

    /// A boolean variable atom.
    pub fn bool_var(name: impl Into<String>) -> Formula {
        Formula::BoolVar(name.into())
    }

    /// `lhs op rhs`.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Formula {
        Formula::Cmp(op, lhs, rhs)
    }

    /// Convenience: `var = value` for a named variable and constant.
    pub fn var_eq(name: impl Into<String>, value: i64) -> Formula {
        Formula::Cmp(CmpOp::Eq, Expr::ident(name), Expr::Const(value))
    }

    /// Convenience: `var = label` for an enum variable.
    pub fn var_is(name: impl Into<String>, label: impl Into<String>) -> Formula {
        Formula::Cmp(CmpOp::Eq, Expr::ident(name), Expr::ident(label))
    }

    /// `¬self`.
    #[must_use]
    #[allow(clippy::should_implement_trait)] // builder method mirroring the paper's notation
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// `self ∧ other`.
    #[must_use]
    pub fn and(self, other: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(other))
    }

    /// `self ∨ other`.
    #[must_use]
    pub fn or(self, other: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(other))
    }

    /// `self ⇒ other`.
    #[must_use]
    pub fn implies(self, other: Formula) -> Formula {
        Formula::Implies(Box::new(self), Box::new(other))
    }

    /// `self ≡ other`.
    #[must_use]
    pub fn iff(self, other: Formula) -> Formula {
        Formula::Iff(Box::new(self), Box::new(other))
    }

    /// `K{process}(self)`.
    #[must_use]
    pub fn known_by(self, process: impl Into<String>) -> Formula {
        Formula::Knows(process.into(), Box::new(self))
    }

    /// `(∀ var :: self)` with `var` ranging over its domain.
    #[must_use]
    pub fn forall(var: impl Into<String>, body: Formula) -> Formula {
        Formula::Forall(var.into(), Box::new(body))
    }

    /// `(∃ var :: self)` with `var` ranging over its domain.
    #[must_use]
    pub fn exists(var: impl Into<String>, body: Formula) -> Formula {
        Formula::Exists(var.into(), Box::new(body))
    }

    /// Bounded universal quantification over a *rigid parameter*: the
    /// conjunction of `body[name := v]` for `v` in `range`. This realises
    /// the paper's free-variable properties such as
    /// `(∀ l : 0 ≤ l < j : K_R x_l)` on bounded instances.
    pub fn forall_range(name: &str, range: std::ops::Range<i64>, body: &Formula) -> Formula {
        Formula::conj(range.map(|v| body.subst_const(name, v)))
    }

    /// Bounded existential quantification over a rigid parameter: the
    /// disjunction of `body[name := v]` for `v` in `range` (the paper's
    /// `(∃ α : α ∈ A : …)` on bounded instances).
    pub fn exists_range(name: &str, range: std::ops::Range<i64>, body: &Formula) -> Formula {
        Formula::disj(range.map(|v| body.subst_const(name, v)))
    }

    /// Conjunction of an iterator of formulas (`true` when empty).
    pub fn conj<I: IntoIterator<Item = Formula>>(parts: I) -> Formula {
        parts
            .into_iter()
            .reduce(Formula::and)
            .unwrap_or_else(Formula::tt)
    }

    /// Disjunction of an iterator of formulas (`false` when empty).
    pub fn disj<I: IntoIterator<Item = Formula>>(parts: I) -> Formula {
        parts
            .into_iter()
            .reduce(Formula::or)
            .unwrap_or_else(Formula::ff)
    }

    /// All identifiers occurring free in the formula (program variables,
    /// labels and rigid parameters alike; binders remove their variable).
    pub fn free_idents(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_idents(&mut out);
        out
    }

    fn collect_idents(&self, out: &mut BTreeSet<String>) {
        match self {
            Formula::BoolVar(n) => {
                out.insert(n.clone());
            }
            Formula::Cmp(_, a, b) => {
                a.idents(out);
                b.idents(out);
            }
            Formula::Forall(v, f) | Formula::Exists(v, f) => {
                let mut inner = BTreeSet::new();
                f.collect_idents(&mut inner);
                inner.remove(v);
                out.extend(inner);
            }
            _ => self.children().for_each(|g| g.collect_idents(out)),
        }
    }

    /// The immediate subformulas, left to right.
    pub fn children(&self) -> impl Iterator<Item = &Formula> {
        let (a, b) = match self {
            Formula::Const(_) | Formula::BoolVar(_) | Formula::Cmp(..) => (None, None),
            Formula::Not(g)
            | Formula::Forall(_, g)
            | Formula::Exists(_, g)
            | Formula::Knows(_, g) => (Some(&**g), None),
            Formula::And(a, b)
            | Formula::Or(a, b)
            | Formula::Implies(a, b)
            | Formula::Iff(a, b) => (Some(&**a), Some(&**b)),
        };
        a.into_iter().chain(b)
    }

    /// Substitute the integer constant `value` for free occurrences of the
    /// identifier `name` (the paper's "evaluated at" notation
    /// `(K_R(x_k = α))_{@k=j}` is realised by instantiating rigid parameters
    /// like `k` this way).
    #[must_use]
    pub fn subst_const(&self, name: &str, value: i64) -> Formula {
        match self {
            Formula::Cmp(op, a, b) => {
                Formula::Cmp(*op, a.subst_const(name, value), b.subst_const(name, value))
            }
            // A binder of `name` shadows it.
            Formula::Forall(v, _) | Formula::Exists(v, _) if v == name => self.clone(),
            _ => self.map_children(|g| g.subst_const(name, value)),
        }
    }

    /// `self` with each immediate subformula `g` replaced by `f(g)`; atoms
    /// are cloned.
    #[must_use]
    pub fn map_children(&self, mut f: impl FnMut(&Formula) -> Formula) -> Formula {
        let mut sub = |g: &Formula| Box::new(f(g));
        match self {
            Formula::Const(_) | Formula::BoolVar(_) | Formula::Cmp(..) => self.clone(),
            Formula::Not(g) => Formula::Not(sub(g)),
            Formula::And(a, b) => Formula::And(sub(a), sub(b)),
            Formula::Or(a, b) => Formula::Or(sub(a), sub(b)),
            Formula::Implies(a, b) => Formula::Implies(sub(a), sub(b)),
            Formula::Iff(a, b) => Formula::Iff(sub(a), sub(b)),
            Formula::Forall(v, g) => Formula::Forall(v.clone(), sub(g)),
            Formula::Exists(v, g) => Formula::Exists(v.clone(), sub(g)),
            Formula::Knows(p, g) => Formula::Knows(p.clone(), sub(g)),
        }
    }

    /// Whether the formula contains any knowledge modality.
    pub fn mentions_knowledge(&self) -> bool {
        matches!(self, Formula::Knows(..)) || self.children().any(Formula::mentions_knowledge)
    }

    /// Structural simplification: constant folding, identity/absorbing
    /// elements, double negation. Purely syntactic; semantics-preserving.
    #[must_use]
    pub fn simplify(&self) -> Formula {
        match self {
            Formula::Not(f) => match f.simplify() {
                Formula::Const(b) => Formula::Const(!b),
                Formula::Not(inner) => *inner,
                g => Formula::Not(Box::new(g)),
            },
            Formula::And(a, b) => match (a.simplify(), b.simplify()) {
                (Formula::Const(false), _) | (_, Formula::Const(false)) => Formula::ff(),
                (Formula::Const(true), g) | (g, Formula::Const(true)) => g,
                (g, h) => Formula::And(Box::new(g), Box::new(h)),
            },
            Formula::Or(a, b) => match (a.simplify(), b.simplify()) {
                (Formula::Const(true), _) | (_, Formula::Const(true)) => Formula::tt(),
                (Formula::Const(false), g) | (g, Formula::Const(false)) => g,
                (g, h) => Formula::Or(Box::new(g), Box::new(h)),
            },
            Formula::Implies(a, b) => match (a.simplify(), b.simplify()) {
                (Formula::Const(false), _) | (_, Formula::Const(true)) => Formula::tt(),
                (Formula::Const(true), g) => g,
                (g, Formula::Const(false)) => Formula::Not(Box::new(g)).simplify(),
                (g, h) => Formula::Implies(Box::new(g), Box::new(h)),
            },
            Formula::Iff(a, b) => match (a.simplify(), b.simplify()) {
                (Formula::Const(true), g) | (g, Formula::Const(true)) => g,
                (Formula::Const(false), g) | (g, Formula::Const(false)) => {
                    Formula::Not(Box::new(g)).simplify()
                }
                (g, h) => Formula::Iff(Box::new(g), Box::new(h)),
            },
            Formula::Cmp(op, a, b) => match (a, b) {
                (Expr::Const(x), Expr::Const(y)) => Formula::Const(op.apply(*x, *y)),
                _ => self.clone(),
            },
            Formula::Forall(v, f) => match f.simplify() {
                Formula::Const(b) => Formula::Const(b),
                g => Formula::Forall(v.clone(), Box::new(g)),
            },
            Formula::Exists(v, f) => match f.simplify() {
                Formula::Const(b) => Formula::Const(b),
                g => Formula::Exists(v.clone(), Box::new(g)),
            },
            Formula::Knows(p, f) => Formula::Knows(p.clone(), Box::new(f.simplify())),
            _ => self.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_shapes() {
        let f = Formula::bool_var("x").and(Formula::var_eq("i", 2)).not();
        assert!(matches!(f, Formula::Not(_)));
        let g = Formula::var_is("z", "bot").known_by("S");
        assert!(matches!(g, Formula::Knows(ref p, _) if p == "S"));
    }

    #[test]
    fn free_idents_respects_binders() {
        let f = Formula::forall(
            "k",
            Formula::cmp(CmpOp::Le, Expr::ident("k"), Expr::ident("j")),
        );
        let free = f.free_idents();
        assert!(free.contains("j"));
        assert!(!free.contains("k"));
    }

    #[test]
    fn subst_const_instantiates_rigid_parameters() {
        // (x_k = alpha)@k=2 — here modelled as var `xk` vs parameter k.
        let f = Formula::cmp(CmpOp::Eq, Expr::ident("j"), Expr::ident("k"));
        let g = f.subst_const("k", 2);
        assert_eq!(g, Formula::cmp(CmpOp::Eq, Expr::ident("j"), Expr::Const(2)));
        // Bound occurrences are untouched.
        let h = Formula::forall("k", f.clone()).subst_const("k", 2);
        assert_eq!(h, Formula::forall("k", f));
    }

    #[test]
    fn subst_const_in_arith() {
        let e = Expr::ident("k").add(Expr::Const(1)).sub(Expr::ident("m"));
        let e2 = e.subst_const("k", 3);
        let mut ids = BTreeSet::new();
        e2.idents(&mut ids);
        assert!(ids.contains("m") && !ids.contains("k"));
    }

    #[test]
    fn mentions_knowledge() {
        assert!(!Formula::bool_var("x").mentions_knowledge());
        assert!(Formula::bool_var("x").known_by("S").mentions_knowledge());
        assert!(Formula::tt()
            .and(Formula::bool_var("y").known_by("R").not())
            .mentions_knowledge());
    }

    #[test]
    fn simplify_folds_constants() {
        let f = Formula::tt().and(Formula::bool_var("x"));
        assert_eq!(f.simplify(), Formula::bool_var("x"));
        let f = Formula::ff().or(Formula::bool_var("x"));
        assert_eq!(f.simplify(), Formula::bool_var("x"));
        let f = Formula::bool_var("x").implies(Formula::tt());
        assert_eq!(f.simplify(), Formula::tt());
        let f = Formula::bool_var("x").not().not();
        assert_eq!(f.simplify(), Formula::bool_var("x"));
        let f = Formula::cmp(CmpOp::Lt, Expr::Const(1), Expr::Const(2));
        assert_eq!(f.simplify(), Formula::tt());
        let f = Formula::forall("k", Formula::ff());
        assert_eq!(f.simplify(), Formula::ff());
    }

    #[test]
    fn simplify_iff_and_implies_with_false() {
        let x = Formula::bool_var("x");
        assert_eq!(x.clone().iff(Formula::ff()).simplify(), x.clone().not());
        assert_eq!(x.clone().implies(Formula::ff()).simplify(), x.clone().not());
        assert_eq!(Formula::ff().implies(x).simplify(), Formula::tt());
    }

    #[test]
    fn conj_disj_of_iterators() {
        let fs = (0..3).map(|i| Formula::var_eq("x", i));
        let c = Formula::conj(fs);
        assert!(matches!(c, Formula::And(..)));
        assert_eq!(Formula::conj(std::iter::empty()), Formula::tt());
        assert_eq!(Formula::disj(std::iter::empty()), Formula::ff());
    }

    #[test]
    fn cmp_op_apply() {
        assert!(CmpOp::Eq.apply(2, 2));
        assert!(CmpOp::Ne.apply(1, 2));
        assert!(CmpOp::Lt.apply(1, 2));
        assert!(CmpOp::Le.apply(2, 2));
        assert!(CmpOp::Gt.apply(3, 2));
        assert!(CmpOp::Ge.apply(2, 2));
        assert_eq!(CmpOp::Le.symbol(), "<=");
    }
}
