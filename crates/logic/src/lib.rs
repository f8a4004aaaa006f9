//! # kpt-logic: the formula notation of extended UNITY
//!
//! A syntactic layer over the semantic predicates of [`kpt_state`]: an AST
//! ([`Formula`], [`Expr`]), a parser for a concrete UNITY-ish syntax
//! ([`parse_formula`]), a round-tripping pretty-printer, and an evaluator
//! ([`EvalContext`]) that maps formulas to exact [`kpt_state::Predicate`]s.
//! [`Term`] resolves the identifiers of arithmetic once, for every engine.
//!
//! The paper (§5) extends UNITY so that *knowledge predicates may appear in
//! guards*; accordingly the formula language includes the knowledge modality
//! `K{i}(φ)`. The knowledge semantics itself (the paper's eq. 13) lives in
//! `kpt-core` and is plugged in via [`EvalContext::with_knowledge`], keeping
//! this crate purely syntactic.
//!
//! ## Concrete syntax
//!
//! ```text
//! ~φ   φ /\ ψ   φ \/ ψ   φ => ψ   φ <=> ψ        (also ! && ||)
//! e = e'   e != e'   e < e'   e <= e'   e > e'   e >= e'
//! e ::= n | ident | e + e | e - e
//! K{S}(φ)                 knowledge modality, the paper's K_S φ
//! forall v :: φ           quantification over a *program variable*
//! exists v :: φ
//! ```
//!
//! Rigid parameters (the paper's free variables like `k` in property (35))
//! are bound with [`EvalContext::with_param`], or instantiated over a range
//! with [`Formula::forall_range`] / [`Formula::exists_range`].
//!
//! ## Example
//!
//! ```
//! use kpt_logic::{parse_formula, EvalContext};
//! use kpt_state::StateSpace;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let space = StateSpace::builder()
//!     .nat_var("i", 4)?
//!     .enum_var("z", ["bot", "ack"])?
//!     .build()?;
//! // The guard of the Sender's second statement in Figure 4 of the paper:
//! let guard = parse_formula("z = ack /\\ i + 1 < 4")?;
//! let ctx = EvalContext::new(&space);
//! let p = ctx.eval(&guard)?;
//! assert_eq!(p.count(), 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod ast;
mod display;
mod error;
mod eval;
mod parser;
pub mod surface;
mod term;
mod walk;

pub use ast::{CmpOp, Expr, Formula};
pub use error::{render_span, EvalError, ParseError};
pub use eval::{EvalContext, KnowledgeFn};
pub use parser::{parse_expr, parse_formula};
pub use surface::{
    parse_program_ast, DeclAst, DomainAst, ProcessAst, ProgramAst, Span, StatementAst,
};
pub use term::Term;
pub use walk::{resolve_binder, resolve_bool_atom, walk, BoolAtom, Engine};
