//! # kpt-core: knowledge predicate transformers and knowledge-based protocols
//!
//! The primary contribution of B. Sanders, *"A Predicate Transformer
//! Approach to Knowledge and Knowledge-Based Protocols"* (PODC 1991), made
//! executable:
//!
//! * [`wcyl`] — the weakest cylinder (eq. 6) with its laws (7)–(12);
//! * [`KnowledgeContext`] — the knowledge transformer
//!   `K_i p = p ∧ (wcyl.vars_i.(SI ⇒ p) ∨ ¬SI)` (eq. 13), satisfying the
//!   S5 axioms (14)–(18) and the junctivity/invariant theory (19)–(24),
//!   plus the §3 group extensions `E_G`, `C_G` (greatest fixpoint) and
//!   `D_G`, with every `K p` query memoized;
//! * [`Kbp`] — knowledge-based protocols (§4): the non-monotone fixpoint
//!   equation (25), a complete exhaustive solver
//!   ([`Kbp::solve_exhaustive`]) and a scalable iterative solver
//!   ([`Kbp::solve_iterative`]);
//! * [`figure1`]/[`figure2`] — the paper's counterexamples: a KBP with *no*
//!   solution, and a KBP whose solution (and hence safety/liveness
//!   properties) is *not monotonic* in the initial condition;
//! * [`view_knowledge`]/[`semantics_agree`] — the run-based semantics of
//!   \[HM90\] and its equivalence with eq. (13) on reachable states.
//!
//! ## Example: knowledge in a toy protocol
//!
//! ```
//! use kpt_core::KnowledgeContext;
//! use kpt_state::{Predicate, StateSpace};
//! use kpt_unity::{Program, Statement};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let space = StateSpace::builder().bool_var("req")?.bool_var("done")?.build()?;
//! let program = Program::builder("toy", &space)
//!     .init_str("~req /\\ ~done")?
//!     .process("Client", ["req"])?
//!     .process("Server", ["req", "done"])?
//!     .statement(Statement::new("request").guard_str("~req")?.assign_str("req", "1")?)
//!     .statement(Statement::new("serve").guard_str("req")?.assign_str("done", "1")?)
//!     .build()?
//!     .compile()?;
//! let k = KnowledgeContext::for_program(&program);
//! let done = Predicate::var_is_true(&space, space.var("done")?);
//! // The server knows `done` exactly where it holds (it sees done):
//! assert_eq!(program.si().and(&k.knows("Server", &done)?),
//!            program.si().and(&done));
//! // The client can never know `done` (done is invisible to it and not invariant):
//! assert!(program.si().and(&k.knows("Client", &done)?).is_false());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod context;
mod error;
mod examples;
mod kbp;
mod knowledge;
mod muddy;
mod runs_equiv;
mod wcyl;
mod zoo;

pub use context::KnowledgeContext;
pub use error::CoreError;
pub use examples::{figure1, figure2, figure2_space};
pub use kbp::{IterativeOutcome, Kbp, SolutionSet};
pub use knowledge::KnowsTransformer;
pub use muddy::{
    muddy_children, muddy_children_n, muddy_children_with_memory, muddy_children_with_memory_n,
};
pub use runs_equiv::{semantics_agree, view_knowledge, Disagreement};
pub use wcyl::{wcyl, WcylTransformer};
pub use zoo::{
    attacking_generals_kpt, cache_coherence_kpt, dining_cryptographers_kpt, load_kpt,
    muddy_children_kpt, russian_cards_kpt, zoo, ZooEntry,
};
