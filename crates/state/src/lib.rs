//! # kpt-state: finite state spaces and semantic predicates
//!
//! The foundational substrate for the `knowledge-pt` reproduction of
//! B. Sanders, *"A Predicate Transformer Approach to Knowledge and
//! Knowledge-Based Protocols"* (PODC 1991).
//!
//! The paper works with predicates as **semantic objects**: Boolean-valued
//! total functions on the state space of a program (§2). This crate realises
//! that semantics exactly over *finite* state spaces:
//!
//! * [`Domain`] — finite typed variable domains (booleans, bounded naturals,
//!   enumerations such as `nat ∪ ⊥`).
//! * [`StateSpace`] — the mixed-radix product of all variable domains;
//!   states are dense `u64` indices.
//! * [`Predicate`] — an exact bitset over the space, with the paper's full
//!   pointwise calculus: `∧ ∨ ¬`, pointwise `⇒` and `≡`
//!   ([`Predicate::implies`], [`Predicate::iff`]), and the *everywhere*
//!   operator `[p]` ([`Predicate::everywhere`]).
//! * [`forall_var`]/[`exists_var`]/[`forall_set`]/[`exists_set`] —
//!   quantification over variables, the primitive under the paper's
//!   *weakest cylinder* `wcyl.V.p = (∀ V̄ :: p)` (built in `kpt-core`).
//! * [`VarSet`] — variable sets, used as *process views* (§5: "a process in
//!   our framework is simply a subset of program variables").
//! * [`PredicateOps`] — the predicate interface the explicit and symbolic
//!   (`kpt-bdd`) backends share.
//!
//! # Example
//!
//! The paper's counterexample to disjunctivity of `wcyl` (§3) uses a space of
//! two integer variables; here is the bounded analogue:
//!
//! ```
//! use kpt_state::{exists_var, forall_var, Predicate, StateSpace};
//! # fn main() -> Result<(), kpt_state::SpaceError> {
//! let space = StateSpace::builder()
//!     .nat_var("x", 4)?
//!     .nat_var("y", 4)?
//!     .build()?;
//! let x = space.var("x")?;
//! let y = space.var("y")?;
//! let x_pos = Predicate::from_var_fn(&space, x, |v| v > 0);
//! let y_pos = Predicate::from_var_fn(&space, y, |v| v > 0);
//!
//! // (∀ y :: x>0 ∧ y>0) is false, yet (∀ y :: x>0) = x>0:
//! assert!(forall_var(&x_pos.and(&y_pos), y).is_false());
//! assert_eq!(forall_var(&x_pos, y), x_pos);
//! // and ∃ is its dual:
//! assert_eq!(exists_var(&x_pos.and(&y_pos), y), x_pos);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod domain;
mod error;
mod ops;
mod predicate;
mod quantify;
mod space;
mod state;
mod witness;

pub use domain::{Domain, Value};
pub use error::SpaceError;
pub use ops::PredicateOps;
pub use predicate::{Iter, Predicate};
pub use quantify::{
    exists_set, exists_set_naive, exists_var, exists_var_naive, forall_set, forall_set_naive,
    forall_var, forall_var_naive,
};
pub use space::{StateSpace, StateSpaceBuilder, VarId, VarSet};
pub use state::{StateBuilder, StateView};
pub use witness::{witness_state, witnesses};
