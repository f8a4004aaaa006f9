//! `kpt-bdd` — an in-tree ROBDD engine and symbolic predicate backend for
//! the knowledge-pt workspace.
//!
//! Everything in Sanders' predicate-transformer account of knowledge is a
//! predicate: the strongest invariant `SI` (eqs. 1/3/5), the transformers
//! `sp`/`wp`, view-based knowledge `K_i` (eq. 13), and the knowledge-based
//! program fixpoint (eq. 25). The explicit backend represents predicates
//! as bitsets over an enumerated state space; this crate represents them
//! as reduced ordered binary decision diagrams so the same pipeline runs
//! on spaces no bitset can hold, and so KBP instances that
//! `kpt_core::Kbp::solve_exhaustive` rejects with `SearchTooLarge` remain
//! solvable via [`SymbolicKbp::solve_iterative`].
//!
//! # Layers
//!
//! * a hash-consed ROBDD manager (memoized `ite`, quantification, level
//!   renaming, model counting) — private, per [`BddSpace`];
//! * [`BddSpace`] — the bit-blasted mixed-radix encoding of a
//!   [`kpt_state::StateSpace`] (see the module docs of `space` for the
//!   documented variable order: declaration order, LSB-first, current and
//!   next copies interleaved on adjacent levels);
//! * [`SymbolicPredicate`] — the backend behind the [`PredicateOps`] trait
//!   it shares with the explicit `Predicate`;
//! * [`SymbolicTransition`] — transition relations with `sp`/`wp` as
//!   relational products, plus frontier-style SI fixpoints
//!   ([`symbolic_strongest_invariant`]);
//! * [`SymbolicKnowledge`] — `K_i` by existential/universal quantification
//!   of the levels outside a process view;
//! * [`SymbolicKbp`] — the eq. (25) iteration over BDD roots.
//!
//! Node counts, `ite`-cache behaviour, fixpoint rounds, and solver
//! outcomes are observable through `kpt-obs` under `bdd.*` metric names
//! and event kinds (see the README metric glossary).

#![warn(missing_docs)]

mod error;
mod fixpoint;
mod formula;
mod kbp;
mod knowledge;
mod manager;
mod predicate;
mod space;
mod traits;
mod transition;

pub use error::BddError;
pub use fixpoint::{
    symbolic_sst, symbolic_sst_bounded, symbolic_sst_with_stats, symbolic_strongest_invariant,
    SymbolicFixpointStats,
};
pub use formula::SymbolicEvalContext;
pub use kbp::{SymbolicKbp, SymbolicOutcome};
pub use knowledge::SymbolicKnowledge;
pub use kpt_state::PredicateOps;
pub use manager::{BddConfig, GcPolicy, GcStats, ReorderPolicy, ReorderStats};
pub use predicate::SymbolicPredicate;
pub use space::BddSpace;
pub use transition::{SymbolicTransition, SymbolicTransitionBuilder};
