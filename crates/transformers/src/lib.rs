//! # kpt-transformers: the predicate-transformer theory of §2
//!
//! This crate supplies the machinery the paper builds knowledge on top of:
//!
//! * [`Transformer`] — functions from predicates to predicates, with
//!   [`FnTransformer`] and [`Compose`] for building them;
//! * [`DetTransition`] — deterministic total transitions (the denotation of
//!   a UNITY statement) with exact strongest-postcondition
//!   ([`DetTransition::sp`]) and weakest-precondition
//!   ([`DetTransition::wp`]) transformers, plus the whole-program
//!   `SP.p ≡ (∃ s :: sp.s.p)` of eq. (26) via [`sp_union`];
//! * [`sst`] — the *strongest stable predicate weaker than `p`* of eq. (1),
//!   computed by the Kleene iteration of eq. (3); [`strongest_invariant`]
//!   is `SI = sst.init`, the exact reachable-state set (eq. 5);
//! * [`iterate_to_fixpoint`] — the one loop of the non-monotone eq. (25)
//!   iteration (cycle detection, progress events, [`IterativeOutcome`])
//!   that both KBP engines and the server step;
//! * junctivity analysis ([`check_monotonic`],
//!   [`check_universally_conjunctive`], [`check_finitely_disjunctive`],
//!   [`check_or_continuous`]) — decision procedures for the §2 properties,
//!   exhaustive on small spaces and sampled on large ones.
//!
//! # Example: the strongest invariant of a tiny program
//!
//! ```
//! use kpt_state::{Predicate, StateSpace};
//! use kpt_transformers::{sp_union, strongest_invariant, DetTransition, FnTransformer};
//! # fn main() -> Result<(), kpt_state::SpaceError> {
//! // One statement: i := i + 1 if i < 3, over i ∈ 0..4.
//! let space = StateSpace::builder().nat_var("i", 4)?.build()?;
//! let stmt = DetTransition::from_fn(&space, |i| if i < 3 { i + 1 } else { i });
//! let sp = FnTransformer::new(&space, "SP", move |p| sp_union(std::slice::from_ref(&stmt), p));
//! let init = Predicate::from_indices(&space, [1]);
//! let si = strongest_invariant(&sp, &init);
//! assert_eq!(si.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fixpoint;
mod junctivity;
mod transformer;
mod transition;

pub use fixpoint::{
    gfp, is_stable, iterate_to_fixpoint, lfp, sst, sst_frontier, sst_frontier_with_stats,
    sst_with_stats, strongest_invariant, strongest_invariant_frontier, FixpointStats,
    IterativeOutcome,
};
pub use junctivity::{
    check_finitely_conjunctive, check_finitely_disjunctive, check_monotonic, check_or_continuous,
    check_universally_conjunctive, Counterexample, Strategy, Verdict, EXHAUSTIVE_STATE_LIMIT,
};
pub use transformer::{Compose, FnTransformer, Transformer};
pub use transition::{sp_union, sp_union_with, wp_inter, wp_inter_with, DetTransition};
