//! # knowledge-pt
//!
//! An executable reproduction of **B. Sanders, "A Predicate Transformer
//! Approach to Knowledge and Knowledge-Based Protocols"** (PODC 1991; full
//! version: ETH Zürich tech report 184, 1992).
//!
//! The paper defines *knowledge* as a predicate transformer built from the
//! strongest invariant of a program,
//!
//! ```text
//! K_i p  ≝  p ∧ (wcyl.vars_i.(SI ⇒ p) ∨ ¬SI)          (13)
//! ```
//!
//! embeds it in UNITY, defines *knowledge-based protocols* (programs whose
//! guards test knowledge), and shows they denote a non-monotone fixpoint
//! equation — with striking consequences (no solution may exist;
//! strengthening `init` can destroy both safety and liveness). This
//! workspace makes every definition executable and every claim mechanically
//! checkable on bounded instances.
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`state`] (`kpt-state`) | finite state spaces, exact bitset predicates, quantification |
//! | [`logic`] (`kpt-logic`) | the formula notation, parser, evaluator (with pluggable `K`) |
//! | [`transformers`] (`kpt-transformers`) | `sp`/`wp`, junctivity analysis, `sst` and `SI` fixpoints |
//! | [`unity`] (`kpt-unity`) | UNITY programs, property deciders, leads-to model checker, certificate-producing proof kernel, fair execution |
//! | [`core`] (`kpt-core`) | `wcyl`, the knowledge operator `K_i` (+ `E_G`, `C_G`, `D_G`), knowledge-based protocols and the eq. (25) solvers, the shipped `.kpt` models (the Figure 1/2 counterexamples, muddy children, the scenario zoo), run-semantics equivalence |
//! | [`bdd`] (`kpt-bdd`) | in-tree ROBDD engine: symbolic predicates, relational `sp`/`wp`, symbolic `SI` and `K_i`, and the symbolic KBP solver for instances the explicit search rejects |
//! | [`lint`] (`kpt-lint`) | pre-solve static analyzer: declaration, view-soundness, and symbolic diagnostics (`KPT001`-`KPT009`) with paper cross-references |
//! | [`channel`] (`kpt-channel`) | faulty channels (loss / duplication / detectable corruption) for simulation |
//! | [`seqtrans`] (`kpt-seqtrans`) | the §6 sequence-transmission study: Figure-3 KBP, Figure-4 standard protocol, knowledge-predicate validation, proof replay, simulators, alternating-bit and Stenning refinements |
//!
//! ## Quick start
//!
//! ```
//! use knowledge_pt::prelude::*;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A two-process program where P0 cannot see y.
//! let space = StateSpace::builder().bool_var("x")?.bool_var("y")?.build()?;
//! let program = Program::builder("demo", &space)
//!     .init_str("~x /\\ ~y")?
//!     .process("P0", ["x"])?
//!     .process("P1", ["x", "y"])?
//!     .statement(Statement::new("s").guard_str("~x")?.assign_str("x", "1")?.assign_str("y", "1")?)
//!     .build()?
//!     .compile()?;
//!
//! // Knowledge per eq. (13):
//! let k = KnowledgeContext::for_program(&program);
//! let y = Predicate::var_is_true(&space, space.var("y")?);
//! // After the coupled update, P0 knows y from seeing x:
//! let x = Predicate::var_is_true(&space, space.var("x")?);
//! assert!(program.si().and(&x).entails(&k.knows("P0", &y)?));
//! # Ok(())
//! # }
//! ```
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure and theorem.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use kpt_bdd as bdd;
pub use kpt_channel as channel;
pub use kpt_core as core;
pub use kpt_lint as lint;
pub use kpt_logic as logic;
pub use kpt_obs as obs;
pub use kpt_seqtrans as seqtrans;
pub use kpt_state as state;
pub use kpt_transformers as transformers;
pub use kpt_unity as unity;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use kpt_bdd::{
        symbolic_sst_bounded, symbolic_strongest_invariant, BddConfig, BddError, BddSpace,
        GcPolicy, PredicateOps, ReorderPolicy, SymbolicKbp, SymbolicKnowledge, SymbolicOutcome,
        SymbolicPredicate, SymbolicTransition,
    };
    pub use kpt_channel::{ChannelStats, Delivery, FaultConfig, FaultyChannel};
    pub use kpt_core::{
        bdd_escape_kpt, figure1_kpt, figure2, figure2_kpt, load_kpt, muddy_children_kpt,
        muddy_children_memory_kpt, semantics_agree, view_knowledge, wcyl, zoo, IterativeOutcome,
        Kbp, KnowledgeContext, SolutionSet, ZooEntry,
    };
    pub use kpt_lint::{
        erased_program, lint_kbp, lint_program, lint_program_with, lint_registry, lint_source,
        registry, Anchor, Depth, Diagnostic, DiagnosticCode, LintOptions, LintReport, RegistryCase,
        Severity,
    };
    pub use kpt_logic::{parse_expr, parse_formula, EvalContext, Expr, Formula};
    pub use kpt_state::{
        exists_set, exists_var, forall_set, forall_var, Domain, Predicate, StateBuilder,
        StateSpace, Value, VarId, VarSet,
    };
    pub use kpt_transformers::{
        sp_union, sst, strongest_invariant, DetTransition, FnTransformer, Transformer,
    };
    pub use kpt_unity::{
        execute, leads_to, parse_program, reachable, CompiledProgram, Program, ProofContext,
        Property, RandomFair, RoundRobin, Statement, Thm, UnityError,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_a_program() {
        let space = StateSpace::builder()
            .bool_var("b")
            .unwrap()
            .build()
            .unwrap();
        let p = Program::builder("t", &space)
            .init_str("~b")
            .unwrap()
            .statement(Statement::new("set").assign_str("b", "1").unwrap())
            .build()
            .unwrap()
            .compile()
            .unwrap();
        assert!(p.si().everywhere());
    }
}
