//! The run-based (view) semantics of knowledge and its equivalence with the
//! predicate-transformer definition (§3's comparison with [HM90]).
//!
//! In the run-based model a process knows `p` at a point iff `p` holds at
//! every *reachable* point the process cannot distinguish — where the view
//! is the projection of the global state onto the process's variables.
//! This module computes that definition directly from explicit reachability
//! ([`view_knowledge`]) and provides the equivalence check with eq. (13)
//! ([`semantics_agree`]): on reachable states the two coincide, because
//! `SI` *is* the reachable set (experiment E10).

use kpt_state::{Predicate, VarSet};
use kpt_unity::{reachable, CompiledProgram};

use crate::context::KnowledgeContext;

/// Run-based view knowledge: holds at a state `s` iff `p` holds at every
/// state, *reachable by explicit BFS*, that agrees with `s` on `view`.
///
/// (Defined over the whole space; on unreachable states the quantification
/// is over the reachable members of the view class only, which mirrors the
/// `wcyl.(SI ⇒ p)` cylinder rather than eq. (13)'s `p ∧ …` adjustment —
/// use [`semantics_agree`] for the precise correspondence statement.)
#[must_use]
pub fn view_knowledge(program: &CompiledProgram, view: VarSet, p: &Predicate) -> Predicate {
    let space = program.space();
    let reach = reachable(program);
    // Group reachable states by their view projection.
    let project = |s: u64| -> u64 {
        let mut key = 0u64;
        // Mixed-radix projection: safe because strides multiply to < 2^32
        // and we reuse the full state's var values positionally.
        for v in view.iter() {
            key = key
                .wrapping_mul(space.domain(v).size())
                .wrapping_add(space.value(s, v));
        }
        key
    };
    let mut bad_keys = std::collections::HashSet::new();
    for s in reach.iter() {
        if !p.holds(s) {
            bad_keys.insert(project(s));
        }
    }
    Predicate::from_fn(space, |s| !bad_keys.contains(&project(s)))
}

/// The E10 equivalence: for every predicate in `samples` and every declared
/// process, the run-based view knowledge and the eq. (13) knowledge
/// operator agree on all *reachable* states (and `reachable = SI`).
/// Returns the first disagreement, if any.
pub fn semantics_agree(
    program: &CompiledProgram,
    samples: &[Predicate],
) -> Result<(), Disagreement> {
    let reach = reachable(program);
    if &reach != program.si() {
        return Err(Disagreement::ReachabilityVsSi);
    }
    let op = KnowledgeContext::for_program(program);
    for (i, p) in samples.iter().enumerate() {
        for proc in program.processes() {
            let run_based = view_knowledge(program, proc.view(), p);
            let pt_based = op
                .knows(proc.name(), p)
                .expect("process comes from the program");
            if reach.and(&run_based) != reach.and(&pt_based) {
                return Err(Disagreement::Knowledge {
                    process: proc.name().to_owned(),
                    sample: i,
                });
            }
        }
    }
    Ok(())
}

/// A failure of the run/predicate-transformer correspondence (should never
/// occur; returned rather than panicking so property tests can shrink).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disagreement {
    /// BFS reachability differed from the `sst` fixpoint `SI`.
    ReachabilityVsSi,
    /// The two knowledge semantics differed on a reachable state.
    Knowledge {
        /// The process whose knowledge differed.
        process: String,
        /// Index of the sample predicate.
        sample: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_state::StateSpace;
    use kpt_unity::{Program, Statement};

    fn program() -> CompiledProgram {
        let space = StateSpace::builder()
            .nat_var("i", 3)
            .unwrap()
            .bool_var("ack")
            .unwrap()
            .build()
            .unwrap();
        Program::builder("p", &space)
            .init_str("i = 0 /\\ ~ack")
            .unwrap()
            .process("Sender", ["i"])
            .unwrap()
            .process("Receiver", ["ack"])
            .unwrap()
            .statement(
                Statement::new("send")
                    .guard_str("i < 2")
                    .unwrap()
                    .assign_str("i", "i + 1")
                    .unwrap(),
            )
            .statement(
                Statement::new("ack")
                    .guard_str("i = 2")
                    .unwrap()
                    .assign_str("ack", "1")
                    .unwrap(),
            )
            .build()
            .unwrap()
            .compile()
            .unwrap()
    }

    #[test]
    fn equivalence_on_all_predicates() {
        let c = program();
        let space = c.space().clone();
        let n = space.num_states();
        let samples: Vec<Predicate> = (0u64..(1 << n))
            .step_by(3)
            .map(|m| Predicate::from_fn(&space, |i| m >> i & 1 == 1))
            .collect();
        assert_eq!(semantics_agree(&c, &samples), Ok(()));
    }

    #[test]
    fn view_knowledge_basics() {
        let c = program();
        let space = c.space().clone();
        let ack = Predicate::var_is_true(&space, space.var("ack").unwrap());
        let view_s = space.var_set(["i"]).unwrap();
        let k = view_knowledge(&c, view_s, &ack.negate());
        // With i < 2, ack is impossible (guard needs i = 2): the Sender
        // *knows* ¬ack from seeing i = 0 or 1.
        let i = space.var("i").unwrap();
        for s in kpt_unity::reachable(&c).iter() {
            if space.value(s, i) < 2 {
                assert!(k.holds(s), "{}", space.render_state(s));
            } else {
                // At i = 2, ack may or may not have fired: Sender can't know.
                assert!(!k.holds(s), "{}", space.render_state(s));
            }
        }
    }

    #[test]
    fn full_view_knows_exactly_p_on_reachable() {
        let c = program();
        let space = c.space().clone();
        let full = space.all_vars();
        let p = Predicate::from_fn(&space, |s| s % 2 == 0);
        let k = view_knowledge(&c, full, &p);
        let reach = reachable(&c);
        assert_eq!(reach.and(&k), reach.and(&p));
    }

    #[test]
    fn empty_view_knows_only_invariants() {
        let c = program();
        let space = c.space().clone();
        let k_tt = view_knowledge(&c, VarSet::EMPTY, &Predicate::tt(&space));
        assert!(k_tt.everywhere());
        // A predicate false somewhere reachable is known nowhere.
        let reach = reachable(&c);
        let some = reach.witness().unwrap();
        let p = Predicate::from_indices(&space, [some]).negate();
        let k = view_knowledge(&c, VarSet::EMPTY, &p);
        assert!(k.is_false());
    }
}
