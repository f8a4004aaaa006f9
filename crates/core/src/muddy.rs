//! The muddy-children puzzle as a knowledge-based protocol — the classic
//! knowledge-in-distributed-systems example (the paper's §7 cites the
//! "cheating husbands" variant [MDH86]) expressed and *solved* with the
//! eq. (25) machinery.
//!
//! `n` children each see every forehead but their own. The father
//! announces that at least one is muddy (the `init` constraint — §4's
//! observation that the environment is encoded in the initial condition).
//! In rounds, every child that *knows* its own status announces; a round
//! only advances when nobody (new) can announce. The classic analysis:
//! with `m` muddy children, everyone announces in round `m − 1` — the
//! muddy ones by counting the silent rounds, the clean ones immediately
//! after.
//!
//! As a KBP the guards are knowledge tests, so the program denotes the
//! fixpoint equation (25). The iterative solver converges to a solution
//! whose reachable set realises exactly the classic behaviour — including
//! the depth-`n` nested reasoning "the round advanced without an
//! announcement, so somebody saw mud…".
//!
//! There is a twist that illustrates the paper's §3 remark that "the
//! process's memory, if any, must be explicitly included using history
//! variables": with plain boolean `said` flags, a child's knowledge of its
//! own status can later be *forgotten* — two histories (announced in
//! different rounds) collapse to the same state, and state-based knowledge
//! cannot tell them apart. [`muddy_children_with_memory`] adds the history
//! (the round each announcement was made) and knowledge then persists.

use kpt_logic::Formula;
use kpt_state::StateSpace;
use kpt_unity::{Program, Statement, UnityError};

use crate::kbp::Kbp;

/// `K_{Ci}(mud_i) ∨ K_{Ci}(¬mud_i)` — child `i` knows its own status.
fn knows_own(i: usize) -> Formula {
    let mud = Formula::bool_var(format!("mud{i}"));
    mud.clone()
        .known_by(format!("C{i}"))
        .or(mud.not().known_by(format!("C{i}")))
}

/// The view of child `i`: everything except its own forehead.
fn view_of(i: usize, n: usize, said_vars: &[String]) -> Vec<String> {
    (0..n)
        .filter(|&j| j != i)
        .map(|j| format!("mud{j}"))
        .chain(said_vars.iter().cloned())
        .chain(std::iter::once("round".to_owned()))
        .collect()
}

fn build(n: usize, with_memory: bool) -> Result<Kbp, UnityError> {
    assert!((2..=4).contains(&n), "n out of the supported range 2..=4");
    let mut b = StateSpace::builder();
    for i in 0..n {
        b = b.bool_var(&format!("mud{i}"))?;
    }
    let said_labels: Vec<String> = std::iter::once("none".to_owned())
        .chain((0..n).map(|r| format!("r{r}")))
        .collect();
    for i in 0..n {
        if with_memory {
            b = b.enum_var(&format!("said{i}"), said_labels.clone())?;
        } else {
            b = b.bool_var(&format!("said{i}"))?;
        }
    }
    let space = b.nat_var("round", n as u64 + 1)?.build()?;

    let said_vars: Vec<String> = (0..n).map(|i| format!("said{i}")).collect();
    let not_said = |i: usize| -> Formula {
        if with_memory {
            Formula::var_is(format!("said{i}"), "none")
        } else {
            Formula::bool_var(format!("said{i}")).not()
        }
    };

    // init: at least one muddy, nobody has spoken, round 0.
    let init = Formula::disj((0..n).map(|i| Formula::bool_var(format!("mud{i}"))))
        .and(Formula::conj((0..n).map(&not_said)))
        .and(Formula::var_eq("round", 0));

    let mut builder = Program::builder(
        if with_memory {
            "muddy-children-memory"
        } else {
            "muddy-children"
        },
        &space,
    )
    .init_formula(&init)?;
    for i in 0..n {
        let names = view_of(i, n, &said_vars);
        builder = builder.process(&format!("C{i}"), names.iter().map(String::as_str))?;
    }

    for i in 0..n {
        let guard = not_said(i).and(knows_own(i));
        let stmt = Statement::new(format!("announce{i}")).guard_formula(guard);
        let stmt = if with_memory {
            let max_stamp = n as u64 - 1;
            stmt.update_with(move |sp: &StateSpace, st: u64| {
                let said_v = sp.var(&format!("said{i}")).expect("said var");
                let round = sp.value(st, sp.var("round").expect("round"));
                // Stamp with the announcement round (clamped to the horizon).
                sp.with_value(st, said_v, 1 + round.min(max_stamp))
            })
        } else {
            stmt.assign_str(format!("said{i}"), "1")?
        };
        builder = builder.statement(stmt);
    }

    // tick: round advances only when every child has announced or
    // (knowably) cannot — the public "silence" signal.
    let everyone_done = Formula::conj((0..n).map(|i| not_said(i).not().or(knows_own(i).not())));
    builder = builder.statement(
        Statement::new("tick")
            .guard_formula(
                Formula::cmp(
                    kpt_logic::CmpOp::Lt,
                    kpt_logic::Expr::ident("round"),
                    kpt_logic::Expr::Const(n as i64),
                )
                .and(everyone_done),
            )
            .assign_str("round", "round + 1")?,
    );

    Ok(Kbp::new(builder.build()?))
}

/// Build the `n`-child muddy-children KBP with plain boolean `said` flags
/// (2 ≤ n ≤ 4).
///
/// # Errors
/// Propagates program-construction plumbing errors (none in practice).
///
/// # Panics
/// Panics if `n` is outside `2..=4`.
pub fn muddy_children_n(n: usize) -> Result<Kbp, UnityError> {
    build(n, false)
}

/// The two-child instance of [`muddy_children_n`].
///
/// # Errors
/// Propagates program-construction plumbing errors (none in practice).
pub fn muddy_children() -> Result<Kbp, UnityError> {
    muddy_children_n(2)
}

/// The history-variable variant of [`muddy_children_n`]: `said_i` records
/// the *round* of the announcement instead of a bare flag, realising the
/// paper's "include appropriate history variables" recipe. Knowledge, once
/// attained, then persists (tested below).
///
/// # Errors
/// Propagates program-construction plumbing errors (none in practice).
///
/// # Panics
/// Panics if `n` is outside `2..=4`.
pub fn muddy_children_with_memory_n(n: usize) -> Result<Kbp, UnityError> {
    build(n, true)
}

/// The two-child instance of [`muddy_children_with_memory_n`].
///
/// # Errors
/// Propagates program-construction plumbing errors (none in practice).
pub fn muddy_children_with_memory() -> Result<Kbp, UnityError> {
    muddy_children_with_memory_n(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::KnowledgeContext;
    use crate::kbp::{IterativeOutcome, Kbp};
    use kpt_state::Predicate;

    fn solve(kbp: &Kbp) -> Predicate {
        let solution = match kbp.solve_iterative(64).unwrap() {
            IterativeOutcome::Converged { solution, .. } => solution,
            other => panic!("muddy children must have a solution: {other:?}"),
        };
        assert!(kbp.is_solution(&solution).unwrap());
        solution
    }

    fn operator(kbp: &Kbp, solution: &Predicate) -> KnowledgeContext {
        let views = kbp
            .program()
            .processes()
            .iter()
            .map(|p| (p.name().to_owned(), p.view()))
            .collect();
        KnowledgeContext::new(kbp.program().space(), views, solution.clone())
            .expect("views drawn from the KBP's own space")
    }

    #[test]
    fn two_children_solution_matches_hand_analysis() {
        let kbp = muddy_children().unwrap();
        let solution = solve(&kbp);
        assert_eq!(solution.count(), 16);
    }

    #[test]
    fn everyone_eventually_announces_for_all_n() {
        for n in [2usize, 3] {
            let kbp = muddy_children_n(n).unwrap();
            let solution = solve(&kbp);
            let compiled = kbp.compile_at(&solution).unwrap();
            let space = kbp.program().space().clone();
            let mut all_said = Predicate::tt(&space);
            for i in 0..n {
                all_said = all_said.and(&Predicate::var_is_true(
                    &space,
                    space.var(&format!("said{i}")).unwrap(),
                ));
            }
            assert!(
                compiled.leads_to_holds(&Predicate::tt(&space), &all_said),
                "n = {n}"
            );
        }
    }

    #[test]
    fn announcement_rounds_match_the_classic_analysis() {
        // With m muddy children, nobody announces before round m − 1, the
        // round never passes m − 1 while someone is silent, and by round m
        // everyone has announced — for n = 2 AND n = 3 (which requires the
        // depth-3 nested reasoning).
        for n in [2usize, 3] {
            let kbp = muddy_children_n(n).unwrap();
            let solution = solve(&kbp);
            let space = kbp.program().space().clone();
            for st in solution.iter() {
                let muddy: u64 = (0..n)
                    .map(|i| space.value(st, space.var(&format!("mud{i}")).unwrap()))
                    .sum();
                let round = space.value(st, space.var("round").unwrap());
                let saids: Vec<bool> = (0..n)
                    .map(|i| space.value_bool(st, space.var(&format!("said{i}")).unwrap()))
                    .collect();
                let any = saids.iter().any(|&b| b);
                let all = saids.iter().all(|&b| b);
                assert!(
                    !any || round >= muddy - 1,
                    "n={n}: early announcement: {}",
                    space.render_state(st)
                );
                #[allow(clippy::int_plus_one)] // `round ≤ m − 1` is the paper's phrasing
                let within = round <= muddy - 1;
                assert!(
                    all || within,
                    "n={n}: round ran past the analysis: {}",
                    space.render_state(st)
                );
                assert!(
                    round < muddy || all,
                    "n={n}: by round m everyone has announced: {}",
                    space.render_state(st)
                );
            }
        }
    }

    #[test]
    fn learning_from_silence() {
        // The crown jewel: with both children muddy, at round 1 (after a
        // silent round 0) child 0 KNOWS it is muddy — purely because the
        // round advanced, i.e. child 1 failed to announce, i.e. child 1
        // saw mud. Verified against the actual knowledge operator at the
        // solution SI.
        let kbp = muddy_children().unwrap();
        let solution = solve(&kbp);
        let space = kbp.program().space().clone();
        let op = operator(&kbp, &solution);
        let mud0 = Predicate::var_is_true(&space, space.var("mud0").unwrap());
        let k0 = op.knows("C0", &mud0).unwrap();

        let ctx = kpt_logic::EvalContext::new(&space);
        let at_r1 = ctx
            .eval(&kpt_logic::parse_formula("mud0 /\\ mud1 /\\ round = 1 /\\ ~said0").unwrap())
            .unwrap();
        let relevant = solution.and(&at_r1);
        assert!(!relevant.is_false(), "the silent round must be reachable");
        assert!(relevant.entails(&k0));

        let at_r0 = ctx
            .eval(&kpt_logic::parse_formula("mud0 /\\ mud1 /\\ round = 0").unwrap())
            .unwrap();
        let there = solution.and(&at_r0);
        assert!(!there.is_false());
        assert!(there.and(&k0).is_false());
    }

    #[test]
    fn depth_three_reasoning_with_three_children() {
        // All three muddy: knowledge arrives only at round 2 — two silent
        // rounds are needed, each one a level of nesting.
        let kbp = muddy_children_n(3).unwrap();
        let solution = solve(&kbp);
        let space = kbp.program().space().clone();
        let op = operator(&kbp, &solution);
        let mud0 = Predicate::var_is_true(&space, space.var("mud0").unwrap());
        let k0 = op.knows("C0", &mud0).unwrap();
        let ctx = kpt_logic::EvalContext::new(&space);
        let all_muddy = ctx
            .eval(&kpt_logic::parse_formula("mud0 /\\ mud1 /\\ mud2 /\\ ~said0").unwrap())
            .unwrap();
        for round in 0..3u64 {
            let here = solution.and(&all_muddy).and(
                &ctx.eval(&kpt_logic::Formula::var_eq("round", round as i64))
                    .unwrap(),
            );
            if round < 2 {
                assert!(
                    !here.is_false() && here.and(&k0).is_false(),
                    "round {round}: child 0 must NOT yet know"
                );
            } else {
                assert!(
                    !here.is_false() && here.entails(&k0),
                    "round {round}: child 0 must know"
                );
            }
        }
    }

    #[test]
    fn without_history_variables_knowledge_is_forgotten() {
        // §3's history-variable remark, made concrete: two different
        // announcement histories collapse to the same state, so a child
        // that announced (knowing its status) can later fail to know.
        let kbp = muddy_children().unwrap();
        let solution = solve(&kbp);
        let space = kbp.program().space().clone();
        let op = operator(&kbp, &solution);
        let mud0 = Predicate::var_is_true(&space, space.var("mud0").unwrap());
        let knows_own = op
            .knows("C0", &mud0)
            .unwrap()
            .or(&op.knows("C0", &mud0.negate()).unwrap());
        let said0 = Predicate::var_is_true(&space, space.var("said0").unwrap());
        let forgotten = solution.and(&said0).minus(&knows_own);
        assert!(!forgotten.is_false());
        let compiled = kbp.compile_at(&solution).unwrap();
        assert!(!compiled.stable(&solution.and(&knows_own)));
    }

    #[test]
    fn with_history_variables_knowledge_persists() {
        for n in [2usize, 3] {
            let kbp = muddy_children_with_memory_n(n).unwrap();
            let solution = solve(&kbp);
            let space = kbp.program().space().clone();
            let op = operator(&kbp, &solution);
            let mud0 = Predicate::var_is_true(&space, space.var("mud0").unwrap());
            let knows_own = op
                .knows("C0", &mud0)
                .unwrap()
                .or(&op.knows("C0", &mud0.negate()).unwrap());
            let ctx = kpt_logic::EvalContext::new(&space);
            let said0 = ctx
                .eval(&kpt_logic::parse_formula("said0 != none").unwrap())
                .unwrap();
            assert!(
                solution.and(&said0).entails(&knows_own),
                "n={n}: announced implies (still) knows"
            );
            let compiled = kbp.compile_at(&solution).unwrap();
            assert!(
                compiled.stable(&solution.and(&knows_own)),
                "n={n}: knowledge is stable with history variables"
            );
        }
    }
}
