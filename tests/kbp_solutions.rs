//! Integration/property tests for knowledge-based protocols: the Figure
//! 1/2 counterexamples (E4, E5), solution-set structure (E9), and solver
//! coherence on random programs.

mod common;

use common::program_spec;
use knowledge_pt::core::CoreError;
use knowledge_pt::prelude::*;
use kpt_testkit::genprog::{gen_program, GenConfig};
use kpt_testkit::{check, Rng};

// ---------------------------------------------------------------------
// E4: Figure 1 has no solution.
// ---------------------------------------------------------------------

#[test]
fn figure1_has_no_solution_exhaustively() {
    let kbp = load_kpt(figure1_kpt()).unwrap().1;
    let sols = kbp.solve_exhaustive(16).unwrap();
    assert!(sols.is_empty());
    assert_eq!(sols.candidates_checked(), 8);
    // Every candidate is individually refuted by is_solution.
    let space = kbp.program().space().clone();
    let init = kbp.program().init().clone();
    let free: Vec<u64> = init.negate().iter().collect();
    for mask in 0u64..8 {
        let candidate = Predicate::from_indices(
            &space,
            init.iter().chain(
                free.iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &s)| s),
            ),
        );
        assert!(!kbp.is_solution(&candidate).unwrap());
    }
}

#[test]
fn figure1_iteration_cycles_with_period_two() {
    let kbp = load_kpt(figure1_kpt()).unwrap().1;
    match kbp.solve_iterative(32).unwrap() {
        IterativeOutcome::Cycle { period, .. } => assert_eq!(period, 2),
        other => panic!("expected a cycle, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// E5: Figure 2's non-monotonicity.
// ---------------------------------------------------------------------

#[test]
fn figure2_si_and_properties_flip_with_init() {
    let weak = figure2("~y").unwrap();
    let strong = figure2("~y /\\ x").unwrap();
    let sw = weak.solve_exhaustive(16).unwrap();
    let ss = strong.solve_exhaustive(16).unwrap();
    let si_w = sw.strongest().unwrap().clone();
    let si_s = ss.strongest().unwrap().clone();
    // The paper's exact solutions: ¬y and x.
    let space = weak.program().space().clone();
    let not_y = Predicate::var_is_true(&space, space.var("y").unwrap()).negate();
    let x = Predicate::var_is_true(&space, space.var("x").unwrap());
    assert_eq!(si_w, not_y);
    assert_eq!(si_s, x);
    assert!(!si_s.entails(&si_w), "SI is not monotonic in init");

    // Liveness flips.
    let z = Predicate::var_is_true(&space, space.var("z").unwrap());
    let cw = weak.compile_at(&si_w).unwrap();
    let cs = strong.compile_at(&si_s).unwrap();
    assert!(cw.leads_to_holds(&Predicate::tt(&space), &z));
    assert!(!cs.leads_to_holds(&Predicate::tt(&space), &z));
}

#[test]
fn figure2_solutions_are_unique_per_init() {
    // The solver *proves* uniqueness for both of the paper's inits — so
    // "the" SI of Figure 2 is well-defined in each environment, and the
    // non-monotonicity is about those unique solutions.
    for init in ["~y", "~y /\\ x"] {
        let sols = figure2(init).unwrap().solve_exhaustive(16).unwrap();
        assert_eq!(sols.len(), 1, "init = {init}");
        assert_eq!(sols.minimal().len(), 1);
    }
}

#[test]
fn self_referential_kbp_has_multiple_solutions() {
    // E9: a KBP denotes a *set* of solutions (§4: "a knowledge-based
    // protocol corresponds to many different systems"). The classic
    // self-referential guard:
    //
    //   var b; process P sees nothing; b := true if ¬K_P(¬b); init ¬b.
    //
    // Solution 1: X = {¬b}. Then P *knows* ¬b (it holds in every possible
    //   state), the guard is false, b stays false — consistent.
    // Solution 2: X = {¬b, b}. Then P does NOT know ¬b (b-states are
    //   possible), the guard is true, b becomes true — also consistent.
    let space = StateSpace::builder()
        .bool_var("b")
        .unwrap()
        .build()
        .unwrap();
    let program = Program::builder("self-ref", &space)
        .init_str("~b")
        .unwrap()
        .process("P", [] as [&str; 0])
        .unwrap()
        .statement(
            Statement::new("s")
                .guard_str("~K{P}(~b)")
                .unwrap()
                .assign_str("b", "1")
                .unwrap(),
        )
        .build()
        .unwrap();
    let kbp = Kbp::new(program);
    let sols = kbp.solve_exhaustive(16).unwrap();
    assert_eq!(sols.len(), 2, "both fixpoints must be found");
    let strongest = sols.strongest().unwrap().clone();
    assert_eq!(strongest.count(), 1); // {¬b}
    for s in sols.solutions() {
        assert!(kbp.is_solution(s).unwrap());
        assert!(strongest.entails(s));
    }
    // Different solutions validate different properties: invariant ¬b
    // holds for the strongest solution only — "results are valid for any
    // solution" cuts both ways.
    let not_b = Predicate::var_is_true(&space, space.var("b").unwrap()).negate();
    let verdicts: Vec<bool> = sols
        .solutions()
        .iter()
        .map(|s| kbp.compile_at(s).unwrap().invariant(&not_b))
        .collect();
    assert!(verdicts.contains(&true) && verdicts.contains(&false));
}

#[test]
fn environment_sweep_over_figure2_inits() {
    // §4: "a knowledge-based protocol can be specified for different
    // environments, with the 'selected' behavior encoded in the initial
    // condition. Then strengthening the initial condition corresponds to
    // execution of the protocol in a more predictable environment." Sweep
    // a chain of increasingly strong environments for Figure 2 and record
    // how the solution and its properties move — non-monotonically.
    let inits = ["true", "~y", "~y /\\ ~z", "~y /\\ x", "~y /\\ x /\\ ~z"];
    let mut rows = Vec::new();
    for init in inits {
        let kbp = figure2(init).unwrap();
        let sols = kbp.solve_exhaustive(16).unwrap();
        let space = kbp.program().space().clone();
        let z = Predicate::var_is_true(&space, space.var("z").unwrap());
        let row: Vec<(u64, bool)> = sols
            .solutions()
            .iter()
            .map(|s| {
                let c = kbp.compile_at(s).unwrap();
                (s.count(), c.leads_to_holds(&Predicate::tt(&space), &z))
            })
            .collect();
        rows.push((init, sols.len(), row));
    }
    // Every environment admits at least one solution here.
    for (init, n, _) in &rows {
        assert!(*n >= 1, "init {init} should have solutions");
    }
    // The ¬y environment satisfies true ↦ z in its strongest solution;
    // the strictly more predictable ¬y ∧ x does not — non-monotonicity
    // across the environment chain.
    let verdict = |init: &str| {
        rows.iter()
            .find(|(i, _, _)| *i == init)
            .and_then(|(_, _, row)| row.first().map(|&(_, live)| live))
            .unwrap()
    };
    assert!(verdict("~y"));
    assert!(!verdict("~y /\\ x"));
    // And strengthening further (fixing z = false too) doesn't restore it.
    assert!(!verdict("~y /\\ x /\\ ~z"));
}

// ---------------------------------------------------------------------
// Solver coherence on random (standard) programs.
// ---------------------------------------------------------------------

#[test]
fn standard_programs_have_exactly_their_si_as_solution() {
    check(
        "standard_programs_have_exactly_their_si_as_solution",
        24,
        |rng| {
            // A knowledge-free program is a degenerate KBP: compile_at ignores
            // the candidate, so the unique solution is its own SI.
            let spec = program_spec(rng);
            let compiled = spec.compile();
            let space = compiled.space().clone();
            if space.num_states() > 18 {
                // keep the exhaustive search cheap
                return;
            }
            // Rebuild as a Program for the Kbp wrapper.
            let program = spec.build_program();
            let kbp = Kbp::new(program);
            let sols = kbp.solve_exhaustive(18).unwrap();
            assert_eq!(sols.len(), 1);
            assert_eq!(&sols.solutions()[0], compiled.si());
            assert_eq!(sols.strongest(), Some(compiled.si()));
            // The iterative solver agrees.
            match kbp.solve_iterative(64).unwrap() {
                IterativeOutcome::Converged { solution, .. } => {
                    assert_eq!(&solution, compiled.si());
                }
                other => panic!("no convergence: {other:?}"),
            }
        },
    );
}

#[test]
fn iterative_solutions_are_verified_fixpoints() {
    check("iterative_solutions_are_verified_fixpoints", 24, |rng| {
        let spec = program_spec(rng);
        let program = spec.build_program();
        let kbp = Kbp::new(program);
        if let IterativeOutcome::Converged { solution, .. } = kbp.solve_iterative(64).unwrap() {
            assert!(kbp.is_solution(&solution).unwrap());
        }
    });
}

// ---------------------------------------------------------------------
// `Kbp::compile_at` keeps its knowledge-free guards across candidates:
// the program it compiles at every candidate is the full compile's.
// ---------------------------------------------------------------------

/// Walk the eq.-(25) iteration from `init` until it converges, repeats a
/// candidate or runs 64 steps, and at every candidate `x` check that
/// `kbp.compile_at(x)` equals `compile_with_knowledge(K@x)`, which
/// evaluates every guard at `x`: per-statement moved sets and step
/// targets, and `SI` — or the same error. Returns how many candidates
/// were compared.
fn compile_at_matches_full_compile(kbp: &Kbp, label: &str) -> usize {
    let program = kbp.program();
    let views: Vec<(String, VarSet)> = program
        .processes()
        .iter()
        .map(|p| (p.name().to_owned(), p.view()))
        .collect();
    let mut seen = Vec::new();
    let mut x = program.init().clone();
    while seen.len() < 64 && !seen.contains(&x) {
        let op = KnowledgeContext::new(program.space(), views.clone(), x.clone()).unwrap();
        let f = op.knowledge_fn();
        let full = program.compile_with_knowledge(f.as_ref());
        let kept = match (kbp.compile_at(&x), full) {
            (Ok(kept), Ok(full)) => {
                assert_eq!(kept.si(), full.si(), "{label}: SI differs");
                for (i, (a, b)) in kept
                    .transitions()
                    .iter()
                    .zip(full.transitions())
                    .enumerate()
                {
                    let name = full.statement_name(i);
                    assert_eq!(a.moved(), b.moved(), "{label}: `{name}` moves other states");
                    assert!(
                        a.moved().iter().all(|s| a.step(s) == b.step(s)),
                        "{label}: `{name}` has other targets"
                    );
                }
                kept
            }
            (Err(kept), Err(full)) => {
                assert_eq!(kept, CoreError::from(full), "{label}: errors differ");
                return seen.len() + 1;
            }
            (kept, full) => panic!(
                "{label}: compile_at gave {:?}, the full compile {:?}",
                kept.err(),
                full.err()
            ),
        };
        seen.push(x);
        x = kept.si().clone();
    }
    seen.len()
}

#[test]
fn compile_at_matches_the_full_compile_on_every_zoo_and_registry_model() {
    // The registry holds every zoo model.
    let cases = registry();
    assert!(cases.iter().any(|c| c.name == "zoo-russian-cards"));
    for case in cases {
        let kbp = Kbp::new(case.program);
        assert!(compile_at_matches_full_compile(&kbp, case.name) >= 1);
    }
    // Figure 1 cycles: the walk stops at the repeated candidate.
    assert!(compile_at_matches_full_compile(&load_kpt(figure1_kpt()).unwrap().1, "figure1") >= 2);
}

#[test]
fn compile_at_matches_the_full_compile_on_generated_programs() {
    let config = GenConfig::default();
    let mut candidates = 0;
    for seed in 0..120 {
        let src = gen_program(&mut Rng::seed_from_u64(seed), &config);
        let (_, program) = parse_program(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        candidates += compile_at_matches_full_compile(&Kbp::new(program), &format!("seed {seed}"));
    }
    assert!(candidates >= 120, "only {candidates} candidates compared");
}
