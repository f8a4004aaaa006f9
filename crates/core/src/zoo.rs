//! The shipped models: the paper's figures and the classic
//! epistemic-protocol examples as `.kpt` programs under `models/`, loaded
//! through the surface-syntax frontend ([`kpt_unity::parse_program`]).
//! Each model has one source, its file; every caller reaches it through
//! an accessor here.
//!
//! * [`figure1_kpt`] — the paper's Figure 1, a KBP with *no* eq. (25)
//!   solution (experiment E4);
//! * [`figure2_kpt`] / [`figure2`] — the paper's Figure 2, whose solution
//!   and properties are *not monotonic* in the initial condition (E5);
//! * [`muddy_children_kpt`] — the n-child muddy-children puzzle (§7's
//!   "cheating husbands" family) for 2 ≤ n ≤ 6, and
//!   [`muddy_children_memory_kpt`] its history-variable variant (§3);
//! * [`bdd_escape_kpt`] — a 159-free-state KBP past the exhaustive
//!   solver's reach;
//! * [`dining_cryptographers_kpt`] — Chaum's three-seat dining
//!   cryptographers with a knowledge-guarded verdict (anonymity);
//! * [`attacking_generals_kpt`] — the coordinated-attack scenario with a
//!   nested `K{G0}(K{G1}(plan))` guard;
//! * [`cache_coherence_kpt`] — a two-cache MSI-style protocol whose
//!   silent flush is a knowledge test;
//! * [`russian_cards_kpt`] — the (3,3,1) Russian-cards deal with Alice's
//!   Fano-plane announcement: Bob's knowledge-guarded step learns the
//!   deal, Cath provably learns nothing.
//!
//! [`zoo`] loads the scenario zoo (muddy children at n = 3 and the last
//! four above) together with the lint verdict baked in for each — the
//! `kpt_lint` registry and the CI check assert exactly those codes.

use std::sync::Arc;

use kpt_logic::{parse_formula, EvalContext};
use kpt_state::StateSpace;
use kpt_unity::{parse_program, UnityError};

use crate::kbp::Kbp;

/// The paper's Figure 1, the knowledge-based protocol with no eq. (25)
/// solution: `ŜP` is not monotone, so the fixpoint need not exist, and
/// here it does not.
pub fn figure1_kpt() -> &'static str {
    include_str!("../models/figure1.kpt")
}

/// The paper's Figure 2 under its weak init `¬y`; [`figure2`] loads it
/// under any other init.
pub fn figure2_kpt() -> &'static str {
    include_str!("../models/figure2.kpt")
}

/// Figure 2 under the initial condition `init_src` (concrete syntax). The
/// paper contrasts `init = ¬y`, whose solution is `¬y` and under which
/// `true ↦ z` holds, with the stronger `init = ¬y ∧ x`, whose solution is
/// `x` and under which `true ↦ z` fails.
///
/// # Errors
/// Parse/evaluation errors in `init_src`.
pub fn figure2(init_src: &str) -> Result<Kbp, UnityError> {
    let (space, kbp) = load_kpt(figure2_kpt())?;
    let init = EvalContext::new(&space).eval(&parse_formula(init_src)?)?;
    Ok(kbp.with_init(init))
}

/// The 159-free-state escape-hatch KBP: too large for the exhaustive
/// solver's 64-bit subset mask, routine for the symbolic engine.
pub fn bdd_escape_kpt() -> &'static str {
    include_str!("../models/bdd_escape.kpt")
}

/// The n-child muddy-children KBP (2 ≤ n ≤ 6): children announce when
/// they know their own status, the round advances on public silence (see
/// the model's header comment).
///
/// # Panics
/// Panics if `n` is outside `2..=6`.
pub fn muddy_children_kpt(n: usize) -> &'static str {
    match n {
        2 => include_str!("../models/muddy_children_2.kpt"),
        3 => include_str!("../models/muddy_children_3.kpt"),
        4 => include_str!("../models/muddy_children_4.kpt"),
        5 => include_str!("../models/muddy_children_5.kpt"),
        6 => include_str!("../models/muddy_children_6.kpt"),
        _ => panic!("n out of the supported range 2..=6"),
    }
}

/// Muddy children with history variables (2 ≤ n ≤ 3): `said_i` records
/// the round of the announcement, so knowledge, once attained, persists
/// (the paper's §3 history-variable remark; see the model's header).
///
/// # Panics
/// Panics if `n` is outside `2..=3`.
pub fn muddy_children_memory_kpt(n: usize) -> &'static str {
    match n {
        2 => include_str!("../models/muddy_children_memory_2.kpt"),
        3 => include_str!("../models/muddy_children_memory_3.kpt"),
        _ => panic!("n out of the supported range 2..=3"),
    }
}

/// The dining-cryptographers scenario (see the module docs).
pub fn dining_cryptographers_kpt() -> &'static str {
    include_str!("../models/dining_cryptographers.kpt")
}

/// The attacking-generals scenario (see the module docs).
pub fn attacking_generals_kpt() -> &'static str {
    include_str!("../models/attacking_generals.kpt")
}

/// The cache-coherence scenario (see the module docs).
pub fn cache_coherence_kpt() -> &'static str {
    include_str!("../models/cache_coherence.kpt")
}

/// The Russian-cards (3,3,1) scenario: Alice announces the seven Fano
/// lines, Bob's knowledge-guarded step fires exactly when he has deduced
/// the deal, and Cath — who sees only her own card and the public flags —
/// never learns the holder of any card (see the model's header comment).
pub fn russian_cards_kpt() -> &'static str {
    include_str!("../models/russian_cards.kpt")
}

/// Parse a textual scenario and wrap it as a [`Kbp`].
///
/// # Errors
/// A spanned [`UnityError`] on malformed sources; render against the
/// input with [`UnityError::render`].
pub fn load_kpt(src: &str) -> Result<(Arc<StateSpace>, Kbp), UnityError> {
    let (space, program) = parse_program(src)?;
    Ok((space, Kbp::new(program)))
}

/// One zoo scenario: its registry name, its textual source, the loaded
/// KBP, and the exact lint codes the model is expected to produce.
pub struct ZooEntry {
    /// Registry name (also used by the `kpt_lint` bin and bench bins).
    pub name: &'static str,
    /// The `.kpt` source the entry was parsed from.
    pub source: &'static str,
    /// The loaded knowledge-based protocol.
    pub kbp: Kbp,
    /// The exact diagnostic codes `kpt-lint` reports for this model.
    pub expected_lint: &'static [&'static str],
}

/// Load every zoo scenario (muddy children at n = 3).
///
/// # Errors
/// Propagates parse/elaboration errors (none for the in-tree sources —
/// each is pinned by a golden test).
pub fn zoo() -> Result<Vec<ZooEntry>, UnityError> {
    let entry = |name: &'static str,
                 source: &'static str,
                 expected_lint: &'static [&'static str]|
     -> Result<ZooEntry, UnityError> {
        let (_, kbp) = load_kpt(source)?;
        Ok(ZooEntry {
            name,
            source,
            kbp,
            expected_lint,
        })
    };
    Ok(vec![
        entry("zoo-muddy-children-3", muddy_children_kpt(3), &[])?,
        entry(
            "zoo-dining-cryptographers",
            dining_cryptographers_kpt(),
            &[],
        )?,
        entry("zoo-attacking-generals", attacking_generals_kpt(), &[])?,
        // The two writers race for the bus and the knowledge-guarded
        // flush reacts to variables the protocol changes — both warnings
        // are real and deliberate (see the model's header comment). The
        // flush statements also form a genuine read/write dependency
        // cycle, so the syntactic KPT011 pass fires alongside the
        // symbolic KPT009.
        entry(
            "zoo-cache-coherence",
            cache_coherence_kpt(),
            &["KPT008", "KPT009", "KPT011"],
        )?,
        entry("zoo-russian-cards", russian_cards_kpt(), &[])?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::KnowledgeContext;
    use crate::kbp::IterativeOutcome;
    use kpt_logic::parse_formula;
    use kpt_state::Predicate;

    fn solve(kbp: &Kbp) -> Predicate {
        match kbp.solve_iterative(64).unwrap() {
            IterativeOutcome::Converged { solution, .. } => {
                assert!(kbp.is_solution(&solution).unwrap());
                solution
            }
            other => panic!("zoo scenario must have a solution: {other:?}"),
        }
    }

    fn operator(kbp: &Kbp, solution: &Predicate) -> KnowledgeContext {
        let views = kbp
            .program()
            .processes()
            .iter()
            .map(|p| (p.name().to_owned(), p.view()))
            .collect();
        KnowledgeContext::new(kbp.program().space(), views, solution.clone()).unwrap()
    }

    fn load(src: &str) -> Kbp {
        load_kpt(src).unwrap().1
    }

    fn eval(space: &Arc<StateSpace>, f: &str) -> Predicate {
        kpt_logic::EvalContext::new(space)
            .eval(&parse_formula(f).unwrap())
            .unwrap()
    }

    #[test]
    fn every_entry_loads_and_solves() {
        for e in zoo().unwrap() {
            let solution = solve(&e.kbp);
            assert!(!solution.is_false(), "{}", e.name);
        }
    }

    #[test]
    fn dining_cryptographers_verdict_is_correct_and_anonymous() {
        let (space, kbp) = load_kpt(dining_cryptographers_kpt()).unwrap();
        let solution = solve(&kbp);
        let compiled = kbp.compile_at(&solution).unwrap();

        // A verdict is always reached…
        let decided = eval(&space, "verdict != open");
        assert!(compiled.leads_to_holds(&Predicate::tt(&space), &decided));
        // …and it is always the truth.
        let nobody = eval(&space, "~paid0 /\\ ~paid1 /\\ ~paid2");
        let nsa = eval(&space, "verdict = nsa");
        let payer = eval(&space, "verdict = payer");
        assert!(solution.and(&nsa).entails(&nobody));
        assert!(solution.and(&payer).entails(&nobody.negate()));

        // Anonymity: when a cryptographer paid and it wasn't C0, C0 knows
        // *that* a cryptographer paid but never *which one*.
        let op = operator(&kbp, &solution);
        let here = solution.and(&payer).and(&eval(&space, "~paid0"));
        assert!(!here.is_false());
        let k_some = op.knows("C0", &eval(&space, "paid1 \\/ paid2")).unwrap();
        assert!(here.entails(&k_some));
        for culprit in ["paid1", "paid2"] {
            let k_who = op.knows("C0", &eval(&space, culprit)).unwrap();
            assert!(here.and(&k_who).is_false(), "C0 must never learn {culprit}");
        }
    }

    #[test]
    fn attacking_generals_needs_the_acknowledgement() {
        let (space, kbp) = load_kpt(attacking_generals_kpt()).unwrap();
        let solution = solve(&kbp);

        // G1 attacks only informed, G0 attacks only acknowledged: the
        // nested knowledge guard is exactly the ack channel.
        assert!(solution
            .and(&eval(&space, "attack1"))
            .entails(&eval(&space, "msg")));
        assert!(solution
            .and(&eval(&space, "attack0"))
            .entails(&eval(&space, "ack")));
        // Both attacks are reachable — depth-2 knowledge is attainable…
        let both = solution.and(&eval(&space, "attack0 /\\ attack1"));
        assert!(!both.is_false());
        // …but a lost messenger strands the plan: no attack, ever.
        let compiled = kbp.compile_at(&solution).unwrap();
        let stranded = solution.and(&eval(&space, "lost /\\ ~attack0 /\\ ~attack1"));
        assert!(!stranded.is_false());
        assert!(compiled.stable(&stranded));
    }

    #[test]
    fn cache_coherence_is_coherent_and_flushes_on_knowledge() {
        let (space, kbp) = load_kpt(cache_coherence_kpt()).unwrap();
        let solution = solve(&kbp);

        // Coherence: never two modified copies; the bus wire is exact.
        assert!(solution
            .and(&eval(&space, "c0 = mod"))
            .entails(&eval(&space, "c1 = inv")));
        assert!(solution
            .and(&eval(&space, "c1 = mod"))
            .entails(&eval(&space, "c0 = inv")));
        let owned = eval(&space, "owned");
        let some_mod = eval(&space, "c0 = mod \\/ c1 = mod");
        assert_eq!(solution.and(&owned), solution.and(&some_mod));

        // The knowledge guard is *live*: the modified cache always knows
        // the peer is invalid, so the silent flush fires everywhere a
        // flush is wanted.
        let op = operator(&kbp, &solution);
        let k = op.knows("C0", &eval(&space, "c1 = inv")).unwrap();
        assert!(solution.and(&eval(&space, "c0 = mod")).entails(&k));
    }

    #[test]
    fn russian_cards_bob_learns_and_cath_learns_nothing() {
        let (space, kbp) = load_kpt(russian_cards_kpt()).unwrap();
        // 35 Alice hands × 4 consistent Cath cards, Bob's hand determined.
        assert_eq!(kbp.program().init().count(), 140);
        let solution = solve(&kbp);
        let compiled = kbp.compile_at(&solution).unwrap();
        let said = eval(&space, "said");
        let bknows = eval(&space, "bknows");

        // Once Alice's announcement is out, Bob eventually knows the deal.
        assert!(compiled.leads_to_holds(&said, &bknows));
        // `learn` fires on knowledge alone: announced but not-yet-learned
        // states exist, and every announced state already carries Bob's
        // knowledge of Alice's exact line.
        let fano: [[usize; 3]; 7] = [
            [0, 1, 2],
            [0, 3, 4],
            [0, 5, 6],
            [1, 3, 5],
            [1, 4, 6],
            [2, 3, 6],
            [2, 4, 5],
        ];
        let op = operator(&kbp, &solution);
        let mut bob_knows_some_line = Predicate::ff(&space);
        for line in fano {
            let f = format!("a{} /\\ a{} /\\ a{}", line[0], line[1], line[2]);
            bob_knows_some_line.or_assign(&op.knows("B", &eval(&space, &f)).unwrap());
        }
        let announced = solution.and(&said);
        assert!(!announced.is_false());
        assert!(announced.entails(&bob_knows_some_line));

        // Cath's ignorance: after the announcement she never learns who
        // holds any card she doesn't hold herself — neither an Alice card
        // nor a Bob card.
        for i in 0..7 {
            let not_cath = announced.and(&eval(&space, &format!("cc != {i}")));
            assert!(!not_cath.is_false());
            let k_alice = op.knows("C", &eval(&space, &format!("a{i}"))).unwrap();
            let k_bob = op.knows("C", &eval(&space, &format!("b{i}"))).unwrap();
            assert!(
                not_cath.and(&k_alice).is_false(),
                "Cath must never learn Alice holds card {i}"
            );
            assert!(
                not_cath.and(&k_bob).is_false(),
                "Cath must never learn Bob holds card {i}"
            );
        }
    }

    #[test]
    fn zoo_sources_round_trip_through_the_surface_parser() {
        // Golden property for each scenario: parse → display → parse is
        // the identity on the AST.
        let mut sources: Vec<&str> = zoo().unwrap().into_iter().map(|e| e.source).collect();
        sources.extend((2..=6).map(muddy_children_kpt));
        sources.extend((2..=3).map(muddy_children_memory_kpt));
        sources.extend([figure1_kpt(), figure2_kpt(), bdd_escape_kpt()]);
        for src in sources {
            let ast = kpt_logic::parse_program_ast(src).unwrap();
            let printed = ast.to_string();
            let again = kpt_logic::parse_program_ast(&printed).unwrap();
            // The printed form is the canonical layout: printing again is
            // the identity (spans differ between the two parses, so the
            // comparison is on the canonical text).
            assert_eq!(again.to_string(), printed, "source:\n{src}");
        }
    }

    // Muddy children (experiment E12).

    #[test]
    fn two_children_solution_matches_hand_analysis() {
        let kbp = load(muddy_children_kpt(2));
        let solution = solve(&kbp);
        assert_eq!(solution.count(), 16);
    }

    #[test]
    fn everyone_eventually_announces_for_all_n() {
        for n in [2usize, 3] {
            let kbp = load(muddy_children_kpt(n));
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
            let kbp = load(muddy_children_kpt(n));
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
        let kbp = load(muddy_children_kpt(2));
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
        let kbp = load(muddy_children_kpt(3));
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
        let kbp = load(muddy_children_kpt(2));
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
            let kbp = load(muddy_children_memory_kpt(n));
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

    // The paper's Figures 1 and 2 (experiments E4 and E5).

    #[test]
    fn fig1_has_no_solution() {
        // Experiment E4: the exhaustive solver proves the solution set of
        // Figure 1 is empty.
        let kbp = load(figure1_kpt());
        let sols = kbp.solve_exhaustive(16).unwrap();
        assert!(sols.is_empty(), "solutions: {:?}", sols.solutions());
        assert_eq!(sols.candidates_checked(), 8); // 3 non-init states
        assert!(sols.strongest().is_none());
    }

    #[test]
    fn fig1_iterative_solver_does_not_converge() {
        let kbp = load(figure1_kpt());
        match kbp.solve_iterative(64).unwrap() {
            IterativeOutcome::Converged { .. } => {
                panic!("figure 1 must not have a solution")
            }
            IterativeOutcome::Cycle { .. } | IterativeOutcome::Inconclusive { .. } => {}
        }
    }

    #[test]
    fn fig2_weak_init_solution_is_not_y() {
        // Experiment E5, part 1: with init = ¬y the solution is ¬y.
        let kbp = figure2("~y").unwrap();
        let sols = kbp.solve_exhaustive(16).unwrap();
        let space = kbp.program().space().clone();
        let not_y = EvalContext::new(&space)
            .eval(&parse_formula("~y").unwrap())
            .unwrap();
        assert!(
            sols.solutions().contains(&not_y),
            "¬y must solve figure 2 with init ¬y; got {:?}",
            sols.solutions()
        );
        assert_eq!(sols.strongest(), Some(&not_y));
    }

    #[test]
    fn fig2_strong_init_solution_is_x() {
        // Experiment E5, part 2: with init = ¬y ∧ x the solution is x.
        let kbp = figure2("~y /\\ x").unwrap();
        let sols = kbp.solve_exhaustive(16).unwrap();
        let space = kbp.program().space().clone();
        let x = EvalContext::new(&space)
            .eval(&parse_formula("x").unwrap())
            .unwrap();
        assert!(
            sols.solutions().contains(&x),
            "x must solve figure 2 with init ¬y∧x; got {:?}",
            sols.solutions()
        );
        assert_eq!(sols.strongest(), Some(&x));
    }

    #[test]
    fn fig2_si_not_monotonic_in_init() {
        // ¬y∧x ⊆ ¬y (stronger init), but the solutions are ¬y vs x —
        // and x ⊄ ¬y: monotonicity fails.
        let weak = figure2("~y").unwrap().solve_exhaustive(16).unwrap();
        let strong = figure2("~y /\\ x").unwrap().solve_exhaustive(16).unwrap();
        let si_weak = weak.strongest().unwrap();
        let si_strong = strong.strongest().unwrap();
        assert!(
            !si_strong.entails(si_weak),
            "strengthening init must NOT shrink SI here — the paper's point"
        );
    }

    #[test]
    fn fig2_liveness_flips_with_stronger_init() {
        // true ↦ z holds for init = ¬y, fails for init = ¬y ∧ x.
        for (init, expect) in [("~y", true), ("~y /\\ x", false)] {
            let kbp = figure2(init).unwrap();
            let sols = kbp.solve_exhaustive(16).unwrap();
            let si = sols.strongest().expect("figure 2 has solutions").clone();
            let compiled = kbp.compile_at(&si).unwrap();
            assert_eq!(compiled.si(), &si);
            let space = kbp.program().space().clone();
            let z = Predicate::var_is_true(&space, space.var("z").unwrap());
            assert_eq!(
                compiled.leads_to_holds(&Predicate::tt(&space), &z),
                expect,
                "init = {init}"
            );
        }
    }

    #[test]
    fn fig2_safety_also_flips() {
        // With init = ¬y the program satisfies invariant ¬y; with the
        // stronger init it does not (y is eventually set).
        let weak = figure2("~y").unwrap();
        let si_w = weak
            .solve_exhaustive(16)
            .unwrap()
            .strongest()
            .unwrap()
            .clone();
        let cw = weak.compile_at(&si_w).unwrap();
        let space = weak.program().space().clone();
        let not_y = Predicate::var_is_true(&space, space.var("y").unwrap()).negate();
        assert!(cw.invariant(&not_y));

        let strong = figure2("~y /\\ x").unwrap();
        let si_s = strong
            .solve_exhaustive(16)
            .unwrap()
            .strongest()
            .unwrap()
            .clone();
        let cs = strong.compile_at(&si_s).unwrap();
        assert!(!cs.invariant(&not_y));
    }
}
