//! A parameterized scenario zoo: the classic epistemic-protocol examples
//! as *textual* `.kpt` programs, loaded through the surface-syntax
//! frontend ([`kpt_unity::parse_program`]) rather than hand-built with
//! the Rust builder API.
//!
//! * [`muddy_children_kpt`] — the n-child muddy-children puzzle (§7's
//!   "cheating husbands" family), generated from a text template for
//!   2 ≤ n ≤ 6 and semantically identical to [`crate::muddy_children_n`]
//!   on the overlapping range;
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
//! [`zoo`] loads every scenario (muddy children at n = 3) together with
//! the lint verdict baked in for each — the `kpt_lint` registry and the
//! CI check assert exactly those codes.

use std::fmt::Write as _;
use std::sync::Arc;

use kpt_state::StateSpace;
use kpt_unity::{parse_program, UnityError};

use crate::kbp::Kbp;

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

/// The textual n-child muddy-children KBP (2 ≤ n ≤ 6): the same program
/// [`crate::muddy_children_n`] builds in Rust, written in the surface
/// syntax — children announce when they know their own status, the round
/// advances on public silence.
///
/// # Panics
/// Panics if `n` is outside `2..=6`.
pub fn muddy_children_kpt(n: usize) -> String {
    assert!((2..=6).contains(&n), "n out of the supported range 2..=6");
    let knows_own = |i: usize| format!("(K{{C{i}}}(mud{i}) \\/ K{{C{i}}}(~mud{i}))");
    let mut s = String::new();
    let _ = writeln!(
        s,
        "// The {n}-child muddy-children puzzle (generated template)."
    );
    let _ = writeln!(s, "program muddy_children_{n}");
    s.push_str("declare\n");
    for i in 0..n {
        let _ = writeln!(s, "  mud{i} : boolean");
    }
    for i in 0..n {
        let _ = writeln!(s, "  said{i} : boolean");
    }
    let _ = writeln!(s, "  round : nat<{}>", n + 1);
    s.push_str("processes\n");
    for i in 0..n {
        // Child i sees every forehead but its own, plus the public state.
        let vars: Vec<String> = (0..n)
            .filter(|&j| j != i)
            .map(|j| format!("mud{j}"))
            .chain((0..n).map(|j| format!("said{j}")))
            .chain(std::iter::once("round".to_owned()))
            .collect();
        let _ = writeln!(s, "  C{i} = {{{}}}", vars.join(", "));
    }
    s.push_str("init\n");
    let muddy: Vec<String> = (0..n).map(|i| format!("mud{i}")).collect();
    let _ = writeln!(s, "  ({})", muddy.join(" \\/ "));
    let silent: Vec<String> = (0..n).map(|i| format!("~said{i}")).collect();
    let _ = writeln!(s, "  /\\ {}", silent.join(" /\\ "));
    s.push_str("  /\\ round = 0\n");
    s.push_str("assign\n");
    for i in 0..n {
        let lead = if i == 0 { "  " } else { "  [] " };
        let _ = writeln!(
            s,
            "{lead}announce{i}: said{i} := 1 if ~said{i} /\\ {}",
            knows_own(i)
        );
    }
    let _ = writeln!(s, "  [] tick: round := round + 1 if round < {n}");
    for i in 0..n {
        let _ = writeln!(s, "       /\\ (said{i} \\/ ~{})", knows_own(i));
    }
    s
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
    pub source: String,
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
    let entry = |name, source: String, expected_lint| -> Result<ZooEntry, UnityError> {
        let (_, kbp) = load_kpt(&source)?;
        Ok(ZooEntry {
            name,
            source,
            kbp,
            expected_lint,
        })
    };
    Ok(vec![
        entry(
            "zoo-muddy-children-3",
            muddy_children_kpt(3),
            &[] as &[&str],
        )?,
        entry(
            "zoo-dining-cryptographers",
            dining_cryptographers_kpt().to_owned(),
            &[],
        )?,
        entry(
            "zoo-attacking-generals",
            attacking_generals_kpt().to_owned(),
            &[],
        )?,
        // The two writers race for the bus and the knowledge-guarded
        // flush reacts to variables the protocol changes — both warnings
        // are real and deliberate (see the model's header comment). The
        // flush statements also form a genuine read/write dependency
        // cycle, so the syntactic KPT011 pass fires alongside the
        // symbolic KPT009.
        entry(
            "zoo-cache-coherence",
            cache_coherence_kpt().to_owned(),
            &["KPT008", "KPT009", "KPT011"],
        )?,
        entry("zoo-russian-cards", russian_cards_kpt().to_owned(), &[])?,
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
    fn textual_muddy_children_matches_the_builder() {
        // The template and `muddy_children_n` are the same program: same
        // variable layout, same eq. (25) solution, state for state.
        for n in 2..=4 {
            let built = crate::muddy_children_n(n).unwrap();
            let (space, parsed) = load_kpt(&muddy_children_kpt(n)).unwrap();
            assert_eq!(space.num_states(), built.program().space().num_states());
            let b = solve(&built);
            let p = solve(&parsed);
            assert_eq!(
                b.iter().collect::<Vec<_>>(),
                p.iter().collect::<Vec<_>>(),
                "n = {n}"
            );
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
        let mut sources: Vec<String> = zoo().unwrap().into_iter().map(|e| e.source).collect();
        sources.extend((2..=6).map(muddy_children_kpt));
        for src in sources {
            let ast = kpt_logic::parse_program_ast(&src).unwrap();
            let printed = ast.to_string();
            let again = kpt_logic::parse_program_ast(&printed).unwrap();
            // The printed form is the canonical layout: printing again is
            // the identity (spans differ between the two parses, so the
            // comparison is on the canonical text).
            assert_eq!(again.to_string(), printed, "source:\n{src}");
        }
    }
}
