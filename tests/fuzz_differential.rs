//! The differential fuzzing campaign: random textual programs from
//! `kpt_testkit::genprog` are parsed through the surface frontend and run
//! through a **three-way oracle**:
//!
//! 1. the explicit bitset engine (`kpt_core::Kbp::solve_iterative`);
//! 2. the symbolic engine in its grow-only serial configuration
//!    (`BddConfig::serial()`);
//! 3. the symbolic engine with GC *and* dynamic sifting enabled.
//!
//! All three must report the identical eq. (25) outcome — same variant,
//! same iteration counts, same solution state set — compared as one
//! `IterativeOutcome` after mapping symbolic solutions to bitsets. Every
//! generated program is additionally run through the **full lint
//! pipeline** — a lint panic is a fuzz finding — which must report no
//! errors on valid-by-construction input, and whose interval dead-guard
//! verdicts (`KPT010`) must each be confirmed by the symbolic pass
//! (`KPT007`): the `KPT010 ⊑ KPT007` soundness direction, pinned per
//! statement on every campaign case. On top of that, the linter's
//! knowledge-erased program is compiled on both backends: its
//! `SI`s must agree bit-exactly, and by eq. (14) the erased `SI` must
//! contain every converged solution (the sound over-approximation the
//! static analyzer's dead-guard pass relies on).
//!
//! The committed seeds under `tests/corpus/` pin the interesting shapes
//! (and past finds) as named regression tests; the random campaign runs
//! fresh cases on every invocation (`KPT_PROP_SEED` to replay).

use knowledge_pt::prelude::*;
use kpt_testkit::genprog::{gen_program, GenConfig};
use kpt_testkit::{check, Rng};

const MAX_ITERS: usize = 32;

/// The explicit engine's outcome, with a converged solution re-checked
/// against eq. (25).
fn explicit_outcome(kbp: &Kbp) -> IterativeOutcome {
    let outcome = kbp.solve_iterative(MAX_ITERS).expect("explicit solver");
    if let Some(solution) = outcome.solution() {
        assert!(kbp.is_solution(solution).expect("explicit is_solution"));
    }
    outcome
}

/// The symbolic engine's outcome under `config`, re-checked like
/// [`explicit_outcome`] and converted to explicit bitsets for comparison.
fn symbolic_outcome(program: &Program, config: BddConfig) -> IterativeOutcome {
    let symbolic = SymbolicKbp::from_program_with(program, config).expect("symbolic translation");
    let outcome = symbolic
        .solve_iterative(MAX_ITERS)
        .expect("symbolic solver");
    if let Some(solution) = outcome.solution() {
        assert!(symbolic
            .is_solution(solution)
            .expect("symbolic is_solution"));
    }
    outcome.map(|s| s.to_explicit())
}

/// A gc+sift configuration with thresholds small enough that tiny fuzz
/// spaces actually exercise both machineries.
fn gc_sift_config() -> BddConfig {
    BddConfig {
        gc: GcPolicy::OnGrowth {
            min_nodes: 256,
            dead_percent: 10,
        },
        reorder: ReorderPolicy::SiftOnGrowth {
            trigger_nodes: 128,
            max_growth_percent: 20,
        },
    }
}

/// The three-way oracle. Panics (with the source appended) on any
/// divergence — a failing seed is a bug in one of the engines.
fn oracle(src: &str) {
    let (_space, program) =
        parse_program(src).unwrap_or_else(|e| panic!("{}\nsource:\n{src}", e.render(src)));

    // The full lint pipeline runs over every generated program without
    // panicking. The generator guarantees well-scoped declarations, so
    // KPT001/002/003/006 would be linter (or generator) bugs; view
    // violations are fair findings — genprog does not restrict
    // knowledge-guarded reads to the guarding process's view.
    let report = knowledge_pt::lint::lint_program_with(&program, &LintOptions::default());
    let decl_errors: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code.severity() == Severity::Error && d.code != DiagnosticCode::ViewViolation)
        .collect();
    assert!(
        decl_errors.is_empty(),
        "declaration-pass errors on a generated program:\n{decl_errors:?}\nsource:\n{src}"
    );
    // KPT010 ⊑ KPT007: a guard the interval box proves dead must also be
    // dead under the symbolic strongest invariant. The converse is not
    // required — the box is a strict over-approximation.
    if report.symbolic_ran {
        for d in &report.diagnostics {
            if d.code != DiagnosticCode::IntervalDeadGuard {
                continue;
            }
            assert!(
                report
                    .diagnostics
                    .iter()
                    .any(|e| e.code == DiagnosticCode::DeadGuard && e.statement == d.statement),
                "KPT010 fired without KPT007 on {:?} — unsound interval analysis:\n{src}",
                d.statement
            );
        }
    }

    let kbp = Kbp::new(program.clone());
    let explicit = explicit_outcome(&kbp);
    let serial = symbolic_outcome(&program, BddConfig::serial());
    let gc_sift = symbolic_outcome(&program, gc_sift_config());
    assert_eq!(
        explicit, serial,
        "explicit vs serial-BDD diverged on:\n{src}"
    );
    assert_eq!(
        explicit, gc_sift,
        "explicit vs gc+sift-BDD diverged on:\n{src}"
    );

    // Lint's sound over-approximation: the knowledge-erased program is a
    // plain UNITY program; its SI agrees across backends and contains
    // every solution of the KBP (eq. 14).
    let erased = erased_program(&program).expect("erasure");
    let erased_si = erased.compile().expect("erased compile").si().clone();
    // A plain program converges on both engines (after one or two
    // iterations, whichever confirms the SI), so only the solution is
    // compared.
    let symbolic_erased = symbolic_outcome(&erased, BddConfig::serial());
    assert_eq!(
        symbolic_erased.solution(),
        Some(&erased_si),
        "erased-program SI diverged on:\n{src}"
    );
    if let Some(solution) = explicit.solution() {
        for st in solution.iter() {
            assert!(
                erased_si.holds(st),
                "state {st} solves the KBP but escapes the erased SI:\n{src}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The random campaign.
// ---------------------------------------------------------------------

#[test]
fn fuzz_differential_campaign() {
    let config = GenConfig::default();
    check("fuzz_differential", 200, |rng| {
        oracle(&gen_program(rng, &config));
    });
}

#[test]
fn fuzz_formulas_round_trip() {
    // parse → display → parse is the identity on the formula AST.
    check("fuzz_formula_roundtrip", 1000, |rng| {
        let src = kpt_testkit::genprog::gen_formula(rng);
        let f = parse_formula(&src).unwrap_or_else(|e| panic!("{e}\nsource: {src}"));
        let printed = f.to_string();
        let again = parse_formula(&printed).unwrap_or_else(|e| panic!("{e}\nprinted: {printed}"));
        assert_eq!(again, f, "display changed the formula: {src} -> {printed}");
    });
}

#[test]
fn fuzz_programs_round_trip() {
    // parse → display → parse reaches the canonical fixpoint for whole
    // programs: printing the reparsed AST reproduces the printed text.
    let config = GenConfig::default();
    check("fuzz_program_roundtrip", 1000, |rng| {
        let src = gen_program(rng, &config);
        let ast = knowledge_pt::logic::parse_program_ast(&src)
            .unwrap_or_else(|e| panic!("{}\nsource:\n{src}", e.render(&src)));
        let printed = ast.to_string();
        let again = knowledge_pt::logic::parse_program_ast(&printed)
            .unwrap_or_else(|e| panic!("{}\nprinted:\n{printed}", e.render(&printed)));
        assert_eq!(again.to_string(), printed, "source:\n{src}");
    });
}

// ---------------------------------------------------------------------
// The committed seed corpus: one named regression per interesting shape.
// ---------------------------------------------------------------------

#[test]
fn corpus_figure1_cycles_everywhere() {
    // The paper's no-solution KBP: all three engines must report the same
    // cycle instead of a solution.
    let src = include_str!("corpus/figure1.kpt");
    let (_, program) = parse_program(src).unwrap();
    let explicit = explicit_outcome(&Kbp::new(program.clone()));
    assert!(
        matches!(explicit, IterativeOutcome::Cycle { .. }),
        "figure 1 has no solution, got {explicit:?}"
    );
    oracle(src);
}

#[test]
fn corpus_enum_labels() {
    // Pinned by the campaign: bare enum labels may sit on either side of a
    // comparison (`red = light`), and only *bare* identifiers ever
    // label-resolve — the evaluator bug where compound sides collapsed to
    // their label code was fixed in this PR (see
    // `kpt_logic::eval` test `compound_sides_never_label_resolve`).
    oracle(include_str!("corpus/enum_labels.kpt"));
}

#[test]
fn corpus_counter_knowledge() {
    oracle(include_str!("corpus/counter_knowledge.kpt"));
}

#[test]
fn corpus_parallel_swap() {
    // Simultaneous assignment: `a := b || b := a` must swap, not chain.
    let src = include_str!("corpus/parallel_swap.kpt");
    let (space, program) = parse_program(src).unwrap();
    let compiled = program.compile().unwrap();
    let a = space.var("a").unwrap();
    let b = space.var("b").unwrap();
    let init = program.init().iter().next().unwrap();
    let swapped = compiled.step(0, init);
    assert_eq!(space.value(swapped, a), 2);
    assert_eq!(space.value(swapped, b), 1);
    oracle(src);
}

#[test]
fn corpus_nested_knowledge() {
    oracle(include_str!("corpus/nested_knowledge.kpt"));
}

#[test]
fn corpus_plain_counter() {
    oracle(include_str!("corpus/plain_counter.kpt"));
}

#[test]
fn zoo_scenarios_pass_the_oracle() {
    // Every zoo scenario (including the generated muddy-children
    // templates) is also a corpus member.
    for e in zoo().unwrap() {
        oracle(&e.source);
    }
    for n in 2..=4 {
        oracle(&muddy_children_kpt(n));
    }
}

#[test]
fn deterministic_seeds_are_stable() {
    // The generator is part of the reproducibility contract: a fixed seed
    // must keep producing the identical source so `KPT_PROP_SEED` replays
    // stay meaningful across sessions.
    let config = GenConfig::default();
    let a = gen_program(&mut Rng::seed_from_u64(0xF00D), &config);
    let b = gen_program(&mut Rng::seed_from_u64(0xF00D), &config);
    assert_eq!(a, b);
}
