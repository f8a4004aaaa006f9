//! Depth 3 — semantic checks against the strongest invariant
//! (`KPT007`-`KPT009`).
//!
//! The knowledge modalities are erased at positive polarity (see
//! [`crate::erase`]), which only weakens guards; the erased program's
//! strongest invariant therefore *contains* the `SI` of every solution of
//! the knowledge-based protocol (eq. 5, eq. 25). A guard unsatisfiable
//! under that over-approximating `SI` is unsatisfiable under every
//! solution's `SI` — genuinely dead code.
//!
//! The guards are the run's explicit erased guards
//! ([`crate::erase::guard_over_approx`], evaluated once per lint run and
//! shared with the declaration pass), and the `SI` is the explicit, cached
//! [`kpt_unity::CompiledProgram::si`] of the program compiled with them
//! ([`kpt_unity::Program::compile_guarded`]). No BDD is built: a BDD relation
//! rebuilt from the compiled transitions, one pair cube per state, makes
//! the `SI` cost about 1000x the explicit one.

use std::collections::BTreeSet;

use kpt_logic::Formula;
use kpt_state::{witness_state, Predicate, VarId};
use kpt_unity::{CompiledProgram, Guard, Program, Statement};

use crate::erase::{eval_assign_rhs, top_level_knowledge, ErasedGuards};
use crate::{Diagnostic, DiagnosticCode};

/// At most this many overlap states are evaluated per statement pair.
const MAX_OVERLAP_SAMPLES: usize = 1024;

/// Run the symbolic checks over the run's shared erased guards. Assumes
/// the declaration and view passes found no errors (the orchestrator
/// skips this pass otherwise). Returns whether `KPT007`/`KPT008` ran —
/// `false` when an erased guard does not evaluate or the erased program
/// does not compile. The syntactic `KPT009` check has run in every case.
pub(crate) fn check(program: &Program, erased: &ErasedGuards, diags: &mut Vec<Diagnostic>) -> bool {
    check_circularity(program, diags);

    let Some((all, compiled)) = compile_erased(program, erased) else {
        return false;
    };
    let si = compiled.si();
    let guards: Vec<Option<&Predicate>> = program
        .statements()
        .iter()
        .zip(all)
        .map(|(stmt, g)| (!matches!(stmt.guard(), Guard::Always)).then_some(g))
        .collect();

    // KPT007: a guard false everywhere in the over-approximating SI can
    // never fire in any solution of the protocol.
    for (stmt, g) in program.statements().iter().zip(&guards) {
        if g.is_some_and(|g| g.and(si).is_false()) {
            diags.push(Diagnostic::on_guard(
                DiagnosticCode::DeadGuard,
                stmt.name(),
                "guard is unsatisfiable within the strongest invariant of the \
                 knowledge-erased program — the statement can never fire in \
                 any solution of the protocol",
            ));
        }
    }

    check_races(program, diags, si, &guards);
    true
}

/// Every erased guard, in statement order, and the program compiled with
/// them: the knowledge-erased program's compile. `None` when a guard does
/// not evaluate or an update fails.
fn compile_erased<'g>(
    program: &Program,
    erased: &'g ErasedGuards,
) -> Option<(Vec<&'g Predicate>, CompiledProgram)> {
    let guards = (0..program.statements().len())
        .map(|i| erased.get(i))
        .collect::<Option<Vec<_>>>()?;
    let compiled = program.compile_guarded(&guards).ok()?;
    Some((guards, compiled))
}

/// KPT008: two knowledge-free statements whose guards overlap inside the
/// invariant and that assign *different* values to the same variable at an
/// overlap state — the nondeterministic scheduler makes the outcome racy.
///
/// Knowledge-guarded statements are excluded: their enabledness depends on
/// the solution's SI, so syntactic overlap proves nothing. `guards[i]` is
/// statement `i`'s erased guard, `None` when it is trivially true.
fn check_races(
    program: &Program,
    diags: &mut Vec<Diagnostic>,
    si: &Predicate,
    guards: &[Option<&Predicate>],
) {
    let space = program.space();
    let stmts: Vec<&Statement> = program.statements().iter().collect();
    for (i, a) in stmts.iter().enumerate() {
        if a.guard().mentions_knowledge() || a.assignments().is_empty() {
            continue;
        }
        for (j, b) in stmts.iter().enumerate().skip(i + 1) {
            if b.guard().mentions_knowledge() || b.assignments().is_empty() {
                continue;
            }
            let shared: Vec<&String> = a
                .assignments()
                .iter()
                .map(|(v, _)| v)
                .filter(|v| b.assignments().iter().any(|(w, _)| &w == v))
                .collect();
            if shared.is_empty() {
                continue;
            }
            let ga = guards[i].unwrap_or(si);
            let gb = guards[j].unwrap_or(si);
            let overlap = ga.and(gb).and(si);
            if overlap.is_false() {
                continue;
            }
            let samples: Vec<u64> = overlap.iter().take(MAX_OVERLAP_SAMPLES).collect();
            'vars: for var in &shared {
                let Ok(v) = space.var(var) else { continue };
                let dom = space.domain(v).clone();
                let ra = a
                    .assignments()
                    .iter()
                    .find(|(w, _)| w == *var)
                    .map(|(_, e)| e);
                let rb = b
                    .assignments()
                    .iter()
                    .find(|(w, _)| w == *var)
                    .map(|(_, e)| e);
                let (Some(ra), Some(rb)) = (ra, rb) else {
                    continue;
                };
                for &state in &samples {
                    let va = eval_assign_rhs(space, a.params(), |l| dom.label_code(l), ra, state);
                    let vb = eval_assign_rhs(space, b.params(), |l| dom.label_code(l), rb, state);
                    if let (Some(va), Some(vb)) = (va, vb) {
                        if va != vb {
                            diags.push(
                                Diagnostic::on_statement(
                                    DiagnosticCode::WriteRace,
                                    a.name(),
                                    format!(
                                        "statements `{}` and `{}` are both enabled at a \
                                         reachable state and write different values \
                                         ({va} vs {vb}) to `{var}` — the outcome depends \
                                         on scheduling",
                                        a.name(),
                                        b.name()
                                    ),
                                )
                                .with_witnesses(vec![witness_state(space, state)]),
                            );
                            break 'vars;
                        }
                    }
                }
            }
        }
    }
}

/// KPT009: the eq. (25) circularity behind Figure 1. A statement guarded
/// by `K_i(φ)` that itself modifies the variables of `φ` — directly, or
/// through a statement it feeds — makes the knowledge fixpoint
/// non-monotone, and the protocol "may have no solution" (the paper's
/// Figure 1 provably has none).
fn check_circularity(program: &Program, diags: &mut Vec<Diagnostic>) {
    let space = program.space();
    let stmts: Vec<&Statement> = program.statements().iter().collect();

    let writes: Vec<BTreeSet<VarId>> = stmts
        .iter()
        .map(|s| {
            s.assignments()
                .iter()
                .filter_map(|(v, _)| space.var(v).ok())
                .collect()
        })
        .collect();
    let reads: Vec<BTreeSet<VarId>> = stmts.iter().map(|s| guard_reads(space, s)).collect();

    for (idx, stmt) in stmts.iter().enumerate() {
        let Guard::Formula(f) = stmt.guard() else {
            continue;
        };
        let mut tops = Vec::new();
        top_level_knowledge(f, &mut tops);
        for (agent, body) in &tops {
            let mut subject: BTreeSet<VarId> = BTreeSet::new();
            collect_formula_vars(space, body, &mut subject);
            if subject.is_empty() {
                continue;
            }
            let direct = !writes[idx].is_disjoint(&subject);
            let via = stmts.iter().enumerate().find(|(j, _)| {
                *j != idx
                    && !reads[*j].is_disjoint(&writes[idx])
                    && !writes[*j].is_disjoint(&subject)
            });
            if direct || via.is_some() {
                let how = if direct {
                    "this statement itself modifies them".to_owned()
                } else {
                    format!(
                        "statement `{}` reads this statement's writes and modifies them",
                        stmts[via.expect("checked").0].name()
                    )
                };
                diags.push(Diagnostic::on_guard(
                    DiagnosticCode::KnowledgeCircularity,
                    stmt.name(),
                    format!(
                        "guard tests `K{{{agent}}}` over variables whose values the \
                         protocol changes in response ({how}); the eq. (25) fixpoint \
                         is non-monotone and the protocol may have no solution \
                         (cf. Figure 1)"
                    ),
                ));
            }
        }
    }
}

/// Every state variable a statement's guard reads, knowledge bodies
/// included; `Guard::Pred` reads are detected semantically.
pub(crate) fn guard_reads(
    space: &std::sync::Arc<kpt_state::StateSpace>,
    stmt: &Statement,
) -> BTreeSet<VarId> {
    match stmt.guard() {
        Guard::Always => BTreeSet::new(),
        Guard::Pred(p) => pred_reads(space, p),
        Guard::Formula(f) => {
            let mut out = BTreeSet::new();
            collect_formula_vars(space, f, &mut out);
            out
        }
    }
}

fn pred_reads(space: &std::sync::Arc<kpt_state::StateSpace>, p: &Predicate) -> BTreeSet<VarId> {
    space.vars().filter(|&v| !p.is_independent_of(v)).collect()
}

/// All identifiers of `f` (knowledge bodies included) that name state
/// variables.
pub(crate) fn collect_formula_vars(
    space: &std::sync::Arc<kpt_state::StateSpace>,
    f: &Formula,
    out: &mut BTreeSet<VarId>,
) {
    match f {
        Formula::Const(_) => {}
        Formula::BoolVar(n) => {
            if let Ok(v) = space.var(n) {
                out.insert(v);
            }
        }
        Formula::Cmp(_, a, b) => {
            let mut ids = BTreeSet::new();
            crate::erase::expr_idents(a, &mut ids);
            crate::erase::expr_idents(b, &mut ids);
            for n in ids {
                if let Ok(v) = space.var(&n) {
                    out.insert(v);
                }
            }
        }
        Formula::Not(g) | Formula::Forall(_, g) | Formula::Exists(_, g) | Formula::Knows(_, g) => {
            collect_formula_vars(space, g, out);
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            collect_formula_vars(space, a, out);
            collect_formula_vars(space, b, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erase::{erase_knowledge, erased_program, guard_over_approx};
    use crate::registry::registry;
    use kpt_bdd::{BddSpace, SymbolicEvalContext, SymbolicKbp};
    use kpt_testkit::genprog::{gen_program, GenConfig};
    use kpt_testkit::Rng;

    /// `check`: whether KPT007/KPT008 ran, and every diagnostic rendered
    /// in full (code, anchor, message, witnesses).
    fn run(program: &Program) -> (bool, Vec<String>) {
        let mut diags = Vec::new();
        let ran = check(program, &ErasedGuards::new(program), &mut diags);
        (ran, diags.iter().map(|d| format!("{d:?}")).collect())
    }

    /// `n` booleans `b0..b{n-1}`, all false initially, plus the listed
    /// statements — 2^n states.
    fn booleans(n: usize, statements: &str) -> String {
        let decl: String = (0..n).map(|i| format!("  b{i} : boolean\n")).collect();
        let init: Vec<String> = (0..n).map(|i| format!("~b{i}")).collect();
        format!(
            "program wide\ndeclare\n{decl}processes\n  P = {{b0}}\ninit\n  {}\nassign\n{statements}",
            init.join(" /\\ ")
        )
    }

    fn parse(src: &str) -> Program {
        kpt_unity::parse_program(src).expect("test source parses").1
    }

    /// The `SI` `check` compiles from the shared erased guards equals the
    /// reference `erased_program(p).compile()?.si()` (both fail together);
    /// the explicit guards equal the ones the BDD engine evaluates from the
    /// erased formulas; and the explicit `SI` equals the one
    /// `SymbolicKbp`'s translator reaches — the inputs the symbolic depth
    /// took before it went explicit. Returns whether the BDD `SI` was
    /// compared: not when the erased program does not compile or the
    /// translator refuses it, nor for opaque updates on more than 2^12
    /// states, which the translator sweeps state by state (seconds per §6
    /// model in a debug build).
    fn agrees_with_bdd(program: &Program) -> bool {
        let erased = erased_program(program).unwrap();
        let reference = erased.compile();
        let erased_guards = ErasedGuards::new(program);
        let shared = compile_erased(program, &erased_guards);
        assert_eq!(
            shared.as_ref().map(|(_, c)| c.si()),
            reference.as_ref().ok().map(CompiledProgram::si),
            "{}: lint's erased SI differs from the erased program's",
            program.name()
        );
        let space = program.space();
        let bdd = BddSpace::new(space);
        for stmt in program.statements() {
            let Guard::Formula(f) = stmt.guard() else {
                continue;
            };
            let symbolic = SymbolicEvalContext::new(&bdd)
                .with_params(stmt.params())
                .eval(&erase_knowledge(f, true).simplify())
                .ok()
                .map(|g| g.to_explicit());
            assert_eq!(
                symbolic,
                guard_over_approx(space, stmt),
                "{}: guard of `{}` differs",
                program.name(),
                stmt.name()
            );
        }
        let opaque = program.statements().iter().any(|s| s.update_fn().is_some());
        if opaque && space.num_states() > 1 << 12 {
            return false;
        }
        let Ok(compiled) = reference else {
            return false;
        };
        let Ok(skbp) = SymbolicKbp::from_program(&erased) else {
            return false;
        };
        let si = skbp.iterate(&skbp.init()).unwrap().to_explicit();
        assert_eq!(&si, compiled.si(), "{}: SI differs", program.name());
        true
    }

    #[test]
    fn explicit_inputs_match_the_bdd_engine_on_every_registry_model() {
        let mut compared = 0;
        for case in registry() {
            assert!(run(&case.program).0, "{}: checks skipped", case.name);
            if agrees_with_bdd(&case.program) {
                compared += 1;
            }
        }
        // All but the two §6 models.
        assert_eq!(compared, registry().len() - 2);
    }

    #[test]
    fn explicit_inputs_match_the_bdd_engine_on_generated_programs() {
        let config = GenConfig::default();
        let (mut compared, mut findings) = (0, 0);
        for seed in 0..240 {
            let src = gen_program(&mut Rng::seed_from_u64(seed), &config);
            let program = parse(&src);
            if agrees_with_bdd(&program) {
                compared += 1;
            }
            findings += run(&program).1.len();
        }
        assert!(compared >= 200, "only {compared} programs compared");
        assert!(findings > 0, "no generated program produced a finding");
    }

    #[test]
    fn seeded_dead_guard_and_race_are_found_in_a_large_space() {
        // 2^17 states. `x` and `y` only ever rise together, so `dead` is
        // dead by correlation alone (no interval proves it). `up` and
        // `down` are both enabled once `x` and `y` are set; they agree on
        // `b1` at the first overlap state (`b2` = 0) and differ once `set`
        // has raised `b2`.
        let src = booleans(
            15,
            "  both: x := 1 || y := 1 if ~x\n  [] dead: b0 := 1 if x /\\ ~y\n  \
             [] set: b2 := 1 if ~b2\n  [] up: b1 := b2 if x\n  [] down: b1 := 0 if y\n",
        )
        .replace("declare\n", "declare\n  x : boolean\n  y : boolean\n")
        .replace("init\n  ", "init\n  ~x /\\ ~y /\\ ");
        let program = parse(&src);
        let space = program.space();
        assert_eq!(space.num_states(), 1 << 17);
        let report = crate::lint_source(&src, &crate::LintOptions::default()).unwrap();
        assert!(report.symbolic_ran);
        let codes: Vec<&str> = report.codes().iter().map(|c| c.code()).collect();
        assert_eq!(codes, ["KPT007", "KPT008"], "{report}");
        assert_eq!(report.diagnostics[0].statement.as_deref(), Some("dead"));
        let race = &report.diagnostics[1];
        assert_eq!(race.statement.as_deref(), Some("up"));
        assert_eq!(race.witnesses.len(), 1);
        let witness = race.witnesses[0].index;
        assert_eq!(space.value(witness, space.var("b2").unwrap()), 1);
        assert!(program.compile().unwrap().si().holds(witness));
        for stmt in &program.statements()[3..] {
            let guard = guard_over_approx(space, stmt).unwrap();
            assert!(
                guard.holds(witness),
                "`{}` disabled at the witness",
                stmt.name()
            );
        }
    }

    #[test]
    fn failed_compile_skips_the_checks() {
        // `i := i + 1` leaves nat<2> at i = 1 and the guard enables it.
        let program =
            parse("program oob\ndeclare\n  i : nat<2>\ninit\n  i = 0\nassign\n  inc: i := i + 1\n");
        assert_eq!(run(&program), (false, Vec::new()));
    }

    #[test]
    fn skipped_checks_still_report_circularity() {
        // Figure 1's shape over an out-of-range update: KPT009 is
        // syntactic and runs even though the erased program fails.
        let program = parse(
            "program circ\ndeclare\n  x : boolean\n  i : nat<2>\nprocesses\n  P = {x}\n\
             init\n  ~x /\\ i = 0\nassign\n  flip: x := 1 if K{P}(~x)\n  [] inc: i := i + 1\n",
        );
        let (ran, diags) = run(&program);
        assert!(!ran);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].contains("KnowledgeCircularity"), "{diags:?}");
    }
}
