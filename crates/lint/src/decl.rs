//! Depth 1 — declaration-level checks (`KPT001`-`KPT004`).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use kpt_logic::{resolve_binder, resolve_bool_atom, EvalError, Formula, Term};
use kpt_state::{witness_state, Predicate, StateSpace};
use kpt_unity::{Guard, Program, Statement};

use crate::erase::ErasedGuards;
use crate::{Anchor, Diagnostic, DiagnosticCode};

/// Semantic range scanning is skipped above this many states — the
/// declaration pass must stay cheap on the symbolic-scale instances.
const MAX_SCAN_STATES: u64 = 1 << 20;

/// Run the declaration-level checks. `guards` is the run's shared erased
/// guards; the `KPT002` scan evaluates only those it reads.
pub(crate) fn check(program: &Program, guards: &ErasedGuards, diags: &mut Vec<Diagnostic>) {
    let space = program.space();

    // KPT004: empty init means SI = sst.init = ff — every invariant and
    // every knowledge fact holds vacuously.
    if program.init().is_false() {
        diags.push(
            Diagnostic::program_level(
                DiagnosticCode::EmptyInit,
                "initial condition is unsatisfiable: SI is empty and every \
                 property holds vacuously",
            )
            .anchored(Anchor::Init),
        );
    }

    let mut seen_names: BTreeSet<&str> = BTreeSet::new();
    for (i, stmt) in program.statements().iter().enumerate() {
        // KPT003a: duplicate statement names (the builder rejects these,
        // but the check keeps the analyzer self-contained).
        if !seen_names.insert(stmt.name()) {
            diags.push(Diagnostic::on_statement(
                DiagnosticCode::ShadowedName,
                stmt.name(),
                "duplicate statement name",
            ));
        }
        // KPT003b: a parameter shadowing a program variable silently wins
        // during compilation — guards read the constant, not the state.
        let mut params: Vec<&String> = stmt.params().keys().collect();
        params.sort();
        for p in params {
            if space.var(p).is_ok() {
                diags.push(Diagnostic::on_statement(
                    DiagnosticCode::ShadowedName,
                    stmt.name(),
                    format!(
                        "parameter `{p}` shadows the program variable of the same \
                         name; guards and updates read the parameter"
                    ),
                ));
            }
        }

        let had_unknowns = check_identifiers(space, stmt, diags);
        if !had_unknowns {
            check_update_ranges(space, stmt, || guards.get(i), diags);
        }
    }
}

/// KPT001 over one statement's guard and assignments. Returns whether any
/// unknown identifier was found (suppressing the semantic range scan).
fn check_identifiers(
    space: &Arc<StateSpace>,
    stmt: &Statement,
    diags: &mut Vec<Diagnostic>,
) -> bool {
    let before = diags.len();
    if let Guard::Formula(f) = stmt.guard() {
        check_formula(space, stmt.params(), f, stmt, "guard", Anchor::Guard, diags);
    }
    for (idx, (target, rhs)) in stmt.assignments().iter().enumerate() {
        let Ok(target_var) = space.var(target) else {
            diags.push(
                Diagnostic::on_statement(
                    DiagnosticCode::UnknownIdentifier,
                    stmt.name(),
                    format!("assignment target `{target}` is not a variable of the state space"),
                )
                .anchored(Anchor::Assign(idx)),
            );
            continue;
        };
        if let Err(EvalError::UnknownIdentifier(name)) =
            Term::resolve_assign(space, stmt.params(), rhs, target_var)
        {
            report_unknown(
                diags,
                stmt,
                &name,
                &format!("assignment to `{target}`"),
                Anchor::Assign(idx),
            );
        }
    }
    diags.len() > before
        && diags[before..]
            .iter()
            .any(|d| d.code == DiagnosticCode::UnknownIdentifier)
}

fn report_unknown(
    diags: &mut Vec<Diagnostic>,
    stmt: &Statement,
    name: &str,
    context: &str,
    anchor: Anchor,
) {
    // The message leads with the evaluator's exact phrase (and witness
    // identifier) so a lint finding and the runtime `EvalError` for the
    // same program name the same culprit the same way.
    diags.push(
        Diagnostic::on_statement(
            DiagnosticCode::UnknownIdentifier,
            stmt.name(),
            format!(
                "{} in the {context}: neither a state-space variable, a \
                 parameter, nor a resolvable enum label",
                EvalError::unknown_identifier_message(name)
            ),
        )
        .anchored(anchor),
    );
}

fn check_formula(
    space: &Arc<StateSpace>,
    params: &HashMap<String, i64>,
    f: &Formula,
    stmt: &Statement,
    context: &str,
    anchor: Anchor,
    diags: &mut Vec<Diagnostic>,
) {
    // Type errors are the evaluator's to report; KPT001 is names.
    let unknown = match f {
        Formula::BoolVar(name) => resolve_bool_atom(space, params, name).err(),
        Formula::Cmp(_, lhs, rhs) => Term::resolve_cmp(space, params, lhs, rhs).err(),
        _ => None,
    };
    if let Some(EvalError::UnknownIdentifier(name)) = unknown {
        report_unknown(diags, stmt, &name, context, anchor);
    }
    if let Formula::Forall(name, _) | Formula::Exists(name, _) = f {
        if resolve_binder(space, name).is_err() {
            let context = format!("{context} (quantifier binder)");
            report_unknown(diags, stmt, name, &context, anchor);
        }
    }
    // A `K{i}` body is ordinary syntax; process existence is the view
    // pass's KPT006.
    for g in f.children() {
        check_formula(space, params, g, stmt, context, anchor, diags);
    }
}

/// KPT002: scan the guard-enabled states (knowledge erased, so an
/// over-approximation of every solution's enabled set) and evaluate each
/// assignment; any value outside the target domain is a finding with the
/// offending state as witness.
fn check_update_ranges<'g>(
    space: &Arc<StateSpace>,
    stmt: &Statement,
    erased_guard: impl FnOnce() -> Option<&'g Predicate>,
    diags: &mut Vec<Diagnostic>,
) {
    if stmt.assignments().is_empty() || space.num_states() > MAX_SCAN_STATES {
        return;
    }
    let Some(enabled) = erased_guard() else {
        return;
    };
    for (idx, (target, rhs)) in stmt.assignments().iter().enumerate() {
        let Ok(var) = space.var(target) else { continue };
        let Ok(term) = Term::resolve_assign(space, stmt.params(), rhs, var) else {
            continue;
        };
        let dom = space.domain(var);
        for state in enabled.iter() {
            let val = term.eval_state(space, state);
            if val < 0 || !dom.contains(val as u64) {
                diags.push(
                    Diagnostic::on_statement(
                        DiagnosticCode::UpdateOutOfRange,
                        stmt.name(),
                        format!(
                            "`{target} := {rhs:?}` evaluates to {val}, outside the \
                             domain of `{target}` (size {}), at a guard-enabled state",
                            dom.size()
                        ),
                    )
                    .anchored(Anchor::Assign(idx))
                    .with_witnesses(vec![witness_state(space, state)]),
                );
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_logic::{parse_formula, EvalContext};
    use kpt_unity::{Program, UnityError};

    fn space() -> Arc<StateSpace> {
        StateSpace::builder()
            .nat_var("i", 4)
            .unwrap()
            .enum_var("z", ["bot", "m0"])
            .unwrap()
            .build()
            .unwrap()
    }

    /// One statement `s: target := rhs if guard`, with parameter `k = 1`.
    fn program(space: &Arc<StateSpace>, guard: &str, target: &str, rhs: &str) -> Program {
        Program::builder("t", space)
            .init_str("i = 0")
            .unwrap()
            .statement(
                Statement::new("s")
                    .guard_str(guard)
                    .unwrap()
                    .assign_str(target, rhs)
                    .unwrap()
                    .param("k", 1),
            )
            .build()
            .unwrap()
    }

    fn kpt001(program: &Program) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        check(program, &ErasedGuards::new(program), &mut diags);
        diags.retain(|d| d.code == DiagnosticCode::UnknownIdentifier);
        diags
    }

    /// The identifier `Program::compile` and `SymbolicKbp::from_program`
    /// both reject `program` for, or `None` when both accept it.
    fn engines_witness(program: &Program) -> Option<String> {
        let explicit = match program.compile() {
            Ok(_) => None,
            Err(UnityError::Eval(EvalError::UnknownIdentifier(n))) => Some(n),
            Err(e) => panic!("compile: {e}"),
        };
        let symbolic = match kpt_bdd::SymbolicKbp::from_program(program) {
            Ok(_) => None,
            Err(kpt_bdd::BddError::Eval(EvalError::UnknownIdentifier(n))) => Some(n),
            Err(e) => panic!("symbolic translation: {e}"),
        };
        assert_eq!(explicit, symbolic, "the two engines disagree");
        explicit
    }

    /// KPT001 names exactly the identifier the evaluator, the compiler and
    /// the BDD translator name for the same guard or assignment, with the
    /// same message prefix — one finding per comparison or right-hand
    /// side, leftmost witness, lhs side first.
    #[test]
    fn kpt001_matches_the_evaluator_witness_and_message() {
        let space = space();
        let ctx = EvalContext::new(&space);
        for guard in [
            "ghost1 = ghost2",
            "i + ghost1 = ghost2",
            "i = ghost2 + ghost3",
            "m0 + 1 = z",
        ] {
            let Err(EvalError::UnknownIdentifier(witness)) =
                ctx.eval(&parse_formula(guard).unwrap())
            else {
                panic!("`{guard}` should fail to evaluate");
            };
            let program = program(&space, guard, "i", "0");
            assert_eq!(
                engines_witness(&program).as_ref(),
                Some(&witness),
                "{guard}"
            );
            let found = kpt001(&program);
            assert_eq!(found.len(), 1, "`{guard}` gave {found:?}");
            assert!(
                found[0]
                    .message
                    .starts_with(&EvalError::unknown_identifier_message(&witness)),
                "`{guard}`: lint said {:?} but the evaluator names `{witness}`",
                found[0].message
            );
        }
        for (target, rhs, witness) in [
            ("z", "m0 + 1", "m0"),
            ("i", "ghost + i", "ghost"),
            ("i", "i + ghost", "ghost"),
        ] {
            let program = program(&space, "true", target, rhs);
            assert_eq!(engines_witness(&program).as_deref(), Some(witness), "{rhs}");
            let found = kpt001(&program);
            assert_eq!(found.len(), 1, "`{target} := {rhs}` gave {found:?}");
            assert!(
                found[0]
                    .message
                    .starts_with(&EvalError::unknown_identifier_message(witness)),
                "`{target} := {rhs}`: lint said {:?}",
                found[0].message
            );
        }
    }

    /// The enum-label fallback stays available to bare identifiers: lint
    /// is silent exactly where the evaluator, the compiler and the BDD
    /// translator succeed.
    #[test]
    fn kpt001_accepts_what_the_evaluator_accepts() {
        let space = space();
        let ctx = EvalContext::new(&space);
        for (guard, target, rhs) in [
            ("z = m0", "i", "0"),
            ("m0 = z", "i", "0"),
            ("i + 1 = i", "i", "0"),
            ("true", "z", "m0"),
            ("true", "i", "k"),
        ] {
            assert!(
                ctx.eval(&parse_formula(guard).unwrap()).is_ok(),
                "`{guard}` should evaluate"
            );
            let program = program(&space, guard, target, rhs);
            assert_eq!(
                engines_witness(&program),
                None,
                "{guard}, {target} := {rhs}"
            );
            let found = kpt001(&program);
            assert!(
                found.is_empty(),
                "`{guard}`, `{target} := {rhs}` gave {found:?}"
            );
        }
    }
}
