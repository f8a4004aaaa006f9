//! Depth 1 — declaration-level checks (`KPT001`-`KPT004`).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use kpt_logic::{EvalError, Expr, Formula};
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
        if space.var(target).is_err() {
            diags.push(
                Diagnostic::on_statement(
                    DiagnosticCode::UnknownIdentifier,
                    stmt.name(),
                    format!("assignment target `{target}` is not a variable of the state space"),
                )
                .anchored(Anchor::Assign(idx)),
            );
            continue;
        }
        // Mirror the compiler: a bare identifier RHS may be a parameter, a
        // variable, or an enum label of the *target's* domain; identifiers
        // inside arithmetic must be parameters or variables. Exactly the
        // first unresolvable name (in expression order) is reported — the
        // same name the compiler's error carries.
        let target_var = space.var(target).expect("checked above");
        if let Expr::Ident(name) = rhs {
            let ok = stmt.params().contains_key(name)
                || space.var(name).is_ok()
                || space.domain(target_var).label_code(name).is_some();
            if !ok {
                report_unknown(
                    diags,
                    stmt,
                    name,
                    &format!("assignment to `{target}`"),
                    Anchor::Assign(idx),
                );
            }
        } else if let Some(name) = first_unresolved(space, stmt.params(), rhs) {
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

/// How one side of a comparison resolves (mirrors the evaluator).
enum Side {
    /// Every identifier is a parameter or variable.
    Resolved,
    /// A bare identifier that is neither — may still be an enum label.
    BareUnknown(String),
    /// A compound expression containing an unresolved identifier.
    Unknown(String),
}

fn resolve_side(space: &StateSpace, params: &HashMap<String, i64>, e: &Expr) -> Side {
    if let Expr::Ident(name) = e {
        if params.contains_key(name) || space.var(name).is_ok() {
            return Side::Resolved;
        }
        return Side::BareUnknown(name.clone());
    }
    match first_unresolved(space, params, e) {
        Some(name) => Side::Unknown(name),
        None => Side::Resolved,
    }
}

/// The first identifier (in left-to-right expression order — the order the
/// evaluator's compiler visits) that is neither a parameter nor a variable.
fn first_unresolved(space: &StateSpace, params: &HashMap<String, i64>, e: &Expr) -> Option<String> {
    match e {
        Expr::Const(_) => None,
        Expr::Ident(name) => {
            (!params.contains_key(name) && space.var(name).is_err()).then(|| name.clone())
        }
        Expr::Add(a, b) | Expr::Sub(a, b) => {
            first_unresolved(space, params, a).or_else(|| first_unresolved(space, params, b))
        }
    }
}

/// Whether `peer` is a bare space variable whose domain has `label`
/// (the evaluator's enum-label fallback for the other comparison side).
fn peer_resolves_label(
    space: &StateSpace,
    params: &HashMap<String, i64>,
    peer: &Expr,
    label: &str,
) -> bool {
    if let Expr::Ident(name) = peer {
        if !params.contains_key(name) {
            if let Ok(v) = space.var(name) {
                return space.domain(v).label_code(label).is_some();
            }
        }
    }
    false
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
    match f {
        Formula::Const(_) => {}
        Formula::BoolVar(name) => {
            if !params.contains_key(name) && space.var(name).is_err() {
                report_unknown(diags, stmt, name, context, anchor);
            }
        }
        Formula::Cmp(_, lhs, rhs) => {
            let l = resolve_side(space, params, lhs);
            let r = resolve_side(space, params, rhs);
            match (l, r) {
                (Side::Resolved, Side::Resolved) => {}
                (Side::BareUnknown(n), Side::Resolved) => {
                    if !peer_resolves_label(space, params, rhs, &n) {
                        report_unknown(diags, stmt, &n, context, anchor);
                    }
                }
                (Side::Resolved, Side::BareUnknown(n)) => {
                    if !peer_resolves_label(space, params, lhs, &n) {
                        report_unknown(diags, stmt, &n, context, anchor);
                    }
                }
                // Like the evaluator, exactly the leftmost unresolved
                // identifier is reported (lhs side first).
                (Side::BareUnknown(n) | Side::Unknown(n), _) => {
                    report_unknown(diags, stmt, &n, context, anchor);
                }
                (Side::Resolved, Side::Unknown(n)) => {
                    report_unknown(diags, stmt, &n, context, anchor);
                }
            }
        }
        Formula::Not(g) => check_formula(space, params, g, stmt, context, anchor, diags),
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) | Formula::Iff(a, b) => {
            check_formula(space, params, a, stmt, context, anchor, diags);
            check_formula(space, params, b, stmt, context, anchor, diags);
        }
        Formula::Forall(name, body) | Formula::Exists(name, body) => {
            // The evaluator quantifies over the named *program variable*'s
            // domain, so the binder itself must name a variable.
            if space.var(name).is_err() {
                report_unknown(
                    diags,
                    stmt,
                    name,
                    &format!("{context} (quantifier binder)"),
                    anchor,
                );
            }
            check_formula(space, params, body, stmt, context, anchor, diags);
        }
        Formula::Knows(_, body) => {
            // Process existence is the view pass's KPT006; the body is
            // ordinary syntax.
            check_formula(space, params, body, stmt, context, anchor, diags);
        }
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
        let dom = space.domain(var).clone();
        for state in enabled.iter() {
            let val = eval_rhs(space, stmt, &dom, rhs, state);
            let Some(val) = val else { break };
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

fn eval_rhs(
    space: &StateSpace,
    stmt: &Statement,
    dom: &kpt_state::Domain,
    rhs: &Expr,
    state: u64,
) -> Option<i64> {
    crate::erase::eval_assign_rhs(space, stmt.params(), |l| dom.label_code(l), rhs, state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_logic::{parse_formula, EvalContext};
    use kpt_unity::Program;

    /// KPT001 names exactly the identifier the evaluator's `EvalError`
    /// names for the same formula, with the same message prefix — one
    /// finding per comparison, leftmost witness, lhs side first.
    #[test]
    fn kpt001_matches_the_evaluator_witness_and_message() {
        let space = StateSpace::builder()
            .nat_var("i", 4)
            .unwrap()
            .enum_var("z", ["bot", "m0"])
            .unwrap()
            .build()
            .unwrap();
        let ctx = EvalContext::new(&space);
        for guard in [
            "ghost1 = ghost2",
            "i + ghost1 = ghost2",
            "i = ghost2 + ghost3",
            "m0 + 1 = z",
        ] {
            let f = parse_formula(guard).unwrap();
            let Err(EvalError::UnknownIdentifier(witness)) = ctx.eval(&f) else {
                panic!("`{guard}` should fail to evaluate");
            };
            let program = Program::builder("t", &space)
                .init_str("i = 0")
                .unwrap()
                .statement(
                    Statement::new("s")
                        .guard_formula(f.clone())
                        .assign_str("i", "0")
                        .unwrap(),
                )
                .build()
                .unwrap();
            let mut diags = Vec::new();
            check(&program, &ErasedGuards::new(&program), &mut diags);
            let found: Vec<&Diagnostic> = diags
                .iter()
                .filter(|d| d.code == DiagnosticCode::UnknownIdentifier)
                .collect();
            assert_eq!(found.len(), 1, "`{guard}` gave {found:?}");
            assert!(
                found[0]
                    .message
                    .starts_with(&EvalError::unknown_identifier_message(&witness)),
                "`{guard}`: lint said {:?} but the evaluator names `{witness}`",
                found[0].message
            );
        }
    }

    /// The enum-label fallback stays available to bare identifiers: lint
    /// is silent exactly where the evaluator succeeds.
    #[test]
    fn kpt001_accepts_what_the_evaluator_accepts() {
        let space = StateSpace::builder()
            .nat_var("i", 4)
            .unwrap()
            .enum_var("z", ["bot", "m0"])
            .unwrap()
            .build()
            .unwrap();
        let ctx = EvalContext::new(&space);
        for guard in ["z = m0", "m0 = z", "i + 1 = i"] {
            let f = parse_formula(guard).unwrap();
            assert!(ctx.eval(&f).is_ok(), "`{guard}` should evaluate");
            let program = Program::builder("t", &space)
                .init_str("i = 0")
                .unwrap()
                .statement(
                    Statement::new("s")
                        .guard_formula(f)
                        .assign_str("i", "0")
                        .unwrap(),
                )
                .build()
                .unwrap();
            let mut diags = Vec::new();
            check(&program, &ErasedGuards::new(&program), &mut diags);
            assert!(
                !diags
                    .iter()
                    .any(|d| d.code == DiagnosticCode::UnknownIdentifier),
                "`{guard}` gave {diags:?}"
            );
        }
    }
}
