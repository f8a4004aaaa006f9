//! Depth 2 — view-soundness checks (`KPT005`, `KPT006`).
//!
//! In the paper's model (§2, §5) process `i` observes only the variables in
//! its view `V_i`; the knowledge operator `K_i` (eq. 13) quantifies over the
//! `V_i`-cylinder. A statement guarded by `K_i(…)` is *process i's* action,
//! so everything the statement reads — the objective part of its guard and
//! the right-hand sides of its updates — must lie inside `V_i`, or the
//! protocol is not implementable by that process.

use std::collections::BTreeSet;

use kpt_unity::{Guard, Program};

use crate::erase::{all_knowledge_agents, objective_idents, top_level_knowledge};
use crate::{Diagnostic, DiagnosticCode};

/// Run the view-soundness checks.
pub fn check(program: &Program, diags: &mut Vec<Diagnostic>) {
    let space = program.space();
    let declared: BTreeSet<&str> = program.processes().iter().map(|p| p.name()).collect();

    for stmt in program.statements() {
        let Guard::Formula(f) = stmt.guard() else {
            continue;
        };

        // KPT006: every knowledge modality (nested included) must name a
        // declared process — an undeclared agent has no view, so eq. (13)
        // has no cylinder to quantify over.
        let mut agents = BTreeSet::new();
        all_knowledge_agents(f, &mut agents);
        for agent in &agents {
            if !declared.contains(agent.as_str()) {
                diags.push(Diagnostic::on_guard(
                    DiagnosticCode::UnknownProcess,
                    stmt.name(),
                    format!(
                        "knowledge operator `K{{{agent}}}` names a process that is \
                         not declared in the program"
                    ),
                ));
            }
        }

        // KPT005: the statement's reads must lie inside each guarding
        // agent's view. Reads are the objective guard identifiers plus the
        // assignment right-hand sides; write *targets* may lie outside the
        // view (a process can flip a flag it never looks at).
        let mut tops = Vec::new();
        top_level_knowledge(f, &mut tops);
        if tops.is_empty() {
            continue;
        }
        let mut read_names = BTreeSet::new();
        objective_idents(f, &mut read_names);
        for (_, rhs) in stmt.assignments() {
            rhs.idents(&mut read_names);
        }
        // Resolve to space variables; parameters and enum labels are not
        // state the process observes.
        let reads: Vec<&String> = read_names
            .iter()
            .filter(|n| !stmt.params().contains_key(n.as_str()))
            .filter(|n| space.var(n).is_ok())
            .collect();

        let mut flagged: BTreeSet<&str> = BTreeSet::new();
        for (agent, _) in &tops {
            if !declared.contains(agent.as_str()) || !flagged.insert(agent.as_str()) {
                continue;
            }
            let view = program
                .process_view(agent)
                .expect("declared process has a view");
            let outside: Vec<&str> = reads
                .iter()
                .filter(|n| {
                    let v = space.var(n).expect("resolved above");
                    !view.contains(v)
                })
                .map(|n| n.as_str())
                .collect();
            if !outside.is_empty() {
                diags.push(Diagnostic::on_guard(
                    DiagnosticCode::ViewViolation,
                    stmt.name(),
                    format!(
                        "statement is guarded by `K{{{agent}}}` but reads variable(s) \
                         {} outside that process's view — process `{agent}` cannot \
                         implement it",
                        outside
                            .iter()
                            .map(|n| format!("`{n}`"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                ));
            }
        }
    }
}
