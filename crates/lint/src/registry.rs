//! The in-tree model registry and the parallel registry lint driver.
//!
//! Every model the repository ships — the paper figures, the muddy
//! children, the kpt-seqtrans models, the BDD-scale escape hatch, and the
//! scenario zoo — together with the exact diagnostic codes the
//! linter is expected to produce for it. The `kpt_lint` CLI turns these
//! expectations into its exit code and CI asserts them.
//!
//! [`lint_registry`] lints all cases over the kpt-testkit worker pool
//! (`KPT_THREADS` controls the width); reports come back in registry
//! order regardless of the thread count, and every pass is deterministic,
//! so a parallel run is bit-identical to a serial one.

use kpt_seqtrans::{figure3_kbp, ModelOptions, StandardModel};
use kpt_unity::Program;

use crate::{lint_program_with, lint_source, LintOptions, LintReport};

/// One registry model and its expected lint verdict.
pub struct RegistryCase {
    /// Registry name (CLI selector).
    pub name: &'static str,
    /// The elaborated program.
    pub program: Program,
    /// The textual `.kpt` source, for models shipped as files — these
    /// are linted through [`lint_source`], so their diagnostics carry
    /// byte spans.
    pub source: Option<&'static str>,
    /// The exact diagnostic codes this model is expected to produce at
    /// full depth, sorted.
    pub expected: &'static [&'static str],
}

/// All in-tree models with their expected verdicts.
pub fn registry() -> Vec<RegistryCase> {
    let model = StandardModel::build(2, 2, ModelOptions::default()).expect("standard model builds");
    let mut cases = vec![
        // Figure 1 is the paper's no-solution counterexample; the linter
        // must flag its knowledge circularity — both the symbolic KPT009
        // analysis and the syntactic KPT011 dependency cycle — and
        // nothing else.
        file_case("figure1", kpt_core::figure1_kpt(), &["KPT009", "KPT011"]),
        file_case("figure2-weak", kpt_core::figure2_kpt(), &[]),
        // Figure 2 under the stronger init: no file spells this init, so
        // the case lints the elaborated program.
        RegistryCase {
            name: "figure2-strong",
            program: kpt_core::figure2("~y /\\ x")
                .expect("figure2 loads")
                .program()
                .clone(),
            source: None,
            expected: &[],
        },
        file_case("muddy-children-2", kpt_core::muddy_children_kpt(2), &[]),
        file_case(
            "muddy-children-2-memory",
            kpt_core::muddy_children_memory_kpt(2),
            &[],
        ),
        RegistryCase {
            name: "seqtrans-fig3-2x2",
            program: figure3_kbp(&model)
                .expect("figure 3 KBP builds")
                .program()
                .clone(),
            source: None,
            expected: &[],
        },
        RegistryCase {
            name: "seqtrans-std-2x2",
            program: model.program().clone(),
            source: None,
            expected: &[],
        },
        // The 159-free-state escape hatch: too large for the exhaustive
        // solver's subset mask, routine for the linter's symbolic pass.
        file_case("bdd-escape", kpt_core::bdd_escape_kpt(), &[]),
    ];
    // The scenario zoo, with each lint verdict baked in next to the
    // source (see `kpt_core::zoo`).
    for e in kpt_core::zoo().expect("zoo sources parse") {
        cases.push(RegistryCase {
            name: e.name,
            program: e.kbp.program().clone(),
            source: Some(e.source),
            expected: e.expected_lint,
        });
    }
    cases
}

/// A case backed by a shipped `.kpt` model file.
fn file_case(
    name: &'static str,
    source: &'static str,
    expected: &'static [&'static str],
) -> RegistryCase {
    let (_, program) = kpt_unity::parse_program(source).expect("shipped models elaborate");
    RegistryCase {
        name,
        program,
        source: Some(source),
        expected,
    }
}

/// Lint every case over the kpt-testkit pool (width from `KPT_THREADS`,
/// defaulting to the core count). Reports are in registry order.
pub fn lint_registry(cases: &[RegistryCase], options: &LintOptions) -> Vec<LintReport> {
    kpt_testkit::pool::parallel_map(cases, |case| lint_case(case, options))
}

/// [`lint_registry`] with an explicit thread count (the determinism tests
/// compare `threads = 1` against the default).
pub fn lint_registry_with_threads(
    threads: usize,
    cases: &[RegistryCase],
    options: &LintOptions,
) -> Vec<LintReport> {
    kpt_testkit::pool::parallel_map_with(threads, cases, |case| lint_case(case, options))
}

fn lint_case(case: &RegistryCase, options: &LintOptions) -> LintReport {
    match &case.source {
        Some(src) => lint_source(src, options).expect("registry sources elaborate"),
        None => lint_program_with(&case.program, options),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_registry_lint_is_bit_identical_to_serial() {
        let cases = registry();
        let options = LintOptions::default();
        let parallel = lint_registry(&cases, &options);
        let serial = lint_registry_with_threads(1, &cases, &options);
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.to_json(), s.to_json(), "report for {} differs", p.program);
        }
    }

    #[test]
    fn registry_verdicts_hold_at_full_depth() {
        let cases = registry();
        let reports = lint_registry(&cases, &LintOptions::default());
        for (case, report) in cases.iter().zip(&reports) {
            let codes: Vec<&str> = report.codes().iter().map(|c| c.code()).collect();
            assert_eq!(
                codes, case.expected,
                "{}: expected {:?}, got {report}",
                case.name, case.expected
            );
        }
    }

    #[test]
    fn figure1_reports_both_circularity_codes() {
        let cases = registry();
        let fig1 = cases.iter().find(|c| c.name == "figure1").unwrap();
        let report = lint_program_with(&fig1.program, &LintOptions::default());
        assert!(report.has(crate::DiagnosticCode::KnowledgeCircularity));
        assert!(report.has(crate::DiagnosticCode::KnowledgeDependencyCycle));
    }

    #[test]
    fn zoo_cases_carry_source_spans() {
        let cases = registry();
        let reports = lint_registry(&cases, &LintOptions::default());
        for (case, report) in cases.iter().zip(&reports) {
            if case.source.is_none() {
                continue;
            }
            for d in &report.diagnostics {
                assert!(
                    d.span.is_some(),
                    "{}: diagnostic {} has no span",
                    case.name,
                    d.code
                );
            }
        }
    }
}
