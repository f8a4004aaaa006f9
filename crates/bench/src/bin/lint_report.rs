//! Static-analyzer report: wall-time of the full `kpt-lint` pipeline
//! (declaration + view + dataflow + symbolic passes) over every in-tree
//! model, from the 8-state Figure 1 up to the 159-free-state symbolic
//! escape-hatch instance — plus the BDD-free dataflow depth on its own,
//! which is the per-keystroke cost an editor integration would pay.
//! Writes `BENCH_lint.json` plus a per-model one-shot table on stdout.
//!
//! Usage: `cargo run --release -p kpt-bench --bin lint_report`
//! (`KPT_BENCH_JSON` overrides the output path, `KPT_BENCH_FAST=1` runs a
//! shorter smoke configuration).

use std::time::Instant;

use kpt_lint::{lint_program, lint_program_with, Depth, LintOptions};
use kpt_seqtrans::{figure3_kbp, ModelOptions, StandardModel};
use kpt_testkit::Criterion;
use kpt_unity::Program;

/// A shipped `.kpt` model's program.
fn shipped(src: &str) -> Program {
    kpt_unity::parse_program(src)
        .expect("shipped model elaborates")
        .1
}

fn models() -> Vec<(&'static str, Program)> {
    let model = StandardModel::build(2, 2, ModelOptions::default()).unwrap();
    vec![
        ("figure1", shipped(kpt_core::figure1_kpt())),
        ("figure2", shipped(kpt_core::figure2_kpt())),
        ("muddy2", shipped(kpt_core::muddy_children_kpt(2))),
        ("seqtrans_std", model.program().clone()),
        (
            "seqtrans_fig3",
            figure3_kbp(&model).unwrap().program().clone(),
        ),
        // The 159-free-state instance: exhaustive solving is impossible,
        // but the linter's symbolic pass handles it routinely.
        ("escape159", shipped(kpt_core::bdd_escape_kpt())),
    ]
}

fn main() {
    let (config, _fast) = kpt_bench::report_config("BENCH_lint.json", 5, 15);
    let mut c = Criterion::with_config(config);

    let cases = models();

    {
        let mut group = c.benchmark_group("lint_full");
        for (label, program) in &cases {
            group.bench_function(format!("lint_{label}"), |b| {
                b.iter(|| lint_program(program))
            });
        }
    }
    {
        // The cheap passes alone — what a save-hook or pre-commit check
        // would pay per keystroke.
        let decl_only = LintOptions::fast();
        let mut group = c.benchmark_group("lint_decl_view");
        for (label, program) in &cases {
            group.bench_function(format!("lint_fast_{label}"), |b| {
                b.iter(|| lint_program_with(program, &decl_only))
            });
        }
    }
    {
        // Everything except the symbolic engine: intervals, dependency
        // SCCs, and the reachable-information closure (KPT010-KPT012).
        let dataflow = LintOptions::up_to(Depth::Dataflow);
        let mut group = c.benchmark_group("lint_dataflow");
        for (label, program) in &cases {
            group.bench_function(format!("lint_dataflow_{label}"), |b| {
                b.iter(|| lint_program_with(program, &dataflow))
            });
        }
    }

    println!("\n== analyzer one-shot wall time (release) ==");
    println!(
        "{:<14} {:>10} {:>6} {:>10} {:>9} {:>11} {:>9}",
        "model", "states", "stmts", "findings", "full ms", "dataflow ms", "fast ms"
    );
    for (label, program) in &cases {
        let t0 = Instant::now();
        let report = lint_program(program);
        let full_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let _ = lint_program_with(program, &LintOptions::up_to(Depth::Dataflow));
        let dataflow_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let _ = lint_program_with(program, &LintOptions::fast());
        let fast_ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "{label:<14} {:>10} {:>6} {:>10} {full_ms:>9.3} {dataflow_ms:>11.3} {fast_ms:>9.3}",
            program.space().num_states(),
            program.statements().len(),
            report.diagnostics.len()
        );
    }

    c.final_summary();
}
