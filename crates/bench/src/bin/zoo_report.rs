//! Scenario-zoo report: wall-time of the textual frontend (parse +
//! elaborate) and of eq. (25) solving over every zoo scenario, with the
//! muddy-children models at n = 3..6, plus one explicit
//! `Kbp::compile_at(init)` of russian cards. Writes
//! `BENCH_zoo.json` plus a per-scenario one-shot table on stdout.
//!
//! Usage: `cargo run --release -p kpt-bench --bin zoo_report`
//! (`KPT_BENCH_JSON` overrides the output path, `KPT_BENCH_FAST=1` runs a
//! shorter smoke configuration).

use std::time::Instant;

use kpt_bdd::{SymbolicKbp, SymbolicOutcome};
use kpt_core::{load_kpt, muddy_children_kpt, zoo, IterativeOutcome, Kbp};
use kpt_testkit::Criterion;

const MAX_ITERS: usize = 64;

/// Every benched scenario: the fixed zoo members plus muddy children at
/// n = 3..6.
fn scenarios() -> Vec<(String, &'static str)> {
    let mut cases: Vec<(String, &'static str)> = zoo()
        .expect("zoo sources parse")
        .into_iter()
        .filter(|e| !e.name.contains("muddy"))
        .map(|e| {
            (
                e.name.trim_start_matches("zoo-").replace('-', "_"),
                e.source,
            )
        })
        .collect();
    for n in 3..=6 {
        cases.push((format!("muddy{n}"), muddy_children_kpt(n)));
    }
    cases
}

fn outcome_label(kbp: &Kbp) -> (String, u64) {
    match kbp.solve_iterative(MAX_ITERS).expect("explicit solve") {
        IterativeOutcome::Converged {
            solution,
            iterations,
        } => (format!("converged@{iterations}"), solution.count()),
        IterativeOutcome::Cycle {
            period,
            entered_after,
        } => (format!("cycle[{period}]@{entered_after}"), 0),
        IterativeOutcome::Inconclusive { .. } => ("inconclusive".to_owned(), 0),
    }
}

fn symbolic_solve(kbp: &Kbp) -> SymbolicOutcome {
    SymbolicKbp::from_program(kbp.program())
        .expect("symbolic translation")
        .solve_iterative(MAX_ITERS)
        .expect("symbolic solve")
}

fn main() {
    let (config, _fast) = kpt_bench::report_config("BENCH_zoo.json", 3, 10);
    let config_samples = config.sample_size;
    let mut c = Criterion::with_config(config);

    let cases = scenarios();
    let loaded: Vec<(String, &str, Kbp)> = cases
        .into_iter()
        .map(|(label, src)| {
            let (_, kbp) = load_kpt(src).expect("zoo scenario loads");
            (label, src, kbp)
        })
        .collect();

    {
        // The textual frontend alone: tokenize, parse, elaborate into a
        // checked `Program` + `Kbp` over a fresh state space.
        let mut group = c.benchmark_group("zoo_frontend");
        for (label, src, _) in &loaded {
            group.bench_function(format!("parse_{label}"), |b| {
                b.iter(|| load_kpt(src).expect("parse"))
            });
        }
    }
    {
        // One explicit compile of the largest scenario at its init on a
        // fresh `Kbp` (a reused one keeps its knowledge-free guards): every
        // statement's guard evaluated and its update run on the enabled
        // states only (the allocation `solve_large`'s peak RSS follows).
        let (_, _, kbp) = loaded
            .iter()
            .find(|(label, _, _)| label == "russian_cards")
            .expect("russian cards is a zoo scenario");
        let program = kbp.program();
        let init = program.init().clone();
        let mut group = c.benchmark_group("zoo_compile");
        group.bench_function("compile_russian_cards", |b| {
            b.iter(|| {
                Kbp::new(program.clone())
                    .compile_at(&init)
                    .expect("compile at init")
            })
        });
    }
    {
        // Symbolic eq. (25) solving from the textual source's program.
        // The larger muddy instances pay seconds per run; trim samples.
        let mut group = c.benchmark_group("zoo_solve");
        for (label, _, kbp) in &loaded {
            group.sample_size(if matches!(label.as_str(), "muddy5" | "muddy6") {
                2
            } else {
                config_samples
            });
            group.bench_function(format!("solve_{label}"), |b| b.iter(|| symbolic_solve(kbp)));
        }
    }

    println!("\n== scenario zoo one-shot wall time (release) ==");
    println!(
        "{:<22} {:>9} {:>6} {:>6} {:>16} {:>9} {:>10} {:>10}",
        "scenario", "states", "stmts", "procs", "outcome", "|soln|", "parse ms", "solve ms"
    );
    for (label, src, kbp) in &loaded {
        let t0 = Instant::now();
        let _ = load_kpt(src).expect("parse");
        let parse_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let _ = symbolic_solve(kbp);
        let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (outcome, soln) = outcome_label(kbp);
        let program = kbp.program();
        println!(
            "{label:<22} {:>9} {:>6} {:>6} {outcome:>16} {soln:>9} {parse_ms:>10.3} {solve_ms:>10.3}",
            program.space().num_states(),
            program.statements().len(),
            program.processes().len(),
        );
    }

    c.final_summary();
}
