//! A guided tour of the observability layer (`kpt-obs`): run the paper's
//! Figure 1 and Figure 2 protocols and a bounded §6 sequence-transmission
//! verification with tracing enabled, then show what the trace, the
//! metrics registry, and the explainable verdicts say about the run.
//!
//! Run with: `cargo run --release --example trace_tour`
//!
//! The trace is written to `trace_tour.jsonl` in the working directory
//! (pretty-print it afterwards with
//! `cargo run --release -p kpt-bench --bin obs_report trace_tour.jsonl`).
//! Setting `KPT_TRACE=<path>` achieves the same without code — this
//! example installs the sink programmatically so it works out of the box.

use knowledge_pt::prelude::*;
use knowledge_pt::seqtrans::proof_replay::replay_safety;
use knowledge_pt::seqtrans::{ModelOptions, StandardModel};
use kpt_obs::MetricValue;
use kpt_unity::explain_property;

const TRACE_PATH: &str = "trace_tour.jsonl";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _ = std::fs::remove_file(TRACE_PATH);
    kpt_obs::trace_to_file(TRACE_PATH)?;
    println!("tracing to {TRACE_PATH} (equivalent to KPT_TRACE={TRACE_PATH})\n");

    // -- Figure 1: the no-solution KBP, explained -------------------------
    println!("== Figure 1: exhaustive KBP search ==");
    let fig1 = figure1()?;
    let sols = fig1.solve_exhaustive(16)?;
    let verdict = fig1.explain_solutions("figure1", &sols);
    print!("{verdict}");

    // -- Figure 2: non-monotone solution set ------------------------------
    println!("\n== Figure 2: init = ~y vs init = ~y /\\ x ==");
    for init in ["~y", "~y /\\ x"] {
        let fig2 = figure2(init)?;
        let sols = fig2.solve_exhaustive(16)?;
        let verdict = fig2.explain_solutions(&format!("figure2[{init}]"), &sols);
        print!("{verdict}");
    }

    // -- A deliberately failing obligation: witnesses in action -----------
    println!("\n== a failing invariant, with witnesses ==");
    let space = StateSpace::builder().bool_var("x")?.build()?;
    let toggle = Program::builder("toggle", &space)
        .init_str("~x")?
        .statement(
            Statement::new("set")
                .guard_str("~x")?
                .assign_str("x", "1")?,
        )
        .build()?
        .compile()?;
    let not_x = Predicate::from_fn(&space, |s| s == 0);
    print!(
        "{}",
        explain_property(&toggle, "~x", &Property::Invariant(not_x))
    );

    // -- K_i p for every declared view, memoized in one context ----------
    println!("\n== knowledge K_i p for every process ==");
    let kspace = StateSpace::builder()
        .nat_var("a", 4)?
        .nat_var("b", 4)?
        .nat_var("c", 4)?
        .build()?;
    let views: Vec<(String, VarSet)> = (0..3)
        .map(|i| {
            (
                format!("P{i}"),
                VarSet::from_vars(kspace.vars().skip(i).take(1)),
            )
        })
        .collect();
    let ctx =
        KnowledgeContext::new(&kspace, views, Predicate::from_fn(&kspace, |s| s % 5 != 0)).unwrap();
    let p = Predicate::from_fn(&kspace, |s| s % 3 == 0);
    for (name, k) in ctx.knows_all(&p) {
        println!(
            "  K{{{name}}} p holds in {} of {} states",
            k.count(),
            kspace.num_states()
        );
    }
    drop(ctx); // emits the cache.knowledge summary event

    // -- Registry lint on the pool (forced to 2 workers so the trace shows
    // a pool.map span even on a single-core machine) ----------------------
    println!("\n== registry lint, fanned over the pool ==");
    let cases = knowledge_pt::lint::registry();
    let reports =
        knowledge_pt::lint::lint_registry_with_threads(2, &cases, &LintOptions::default());
    for (case, report) in cases.iter().zip(&reports) {
        println!(
            "  {:<26} {} diagnostic(s)",
            case.name,
            report.diagnostics.len()
        );
    }

    // -- §6: sequence transmission, safety derivation replayed ------------
    println!("\n== §6 sequence transmission (|A|=2, |x|=2): safety replay ==");
    let model = StandardModel::build(2, 2, ModelOptions::default())?;
    let compiled = model.compile()?;
    let replay = replay_safety(&model, &compiled)?;
    println!(
        "replayed {} proof steps; assumptions discharged: {}",
        replay.steps.len(),
        replay.fully_discharged()
    );

    // -- What the observability layer saw ---------------------------------
    kpt_obs::disable_trace();
    println!("\n== metrics registry (non-zero counters) ==");
    for m in kpt_obs::metrics_snapshot() {
        if let MetricValue::Counter(n) = m.value {
            if n > 0 {
                println!("  {:<32} {n}", m.name);
            }
        }
    }
    let lines = std::fs::read_to_string(TRACE_PATH)?.lines().count();
    println!("\ntrace written: {lines} events in {TRACE_PATH}");
    println!("summarize with: cargo run --release -p kpt-bench --bin obs_report {TRACE_PATH}");
    Ok(())
}
