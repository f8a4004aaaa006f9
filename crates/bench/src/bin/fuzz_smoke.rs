//! Bounded differential-fuzz smoke run for CI: replays the committed
//! corpus seeds and then pushes `KPT_FUZZ_CASES` (default 500) freshly
//! generated textual programs through the three-way oracle — explicit
//! engine vs serial BDD vs gc+sift BDD, plus the knowledge-erased eq. (14)
//! soundness leg, plus the **full lint pipeline**: a lint panic is a fuzz
//! finding, and so is any `KPT010` interval-dead verdict the symbolic
//! `KPT007` pass does not confirm (the `KPT010 ⊑ KPT007` soundness
//! contract). Divergences and panics are collected (not fail-fast)
//! into a findings artifact and the process exits nonzero if any survive.
//!
//! Usage: `cargo run --release -p kpt-bench --bin fuzz_smoke`
//! (`KPT_FUZZ_CASES` sets the random-case count, `KPT_PROP_SEED` replays
//! a specific campaign, `KPT_FUZZ_JSON` overrides the artifact path).

use std::panic::{self, AssertUnwindSafe};

use kpt_bdd::{BddConfig, GcPolicy, ReorderPolicy, SymbolicKbp};
use kpt_core::{IterativeOutcome, Kbp};
use kpt_lint::{erased_program, lint_program_with, DiagnosticCode, LintOptions};
use kpt_testkit::genprog::{gen_program, GenConfig};
use kpt_testkit::Rng;
use kpt_unity::{parse_program, Program};

const MAX_ITERS: usize = 32;

const CORPUS: &[(&str, &str)] = &[
    (
        "figure1",
        include_str!("../../../../tests/corpus/figure1.kpt"),
    ),
    (
        "enum_labels",
        include_str!("../../../../tests/corpus/enum_labels.kpt"),
    ),
    (
        "counter_knowledge",
        include_str!("../../../../tests/corpus/counter_knowledge.kpt"),
    ),
    (
        "parallel_swap",
        include_str!("../../../../tests/corpus/parallel_swap.kpt"),
    ),
    (
        "nested_knowledge",
        include_str!("../../../../tests/corpus/nested_knowledge.kpt"),
    ),
    (
        "plain_counter",
        include_str!("../../../../tests/corpus/plain_counter.kpt"),
    ),
];

struct Finding {
    case: String,
    detail: String,
}

/// The explicit engine's outcome, with a converged solution re-checked
/// against eq. (25).
fn explicit_outcome(kbp: &Kbp) -> Result<IterativeOutcome, String> {
    let outcome = kbp
        .solve_iterative(MAX_ITERS)
        .map_err(|e| format!("explicit solver: {e}"))?;
    if let Some(solution) = outcome.solution() {
        if !kbp
            .is_solution(solution)
            .map_err(|e| format!("explicit is_solution: {e}"))?
        {
            return Err("explicit fixpoint fails its own is_solution check".to_owned());
        }
    }
    Ok(outcome)
}

/// The symbolic engine's outcome under `config`, re-checked like
/// [`explicit_outcome`] and converted to explicit bitsets for comparison.
fn symbolic_outcome(program: &Program, config: BddConfig) -> Result<IterativeOutcome, String> {
    let symbolic = SymbolicKbp::from_program_with(program, config)
        .map_err(|e| format!("symbolic translation: {e}"))?;
    let outcome = symbolic
        .solve_iterative(MAX_ITERS)
        .map_err(|e| format!("symbolic solver: {e}"))?;
    if let Some(solution) = outcome.solution() {
        if !symbolic
            .is_solution(solution)
            .map_err(|e| format!("symbolic is_solution: {e}"))?
        {
            return Err("symbolic fixpoint fails its own is_solution check".to_owned());
        }
    }
    Ok(outcome.map(|s| s.to_explicit()))
}

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

/// The three-way oracle, non-panicking: any divergence comes back as a
/// description for the findings artifact.
fn oracle(src: &str) -> Result<(), String> {
    let (_space, program) = parse_program(src).map_err(|e| format!("parse: {}", e.render(src)))?;

    // The full lint pipeline (a panic inside it is caught by run_case and
    // becomes a finding), with the KPT010 ⊑ KPT007 soundness check: the
    // interval pass may only kill guards the symbolic SI also kills.
    let report = lint_program_with(&program, &LintOptions::default());
    if report.symbolic_ran {
        for d in &report.diagnostics {
            if d.code == DiagnosticCode::IntervalDeadGuard
                && !report
                    .diagnostics
                    .iter()
                    .any(|e| e.code == DiagnosticCode::DeadGuard && e.statement == d.statement)
            {
                return Err(format!(
                    "KPT010 fired without KPT007 on {:?} — unsound interval analysis",
                    d.statement
                ));
            }
        }
    }

    let kbp = Kbp::new(program.clone());
    let explicit = explicit_outcome(&kbp)?;
    let serial = symbolic_outcome(&program, BddConfig::serial())?;
    if explicit != serial {
        return Err(format!(
            "explicit vs serial-BDD diverged: {explicit:?} vs {serial:?}"
        ));
    }
    let gc_sift = symbolic_outcome(&program, gc_sift_config())?;
    if explicit != gc_sift {
        return Err(format!(
            "explicit vs gc+sift-BDD diverged: {explicit:?} vs {gc_sift:?}"
        ));
    }

    let erased = erased_program(&program).map_err(|e| format!("erasure: {e}"))?;
    let erased_si = erased
        .compile()
        .map_err(|e| format!("erased compile: {e}"))?
        .si()
        .clone();
    // A plain program converges on both engines; only the solution is
    // compared.
    let symbolic_erased = symbolic_outcome(&erased, BddConfig::serial())?;
    if symbolic_erased.solution() != Some(&erased_si) {
        return Err(format!(
            "erased-program SI diverged: explicit {erased_si:?} vs symbolic {symbolic_erased:?}"
        ));
    }
    if let Some(solution) = explicit.solution() {
        if let Some(st) = solution.iter().find(|&st| !erased_si.holds(st)) {
            return Err(format!(
                "state {st} solves the KBP but escapes the erased SI (eq. 14 violated)"
            ));
        }
    }
    Ok(())
}

/// Run the oracle with panics converted into findings, so one bad case
/// cannot abort the campaign.
fn run_case(name: &str, src: &str, findings: &mut Vec<Finding>) {
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| oracle(src)));
    let detail = match outcome {
        Ok(Ok(())) => return,
        Ok(Err(detail)) => detail,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_owned());
            format!("panic: {msg}")
        }
    };
    findings.push(Finding {
        case: name.to_owned(),
        detail: format!("{detail}\nsource:\n{src}"),
    });
}

fn main() {
    let cases: usize = std::env::var("KPT_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500);
    let seed: u64 = std::env::var("KPT_PROP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x5EED_F00D);
    let json_path =
        std::env::var("KPT_FUZZ_JSON").unwrap_or_else(|_| "FUZZ_findings.json".to_owned());

    // The oracle's engines never panic on valid-by-construction input; a
    // panic here IS a finding, so silence the default hook's noise and
    // report through the artifact instead.
    let default_hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));

    let mut findings = Vec::new();
    for (name, src) in CORPUS {
        run_case(&format!("corpus:{name}"), src, &mut findings);
    }

    let config = GenConfig::default();
    let mut rng = Rng::seed_from_u64(seed);
    for i in 0..cases {
        let src = gen_program(&mut rng, &config);
        run_case(&format!("gen:{seed:#x}/{i}"), &src, &mut findings);
    }

    panic::set_hook(default_hook);

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"corpus_cases\": {},\n", CORPUS.len()));
    json.push_str(&format!("  \"generated_cases\": {cases},\n"));
    json.push_str(&format!("  \"findings_count\": {},\n", findings.len()));
    json.push_str("  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        json.push_str("    {\"case\": \"");
        kpt_obs::json_escape_into(&f.case, &mut json);
        json.push_str("\", \"detail\": \"");
        kpt_obs::json_escape_into(&f.detail, &mut json);
        json.push_str(if i + 1 < findings.len() {
            "\"},\n"
        } else {
            "\"}\n"
        });
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&json_path, json).expect("write findings artifact");

    println!(
        "fuzz smoke: {} corpus + {cases} generated cases, {} finding(s); report: {json_path}",
        CORPUS.len(),
        findings.len()
    );
    for f in &findings {
        eprintln!("\nFINDING [{}]\n{}", f.case, f.detail);
    }
    if !findings.is_empty() {
        std::process::exit(1);
    }
}
