//! Experiment E4 — Figure 1 of the paper: a knowledge-based protocol with
//! **no solution**.
//!
//! ```text
//! var shared, x : boolean
//! processes V0 = {shared}, V1 = {shared, x}
//! init ¬shared ∧ ¬x
//! assign  shared := true if K0(¬x)
//!      ⫾  x, shared := true, false if shared
//! ```
//!
//! The paper: "There is no possible choice for SI for which the resulting
//! K_0 ¬x will result in a standard protocol which actually yields this
//! strongest invariant." The exhaustive solver verifies this by checking
//! every candidate; the iterative solver is shown cycling.
//!
//! Run with: `cargo run --example figure1_no_solution`

use knowledge_pt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (_, kbp) = load_kpt(figure1_kpt())?;
    println!("Figure 1 knowledge-based protocol:");
    for s in kbp.program().statements() {
        println!("  {s:?}");
    }
    println!();

    // Exhaustive search over every candidate invariant X ⊇ init.
    let sols = kbp.solve_exhaustive(16)?;
    println!(
        "exhaustive solver: checked {} candidates, found {} solutions",
        sols.candidates_checked(),
        sols.len()
    );
    assert!(sols.is_empty(), "the paper claims no solution exists");
    println!("=> eq. (25) has NO solution: the KBP is ill-posed, exactly as the paper claims.");

    // Show each candidate's failure: X vs SI(program@X).
    println!("\ncandidate X  ->  SI of the standard program obtained at X:");
    let space = kbp.program().space().clone();
    let init = kbp.program().init().clone();
    let free: Vec<u64> = init.negate().iter().collect();
    for mask in 0..(1u64 << free.len()) {
        let candidate = Predicate::from_indices(
            &space,
            init.iter().chain(
                free.iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &s)| s),
            ),
        );
        let si = kbp.compile_at(&candidate)?.si().clone();
        let fmt = |p: &Predicate| {
            p.iter()
                .map(|s| format!("{{{}}}", space.render_state(s)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("  X = {:<60} SI = {}", fmt(&candidate), fmt(&si));
    }

    // The iterative solver cycles.
    match kbp.solve_iterative(64)? {
        IterativeOutcome::Cycle {
            period,
            entered_after,
        } => println!(
            "\niterative solver: entered a period-{period} cycle after {entered_after} steps \
             (non-monotone SP — the paper's diagnosis)"
        ),
        other => println!("\niterative solver: {other:?}"),
    }
    Ok(())
}
