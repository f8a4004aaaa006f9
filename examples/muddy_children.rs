//! Experiment E12 — the muddy-children puzzle solved as a knowledge-based
//! protocol: the eq. (25) fixpoint solver *derives* the classic epistemic
//! behaviour, and the run exposes the paper's §3 point about history
//! variables (state-based knowledge can be forgotten unless the state
//! remembers enough).
//!
//! Run with: `cargo run --example muddy_children`

use knowledge_pt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (_, kbp) = load_kpt(muddy_children_kpt(2))?;
    println!("{}", kbp.program());

    let solution = match kbp.solve_iterative(64)? {
        IterativeOutcome::Converged {
            solution,
            iterations,
        } => {
            println!("iterative solver converged in {iterations} iterations\n");
            solution
        }
        other => panic!("no solution: {other:?}"),
    };
    assert!(kbp.is_solution(&solution)?);
    let space = kbp.program().space().clone();
    println!("solution SI ({} states):", solution.count());
    for s in solution.iter() {
        println!("  {}", space.render_state(s));
    }

    // The classic analysis, read off the solution.
    println!("\nclassic behaviour, mechanically derived:");
    println!("  • one muddy child (sees a clean forehead): announces in round 0;");
    println!("  • two muddy children: silence in round 0, both announce in round 1");
    let compiled = kbp.compile_at(&solution)?;
    let both_said = EvalContext::new(&space).eval(&parse_formula("said0 /\\ said1")?)?;
    println!(
        "  • true |-> everyone announces: {}",
        compiled.leads_to_holds(&Predicate::tt(&space), &both_said)
    );

    // Learning from silence, against the *actual* knowledge operator.
    let views = kbp
        .program()
        .processes()
        .iter()
        .map(|p| (p.name().to_owned(), p.view()))
        .collect();
    let k = KnowledgeContext::new(&space, views, solution.clone()).unwrap();
    let mud0 = Predicate::var_is_true(&space, space.var("mud0")?);
    let k0 = k.knows("C0", &mud0)?;
    let at_r0 = EvalContext::new(&space).eval(&parse_formula("mud0 /\\ mud1 /\\ round = 0")?)?;
    let at_r1 =
        EvalContext::new(&space).eval(&parse_formula("mud0 /\\ mud1 /\\ round = 1 /\\ ~said0")?)?;
    println!("\nlearning from silence (both children muddy):");
    println!(
        "  round 0: child 0 knows its own mud in {} of {} such states",
        solution.and(&at_r0).and(&k0).count(),
        solution.and(&at_r0).count()
    );
    println!(
        "  round 1: child 0 knows its own mud in {} of {} such states",
        solution.and(&at_r1).and(&k0).count(),
        solution.and(&at_r1).count()
    );

    // The §3 history-variable twist.
    let knows_own = k0.or(&k.knows("C0", &mud0.negate())?);
    let said0 = Predicate::var_is_true(&space, space.var("said0")?);
    let forgotten = solution.and(&said0).minus(&knows_own);
    println!(
        "\nwithout history variables, child 0 has announced yet no longer *knows* in \
         {} states\n(two different histories collapsed to one state) — the paper's §3 point.",
        forgotten.count()
    );

    let (_, mem) = load_kpt(muddy_children_memory_kpt(2))?;
    let mem_solution = mem
        .solve_iterative(64)?
        .solution()
        .expect("memory variant solves")
        .clone();
    let mem_space = mem.program().space().clone();
    let mem_views = mem
        .program()
        .processes()
        .iter()
        .map(|p| (p.name().to_owned(), p.view()))
        .collect();
    let mem_k = KnowledgeContext::new(&mem_space, mem_views, mem_solution.clone()).unwrap();
    let mem_mud0 = Predicate::var_is_true(&mem_space, mem_space.var("mud0")?);
    let mem_knows = mem_k
        .knows("C0", &mem_mud0)?
        .or(&mem_k.knows("C0", &mem_mud0.negate())?);
    let mem_said = EvalContext::new(&mem_space).eval(&parse_formula("said0 != none")?)?;
    println!(
        "with round-stamped announcements (history variables), announced-but-forgotten \
         states: {}",
        mem_solution.and(&mem_said).minus(&mem_knows).count()
    );
    Ok(())
}
