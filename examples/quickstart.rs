//! Quickstart: define a small two-process program, compute its strongest
//! invariant, and query the knowledge operator of eq. (13).
//!
//! Run with: `cargo run --example quickstart`

use knowledge_pt::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A tiny request/serve protocol. The Client sees only `req`; the
    // Server sees everything.
    let space = StateSpace::builder()
        .bool_var("req")?
        .bool_var("done")?
        .build()?;
    let program = Program::builder("quickstart", &space)
        .init_str("~req /\\ ~done")?
        .process("Client", ["req"])?
        .process("Server", ["req", "done"])?
        .statement(
            Statement::new("request")
                .guard_str("~req")?
                .assign_str("req", "1")?,
        )
        .statement(
            Statement::new("serve")
                .guard_str("req")?
                .assign_str("done", "1")?,
        )
        .build()?
        .compile()?;

    println!("== program ==");
    println!("{}", space);
    println!(
        "strongest invariant SI covers {} / {} states",
        program.si().count(),
        space.num_states()
    );

    // UNITY properties, decided exactly.
    let done = Predicate::var_is_true(&space, space.var("done")?);
    let req = Predicate::var_is_true(&space, space.var("req")?);
    println!("\n== unity properties ==");
    println!(
        "invariant (done => req)   : {}",
        program.invariant(&done.implies(&req))
    );
    println!("stable done               : {}", program.stable(&done));
    println!(
        "true |-> done             : {}",
        program.leads_to_holds(&Predicate::tt(&space), &done)
    );

    // Knowledge per eq. (13).
    let k = KnowledgeContext::for_program(&program);
    println!("\n== knowledge (eq. 13) ==");
    for (proc, fact, p) in [
        ("Server", "done", done.clone()),
        ("Client", "done", done.clone()),
        (
            "Client",
            "req => eventually-done is not a state fact; ask req",
            req.clone(),
        ),
    ] {
        let kp = k.knows(proc, &p)?;
        println!(
            "K_{proc}({fact:<8}) holds in {} / {} reachable states",
            program.si().and(&kp).count(),
            program.si().count()
        );
    }

    // The S5 axioms hold by construction — spot-check two of them.
    let kp = k.knows("Client", &done)?;
    assert!(kp.entails(&done), "(14) knowledge is truthful");
    assert_eq!(kp, k.knows("Client", &kp)?, "(16) positive introspection");
    println!("\nS5 axioms (14) and (16) verified for the Client.");

    // A proof-kernel derivation: request ensures req, hence true |-> done.
    let ctx = ProofContext::new(&program);
    let e1 = ctx.ensures_text(&Predicate::tt(&space).minus(&req), &req)?;
    let l1 = ctx.leads_to_basis(&e1)?;
    println!("\n== a tiny certified derivation ==");
    println!("{}", l1.derivation());
    Ok(())
}
