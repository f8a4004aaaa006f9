//! Property tests for the knowledge operator on *random programs*:
//! the S5 axioms (14)–(18), the junctivity/invariant theory (19)–(24),
//! group knowledge, and the run-semantics equivalence (experiments E2,
//! E3, E10).

mod common;

use common::{pred_from_mask, program_spec};
use knowledge_pt::prelude::*;
use kpt_testkit::check;

#[test]
fn s5_axioms_on_random_programs() {
    check("s5_axioms_on_random_programs", 48, |rng| {
        let spec = program_spec(rng);
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let program = spec.compile();
        let space = program.space().clone();
        let k = KnowledgeContext::for_program(&program);
        let p = pred_from_mask(&space, a);
        let q = pred_from_mask(&space, b);
        for proc in program.processes().iter().map(|p| p.name().to_owned()) {
            let kp = k.knows(&proc, &p).unwrap();
            let kq = k.knows(&proc, &q).unwrap();
            // (14) truthfulness.
            assert!(kp.entails(&p));
            // (15) distribution.
            let kimp = k.knows(&proc, &p.implies(&q)).unwrap();
            assert!(kp.and(&kimp).entails(&kq));
            // (16) positive introspection.
            assert_eq!(&k.knows(&proc, &kp).unwrap(), &kp);
            // (17) negative introspection.
            let nkp = kp.negate();
            assert_eq!(k.knows(&proc, &nkp).unwrap(), nkp);
            // (18) necessitation.
            if p.everywhere() {
                assert!(kp.everywhere());
            }
            // (19) monotonicity.
            let kpq = k.knows(&proc, &p.or(&q)).unwrap();
            assert!(kp.entails(&kpq));
            // (21) conjunctivity (binary).
            assert_eq!(k.knows(&proc, &p.and(&q)).unwrap(), kp.and(&kq));
        }
    });
}

#[test]
fn eq23_eq24_invariant_characterisation() {
    check("eq23_eq24_invariant_characterisation", 48, |rng| {
        let spec = program_spec(rng);
        let a = rng.next_u64();
        let program = spec.compile();
        let space = program.space().clone();
        let k = KnowledgeContext::for_program(&program);
        let p = pred_from_mask(&space, a);
        for proc in program.processes().iter().map(|p| p.name().to_owned()) {
            let kp = k.knows(&proc, &p).unwrap();
            // (23) invariant p ≡ invariant K_i p.
            assert_eq!(program.invariant(&p), program.invariant(&kp));
            // (24) for view-local q: invariant (q ⇒ p) ≡ invariant (q ⇒ K_i p).
            let view = k.view(&proc).unwrap();
            let q = wcyl(&view, &pred_from_mask(&space, a.rotate_left(13)));
            assert!(q.depends_only_on(view));
            assert_eq!(
                program.invariant(&q.implies(&p)),
                program.invariant(&q.implies(&kp))
            );
        }
    });
}

#[test]
fn group_knowledge_hierarchy() {
    check("group_knowledge_hierarchy", 48, |rng| {
        let spec = program_spec(rng);
        let a = rng.next_u64();
        let program = spec.compile();
        let space = program.space().clone();
        let k = KnowledgeContext::for_program(&program);
        let p = pred_from_mask(&space, a);
        let names: Vec<String> = program
            .processes()
            .iter()
            .map(|p| p.name().to_owned())
            .collect();
        let group: Vec<&str> = names.iter().map(String::as_str).collect();
        if group.is_empty() {
            return;
        }
        let c = k.common(&group, &p).unwrap();
        let e = k.everyone(&group, &p).unwrap();
        let d = k.distributed(&group, &p).unwrap();
        assert!(c.entails(&e));
        for proc in &group {
            let kp = k.knows(proc, &p).unwrap();
            assert!(e.entails(&kp));
            assert!(kp.entails(&d));
        }
        assert!(d.entails(&p));
        // C is a fixpoint of X ↦ E(p ∧ X).
        assert_eq!(&k.everyone(&group, &p.and(&c)).unwrap(), &c);
    });
}

#[test]
fn run_semantics_equivalence() {
    check("run_semantics_equivalence", 48, |rng| {
        // Experiment E10: reachability = SI and view-knowledge = K on SI.
        let spec = program_spec(rng);
        let (a, b) = (rng.next_u64(), rng.next_u64());
        let program = spec.compile();
        let space = program.space().clone();
        let samples = [pred_from_mask(&space, a), pred_from_mask(&space, b)];
        assert_eq!(semantics_agree(&program, &samples), Ok(()));
    });
}

#[test]
fn knowledge_is_view_measurable_on_si() {
    check("knowledge_is_view_measurable_on_si", 48, |rng| {
        // On reachable states, K_i p cannot distinguish view-equal states.
        let spec = program_spec(rng);
        let a = rng.next_u64();
        let program = spec.compile();
        let space = program.space().clone();
        let k = KnowledgeContext::for_program(&program);
        let p = pred_from_mask(&space, a);
        let si = program.si();
        for proc in program.processes().iter().map(|p| p.name().to_owned()) {
            let view = k.view(&proc).unwrap();
            let kp = k.knows(&proc, &p).unwrap();
            for s1 in si.iter() {
                for s2 in si.iter() {
                    let same_view = view
                        .iter()
                        .all(|v| space.value(s1, v) == space.value(s2, v));
                    if same_view {
                        assert_eq!(kp.holds(s1), kp.holds(s2));
                    }
                }
            }
        }
    });
}

/// Deterministic: common knowledge can be strictly weaker than everyone-
/// knows (the classic hierarchy is strict somewhere).
#[test]
fn common_knowledge_strictness_witness() {
    // P0 sees a, P1 sees b; a and b are set together; after the update,
    // everyone knows "a ∨ b" but it is not common knowledge at the start.
    let space = StateSpace::builder()
        .bool_var("a")
        .unwrap()
        .bool_var("b")
        .unwrap()
        .build()
        .unwrap();
    let program = Program::builder("ck", &space)
        .init_str("~a /\\ ~b")
        .unwrap()
        .process("P0", ["a"])
        .unwrap()
        .process("P1", ["b"])
        .unwrap()
        .statement(
            Statement::new("both")
                .guard_str("~a")
                .unwrap()
                .assign_str("a", "1")
                .unwrap()
                .assign_str("b", "1")
                .unwrap(),
        )
        .statement(
            Statement::new("b_alone")
                .guard_str("~b")
                .unwrap()
                .assign_str("b", "1")
                .unwrap(),
        )
        .build()
        .unwrap()
        .compile()
        .unwrap();
    let k = KnowledgeContext::for_program(&program);
    let a = Predicate::var_is_true(&space, space.var("a").unwrap());
    let b = Predicate::var_is_true(&space, space.var("b").unwrap());
    let fact = a.implies(&b); // invariant: a is only ever set along with b
    assert!(program.invariant(&fact));
    // Invariant facts are common knowledge everywhere on SI (eq. 23 lifted).
    let ck = k.common(&["P0", "P1"], &fact).unwrap();
    assert!(program.si().entails(&ck));
    // But knowledge of a non-invariant fact is NOT shared: P1 knows b where
    // it holds; P0 only knows a.
    let k1b = k.knows("P1", &b).unwrap();
    let e = k.everyone(&["P0", "P1"], &b).unwrap();
    assert!(program.si().and(&b).entails(&k1b));
    assert!(!program.si().and(&b).entails(&e));
}
