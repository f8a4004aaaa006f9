//! Differential suite for the symbolic (ROBDD) backend: every operation
//! the explicit bitset backend provides — boolean algebra, quantifiers,
//! `sp`/`wp`, `SI` fixpoints, knowledge, KBP solving — is replayed
//! symbolically and compared bit-exactly, on randomized cases and on
//! every paper figure. Ends with the escape-hatch acceptance case: a KBP
//! instance `solve_exhaustive` rejects with `SearchTooLarge` that the
//! symbolic solver solves and verifies.

mod common;

use std::sync::Arc;

use common::{models, pred_from_mask, program_spec};
use knowledge_pt::core::CoreError;
use knowledge_pt::prelude::*;
use knowledge_pt::seqtrans::{validate_61_62_symbolic, SymbolicStandard};
use kpt_testkit::{check, Rng};

/// A random space with 2–3 variables of domain 2–3, its BDD counterpart,
/// and a pair of random predicates on both backends.
#[allow(clippy::type_complexity)]
fn random_setup(
    rng: &mut Rng,
) -> (
    Arc<StateSpace>,
    Arc<BddSpace>,
    (Predicate, SymbolicPredicate),
    (Predicate, SymbolicPredicate),
) {
    let spec = program_spec(rng);
    let space = spec.space();
    let bdd = BddSpace::new(&space);
    let p = pred_from_mask(&space, rng.next_u64());
    let q = pred_from_mask(&space, rng.next_u64());
    let sp = SymbolicPredicate::from_explicit(&bdd, &p);
    let sq = SymbolicPredicate::from_explicit(&bdd, &q);
    (space, bdd, (p, sp), (q, sq))
}

fn random_var_set(rng: &mut Rng, space: &Arc<StateSpace>) -> VarSet {
    let mask = rng.next_u64();
    space
        .all_vars()
        .iter()
        .filter(|v| mask >> v.index() & 1 == 1)
        .collect()
}

// ---------------------------------------------------------------------
// Boolean algebra: and / or / not / implies / iff.
// ---------------------------------------------------------------------

#[test]
fn random_boolean_ops_agree() {
    check("bdd_boolean_ops", 100, |rng| {
        let (space, _, (p, sp), (q, sq)) = random_setup(rng);
        assert_eq!(sp.and(&sq).to_explicit(), p.and(&q));
        assert_eq!(sp.or(&sq).to_explicit(), p.or(&q));
        assert_eq!(sp.negate().to_explicit(), p.negate());
        assert_eq!(sp.implies(&sq).to_explicit(), p.implies(&q));
        assert_eq!(sp.iff(&sq).to_explicit(), p.iff(&q));
        assert_eq!(sp.count(), p.count());
        assert_eq!(sp.is_false(), p.is_false());
        assert_eq!(sp.everywhere(), p.everywhere());
        assert_eq!(sp.entails(&sq), p.entails(&q));
        for s in 0..space.num_states() {
            assert_eq!(sp.holds(s), p.holds(s));
        }
    });
}

// ---------------------------------------------------------------------
// Quantifiers: exists / forall over random variable sets.
// ---------------------------------------------------------------------

#[test]
fn random_quantifiers_agree() {
    check("bdd_quantifiers", 100, |rng| {
        let (space, _, (p, sp), _) = random_setup(rng);
        let vars = random_var_set(rng, &space);
        assert_eq!(sp.exists_vars(vars).to_explicit(), exists_set(&p, vars));
        assert_eq!(sp.forall_vars(vars).to_explicit(), forall_set(&p, vars));
    });
}

// ---------------------------------------------------------------------
// Transformers: sp / wp of every statement of a random program.
// ---------------------------------------------------------------------

#[test]
fn random_sp_wp_agree() {
    check("bdd_sp_wp", 100, |rng| {
        let spec = program_spec(rng);
        let space = spec.space();
        let bdd = BddSpace::new(&space);
        let compiled = spec.compile();
        let p = pred_from_mask(&space, rng.next_u64());
        let sp = SymbolicPredicate::from_explicit(&bdd, &p);
        for det in compiled.transitions() {
            let sym = SymbolicTransition::from_det(&bdd, det);
            assert_eq!(sym.sp(&sp).to_explicit(), det.sp(&p));
            assert_eq!(sym.wp(&sp).to_explicit(), det.wp(&p));
        }
    });
}

// ---------------------------------------------------------------------
// SI fixpoints of random programs.
// ---------------------------------------------------------------------

#[test]
fn random_strongest_invariants_agree() {
    check("bdd_si", 100, |rng| {
        let spec = program_spec(rng);
        let space = spec.space();
        let bdd = BddSpace::new(&space);
        let compiled = spec.compile();
        let transitions: Vec<SymbolicTransition> = compiled
            .transitions()
            .iter()
            .map(|t| SymbolicTransition::from_det(&bdd, t))
            .collect();
        let init = SymbolicPredicate::from_explicit(&bdd, compiled.init());
        let si = symbolic_strongest_invariant(&transitions, &init);
        assert_eq!(si.to_explicit(), *compiled.si());
    });
}

// ---------------------------------------------------------------------
// Knowledge: K_V over random views and SIs.
// ---------------------------------------------------------------------

#[test]
fn random_knowledge_agrees() {
    check("bdd_knowledge", 100, |rng| {
        let (space, bdd, (p, sp), _) = random_setup(rng);
        let si = pred_from_mask(&space, rng.next_u64() | 1);
        let ssi = SymbolicPredicate::from_explicit(&bdd, &si);
        let views = vec![("P".to_owned(), random_var_set(rng, &space))];
        let explicit = KnowledgeContext::new(&space, views.clone(), si.clone()).unwrap();
        let symbolic = SymbolicKnowledge::with_si(&bdd, views, &ssi);
        assert_eq!(
            symbolic.knows("P", &sp).unwrap().to_explicit(),
            explicit.knows("P", &p).unwrap()
        );
    });
}

// ---------------------------------------------------------------------
// KBP iteration on random knowledge-free programs (eq. 25 degenerates to
// one SI computation, so iterate must agree immediately).
// ---------------------------------------------------------------------

#[test]
fn random_kbp_iteration_agrees() {
    check("bdd_kbp_iterate", 100, |rng| {
        let spec = program_spec(rng);
        let program = spec.build_program();
        let explicit = Kbp::new(program.clone());
        let symbolic = SymbolicKbp::from_program(&program).unwrap();
        let x = pred_from_mask(program.space(), rng.next_u64() | 1);
        let sx = SymbolicPredicate::from_explicit(symbolic.space(), &x);
        assert_eq!(
            symbolic.iterate(&sx).unwrap().to_explicit(),
            explicit.iterate(&x).unwrap()
        );
        assert_eq!(
            symbolic.is_solution(&sx).unwrap(),
            explicit.is_solution(&x).unwrap()
        );
    });
}

// ---------------------------------------------------------------------
// Figure 1: no solution; the iteration cycles with period two on both
// backends, and every candidate is refuted symbolically too.
// ---------------------------------------------------------------------

#[test]
fn figure1_agrees_across_backends() {
    let kbp = figure1().unwrap();
    let sym = SymbolicKbp::from_program(kbp.program()).unwrap();
    let explicit = kbp.solve_iterative(32).unwrap();
    assert!(
        matches!(explicit, IterativeOutcome::Cycle { period: 2, .. }),
        "expected a period-2 cycle, got {explicit:?}"
    );
    let symbolic = sym.solve_iterative(32).unwrap();
    assert_eq!(symbolic.map(|s| s.to_explicit()), explicit);
    // All 8 candidates of the exhaustive search are refuted symbolically.
    let space = kbp.program().space().clone();
    let init = kbp.program().init().clone();
    let free: Vec<u64> = init.negate().iter().collect();
    for mask in 0u64..8 {
        let candidate = Predicate::from_indices(
            &space,
            init.iter().chain(
                free.iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> i & 1 == 1)
                    .map(|(_, &s)| s),
            ),
        );
        let sc = SymbolicPredicate::from_explicit(sym.space(), &candidate);
        assert!(!sym.is_solution(&sc).unwrap());
        assert_eq!(
            sym.is_solution(&sc).unwrap(),
            kbp.is_solution(&candidate).unwrap()
        );
    }
}

// ---------------------------------------------------------------------
// Figure 2: the unique solutions per init, and the non-monotonicity,
// reproduce symbolically.
// ---------------------------------------------------------------------

#[test]
fn figure2_non_monotonicity_reproduces_symbolically() {
    let mut solutions = Vec::new();
    for init in ["~y", "~y /\\ x"] {
        let kbp = figure2(init).unwrap();
        let explicit = kbp
            .solve_exhaustive(16)
            .unwrap()
            .strongest()
            .unwrap()
            .clone();
        let sym = SymbolicKbp::from_program(kbp.program()).unwrap();
        let outcome = sym.solve_iterative(32).unwrap();
        let solution = outcome.solution().expect("figure 2 iteration converges");
        assert_eq!(solution.to_explicit(), explicit, "init = {init}");
        assert!(sym.is_solution(solution).unwrap());
        solutions.push(solution.clone());
    }
    // Strengthening init weakened the solution: x does not entail ¬y.
    // (The two solutions live in different BddSpaces — one per KBP — so
    // the comparison goes through the shared explicit space.)
    let (weak, strong) = (&solutions[0], &solutions[1]);
    assert!(
        !strong.to_explicit().entails(&weak.to_explicit()),
        "SI is not monotonic in init — and the symbolic backend sees it"
    );
}

// ---------------------------------------------------------------------
// §6 sequence transmission: invariants (61)–(62) of the standard model
// agree row-by-row across backends (Figures 3/4).
// ---------------------------------------------------------------------

#[test]
fn seqtrans_61_62_agree_across_backends() {
    let (model, compiled) = models::standard_2_2();
    let sym = SymbolicStandard::from_compiled(model, compiled);
    assert_eq!(&sym.si().to_explicit(), compiled.si());
    let symbolic = validate_61_62_symbolic(model, &sym);
    assert!(symbolic.all_hold(), "failures: {:?}", symbolic.failures());
    let explicit = knowledge_pt::seqtrans::knowledge_preds::validate_soundness(model, compiled);
    for ob in &symbolic.obligations {
        let row = explicit
            .obligations
            .iter()
            .find(|e| e.id == ob.id)
            .expect("explicit report carries the same obligation id");
        assert_eq!(row.holds, ob.holds, "{} disagrees across backends", ob.id);
    }
}

// ---------------------------------------------------------------------
// Engine configurations: aggressive GC and low-trigger sifting must land
// on results bit-identical to the serial PR-4 engine (GC and reordering
// disabled) and to the explicit backend, op by op.
// ---------------------------------------------------------------------

/// The serial PR-4 engine plus every optimisation toggle, with thresholds
/// low enough that the tiny random spaces actually sweep and sift.
fn engine_configs() -> Vec<(&'static str, BddConfig)> {
    let gc = GcPolicy::OnGrowth {
        min_nodes: 1,
        dead_percent: 0,
    };
    let sift = ReorderPolicy::SiftOnGrowth {
        trigger_nodes: 64,
        max_growth_percent: 20,
    };
    vec![
        ("serial", BddConfig::serial()),
        (
            "gc",
            BddConfig {
                gc,
                ..BddConfig::serial()
            },
        ),
        (
            "sift",
            BddConfig {
                reorder: sift,
                ..BddConfig::serial()
            },
        ),
        ("gc+sift", BddConfig { gc, reorder: sift }),
    ]
}

#[test]
fn random_engine_configs_agree() {
    check("bdd_engine_configs", 100, |rng| {
        let spec = program_spec(rng);
        let space = spec.space();
        let compiled = spec.compile();
        let p = pred_from_mask(&space, rng.next_u64());
        let q = pred_from_mask(&space, rng.next_u64());
        let vars = random_var_set(rng, &space);
        let explicit_si = compiled.si();
        for (name, config) in engine_configs() {
            let bdd = BddSpace::with_config(&space, config);
            let sp = SymbolicPredicate::from_explicit(&bdd, &p);
            let sq = SymbolicPredicate::from_explicit(&bdd, &q);
            assert_eq!(sp.and(&sq).to_explicit(), p.and(&q), "{name} and");
            assert_eq!(sp.negate().to_explicit(), p.negate(), "{name} not");
            assert_eq!(
                sp.exists_vars(vars).to_explicit(),
                exists_set(&p, vars),
                "{name} exists"
            );
            assert_eq!(
                sp.forall_vars(vars).to_explicit(),
                forall_set(&p, vars),
                "{name} forall"
            );
            let transitions: Vec<SymbolicTransition> = compiled
                .transitions()
                .iter()
                .map(|t| SymbolicTransition::from_det(&bdd, t))
                .collect();
            for (sym, det) in transitions.iter().zip(compiled.transitions()) {
                assert_eq!(sym.sp(&sp).to_explicit(), det.sp(&p), "{name} sp");
                assert_eq!(sym.wp(&sp).to_explicit(), det.wp(&p), "{name} wp");
            }
            let init = SymbolicPredicate::from_explicit(&bdd, compiled.init());
            let si = symbolic_strongest_invariant(&transitions, &init);
            assert_eq!(si.to_explicit(), *explicit_si, "{name} SI");
        }
    });
}

// ---------------------------------------------------------------------
// Partitioned relations with early quantification: the builder's
// conjunctive partition must land on the same canonical roots as its own
// monolithic materialisation (pinning the `and_exists` kernel against
// conjoin-then-quantify) and the same explicit predicates as the bitset
// backend, for sp, wp, and SI.
// ---------------------------------------------------------------------

#[test]
fn random_partitioned_relations_agree() {
    check("bdd_partitioned", 100, |rng| {
        let spec = program_spec(rng);
        let space = spec.space();
        let bdd = BddSpace::new(&space);
        let nvars = spec.domains.len();
        let mut parted = Vec::new();
        let mut dets = Vec::new();
        for &(gmask, var, kind) in &spec.statements {
            let guard = pred_from_mask(&space, gmask);
            let v = space.var(&format!("v{var}")).unwrap();
            let dom = space.domain(v).size();
            let w = space.var(&format!("v{}", (var + 1) % nvars)).unwrap();
            let sym_guard = SymbolicPredicate::from_explicit(&bdd, &guard);
            let builder = SymbolicTransition::builder(&bdd).guard(&sym_guard);
            let built = match kind {
                common::UpdateKind::Const(c) => builder.assign(v, &[], move |_| c % dom).build(),
                common::UpdateKind::Incr => {
                    builder.assign(v, &[v], move |x| (x[0] + 1) % dom).build()
                }
                common::UpdateKind::Copy(_) => builder.assign(v, &[w], move |x| x[0] % dom).build(),
            }
            .unwrap();
            assert!(built.num_parts() > 1, "builder should partition");
            let g2 = guard.clone();
            let sp2 = Arc::clone(&space);
            let det = knowledge_pt::transformers::DetTransition::from_fn(&space, move |s| {
                if !g2.holds(s) {
                    return s;
                }
                let val = match kind {
                    common::UpdateKind::Const(c) => c % dom,
                    common::UpdateKind::Incr => (sp2.value(s, v) + 1) % dom,
                    common::UpdateKind::Copy(_) => sp2.value(s, w) % dom,
                };
                sp2.with_value(s, v, val)
            });
            parted.push(built);
            dets.push(det);
        }
        let p = pred_from_mask(&space, rng.next_u64());
        let sp = SymbolicPredicate::from_explicit(&bdd, &p);
        for (built, det) in parted.iter().zip(&dets) {
            let mono = built.monolithic();
            // Canonical-root equality: the early-quantified partition and
            // the monolithic product compute the very same BDD.
            assert_eq!(built.sp(&sp), mono.sp(&sp));
            assert_eq!(built.wp(&sp), mono.wp(&sp));
            assert_eq!(built.sp(&sp).to_explicit(), det.sp(&p));
            assert_eq!(built.wp(&sp).to_explicit(), det.wp(&p));
        }
        let init = pred_from_mask(&space, rng.next_u64() | 1);
        let sinit = SymbolicPredicate::from_explicit(&bdd, &init);
        let si = symbolic_strongest_invariant(&parted, &sinit);
        let (esi, _) = knowledge_pt::transformers::sst_frontier_with_stats(&dets, &init);
        assert_eq!(si.to_explicit(), esi);
    });
}

// ---------------------------------------------------------------------
// Worst-case variable order: ⋀ (aᵢ ↔ bᵢ) with the a and b blocks
// separated is the classic exponential family. A reachability fixpoint
// that converges on it exhausts a node budget under the fixed declared
// order, and passes the same budget — with the same answer — once
// dynamic sifting is enabled.
// ---------------------------------------------------------------------

#[test]
fn sifting_passes_a_node_budget_the_fixed_order_exhausts() {
    const N: usize = 12; // pairs; 24 booleans, 2^24 states
    const BUDGET: usize = 3_000;
    let mut b = StateSpace::builder();
    for i in 0..N {
        b = b.bool_var(&format!("a{i}")).unwrap();
    }
    for i in 0..N {
        b = b.bool_var(&format!("b{i}")).unwrap();
    }
    let space = b.build().unwrap();

    let run = |config: BddConfig, budget: usize| {
        let bdd = BddSpace::with_config(&space, config);
        let transitions: Vec<SymbolicTransition> = (0..N)
            .map(|i| {
                let a = space.var(&format!("a{i}")).unwrap();
                let bv = space.var(&format!("b{i}")).unwrap();
                let ga = SymbolicPredicate::var_eq(&bdd, a, 0);
                let gb = SymbolicPredicate::var_eq(&bdd, bv, 0);
                SymbolicTransition::builder(&bdd)
                    .guard(&ga.and(&gb))
                    .assign(a, &[], |_| 1)
                    .assign(bv, &[], |_| 1)
                    .build()
                    .unwrap()
            })
            .collect();
        let init = (0..N).fold(SymbolicPredicate::tt(&bdd), |acc, i| {
            let a = space.var(&format!("a{i}")).unwrap();
            let bv = space.var(&format!("b{i}")).unwrap();
            acc.and(&SymbolicPredicate::var_eq(&bdd, a, 0))
                .and(&SymbolicPredicate::var_eq(&bdd, bv, 0))
        });
        let out = symbolic_sst_bounded(&init, &transitions, budget);
        (bdd, out)
    };

    // The serial engine blows past the budget on the way to the fixpoint.
    let (_, serial) = run(BddConfig::serial(), BUDGET);
    let err = serial.expect_err("fixed order must exhaust the budget");
    assert!(matches!(err, BddError::NodeBudgetExceeded { .. }), "{err}");

    // Sifting repairs the order mid-fixpoint and finishes inside it.
    let sift_config = BddConfig {
        reorder: ReorderPolicy::SiftOnGrowth {
            trigger_nodes: 512,
            max_growth_percent: 20,
        },
        ..BddConfig::serial()
    };
    let (sifted_space, sifted) = run(sift_config, BUDGET);
    let (si, _) = sifted.expect("sifting must fit the budget");
    assert!(sifted_space.reorder_stats().runs > 0, "sifting must run");
    // Exactly the pair-equal states are reachable: 2^N of them.
    assert_eq!(si.count(), 1 << N);

    // Bit-identical to the serial engine: rerun serial without the budget
    // and compare membership on a state sample (the space is too large
    // for a full explicit materialisation to be worth it here).
    let (_, unbounded) = run(BddConfig::serial(), usize::MAX);
    let (serial_si, _) = unbounded.expect("unbounded serial run converges");
    assert_eq!(serial_si.count(), si.count());
    let mut rng = Rng::seed_from_u64(0xbdd5117);
    for _ in 0..1_000 {
        let s = rng.below(space.num_states());
        assert_eq!(
            serial_si.holds(s),
            si.holds(s),
            "membership diverges at {s}"
        );
    }
}

// ---------------------------------------------------------------------
// Acceptance: the symbolic backend solves a KBP instance the explicit
// exhaustive solver rejects with SearchTooLarge (≥ 64 free states).
// ---------------------------------------------------------------------

#[test]
fn symbolic_solver_handles_search_too_large_instances() {
    let space = StateSpace::builder()
        .nat_var("i", 80)
        .unwrap()
        .bool_var("done")
        .unwrap()
        .build()
        .unwrap();
    let program = Program::builder("escape", &space)
        .init_str("i = 0 && !done")
        .unwrap()
        .process("P", ["i"])
        .unwrap()
        .statement(
            Statement::new("inc")
                .guard_str("i < 79")
                .unwrap()
                .assign_str("i", "i + 1")
                .unwrap(),
        )
        .statement(
            Statement::new("finish")
                .guard_str("K{P}(i >= 40)")
                .unwrap()
                .assign_str("done", "1")
                .unwrap(),
        )
        .build()
        .unwrap();

    let explicit = Kbp::new(program.clone());
    let free = explicit.program().init().negate().count();
    assert!(
        free >= 64,
        "the instance must exceed the 64-bit subset mask"
    );
    match explicit.solve_exhaustive(u64::MAX) {
        Err(CoreError::SearchTooLarge { free_states, .. }) => assert_eq!(free_states, free),
        other => panic!("expected SearchTooLarge, got {other:?}"),
    }

    let sym = SymbolicKbp::from_program(&program).unwrap();
    match sym.solve_iterative(64).unwrap() {
        SymbolicOutcome::Converged { solution, .. } => {
            assert!(sym.is_solution(&solution).unwrap());
            // done=0 at every i (80 states) plus done=1 once the
            // knowledge guard opens at i ≥ 40 (40 states).
            assert_eq!(solution.count(), 120);
        }
        other => panic!("expected convergence, got {other:?}"),
    }
}
