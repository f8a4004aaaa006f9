//! Symbolic-backend summary: benches the ROBDD engine against the explicit
//! bitset backend, demonstrates the `SearchTooLarge` escape hatch, runs a
//! strongest-invariant fixpoint over a 2^32-state space no bitset sweep
//! could enumerate, and compares the scaled engine (garbage collection,
//! dynamic sifting, partitioned relations with early quantification)
//! against the grow-only fixed-order monolithic baseline. Writes
//! `BENCH_bdd.json` plus scaling tables on stdout.
//!
//! Usage: `cargo run --release -p kpt-bench --bin bdd_summary`
//! (`KPT_BENCH_JSON` overrides the output path, `KPT_BENCH_FAST=1` runs a
//! shorter smoke configuration).

use std::sync::Arc;
use std::time::Instant;

use kpt_bdd::{
    symbolic_sst_bounded, symbolic_sst_with_stats, symbolic_strongest_invariant, BddConfig,
    BddError, BddSpace, GcPolicy, ReorderPolicy, SymbolicKbp, SymbolicOutcome, SymbolicPredicate,
    SymbolicTransition,
};
use kpt_core::{CoreError, Kbp};
use kpt_seqtrans::{ModelOptions, StandardModel, SymbolicStandard};
use kpt_state::{Predicate, StateSpace};
use kpt_testkit::Criterion;
use kpt_transformers::sst_frontier_with_stats;
use kpt_unity::Program;

fn space_with_vars(nvars: usize, dom: u64) -> Arc<StateSpace> {
    let mut b = StateSpace::builder();
    for i in 0..nvars {
        b = b.nat_var(&format!("v{i}"), dom).unwrap();
    }
    b.build().unwrap()
}

/// Core boolean/quantifier/transformer ops, symbolic vs explicit, over the
/// same 65536-state space the kernel report uses.
fn op_cases(c: &mut Criterion) {
    let space = space_with_vars(8, 4);
    let ep = Predicate::from_fn(&space, |s| s % 5 != 0);
    let eq = Predicate::from_fn(&space, |s| s % 3 == 1);
    let bdd = BddSpace::new(&space);
    let sp = SymbolicPredicate::from_explicit(&bdd, &ep);
    let sq = SymbolicPredicate::from_explicit(&bdd, &eq);
    let all = space.all_vars();

    let mut group = c.benchmark_group("bdd_ops");
    group.bench_function("symbolic_and/65536states", |b| b.iter(|| sp.and(&sq)));
    group.bench_function("explicit_and/65536states", |b| b.iter(|| ep.and(&eq)));
    group.bench_function("symbolic_forall_all/65536states", |b| {
        b.iter(|| sp.forall_vars(all))
    });
    group.bench_function("explicit_forall_all/65536states", |b| {
        b.iter(|| kpt_state::forall_set(&ep, all))
    });

    // sp/wp of a deterministic increment on the first variable.
    let v0 = space.var("v0").unwrap();
    let sp_arc = Arc::clone(&space);
    let det = kpt_transformers::DetTransition::from_fn(&space, move |s| {
        let x = sp_arc.value(s, v0);
        sp_arc.with_value(s, v0, (x + 1) % 4)
    });
    let sym_t = SymbolicTransition::from_det(&bdd, &det);
    group.bench_function("symbolic_sp/65536states", |b| b.iter(|| sym_t.sp(&sp)));
    group.bench_function("explicit_sp/65536states", |b| b.iter(|| det.sp(&ep)));
    group.bench_function("symbolic_wp/65536states", |b| b.iter(|| sym_t.wp(&sp)));
    group.bench_function("explicit_wp/65536states", |b| b.iter(|| det.wp(&ep)));
    group.finish();
}

/// Strongest invariants of the standard sequence-transmission model, both
/// backends, at growing instance sizes. Returns rows for the stdout table.
fn seqtrans_cases(c: &mut Criterion, fast: bool) -> Vec<(String, u64, usize, f64, f64)> {
    let mut rows = Vec::new();
    let mut group = c.benchmark_group("bdd_seqtrans");
    group.sample_size(10);
    let instances: &[(usize, usize)] = if fast { &[(2, 2)] } else { &[(2, 2), (2, 3)] };
    for &(a, l) in instances {
        let label = format!("a{a}l{l}");
        let model = StandardModel::build(a, l, ModelOptions::default()).unwrap();
        let compiled = model.compile().unwrap();
        let sym = SymbolicStandard::from_compiled(&model, &compiled);
        assert_eq!(
            &sym.si().to_explicit(),
            compiled.si(),
            "backends disagree on SI at {label}"
        );
        let init = sym.init().clone();
        let transitions = sym.transitions().to_vec();
        group.bench_function(format!("symbolic_si/{label}"), |b| {
            b.iter(|| symbolic_strongest_invariant(&transitions, &init))
        });
        let det = compiled.transitions().to_vec();
        let einit = compiled.init().clone();
        group.bench_function(format!("explicit_si/{label}"), |b| {
            b.iter(|| sst_frontier_with_stats(&det, &einit))
        });

        let t0 = Instant::now();
        let _ = symbolic_strongest_invariant(&transitions, &init);
        let sym_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let _ = sst_frontier_with_stats(&det, &einit);
        let exp_ms = t0.elapsed().as_secs_f64() * 1e3;
        rows.push((
            label,
            model.space().num_states(),
            sym.si().node_count(),
            sym_ms,
            exp_ms,
        ));
    }
    group.finish();
    rows
}

/// A shipped `.kpt` model's program.
fn shipped(src: &str) -> Program {
    kpt_unity::parse_program(src)
        .expect("shipped model elaborates")
        .1
}

/// A KBP with 159 free states: `solve_exhaustive` rejects it (the subset
/// mask is 64 bits wide), the symbolic iteration converges.
fn escape_hatch_case(c: &mut Criterion) {
    let program = shipped(kpt_core::bdd_escape_kpt());

    // The explicit exhaustive solver cannot touch this instance.
    let explicit = Kbp::new(program.clone());
    let free = explicit.program().init().negate().count();
    assert!(free >= 64, "instance must exceed the subset-mask width");
    match explicit.solve_exhaustive(u64::MAX) {
        Err(CoreError::SearchTooLarge { free_states, .. }) => {
            assert_eq!(free_states, free);
        }
        other => panic!("expected SearchTooLarge, got {other:?}"),
    }

    // The symbolic iteration converges and verifies.
    let sym = SymbolicKbp::from_program(&program).unwrap();
    let outcome = sym.solve_iterative(64).unwrap();
    let solution = match &outcome {
        SymbolicOutcome::Converged { solution, .. } => solution.clone(),
        other => panic!("expected convergence, got {other:?}"),
    };
    assert!(sym.is_solution(&solution).unwrap());
    println!(
        "escape hatch: {free} free states, exhaustive rejects, symbolic \
         converges to a {}-state solution ({} BDD nodes)",
        solution.count(),
        solution.node_count()
    );

    let mut group = c.benchmark_group("bdd_kbp");
    group.sample_size(10);
    group.bench_function("symbolic_solve/159free", |b| {
        b.iter(|| {
            SymbolicKbp::from_program(&program)
                .unwrap()
                .solve_iterative(64)
                .unwrap()
        })
    });
    group.finish();
}

/// SI over 2^32 states: 32 toggle statements reach the full boolean cube
/// from the all-zeros state. The explicit backend's bitset for one
/// predicate at this size is 512 MiB and every sweep visits 2^32 states;
/// the symbolic frontier finishes in milliseconds.
fn huge_space_case(c: &mut Criterion, fast: bool) {
    let nvars = if fast { 24 } else { 32 };
    let mut b = StateSpace::builder();
    for i in 0..nvars {
        b = b.bool_var(&format!("b{i}")).unwrap();
    }
    let space = b.build().unwrap();
    let bdd = BddSpace::new(&space);
    let transitions: Vec<SymbolicTransition> = (0..nvars)
        .map(|i| {
            let v = space.var(&format!("b{i}")).unwrap();
            SymbolicTransition::builder(&bdd)
                .assign(v, &[v], |x| 1 - x[0])
                .build()
                .unwrap()
        })
        .collect();
    let init = (0..nvars).fold(SymbolicPredicate::tt(&bdd), |acc, i| {
        let v = space.var(&format!("b{i}")).unwrap();
        acc.and(&SymbolicPredicate::var_eq(&bdd, v, 0))
    });
    let (si, stats) = symbolic_sst_with_stats(&init, &transitions);
    assert!(si.everywhere(), "toggles reach the full cube");
    assert_eq!(si.count(), space.num_states());
    println!(
        "huge space: SI over {} states in {} rounds, {} nodes",
        space.num_states(),
        stats.rounds,
        stats.nodes
    );
    let mut group = c.benchmark_group("bdd_scale");
    group.sample_size(10);
    group.bench_function(format!("symbolic_si_toggles/2e{nvars}states"), |b| {
        b.iter(|| symbolic_sst_with_stats(&init, &transitions))
    });
    group.finish();
}

/// Partitioned vs monolithic relations on registry models: the full
/// `sp`-driven reachability fixpoint (plus a `wp` sweep), on a fresh
/// space per sample so materialization and memo state are not shared.
/// The partitioned side consumes each statement as its conjunctive
/// partition with early quantification; the monolithic side first
/// materializes the single-BDD `ite(guard, update, identity)` relation the
/// PR-4 engine used and quantifies over that. Knowledge guards are
/// evaluated at the first protocol iterate in both.
fn partition_cases(c: &mut Criterion) -> Vec<(String, usize, usize, f64, f64)> {
    let mut rows = Vec::new();
    let mut group = c.benchmark_group("bdd_partition");
    group.sample_size(10);
    let models: Vec<(&str, Program)> = vec![
        ("muddy3", shipped(kpt_core::muddy_children_kpt(3))),
        ("muddy4", shipped(kpt_core::muddy_children_kpt(4))),
        ("escape159", shipped(kpt_core::bdd_escape_kpt())),
    ];
    // One pass: translate, optionally materialize monolithic relations,
    // run the reachability closure and a wp sweep over every statement.
    let run = |program: &Program, monolithic: bool| -> (u64, usize, usize, usize) {
        let sym = SymbolicKbp::from_program(program).expect("registry model translates");
        let x = sym.iterate(&sym.init()).expect("first iterate");
        let ts: Vec<SymbolicTransition> = program
            .statements()
            .iter()
            .map(|s| {
                let t = sym
                    .statement_transition(s.name(), &x)
                    .expect("statement translates");
                if monolithic {
                    t.monolithic()
                } else {
                    t
                }
            })
            .collect();
        let si = symbolic_strongest_invariant(&ts, &sym.init());
        for t in &ts {
            let _ = t.wp(&si);
        }
        let rel_nodes = ts.iter().map(SymbolicTransition::node_count).sum();
        let max_parts = ts
            .iter()
            .map(SymbolicTransition::num_parts)
            .max()
            .unwrap_or(1);
        (si.count(), si.node_count(), rel_nodes, max_parts)
    };
    for (name, program) in &models {
        // Same denotation: both forms must land on the same canonical SI,
        // and every per-statement sp/wp product must agree.
        {
            let sym = SymbolicKbp::from_program(program).expect("registry model translates");
            let x = sym.iterate(&sym.init()).expect("first iterate");
            for s in program.statements() {
                let p = sym
                    .statement_transition(s.name(), &x)
                    .expect("statement translates");
                let m = p.monolithic();
                assert_eq!(p.sp(&x), m.sp(&x), "{name}: partitioned sp diverges");
                assert_eq!(p.wp(&x), m.wp(&x), "{name}: partitioned wp diverges");
            }
        }
        let (pc, pn, _, max_parts) = run(program, false);
        let (mc, mn, mono_nodes, _) = run(program, true);
        assert_eq!((pc, pn), (mc, mn), "{name}: fixpoints diverge");

        group.bench_function(format!("partitioned_spwp/{name}"), |b| {
            b.iter(|| run(program, false))
        });
        group.bench_function(format!("monolithic_spwp/{name}"), |b| {
            b.iter(|| run(program, true))
        });
        let t0 = Instant::now();
        let _ = run(program, false);
        let part_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let _ = run(program, true);
        let mono_ms = t0.elapsed().as_secs_f64() * 1e3;
        rows.push(((*name).to_owned(), max_parts, mono_nodes, part_ms, mono_ms));
    }
    group.finish();
    rows
}

/// The separated-pairs worst case for the declared order: `a0..a{n-1}`
/// then `b0..b{n-1}`, statement `i` taking pair `i` from `(0,0)` to
/// `(1,1)`. The reached set is the pairing `/\ (a_i <-> b_i)`, exponential
/// under the block order and linear once the pairs are interleaved — so
/// the grow-only fixed-order engine exhausts a node budget the sifting
/// engine finishes well inside.
fn pairs_model(
    npairs: usize,
    config: BddConfig,
) -> (
    Arc<StateSpace>,
    Arc<BddSpace>,
    SymbolicPredicate,
    Vec<SymbolicTransition>,
) {
    let mut b = StateSpace::builder();
    for i in 0..npairs {
        b = b.bool_var(&format!("a{i}")).unwrap();
    }
    for i in 0..npairs {
        b = b.bool_var(&format!("b{i}")).unwrap();
    }
    let space = b.build().unwrap();
    let bdd = BddSpace::with_config(&space, config);
    let transitions: Vec<SymbolicTransition> = (0..npairs)
        .map(|i| {
            let a = space.var(&format!("a{i}")).unwrap();
            let bv = space.var(&format!("b{i}")).unwrap();
            let guard =
                SymbolicPredicate::var_eq(&bdd, a, 0).and(&SymbolicPredicate::var_eq(&bdd, bv, 0));
            SymbolicTransition::builder(&bdd)
                .guard(&guard)
                .assign(a, &[], |_| 1)
                .assign(bv, &[], |_| 1)
                .build()
                .unwrap()
        })
        .collect();
    let init = (0..npairs).fold(SymbolicPredicate::tt(&bdd), |acc, i| {
        let a = space.var(&format!("a{i}")).unwrap();
        let bv = space.var(&format!("b{i}")).unwrap();
        acc.and(&SymbolicPredicate::var_eq(&bdd, a, 0))
            .and(&SymbolicPredicate::var_eq(&bdd, bv, 0))
    });
    (space, bdd, init, transitions)
}

/// Engine-configuration rows: the same strongest-invariant fixpoint under
/// the PR-4 baseline (grow-only, fixed order) and the scaled engine
/// (GC + sifting), plus the budgeted separated-pairs run where only the
/// sifting engine finishes.
fn engine_cases(c: &mut Criterion, fast: bool) {
    let npairs = if fast { 10 } else { 24 };
    let budget = if fast { 2_000 } else { 20_000 };
    let sift_config = BddConfig {
        gc: GcPolicy::OnGrowth {
            min_nodes: 1 << 12,
            dead_percent: 25,
        },
        reorder: ReorderPolicy::SiftOnGrowth {
            trigger_nodes: if fast { 512 } else { 2_048 },
            max_growth_percent: 20,
        },
    };

    // (a) The fixed-order grow-only engine exhausts the budget...
    let (_, _, init, transitions) = pairs_model(npairs, BddConfig::serial());
    let err = symbolic_sst_bounded(&init, &transitions, budget)
        .expect_err("fixed declaration order must exhaust the budget");
    let BddError::NodeBudgetExceeded { nodes, rounds, .. } = err else {
        panic!("expected NodeBudgetExceeded, got {err:?}");
    };
    println!(
        "separated pairs ({npairs} pairs, 2^{} states): fixed order exhausts \
         the {budget}-node budget after {rounds} rounds ({nodes} live)",
        2 * npairs
    );

    // ...(b) while GC + sifting finishes the same instance inside it.
    let (space, bdd, init, transitions) = pairs_model(npairs, sift_config);
    let (si, stats) =
        symbolic_sst_bounded(&init, &transitions, budget).expect("sifting engine stays in budget");
    assert_eq!(si.count(), 1u64 << npairs, "SI is the pairing set");
    println!(
        "separated pairs ({npairs} pairs, 2^{} states): GC+sifting finishes in \
         {} rounds, SI {} nodes, {} live ({} sift passes, {} sweeps)",
        2 * npairs,
        stats.rounds,
        stats.nodes,
        bdd.live_node_count(),
        bdd.reorder_stats().runs,
        bdd.gc_stats().runs,
    );
    assert!(
        bdd.reorder_stats().runs > 0,
        "the pairs instance must trigger sifting"
    );

    let mut group = c.benchmark_group("bdd_engine");
    group.sample_size(10);
    let states = 2 * npairs;
    group.bench_function(format!("symbolic_si_pairs_sifted/2e{states}states"), |b| {
        b.iter(|| {
            // A fresh space per sample: reordering carries over, so reuse
            // would measure the already-interleaved order.
            let (_, _, init, transitions) = pairs_model(npairs, sift_config);
            symbolic_sst_bounded(&init, &transitions, budget).expect("stays in budget")
        })
    });
    // The serial engine only completes the small instance without a budget.
    let small = if fast { 6 } else { 10 };
    group.bench_function(
        format!("symbolic_si_pairs_serial/2e{}states", 2 * small),
        |b| {
            b.iter(|| {
                let (_, _, init, transitions) = pairs_model(small, BddConfig::serial());
                symbolic_sst_with_stats(&init, &transitions)
            })
        },
    );
    group.finish();
    drop(space);
}

fn main() {
    let (config, fast) = kpt_bench::report_config("BENCH_bdd.json", 10, 20);
    let mut c = Criterion::with_config(config);
    op_cases(&mut c);
    let rows = seqtrans_cases(&mut c, fast);
    escape_hatch_case(&mut c);
    huge_space_case(&mut c, fast);
    let part_rows = partition_cases(&mut c);
    engine_cases(&mut c, fast);

    println!("\n== seqtrans SI scaling (one-shot, release) ==");
    println!(
        "{:<8} {:>12} {:>10} {:>14} {:>14}",
        "inst", "states", "SI nodes", "symbolic ms", "explicit ms"
    );
    for (label, states, nodes, sym_ms, exp_ms) in &rows {
        println!("{label:<8} {states:>12} {nodes:>10} {sym_ms:>14.3} {exp_ms:>14.3}");
    }

    println!("\n== partitioned vs monolithic sp/wp (one-shot, release) ==");
    println!(
        "{:<10} {:>6} {:>11} {:>15} {:>15}",
        "model", "parts", "mono nodes", "partitioned ms", "monolithic ms"
    );
    for (name, parts, nodes, part_ms, mono_ms) in &part_rows {
        println!("{name:<10} {parts:>6} {nodes:>11} {part_ms:>15.3} {mono_ms:>15.3}");
    }
    c.final_summary();
}
