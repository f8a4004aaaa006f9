//! Kernel speedup summary: runs the optimized-vs-naive comparison cases
//! (word-parallel quantifiers, frontier `sst`, memoized knowledge) and
//! writes `BENCH_kernels.json` with median ns per case plus a speedup
//! table on stdout.
//!
//! Usage: `cargo run --release -p kpt-bench --bin kernels_summary`
//! (`KPT_BENCH_JSON` overrides the output path, `KPT_BENCH_FAST=1` runs a
//! shorter smoke configuration).

use kpt_state::{
    forall_set, forall_set_naive, forall_var, forall_var_naive, Predicate, StateSpace,
};
use kpt_testkit::Criterion;
use kpt_transformers::{
    sp_union, sst_frontier_with_stats, sst_with_stats, DetTransition, FnTransformer,
};

fn space_with_vars(nvars: usize, dom: u64) -> std::sync::Arc<StateSpace> {
    let mut b = StateSpace::builder();
    for i in 0..nvars {
        b = b.nat_var(&format!("v{i}"), dom).unwrap();
    }
    b.build().unwrap()
}

fn quantifier_cases(c: &mut Criterion) {
    let space = space_with_vars(8, 4); // 65536 states
    let p = Predicate::from_fn(&space, |s| s % 5 != 0);
    let mut group = c.benchmark_group("wcyl_quantify");
    for (label, vi) in [("stride1", 0usize), ("stride64", 3), ("stride4096", 6)] {
        let v = space.var(&format!("v{vi}")).unwrap();
        group.bench_function(format!("kernel_forall_var/{label}"), |b| {
            b.iter(|| forall_var(&p, v))
        });
        group.bench_function(format!("naive_forall_var/{label}"), |b| {
            b.iter(|| forall_var_naive(&p, v))
        });
    }
    let all = space.all_vars();
    group.bench_function("kernel_forall_set/65536states_allvars", |b| {
        b.iter(|| forall_set(&p, all))
    });
    group.bench_function("naive_forall_set/65536states_allvars", |b| {
        b.iter(|| forall_set_naive(&p, all))
    });
    group.finish();
}

fn fixpoint_cases(c: &mut Criterion) {
    let mut group = c.benchmark_group("si_fixpoint");
    group.sample_size(10);
    // Long chain i := i + 1: n Kleene rounds of O(n) work vs a frontier of
    // one state per round.
    let n = 1u64 << 12;
    let space = StateSpace::builder()
        .nat_var("i", n)
        .unwrap()
        .build()
        .unwrap();
    let t = DetTransition::from_fn(&space, move |i| if i + 1 < n { i + 1 } else { i });
    let init = Predicate::from_indices(&space, [0]);
    group.bench_function("frontier_long_chain/4096", |b| {
        b.iter(|| sst_frontier_with_stats(std::slice::from_ref(&t), &init))
    });
    let t2 = DetTransition::from_fn(&space, move |i| if i + 1 < n { i + 1 } else { i });
    let kleene = FnTransformer::new(&space, "SP", move |p: &Predicate| {
        sp_union(std::slice::from_ref(&t2), p)
    });
    group.bench_function("kleene_long_chain/4096", |b| {
        b.iter(|| sst_with_stats(&kleene, &init))
    });
    // Wide program: 8 bit-setting statements over 2^16 states.
    let mut sb = StateSpace::builder();
    for i in 0..16 {
        sb = sb.bool_var(&format!("b{i}")).unwrap();
    }
    let wide = sb.build().unwrap();
    let stmts: Vec<DetTransition> = (0..8u64)
        .map(|k| {
            let v = wide.var(&format!("b{k}")).unwrap();
            let sp2 = std::sync::Arc::clone(&wide);
            DetTransition::from_fn(&wide, move |s| sp2.with_value(s, v, 1))
        })
        .collect();
    let winit = Predicate::from_indices(&wide, [0]);
    group.bench_function("frontier_wide/65536states", |b| {
        b.iter(|| sst_frontier_with_stats(&stmts, &winit))
    });
    let stmts2: Vec<DetTransition> = (0..8u64)
        .map(|k| {
            let v = wide.var(&format!("b{k}")).unwrap();
            let sp2 = std::sync::Arc::clone(&wide);
            DetTransition::from_fn(&wide, move |s| sp2.with_value(s, v, 1))
        })
        .collect();
    let wkleene = FnTransformer::new(&wide, "SP", move |p: &Predicate| sp_union(&stmts2, p));
    group.bench_function("kleene_wide/65536states", |b| {
        b.iter(|| sst_with_stats(&wkleene, &winit))
    });
    group.finish();
}

fn knowledge_cases(c: &mut Criterion) {
    use kpt_core::KnowledgeContext;
    use kpt_state::VarSet;
    let space = space_with_vars(8, 4);
    let views = vec![
        ("P0".to_owned(), VarSet::from_vars(space.vars().take(3))),
        (
            "P1".to_owned(),
            VarSet::from_vars(space.vars().skip(3).take(3)),
        ),
    ];
    let si = Predicate::from_fn(&space, |s| s % 7 != 0);
    let p = Predicate::from_fn(&space, |s| s % 3 == 1);
    let op = KnowledgeContext::new(&space, views.clone(), si.clone()).unwrap();
    let mut group = c.benchmark_group("knowledge");
    group.bench_function("knows_cold/65536states", |b| {
        b.iter(|| {
            // A fresh context every iteration: the unmemoized path.
            let cold = KnowledgeContext::new(&space, views.clone(), si.clone()).unwrap();
            cold.knows("P1", &p).unwrap()
        })
    });
    let _ = op.knows("P1", &p).unwrap();
    group.bench_function("knows_warm/65536states", |b| {
        b.iter(|| op.knows("P1", &p).unwrap())
    });
    group.finish();
}

/// Solver-level cases. The group keeps its historical `parallel_pool` name
/// (and each case its `_serial` suffix) so `bench_diff` still matches the
/// committed baselines; every case runs on the calling thread.
fn solver_cases(c: &mut Criterion) {
    use kpt_core::{Kbp, KnowledgeContext};
    use kpt_state::VarSet;
    use kpt_unity::{Program, Statement};

    let mut group = c.benchmark_group("parallel_pool");
    group.sample_size(10);

    // KBP exhaustive search: 2^8 candidate invariants, each needing a
    // knowledge-guard compilation plus an SI fixpoint. A fresh `Kbp` per
    // iteration defeats the candidate ↦ SI memo, so the search itself
    // (not the cache) is what's measured.
    let space = StateSpace::builder()
        .nat_var("i", 9)
        .unwrap()
        .build()
        .unwrap();
    let make_kbp = || {
        Kbp::new(
            Program::builder("bench-kbp", &space)
                .init_str("i = 0")
                .unwrap()
                .process("P", [] as [&str; 0])
                .unwrap()
                .statement(
                    Statement::new("step")
                        .guard_str("i < 8 /\\ ~K{P}(i > 6)")
                        .unwrap()
                        .assign_str("i", "i + 1")
                        .unwrap(),
                )
                .build()
                .unwrap(),
        )
    };
    group.bench_function("solve_exhaustive_serial/256candidates", |b| {
        b.iter(|| make_kbp().solve_exhaustive(16).unwrap())
    });

    // The same search at 2^12 = 4096 candidates.
    let big_space = StateSpace::builder()
        .nat_var("i", 13)
        .unwrap()
        .build()
        .unwrap();
    let make_big_kbp = || {
        Kbp::new(
            Program::builder("bench-kbp-big", &big_space)
                .init_str("i = 0")
                .unwrap()
                .process("P", [] as [&str; 0])
                .unwrap()
                .statement(
                    Statement::new("step")
                        .guard_str("i < 12 /\\ ~K{P}(i > 10)")
                        .unwrap()
                        .assign_str("i", "i + 1")
                        .unwrap(),
                )
                .build()
                .unwrap(),
        )
    };
    group.bench_function("solve_exhaustive_serial/4096candidates", |b| {
        b.iter(|| make_big_kbp().solve_exhaustive(16).unwrap())
    });

    // `K_i p` for eight distinct views over 65536 states, fresh memo per
    // iteration so every eq. (13) sweep is actually computed.
    let kspace = space_with_vars(8, 4);
    let views: Vec<(String, VarSet)> = (0..8)
        .map(|i| {
            (
                format!("P{i}"),
                VarSet::from_vars(kspace.vars().skip(i).take(3)),
            )
        })
        .collect();
    let si = Predicate::from_fn(&kspace, |s| s % 7 != 0);
    let p = Predicate::from_fn(&kspace, |s| s % 3 == 1);
    group.bench_function("knows_all_serial/8views_65536states", |b| {
        b.iter(|| {
            KnowledgeContext::new(&kspace, views.clone(), si.clone())
                .unwrap()
                .knows_all(&p)
        })
    });
    group.finish();
}

fn main() {
    let (config, _fast) = kpt_bench::report_config("BENCH_kernels.json", 10, 20);
    let mut c = Criterion::with_config(config);
    quantifier_cases(&mut c);
    fixpoint_cases(&mut c);
    knowledge_cases(&mut c);
    solver_cases(&mut c);

    // Speedup table: pair `kernel_*`/`naive_*`, `frontier_*`/`kleene_*`,
    // `*_warm`/`*_cold` cases within each group.
    println!("\n== speedups (naive median / optimized median) ==");
    let results = c.results().to_vec();
    let find = |name: &str| {
        results
            .iter()
            .find(|r| format!("{}/{}", r.group, r.case).contains(name))
            .map(|r| r.median_ns)
    };
    let pairs = [
        ("kernel_forall_var/stride1", "naive_forall_var/stride1"),
        ("kernel_forall_var/stride64", "naive_forall_var/stride64"),
        (
            "kernel_forall_var/stride4096",
            "naive_forall_var/stride4096",
        ),
        ("kernel_forall_set", "naive_forall_set"),
        ("frontier_long_chain", "kleene_long_chain"),
        ("frontier_wide", "kleene_wide"),
        ("knows_warm", "knows_cold"),
    ];
    for (opt, naive) in pairs {
        if let (Some(o), Some(n)) = (find(opt), find(naive)) {
            println!("{:<44} {:>8.1}x", format!("{naive} vs {opt}"), n / o);
        }
    }
    c.final_summary();
}
