//! E4/E5/E9 bench: the knowledge-based-protocol solvers on the paper's
//! Figure 1 (no solution) and Figure 2 (non-monotone), plus exhaustive
//! enumeration scaling with the number of free states.

use kpt_core::{figure1_kpt, figure2, load_kpt, Kbp};
use kpt_state::StateSpace;
use kpt_testkit::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kpt_unity::{Program, Statement};

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("kbp_solver");
    let (_, fig1) = load_kpt(figure1_kpt()).unwrap();
    group.bench_function("fig1_exhaustive_no_solution", |b| {
        b.iter(|| {
            let sols = fig1.solve_exhaustive(16).unwrap();
            assert!(sols.is_empty());
        })
    });
    group.bench_function("fig1_iterative_cycle", |b| {
        b.iter(|| fig1.solve_iterative(32).unwrap())
    });
    for init in ["~y", "~y /\\ x"] {
        let kbp = figure2(init).unwrap();
        group.bench_with_input(
            BenchmarkId::new("fig2_exhaustive", init.replace(' ', "")),
            &kbp,
            |b, kbp| b.iter(|| kbp.solve_exhaustive(16).unwrap()),
        );
    }
    group.finish();
}

/// Exhaustive enumeration scales as 2^free-states: sweep the space size.
fn bench_enumeration_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("kbp_solver/enumeration");
    group.sample_size(10);
    for n in [8u64, 12, 16] {
        let space = StateSpace::builder()
            .nat_var("i", n)
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("count", &space)
            .init_str("i = 0")
            .unwrap()
            .process("P", ["i"])
            .unwrap()
            .statement(
                Statement::new("inc")
                    .guard_formula(
                        kpt_logic::parse_formula(&format!("~K{{P}}(i >= {}) ", n - 1)).unwrap(),
                    )
                    .update_with(move |sp, st| {
                        let v = sp.var("i").unwrap();
                        let cur = sp.value(st, v);
                        if cur + 1 < n {
                            sp.with_value(st, v, cur + 1)
                        } else {
                            st
                        }
                    }),
            )
            .build()
            .unwrap();
        let kbp = Kbp::new(program);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}free_states", n - 1)),
            &kbp,
            |b, kbp| b.iter(|| kbp.solve_exhaustive(20).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_figures, bench_enumeration_scaling);
criterion_main!(benches);
