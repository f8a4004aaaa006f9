//! E2/E3 bench: the knowledge operator `K_i` (eq. 13), everyone-knows,
//! common knowledge (gfp) and distributed knowledge, across space sizes.

use kpt_core::KnowledgeContext;
use kpt_state::{Predicate, StateSpace, VarSet};
use kpt_testkit::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn setup(nvars: usize, dom: u64) -> (std::sync::Arc<StateSpace>, KnowledgeContext, Predicate) {
    let mut b = StateSpace::builder();
    for i in 0..nvars {
        b = b.nat_var(&format!("v{i}"), dom).unwrap();
    }
    let space = b.build().unwrap();
    // Three processes with staggered views.
    let views = vec![
        (
            "P0".to_owned(),
            VarSet::from_vars(space.vars().take(nvars / 3 + 1)),
        ),
        (
            "P1".to_owned(),
            VarSet::from_vars(space.vars().skip(nvars / 3).take(nvars / 3 + 1)),
        ),
        (
            "P2".to_owned(),
            VarSet::from_vars(space.vars().skip(2 * nvars / 3)),
        ),
    ];
    let si = Predicate::from_fn(&space, |s| s % 7 != 0);
    let p = Predicate::from_fn(&space, |s| s % 3 == 1);
    let op = KnowledgeContext::new(&space, views, si).unwrap();
    (space, op, p)
}

fn bench_knows(c: &mut Criterion) {
    let mut group = c.benchmark_group("knowledge/knows");
    for nvars in [4usize, 6, 8] {
        let (space, op, p) = setup(nvars, 4);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}states", space.num_states())),
            &(),
            |b, ()| b.iter(|| op.knows("P1", &p).unwrap()),
        );
    }
    group.finish();
}

fn bench_group_knowledge(c: &mut Criterion) {
    let mut group = c.benchmark_group("knowledge/group");
    group.sample_size(20);
    let (_, op, p) = setup(6, 4);
    group.bench_function("everyone", |b| {
        b.iter(|| op.everyone(&["P0", "P1", "P2"], &p).unwrap())
    });
    group.bench_function("common_gfp", |b| {
        b.iter(|| op.common(&["P0", "P1", "P2"], &p).unwrap())
    });
    group.bench_function("distributed", |b| {
        b.iter(|| op.distributed(&["P0", "P1", "P2"], &p).unwrap())
    });
    group.finish();
}

/// The `KnowledgeContext` memo: a repeated `K_i p` query is a hash lookup.
fn bench_memoized_repeat(c: &mut Criterion) {
    let mut group = c.benchmark_group("knowledge/memo");
    let (_, op, p) = setup(8, 4);
    // Warm the cache once, then measure the repeat-query path.
    let _ = op.knows("P1", &p).unwrap();
    group.bench_function("repeat_query_warm", |b| {
        b.iter(|| op.knows("P1", &p).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_knows,
    bench_group_knowledge,
    bench_memoized_repeat
);
criterion_main!(benches);
