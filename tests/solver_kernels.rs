//! Differential suites for the solver kernels: for random programs and
//! transition systems, each optimized kernel must return predicates
//! **bit-identical** to its reference — per-view `knows_view` for
//! `knows_all` and `E_G`, per-statement `sp_naive`/`wp_naive` for
//! `sp_union`/`wp_inter`, and the Kleene `sst` chain for the frontier
//! `SI` fixpoint.

mod common;

use common::{pred_from_mask, program_spec};
use knowledge_pt::prelude::*;
use kpt_core::KnowledgeContext;
use kpt_testkit::check;
use kpt_transformers::{sst_frontier, sst_frontier_with_stats, sst_with_stats, wp_inter};

// ---------------------------------------------------------------------
// (1) KnowledgeContext::knows_all and E_G ≡ per-view knows.
// ---------------------------------------------------------------------

#[test]
fn knows_all_matches_per_view_knows_on_random_programs() {
    check("knows_all_differential", 24, |rng| {
        let spec = program_spec(rng);
        let compiled = spec.compile();
        let p = pred_from_mask(compiled.space(), rng.next_u64());
        // Reference on a fresh context (no shared memo effects).
        let reference = KnowledgeContext::for_program(&compiled);
        let expect: Vec<(String, Predicate)> = reference
            .views()
            .iter()
            .map(|(name, view)| (name.clone(), reference.knows_view(*view, &p)))
            .collect();
        let ctx = KnowledgeContext::for_program(&compiled);
        assert_eq!(ctx.knows_all(&p), expect, "{spec:?}");
        // E_G over all processes equals the conjunction of the K_i.
        let names: Vec<&str> = expect.iter().map(|(n, _)| n.as_str()).collect();
        let mut conj = Predicate::tt(compiled.space());
        for (_, k) in &expect {
            conj = conj.and(k);
        }
        assert_eq!(ctx.everyone(&names, &p).unwrap(), conj, "{spec:?}");
    });
}

// ---------------------------------------------------------------------
// (2) Program-level sp/wp ≡ per-statement references, and the SI
//     fixpoints on top.
// ---------------------------------------------------------------------

fn random_transitions(rng: &mut kpt_testkit::Rng, n: u64, count: usize) -> Vec<DetTransition> {
    let space = StateSpace::builder()
        .nat_var("i", n)
        .unwrap()
        .build()
        .unwrap();
    (0..count)
        .map(|_| {
            let a = rng.gen_range(1..n);
            let b = rng.below(n);
            let kind = rng.below(3);
            DetTransition::from_fn(&space, move |s| match kind {
                0 => (s + a) % n,
                1 => s.saturating_sub(a),
                _ => {
                    if s % 3 == 0 {
                        b
                    } else {
                        s
                    }
                }
            })
        })
        .collect()
}

#[test]
fn sp_union_and_wp_inter_match_per_statement_references() {
    check("sp_wp_reference_differential", 16, |rng| {
        let n = 257 + rng.below(256);
        let count = 2 + rng.below(6) as usize;
        let ts = random_transitions(rng, n, count);
        let space = ts[0].space().clone();
        let p = pred_from_mask(&space, rng.next_u64() | 1);
        let mut want_sp = Predicate::ff(&space);
        let mut want_wp = Predicate::tt(&space);
        for t in &ts {
            want_sp = want_sp.or(&t.sp_naive(&p));
            want_wp = want_wp.and(&t.wp_naive(&p));
        }
        assert_eq!(sp_union(&ts, &p), want_sp, "{n} states x{count} stmts");
        assert_eq!(wp_inter(&ts, &p), want_wp, "{n} states x{count} stmts");
    });
}

#[test]
fn frontier_si_fixpoint_matches_kleene_sst() {
    // The frontier fixpoint rides sp_union on each round's new states
    // only; its result must equal the Kleene chain over the whole-set SP.
    check("frontier_fixpoint_differential", 6, |rng| {
        let n = 2048 + rng.below(1024);
        let ts = random_transitions(rng, n, 8);
        let space = ts[0].space().clone();
        let init = Predicate::from_indices(&space, [rng.below(n)]);
        let ts2 = ts.clone();
        let kleene_sp = FnTransformer::new(&space, "SP", move |p: &Predicate| sp_union(&ts2, p));
        assert_eq!(sst_frontier(&ts, &init), sst(&kleene_sp, &init));
    });
}

#[test]
fn frontier_and_kleene_iteration_counts_agree_on_random_transition_systems() {
    // Both `FixpointStats.iterations` counts are "max BFS depth + 2": the
    // Kleene chain adds one layer per application plus the confirming
    // application, and the frontier loop runs one round per layer plus the
    // empty-frontier round. The diagnostics feed BENCH comparisons and the
    // fixpoint.* metrics, so the two implementations must never drift.
    check("fixpoint_iterations_differential", 12, |rng| {
        let n = 64 + rng.below(192);
        let count = 1 + rng.below(5) as usize;
        let ts = random_transitions(rng, n, count);
        let space = ts[0].space().clone();
        let init = pred_from_mask(&space, rng.next_u64() | 1);
        let ts2 = ts.clone();
        let kleene_sp = FnTransformer::new(&space, "SP", move |p: &Predicate| sp_union(&ts2, p));
        let (kleene_reach, kleene_stats) = sst_with_stats(&kleene_sp, &init);
        let (frontier_reach, frontier_stats) = sst_frontier_with_stats(&ts, &init);
        assert_eq!(frontier_reach, kleene_reach, "{n} states x{count} stmts");
        assert_eq!(
            frontier_stats.iterations, kleene_stats.iterations,
            "iteration counts drifted on {n} states x{count} stmts"
        );
        assert_eq!(frontier_stats.result_states, kleene_stats.result_states);
    });
    // Degenerate edge: from an empty init both converge in one application.
    let space = StateSpace::builder()
        .nat_var("i", 8)
        .unwrap()
        .build()
        .unwrap();
    let t = DetTransition::from_fn(&space, |i| (i + 1) % 8);
    let empty = Predicate::ff(&space);
    let t2 = t.clone();
    let ksp = FnTransformer::new(&space, "SP", move |p: &Predicate| {
        sp_union(std::slice::from_ref(&t2), p)
    });
    let (_, ks) = sst_with_stats(&ksp, &empty);
    let (_, fs) = sst_frontier_with_stats(std::slice::from_ref(&t), &empty);
    assert_eq!(ks.iterations, 1);
    assert_eq!(fs.iterations, 1);
}
