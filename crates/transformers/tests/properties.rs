//! Property tests for `kpt-transformers`: the sp/wp Galois connection,
//! `sst` extremality and monotonicity (eqs. 1–4) on random deterministic
//! transitions, and differential checks of the moved-set `sp`/`wp`/`step`
//! kernels against the naive per-state references and a plain successor
//! table.

use std::sync::Arc;

use kpt_state::{Predicate, StateSpace};
use kpt_testkit::{check, Rng};
use kpt_transformers::{
    gfp, is_stable, lfp, sp_union, sst, sst_frontier, sst_frontier_with_stats, sst_with_stats,
    strongest_invariant, wp_inter, DetTransition, FnTransformer,
};

fn space(n: u64) -> Arc<StateSpace> {
    StateSpace::builder()
        .nat_var("s", n)
        .unwrap()
        .build()
        .unwrap()
}

fn pred(space: &Arc<StateSpace>, mask: u64) -> Predicate {
    Predicate::from_fn(space, |s| mask >> (s % 64) & 1 == 1)
}

/// A random deterministic transition from a seed: successor of `s` is
/// `hash(s, seed) % n`, deterministic and total.
fn transition(space: &Arc<StateSpace>, seed: u64) -> DetTransition {
    let n = space.num_states();
    DetTransition::from_fn(space, move |s| {
        s.wrapping_mul(6364136223846793005)
            .wrapping_add(seed)
            .rotate_left(17)
            % n
    })
}

#[test]
fn galois_connection() {
    check("galois_connection", 96, |rng| {
        let n = rng.gen_range(2..24);
        let (seed, a, b) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
        let sp = space(n);
        let t = transition(&sp, seed);
        let p = pred(&sp, a);
        let q = pred(&sp, b);
        // [sp.p ⇒ q] ≡ [p ⇒ wp.q]
        assert_eq!(t.sp(&p).entails(&q), p.entails(&t.wp(&q)));
        // wp is universally conjunctive; sp is universally disjunctive.
        assert_eq!(t.wp(&p.and(&q)), t.wp(&p).and(&t.wp(&q)));
        assert_eq!(t.sp(&p.or(&q)), t.sp(&p).or(&t.sp(&q)));
        // Totality/determinism: wp(true) = true, sp preserves emptiness.
        assert!(t.wp(&Predicate::tt(&sp)).everywhere());
        assert!(t.sp(&Predicate::ff(&sp)).is_false());
        // Determinism: wp is also disjunctive (each state has ONE successor).
        assert_eq!(t.wp(&p.or(&q)), t.wp(&p).or(&t.wp(&q)));
    });
}

#[test]
fn sst_laws() {
    check("sst_laws", 64, |rng| {
        let n = rng.gen_range(2..20);
        let (seed, a, b) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
        let sp = space(n);
        let t = transition(&sp, seed);
        let spt = FnTransformer::new(&sp, "SP", move |x: &Predicate| {
            sp_union(std::slice::from_ref(&t), x)
        });
        let p = pred(&sp, a);
        let q = pred(&sp, b);
        let x = sst(&spt, &p);
        // Weaker than p, stable (eq. 1).
        assert!(p.entails(&x));
        assert!(is_stable(&spt, &x));
        // (4) monotone.
        assert!(x.entails(&sst(&spt, &p.or(&q))));
        // Extremal: check against every stable superset only on tiny spaces.
        if n <= 6 {
            for mask in 0..(1u64 << n) {
                let cand = Predicate::from_fn(&sp, |s| mask >> s & 1 == 1);
                if p.entails(&cand) && is_stable(&spt, &cand) {
                    assert!(x.entails(&cand));
                }
            }
        }
        // SI of init=p equals BFS-style closure: sst is idempotent.
        assert_eq!(sst(&spt, &x), x);
    });
}

#[test]
fn lfp_gfp_duality() {
    check("lfp_gfp_duality", 96, |rng| {
        let n = rng.gen_range(2..16);
        let mask = rng.next_u64();
        let sp = space(n);
        let keep = pred(&sp, mask);
        // lfp of (x ∨ keep) from false = keep; gfp of (x ∧ keep) = keep.
        let k1 = keep.clone();
        let (l, _) = lfp(&sp, move |x: &Predicate| x.or(&k1)).unwrap();
        assert_eq!(&l, &keep);
        let k2 = keep.clone();
        let (g, _) = gfp(&sp, move |x: &Predicate| x.and(&k2)).unwrap();
        assert_eq!(&g, &keep);
    });
}

#[test]
fn multi_statement_si_contains_each_statement_si() {
    check("multi_statement_si_contains_each_statement_si", 64, |rng| {
        // Adding statements can only grow the reachable set.
        let n = rng.gen_range(2..16);
        let (s1, s2, a) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
        let sp = space(n);
        let t1 = transition(&sp, s1);
        let t2 = transition(&sp, s2);
        let init = pred(&sp, a | 1).or(&Predicate::from_indices(&sp, [0]));
        let one = FnTransformer::new(&sp, "SP1", {
            let t1 = t1.clone();
            move |x: &Predicate| sp_union(std::slice::from_ref(&t1), x)
        });
        let both = FnTransformer::new(&sp, "SP2", move |x: &Predicate| {
            sp_union(&[t1.clone(), t2.clone()], x)
        });
        let si1 = strongest_invariant(&one, &init);
        let si2 = strongest_invariant(&both, &init);
        assert!(si1.entails(&si2));
    });
}

#[test]
fn wp_inter_is_conjunction_of_wps() {
    check("wp_inter_is_conjunction_of_wps", 64, |rng| {
        let n = rng.gen_range(2..16);
        let (s1, s2, a) = (rng.next_u64(), rng.next_u64(), rng.next_u64());
        let sp = space(n);
        let t1 = transition(&sp, s1);
        let t2 = transition(&sp, s2);
        let p = pred(&sp, a);
        assert_eq!(
            wp_inter(&[t1.clone(), t2.clone()], &p),
            t1.wp(&p).and(&t2.wp(&p))
        );
    });
}

// ---------------------------------------------------------------------------
// Differential tests: optimised kernels vs naive references
// ---------------------------------------------------------------------------

/// Spaces big enough to span several 64-bit words, with independently
/// random per-state membership at varying density.
fn random_pred(space: &Arc<StateSpace>, rng: &mut Rng) -> Predicate {
    let density = rng.gen_range(0..101) as f64 / 100.0;
    Predicate::from_indices(
        space,
        (0..space.num_states()).filter(|_| rng.gen_bool(density)),
    )
}

/// A state count that is not a multiple of 64, so the tail word is partial.
fn ragged_states(rng: &mut Rng) -> u64 {
    64 * rng.gen_range(0..6) + rng.gen_range(2..64)
}

/// A plain successor table in which each state moves with probability
/// `density` (to a different, random state) and is fixed otherwise.
fn successor_oracle(n: u64, density: f64, rng: &mut Rng) -> Vec<u64> {
    (0..n)
        .map(|s| {
            if rng.gen_bool(density) {
                (s + 1 + rng.gen_range(0..n - 1)) % n
            } else {
                s
            }
        })
        .collect()
}

#[test]
fn sp_wp_kernels_match_naive() {
    check("sp_wp_kernels_match_naive", 48, |rng| {
        for density in [0.0, 1.0 / 64.0, 0.5, 1.0] {
            let n = ragged_states(rng);
            let sp = space(n);
            let succ = successor_oracle(n, density, rng);
            let t = DetTransition::from_fn(&sp, |s| succ[s as usize]);
            for s in 0..n {
                assert_eq!(t.step(s), succ[s as usize], "step({s}) on n={n}");
            }
            let fixed = Predicate::from_fn(&sp, |s| succ[s as usize] == s);
            assert_eq!(t.fixed_states(), fixed, "fixed_states on n={n}");
            assert_eq!(t.moved(), &fixed.negate());
            for _ in 0..4 {
                let p = random_pred(&sp, rng);
                let image = Predicate::from_indices(&sp, p.iter().map(|s| succ[s as usize]));
                let preimage = Predicate::from_fn(&sp, |s| p.holds(succ[s as usize]));
                assert_eq!(t.sp(&p), image, "sp on n={n} density={density}");
                assert_eq!(t.sp_naive(&p), image);
                assert_eq!(t.wp(&p), preimage, "wp on n={n} density={density}");
                assert_eq!(t.wp_naive(&p), preimage);
            }
        }
    });
}

#[test]
fn guarded_matches_from_fn() {
    check("guarded_matches_from_fn", 64, |rng| {
        let n = ragged_states(rng);
        let sp = space(n);
        let guard = random_pred(&sp, rng);
        let succ = successor_oracle(n, rng.gen_range(0..101) as f64 / 100.0, rng);
        let mut calls = Vec::new();
        let g = DetTransition::guarded(&sp, &guard, |s| {
            calls.push(s);
            succ[s as usize]
        });
        assert_eq!(calls, guard.iter().collect::<Vec<_>>());
        let f = DetTransition::from_fn(&sp, |s| if guard.holds(s) { succ[s as usize] } else { s });
        assert_eq!(g.moved(), f.moved());
        for s in 0..n {
            assert_eq!(g.step(s), f.step(s), "step({s}) on n={n}");
        }
    });
}

#[test]
fn frontier_sst_matches_kleene_sst() {
    check("frontier_sst_matches_kleene_sst", 64, |rng| {
        let n = rng.gen_range(2..200);
        let sp = space(n);
        let nstmts = rng.gen_range(1..4) as usize;
        let ts: Vec<DetTransition> = (0..nstmts)
            .map(|_| transition(&sp, rng.next_u64()))
            .collect();
        let p = random_pred(&sp, rng);
        let ts2 = ts.clone();
        let spt = FnTransformer::new(&sp, "SP", move |x: &Predicate| sp_union(&ts2, x));
        let (kleene, _) = sst_with_stats(&spt, &p);
        let (frontier, stats) = sst_frontier_with_stats(&ts, &p);
        assert_eq!(frontier, kleene, "n={n} stmts={nstmts}");
        assert_eq!(stats.result_states, kleene.count());
        assert_eq!(sst_frontier(&ts, &p), frontier);
    });
}
