//! Fixpoint computations: `sst`, the strongest invariant, and generic
//! least/greatest fixpoints on the (finite) lattice of predicates.
//!
//! The paper defines (eq. 1) `sst.p` as the strongest `x` with
//! `[SP.x ⇒ x] ∧ [p ⇒ x]`, and computes it (eq. 3) as
//! `sst.p = (∃ i : 0 ≤ i : f^i.false)` where `f.x = SP.x ∨ p`. On a finite
//! space the chain stabilises, so [`sst`] is exact. The *strongest
//! invariant* is `SI = sst.init` (§2), characterising the reachable states.
//!
//! The knowledge-based programs of §4 replace that monotone chain by the
//! non-monotone iteration of eq. (25), `x_{k+1} = SI(program[K @ x_k])`,
//! which may converge, cycle (Figure 1), or run out of budget;
//! [`iterate_to_fixpoint`] drives it for every backend and caller.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash};

use kpt_state::{Predicate, PredicateOps};

use crate::transformer::Transformer;
use crate::transition::DetTransition;

/// Diagnostics from a fixpoint computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixpointStats {
    /// Number of times the generating function was applied.
    pub iterations: usize,
    /// Number of states in the resulting predicate.
    pub result_states: u64,
}

/// Least fixpoint of a (presumed monotone) function on predicates, computed
/// by Kleene iteration from `false`.
///
/// On a finite space the iteration reaches a fixpoint of any *monotone* `f`
/// after at most `num_states + 1` steps. For safety against non-monotone
/// functions (which arise from knowledge-based protocols — §4!), iteration
/// is capped and `None` is returned if no fixpoint is found.
pub fn lfp<F: FnMut(&Predicate) -> Predicate>(
    space: &std::sync::Arc<kpt_state::StateSpace>,
    f: F,
) -> Option<(Predicate, FixpointStats)> {
    kleene("lfp", Predicate::ff(space), f)
}

/// Kleene iteration of `f` from `start` under a `fixpoint.kleene` span
/// tagged with `dir`, capped at `num_states + 2` applications; a converged
/// run is folded into the `fixpoint.kleene.*` metrics.
fn kleene<F: FnMut(&Predicate) -> Predicate>(
    dir: &'static str,
    start: Predicate,
    mut f: F,
) -> Option<(Predicate, FixpointStats)> {
    let mut span = kpt_obs::span("fixpoint.kleene");
    span.field("dir", dir);
    let cap = start.space().num_states() as usize + 2;
    let mut x = start;
    for i in 0..cap {
        let next = f(&x);
        if next == x {
            let stats = FixpointStats {
                iterations: i + 1,
                result_states: next.count(),
            };
            kpt_obs::counter!("fixpoint.kleene.runs").incr();
            kpt_obs::counter!("fixpoint.kleene.iterations").add(stats.iterations as u64);
            kpt_obs::histogram!("fixpoint.kleene.result_states").record(stats.result_states);
            span.field("iterations", stats.iterations as u64);
            span.field("result_states", stats.result_states);
            span.finish();
            return Some((x, stats));
        }
        x = next;
    }
    span.field("converged", false);
    span.finish();
    None
}

/// Greatest fixpoint by Kleene iteration from `true`; same caveats as
/// [`lfp`]. Used for greatest-fixpoint style definitions such as common
/// knowledge `C_G`.
pub fn gfp<F: FnMut(&Predicate) -> Predicate>(
    space: &std::sync::Arc<kpt_state::StateSpace>,
    f: F,
) -> Option<(Predicate, FixpointStats)> {
    kleene("gfp", Predicate::tt(space), f)
}

/// `sst.p`: the strongest stable predicate weaker than `p` (eq. 1),
/// computed via eq. (3) as the least fixpoint of `f.x = SP.x ∨ p`.
///
/// For a monotone, or-continuous `SP` (true of every standard UNITY
/// program, eq. 26) this exists and is unique (eq. 2).
///
/// # Panics
/// Panics if the iteration fails to converge, which cannot happen for a
/// genuinely monotone `sp` on a finite space.
#[must_use]
pub fn sst(sp: &dyn Transformer, p: &Predicate) -> Predicate {
    sst_with_stats(sp, p).0
}

/// [`sst`] with iteration diagnostics (for benchmarking the fixpoint).
#[must_use]
pub fn sst_with_stats(sp: &dyn Transformer, p: &Predicate) -> (Predicate, FixpointStats) {
    lfp(sp.space(), |x| {
        let mut next = sp.apply(x);
        next.or_assign(p);
        next
    })
    .expect("sst iteration converges for monotone SP on a finite space")
}

/// The strongest invariant `SI = sst.init`: the exact set of reachable
/// states of a program whose transition semantics is `sp` (eq. 5 uses this
/// to define `invariant p ≡ [SI ⇒ p]`).
#[must_use]
pub fn strongest_invariant(sp: &dyn Transformer, init: &Predicate) -> Predicate {
    sst(sp, init)
}

/// [`sst`] specialised to a program given as deterministic transitions
/// (the standard UNITY case, eq. 26, where `SP.p = (∃ s :: sp.s.p)`),
/// computed by frontier propagation: each round applies every transition to
/// only the states discovered in the previous round, instead of re-imaging
/// the whole accumulated set as Kleene iteration does.
///
/// This is sound precisely because the program-level `SP` is a *union* of
/// images — so the image of `reach ∪ frontier` is the union of the images,
/// and the image of `reach` was already folded in on earlier rounds. Total
/// work is `O(|statements| · |reachable|)` successor probes (each state is
/// on the frontier exactly once) versus the Kleene chain's
/// `O(rounds · |statements| · |reachable|)`.
#[must_use]
pub fn sst_frontier(transitions: &[DetTransition], p: &Predicate) -> Predicate {
    sst_frontier_with_stats(transitions, p).0
}

/// [`sst_frontier`] with iteration diagnostics. `iterations` counts
/// propagation rounds plus the final empty-frontier check, matching the
/// Kleene count of [`sst_with_stats`] on a chain.
#[must_use]
pub fn sst_frontier_with_stats(
    transitions: &[DetTransition],
    p: &Predicate,
) -> (Predicate, FixpointStats) {
    let mut span = kpt_obs::span("fixpoint.frontier");
    span.field("statements", transitions.len() as u64);
    let report = kpt_obs::progress_wanted();
    let frontier_hist = kpt_obs::histogram!("fixpoint.frontier.size");
    let mut reach = p.clone();
    let mut frontier = p.clone();
    let mut iterations = 1;
    while !frontier.is_false() {
        iterations += 1;
        if report {
            // Per-round frontier sizes are only for watchers: counting a
            // bitset is a full sweep, too costly for the always-on path.
            let size = frontier.count();
            frontier_hist.record(size);
            // One progress call per propagation round, parented under
            // this fixpoint's span while tracing.
            kpt_obs::progress(
                "fixpoint.frontier.progress",
                &[
                    ("round", iterations.into()),
                    ("frontier_states", size.into()),
                ],
            );
        }
        // Image of the frontier under every statement, scattered into one
        // fresh buffer; the new frontier is whatever wasn't reached before.
        let mut next = crate::transition::sp_union(transitions, &frontier);
        next.minus_assign(&reach);
        if next.is_false() {
            break;
        }
        reach.or_assign(&next);
        frontier = next;
    }
    let result_states = reach.count();
    kpt_obs::counter!("fixpoint.frontier.runs").incr();
    kpt_obs::counter!("fixpoint.frontier.rounds").add(iterations as u64);
    span.field("iterations", iterations as u64);
    span.field("result_states", result_states);
    span.finish();
    (
        reach,
        FixpointStats {
            iterations,
            result_states,
        },
    )
}

/// The strongest invariant computed by frontier propagation — the fast path
/// for programs available as transition lists.
#[must_use]
pub fn strongest_invariant_frontier(transitions: &[DetTransition], init: &Predicate) -> Predicate {
    sst_frontier(transitions, init)
}

/// Whether `p` is stable under `sp`: `[SP.p ⇒ p]` (§2).
#[must_use]
pub fn is_stable(sp: &dyn Transformer, p: &Predicate) -> bool {
    sp.apply(p).entails(p)
}

/// The outcome of [`iterate_to_fixpoint`]: eq. (25)'s iteration over
/// predicates of type `P` — `kpt_core::IterativeOutcome` over bitsets,
/// `kpt_bdd::SymbolicOutcome` over BDD roots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IterativeOutcome<P = Predicate> {
    /// The iteration reached a fixpoint `x = step(x)` — for eq. (25), a
    /// verified solution.
    Converged {
        /// The solution.
        solution: P,
        /// Iterations used.
        iterations: usize,
    },
    /// The iteration entered a cycle of the given period — strong evidence
    /// (though not proof) of Figure-1-style ill-posedness; exhaustive
    /// search (`kpt_core::Kbp::solve_exhaustive`) decides small spaces.
    Cycle {
        /// Length of the cycle.
        period: usize,
        /// Iterations before entering the cycle.
        entered_after: usize,
    },
    /// The iteration budget ran out.
    Inconclusive {
        /// Iterations used.
        iterations: usize,
    },
}

impl<P> IterativeOutcome<P> {
    /// The solution, if the iteration converged.
    pub fn solution(&self) -> Option<&P> {
        match self {
            IterativeOutcome::Converged { solution, .. } => Some(solution),
            _ => None,
        }
    }

    /// The same outcome with the solution converted by `f` (e.g. a
    /// symbolic solution to its explicit bitset, for differential checks).
    #[must_use]
    pub fn map<Q>(self, f: impl FnOnce(P) -> Q) -> IterativeOutcome<Q> {
        match self {
            IterativeOutcome::Converged {
                solution,
                iterations,
            } => IterativeOutcome::Converged {
                solution: f(solution),
                iterations,
            },
            IterativeOutcome::Cycle {
                period,
                entered_after,
            } => IterativeOutcome::Cycle {
                period,
                entered_after,
            },
            IterativeOutcome::Inconclusive { iterations } => {
                IterativeOutcome::Inconclusive { iterations }
            }
        }
    }
}

/// The eq. (25) iteration: iterate `x_{k+1} = step(x_k)` from `x_0 = init`
/// for at most `max_iterations` steps, stopping at the first fixpoint
/// (`Converged`) or the first candidate seen before (`Cycle`).
///
/// Cycle detection keeps every candidate with its first-seen index in a
/// hash map, so each step costs one lookup whatever the history length.
/// Every step reports a `progress_kind` [`kpt_obs::progress`] call
/// (`iteration`, `candidate_states`, `converged`) when a progress sink is
/// in scope or tracing is on; under tracing the steps sit in a
/// `span_kind` span, which closes with the outcome. A step error is returned as is, and `step` is
/// not called again.
///
/// # Errors
/// The first error `step` returns.
pub fn iterate_to_fixpoint<P, E>(
    init: P,
    max_iterations: usize,
    span_kind: &str,
    progress_kind: &str,
    mut step: impl FnMut(&P) -> Result<P, E>,
) -> Result<IterativeOutcome<P>, E>
where
    P: PredicateOps + Eq + Hash,
{
    let mut span = kpt_obs::span(span_kind);
    let report = kpt_obs::progress_wanted();
    // Fixed-key hashing: the candidates are the solver's own, and the
    // map's layout (so the order its candidates are freed in) is then the
    // same in every process.
    let mut seen: HashMap<P, usize, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    seen.insert(init.clone(), 0);
    let mut x = init;
    for k in 1..=max_iterations {
        let next = step(&x)?;
        if report {
            kpt_obs::progress(
                progress_kind,
                &[
                    ("iteration", k.into()),
                    ("candidate_states", next.count().into()),
                    ("converged", (next == x).into()),
                ],
            );
        }
        if next == x {
            span.field("outcome", "converged");
            span.field("iterations", k as u64);
            span.finish();
            return Ok(IterativeOutcome::Converged {
                solution: x,
                iterations: k,
            });
        }
        if let Some(&pos) = seen.get(&next) {
            span.field("outcome", "cycle");
            span.field("period", (k - pos) as u64);
            span.finish();
            return Ok(IterativeOutcome::Cycle {
                period: k - pos,
                entered_after: pos,
            });
        }
        seen.insert(next.clone(), k);
        x = next;
    }
    span.field("outcome", "inconclusive");
    span.field("iterations", max_iterations as u64);
    span.finish();
    Ok(IterativeOutcome::Inconclusive {
        iterations: max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transformer::FnTransformer;
    use crate::transition::{sp_union, DetTransition};
    use kpt_state::{Predicate, StateSpace};
    use std::sync::Arc;

    fn space(n: u64) -> Arc<StateSpace> {
        StateSpace::builder()
            .nat_var("i", n)
            .unwrap()
            .build()
            .unwrap()
    }

    fn counter_sp(s: &Arc<StateSpace>, n: u64) -> FnTransformer<impl Fn(&Predicate) -> Predicate> {
        let t = DetTransition::from_fn(s, move |i| if i + 1 < n { i + 1 } else { i });
        FnTransformer::new(s, "SP", move |p: &Predicate| {
            sp_union(std::slice::from_ref(&t), p)
        })
    }

    #[test]
    fn sst_of_init_is_reachable_set() {
        let s = space(8);
        let sp = counter_sp(&s, 8);
        let init = Predicate::from_indices(&s, [3]);
        let si = strongest_invariant(&sp, &init);
        assert_eq!(si.iter().collect::<Vec<_>>(), vec![3, 4, 5, 6, 7]);
    }

    #[test]
    fn sst_is_stable_and_weaker_than_p() {
        let s = space(8);
        let sp = counter_sp(&s, 8);
        let p = Predicate::from_indices(&s, [1, 5]);
        let x = sst(&sp, &p);
        // [p ⇒ sst.p]
        assert!(p.entails(&x));
        // [SP.(sst.p) ⇒ sst.p]
        assert!(is_stable(&sp, &x));
    }

    #[test]
    fn sst_is_strongest_such_predicate() {
        // Exhaustive check of extremality on a small space: any stable q
        // weaker than p contains sst.p.
        let s = space(5);
        let sp = counter_sp(&s, 5);
        let p = Predicate::from_indices(&s, [2]);
        let x = sst(&sp, &p);
        for qi in 0..(1u64 << 5) {
            let q = Predicate::from_fn(&s, |idx| qi >> idx & 1 == 1);
            if p.entails(&q) && is_stable(&sp, &q) {
                assert!(x.entails(&q), "sst not strongest vs {qi:05b}");
            }
        }
    }

    #[test]
    fn sst_monotonic_in_p() {
        // Eq. (4): sst is monotonic (for constant programs).
        let s = space(6);
        let sp = counter_sp(&s, 6);
        for pi in 0..(1u64 << 6) {
            let p = Predicate::from_fn(&s, |idx| pi >> idx & 1 == 1);
            let q = p.or(&Predicate::from_indices(&s, [0]));
            assert!(sst(&sp, &p).entails(&sst(&sp, &q)));
        }
    }

    #[test]
    fn lfp_detects_non_convergence() {
        // A non-monotone alternating function has no Kleene fixpoint.
        let s = space(2);
        let r = lfp(&s, |x: &Predicate| x.negate());
        assert!(r.is_none());
    }

    #[test]
    fn gfp_from_true() {
        let s = space(4);
        let keep = Predicate::from_indices(&s, [1, 2]);
        let (g, stats) = gfp(&s, |x: &Predicate| x.and(&keep)).unwrap();
        assert_eq!(g, keep);
        assert!(stats.iterations >= 2);
    }

    #[test]
    fn stats_report_iterations() {
        let s = space(16);
        let sp = counter_sp(&s, 16);
        let init = Predicate::from_indices(&s, [0]);
        let (si, stats) = sst_with_stats(&sp, &init);
        assert!(si.everywhere());
        // Chain grows one state per iteration: ~16 iterations.
        assert!(stats.iterations >= 16, "iterations = {}", stats.iterations);
        assert_eq!(stats.result_states, 16);
    }

    #[test]
    fn empty_init_gives_empty_si() {
        let s = space(4);
        let sp = counter_sp(&s, 4);
        let si = strongest_invariant(&sp, &Predicate::ff(&s));
        assert!(si.is_false());
    }

    #[test]
    fn frontier_sst_matches_kleene() {
        let s = space(16);
        let n = 16;
        let ts = vec![
            DetTransition::from_fn(&s, move |i| if i + 1 < n { i + 1 } else { i }),
            DetTransition::from_fn(&s, |i| if i % 3 == 0 { i / 2 } else { i }),
        ];
        let ts2 = ts.clone();
        let sp = FnTransformer::new(&s, "SP", move |p: &Predicate| sp_union(&ts2, p));
        for init_bits in [0u64, 1, 1 << 7, 0b1001_0000_0010, (1 << 16) - 1] {
            let init = Predicate::from_fn(&s, |idx| init_bits >> idx & 1 == 1);
            assert_eq!(
                sst_frontier(&ts, &init),
                sst(&sp, &init),
                "init {init_bits:b}"
            );
        }
    }

    #[test]
    fn frontier_sst_empty_cases() {
        let s = space(4);
        let ts: Vec<DetTransition> = vec![];
        let p = Predicate::from_indices(&s, [2]);
        // No statements: sst.p = p.
        assert_eq!(sst_frontier(&ts, &p), p);
        // Empty seed: sst.false = false.
        let t = DetTransition::identity(&s);
        assert!(sst_frontier(std::slice::from_ref(&t), &Predicate::ff(&s)).is_false());
    }

    #[test]
    fn frontier_stats_count_rounds() {
        let s = space(16);
        let t = DetTransition::from_fn(&s, |i| if i + 1 < 16 { i + 1 } else { i });
        let init = Predicate::from_indices(&s, [0]);
        let (si, stats) = sst_frontier_with_stats(std::slice::from_ref(&t), &init);
        assert!(si.everywhere());
        assert!(stats.iterations >= 16, "iterations = {}", stats.iterations);
        assert_eq!(stats.result_states, 16);
    }

    /// A 32-state predicate in one word: enough [`PredicateOps`] for
    /// [`iterate_to_fixpoint`], with no engine behind it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Bits(u32);

    impl PredicateOps for Bits {
        fn and(&self, o: &Self) -> Self {
            Bits(self.0 & o.0)
        }
        fn or(&self, o: &Self) -> Self {
            Bits(self.0 | o.0)
        }
        fn negate(&self) -> Self {
            Bits(!self.0)
        }
        fn implies(&self, o: &Self) -> Self {
            Bits(!self.0 | o.0)
        }
        fn iff(&self, o: &Self) -> Self {
            Bits(!(self.0 ^ o.0))
        }
        fn is_false(&self) -> bool {
            self.0 == 0
        }
        fn everywhere(&self) -> bool {
            self.0 == u32::MAX
        }
        fn entails(&self, o: &Self) -> bool {
            self.0 & !o.0 == 0
        }
        fn count(&self) -> u64 {
            u64::from(self.0.count_ones())
        }
        fn holds(&self, state: u64) -> bool {
            state < 32 && self.0 >> state & 1 == 1
        }
    }

    /// Drive the iteration along the fixed successor table `next`,
    /// counting calls of the step function.
    fn run(
        next: &[u32],
        max_iterations: usize,
        fail_at: Option<usize>,
    ) -> (Result<IterativeOutcome<Bits>, usize>, usize) {
        let mut calls = 0;
        let outcome = iterate_to_fixpoint(
            Bits(0),
            max_iterations,
            "test.iterative",
            "test.progress",
            |x: &Bits| {
                calls += 1;
                if fail_at == Some(calls) {
                    return Err(calls);
                }
                Ok(Bits(next[x.0 as usize]))
            },
        );
        (outcome, calls)
    }

    #[test]
    fn iteration_finds_the_period_and_tail_of_a_rho() {
        // 0 → 1 → 2 → 3 → 4 → 5 → 6 → 3: a 3-step tail into a 4-cycle.
        let rho = [1, 2, 3, 4, 5, 6, 3];
        let (outcome, calls) = run(&rho, 64, None);
        assert_eq!(
            outcome,
            Ok(IterativeOutcome::Cycle {
                period: 4,
                entered_after: 3
            })
        );
        assert_eq!(calls, 7);
    }

    #[test]
    fn iteration_converges_on_an_immediate_fixpoint() {
        let (outcome, calls) = run(&[0], 64, None);
        assert_eq!(
            outcome,
            Ok(IterativeOutcome::Converged {
                solution: Bits(0),
                iterations: 1
            })
        );
        assert_eq!(calls, 1);
    }

    #[test]
    fn iteration_with_no_budget_is_inconclusive_without_stepping() {
        let (outcome, calls) = run(&[1, 0], 0, None);
        assert_eq!(
            outcome,
            Ok(IterativeOutcome::Inconclusive { iterations: 0 })
        );
        assert_eq!(calls, 0);
    }

    #[test]
    fn iteration_propagates_a_step_error_and_stops() {
        // A long chain that would neither converge nor cycle in time.
        let chain: Vec<u32> = (1..=16).collect();
        let (outcome, calls) = run(&chain, 10, Some(3));
        assert_eq!(outcome, Err(3));
        assert_eq!(calls, 3, "no step after the failing one");
    }
}
