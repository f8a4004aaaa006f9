//! Frontier-style symbolic fixpoints: `sst` closure and the strongest
//! invariant `SI` (paper eqs. 1/3/5) over BDD transition relations.
//!
//! Each round images only the *frontier* (states discovered last round),
//! exactly like `kpt_transformers::sst_frontier`, but the image is a
//! relational product instead of a bitset scatter — early-quantified over
//! the conjunctive partition when the relation has one. Convergence is the
//! O(1) root-id comparison that restricted canonical roots buy.
//!
//! The end of every round is a *safe point*: no recursion is in flight, and
//! every intermediate the loop still needs (`reached`, the frontier, the
//! relation roots) is handed to [`Manager::checkpoint`] as a temporary
//! root. That is where the configured garbage collection and dynamic
//! reordering policies run, and where [`symbolic_sst_bounded`] measures its
//! live-node budget — after cleanup, so engines whose policies shrink the
//! working set can finish inside budgets a grow-only engine exhausts.

use crate::error::BddError;
use crate::manager::{Manager, NodeId, FALSE};
use crate::predicate::SymbolicPredicate;
use crate::space::BddSpace;
use crate::transition::{ImageRel, SymbolicTransition};

/// Round-by-round behaviour of one symbolic fixpoint run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymbolicFixpointStats {
    /// Frontier rounds until the frontier emptied.
    pub rounds: u64,
    /// Reachable ROBDD nodes of the final fixpoint.
    pub nodes: usize,
}

/// `sst.p`: the strongest predicate stable under every transition that is
/// implied by `p` — the reachable closure of `p`.
pub fn symbolic_sst(
    p: &SymbolicPredicate,
    transitions: &[SymbolicTransition],
) -> SymbolicPredicate {
    symbolic_sst_with_stats(p, transitions).0
}

/// [`symbolic_sst`] plus its round/node statistics.
pub fn symbolic_sst_with_stats(
    p: &SymbolicPredicate,
    transitions: &[SymbolicTransition],
) -> (SymbolicPredicate, SymbolicFixpointStats) {
    let (si, stats) = run_sst(p, transitions, usize::MAX).expect("unbounded sst cannot trip");
    (si, stats)
}

/// [`symbolic_sst`] under a live-node budget: fails with
/// [`BddError::NodeBudgetExceeded`] if, after any round's garbage
/// collection and reordering, more than `max_live_nodes` internal nodes
/// remain allocated. This is the honest way to compare engine
/// configurations: the budget bounds *memory*, and only configurations
/// whose policies keep the diagrams small converge inside it.
pub fn symbolic_sst_bounded(
    p: &SymbolicPredicate,
    transitions: &[SymbolicTransition],
    max_live_nodes: usize,
) -> Result<(SymbolicPredicate, SymbolicFixpointStats), BddError> {
    run_sst(p, transitions, max_live_nodes)
}

fn run_sst(
    p: &SymbolicPredicate,
    transitions: &[SymbolicTransition],
    max_live_nodes: usize,
) -> Result<(SymbolicPredicate, SymbolicFixpointStats), BddError> {
    let space = p.space();
    for t in transitions {
        assert!(
            std::sync::Arc::ptr_eq(t.space(), space),
            "transition from a different BDD space"
        );
    }
    let mut mgr = space.lock();
    let rels: Vec<ImageRel<'_>> = transitions.iter().map(|t| t.image_rel()).collect();
    let out = sst_raw_bounded(space, &mut mgr, p.root(), &rels, max_live_nodes);
    drop(mgr);
    let (root, stats) = out?;
    kpt_obs::histogram!("bdd.si.nodes").record(stats.nodes as u64);
    let si = SymbolicPredicate::new(space, root);
    space.lock().release_root(root); // the loop's own reference, now covered by `si`
    Ok((si, stats))
}

/// The paper's `SI`: `sst` of the initial condition.
pub fn symbolic_strongest_invariant(
    transitions: &[SymbolicTransition],
    init: &SymbolicPredicate,
) -> SymbolicPredicate {
    symbolic_sst(init, transitions)
}

/// On success the returned root carries **one external root reference**
/// owned by the caller (released once the caller has taken its own).
/// Holding real roots — not just checkpoint temporaries — on the loop's
/// working set is what makes `reached`/`frontier` count as *live*, so the
/// GC dead-fraction, the sifting trigger, and the node budget all see the
/// fixpoint's actual memory.
pub(crate) fn sst_raw_bounded(
    space: &BddSpace,
    mgr: &mut Manager,
    init: NodeId,
    rels: &[ImageRel<'_>],
    max_live_nodes: usize,
) -> Result<(NodeId, SymbolicFixpointStats), BddError> {
    let mut span = kpt_obs::span("bdd.fixpoint");
    let report = kpt_obs::progress_wanted();
    kpt_obs::counter!("bdd.fixpoint.runs").incr();
    let mut temps: Vec<NodeId> = vec![init];
    for rel in rels {
        rel.push_temp_roots(&mut temps);
    }
    let mut reached = init;
    let mut frontier = init;
    mgr.add_root(reached);
    mgr.add_root(frontier);
    let mut rounds = 0u64;
    while frontier != FALSE {
        rounds += 1;
        kpt_obs::counter!("bdd.fixpoint.rounds").incr();
        let mut image = FALSE;
        for rel in rels {
            let img = rel.image(space, mgr, frontier);
            image = mgr.or(image, img);
        }
        let not_reached = mgr.not(reached);
        let new_frontier = mgr.and(image, not_reached);
        let new_reached = mgr.or(reached, new_frontier);
        mgr.add_root(new_frontier);
        mgr.add_root(new_reached);
        mgr.release_root(frontier);
        mgr.release_root(reached);
        frontier = new_frontier;
        reached = new_reached;
        // Safe point: no recursion in flight, the working set rooted.
        // GC and sifting run here if their policies say so.
        mgr.checkpoint(&temps);
        let live = mgr.live_nodes();
        if report {
            // The streaming primitive long solves expose to watchers
            // (kpt-server clients, traces): one call per round with the
            // sizes that predict how far convergence is.
            kpt_obs::progress(
                "bdd.fixpoint.progress",
                &[
                    ("round", rounds.into()),
                    ("frontier_nodes", mgr.reachable_nodes(frontier).into()),
                    ("reached_nodes", mgr.reachable_nodes(reached).into()),
                    ("live_nodes", live.into()),
                ],
            );
        }
        if live > max_live_nodes {
            mgr.release_root(frontier);
            mgr.release_root(reached);
            span.field("rounds", rounds);
            span.field("outcome", "budget_exceeded");
            return Err(BddError::NodeBudgetExceeded {
                nodes: live,
                budget: max_live_nodes,
                rounds,
            });
        }
    }
    mgr.release_root(frontier); // the FALSE terminal: a no-op
    let nodes = mgr.reachable_nodes(reached);
    span.field("rounds", rounds);
    span.field("nodes", nodes as u64);
    span.finish();
    Ok((reached, SymbolicFixpointStats { rounds, nodes }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::{BddConfig, GcPolicy};
    use crate::space::BddSpace;
    use kpt_state::StateSpace;

    #[test]
    fn counter_chain_reaches_everything_above_init() {
        let space = StateSpace::builder()
            .nat_var("i", 10)
            .unwrap()
            .build()
            .unwrap();
        let bdd = BddSpace::new(&space);
        let i = space.var("i").unwrap();
        let guard = SymbolicPredicate::from_var_fn(&bdd, i, |x| x < 9);
        let inc = SymbolicTransition::builder(&bdd)
            .guard(&guard)
            .assign(i, &[i], |v| v[0] + 1)
            .build()
            .unwrap();
        let init = SymbolicPredicate::var_eq(&bdd, i, 3);
        let (si, stats) = symbolic_sst_with_stats(&init, std::slice::from_ref(&inc));
        assert_eq!(si.count(), 7); // 3..=9
        assert!(si.entails(&SymbolicPredicate::from_var_fn(&bdd, i, |x| x >= 3)));
        assert_eq!(stats.rounds, 7); // 6 discovery rounds + 1 empty round
    }

    #[test]
    fn si_is_a_fixed_point() {
        let space = StateSpace::builder()
            .nat_var("i", 8)
            .unwrap()
            .build()
            .unwrap();
        let bdd = BddSpace::new(&space);
        let i = space.var("i").unwrap();
        let dec = SymbolicTransition::builder(&bdd)
            .assign(i, &[i], |v| v[0].saturating_sub(1))
            .build()
            .unwrap();
        let init = SymbolicPredicate::var_eq(&bdd, i, 5);
        let si = symbolic_strongest_invariant(std::slice::from_ref(&dec), &init);
        // sp(SI) ⇒ SI and init ⇒ SI.
        assert!(dec.sp(&si).entails(&si));
        assert!(init.entails(&si));
        assert_eq!(si.count(), 6); // 0..=5
                                   // Running sst again from SI is a no-op (canonical equality).
        assert_eq!(symbolic_sst(&si, std::slice::from_ref(&dec)), si);
    }

    #[test]
    fn bounded_sst_trips_on_tiny_budget_and_passes_on_a_real_one() {
        let space = StateSpace::builder()
            .nat_var("i", 32)
            .unwrap()
            .build()
            .unwrap();
        let bdd = BddSpace::new(&space);
        let i = space.var("i").unwrap();
        let guard = SymbolicPredicate::from_var_fn(&bdd, i, |x| x < 31);
        let inc = SymbolicTransition::builder(&bdd)
            .guard(&guard)
            .assign(i, &[i], |v| v[0] + 1)
            .build()
            .unwrap();
        let init = SymbolicPredicate::var_eq(&bdd, i, 0);
        let err = symbolic_sst_bounded(&init, std::slice::from_ref(&inc), 1).unwrap_err();
        assert!(matches!(
            err,
            BddError::NodeBudgetExceeded { budget: 1, .. }
        ));
        let (si, _) = symbolic_sst_bounded(&init, std::slice::from_ref(&inc), 1 << 20).unwrap();
        assert_eq!(si.count(), 32);
    }

    #[test]
    fn gc_during_fixpoint_leaves_the_answer_intact() {
        // An aggressive GC policy sweeps at every round's checkpoint; the
        // fixpoint and its statistics must not change.
        let space = StateSpace::builder()
            .nat_var("i", 24)
            .unwrap()
            .build()
            .unwrap();
        let serial = BddSpace::with_config(&space, BddConfig::serial());
        let swept = BddSpace::with_config(
            &space,
            BddConfig {
                gc: GcPolicy::OnGrowth {
                    min_nodes: 1,
                    dead_percent: 0,
                },
                ..BddConfig::serial()
            },
        );
        let i = space.var("i").unwrap();
        let mut results = Vec::new();
        for bdd in [&serial, &swept] {
            let guard = SymbolicPredicate::from_var_fn(bdd, i, |x| x < 23);
            let inc = SymbolicTransition::builder(bdd)
                .guard(&guard)
                .assign(i, &[i], |v| v[0] + 1)
                .build()
                .unwrap();
            let init = SymbolicPredicate::var_eq(bdd, i, 2);
            let (si, stats) = symbolic_sst_with_stats(&init, std::slice::from_ref(&inc));
            results.push((si.count(), si.to_explicit(), stats.rounds));
        }
        assert_eq!(results[0], results[1]);
        assert!(swept.gc_stats().runs > 0, "aggressive policy must sweep");
    }
}
