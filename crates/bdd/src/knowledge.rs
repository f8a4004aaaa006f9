//! View-based knowledge, symbolically: the paper's eq. 13
//! `K_V.p = p ∧ (wcyl.V.(SI ⇒ p) ∨ ¬SI)` with the weak cylinder `wcyl.V`
//! realized as universal quantification of the BDD levels outside the view.
//!
//! Mirrors `kpt_core::KnowledgeContext`: the same [`kpt_obs::Memo`], its
//! counters under a `bdd.` prefix, and the same exit breadcrumb event when
//! tracing is live.
//!
//! The operator roots its `SI` and `¬SI` BDDs for its lifetime, but memo
//! *values* are deliberately unrooted — the memo instead records the
//! manager's GC epoch and drops itself wholesale when a sweep has run
//! since it was filled (stale node ids must never escape).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use kpt_logic::EvalError;
use kpt_obs::{CacheStats, Memo};
use kpt_state::VarSet;

use crate::error::BddError;
use crate::manager::{Manager, NodeId};
use crate::predicate::SymbolicPredicate;
use crate::space::BddSpace;

/// The knowledge operator of one program snapshot: a strongest invariant
/// plus named process views, with `K` computed by quantifier elimination.
pub struct SymbolicKnowledge {
    space: Arc<BddSpace>,
    views: Vec<(String, VarSet)>,
    si: NodeId,
    not_si: NodeId,
    memo: Memo<(VarSet, NodeId), NodeId>,
    /// GC epoch the memo's entries were computed in.
    memo_epoch: AtomicU64,
}

impl std::fmt::Debug for SymbolicKnowledge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicKnowledge")
            .field("views", &self.views.len())
            .field("cache", &self.cache_stats())
            .finish()
    }
}

impl SymbolicKnowledge {
    /// Build the operator from a strongest invariant and process views.
    pub fn with_si(
        space: &Arc<BddSpace>,
        views: Vec<(String, VarSet)>,
        si: &SymbolicPredicate,
    ) -> Self {
        let mut mgr = space.lock();
        let not_si = {
            let n = mgr.not(si.root());
            let d = space.domain_ok_cur();
            mgr.and(n, d)
        };
        mgr.add_root(si.root());
        mgr.add_root(not_si);
        let epoch = mgr.epoch();
        drop(mgr);
        SymbolicKnowledge {
            space: Arc::clone(space),
            views,
            si: si.root(),
            not_si,
            memo: Memo::new(
                kpt_obs::counter!("bdd.knowledge.cache.hits"),
                kpt_obs::counter!("bdd.knowledge.cache.misses"),
                kpt_obs::counter!("bdd.knowledge.cache.evictions"),
            ),
            memo_epoch: AtomicU64::new(epoch),
        }
    }

    /// The strongest invariant the operator is relative to.
    pub fn si(&self) -> SymbolicPredicate {
        SymbolicPredicate::new(&self.space, self.si)
    }

    /// The view of a named process.
    ///
    /// # Errors
    /// [`BddError::Eval`] with `UnknownProcess` for undeclared names.
    pub fn view(&self, process: &str) -> Result<VarSet, BddError> {
        self.views
            .iter()
            .find(|(name, _)| name == process)
            .map(|(_, view)| *view)
            .ok_or_else(|| BddError::Eval(EvalError::UnknownProcess(process.to_owned())))
    }

    /// `K_i.p` for a named process (eq. 13).
    ///
    /// # Errors
    /// As for [`SymbolicKnowledge::view`].
    pub fn knows(
        &self,
        process: &str,
        p: &SymbolicPredicate,
    ) -> Result<SymbolicPredicate, BddError> {
        Ok(self.knows_view(self.view(process)?, p))
    }

    /// `K_V.p` for an arbitrary view.
    pub fn knows_view(&self, view: VarSet, p: &SymbolicPredicate) -> SymbolicPredicate {
        let mut mgr = self.space.lock();
        let root = self.knows_view_raw(&mut mgr, view, p.root());
        drop(mgr);
        SymbolicPredicate::new(&self.space, root)
    }

    /// Core computation with the manager lock already held (the symbolic
    /// formula evaluator calls this mid-traversal).
    pub(crate) fn knows_view_raw(&self, mgr: &mut Manager, view: VarSet, p: NodeId) -> NodeId {
        // Memo values are unrooted node ids: if a GC sweep has run since
        // the memo was filled, every entry is suspect — drop them all.
        let epoch = mgr.epoch();
        if self.memo_epoch.swap(epoch, Ordering::Relaxed) != epoch {
            self.memo.clear();
        }
        let key = (view, p);
        if let Some(r) = self.memo.get(&key) {
            return r;
        }
        // wcyl.V.(SI ⇒ p): universally quantify the complement of the view.
        let hidden = self.space.space().all_vars().difference(view);
        let certain = mgr.implies(self.si, p);
        let wcyl = self.space.forall_vars_raw(mgr, certain, hidden.iter());
        let outside = mgr.or(wcyl, self.not_si);
        let r = mgr.and(p, outside);
        // Values are unrooted, so whatever the memo drops needs no release.
        self.memo.insert(key, r);
        r
    }

    /// Memo behaviour of this operator instance. `inserts` counts lifetime
    /// insertions, so hit-rate arithmetic stays meaningful after
    /// clear-on-full or GC-epoch invalidation shrinks `entries`.
    pub fn cache_stats(&self) -> CacheStats {
        self.memo.stats()
    }
}

impl Drop for SymbolicKnowledge {
    fn drop(&mut self) {
        self.space.release_root(self.si);
        self.space.release_root(self.not_si);
        self.memo.report("bdd.cache.knowledge");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_state::StateSpace;

    /// Two nats and a bool; process `P` sees only `i`.
    fn setup() -> (Arc<StateSpace>, Arc<BddSpace>, SymbolicKnowledge) {
        let space = StateSpace::builder()
            .nat_var("i", 4)
            .unwrap()
            .nat_var("j", 4)
            .unwrap()
            .build()
            .unwrap();
        let bdd = BddSpace::new(&space);
        let si = SymbolicPredicate::tt(&bdd);
        let views = vec![("P".to_owned(), space.var_set(["i"]).unwrap())];
        let k = SymbolicKnowledge::with_si(&bdd, views, &si);
        (space, bdd, k)
    }

    #[test]
    fn knowledge_is_view_local_truth() {
        let (space, bdd, k) = setup();
        let i = space.var("i").unwrap();
        let j = space.var("j").unwrap();
        let pi = SymbolicPredicate::from_var_fn(&bdd, i, |x| x >= 2);
        let pj = SymbolicPredicate::from_var_fn(&bdd, j, |x| x >= 2);
        // With SI = tt, P knows a fact about its own view wherever the
        // fact holds, and never knows a nontrivial fact about j.
        assert_eq!(k.knows("P", &pi).unwrap(), pi);
        assert!(k.knows("P", &pj).unwrap().is_false());
        assert!(k
            .knows("P", &SymbolicPredicate::tt(&bdd))
            .unwrap()
            .everywhere());
        // Truth axiom: K p ⇒ p.
        let kp = k.knows("P", &pi.or(&pj)).unwrap();
        assert!(kp.entails(&pi.or(&pj)));
        assert!(k.knows("Q", &pi).is_err());
    }

    #[test]
    fn si_strengthens_knowledge() {
        let (space, bdd, _) = setup();
        let i = space.var("i").unwrap();
        let j = space.var("j").unwrap();
        // SI: i = j. Then P knows j ≥ 2 exactly where i ≥ 2 (within SI),
        // and everywhere outside SI (eq. 13's ∨ ¬SI disjunct).
        let eq = {
            let mut acc = SymbolicPredicate::ff(&bdd);
            for v in 0..4 {
                let a = SymbolicPredicate::var_eq(&bdd, i, v);
                let b = SymbolicPredicate::var_eq(&bdd, j, v);
                acc = acc.or(&a.and(&b));
            }
            acc
        };
        let views = vec![("P".to_owned(), space.var_set(["i"]).unwrap())];
        let k = SymbolicKnowledge::with_si(&bdd, views, &eq);
        let pj = SymbolicPredicate::from_var_fn(&bdd, j, |x| x >= 2);
        let kp = k.knows("P", &pj).unwrap();
        let expected = {
            let inside = SymbolicPredicate::from_var_fn(&bdd, i, |x| x >= 2).and(&eq);
            let outside = eq.negate().and(&pj);
            inside.or(&outside)
        };
        assert_eq!(kp, expected);
    }

    #[test]
    fn memo_hits_on_repeat_queries() {
        let (space, bdd, k) = setup();
        let i = space.var("i").unwrap();
        let p = SymbolicPredicate::var_eq(&bdd, i, 1);
        let view = space.var_set(["i"]).unwrap();
        let a = k.knows_view(view, &p);
        let before = k.cache_stats();
        let b = k.knows_view(view, &p);
        let after = k.cache_stats();
        assert_eq!(a, b);
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
    }

    #[test]
    fn a_gc_sweep_invalidates_the_memo_without_an_eviction() {
        let (space, bdd, k) = setup();
        let i = space.var("i").unwrap();
        let j = space.var("j").unwrap();
        let p = SymbolicPredicate::var_eq(&bdd, i, 1);
        let view = space.var_set(["i"]).unwrap();
        let first = k.knows_view(view, &p);
        let before = k.cache_stats();
        let epoch = bdd.gc_stats().epoch;
        drop(SymbolicPredicate::var_eq(&bdd, j, 3));
        bdd.gc_now();
        assert!(bdd.gc_stats().epoch > epoch, "the sweep freed nothing");
        let again = k.knows_view(view, &p);
        let after = k.cache_stats();
        assert_eq!(again, first);
        assert_eq!(after.hits, before.hits);
        assert_eq!(after.misses, before.misses + 1);
        assert_eq!(after.evictions, before.evictions);
    }
}
