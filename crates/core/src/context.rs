//! A shared, memoizing evaluation context for knowledge queries.
//!
//! Evaluating a knowledge-based protocol touches the same ingredients over
//! and over: the strongest invariant `SI`, its negation, the `wcyl`
//! quantification order for each process view, and — during guard
//! compilation and group-knowledge fixpoints — the very same `K_i p`
//! queries. [`KnowledgeContext`] computes each of these once:
//!
//! * `SI` and `¬SI` are fixed at construction;
//! * the complement of each view (the variables `wcyl` sweeps over, eq. 6)
//!   is interned per view together with a domain-size-sorted sweep order;
//! * every `(view, p) ↦ K p` result is memoized, so re-evaluating a guard
//!   across statements, or the repeated `E_G` applications inside the
//!   common-knowledge greatest fixpoint, hit the cache.
//!
//! [`crate::KnowledgeOperator`] is a thin handle over an
//! `Arc<KnowledgeContext>`; the KBP solvers build one context per candidate
//! invariant and share it across all guards of the program.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use kpt_logic::EvalError;
use kpt_obs::CacheStats;
use kpt_state::{forall_var, Predicate, StateSpace, VarId, VarSet};
use kpt_unity::CompiledProgram;

use crate::error::CoreError;

/// Cached state for evaluating the knowledge operator of eq. (13) against a
/// fixed strongest invariant and a fixed set of process views.
#[derive(Debug)]
pub struct KnowledgeContext {
    space: Arc<StateSpace>,
    views: Vec<(String, VarSet)>,
    si: Predicate,
    not_si: Predicate,
    /// Interned `wcyl` sweep orders: view ↦ complement variables, sorted by
    /// ascending domain size (cheapest word-parallel passes first).
    orders: Mutex<HashMap<VarSet, Arc<[VarId]>>>,
    /// Memoized `K p` results keyed by `(view, p)`.
    memo: Mutex<HashMap<(VarSet, Predicate), Predicate>>,
    /// Entry cap for `memo`; reaching it clears the whole map (matching the
    /// solver's `SiCache` policy — predicates dominate the footprint and a
    /// full clear keeps the bookkeeping at one branch per insert).
    memo_cap: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    inserts: AtomicU64,
}

/// Default [`KnowledgeContext`] memo capacity. Each entry pins two
/// predicates (key and result), so at the default cap a 2^16-state space
/// holds at worst ~64 MiB of memo — ample for every workload in the tree
/// while still bounding adversarial query streams.
pub const DEFAULT_MEMO_CAP: usize = 4096;

impl KnowledgeContext {
    /// Build a context with an explicit (candidate) strongest invariant.
    ///
    /// Every declared view must lie inside the space: a view bit naming a
    /// variable that does not exist would make the eq. (6) `wcyl`
    /// quantification sweep the wrong complement and *silently* compute
    /// wrong knowledge.
    ///
    /// # Errors
    /// [`CoreError::ViewOutsideSpace`] when a view names variables absent
    /// from `space`.
    pub fn new(
        space: &Arc<StateSpace>,
        views: Vec<(String, VarSet)>,
        si: Predicate,
    ) -> Result<Self, CoreError> {
        let all = space.all_vars();
        for (process, view) in &views {
            if !view.is_subset(all) {
                return Err(CoreError::ViewOutsideSpace {
                    process: process.clone(),
                    extra: view.difference(all),
                });
            }
        }
        let not_si = si.negate();
        let ctx = KnowledgeContext {
            space: Arc::clone(space),
            views,
            si,
            not_si,
            orders: Mutex::new(HashMap::new()),
            memo: Mutex::new(HashMap::new()),
            memo_cap: AtomicUsize::new(DEFAULT_MEMO_CAP),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        };
        // Seed the sweep orders for the declared process views up front.
        for (_, view) in ctx.views.clone() {
            ctx.sweep_order(view);
        }
        Ok(ctx)
    }

    /// Build from a compiled program: views are its declared processes,
    /// `SI` is its strongest invariant.
    pub fn for_program(program: &CompiledProgram) -> Self {
        KnowledgeContext::new(
            program.space(),
            program
                .processes()
                .iter()
                .map(|p| (p.name().to_owned(), p.view()))
                .collect(),
            program.si().clone(),
        )
        .expect("a compiled program's process views lie in its own space")
    }

    /// The state space.
    pub fn space(&self) -> &Arc<StateSpace> {
        &self.space
    }

    /// The strongest invariant knowledge is evaluated against.
    pub fn si(&self) -> &Predicate {
        &self.si
    }

    /// The cached complement `¬SI` (the unreachable states, where eq. (13)
    /// falls back to `p`).
    pub fn not_si(&self) -> &Predicate {
        &self.not_si
    }

    /// The declared `(process, view)` pairs.
    pub fn views(&self) -> &[(String, VarSet)] {
        &self.views
    }

    /// The view of a named process.
    ///
    /// # Errors
    /// [`EvalError::UnknownProcess`] for undeclared names.
    pub fn view(&self, process: &str) -> Result<VarSet, EvalError> {
        self.views
            .iter()
            .find(|(n, _)| n == process)
            .map(|(_, v)| *v)
            .ok_or_else(|| EvalError::UnknownProcess(process.to_owned()))
    }

    /// The interned `wcyl` sweep order for a view: the complement variables
    /// sorted by ascending domain size.
    pub fn sweep_order(&self, view: VarSet) -> Arc<[VarId]> {
        let mut orders = self.orders.lock().expect("sweep-order cache poisoned");
        if let Some(o) = orders.get(&view) {
            return Arc::clone(o);
        }
        let mut vars: Vec<VarId> = self.space.complement(view).iter().collect();
        vars.sort_by_key(|&v| self.space.domain(v).size());
        let order: Arc<[VarId]> = Arc::from(vars);
        orders.insert(view, Arc::clone(&order));
        order
    }

    /// `K p` by eq. (13) for an explicit view, memoized:
    /// `p ∧ (wcyl.V.(SI ⇒ p) ∨ ¬SI)`.
    #[must_use]
    pub fn knows_view(&self, view: VarSet, p: &Predicate) -> Predicate {
        let key = (view, p.clone());
        if let Some(hit) = self.memo.lock().expect("knowledge memo poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            kpt_obs::counter!("knowledge.cache.hits").incr();
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        kpt_obs::counter!("knowledge.cache.misses").incr();
        let order = self.sweep_order(view);
        let mut cylinder = self.si.implies(p);
        for &v in order.iter() {
            cylinder = forall_var(&cylinder, v);
        }
        cylinder.or_assign(&self.not_si);
        cylinder.and_assign(p);
        // Clear-on-full: reaching the cap empties the memo first.
        let mut memo = self.memo.lock().expect("knowledge memo poisoned");
        if memo.len() >= self.memo_cap.load(Ordering::Relaxed) {
            memo.clear();
            self.evictions.fetch_add(1, Ordering::Relaxed);
            kpt_obs::counter!("knowledge.cache.evictions").incr();
        }
        self.inserts.fetch_add(1, Ordering::Relaxed);
        memo.insert(key, cylinder.clone());
        // Resource gauge: the live entry count, refreshed on the only path
        // that changes it upward and reset to zero by clear-on-full above.
        kpt_obs::gauge!("knowledge.cache.entries").set(memo.len() as u64);
        cylinder
    }

    /// `K_i p` by eq. (13), for the view of a named process.
    ///
    /// # Errors
    /// [`EvalError::UnknownProcess`] for undeclared names.
    pub fn knows(&self, process: &str, p: &Predicate) -> Result<Predicate, EvalError> {
        Ok(self.knows_view(self.view(process)?, p))
    }

    /// `K_i p` for every declared view: one `(process name, K_i p)` pair
    /// per declared process, in declaration order, each answered through
    /// the memo of [`KnowledgeContext::knows_view`].
    #[must_use]
    pub fn knows_all(&self, p: &Predicate) -> Vec<(String, Predicate)> {
        self.views
            .iter()
            .map(|(name, view)| (name.clone(), self.knows_view(*view, p)))
            .collect()
    }

    /// `(cache hits, cache misses)` of the `K p` memo so far.
    pub fn cache_counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Full cache behaviour of the `K p` memo: hits, misses, clear-on-full
    /// evictions, lifetime inserts, and the current entry count. `inserts`
    /// is not reset by an eviction, so hit-rate reporting can use totals
    /// rather than the post-clear map size.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self.memo.lock().expect("knowledge memo poisoned").len(),
        }
    }

    /// Override the memo's entry cap (default [`DEFAULT_MEMO_CAP`]).
    /// Reaching the cap clears the memo and counts one eviction.
    ///
    /// # Panics
    /// Panics if `cap == 0` — a capless memo would evict on every insert.
    pub fn set_memo_cap(&self, cap: usize) {
        assert!(cap > 0, "memo cap must be positive");
        self.memo_cap.store(cap, Ordering::Relaxed);
    }

    /// Number of distinct `(view, p)` queries memoized.
    pub fn cached_queries(&self) -> usize {
        self.memo.lock().expect("knowledge memo poisoned").len()
    }
}

impl Drop for KnowledgeContext {
    fn drop(&mut self) {
        // A context's lifetime brackets one knowledge workload (one
        // candidate invariant in the solvers); its drop is the natural
        // moment to flush cache behaviour into the trace.
        if !kpt_obs::trace_enabled() {
            return;
        }
        let stats = self.cache_stats();
        if stats.hits + stats.misses == 0 {
            return;
        }
        kpt_obs::event(
            "cache.knowledge",
            &[
                ("hits", kpt_obs::Field::U64(stats.hits)),
                ("misses", kpt_obs::Field::U64(stats.misses)),
                ("evictions", kpt_obs::Field::U64(stats.evictions)),
                ("entries", kpt_obs::Field::U64(stats.entries as u64)),
                ("hit_ratio", kpt_obs::Field::F64(stats.hit_ratio())),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Arc<StateSpace> {
        StateSpace::builder()
            .bool_var("a")
            .unwrap()
            .nat_var("n", 3)
            .unwrap()
            .bool_var("b")
            .unwrap()
            .build()
            .unwrap()
    }

    fn views(s: &Arc<StateSpace>) -> Vec<(String, VarSet)> {
        vec![
            ("A".to_owned(), s.var_set(["a"]).unwrap()),
            ("AB".to_owned(), s.var_set(["a", "b"]).unwrap()),
        ]
    }

    #[test]
    fn view_outside_space_is_a_typed_error() {
        let s = space();
        // A view built against a *larger* space: its high bit names a
        // variable `s` does not have.
        let bigger = StateSpace::builder()
            .bool_var("a")
            .unwrap()
            .nat_var("n", 3)
            .unwrap()
            .bool_var("b")
            .unwrap()
            .bool_var("ghost")
            .unwrap()
            .build()
            .unwrap();
        let bad = bigger.var_set(["b", "ghost"]).unwrap();
        let err = KnowledgeContext::new(&s, vec![("X".to_owned(), bad)], Predicate::tt(&s))
            .expect_err("a view outside the space must be rejected");
        match &err {
            CoreError::ViewOutsideSpace { process, extra } => {
                assert_eq!(process, "X");
                // Only the ghost bit is outside; `b` itself is fine.
                assert_eq!(extra.iter().count(), 1);
            }
            other => panic!("expected ViewOutsideSpace, got {other:?}"),
        }
        assert!(err.to_string().contains("process `X`"));
    }

    #[test]
    fn memo_hits_on_repeated_queries() {
        let s = space();
        let si = Predicate::from_fn(&s, |i| i % 3 != 0);
        let ctx = KnowledgeContext::new(&s, views(&s), si).unwrap();
        let p = Predicate::from_fn(&s, |i| i % 2 == 0);
        let first = ctx.knows("A", &p).unwrap();
        let again = ctx.knows("A", &p).unwrap();
        assert_eq!(first, again);
        let (hits, misses) = ctx.cache_counters();
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(ctx.cached_queries(), 1);
        // A different view of the same predicate is a separate entry.
        let _ = ctx.knows("AB", &p).unwrap();
        assert_eq!(ctx.cached_queries(), 2);
    }

    #[test]
    fn cache_stats_track_hit_miss_and_eviction_transitions() {
        let s = space();
        let ctx = KnowledgeContext::new(&s, views(&s), Predicate::tt(&s)).unwrap();
        ctx.set_memo_cap(2);
        let v = s.var_set(["a"]).unwrap();
        let p0 = Predicate::from_fn(&s, |i| i % 2 == 0);
        let p1 = Predicate::from_fn(&s, |i| i % 3 == 0);
        let p2 = Predicate::from_fn(&s, |i| i % 5 == 0);
        assert_eq!(ctx.cache_stats(), CacheStats::default());

        // First query: one miss, one entry.
        let _ = ctx.knows_view(v, &p0);
        let st = ctx.cache_stats();
        assert_eq!((st.hits, st.misses, st.evictions, st.entries), (0, 1, 0, 1));

        // Repeat: pure hit, nothing else moves.
        let _ = ctx.knows_view(v, &p0);
        let st = ctx.cache_stats();
        assert_eq!((st.hits, st.misses, st.evictions, st.entries), (1, 1, 0, 1));
        assert!((st.hit_ratio() - 0.5).abs() < 1e-12);

        // Fill to the cap...
        let _ = ctx.knows_view(v, &p1);
        assert_eq!(ctx.cache_stats().entries, 2);
        // ...and one more distinct query clears the memo (one eviction).
        let _ = ctx.knows_view(v, &p2);
        let st = ctx.cache_stats();
        assert_eq!((st.hits, st.misses, st.evictions, st.entries), (1, 3, 1, 1));

        // The evicted entry is a miss again.
        let _ = ctx.knows_view(v, &p0);
        let st = ctx.cache_stats();
        assert_eq!((st.hits, st.misses, st.evictions, st.entries), (1, 4, 1, 2));
        // Lifetime inserts survive the clear: four misses, four inserts,
        // even though only two entries remain after the eviction.
        assert_eq!(st.inserts, 4);
    }

    #[test]
    fn sweep_order_is_complement_sorted_by_domain() {
        let s = space();
        let ctx = KnowledgeContext::new(&s, views(&s), Predicate::tt(&s)).unwrap();
        let view = s.var_set(["a"]).unwrap();
        let order = ctx.sweep_order(view);
        // Complement of {a} is {n, b}; b (size 2) sorts before n (size 3).
        let names: Vec<&str> = order.iter().map(|&v| s.name(v)).collect();
        assert_eq!(names, vec!["b", "n"]);
        // Interned: same Arc on the second call.
        assert!(Arc::ptr_eq(&order, &ctx.sweep_order(view)));
    }

    #[test]
    fn unknown_process_errors() {
        let s = space();
        let ctx = KnowledgeContext::new(&s, views(&s), Predicate::tt(&s)).unwrap();
        assert!(ctx.knows("nobody", &Predicate::tt(&s)).is_err());
    }

    #[test]
    fn knows_all_matches_per_view_queries() {
        let s = space();
        let si = Predicate::from_fn(&s, |i| i % 3 != 0);
        let p = Predicate::from_fn(&s, |i| i % 2 == 0);
        // Reference on its own context.
        let reference = KnowledgeContext::new(&s, views(&s), si.clone()).unwrap();
        let expect: Vec<(String, Predicate)> = views(&s)
            .into_iter()
            .map(|(name, view)| {
                let k = reference.knows_view(view, &p);
                (name, k)
            })
            .collect();
        let ctx = KnowledgeContext::new(&s, views(&s), si).unwrap();
        assert_eq!(ctx.knows_all(&p), expect);
        // knows_all filled the memo: a follow-up query is a pure hit.
        for (_, view) in views(&s) {
            let (hits, misses) = ctx.cache_counters();
            let _ = ctx.knows_view(view, &p);
            assert_eq!(ctx.cache_counters(), (hits + 1, misses));
        }
    }
}
