//! The knowledge operator of eq. (13) as a shared, memoizing evaluation
//! context.
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
//! * every `(view, p) ↦ K p` result is memoized in a [`kpt_obs::Memo`], so
//!   re-evaluating a guard across statements, or the repeated `E_G`
//!   applications inside the common-knowledge greatest fixpoint, hit the
//!   cache.
//!
//! The KBP solvers build one context per candidate invariant and share it
//! across all guards of the program; callers that share one context across
//! threads or passes hold an `Arc<KnowledgeContext>`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use kpt_logic::{EvalError, KnowledgeFn};
use kpt_obs::{CacheStats, Memo};
use kpt_state::{forall_var, Predicate, StateSpace, VarId, VarSet};
use kpt_transformers::gfp;
use kpt_unity::CompiledProgram;

use crate::error::CoreError;

/// The knowledge operator of eq. (13) for a fixed strongest invariant and a
/// set of process views, with its intermediate results cached.
///
/// Construct from a compiled program ([`KnowledgeContext::for_program`]) —
/// which uses the program's own `SI` — or with an explicit candidate `SI`
/// ([`KnowledgeContext::new`]), which is how the KBP solver evaluates
/// knowledge guards against candidate invariants (eq. 25).
///
/// # Examples
/// ```
/// use kpt_core::KnowledgeContext;
/// use kpt_state::{Predicate, StateSpace};
/// use kpt_unity::{Program, Statement};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = StateSpace::builder().bool_var("a")?.bool_var("b")?.build()?;
/// let program = Program::builder("p", &space)
///     .init_str("~a /\\ ~b")?
///     .process("P", ["a"])?
///     // b is set together with a, but P sees only a:
///     .statement(Statement::new("s").guard_str("~a")?.assign_str("a", "1")?.assign_str("b", "1")?)
///     .build()?
///     .compile()?;
/// let k = KnowledgeContext::for_program(&program);
/// let b = Predicate::var_is_true(&space, space.var("b")?);
/// // Seeing a=true tells P that b=true (they change together):
/// let a = Predicate::var_is_true(&space, space.var("a")?);
/// assert!(program.si().and(&a).entails(&k.knows("P", &b)?));
/// # Ok(())
/// # }
/// ```
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
    memo: Memo<(VarSet, Predicate), Predicate>,
}

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
            memo: Memo::new(
                kpt_obs::counter!("knowledge.cache.hits"),
                kpt_obs::counter!("knowledge.cache.misses"),
                kpt_obs::counter!("knowledge.cache.evictions"),
            ),
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
        if let Some(hit) = self.memo.get(&key) {
            return hit;
        }
        let order = self.sweep_order(view);
        let mut cylinder = self.si.implies(p);
        for &v in order.iter() {
            cylinder = forall_var(&cylinder, v);
        }
        cylinder.or_assign(&self.not_si);
        cylinder.and_assign(p);
        self.memo.insert(key, cylinder.clone());
        // Resource gauge: the live entry count, refreshed on the only path
        // that changes it upward.
        kpt_obs::gauge!("knowledge.cache.entries").set(self.memo.stats().entries as u64);
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

    /// Everyone-in-`group` knows: `E_G p = (∀ i ∈ G :: K_i p)`. Repeated
    /// applications inside the `C_G` fixpoint hit the memo.
    ///
    /// # Errors
    /// [`EvalError::UnknownProcess`] for undeclared names.
    pub fn everyone(&self, group: &[&str], p: &Predicate) -> Result<Predicate, EvalError> {
        let mut out = Predicate::tt(&self.space);
        for proc in group {
            out.and_assign(&self.knows(proc, p)?);
        }
        Ok(out)
    }

    /// Common knowledge `C_G p`: the greatest fixpoint of
    /// `X ↦ E_G(p ∧ X)` — everyone knows `p`, everyone knows that everyone
    /// knows, and so on (the §3 extension the paper notes "can easily be
    /// added").
    ///
    /// # Errors
    /// [`EvalError::UnknownProcess`] for undeclared names.
    pub fn common(&self, group: &[&str], p: &Predicate) -> Result<Predicate, EvalError> {
        let mut err = None;
        let result = gfp(&self.space, |x| match self.everyone(group, &p.and(x)) {
            Ok(r) => r,
            Err(e) => {
                err = Some(e);
                Predicate::ff(&self.space)
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        Ok(result
            .expect("E_G is monotonic, so the gfp iteration converges")
            .0)
    }

    /// Distributed knowledge `D_G p`: what the group would know by pooling
    /// views — eq. (13) evaluated at the *union* of the group's views.
    ///
    /// # Errors
    /// [`EvalError::UnknownProcess`] for undeclared names.
    pub fn distributed(&self, group: &[&str], p: &Predicate) -> Result<Predicate, EvalError> {
        let mut view = VarSet::EMPTY;
        for proc in group {
            view = view.union(self.view(proc)?);
        }
        Ok(self.knows_view(view, p))
    }

    /// This context as a [`KnowledgeFn`] suitable for
    /// [`kpt_logic::EvalContext::with_knowledge`] and
    /// [`kpt_unity::Program::compile_with_knowledge`].
    pub fn knowledge_fn(&self) -> Box<KnowledgeFn<'_>> {
        Box::new(move |process: &str, p: &Predicate| self.knows(process, p))
    }

    /// Full cache behaviour of the `K p` memo: hits, misses, clear-on-full
    /// evictions, lifetime inserts, and the current entry count.
    pub fn cache_stats(&self) -> CacheStats {
        self.memo.stats()
    }
}

impl Drop for KnowledgeContext {
    fn drop(&mut self) {
        // A context's lifetime brackets one knowledge workload (one
        // candidate invariant in the solvers); its drop is the natural
        // moment to flush cache behaviour into the trace.
        self.memo.report("cache.knowledge");
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
        let st = ctx.cache_stats();
        assert_eq!((st.hits, st.misses, st.entries), (1, 1, 1));
        // A different view of the same predicate is a separate entry.
        let _ = ctx.knows("AB", &p).unwrap();
        assert_eq!(ctx.cache_stats().entries, 2);
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
            let before = ctx.cache_stats();
            let _ = ctx.knows_view(view, &p);
            let after = ctx.cache_stats();
            assert_eq!((after.hits, after.misses), (before.hits + 1, before.misses));
        }
    }
}
