//! Transition relations as BDDs over the interleaved current/next levels,
//! with `sp`/`wp` as relational products.
//!
//! # Partitioned relations and early quantification
//!
//! A relation built from a guarded multiple-assignment statement is kept
//! *conjunctively partitioned*: one small BDD per assignment (plus one per
//! untouched variable's identity constraint and one for the domain
//! constraints), never conjoined into a monolithic `R(cur, nxt)`. The
//! relational products walk the partition with the manager's `and_exists`
//! kernel, quantifying each level out at its *last occurrence* across the
//! parts — so intermediate products stay close to the size of the final
//! image instead of the size of the full relation. The partitioned and
//! monolithic forms denote the same relation, so every product yields the
//! same canonical root either way; the differential suites pin that.

use std::sync::{Arc, OnceLock};

use kpt_state::VarId;
use kpt_transformers::DetTransition;

use crate::error::BddError;
use crate::manager::{Manager, NodeId, FALSE, TRUE};
use crate::predicate::SymbolicPredicate;
use crate::space::BddSpace;

/// Cap on explicit states swept when falling back to state-by-state
/// translation of an opaque update function.
pub(crate) const OPAQUE_ENUM_MAX: u64 = 1 << 20;

/// One conjunct of a partitioned relation, with its declared support
/// (a superset of the true support is sound; a subset is not).
#[derive(Clone)]
pub(crate) struct Part {
    pub(crate) root: NodeId,
    /// Current-state levels in the part's support, sorted ascending.
    pub(crate) cur_supp: Vec<u32>,
    /// Next-state levels in the part's support, sorted ascending.
    pub(crate) nxt_supp: Vec<u32>,
}

/// Early-quantification schedule for one sweep direction: `pre` is
/// quantified before the first conjunction, `dying[i]` right after part
/// `i` (its levels' last occurrence).
#[derive(Clone)]
struct Schedule {
    pre: Vec<u32>,
    dying: Vec<Vec<u32>>,
}

fn schedule(parts: &[Part], all_levels: &[u32], supp: impl Fn(&Part) -> &[u32]) -> Schedule {
    let mut last: std::collections::HashMap<u32, usize> = std::collections::HashMap::new();
    for (i, part) in parts.iter().enumerate() {
        for &l in supp(part) {
            last.insert(l, i);
        }
    }
    let mut pre = Vec::new();
    let mut dying = vec![Vec::new(); parts.len()];
    for &l in all_levels {
        match last.get(&l) {
            None => pre.push(l),
            Some(&i) => dying[i].push(l),
        }
    }
    for d in &mut dying {
        d.sort_unstable();
    }
    pre.sort_unstable();
    Schedule { pre, dying }
}

/// A conjunctive partition with precomputed early-quantification schedules
/// for both product directions (`sp` sweeps current levels, `wp` next).
#[derive(Clone)]
pub(crate) struct PartSet {
    parts: Vec<Part>,
    cur_sched: Schedule,
    nxt_sched: Schedule,
}

impl PartSet {
    pub(crate) fn new(space: &BddSpace, parts: Vec<Part>) -> Self {
        let cur_sched = schedule(&parts, space.cur_levels(), |p| &p.cur_supp);
        let nxt_sched = schedule(&parts, space.nxt_levels(), |p| &p.nxt_supp);
        PartSet {
            parts,
            cur_sched,
            nxt_sched,
        }
    }

    pub(crate) fn roots(&self, out: &mut Vec<NodeId>) {
        out.extend(self.parts.iter().map(|p| p.root));
    }

    /// `∃cur. from ∧ guard ∧ ∏parts`, renamed onto the current levels —
    /// the enabled branch of `sp` (the caller adds the else branch).
    pub(crate) fn image_raw(
        &self,
        space: &BddSpace,
        mgr: &mut Manager,
        from: NodeId,
        guard: NodeId,
    ) -> NodeId {
        let _span = kpt_obs::span("bdd.and_exists");
        let enabled = mgr.and(from, guard);
        let mut work = mgr.exists(enabled, &self.cur_sched.pre);
        for (part, dying) in self.parts.iter().zip(&self.cur_sched.dying) {
            if work == FALSE {
                return FALSE;
            }
            work = mgr.and_exists(work, part.root, dying);
        }
        space.shift_to_cur(mgr, work)
    }

    /// `∃nxt. ∏parts ∧ escape`, where `escape` is a next-state-levels
    /// function (typically `¬p'`) — the escape set of `wp`, before the
    /// guard is applied.
    pub(crate) fn pre_escape_raw(&self, mgr: &mut Manager, escape: NodeId) -> NodeId {
        let _span = kpt_obs::span("bdd.and_exists");
        let mut work = mgr.exists(escape, &self.nxt_sched.pre);
        for (part, dying) in self.parts.iter().zip(&self.nxt_sched.dying) {
            if work == FALSE {
                return FALSE;
            }
            work = mgr.and_exists(work, part.root, dying);
        }
        work
    }

    /// Materialise the monolithic conjunction of all parts.
    pub(crate) fn product(&self, mgr: &mut Manager) -> NodeId {
        let mut acc = TRUE;
        for part in &self.parts {
            acc = mgr.and(acc, part.root);
        }
        acc
    }
}

/// One relation as the fixpoints consume it: either a monolithic
/// `R(cur, nxt)` or a guard plus conjunctive partition.
pub(crate) enum ImageRel<'a> {
    Mono(NodeId),
    Parts { guard: NodeId, set: &'a PartSet },
}

impl ImageRel<'_> {
    /// Forward image on the current levels. For a partitioned relation
    /// this is the enabled branch only — the else/stutter branch never
    /// adds states to a reachability fixpoint.
    pub(crate) fn image(&self, space: &BddSpace, mgr: &mut Manager, from: NodeId) -> NodeId {
        let _span = kpt_obs::span("bdd.sp");
        match self {
            ImageRel::Mono(rel) => {
                let conj = mgr.and(from, *rel);
                let img = mgr.exists(conj, space.cur_levels());
                space.shift_to_cur(mgr, img)
            }
            ImageRel::Parts { guard, set } => set.image_raw(space, mgr, from, *guard),
        }
    }

    /// Everything a GC sweep at a fixpoint safe point must keep alive.
    pub(crate) fn push_temp_roots(&self, out: &mut Vec<NodeId>) {
        match self {
            ImageRel::Mono(rel) => out.push(*rel),
            ImageRel::Parts { guard, set } => {
                out.push(*guard);
                set.roots(out);
            }
        }
    }
}

enum Repr {
    Mono(NodeId),
    Parts {
        guard: NodeId,
        /// When true, states failing the guard take the identity step
        /// (UNITY's "no effect" semantics).
        has_else: bool,
        set: PartSet,
    },
}

/// A total transition relation `R(cur, nxt)` over a [`BddSpace`].
///
/// The relation always implies both copies' domain constraints, so the
/// relational products below stay restricted. Like
/// [`SymbolicPredicate`], the value is an RAII root handle: its BDD roots
/// are pinned against garbage collection for its lifetime.
pub struct SymbolicTransition {
    space: Arc<BddSpace>,
    repr: Repr,
    /// Lazily materialised monolithic relation (rooted once set).
    mono: OnceLock<NodeId>,
}

impl std::fmt::Debug for SymbolicTransition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicTransition")
            .field("nodes", &self.node_count())
            .field("parts", &self.num_parts())
            .finish()
    }
}

impl Clone for SymbolicTransition {
    fn clone(&self) -> Self {
        let mut mgr = self.space.lock();
        let repr = match &self.repr {
            Repr::Mono(rel) => {
                mgr.add_root(*rel);
                Repr::Mono(*rel)
            }
            Repr::Parts {
                guard,
                has_else,
                set,
            } => {
                mgr.add_root(*guard);
                for p in &set.parts {
                    mgr.add_root(p.root);
                }
                Repr::Parts {
                    guard: *guard,
                    has_else: *has_else,
                    set: set.clone(),
                }
            }
        };
        let mono = OnceLock::new();
        if let Some(&m) = self.mono.get() {
            if !matches!(repr, Repr::Mono(_)) {
                mgr.add_root(m);
            }
            let _ = mono.set(m);
        }
        drop(mgr);
        SymbolicTransition {
            space: Arc::clone(&self.space),
            repr,
            mono,
        }
    }
}

impl Drop for SymbolicTransition {
    fn drop(&mut self) {
        match &self.repr {
            Repr::Mono(rel) => self.space.release_root(*rel),
            Repr::Parts { guard, set, .. } => {
                self.space.release_root(*guard);
                for p in &set.parts {
                    self.space.release_root(p.root);
                }
                if let Some(&m) = self.mono.get() {
                    self.space.release_root(m);
                }
            }
        }
    }
}

impl SymbolicTransition {
    pub(crate) fn from_root(space: &Arc<BddSpace>, rel: NodeId) -> Self {
        space.lock().add_root(rel);
        let mono = OnceLock::new();
        let _ = mono.set(rel);
        SymbolicTransition {
            space: Arc::clone(space),
            repr: Repr::Mono(rel),
            mono,
        }
    }

    pub(crate) fn from_parts(
        space: &Arc<BddSpace>,
        mgr: &mut Manager,
        guard: NodeId,
        has_else: bool,
        set: PartSet,
    ) -> Self {
        mgr.add_root(guard);
        for p in &set.parts {
            mgr.add_root(p.root);
        }
        SymbolicTransition {
            space: Arc::clone(space),
            repr: Repr::Parts {
                guard,
                has_else,
                set,
            },
            mono: OnceLock::new(),
        }
    }

    /// The monolithic relation root, materialising (and caching) it for a
    /// partitioned transition. Bridges and differential checks use this;
    /// the products themselves never do.
    pub(crate) fn rel(&self) -> NodeId {
        if let Some(&m) = self.mono.get() {
            return m;
        }
        let Repr::Parts {
            guard,
            has_else,
            set,
        } = &self.repr
        else {
            unreachable!("monolithic repr always has mono set");
        };
        let mut mgr = self.space.lock();
        let update = set.product(&mut mgr);
        let rel = if *has_else {
            let id = self.space.identity_root();
            mgr.ite(*guard, update, id)
        } else {
            update
        };
        mgr.add_root(rel);
        drop(mgr);
        *self.mono.get_or_init(|| rel)
    }

    pub(crate) fn image_rel(&self) -> ImageRel<'_> {
        match &self.repr {
            Repr::Mono(rel) => ImageRel::Mono(*rel),
            Repr::Parts { guard, set, .. } => ImageRel::Parts { guard: *guard, set },
        }
    }

    /// The symbolic space the relation ranges over.
    pub fn space(&self) -> &Arc<BddSpace> {
        &self.space
    }

    /// Number of conjunctive parts (1 for a monolithic relation).
    pub fn num_parts(&self) -> usize {
        match &self.repr {
            Repr::Mono(_) => 1,
            Repr::Parts { set, .. } => set.parts.len(),
        }
    }

    /// A monolithic copy of this relation: same denotation, single-BDD
    /// representation (the PR-4 engine's form, kept for differential
    /// benchmarking against the partitioned products).
    #[must_use]
    pub fn monolithic(&self) -> SymbolicTransition {
        SymbolicTransition::from_root(&self.space, self.rel())
    }

    /// The identity relation (every valid state steps to itself).
    pub fn identity(space: &Arc<BddSpace>) -> Self {
        SymbolicTransition::from_root(space, space.identity_root())
    }

    /// Bridge from an explicit deterministic transition: one `(s, step s)`
    /// pair cube per state, OR-ed together. That is O(num_states) BDD
    /// operations on top of the explicit table, and a strongest invariant
    /// over bridged relations costs about 1000x the explicit one it
    /// replays. Build relations from formulas where they exist
    /// ([`SymbolicTransition::builder`], `SymbolicKbp`); the bridge suits
    /// differential tests and the bit-blasted §6 replay.
    pub fn from_det(space: &Arc<BddSpace>, t: &DetTransition) -> Self {
        assert!(
            t.space().same_shape(space.space()),
            "transition from a different state space"
        );
        let n = space.space().num_states();
        let mut mgr = space.lock();
        let pairs = (0..n)
            .map(|s| space.pair_cube(&mut mgr, s, t.step(s)))
            .collect();
        let rel = mgr.or_all(pairs);
        drop(mgr);
        SymbolicTransition::from_root(space, rel)
    }

    /// Start a guarded multiple-assignment relation without materializing
    /// anything explicit — the scaling path for spaces no bitset can hold.
    /// The built relation is conjunctively partitioned.
    pub fn builder(space: &Arc<BddSpace>) -> SymbolicTransitionBuilder {
        SymbolicTransitionBuilder {
            space: Arc::clone(space),
            guard: None,
            assigns: Vec::new(),
        }
    }

    /// Strongest postcondition as a relational product:
    /// `sp.p = (∃cur : p ∧ R)` renamed back onto the current levels. For a
    /// partitioned relation the product runs early-quantified over the
    /// parts and the stutter branch is added as `p ∧ ¬guard`.
    #[must_use]
    pub fn sp(&self, p: &SymbolicPredicate) -> SymbolicPredicate {
        let mut mgr = self.space.lock();
        let root = self.sp_raw(&mut mgr, p.root());
        drop(mgr);
        SymbolicPredicate::new(&self.space, root)
    }

    pub(crate) fn sp_raw(&self, mgr: &mut Manager, p: NodeId) -> NodeId {
        let _span = kpt_obs::span("bdd.sp");
        match &self.repr {
            Repr::Mono(rel) => {
                let conj = mgr.and(p, *rel);
                let img = mgr.exists(conj, self.space.cur_levels());
                self.space.shift_to_cur(mgr, img)
            }
            Repr::Parts {
                guard,
                has_else,
                set,
            } => {
                let img = set.image_raw(&self.space, mgr, p, *guard);
                if *has_else {
                    let ng = mgr.not(*guard);
                    let stay = mgr.and(p, ng);
                    mgr.or(img, stay)
                } else {
                    img
                }
            }
        }
    }

    /// Weakest precondition of a total deterministic relation:
    /// `wp.p = ¬(∃nxt : R ∧ ¬p')`, restricted to the valid states. The
    /// partitioned form computes the escape set early-quantified and folds
    /// the guard in afterwards: `¬(g ∧ ∃nxt(U ∧ ¬p')) ∧ (g ∨ p) ∧ dom`.
    #[must_use]
    pub fn wp(&self, p: &SymbolicPredicate) -> SymbolicPredicate {
        let mut mgr = self.space.lock();
        let root = self.wp_raw(&mut mgr, p.root());
        drop(mgr);
        SymbolicPredicate::new(&self.space, root)
    }

    pub(crate) fn wp_raw(&self, mgr: &mut Manager, p: NodeId) -> NodeId {
        let _span = kpt_obs::span("bdd.wp");
        let not_p_next = {
            let shifted = self.space.shift_to_next(mgr, p);
            mgr.not(shifted)
        };
        match &self.repr {
            Repr::Mono(rel) => {
                let escapes = mgr.and(*rel, not_p_next);
                let ex = mgr.exists(escapes, self.space.nxt_levels());
                let safe = mgr.not(ex);
                let d = self.space.domain_ok_cur();
                mgr.and(safe, d)
            }
            Repr::Parts {
                guard,
                has_else,
                set,
            } => {
                let escape = set.pre_escape_raw(mgr, not_p_next);
                let bad = mgr.and(*guard, escape);
                let safe = mgr.not(bad);
                let d = self.space.domain_ok_cur();
                let base = mgr.and(safe, d);
                if *has_else {
                    let gp = mgr.or(*guard, p);
                    mgr.and(base, gp)
                } else {
                    base
                }
            }
        }
    }

    /// Reachable ROBDD nodes of the relation — summed over the parts for a
    /// partitioned transition (the memory actually held).
    pub fn node_count(&self) -> usize {
        let mgr = self.space.lock();
        match &self.repr {
            Repr::Mono(rel) => mgr.reachable_nodes(*rel),
            Repr::Parts { guard, set, .. } => {
                set.parts
                    .iter()
                    .map(|p| mgr.reachable_nodes(p.root))
                    .sum::<usize>()
                    + mgr.reachable_nodes(*guard)
            }
        }
    }
}

type AssignFn = Box<dyn Fn(&[u64]) -> u64>;

/// The value of one assignment at a support point; a value outside the
/// target's domain, negative included, marks the point bad.
pub(crate) type PointFn<'a> = Box<dyn FnMut(&[u64]) -> i64 + 'a>;

/// One assignment as [`partition`] reads it: the target, its support
/// (ascending, no repeats) and its value function.
pub(crate) type PointAssign<'a> = (VarId, Vec<VarId>, PointFn<'a>);

/// Translate a simultaneous multiple assignment into a conjunctive
/// partition by walking each assignment's support, never the full space.
/// The parts are the domain constraints of both copies, one part per
/// effective assignment (the last write to a target wins) and one identity
/// part per untouched variable. A support point that no state of
/// `enabled` reads is skipped without running its value function. A value
/// outside the target's domain adds the point's cube to the returned `bad`
/// set instead of a pair, whether or not its write is the effective one.
///
/// # Errors
/// [`BddError::SupportTooLarge`] for a support above `SUPPORT_ENUM_MAX`
/// points, before any walk starts.
pub(crate) fn partition(
    space: &BddSpace,
    mgr: &mut Manager,
    enabled: NodeId,
    assigns: &mut [PointAssign<'_>],
) -> Result<(PartSet, NodeId), BddError> {
    let st_space = space.space();
    for (target, support, _) in assigns.iter() {
        space.check_support(support, || st_space.name(*target).to_owned())?;
    }
    let next_of = |levels: &[u32]| levels.iter().map(|&l| l + 1).collect::<Vec<u32>>();
    let mut parts: Vec<Part> = Vec::new();
    // Domain constraints on both copies, scheduled first so their levels
    // die at their other occurrences.
    let domain = {
        let c = space.domain_ok_cur();
        let n = space.domain_ok_nxt();
        mgr.and(c, n)
    };
    if domain != TRUE {
        // Only variables with junk bit patterns carry a constraint.
        let cur_supp: Vec<u32> = st_space
            .vars()
            .flat_map(|v| {
                let levels = space.var_cur_levels(v);
                if st_space.domain(v).size() == 1u64 << levels.len() {
                    Vec::new()
                } else {
                    levels
                }
            })
            .collect();
        parts.push(Part {
            root: domain,
            nxt_supp: next_of(&cur_supp),
            cur_supp,
        });
    }
    let mut last_write = vec![None; st_space.num_vars()];
    for (i, (target, _, _)) in assigns.iter().enumerate() {
        last_write[target.index()] = Some(i);
    }
    let mut bad = FALSE;
    for (i, (target, support, value)) in assigns.iter_mut().enumerate() {
        let effective = last_write[target.index()] == Some(i);
        let mut rel = FALSE;
        space.for_each_support_point(mgr, support, |mgr, point, cube| {
            if mgr.and(enabled, cube) == FALSE {
                return; // no enabled state reads these values
            }
            let out = value(point);
            if !space.in_domain(*target, out) {
                bad = mgr.or(bad, cube);
            } else if effective {
                let tgt = space.value_cube(mgr, *target, out as u64, true);
                let pair = mgr.and(cube, tgt);
                rel = mgr.or(rel, pair);
            }
        });
        if effective {
            let cur_supp: Vec<u32> = support
                .iter()
                .flat_map(|v| space.var_cur_levels(*v))
                .collect();
            parts.push(Part {
                root: rel,
                cur_supp,
                nxt_supp: next_of(&space.var_cur_levels(*target)),
            });
        }
    }
    // Unassigned variables keep their value bit-for-bit, one identity part
    // per variable.
    for v in st_space.vars() {
        let levels = space.var_cur_levels(v);
        if last_write[v.index()].is_some() || levels.is_empty() {
            continue;
        }
        let mut same_all = TRUE;
        for &level in levels.iter().rev() {
            let c = mgr.literal(level);
            let n = mgr.literal(level + 1);
            let same = mgr.iff(c, n);
            same_all = mgr.and(same_all, same);
        }
        parts.push(Part {
            root: same_all,
            nxt_supp: next_of(&levels),
            cur_supp: levels,
        });
    }
    Ok((PartSet::new(space, parts), bad))
}

/// Builder for a guarded, simultaneous multiple-assignment relation,
/// translated into a conjunctive partition by walking each assignment's
/// support, never the full state space.
pub struct SymbolicTransitionBuilder {
    space: Arc<BddSpace>,
    guard: Option<NodeId>,
    assigns: Vec<(VarId, Vec<VarId>, AssignFn)>,
}

impl SymbolicTransitionBuilder {
    /// Guard the statement: states where the guard fails take the identity
    /// step, mirroring UNITY's "no effect" semantics.
    pub fn guard(mut self, g: &SymbolicPredicate) -> Self {
        assert!(
            Arc::ptr_eq(g.space(), &self.space),
            "guard from a different BDD space"
        );
        self.guard = Some(g.root());
        self
    }

    /// Assign `target := f(values of support)`, evaluated simultaneously
    /// with every other assignment (all read the pre-state). When several
    /// assignments write one target, the last one wins.
    pub fn assign(
        mut self,
        target: VarId,
        support: &[VarId],
        f: impl Fn(&[u64]) -> u64 + 'static,
    ) -> Self {
        self.assigns.push((target, support.to_vec(), Box::new(f)));
        self
    }

    /// Finish the relation: a domain part, one part per assigned variable
    /// (its last write) and one identity part per untouched variable.
    /// Denotationally this is `ite(guard, update, identity)` conjoined
    /// with both domain constraints. Support points no guard state reads
    /// never reach their assignment function, so guard-protected
    /// assignments may go out of range without error — UNITY's
    /// enabled-states-only semantics.
    ///
    /// # Errors
    /// [`BddError::SupportTooLarge`] for a support above the enumeration
    /// limit, and [`BddError::UpdateOutOfRange`] at some enabled state
    /// where an assignment's value (a value above `i64::MAX` included)
    /// lies outside its target's domain.
    pub fn build(self) -> Result<SymbolicTransition, BddError> {
        let space = &self.space;
        let st_space = space.space();
        // The functions read their support in the caller's order; the walk
        // hands points over in ascending order.
        let mut assigns: Vec<PointAssign<'_>> = self
            .assigns
            .iter()
            .map(|(target, support, f)| {
                let mut sorted = support.clone();
                sorted.sort_unstable();
                sorted.dedup();
                let slots: Vec<usize> = support
                    .iter()
                    .map(|v| sorted.binary_search(v).expect("sorted from support"))
                    .collect();
                let mut args = vec![0u64; support.len()];
                let value = move |point: &[u64]| {
                    for (arg, &slot) in args.iter_mut().zip(&slots) {
                        *arg = point[slot];
                    }
                    // Above `i64::MAX` wraps negative: out of range.
                    f(&args) as i64
                };
                let value: PointFn<'_> = Box::new(value);
                (*target, sorted, value)
            })
            .collect();
        let mut mgr = space.lock();
        let guard = self.guard.unwrap_or_else(|| space.domain_ok_cur());
        let (set, bad) = partition(space, &mut mgr, guard, &mut assigns)?;
        let enabled_bad = mgr.and(guard, bad);
        if let Some(path) = mgr.witness_path(enabled_bad) {
            drop(mgr);
            let witness = space.decode_cur_path(&path);
            let (var, value) = assigns
                .iter_mut()
                .find_map(|(target, support, value)| {
                    let point: Vec<u64> = support
                        .iter()
                        .map(|v| st_space.value(witness, *v))
                        .collect();
                    let out = value(&point);
                    (!space.in_domain(*target, out)).then_some((*target, out))
                })
                .expect("a state in the bad set has an offending assignment");
            return Err(BddError::UpdateOutOfRange {
                statement: st_space.name(var).to_owned(),
                var: st_space.name(var).to_owned(),
                state: st_space.render_state(witness),
                value,
            });
        }
        let has_else = self.guard.is_some();
        let t = SymbolicTransition::from_parts(space, &mut mgr, guard, has_else, set);
        drop(mgr);
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_state::StateSpace;

    fn setup() -> (Arc<kpt_state::StateSpace>, Arc<BddSpace>) {
        let space = StateSpace::builder()
            .nat_var("i", 5)
            .unwrap()
            .bool_var("b")
            .unwrap()
            .build()
            .unwrap();
        let bdd = BddSpace::new(&space);
        (space, bdd)
    }

    #[test]
    fn identity_sp_wp_are_identity() {
        let (space, bdd) = setup();
        let id = SymbolicTransition::identity(&bdd);
        let i = space.var("i").unwrap();
        let p = SymbolicPredicate::var_eq(&bdd, i, 2);
        assert_eq!(id.sp(&p), p);
        assert_eq!(id.wp(&p), p);
    }

    #[test]
    fn from_det_matches_explicit_sp_wp() {
        let (space, bdd) = setup();
        let i = space.var("i").unwrap();
        // i := min(i + 1, 4), b untouched.
        let det = DetTransition::from_fn(&space, |s| {
            let v = space.value(s, i);
            space.with_value(s, i, (v + 1).min(4))
        });
        let sym = SymbolicTransition::from_det(&bdd, &det);
        for target in 0..5u64 {
            let p = kpt_state::Predicate::from_var_fn(&space, i, |x| x == target);
            let ps = SymbolicPredicate::from_explicit(&bdd, &p);
            assert_eq!(sym.sp(&ps).to_explicit(), det.sp(&p));
            assert_eq!(sym.wp(&ps).to_explicit(), det.wp(&p));
        }
    }

    #[test]
    fn builder_matches_det_bridge() {
        let (space, bdd) = setup();
        let i = space.var("i").unwrap();
        let b = space.var("b").unwrap();
        // Guarded: if i < 4 then i, b := i + 1, true.
        let guard = SymbolicPredicate::from_var_fn(&bdd, i, |x| x < 4);
        let built = SymbolicTransition::builder(&bdd)
            .guard(&guard)
            .assign(i, &[i], |v| v[0] + 1)
            .assign(b, &[], |_| 1)
            .build()
            .unwrap();
        let det = DetTransition::from_fn(&space, |s| {
            let v = space.value(s, i);
            if v < 4 {
                let s = space.with_value(s, i, v + 1);
                space.with_value(s, b, 1)
            } else {
                s
            }
        });
        let bridged = SymbolicTransition::from_det(&bdd, &det);
        assert!(built.num_parts() > 1, "builder should partition");
        assert_eq!(built.rel(), bridged.rel());
        // The partitioned products land on the same canonical roots as the
        // monolithic ones.
        let mono = built.monolithic();
        for target in 0..5u64 {
            let p = SymbolicPredicate::from_var_fn(&bdd, i, |x| x == target);
            assert_eq!(built.sp(&p), mono.sp(&p));
            assert_eq!(built.wp(&p), mono.wp(&p));
            assert_eq!(built.sp(&p), bridged.sp(&p));
            assert_eq!(built.wp(&p), bridged.wp(&p));
        }
    }

    #[test]
    fn unguarded_builder_partition_agrees_with_monolithic() {
        let (space, bdd) = setup();
        let i = space.var("i").unwrap();
        let built = SymbolicTransition::builder(&bdd)
            .assign(i, &[i], |v| (v[0] + 2) % 5)
            .build()
            .unwrap();
        let mono = built.monolithic();
        for target in 0..5u64 {
            let p = SymbolicPredicate::from_var_fn(&bdd, i, |x| x == target);
            assert_eq!(built.sp(&p), mono.sp(&p));
            assert_eq!(built.wp(&p), mono.wp(&p));
        }
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let (space, bdd) = setup();
        let i = space.var("i").unwrap();
        let err = SymbolicTransition::builder(&bdd)
            .assign(i, &[i], |v| v[0] + 1) // 4 + 1 = 5 is out of range
            .build()
            .unwrap_err();
        assert!(matches!(err, BddError::UpdateOutOfRange { .. }));
    }

    #[test]
    fn builder_runs_assignments_on_enabled_points_only() {
        let (space, bdd) = setup();
        let i = space.var("i").unwrap();
        let guard = SymbolicPredicate::from_var_fn(&bdd, i, |x| x > 0);
        let built = SymbolicTransition::builder(&bdd)
            .guard(&guard)
            .assign(i, &[i], |v| {
                assert!(v[0] > 0, "assignment ran at i = 0, where the guard fails");
                v[0] - 1
            })
            .build()
            .unwrap();
        let det = DetTransition::from_fn(&space, |s| {
            let v = space.value(s, i);
            space.with_value(s, i, v.saturating_sub(1))
        });
        assert_eq!(built.rel(), SymbolicTransition::from_det(&bdd, &det).rel());
    }

    #[test]
    fn builder_refuses_supports_above_the_walk_limit() {
        // 256 × 257 = 65 792 support points, above 2^16.
        let space = StateSpace::builder()
            .nat_var("a", 256)
            .unwrap()
            .nat_var("b", 257)
            .unwrap()
            .nat_var("x", 2)
            .unwrap()
            .build()
            .unwrap();
        let bdd = BddSpace::new(&space);
        let [a, b, x] = ["a", "b", "x"].map(|n| space.var(n).unwrap());
        let err = SymbolicTransition::builder(&bdd)
            .assign(x, &[a, b], |v| (v[0] + v[1]) % 2)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            BddError::SupportTooLarge {
                combinations: 65_792,
                ..
            }
        ));
    }
}
