//! Bit-blasting a [`StateSpace`] into BDD levels.
//!
//! # Encoding and variable order
//!
//! Every program variable becomes `⌈log₂ |domain|⌉` boolean *bits* (zero
//! bits for singleton domains), laid out in declaration order with the
//! least-significant bit first. Each bit owns two adjacent BDD levels —
//! global bit `b` puts its **current-state** copy at level `2b` and its
//! **next-state** copy at level `2b + 1` — so transition relations keep
//! related bits adjacent and the current/next substitution is the strictly
//! monotone level shift `2b ↔ 2b + 1`.
//!
//! Domains whose size is not a power of two leave junk bit patterns; the
//! space builds a *domain constraint* BDD (`value < |domain|`, one
//! magnitude comparator per variable) for each copy and every
//! [`SymbolicPredicate`](crate::SymbolicPredicate) root is kept
//! *restricted*: it implies the current-state domain constraint. Under
//! that invariant ROBDD canonicity makes root-id equality coincide with
//! semantic equality on valid states, which is what gives the symbolic
//! fixpoints O(1) convergence checks.

use std::sync::{Arc, Mutex, MutexGuard};

use kpt_logic::Term;
use kpt_obs::Field;
use kpt_state::{Predicate, StateSpace, VarId};

use crate::error::BddError;
use crate::manager::{BddConfig, GcStats, Manager, NodeId, ReorderStats, FALSE, TRUE};

/// Cap on the points of one support walk: the value combinations of the
/// variables an assignment or a comparison reads.
pub(crate) const SUPPORT_ENUM_MAX: u64 = 1 << 16;

/// `term` at one point of a support walk over `support`, which must
/// cover the term's own support.
pub(crate) fn term_at(term: &Term, support: &[VarId], point: &[u64]) -> i64 {
    term.eval(|v| point[support.binary_search(&v).expect("support covers the term")])
}

/// Bit layout of one program variable inside a [`BddSpace`].
#[derive(Debug, Clone, Copy)]
struct VarBits {
    /// First global bit index owned by the variable.
    offset: u32,
    /// Number of bits (`⌈log₂ size⌉`, 0 for singleton domains).
    nbits: u32,
}

/// A [`StateSpace`] bit-blasted onto a shared ROBDD manager.
///
/// All symbolic objects over one space — predicates, transition relations,
/// knowledge operators, solvers — share this manager, so their node ids are
/// mutually canonical. The manager sits behind a `Mutex`; every public
/// operation takes the lock once for its whole traversal.
pub struct BddSpace {
    space: Arc<StateSpace>,
    mgr: Mutex<Manager>,
    bits: Vec<VarBits>,
    /// `global bit → (variable, bit index within the variable)`.
    bit_owner: Vec<(VarId, u32)>,
    /// All current-state levels, ascending.
    cur_levels: Vec<u32>,
    /// All next-state levels, ascending.
    nxt_levels: Vec<u32>,
    domain_ok_cur: NodeId,
    domain_ok_nxt: NodeId,
    /// The full-space identity relation (`cur = nxt`, both in-domain).
    identity: NodeId,
}

impl std::fmt::Debug for BddSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BddSpace")
            .field("space", &self.space.num_vars())
            .field("bits", &self.num_bits())
            .field("nodes", &self.node_count())
            .finish()
    }
}

/// Number of bits needed to encode values `0..size`.
fn nbits_for(size: u64) -> u32 {
    if size <= 1 {
        0
    } else {
        64 - (size - 1).leading_zeros()
    }
}

impl BddSpace {
    /// Bit-blast `space` with the default engine configuration (GC on,
    /// reordering off). The manager starts with only the domain
    /// constraints and the identity relation allocated.
    pub fn new(space: &Arc<StateSpace>) -> Arc<BddSpace> {
        Self::with_config(space, BddConfig::default())
    }

    /// Bit-blast `space` with explicit garbage-collection and reordering
    /// policies (see [`BddConfig`]); `BddConfig::serial()` reproduces the
    /// grow-only fixed-order engine the differential suites pin against.
    pub fn with_config(space: &Arc<StateSpace>, config: BddConfig) -> Arc<BddSpace> {
        let mut bits = Vec::with_capacity(space.num_vars());
        let mut bit_owner = Vec::new();
        let mut offset = 0u32;
        for v in space.vars() {
            let nbits = nbits_for(space.domain(v).size());
            bits.push(VarBits { offset, nbits });
            for k in 0..nbits {
                bit_owner.push((v, k));
            }
            offset += nbits;
        }
        let cur_levels: Vec<u32> = (0..offset).map(|b| 2 * b).collect();
        let nxt_levels: Vec<u32> = (0..offset).map(|b| 2 * b + 1).collect();

        let mut mgr = Manager::with_config(config);
        // Declare every level up front so the order covers all
        // current/next groups before any sifting can run.
        mgr.register_levels(2 * offset as usize);
        let mut domain_ok_cur = TRUE;
        let mut domain_ok_nxt = TRUE;
        for (i, v) in space.vars().enumerate() {
            let size = space.domain(v).size();
            let vb = bits[i];
            if vb.nbits == 0 || size == 1u64 << vb.nbits {
                continue; // every bit pattern is a valid value
            }
            let cur = lt_const(&mut mgr, vb, size, false);
            let nxt = lt_const(&mut mgr, vb, size, true);
            domain_ok_cur = mgr.and(domain_ok_cur, cur);
            domain_ok_nxt = mgr.and(domain_ok_nxt, nxt);
        }
        let mut identity = mgr.and(domain_ok_cur, domain_ok_nxt);
        for b in (0..offset).rev() {
            let c = mgr.literal(2 * b);
            let n = mgr.literal(2 * b + 1);
            let same = mgr.iff(c, n);
            identity = mgr.and(identity, same);
        }
        // The space owns these for its whole lifetime: root them so no
        // sweep can reclaim them.
        mgr.add_root(domain_ok_cur);
        mgr.add_root(domain_ok_nxt);
        mgr.add_root(identity);

        Arc::new(BddSpace {
            space: Arc::clone(space),
            mgr: Mutex::new(mgr),
            bits,
            bit_owner,
            cur_levels,
            nxt_levels,
            domain_ok_cur,
            domain_ok_nxt,
            identity,
        })
    }

    /// The explicit space this symbolic space encodes.
    pub fn space(&self) -> &Arc<StateSpace> {
        &self.space
    }

    /// Total boolean bits per state copy.
    pub fn num_bits(&self) -> u32 {
        self.bit_owner.len() as u32
    }

    /// Total nodes allocated in the shared manager (terminals included,
    /// freed slots not).
    pub fn node_count(&self) -> usize {
        self.lock().num_nodes()
    }

    /// Internal nodes still reachable from some root (sweepable garbage
    /// excluded).
    pub fn live_node_count(&self) -> usize {
        self.lock().live_nodes()
    }

    /// High-water mark of allocated internal nodes — what node budgets are
    /// measured against.
    pub fn peak_node_count(&self) -> usize {
        self.lock().peak_nodes()
    }

    /// Garbage-collection behaviour of the shared manager so far.
    pub fn gc_stats(&self) -> GcStats {
        self.lock().gc_stats()
    }

    /// Dynamic-reordering behaviour of the shared manager so far.
    pub fn reorder_stats(&self) -> ReorderStats {
        self.lock().reorder_stats()
    }

    /// Run a sweep right now, regardless of policy. Safe at any point where
    /// no symbolic operation is mid-flight (the lock guarantees that).
    pub fn gc_now(&self) {
        self.lock().gc(&[]);
    }

    /// `ite` memo behaviour of the shared manager. `inserts` counts
    /// lifetime insertions, so hit-rate arithmetic stays meaningful after
    /// clear-on-full or GC purges shrink `entries`.
    pub fn ite_cache_stats(&self) -> kpt_obs::CacheStats {
        let (hits, misses, evictions, inserts, entries) = self.lock().ite_cache_stats();
        kpt_obs::CacheStats {
            hits,
            misses,
            evictions,
            inserts,
            entries,
        }
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, Manager> {
        self.mgr.lock().expect("BDD manager poisoned")
    }

    /// Release one external root reference. Tolerates a poisoned lock so
    /// RAII handle `Drop` impls never panic (the root just leaks).
    pub(crate) fn release_root(&self, root: NodeId) {
        if let Ok(mut mgr) = self.mgr.lock() {
            mgr.release_root(root);
        }
    }

    pub(crate) fn cur_levels(&self) -> &[u32] {
        &self.cur_levels
    }

    pub(crate) fn nxt_levels(&self) -> &[u32] {
        &self.nxt_levels
    }

    pub(crate) fn domain_ok_cur(&self) -> NodeId {
        self.domain_ok_cur
    }

    pub(crate) fn domain_ok_nxt(&self) -> NodeId {
        self.domain_ok_nxt
    }

    pub(crate) fn identity_root(&self) -> NodeId {
        self.identity
    }

    /// Ascending current-state levels of one variable's bits.
    pub(crate) fn var_cur_levels(&self, v: VarId) -> Vec<u32> {
        let vb = self.bits[v.index()];
        (vb.offset..vb.offset + vb.nbits).map(|b| 2 * b).collect()
    }

    /// Move a current-state-only BDD onto the next-state levels.
    pub(crate) fn shift_to_next(&self, mgr: &mut Manager, n: NodeId) -> NodeId {
        mgr.map_levels(n, |l| {
            debug_assert_eq!(l % 2, 0, "expected a current-state level");
            l + 1
        })
    }

    /// Move a next-state-only BDD onto the current-state levels.
    pub(crate) fn shift_to_cur(&self, mgr: &mut Manager, n: NodeId) -> NodeId {
        mgr.map_levels(n, |l| {
            debug_assert_eq!(l % 2, 1, "expected a next-state level");
            l - 1
        })
    }

    /// Cube fixing variable `v` to `value` on the current (`next = false`)
    /// or next (`next = true`) levels. `Manager::cube` orders the chain by
    /// the *current* variable order, so this is sound after any sift.
    pub(crate) fn value_cube(&self, mgr: &mut Manager, v: VarId, value: u64, next: bool) -> NodeId {
        debug_assert!(self.space.domain(v).contains(value), "value in domain");
        let vb = self.bits[v.index()];
        let mut lits: Vec<(u32, bool)> = (0..vb.nbits)
            .map(|k| (2 * (vb.offset + k) + u32::from(next), value >> k & 1 == 1))
            .collect();
        mgr.cube(&mut lits)
    }

    /// Cube fixing every variable: one fully specified state on one copy.
    pub(crate) fn state_cube(&self, mgr: &mut Manager, state: u64, next: bool) -> NodeId {
        let mut lits: Vec<(u32, bool)> = (0..self.bit_owner.len() as u32)
            .map(|b| (2 * b + u32::from(next), self.state_bit(state, b)))
            .collect();
        mgr.cube(&mut lits)
    }

    /// Cube fixing one transition `s → t` across both copies.
    pub(crate) fn pair_cube(&self, mgr: &mut Manager, s: u64, t: u64) -> NodeId {
        let mut lits: Vec<(u32, bool)> = Vec::with_capacity(2 * self.bit_owner.len());
        for b in 0..self.bit_owner.len() as u32 {
            lits.push((2 * b, self.state_bit(s, b)));
            lits.push((2 * b + 1, self.state_bit(t, b)));
        }
        mgr.cube(&mut lits)
    }

    /// Bit `b` of the bit-blasted encoding of explicit state `state`.
    #[inline]
    pub(crate) fn state_bit(&self, state: u64, b: u32) -> bool {
        let (v, k) = self.bit_owner[b as usize];
        self.space.value(state, v) >> k & 1 == 1
    }

    /// Decode a current-state witness path (don't-care bits read as 0) into
    /// an explicit state. Sound for restricted roots: the path already
    /// implies the domain constraint, so every completion is a valid state.
    pub(crate) fn decode_cur_path(&self, path: &[(u32, bool)]) -> u64 {
        let mut values = vec![0u64; self.space.num_vars()];
        for &(level, bit) in path {
            debug_assert_eq!(level % 2, 0, "witness path must be current-state only");
            if bit {
                let (v, k) = self.bit_owner[(level / 2) as usize];
                values[v.index()] |= 1 << k;
            }
        }
        self.space
            .encode(&values)
            .expect("restricted witness decodes to a valid state")
    }

    /// Existential quantification of every bit of every variable in `vars`
    /// (current copy), re-restricted to the domain constraint.
    pub(crate) fn exists_vars_raw(
        &self,
        mgr: &mut Manager,
        root: NodeId,
        vars: impl IntoIterator<Item = VarId>,
    ) -> NodeId {
        let mut levels: Vec<u32> = vars
            .into_iter()
            .flat_map(|v| self.var_cur_levels(v))
            .collect();
        levels.sort_unstable();
        let ex = mgr.exists(root, &levels);
        mgr.and(ex, self.domain_ok_cur)
    }

    /// Universal quantification over `vars`, relative to the domain
    /// constraint: `∀v ∈ dom. p`, i.e. `¬∃v. (dom ∧ ¬p)`, re-restricted.
    pub(crate) fn forall_vars_raw(
        &self,
        mgr: &mut Manager,
        root: NodeId,
        vars: impl IntoIterator<Item = VarId>,
    ) -> NodeId {
        let mut levels: Vec<u32> = vars
            .into_iter()
            .flat_map(|v| self.var_cur_levels(v))
            .collect();
        levels.sort_unstable();
        let relative = mgr.implies(self.domain_ok_cur, root);
        let all = mgr.forall(relative, &levels);
        mgr.and(all, self.domain_ok_cur)
    }

    /// Bit-blast an explicit predicate: the disjunction of one state cube
    /// per satisfying state (O(count) cube insertions, OR-tree reduced).
    pub(crate) fn encode_explicit_raw(&self, mgr: &mut Manager, p: &Predicate) -> NodeId {
        debug_assert!(
            p.space().same_shape(&self.space),
            "predicate from a different state space"
        );
        let cubes = p.iter().map(|s| self.state_cube(mgr, s, false)).collect();
        mgr.or_all(cubes)
    }

    /// Does `value` lie in `v`'s domain? Negative values never do.
    pub(crate) fn in_domain(&self, v: VarId, value: i64) -> bool {
        u64::try_from(value).is_ok_and(|x| self.space.domain(v).contains(x))
    }

    /// Refuse a support with more than [`SUPPORT_ENUM_MAX`] points (the
    /// product of its domain sizes, saturating at `u64::MAX`); `what`
    /// names the translated item in the error.
    pub(crate) fn check_support(
        &self,
        support: &[VarId],
        what: impl FnOnce() -> String,
    ) -> Result<(), BddError> {
        let combinations = support
            .iter()
            .try_fold(1u64, |acc, v| acc.checked_mul(self.space.domain(*v).size()))
            .unwrap_or(u64::MAX);
        if combinations > SUPPORT_ENUM_MAX {
            return Err(BddError::SupportTooLarge {
                statement: what(),
                combinations,
                limit: SUPPORT_ENUM_MAX,
            });
        }
        Ok(())
    }

    /// Visit every point of `support` (ascending, no repeats) in
    /// mixed-radix order, first variable fastest. `visit` gets the point's
    /// values, aligned with `support`, and the current-level cube fixing
    /// them. Callers bound the walk with [`BddSpace::check_support`] first.
    pub(crate) fn for_each_support_point(
        &self,
        mgr: &mut Manager,
        support: &[VarId],
        mut visit: impl FnMut(&mut Manager, &[u64], NodeId),
    ) {
        debug_assert!(support.windows(2).all(|w| w[0] < w[1]), "sorted support");
        let mut point = vec![0u64; support.len()];
        let mut lits: Vec<(u32, bool)> = Vec::new();
        loop {
            lits.clear();
            for (v, &x) in support.iter().zip(&point) {
                let vb = self.bits[v.index()];
                lits.extend((0..vb.nbits).map(|k| (2 * (vb.offset + k), x >> k & 1 == 1)));
            }
            let cube = mgr.cube(&mut lits);
            visit(mgr, &point, cube);
            // Advance the odometer; past its last digit the walk is done.
            let mut digit = 0;
            loop {
                let Some(x) = point.get_mut(digit) else {
                    return;
                };
                *x += 1;
                if *x < self.space.domain(support[digit]).size() {
                    break;
                }
                *x = 0;
                digit += 1;
            }
        }
    }

    /// OR of the value cubes of `v` where `f` holds, restricted — the
    /// symbolic mirror of `Predicate::from_var_fn`.
    pub(crate) fn var_fn_raw(
        &self,
        mgr: &mut Manager,
        v: VarId,
        mut f: impl FnMut(u64) -> bool,
    ) -> NodeId {
        let size = self.space.domain(v).size();
        let mut acc = FALSE;
        for value in 0..size {
            if f(value) {
                let cube = self.value_cube(mgr, v, value, false);
                acc = mgr.or(acc, cube);
            }
        }
        mgr.and(acc, self.domain_ok_cur)
    }
}

impl Drop for BddSpace {
    /// Mirror of the knowledge memos' exit breadcrumb: if tracing is live
    /// and the manager saw traffic, leave one `bdd.cache` event with the
    /// final node count and `ite` memo behaviour.
    fn drop(&mut self) {
        if !kpt_obs::trace_enabled() {
            return;
        }
        let mgr = self.mgr.get_mut().expect("BDD manager poisoned");
        let (hits, misses, evictions, inserts, entries) = mgr.ite_cache_stats();
        if hits + misses == 0 {
            return;
        }
        let total = (hits + misses) as f64;
        kpt_obs::event(
            "bdd.cache",
            &[
                ("nodes", Field::U64(mgr.num_nodes() as u64)),
                ("nodes_peak", Field::U64(mgr.peak_nodes() as u64)),
                ("ite_hits", Field::U64(hits)),
                ("ite_misses", Field::U64(misses)),
                ("ite_evictions", Field::U64(evictions)),
                ("ite_inserts", Field::U64(inserts)),
                ("ite_entries", Field::U64(entries as u64)),
                ("ite_hit_ratio", Field::F64(hits as f64 / total)),
            ],
        );
        let gc = mgr.gc_stats();
        let ro = mgr.reorder_stats();
        kpt_obs::event(
            "bdd.gc",
            &[
                ("runs", Field::U64(gc.runs)),
                ("freed", Field::U64(gc.freed)),
                ("epoch", Field::U64(gc.epoch)),
                ("reorder_runs", Field::U64(ro.runs)),
                ("reorder_swaps", Field::U64(ro.swaps)),
            ],
        );
    }
}

/// Magnitude comparator `value(v) < bound` on one copy, built MSB-down with
/// the classic two-accumulator scheme (`lt` = already strictly less, `eq` =
/// equal so far).
fn lt_const(mgr: &mut Manager, vb: VarBits, bound: u64, next: bool) -> NodeId {
    let mut lt = FALSE;
    let mut eq = TRUE;
    for k in (0..vb.nbits).rev() {
        let bit = mgr.literal(2 * (vb.offset + k) + u32::from(next));
        if bound >> k & 1 == 1 {
            let nb = mgr.not(bit);
            let new_lt = mgr.and(eq, nb);
            lt = mgr.or(lt, new_lt);
            eq = mgr.and(eq, bit);
        } else {
            let nb = mgr.not(bit);
            eq = mgr.and(eq, nb);
        }
    }
    lt
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_state::StateSpace;

    fn space_3x2() -> Arc<StateSpace> {
        StateSpace::builder()
            .nat_var("i", 3)
            .unwrap()
            .bool_var("b")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn bit_layout_and_nbits() {
        assert_eq!(nbits_for(1), 0);
        assert_eq!(nbits_for(2), 1);
        assert_eq!(nbits_for(3), 2);
        assert_eq!(nbits_for(4), 2);
        assert_eq!(nbits_for(5), 3);
        let s = BddSpace::new(&space_3x2());
        assert_eq!(s.num_bits(), 3); // 2 bits for i, 1 for b
        assert_eq!(s.cur_levels(), &[0, 2, 4]);
        assert_eq!(s.nxt_levels(), &[1, 3, 5]);
    }

    #[test]
    fn domain_constraint_counts_valid_states() {
        let s = BddSpace::new(&space_3x2());
        let mgr = s.lock();
        // 3 × 2 = 6 valid states out of 2³ = 8 bit patterns.
        assert_eq!(mgr.satcount(s.domain_ok_cur(), s.cur_levels()), 6);
        assert_eq!(mgr.satcount(s.domain_ok_nxt(), s.nxt_levels()), 6);
        // The identity relation has one (s, s) pair per valid state.
        let all: Vec<u32> = (0..6).collect();
        assert_eq!(mgr.satcount(s.identity_root(), &all), 6);
        drop(mgr);
    }

    #[test]
    fn cubes_hit_exactly_their_state() {
        let space = space_3x2();
        let s = BddSpace::new(&space);
        let mut mgr = s.lock();
        for st in 0..space.num_states() {
            let cube = s.state_cube(&mut mgr, st, false);
            assert_eq!(mgr.satcount(cube, s.cur_levels()), 1);
            for other in 0..space.num_states() {
                let holds = mgr.eval(cube, |l| s.state_bit(other, l / 2));
                assert_eq!(holds, st == other);
            }
        }
        drop(mgr);
    }

    #[test]
    fn pair_cube_relates_one_transition() {
        let space = space_3x2();
        let s = BddSpace::new(&space);
        let mut mgr = s.lock();
        let cube = s.pair_cube(&mut mgr, 2, 5);
        let all: Vec<u32> = (0..6).collect();
        assert_eq!(mgr.satcount(cube, &all), 1);
        let holds = mgr.eval(cube, |l| {
            let b = l / 2;
            s.state_bit(if l % 2 == 0 { 2 } else { 5 }, b)
        });
        assert!(holds);
        drop(mgr);
    }

    #[test]
    fn shift_roundtrips() {
        let s = BddSpace::new(&space_3x2());
        let mut mgr = s.lock();
        let d = s.domain_ok_cur();
        let shifted = s.shift_to_next(&mut mgr, d);
        assert_eq!(shifted, s.domain_ok_nxt());
        assert_eq!(s.shift_to_cur(&mut mgr, shifted), d);
        drop(mgr);
    }

    #[test]
    fn from_explicit_matches_membership() {
        let space = space_3x2();
        let s = BddSpace::new(&space);
        let p = Predicate::from_fn(&space, |st| st % 2 == 0);
        let mut mgr = s.lock();
        let root = s.encode_explicit_raw(&mut mgr, &p);
        assert_eq!(mgr.satcount(root, s.cur_levels()), u128::from(p.count()));
        for st in 0..space.num_states() {
            let holds = mgr.eval(root, |l| s.state_bit(st, l / 2));
            assert_eq!(holds, p.holds(st));
        }
        drop(mgr);
    }

    #[test]
    fn witness_decodes_to_a_valid_state() {
        let space = space_3x2();
        let s = BddSpace::new(&space);
        let mut mgr = s.lock();
        let v = space.var("i").unwrap();
        let cube = s.value_cube(&mut mgr, v, 2, false);
        let restricted = {
            let d = s.domain_ok_cur();
            mgr.and(cube, d)
        };
        let path = mgr.witness_path(restricted).unwrap();
        drop(mgr);
        let st = s.decode_cur_path(&path);
        assert_eq!(space.value(st, v), 2);
    }
}
