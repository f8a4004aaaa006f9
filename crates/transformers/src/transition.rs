//! Deterministic state transitions and their `sp`/`wp`/`wlp` transformers.
//!
//! UNITY statements are guarded, *deterministic*, terminating multiple
//! assignments, so a single statement denotes a total function on states
//! ([`DetTransition`]). Its strongest postcondition `sp` is the image and
//! its weakest precondition `wp` the preimage; since statements always
//! terminate, `wp = wlp` (§5 of the paper).
//!
//! A statement whose guard is false "has no effect" (§5), so a transition
//! stores only the states it *moves*, with their targets; every other state
//! is a fixed point. Each kernel splits off that identity part with one
//! word-wise operation and does per-state work only on the moved states.
//!
//! The whole-program `SP` of eq. (26),
//! `SP.p ≡ (∃ s : s a statement : sp.s.p)`, is provided by [`sp_union`].

use std::sync::Arc;

use kpt_state::{Predicate, StateSpace};

/// A total, deterministic transition function on a finite state space,
/// stored as the set of states it moves plus their targets.
///
/// `moved` holds the states whose successor differs from the state;
/// `targets` lists their successors in state order; `rank[w]` counts the
/// moved states in the words before word `w`, so the target of a moved
/// state is one popcount away. Memory is about `n/8 + n/16 + 4·|moved|`
/// bytes for `n` states.
#[derive(Debug, Clone)]
pub struct DetTransition {
    moved: Predicate,
    rank: Box<[u32]>,
    targets: Box<[u32]>,
}

impl DetTransition {
    /// Build from a successor function evaluated at every state.
    ///
    /// # Panics
    /// Panics if `f` returns an out-of-range successor.
    pub fn from_fn<F: FnMut(u64) -> u64>(space: &Arc<StateSpace>, f: F) -> Self {
        DetTransition::build(space, 0..space.num_states(), 0, f)
    }

    /// Build the transition of a guarded statement: `f` is evaluated only
    /// at the states where `guard` holds, and every other state is fixed
    /// (the statement "has no effect" there). Equal to
    /// `from_fn(space, |s| if guard.holds(s) { f(s) } else { s })`.
    ///
    /// # Panics
    /// Panics if `guard` is over a differently shaped space, or if `f`
    /// returns an out-of-range successor.
    pub fn guarded<F: FnMut(u64) -> u64>(space: &Arc<StateSpace>, guard: &Predicate, f: F) -> Self {
        assert!(
            Arc::ptr_eq(guard.space(), space) || guard.space().same_shape(space),
            "guard from a different state space"
        );
        DetTransition::build(space, guard.iter(), guard.count() as usize, f)
    }

    /// The identity transition (the semantics of a statement whose guard is
    /// false: "the execution of the statement has no effect"). It moves no
    /// state and stores no target.
    pub fn identity(space: &Arc<StateSpace>) -> Self {
        DetTransition::build(space, std::iter::empty(), 0, |s| s)
    }

    /// Evaluate `f` at `states` (ascending) and keep the states it moves;
    /// `capacity` bounds how many can move, when known up front.
    fn build<I, F>(space: &Arc<StateSpace>, states: I, capacity: usize, mut f: F) -> Self
    where
        I: IntoIterator<Item = u64>,
        F: FnMut(u64) -> u64,
    {
        let n = space.num_states();
        let mut moved = Predicate::ff(space);
        let mut targets = Vec::with_capacity(capacity);
        for s in states {
            let t = f(s);
            assert!(t < n, "successor {t} of state {s} out of range");
            if t != s {
                moved.insert(s);
                targets.push(t as u32);
            }
        }
        let mut seen = 0u64;
        let rank = moved
            .as_words()
            .iter()
            .map(|w| {
                let r = seen as u32;
                seen += u64::from(w.count_ones());
                r
            })
            .collect();
        DetTransition {
            moved,
            rank,
            targets: targets.into_boxed_slice(),
        }
    }

    /// The state space.
    pub fn space(&self) -> &Arc<StateSpace> {
        self.moved.space()
    }

    /// The states this transition moves: `{ s | step(s) ≠ s }`.
    pub fn moved(&self) -> &Predicate {
        &self.moved
    }

    /// Successor of a single state.
    ///
    /// # Panics
    /// Panics if `state` is out of range.
    #[inline]
    pub fn step(&self, state: u64) -> u64 {
        if !self.moved.holds(state) {
            return state;
        }
        let w = (state / 64) as usize;
        let below = self.moved.as_words()[w] & ((1 << (state % 64)) - 1);
        u64::from(self.targets[self.rank[w] as usize + below.count_ones() as usize])
    }

    /// OR the image of `p` into `out`: `p ∧ ¬moved` word-wise, then the
    /// moved states of `p` scattered through their targets.
    fn sp_into(&self, p: &[u64], out: &mut [u64]) {
        let moved = self.moved.as_words();
        for (w, (&pw, &mw)) in p.iter().zip(moved).enumerate() {
            if pw == 0 {
                // Frontier predicates are mostly empty words.
                continue;
            }
            out[w] |= pw & !mw;
            let mut bits = pw & mw;
            let base = self.rank[w] as usize;
            while bits != 0 {
                let below = mw & ((1 << bits.trailing_zeros()) - 1);
                let t = self.targets[base + below.count_ones() as usize];
                out[(t / 64) as usize] |= 1 << (t % 64);
                bits &= bits - 1;
            }
        }
    }

    /// Strongest postcondition: the exact image `{ t | ∃s ∈ p : s → t }`,
    /// that is `(p ∧ ¬moved) ∪ targets(p ∧ moved)`.
    #[must_use]
    pub fn sp(&self, p: &Predicate) -> Predicate {
        sp_union(std::slice::from_ref(self), p)
    }

    /// Weakest (liberal) precondition: the exact preimage
    /// `{ s | step(s) ∈ q }`, that is
    /// `(q ∧ ¬moved) ∪ { s ∈ moved | target(s) ∈ q }`. Since the
    /// transition is total and deterministic, `wp = wlp`.
    #[must_use]
    pub fn wp(&self, q: &Predicate) -> Predicate {
        let qw = q.as_words();
        let mut targets = self.targets.iter();
        let words = qw
            .iter()
            .zip(self.moved.as_words())
            .map(|(&q_w, &mw)| {
                let mut out = q_w & !mw;
                let mut bits = mw;
                while bits != 0 {
                    // Moved states come in state order, as their targets do.
                    let t = *targets.next().expect("one target per moved state");
                    out |= (qw[(t / 64) as usize] >> (t % 64) & 1) << bits.trailing_zeros();
                    bits &= bits - 1;
                }
                out
            })
            .collect();
        Predicate::from_raw_words(self.space(), words)
    }

    /// Reference implementation of [`DetTransition::sp`] (per-index
    /// insertion), kept for differential testing.
    #[must_use]
    pub fn sp_naive(&self, p: &Predicate) -> Predicate {
        Predicate::from_indices(self.space(), p.iter().map(|s| self.step(s)))
    }

    /// Reference implementation of [`DetTransition::wp`] (per-state probe),
    /// kept for differential testing.
    #[must_use]
    pub fn wp_naive(&self, p: &Predicate) -> Predicate {
        Predicate::from_fn(self.space(), |s| p.holds(self.step(s)))
    }

    /// Whether `p` is *stable* under this transition: `[sp.p ⇒ p]`,
    /// equivalently `[p ⇒ wp.p]`.
    pub fn preserves(&self, p: &Predicate) -> bool {
        p.entails(&self.wp(p))
    }

    /// Fixed points of the transition: states `s` with `step(s) = s`,
    /// that is `¬moved`.
    #[must_use]
    pub fn fixed_states(&self) -> Predicate {
        self.moved.negate()
    }
}

/// The program-level strongest postcondition of eq. (26): the union of the
/// statement images, `SP.p = (∃ s :: sp.s.p)`, scattered into one word
/// buffer. This is the inner loop of the `SI`/`sst` frontier fixpoints.
///
/// Returns `false` for an empty statement list (no transitions at all).
#[must_use]
pub fn sp_union(transitions: &[DetTransition], p: &Predicate) -> Predicate {
    let mut words = vec![0u64; p.as_words().len()];
    for t in transitions {
        t.sp_into(p.as_words(), &mut words);
    }
    Predicate::from_raw_words(p.space(), words)
}

/// The program-level conjunction of statement `wp`s: the weakest predicate
/// guaranteeing that *every* statement leads into `p` (used by the `unless`
/// proof rule (27)).
#[must_use]
pub fn wp_inter(transitions: &[DetTransition], p: &Predicate) -> Predicate {
    let mut out = Predicate::tt(p.space());
    for t in transitions {
        out.and_assign(&t.wp(p));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Arc<StateSpace> {
        StateSpace::builder()
            .nat_var("i", 6)
            .unwrap()
            .build()
            .unwrap()
    }

    /// i := i+1 if i < 5
    fn incr(space: &Arc<StateSpace>) -> DetTransition {
        DetTransition::from_fn(space, |s| if s < 5 { s + 1 } else { s })
    }

    #[test]
    fn sp_is_exact_image() {
        let s = space();
        let t = incr(&s);
        let p = Predicate::from_indices(&s, [0, 4, 5]);
        let img = t.sp(&p);
        assert_eq!(img.iter().collect::<Vec<_>>(), vec![1, 5]);
    }

    #[test]
    fn wp_is_exact_preimage() {
        let s = space();
        let t = incr(&s);
        let p = Predicate::from_indices(&s, [3]);
        assert_eq!(t.wp(&p).iter().collect::<Vec<_>>(), vec![2]);
        // wp of a set containing the absorbing state includes it.
        let q = Predicate::from_indices(&s, [5]);
        assert_eq!(t.wp(&q).iter().collect::<Vec<_>>(), vec![4, 5]);
    }

    #[test]
    fn galois_connection_sp_wp() {
        // [sp.p ⇒ q]  ≡  [p ⇒ wp.q]
        let s = space();
        let t = incr(&s);
        for pi in 0..(1u64 << 6) {
            let p = Predicate::from_fn(&s, |idx| pi >> idx & 1 == 1);
            for qi in [0u64, 0b101010, 0b111000, (1 << 6) - 1] {
                let q = Predicate::from_fn(&s, |idx| qi >> idx & 1 == 1);
                assert_eq!(t.sp(&p).entails(&q), p.entails(&t.wp(&q)));
            }
        }
    }

    #[test]
    fn identity_transition() {
        let s = space();
        let id = DetTransition::identity(&s);
        let p = Predicate::from_indices(&s, [1, 3]);
        assert_eq!(id.sp(&p), p);
        assert_eq!(id.wp(&p), p);
        assert!(id.preserves(&p));
        assert!(id.fixed_states().everywhere());
    }

    #[test]
    fn preserves_detects_stability() {
        let s = space();
        let t = incr(&s);
        let up = Predicate::from_fn(&s, |i| i >= 2);
        assert!(t.preserves(&up));
        let down = Predicate::from_fn(&s, |i| i <= 2);
        assert!(!t.preserves(&down));
    }

    #[test]
    fn fixed_states_of_incr() {
        let s = space();
        let t = incr(&s);
        assert_eq!(t.fixed_states().iter().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn sp_union_and_wp_inter() {
        let s = space();
        let t1 = incr(&s);
        // i := i-1 if i > 0
        let t2 = DetTransition::from_fn(&s, |i| i.saturating_sub(1));
        let p = Predicate::from_indices(&s, [2]);
        let sp = sp_union(&[t1.clone(), t2.clone()], &p);
        assert_eq!(sp.iter().collect::<Vec<_>>(), vec![1, 3]);
        // wp_inter: all statements stay within {1,2,3} from exactly {2}.
        let q = Predicate::from_indices(&s, [1, 2, 3]);
        let wp = wp_inter(&[t1, t2], &q);
        assert_eq!(wp.iter().collect::<Vec<_>>(), vec![2]);
        // Empty program: SP = false, wp_inter = true.
        assert!(sp_union(&[], &p).is_false());
        assert!(wp_inter(&[], &p).everywhere());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_successor_panics() {
        let s = space();
        let _ = DetTransition::from_fn(&s, |i| i + 1);
    }

    #[test]
    fn sp_monotonic_and_or_continuous() {
        // Properties assumed of SP in §2: total, monotonic, or-continuous.
        let s = space();
        let t = incr(&s);
        let p = Predicate::from_indices(&s, [0, 1]);
        let q = Predicate::from_indices(&s, [0, 1, 3]);
        assert!(t.sp(&p).entails(&t.sp(&q)));
        // Finite disjunctivity (hence or-continuity on finite spaces):
        assert_eq!(t.sp(&p.or(&q)), t.sp(&p).or(&t.sp(&q)));
    }
}
