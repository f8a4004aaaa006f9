//! Deterministic state transitions and their `sp`/`wp`/`wlp` transformers.
//!
//! UNITY statements are guarded, *deterministic*, terminating multiple
//! assignments, so a single statement denotes a total function on states
//! ([`DetTransition`]). Its strongest postcondition `sp` is the image and
//! its weakest precondition `wp` the preimage; since statements always
//! terminate, `wp = wlp` (§5 of the paper).
//!
//! The whole-program `SP` of eq. (26),
//! `SP.p ≡ (∃ s : s a statement : sp.s.p)`, is provided by [`sp_union`].

use std::sync::{Arc, OnceLock};

use kpt_state::{Predicate, StateSpace};

/// A total, deterministic transition function on a finite state space,
/// stored as a dense successor table, plus a lazily-built predecessor
/// adjacency in compressed-sparse-row form (used to make `wp` of a sparse
/// predicate a gather over only the relevant edges).
#[derive(Debug, Clone)]
pub struct DetTransition {
    space: Arc<StateSpace>,
    succ: Box<[u32]>,
    preds: OnceLock<PredCsr>,
}

/// Predecessor lists of every state, CSR-packed: the predecessors of `t`
/// are `data[offsets[t] .. offsets[t + 1]]`. Total size is exactly one
/// entry per state (each state has one successor).
#[derive(Debug, Clone)]
struct PredCsr {
    offsets: Box<[u64]>,
    data: Box<[u32]>,
}

impl DetTransition {
    /// Build from a successor function evaluated at every state.
    ///
    /// # Panics
    /// Panics if `f` returns an out-of-range successor.
    pub fn from_fn<F: FnMut(u64) -> u64>(space: &Arc<StateSpace>, mut f: F) -> Self {
        let n = space.num_states();
        let mut succ = Vec::with_capacity(n as usize);
        for s in 0..n {
            let t = f(s);
            assert!(t < n, "successor {t} of state {s} out of range");
            succ.push(t as u32);
        }
        DetTransition {
            space: Arc::clone(space),
            succ: succ.into_boxed_slice(),
            preds: OnceLock::new(),
        }
    }

    /// The identity transition (the semantics of a statement whose guard is
    /// false: "the execution of the statement has no effect").
    pub fn identity(space: &Arc<StateSpace>) -> Self {
        DetTransition::from_fn(space, |s| s)
    }

    /// The state space.
    pub fn space(&self) -> &Arc<StateSpace> {
        &self.space
    }

    /// Successor of a single state.
    #[inline]
    pub fn step(&self, state: u64) -> u64 {
        u64::from(self.succ[state as usize])
    }

    /// The predecessor CSR, built on first use and cached for the lifetime
    /// of the transition (counting sort over the successor table).
    fn csr(&self) -> &PredCsr {
        self.preds.get_or_init(|| {
            let n = self.succ.len();
            let mut offsets = vec![0u64; n + 1];
            for &t in self.succ.iter() {
                offsets[t as usize + 1] += 1;
            }
            for i in 0..n {
                offsets[i + 1] += offsets[i];
            }
            let mut cursor = offsets.clone();
            let mut data = vec![0u32; n];
            for (s, &t) in self.succ.iter().enumerate() {
                let c = &mut cursor[t as usize];
                data[*c as usize] = s as u32;
                *c += 1;
            }
            PredCsr {
                offsets: offsets.into_boxed_slice(),
                data: data.into_boxed_slice(),
            }
        })
    }

    /// The states mapping onto `state` (builds the predecessor CSR on first
    /// call).
    pub fn predecessors(&self, state: u64) -> &[u32] {
        let csr = self.csr();
        let lo = csr.offsets[state as usize] as usize;
        let hi = csr.offsets[state as usize + 1] as usize;
        &csr.data[lo..hi]
    }

    /// Strongest postcondition: the exact image `{ t | ∃s ∈ p : s → t }`.
    /// Scatter over only the set bits of `p`.
    #[must_use]
    pub fn sp(&self, p: &Predicate) -> Predicate {
        let mut words = vec![0u64; p.as_words().len()];
        for s in p.iter() {
            let t = u64::from(self.succ[s as usize]);
            words[(t / 64) as usize] |= 1 << (t % 64);
        }
        Predicate::from_raw_words(&self.space, words)
    }

    /// Weakest (liberal) precondition: the exact preimage
    /// `{ s | step(s) ∈ p }`. Since the transition is total and
    /// deterministic, `wp = wlp`.
    ///
    /// A sparse `p` is answered through the predecessor CSR (work
    /// proportional to the edges entering `p`); a dense `p` by a direct
    /// gather over the successor table.
    #[must_use]
    pub fn wp(&self, p: &Predicate) -> Predicate {
        let n = self.space.num_states();
        if p.count() * 4 <= n {
            let csr = self.csr();
            let mut words = vec![0u64; p.as_words().len()];
            for t in p.iter() {
                let lo = csr.offsets[t as usize] as usize;
                let hi = csr.offsets[t as usize + 1] as usize;
                for &s in &csr.data[lo..hi] {
                    words[(s / 64) as usize] |= 1 << (s % 64);
                }
            }
            Predicate::from_raw_words(&self.space, words)
        } else {
            let mut words = vec![0u64; p.as_words().len()];
            for (w, chunk) in self.succ.chunks(64).enumerate() {
                let mut bits = 0u64;
                for (i, &t) in chunk.iter().enumerate() {
                    bits |= u64::from(p.holds(u64::from(t))) << i;
                }
                words[w] = bits;
            }
            Predicate::from_raw_words(&self.space, words)
        }
    }

    /// Reference implementation of [`DetTransition::sp`] (per-index
    /// insertion), kept for differential testing.
    #[must_use]
    pub fn sp_naive(&self, p: &Predicate) -> Predicate {
        Predicate::from_indices(&self.space, p.iter().map(|s| self.step(s)))
    }

    /// Reference implementation of [`DetTransition::wp`] (per-state probe),
    /// kept for differential testing.
    #[must_use]
    pub fn wp_naive(&self, p: &Predicate) -> Predicate {
        Predicate::from_fn(&self.space, |s| p.holds(self.step(s)))
    }

    /// Whether `p` is *stable* under this transition: `[sp.p ⇒ p]`,
    /// equivalently `[p ⇒ wp.p]`.
    pub fn preserves(&self, p: &Predicate) -> bool {
        p.entails(&self.wp(p))
    }

    /// Fixed points of the transition: states `s` with `step(s) = s`.
    #[must_use]
    pub fn fixed_states(&self) -> Predicate {
        Predicate::from_fn(&self.space, |s| self.step(s) == s)
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
        for s in p.iter() {
            let d = u64::from(t.succ[s as usize]);
            words[(d / 64) as usize] |= 1 << (d % 64);
        }
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
