//! The workspace's one memo: a clear-on-full `HashMap` behind a mutex,
//! with its [`CacheStats`] kept under the same lock.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::metrics::Counter;
use crate::trace::{event, trace_enabled, Field};

/// Entries a [`Memo`] holds before an insert clears it. Each entry of the
/// explicit engine pins two predicates, so a 2^16-state space holds at
/// worst ~64 MiB of `K p` memo — ample for every workload in the tree while
/// still bounding adversarial query streams.
pub const MEMO_CAP: usize = 4096;

/// Cache behaviour counters shared by every memo in the workspace (see
/// [`Memo`]; the BDD manager's `ite` cache reports the same shape).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from the memo.
    pub hits: u64,
    /// Queries that had to compute.
    pub misses: u64,
    /// Times the memo was cleared because it reached capacity.
    pub evictions: u64,
    /// Entries inserted over the memo's lifetime. Unlike `entries`, this
    /// survives clear-on-full eviction, so hit-rate style derived metrics
    /// stay meaningful after a clear.
    pub inserts: u64,
    /// Entries currently memoized.
    pub entries: usize,
}

impl CacheStats {
    /// Hit ratio in `[0, 1]` (0 when no queries yet).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Inner<K, V> {
    map: HashMap<K, V>,
    stats: CacheStats,
}

/// A clear-on-full, insert-if-absent memo.
///
/// Both eq.-(25) engines memoize `(view, p) ↦ K p` per candidate
/// invariant (eq. 13), and both of those memos are this type. The policy
/// lives here once:
///
/// * **Capacity.** [`MEMO_CAP`] entries. An insert into a full memo first
///   drops the whole map and counts one eviction. Predicates dominate the
///   footprint, and a full clear keeps the bookkeeping at one branch per
///   insert while long iterative runs keep their recent working set.
/// * **Insert-if-absent.** [`Memo::insert`] never overwrites: when two
///   threads miss on one key and both compute, the first value stays.
/// * **Counters.** Each memo bumps its own [`CacheStats`] plus three
///   process-wide counters (`<prefix>.hits`, `.misses`, `.evictions`) that
///   its owner resolves once, at construction.
pub struct Memo<K, V> {
    inner: Mutex<Inner<K, V>>,
    hits: &'static Counter,
    misses: &'static Counter,
    evictions: &'static Counter,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty memo that also bumps the given process-wide counters —
    /// pass handles from [`counter!`](macro@crate::counter) so a query
    /// never touches the metrics registry.
    pub fn new(
        hits: &'static Counter,
        misses: &'static Counter,
        evictions: &'static Counter,
    ) -> Self {
        Memo {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                stats: CacheStats::default(),
            }),
            hits,
            misses,
            evictions,
        }
    }

    /// Every operation leaves the map and its stats consistent, so a
    /// poisoned lock is recovered rather than propagated.
    fn lock(&self) -> MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memoized value for `key`, counting a hit or a miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut inner = self.lock();
        let found = inner.map.get(key).cloned();
        if found.is_some() {
            inner.stats.hits += 1;
            self.hits.incr();
        } else {
            inner.stats.misses += 1;
            self.misses.incr();
        }
        found
    }

    /// Insert `value` under `key` unless the key is already present (the
    /// first value stays). A full memo is cleared first, counted as one
    /// eviction.
    pub fn insert(&self, key: K, value: V) {
        let mut guard = self.lock();
        let Inner { map, stats } = &mut *guard;
        // Keys can be whole predicates, so the common path hashes once.
        if map.len() >= MEMO_CAP && !map.contains_key(&key) {
            stats.evictions += 1;
            self.evictions.incr();
            map.clear();
        }
        if let Entry::Vacant(slot) = map.entry(key) {
            slot.insert(value);
            stats.inserts += 1;
        }
    }

    /// Drop every entry without counting an eviction (for invalidation,
    /// not capacity: the entries went stale).
    pub fn clear(&self) {
        self.lock().map.clear();
    }

    /// Hits, misses, evictions and lifetime inserts so far, plus the
    /// current entry count.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            entries: inner.map.len(),
            ..inner.stats
        }
    }

    /// Emit one `kind` trace event summarising the memo (`hits`, `misses`,
    /// `evictions`, `entries`, `hit_ratio`) — owners call this when they
    /// drop, the natural end of one knowledge workload. Silent when
    /// tracing is off or the memo was never queried.
    pub fn report(&self, kind: &str) {
        if !trace_enabled() {
            return;
        }
        let stats = self.stats();
        if stats.hits + stats.misses == 0 {
            return;
        }
        event(
            kind,
            &[
                ("hits", Field::U64(stats.hits)),
                ("misses", Field::U64(stats.misses)),
                ("evictions", Field::U64(stats.evictions)),
                ("entries", Field::U64(stats.entries as u64)),
                ("hit_ratio", Field::F64(stats.hit_ratio())),
            ],
        );
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Clone for Memo<K, V> {
    fn clone(&self) -> Self {
        let inner = self.lock();
        Memo {
            inner: Mutex::new(Inner {
                map: inner.map.clone(),
                stats: inner.stats,
            }),
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

impl<K: Eq + Hash, V: Clone> fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memo")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter;

    fn memo() -> Memo<u32, u32> {
        Memo::new(
            counter!("test.memo.hits"),
            counter!("test.memo.misses"),
            counter!("test.memo.evictions"),
        )
    }

    fn counts(s: CacheStats) -> (u64, u64, u64, usize) {
        (s.hits, s.misses, s.evictions, s.entries)
    }

    #[test]
    fn cache_stats_ratio() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
            inserts: 1,
            entries: 4,
        };
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_ratio(), 0.0);
    }

    #[test]
    fn duplicate_insert_keeps_the_first() {
        let m = memo();
        m.insert(1, 10);
        m.insert(1, 11);
        assert_eq!(m.get(&1), Some(10));
        let st = m.stats();
        assert_eq!((st.inserts, st.entries, st.evictions), (1, 1, 0));
    }

    #[test]
    fn stats_track_hit_miss_and_eviction_transitions() {
        let m = memo();
        assert_eq!(m.stats(), CacheStats::default());

        // First query: one miss; its insert makes one entry.
        assert_eq!(m.get(&0), None);
        m.insert(0, 0);
        assert_eq!(counts(m.stats()), (0, 1, 0, 1));

        // Repeat: pure hit, nothing else moves.
        assert_eq!(m.get(&0), Some(0));
        let st = m.stats();
        assert_eq!(counts(st), (1, 1, 0, 1));
        assert!((st.hit_ratio() - 0.5).abs() < 1e-12);

        // Fill to the cap...
        for k in 1..MEMO_CAP as u32 {
            m.insert(k, k);
        }
        assert_eq!(m.stats().entries, MEMO_CAP);
        // ...and one more distinct key clears the memo (one eviction).
        let cap = MEMO_CAP as u32;
        assert_eq!(m.get(&cap), None);
        m.insert(cap, cap);
        assert_eq!(counts(m.stats()), (1, 2, 1, 1));

        // The evicted entry is a miss again.
        assert_eq!(m.get(&0), None);
        m.insert(0, 0);
        let st = m.stats();
        assert_eq!(counts(st), (1, 3, 1, 2));
        // Lifetime inserts survive the clear.
        assert_eq!(st.inserts, MEMO_CAP as u64 + 2);
    }

    #[test]
    fn clear_drops_entries_without_counting_an_eviction() {
        let m = memo();
        m.insert(1, 1);
        m.clear();
        assert_eq!(m.get(&1), None);
        let st = m.stats();
        assert_eq!(counts(st), (0, 1, 0, 0));
        assert_eq!(st.inserts, 1);
    }

    #[test]
    fn clone_copies_entries_and_stats() {
        let m = memo();
        m.insert(1, 1);
        let _ = m.get(&1);
        let c = m.clone();
        assert_eq!(c.stats(), m.stats());
        assert_eq!(c.get(&1), Some(1));
    }

    #[test]
    fn process_wide_counters_move_with_the_memo() {
        let m: Memo<u32, u32> = Memo::new(
            counter!("test.memo.global.hits"),
            counter!("test.memo.global.misses"),
            counter!("test.memo.global.evictions"),
        );
        let (h, mi) = (
            counter!("test.memo.global.hits").get(),
            counter!("test.memo.global.misses").get(),
        );
        let _ = m.get(&1);
        m.insert(1, 1);
        let _ = m.get(&1);
        assert_eq!(counter!("test.memo.global.hits").get(), h + 1);
        assert_eq!(counter!("test.memo.global.misses").get(), mi + 1);
    }
}
