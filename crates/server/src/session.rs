//! Session-scoped arenas: elaborated models shared across requests.
//!
//! Parsing a `.kpt` source, compiling its statements, linting it and
//! (lazily) building its ROBDD translation dominate request latency for
//! any model worth serving. The [`Sessions`] arena keys that work by
//! source text: the first request for a source pays elaboration, every
//! later request — on any connection — reuses the same [`Model`] behind
//! an `Arc`, with its lint reports and converged solution cached on it.
//!
//! ## Ownership and eviction
//!
//! The arena owns one `Arc<Model>` per cached source; requests clone the
//! `Arc` and never hold the arena lock while computing. Eviction (LRU by
//! last-use tick, triggered by the `max_models` count bound or the
//! `max_bytes` resident-size estimate) merely drops the arena's `Arc`, so
//! a model evicted mid-request stays alive until its last in-flight user
//! drops it — eviction can never corrupt a running request, only forget
//! finished work. The arena always retains the most recently used entry,
//! even when a single model exceeds `max_bytes` on its own.
//!
//! Elaboration runs *outside* the arena lock: concurrent first requests
//! for the same source may both elaborate, but only one result is
//! inserted and both callers share whichever `Arc` won. Sources are
//! compared by 64-bit FNV-1a hash *and* full text, so a hash collision
//! degrades to an uncached build, never to wrong answers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use kpt_bdd::{BddError, SymbolicKbp};
use kpt_core::Kbp;
use kpt_lint::LintOptions;
use kpt_state::{Predicate, StateSpace};
use kpt_unity::{SourceMap, UnityError};

/// Bounds on the arena's resident set.
#[derive(Debug, Clone, Copy)]
pub struct SessionConfig {
    /// Maximum cached models; least recently used beyond this are evicted.
    pub max_models: usize,
    /// Approximate byte budget across all cached models.
    pub max_bytes: u64,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            max_models: 32,
            max_bytes: 256 << 20,
        }
    }
}

/// A lint report as a `lint` result frame carries it.
pub(crate) struct LintAnswer {
    pub(crate) errors: u64,
    pub(crate) warnings: u64,
    /// The report's JSON ([`kpt_lint::LintReport::to_json`]).
    pub(crate) report: String,
}

/// One elaborated model: the state space, the explicit KBP solver with
/// its SI memo, the source map, and the lazily built symbolic translation
/// and lint reports.
pub struct Model {
    source: String,
    space: Arc<StateSpace>,
    kbp: Arc<Kbp>,
    map: SourceMap,
    symbolic: Mutex<Option<Arc<SymbolicKbp>>>,
    /// Cache of the *converged* eq. (25) iterative outcome: `(solution,
    /// iterations)`. Cycle/inconclusive outcomes depend on the requested
    /// iteration cap and are recomputed per request.
    solved: Mutex<Option<(Predicate, usize)>>,
    /// Lint answers, indexed by the request's `symbolic` flag.
    linted: Mutex<[Option<Arc<LintAnswer>>; 2]>,
}

impl Model {
    fn build(source: &str) -> Result<Model, UnityError> {
        let (space, program, map) = kpt_unity::parse_program_mapped(source)?;
        Ok(Model {
            source: source.to_owned(),
            space,
            kbp: Arc::new(Kbp::new(program)),
            map,
            symbolic: Mutex::new(None),
            solved: Mutex::new(None),
            linted: Mutex::new([None, None]),
        })
    }

    /// The model's state space.
    pub fn space(&self) -> &Arc<StateSpace> {
        &self.space
    }

    /// The explicit eq. (25) solver (shared, internally memoized).
    pub fn kbp(&self) -> &Arc<Kbp> {
        &self.kbp
    }

    /// The symbolic translation, built on first use. Failures are not
    /// cached: a later call retries the translation.
    pub fn symbolic(&self) -> Result<Arc<SymbolicKbp>, BddError> {
        let mut slot = self.symbolic.lock().expect("symbolic lock poisoned");
        if let Some(s) = slot.as_ref() {
            return Ok(Arc::clone(s));
        }
        let built = Arc::new(SymbolicKbp::from_program(self.kbp.program())?);
        *slot = Some(Arc::clone(&built));
        Ok(built)
    }

    /// The cached converged solution, when a prior request found one
    /// within `max_iterations` iterations.
    pub fn cached_solution(&self, max_iterations: usize) -> Option<(Predicate, usize)> {
        let slot = self.solved.lock().expect("solved lock poisoned");
        slot.as_ref()
            .filter(|(_, iters)| *iters <= max_iterations)
            .cloned()
    }

    /// Record a converged solution for reuse.
    pub fn store_solution(&self, solution: &Predicate, iterations: usize) {
        let mut slot = self.solved.lock().expect("solved lock poisoned");
        if slot.is_none() {
            *slot = Some((solution.clone(), iterations));
        }
    }

    /// The lint answer for this model's program — every pass, the
    /// symbolic one only when `symbolic` — with spans resolved through
    /// the source map. Computed on first use per flag, outside the lock
    /// (concurrent first callers may both lint; the first answer stored
    /// is the one kept), then served from the cache.
    pub(crate) fn lint(&self, symbolic: bool) -> Arc<LintAnswer> {
        let slot = usize::from(symbolic);
        if let Some(answer) = &self.linted.lock().expect("lint lock poisoned")[slot] {
            return Arc::clone(answer);
        }
        let options = LintOptions {
            symbolic,
            ..LintOptions::default()
        };
        let report = kpt_lint::lint_program_mapped(self.kbp.program(), &self.map, &options);
        let answer = Arc::new(LintAnswer {
            errors: report.error_count() as u64,
            warnings: report.warning_count() as u64,
            report: report.to_json(),
        });
        let mut linted = self.linted.lock().expect("lint lock poisoned");
        Arc::clone(linted[slot].get_or_insert(answer))
    }

    /// Approximate resident bytes: the SI memo's predicates (one bitset of
    /// `num_states` bits per cached candidate, twice — key and value —
    /// plus SI and init), the source text and its source map, the cached
    /// lint reports, and a flat allowance for the symbolic manager when it
    /// has been built.
    pub fn approx_bytes(&self) -> u64 {
        let bitset = self.space.num_states() / 8 + 64;
        let cached = self.kbp.cached_candidates() as u64;
        let symbolic = if self.symbolic.lock().map(|s| s.is_some()).unwrap_or(false) {
            1 << 20
        } else {
            0
        };
        let linted: u64 = self
            .linted
            .lock()
            .map(|l| l.iter().flatten().map(|a| a.report.len() as u64).sum())
            .unwrap_or(0);
        bitset * (2 * cached + 4)
            + self.source.len() as u64
            + source_map_bytes(&self.map)
            + linted
            + symbolic
    }
}

/// Approximate heap bytes of a source map: its entries and their names.
fn source_map_bytes(map: &SourceMap) -> u64 {
    use kpt_logic::Span;
    use std::mem::size_of;
    let named = |name: &String| (name.len() + size_of::<(String, Span)>()) as u64;
    let statements: u64 = map
        .statements
        .iter()
        .map(|s| {
            (size_of::<kpt_unity::StatementSpans>()
                + s.name.len()
                + s.assigns.len() * size_of::<Span>()) as u64
        })
        .sum();
    map.decls.iter().map(|(n, _)| named(n)).sum::<u64>()
        + map.processes.iter().map(|(n, _)| named(n)).sum::<u64>()
        + (map.init_conjuncts.len() * size_of::<Span>()) as u64
        + statements
}

struct Entry {
    model: Arc<Model>,
    last_used: u64,
}

struct Inner {
    map: HashMap<u64, Entry>,
    tick: u64,
}

/// The arena: a bounded, LRU-evicting map from source text to [`Model`].
pub struct Sessions {
    config: SessionConfig,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Sessions {
    /// An empty arena with the given bounds (`max_models` is clamped to
    /// at least 1).
    pub fn new(config: SessionConfig) -> Sessions {
        Sessions {
            config: SessionConfig {
                max_models: config.max_models.max(1),
                ..config
            },
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Fetch the model for `source`, elaborating and caching it on miss.
    ///
    /// # Errors
    /// [`UnityError`] when the source fails to parse or elaborate (the
    /// error is not cached).
    pub fn get_or_load(&self, source: &str) -> Result<Arc<Model>, UnityError> {
        let hash = fnv1a(source.as_bytes());
        {
            let mut inner = self.inner.lock().expect("sessions lock poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner.map.get_mut(&hash) {
                if e.model.source == source {
                    e.last_used = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    kpt_obs::counter!("server.sessions.hits").incr();
                    return Ok(Arc::clone(&e.model));
                }
            }
        }
        // Elaborate outside the lock: slow, and safe to race.
        let model = Arc::new(Model::build(source)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        kpt_obs::counter!("server.sessions.misses").incr();
        let mut inner = self.inner.lock().expect("sessions lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(&hash) {
            Some(e) if e.model.source == source => {
                // A concurrent miss won the race; share its model so the
                // arena stays canonical.
                e.last_used = tick;
                return Ok(Arc::clone(&e.model));
            }
            Some(_) => {
                // 64-bit collision between different sources: serve the
                // fresh build uncached rather than evict the incumbent.
                kpt_obs::counter!("server.sessions.collisions").incr();
                return Ok(model);
            }
            None => {
                inner.map.insert(
                    hash,
                    Entry {
                        model: Arc::clone(&model),
                        last_used: tick,
                    },
                );
            }
        }
        self.evict_locked(&mut inner, hash);
        kpt_obs::gauge!("server.sessions.active").set(inner.map.len() as u64);
        Ok(model)
    }

    /// Evict LRU entries until both bounds hold, never touching the entry
    /// `keep` (the one just inserted) and always retaining ≥ 1 entry.
    fn evict_locked(&self, inner: &mut Inner, keep: u64) {
        loop {
            let over_count = inner.map.len() > self.config.max_models;
            let bytes: u64 = inner.map.values().map(|e| e.model.approx_bytes()).sum();
            let over_bytes = bytes > self.config.max_bytes && inner.map.len() > 1;
            if !over_count && !over_bytes {
                return;
            }
            let victim = inner
                .map
                .iter()
                .filter(|(h, _)| **h != keep)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(h, _)| *h);
            match victim {
                Some(h) => {
                    // Dropping the Arc here only forgets the cache entry;
                    // in-flight requests keep their own Arc alive.
                    inner.map.remove(&h);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    kpt_obs::counter!("server.sessions.evictions").incr();
                }
                None => return,
            }
        }
    }

    /// Cached model count.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("sessions lock poisoned").map.len()
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (elaborations) since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Evictions since construction.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC_A: &str = "program a\ndeclare\n  x : boolean\nprocesses\n  P = {x}\n\
                         init\n  ~x\nassign\n  set: x := 1 if ~x\n";
    const SRC_B: &str = "program b\ndeclare\n  y : boolean\nprocesses\n  Q = {y}\n\
                         init\n  ~y\nassign\n  set: y := 1 if ~y\n";

    #[test]
    fn hit_returns_the_same_arc_and_counts() {
        let s = Sessions::new(SessionConfig::default());
        let m1 = s.get_or_load(SRC_A).expect("loads");
        let m2 = s.get_or_load(SRC_A).expect("hits");
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!((s.hits(), s.misses()), (1, 1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn count_bound_evicts_lru_not_just_inserted() {
        let s = Sessions::new(SessionConfig {
            max_models: 1,
            max_bytes: u64::MAX,
        });
        let a = s.get_or_load(SRC_A).expect("loads a");
        let _b = s.get_or_load(SRC_B).expect("loads b");
        assert_eq!(s.len(), 1);
        assert_eq!(s.evictions(), 1);
        // `a` is still usable: eviction only dropped the arena's Arc.
        assert_eq!(a.space().num_states(), 2);
        // Re-loading `a` is a miss now.
        let _a2 = s.get_or_load(SRC_A).expect("reloads a");
        assert_eq!(s.misses(), 3);
    }

    #[test]
    fn byte_bound_keeps_at_least_one_entry() {
        let s = Sessions::new(SessionConfig {
            max_models: 8,
            max_bytes: 1, // everything is over budget
        });
        let _a = s.get_or_load(SRC_A).expect("loads a");
        let _b = s.get_or_load(SRC_B).expect("loads b");
        assert_eq!(s.len(), 1, "byte bound evicts down to one entry");
        assert!(s.evictions() >= 1);
    }

    #[test]
    fn lint_reports_are_cached_and_counted_in_the_estimate() {
        let s = Sessions::new(SessionConfig::default());
        let m = s.get_or_load(SRC_A).expect("loads");
        let before = m.approx_bytes();
        let answer = m.lint(true);
        assert!(
            Arc::ptr_eq(&answer, &m.lint(true)),
            "a second lint is a cache hit"
        );
        assert!(
            m.approx_bytes() >= before + answer.report.len() as u64,
            "the estimate grows by at least the report"
        );
        let fast = m.lint(false);
        assert!(m.approx_bytes() >= before + (answer.report.len() + fast.report.len()) as u64);
    }

    #[test]
    fn parse_failures_are_not_cached() {
        let s = Sessions::new(SessionConfig::default());
        assert!(s.get_or_load("not a program").is_err());
        assert_eq!(s.len(), 0);
        assert_eq!(s.misses(), 0);
    }
}
