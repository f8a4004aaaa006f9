//! Knowledge-based protocols (§4): the non-monotone fixpoint equation (25)
//! and its solvers.
//!
//! A knowledge-based protocol is a UNITY program whose guards may mention
//! `K{i}`. Because `K_i` is defined from `SI` (eq. 13) while `SI` is
//! defined from the program's transitions (eq. 1), a KBP denotes a
//! *fixpoint equation* rather than a program:
//!
//! ```text
//! SI  ≝  strongest x : [ŜP.x ⇒ x] ∧ [init ⇒ x]          (25)
//! ```
//!
//! where `ŜP` is `SP` with every knowledge guard evaluated against the
//! candidate `x`. On a finite space, `x` *solves* the KBP exactly when `x`
//! equals the strongest invariant of the standard program obtained by
//! substituting `x` for `SI` in the knowledge guards. Since `ŜP` is not
//! monotone, a solution may not exist (Figure 1), and when solutions exist
//! the set need not have a strongest element, nor behave monotonically in
//! `init` (Figure 2). This module provides:
//!
//! * [`Kbp::is_solution`] — the verification predicate;
//! * [`Kbp::solve_exhaustive`] — complete enumeration over candidate
//!   invariants `x ⊇ init` (small spaces): finds **all** solutions or
//!   proves there are none;
//! * [`Kbp::solve_iterative`] — the scalable iteration
//!   `x_{k+1} = SI(program[K @ x_k])` with cycle detection; sound when it
//!   converges (the result is verified), inconclusive otherwise.

use std::collections::HashMap;
use std::sync::Mutex;

use kpt_state::{Predicate, VarSet};
use kpt_testkit::pool;
use kpt_transformers::iterate_to_fixpoint;
pub use kpt_transformers::IterativeOutcome;
use kpt_unity::{CompiledProgram, Program};

use crate::error::CoreError;
use crate::knowledge::KnowledgeOperator;

/// Upper bound on memoized `candidate ↦ SI` pairs (exhaustive search over
/// many free states would otherwise grow the cache exponentially). When
/// the cap is reached the cache is *cleared* and refilled (clear-on-full)
/// rather than freezing, so long iterative runs keep their recent working
/// set memoized; [`Kbp::cache_counters`] makes the churn observable.
const SI_CACHE_CAP: usize = 4096;

/// The memo plus its observability counters, all under one lock.
#[derive(Debug, Clone, Default)]
struct SiCache {
    map: HashMap<Predicate, Predicate>,
    hits: u64,
    misses: u64,
    evictions: u64,
    inserts: u64,
}

impl SiCache {
    /// Insert with clear-on-full eviction.
    fn insert(&mut self, candidate: Predicate, si: Predicate) {
        if self.map.len() >= SI_CACHE_CAP {
            self.map.clear();
            self.evictions += 1;
            kpt_obs::counter!("kbp.si_cache.evictions").incr();
        }
        self.inserts += 1;
        self.map.insert(candidate, si);
    }
}

/// Smallest candidate count worth fanning out over the pool. Each
/// candidate costs a few microseconds (compile + frontier SI on the small
/// spaces exhaustive search is for), so below a few thousand candidates
/// thread spawn and merge overhead eats the win — measured flat at 256
/// candidates on the kernels bench.
const PAR_MIN_CANDIDATES: u64 = 4096;

/// A knowledge-based protocol: a UNITY [`Program`] whose guards may mention
/// knowledge, together with the eq. (25) solution machinery.
///
/// Evaluating a candidate `x` — compiling the standard program at `x` and
/// taking its strongest invariant — is the solver's unit of work; results
/// are memoized per candidate, so the cycle-detection replays of
/// [`Kbp::solve_iterative`] and repeated [`Kbp::is_solution`] probes are
/// answered from cache.
#[derive(Debug)]
pub struct Kbp {
    program: Program,
    views: Vec<(String, VarSet)>,
    si_cache: Mutex<SiCache>,
}

impl Clone for Kbp {
    fn clone(&self) -> Self {
        Kbp {
            program: self.program.clone(),
            views: self.views.clone(),
            si_cache: Mutex::new(self.si_cache.lock().expect("SI cache poisoned").clone()),
        }
    }
}

impl Kbp {
    /// Wrap a program (knowledge guards allowed but not required — a
    /// standard program is the degenerate KBP whose solution is its own
    /// `SI`).
    pub fn new(program: Program) -> Self {
        let views = program
            .processes()
            .iter()
            .map(|p| (p.name().to_owned(), p.view()))
            .collect();
        Kbp {
            program,
            views,
            si_cache: Mutex::new(SiCache::default()),
        }
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The same KBP with a different initial condition (for studying the
    /// Figure-2 non-monotonicity). The SI cache is *not* carried over: the
    /// fixpoint equation depends on `init`.
    #[must_use]
    pub fn with_init(&self, init: Predicate) -> Kbp {
        Kbp::new(self.program.with_init(init))
    }

    /// Compile the *standard* program obtained by evaluating every
    /// knowledge guard against the candidate invariant `x` (the paper's
    /// "replacing all the knowledge predicates with the corresponding
    /// standard predicate obtained using SI").
    ///
    /// # Errors
    /// Compilation errors from the underlying program.
    pub fn compile_at(&self, x: &Predicate) -> Result<CompiledProgram, CoreError> {
        // One shared knowledge context per candidate: every guard of every
        // statement evaluates its K{i} subterms through the same memo.
        let op = KnowledgeOperator::with_si(self.program.space(), self.views.clone(), x.clone())?;
        let f = op.knowledge_fn();
        Ok(self.program.compile_with_knowledge(f.as_ref())?)
    }

    /// The eq. (25) verification: `x` solves the KBP iff `x` is exactly the
    /// strongest invariant of the standard program obtained at `x`.
    ///
    /// # Errors
    /// Compilation errors.
    pub fn is_solution(&self, x: &Predicate) -> Result<bool, CoreError> {
        Ok(&self.iterate(x)? == x)
    }

    /// One step of the solution iteration: the strongest invariant of the
    /// standard program obtained at `x`. Memoized per candidate.
    ///
    /// # Errors
    /// Compilation errors.
    pub fn iterate(&self, x: &Predicate) -> Result<Predicate, CoreError> {
        {
            let mut cache = self.si_cache.lock().expect("SI cache poisoned");
            if let Some(si) = cache.map.get(x).cloned() {
                cache.hits += 1;
                kpt_obs::counter!("kbp.si_cache.hits").incr();
                return Ok(si);
            }
            cache.misses += 1;
            kpt_obs::counter!("kbp.si_cache.misses").incr();
        }
        let si = self.compile_at(x)?.si().clone();
        self.si_cache
            .lock()
            .expect("SI cache poisoned")
            .insert(x.clone(), si.clone());
        Ok(si)
    }

    /// Number of memoized `candidate ↦ SI` evaluations.
    pub fn cached_candidates(&self) -> usize {
        self.si_cache.lock().expect("SI cache poisoned").map.len()
    }

    /// `(cache hits, cache misses)` of the `candidate ↦ SI` memo so far
    /// (mirrors [`crate::KnowledgeContext::cache_counters`]). A growing
    /// miss count with a stable [`Kbp::cached_candidates`] signals
    /// clear-on-full churn; see [`Kbp::cache_evictions`].
    pub fn cache_counters(&self) -> (u64, u64) {
        let cache = self.si_cache.lock().expect("SI cache poisoned");
        (cache.hits, cache.misses)
    }

    /// How many times the `candidate ↦ SI` memo was cleared because it
    /// reached capacity.
    pub fn cache_evictions(&self) -> u64 {
        self.si_cache.lock().expect("SI cache poisoned").evictions
    }

    /// Full cache behaviour of the `candidate ↦ SI` memo, in the same
    /// shape as [`crate::KnowledgeContext::cache_stats`].
    pub fn cache_stats(&self) -> kpt_obs::CacheStats {
        let cache = self.si_cache.lock().expect("SI cache poisoned");
        kpt_obs::CacheStats {
            hits: cache.hits,
            misses: cache.misses,
            evictions: cache.evictions,
            inserts: cache.inserts,
            entries: cache.map.len(),
        }
    }

    /// Complete enumeration of all solutions, over candidates
    /// `x = init ∪ S` for every subset `S` of the non-init states, fanned
    /// out across the [`pool`] workers (`KPT_THREADS` / available cores).
    ///
    /// Each worker evaluates its candidates thread-locally (no lock on the
    /// shared memo); verified solutions and a capacity-bounded sample of
    /// `candidate ↦ SI` pairs are merged at the end, so the result — and
    /// the enumeration order of [`SolutionSet::solutions`] — is identical
    /// to [`Kbp::solve_exhaustive_serial`] for every thread count.
    ///
    /// # Errors
    /// [`CoreError::SearchTooLarge`] if there are more than
    /// `max_free_states` (or ≥ 64, the mask width) non-init states — the
    /// search is `2^free`; compilation errors otherwise.
    ///
    /// Small searches (< [`PAR_MIN_CANDIDATES`] candidates) run serially
    /// even on multicore machines: at a few microseconds per candidate the
    /// fan-out's spawn/merge overhead costs more than it saves. Use
    /// [`Kbp::solve_exhaustive_with`] to force a worker count.
    ///
    /// When an instance is rejected with [`CoreError::SearchTooLarge`],
    /// the symbolic backend is the escape hatch: `kpt_bdd::SymbolicKbp`
    /// runs the same eq. (25) iteration over ROBDD roots, where each
    /// candidate is one shared graph instead of one bitset per subset, so
    /// it handles the ≥ 64-free-state spaces that no exhaustive
    /// enumeration can touch (it searches for *a* fixpoint iteratively
    /// rather than enumerating all of them).
    pub fn solve_exhaustive(&self, max_free_states: u64) -> Result<SolutionSet, CoreError> {
        let nfree = self.program.init().negate().count();
        let threads = if nfree < 64 && (1u64 << nfree) < PAR_MIN_CANDIDATES {
            1
        } else {
            pool::num_threads()
        };
        self.solve_exhaustive_with(threads, max_free_states)
    }

    /// [`Kbp::solve_exhaustive`] pinned to one worker: the reference
    /// enumeration the differential suites compare the parallel path
    /// against.
    ///
    /// # Errors
    /// As for [`Kbp::solve_exhaustive`].
    pub fn solve_exhaustive_serial(&self, max_free_states: u64) -> Result<SolutionSet, CoreError> {
        self.solve_exhaustive_with(1, max_free_states)
    }

    /// [`Kbp::solve_exhaustive`] with an explicit worker count.
    ///
    /// # Errors
    /// As for [`Kbp::solve_exhaustive`].
    pub fn solve_exhaustive_with(
        &self,
        threads: usize,
        max_free_states: u64,
    ) -> Result<SolutionSet, CoreError> {
        let space = self.program.space();
        let init = self.program.init();
        let free: Vec<u64> = init.negate().iter().collect();
        let nfree = free.len() as u64;
        // `nfree >= 64` would overflow the u64 candidate mask no matter
        // what limit the caller allows: a typed error, never a panic or a
        // wrapped shift.
        if nfree > max_free_states || nfree >= 64 {
            kpt_obs::counter!("solver.too_large").incr();
            return Err(CoreError::SearchTooLarge {
                free_states: nfree,
                limit: max_free_states.min(63),
            });
        }
        let mut span = kpt_obs::span("solver.exhaustive");
        span.field("free_states", nfree);
        span.field("threads", threads as u64);
        let total = 1u64
            .checked_shl(nfree as u32)
            .expect("nfree < 64 guarantees the shift is in range");
        let candidate_at = |mask: u64| {
            Predicate::from_indices(
                space,
                init.iter().chain(
                    free.iter()
                        .enumerate()
                        .filter(|(i, _)| mask >> i & 1 == 1)
                        .map(|(_, &s)| s),
                ),
            )
        };
        if threads <= 1 {
            // Serial reference path, riding (and filling) the shared memo.
            let mut solutions = Vec::new();
            for mask in 0..total {
                let candidate = candidate_at(mask);
                if self.is_solution(&candidate)? {
                    solutions.push(candidate);
                }
            }
            record_exhaustive(span, total, solutions.len());
            return Ok(SolutionSet {
                solutions,
                candidates_checked: total,
            });
        }
        // Parallel fan-out: contiguous mask ranges, several per worker so
        // the pool's stealing can rebalance uneven candidate costs. Each
        // worker evaluates candidates thread-locally via `compile_at`.
        let nchunks = ((threads as u64) * 8).min(total).max(1);
        let chunk = total.div_ceil(nchunks);
        let ranges: Vec<(u64, u64)> = (0..nchunks)
            .map(|c| ((c * chunk).min(total), ((c + 1) * chunk).min(total)))
            .collect();
        let keep_per_chunk = SI_CACHE_CAP / nchunks as usize;
        type ChunkOut = (Vec<Predicate>, Vec<(Predicate, Predicate)>);
        let chunks: Vec<Result<ChunkOut, CoreError>> =
            pool::parallel_map_with(threads, &ranges, |&(lo, hi)| {
                let mut solutions = Vec::new();
                let mut sample = Vec::new();
                for mask in lo..hi {
                    let candidate = candidate_at(mask);
                    let si = self.compile_at(&candidate)?.si().clone();
                    if si == candidate {
                        solutions.push(candidate.clone());
                    }
                    if sample.len() < keep_per_chunk {
                        sample.push((candidate, si));
                    }
                }
                Ok((solutions, sample))
            });
        // Merge in chunk (= mask) order: solutions concatenate to exactly
        // the serial enumeration order; sampled SI pairs refill the memo.
        let mut solutions = Vec::new();
        let mut cache = self.si_cache.lock().expect("SI cache poisoned");
        for (chunk, &(lo, hi)) in chunks.into_iter().zip(&ranges) {
            let (sols, sample) = chunk?;
            solutions.extend(sols);
            cache.misses += hi - lo;
            for (candidate, si) in sample {
                cache.insert(candidate, si);
            }
        }
        drop(cache);
        record_exhaustive(span, total, solutions.len());
        Ok(SolutionSet {
            solutions,
            candidates_checked: total,
        })
    }

    /// Explain a [`SolutionSet`] as a [`kpt_obs::Verdict`] — in particular,
    /// give a Figure-1-style "no possible choice for SI" outcome concrete
    /// states to point at. The witnesses of a no-solution verdict are the
    /// initial states: every eq. (25) candidate must contain them, and the
    /// exhaustive search proved no superset of them is consistent with the
    /// knowledge guards. The verdict is also reported to the trace.
    pub fn explain_solutions(&self, label: &str, sols: &SolutionSet) -> kpt_obs::Verdict {
        let verdict = if sols.is_empty() {
            kpt_obs::Verdict::fail(
                format!("kbp {label} solvable"),
                format!(
                    "none of the {} candidate invariants satisfies eq. (25); \
                     the knowledge guards admit no consistent SI containing \
                     the initial states",
                    sols.candidates_checked()
                ),
                kpt_state::witnesses(self.program.init(), 4),
            )
        } else {
            kpt_obs::Verdict::pass(
                format!("kbp {label} solvable"),
                format!(
                    "{} of {} candidate invariants solve eq. (25){}",
                    sols.len(),
                    sols.candidates_checked(),
                    if sols.strongest().is_some() {
                        "; a strongest solution exists"
                    } else {
                        "; no strongest solution (incomparable minima)"
                    }
                ),
            )
        };
        kpt_obs::report_verdict(&verdict);
        verdict
    }

    /// The iteration `x_{k+1} = SI(program[K @ x_k])` from `x_0 = init`,
    /// with cycle detection, run by [`iterate_to_fixpoint`] under the
    /// `solver.iterative` span and `solver.progress` events. A converged
    /// candidate is a fixpoint of [`Kbp::iterate`], so it passes
    /// [`Kbp::is_solution`] by construction.
    ///
    /// # Errors
    /// Compilation errors.
    pub fn solve_iterative(&self, max_iterations: usize) -> Result<IterativeOutcome, CoreError> {
        kpt_obs::counter!("solver.iterative.runs").incr();
        iterate_to_fixpoint(
            self.program.init().clone(),
            max_iterations,
            "solver.iterative",
            "solver.progress",
            |x| self.iterate(x),
        )
    }
}

/// Fold one exhaustive run into the `solver.*` metrics and close its span.
fn record_exhaustive(mut span: kpt_obs::Span, candidates: u64, solutions: usize) {
    kpt_obs::counter!("solver.exhaustive.runs").incr();
    kpt_obs::counter!("solver.candidates").add(candidates);
    kpt_obs::counter!("solver.solutions").add(solutions as u64);
    span.field("candidates", candidates);
    span.field("solutions", solutions as u64);
    span.finish();
}

/// The complete set of eq. (25) solutions found by exhaustive search.
#[derive(Debug, Clone)]
pub struct SolutionSet {
    solutions: Vec<Predicate>,
    candidates_checked: u64,
}

impl SolutionSet {
    /// All solutions (in candidate enumeration order).
    pub fn solutions(&self) -> &[Predicate] {
        &self.solutions
    }

    /// Whether the KBP has no solution at all (the Figure 1 phenomenon:
    /// "there is no possible choice for SI").
    pub fn is_empty(&self) -> bool {
        self.solutions.is_empty()
    }

    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.solutions.len()
    }

    /// How many candidates the search verified.
    pub fn candidates_checked(&self) -> u64 {
        self.candidates_checked
    }

    /// The *strongest* solution — the `SI` that eq. (25) asks for — if the
    /// solution set has a least element; `None` if there is no solution or
    /// no unique strongest one (both possible for non-monotone `ŜP`).
    pub fn strongest(&self) -> Option<&Predicate> {
        self.solutions
            .iter()
            .find(|s| self.solutions.iter().all(|o| s.entails(o)))
    }

    /// The minimal solutions (those with no strictly stronger solution).
    pub fn minimal(&self) -> Vec<&Predicate> {
        self.solutions
            .iter()
            .filter(|s| !self.solutions.iter().any(|o| o != *s && o.entails(s)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_state::StateSpace;
    use kpt_unity::{Program, Statement};

    /// A standard program viewed as a KBP: its unique minimal solution
    /// containing behaviour is its own SI... in fact *any* superset-closed
    /// candidate works only if it equals sst(init) of the (constant)
    /// program — exactly one solution.
    #[test]
    fn standard_program_has_exactly_one_solution() {
        let space = StateSpace::builder()
            .nat_var("i", 3)
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("std", &space)
            .init_str("i = 0")
            .unwrap()
            .statement(
                Statement::new("inc")
                    .guard_str("i < 2")
                    .unwrap()
                    .assign_str("i", "i + 1")
                    .unwrap(),
            )
            .build()
            .unwrap();
        let kbp = Kbp::new(program.clone());
        let sols = kbp.solve_exhaustive(16).unwrap();
        assert_eq!(sols.len(), 1);
        let expected = program.compile().unwrap().si().clone();
        assert_eq!(sols.solutions()[0], expected);
        assert_eq!(sols.strongest(), Some(&expected));
        assert_eq!(sols.minimal(), vec![&expected]);
        assert_eq!(sols.candidates_checked(), 4); // 2 free states (i=1,2 free... init fixes i=0, free = {1,2})
                                                  // The iterative solver agrees.
        match kbp.solve_iterative(10).unwrap() {
            IterativeOutcome::Converged { solution, .. } => assert_eq!(solution, expected),
            other => panic!("expected convergence, got {other:?}"),
        }
    }

    /// A self-fulfilling knowledge guard with several solutions: process P
    /// sees everything; statement `b := true if K{P}(b)`. Candidate
    /// x = {init} works (K(b) false at init, b stays false). Candidate
    /// including b-states... K{P}(b) with full view = b on x-states; the
    /// statement then sets b:=true where b already true — no new states.
    /// So x = {¬b-init} is a solution; is {¬b, b} also one? SI of the
    /// induced program from init = {¬b} is just {¬b} ≠ x. So unique again.
    /// To get multiple solutions we need init to *contain* the self-
    /// fulfilling region: init = true.
    #[test]
    fn self_fulfilling_guard_solution_structure() {
        let space = StateSpace::builder()
            .bool_var("b")
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("self", &space)
            .init_str("~b")
            .unwrap()
            .process("P", ["b"])
            .unwrap()
            .statement(
                Statement::new("s")
                    .guard_str("K{P}(b)")
                    .unwrap()
                    .assign_str("b", "1")
                    .unwrap(),
            )
            .build()
            .unwrap();
        let kbp = Kbp::new(program);
        let sols = kbp.solve_exhaustive(16).unwrap();
        // From init ¬b: guard K(b) requires b, which is false at the init
        // state; so nothing happens and SI = {¬b} for any candidate that
        // doesn't add b-states gratuitously. Exactly one solution: {¬b}.
        assert_eq!(sols.len(), 1);
        assert_eq!(sols.solutions()[0].iter().collect::<Vec<_>>(), vec![0]);
    }

    /// A KBP with NO solution, simpler than Figure 1: process P sees
    /// nothing (empty view); statement `b := true if ~K{P}(b)`.
    /// - Candidate x = {¬b}: K(b) on x: at ¬b-state, b false ⇒ K(b) false
    ///   ⇒ guard true ⇒ b becomes true ⇒ SI(x) ⊋ x. Not a solution.
    /// - Candidate x = {¬b, b}: K(b) = b ∧ wcyl.∅.(x⇒b) = b ∧ [x⇒b] = false
    ///   (x has a ¬b state) ⇒ guard true everywhere ⇒ SI = both states =
    ///   x. Wait — that IS a solution. So this has a solution; assert so.
    #[test]
    fn blind_process_negative_guard() {
        let space = StateSpace::builder()
            .bool_var("b")
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("blind", &space)
            .init_str("~b")
            .unwrap()
            .process("P", [] as [&str; 0])
            .unwrap()
            .statement(
                Statement::new("s")
                    .guard_str("~K{P}(b)")
                    .unwrap()
                    .assign_str("b", "1")
                    .unwrap(),
            )
            .build()
            .unwrap();
        let kbp = Kbp::new(program);
        let sols = kbp.solve_exhaustive(16).unwrap();
        assert_eq!(sols.len(), 1);
        assert!(sols.solutions()[0].everywhere());
        // And the iterative solver finds it from below.
        assert!(kbp.solve_iterative(10).unwrap().solution().is_some());
    }

    #[test]
    fn iterate_memoizes_per_candidate() {
        let space = StateSpace::builder()
            .nat_var("i", 3)
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("std", &space)
            .init_str("i = 0")
            .unwrap()
            .statement(
                Statement::new("inc")
                    .guard_str("i < 2")
                    .unwrap()
                    .assign_str("i", "i + 1")
                    .unwrap(),
            )
            .build()
            .unwrap();
        let kbp = Kbp::new(program);
        let x = kbp.program().init().clone();
        let first = kbp.iterate(&x).unwrap();
        assert_eq!(kbp.cached_candidates(), 1);
        // Second evaluation of the same candidate is served from cache and
        // adds no entry.
        assert_eq!(kbp.iterate(&x).unwrap(), first);
        assert_eq!(kbp.cached_candidates(), 1);
        // is_solution rides the same cache.
        assert!(kbp.is_solution(&first).unwrap());
        assert_eq!(kbp.cached_candidates(), 2);
        // with_init starts fresh (the equation changed).
        let other = kbp.with_init(first);
        assert_eq!(other.cached_candidates(), 0);
    }

    #[test]
    fn search_limit_is_enforced() {
        let space = StateSpace::builder()
            .nat_var("i", 64)
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("big", &space)
            .init_str("i = 0")
            .unwrap()
            .statement(Statement::new("skip"))
            .build()
            .unwrap();
        let kbp = Kbp::new(program);
        assert!(matches!(
            kbp.solve_exhaustive(16),
            Err(CoreError::SearchTooLarge { .. })
        ));
    }

    /// Regression: 64 free states used to evaluate `1u64 << 64` — a panic
    /// in debug builds and a wrapped (wrong) candidate count in release.
    /// It must be a typed error no matter how large the caller's limit is.
    #[test]
    fn nfree_of_64_is_a_typed_error_not_a_shift_overflow() {
        let space = StateSpace::builder()
            .nat_var("i", 65)
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("wide", &space)
            .init_str("i = 0")
            .unwrap()
            .statement(Statement::new("skip"))
            .build()
            .unwrap();
        let kbp = Kbp::new(program);
        match kbp.solve_exhaustive(u64::MAX) {
            Err(CoreError::SearchTooLarge { free_states, limit }) => {
                assert_eq!(free_states, 64);
                assert_eq!(limit, 63);
            }
            other => panic!("expected SearchTooLarge, got {other:?}"),
        }
    }

    /// The parallel fan-out returns exactly the serial enumeration —
    /// same solutions in the same order, same candidate count — for any
    /// worker count (forced well past the machine's core count).
    #[test]
    fn parallel_search_matches_serial() {
        let space = StateSpace::builder()
            .bool_var("a")
            .unwrap()
            .bool_var("b")
            .unwrap()
            .nat_var("n", 2)
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("par", &space)
            .init_str("~a /\\ ~b")
            .unwrap()
            .process("P", ["a"])
            .unwrap()
            .statement(
                Statement::new("s")
                    .guard_str("K{P}(a) \\/ ~a")
                    .unwrap()
                    .assign_str("a", "1")
                    .unwrap(),
            )
            .statement(
                Statement::new("t")
                    .guard_str("a")
                    .unwrap()
                    .assign_str("b", "1")
                    .unwrap(),
            )
            .build()
            .unwrap();
        let kbp = Kbp::new(program);
        let serial = kbp.solve_exhaustive_serial(16).unwrap();
        for threads in [2, 3, 8] {
            let par = kbp.solve_exhaustive_with(threads, 16).unwrap();
            assert_eq!(par.solutions(), serial.solutions(), "threads {threads}");
            assert_eq!(par.candidates_checked(), serial.candidates_checked());
        }
    }

    /// Regression: the memo used to stop *admitting* entries once it hit
    /// `SI_CACHE_CAP`, silently disabling memoization for the rest of a
    /// long run. Clear-on-full keeps admitting, and the counters expose
    /// the churn.
    #[test]
    fn si_cache_clears_on_full_instead_of_freezing() {
        let space = StateSpace::builder()
            .nat_var("i", 13)
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("cap", &space)
            .init_str("i = 0")
            .unwrap()
            .statement(Statement::new("skip"))
            .build()
            .unwrap();
        let kbp = Kbp::new(program);
        // 2^13 = 8192 distinct masks available > SI_CACHE_CAP = 4096;
        // drive exactly one candidate past the cap.
        let candidate_at = |m: u64| Predicate::from_fn(&space, |i| m >> i & 1 == 1);
        for m in 0..=SI_CACHE_CAP as u64 {
            kbp.iterate(&candidate_at(m)).unwrap();
        }
        // The overflowing insert cleared the cache and kept admitting.
        assert_eq!(kbp.cache_evictions(), 1);
        assert!(kbp.cached_candidates() >= 1);
        assert!(kbp.cached_candidates() < SI_CACHE_CAP);
        // Fresh entries still memoize: re-querying the most recent
        // candidate is a hit, not a recomputation.
        let (hits_before, misses_before) = kbp.cache_counters();
        kbp.iterate(&candidate_at(SI_CACHE_CAP as u64)).unwrap();
        let (hits_after, misses_after) = kbp.cache_counters();
        assert_eq!(hits_after, hits_before + 1);
        assert_eq!(misses_after, misses_before);
    }

    #[test]
    fn with_init_changes_the_equation() {
        let space = StateSpace::builder()
            .nat_var("i", 3)
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("p", &space)
            .init_str("i = 0")
            .unwrap()
            .statement(
                Statement::new("inc")
                    .guard_str("i < 2")
                    .unwrap()
                    .assign_str("i", "i + 1")
                    .unwrap(),
            )
            .build()
            .unwrap();
        let kbp = Kbp::new(program);
        let stronger = Kbp::new(
            kbp.program().with_init(
                kpt_logic::EvalContext::new(&space)
                    .eval(&kpt_logic::parse_formula("i = 2").unwrap())
                    .unwrap(),
            ),
        );
        let s1 = kbp.solve_exhaustive(16).unwrap();
        let s2 = stronger.solve_exhaustive(16).unwrap();
        assert_eq!(s1.solutions()[0].count(), 3);
        assert_eq!(s2.solutions()[0].count(), 1);
        // with_init on the Kbp wrapper does the same thing.
        let s3 = kbp
            .with_init(stronger.program().init().clone())
            .solve_exhaustive(16)
            .unwrap();
        assert_eq!(s2.solutions()[0], s3.solutions()[0]);
    }
}
