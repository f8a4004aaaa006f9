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

use std::borrow::Cow;
use std::sync::OnceLock;

use kpt_obs::CacheStats;
use kpt_state::{Predicate, VarSet};
use kpt_transformers::iterate_to_fixpoint;
pub use kpt_transformers::IterativeOutcome;
use kpt_unity::{CompiledProgram, Program};

use crate::context::KnowledgeContext;
use crate::error::CoreError;

/// A knowledge-based protocol: a UNITY [`Program`] whose guards may mention
/// knowledge, together with the eq. (25) solution machinery.
///
/// Evaluating a candidate `x` — compiling the standard program at `x` and
/// taking its strongest invariant — is the solver's unit of work. It is
/// not memoized: [`Kbp::solve_iterative`] evaluates each candidate once
/// (its cycle detection compares candidates, it does not replay them), and
/// [`Kbp::solve_exhaustive`] never repeats one. A knowledge-free guard
/// denotes the same predicate at every candidate, so it is evaluated once,
/// by the first [`Kbp::compile_at`], and kept.
#[derive(Debug, Clone)]
pub struct Kbp {
    program: Program,
    views: Vec<(String, VarSet)>,
    /// Per statement, its knowledge-free guard (`None` for a knowledge
    /// guard); filled by the first [`Kbp::compile_at`] that compiles.
    static_guards: OnceLock<Vec<Option<Predicate>>>,
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
            static_guards: OnceLock::new(),
        }
    }

    /// The underlying program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The same KBP with a different initial condition (for studying the
    /// Figure-2 non-monotonicity). The kept knowledge-free guards are
    /// evaluated afresh, as for any new KBP.
    #[must_use]
    pub fn with_init(&self, init: Predicate) -> Kbp {
        Kbp::new(self.program.with_init(init))
    }

    /// Compile the *standard* program obtained by evaluating every
    /// knowledge guard against the candidate invariant `x` (the paper's
    /// "replacing all the knowledge predicates with the corresponding
    /// standard predicate obtained using SI"). The program at `x` differs
    /// from the program only where a guard mentions `K{i}`: the
    /// knowledge-free guards come from the first call's evaluation, and
    /// only the knowledge guards are evaluated at `x`.
    ///
    /// # Errors
    /// Compilation errors from the underlying program.
    pub fn compile_at(&self, x: &Predicate) -> Result<CompiledProgram, CoreError> {
        let mut span = kpt_obs::span("solver.compile_at");
        // One shared knowledge context per candidate: every knowledge guard
        // evaluates its K{i} subterms through the same memo.
        let ctx = KnowledgeContext::new(self.program.space(), self.views.clone(), x.clone())?;
        let f = ctx.knowledge_fn();
        let space = self.program.space();
        let cached = self.static_guards.get();
        let (mut reused, mut evaluated) = (0u64, 0u64);
        let guards = self.program.eval_guards(|i, stmt| {
            if let Some(g) = cached.and_then(|statics| statics[i].as_ref()) {
                reused += 1;
                return Ok(Cow::Borrowed(g));
            }
            evaluated += u64::from(stmt.guard().mentions_knowledge());
            stmt.eval_guard(space, Some(f.as_ref())).map(Cow::Owned)
        })?;
        span.field("static_guards", reused)
            .field("knowledge_guards", evaluated);
        let compiled = self.program.compile_guarded(&guards)?;
        if cached.is_none() {
            let statics = self
                .program
                .statements()
                .iter()
                .zip(guards)
                .map(|(stmt, g)| (!stmt.guard().mentions_knowledge()).then(|| g.into_owned()))
                .collect();
            // A concurrent first call may have filled it with the same guards.
            let _ = self.static_guards.set(statics);
        }
        Ok(compiled)
    }

    /// How many knowledge-free guards this KBP holds: none before the
    /// first [`Kbp::compile_at`] that compiles, then one bitset per
    /// knowledge-free statement.
    pub fn cached_static_guards(&self) -> usize {
        self.static_guards
            .get()
            .map_or(0, |statics| statics.iter().flatten().count())
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
    /// standard program obtained at `x`.
    ///
    /// # Errors
    /// Compilation errors.
    pub fn iterate(&self, x: &Predicate) -> Result<Predicate, CoreError> {
        Ok(self.compile_at(x)?.si().clone())
    }

    /// Always the zero [`CacheStats`]: a `Kbp` memoizes no candidate's SI,
    /// because no solver evaluates a candidate twice (see the type doc).
    /// Kept so callers that report a memo hit ratio still compile; the
    /// `K p` memo of each candidate reports through
    /// [`KnowledgeContext::cache_stats`].
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
    }

    /// Complete enumeration of all solutions, over candidates
    /// `x = init ∪ S` for every subset `S` of the non-init states, in mask
    /// order. Each candidate is checked once, by [`Kbp::is_solution`].
    ///
    /// # Errors
    /// [`CoreError::SearchTooLarge`] if there are more than
    /// `max_free_states` (or ≥ 64, the mask width) non-init states — the
    /// search is `2^free`; compilation errors otherwise.
    ///
    /// When an instance is rejected with [`CoreError::SearchTooLarge`],
    /// the symbolic backend is the escape hatch: `kpt_bdd::SymbolicKbp`
    /// runs the same eq. (25) iteration over ROBDD roots, where each
    /// candidate is one shared graph instead of one bitset per subset, so
    /// it handles the ≥ 64-free-state spaces that no exhaustive
    /// enumeration can touch (it searches for *a* fixpoint iteratively
    /// rather than enumerating all of them).
    pub fn solve_exhaustive(&self, max_free_states: u64) -> Result<SolutionSet, CoreError> {
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
        let total = 1u64
            .checked_shl(nfree as u32)
            .expect("nfree < 64 guarantees the shift is in range");
        let mut solutions = Vec::new();
        for mask in 0..total {
            let candidate = Predicate::from_indices(
                space,
                init.iter().chain(
                    free.iter()
                        .enumerate()
                        .filter(|(i, _)| mask >> i & 1 == 1)
                        .map(|(_, &s)| s),
                ),
            );
            if self.is_solution(&candidate)? {
                solutions.push(candidate);
            }
        }
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

    /// The error a full compile at `x` reports: every guard evaluated
    /// through `compile_with_knowledge`.
    fn full_compile_error(kbp: &Kbp, x: &Predicate) -> CoreError {
        let ctx =
            KnowledgeContext::new(kbp.program().space(), kbp.views.clone(), x.clone()).unwrap();
        let f = ctx.knowledge_fn();
        CoreError::from(
            kbp.program()
                .compile_with_knowledge(f.as_ref())
                .unwrap_err(),
        )
    }

    #[test]
    fn static_guards_are_evaluated_lazily_and_kept() {
        let space = StateSpace::builder()
            .nat_var("i", 3)
            .unwrap()
            .bool_var("done")
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("mixed", &space)
            .init_str("i = 0 /\\ ~done")
            .unwrap()
            .process("P", ["i"])
            .unwrap()
            .statement(
                Statement::new("inc")
                    .guard_str("i < 2")
                    .unwrap()
                    .assign_str("i", "i + 1")
                    .unwrap(),
            )
            .statement(
                Statement::new("finish")
                    .guard_str("K{P}(i = 2)")
                    .unwrap()
                    .assign_str("done", "1")
                    .unwrap(),
            )
            .statement(Statement::new("skip"))
            .build()
            .unwrap();
        let kbp = Kbp::new(program);
        assert_eq!(kbp.cached_static_guards(), 0, "Kbp::new evaluated a guard");
        let x = kbp.program().init().clone();
        kbp.compile_at(&x).unwrap();
        // `inc`'s formula and `skip`'s `Always`; not the knowledge guard.
        assert_eq!(kbp.cached_static_guards(), 2);
        assert_eq!(kbp.clone().cached_static_guards(), 2);
        assert!(kbp.solve_iterative(8).unwrap().solution().is_some());
    }

    #[test]
    fn failed_static_guard_fills_nothing_and_keeps_the_full_compile_error() {
        let space = StateSpace::builder()
            .bool_var("b")
            .unwrap()
            .build()
            .unwrap();
        let statement = |guard: &str| {
            Statement::new(format!("s_{}", guard.len()))
                .guard_str(guard)
                .unwrap()
                .assign_str("b", "1")
                .unwrap()
        };
        let program = Program::builder("broken", &space)
            .init_str("~b")
            .unwrap()
            .process("P", ["b"])
            .unwrap()
            .statement(statement("K{P}(~b)"))
            .statement(statement("nope"))
            .build()
            .unwrap();
        // Construction evaluates nothing, so it cannot fail.
        let kbp = Kbp::new(program.clone());
        let x = kbp.program().init().clone();
        let expected = full_compile_error(&kbp, &x);
        assert!(expected.to_string().contains("nope"), "{expected}");
        for _ in 0..2 {
            assert_eq!(kbp.compile_at(&x).unwrap_err(), expected);
            assert_eq!(kbp.cached_static_guards(), 0);
        }
        // An earlier failing knowledge guard still wins over the static one.
        let earlier = Program::builder("earlier", &space)
            .init_str("~b")
            .unwrap()
            .statement(statement("K{Q}(~b)"))
            .statement(statement("nope"))
            .build()
            .unwrap();
        let kbp = Kbp::new(earlier);
        let expected = full_compile_error(&kbp, &x);
        assert!(expected.to_string().contains('Q'), "{expected}");
        for _ in 0..2 {
            assert_eq!(kbp.compile_at(&x).unwrap_err(), expected);
        }
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
