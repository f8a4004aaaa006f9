//! The symbolic KBP solver: eq. (25)'s iteration
//! `x_{k+1} = SI(program[K @ x_k])` computed entirely over BDDs.
//!
//! This is the escape hatch `kpt_core::Kbp::solve_exhaustive` points at
//! when it rejects a search with `SearchTooLarge`: the iteration touches
//! one candidate per step instead of `2^free` of them, and each step is a
//! frontier fixpoint over transition relations instead of a bitset sweep.
//!
//! A program is translated **once**. Per statement, the shared partition
//! builder (`transition::partition`, the one `SymbolicTransition::builder`
//! uses) walks each assignment's support over the whole space and returns
//! the update as a *conjunctive partition* plus a `bad` set of pre-states
//! whose assignment goes out of range; the last write to a target wins.
//! An opaque `update_with` closure, or a support too large to walk, falls
//! back to a bounded explicit sweep. Per candidate only the knowledge
//! guards are re-evaluated, checked against `bad` (mirroring
//! `UnityError::UpdateOutOfRange` on enabled states exactly), and paired
//! with the partition for early-quantified fixpoint images; the monolithic
//! `ite(guard, update, identity)` relation is never materialised.
//!
//! Everything the solver holds across fixpoint rounds — the initial set,
//! static guards, `bad` sets and partition parts — is rooted against
//! garbage collection and released on drop.

use std::collections::HashMap;
use std::sync::Arc;

use kpt_logic::{Formula, Term};
use kpt_state::{VarId, VarSet};
use kpt_transformers::{iterate_to_fixpoint, IterativeOutcome};
use kpt_unity::{Guard, Program};

use crate::error::BddError;
use crate::fixpoint::sst_raw_bounded;
use crate::formula::SymbolicEvalContext;
use crate::knowledge::SymbolicKnowledge;
use crate::manager::{BddConfig, Manager, NodeId, FALSE};
use crate::predicate::SymbolicPredicate;
use crate::space::{term_at, BddSpace};
use crate::transition::{
    partition, ImageRel, Part, PartSet, PointAssign, PointFn, SymbolicTransition, OPAQUE_ENUM_MAX,
};

/// How a statement's guard is obtained per candidate.
enum GuardSpec {
    /// Knowledge-free: evaluated once at translation time.
    Static(NodeId),
    /// Mentions `K{i}`: re-evaluated at every candidate invariant.
    Knowledge(Formula),
}

/// One translated statement.
struct SymStatement {
    name: String,
    guard: GuardSpec,
    /// Update relation on guard-enabled states (both copies in-domain),
    /// kept as a conjunctive partition with early-quantification schedules.
    parts: PartSet,
    /// Pre-states where some assignment evaluates outside its target's
    /// domain — an error iff the guard enables any of them.
    bad: NodeId,
    /// Compiled assignments, for out-of-range witness diagnostics.
    assigns: Vec<(VarId, Term)>,
    params: HashMap<String, i64>,
}

/// A knowledge-based program, translated for symbolic solving.
pub struct SymbolicKbp {
    program: Program,
    space: Arc<BddSpace>,
    init: NodeId,
    views: Vec<(String, VarSet)>,
    statements: Vec<SymStatement>,
}

impl std::fmt::Debug for SymbolicKbp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymbolicKbp")
            .field("program", &self.program.name())
            .field("statements", &self.statements.len())
            .finish()
    }
}

/// Outcome of [`SymbolicKbp::solve_iterative`]: the eq. (25) outcome of
/// `kpt_core::Kbp::solve_iterative`, with a symbolic solution.
pub type SymbolicOutcome = IterativeOutcome<SymbolicPredicate>;

impl SymbolicKbp {
    /// Translate a program (knowledge-based or standard) for symbolic
    /// solving. Process views become the knowledge views, exactly as in
    /// `kpt_core::Kbp::new`.
    ///
    /// # Errors
    /// [`BddError`] when a statement cannot be translated (unknown
    /// identifiers, unbounded supports over a too-large space, …).
    pub fn from_program(program: &Program) -> Result<Self, BddError> {
        Self::from_program_with(program, BddConfig::default())
    }

    /// [`SymbolicKbp::from_program`] with an explicit engine
    /// configuration — `BddConfig::serial()` for the grow-only
    /// fixed-order engine, or a `SiftOnGrowth` reorder policy to exercise
    /// GC and dynamic reordering; the differential fuzz oracle runs both
    /// against the explicit solver.
    ///
    /// # Errors
    /// As for [`SymbolicKbp::from_program`].
    pub fn from_program_with(program: &Program, config: BddConfig) -> Result<Self, BddError> {
        let space = BddSpace::with_config(program.space(), config);
        let views = program
            .processes()
            .iter()
            .map(|p| (p.name().to_owned(), p.view()))
            .collect();
        let mut statements = Vec::new();
        let init;
        {
            let mut mgr = space.lock();
            for stmt in program.statements() {
                let stmt = translate_statement(&space, &mut mgr, program, stmt)?;
                // Everything a statement holds across fixpoint rounds must
                // survive any GC sweep at a round checkpoint.
                if let GuardSpec::Static(g) = stmt.guard {
                    mgr.add_root(g);
                }
                mgr.add_root(stmt.bad);
                let mut roots = Vec::new();
                stmt.parts.roots(&mut roots);
                for r in roots {
                    mgr.add_root(r);
                }
                statements.push(stmt);
            }
            init = space.encode_explicit_raw(&mut mgr, program.init());
            mgr.add_root(init);
        }
        Ok(SymbolicKbp {
            program: program.clone(),
            space,
            init,
            views,
            statements,
        })
    }

    /// The translated program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The shared symbolic space (for building candidate predicates).
    pub fn space(&self) -> &Arc<BddSpace> {
        &self.space
    }

    /// The program's initial condition, symbolically.
    pub fn init(&self) -> SymbolicPredicate {
        SymbolicPredicate::new(&self.space, self.init)
    }

    /// One step of the solution iteration: the strongest invariant of the
    /// program with knowledge guards evaluated at `x`.
    ///
    /// # Errors
    /// [`BddError::UpdateOutOfRange`] when a guard enabled at some state
    /// of the reassembled program assigns outside a domain, plus any guard
    /// evaluation failure.
    pub fn iterate(&self, x: &SymbolicPredicate) -> Result<SymbolicPredicate, BddError> {
        self.iterate_bounded(x, usize::MAX)
    }

    /// [`SymbolicKbp::iterate`] under a live-node budget: the inner SI
    /// fixpoint fails with [`BddError::NodeBudgetExceeded`] if more than
    /// `max_live_nodes` nodes remain allocated after any round's safe
    /// point — the memory bound long-running services (kpt-server) map to
    /// a typed per-request error instead of letting one candidate eat the
    /// manager. A budget-tripped call holds on to nothing, so a later
    /// retry with a larger budget starts clean.
    ///
    /// # Errors
    /// [`BddError::NodeBudgetExceeded`] plus everything
    /// [`SymbolicKbp::iterate`] can return.
    pub fn iterate_bounded(
        &self,
        x: &SymbolicPredicate,
        max_live_nodes: usize,
    ) -> Result<SymbolicPredicate, BddError> {
        // One shared knowledge operator per candidate, like
        // `Kbp::compile_at`: every guard's `K{i}` subterms go through one
        // memo.
        let knowledge = SymbolicKnowledge::with_si(&self.space, self.views.clone(), x);
        let mut mgr = self.space.lock();
        let mut guards = Vec::with_capacity(self.statements.len());
        for stmt in &self.statements {
            let guard = match &stmt.guard {
                GuardSpec::Static(g) => *g,
                GuardSpec::Knowledge(f) => {
                    let ctx = SymbolicEvalContext::new(&self.space)
                        .with_params(&stmt.params)
                        .with_knowledge(&knowledge);
                    ctx.eval_raw(&mut mgr, f)?
                }
            };
            let enabled_bad = mgr.and(guard, stmt.bad);
            if enabled_bad != FALSE {
                let path = mgr
                    .witness_path(enabled_bad)
                    .expect("non-false BDD has a witness");
                let witness = self.space.decode_cur_path(&path);
                return Err(self.out_of_range_at(stmt, witness));
            }
            guards.push(guard);
        }
        // The monolithic `ite(guard, update, identity)` relation is never
        // built: each statement enters the fixpoint as its guard plus
        // partition (the identity else-branch cannot add states to a
        // reachability closure, so the frontier sequence is unchanged).
        let rels: Vec<ImageRel<'_>> = self
            .statements
            .iter()
            .zip(&guards)
            .map(|(stmt, &guard)| ImageRel::Parts {
                guard,
                set: &stmt.parts,
            })
            .collect();
        let (si, _) = sst_raw_bounded(&self.space, &mut mgr, self.init, &rels, max_live_nodes)?;
        // `si` arrives already carrying one root reference: the handle
        // adopts it, so dropping the handle releases it.
        Ok(SymbolicPredicate::adopt(&self.space, si))
    }

    /// Is `x` a solution of eq. (25)? O(1) comparison after one iteration.
    ///
    /// # Errors
    /// As for [`SymbolicKbp::iterate`].
    pub fn is_solution(&self, x: &SymbolicPredicate) -> Result<bool, BddError> {
        Ok(&self.iterate(x)? == x)
    }

    /// Pinpoint the first in-order offending assignment at `witness` —
    /// the same report `compile_statement` produces explicitly.
    fn out_of_range_at(&self, stmt: &SymStatement, witness: u64) -> BddError {
        let st_space = self.space.space();
        for (var, ce) in &stmt.assigns {
            let v = ce.eval_state(st_space, witness);
            if !self.space.in_domain(*var, v) {
                return BddError::UpdateOutOfRange {
                    statement: stmt.name.clone(),
                    var: st_space.name(*var).to_owned(),
                    state: st_space.render_state(witness),
                    value: v,
                };
            }
        }
        unreachable!("state in the bad set must have an offending assignment")
    }

    /// The iteration `x_{k+1} = Φ(x_k)` from `x_0 = init`, with cycle
    /// detection — `kpt_core::Kbp::solve_iterative` over BDD roots, run
    /// by the same [`iterate_to_fixpoint`] loop under the
    /// `bdd.solver.iterative` span and `bdd.solver.progress` events.
    /// Candidates are held as rooted handles, so GC sweeps inside later
    /// iterations never free (or recycle the ids of) earlier ones, and
    /// comparing or hashing one is a root-id operation.
    ///
    /// # Errors
    /// As for [`SymbolicKbp::iterate`].
    pub fn solve_iterative(&self, max_iterations: usize) -> Result<SymbolicOutcome, BddError> {
        kpt_obs::counter!("bdd.solver.iterative.runs").incr();
        iterate_to_fixpoint(
            self.init(),
            max_iterations,
            "bdd.solver.iterative",
            "bdd.solver.progress",
            |x| self.iterate(x),
        )
    }

    /// The translated relation of one named statement as a standalone
    /// [`SymbolicTransition`], with knowledge guards (if any) evaluated at
    /// the candidate invariant `x` — conjunctively partitioned exactly as
    /// the solver's fixpoints consume it. Benchmarks use this to compare
    /// the partitioned products against [`SymbolicTransition::monolithic`]
    /// on real registry models.
    ///
    /// # Errors
    /// [`BddError::Eval`] with `UnknownProcess` for an unknown statement
    /// name, plus any guard evaluation failure.
    pub fn statement_transition(
        &self,
        name: &str,
        x: &SymbolicPredicate,
    ) -> Result<SymbolicTransition, BddError> {
        let stmt = self
            .statements
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| {
                BddError::Eval(kpt_logic::EvalError::UnknownIdentifier(name.to_owned()))
            })?;
        // A knowledge operator must be built before the manager lock is
        // taken (its constructor locks too).
        let knowledge = match &stmt.guard {
            GuardSpec::Knowledge(_) => Some(SymbolicKnowledge::with_si(
                &self.space,
                self.views.clone(),
                x,
            )),
            GuardSpec::Static(_) => None,
        };
        let mut mgr = self.space.lock();
        let guard = match &stmt.guard {
            GuardSpec::Static(g) => *g,
            GuardSpec::Knowledge(f) => {
                let ctx = SymbolicEvalContext::new(&self.space)
                    .with_params(&stmt.params)
                    .with_knowledge(knowledge.as_ref().expect("built above"));
                ctx.eval_raw(&mut mgr, f)?
            }
        };
        let set = stmt.parts.clone();
        Ok(SymbolicTransition::from_parts(
            &self.space,
            &mut mgr,
            guard,
            true,
            set,
        ))
    }
}

impl Drop for SymbolicKbp {
    fn drop(&mut self) {
        // `BddSpace::release_root` tolerates a poisoned lock, so this never
        // panics in drop (the roots just leak).
        self.space.release_root(self.init);
        for stmt in &self.statements {
            if let GuardSpec::Static(g) = stmt.guard {
                self.space.release_root(g);
            }
            self.space.release_root(stmt.bad);
            let mut roots = Vec::new();
            stmt.parts.roots(&mut roots);
            for r in roots {
                self.space.release_root(r);
            }
        }
    }
}

/// Translate one statement's guard and update.
fn translate_statement(
    space: &Arc<BddSpace>,
    mgr: &mut Manager,
    program: &Program,
    stmt: &kpt_unity::Statement,
) -> Result<SymStatement, BddError> {
    let st_space = program.space();
    let guard = match stmt.guard() {
        Guard::Always => GuardSpec::Static(space.domain_ok_cur()),
        Guard::Pred(p) => GuardSpec::Static(space.encode_explicit_raw(mgr, p)),
        Guard::Formula(f) => {
            if f.mentions_knowledge() {
                GuardSpec::Knowledge(f.clone())
            } else {
                let ctx = SymbolicEvalContext::new(space).with_params(stmt.params());
                GuardSpec::Static(ctx.eval_raw(mgr, f)?)
            }
        }
    };

    let mut assigns: Vec<(VarId, Term)> = Vec::with_capacity(stmt.assignments().len());
    for (var_name, expr) in stmt.assignments() {
        let var = st_space.var(var_name)?;
        assigns.push((
            var,
            Term::resolve_assign(st_space, stmt.params(), expr, var)?,
        ));
    }

    // The whole space is the enabled set: knowledge guards change per
    // candidate, so every pre-state gets its pair or its `bad` entry.
    let symbolic = match stmt.update_fn() {
        Some(_) => None,
        None => {
            let mut point_assigns: Vec<PointAssign<'_>> = assigns
                .iter()
                .map(|(target, term)| {
                    let mut support = VarSet::default();
                    term.support(&mut support);
                    let support: Vec<VarId> = support.iter().collect();
                    let vars = support.clone();
                    let value: PointFn<'_> =
                        Box::new(move |point: &[u64]| term_at(term, &vars, point));
                    (*target, support, value)
                })
                .collect();
            match partition(space, mgr, space.domain_ok_cur(), &mut point_assigns) {
                Err(BddError::SupportTooLarge { .. }) => None,
                built => Some(built?),
            }
        }
    };
    let (parts, bad) = match symbolic {
        Some(built) => built,
        None => {
            let static_guard = match guard {
                GuardSpec::Static(g) => Some(g),
                GuardSpec::Knowledge(_) => None,
            };
            translate_update_explicit(space, mgr, stmt, &assigns, static_guard)?
        }
    };

    Ok(SymStatement {
        name: stmt.name().to_owned(),
        guard,
        parts,
        bad,
        assigns,
        params: stmt.params().clone(),
    })
}

/// Explicit fallback for opaque `update_with` closures and supports too
/// large to walk: sweep the states once, building pair cubes. A static guard
/// `enabled` limits the sweep to the states it enables, so an update never
/// runs where its statement has no effect (§5), exactly as in
/// `kpt_unity`'s compile; a knowledge guard (`None`) sweeps every state.
/// Bounded by [`OPAQUE_ENUM_MAX`]. The result is a single full-support
/// part — there is no structure to partition along.
fn translate_update_explicit(
    space: &Arc<BddSpace>,
    mgr: &mut Manager,
    stmt: &kpt_unity::Statement,
    assigns: &[(VarId, Term)],
    enabled: Option<NodeId>,
) -> Result<(PartSet, NodeId), BddError> {
    let st_space = space.space();
    let n = st_space.num_states();
    if n > OPAQUE_ENUM_MAX {
        return Err(BddError::OpaqueUpdateTooLarge {
            statement: stmt.name().to_owned(),
            states: n,
            limit: OPAQUE_ENUM_MAX,
        });
    }
    let mut bad_states = Vec::new();
    let mut pairs = Vec::with_capacity(n as usize);
    's: for s in 0..n {
        if enabled.is_some_and(|g| !mgr.eval(g, |l| space.state_bit(s, l / 2))) {
            continue;
        }
        let mut next = s;
        for (var, ce) in assigns {
            let v = ce.eval_state(st_space, s);
            if !space.in_domain(*var, v) {
                bad_states.push(s);
                continue 's;
            }
            next = st_space.with_value(next, *var, v as u64);
        }
        if let Some(f) = stmt.update_fn() {
            next = f(st_space, next);
            debug_assert!(next < n, "update function escaped the state space");
        }
        pairs.push(space.pair_cube(mgr, s, next));
    }
    let upd_rel = mgr.or_all(pairs);
    let bad_cubes = bad_states
        .into_iter()
        .map(|s| space.state_cube(mgr, s, false))
        .collect();
    let bad = mgr.or_all(bad_cubes);
    let part = Part {
        root: upd_rel,
        cur_supp: space.cur_levels().to_vec(),
        nxt_supp: space.nxt_levels().to_vec(),
    };
    Ok((PartSet::new(space, vec![part]), bad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_core::Kbp;
    use kpt_state::StateSpace;
    use kpt_unity::{Program, Statement};

    /// A one-process knowledge program small enough to cross-check against
    /// the explicit solver.
    fn knowledge_program() -> Program {
        let space = StateSpace::builder()
            .nat_var("i", 4)
            .unwrap()
            .bool_var("done")
            .unwrap()
            .build()
            .unwrap();
        Program::builder("kbp-small", &space)
            .init_str("i = 0 && !done")
            .unwrap()
            .process("P", ["i"])
            .unwrap()
            .statement(
                Statement::new("inc")
                    .guard_str("i < 3")
                    .unwrap()
                    .assign_str("i", "i + 1")
                    .unwrap(),
            )
            .statement(
                Statement::new("finish")
                    .guard_str("K{P}(i >= 2)")
                    .unwrap()
                    .assign_str("done", "1")
                    .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn bounded_iterate_trips_tiny_budgets_and_retries_clean() {
        let program = knowledge_program();
        let symbolic = SymbolicKbp::from_program(&program).unwrap();
        let init = symbolic.init();
        // A 1-node budget must trip, typed, and leave nothing behind…
        let err = symbolic.iterate_bounded(&init, 1).unwrap_err();
        assert!(matches!(
            err,
            BddError::NodeBudgetExceeded { budget: 1, .. }
        ));
        // …so the same candidate under a sane budget (and the unbounded
        // path) still agree.
        let bounded = symbolic.iterate_bounded(&init, 1 << 20).unwrap();
        let unbounded = symbolic.iterate(&init).unwrap();
        assert_eq!(bounded, unbounded);
    }

    #[test]
    fn symbolic_iteration_matches_explicit() {
        let program = knowledge_program();
        let explicit = Kbp::new(program.clone());
        let symbolic = SymbolicKbp::from_program(&program).unwrap();
        let e = explicit.solve_iterative(16).unwrap();
        let s = symbolic.solve_iterative(16).unwrap();
        assert!(e.solution().is_some(), "expected convergence, got {e:?}");
        assert_eq!(s.map(|p| p.to_explicit()), e);
    }

    /// Live nodes a translated-then-dropped `program` leaves in its
    /// space after a sweep: the space's own roots, nothing of the solver.
    fn live_after_drop(kbp: SymbolicKbp) -> usize {
        let space = Arc::clone(kbp.space());
        drop(kbp);
        space.gc_now();
        space.live_node_count()
    }

    #[test]
    fn concurrent_iterations_of_one_candidate_release_every_root() {
        let program = knowledge_program();
        let baseline = live_after_drop(SymbolicKbp::from_program(&program).unwrap());
        let symbolic = SymbolicKbp::from_program(&program).unwrap();
        let expected = symbolic.iterate(&symbolic.init()).unwrap().to_explicit();
        let fresh = SymbolicKbp::from_program(&program).unwrap();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let init = fresh.init();
                    start.wait();
                    let si = fresh.iterate(&init).unwrap();
                    assert_eq!(si.to_explicit(), expected);
                });
            }
        });
        assert_eq!(live_after_drop(fresh), baseline);
    }

    #[test]
    fn statement_transitions_match_their_monolithic_form() {
        let program = knowledge_program();
        let symbolic = SymbolicKbp::from_program(&program).unwrap();
        let x = symbolic.iterate(&symbolic.init()).unwrap();
        for name in ["inc", "finish"] {
            let t = symbolic.statement_transition(name, &x).unwrap();
            assert!(t.num_parts() > 1, "{name} should stay partitioned");
            let mono = t.monolithic();
            for mask in [0b0101u64, 0b0011, 0b1111] {
                let p = SymbolicPredicate::from_explicit(
                    symbolic.space(),
                    &kpt_state::Predicate::from_indices(
                        program.space(),
                        (0..8).filter(|s| mask >> s & 1 == 1),
                    ),
                );
                assert_eq!(t.sp(&p), mono.sp(&p), "{name} sp diverges");
                assert_eq!(t.wp(&p), mono.wp(&p), "{name} wp diverges");
            }
        }
        assert!(symbolic.statement_transition("nope", &x).is_err());
    }

    #[test]
    fn update_fn_never_runs_on_guard_disabled_states() {
        // §5: a statement whose guard is false has no effect, so the
        // explicit translation of its opaque update must not evaluate it
        // there (kpt-unity's compile has the same test).
        let space = StateSpace::builder()
            .nat_var("i", 4)
            .unwrap()
            .bool_var("done")
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("guarded", &space)
            .init_str("i = 2 /\\ ~done")
            .unwrap()
            .statement(
                Statement::new("finish")
                    .guard_str("i = 2")
                    .unwrap()
                    .assign_str("done", "1")
                    .unwrap(),
            )
            .statement(
                Statement::new("reset")
                    .guard_str("done")
                    .unwrap()
                    .update_with(|sp, st| {
                        let done = sp.var("done").unwrap();
                        assert_eq!(sp.value(st, done), 1, "update ran where ~done");
                        let i = sp.var("i").unwrap();
                        sp.with_value(st, i, 0)
                    }),
            )
            .build()
            .unwrap();
        let symbolic = SymbolicKbp::from_program(&program).unwrap();
        let s = symbolic.solve_iterative(8).unwrap();
        let e = Kbp::new(program).solve_iterative(8).unwrap();
        assert_eq!(e.solution().map(kpt_state::Predicate::count), Some(3));
        assert_eq!(s.map(|p| p.to_explicit()), e);
    }

    #[test]
    fn out_of_range_is_reported_like_unity() {
        let space = StateSpace::builder()
            .nat_var("i", 4)
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("overflow", &space)
            .statement(Statement::new("inc").assign_str("i", "i + 1").unwrap())
            .build()
            .unwrap();
        let symbolic = SymbolicKbp::from_program(&program).unwrap();
        let err = symbolic.solve_iterative(4).unwrap_err();
        match err {
            BddError::UpdateOutOfRange {
                statement,
                var,
                value,
                ..
            } => {
                assert_eq!(statement, "inc");
                assert_eq!(var, "i");
                assert_eq!(value, 4);
            }
            e => panic!("unexpected error {e}"),
        }
        // The explicit pipeline rejects the same program the same way.
        assert!(program.compile().is_err());
    }

    #[test]
    fn duplicate_targets_let_the_last_write_win_on_every_route() {
        let space = StateSpace::builder()
            .nat_var("i", 4)
            .unwrap()
            .build()
            .unwrap();
        let i = space.var("i").unwrap();
        let program = Program::builder("dup", &space)
            .statement(
                Statement::new("s")
                    .assign_str("i", "1")
                    .unwrap()
                    .assign_str("i", "2")
                    .unwrap(),
            )
            .build()
            .unwrap();
        let want = kpt_state::Predicate::from_var_fn(&space, i, |v| v == 2);
        let compiled = program.compile().unwrap();
        let tt = kpt_state::Predicate::tt(&space);
        assert_eq!(compiled.transitions()[0].sp(&tt), want, "Program::compile");
        let symbolic = SymbolicKbp::from_program(&program).unwrap();
        let stt = SymbolicPredicate::tt(symbolic.space());
        let stmt = symbolic.statement_transition("s", &stt).unwrap();
        assert_eq!(stmt.sp(&stt).to_explicit(), want, "statement_transition");
        let built = SymbolicTransition::builder(symbolic.space())
            .assign(i, &[], |_| 1)
            .assign(i, &[], |_| 2)
            .build()
            .unwrap();
        assert_eq!(built.sp(&stt).to_explicit(), want, "builder");
    }

    /// `a: nat<256>, b: nat<257>, x: nat<2>`: a support reading `a` and
    /// `b` has 65 792 points, above the walk limit, while the 131 584
    /// states stay within the explicit sweep's.
    fn wide_program(stmt: Statement) -> Program {
        let space = StateSpace::builder()
            .nat_var("a", 256)
            .unwrap()
            .nat_var("b", 257)
            .unwrap()
            .nat_var("x", 2)
            .unwrap()
            .build()
            .unwrap();
        Program::builder("wide", &space)
            .init_str("a = 0 /\\ b = 0 /\\ x = 0")
            .unwrap()
            .statement(stmt)
            .build()
            .unwrap()
    }

    #[test]
    fn oversized_assignment_supports_fall_back_to_the_explicit_sweep() {
        let program = wide_program(
            Statement::new("set")
                .assign_str("x", "a + b - a - b + 1")
                .unwrap(),
        );
        let symbolic = SymbolicKbp::from_program(&program).unwrap();
        let s = symbolic.solve_iterative(4).unwrap();
        let e = Kbp::new(program).solve_iterative(4).unwrap();
        assert_eq!(e.solution().map(kpt_state::Predicate::count), Some(2));
        assert_eq!(s.map(|p| p.to_explicit()), e);
    }

    #[test]
    fn oversized_guard_supports_are_refused() {
        let program = wide_program(
            Statement::new("set")
                .guard_str("a + b = 300")
                .unwrap()
                .assign_str("x", "1")
                .unwrap(),
        );
        assert!(matches!(
            SymbolicKbp::from_program(&program),
            Err(BddError::SupportTooLarge {
                combinations: 65_792,
                ..
            })
        ));
    }
}
