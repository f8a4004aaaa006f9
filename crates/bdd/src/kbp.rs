//! The symbolic KBP solver: eq. (25)'s iteration
//! `x_{k+1} = SI(program[K @ x_k])` computed entirely over BDDs.
//!
//! This is the escape hatch `kpt_core::Kbp::solve_exhaustive` points at
//! when it rejects a search with `SearchTooLarge`: the iteration touches
//! one candidate per step instead of `2^free` of them, and each step is a
//! frontier fixpoint over transition relations instead of a bitset sweep.
//!
//! A program is translated **once**: per statement we precompute the
//! update relation (from the assignments' support, never the full state
//! space, unless an opaque `update_with` closure forces a bounded explicit
//! sweep) and a `bad` set of pre-states whose assignment goes out of
//! range. The update stays *conjunctively partitioned* — one small BDD per
//! assignment plus identity and domain parts — so per candidate only the
//! knowledge guards are re-evaluated, checked against `bad` (mirroring
//! `UnityError::UpdateOutOfRange` on enabled states exactly), and paired
//! with the partition for early-quantified fixpoint images; the monolithic
//! `ite(guard, update, identity)` relation is never materialised.
//!
//! Everything the solver holds across fixpoint rounds — the initial set,
//! static guards, `bad` sets, partition parts, and the SI cache's keys and
//! values — is rooted against garbage collection and released on drop.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use kpt_logic::Formula;
use kpt_state::{VarId, VarSet};
use kpt_transformers::{iterate_to_fixpoint, IterativeOutcome};
use kpt_unity::{Guard, Program};

use crate::error::BddError;
use crate::fixpoint::sst_raw_bounded;
use crate::formula::{CExpr, SymbolicEvalContext};
use crate::knowledge::SymbolicKnowledge;
use crate::manager::{BddConfig, Manager, NodeId, FALSE, TRUE};
use crate::predicate::SymbolicPredicate;
use crate::space::BddSpace;
use crate::transition::{
    ImageRel, Part, PartSet, SymbolicTransition, OPAQUE_ENUM_MAX, SUPPORT_ENUM_MAX,
};

/// Memoized `candidate → SI` pairs before a clear-on-full eviction;
/// matches `kpt_core::Kbp`'s cache capacity.
const SI_CACHE_CAP: usize = 4096;

#[derive(Default)]
struct SiCache {
    /// `candidate → SI`. Both sides are rooted while the entry lives, so
    /// no GC sweep can free (or recycle the id of) either one.
    map: HashMap<NodeId, NodeId>,
    hits: u64,
    misses: u64,
    evictions: u64,
    inserts: u64,
}

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
    assigns: Vec<(VarId, CExpr)>,
    params: HashMap<String, i64>,
}

/// A knowledge-based program, translated for symbolic solving.
pub struct SymbolicKbp {
    program: Program,
    space: Arc<BddSpace>,
    init: NodeId,
    views: Vec<(String, VarSet)>,
    statements: Vec<SymStatement>,
    si_cache: Mutex<SiCache>,
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
            si_cache: Mutex::new(SiCache::default()),
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
    /// program with knowledge guards evaluated at `x`. Memoized per
    /// candidate root.
    ///
    /// # Errors
    /// [`BddError::UpdateOutOfRange`] when a guard enabled at some state
    /// of the reassembled program assigns outside a domain, plus any guard
    /// evaluation failure.
    pub fn iterate(&self, x: &SymbolicPredicate) -> Result<SymbolicPredicate, BddError> {
        let root = self.iterate_root(x.root())?;
        Ok(SymbolicPredicate::new(&self.space, root))
    }

    /// [`SymbolicKbp::iterate`] under a live-node budget: the inner SI
    /// fixpoint fails with [`BddError::NodeBudgetExceeded`] if more than
    /// `max_live_nodes` nodes remain allocated after any round's safe
    /// point — the memory bound long-running services (kpt-server) map to
    /// a typed per-request error instead of letting one candidate eat the
    /// manager. A budget-tripped call leaves the SI memo untouched, so a
    /// later retry with a larger budget starts clean.
    ///
    /// # Errors
    /// [`BddError::NodeBudgetExceeded`] plus everything
    /// [`SymbolicKbp::iterate`] can return.
    pub fn iterate_bounded(
        &self,
        x: &SymbolicPredicate,
        max_live_nodes: usize,
    ) -> Result<SymbolicPredicate, BddError> {
        let root = self.iterate_root_bounded(x.root(), max_live_nodes)?;
        Ok(SymbolicPredicate::new(&self.space, root))
    }

    /// Is `x` a solution of eq. (25)? O(1) comparison after one iteration.
    ///
    /// # Errors
    /// As for [`SymbolicKbp::iterate`].
    pub fn is_solution(&self, x: &SymbolicPredicate) -> Result<bool, BddError> {
        Ok(self.iterate_root(x.root())? == x.root())
    }

    fn iterate_root(&self, x: NodeId) -> Result<NodeId, BddError> {
        self.iterate_root_bounded(x, usize::MAX)
    }

    fn iterate_root_bounded(&self, x: NodeId, max_live_nodes: usize) -> Result<NodeId, BddError> {
        {
            let mut cache = self.si_cache.lock().expect("SI cache poisoned");
            if let Some(&si) = cache.map.get(&x) {
                cache.hits += 1;
                kpt_obs::counter!("bdd.kbp.si_cache.hits").incr();
                return Ok(si);
            }
            cache.misses += 1;
            kpt_obs::counter!("bdd.kbp.si_cache.misses").incr();
        }
        // One shared knowledge operator per candidate, like
        // `Kbp::compile_at`: every guard's `K{i}` subterms go through one
        // memo.
        let knowledge = SymbolicKnowledge::with_si(
            &self.space,
            self.views.clone(),
            &SymbolicPredicate::new(&self.space, x),
        );
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
        let mut cache = self.si_cache.lock().expect("SI cache poisoned");
        if cache.map.len() >= SI_CACHE_CAP {
            for (&k, &v) in cache.map.iter() {
                mgr.release_root(k);
                mgr.release_root(v);
            }
            cache.map.clear();
            cache.evictions += 1;
            kpt_obs::counter!("bdd.kbp.si_cache.evictions").incr();
        }
        mgr.add_root(x);
        // `si` arrives from `sst_raw_bounded` already carrying one root reference;
        // the cache adopts it rather than adding a second.
        cache.inserts += 1;
        cache.map.insert(x, si);
        Ok(si)
    }

    /// Pinpoint the first in-order offending assignment at `witness` —
    /// the same report `compile_statement` produces explicitly.
    fn out_of_range_at(&self, stmt: &SymStatement, witness: u64) -> BddError {
        let st_space = self.space.space();
        for (var, ce) in &stmt.assigns {
            let v = ce.eval_state(st_space, witness);
            if v < 0 || !st_space.domain(*var).contains(v as u64) {
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

    /// SI-cache behaviour (`bdd.kbp.si_cache.*` counters aggregate the
    /// same numbers process-wide).
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
        if let Ok(cache) = self.si_cache.lock() {
            for (&k, &v) in cache.map.iter() {
                self.space.release_root(k);
                self.space.release_root(v);
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

    // Compile assignment right-hand sides exactly like
    // `kpt_unity::compile_statement` (same enum-label fallback against the
    // target's domain).
    let mut assigns: Vec<(VarId, CExpr)> = Vec::with_capacity(stmt.assignments().len());
    for (var_name, expr) in stmt.assignments() {
        let var = st_space.var(var_name)?;
        let ce = compile_assign_expr(space, stmt.params(), expr, var)
            .map_err(|name| BddError::Eval(kpt_logic::EvalError::UnknownIdentifier(name)))?;
        assigns.push((var, ce));
    }

    let needs_explicit = stmt.update_fn().is_some()
        || assigns.iter().any(|(_, ce)| {
            let mut support = VarSet::default();
            ce.support(&mut support);
            support
                .iter()
                .map(|v| st_space.domain(v).size())
                .try_fold(1u64, |acc, s| acc.checked_mul(s))
                .unwrap_or(u64::MAX)
                > SUPPORT_ENUM_MAX
        });

    let (parts, bad) = if needs_explicit {
        translate_update_explicit(space, mgr, stmt, &assigns)?
    } else {
        translate_update_symbolic(space, mgr, &assigns)
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

/// The domain-constraint part both translations start from (skipped when
/// every bit pattern is valid).
fn domain_part(space: &Arc<BddSpace>, mgr: &mut Manager) -> Option<Part> {
    let st_space = space.space();
    let root = {
        let c = space.domain_ok_cur();
        let n = space.domain_ok_nxt();
        mgr.and(c, n)
    };
    if root == TRUE {
        return None;
    }
    let mut cur_supp = Vec::new();
    for v in st_space.vars() {
        let levels = space.var_cur_levels(v);
        let nbits = levels.len() as u32;
        if nbits > 0 && st_space.domain(v).size() != 1u64 << nbits {
            cur_supp.extend(levels);
        }
    }
    cur_supp.sort_unstable();
    let nxt_supp: Vec<u32> = cur_supp.iter().map(|&l| l + 1).collect();
    Some(Part {
        root,
        cur_supp,
        nxt_supp,
    })
}

/// Mirror of `kpt_unity`'s `compile_expr`: a whole-expression bare
/// identifier that is neither parameter nor variable resolves as an enum
/// label of the *target* variable's domain.
fn compile_assign_expr(
    space: &Arc<BddSpace>,
    params: &HashMap<String, i64>,
    expr: &kpt_logic::Expr,
    target: VarId,
) -> Result<CExpr, String> {
    let st_space = space.space();
    if let kpt_logic::Expr::Ident(name) = expr {
        if !params.contains_key(name) && st_space.var(name).is_err() {
            if let Some(code) = st_space.domain(target).label_code(name) {
                return Ok(CExpr::Const(code as i64));
            }
        }
    }
    compile_expr_inner(space, params, expr)
}

fn compile_expr_inner(
    space: &Arc<BddSpace>,
    params: &HashMap<String, i64>,
    expr: &kpt_logic::Expr,
) -> Result<CExpr, String> {
    match expr {
        kpt_logic::Expr::Const(n) => Ok(CExpr::Const(*n)),
        kpt_logic::Expr::Ident(name) => {
            if let Some(&v) = params.get(name) {
                Ok(CExpr::Const(v))
            } else if let Ok(var) = space.space().var(name) {
                Ok(CExpr::Var(var))
            } else {
                Err(name.clone())
            }
        }
        kpt_logic::Expr::Add(a, b) => Ok(CExpr::Add(
            Box::new(compile_expr_inner(space, params, a)?),
            Box::new(compile_expr_inner(space, params, b)?),
        )),
        kpt_logic::Expr::Sub(a, b) => Ok(CExpr::Sub(
            Box::new(compile_expr_inner(space, params, a)?),
            Box::new(compile_expr_inner(space, params, b)?),
        )),
    }
}

/// Symbolic update translation: per assignment, enumerate the support's
/// value combinations (never the full space). Duplicate targets follow
/// UNITY's in-order overwrite — the last assignment wins the relation,
/// every assignment contributes to the `bad` set. The result is a
/// conjunctive partition: domain part, one part per effective assignment,
/// one identity part per untouched variable.
fn translate_update_symbolic(
    space: &Arc<BddSpace>,
    mgr: &mut Manager,
    assigns: &[(VarId, CExpr)],
) -> (PartSet, NodeId) {
    let st_space = space.space();
    let mut bad = FALSE;
    let mut parts: Vec<Part> = Vec::new();
    parts.extend(domain_part(space, mgr));
    let mut assigned = vec![false; st_space.num_vars()];
    for (idx, (target, ce)) in assigns.iter().enumerate() {
        assigned[target.index()] = true;
        let effective = assigns[idx + 1..].iter().all(|(t, _)| t != target);
        let mut support_set = VarSet::default();
        ce.support(&mut support_set);
        let vars: Vec<VarId> = support_set.iter().collect();
        let combos: u64 = vars.iter().map(|v| st_space.domain(*v).size()).product();
        let mut values: HashMap<VarId, u64> = HashMap::new();
        let mut rel_t = FALSE;
        for combo in 0..combos {
            let mut rest = combo;
            for v in &vars {
                let size = st_space.domain(*v).size();
                values.insert(*v, rest % size);
                rest /= size;
            }
            let out = ce.eval(&values);
            let mut cube = TRUE;
            for v in vars.iter().rev() {
                let c = space.value_cube(mgr, *v, values[v], false);
                cube = mgr.and(cube, c);
            }
            if out < 0 || !st_space.domain(*target).contains(out as u64) {
                bad = mgr.or(bad, cube);
            } else if effective {
                let tgt = space.value_cube(mgr, *target, out as u64, true);
                let pair = mgr.and(cube, tgt);
                rel_t = mgr.or(rel_t, pair);
            }
        }
        if effective {
            let mut cur_supp: Vec<u32> =
                vars.iter().flat_map(|v| space.var_cur_levels(*v)).collect();
            cur_supp.sort_unstable();
            cur_supp.dedup();
            let nxt_supp: Vec<u32> = space
                .var_cur_levels(*target)
                .into_iter()
                .map(|l| l + 1)
                .collect();
            parts.push(Part {
                root: rel_t,
                cur_supp,
                nxt_supp,
            });
        }
    }
    for v in st_space.vars() {
        if assigned[v.index()] {
            continue;
        }
        let levels = space.var_cur_levels(v);
        if levels.is_empty() {
            continue;
        }
        let mut same_all = TRUE;
        for &level in levels.iter().rev() {
            let c = mgr.literal(level);
            let n = mgr.literal(level + 1);
            let same = mgr.iff(c, n);
            same_all = mgr.and(same_all, same);
        }
        let nxt_supp: Vec<u32> = levels.iter().map(|&l| l + 1).collect();
        parts.push(Part {
            root: same_all,
            cur_supp: levels,
            nxt_supp,
        });
    }
    (PartSet::new(space, parts), bad)
}

/// Explicit fallback for opaque `update_with` closures (or oversized
/// supports): sweep every state once, building pair cubes. Bounded by
/// [`OPAQUE_ENUM_MAX`]. The result is a single full-support part — there
/// is no structure to partition along.
fn translate_update_explicit(
    space: &Arc<BddSpace>,
    mgr: &mut Manager,
    stmt: &kpt_unity::Statement,
    assigns: &[(VarId, CExpr)],
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
        let mut next = s;
        for (var, ce) in assigns {
            let v = ce.eval_state(st_space, s);
            if v < 0 || !st_space.domain(*var).contains(v as u64) {
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
    let upd_rel = or_tree(mgr, pairs);
    let bad_cubes = bad_states
        .into_iter()
        .map(|s| space.state_cube(mgr, s, false))
        .collect();
    let bad = or_tree(mgr, bad_cubes);
    let part = Part {
        root: upd_rel,
        cur_supp: space.cur_levels().to_vec(),
        nxt_supp: space.nxt_levels().to_vec(),
    };
    Ok((PartSet::new(space, vec![part]), bad))
}

fn or_tree(mgr: &mut Manager, mut layer: Vec<NodeId>) -> NodeId {
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .map(|c| {
                if c.len() == 2 {
                    mgr.or(c[0], c[1])
                } else {
                    c[0]
                }
            })
            .collect();
    }
    layer.first().copied().unwrap_or(FALSE)
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
        // A 1-node budget must trip, typed, without poisoning the memo…
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

    #[test]
    fn iterate_is_memoized() {
        let program = knowledge_program();
        let symbolic = SymbolicKbp::from_program(&program).unwrap();
        let x = symbolic.init();
        let a = symbolic.iterate(&x).unwrap();
        let before = symbolic.cache_stats();
        let b = symbolic.iterate(&x).unwrap();
        let after = symbolic.cache_stats();
        assert_eq!(a, b);
        assert_eq!(after.hits, before.hits + 1);
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
}
