//! Depth 3 — BDD-free dataflow checks (`KPT010`-`KPT012`).
//!
//! Three analyses over the elaborated program, all linear or near-linear
//! in the statement count and entirely independent of the symbolic
//! engine:
//!
//! * **`KPT010` interval abstract interpretation.** Each variable gets an
//!   interval of domain codes, seeded from the init states and closed
//!   under every statement whose (knowledge-erased) guard is not
//!   *definitely* false under the current box, with widening to the full
//!   domain after a few rounds. The resulting box contains every state of
//!   the erased program's strongest invariant, so a guard that is
//!   definitely false over the box is unsatisfiable under `SI` — the
//!   statement is dead, and the symbolic `KPT007` verdict must agree
//!   (`KPT010 ⊑ KPT007`, pinned by the differential fuzz campaign).
//! * **`KPT011` knowledge-guard dependency cycles.** The read/write
//!   dependency graph over statements (edge `s → t` iff `t` reads a
//!   variable `s` writes) is condensed into strongly connected
//!   components; a knowledge-guarded statement sitting on a cyclic
//!   component that also rewrites its knowledge subject is the Figure-1
//!   circularity, detected syntactically where `KPT009` needs a symbolic
//!   fixpoint.
//! * **`KPT012` unimplementable knowledge.** Process `i`'s *reachable
//!   information* starts at its view `V_i` and closes under dataflow
//!   (variables feeding statements that write into the closure) and init
//!   correlation (variables whose initial values are correlated with the
//!   closure). A top-level `K{i}(φ)` guard whose body mentions a variable
//!   outside that closure tests knowledge process `i` can never acquire —
//!   the static shadow of the view-soundness theorem (§3, eq. 13).

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use kpt_logic::{resolve_binder, resolve_bool_atom, BoolAtom, CmpOp, Formula, Term};
use kpt_state::{StateSpace, VarId};
use kpt_unity::{Guard, Program, Statement};

use crate::erase::{erase_knowledge, top_level_knowledge};
use crate::symbolic::{collect_formula_vars, guard_reads};
use crate::{Diagnostic, DiagnosticCode};

/// Above this many states the init box is not enumerated (full domains
/// are assumed) and the `KPT012` init-correlation rule is skipped.
const MAX_SCAN_STATES: u64 = 1 << 20;
/// At most this many init states are enumerated for the init box and the
/// correlation rule; more and both degrade conservatively.
const MAX_INIT_SAMPLES: usize = 1 << 12;
/// At most this many states of a `Guard::Pred` are tested against the box.
const MAX_PRED_SAMPLES: usize = 1 << 12;
/// Interval growth after this many fixpoint rounds jumps straight to the
/// full domain (counted in `lint.dataflow.widenings`).
const WIDEN_AFTER_ROUNDS: usize = 3;
/// Domains larger than this are not enumerated by quantifier evaluation.
const MAX_QUANT_DOMAIN: u64 = 64;

/// Run the dataflow checks. Assumes the declaration and view passes found
/// no errors (the orchestrator skips this pass otherwise).
pub fn check(program: &Program, diags: &mut Vec<Diagnostic>) {
    check_intervals(program, diags);
    check_dependency_cycles(program, diags);
    check_reachable_information(program, diags);
}

// ---------------------------------------------------------------------
// KPT010 — interval abstract interpretation
// ---------------------------------------------------------------------

/// A closed interval of domain codes, `lo <= hi`.
type Itv = (i64, i64);

fn full_interval(space: &StateSpace, v: VarId) -> Itv {
    (0, space.domain(v).size() as i64 - 1)
}

fn union(a: Itv, b: Itv) -> Itv {
    (a.0.min(b.0), a.1.max(b.1))
}

/// Three-valued truth over the interval box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    True,
    False,
    Unknown,
}

impl Tri {
    fn of(b: bool) -> Tri {
        if b {
            Tri::True
        } else {
            Tri::False
        }
    }

    fn not(self) -> Tri {
        match self {
            Tri::True => Tri::False,
            Tri::False => Tri::True,
            Tri::Unknown => Tri::Unknown,
        }
    }

    fn and(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::False, _) | (_, Tri::False) => Tri::False,
            (Tri::True, Tri::True) => Tri::True,
            _ => Tri::Unknown,
        }
    }

    fn or(self, other: Tri) -> Tri {
        match (self, other) {
            (Tri::True, _) | (_, Tri::True) => Tri::True,
            (Tri::False, Tri::False) => Tri::False,
            _ => Tri::Unknown,
        }
    }
}

struct IntervalEnv<'a> {
    space: &'a Arc<StateSpace>,
    /// Per-variable interval, indexed by `VarId` order.
    boxes: Vec<Itv>,
    /// Quantifier bindings pinning a variable to a single value, shadowing
    /// its box (innermost last).
    pinned: Vec<(VarId, i64)>,
}

impl IntervalEnv<'_> {
    fn interval(&self, v: VarId) -> Itv {
        for (pv, val) in self.pinned.iter().rev() {
            if *pv == v {
                return (*val, *val);
            }
        }
        self.boxes[v.index()]
    }

    /// Whether the explicit state lies inside the box (pins ignored —
    /// only used for `Guard::Pred`, which has no quantifier context).
    fn contains_state(&self, state: u64) -> bool {
        self.space.vars().all(|v| {
            let (lo, hi) = self.boxes[v.index()];
            let val = self.space.value(state, v) as i64;
            lo <= val && val <= hi
        })
    }
}

/// The interval a resolved term can take over the box.
fn term_interval(env: &IntervalEnv<'_>, t: &Term) -> Itv {
    match t {
        Term::Const(n) => (*n, *n),
        Term::Var(v) => env.interval(*v),
        Term::Add(a, b) => {
            let ((al, ah), (bl, bh)) = (term_interval(env, a), term_interval(env, b));
            (al.saturating_add(bl), ah.saturating_add(bh))
        }
        Term::Sub(a, b) => {
            let ((al, ah), (bl, bh)) = (term_interval(env, a), term_interval(env, b));
            (al.saturating_sub(bh), ah.saturating_sub(bl))
        }
    }
}

fn cmp_tri(op: CmpOp, a: Itv, b: Itv) -> Tri {
    let (al, ah) = a;
    let (bl, bh) = b;
    match op {
        CmpOp::Eq => {
            if ah < bl || bh < al {
                Tri::False
            } else if al == ah && bl == bh && al == bl {
                Tri::True
            } else {
                Tri::Unknown
            }
        }
        CmpOp::Ne => cmp_tri(CmpOp::Eq, a, b).not(),
        CmpOp::Lt => {
            if ah < bl {
                Tri::True
            } else if al >= bh {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        CmpOp::Le => {
            if ah <= bl {
                Tri::True
            } else if al > bh {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        CmpOp::Gt => cmp_tri(CmpOp::Le, a, b).not(),
        CmpOp::Ge => cmp_tri(CmpOp::Lt, a, b).not(),
    }
}

/// Three-valued evaluation of a knowledge-free formula over the box.
/// `False` means *definitely* false at every state of the box — the only
/// judgement the dead-guard check acts on; `Unknown` is always sound.
fn formula_tri(env: &mut IntervalEnv<'_>, params: &HashMap<String, i64>, f: &Formula) -> Tri {
    match f {
        Formula::Const(b) => Tri::of(*b),
        Formula::BoolVar(name) => match resolve_bool_atom(env.space, params, name) {
            Ok(BoolAtom::Const(b)) => Tri::of(b),
            Ok(BoolAtom::Var(v)) => match env.interval(v) {
                (_, hi) if hi <= 0 => Tri::False,
                (lo, _) if lo >= 1 => Tri::True,
                _ => Tri::Unknown,
            },
            Err(_) => Tri::Unknown,
        },
        Formula::Cmp(op, a, b) => match Term::resolve_cmp(env.space, params, a, b) {
            Ok((ta, tb)) => cmp_tri(*op, term_interval(env, &ta), term_interval(env, &tb)),
            Err(_) => Tri::Unknown,
        },
        Formula::Not(g) => formula_tri(env, params, g).not(),
        Formula::And(a, b) => formula_tri(env, params, a).and(formula_tri(env, params, b)),
        Formula::Or(a, b) => formula_tri(env, params, a).or(formula_tri(env, params, b)),
        Formula::Implies(a, b) => formula_tri(env, params, a)
            .not()
            .or(formula_tri(env, params, b)),
        Formula::Iff(a, b) => {
            let (ta, tb) = (formula_tri(env, params, a), formula_tri(env, params, b));
            match (ta, tb) {
                (Tri::Unknown, _) | (_, Tri::Unknown) => Tri::Unknown,
                (a, b) if a == b => Tri::True,
                _ => Tri::False,
            }
        }
        Formula::Forall(name, body) | Formula::Exists(name, body) => {
            let Ok(v) = resolve_binder(env.space, name) else {
                return Tri::Unknown;
            };
            let size = env.space.domain(v).size();
            if size > MAX_QUANT_DOMAIN {
                return Tri::Unknown;
            }
            let exists = matches!(f, Formula::Exists(..));
            let mut acc = if exists { Tri::False } else { Tri::True };
            for val in 0..size {
                env.pinned.push((v, val as i64));
                let t = formula_tri(env, params, body);
                env.pinned.pop();
                acc = if exists { acc.or(t) } else { acc.and(t) };
            }
            acc
        }
        // The guard is knowledge-erased before evaluation; a stray
        // modality is treated conservatively.
        Formula::Knows(..) => Tri::Unknown,
    }
}

/// Three-valued enabledness of a statement's knowledge-erased guard.
fn guard_tri(env: &mut IntervalEnv<'_>, stmt: &Statement) -> Tri {
    match stmt.guard() {
        Guard::Always => Tri::True,
        Guard::Pred(p) => {
            if p.is_false() {
                return Tri::False;
            }
            if p.count() > MAX_PRED_SAMPLES as u64 {
                return Tri::Unknown;
            }
            if p.iter().any(|s| env.contains_state(s)) {
                Tri::Unknown
            } else {
                Tri::False
            }
        }
        Guard::Formula(f) => {
            let erased = erase_knowledge(f, true).simplify();
            formula_tri(env, stmt.params(), &erased)
        }
    }
}

/// Narrow the box to the states that can satisfy the statement's guard —
/// the abstract-interpretation guard filter. Without it `i < 3 → i := i+1`
/// computes `i+1` over the whole box and never converges below the full
/// domain. Only refinements that are sound for *every* satisfying state
/// are applied: top-level conjuncts comparing a variable against an
/// expression (using the expression's own interval bound), boolean-variable
/// literals, and full enumeration of small explicit predicates.
fn narrow_by_guard(env: &mut IntervalEnv<'_>, stmt: &Statement) {
    match stmt.guard() {
        Guard::Always => {}
        Guard::Pred(p) => {
            if p.is_false() || p.count() > MAX_PRED_SAMPLES as u64 {
                return;
            }
            let mut refined: Vec<Option<Itv>> = vec![None; env.boxes.len()];
            for s in p.iter().filter(|&s| env.contains_state(s)) {
                for v in env.space.vars() {
                    let val = env.space.value(s, v) as i64;
                    let i = v.index();
                    refined[i] = Some(match refined[i] {
                        None => (val, val),
                        Some(b) => union(b, (val, val)),
                    });
                }
            }
            for (i, r) in refined.into_iter().enumerate() {
                // `None` means no predicate state inside the box; the
                // caller has already judged the guard non-False, so keep
                // the box rather than fabricate an empty interval.
                if let Some(r) = r {
                    env.boxes[i] = r;
                }
            }
        }
        Guard::Formula(f) => {
            let erased = erase_knowledge(f, true).simplify();
            narrow_formula(env, stmt.params(), &erased);
        }
    }
}

fn narrow_formula(env: &mut IntervalEnv<'_>, params: &HashMap<String, i64>, f: &Formula) {
    match f {
        Formula::And(a, b) => {
            narrow_formula(env, params, a);
            narrow_formula(env, params, b);
        }
        Formula::BoolVar(name) => {
            if let Ok(BoolAtom::Var(v)) = resolve_bool_atom(env.space, params, name) {
                let lo = &mut env.boxes[v.index()].0;
                *lo = (*lo).max(1);
            }
        }
        Formula::Not(g) => {
            if let Formula::BoolVar(name) = &**g {
                if let Ok(BoolAtom::Var(v)) = resolve_bool_atom(env.space, params, name) {
                    let hi = &mut env.boxes[v.index()].1;
                    *hi = (*hi).min(0);
                }
            }
        }
        Formula::Cmp(op, a, b) => {
            if let Ok((ta, tb)) = Term::resolve_cmp(env.space, params, a, b) {
                narrow_cmp(env, *op, &ta, &tb);
                narrow_cmp(env, op.flip(), &tb, &ta);
            }
        }
        _ => {}
    }
}

/// Refine `x`'s box from a satisfied `x op e` conjunct. Sound even when
/// `e` mentions `x` itself: from `x < e` and `e ≤ hi(e)` follows
/// `x ≤ hi(e) - 1` at every satisfying state.
fn narrow_cmp(env: &mut IntervalEnv<'_>, op: CmpOp, x: &Term, e: &Term) {
    let Term::Var(v) = *x else { return };
    let (el, eh) = term_interval(env, e);
    let i = v.index();
    let (lo, hi) = env.boxes[i];
    let refined = match op {
        CmpOp::Eq => (lo.max(el), hi.min(eh)),
        CmpOp::Ne => (lo, hi),
        CmpOp::Lt => (lo, hi.min(eh.saturating_sub(1))),
        CmpOp::Le => (lo, hi.min(eh)),
        CmpOp::Gt => (lo.max(el.saturating_add(1)), hi),
        CmpOp::Ge => (lo.max(el), hi),
    };
    // A refinement that empties the interval means the caller's
    // non-False judgement and ours disagree at the boundary; keep the
    // wider box — over-approximation is always sound.
    if refined.0 <= refined.1 {
        env.boxes[i] = refined;
    }
}

/// Seed the box from the init states (full domains on oversized spaces).
fn init_env<'a>(program: &Program, space: &'a Arc<StateSpace>) -> IntervalEnv<'a> {
    let full: Vec<Itv> = space.vars().map(|v| full_interval(space, v)).collect();
    let init = program.init();
    let boxes = if space.num_states() > MAX_SCAN_STATES
        || init.count() > MAX_INIT_SAMPLES as u64
        || init.is_false()
    {
        full
    } else {
        let mut boxes: Vec<Option<Itv>> = vec![None; full.len()];
        for state in init.iter() {
            for (i, v) in space.vars().enumerate() {
                let val = space.value(state, v) as i64;
                boxes[i] = Some(match boxes[i] {
                    None => (val, val),
                    Some(b) => union(b, (val, val)),
                });
            }
        }
        boxes
            .into_iter()
            .enumerate()
            .map(|(i, b)| b.unwrap_or(full[i]))
            .collect()
    };
    IntervalEnv {
        space,
        boxes,
        pinned: Vec::new(),
    }
}

/// `KPT010`: fixpoint the box over every may-firing statement, then flag
/// the guards that are definitely false at the fixpoint.
fn check_intervals(program: &Program, diags: &mut Vec<Diagnostic>) {
    let space = program.space();
    let mut env = init_env(program, space);
    let full: Vec<Itv> = space.vars().map(|v| full_interval(space, v)).collect();

    let mut round = 0usize;
    loop {
        round += 1;
        let mut changed = false;
        for stmt in program.statements() {
            if guard_tri(&mut env, stmt) == Tri::False {
                continue;
            }
            if stmt.update_fn().is_some() {
                // Opaque update: anything may be written anywhere.
                for (i, f) in full.iter().enumerate() {
                    if env.boxes[i] != *f {
                        env.boxes[i] = *f;
                        changed = true;
                    }
                }
                continue;
            }
            // Right-hand sides see the guard-filtered pre-state; the
            // union target stays the unfiltered box (guard-failing states
            // keep their old values).
            let saved = env.boxes.clone();
            narrow_by_guard(&mut env, stmt);
            let written_itvs: Vec<(usize, Itv)> = stmt
                .assignments()
                .iter()
                .filter_map(|(target, rhs)| {
                    let var = space.var(target).ok()?;
                    let i = var.index();
                    let written = Term::resolve_assign(space, stmt.params(), rhs, var)
                        .map_or(full[i], |t| term_interval(&env, &t));
                    // Whatever the runtime does with an out-of-domain
                    // value, the stored code stays inside the domain.
                    let written = (written.0.max(full[i].0), written.1.min(full[i].1));
                    Some(if written.0 > written.1 {
                        (i, full[i])
                    } else {
                        (i, written)
                    })
                })
                .collect();
            env.boxes = saved;
            for (i, written) in written_itvs {
                let mut new = union(env.boxes[i], written);
                if new != env.boxes[i] {
                    if round > WIDEN_AFTER_ROUNDS {
                        kpt_obs::counter!("lint.dataflow.widenings").incr();
                        new = full[i];
                    }
                    env.boxes[i] = new;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    for stmt in program.statements() {
        if matches!(stmt.guard(), Guard::Always) {
            continue;
        }
        if guard_tri(&mut env, stmt) == Tri::False {
            let involved: BTreeSet<VarId> = guard_reads(space, stmt);
            let boxes = involved
                .iter()
                .map(|&v| {
                    let (lo, hi) = env.boxes[v.index()];
                    format!("`{}` ∈ [{lo}, {hi}]", space.name(v))
                })
                .collect::<Vec<_>>()
                .join(", ");
            diags.push(Diagnostic::on_guard(
                DiagnosticCode::IntervalDeadGuard,
                stmt.name(),
                format!(
                    "interval analysis proves the guard false over every reachable \
                     value box ({boxes}) — dead code, confirmed without the \
                     symbolic engine"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------------
// KPT011 — knowledge-guard dependency cycles
// ---------------------------------------------------------------------

/// Every variable a statement reads: its guard (knowledge bodies
/// included) plus its assignment right-hand sides.
fn stmt_reads(space: &Arc<StateSpace>, stmt: &Statement) -> BTreeSet<VarId> {
    let mut out = guard_reads(space, stmt);
    let mut ids = BTreeSet::new();
    for (_, rhs) in stmt.assignments() {
        rhs.idents(&mut ids);
    }
    let params = stmt.params();
    let vars = ids.iter().filter(|n| !params.contains_key(*n));
    out.extend(vars.filter_map(|n| space.var(n).ok()));
    out
}

/// The variables a statement writes through explicit assignments. Opaque
/// `update_with` statements report no writes: guessing would fabricate
/// dependency edges and false Figure-1 cycles.
fn stmt_writes(space: &Arc<StateSpace>, stmt: &Statement) -> BTreeSet<VarId> {
    if stmt.update_fn().is_some() {
        return BTreeSet::new();
    }
    stmt.assignments()
        .iter()
        .filter_map(|(v, _)| space.var(v).ok())
        .collect()
}

/// Tarjan's strongly-connected components over the statement dependency
/// graph, returned as a component id per statement (ids are otherwise
/// arbitrary but deterministic).
fn sccs(adj: &[Vec<usize>]) -> Vec<usize> {
    struct State<'g> {
        adj: &'g [Vec<usize>],
        index: Vec<Option<usize>>,
        low: Vec<usize>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: usize,
        comp: Vec<usize>,
        ncomp: usize,
    }
    fn visit(st: &mut State<'_>, v: usize) {
        st.index[v] = Some(st.next);
        st.low[v] = st.next;
        st.next += 1;
        st.stack.push(v);
        st.on_stack[v] = true;
        for &w in &st.adj[v] {
            match st.index[w] {
                None => {
                    visit(st, w);
                    st.low[v] = st.low[v].min(st.low[w]);
                }
                Some(wi) if st.on_stack[w] => st.low[v] = st.low[v].min(wi),
                Some(_) => {}
            }
        }
        if st.low[v] == st.index[v].expect("set above") {
            loop {
                let w = st.stack.pop().expect("stack non-empty");
                st.on_stack[w] = false;
                st.comp[w] = st.ncomp;
                if w == v {
                    break;
                }
            }
            st.ncomp += 1;
        }
    }
    let n = adj.len();
    let mut st = State {
        adj,
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        comp: vec![0; n],
        ncomp: 0,
    };
    for v in 0..n {
        if st.index[v].is_none() {
            visit(&mut st, v);
        }
    }
    st.comp
}

/// `KPT011`: a knowledge-guarded statement on a cyclic SCC of the
/// dependency graph whose members rewrite the guard's knowledge subject.
fn check_dependency_cycles(program: &Program, diags: &mut Vec<Diagnostic>) {
    let space = program.space();
    let stmts: Vec<&Statement> = program.statements().iter().collect();
    let reads: Vec<BTreeSet<VarId>> = stmts.iter().map(|s| stmt_reads(space, s)).collect();
    let writes: Vec<BTreeSet<VarId>> = stmts.iter().map(|s| stmt_writes(space, s)).collect();

    // Edge s → t iff t reads something s writes.
    let adj: Vec<Vec<usize>> = (0..stmts.len())
        .map(|i| {
            (0..stmts.len())
                .filter(|&j| !writes[i].is_disjoint(&reads[j]))
                .collect()
        })
        .collect();
    let comp = sccs(&adj);

    let ncomp = comp.iter().copied().max().map_or(0, |m| m + 1);
    let mut comp_members: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    for (i, &c) in comp.iter().enumerate() {
        comp_members[c].push(i);
    }
    let cyclic: Vec<bool> = comp_members
        .iter()
        .map(|members| members.len() > 1 || members.iter().any(|&i| adj[i].contains(&i)))
        .collect();
    for members in &comp_members {
        kpt_obs::histogram!("lint.dataflow.scc_size").record(members.len() as u64);
    }
    kpt_obs::counter!("lint.dataflow.cyclic_sccs")
        .add(cyclic.iter().filter(|&&c| c).count() as u64);

    for (idx, stmt) in stmts.iter().enumerate() {
        let Guard::Formula(f) = stmt.guard() else {
            continue;
        };
        if !cyclic[comp[idx]] {
            continue;
        }
        let mut tops = Vec::new();
        top_level_knowledge(f, &mut tops);
        for (agent, body) in &tops {
            let mut subject: BTreeSet<VarId> = BTreeSet::new();
            collect_formula_vars(space, body, &mut subject);
            if subject.is_empty() {
                continue;
            }
            let rewriter = comp_members[comp[idx]]
                .iter()
                .find(|&&m| !writes[m].is_disjoint(&subject));
            if let Some(&m) = rewriter {
                diags.push(Diagnostic::on_guard(
                    DiagnosticCode::KnowledgeDependencyCycle,
                    stmt.name(),
                    format!(
                        "guard tests `K{{{agent}}}` on a dependency cycle of {} \
                         statement(s) in which `{}` rewrites the guard's subject \
                         variables — the syntactic Figure-1 circularity \
                         (cf. KPT009 for the symbolic confirmation)",
                        comp_members[comp[idx]].len(),
                        stmts[m].name(),
                    ),
                ));
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// KPT012 — unimplementable knowledge
// ---------------------------------------------------------------------

/// `KPT012`: close each guarding process's view under dataflow and init
/// correlation; a `K{i}(φ)` body mentioning a variable outside the
/// closure is knowledge process `i` can never acquire.
fn check_reachable_information(program: &Program, diags: &mut Vec<Diagnostic>) {
    let space = program.space();
    if space.num_states() > MAX_SCAN_STATES {
        // The correlation rule cannot run; rather than flag on a
        // truncated closure, stay silent on oversized spaces.
        return;
    }
    let init_states: Vec<u64> = program.init().iter().take(MAX_INIT_SAMPLES + 1).collect();
    if init_states.len() > MAX_INIT_SAMPLES {
        return;
    }

    let stmts: Vec<&Statement> = program.statements().iter().collect();
    // Conservatism points the other way here than in KPT011: the closure
    // must *over*-approximate information flow, so an opaque `update_with`
    // statement — whose reads and writes are invisible — is modelled as
    // touching every variable. One such statement makes every closure
    // total and the pass silent, which is the sound degradation.
    let all_vars: BTreeSet<VarId> = space.vars().collect();
    let (reads, writes): (Vec<BTreeSet<VarId>>, Vec<BTreeSet<VarId>>) = stmts
        .iter()
        .map(|s| {
            if s.update_fn().is_some() {
                (all_vars.clone(), all_vars.clone())
            } else {
                (stmt_reads(space, s), stmt_writes(space, s))
            }
        })
        .unzip();

    let mut closures: HashMap<&str, BTreeSet<VarId>> = HashMap::new();
    for process in program.processes() {
        let mut reach: BTreeSet<VarId> = process.view().iter().collect();
        loop {
            let before = reach.len();
            // Dataflow rule: whatever feeds a statement writing into the
            // closure becomes observable through those writes.
            for (i, w) in writes.iter().enumerate() {
                if !w.is_disjoint(&reach) {
                    reach.extend(reads[i].iter().copied());
                }
            }
            // Init-correlation rule: a variable whose initial value is
            // correlated with an observable one is partially revealed by
            // the very first observation.
            let outside: Vec<VarId> = space.vars().filter(|v| !reach.contains(v)).collect();
            for w in outside {
                if reach.iter().any(|&v| correlated(space, &init_states, v, w)) {
                    reach.insert(w);
                }
            }
            if reach.len() == before {
                break;
            }
        }
        closures.insert(process.name(), reach);
    }

    for stmt in &stmts {
        let Guard::Formula(f) = stmt.guard() else {
            continue;
        };
        let mut tops = Vec::new();
        top_level_knowledge(f, &mut tops);
        let mut flagged: BTreeSet<&str> = BTreeSet::new();
        for (agent, body) in &tops {
            let Some(reach) = closures.get(agent.as_str()) else {
                continue; // undeclared process: KPT006's finding
            };
            if !flagged.insert(agent.as_str()) {
                continue;
            }
            let mut subject: BTreeSet<VarId> = BTreeSet::new();
            collect_formula_vars(space, body, &mut subject);
            let hidden: Vec<&str> = subject
                .iter()
                .filter(|v| !reach.contains(v))
                .map(|&v| space.name(v))
                .collect();
            if !hidden.is_empty() {
                diags.push(Diagnostic::on_guard(
                    DiagnosticCode::UnimplementableKnowledge,
                    stmt.name(),
                    format!(
                        "guard tests `K{{{agent}}}` over {} which no flow of \
                         information reaches process `{agent}`'s view — the \
                         knowledge can never be established, so the statement \
                         can never fire",
                        hidden
                            .iter()
                            .map(|n| format!("`{n}`"))
                            .collect::<Vec<_>>()
                            .join(", "),
                    ),
                ));
            }
        }
    }
}

/// Whether `v` and `w` are value-correlated in the initial states: the
/// observed `(v, w)` pairs are not the full product of their value sets.
fn correlated(space: &Arc<StateSpace>, init_states: &[u64], v: VarId, w: VarId) -> bool {
    let mut vs: BTreeSet<u64> = BTreeSet::new();
    let mut ws: BTreeSet<u64> = BTreeSet::new();
    let mut pairs: BTreeSet<(u64, u64)> = BTreeSet::new();
    for &s in init_states {
        let (a, b) = (space.value(s, v), space.value(s, w));
        vs.insert(a);
        ws.insert(b);
        pairs.insert((a, b));
    }
    (pairs.len() as u64) < (vs.len() as u64) * (ws.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_state::StateSpace;
    use kpt_unity::Program;

    fn lint_df(program: &Program) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        check(program, &mut diags);
        diags
    }

    #[test]
    fn interval_union_and_cmp_logic() {
        assert_eq!(union((0, 1), (3, 4)), (0, 4));
        assert_eq!(cmp_tri(CmpOp::Eq, (0, 1), (2, 3)), Tri::False);
        assert_eq!(cmp_tri(CmpOp::Eq, (2, 2), (2, 2)), Tri::True);
        assert_eq!(cmp_tri(CmpOp::Lt, (0, 1), (2, 3)), Tri::True);
        assert_eq!(cmp_tri(CmpOp::Ge, (0, 1), (2, 3)), Tri::False);
        assert_eq!(cmp_tri(CmpOp::Ne, (0, 3), (2, 3)), Tri::Unknown);
    }

    #[test]
    fn boolean_atoms_follow_the_evaluators_typing() {
        let space = StateSpace::builder()
            .bool_var("b")
            .unwrap()
            .nat_var("i", 4)
            .unwrap()
            .build()
            .unwrap();
        let mut env = IntervalEnv {
            space: &space,
            boxes: vec![(0, 0); 2],
            pinned: Vec::new(),
        };
        let params = HashMap::from([("one".to_owned(), 1), ("two".to_owned(), 2)]);
        let tri = |env: &mut IntervalEnv<'_>, src: &str| {
            formula_tri(env, &params, &kpt_logic::parse_formula(src).unwrap())
        };
        assert_eq!(tri(&mut env, "b"), Tri::False);
        assert_eq!(tri(&mut env, "one"), Tri::True);
        // Atoms the evaluator rejects as ill-typed prove nothing.
        assert_eq!(tri(&mut env, "i"), Tri::Unknown);
        assert_eq!(tri(&mut env, "two"), Tri::Unknown);
        assert_eq!(tri(&mut env, "ghost"), Tri::Unknown);
    }

    #[test]
    fn kpt010_finds_an_unreachable_counter_value() {
        let space = StateSpace::builder()
            .nat_var("i", 8)
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("dead", &space)
            .init_str("i = 0")
            .unwrap()
            .statement(
                kpt_unity::Statement::new("step")
                    .guard_str("i < 3")
                    .unwrap()
                    .assign_str("i", "i + 1")
                    .unwrap(),
            )
            .statement(
                kpt_unity::Statement::new("never")
                    .guard_str("i = 7")
                    .unwrap()
                    .assign_str("i", "0")
                    .unwrap(),
            )
            .build()
            .unwrap();
        let diags = lint_df(&program);
        let dead: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.code == DiagnosticCode::IntervalDeadGuard)
            .collect();
        assert_eq!(dead.len(), 1, "{diags:?}");
        assert_eq!(dead[0].statement.as_deref(), Some("never"));
        assert!(
            dead[0].message.contains("`i` ∈ [0, 3]"),
            "{}",
            dead[0].message
        );
    }

    #[test]
    fn tarjan_matches_hand_computed_components() {
        // 0 → 1 → 2 → 0 is one cycle; 3 → 4 a chain.
        let adj = vec![vec![1], vec![2], vec![0], vec![4], vec![]];
        let comp = sccs(&adj);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_ne!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
    }
}
