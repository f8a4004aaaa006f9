//! UNITY programs: declarations, init, processes, and statements (§5).
//!
//! A [`Program`] is the syntactic object — variable declarations (carried by
//! the shared [`StateSpace`]), a predicate `init`, a set of processes (each
//! simply a subset of variables, per §5), and a non-empty set of
//! [`Statement`]s. Compiling a program produces a
//! [`crate::CompiledProgram`] whose statements are exact
//! [`DetTransition`]s, each evaluated only at its guard-enabled states;
//! programs whose guards mention knowledge (§4 knowledge-based protocols)
//! must be compiled through [`Program::compile_with_knowledge`] with an
//! explicit knowledge semantics.

use std::borrow::Borrow;
use std::sync::Arc;

use kpt_logic::{parse_formula, EvalContext, Formula, KnowledgeFn, Term};
use kpt_state::{Predicate, StateSpace, VarId, VarSet};
use kpt_transformers::DetTransition;

use crate::compiled::CompiledProgram;
use crate::error::UnityError;
use crate::statement::Statement;

/// A named process: per §5, "a process in our framework is simply a subset
/// of program variables".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Process {
    name: String,
    view: VarSet,
}

impl Process {
    /// The process name (e.g. `"Sender"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The variables the process can access.
    pub fn view(&self) -> VarSet {
        self.view
    }
}

/// A UNITY program (§5), possibly knowledge-based (§4).
#[derive(Debug, Clone)]
pub struct Program {
    name: String,
    space: Arc<StateSpace>,
    init: Predicate,
    processes: Vec<Process>,
    statements: Vec<Statement>,
}

impl Program {
    /// Start building a program over `space`.
    pub fn builder(name: impl Into<String>, space: &Arc<StateSpace>) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            space: Arc::clone(space),
            init: None,
            processes: Vec::new(),
            statements: Vec::new(),
        }
    }

    /// The program name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The state space.
    pub fn space(&self) -> &Arc<StateSpace> {
        &self.space
    }

    /// The initial-state predicate.
    pub fn init(&self) -> &Predicate {
        &self.init
    }

    /// The declared processes.
    pub fn processes(&self) -> &[Process] {
        &self.processes
    }

    /// The statements.
    pub fn statements(&self) -> &[Statement] {
        &self.statements
    }

    /// Look up a process's view by name.
    ///
    /// # Errors
    /// [`UnityError::UnknownProcess`] if not declared.
    pub fn process_view(&self, name: &str) -> Result<VarSet, UnityError> {
        self.processes
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.view)
            .ok_or_else(|| UnityError::UnknownProcess(name.to_owned()))
    }

    /// The same program with a different initial condition. Used to study
    /// (non-)monotonicity of properties with respect to `init` — the
    /// paper's Figure 2 phenomenon.
    #[must_use]
    pub fn with_init(&self, init: Predicate) -> Program {
        let mut p = self.clone();
        p.init = init;
        p
    }

    /// Whether any guard mentions a knowledge modality — i.e. whether this
    /// is a knowledge-based protocol in the sense of §4.
    pub fn is_knowledge_based(&self) -> bool {
        self.statements
            .iter()
            .any(|s| s.guard().mentions_knowledge())
    }

    /// Compile as a *standard* program: evaluate each guard, then
    /// [`Program::compile_guarded`].
    ///
    /// # Errors
    /// [`UnityError::KnowledgeGuard`] if any guard mentions knowledge;
    /// guard/update evaluation errors otherwise.
    pub fn compile(&self) -> Result<CompiledProgram, UnityError> {
        if let Some(s) = self
            .statements
            .iter()
            .find(|s| s.guard().mentions_knowledge())
        {
            return Err(UnityError::KnowledgeGuard {
                statement: s.name().to_owned(),
            });
        }
        let guards = self.eval_guards(|_, stmt| stmt.eval_guard(&self.space, None))?;
        self.compile_guarded(&guards)
    }

    /// Compile with an explicit knowledge semantics for `K{i}` guards:
    /// evaluate each guard against `knowledge`, then
    /// [`Program::compile_guarded`].
    ///
    /// The knowledge-based-protocol machinery in `kpt-core` evaluates its
    /// guards itself (keeping the knowledge-free ones across candidates)
    /// with the eq. (13) semantics instantiated at a candidate strongest
    /// invariant; this crate stays agnostic about what "knowledge" means.
    ///
    /// # Errors
    /// Guard/update evaluation errors.
    pub fn compile_with_knowledge(
        &self,
        knowledge: &KnowledgeFn<'_>,
    ) -> Result<CompiledProgram, UnityError> {
        let guards = self.eval_guards(|_, stmt| stmt.eval_guard(&self.space, Some(knowledge)))?;
        self.compile_guarded(&guards)
    }

    /// Evaluate one guard per statement with `eval(index, statement)`, in
    /// statement order — the first half of a compile. A guard may be owned
    /// or borrowed (`Cow<Predicate>`), so a caller can hand back guards it
    /// keeps elsewhere without copying them.
    ///
    /// # Errors
    /// The error a statement-by-statement compile reports: when statement
    /// `i`'s guard fails, an update error of a statement before `i` if
    /// there is one, else the guard's error.
    pub fn eval_guards<G, F>(&self, mut eval: F) -> Result<Vec<G>, UnityError>
    where
        G: Borrow<Predicate>,
        F: FnMut(usize, &Statement) -> Result<G, UnityError>,
    {
        let mut guards = Vec::with_capacity(self.statements.len());
        for (i, stmt) in self.statements.iter().enumerate() {
            match eval(i, stmt) {
                Ok(g) => guards.push(g),
                Err(e) => return Err(self.compile_transitions(&guards).err().unwrap_or(e)),
            }
        }
        Ok(guards)
    }

    /// Compile with one evaluated guard per statement, in statement order:
    /// each statement's update runs at exactly its guard's states, and
    /// every other state is fixed. [`Program::compile`] and
    /// [`Program::compile_with_knowledge`] are "evaluate each guard, then
    /// this".
    ///
    /// # Errors
    /// Update errors: unknown identifiers, or
    /// [`UnityError::UpdateOutOfRange`] at a guard-enabled state.
    ///
    /// # Panics
    /// If `guards` does not hold exactly one predicate per statement.
    pub fn compile_guarded<G: Borrow<Predicate>>(
        &self,
        guards: &[G],
    ) -> Result<CompiledProgram, UnityError> {
        assert_eq!(
            guards.len(),
            self.statements.len(),
            "compile_guarded takes one guard per statement"
        );
        let mut span = kpt_obs::span("unity.compile");
        let transitions = self.compile_transitions(guards)?;
        let names = self
            .statements
            .iter()
            .map(|s| s.name().to_owned())
            .collect();
        span.field("statements", transitions.len() as u64);
        if span.is_live() {
            let moved: u64 = transitions.iter().map(|t| t.moved().count()).sum();
            span.field("moved_states", moved);
        }
        span.finish();
        Ok(CompiledProgram::new(
            self.name.clone(),
            &self.space,
            self.init.clone(),
            names,
            transitions,
            self.processes.clone(),
        ))
    }

    /// The transitions of the first `guards.len()` statements.
    fn compile_transitions<G: Borrow<Predicate>>(
        &self,
        guards: &[G],
    ) -> Result<Vec<DetTransition>, UnityError> {
        self.statements
            .iter()
            .zip(guards)
            .map(|(stmt, guard)| compile_statement(&self.space, stmt, guard.borrow()))
            .collect()
    }
}

fn compile_statement(
    space: &Arc<StateSpace>,
    stmt: &Statement,
    guard: &Predicate,
) -> Result<DetTransition, UnityError> {
    // 1. Compile assignment right-hand sides once.
    let mut compiled: Vec<(VarId, Term)> = Vec::with_capacity(stmt.assignments().len());
    for (var_name, expr) in stmt.assignments() {
        let var = space.var(var_name)?;
        compiled.push((var, Term::resolve_assign(space, stmt.params(), expr, var)?));
    }

    // 2. Evaluate the update at exactly the guard-enabled states; every
    //    other state is fixed ("the statement has no effect", §5).
    let n = space.num_states();
    let mut out_of_range: Option<UnityError> = None;
    let trans = DetTransition::guarded(space, guard, |s| {
        if out_of_range.is_some() {
            return s;
        }
        // Simultaneous: all RHS read the pre-state `s`.
        let mut next = s;
        for (var, term) in &compiled {
            let v = term.eval_state(space, s);
            if v < 0 || !space.domain(*var).contains(v as u64) {
                out_of_range = Some(UnityError::UpdateOutOfRange {
                    statement: stmt.name().to_owned(),
                    var: space.name(*var).to_owned(),
                    state: space.render_state(s),
                    value: v,
                });
                return s;
            }
            next = space.with_value(next, *var, v as u64);
        }
        if let Some(f) = stmt.update_fn() {
            next = f(space, next);
            debug_assert!(next < n, "update function escaped the state space");
        }
        next
    });
    match out_of_range {
        Some(e) => Err(e),
        None => Ok(trans),
    }
}

/// Fluent builder for [`Program`].
///
/// # Examples
/// ```
/// use kpt_state::StateSpace;
/// use kpt_unity::{Program, Statement};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let space = StateSpace::builder().bool_var("x")?.bool_var("y")?.build()?;
/// let program = Program::builder("demo", &space)
///     .init_str("~x /\\ ~y")?
///     .process("P0", ["x"])?
///     .process("P1", ["x", "y"])?
///     .statement(Statement::new("s0").guard_str("~x")?.assign_str("x", "1")?)
///     .statement(Statement::new("s1").guard_str("x")?.assign_str("y", "1")?)
///     .build()?;
/// let compiled = program.compile()?;
/// assert!(compiled.si().holds(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    space: Arc<StateSpace>,
    init: Option<Predicate>,
    processes: Vec<Process>,
    statements: Vec<Statement>,
}

impl ProgramBuilder {
    /// Set the initial condition from a semantic predicate.
    #[must_use]
    pub fn init_pred(mut self, p: Predicate) -> Self {
        self.init = Some(p);
        self
    }

    /// Set the initial condition from a formula AST (knowledge-free).
    ///
    /// # Errors
    /// Evaluation errors.
    pub fn init_formula(mut self, f: &Formula) -> Result<Self, UnityError> {
        let p = EvalContext::new(&self.space).eval(f)?;
        self.init = Some(p);
        Ok(self)
    }

    /// Set the initial condition from concrete syntax.
    ///
    /// # Errors
    /// Parse or evaluation errors.
    pub fn init_str(self, src: &str) -> Result<Self, UnityError> {
        let f = parse_formula(src)?;
        self.init_formula(&f)
    }

    /// Declare a process as a set of variable names.
    ///
    /// # Errors
    /// [`UnityError::DuplicateProcess`] or unknown-variable errors.
    pub fn process<'a, I: IntoIterator<Item = &'a str>>(
        mut self,
        name: &str,
        vars: I,
    ) -> Result<Self, UnityError> {
        if self.processes.iter().any(|p| p.name == name) {
            return Err(UnityError::DuplicateProcess(name.to_owned()));
        }
        let view = self.space.var_set(vars)?;
        self.processes.push(Process {
            name: name.to_owned(),
            view,
        });
        Ok(self)
    }

    /// Add a statement.
    #[must_use]
    pub fn statement(mut self, stmt: Statement) -> Self {
        self.statements.push(stmt);
        self
    }

    /// Add one statement per element of an iterator — the paper's
    /// quantified statement generation `⟨ ∥ i : range : stmt.i ⟩`.
    #[must_use]
    pub fn statements<I, F>(mut self, range: I, mut f: F) -> Self
    where
        I: IntoIterator<Item = i64>,
        F: FnMut(i64) -> Statement,
    {
        for i in range {
            self.statements.push(f(i));
        }
        self
    }

    /// Finish building.
    ///
    /// # Errors
    /// [`UnityError::NoStatements`] for an empty statement set (UNITY
    /// requires a non-empty set) or [`UnityError::DuplicateStatement`].
    pub fn build(self) -> Result<Program, UnityError> {
        if self.statements.is_empty() {
            return Err(UnityError::NoStatements);
        }
        for (i, s) in self.statements.iter().enumerate() {
            if self.statements[..i].iter().any(|t| t.name() == s.name()) {
                return Err(UnityError::DuplicateStatement(s.name().to_owned()));
            }
        }
        let init = self.init.unwrap_or_else(|| Predicate::tt(&self.space));
        Ok(Program {
            name: self.name,
            space: self.space,
            init,
            processes: self.processes,
            statements: self.statements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Arc<StateSpace> {
        StateSpace::builder()
            .nat_var("i", 4)
            .unwrap()
            .bool_var("done")
            .unwrap()
            .enum_var("z", ["bot", "msg"])
            .unwrap()
            .build()
            .unwrap()
    }

    fn counter(space: &Arc<StateSpace>) -> Program {
        Program::builder("counter", space)
            .init_str("i = 0 /\\ ~done /\\ z = bot")
            .unwrap()
            .process("P", ["i", "done"])
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
                    .guard_str("i = 3")
                    .unwrap()
                    .assign_str("done", "1")
                    .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn build_and_compile_standard() {
        let s = space();
        let p = counter(&s);
        assert!(!p.is_knowledge_based());
        assert_eq!(p.statements().len(), 2);
        let c = p.compile().unwrap();
        assert_eq!(c.num_statements(), 2);
        // From i=0, statement "inc" moves to i=1.
        let i = s.var("i").unwrap();
        let s0 = p.init().witness().unwrap();
        let s1 = c.step(0, s0);
        assert_eq!(s.value(s1, i), 1);
        // "finish" is disabled at i=0: identity.
        assert_eq!(c.step(1, s0), s0);
    }

    #[test]
    fn knowledge_guard_blocks_standard_compilation() {
        let s = space();
        let p = Program::builder("kbp", &s)
            .process("P", ["i"])
            .unwrap()
            .statement(
                Statement::new("k")
                    .guard_str("K{P}(i = 0)")
                    .unwrap()
                    .assign_str("done", "1")
                    .unwrap(),
            )
            .build()
            .unwrap();
        assert!(p.is_knowledge_based());
        assert!(matches!(
            p.compile(),
            Err(UnityError::KnowledgeGuard { .. })
        ));
        // With a (degenerate) knowledge semantics it compiles.
        let k: Box<KnowledgeFn> = Box::new(|_p, pred: &Predicate| Ok(pred.clone()));
        assert!(p.compile_with_knowledge(&k).is_ok());
    }

    #[test]
    fn compile_guarded_on_the_evaluated_guards_is_compile() {
        let s = space();
        let p = counter(&s);
        let guards = p.eval_guards(|_, stmt| stmt.eval_guard(&s, None)).unwrap();
        let c = p.compile().unwrap();
        let g = p.compile_guarded(&guards).unwrap();
        assert_eq!(g.si(), c.si());
        for (a, b) in g.transitions().iter().zip(c.transitions()) {
            assert_eq!(a.moved(), b.moved());
            assert!(a.moved().iter().all(|st| a.step(st) == b.step(st)));
        }
        // Other guards give another program: `finish` enabled everywhere.
        let mut wider = guards.clone();
        wider[1] = Predicate::tt(&s);
        let w = p.compile_guarded(&wider).unwrap();
        assert!(w.transitions()[1].moved().count() > c.transitions()[1].moved().count());
    }

    #[test]
    fn earlier_update_error_wins_over_a_later_guard_error() {
        // The statement-by-statement order: `inc`'s update fails before
        // `bad`'s guard is reached.
        let s = space();
        let p = Program::builder("order", &s)
            .statement(Statement::new("inc").assign_str("i", "i + 1").unwrap())
            .statement(Statement::new("bad").guard_str("nope").unwrap())
            .build()
            .unwrap();
        let e = p.compile().unwrap_err();
        assert!(matches!(e, UnityError::UpdateOutOfRange { .. }), "{e}");
        let q = Program::builder("order", &s)
            .statement(Statement::new("skip"))
            .statement(Statement::new("bad").guard_str("nope").unwrap())
            .build()
            .unwrap();
        assert!(q.compile().unwrap_err().to_string().contains("nope"));
    }

    #[test]
    fn update_out_of_range_detected() {
        let s = space();
        let p = Program::builder("bad", &s)
            .statement(Statement::new("inc").assign_str("i", "i + 1").unwrap())
            .build()
            .unwrap();
        let e = p.compile().unwrap_err();
        assert!(matches!(e, UnityError::UpdateOutOfRange { .. }), "{e}");
    }

    #[test]
    fn enum_label_assignment() {
        let s = space();
        let p = Program::builder("msg", &s)
            .statement(
                Statement::new("send")
                    .guard_str("z = bot")
                    .unwrap()
                    .assign_str("z", "msg")
                    .unwrap(),
            )
            .build()
            .unwrap();
        let c = p.compile().unwrap();
        let z = s.var("z").unwrap();
        let s0 = 0u64; // z = bot
        assert_eq!(s.value(c.step(0, s0), z), 1);
    }

    #[test]
    fn statement_params_in_guard_and_update() {
        let s = space();
        let p = Program::builder("quantified", &s)
            .statements(0..4, |k| {
                Statement::new(format!("set_{k}"))
                    .param("k", k)
                    .guard_str("i = k /\\ k < 3")
                    .unwrap()
                    .assign_str("i", "k + 1")
                    .unwrap()
            })
            .build()
            .unwrap();
        let c = p.compile().unwrap();
        assert_eq!(c.num_statements(), 4);
        let i = s.var("i").unwrap();
        // Statement set_1 enabled exactly when i = 1, sets i := 2.
        let st = Predicate::var_eq(&s, i, 1).witness().unwrap();
        assert_eq!(s.value(c.step(1, st), i), 2);
        assert_eq!(c.step(0, st), st); // set_0 disabled
    }

    #[test]
    fn simultaneous_assignment_reads_prestate() {
        // x, y := y, x — the classic swap.
        let sp = StateSpace::builder()
            .nat_var("x", 3)
            .unwrap()
            .nat_var("y", 3)
            .unwrap()
            .build()
            .unwrap();
        let p = Program::builder("swap", &sp)
            .statement(
                Statement::new("swap")
                    .assign_str("x", "y")
                    .unwrap()
                    .assign_str("y", "x")
                    .unwrap(),
            )
            .build()
            .unwrap();
        let c = p.compile().unwrap();
        let x = sp.var("x").unwrap();
        let y = sp.var("y").unwrap();
        let st = sp.encode(&[1, 2]).unwrap();
        let nx = c.step(0, st);
        assert_eq!(sp.value(nx, x), 2);
        assert_eq!(sp.value(nx, y), 1);
    }

    #[test]
    fn update_fn_statement() {
        let s = space();
        let p = Program::builder("fnupd", &s)
            .statement(Statement::new("zero").update_with(move |sp, st| {
                let i = sp.var("i").unwrap();
                sp.with_value(st, i, 0)
            }))
            .build()
            .unwrap();
        let c = p.compile().unwrap();
        let i = s.var("i").unwrap();
        let st = Predicate::var_eq(&s, i, 3).witness().unwrap();
        assert_eq!(s.value(c.step(0, st), i), 0);
    }

    #[test]
    fn update_fn_never_runs_on_guard_disabled_states() {
        // §5: a statement whose guard is false has no effect, so its opaque
        // update must not even be evaluated there.
        let s = space();
        let p = Program::builder("guarded", &s)
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
        let c = p.compile().unwrap();
        let i = s.var("i").unwrap();
        let done = s.var("done").unwrap();
        let st = s.encode(&[2, 0, 0]).unwrap();
        assert_eq!(c.step(0, st), st);
        let st = s.with_value(st, done, 1);
        assert_eq!(s.value(c.step(0, st), i), 0);
        let enabled = Predicate::var_is_true(&s, done);
        assert!(c.transitions()[0].moved().entails(&enabled));
    }

    #[test]
    fn update_out_of_range_only_where_disabled_compiles() {
        // `i + 1` leaves the domain only at i = 3, where the guard is false.
        let s = space();
        let p = Program::builder("bounded", &s)
            .statement(
                Statement::new("inc")
                    .guard_str("i < 3")
                    .unwrap()
                    .assign_str("i", "i + 1")
                    .unwrap(),
            )
            .build()
            .unwrap();
        let c = p.compile().unwrap();
        let i = s.var("i").unwrap();
        let top = Predicate::var_eq(&s, i, 3);
        assert!(top.entails(&c.transitions()[0].fixed_states()));
    }

    #[test]
    fn builder_validation() {
        let s = space();
        assert!(matches!(
            Program::builder("e", &s).build(),
            Err(UnityError::NoStatements)
        ));
        assert!(matches!(
            Program::builder("e", &s)
                .process("P", ["i"])
                .unwrap()
                .process("P", ["done"]),
            Err(UnityError::DuplicateProcess(_))
        ));
        assert!(matches!(
            Program::builder("e", &s)
                .statement(Statement::new("a"))
                .statement(Statement::new("a"))
                .build(),
            Err(UnityError::DuplicateStatement(_))
        ));
        assert!(Program::builder("e", &s).process("P", ["nope"]).is_err());
    }

    #[test]
    fn process_view_lookup() {
        let s = space();
        let p = counter(&s);
        let view = p.process_view("P").unwrap();
        assert_eq!(view.len(), 2);
        assert!(matches!(
            p.process_view("Q"),
            Err(UnityError::UnknownProcess(_))
        ));
    }

    #[test]
    fn default_init_is_true() {
        let s = space();
        let p = Program::builder("d", &s)
            .statement(Statement::new("skip"))
            .build()
            .unwrap();
        assert!(p.init().everywhere());
    }
}
