//! # kpt-lint
//!
//! A static-analysis pass over [`kpt_unity::Program`]s and
//! [`kpt_core::Kbp`]s that runs *before* any eq. (25) solver and reports
//! the bug classes the paper warns about — most prominently the Figure-1
//! circularity (a knowledge guard whose consequences rewrite the very fact
//! it tests, so the fixpoint equation may have **no solution**).
//!
//! Four depths of checks, each a module:
//!
//! 1. [`decl`] — declaration-level: identifiers missing from the state
//!    space, updates that can write outside a variable's domain, duplicate
//!    or variable-shadowing names, empty/unsatisfiable `init`.
//! 2. [`view`] — view-soundness: a statement guarded by `K{i}(..)` whose
//!    *objective* guard atoms or update right-hand sides read variables
//!    outside process `i`'s view (the "acts on what it cannot know" class),
//!    plus undeclared processes in knowledge atoms.
//! 3. [`dataflow`] — abstract interpretation without the BDD engine:
//!    interval analysis proving guards constant-false (`KPT010`, an
//!    over-approximation of the symbolic `KPT007` verdict), a
//!    knowledge-guard dependency graph with SCC detection (`KPT011`, the
//!    syntactic Figure-1 circularity in `O(statements)`), and
//!    unimplementable-knowledge flow (`KPT012`, a `K{i}` guard over
//!    variables outside `V_i`'s reachable information).
//! 4. [`symbolic`] — semantic checks against the strongest invariant of
//!    the *knowledge-erased* over-approximation: guards unsatisfiable
//!    under `SI` (dead code), write-write races on overlapping guards, and
//!    the eq.-25 knowledge-circularity analysis. The `SI` and guards are
//!    the erased program's explicit ones.
//!
//! The knowledge erasure is sound by eq. (14) (`[K_i p ⇒ p]`): replacing a
//! positive `K{i}(φ)` by `φ` and a negative one by `ff` only *weakens*
//! guards, so the erased program's `SI` contains the `SI` of every solution
//! of the KBP — a statement dead under the erased `SI` is dead under every
//! solution. The dataflow interval box in turn contains the erased `SI`
//! (it starts from the init states and closes under every guard that is
//! not definitely false), so `KPT010 ⊑ KPT007`: whenever the interval pass
//! declares a guard dead, the symbolic pass agrees.
//!
//! Every diagnostic carries a stable code (`KPT001`…), a severity, the
//! offending statement, and — where a concrete state demonstrates the
//! problem — witness states. Diagnostics produced through [`lint_source`]
//! additionally carry the byte [`Span`](kpt_logic::Span) of the offending
//! construct (guard, assignment, init conjunct) in the original `.kpt`
//! text, resolved through the [`kpt_unity::SourceMap`];
//! [`LintReport::render_source`] turns them into caret diagnostics.
//! [`LintReport::to_json`] emits a machine-readable form for CI; the
//! `kpt_lint` bin runs the pass over every in-tree model.

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;

use kpt_core::Kbp;
use kpt_obs::WitnessState;
use kpt_unity::{Program, SourceMap};

mod dataflow;
mod decl;
mod erase;
mod registry;
mod symbolic;
mod view;

pub use erase::{erase_knowledge, erased_program};
pub use registry::{lint_registry, lint_registry_with_threads, registry, RegistryCase};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The program is malformed; solving it is meaningless or will fail.
    Error,
    /// The program is well-formed but exhibits a pattern the paper warns
    /// about (dead code, races, possible non-existence of solutions).
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// Stable diagnostic codes. The numeric part never changes meaning; new
/// checks append new codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DiagnosticCode {
    /// `KPT001` — a guard or update references an identifier that is
    /// neither a state-space variable, a statement parameter, nor an enum
    /// label resolvable in its context.
    UnknownIdentifier,
    /// `KPT002` — an assignment can write a value outside the target
    /// variable's domain at some guard-enabled state.
    UpdateOutOfRange,
    /// `KPT003` — duplicate statement names, or a statement parameter that
    /// shadows a program variable (the parameter silently wins).
    ShadowedName,
    /// `KPT004` — the initial condition is unsatisfiable; `SI = sst.init`
    /// is empty and every property holds vacuously.
    EmptyInit,
    /// `KPT005` — a statement guarded by `K{i}(..)` objectively reads
    /// variables outside process `i`'s view.
    ViewViolation,
    /// `KPT006` — a knowledge atom `K{p}(..)` names an undeclared process.
    UnknownProcess,
    /// `KPT007` — a guard is unsatisfiable under the strongest invariant of
    /// the knowledge-erased over-approximation: the statement can never
    /// execute in any solution.
    DeadGuard,
    /// `KPT008` — two statements write conflicting values to the same
    /// variable and their guards overlap under `SI`.
    WriteRace,
    /// `KPT009` — the Figure-1 pattern: a knowledge guard `K_i φ` enables
    /// updates that establish/destroy `φ` itself, so the eq. (25) fixpoint
    /// may have no solution.
    KnowledgeCircularity,
    /// `KPT010` — interval abstract interpretation proves the guard
    /// constant-false over every reachable value box: dead code, shown
    /// without touching the BDD engine (always implies `KPT007`).
    IntervalDeadGuard,
    /// `KPT011` — the statement's knowledge guard sits on a cyclic
    /// strongly-connected component of the read/write dependency graph
    /// that rewrites the guard's subject — the syntactic Figure-1
    /// circularity, found in `O(statements)`.
    KnowledgeDependencyCycle,
    /// `KPT012` — a `K{i}` guard whose body depends on variables outside
    /// process `i`'s reachable information (its view closed under the
    /// program's dataflow and init correlations): no implementation of
    /// process `i` can ever establish that knowledge.
    UnimplementableKnowledge,
}

impl DiagnosticCode {
    /// Every code the linter can produce, in `KPTnnn` order.
    pub const ALL: [DiagnosticCode; 12] = [
        DiagnosticCode::UnknownIdentifier,
        DiagnosticCode::UpdateOutOfRange,
        DiagnosticCode::ShadowedName,
        DiagnosticCode::EmptyInit,
        DiagnosticCode::ViewViolation,
        DiagnosticCode::UnknownProcess,
        DiagnosticCode::DeadGuard,
        DiagnosticCode::WriteRace,
        DiagnosticCode::KnowledgeCircularity,
        DiagnosticCode::IntervalDeadGuard,
        DiagnosticCode::KnowledgeDependencyCycle,
        DiagnosticCode::UnimplementableKnowledge,
    ];

    /// Parse a `KPTnnn` code string (the CLI's `--deny`/`--allow` input).
    pub fn from_code(code: &str) -> Option<DiagnosticCode> {
        DiagnosticCode::ALL.into_iter().find(|c| c.code() == code)
    }

    /// The stable `KPTnnn` code string.
    pub fn code(self) -> &'static str {
        match self {
            DiagnosticCode::UnknownIdentifier => "KPT001",
            DiagnosticCode::UpdateOutOfRange => "KPT002",
            DiagnosticCode::ShadowedName => "KPT003",
            DiagnosticCode::EmptyInit => "KPT004",
            DiagnosticCode::ViewViolation => "KPT005",
            DiagnosticCode::UnknownProcess => "KPT006",
            DiagnosticCode::DeadGuard => "KPT007",
            DiagnosticCode::WriteRace => "KPT008",
            DiagnosticCode::KnowledgeCircularity => "KPT009",
            DiagnosticCode::IntervalDeadGuard => "KPT010",
            DiagnosticCode::KnowledgeDependencyCycle => "KPT011",
            DiagnosticCode::UnimplementableKnowledge => "KPT012",
        }
    }

    /// The shallowest [`Depth`] whose pass can produce this code.
    pub fn depth(self) -> Depth {
        match self {
            DiagnosticCode::UnknownIdentifier
            | DiagnosticCode::UpdateOutOfRange
            | DiagnosticCode::ShadowedName
            | DiagnosticCode::EmptyInit => Depth::Decl,
            DiagnosticCode::ViewViolation | DiagnosticCode::UnknownProcess => Depth::View,
            DiagnosticCode::IntervalDeadGuard
            | DiagnosticCode::KnowledgeDependencyCycle
            | DiagnosticCode::UnimplementableKnowledge => Depth::Dataflow,
            DiagnosticCode::DeadGuard
            | DiagnosticCode::WriteRace
            | DiagnosticCode::KnowledgeCircularity => Depth::Symbolic,
        }
    }

    /// The severity every finding of this code carries.
    pub fn severity(self) -> Severity {
        match self {
            DiagnosticCode::UnknownIdentifier
            | DiagnosticCode::UpdateOutOfRange
            | DiagnosticCode::EmptyInit
            | DiagnosticCode::ViewViolation
            | DiagnosticCode::UnknownProcess => Severity::Error,
            DiagnosticCode::ShadowedName
            | DiagnosticCode::DeadGuard
            | DiagnosticCode::WriteRace
            | DiagnosticCode::KnowledgeCircularity
            | DiagnosticCode::IntervalDeadGuard
            | DiagnosticCode::KnowledgeDependencyCycle
            | DiagnosticCode::UnimplementableKnowledge => Severity::Warning,
        }
    }

    /// The paper definition/figure the check guards against.
    pub fn paper_ref(self) -> &'static str {
        match self {
            DiagnosticCode::UnknownIdentifier => "§2 (fixed finite state space)",
            DiagnosticCode::UpdateOutOfRange => "§2 (finite variable domains)",
            DiagnosticCode::ShadowedName => "§4 (statement well-formedness)",
            DiagnosticCode::EmptyInit => "eq. (2)/(25): SI = sst.init",
            DiagnosticCode::ViewViolation => "§3 (views), Figures 3-4",
            DiagnosticCode::UnknownProcess => "§3 (process views)",
            DiagnosticCode::DeadGuard => "eq. (2) (dead under SI)",
            DiagnosticCode::WriteRace => "§2 (UNITY interleaving)",
            DiagnosticCode::KnowledgeCircularity => "eq. (25), Figure 1",
            DiagnosticCode::IntervalDeadGuard => "eq. (2) (dead under SI), eq. (14)",
            DiagnosticCode::KnowledgeDependencyCycle => "eq. (25), Figure 1 (syntactic)",
            DiagnosticCode::UnimplementableKnowledge => "§3 (views), eq. (13)",
        }
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// Which source construct a diagnostic points at. Anchors are set by the
/// passes (which work on the elaborated [`Program`], spans unknown) and
/// resolved to byte [`Span`](kpt_logic::Span)s through the
/// [`kpt_unity::SourceMap`] when linting `.kpt` text via [`lint_source`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Anchor {
    /// The `program` header.
    Program,
    /// The init formula.
    Init,
    /// The whole anchored statement.
    Statement,
    /// The anchored statement's guard formula.
    Guard,
    /// The anchored statement's `n`-th assignment (`var := expr`).
    Assign(usize),
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The stable code.
    pub code: DiagnosticCode,
    /// The statement the finding is anchored to, if any.
    pub statement: Option<String>,
    /// Which construct of the program (or of [`Self::statement`]) the
    /// finding points at.
    pub anchor: Anchor,
    /// The byte span of the anchored construct in the original `.kpt`
    /// source — `Some` only for reports produced via [`lint_source`].
    pub span: Option<kpt_logic::Span>,
    /// Human-readable description of the defect.
    pub message: String,
    /// Concrete states demonstrating the problem (empty for purely
    /// syntactic findings).
    pub witnesses: Vec<WitnessState>,
}

impl Diagnostic {
    /// A finding with no anchored statement or witnesses.
    pub fn program_level(code: DiagnosticCode, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            statement: None,
            anchor: Anchor::Program,
            span: None,
            message: message.into(),
            witnesses: Vec::new(),
        }
    }

    /// A finding anchored to a statement.
    pub fn on_statement(
        code: DiagnosticCode,
        statement: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            code,
            statement: Some(statement.into()),
            anchor: Anchor::Statement,
            span: None,
            message: message.into(),
            witnesses: Vec::new(),
        }
    }

    /// A finding anchored to a statement's guard formula.
    pub fn on_guard(
        code: DiagnosticCode,
        statement: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic::on_statement(code, statement, message).anchored(Anchor::Guard)
    }

    /// Re-anchor the finding at a finer construct.
    #[must_use]
    pub fn anchored(mut self, anchor: Anchor) -> Self {
        self.anchor = anchor;
        self
    }

    /// Attach witness states.
    #[must_use]
    pub fn with_witnesses(mut self, witnesses: Vec<WitnessState>) -> Self {
        self.witnesses = witnesses;
        self
    }

    /// The severity of this finding (derived from its code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.severity(), self.code.code())?;
        if let Some(s) = &self.statement {
            write!(f, " statement `{s}`")?;
        }
        write!(f, ": {} ({})", self.message, self.code.paper_ref())?;
        for w in &self.witnesses {
            write!(f, "\n    witness {w}")?;
        }
        Ok(())
    }
}

/// The four analysis depths, shallow to deep. Mostly useful through
/// [`LintOptions::up_to`] and the CLI's `--depth` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Depth {
    /// Declaration-level syntax checks (KPT001-KPT004).
    Decl,
    /// View-soundness checks (KPT005-KPT006).
    View,
    /// BDD-free abstract interpretation (KPT010-KPT012).
    Dataflow,
    /// Symbolic checks against the erased `SI` (KPT007-KPT009).
    Symbolic,
}

impl FromStr for Depth {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "decl" => Ok(Depth::Decl),
            "view" => Ok(Depth::View),
            "dataflow" => Ok(Depth::Dataflow),
            "symbolic" | "full" => Ok(Depth::Symbolic),
            other => Err(format!(
                "unknown depth `{other}` (expected decl, view, dataflow, or symbolic)"
            )),
        }
    }
}

impl fmt::Display for Depth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Depth::Decl => write!(f, "decl"),
            Depth::View => write!(f, "view"),
            Depth::Dataflow => write!(f, "dataflow"),
            Depth::Symbolic => write!(f, "symbolic"),
        }
    }
}

/// Which passes to run. Each depth toggles independently; the dataflow and
/// symbolic passes additionally require that the shallower passes found no
/// errors (a malformed program has no meaningful semantics to analyse).
#[derive(Debug, Clone, Copy)]
pub struct LintOptions {
    /// Run the declaration-level checks (KPT001-KPT004).
    pub decl: bool,
    /// Run the view-soundness checks (KPT005-KPT006).
    pub view: bool,
    /// Run the dataflow checks (KPT010-KPT012).
    pub dataflow: bool,
    /// Run the symbolic checks (KPT007-KPT009).
    pub symbolic: bool,
    /// Live-node budget for a BDD fixpoint in the symbolic pass. The pass
    /// computes the erased program's `SI` explicitly and builds no BDD, so
    /// the budget has no effect: the pass costs one explicit compile of
    /// the erased program.
    pub symbolic_node_budget: Option<usize>,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            decl: true,
            view: true,
            dataflow: true,
            symbolic: true,
            symbolic_node_budget: None,
        }
    }
}

impl LintOptions {
    /// The cheap subset: declaration and view checks only.
    pub fn fast() -> Self {
        LintOptions::up_to(Depth::View)
    }

    /// Every pass at `depth` or shallower.
    pub fn up_to(depth: Depth) -> Self {
        LintOptions {
            decl: true,
            view: depth >= Depth::View,
            dataflow: depth >= Depth::Dataflow,
            symbolic: depth >= Depth::Symbolic,
            symbolic_node_budget: None,
        }
    }
}

/// The result of linting one program.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// The program's name.
    pub program: String,
    /// All findings, in pass order (decl, view, dataflow, symbolic).
    pub diagnostics: Vec<Diagnostic>,
    /// Whether the dataflow pass ran (skipped when the shallower passes
    /// report errors, or when disabled).
    pub dataflow_ran: bool,
    /// Whether the symbolic pass's `KPT007`/`KPT008` checks ran (they are
    /// skipped when the declaration pass already found errors or the
    /// erased program does not compile).
    pub symbolic_ran: bool,
}

impl LintReport {
    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    /// The distinct codes present, sorted.
    pub fn codes(&self) -> Vec<DiagnosticCode> {
        let set: BTreeSet<DiagnosticCode> = self.diagnostics.iter().map(|d| d.code).collect();
        set.into_iter().collect()
    }

    /// Whether some finding carries `code`.
    pub fn has(&self, code: DiagnosticCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Machine-readable JSON (one object; `kpt_lint --json` emits an array
    /// of these). Self-contained — no external serializer.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"program\":");
        json_string(&mut out, &self.program);
        out.push_str(",\"clean\":");
        out.push_str(if self.is_clean() { "true" } else { "false" });
        out.push_str(",\"dataflow_ran\":");
        out.push_str(if self.dataflow_ran { "true" } else { "false" });
        out.push_str(",\"symbolic_ran\":");
        out.push_str(if self.symbolic_ran { "true" } else { "false" });
        out.push_str(",\"diagnostics\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":");
            json_string(&mut out, d.code.code());
            out.push_str(",\"severity\":");
            json_string(&mut out, &d.severity().to_string());
            out.push_str(",\"statement\":");
            match &d.statement {
                Some(s) => json_string(&mut out, s),
                None => out.push_str("null"),
            }
            out.push_str(",\"span\":");
            match d.span {
                Some(s) => {
                    out.push_str(&format!("{{\"start\":{},\"len\":{}}}", s.start, s.len));
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"message\":");
            json_string(&mut out, &d.message);
            out.push_str(",\"paper_ref\":");
            json_string(&mut out, d.code.paper_ref());
            out.push_str(",\"witnesses\":[");
            for (j, w) in d.witnesses.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json_string(&mut out, &w.to_string());
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Render every finding as a caret diagnostic against the `.kpt`
    /// source it was produced from (via [`lint_source`] — findings without
    /// a span fall back to their plain [`Display`](fmt::Display) form).
    pub fn render_source(&self, src: &str) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            if !out.is_empty() {
                out.push('\n');
            }
            match d.span {
                Some(s) => {
                    let header = match &d.statement {
                        Some(name) => {
                            format!(
                                "{} [{}] statement `{name}`: {}",
                                d.severity(),
                                d.code,
                                d.message
                            )
                        }
                        None => format!("{} [{}]: {}", d.severity(), d.code, d.message),
                    };
                    out.push_str(&kpt_logic::render_span(src, s.start, s.len, &header));
                }
                None => out.push_str(&d.to_string()),
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lint {}: {} finding(s) ({} error(s), {} warning(s)){}",
            self.program,
            self.diagnostics.len(),
            self.error_count(),
            self.warning_count(),
            if self.symbolic_ran {
                ""
            } else {
                " [symbolic pass skipped]"
            }
        )?;
        for d in &self.diagnostics {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

/// Append a JSON string literal (with escaping) to `out`.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Lint a program with the default options (all passes).
pub fn lint_program(program: &Program) -> LintReport {
    lint_program_with(program, &LintOptions::default())
}

/// Lint a program.
///
/// The declaration and view passes are purely syntactic. The dataflow pass
/// runs BDD-free abstract interpretation; the symbolic pass computes the
/// explicit strongest invariant of the knowledge-erased
/// over-approximation. Both deeper passes are skipped (with `dataflow_ran` /
/// `symbolic_ran` false) when the earlier passes report errors — the
/// erased program would not compile — or when disabled in `options`.
pub fn lint_program_with(program: &Program, options: &LintOptions) -> LintReport {
    let mut span = kpt_obs::span("lint.program");
    kpt_obs::counter!("lint.runs").incr();
    let mut diagnostics = Vec::new();
    if options.decl {
        let _pass = kpt_obs::span("lint.pass.decl");
        decl::check(program, &mut diagnostics);
    }
    if options.view {
        let _pass = kpt_obs::span("lint.pass.view");
        view::check(program, &mut diagnostics);
    }
    let errors_so_far = diagnostics
        .iter()
        .any(|d: &Diagnostic| d.severity() == Severity::Error);
    let dataflow_ran = options.dataflow && !errors_so_far;
    if dataflow_ran {
        let _pass = kpt_obs::span("lint.pass.dataflow");
        dataflow::check(program, &mut diagnostics);
    }
    let mut symbolic_ran = options.symbolic && !errors_so_far;
    if symbolic_ran {
        let _pass = kpt_obs::span("lint.pass.symbolic");
        symbolic_ran = symbolic::check(program, &mut diagnostics);
    }
    kpt_obs::counter!("lint.findings").add(diagnostics.len() as u64);
    span.field("program", program.name())
        .field("findings", diagnostics.len() as u64);
    LintReport {
        program: program.name().to_owned(),
        diagnostics,
        dataflow_ran,
        symbolic_ran,
    }
}

/// Lint a knowledge-based protocol (its underlying program).
pub fn lint_kbp(kbp: &Kbp) -> LintReport {
    lint_program(kbp.program())
}

/// Parse a textual `.kpt` source and lint the elaborated program — the
/// entry point shared by the `kpt_lint` CLI's file mode and the fuzz
/// campaign's lint leg. Parse/elaboration failures come back as a spanned
/// [`kpt_unity::UnityError`] (render caret diagnostics against the source
/// with [`kpt_unity::UnityError::render`]); a program that elaborates is
/// linted with [`lint_program_mapped`].
///
/// # Errors
/// The frontend's [`kpt_unity::UnityError`] on malformed sources.
pub fn lint_source(src: &str, options: &LintOptions) -> Result<LintReport, kpt_unity::UnityError> {
    let (_, program, map) = kpt_unity::parse_program_mapped(src)?;
    Ok(lint_program_mapped(&program, &map, options))
}

/// Lint a program elaborated from `.kpt` text — [`lint_source`] after
/// parsing. Runs [`lint_program_with`], then resolves every diagnostic's
/// [`Anchor`] to a byte span through `map`, ready for
/// [`LintReport::render_source`]. kpt-server calls it on the program and
/// map its session arena already holds.
pub fn lint_program_mapped(
    program: &Program,
    map: &SourceMap,
    options: &LintOptions,
) -> LintReport {
    let mut report = lint_program_with(program, options);
    resolve_spans(&mut report, map);
    report
}

/// Resolve every diagnostic's [`Anchor`] against the source map. Anchors
/// that point at a construct the statement does not have (a guard-anchored
/// finding on a guardless statement, say) degrade to the statement span;
/// statement-less findings degrade to the program header.
fn resolve_spans(report: &mut LintReport, map: &SourceMap) {
    for d in &mut report.diagnostics {
        d.span = match (&d.statement, d.anchor) {
            (_, Anchor::Init) => map.init.or(Some(map.program_name)),
            (Some(name), anchor) => map.statement(name).map(|s| match anchor {
                Anchor::Guard => s.guard.unwrap_or(s.span),
                Anchor::Assign(i) => s.assigns.get(i).copied().unwrap_or(s.span),
                _ => s.span,
            }),
            (None, _) => Some(map.program_name),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kpt_state::StateSpace;
    use kpt_unity::Statement;

    #[test]
    fn clean_program_yields_empty_report_and_valid_json() {
        let space = StateSpace::builder()
            .bool_var("x")
            .unwrap()
            .build()
            .unwrap();
        let program = Program::builder("clean", &space)
            .init_str("~x")
            .unwrap()
            .statement(
                Statement::new("set")
                    .guard_str("~x")
                    .unwrap()
                    .assign_str("x", "1")
                    .unwrap(),
            )
            .build()
            .unwrap();
        let report = lint_program(&program);
        assert!(report.is_clean(), "unexpected findings: {report}");
        assert!(report.dataflow_ran);
        assert!(report.symbolic_ran);
        let json = report.to_json();
        let v = kpt_obs::parse_json(&json).expect("report JSON parses");
        assert_eq!(
            v.get("program").and_then(kpt_obs::JsonValue::as_str),
            Some("clean")
        );
        assert_eq!(
            v.get("clean").and_then(kpt_obs::JsonValue::as_bool),
            Some(true)
        );
    }

    #[test]
    fn json_escapes_special_characters() {
        let mut out = String::new();
        json_string(&mut out, "a\"b\\c\nd");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn codes_are_stable_and_ordered() {
        use DiagnosticCode::*;
        let all = [
            UnknownIdentifier,
            UpdateOutOfRange,
            ShadowedName,
            EmptyInit,
            ViewViolation,
            UnknownProcess,
            DeadGuard,
            WriteRace,
            KnowledgeCircularity,
            IntervalDeadGuard,
            KnowledgeDependencyCycle,
            UnimplementableKnowledge,
        ];
        let codes: Vec<&str> = all.iter().map(|c| c.code()).collect();
        assert_eq!(
            codes,
            [
                "KPT001", "KPT002", "KPT003", "KPT004", "KPT005", "KPT006", "KPT007", "KPT008",
                "KPT009", "KPT010", "KPT011", "KPT012"
            ]
        );
        for c in all {
            assert!(!c.paper_ref().is_empty());
        }
    }

    #[test]
    fn every_code_maps_to_the_pass_that_produces_it() {
        use DiagnosticCode::*;
        assert_eq!(UnknownIdentifier.depth(), Depth::Decl);
        assert_eq!(EmptyInit.depth(), Depth::Decl);
        assert_eq!(ViewViolation.depth(), Depth::View);
        assert_eq!(IntervalDeadGuard.depth(), Depth::Dataflow);
        assert_eq!(KnowledgeDependencyCycle.depth(), Depth::Dataflow);
        assert_eq!(UnimplementableKnowledge.depth(), Depth::Dataflow);
        assert_eq!(DeadGuard.depth(), Depth::Symbolic);
        assert_eq!(KnowledgeCircularity.depth(), Depth::Symbolic);
        assert!(Depth::Decl < Depth::View);
        assert!(Depth::View < Depth::Dataflow);
        assert!(Depth::Dataflow < Depth::Symbolic);
        assert_eq!("dataflow".parse::<Depth>().unwrap(), Depth::Dataflow);
        assert_eq!("full".parse::<Depth>().unwrap(), Depth::Symbolic);
    }
}
