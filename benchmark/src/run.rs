//! Workload execution: set-up, the untimed warm-up round, the closed
//! loop, and the three paths an op takes into the program — direct
//! library calls, a JSONL request to a `kpt_server::Server` over TCP
//! loopback, or that request replayed in process through the layer calls
//! the server makes.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kpt_bdd::{SymbolicKbp, SymbolicOutcome};
use kpt_core::{IterativeOutcome, Kbp};
use kpt_lint::{Depth, LintOptions};
use kpt_logic::KnowledgeFn;
use kpt_obs::{JsonValue, SpanRecord};
use kpt_server::{Engine, Model, RequestKind, Server, ServerConfig, Sessions};
use kpt_state::Predicate;
use kpt_unity::{Program, Property};

use crate::deck::{warm_up_round, Card, Kind, Op, OpStream, Workload};
use crate::golden::{lookup, Golden, Outcome, Verdict, GOLDEN};
use crate::host::{self, Cost, Probes, Stopwatch};
use crate::trace::{Counters, Tracer, OP};

/// The eq.-(25) iteration cap; also the server's default.
const MAX_ITERATIONS: usize = 64;
/// How long a wire client waits for an answer before the op fails.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// The closed loop stops here even short of its minimum sample count,
/// so a run always ends well inside three minutes.
const MAX_LOOP: Duration = Duration::from_secs(120);

/// Why an op produced no verdict.
#[derive(Debug)]
pub enum Failure {
    /// This op failed (an error frame, a library error); the client goes on.
    Op(String),
    /// The client cannot go on (the connection broke).
    Fatal(String),
}

fn op_err(e: impl std::fmt::Display) -> Failure {
    Failure::Op(e.to_string())
}

fn fatal(e: impl std::fmt::Display) -> Failure {
    Failure::Fatal(e.to_string())
}

/// One closed-loop client.
pub trait Client: Send {
    /// Untimed preparation for `op`.
    fn prepare(&mut self, _op: &Op) {}
    /// The timed op.
    fn run(&mut self, op: &Op, t: &mut Tracer) -> Result<Verdict, Failure>;
}

// ---------------------------------------------------------------------
// Layer calls shared by the library and replay paths
// ---------------------------------------------------------------------

fn elaborate(source: &str, t: &mut Tracer) -> Result<Program, Failure> {
    t.span("kpt_unity.elaborate", |_| {
        kpt_unity::parse_program_mapped(source)
    })
    .map(|(_, program, _)| program)
    .map_err(|e| Failure::Op(e.render(source)))
}

const DEPTHS: [(&str, Depth); 4] = [
    ("kpt_lint.decl", Depth::Decl),
    ("kpt_lint.view", Depth::View),
    ("kpt_lint.dataflow", Depth::Dataflow),
    ("kpt_lint.symbolic", Depth::Symbolic),
];

/// Full-depth lint codes, sorted. A detailed op makes one call per depth
/// so each depth gets its own span.
fn lint_codes(program: &Program, t: &mut Tracer) -> Vec<String> {
    let reports = if t.detailed {
        DEPTHS
            .iter()
            .map(|&(kind, depth)| {
                let only = LintOptions {
                    decl: depth == Depth::Decl,
                    view: depth == Depth::View,
                    dataflow: depth == Depth::Dataflow,
                    symbolic: depth == Depth::Symbolic,
                    symbolic_node_budget: None,
                };
                t.span(kind, |_| kpt_lint::lint_program_with(program, &only))
            })
            .collect()
    } else {
        vec![kpt_lint::lint_program_with(
            program,
            &LintOptions::default(),
        )]
    };
    let mut codes: Vec<String> = reports
        .iter()
        .flat_map(|r| r.codes())
        .map(|c| c.code().to_owned())
        .collect();
    codes.sort();
    codes.dedup();
    codes
}

fn iterations(o: &Outcome) -> u64 {
    match *o {
        Outcome::Converged { iterations, .. } | Outcome::Inconclusive { iterations } => {
            iterations as u64
        }
        Outcome::Cycle {
            period,
            entered_after,
        } => (period + entered_after) as u64,
    }
}

/// `Kbp::solve_iterative`, with the solution when it converged.
fn solve_explicit(kbp: &Kbp, t: &mut Tracer) -> Result<(Outcome, Option<Predicate>), Failure> {
    let before = kbp.cache_stats();
    let out = t
        .span("kpt_core.solve", |_| kbp.solve_iterative(MAX_ITERATIONS))
        .map_err(op_err)?;
    let after = kbp.cache_stats();
    let (outcome, solution) = match out {
        IterativeOutcome::Converged {
            solution,
            iterations,
        } => (
            Outcome::Converged {
                iterations,
                states: solution.count(),
            },
            Some(solution),
        ),
        IterativeOutcome::Cycle {
            period,
            entered_after,
        } => (
            Outcome::Cycle {
                period,
                entered_after,
            },
            None,
        ),
        IterativeOutcome::Inconclusive { iterations } => {
            (Outcome::Inconclusive { iterations }, None)
        }
    };
    t.count(|c| {
        c.solve_iterations += iterations(&outcome);
        c.si_hits += after.hits - before.hits;
        c.si_misses += after.misses - before.misses;
    });
    Ok((outcome, solution))
}

/// `SymbolicKbp::solve_iterative`.
fn solve_symbolic(skbp: &SymbolicKbp, t: &mut Tracer) -> Result<Outcome, Failure> {
    let gc_before = skbp.space().gc_stats().runs;
    let out = t
        .span("kpt_bdd.solve", |_| skbp.solve_iterative(MAX_ITERATIONS))
        .map_err(op_err)?;
    let space = skbp.space();
    let (peak, gc_runs) = (
        space.peak_node_count() as u64,
        space.gc_stats().runs - gc_before,
    );
    t.count(|c| {
        c.bdd_peak_nodes = c.bdd_peak_nodes.max(peak);
        c.bdd_gc_runs += gc_runs;
    });
    Ok(match out {
        SymbolicOutcome::Converged {
            solution,
            iterations,
        } => Outcome::Converged {
            iterations,
            states: solution.count(),
        },
        SymbolicOutcome::Cycle {
            period,
            entered_after,
        } => Outcome::Cycle {
            period,
            entered_after,
        },
        SymbolicOutcome::Inconclusive { iterations } => Outcome::Inconclusive { iterations },
    })
}

// ---------------------------------------------------------------------
// Library path
// ---------------------------------------------------------------------

/// Direct library calls. `solve_large` solves programs elaborated during
/// set-up; `edit_check` elaborates inside the op.
struct Library {
    programs: Vec<(&'static str, Program)>,
    kbp: Option<Kbp>,
}

impl Library {
    fn new(w: Workload) -> Result<Library, String> {
        let mut programs: Vec<(&'static str, Program)> = Vec::new();
        if w == Workload::SolveLarge {
            for card in w.deck() {
                let m = card.model;
                if programs.iter().all(|(name, _)| *name != m.name) {
                    let (_, program) =
                        kpt_unity::parse_program(m.source).map_err(|e| e.render(m.source))?;
                    programs.push((m.name, program));
                }
            }
        }
        Ok(Library {
            programs,
            kbp: None,
        })
    }

    fn program(&self, name: &str) -> Result<&Program, Failure> {
        self.programs
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, p)| p)
            .ok_or_else(|| Failure::Fatal(format!("{name} was not elaborated in set-up")))
    }
}

impl Client for Library {
    fn prepare(&mut self, op: &Op) {
        // The explicit solve runs on a cold `Kbp`, built outside the
        // timed region.
        if op.card.kind == Kind::SolveExplicit {
            self.kbp = self
                .program(op.card.model.name)
                .ok()
                .map(|p| Kbp::new(p.clone()));
        }
    }

    fn run(&mut self, op: &Op, t: &mut Tracer) -> Result<Verdict, Failure> {
        match op.card.kind {
            Kind::Check => {
                let program = elaborate(&op.source, t)?;
                let lint = lint_codes(&program, t);
                let (outcome, _) = solve_explicit(&Kbp::new(program), t)?;
                Ok(Verdict::Checked { lint, outcome })
            }
            Kind::SolveExplicit => {
                let kbp = self.kbp.take().ok_or_else(|| {
                    Failure::Fatal(format!(
                        "{} was not elaborated in set-up",
                        op.card.model.name
                    ))
                })?;
                Ok(Verdict::Solved(solve_explicit(&kbp, t)?.0))
            }
            Kind::SolveSymbolic => {
                let program = self.program(op.card.model.name)?;
                let skbp = t
                    .span("kpt_bdd.translate", |_| SymbolicKbp::from_program(program))
                    .map_err(op_err)?;
                Ok(Verdict::Solved(solve_symbolic(&skbp, t)?))
            }
            other => Err(Failure::Fatal(format!("{other:?} is not a library op"))),
        }
    }
}

// ---------------------------------------------------------------------
// Wire path
// ---------------------------------------------------------------------

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    kpt_obs::json_escape_into(s, &mut out);
    out
}

/// The JSONL request frame for `op` (no trailing newline).
///
/// # Panics
/// On a `check` op, which has no request form.
pub fn request_frame(op: &Op, id: u64) -> String {
    let (kind, extra) = match op.card.kind {
        Kind::Parse => ("parse", String::new()),
        Kind::Lint => ("lint", String::new()),
        Kind::SolveExplicit => ("solve", ",\"engine\":\"explicit\"".to_owned()),
        Kind::SolveSymbolic => ("solve", ",\"engine\":\"symbolic\"".to_owned()),
        Kind::Verify => {
            let (invariant, _) = lookup(GOLDEN, op.card.model.name).invariant();
            (
                "verify",
                format!(",\"invariant\":\"{}\"", json_str(invariant)),
            )
        }
        Kind::Explain => ("explain", String::new()),
        Kind::Check => panic!("check ops have no request frame"),
    };
    format!(
        "{{\"id\":{id},\"type\":\"{kind}\",\"source\":\"{}\"{extra}}}",
        json_str(&op.source)
    )
}

/// Read the verdict off a `result` frame.
fn wire_verdict(kind: Kind, v: &JsonValue) -> Option<Verdict> {
    let num = |k: &str| v.get(k).and_then(JsonValue::as_u64);
    let flag = |k: &str| v.get(k).and_then(JsonValue::as_bool);
    Some(match kind {
        Kind::Parse => Verdict::Parsed {
            states: num("states")?,
        },
        Kind::Lint => {
            let diagnostics = v.get("report")?.get("diagnostics")?.as_array()?;
            let mut codes = diagnostics
                .iter()
                .map(|d| d.get("code").and_then(JsonValue::as_str).map(str::to_owned))
                .collect::<Option<Vec<String>>>()?;
            codes.sort();
            codes.dedup();
            Verdict::Linted(codes)
        }
        Kind::SolveExplicit | Kind::SolveSymbolic => {
            Verdict::Solved(match v.get("outcome")?.as_str()? {
                "converged" => Outcome::Converged {
                    iterations: num("iterations")? as usize,
                    states: num("solution_states")?,
                },
                "cycle" => Outcome::Cycle {
                    period: num("period")? as usize,
                    entered_after: num("entered_after")? as usize,
                },
                "inconclusive" => Outcome::Inconclusive {
                    iterations: num("iterations")? as usize,
                },
                _ => return None,
            })
        }
        Kind::Verify => Verdict::Verified(flag("holds_all")?),
        Kind::Explain => Verdict::Explained(flag("holds")?),
        Kind::Check => return None,
    })
}

/// One TCP connection, one request in flight at a time.
struct Wire {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Wire {
    fn connect(server: &Server) -> Result<Wire, String> {
        let stream = TcpStream::connect(server.local_addr()).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| e.to_string())?;
        Ok(Wire {
            writer: stream.try_clone().map_err(|e| e.to_string())?,
            reader: BufReader::new(stream),
            next_id: 0,
        })
    }
}

impl Client for Wire {
    fn run(&mut self, op: &Op, _t: &mut Tracer) -> Result<Verdict, Failure> {
        self.next_id += 1;
        let id = self.next_id;
        let mut frame = request_frame(op, id);
        frame.push('\n');
        self.writer.write_all(frame.as_bytes()).map_err(fatal)?;
        let mut line = String::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line).map_err(fatal)? == 0 {
                return Err(Failure::Fatal("server closed the connection".into()));
            }
            let v = kpt_obs::parse_json(line.trim_end()).map_err(fatal)?;
            if v.get("id").and_then(JsonValue::as_u64) != Some(id) {
                return Err(Failure::Fatal(format!("frame for another request: {line}")));
            }
            let field = |k: &str| v.get(k).and_then(JsonValue::as_str).unwrap_or("");
            match field("type") {
                "progress" => continue,
                "error" => {
                    return Err(Failure::Op(format!(
                        "{}: {}",
                        field("code"),
                        field("message")
                    )))
                }
                _ => {
                    return wire_verdict(op.card.kind, &v)
                        .ok_or_else(|| Failure::Op(format!("malformed result: {}", line.trim())))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Replay path
// ---------------------------------------------------------------------

/// A server request replayed in process: the server's decode, arena and
/// per-kind layer calls, each in its own span, without the transport.
///
/// This approximates the server's request path for per-layer
/// attribution only. It leaves out work the server also does (progress
/// events, lint span resolution, explain witnesses, result frames), so
/// transport is measured on the wire run instead, against the server's
/// own request timing.
struct Replay {
    sessions: Arc<Sessions>,
    max_frame_bytes: usize,
    next_id: u64,
}

impl Replay {
    fn load(&self, source: &str, t: &mut Tracer) -> Result<Arc<Model>, Failure> {
        let misses = self.sessions.misses();
        let model = t
            .span("kpt_server.arena", |_| self.sessions.get_or_load(source))
            .map_err(|e| Failure::Op(e.render(source)))?;
        // With several replay clients another client's miss can land in
        // this window; the deck that runs several clients only hits.
        if self.sessions.misses() > misses {
            t.relabel_last("kpt_server.arena.load");
        }
        Ok(model)
    }
}

/// The server's explicit solve: reuse a converged solution cached on the
/// model, else solve and cache it.
fn solve_cached(model: &Model, t: &mut Tracer) -> Result<(Outcome, Option<Predicate>), Failure> {
    if let Some((solution, iterations)) = model.cached_solution(MAX_ITERATIONS) {
        let states = solution.count();
        return Ok((Outcome::Converged { iterations, states }, Some(solution)));
    }
    let (outcome, solution) = solve_explicit(model.kbp(), t)?;
    if let (Some(s), Outcome::Converged { iterations, .. }) = (&solution, outcome) {
        model.store_solution(s, iterations);
    }
    Ok((outcome, solution))
}

/// The server's `verify`: the invariant, with knowledge read against the
/// solution's SI, checked on the program compiled at the solution.
fn verify(model: &Model, solution: &Predicate, text: &str) -> Result<bool, String> {
    let compiled = model
        .kbp()
        .compile_at(solution)
        .map_err(|e| e.to_string())?;
    let kctx = kpt_core::KnowledgeContext::for_program(&compiled);
    let kf = |process: &str, p: &Predicate| kctx.knows(process, p);
    let formula = kpt_logic::parse_formula(text).map_err(|e| e.to_string())?;
    let p = kpt_logic::EvalContext::new(model.space())
        .with_knowledge(&kf as &KnowledgeFn)
        .eval(&formula)
        .map_err(|e| e.to_string())?;
    Ok(kpt_unity::explain_property(&compiled, text, &Property::Invariant(p)).holds)
}

impl Client for Replay {
    fn run(&mut self, op: &Op, t: &mut Tracer) -> Result<Verdict, Failure> {
        self.next_id += 1;
        let frame = request_frame(op, self.next_id);
        let req = t
            .span("kpt_server.decode", |_| {
                kpt_server::parse_request(&frame, self.max_frame_bytes)
            })
            .map_err(|e| Failure::Op(e.message))?;
        let source = req.source.as_deref().unwrap_or_default();
        match req.kind {
            // The server lints the source directly, not through the arena.
            RequestKind::Lint => Ok(Verdict::Linted(lint_codes(&elaborate(source, t)?, t))),
            RequestKind::Parse => Ok(Verdict::Parsed {
                states: self.load(source, t)?.space().num_states(),
            }),
            RequestKind::Solve if req.engine == Engine::Symbolic => {
                let model = self.load(source, t)?;
                let skbp = t
                    .span("kpt_bdd.translate", |_| model.symbolic())
                    .map_err(op_err)?;
                Ok(Verdict::Solved(solve_symbolic(&skbp, t)?))
            }
            RequestKind::Solve => {
                let model = self.load(source, t)?;
                Ok(Verdict::Solved(solve_cached(&model, t)?.0))
            }
            RequestKind::Verify => {
                let model = self.load(source, t)?;
                let solution = solve_cached(&model, t)?
                    .1
                    .ok_or_else(|| Failure::Op("unsolved: no eq. (25) solution".into()))?;
                let text = req.invariant.as_deref().unwrap_or_default();
                let holds = t
                    .span("kpt_unity.verify", |_| verify(&model, &solution, text))
                    .map_err(Failure::Op)?;
                Ok(Verdict::Verified(holds))
            }
            RequestKind::Explain => {
                let model = self.load(source, t)?;
                let (outcome, _) = solve_cached(&model, t)?;
                Ok(Verdict::Explained(matches!(
                    outcome,
                    Outcome::Converged { .. }
                )))
            }
            other => Err(Failure::Fatal(format!("{other:?} is not a deck request"))),
        }
    }
}

// ---------------------------------------------------------------------
// Set-up and the closed loop
// ---------------------------------------------------------------------

/// How ops reach the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Library,
    Wire,
    Replay,
}

impl Path {
    /// The path a workload's untraced run takes.
    pub fn of(w: Workload) -> Path {
        if w.over_wire() {
            Path::Wire
        } else {
            Path::Library
        }
    }
}

/// Everything set-up builds: the clients, and the server or arena behind
/// them.
pub struct Env {
    // Declared first so connections close before the server drains.
    clients: Vec<Box<dyn Client>>,
    sessions: Option<Arc<Sessions>>,
    _server: Option<Server>,
}

impl Env {
    fn new(w: Workload, path: Path) -> Result<Env, String> {
        let n = w.clients();
        let config = ServerConfig::default();
        let mut env = Env {
            clients: Vec::with_capacity(n),
            sessions: None,
            _server: None,
        };
        match path {
            Path::Library => {
                for _ in 0..n {
                    env.clients.push(Box::new(Library::new(w)?));
                }
            }
            Path::Wire => {
                let server =
                    Server::bind("127.0.0.1:0", config).map_err(|e| format!("server bind: {e}"))?;
                for _ in 0..n {
                    env.clients.push(Box::new(Wire::connect(&server)?));
                }
                env._server = Some(server);
            }
            Path::Replay => {
                let sessions = Arc::new(Sessions::new(config.sessions));
                for _ in 0..n {
                    env.clients.push(Box::new(Replay {
                        sessions: Arc::clone(&sessions),
                        max_frame_bytes: config.max_frame_bytes,
                        next_id: 0,
                    }));
                }
                env.sessions = Some(sessions);
            }
        }
        Ok(env)
    }

    /// Each client's untimed warm-up round. Returns verdict mismatches;
    /// an op that fails fails the set-up.
    fn warm_up(&mut self, w: Workload, golden: &[Golden]) -> Result<Vec<String>, String> {
        let mut tally = Tally::default();
        let mut t = Tracer::new(0, false);
        for (i, client) in self.clients.iter_mut().enumerate() {
            for op in warm_up_round(w, i) {
                run_op(
                    client.as_mut(),
                    &op,
                    &mut t,
                    golden,
                    &mut tally,
                    At::default(),
                );
            }
        }
        match tally.errors.first() {
            Some(e) => Err(format!("warm-up op failed: {e}")),
            None => Ok(tally.wrong),
        }
    }
}

/// How often a run sets up: at least `min` times, and again while the
/// set-ups add up to less than `seconds`, so cheap set-ups are timed often
/// enough for a steady median.
#[derive(Debug, Clone, Copy)]
pub struct Setups {
    pub min: usize,
    pub seconds: f64,
}

impl Setups {
    pub const ONCE: Setups = Setups {
        min: 1,
        seconds: 0.0,
    };
}

/// Upper bound on set-ups per run, whatever `Setups::seconds` asks.
const MAX_SETUPS: usize = 100;

/// The set-up times of one run.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// Each set-up with its warm-up round, in order.
    pub each: Vec<Cost>,
    /// From process start to the end of the first set-up. Only this one
    /// carries the process's one-time costs (lazy statics, first-touch
    /// pages, cold code), which the median of `each` hides.
    pub first_from_start_s: f64,
}

/// Build the environment from scratch, with its warm-up round, as often
/// as `setups` says, and keep the last. Returns it with the set-up times
/// and any verdict mismatches seen while warming up.
fn set_up(
    w: Workload,
    path: Path,
    golden: &[Golden],
    setups: Setups,
) -> Result<(Env, SetupTimes, Vec<String>), String> {
    let mut env = None;
    let mut times = SetupTimes::default();
    let mut wrong = Vec::new();
    let mut probes = Probes::new(w.reference());
    let seconds = |t: &SetupTimes| t.each.iter().map(|c| c.wall_us / 1e6).sum::<f64>();
    while times.each.len() < setups.min.max(1)
        || (seconds(&times) < setups.seconds && times.each.len() < MAX_SETUPS)
    {
        drop(env.take());
        let k = probes.latest();
        let start = Stopwatch::start();
        let mut e = Env::new(w, path)?;
        wrong.extend(e.warm_up(w, golden)?);
        let mut cost = start.cost();
        probes.take();
        cost.slowdown = probes.slowdown_after(k);
        times.each.push(cost);
        if times.each.len() == 1 {
            times.first_from_start_s = crate::process_start().elapsed().as_secs_f64();
        }
        env = Some(e);
    }
    Ok((env.expect("at least one set-up"), times, wrong))
}

/// Where in a closed loop an op ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct At {
    pub client: usize,
    pub round: u64,
    /// The client's latest reference timing before the op.
    pub probe: usize,
}

/// One timed op.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub card: Card,
    pub cost: Cost,
    pub at: At,
    /// Whether the op ran in a recording round.
    pub traced: bool,
}

/// What a closed loop (or several merged) observed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failure messages, for the log.
    pub errors: Vec<String>,
    /// Verdict mismatches: any makes the run invalid.
    pub wrong: Vec<String>,
    pub samples: Vec<Sample>,
    pub records: Vec<SpanRecord>,
    pub counters: Counters,
    /// Arena `(hits, misses, evictions)` during the loop (replay only).
    pub arena: Option<(u64, u64, u64)>,
    /// The server's own time per latency class during the loop (wire
    /// only): `(requests, µs)`, read off its `server.latency.<kind>`
    /// histograms, which time a request from pick-up to answer sent.
    pub server: Option<BTreeMap<&'static str, (u64, u64)>>,
    /// Every client's reference timings, ms.
    pub ref_ms: Vec<f64>,
    /// CPU seconds the hypervisor gave to others while this machine's
    /// CPUs wanted to run, over the loop (`steal` in `/proc/stat`).
    pub steal_s: Option<f64>,
    pub wall: Duration,
}

impl Tally {
    pub fn merge(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors);
        self.wrong.extend(o.wrong);
        self.samples.extend(o.samples);
        self.records.extend(o.records);
        self.counters.merge(&o.counters);
        self.arena = self.arena.or(o.arena);
        self.server = self.server.take().or(o.server);
        self.ref_ms.extend(o.ref_ms);
        self.steal_s = self.steal_s.or(o.steal_s);
        self.wall = self.wall.max(o.wall);
    }
}

/// The server's `server.latency.<kind>` histograms, by latency class.
const SERVER_LATENCY: [(&str, &str); 5] = [
    ("server.latency.parse", "parse"),
    ("server.latency.lint", "lint"),
    ("server.latency.solve", "solve"),
    ("server.latency.verify", "solve"),
    ("server.latency.explain", "explain"),
];

/// `(requests, µs)` recorded so far in this process, per latency class.
fn server_time() -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (name, class) in SERVER_LATENCY {
        let s = kpt_obs::histogram(name).snapshot();
        let e = out.entry(class).or_default();
        *e = (e.0 + s.count, e.1 + s.sum);
    }
    out
}

/// Run one op, time it, check its verdict. Returns false when the client
/// cannot go on.
fn run_op(
    client: &mut dyn Client,
    op: &Op,
    t: &mut Tracer,
    golden: &[Golden],
    tally: &mut Tally,
    at: At,
) -> bool {
    client.prepare(op);
    tally.attempted += 1;
    let start = Stopwatch::start();
    let result = catch_unwind(AssertUnwindSafe(|| t.span(OP, |t| client.run(op, t))));
    let cost = start.cost();
    let what = format!("{:?} {}", op.card.kind, op.card.model.name);
    let failure = match result {
        Ok(Ok(verdict)) => {
            tally.samples.push(Sample {
                card: op.card,
                cost,
                at,
                traced: t.on,
            });
            let want = lookup(golden, op.card.model.name).expect(op.card.kind);
            if verdict != want {
                tally
                    .wrong
                    .push(format!("{what}: got {verdict:?}, want {want:?}"));
            }
            return true;
        }
        Ok(Err(f)) => f,
        Err(_) => {
            t.reset_stack();
            Failure::Op("panicked".into())
        }
    };
    tally.failed += 1;
    let (msg, go_on) = match failure {
        Failure::Op(m) => (m, true),
        Failure::Fatal(m) => (m, false),
    };
    tally.errors.push(format!("{what}: {msg}"));
    go_on
}

/// How long a closed loop runs.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    /// Keep going past `seconds` until this many ops were attempted, so
    /// the reported percentiles have enough samples beyond them.
    pub min_ops: usize,
}

impl Env {
    /// Every client runs whole seeded rounds until the budget is spent;
    /// `detailed` makes a traced loop, whose rounds alternate between
    /// recording and not.
    fn closed_loop(
        self,
        w: Workload,
        seed: u64,
        golden: &[Golden],
        budget: Budget,
        detailed: bool,
    ) -> Tally {
        let arena = |s: &Sessions| (s.hits(), s.misses(), s.evictions());
        let arena_before = self.sessions.as_deref().map(arena);
        let server_before = self._server.as_ref().map(|_| server_time());
        let steal_before = host::steal_s();
        let start = Instant::now();
        let deadline = Duration::from_secs_f64(budget.seconds);
        let attempted = AtomicUsize::new(0);
        let mut total = Tally::default();
        let Env {
            clients,
            sessions,
            _server,
        } = self;
        std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .enumerate()
                .map(|(i, mut client)| {
                    let attempted = &attempted;
                    scope.spawn(move || {
                        let mut stream = OpStream::new(w, seed, i);
                        let mut t = Tracer::new(i, detailed);
                        let mut tally = Tally::default();
                        let mut probes = Probes::new(w.reference());
                        'rounds: for round in 0u64.. {
                            t.on = detailed && round % 2 == 0;
                            for op in stream.next_round() {
                                probes.take_if_due();
                                let at = At {
                                    client: i,
                                    round,
                                    probe: probes.latest(),
                                };
                                attempted.fetch_add(1, Ordering::Relaxed);
                                let go_on =
                                    run_op(client.as_mut(), &op, &mut t, golden, &mut tally, at);
                                if !go_on {
                                    break 'rounds;
                                }
                            }
                            let elapsed = start.elapsed();
                            let enough = attempted.load(Ordering::Relaxed) >= budget.min_ops;
                            if elapsed >= MAX_LOOP || (elapsed >= deadline && enough) {
                                break;
                            }
                        }
                        probes.take();
                        for s in &mut tally.samples {
                            s.cost.slowdown = probes.slowdown_after(s.at.probe);
                        }
                        tally.ref_ms = probes.ms;
                        tally.records = std::mem::take(&mut t.records);
                        tally.counters = t.counters;
                        tally
                    })
                })
                .collect();
            for h in handles {
                total.merge(h.join().expect("client thread panicked outside an op"));
            }
        });
        total.wall = start.elapsed();
        total.steal_s = steal_before.zip(host::steal_s()).map(|(a, b)| b - a);
        if let (Some(before), Some(s)) = (arena_before, sessions.as_deref()) {
            let after = arena(s);
            total.arena = Some((after.0 - before.0, after.1 - before.1, after.2 - before.2));
        }
        total.server = server_before.map(|before| {
            let mut now = server_time();
            for (class, (n, us)) in &mut now {
                let (n0, us0) = before.get(class).copied().unwrap_or_default();
                *n -= n0;
                *us -= us0;
            }
            now
        });
        total
    }
}

/// Set up `setups` times on `path`, then run the closed loop on the
/// last set-up. Returns the loop's tally, which also carries warm-up
/// verdict mismatches, and the set-up times.
pub fn run(
    w: Workload,
    path: Path,
    seed: u64,
    golden: &[Golden],
    budget: Budget,
    setups: Setups,
    detailed: bool,
) -> Result<(Tally, SetupTimes), String> {
    let (env, times, wrong) = set_up(w, path, golden, setups)?;
    let mut tally = env.closed_loop(w, seed, golden, budget, detailed);
    tally.wrong.splice(0..0, wrong);
    Ok((tally, times))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deck::model;

    fn op(name: &str, kind: Kind) -> Op {
        Op {
            card: crate::deck::Card {
                model: model(name),
                kind,
            },
            source: model(name).source.into(),
        }
    }

    #[test]
    fn replay_and_library_agree_with_the_golden_table() {
        let sessions = Arc::new(Sessions::new(ServerConfig::default().sessions));
        let mut replay = Replay {
            sessions,
            max_frame_bytes: 1 << 20,
            next_id: 0,
        };
        let mut t = Tracer::new(0, true);
        t.on = true;
        let mut tally = Tally::default();
        let deck = Workload::ServeWarm.deck();
        for card in &deck {
            let op = op(card.model.name, card.kind);
            run_op(&mut replay, &op, &mut t, GOLDEN, &mut tally, At::default());
        }
        let mut lib = Library::new(Workload::EditCheck).unwrap();
        run_op(
            &mut lib,
            &op("figure1", Kind::Check),
            &mut t,
            GOLDEN,
            &mut tally,
            At::default(),
        );
        assert_eq!((tally.failed, &tally.wrong), (0, &Vec::<String>::new()));
        assert_eq!(tally.attempted, deck.len() as u64 + 1);
        let kinds: std::collections::BTreeSet<_> =
            t.records.iter().map(|r| r.kind.as_str()).collect();
        for k in [
            "kpt_server.decode",
            "kpt_server.arena.load",
            "kpt_server.arena",
            "kpt_lint.symbolic",
            "kpt_core.solve",
            "kpt_bdd.translate",
            "kpt_unity.verify",
        ] {
            assert!(kinds.contains(k), "no {k} span");
        }
    }
}
