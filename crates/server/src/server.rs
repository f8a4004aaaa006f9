//! The server proper: connection handling, request execution, lifecycle.
//!
//! One thread per connection reads JSON Lines frames; decoded requests
//! are executed on a shared [`TaskPool`] whose bounded injector queue is
//! the backpressure boundary (a full queue answers [`codes::BUSY`]
//! instead of buffering unboundedly). `cancel` and `shutdown` are handled
//! *inline* on the reader thread so they work even when every worker is
//! occupied — which is exactly when they matter.
//!
//! ## Progress streaming
//!
//! A worker runs each request inside a [`kpt_obs::progress_scope`] whose
//! sink writes every [`kpt_obs::progress`] call made on that thread — the
//! server's per-iteration `server.solve.progress`, and the library's
//! `fixpoint.frontier.progress`/`bdd.fixpoint.progress` rounds — to the
//! request's connection as a `progress` frame keyed by the request id.
//! The scope ends with the request. It does not turn tracing on: a server
//! traces only when `KPT_TRACE`, `KPT_PROFILE` or a `trace_to_*` call asks
//! for it.
//!
//! ## Shutdown
//!
//! A `shutdown` request (or [`Server::shutdown`]) flips the drain flag:
//! new connections stop being accepted, new requests are refused with
//! [`codes::SHUTTING_DOWN`], queued and in-flight requests run to
//! completion and their terminal frames are flushed, then connections are
//! closed. Nothing already accepted is dropped.

use std::collections::HashMap;
use std::hash::Hash;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use kpt_bdd::BddError;
use kpt_core::{CoreError, IterativeOutcome};
use kpt_logic::KnowledgeFn;
use kpt_obs::Verdict;
use kpt_state::{Predicate, PredicateOps};
use kpt_testkit::pool::{num_threads, TaskPool};
use kpt_transformers::iterate_to_fixpoint;
use kpt_unity::{explain_property, Property, UnityError};

use crate::proto::{codes, parse_request, verdict_json, Engine, Frame, Request, RequestKind};
use crate::session::{Model, SessionConfig, Sessions, Solved};

/// Server-wide tunables.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded injector queue; a full queue refuses with `busy`.
    pub queue_capacity: usize,
    /// Session arena bounds.
    pub sessions: SessionConfig,
    /// Deadline applied when a request names none.
    pub default_timeout_ms: u64,
    /// Eq. (25) iteration cap when a request names none.
    pub default_max_iterations: usize,
    /// Maximum accepted frame size in bytes.
    pub max_frame_bytes: usize,
    /// Largest state space the explicit engine will enumerate.
    pub max_explicit_states: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: num_threads(),
            queue_capacity: 1024,
            sessions: SessionConfig::default(),
            default_timeout_ms: 30_000,
            default_max_iterations: 64,
            max_frame_bytes: 1 << 20,
            max_explicit_states: 1 << 24,
        }
    }
}

/// Serialized frame sink shared by a connection's reader thread and its
/// in-flight workers (terminal and progress frames alike).
struct FrameWriter {
    w: Mutex<Box<dyn Write + Send>>,
}

impl FrameWriter {
    fn new(w: Box<dyn Write + Send>) -> FrameWriter {
        FrameWriter { w: Mutex::new(w) }
    }

    /// Write `frame` plus newline as one `write_all`, then flush. Errors
    /// are returned but generally ignored — a client that hung up simply
    /// stops receiving frames.
    fn send(&self, frame: &str) -> io::Result<()> {
        let mut line = String::with_capacity(frame.len() + 1);
        line.push_str(frame);
        line.push('\n');
        let mut w = self.w.lock().expect("writer lock poisoned");
        w.write_all(line.as_bytes())?;
        w.flush()
    }
}

/// One client connection: its writer and the cancel flags of its
/// in-flight requests.
struct Conn {
    writer: Arc<FrameWriter>,
    cancels: Mutex<HashMap<u64, Arc<AtomicBool>>>,
}

// ---------------------------------------------------------------------
// Request execution
// ---------------------------------------------------------------------

/// A typed failure: terminal `error` frame payload.
struct ExecError {
    code: &'static str,
    message: String,
}

impl ExecError {
    fn new(code: &'static str, message: impl Into<String>) -> ExecError {
        ExecError {
            code,
            message: message.into(),
        }
    }
}

/// Cooperative cancellation + deadline, checked between iterations.
struct Ctl {
    cancel: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl Ctl {
    fn check(&self) -> Result<(), ExecError> {
        if self.cancel.load(Ordering::Relaxed) {
            return Err(ExecError::new(codes::CANCELLED, "request cancelled"));
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return Err(ExecError::new(codes::TIMEOUT, "deadline elapsed"));
            }
        }
        Ok(())
    }
}

fn parse_error(src: &str, e: &UnityError) -> ExecError {
    // The caret rendering points at the offending span; clients get the
    // same diagnostics the CLI prints.
    ExecError::new(codes::PARSE, e.render(src))
}

/// A guard or assignment that fails to evaluate is an `eval` error in
/// either engine, worded as the evaluator words it.
fn bdd_error(e: BddError) -> ExecError {
    match e {
        BddError::NodeBudgetExceeded { .. } => ExecError::new(codes::BUDGET, e.to_string()),
        BddError::Eval(e) => ExecError::new(codes::EVAL, e.to_string()),
        other => ExecError::new(codes::INTERNAL, other.to_string()),
    }
}

/// The explicit engine's side of [`bdd_error`].
fn core_error(e: CoreError) -> ExecError {
    match e {
        CoreError::Unity(UnityError::Eval(e)) => ExecError::new(codes::EVAL, e.to_string()),
        other => ExecError::new(codes::INTERNAL, other.to_string()),
    }
}

/// Solve through one engine's outcome cache on the model: an outcome a
/// previous solve stored answers every cap it decides (`cached` is
/// `true`). Anything else runs the eq. (25) iteration — the same `step`
/// calls in the same order as the library's `solve_iterative`, with a
/// cancellation and deadline check before each — under a `server.solve`
/// span with one `server.solve.progress` event per step, and stores the
/// outcome.
fn solve_with_cache<P: PredicateOps + Eq + Hash + Clone>(
    solved: &Solved<P>,
    init: P,
    max_iterations: usize,
    ctl: &Ctl,
    mut step: impl FnMut(&P) -> Result<P, ExecError>,
) -> Result<(IterativeOutcome<P>, bool), ExecError> {
    if let Some(outcome) = solved.get(max_iterations) {
        return Ok((outcome, true));
    }
    let outcome = iterate_to_fixpoint(
        init,
        max_iterations,
        "server.solve",
        "server.solve.progress",
        |x| {
            ctl.check()?;
            step(x)
        },
    )?;
    solved.store(&outcome);
    Ok((outcome, false))
}

/// [`solve_with_cache`] on the explicit engine.
fn solve_explicit(
    model: &Model,
    max_iterations: usize,
    ctl: &Ctl,
) -> Result<(IterativeOutcome, bool), ExecError> {
    let kbp = model.kbp();
    solve_with_cache(
        &model.solved,
        kbp.program().init().clone(),
        max_iterations,
        ctl,
        |x| kbp.iterate(x).map_err(core_error),
    )
}

/// Write an eq. (25) outcome of either engine into a `solve` frame.
fn outcome_fields<P: PredicateOps>(f: &mut Frame, outcome: &IterativeOutcome<P>, cached: bool) {
    match outcome {
        IterativeOutcome::Converged {
            solution,
            iterations,
        } => {
            f.str_field("outcome", "converged");
            f.u64_field("iterations", *iterations as u64);
            f.u64_field("solution_states", solution.count());
        }
        IterativeOutcome::Cycle {
            period,
            entered_after,
        } => {
            f.str_field("outcome", "cycle");
            f.u64_field("period", *period as u64);
            f.u64_field("entered_after", *entered_after as u64);
        }
        IterativeOutcome::Inconclusive { iterations } => {
            f.str_field("outcome", "inconclusive");
            f.u64_field("iterations", *iterations as u64);
        }
    }
    f.bool_field("cached", cached);
}

struct Exec<'a> {
    config: &'a ServerConfig,
    sessions: &'a Sessions,
    req: &'a Request,
    ctl: Ctl,
}

impl Exec<'_> {
    fn source(&self) -> &str {
        // Presence was validated by `parse_request`.
        self.req.source.as_deref().unwrap_or("")
    }

    fn load_model(&self) -> Result<Arc<Model>, ExecError> {
        self.sessions
            .get_or_load(self.source())
            .map_err(|e| parse_error(self.source(), &e))
    }

    fn check_explicit_size(&self, model: &Model) -> Result<(), ExecError> {
        let n = model.space().num_states();
        if n > self.config.max_explicit_states {
            return Err(ExecError::new(
                codes::TOO_LARGE,
                format!(
                    "state space has {n} states, over the explicit-engine limit {} — \
                     use \"engine\":\"symbolic\"",
                    self.config.max_explicit_states
                ),
            ));
        }
        Ok(())
    }

    fn max_iterations(&self) -> usize {
        self.req
            .max_iterations
            .unwrap_or(self.config.default_max_iterations)
    }

    fn run(&self) -> Result<Frame, ExecError> {
        self.ctl.check()?;
        match self.req.kind {
            RequestKind::Parse => self.parse(),
            RequestKind::Lint => self.lint(),
            RequestKind::Solve => self.solve(),
            RequestKind::Verify => self.verify(),
            RequestKind::Explain => self.explain(),
            // Handled inline by the connection loop.
            RequestKind::Cancel | RequestKind::Shutdown => Err(ExecError::new(
                codes::INTERNAL,
                "cancel/shutdown reached the worker pool",
            )),
        }
    }

    fn parse(&self) -> Result<Frame, ExecError> {
        let model = self.load_model()?;
        let program = model.kbp().program();
        let mut f = Frame::result(self.req.id, RequestKind::Parse);
        f.str_field("program", program.name());
        f.u64_field("states", model.space().num_states());
        f.u64_field("variables", model.space().num_vars() as u64);
        f.u64_field("statements", program.statements().len() as u64);
        f.u64_field("processes", program.processes().len() as u64);
        Ok(f)
    }

    fn lint(&self) -> Result<Frame, ExecError> {
        // The dataflow passes always run (they are near-linear); the
        // request flag only gates the expensive symbolic pass. The answer
        // is the `kpt_lint` CLI's file-mode report, byte spans included,
        // cached on the model per flag.
        let answer = self.load_model()?.lint(self.req.symbolic_lint);
        let mut f = Frame::result(self.req.id, RequestKind::Lint);
        f.u64_field("errors", answer.errors);
        f.u64_field("warnings", answer.warnings);
        f.raw_field("report", &answer.report);
        Ok(f)
    }

    fn solve(&self) -> Result<Frame, ExecError> {
        let model = self.load_model()?;
        let max_iterations = self.max_iterations();
        let mut f = Frame::result(self.req.id, RequestKind::Solve);
        match self.req.engine {
            Engine::Explicit => {
                self.check_explicit_size(&model)?;
                let (outcome, cached) = solve_explicit(&model, max_iterations, &self.ctl)?;
                outcome_fields(&mut f, &outcome, cached);
                f.str_field("engine", "explicit");
            }
            Engine::Symbolic => {
                let skbp = model.symbolic().map_err(bdd_error)?;
                let budget = self.req.node_budget.unwrap_or(usize::MAX);
                let (outcome, cached) = solve_with_cache(
                    &model.solved_symbolic,
                    skbp.init(),
                    max_iterations,
                    &self.ctl,
                    |x| skbp.iterate_bounded(x, budget).map_err(bdd_error),
                )?;
                outcome_fields(&mut f, &outcome, cached);
                f.str_field("engine", "symbolic");
            }
        }
        Ok(f)
    }

    /// Solve, then check the requested UNITY properties against the
    /// compiled-at-solution program — knowledge is interpreted w.r.t. the
    /// SI of the solution, the paper's reading of a KBP's properties.
    fn verify(&self) -> Result<Frame, ExecError> {
        if self.req.invariant.is_none()
            && (self.req.leads_from.is_none() || self.req.leads_to.is_none())
        {
            return Err(ExecError::new(
                codes::INVALID,
                "`verify` needs `invariant` and/or `leads_from`+`leads_to`",
            ));
        }
        let model = self.load_model()?;
        self.check_explicit_size(&model)?;
        let solution = match solve_explicit(&model, self.max_iterations(), &self.ctl)?.0 {
            IterativeOutcome::Converged { solution, .. } => solution,
            IterativeOutcome::Cycle { period, .. } => {
                return Err(ExecError::new(
                    codes::UNSOLVED,
                    format!("eq. (25) iteration cycles with period {period}; no solution"),
                ))
            }
            IterativeOutcome::Inconclusive { iterations } => {
                return Err(ExecError::new(
                    codes::UNSOLVED,
                    format!("no fixpoint within {iterations} iterations"),
                ))
            }
        };
        let compiled = model.kbp().compile_at(&solution).map_err(core_error)?;
        let kctx = kpt_core::KnowledgeContext::for_program(&compiled);
        let kf = |process: &str, p: &Predicate| kctx.knows(process, p);
        let eval = |text: &str| -> Result<Predicate, ExecError> {
            let formula = kpt_logic::parse_formula(text)
                .map_err(|e| ExecError::new(codes::EVAL, format!("`{text}`: {e}")))?;
            kpt_logic::EvalContext::new(model.space())
                .with_knowledge(&kf as &KnowledgeFn)
                .eval(&formula)
                .map_err(|e| ExecError::new(codes::EVAL, format!("`{text}`: {e}")))
        };
        let mut verdicts: Vec<Verdict> = Vec::new();
        if let Some(text) = &self.req.invariant {
            let p = eval(text)?;
            verdicts.push(explain_property(&compiled, text, &Property::Invariant(p)));
        }
        if let (Some(from), Some(to)) = (&self.req.leads_from, &self.req.leads_to) {
            let p = eval(from)?;
            let q = eval(to)?;
            verdicts.push(explain_property(
                &compiled,
                &format!("{from} \u{21a6} {to}"),
                &Property::LeadsTo(p, q),
            ));
        }
        let mut f = Frame::result(self.req.id, RequestKind::Verify);
        f.bool_field("holds_all", verdicts.iter().all(|v| v.holds));
        let rendered: Vec<String> = verdicts.iter().map(verdict_json).collect();
        f.raw_field("verdicts", &format!("[{}]", rendered.join(",")));
        Ok(f)
    }

    /// Solve and explain the outcome as a witnessed verdict.
    fn explain(&self) -> Result<Frame, ExecError> {
        let model = self.load_model()?;
        self.check_explicit_size(&model)?;
        let name = model.kbp().program().name().to_owned();
        let obligation = format!("kbp {name} solvable");
        let verdict = match solve_explicit(&model, self.max_iterations(), &self.ctl)?.0 {
            IterativeOutcome::Converged {
                solution,
                iterations,
            } => Verdict {
                obligation,
                holds: true,
                detail: format!(
                    "eq. (25) converged after {iterations} iteration{}; the solution holds in \
                     {} of {} states",
                    if iterations == 1 { "" } else { "s" },
                    solution.count(),
                    model.space().num_states()
                ),
                witnesses: kpt_state::witnesses(&solution, 4),
            },
            IterativeOutcome::Cycle {
                period,
                entered_after,
            } => Verdict::fail(
                obligation,
                format!(
                    "the iteration enters a period-{period} cycle after {entered_after} \
                     iteration{} — the KBP has no iterative solution (Figure 1 ill-posedness)",
                    if entered_after == 1 { "" } else { "s" }
                ),
                Vec::new(),
            ),
            IterativeOutcome::Inconclusive { iterations } => Verdict::fail(
                obligation,
                format!("no fixpoint and no cycle within {iterations} iterations"),
                Vec::new(),
            ),
        };
        let mut f = Frame::result(self.req.id, RequestKind::Explain);
        f.bool_field("holds", verdict.holds);
        f.raw_field("verdict", &verdict_json(&verdict));
        Ok(f)
    }
}

fn kind_counter(kind: RequestKind) -> &'static kpt_obs::Counter {
    match kind {
        RequestKind::Parse => kpt_obs::counter!("server.requests.parse"),
        RequestKind::Lint => kpt_obs::counter!("server.requests.lint"),
        RequestKind::Solve => kpt_obs::counter!("server.requests.solve"),
        RequestKind::Verify => kpt_obs::counter!("server.requests.verify"),
        RequestKind::Explain => kpt_obs::counter!("server.requests.explain"),
        RequestKind::Cancel => kpt_obs::counter!("server.requests.cancel"),
        RequestKind::Shutdown => kpt_obs::counter!("server.requests.shutdown"),
    }
}

fn kind_latency(kind: RequestKind) -> &'static kpt_obs::Histogram {
    match kind {
        RequestKind::Parse => kpt_obs::histogram!("server.latency.parse"),
        RequestKind::Lint => kpt_obs::histogram!("server.latency.lint"),
        RequestKind::Solve => kpt_obs::histogram!("server.latency.solve"),
        RequestKind::Verify => kpt_obs::histogram!("server.latency.verify"),
        RequestKind::Explain => kpt_obs::histogram!("server.latency.explain"),
        RequestKind::Cancel => kpt_obs::histogram!("server.latency.cancel"),
        RequestKind::Shutdown => kpt_obs::histogram!("server.latency.shutdown"),
    }
}

// ---------------------------------------------------------------------
// Shared state and connection loop
// ---------------------------------------------------------------------

struct Shared {
    config: ServerConfig,
    pool: TaskPool,
    sessions: Sessions,
    shutting: AtomicBool,
    shutdown_flag: Mutex<bool>,
    shutdown_cv: Condvar,
    inflight: AtomicU64,
}

impl Shared {
    fn new(config: ServerConfig) -> Shared {
        Shared {
            pool: TaskPool::new(config.workers.max(1), config.queue_capacity.max(1)),
            sessions: Sessions::new(config.sessions),
            config,
            shutting: AtomicBool::new(false),
            shutdown_flag: Mutex::new(false),
            shutdown_cv: Condvar::new(),
            inflight: AtomicU64::new(0),
        }
    }

    /// Flip the drain flag and wake [`Server::wait`]. Idempotent.
    fn begin_shutdown(&self) {
        self.shutting.store(true, Ordering::SeqCst);
        let mut f = self.shutdown_flag.lock().expect("shutdown lock poisoned");
        *f = true;
        self.shutdown_cv.notify_all();
    }
}

/// Run one request on a pool worker: stream its progress frames, execute,
/// send the terminal frame, record metrics.
fn run_request(shared: &Shared, conn: &Conn, req: Request, cancel: Arc<AtomicBool>) {
    let started = Instant::now();
    kpt_obs::counter!("server.requests").incr();
    kind_counter(req.kind).incr();
    shared.inflight.fetch_add(1, Ordering::Relaxed);
    kpt_obs::gauge!("server.inflight").set(shared.inflight.load(Ordering::Relaxed));
    let mut span = kpt_obs::span("server.request");
    span.field("request", req.kind.name());
    span.field("id", req.id);
    let deadline_ms = req.timeout_ms.unwrap_or(shared.config.default_timeout_ms);
    let exec = Exec {
        config: &shared.config,
        sessions: &shared.sessions,
        req: &req,
        ctl: Ctl {
            cancel,
            deadline: Some(started + Duration::from_millis(deadline_ms)),
        },
    };
    let writer = Arc::clone(&conn.writer);
    let id = req.id;
    let scope = kpt_obs::progress_scope(move |kind, fields| {
        let mut f = Frame::progress(id, kind);
        for (k, v) in fields {
            f.event_field(k, v);
        }
        let _ = writer.send(&f.finish());
    });
    let outcome = exec.run();
    drop(scope);
    let frame = match outcome {
        Ok(f) => {
            span.field("outcome", "ok");
            f
        }
        Err(e) => {
            kpt_obs::counter!("server.errors").incr();
            span.field("outcome", e.code);
            Frame::error(Some(req.id), e.code, &e.message)
        }
    };
    let _ = conn.writer.send(&frame.finish());
    kind_latency(req.kind).record(started.elapsed().as_micros() as u64);
    shared.inflight.fetch_sub(1, Ordering::Relaxed);
    kpt_obs::gauge!("server.inflight").set(shared.inflight.load(Ordering::Relaxed));
    span.finish();
}

/// Read one newline-terminated frame, enforcing the size bound.
/// `Ok(None)` is EOF; `Ok(Some(Err(())))` is an over-long frame (the
/// stream is already resynchronized past its newline).
fn read_frame(
    reader: &mut impl BufRead,
    max_bytes: usize,
) -> io::Result<Option<Result<String, ()>>> {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflow = false;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            if buf.is_empty() && !overflow {
                return Ok(None);
            }
            break; // final frame without trailing newline
        }
        match available.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if !overflow {
                    buf.extend_from_slice(&available[..i]);
                }
                reader.consume(i + 1);
                break;
            }
            None => {
                if !overflow {
                    buf.extend_from_slice(available);
                }
                let n = available.len();
                reader.consume(n);
            }
        }
        if buf.len() > max_bytes {
            overflow = true;
            buf.clear();
        }
    }
    if overflow || buf.len() > max_bytes {
        return Ok(Some(Err(())));
    }
    Ok(Some(Ok(String::from_utf8_lossy(&buf).into_owned())))
}

/// Serve one connection's frames until EOF. Shared by the TCP accept
/// loop and `--stdio` mode.
fn serve(shared: &Arc<Shared>, conn: &Arc<Conn>, reader: &mut impl BufRead) {
    loop {
        let line = match read_frame(reader, shared.config.max_frame_bytes) {
            Ok(None) | Err(_) => break,
            Ok(Some(Err(()))) => {
                let f = Frame::error(
                    None,
                    codes::TOO_LARGE,
                    &format!(
                        "frame exceeds {} bytes; discarded to the next newline",
                        shared.config.max_frame_bytes
                    ),
                );
                if conn.writer.send(&f.finish()).is_err() {
                    break;
                }
                continue;
            }
            Ok(Some(Ok(line))) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let req = match parse_request(&line, shared.config.max_frame_bytes) {
            Ok(req) => req,
            Err(e) => {
                kpt_obs::counter!("server.errors").incr();
                let f = Frame::error(e.id, e.code, &e.message);
                if conn.writer.send(&f.finish()).is_err() {
                    break;
                }
                continue;
            }
        };
        match req.kind {
            // Inline: must work while every worker is busy.
            RequestKind::Cancel => {
                kpt_obs::counter!("server.requests").incr();
                kind_counter(RequestKind::Cancel).incr();
                let target = req.target.unwrap_or(0);
                let flag = conn
                    .cancels
                    .lock()
                    .expect("cancels lock poisoned")
                    .get(&target)
                    .cloned();
                let cancelled = match flag {
                    Some(flag) => {
                        flag.store(true, Ordering::Relaxed);
                        true
                    }
                    None => false,
                };
                let mut f = Frame::result(req.id, RequestKind::Cancel);
                f.u64_field("target", target);
                f.bool_field("cancelled", cancelled);
                if conn.writer.send(&f.finish()).is_err() {
                    break;
                }
            }
            // Inline: acknowledge, then flip the drain flag. The owner
            // (Server::wait / run_stdio) performs the actual drain.
            RequestKind::Shutdown => {
                kpt_obs::counter!("server.requests").incr();
                kind_counter(RequestKind::Shutdown).incr();
                let mut f = Frame::result(req.id, RequestKind::Shutdown);
                f.bool_field("ok", true);
                let _ = conn.writer.send(&f.finish());
                shared.begin_shutdown();
            }
            _ => {
                if shared.shutting.load(Ordering::SeqCst) {
                    let f = Frame::error(
                        Some(req.id),
                        codes::SHUTTING_DOWN,
                        "server is draining; no new requests",
                    );
                    if conn.writer.send(&f.finish()).is_err() {
                        break;
                    }
                    continue;
                }
                let cancel = Arc::new(AtomicBool::new(false));
                conn.cancels
                    .lock()
                    .expect("cancels lock poisoned")
                    .insert(req.id, Arc::clone(&cancel));
                let job_shared = Arc::clone(shared);
                let job_conn = Arc::clone(conn);
                let req_id = req.id;
                let spawned = shared.pool.try_spawn(move || {
                    run_request(&job_shared, &job_conn, req, cancel);
                    job_conn
                        .cancels
                        .lock()
                        .expect("cancels lock poisoned")
                        .remove(&req_id);
                });
                if spawned.is_err() {
                    conn.cancels
                        .lock()
                        .expect("cancels lock poisoned")
                        .remove(&req_id);
                    kpt_obs::counter!("server.errors").incr();
                    let code = if shared.shutting.load(Ordering::SeqCst) {
                        codes::SHUTTING_DOWN
                    } else {
                        codes::BUSY
                    };
                    let f = Frame::error(
                        Some(req_id),
                        code,
                        "worker queue is full; retry after in-flight requests drain",
                    );
                    if conn.writer.send(&f.finish()).is_err() {
                        break;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The server lifecycle
// ---------------------------------------------------------------------

/// A running kpt-server bound to a TCP address.
///
/// Dropping the server shuts it down gracefully: accepted work drains,
/// terminal frames flush, then connections close.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
    down: bool,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start accepting.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn bind(addr: &str, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared::new(config));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conns);
        let accept_threads = Arc::clone(&conn_threads);
        let accept_thread = thread::Builder::new()
            .name("kpt-server-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_shared.shutting.load(Ordering::SeqCst) {
                        break;
                    }
                    let stream = match stream {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    kpt_obs::counter!("server.conns").incr();
                    let write_half = match stream.try_clone() {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    accept_conns.lock().expect("conns lock poisoned").push(
                        match stream.try_clone() {
                            Ok(s) => s,
                            Err(_) => continue,
                        },
                    );
                    let conn_shared = Arc::clone(&accept_shared);
                    let handle =
                        thread::Builder::new()
                            .name("kpt-server-conn".into())
                            .spawn(move || {
                                let conn = Arc::new(Conn {
                                    writer: Arc::new(FrameWriter::new(Box::new(write_half))),
                                    cancels: Mutex::new(HashMap::new()),
                                });
                                let mut reader = BufReader::new(stream);
                                serve(&conn_shared, &conn, &mut reader);
                            });
                    if let Ok(handle) = handle {
                        accept_threads
                            .lock()
                            .expect("conn threads lock poisoned")
                            .push(handle);
                    }
                }
            })?;
        Ok(Server {
            shared,
            local_addr,
            accept_thread: Some(accept_thread),
            conns,
            conn_threads,
            down: false,
        })
    }

    /// The bound address (port resolved when binding to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The session arena (test and bench introspection).
    pub fn sessions(&self) -> &Sessions {
        &self.shared.sessions
    }

    /// Block until a `shutdown` request arrives (or [`Server::shutdown`]
    /// is called from another thread).
    pub fn wait(&self) {
        let mut flag = self
            .shared
            .shutdown_flag
            .lock()
            .expect("shutdown lock poisoned");
        while !*flag {
            flag = self
                .shared
                .shutdown_cv
                .wait(flag)
                .expect("shutdown lock poisoned");
        }
    }

    /// Graceful drain: stop accepting, refuse new requests, run accepted
    /// work to completion and flush its frames, close connections, join
    /// every thread. Idempotent.
    pub fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        self.shared.begin_shutdown();
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // Drain the pool: queued and running requests complete and their
        // terminal frames are written before any stream is torn down.
        self.shared.pool.shutdown();
        for stream in self.conns.lock().expect("conns lock poisoned").drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        let handles: Vec<JoinHandle<()>> = self
            .conn_threads
            .lock()
            .expect("conn threads lock poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serve JSONL frames on stdin/stdout until EOF or a `shutdown` request,
/// then drain the pool. The transport differs from TCP; the request
/// execution path is byte-for-byte the same.
pub fn run_stdio(config: ServerConfig) {
    let shared = Arc::new(Shared::new(config));
    let conn = Arc::new(Conn {
        writer: Arc::new(FrameWriter::new(Box::new(io::stdout()))),
        cancels: Mutex::new(HashMap::new()),
    });
    let stdin = io::stdin();
    let mut reader = stdin.lock();
    serve(&shared, &conn, &mut reader);
    shared.pool.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_frame_bounds_and_resyncs() {
        let data = b"{\"id\":1}\nxxxxxxxxxxxxxxxxxxxxxxxx\n{\"id\":2}\n";
        let mut r = BufReader::with_capacity(8, &data[..]);
        let first = read_frame(&mut r, 16).unwrap().unwrap().unwrap();
        assert_eq!(first, "{\"id\":1}");
        // The 24-byte run exceeds the 16-byte bound...
        assert!(read_frame(&mut r, 16).unwrap().unwrap().is_err());
        // ...and the stream resynchronizes at the next newline.
        let third = read_frame(&mut r, 16).unwrap().unwrap().unwrap();
        assert_eq!(third, "{\"id\":2}");
        assert!(read_frame(&mut r, 16).unwrap().is_none());
    }

    #[test]
    fn read_frame_accepts_final_unterminated_line() {
        let mut r = BufReader::new(&b"{\"id\":9}"[..]);
        let only = read_frame(&mut r, 64).unwrap().unwrap().unwrap();
        assert_eq!(only, "{\"id\":9}");
        assert!(read_frame(&mut r, 64).unwrap().is_none());
    }
}
