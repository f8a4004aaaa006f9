//! The kpt-server wire protocol: JSON Lines over a byte stream.
//!
//! Every frame — in either direction — is one JSON object on one line.
//! Clients send *requests*; the server answers each request id with
//! exactly one terminal frame (`result` or `error`), possibly preceded by
//! any number of `progress` frames carrying the in-flight computation's
//! `kpt_obs::progress` reports.
//!
//! ## Requests
//!
//! ```json
//! {"id":1,"type":"parse","source":"program p ..."}
//! {"id":2,"type":"lint","source":"...","symbolic":true}
//! {"id":3,"type":"solve","source":"...","engine":"symbolic","max_iterations":64,
//!  "timeout_ms":5000,"node_budget":1000000}
//! {"id":4,"type":"verify","source":"...","invariant":"said => bknows",
//!  "leads_from":"said","leads_to":"bknows"}
//! {"id":5,"type":"explain","source":"..."}
//! {"id":6,"type":"cancel","target":3}
//! {"id":7,"type":"shutdown"}
//! ```
//!
//! `id` is a client-chosen request identifier echoed on every frame the
//! request produces; ids of in-flight requests must be unique per
//! connection (the server does not check — a duplicated id merely makes
//! the two answers indistinguishable). All other keys are per-type.
//!
//! ## Responses
//!
//! * `{"type":"result","id":N,"request":"solve", ...payload}` — success.
//! * `{"type":"error","id":N,"code":"timeout","message":"..."}` — failure;
//!   `id` is `null` when the frame was too malformed to carry one. An
//!   error never tears down the connection: the server resynchronizes at
//!   the next newline and keeps reading.
//! * `{"type":"progress","id":N,"kind":"server.solve.progress", ...}` —
//!   streamed while request `N` runs.
//!
//! Error codes are the [`codes`] constants; clients should treat unknown
//! codes as [`codes::INTERNAL`].

use kpt_obs::{json_escape_into, JsonValue, Verdict};

/// Terminal error codes, one flat namespace.
pub mod codes {
    /// The line was not a JSON object.
    pub const MALFORMED: &str = "malformed";
    /// The object violated the request schema (missing/ill-typed keys).
    pub const INVALID: &str = "invalid";
    /// The `.kpt` source failed to parse or elaborate.
    pub const PARSE: &str = "parse";
    /// A frame or state space exceeded a configured size bound.
    pub const TOO_LARGE: &str = "too_large";
    /// The request's deadline elapsed.
    pub const TIMEOUT: &str = "timeout";
    /// A `cancel` request aborted this request.
    pub const CANCELLED: &str = "cancelled";
    /// The symbolic engine exceeded the request's node budget.
    pub const BUDGET: &str = "budget";
    /// The worker pool's queue is full — retry later.
    pub const BUSY: &str = "busy";
    /// The KBP has no iterative solution (cycle or inconclusive), so the
    /// requested property cannot be evaluated against one.
    pub const UNSOLVED: &str = "unsolved";
    /// A property formula failed to parse or evaluate.
    pub const EVAL: &str = "eval";
    /// The server is draining and accepts no new work.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// An engine error that maps to nothing above.
    pub const INTERNAL: &str = "internal";
}

/// Which solver backend a `solve` request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `kpt_core::Kbp` — exact, state-enumerating.
    Explicit,
    /// `kpt_bdd::SymbolicKbp` — ROBDD-backed, node-budgeted.
    Symbolic,
}

/// The request types the server executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Elaborate the source and report its dimensions.
    Parse,
    /// Run the static analyzer (same entry point as the `kpt_lint` CLI).
    Lint,
    /// Run the eq. (25) iterative solver.
    Solve,
    /// Solve, then check UNITY properties against the solution.
    Verify,
    /// Solve and explain the outcome as a witnessed verdict.
    Explain,
    /// Abort an in-flight request on the same connection.
    Cancel,
    /// Ask the server to drain and exit.
    Shutdown,
}

impl RequestKind {
    /// The wire name, also used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            RequestKind::Parse => "parse",
            RequestKind::Lint => "lint",
            RequestKind::Solve => "solve",
            RequestKind::Verify => "verify",
            RequestKind::Explain => "explain",
            RequestKind::Cancel => "cancel",
            RequestKind::Shutdown => "shutdown",
        }
    }
}

/// One parsed request frame.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen id, echoed on every frame this request produces.
    pub id: u64,
    /// What to do.
    pub kind: RequestKind,
    /// `.kpt` source (parse/lint/solve/verify/explain).
    pub source: Option<String>,
    /// Solver backend; defaults to explicit.
    pub engine: Engine,
    /// Iteration cap for eq. (25); `None` takes the server default.
    pub max_iterations: Option<usize>,
    /// Per-request deadline; `None` takes the server default, `0` expires
    /// immediately (useful for deterministic timeout tests).
    pub timeout_ms: Option<u64>,
    /// Live-node budget for the symbolic engine.
    pub node_budget: Option<usize>,
    /// `verify`: invariant formula to check against the solution.
    pub invariant: Option<String>,
    /// `verify`: antecedent of a leads-to obligation.
    pub leads_from: Option<String>,
    /// `verify`: consequent of a leads-to obligation.
    pub leads_to: Option<String>,
    /// `cancel`: the id of the request to abort.
    pub target: Option<u64>,
    /// `lint`: run the symbolic pass too (default true).
    pub symbolic_lint: bool,
}

/// A schema violation: error code plus a one-line message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// One of the [`codes`] constants.
    pub code: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// The request id, when the frame carried one.
    pub id: Option<u64>,
}

impl ProtoError {
    fn new(code: &'static str, id: Option<u64>, message: impl Into<String>) -> Self {
        ProtoError {
            code,
            message: message.into(),
            id,
        }
    }
}

fn opt_str(v: &JsonValue, key: &str, id: Option<u64>) -> Result<Option<String>, ProtoError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(JsonValue::String(s)) => Ok(Some(s.clone())),
        Some(_) => Err(ProtoError::new(
            codes::INVALID,
            id,
            format!("`{key}` must be a string"),
        )),
    }
}

fn opt_u64(v: &JsonValue, key: &str, id: Option<u64>) -> Result<Option<u64>, ProtoError> {
    match v.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(n) => n.as_u64().map(Some).ok_or_else(|| {
            ProtoError::new(
                codes::INVALID,
                id,
                format!("`{key}` must be a non-negative integer"),
            )
        }),
    }
}

/// Parse one request line. `max_bytes` bounds the accepted frame size;
/// the connection layer enforces the same bound while reading, so this
/// check only catches frames handed in through other paths (stdio tests).
pub fn parse_request(line: &str, max_bytes: usize) -> Result<Request, ProtoError> {
    if line.len() > max_bytes {
        return Err(ProtoError::new(
            codes::TOO_LARGE,
            None,
            format!("frame of {} bytes exceeds limit {}", line.len(), max_bytes),
        ));
    }
    let v = kpt_obs::parse_json(line)
        .map_err(|e| ProtoError::new(codes::MALFORMED, None, format!("bad JSON: {e}")))?;
    if !matches!(v, JsonValue::Object(_)) {
        return Err(ProtoError::new(
            codes::MALFORMED,
            None,
            "frame must be a JSON object",
        ));
    }
    let id = opt_u64(&v, "id", None)?;
    let kind = match opt_str(&v, "type", id)? {
        Some(t) => match t.as_str() {
            "parse" => RequestKind::Parse,
            "lint" => RequestKind::Lint,
            "solve" => RequestKind::Solve,
            "verify" => RequestKind::Verify,
            "explain" => RequestKind::Explain,
            "cancel" => RequestKind::Cancel,
            "shutdown" => RequestKind::Shutdown,
            other => {
                return Err(ProtoError::new(
                    codes::INVALID,
                    id,
                    format!("unknown request type `{other}`"),
                ))
            }
        },
        None => return Err(ProtoError::new(codes::INVALID, id, "missing `type`")),
    };
    let id = match id {
        Some(id) => id,
        None => return Err(ProtoError::new(codes::INVALID, None, "missing `id`")),
    };
    let engine = match opt_str(&v, "engine", Some(id))? {
        None => Engine::Explicit,
        Some(e) => match e.as_str() {
            "explicit" => Engine::Explicit,
            "symbolic" => Engine::Symbolic,
            other => {
                return Err(ProtoError::new(
                    codes::INVALID,
                    Some(id),
                    format!("unknown engine `{other}` (want explicit|symbolic)"),
                ))
            }
        },
    };
    let source = opt_str(&v, "source", Some(id))?;
    if matches!(
        kind,
        RequestKind::Parse
            | RequestKind::Lint
            | RequestKind::Solve
            | RequestKind::Verify
            | RequestKind::Explain
    ) && source.is_none()
    {
        return Err(ProtoError::new(
            codes::INVALID,
            Some(id),
            format!("`{}` requires `source`", kind.name()),
        ));
    }
    let target = opt_u64(&v, "target", Some(id))?;
    if kind == RequestKind::Cancel && target.is_none() {
        return Err(ProtoError::new(
            codes::INVALID,
            Some(id),
            "`cancel` requires `target`",
        ));
    }
    let symbolic_lint = match v.get("symbolic") {
        None | Some(JsonValue::Null) => true,
        Some(JsonValue::Bool(b)) => *b,
        Some(_) => {
            return Err(ProtoError::new(
                codes::INVALID,
                Some(id),
                "`symbolic` must be a boolean",
            ))
        }
    };
    Ok(Request {
        id,
        kind,
        source,
        engine,
        max_iterations: opt_u64(&v, "max_iterations", Some(id))?.map(|n| n as usize),
        timeout_ms: opt_u64(&v, "timeout_ms", Some(id))?,
        node_budget: opt_u64(&v, "node_budget", Some(id))?.map(|n| n as usize),
        invariant: opt_str(&v, "invariant", Some(id))?,
        leads_from: opt_str(&v, "leads_from", Some(id))?,
        leads_to: opt_str(&v, "leads_to", Some(id))?,
        target,
        symbolic_lint,
    })
}

/// Incremental builder for one response frame (no trailing newline).
#[derive(Debug)]
pub struct Frame {
    buf: String,
}

impl Frame {
    fn open(frame_type: &str, id: Option<u64>) -> Frame {
        let mut buf = String::with_capacity(96);
        buf.push_str("{\"type\":\"");
        buf.push_str(frame_type);
        buf.push_str("\",\"id\":");
        match id {
            Some(id) => buf.push_str(&id.to_string()),
            None => buf.push_str("null"),
        }
        Frame { buf }
    }

    /// A `result` frame answering request `id` of type `request`.
    pub fn result(id: u64, request: RequestKind) -> Frame {
        let mut f = Frame::open("result", Some(id));
        f.str_field("request", request.name());
        f
    }

    /// An `error` frame; `id` is `None` when the offending frame carried
    /// no usable id.
    pub fn error(id: Option<u64>, code: &str, message: &str) -> Frame {
        let mut f = Frame::open("error", id);
        f.str_field("code", code);
        f.str_field("message", message);
        f
    }

    /// A `progress` frame for in-flight request `id`, carrying the trace
    /// event kind that produced it.
    pub fn progress(id: u64, kind: &str) -> Frame {
        let mut f = Frame::open("progress", Some(id));
        f.str_field("kind", kind);
        f
    }

    /// Append a string field (escaped).
    pub fn str_field(&mut self, key: &str, value: &str) {
        self.key(key);
        self.buf.push('"');
        json_escape_into(value, &mut self.buf);
        self.buf.push('"');
    }

    /// Append an unsigned integer field.
    pub fn u64_field(&mut self, key: &str, value: u64) {
        self.key(key);
        self.buf.push_str(&value.to_string());
    }

    /// Append a boolean field.
    pub fn bool_field(&mut self, key: &str, value: bool) {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
    }

    /// Append a field whose value is already-rendered JSON.
    pub fn raw_field(&mut self, key: &str, json: &str) {
        self.key(key);
        self.buf.push_str(json);
    }

    /// Append a trace event field, preserving its JSON type.
    pub fn event_field(&mut self, key: &str, value: &kpt_obs::Field) {
        match value {
            kpt_obs::Field::U64(v) => self.u64_field(key, *v),
            kpt_obs::Field::I64(v) => {
                self.key(key);
                self.buf.push_str(&v.to_string());
            }
            kpt_obs::Field::F64(v) => {
                self.key(key);
                if v.is_finite() {
                    self.buf.push_str(&format!("{v}"));
                } else {
                    self.buf.push_str("null");
                }
            }
            kpt_obs::Field::Bool(v) => self.bool_field(key, *v),
            kpt_obs::Field::Str(s) => self.str_field(key, s),
        }
    }

    fn key(&mut self, key: &str) {
        self.buf.push_str(",\"");
        json_escape_into(key, &mut self.buf);
        self.buf.push_str("\":");
    }

    /// Close the object and return the line (no trailing newline).
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Render a [`Verdict`] as a JSON object:
/// `{"obligation":…,"holds":…,"detail":…,"witnesses":[{"index":N,"state":"a=1, b=0"},…]}`.
pub fn verdict_json(v: &Verdict) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"obligation\":\"");
    json_escape_into(&v.obligation, &mut out);
    out.push_str("\",\"holds\":");
    out.push_str(if v.holds { "true" } else { "false" });
    out.push_str(",\"detail\":\"");
    json_escape_into(&v.detail, &mut out);
    out.push_str("\",\"witnesses\":[");
    for (i, w) in v.witnesses.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"index\":");
        out.push_str(&w.index.to_string());
        out.push_str(",\"state\":\"");
        let rendered = w
            .assignment
            .iter()
            .map(|(k, val)| format!("{k}={val}"))
            .collect::<Vec<_>>()
            .join(", ");
        json_escape_into(&rendered, &mut out);
        out.push_str("\"}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_solve_request() {
        let r = parse_request(
            r#"{"id":7,"type":"solve","source":"program p\n","engine":"symbolic",
                "max_iterations":9,"timeout_ms":250,"node_budget":4096}"#,
            1 << 20,
        )
        .expect("parses");
        assert_eq!(r.id, 7);
        assert_eq!(r.kind, RequestKind::Solve);
        assert_eq!(r.engine, Engine::Symbolic);
        assert_eq!(r.max_iterations, Some(9));
        assert_eq!(r.timeout_ms, Some(250));
        assert_eq!(r.node_budget, Some(4096));
    }

    #[test]
    fn schema_violations_carry_the_id_when_present() {
        let e = parse_request(r#"{"id":3,"type":"warp"}"#, 1 << 20).unwrap_err();
        assert_eq!(e.code, codes::INVALID);
        assert_eq!(e.id, Some(3));
        let e = parse_request("not json", 1 << 20).unwrap_err();
        assert_eq!(e.code, codes::MALFORMED);
        assert_eq!(e.id, None);
        let e = parse_request(r#"{"id":1,"type":"cancel"}"#, 1 << 20).unwrap_err();
        assert_eq!(e.code, codes::INVALID);
        let e = parse_request(r#"{"id":1,"type":"solve"}"#, 1 << 20).unwrap_err();
        assert_eq!(e.code, codes::INVALID);
        assert!(e.message.contains("source"));
    }

    #[test]
    fn frames_render_escaped_json_that_reparses() {
        let mut f = Frame::result(5, RequestKind::Parse);
        f.str_field("program", "has \"quotes\"\nand newline");
        f.u64_field("states", 64);
        f.bool_field("ok", true);
        let line = f.finish();
        let v = kpt_obs::parse_json(&line).expect("frame reparses");
        assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("result"));
        assert_eq!(v.get("id").and_then(|t| t.as_u64()), Some(5));
        assert_eq!(v.get("states").and_then(|t| t.as_u64()), Some(64));
        assert_eq!(
            v.get("program").and_then(|t| t.as_str()),
            Some("has \"quotes\"\nand newline")
        );
        let err = Frame::error(None, codes::MALFORMED, "bad \\ frame").finish();
        let v = kpt_obs::parse_json(&err).expect("error frame reparses");
        assert!(matches!(v.get("id"), Some(JsonValue::Null)));
    }

    #[test]
    fn verdicts_render_with_witnesses() {
        let v = Verdict::fail(
            "invariant p",
            "1 of 4 states violate p",
            vec![kpt_obs::WitnessState {
                index: 3,
                assignment: vec![("a".into(), "1".into())],
            }],
        );
        let json = verdict_json(&v);
        let parsed = kpt_obs::parse_json(&json).expect("verdict json parses");
        assert_eq!(parsed.get("holds").and_then(|b| b.as_bool()), Some(false));
        let ws = parsed.get("witnesses").and_then(|w| w.as_array()).unwrap();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].get("state").and_then(|s| s.as_str()), Some("a=1"));
    }
}
