//! End-to-end wire tests: every request type round-trips; malformed
//! frames, timeouts, budgets and cancellation map to typed error frames
//! without tearing down the connection; backpressure refuses rather than
//! buffers; shutdown drains everything already accepted.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::Duration;

use kpt_obs::JsonValue;
use kpt_server::{Server, ServerConfig, SessionConfig};

/// A tiny knowledge-free client/server model with known properties:
/// `invariant ~done \/ req` holds, `req ↦ done` holds, the eq. (25)
/// iteration converges immediately.
const TOY: &str = "program toy\ndeclare\n  req : boolean\n  done : boolean\nprocesses\n  \
                   C = {req}\n  S = {req, done}\ninit\n  ~req /\\ ~done\nassign\n  \
                   request: req := 1 if ~req\n  [] serve: done := 1 if req /\\ ~done\n";

/// How long the test client waits for one frame before failing, so a
/// frame the server never answers fails the test instead of hanging it.
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// Frames read while waiting for some other request id — terminal
    /// frames interleave freely across concurrent requests.
    stash: Vec<JsonValue>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        stream
            .set_read_timeout(Some(RECV_TIMEOUT))
            .expect("sets read timeout");
        Client {
            writer: stream.try_clone().expect("clones"),
            reader: BufReader::new(stream),
            stash: Vec::new(),
        }
    }

    fn send(&mut self, frame: &str) {
        self.writer
            .write_all(format!("{frame}\n").as_bytes())
            .expect("request writes");
    }

    /// Read one frame; panics on EOF or when none arrives within
    /// [`RECV_TIMEOUT`].
    fn recv(&mut self) -> JsonValue {
        self.try_recv().expect("unexpected EOF from server")
    }

    /// Read one frame, or `None` at EOF; panics when none arrives within
    /// [`RECV_TIMEOUT`].
    fn try_recv(&mut self) -> Option<JsonValue> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => None,
            Ok(_) => Some(kpt_obs::parse_json(line.trim_end()).expect("server frame is JSON")),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                panic!("no frame within {RECV_TIMEOUT:?}")
            }
            Err(_) => None,
        }
    }

    /// Read frames until the terminal (`result`/`error`) frame for `id`,
    /// returning `(terminal, progress frames seen for that id)`. Frames
    /// belonging to other requests are stashed, not dropped, so terminal
    /// frames can be collected in any order.
    fn recv_terminal(&mut self, id: u64) -> (JsonValue, Vec<JsonValue>) {
        let mut progress = Vec::new();
        let mut take = |stash: &mut Vec<JsonValue>, f: JsonValue| -> Option<JsonValue> {
            if f.get("id").and_then(JsonValue::as_u64) != Some(id) {
                stash.push(f);
                return None;
            }
            if f.get("type").and_then(JsonValue::as_str) == Some("progress") {
                progress.push(f);
                return None;
            }
            Some(f)
        };
        let stashed = std::mem::take(&mut self.stash);
        let mut terminal = None;
        for f in stashed {
            match terminal {
                None => terminal = take(&mut self.stash, f),
                Some(_) => self.stash.push(f),
            }
        }
        if let Some(t) = terminal {
            return (t, progress);
        }
        loop {
            let f = self.recv();
            if let Some(t) = take(&mut self.stash, f) {
                return (t, progress);
            }
        }
    }

    /// Read until a `progress` frame for `id` arrives, stashing others.
    fn recv_progress(&mut self, id: u64) -> JsonValue {
        loop {
            let f = self.recv();
            if f.get("id").and_then(JsonValue::as_u64) == Some(id)
                && f.get("type").and_then(JsonValue::as_str) == Some("progress")
            {
                return f;
            }
            self.stash.push(f);
        }
    }
}

fn field_str<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

fn field_u64(v: &JsonValue, key: &str) -> u64 {
    v.get(key).and_then(JsonValue::as_u64).unwrap_or(u64::MAX)
}

/// The `iteration` numbers of a request's `server.solve.progress` frames,
/// in arrival order, after checking every forwarded frame is some
/// `*.progress` event (library internals — frontier rounds, SI
/// sub-solves — stream alongside the per-iteration frames).
fn per_iteration(progress: &[JsonValue]) -> Vec<u64> {
    assert!(!progress.is_empty());
    for p in progress {
        assert!(field_str(p, "kind").ends_with(".progress"), "got {p:?}");
    }
    progress
        .iter()
        .filter(|p| field_str(p, "kind") == "server.solve.progress")
        .map(|p| field_u64(p, "iteration"))
        .collect()
}

fn req(body: &str) -> String {
    body.replace('\'', "\"")
}

/// A request frame whose last field is `source`: `head` is in [`req`]'s
/// apostrophe shorthand, and the escaped source goes in after the quote
/// swap, because model comments have apostrophes.
fn with_source(head: &str, source: &str) -> String {
    format!(
        "{}{}\"}}",
        req(&format!("{{{head}'source':'")),
        json_str(source)
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    kpt_obs::json_escape_into(s, &mut out);
    out
}

#[test]
fn every_request_type_round_trips() {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("binds");
    let mut c = Client::connect(&server);
    let toy = json_str(TOY);

    c.send(&req(&format!("{{'id':1,'type':'parse','source':'{toy}'}}")));
    let (f, _) = c.recv_terminal(1);
    assert_eq!(field_str(&f, "type"), "result");
    assert_eq!(field_str(&f, "program"), "toy");
    assert_eq!(field_u64(&f, "states"), 4);
    assert_eq!(field_u64(&f, "processes"), 2);

    c.send(&req(&format!("{{'id':2,'type':'lint','source':'{toy}'}}")));
    let (f, _) = c.recv_terminal(2);
    assert_eq!(field_str(&f, "type"), "result");
    assert_eq!(field_u64(&f, "errors"), 0);

    c.send(&req(&format!("{{'id':3,'type':'solve','source':'{toy}'}}")));
    let (f, _) = c.recv_terminal(3);
    assert_eq!(field_str(&f, "outcome"), "converged");
    assert_eq!(field_str(&f, "engine"), "explicit");

    c.send(&req(&format!(
        "{{'id':4,'type':'solve','source':'{toy}','engine':'symbolic'}}"
    )));
    let (f, _) = c.recv_terminal(4);
    assert_eq!(field_str(&f, "outcome"), "converged");
    assert_eq!(field_str(&f, "engine"), "symbolic");

    c.send(&req(&format!(
        "{{'id':5,'type':'verify','source':'{toy}','invariant':'~done \\\\/ req',\
          'leads_from':'req','leads_to':'done'}}"
    )));
    let (f, _) = c.recv_terminal(5);
    assert_eq!(field_str(&f, "type"), "result", "verify failed: {f:?}");
    assert_eq!(f.get("holds_all").and_then(JsonValue::as_bool), Some(true));
    let verdicts = f.get("verdicts").and_then(JsonValue::as_array).unwrap();
    assert_eq!(verdicts.len(), 2);

    c.send(&req(&format!(
        "{{'id':6,'type':'explain','source':'{toy}'}}"
    )));
    let (f, _) = c.recv_terminal(6);
    assert_eq!(f.get("holds").and_then(JsonValue::as_bool), Some(true));
    let verdict = f.get("verdict").expect("verdict object");
    assert!(field_str(verdict, "detail").contains("converged"));

    // The arena served ids 1 and 3..6 from one elaboration of TOY.
    assert!(server.sessions().hits() >= 3);
    server.shutdown();
}

#[test]
fn compound_label_sources_are_rejected_by_both_engines() {
    // `m0` is only a label of `z`, and `m0 + 1` is not a bare side, so
    // neither engine may read it as one.
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("binds");
    let mut c = Client::connect(&server);
    let src = json_str(include_str!("../../../tests/corpus/compound_label.kpt"));
    let mut messages = Vec::new();
    for (id, engine) in [(1, "explicit"), (2, "symbolic")] {
        c.send(&req(&format!(
            "{{'id':{id},'type':'solve','source':'{src}','engine':'{engine}'}}"
        )));
        let (f, _) = c.recv_terminal(id);
        assert_eq!(field_str(&f, "type"), "error", "{engine}: {f:?}");
        assert_eq!(field_str(&f, "code"), "eval", "{engine}: {f:?}");
        assert!(field_str(&f, "message").contains("`m0`"), "{engine}: {f:?}");
        messages.push(field_str(&f, "message").to_owned());
    }
    assert_eq!(
        messages[0], messages[1],
        "the engines word the error differently"
    );
    server.shutdown();
}

#[test]
fn malformed_frames_do_not_kill_the_connection() {
    let config = ServerConfig {
        max_frame_bytes: 512,
        ..ServerConfig::default()
    };
    let mut server = Server::bind("127.0.0.1:0", config).expect("binds");
    let mut c = Client::connect(&server);

    c.send("this is not json");
    let f = c.recv();
    assert_eq!(field_str(&f, "code"), "malformed");
    assert!(matches!(f.get("id"), Some(JsonValue::Null)));

    c.send(&req("{'id':2,'type':'teleport'}"));
    let f = c.recv();
    assert_eq!(field_str(&f, "code"), "invalid");
    assert_eq!(field_u64(&f, "id"), 2);

    c.send(&req("{'type':'parse','source':'x'}"));
    let f = c.recv();
    assert_eq!(field_str(&f, "code"), "invalid");

    // An over-long line is discarded up to its newline...
    c.send(&format!("{{\"id\":4,\"junk\":\"{}\"}}", "x".repeat(2048)));
    let f = c.recv();
    assert_eq!(field_str(&f, "code"), "too_large");

    // ...a source that fails to elaborate renders caret diagnostics...
    c.send(&req(
        "{'id':5,'type':'parse','source':'program broken\\nnonsense'}",
    ));
    let f = c.recv();
    assert_eq!(field_str(&f, "code"), "parse");

    // ...and the connection still serves real requests afterwards.
    let toy = json_str(TOY);
    c.send(&req(&format!("{{'id':6,'type':'parse','source':'{toy}'}}")));
    let (f, _) = c.recv_terminal(6);
    assert_eq!(field_str(&f, "type"), "result");
    server.shutdown();
}

#[test]
fn timeout_and_budget_become_typed_errors() {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("binds");
    let mut c = Client::connect(&server);
    let toy = json_str(TOY);

    // timeout_ms = 0 expires before the first iteration: deterministic.
    c.send(&req(&format!(
        "{{'id':1,'type':'solve','source':'{toy}','timeout_ms':0}}"
    )));
    let (f, _) = c.recv_terminal(1);
    assert_eq!(field_str(&f, "code"), "timeout");

    // A 1-node budget trips the symbolic engine immediately.
    c.send(&req(&format!(
        "{{'id':2,'type':'solve','source':'{toy}','engine':'symbolic','node_budget':1}}"
    )));
    let (f, _) = c.recv_terminal(2);
    assert_eq!(field_str(&f, "code"), "budget", "got {f:?}");

    // Both errors were frames, not disconnects.
    c.send(&req(&format!("{{'id':3,'type':'solve','source':'{toy}'}}")));
    let (f, _) = c.recv_terminal(3);
    assert_eq!(field_str(&f, "outcome"), "converged");
    server.shutdown();
}

#[test]
fn progress_streams_and_solve_matches_direct_library_calls() {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("binds");
    let mut c = Client::connect(&server);
    let muddy = kpt_core::muddy_children_kpt(2);

    let (_, kbp) = kpt_core::load_kpt(muddy).expect("parses");
    let direct = kbp.solve_iterative(64).expect("solves");
    let (want_states, want_iters) = match &direct {
        kpt_core::IterativeOutcome::Converged {
            solution,
            iterations,
        } => (solution.count(), *iterations as u64),
        other => panic!("muddy children should converge, got {other:?}"),
    };
    assert!(want_iters > 1, "need a multi-iteration solve for progress");

    c.send(&with_source("'id':9,'type':'solve',", muddy));
    let (f, progress) = c.recv_terminal(9);
    assert_eq!(field_str(&f, "outcome"), "converged");
    assert_eq!(field_u64(&f, "iterations"), want_iters);
    assert_eq!(field_u64(&f, "solution_states"), want_states);
    assert_eq!(
        per_iteration(&progress),
        (1..=want_iters).collect::<Vec<_>>(),
        "one server.solve.progress frame per eq. (25) iteration"
    );

    // A repeat solve is served from the converged-solution cache with
    // identical numbers.
    c.send(&with_source("'id':10,'type':'solve',", muddy));
    let (f, _) = c.recv_terminal(10);
    assert_eq!(field_u64(&f, "iterations"), want_iters);
    assert_eq!(field_u64(&f, "solution_states"), want_states);
    assert_eq!(f.get("cached").and_then(JsonValue::as_bool), Some(true));

    // The symbolic engine streams the same one-frame-per-iteration
    // progress and agrees with a direct `SymbolicKbp` solve.
    let skbp = kpt_bdd::SymbolicKbp::from_program(kbp.program()).expect("translates");
    let (sym_states, sym_iters) = match skbp.solve_iterative(64).expect("solves") {
        kpt_bdd::SymbolicOutcome::Converged {
            solution,
            iterations,
        } => (solution.count(), iterations as u64),
        other => panic!("muddy children should converge symbolically, got {other:?}"),
    };
    c.send(&with_source(
        "'id':11,'type':'solve','engine':'symbolic',",
        muddy,
    ));
    let (f, progress) = c.recv_terminal(11);
    assert_eq!(field_str(&f, "engine"), "symbolic");
    assert_eq!(field_str(&f, "outcome"), "converged");
    assert_eq!(field_u64(&f, "iterations"), sym_iters);
    assert_eq!(field_u64(&f, "solution_states"), sym_states);
    assert_eq!(
        per_iteration(&progress),
        (1..=sym_iters).collect::<Vec<_>>(),
        "one server.solve.progress frame per symbolic iteration"
    );
    server.shutdown();
}

/// A frame's fields other than `id` and `cached`.
fn outcome_of(f: &JsonValue) -> std::collections::BTreeMap<String, JsonValue> {
    let JsonValue::Object(fields) = f else {
        panic!("frame is not an object: {f:?}")
    };
    let mut fields = fields.clone();
    fields.remove("id");
    fields.remove("cached");
    fields
}

#[test]
fn repeat_solves_are_answered_from_the_model() {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("binds");
    let mut c = Client::connect(&server);
    let figure1 = kpt_core::figure1_kpt();
    let mut id = 0;
    let mut solve = |c: &mut Client, extra: &str, source: &str| {
        id += 1;
        c.send(&with_source(
            &format!("'id':{id},'type':'solve',{extra}"),
            source,
        ));
        c.recv_terminal(id)
    };
    for (extra, source, outcome) in [
        ("", TOY, "converged"),
        ("'engine':'symbolic',", TOY, "converged"),
        ("", figure1, "cycle"),
    ] {
        let (first, progress) = solve(&mut c, extra, source);
        assert_eq!(field_str(&first, "outcome"), outcome, "got {first:?}");
        assert_eq!(
            first.get("cached").and_then(JsonValue::as_bool),
            Some(false)
        );
        assert!(!progress.is_empty(), "a computed solve streams progress");
        let (second, progress) = solve(&mut c, extra, source);
        assert_eq!(
            second.get("cached").and_then(JsonValue::as_bool),
            Some(true)
        );
        assert_eq!(outcome_of(&second), outcome_of(&first));
        assert!(progress.is_empty(), "a cached solve streams no progress");
    }
    // Figure 1 cycles from its first steps; a cap below the step that
    // found the cycle runs out, and the stored cycle says so too.
    let (f, progress) = solve(&mut c, "'max_iterations':1,", figure1);
    assert_eq!(field_str(&f, "outcome"), "inconclusive", "got {f:?}");
    assert_eq!(field_u64(&f, "iterations"), 1);
    assert_eq!(f.get("cached").and_then(JsonValue::as_bool), Some(true));
    assert!(progress.is_empty());
    server.shutdown();
}

/// One saturated worker: a long-running solve occupies the single worker,
/// the single queue slot holds the cancel target, a third request is
/// refused `busy`, and cancelling the queued request yields a typed
/// `cancelled` error — all deterministic because the blocker cannot
/// finish in the microseconds these frames take.
#[test]
fn backpressure_and_cancellation_under_a_saturated_pool() {
    let config = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    };
    let mut server = Server::bind("127.0.0.1:0", config).expect("binds");
    let mut c = Client::connect(&server);
    let toy = json_str(TOY);

    // Russian cards: ~459k states with knowledge guards — the solve runs
    // far longer than this test's frame churn. Its source contains
    // apostrophes, so build the frame with real quotes (no `req`).
    c.send(&format!(
        "{{\"id\":11,\"type\":\"solve\",\"source\":\"{}\"}}",
        json_str(kpt_core::russian_cards_kpt())
    ));
    // Wait for the first streamed progress frame (the frontier rounds of
    // the first eq. (25) iteration): the single worker is now provably
    // inside the blocker, so the next request occupies the only queue
    // slot and the one after is refused.
    let p = c.recv_progress(11);
    assert!(field_str(&p, "kind").ends_with(".progress"), "got {p:?}");
    c.send(&req(&format!(
        "{{'id':12,'type':'solve','source':'{toy}'}}"
    )));
    c.send(&req(&format!(
        "{{'id':13,'type':'solve','source':'{toy}'}}"
    )));
    let (f, _) = c.recv_terminal(13);
    assert_eq!(field_str(&f, "code"), "busy", "queue slot was held by 12");

    c.send(&req("{'id':14,'type':'cancel','target':12}"));
    let (f, _) = c.recv_terminal(14);
    assert_eq!(f.get("cancelled").and_then(JsonValue::as_bool), Some(true));

    let (f, _) = c.recv_terminal(12);
    assert_eq!(field_str(&f, "code"), "cancelled");

    // Cancelling something unknown reports false, not an error.
    c.send(&req("{'id':15,'type':'cancel','target':999}"));
    let (f, _) = c.recv_terminal(15);
    assert_eq!(f.get("cancelled").and_then(JsonValue::as_bool), Some(false));

    // The blocker still completes normally.
    let (f, _) = c.recv_terminal(11);
    assert_eq!(field_str(&f, "outcome"), "converged", "got {f:?}");
    server.shutdown();
}

#[test]
fn shutdown_drains_accepted_work_before_closing() {
    let config = ServerConfig {
        workers: 2,
        sessions: SessionConfig {
            max_models: 4,
            max_bytes: u64::MAX,
        },
        ..ServerConfig::default()
    };
    let mut server = Server::bind("127.0.0.1:0", config).expect("binds");
    let mut c = Client::connect(&server);
    let toy = json_str(TOY);

    const N: u64 = 20;
    for id in 1..=N {
        c.send(&req(&format!(
            "{{'id':{id},'type':'solve','source':'{toy}'}}"
        )));
    }
    c.send(&req("{'id':99,'type':'shutdown'}"));

    // Every accepted request gets its terminal frame before the stream
    // closes; none may simply vanish.
    let mut terminals: HashMap<u64, String> = HashMap::new();
    while let Some(f) = c.try_recv() {
        let t = field_str(&f, "type").to_owned();
        if t == "progress" {
            continue;
        }
        terminals.insert(field_u64(&f, "id"), t);
        if terminals.len() as u64 == N + 1 {
            break;
        }
    }
    assert_eq!(terminals.get(&99).map(String::as_str), Some("result"));
    for id in 1..=N {
        assert_eq!(
            terminals.get(&id).map(String::as_str),
            Some("result"),
            "request {id} was accepted before shutdown and must be answered"
        );
    }
    // The shutdown request unblocks wait(); the drain then closes the
    // stream for good.
    server.wait();
    server.shutdown();
    assert!(c.try_recv().is_none(), "stream is closed after drain");
}
