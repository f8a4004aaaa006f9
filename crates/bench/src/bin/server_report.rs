//! kpt-server load report: smoke-checks the wire protocol, fires a
//! pipelined burst of mixed JSONL requests at an in-process server and
//! verifies every id gets exactly one uncorrupted terminal frame, then
//! measures closed-loop request latency warm (repeated sources, served
//! from the session arena), on lint misses (every lint source new), and
//! under session-arena eviction churn. Writes `BENCH_server.json`
//! (throughput + p50/p99 cases) plus a one-shot table on stdout; exits
//! nonzero if any smoke or integrity check fails.
//!
//! Usage: `cargo run --release -p kpt-bench --bin server_report`
//! (`KPT_BENCH_JSON` overrides the output path, `KPT_BENCH_FAST=1` runs a
//! shorter closed-loop phase; the burst stays at `BURST_CONNS ×
//! BURST_PER_CONN` requests in both modes).

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::time::Instant;

use kpt_obs::JsonValue;
use kpt_server::{Server, ServerConfig, SessionConfig};
use kpt_testkit::{results_to_json, CaseResult};

const BURST_CONNS: usize = 25;
const BURST_PER_CONN: usize = 40;

/// The toy model every fast request exercises.
const TOY: &str = "program toy\ndeclare\n  req : boolean\n  done : boolean\nprocesses\n  \
                   C = {req}\n  S = {req, done}\ninit\n  ~req /\\ ~done\nassign\n  \
                   request: req := 1 if ~req\n  [] serve: done := 1 if req /\\ ~done\n";

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connects to server");
        Client {
            writer: stream.try_clone().expect("stream clones"),
            reader: BufReader::new(stream),
        }
    }

    fn send(&mut self, frame: &str) {
        self.writer
            .write_all(format!("{frame}\n").as_bytes())
            .expect("request writes");
    }

    fn recv(&mut self) -> JsonValue {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("frame reads");
        assert!(n > 0, "server closed the stream mid-conversation");
        kpt_obs::parse_json(line.trim_end()).expect("server frame is JSON")
    }

    /// Read to the terminal (`result`/`error`) frame for `id`, skipping
    /// progress frames. Panics on a frame for any other id: callers use
    /// one in-flight request per connection.
    fn recv_terminal(&mut self, id: u64) -> JsonValue {
        loop {
            let f = self.recv();
            assert_eq!(
                f.get("id").and_then(JsonValue::as_u64),
                Some(id),
                "interleaved frame for another request on a serial connection"
            );
            if f.get("type").and_then(JsonValue::as_str) != Some("progress") {
                return f;
            }
        }
    }
}

fn field_str<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).unwrap_or("")
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    kpt_obs::json_escape_into(s, &mut out);
    out
}

fn solve_frame(id: u64, source: &str) -> String {
    format!(
        "{{\"id\":{id},\"type\":\"solve\",\"source\":\"{}\"}}",
        json_str(source)
    )
}

fn lint_frame(id: u64, source: &str) -> String {
    format!(
        "{{\"id\":{id},\"type\":\"lint\",\"source\":\"{}\"}}",
        json_str(source)
    )
}

fn check(ok: bool, what: &str) {
    if ok {
        println!("smoke: {what}: ok");
    } else {
        eprintln!("server_report: SMOKE FAILURE: {what}");
        std::process::exit(1);
    }
}

/// Protocol smoke: round-trips, malformed-frame recovery, cancel of an
/// unknown target, typed timeout — the cheap subset of the e2e suite,
/// run against the same server the load phases use.
fn smoke(server: &Server) {
    let mut c = Client::connect(server);

    c.send(&solve_frame(1, TOY));
    let f = c.recv_terminal(1);
    check(
        field_str(&f, "outcome") == "converged",
        "toy solve converges",
    );

    c.send("not json at all");
    let f = c.recv();
    check(
        field_str(&f, "code") == "malformed",
        "malformed frame yields a typed error",
    );

    c.send(&lint_frame(3, TOY));
    let f = c.recv_terminal(3);
    check(
        field_str(&f, "type") == "result",
        "connection survives the malformed frame",
    );

    c.send("{\"id\":4,\"type\":\"cancel\",\"target\":12345}");
    let f = c.recv_terminal(4);
    check(
        f.get("cancelled").and_then(JsonValue::as_bool) == Some(false),
        "cancel of an unknown target reports false",
    );

    c.send(&format!(
        "{{\"id\":5,\"type\":\"solve\",\"source\":\"{}\",\"timeout_ms\":0}}",
        json_str(TOY)
    ));
    let f = c.recv_terminal(5);
    check(
        field_str(&f, "code") == "timeout",
        "an expired deadline is a typed timeout error",
    );
}

/// The integrity phase: `BURST_CONNS` connections each pipeline
/// `BURST_PER_CONN` mixed requests (send everything, then read
/// everything), and every id must come back with exactly one uncorrupted
/// terminal `result`. Returns (total requests, wall seconds).
fn burst(server: &Server, sources: &[String]) -> (usize, f64) {
    let total = BURST_CONNS * BURST_PER_CONN;
    let start = Instant::now();
    let handles: Vec<_> = (0..BURST_CONNS)
        .map(|conn| {
            let mut c = Client::connect(server);
            let sources = sources.to_vec();
            std::thread::spawn(move || {
                let base = (conn as u64 + 1) * 10_000;
                for i in 0..BURST_PER_CONN {
                    let id = base + i as u64;
                    let src = &sources[(conn + i) % sources.len()];
                    // Mixed kinds: lint / solve / parse in rotation.
                    let frame = match i % 3 {
                        0 => lint_frame(id, src),
                        1 => solve_frame(id, src),
                        _ => format!(
                            "{{\"id\":{id},\"type\":\"parse\",\"source\":\"{}\"}}",
                            json_str(src)
                        ),
                    };
                    c.send(&frame);
                }
                // Workers complete out of order, so terminal frames for
                // this connection's ids arrive in any order: collect by
                // id and demand exactly one uncorrupted result each.
                let mut seen: std::collections::HashMap<u64, JsonValue> = Default::default();
                while seen.len() < BURST_PER_CONN {
                    let f = c.recv();
                    if f.get("type").and_then(JsonValue::as_str) == Some("progress") {
                        continue;
                    }
                    let id = f
                        .get("id")
                        .and_then(JsonValue::as_u64)
                        .expect("terminal frame carries its request id");
                    assert!(
                        (base..base + BURST_PER_CONN as u64).contains(&id),
                        "frame for a request this connection never sent: {id}"
                    );
                    assert_eq!(
                        field_str(&f, "type"),
                        "result",
                        "burst request {id} failed: {f:?}"
                    );
                    assert!(
                        seen.insert(id, f).is_none(),
                        "duplicate terminal frame for request {id}"
                    );
                }
                seen.len()
            })
        })
        .collect();
    let mut answered = 0usize;
    for h in handles {
        answered += h.join().expect("burst connection thread panicked");
    }
    let secs = start.elapsed().as_secs_f64();
    check(
        answered == total,
        &format!("burst: all {total} pipelined requests answered (got {answered})"),
    );
    (total, secs)
}

/// Closed-loop latency: `threads` clients each send one request at a
/// time over their own connection, alternating lint and solve across
/// `sources`. With `fresh_lints`, every lint source starts with its own
/// comment line, so each lint misses the session arena and elaborates
/// and lints from scratch. Returns (lint, solve) latency samples in ns.
fn closed_loop(
    server: &Server,
    sources: &[String],
    threads: usize,
    rounds: usize,
    fresh_lints: bool,
) -> LatencySets {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mut c = Client::connect(server);
            let sources = sources.to_vec();
            std::thread::spawn(move || {
                let mut lint = Vec::with_capacity(rounds);
                let mut solve = Vec::with_capacity(rounds);
                for r in 0..rounds {
                    let id = (t * rounds + r + 1) as u64;
                    let src = &sources[(t + r) % sources.len()];
                    let (frame, bucket) = if r % 2 == 0 && fresh_lints {
                        (
                            lint_frame(id, &format!("// lint miss {t}-{r}\n{src}")),
                            &mut lint,
                        )
                    } else if r % 2 == 0 {
                        (lint_frame(id, src), &mut lint)
                    } else {
                        (solve_frame(id, src), &mut solve)
                    };
                    let start = Instant::now();
                    c.send(&frame);
                    let f = c.recv_terminal(id);
                    bucket.push(start.elapsed().as_nanos() as u64);
                    assert_eq!(
                        field_str(&f, "type"),
                        "result",
                        "closed-loop request {id} failed: {f:?}"
                    );
                }
                (lint, solve)
            })
        })
        .collect();
    let mut all = LatencySets::default();
    for h in handles {
        let (lint, solve) = h.join().expect("closed-loop thread panicked");
        all.lint.extend(lint);
        all.solve.extend(solve);
    }
    all.lint.sort_unstable();
    all.solve.sort_unstable();
    all
}

#[derive(Default)]
struct LatencySets {
    lint: Vec<u64>,
    solve: Vec<u64>,
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// A latency distribution as a bench case: the median field carries the
/// gated statistic (the percentile), min/mean carry the distribution's
/// own min/mean so `bench_diff`'s spread term sees the real variance.
fn latency_case(case: &str, sorted: &[u64], p: f64) -> CaseResult {
    let mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
    CaseResult {
        group: "server".to_owned(),
        case: case.to_owned(),
        median_ns: percentile(sorted, p) as f64,
        mean_ns: mean,
        min_ns: sorted[0] as f64,
        samples: sorted.len(),
        iters_per_sample: 1,
    }
}

fn main() {
    let (config, fast) = kpt_bench::report_config("BENCH_server.json", 0, 0);
    let json_path = config.json_path.clone().expect("report json path");

    // Exercise real concurrency even on one core: two workers minimum.
    let workers = kpt_testkit::pool::num_threads().max(2);

    // Phase servers. The load server has an arena large enough that the
    // burst and latency phases measure the warm steady state; the churn
    // server's arena is deliberately too small for its rotation, so LRU
    // eviction is part of every measured solve.
    let mut load_server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            queue_capacity: 2 * BURST_CONNS * BURST_PER_CONN,
            ..ServerConfig::default()
        },
    )
    .expect("load server binds");
    let mut churn_server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            sessions: SessionConfig {
                max_models: 2,
                max_bytes: 64 << 20,
            },
            ..ServerConfig::default()
        },
    )
    .expect("churn server binds");

    // Cheap models for the steady-state phases; the full rotation (with
    // the heavyweight zoo members) only feeds the eviction phase, where
    // re-elaboration is the point.
    let cheap: Vec<String> = vec![TOY.to_owned(), kpt_core::muddy_children_kpt(2).to_owned()];
    let rotation: Vec<String> = vec![
        TOY.to_owned(),
        kpt_core::muddy_children_kpt(2).to_owned(),
        kpt_core::attacking_generals_kpt().to_owned(),
        kpt_core::dining_cryptographers_kpt().to_owned(),
    ];

    smoke(&load_server);

    let (burst_total, burst_secs) = burst(&load_server, &cheap);
    let throughput = burst_total as f64 / burst_secs;

    let (threads, rounds) = if fast { (4, 30) } else { (4, 150) };
    let lat = closed_loop(&load_server, &cheap, threads, rounds, false);
    let miss = closed_loop(&load_server, &cheap, threads, rounds, true);

    let (churn_threads, churn_rounds) = if fast { (2, 8) } else { (2, 24) };
    let churn = closed_loop(&churn_server, &rotation, churn_threads, churn_rounds, false);

    let sessions = churn_server.sessions();
    let (hits, misses, evictions) = (sessions.hits(), sessions.misses(), sessions.evictions());
    check(
        evictions > 0,
        "rotating 4 models through a 2-model arena actually evicts",
    );

    let results = vec![
        CaseResult {
            group: "server".to_owned(),
            case: "burst_request".to_owned(),
            median_ns: burst_secs * 1e9 / burst_total as f64,
            mean_ns: burst_secs * 1e9 / burst_total as f64,
            // Per-request cost at perfect parallelism: the achievable
            // floor, so the spread term reflects scheduling variance.
            min_ns: burst_secs * 1e9 / (burst_total as f64 * workers as f64),
            samples: burst_total,
            iters_per_sample: 1,
        },
        latency_case("lint_p50", &lat.lint, 0.50),
        latency_case("lint_p99", &lat.lint, 0.99),
        latency_case("lint_miss_p50", &miss.lint, 0.50),
        latency_case("solve_p50", &lat.solve, 0.50),
        latency_case("solve_p99", &lat.solve, 0.99),
        latency_case("evict_solve_p50", &churn.solve, 0.50),
    ];

    println!("\n== kpt-server load report ({workers} workers) ==");
    println!(
        "burst      {burst_total} pipelined requests over {BURST_CONNS} connections in \
         {burst_secs:.3}s ({throughput:.0} req/s)"
    );
    for (name, set) in [
        ("lint", &lat.lint),
        ("lint miss", &miss.lint),
        ("solve", &lat.solve),
        ("evict", &churn.solve),
    ] {
        println!(
            "{name:<10} n={:<5} p50={:>9.1}µs  p99={:>9.1}µs  min={:>9.1}µs",
            set.len(),
            percentile(set, 0.50) as f64 / 1e3,
            percentile(set, 0.99) as f64 / 1e3,
            set[0] as f64 / 1e3,
        );
    }
    println!("sessions   churn arena: hits={hits} misses={misses} evictions={evictions}");

    load_server.shutdown();
    churn_server.shutdown();

    std::fs::write(&json_path, results_to_json(&results)).expect("report writes");
    println!("results written to {json_path}");
}
