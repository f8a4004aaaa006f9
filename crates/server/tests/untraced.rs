//! A server streams progress without turning tracing on. This is its own
//! test binary: tracing is process-wide, and no other test here enables
//! it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use kpt_obs::JsonValue;
use kpt_server::{Server, ServerConfig};

#[test]
fn serving_a_solve_leaves_tracing_off() {
    if ["KPT_TRACE", "KPT_PROFILE"]
        .iter()
        .any(|v| std::env::var_os(v).is_some_and(|p| !p.is_empty()))
    {
        eprintln!("KPT_TRACE or KPT_PROFILE is set: tracing is on by request; nothing to check");
        return;
    }
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("binds");
    let stream = TcpStream::connect(server.local_addr()).expect("connects");
    let mut writer = stream.try_clone().expect("clones");
    let mut reader = BufReader::new(stream);
    let mut source = String::new();
    kpt_obs::json_escape_into(&kpt_core::muddy_children_kpt(2), &mut source);
    writer
        .write_all(format!("{{\"id\":1,\"type\":\"solve\",\"source\":\"{source}\"}}\n").as_bytes())
        .expect("writes");
    let mut iterations = Vec::new();
    let terminal = loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("reads") > 0, "EOF");
        let f = kpt_obs::parse_json(line.trim_end()).expect("frame is JSON");
        if f.get("type").and_then(JsonValue::as_str) != Some("progress") {
            break f;
        }
        if f.get("kind").and_then(JsonValue::as_str) == Some("server.solve.progress") {
            iterations.push(f.get("iteration").and_then(JsonValue::as_u64));
        }
    };
    server.shutdown();
    assert_eq!(
        terminal.get("outcome").and_then(JsonValue::as_str),
        Some("converged")
    );
    assert!(iterations.len() > 1, "a multi-iteration solve streamed");
    assert_eq!(
        iterations,
        (1..=iterations.len() as u64).map(Some).collect::<Vec<_>>()
    );
    assert!(!kpt_obs::trace_enabled(), "serving left tracing on");
    assert!(kpt_obs::recent_events().is_empty(), "the trace ring filled");
}
