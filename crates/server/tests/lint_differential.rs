//! Lint through the session arena is transparent: a `lint` request's
//! terminal frame is byte-for-byte the frame built from
//! `kpt_lint::lint_source` on the same text, for every in-tree `.kpt`
//! source and both `symbolic` settings, and a repeated lint is an arena
//! hit that does no model work.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;

use kpt_obs::JsonValue;
use kpt_server::{codes, Frame, RequestKind, Server, ServerConfig};

/// A client that keeps every frame's raw line, for byte comparisons.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.local_addr()).expect("connects");
        Client {
            writer: stream.try_clone().expect("clones"),
            reader: BufReader::new(stream),
        }
    }

    /// Send one `lint` request and read to its terminal frame, returning
    /// `(terminal line, progress frames)`. One request is in flight at a
    /// time, so every frame read belongs to it.
    fn lint(&mut self, id: u64, source: &str, symbolic: bool) -> (String, Vec<JsonValue>) {
        let mut text = String::new();
        kpt_obs::json_escape_into(source, &mut text);
        let frame = format!(
            "{{\"id\":{id},\"type\":\"lint\",\"source\":\"{text}\",\"symbolic\":{symbolic}}}\n"
        );
        self.writer.write_all(frame.as_bytes()).expect("writes");
        let mut progress = Vec::new();
        loop {
            let mut line = String::new();
            assert!(self.reader.read_line(&mut line).expect("reads") > 0, "EOF");
            let line = line.trim_end().to_owned();
            let f = kpt_obs::parse_json(&line).expect("frame is JSON");
            assert_eq!(f.get("id").and_then(JsonValue::as_u64), Some(id));
            if f.get("type").and_then(JsonValue::as_str) == Some("progress") {
                progress.push(f);
            } else {
                return (line, progress);
            }
        }
    }
}

/// The terminal frame the server sent before lint went through the arena:
/// `lint_source` on the request text.
fn expected_frame(id: u64, source: &str, symbolic: bool) -> String {
    let options = kpt_lint::LintOptions {
        symbolic,
        ..kpt_lint::LintOptions::default()
    };
    match kpt_lint::lint_source(source, &options) {
        Ok(report) => {
            let mut f = Frame::result(id, RequestKind::Lint);
            f.u64_field("errors", report.error_count() as u64);
            f.u64_field("warnings", report.warning_count() as u64);
            f.raw_field("report", &report.to_json());
            f.finish()
        }
        Err(e) => Frame::error(Some(id), codes::PARSE, &e.render(source)).finish(),
    }
}

/// Every `.kpt` file in `dir` (relative to the repository root), sorted.
fn kpt_files(dir: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(dir);
    let mut files: Vec<_> = std::fs::read_dir(&root)
        .unwrap_or_else(|e| panic!("{}: {e}", root.display()))
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "kpt"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("model reads");
            (p.display().to_string(), text)
        })
        .collect()
}

#[test]
fn arena_lint_frames_match_lint_source_byte_for_byte() {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("binds");
    let mut c = Client::connect(&server);
    let mut sources = kpt_files("tests/corpus");
    let corpus = sources.len();
    sources.extend(kpt_files("benchmark/models"));
    assert!(
        corpus >= 6 && sources.len() > corpus,
        "found the model sets"
    );
    let mut id = 0;
    for (path, source) in &sources {
        // Each flag twice: the first answer is computed, the second cached.
        for symbolic in [false, true, false, true] {
            id += 1;
            let (got, _) = c.lint(id, source, symbolic);
            assert_eq!(
                got,
                expected_frame(id, source, symbolic),
                "{path} with symbolic={symbolic}"
            );
        }
    }
    server.shutdown();
}

#[test]
fn unelaborable_source_gets_the_same_parse_error_frame() {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("binds");
    let mut c = Client::connect(&server);
    // Parses, then fails to elaborate: the init names an undeclared variable.
    let source = "program bad\ndeclare\n  x : boolean\nprocesses\n  P = {x}\n\
                  init\n  ~y\nassign\n  set: x := 1 if ~x\n";
    assert!(kpt_lint::lint_source(source, &kpt_lint::LintOptions::default()).is_err());
    for (id, symbolic) in [(1, true), (2, false)] {
        let (got, progress) = c.lint(id, source, symbolic);
        assert_eq!(got, expected_frame(id, source, symbolic));
        assert!(got.contains("\"code\":\"parse\""), "{got}");
        assert!(progress.is_empty());
    }
    assert!(server.sessions().is_empty(), "failures are not cached");
    server.shutdown();
}

#[test]
fn repeated_lint_is_an_arena_hit_without_progress_frames() {
    let mut server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("binds");
    let mut c = Client::connect(&server);
    let source = kpt_core::muddy_children_kpt(3);
    let hits = kpt_obs::counter("server.sessions.hits");

    let (first, progress) = c.lint(1, &source, true);
    assert!(
        !progress.is_empty(),
        "the first symbolic lint computes an SI and streams its rounds"
    );
    let (arena_hits, counted) = (server.sessions().hits(), hits.get());

    let (second, progress) = c.lint(2, &source, true);
    assert!(progress.is_empty(), "a cached lint streams no progress");
    assert_eq!(server.sessions().hits(), arena_hits + 1);
    assert!(hits.get() > counted, "server.sessions.hits rises");
    assert_eq!(server.sessions().misses(), 1);
    // Same answer, bar the request id.
    assert_eq!(
        first.replacen("\"id\":1,", "", 1),
        second.replacen("\"id\":2,", "", 1)
    );
    server.shutdown();
}
