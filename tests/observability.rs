//! End-to-end checks of the observability layer (`kpt-obs`): a traced run
//! must produce a valid JSONL file covering every instrumented subsystem,
//! and failed obligations must carry witnesses naming concrete states.
//!
//! The trace sink is process-global, so everything that installs or tears
//! down a sink lives in **one** test function; the verdict tests below it
//! only inspect returned `Verdict` values and are sink-agnostic.

use knowledge_pt::prelude::*;
use kpt_core::KnowledgeContext;
use kpt_obs::{parse_json, JsonValue};
use kpt_transformers::sst_frontier;
use kpt_unity::explain_property;

/// The subsystems the ISSUE requires a trace to cover.
const REQUIRED_KIND_PREFIXES: [&str; 6] = ["fixpoint", "cache", "pool", "solver", "bdd", "lint"];

#[test]
fn traced_run_emits_valid_jsonl_covering_all_subsystems() {
    let path = std::env::temp_dir().join(format!(
        "kpt_obs_test_{}_{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let path_str = path.to_str().expect("utf-8 temp path").to_owned();
    let _ = std::fs::remove_file(&path);
    kpt_obs::trace_to_file(&path_str).expect("install trace sink");

    // fixpoint.*: a frontier SI sweep and (inside `compile`) Kleene runs.
    let n = 64u64;
    let chain_space = StateSpace::builder()
        .nat_var("i", n)
        .unwrap()
        .build()
        .unwrap();
    let t = DetTransition::from_fn(&chain_space, move |i| if i + 1 < n { i + 1 } else { i });
    let init = Predicate::from_indices(&chain_space, [0]);
    let reach = sst_frontier(std::slice::from_ref(&t), &init);
    assert_eq!(reach.count(), n);

    // cache.knowledge: a context that sees hits and misses, then drops.
    {
        let space = StateSpace::builder()
            .bool_var("a")
            .unwrap()
            .bool_var("b")
            .unwrap()
            .build()
            .unwrap();
        let views = vec![("P".to_owned(), VarSet::from_vars(space.vars().take(1)))];
        let si = Predicate::tt(&space);
        let ctx = KnowledgeContext::new(&space, views, si).unwrap();
        let view = ctx.views()[0].1;
        let p = Predicate::from_fn(&space, |s| s % 2 == 0);
        let _ = ctx.knows_view(view, &p); // miss
        let _ = ctx.knows_view(view, &p); // hit
    } // Drop emits the cache.knowledge summary event.

    // pool.map: force the multi-worker path (nproc may be 1).
    let items: Vec<u64> = (0..64).collect();
    let doubled = kpt_testkit::pool::parallel_map_with(2, &items, |x| x * 2);
    assert_eq!(doubled[63], 126);

    // lint.*: the full pipeline over Figure 1 emits per-pass spans, and
    // the dataflow pass records its SCC/widening metrics.
    let fig1 = figure1().unwrap();
    let lint_report = knowledge_pt::lint::lint_kbp(&fig1);
    assert!(lint_report.has(DiagnosticCode::KnowledgeDependencyCycle));

    // solver.exhaustive + verdict.fail: Figure 1 has no solution, and its
    // explanation reports the initial state as a witness.
    let sols = fig1.solve_exhaustive(16).unwrap();
    assert!(sols.is_empty());
    let verdict = fig1.explain_solutions("figure1", &sols);
    assert!(!verdict.holds);

    // solver.compile_at: an explicit solve of a program with one
    // knowledge-free and one knowledge guard evaluates the knowledge-free
    // guard at its first candidate only.
    let counter_space = StateSpace::builder()
        .nat_var("i", 4)
        .unwrap()
        .bool_var("done")
        .unwrap()
        .build()
        .unwrap();
    let mixed = Program::builder("mixed", &counter_space)
        .init_str("i = 0 /\\ ~done")
        .unwrap()
        .process("P", ["i"])
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
                .guard_str("K{P}(i >= 2)")
                .unwrap()
                .assign_str("done", "1")
                .unwrap(),
        )
        .build()
        .unwrap();
    let mixed_outcome = Kbp::new(mixed).solve_iterative(16).unwrap();
    assert!(mixed_outcome.solution().is_some(), "{mixed_outcome:?}");

    // bdd.*: a symbolic solve produces the hierarchical span tree
    // (solver → fixpoint → sp/and_exists) plus manager gauge samples.
    let muddy = kpt_core::muddy_children_n(3).unwrap();
    let sym = SymbolicKbp::from_program(muddy.program()).unwrap();
    assert!(matches!(
        sym.solve_iterative(16).unwrap(),
        SymbolicOutcome::Converged { .. }
    ));

    kpt_obs::disable_trace();

    // Every line must parse as a JSON object with `kind` and `ts_us`, and
    // the kinds must cover all four instrumented subsystems.
    let text = std::fs::read_to_string(&path).expect("read trace file");
    let mut kinds: Vec<String> = Vec::new();
    let mut events: Vec<JsonValue> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v =
            parse_json(line).unwrap_or_else(|e| panic!("trace line {}: {e}: {line}", lineno + 1));
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("trace line {} has no kind", lineno + 1));
        assert!(
            v.get("ts_us").and_then(JsonValue::as_u64).is_some(),
            "trace line {} has no ts_us",
            lineno + 1
        );
        kinds.push(kind.to_owned());
        events.push(v);
    }
    assert!(!kinds.is_empty(), "trace file is empty");
    for prefix in REQUIRED_KIND_PREFIXES {
        assert!(
            kinds.iter().any(|k| k.starts_with(prefix)),
            "no event kind starting with {prefix:?} in {kinds:?}"
        );
    }

    // Both engines' `K p` memos leave the same per-drop summary: the
    // explicit context above and each symbolic candidate's operator.
    for kind in ["cache.knowledge", "bdd.cache.knowledge"] {
        let summary = events
            .iter()
            .find(|e| e.get("kind").and_then(JsonValue::as_str) == Some(kind))
            .unwrap_or_else(|| panic!("no {kind} event in {kinds:?}"));
        for field in ["hits", "misses", "evictions", "entries"] {
            assert!(
                summary.get(field).and_then(JsonValue::as_u64).is_some(),
                "{kind} without {field}: {summary:?}"
            );
        }
        assert!(
            summary
                .get("hit_ratio")
                .and_then(JsonValue::as_f64)
                .is_some(),
            "{kind} without hit_ratio: {summary:?}"
        );
    }

    // unity.compile: every compile above (the exhaustive search compiles
    // Figure 1 at each candidate) reports its statements and moved states.
    let compile = events
        .iter()
        .find(|e| e.get("kind").and_then(JsonValue::as_str) == Some("unity.compile"))
        .expect("no unity.compile span in trace");
    assert!(
        compile.get("statements").and_then(JsonValue::as_u64) > Some(0),
        "unity.compile without statements: {compile:?}"
    );
    assert!(
        compile
            .get("moved_states")
            .and_then(JsonValue::as_u64)
            .is_some(),
        "unity.compile without moved_states: {compile:?}"
    );

    // solver.compile_at: under the one explicit iterative solve, the first
    // candidate evaluates both guards and every later one reuses the
    // knowledge-free guard.
    let iterative: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.get("kind").and_then(JsonValue::as_str) == Some("solver.iterative"))
        .filter_map(|e| e.get("span_id").and_then(JsonValue::as_u64))
        .collect();
    let compile_at: Vec<(Option<u64>, Option<u64>)> = events
        .iter()
        .filter(|e| {
            e.get("kind").and_then(JsonValue::as_str) == Some("solver.compile_at")
                && e.get("parent_id")
                    .and_then(JsonValue::as_u64)
                    .is_some_and(|p| iterative.contains(&p))
        })
        .map(|e| {
            (
                e.get("static_guards").and_then(JsonValue::as_u64),
                e.get("knowledge_guards").and_then(JsonValue::as_u64),
            )
        })
        .collect();
    assert!(
        compile_at.len() >= 2,
        "solver.compile_at spans: {compile_at:?}"
    );
    assert_eq!(compile_at[0], (Some(0), Some(1)));
    assert!(
        compile_at[1..].iter().all(|&f| f == (Some(1), Some(1))),
        "solver.compile_at spans: {compile_at:?}"
    );

    // Span schema round-trip: every closed span carries a process-unique
    // id, and the call tree reconstructs — `bdd.fixpoint` spans nest under
    // the symbolic solver's span.
    let mut span_ids = std::collections::BTreeSet::new();
    for e in &events {
        if e.get("dur_us").is_some() {
            let id = e
                .get("span_id")
                .and_then(JsonValue::as_u64)
                .expect("span event without span_id");
            assert!(span_ids.insert(id), "duplicate span_id {id}");
        }
    }
    let solver_ids: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.get("kind").and_then(JsonValue::as_str) == Some("bdd.solver.iterative"))
        .filter_map(|e| e.get("span_id").and_then(JsonValue::as_u64))
        .collect();
    assert!(!solver_ids.is_empty(), "no bdd.solver.iterative span");
    let nested = events.iter().any(|e| {
        e.get("kind").and_then(JsonValue::as_str) == Some("bdd.fixpoint")
            && e.get("parent_id")
                .and_then(JsonValue::as_u64)
                .is_some_and(|p| solver_ids.contains(&p))
    });
    assert!(nested, "no bdd.fixpoint span parented by the solver span");

    // The reconstructed tree drives the profile exports: the folded stack
    // for the solver's fixpoint must attribute through the solver frame.
    let records: Vec<kpt_obs::SpanRecord> = events
        .iter()
        .filter_map(|e| {
            Some(kpt_obs::SpanRecord {
                id: e.get("span_id").and_then(JsonValue::as_u64)?,
                parent: e.get("parent_id").and_then(JsonValue::as_u64),
                kind: e.get("kind").and_then(JsonValue::as_str)?.to_owned(),
                dur_us: e.get("dur_us").and_then(JsonValue::as_f64)?,
            })
        })
        .collect();
    assert!(
        kpt_obs::folded_stacks(&records)
            .iter()
            .any(|(stack, _)| stack.contains("bdd.solver.iterative;bdd.fixpoint")),
        "folded stacks miss the solver;fixpoint frame"
    );
    let aggregates = kpt_obs::aggregate_spans(&records);
    let solver = aggregates
        .iter()
        .find(|a| a.label == "bdd.solver.iterative")
        .expect("solver aggregate");
    assert!(
        solver.self_us <= solver.total_us,
        "self-time exceeds total: {solver:?}"
    );

    // Resource gauges: manager safe points sampled live-node counts into
    // the trace, and the gauge metric survives in the registry snapshot.
    let gauge_event = events
        .iter()
        .find(|e| e.get("kind").and_then(JsonValue::as_str) == Some("bdd.gauge"))
        .expect("no bdd.gauge event in trace");
    assert!(
        gauge_event
            .get("live_nodes")
            .and_then(JsonValue::as_u64)
            .is_some(),
        "bdd.gauge without live_nodes"
    );
    let snapshot = kpt_obs::metrics_snapshot();
    assert!(
        snapshot.iter().any(|m| m.name == "bdd.nodes.live"
            && matches!(m.value, kpt_obs::MetricValue::Gauge(n) if n > 0)),
        "bdd.nodes.live gauge missing from the metrics snapshot"
    );
    // The dataflow pass's metrics survive in the registry: Figure 1's
    // grant/take cycle is a cyclic SCC, and every component size was
    // recorded in the histogram.
    assert!(
        snapshot
            .iter()
            .any(|m| m.name == "lint.dataflow.cyclic_sccs"
                && matches!(m.value, kpt_obs::MetricValue::Counter(n) if n > 0)),
        "lint.dataflow.cyclic_sccs counter missing or zero"
    );
    assert!(
        snapshot.iter().any(|m| m.name == "lint.dataflow.scc_size"
            && matches!(&m.value, kpt_obs::MetricValue::Histogram(h) if h.count > 0)),
        "lint.dataflow.scc_size histogram missing or empty"
    );
    // The failed-solution verdict made it into the trace with its witness.
    let fail_line = text
        .lines()
        .find(|l| l.contains("\"kind\":\"verdict.fail\""))
        .expect("verdict.fail event in trace");
    let fail = parse_json(fail_line).unwrap();
    let ws = fail
        .get("witness_states")
        .and_then(JsonValue::as_str)
        .expect("witness_states field");
    assert!(ws.contains("shared=false"), "witness decodes vars: {ws}");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_kbp_verdict_names_a_concrete_initial_state() {
    // Figure 1's no-solution outcome (§4 of the paper) must explain itself
    // with at least one decoded state, not a bare `false`.
    let fig1 = figure1().unwrap();
    let sols = fig1.solve_exhaustive(16).unwrap();
    let verdict = fig1.explain_solutions("figure1", &sols);
    assert!(!verdict.holds);
    assert!(!verdict.witnesses.is_empty(), "no witnesses: {verdict}");
    let w = &verdict.witnesses[0];
    assert!(
        w.assignment.iter().any(|(name, _)| name == "shared"),
        "witness lacks variable names: {w}"
    );
    // The rendering is the human-facing contract: variable=value pairs.
    assert!(verdict.to_string().contains("shared=false"), "{verdict}");
}

#[test]
fn failed_invariant_verdict_names_a_concrete_violating_state() {
    // x starts false and a single statement sets it: `invariant ~x` fails
    // exactly at the reachable state with x=true.
    let space = StateSpace::builder()
        .bool_var("x")
        .unwrap()
        .build()
        .unwrap();
    let program = Program::builder("toggle", &space)
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
        .unwrap()
        .compile()
        .unwrap();
    let not_x = Predicate::from_fn(&space, |s| s == 0);
    let verdict = explain_property(&program, "~x", &Property::Invariant(not_x));
    assert!(!verdict.holds);
    assert!(
        verdict
            .witnesses
            .iter()
            .any(|w| w.assignment.contains(&("x".to_owned(), "true".to_owned()))),
        "expected a witness with x=true: {verdict}"
    );
}
