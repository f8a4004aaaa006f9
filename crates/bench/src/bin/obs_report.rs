//! Observability reporter: turn a `KPT_TRACE` JSONL file into a human
//! summary, validate trace files in CI, and benchmark the observability
//! layer itself.
//!
//! Usage:
//!
//! * `obs_report <trace.jsonl>` — per-kind event counts, total/mean span
//!   durations, pool work distribution, and every verdict with its
//!   witnesses.
//! * `obs_report --validate <trace.jsonl>` — every line must parse as a
//!   JSON object with `ts_us`/`kind`, the trace must cover the six
//!   instrumented subsystems (`fixpoint`, `cache`, `pool`, `solver`,
//!   `bdd`, `lint`), span events must carry `span_id`, and any
//!   `trace.dropped` ring-overflow markers must carry their running
//!   `dropped` count. Exits non-zero otherwise.
//! * `obs_report --flame <trace.jsonl> [out.folded]` — reconstruct the
//!   span tree from the trace and emit flamegraph.pl-compatible collapsed
//!   stacks (`a;b;c self_µs` per line) to the output file, or stdout.
//! * `obs_report --bench` — writes `BENCH_obs.json` (`KPT_BENCH_JSON`
//!   overrides; `KPT_BENCH_FAST=1` shrinks samples): the
//!   disabled-observability overhead cases plus the instrumented hot paths
//!   mirrored from `BENCH_kernels.json` (`knows_warm`, frontier SI), so
//!   the two files can be diffed for regressions.

use std::collections::BTreeMap;
use std::process::ExitCode;

use kpt_obs::{parse_json, JsonValue};

/// Every trace must contain at least one event whose kind starts with each
/// of these prefixes — one per instrumented subsystem. `server` covers the
/// kpt-server request and solve spans (`server.request`, `server.solve`),
/// per-iteration solve progress (`server.solve.progress`) and
/// session-arena counters.
const REQUIRED_KIND_PREFIXES: [&str; 7] = [
    "fixpoint", "cache", "pool", "solver", "bdd", "lint", "server",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--bench") => run_bench(),
        Some("--validate") => match args.get(1) {
            Some(path) => validate(path),
            None => {
                eprintln!("usage: obs_report --validate <trace.jsonl>");
                ExitCode::FAILURE
            }
        },
        Some("--flame") => match args.get(1) {
            Some(path) => flame(path, args.get(2).map(String::as_str)),
            None => {
                eprintln!("usage: obs_report --flame <trace.jsonl> [out.folded]");
                ExitCode::FAILURE
            }
        },
        Some(path) if !path.starts_with('-') => summarize(path),
        _ => {
            eprintln!(
                "usage: obs_report <trace.jsonl> | --validate <trace.jsonl> \
                 | --flame <trace.jsonl> [out.folded] | --bench"
            );
            ExitCode::FAILURE
        }
    }
}

/// Parse every line of a JSONL trace, reporting the first malformed line.
fn parse_trace(path: &str) -> Result<Vec<JsonValue>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = parse_json(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        if v.get("kind").and_then(JsonValue::as_str).is_none() {
            return Err(format!("{path}:{}: event has no \"kind\"", lineno + 1));
        }
        if v.get("ts_us").and_then(JsonValue::as_u64).is_none() {
            return Err(format!("{path}:{}: event has no \"ts_us\"", lineno + 1));
        }
        events.push(v);
    }
    Ok(events)
}

fn validate(path: &str) -> ExitCode {
    let events = match parse_trace(path) {
        Ok(evs) => evs,
        Err(e) => {
            eprintln!("INVALID: {e}");
            return ExitCode::FAILURE;
        }
    };
    if events.is_empty() {
        eprintln!("INVALID: {path} contains no events");
        return ExitCode::FAILURE;
    }
    let kinds: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("kind").and_then(JsonValue::as_str))
        .collect();
    let mut missing = Vec::new();
    for prefix in REQUIRED_KIND_PREFIXES {
        if !kinds.iter().any(|k| k.starts_with(prefix)) {
            missing.push(prefix);
        }
    }
    if !missing.is_empty() {
        eprintln!(
            "INVALID: {path} has {} events but no event kind starting with: {}",
            events.len(),
            missing.join(", ")
        );
        return ExitCode::FAILURE;
    }
    // Span schema: every event with a duration is a closed span and must
    // carry its process-unique id.
    for e in &events {
        if e.get("dur_us").is_some() && e.get("span_id").and_then(JsonValue::as_u64).is_none() {
            eprintln!(
                "INVALID: {path}: span event `{}` has dur_us but no span_id",
                e.get("kind").and_then(JsonValue::as_str).unwrap_or("?")
            );
            return ExitCode::FAILURE;
        }
    }
    // Ring-overflow accounting must be surfaced in-band: each
    // `trace.dropped` marker carries the running drop count.
    let mut dropped = 0u64;
    for e in &events {
        if e.get("kind").and_then(JsonValue::as_str) == Some("trace.dropped") {
            match e.get("dropped").and_then(JsonValue::as_u64) {
                Some(n) => dropped = dropped.max(n),
                None => {
                    eprintln!("INVALID: {path}: trace.dropped marker without a `dropped` count");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let drop_note = if dropped > 0 {
        format!(" ({dropped} ring-dropped events surfaced)")
    } else {
        String::new()
    };
    println!(
        "OK: {path} — {} well-formed events covering all required subsystems{drop_note}",
        events.len()
    );
    ExitCode::SUCCESS
}

/// Rebuild [`kpt_obs::SpanRecord`]s from parsed JSONL events (one-shot
/// events carry no `span_id` and are skipped).
fn json_span_records(events: &[JsonValue]) -> Vec<kpt_obs::SpanRecord> {
    events
        .iter()
        .filter_map(|e| {
            Some(kpt_obs::SpanRecord {
                id: e.get("span_id").and_then(JsonValue::as_u64)?,
                parent: e.get("parent_id").and_then(JsonValue::as_u64),
                kind: e.get("kind").and_then(JsonValue::as_str)?.to_owned(),
                dur_us: e.get("dur_us").and_then(JsonValue::as_f64)?,
            })
        })
        .collect()
}

/// Reconstruct the span tree and emit collapsed stacks for flamegraph.pl.
fn flame(path: &str, out: Option<&str>) -> ExitCode {
    let events = match parse_trace(path) {
        Ok(evs) => evs,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let records = json_span_records(&events);
    if records.is_empty() {
        eprintln!("error: {path} contains no closed spans (was the run traced?)");
        return ExitCode::FAILURE;
    }
    let stacks = kpt_obs::folded_stacks(&records);
    let mut text = String::new();
    for (stack, weight) in &stacks {
        text.push_str(&format!("{stack} {weight}\n"));
    }
    match out {
        Some(out_path) => {
            if let Err(e) = std::fs::write(out_path, &text) {
                eprintln!("error: cannot write {out_path}: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {} folded stack(s) from {} span(s) to {out_path}",
                stacks.len(),
                records.len()
            );
        }
        None => print!("{text}"),
    }
    ExitCode::SUCCESS
}

/// Aggregates for one event kind.
#[derive(Default)]
struct KindStats {
    count: u64,
    dur_us_total: f64,
    dur_samples: u64,
}

fn summarize(path: &str) -> ExitCode {
    let events = match parse_trace(path) {
        Ok(evs) => evs,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut by_kind: BTreeMap<String, KindStats> = BTreeMap::new();
    for e in &events {
        let kind = e.get("kind").and_then(JsonValue::as_str).unwrap_or("?");
        let s = by_kind.entry(kind.to_owned()).or_default();
        s.count += 1;
        if let Some(d) = e.get("dur_us").and_then(JsonValue::as_f64) {
            s.dur_us_total += d;
            s.dur_samples += 1;
        }
    }
    println!("trace {path}: {} events\n", events.len());
    println!(
        "{:<24} {:>8} {:>14} {:>12}",
        "kind", "count", "total_ms", "mean_us"
    );
    for (kind, s) in &by_kind {
        let (total_ms, mean_us) = if s.dur_samples > 0 {
            (
                format!("{:.3}", s.dur_us_total / 1e3),
                format!("{:.1}", s.dur_us_total / s.dur_samples as f64),
            )
        } else {
            ("-".to_owned(), "-".to_owned())
        };
        println!("{kind:<24} {:>8} {total_ms:>14} {mean_us:>12}", s.count);
    }

    // Span-tree attribution: per-label wall-clock excluding children.
    let records = json_span_records(&events);
    if !records.is_empty() {
        let aggs = kpt_obs::aggregate_spans(&records);
        println!("\nspan self-time (top {} labels):", aggs.len().min(12));
        println!(
            "{:<24} {:>7} {:>14} {:>14}",
            "label", "calls", "total_us", "self_us"
        );
        for a in aggs.iter().take(12) {
            println!(
                "{:<24} {:>7} {:>14.1} {:>14.1}",
                a.label, a.calls, a.total_us, a.self_us
            );
        }
    }

    // BDD resource gauges sampled at manager safe points.
    let gauges: Vec<&JsonValue> = events
        .iter()
        .filter(|e| e.get("kind").and_then(JsonValue::as_str) == Some("bdd.gauge"))
        .collect();
    if !gauges.is_empty() {
        println!("\nbdd gauge samples:");
        println!(
            "{:<12} {:>12} {:>12} {:>12}",
            "phase", "live_nodes", "unique_rows", "memo"
        );
        for e in &gauges {
            println!(
                "{:<12} {:>12} {:>12} {:>12}",
                e.get("phase").and_then(JsonValue::as_str).unwrap_or("?"),
                e.get("live_nodes").and_then(JsonValue::as_u64).unwrap_or(0),
                e.get("unique_rows")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0),
                e.get("memo_entries")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0)
            );
        }
    }

    // Pool work distribution, if any pool.map events carry it.
    let pool_maps: Vec<&JsonValue> = events
        .iter()
        .filter(|e| e.get("kind").and_then(JsonValue::as_str) == Some("pool.map"))
        .collect();
    if !pool_maps.is_empty() {
        println!("\npool runs:");
        for e in &pool_maps {
            let items = e.get("items").and_then(JsonValue::as_u64).unwrap_or(0);
            let workers = e.get("workers").and_then(JsonValue::as_u64).unwrap_or(0);
            let steals = e.get("steals").and_then(JsonValue::as_u64).unwrap_or(0);
            let per = e
                .get("per_worker")
                .and_then(JsonValue::as_str)
                .unwrap_or("");
            println!("  items={items} workers={workers} steals={steals}  [{per}]");
        }
    }

    // Verdicts, with their witnesses.
    let verdicts: Vec<&JsonValue> = events
        .iter()
        .filter(|e| {
            e.get("kind")
                .and_then(JsonValue::as_str)
                .is_some_and(|k| k.starts_with("verdict."))
        })
        .collect();
    if !verdicts.is_empty() {
        println!("\nverdicts:");
        for e in &verdicts {
            let holds = e.get("holds").and_then(JsonValue::as_bool).unwrap_or(false);
            let obligation = e
                .get("obligation")
                .and_then(JsonValue::as_str)
                .unwrap_or("?");
            let detail = e.get("detail").and_then(JsonValue::as_str).unwrap_or("");
            println!(
                "  {} {obligation} — {detail}",
                if holds { "HOLDS " } else { "FAILED" }
            );
            if let Some(ws) = e.get("witness_states").and_then(JsonValue::as_str) {
                for w in ws.split("; ") {
                    println!("      witness {w}");
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// Benchmark the observability layer: the cost of disabled tracing (the
/// zero-overhead guarantee) and the instrumented hot paths, in the same
/// JSON shape as `BENCH_kernels.json`.
fn run_bench() -> ExitCode {
    use kpt_state::{Predicate, StateSpace, VarSet};
    use kpt_testkit::Criterion;
    use kpt_transformers::{sst_frontier_with_stats, DetTransition};

    let (config, _fast) = kpt_bench::report_config("BENCH_obs.json", 10, 20);
    // The whole point is measuring the *disabled* path.
    kpt_obs::disable_trace();
    let mut c = Criterion::with_config(config);

    // -- overhead when disabled: each primitive on its cold branch --------
    {
        let mut group = c.benchmark_group("obs_overhead");
        group.bench_function("span_when_disabled", |b| {
            b.iter(|| kpt_obs::span("bench.noop"))
        });
        group.bench_function("event_when_disabled", |b| {
            b.iter(|| kpt_obs::event("bench.noop", &[]))
        });
        group.bench_function("counter_incr", |b| {
            let ctr = kpt_obs::counter("bench.obs_report.counter");
            b.iter(|| ctr.incr())
        });
        group.bench_function("histogram_record", |b| {
            let h = kpt_obs::histogram("bench.obs_report.hist");
            let mut v = 0u64;
            b.iter(|| {
                v = v.wrapping_add(97);
                h.record(v)
            })
        });
        group.finish();
    }

    // -- instrumented hot paths, mirroring BENCH_kernels cases ------------
    fn space_with_vars(nvars: usize, dom: u64) -> std::sync::Arc<StateSpace> {
        let mut b = StateSpace::builder();
        for i in 0..nvars {
            b = b.nat_var(&format!("v{i}"), dom).unwrap();
        }
        b.build().unwrap()
    }
    {
        use kpt_core::KnowledgeOperator;
        let mut group = c.benchmark_group("instrumented");
        group.sample_size(10);

        let space = space_with_vars(8, 4); // 65536 states
        let views = vec![
            ("P0".to_owned(), VarSet::from_vars(space.vars().take(3))),
            (
                "P1".to_owned(),
                VarSet::from_vars(space.vars().skip(3).take(3)),
            ),
        ];
        let si = Predicate::from_fn(&space, |s| s % 7 != 0);
        let p = Predicate::from_fn(&space, |s| s % 3 == 1);
        let op = KnowledgeOperator::with_si(&space, views, si).unwrap();
        let _ = op.knows("P1", &p).unwrap();
        group.bench_function("knows_warm/65536states", |b| {
            b.iter(|| op.knows("P1", &p).unwrap())
        });

        let n = 1u64 << 12;
        let chain_space = StateSpace::builder()
            .nat_var("i", n)
            .unwrap()
            .build()
            .unwrap();
        let t = DetTransition::from_fn(&chain_space, move |i| if i + 1 < n { i + 1 } else { i });
        let init = Predicate::from_indices(&chain_space, [0]);
        group.bench_function("frontier_long_chain/4096", |b| {
            b.iter(|| sst_frontier_with_stats(std::slice::from_ref(&t), &init))
        });

        let mut sb = StateSpace::builder();
        for i in 0..16 {
            sb = sb.bool_var(&format!("b{i}")).unwrap();
        }
        let wide = sb.build().unwrap();
        let stmts: Vec<DetTransition> = (0..8u64)
            .map(|k| {
                let v = wide.var(&format!("b{k}")).unwrap();
                let sp2 = std::sync::Arc::clone(&wide);
                DetTransition::from_fn(&wide, move |s| sp2.with_value(s, v, 1))
            })
            .collect();
        let winit = Predicate::from_indices(&wide, [0]);
        group.bench_function("frontier_wide/65536states", |b| {
            b.iter(|| sst_frontier_with_stats(&stmts, &winit))
        });
        group.finish();
    }

    c.final_summary();
    ExitCode::SUCCESS
}
