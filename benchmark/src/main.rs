//! The end-to-end benchmark: `.kpt` text to verdict, by library call and
//! over the kpt-server wire, with per-layer attribution from a separate
//! traced run. See README.md for workloads, metrics and commands.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--out <file>] [--trace-dir <dir>]
//! benchmark --smoke [--seed <n>]
//! benchmark --compare <a.json>... -- <b.json>...
//! ```
//!
//! A measured run prints every metric by name and unit, then, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exit codes: 0 ok, 1 usage or set-up error (or a percentile
//! refused for too few samples), 2 a verdict that differs from the golden
//! table.

mod compare;
mod deck;
mod golden;
mod host;
mod report;
mod run;
mod stats;
mod trace;

use std::sync::OnceLock;
use std::time::Instant;

use deck::Workload;
use report::{measure, measure_traced, Report, SETUPS};
use run::Budget;

static START: OnceLock<Instant> = OnceLock::new();

/// When the process started, as `main` first saw it.
pub fn process_start() -> Instant {
    *START.get_or_init(Instant::now)
}

const USAGE: &str = "usage: benchmark --workload <edit_check|solve_large|serve_warm|serve_cold> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <file>] [--trace-dir <dir>]\n       \
                     benchmark --smoke [--seed <n>]\n       \
                     benchmark --compare <a.json>... -- <b.json>...";

#[derive(Debug)]
enum Mode {
    Run {
        workload: Workload,
        seconds: f64,
        trace: bool,
        out: Option<String>,
        trace_dir: Option<String>,
    },
    Smoke,
    Compare(Vec<String>, Vec<String>),
}

fn parse_args(args: &[String]) -> Result<(Mode, u64), String> {
    if args.first().map(String::as_str) == Some("--compare") {
        let rest = &args[1..];
        let split = rest
            .iter()
            .position(|a| a == "--")
            .ok_or("--compare needs `--` between the two sets")?;
        let (a, b) = (rest[..split].to_vec(), rest[split + 1..].to_vec());
        if a.is_empty() || b.is_empty() {
            return Err("--compare needs at least one file on each side".into());
        }
        return Ok((Mode::Compare(a, b), 0));
    }
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut smoke = false;
    let mut out = None;
    let mut trace_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("want an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0 && s.is_finite())
                    .ok_or_else(|| bad("want a non-negative number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            "--out" => out = Some(value.clone()),
            "--trace-dir" => trace_dir = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if smoke {
        return Ok((Mode::Smoke, seed));
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        Mode::Run {
            workload,
            seconds,
            trace,
            out,
            trace_dir,
        },
        seed,
    ))
}

fn write(path: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{path}: {e}"))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

fn run_one(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<&str>,
    trace_dir: Option<&str>,
) -> Result<i32, String> {
    let golden = golden::GOLDEN;
    let report: Report = if trace {
        let report = measure_traced(w, seed, seconds, golden)?;
        if let Some(dir) = trace_dir {
            let records = &report.tally.records;
            write(&format!("{dir}/trace.jsonl"), &trace::jsonl(records))?;
            write(&format!("{dir}/trace.folded"), &trace::folded(records))?;
        }
        report
    } else {
        let budget = Budget {
            seconds,
            min_ops: stats::min_samples(0.9),
        };
        measure(w, seed, budget, SETUPS, golden)?
    };
    report.print();
    if let Some(path) = out {
        write(path, &report.file_json())?;
    }
    println!("{}", report.result_json());
    Ok(report.exit_code())
}

/// Every workload for about a second, untraced, with the golden checks.
fn smoke(seed: u64) -> Result<i32, String> {
    let budget = Budget {
        seconds: 1.0,
        min_ops: 0,
    };
    let mut code = 0;
    for w in Workload::ALL {
        let report = measure(w, seed, budget, run::Setups::ONCE, golden::GOLDEN)?;
        report.print();
        if !report.correct() {
            code = 2;
        } else if report.tally.failed > 0 && code == 0 {
            code = 1;
        }
    }
    println!("smoke: {}", if code == 0 { "ok" } else { "FAILED" });
    Ok(code)
}

fn main() {
    process_start();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|(mode, seed)| match mode {
        Mode::Run {
            workload,
            seconds,
            trace,
            out,
            trace_dir,
        } => run_one(
            workload,
            seed,
            seconds,
            trace,
            out.as_deref(),
            trace_dir.as_deref(),
        ),
        Mode::Smoke => smoke(seed),
        Mode::Compare(a, b) => {
            let bench = std::fs::read_to_string("BENCHMARK.json")
                .map_err(|e| format!("BENCHMARK.json in the current directory: {e}"))?;
            let (table, agree) = compare::compare(&a, &b, &bench)?;
            print!("{table}");
            Ok(if agree { 0 } else { 1 })
        }
    });
    match result {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            std::process::exit(1);
        }
    }
}
