//! The two measured runs and their metrics: an untraced run gives the
//! end-to-end metrics, a traced run the per-layer ones.

use std::collections::BTreeMap;

use crate::deck::{Card, Workload};
use crate::golden::Golden;
use crate::host::Cost;
use crate::run::{run, Budget, Path, Sample, SetupTimes, Setups, Tally};
use crate::stats::{median, min_samples, percentile};
use crate::trace::{self, LAYERS, OP};

/// End-to-end metrics: name and unit, as `BENCHMARK.json` lists them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: name and unit, as `BENCHMARK.json` lists them.
/// Layer times are shares of traced op wall time, so a layer a workload
/// never crosses reads 0 % rather than a time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.op_p50_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage_pct", "%"),
    ("kpt_unity.elaborate.self_pct", "%"),
    ("kpt_unity.elaborate.calls", "count"),
    ("kpt_lint.decl.self_pct", "%"),
    ("kpt_lint.view.self_pct", "%"),
    ("kpt_lint.dataflow.self_pct", "%"),
    ("kpt_lint.symbolic.self_pct", "%"),
    ("kpt_core.solve.self_pct", "%"),
    ("kpt_core.solve.iterations", "count"),
    ("kpt_core.si_memo.hit_ratio", "ratio"),
    ("kpt_bdd.translate.self_pct", "%"),
    ("kpt_bdd.solve.self_pct", "%"),
    ("kpt_bdd.peak_nodes", "count"),
    ("kpt_bdd.gc_runs", "count"),
    ("kpt_unity.verify.self_pct", "%"),
    ("kpt_server.decode.self_pct", "%"),
    ("kpt_server.arena.self_pct", "%"),
    ("kpt_server.arena.load.self_pct", "%"),
    ("kpt_server.arena.hit_ratio", "ratio"),
    ("kpt_server.arena.evictions", "count"),
    ("kpt_server.transport_pct", "%"),
];

/// Set-ups per untraced run; `setup_s` is their median. Cheap set-ups
/// repeat for 3 s, so seconds-long bursts of machine noise move the
/// median less.
pub const SETUPS: Setups = Setups {
    min: 3,
    seconds: 3.0,
};

/// One named value. `None` is a percentile refused for too few samples.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub note: String,
}

fn metric(name: impl Into<String>, unit: &'static str, value: Option<f64>, note: String) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value: value.filter(|v| v.is_finite()),
        note,
    }
}

/// `metrics` in the order `list` (and so `BENCHMARK.json`) gives them.
fn in_order(mut metrics: Vec<Metric>, list: &[(&str, &str)]) -> Vec<Metric> {
    metrics.sort_by_key(|m| list.iter().position(|(n, _)| *n == m.name));
    debug_assert!(metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .eq(list.iter().copied()));
    metrics
}

/// One run's outcome.
#[derive(Debug)]
pub struct Report {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub tally: Tally,
    /// The contract metrics: `END_TO_END` untraced, `PER_LAYER` traced.
    pub metrics: Vec<Metric>,
    /// Breakdowns printed and saved beside them.
    pub detail: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.tally.wrong.is_empty()
    }

    /// 2 for a wrong verdict, 1 for a metric without a value, else 0.
    pub fn exit_code(&self) -> i32 {
        if !self.correct() {
            2
        } else if self.metrics.iter().any(|m| m.value.is_none()) {
            1
        } else {
            0
        }
    }

    fn metrics_json(metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .filter_map(|m| {
                let v = m.value?;
                Some(format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                ))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            Self::metrics_json(&self.metrics)
        )
    }

    /// The `--out` file: the result plus what produced it and the detail.
    pub fn file_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"detail\": {}}}\n",
            self.workload.name(),
            self.seed,
            u8::from(self.traced),
            self.correct(),
            self.tally.attempted,
            self.tally.failed,
            Self::metrics_json(&self.metrics),
            Self::metrics_json(&self.detail)
        )
    }

    /// Human-readable lines: every metric with its unit and sample count.
    pub fn print(&self) {
        println!(
            "{} seed={} {}: {} ops attempted, {} failed, {} wrong, {} client(s), {} cpus",
            self.workload.name(),
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.tally.attempted,
            self.tally.failed,
            self.tally.wrong.len(),
            self.workload.clients(),
            crate::deck::nproc(),
        );
        for (title, set) in [("metrics", &self.metrics), ("detail", &self.detail)] {
            println!("  {title}:");
            for m in set {
                let value = m.value.map_or("n/a".to_owned(), |v| format!("{v:.4}"));
                println!("    {:<40} {:>14} {:<6} {}", m.name, value, m.unit, m.note);
            }
        }
        for e in self.tally.errors.iter().take(10) {
            eprintln!("failed op: {e}");
        }
        for w in self.tally.wrong.iter().take(10) {
            eprintln!("WRONG VERDICT: {w}");
        }
    }
}

/// A time, µs: with its CPU part at the nominal host speed when
/// `rescaled`, else as measured.
fn us(c: &Cost, rescaled: bool) -> f64 {
    if rescaled {
        c.at_ref_us()
    } else {
        c.wall_us
    }
}

/// Op latencies, ms, ascending.
fn latencies_ms<'a>(samples: impl Iterator<Item = &'a Sample>, rescaled: bool) -> Vec<f64> {
    let mut v: Vec<f64> = samples.map(|s| us(&s.cost, rescaled) / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// `setup_s`, `ops_per_s`, `latency_p50_ms` and `latency_p90_ms`.
fn times(tally: &Tally, setups: &SetupTimes, deck_len: usize, rescaled: bool) -> [Option<f64>; 4] {
    let setup: Vec<f64> = setups.each.iter().map(|c| us(c, rescaled)).collect();
    // A round is one client's whole deck. Ops per second of its median
    // round, summed over clients: bursts of machine noise move it less
    // than a mean would, and the reference timings between ops stay out.
    let mut rounds: BTreeMap<(usize, u64), f64> = BTreeMap::new();
    for s in &tally.samples {
        *rounds.entry((s.at.client, s.at.round)).or_default() += us(&s.cost, rescaled);
    }
    let mut by_client: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for ((client, _), round_us) in rounds {
        by_client.entry(client).or_default().push(round_us);
    }
    let rate = by_client
        .values()
        .map(|r| deck_len as f64 / (median(r) / 1e6))
        .sum();
    let lat = latencies_ms(tally.samples.iter(), rescaled);
    [
        (!setup.is_empty()).then(|| median(&setup) / 1e6),
        (!by_client.is_empty()).then_some(rate),
        percentile(&lat, 0.5),
        percentile(&lat, 0.9),
    ]
}

/// p50 latency, ms, and sample count of the matching samples, per group.
fn group_p50s(
    samples: &[Sample],
    traced: Option<bool>,
    rescaled: bool,
    group: impl Fn(&Card) -> String,
) -> BTreeMap<String, (Option<f64>, usize)> {
    let mut by: BTreeMap<String, Vec<&Sample>> = BTreeMap::new();
    for s in samples
        .iter()
        .filter(|s| traced.is_none_or(|t| s.traced == t))
    {
        by.entry(group(&s.card)).or_default().push(s);
    }
    by.into_iter()
        .map(|(class, v)| {
            let lat = latencies_ms(v.into_iter(), rescaled);
            (class, (percentile(&lat, 0.5), lat.len()))
        })
        .collect()
}

/// VmHWM of this process, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// The untraced run: `setups` set-ups (each with its warm-up round),
/// then the closed loop on the last.
pub fn measure(
    w: Workload,
    seed: u64,
    budget: Budget,
    setups: Setups,
    golden: &[Golden],
) -> Result<Report, String> {
    let (tally, setups) = run(w, Path::of(w), seed, golden, budget, setups, false)?;
    let n = tally.samples.len();
    let wall = tally.wall.as_secs_f64();
    let reference = w.reference();
    let ref_ms = (!tally.ref_ms.is_empty()).then(|| median(&tally.ref_ms));
    let names = [
        ("setup_s", "s"),
        ("ops_per_s", "1/s"),
        ("latency_p50_ms", "ms"),
        ("latency_p90_ms", "ms"),
    ];
    let notes = [
        format!("median of {} set-ups incl. warm-up", setups.each.len()),
        format!("deck over median round of op time; {n} ops in {wall:.2} s"),
        format!("n={n}"),
        format!("n={n}"),
    ];
    let scaled = times(&tally, &setups, w.deck().len(), true);
    let mut metrics: Vec<Metric> = names
        .iter()
        .zip(scaled)
        .zip(notes)
        .map(|((&(name, unit), v), note)| {
            metric(name, unit, v, format!("CPU part at nominal speed; {note}"))
        })
        .collect();
    metrics.push(metric("peak_rss_mb", "MB", peak_rss_mb(), "VmHWM".into()));
    let metrics = in_order(metrics, END_TO_END);
    let first = metric(
        "setup_first_s",
        "s",
        Some(setups.first_from_start_s),
        "process start to the end of set-up #1".into(),
    );
    let raw = names
        .iter()
        .zip(times(&tally, &setups, w.deck().len(), false))
        .map(|(&(name, unit), v)| metric(format!("raw.{name}"), unit, v, "as measured".into()));
    let (cpu, op_wall) = tally.samples.iter().fold((0.0, 0.0), |(c, t), s| {
        (c + s.cost.cpu_us.min(s.cost.wall_us), t + s.cost.wall_us)
    });
    let host = [
        metric(
            "host.ref_ms",
            "ms",
            ref_ms,
            format!(
                "median of {} timings of the {} reference work, nominal {} ms",
                tally.ref_ms.len(),
                reference.name(),
                reference.nominal_ms()
            ),
        ),
        metric(
            "host.slowdown",
            "ratio",
            ref_ms.map(|r| r / reference.nominal_ms()),
            "host.ref_ms / nominal: how much the CPU part of a time was divided by".into(),
        ),
        metric(
            "ops.cpu_pct",
            "%",
            (op_wall > 0.0).then(|| 100.0 * cpu / op_wall),
            "process CPU time over op wall time, the part rescaled".into(),
        ),
        metric(
            "host.steal_pct",
            "%",
            tally
                .steal_s
                .map(|s| 100.0 * s / (wall * crate::deck::nproc() as f64)),
            "CPU time the hypervisor gave to others during the loop".into(),
        ),
    ];
    let detail = std::iter::once(first)
        .chain(raw)
        .chain(host)
        .chain(
            group_p50s(&tally.samples, None, true, |c| {
                format!("{}.{}", c.kind.name(), c.model.name)
            })
            .into_iter()
            .map(|(card, (p50, n))| {
                metric(
                    format!("latency.{card}.p50_ms"),
                    "ms",
                    p50,
                    format!("n={n}"),
                )
            }),
        )
        .collect();
    Ok(Report {
        workload: w,
        seed,
        traced: false,
        tally,
        metrics,
        detail,
    })
}

/// The traced run. Library workloads run one loop whose rounds alternate
/// recording on and off. Server workloads spend half the budget over the
/// wire, untraced, where client latency less the server's own request
/// time is the transport, and half replaying the same op list in process
/// with alternating recording, for the per-layer split.
pub fn measure_traced(
    w: Workload,
    seed: u64,
    seconds: f64,
    golden: &[Golden],
) -> Result<Report, String> {
    // Enough ops that the recording rounds alone report an op p50.
    let budget = |seconds| Budget {
        seconds,
        min_ops: 2 * min_samples(0.5),
    };
    let (wire, mut tally) = if w.over_wire() {
        let half = budget(seconds / 2.0);
        let (wire, _) = run(w, Path::Wire, seed, golden, half, Setups::ONCE, false)?;
        let (replay, _) = run(w, Path::Replay, seed, golden, half, Setups::ONCE, true)?;
        (Some(wire), replay)
    } else {
        let full = budget(seconds);
        let (traced, _) = run(w, Path::Library, seed, golden, full, Setups::ONCE, true)?;
        (None, traced)
    };
    let (metrics, detail) = per_layer(&tally, wire.as_ref());
    if let Some(wire) = wire {
        tally.merge(wire);
    }
    Ok(Report {
        workload: w,
        seed,
        traced: true,
        tally,
        metrics,
        detail,
    })
}

fn mean_us<'a>(samples: impl Iterator<Item = &'a Sample>) -> Option<f64> {
    let (n, sum) = samples.fold((0usize, 0.0), |(n, s), x| (n + 1, s + x.cost.wall_us));
    (n > 0).then(|| sum / n as f64)
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn per_layer(traced: &Tally, wire: Option<&Tally>) -> (Vec<Metric>, Vec<Metric>) {
    let layers = trace::layers(&traced.records);
    let op = layers
        .get(OP)
        .map(|l| l.durations_us.as_slice())
        .unwrap_or(&[]);
    let on = || traced.samples.iter().filter(|s| s.traced);
    let off = || traced.samples.iter().filter(|s| !s.traced);
    // ops/s traced over ops/s untraced = mean untraced op over mean traced op.
    let overhead = mean_us(off()).zip(mean_us(on())).map(|(u, t)| u / t);
    let c = &traced.counters;
    let (hits, misses, evictions) = traced.arena.unwrap_or_default();
    let classes = wire.map(wire_classes);
    let transport = match &classes {
        None => Some(0.0),
        Some(classes) => {
            let client: f64 = classes.values().map(|&(n, c, _)| n as f64 * c).sum();
            let server: Option<f64> = classes
                .values()
                .map(|&(n, _, s)| s.map(|s| n as f64 * s))
                .sum();
            server.map(|s| (100.0 * (client - s) / client).max(0.0))
        }
    };
    let none = String::new;
    let mut metrics = vec![
        metric(
            "trace.op_p50_us",
            "us",
            percentile(op, 0.5),
            format!("n={}", op.len()),
        ),
        metric(
            "trace.overhead_ratio",
            "ratio",
            overhead,
            "traced / untraced ops per s".into(),
        ),
        metric(
            "trace.coverage_pct",
            "%",
            Some(trace::coverage_pct(&layers)),
            "layer self time / op wall time".into(),
        ),
    ];
    for layer in LAYERS {
        metrics.push(metric(
            format!("{layer}.self_pct"),
            "%",
            Some(trace::self_pct(&layers, layer)),
            none(),
        ));
    }
    let calls = |k: &str| layers.get(k).map_or(0, |l| l.durations_us.len()) as f64;
    metrics.extend([
        metric(
            "kpt_unity.elaborate.calls",
            "count",
            Some(calls("kpt_unity.elaborate")),
            none(),
        ),
        metric(
            "kpt_core.solve.iterations",
            "count",
            Some(c.solve_iterations as f64),
            none(),
        ),
        metric(
            "kpt_core.si_memo.hit_ratio",
            "ratio",
            Some(ratio(c.si_hits, c.si_misses)),
            none(),
        ),
        metric(
            "kpt_bdd.peak_nodes",
            "count",
            Some(c.bdd_peak_nodes as f64),
            none(),
        ),
        metric(
            "kpt_bdd.gc_runs",
            "count",
            Some(c.bdd_gc_runs as f64),
            none(),
        ),
        metric(
            "kpt_server.arena.hit_ratio",
            "ratio",
            Some(ratio(hits, misses)),
            none(),
        ),
        metric(
            "kpt_server.arena.evictions",
            "count",
            Some(evictions as f64),
            none(),
        ),
        metric(
            "kpt_server.transport_pct",
            "%",
            transport,
            "client latency not spent in the server".into(),
        ),
    ]);
    let metrics = in_order(metrics, PER_LAYER);

    let mut detail = Vec::new();
    for kind in std::iter::once(&OP).chain(LAYERS) {
        let Some(l) = layers.get(*kind) else { continue };
        let n = format!("n={}", l.durations_us.len());
        detail.push(metric(
            format!("{kind}.busy_ms"),
            "ms",
            Some(l.self_us / 1e3),
            n.clone(),
        ));
        detail.push(metric(
            format!("{kind}.p50_us"),
            "us",
            percentile(&l.durations_us, 0.5),
            n,
        ));
    }
    if let Some(classes) = classes {
        let exec = group_p50s(&traced.samples, Some(true), false, |c| {
            c.kind.class().to_owned()
        });
        for (class, (n, client, server)) in classes {
            let (exec_p50, m) = exec.get(class).copied().unwrap_or((None, 0));
            detail.extend([
                metric(
                    format!("kpt_server.client.{class}.mean_us"),
                    "us",
                    Some(client),
                    format!("n={n}"),
                ),
                metric(
                    format!("kpt_server.server.{class}.mean_us"),
                    "us",
                    server,
                    "server.latency.<kind>".into(),
                ),
                metric(
                    format!("kpt_server.transport.{class}.mean_us"),
                    "us",
                    server.map(|s| client - s),
                    "client - server".into(),
                ),
                metric(
                    format!("kpt_server.exec.{class}.p50_us"),
                    "us",
                    exec_p50.map(|ms| ms * 1e3),
                    format!("n={m}; in-process replay, approximate"),
                ),
            ]);
        }
    }
    (metrics, detail)
}

/// Per latency class of a wire run: requests, mean client latency, and
/// mean time a server worker spent on the request (its
/// `server.latency.<kind>` histograms), µs. Their difference is the
/// transport: framing and decoding on both ends, queueing for a worker,
/// the socket, thread wake-ups, and any wait before the answer leaves the
/// kernel.
fn wire_classes(wire: &Tally) -> BTreeMap<&'static str, (usize, f64, Option<f64>)> {
    let mut client: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
    for s in &wire.samples {
        let e = client.entry(s.card.kind.class()).or_default();
        *e = (e.0 + 1, e.1 + s.cost.wall_us);
    }
    client
        .into_iter()
        .map(|(class, (n, us))| {
            let server = wire
                .server
                .as_ref()
                .and_then(|m| m.get(class))
                .filter(|(k, _)| *k > 0)
                .map(|&(k, sum)| sum as f64 / k as f64);
            (class, (n, us / n as f64, server))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` are the same.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let v = kpt_obs::parse_json(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = v
                .get(key)
                .and_then(|a| a.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap().to_owned();
                    (s("name"), s("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(|a| a.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn a_perturbed_golden_row_makes_the_run_exit_2() {
        let budget = Budget {
            seconds: 0.0,
            min_ops: 0,
        };
        let golden = crate::golden::GOLDEN;
        let clean = measure(Workload::EditCheck, 1, budget, Setups::ONCE, golden).unwrap();
        assert_eq!(clean.tally.wrong, Vec::<String>::new());
        let mut perturbed = golden.to_vec();
        let row = perturbed.iter_mut().find(|g| g.model == "figure1").unwrap();
        row.lint = &["KPT009"];
        let bad = measure(Workload::EditCheck, 1, budget, Setups::ONCE, &perturbed).unwrap();
        assert!(!bad.correct());
        assert_eq!(bad.exit_code(), 2);
        assert!(bad.result_json().starts_with("{\"correct\": false,"));
    }
}
