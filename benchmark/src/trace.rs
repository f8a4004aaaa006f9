//! The benchmark's own spans: an `op` root per op and one child per call
//! into a layer's public function, kept in memory and aggregated at the
//! end. No spans are added inside the program.

use std::collections::BTreeMap;
use std::time::Instant;

use kpt_obs::SpanRecord;

/// The root span of every op.
pub const OP: &str = "op";

/// Layer spans, named `<crate>.<call>`.
pub const LAYERS: &[&str] = &[
    "kpt_unity.elaborate",
    "kpt_lint.decl",
    "kpt_lint.view",
    "kpt_lint.dataflow",
    "kpt_lint.symbolic",
    "kpt_core.solve",
    "kpt_bdd.translate",
    "kpt_bdd.solve",
    "kpt_unity.verify",
    "kpt_server.decode",
    "kpt_server.arena",
    "kpt_server.arena.load",
];

/// Counts taken at the same call boundaries as the spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    pub solve_iterations: u64,
    pub si_hits: u64,
    pub si_misses: u64,
    pub bdd_peak_nodes: u64,
    pub bdd_gc_runs: u64,
}

impl Counters {
    pub fn merge(&mut self, o: &Counters) {
        self.solve_iterations += o.solve_iterations;
        self.si_hits += o.si_hits;
        self.si_misses += o.si_misses;
        self.bdd_peak_nodes = self.bdd_peak_nodes.max(o.bdd_peak_nodes);
        self.bdd_gc_runs += o.bdd_gc_runs;
    }
}

/// One client's span recorder.
///
/// `detailed` selects the traced op shape (for example one lint call per
/// depth instead of one full-depth call); `on` says whether the current
/// round records. A traced run alternates `on` round by round over the
/// same detailed ops, which is what the overhead ratio compares.
pub struct Tracer {
    pub detailed: bool,
    pub on: bool,
    id_base: u64,
    next_id: u64,
    stack: Vec<u64>,
    pub records: Vec<SpanRecord>,
    pub counters: Counters,
}

impl Tracer {
    /// A recorder for client `client`; span ids are unique across clients.
    pub fn new(client: usize, detailed: bool) -> Tracer {
        Tracer {
            detailed,
            on: false,
            id_base: (client as u64 + 1) << 40,
            next_id: 0,
            stack: Vec::new(),
            records: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// Run `f` inside a span of `kind` (a plain call when not recording).
    pub fn span<R>(&mut self, kind: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        self.next_id += 1;
        let id = self.id_base | self.next_id;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let dur_us = start.elapsed().as_secs_f64() * 1e6;
        self.stack.pop();
        self.records.push(SpanRecord {
            id,
            parent,
            kind: kind.to_owned(),
            dur_us,
        });
        out
    }

    /// Rename the span closed last (an arena lookup that turned out to
    /// be a miss becomes `kpt_server.arena.load`).
    pub fn relabel_last(&mut self, kind: &'static str) {
        if self.on {
            if let Some(r) = self.records.last_mut() {
                r.kind = kind.to_owned();
            }
        }
    }

    /// Forget open spans after an op unwound through them.
    pub fn reset_stack(&mut self) {
        self.stack.clear();
    }

    /// Add counts, only while recording.
    pub fn count(&mut self, f: impl FnOnce(&mut Counters)) {
        if self.on {
            f(&mut self.counters);
        }
    }
}

/// Per-layer totals over a span tree.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    pub self_us: f64,
    /// Each call's duration, ascending.
    pub durations_us: Vec<f64>,
}

/// Self time per span kind (`kpt_obs::aggregate_spans`) plus each kind's
/// per-call durations, keyed by kind.
pub fn layers(records: &[SpanRecord]) -> BTreeMap<String, Layer> {
    let mut out: BTreeMap<String, Layer> = kpt_obs::aggregate_spans(records)
        .into_iter()
        .map(|a| {
            let layer = Layer {
                self_us: a.self_us,
                durations_us: Vec::new(),
            };
            (a.label, layer)
        })
        .collect();
    for r in records {
        if let Some(l) = out.get_mut(&r.kind) {
            l.durations_us.push(r.dur_us);
        }
    }
    for l in out.values_mut() {
        l.durations_us.sort_by(f64::total_cmp);
    }
    out
}

/// Total wall time of the `op` roots, µs.
pub fn op_total_us(layers: &BTreeMap<String, Layer>) -> f64 {
    layers.get(OP).map_or(0.0, |l| l.durations_us.iter().sum())
}

/// Self time of `kind` as a percentage of op wall time.
pub fn self_pct(layers: &BTreeMap<String, Layer>, kind: &str) -> f64 {
    let total = op_total_us(layers);
    match layers.get(kind) {
        Some(l) if total > 0.0 => 100.0 * l.self_us / total,
        _ => 0.0,
    }
}

/// Share of op wall time that layer spans account for by self time.
pub fn coverage_pct(layers: &BTreeMap<String, Layer>) -> f64 {
    LAYERS.iter().map(|k| self_pct(layers, k)).sum()
}

/// Render spans as `trace.jsonl` lines: `kind`, `span_id`, `parent_id`,
/// `dur_us`, the fields `kpt_obs::SpanRecord` is rebuilt from.
pub fn jsonl(records: &[SpanRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let parent = r.parent.map_or("null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"kind\":\"{}\",\"span_id\":{},\"parent_id\":{parent},\"dur_us\":{}}}\n",
            r.kind, r.id, r.dur_us
        ));
    }
    out
}

/// Render spans as flamegraph.pl folded stacks (`kpt_obs::folded_stacks`).
pub fn folded(records: &[SpanRecord]) -> String {
    kpt_obs::folded_stacks(records)
        .into_iter()
        .map(|(stack, us)| format!("{stack} {us}\n"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: Option<u64>, kind: &str, dur_us: f64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            kind: kind.to_owned(),
            dur_us,
        }
    }

    #[test]
    fn self_time_on_a_three_deep_tree() {
        // op (100) ─ kpt_server.arena.load (70) ─ kpt_unity.elaborate (30)
        //          └ kpt_core.solve (10)
        let records = vec![
            rec(3, Some(2), "kpt_unity.elaborate", 30.0),
            rec(2, Some(1), "kpt_server.arena.load", 70.0),
            rec(4, Some(1), "kpt_core.solve", 10.0),
            rec(1, None, OP, 100.0),
        ];
        let l = layers(&records);
        assert_eq!(op_total_us(&l), 100.0);
        assert_eq!(l[OP].self_us, 20.0);
        assert_eq!(self_pct(&l, "kpt_server.arena.load"), 40.0);
        assert_eq!(self_pct(&l, "kpt_unity.elaborate"), 30.0);
        assert_eq!(self_pct(&l, "kpt_core.solve"), 10.0);
        assert_eq!(self_pct(&l, "kpt_lint.symbolic"), 0.0);
        assert_eq!(coverage_pct(&l), 80.0);
        assert_eq!(
            folded(&records),
            "op 20\nop;kpt_core.solve 10\nop;kpt_server.arena.load 40\n\
             op;kpt_server.arena.load;kpt_unity.elaborate 30\n"
        );
    }

    #[test]
    fn tracer_links_children_to_parents_and_records_only_when_on() {
        let mut t = Tracer::new(0, true);
        t.span(OP, |t| t.span("kpt_core.solve", |_| ()));
        assert!(t.records.is_empty());
        t.on = true;
        t.span(OP, |t| {
            t.span("kpt_server.arena", |_| ());
            t.relabel_last("kpt_server.arena.load");
        });
        let kinds: Vec<_> = t.records.iter().map(|r| r.kind.as_str()).collect();
        assert_eq!(kinds, ["kpt_server.arena.load", OP]);
        assert_eq!(t.records[0].parent, Some(t.records[1].id));
        assert_eq!(t.records[1].parent, None);
    }
}
