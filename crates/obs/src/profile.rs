//! Folded-stack profiling: flamegraph-compatible aggregation of the
//! hierarchical span tree.
//!
//! Two halves:
//!
//! * a **live aggregator** (`KPT_PROFILE=<path>` or [`profile_to_file`]):
//!   every closed span contributes its *self* time (total minus the time
//!   already attributed to its finished children) under its full ancestry
//!   path `root;child;leaf`. The aggregate is flushed to `path` in the
//!   collapsed-stack format `flamegraph.pl` consumes — one
//!   `stack weight` line per distinct path, weight in integer
//!   microseconds — every [`FLUSH_EVERY`] closes, on [`flush_profile`],
//!   and on [`crate::disable_trace`]. Because the file holds aggregates
//!   (not samples) it stays small however long the run;
//! * **pure reconstruction** ([`span_records`], [`aggregate_spans`],
//!   [`folded_stacks`]): the same computations over an already-recorded
//!   trace (the ring buffer or a parsed JSONL file), used by
//!   `obs_report --flame` and by tests that pin the attribution math.
//!
//! Self-time accounting is exact, not sampled: the thread-local span
//! stack in [`crate::trace`] accumulates each child's wall-clock into its
//! parent as the child closes, so a parent's self time is its own
//! duration minus exactly its children's durations.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::trace::Event;

/// Closed spans between automatic flushes of the live aggregator.
const FLUSH_EVERY: usize = 4096;

static PROFILE_ENABLED: AtomicBool = AtomicBool::new(false);

struct ProfState {
    path: Option<String>,
    /// Folded stack (`a;b;c`) → (calls, accumulated self-time µs).
    stacks: HashMap<String, (u64, f64)>,
    pending: usize,
    warned: bool,
}

fn state() -> &'static Mutex<ProfState> {
    static STATE: OnceLock<Mutex<ProfState>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(ProfState {
            path: None,
            stacks: HashMap::new(),
            pending: 0,
            warned: false,
        })
    })
}

/// Whether the folded-stack aggregator is collecting. Checked by
/// `Span::drop` before building the ancestry path, so runs without
/// `KPT_PROFILE` never pay for path construction.
#[inline]
pub(crate) fn profile_enabled() -> bool {
    PROFILE_ENABLED.load(Ordering::Relaxed)
}

/// Install the aggregator without touching the tracing switch (the
/// `ensure_init` path flips it together with `ENABLED`).
pub(crate) fn install(path: &str) {
    let mut s = state().lock().expect("profile state poisoned");
    s.path = Some(path.to_owned());
    s.stacks.clear();
    s.pending = 0;
    drop(s);
    PROFILE_ENABLED.store(true, Ordering::Release);
}

/// Start aggregating folded stacks into `path` (overwritten on every
/// flush) and make sure tracing is on — spans must be live to reach the
/// aggregator. If no sink is installed yet, ring-only tracing is enabled;
/// an existing file sink is left in place.
pub fn profile_to_file(path: &str) {
    if !crate::trace_enabled() {
        crate::trace_to_ring();
    }
    install(path);
}

/// Stop aggregating, flushing what has accumulated.
pub fn disable_profile() {
    flush_profile();
    PROFILE_ENABLED.store(false, Ordering::Release);
}

/// The folded-stack output path, if the aggregator is installed.
pub fn profile_path() -> Option<String> {
    state().lock().expect("profile state poisoned").path.clone()
}

/// Write the current aggregate to the profile path now (a no-op when no
/// profile is installed). Called automatically every `FLUSH_EVERY`
/// closed spans and from [`crate::disable_trace`].
pub fn flush_profile() {
    let mut s = state().lock().expect("profile state poisoned");
    flush_locked(&mut s);
}

/// Fold one closed span into the aggregate. `path` is the full ancestry
/// `root;..;self`, `self_us` the span's self time.
pub(crate) fn record_closed(path: &str, self_us: f64) {
    let mut s = state().lock().expect("profile state poisoned");
    if s.path.is_none() {
        return;
    }
    match s.stacks.get_mut(path) {
        Some(slot) => {
            slot.0 += 1;
            slot.1 += self_us;
        }
        None => {
            s.stacks.insert(path.to_owned(), (1, self_us));
        }
    }
    s.pending += 1;
    if s.pending >= FLUSH_EVERY {
        flush_locked(&mut s);
    }
}

fn flush_locked(s: &mut ProfState) {
    s.pending = 0;
    let Some(path) = s.path.clone() else {
        return;
    };
    let mut lines: Vec<(&String, u64)> = s
        .stacks
        .iter()
        .map(|(stack, &(_, us))| (stack, us.round() as u64))
        .collect();
    lines.sort();
    let mut out = String::with_capacity(lines.len() * 48);
    for (stack, us) in lines {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    if std::fs::write(&path, out).is_err() && !s.warned {
        s.warned = true;
        eprintln!("kpt-obs: KPT_PROFILE path {path:?} is not writable; profile output dropped");
    }
}

// ---------------------------------------------------------------------
// Pure reconstruction from recorded traces.
// ---------------------------------------------------------------------

/// One closed span as recovered from a trace: the minimum the tree
/// computations need.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The span's process-unique id.
    pub id: u64,
    /// Parent span id, `None` at a root.
    pub parent: Option<u64>,
    /// The span kind (`"bdd.fixpoint"`, ...).
    pub kind: String,
    /// Total duration in microseconds.
    pub dur_us: f64,
}

/// Per-label aggregate over a span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAggregate {
    /// The span kind.
    pub label: String,
    /// Closed spans with this kind.
    pub calls: u64,
    /// Summed wall-clock including children, µs.
    pub total_us: f64,
    /// Summed wall-clock excluding children, µs.
    pub self_us: f64,
}

/// Extract the closed spans from recorded events (one-shot events carry
/// no `span_id` and are skipped).
pub fn span_records(events: &[Event]) -> Vec<SpanRecord> {
    events
        .iter()
        .filter_map(|e| {
            Some(SpanRecord {
                id: e.span_id?,
                parent: e.parent_id,
                kind: e.kind.clone(),
                dur_us: e.dur_us?,
            })
        })
        .collect()
}

/// Sum of each span's children, keyed by parent id.
fn child_time(records: &[SpanRecord]) -> HashMap<u64, f64> {
    let mut child_us: HashMap<u64, f64> = HashMap::new();
    for r in records {
        if let Some(p) = r.parent {
            *child_us.entry(p).or_insert(0.0) += r.dur_us;
        }
    }
    child_us
}

/// Per-label self/total time and call counts, hottest self-time first.
///
/// A span's self time is its duration minus its recorded children's
/// durations (clamped at zero: a child whose parent was dropped by the
/// ring can over-subtract, never go negative).
pub fn aggregate_spans(records: &[SpanRecord]) -> Vec<SpanAggregate> {
    let child_us = child_time(records);
    let mut by_label: HashMap<&str, SpanAggregate> = HashMap::new();
    for r in records {
        let self_us = (r.dur_us - child_us.get(&r.id).copied().unwrap_or(0.0)).max(0.0);
        let agg = by_label
            .entry(r.kind.as_str())
            .or_insert_with(|| SpanAggregate {
                label: r.kind.clone(),
                calls: 0,
                total_us: 0.0,
                self_us: 0.0,
            });
        agg.calls += 1;
        agg.total_us += r.dur_us;
        agg.self_us += self_us;
    }
    let mut out: Vec<SpanAggregate> = by_label.into_values().collect();
    out.sort_by(|a, b| b.self_us.total_cmp(&a.self_us).then(a.label.cmp(&b.label)));
    out
}

/// Collapse a recorded span tree into flamegraph.pl folded-stack lines:
/// `(path, self-time µs)` per distinct ancestry path, sorted by path.
/// Parent chains are followed through the records; a span whose parent
/// fell out of the ring roots its own subtree.
pub fn folded_stacks(records: &[SpanRecord]) -> Vec<(String, u64)> {
    let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let child_us = child_time(records);
    let mut folded: HashMap<String, f64> = HashMap::new();
    for r in records {
        let self_us = (r.dur_us - child_us.get(&r.id).copied().unwrap_or(0.0)).max(0.0);
        let mut chain: Vec<&str> = vec![r.kind.as_str()];
        let mut cur = r.parent;
        // Depth cap guards against id collisions across processes sharing
        // one trace file producing an accidental cycle.
        while let Some(pid) = cur {
            if chain.len() >= 64 {
                break;
            }
            match by_id.get(&pid) {
                Some(p) => {
                    chain.push(p.kind.as_str());
                    cur = p.parent;
                }
                None => break,
            }
        }
        chain.reverse();
        *folded.entry(chain.join(";")).or_insert(0.0) += self_us;
    }
    let mut out: Vec<(String, u64)> = folded
        .into_iter()
        .map(|(stack, us)| (stack, us.round() as u64))
        .collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The synthetic 3-deep tree the ISSUE pins the attribution math on:
    ///
    /// ```text
    /// solve (100µs) ─ fixpoint (80µs) ─ bdd.ops (30µs)
    ///                └ fixpoint (10µs)
    /// ```
    fn tree() -> Vec<SpanRecord> {
        vec![
            SpanRecord {
                id: 3,
                parent: Some(2),
                kind: "bdd.ops".into(),
                dur_us: 30.0,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                kind: "fixpoint".into(),
                dur_us: 80.0,
            },
            SpanRecord {
                id: 4,
                parent: Some(1),
                kind: "fixpoint".into(),
                dur_us: 10.0,
            },
            SpanRecord {
                id: 1,
                parent: None,
                kind: "solve".into(),
                dur_us: 100.0,
            },
        ]
    }

    #[test]
    fn aggregate_attributes_self_time_on_three_deep_tree() {
        let aggs = aggregate_spans(&tree());
        let get = |label: &str| aggs.iter().find(|a| a.label == label).unwrap();
        let solve = get("solve");
        assert_eq!(solve.calls, 1);
        assert_eq!(solve.total_us, 100.0);
        // 100 total − (80 + 10) children = 10 self.
        assert_eq!(solve.self_us, 10.0);
        let fixpoint = get("fixpoint");
        assert_eq!(fixpoint.calls, 2);
        assert_eq!(fixpoint.total_us, 90.0);
        // (80 − 30) + (10 − 0) = 60 self.
        assert_eq!(fixpoint.self_us, 60.0);
        let ops = get("bdd.ops");
        assert_eq!(ops.calls, 1);
        assert_eq!(ops.self_us, 30.0);
        // Hottest self-time first.
        assert_eq!(aggs[0].label, "fixpoint");
    }

    #[test]
    fn folded_stacks_follow_parent_chains() {
        let folded = folded_stacks(&tree());
        assert_eq!(
            folded,
            vec![
                ("solve".to_owned(), 10),
                ("solve;fixpoint".to_owned(), 60),
                ("solve;fixpoint;bdd.ops".to_owned(), 30),
            ]
        );
    }

    #[test]
    fn orphaned_span_roots_its_own_subtree() {
        // Parent id 99 never closed (fell out of the ring): the child
        // becomes a root and keeps its full self time.
        let records = vec![SpanRecord {
            id: 5,
            parent: Some(99),
            kind: "leaf".into(),
            dur_us: 7.0,
        }];
        assert_eq!(folded_stacks(&records), vec![("leaf".to_owned(), 7)]);
        let aggs = aggregate_spans(&records);
        assert_eq!(aggs[0].self_us, 7.0);
    }

    #[test]
    fn span_records_skip_one_shot_events() {
        let events = vec![
            Event {
                ts_us: 0,
                kind: "progress".into(),
                dur_us: None,
                span_id: None,
                parent_id: Some(1),
                fields: vec![],
            },
            Event {
                ts_us: 1,
                kind: "work".into(),
                dur_us: Some(5.0),
                span_id: Some(1),
                parent_id: None,
                fields: vec![],
            },
        ];
        let records = span_records(&events);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].kind, "work");
    }

    #[test]
    fn live_aggregator_flushes_folded_lines() {
        let path = std::env::temp_dir().join(format!(
            "kpt-obs-prof-{}-{:?}.folded",
            std::process::id(),
            std::thread::current().id()
        ));
        let path_s = path.to_str().unwrap();
        let _ = std::fs::remove_file(&path);
        install(path_s);
        record_closed("a;b", 10.6);
        record_closed("a;b", 2.0);
        record_closed("a", 4.0);
        flush_profile();
        disable_profile();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("a;b 13\n"), "rounded self-µs sum: {text}");
        assert!(text.contains("a 4\n"), "{text}");
        let _ = std::fs::remove_file(&path);
        // Detach so later tests in the process don't keep appending.
        state().lock().unwrap().path = None;
    }
}
