//! Spans and events: the tracing half of the observability layer.
//!
//! A trace is a sequence of [`Event`]s — one-shot [`event`]s or closed
//! [`span`]s — each carrying a dotted-path `kind`, a monotonic timestamp
//! (microseconds since the process's first trace call), optional duration,
//! and a flat list of typed fields. Events land in a bounded in-memory
//! ring buffer (inspectable via [`recent_events`]) and, when a file sink
//! is installed, are appended to it as JSON Lines — one `{...}` object per
//! line, written with a single `write` syscall so concurrent test
//! processes tracing to the same `KPT_TRACE` path interleave whole lines.
//!
//! ## Hierarchical spans
//!
//! Live spans carry a process-unique `span_id` and the `parent_id` of the
//! innermost live span open on the same thread, maintained on a
//! thread-local span stack. Closed-span events therefore encode a real
//! call tree: `obs_report --flame` and the [`crate::profile`] aggregator
//! reconstruct parent→child attribution (total vs. self time, folded
//! flamegraph stacks) from any trace. One-shot events carry the enclosing
//! span's id as their `parent_id`, so progress events stream with their
//! position in the tree attached.
//!
//! ## The zero-overhead-when-disabled guarantee
//!
//! Every public entry point starts with a relaxed load of one global
//! `AtomicBool`. When tracing is disabled (no `KPT_TRACE`, no programmatic
//! sink) that load-and-branch is the *entire* cost: no `Instant::now`, no
//! allocation, no lock, no thread-local access. `BENCH_obs.json`'s
//! `span_overhead/disabled` case measures exactly this path.
//!
//! ## Overflow accounting
//!
//! The ring buffer is bounded; when it wraps, the overwritten event is
//! counted in the `trace.dropped_events` counter and a `trace.dropped`
//! marker event (carrying the running total) is emitted at wrap
//! milestones, so overflow is visible in the trace itself instead of
//! being silent data loss. The file sink never drops lines — but if the
//! path turns out to be unwritable the sink warns **once** on stderr and
//! degrades to ring-only tracing rather than failing the traced solve.
//!
//! ## Enabling
//!
//! * environment: `KPT_TRACE=/path/to/trace.jsonl` (checked once, on the
//!   first trace call of the process; the file is opened in append mode)
//!   and/or `KPT_PROFILE=/path/to/profile.folded` (enables tracing and
//!   the folded-stack aggregator, see [`crate::profile_to_file`]);
//! * programmatic: [`trace_to_file`] / [`trace_to_ring`] /
//!   [`disable_trace`], which override the environment setting and may be
//!   called repeatedly (tests switch sinks freely).
//!
//! ## Progress sinks
//!
//! Long computations report headway through [`progress`]: one call per
//! step, with a `*.progress` kind and the step's fields. The call is
//! recorded as a trace event when tracing is on, and is also handed to
//! the thread's *progress sink*, if one is in scope. A sink is installed
//! with [`progress_scope`] and stays in scope until the returned guard
//! drops, which restores whatever sink was in scope before. Sinks are
//! per thread: work the computation fans out to other threads reports to
//! those threads' sinks, usually none. kpt-server scopes a sink around
//! each request it runs, forwarding that request's progress to its
//! connection. No sink, and no tracing, makes [`progress_wanted`] false,
//! so emitters skip computing their fields.

use std::cell::RefCell;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

use crate::profile;

/// Maximum events retained in the in-memory ring buffer.
pub(crate) const RING_CAP: usize = 8192;

/// A `trace.dropped` marker is emitted on the first wrap and then once
/// every this many dropped events.
const DROP_MARK_EVERY: u64 = RING_CAP as u64;

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::U64(v)
    }
}
impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::U64(v as u64)
    }
}
impl From<u32> for Field {
    fn from(v: u32) -> Self {
        Field::U64(u64::from(v))
    }
}
impl From<i64> for Field {
    fn from(v: i64) -> Self {
        Field::I64(v)
    }
}
impl From<f64> for Field {
    fn from(v: f64) -> Self {
        Field::F64(v)
    }
}
impl From<bool> for Field {
    fn from(v: bool) -> Self {
        Field::Bool(v)
    }
}
impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_owned())
    }
}
impl From<String> for Field {
    fn from(v: String) -> Self {
        Field::Str(v)
    }
}

impl Field {
    fn render_json(&self, out: &mut String) {
        match self {
            Field::U64(v) => out.push_str(&v.to_string()),
            Field::I64(v) => out.push_str(&v.to_string()),
            Field::F64(v) => {
                if v.is_finite() {
                    out.push_str(&format!("{v}"));
                } else {
                    out.push_str("null");
                }
            }
            Field::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
            Field::Str(s) => {
                out.push('"');
                json_escape_into(s, out);
                out.push('"');
            }
        }
    }
}

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Microseconds since the process's trace epoch (monotonic clock).
    pub ts_us: u64,
    /// Dotted-path event kind (`"fixpoint.frontier"`, `"pool.map"`, ...).
    pub kind: String,
    /// Span duration in microseconds; `None` for one-shot events.
    pub dur_us: Option<f64>,
    /// Process-unique span id for closed spans; `None` for one-shot events.
    pub span_id: Option<u64>,
    /// Id of the innermost enclosing live span on the emitting thread (for
    /// spans: the parent in the call tree; for one-shot events: the span
    /// the event happened inside). `None` at the root.
    pub parent_id: Option<u64>,
    /// Typed payload fields, in emission order.
    pub fields: Vec<(String, Field)>,
}

impl Event {
    /// Look up a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Render as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96 + self.fields.len() * 24);
        out.push_str("{\"ts_us\":");
        out.push_str(&self.ts_us.to_string());
        out.push_str(",\"kind\":\"");
        json_escape_into(&self.kind, &mut out);
        out.push('"');
        if let Some(d) = self.dur_us {
            out.push_str(&format!(",\"dur_us\":{d:.1}"));
        }
        if let Some(id) = self.span_id {
            out.push_str(&format!(",\"span_id\":{id}"));
        }
        if let Some(id) = self.parent_id {
            out.push_str(&format!(",\"parent_id\":{id}"));
        }
        for (k, v) in &self.fields {
            out.push_str(",\"");
            json_escape_into(k, &mut out);
            out.push_str("\":");
            v.render_json(&mut out);
        }
        out.push('}');
        out
    }
}

/// Append `s` to `out` as JSON string *content* (no surrounding quotes):
/// backslash-escapes `"`/`\`, named escapes for `\n`/`\r`/`\t`, `\u`
/// escapes for remaining control characters. Shared by the trace sink and
/// the kpt-server wire protocol so both emit identical JSON text.
pub fn json_escape_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

struct SinkState {
    ring: std::collections::VecDeque<Event>,
    file: Option<File>,
    path: Option<String>,
    /// Events overwritten by ring wraps since process start.
    dropped: u64,
}

impl SinkState {
    /// Push `ev` into the ring and, when a file sink is installed,
    /// append it there as one JSON line (events are serialized for the
    /// file only). False when the file write failed.
    fn record(&mut self, ev: Event) -> bool {
        let written = match self.file.as_mut() {
            Some(f) => {
                let mut line = ev.to_json();
                line.push('\n');
                // One write call per line: concurrent processes appending
                // to the same trace file interleave whole lines, keeping
                // the JSONL valid.
                f.write_all(line.as_bytes()).is_ok()
            }
            None => true,
        };
        if self.ring.len() >= RING_CAP {
            self.ring.pop_front();
            self.dropped += 1;
            crate::counter!("trace.dropped_events").incr();
        }
        self.ring.push_back(ev);
        written
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static INIT: Once = Once::new();
/// Next span id; 0 is reserved so ids are always nonzero.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
/// One-time stderr warning latch for sink I/O failures.
static SINK_WARNED: AtomicBool = AtomicBool::new(false);

/// One live span open on this thread: its id, its kind (for folded-stack
/// paths), and the wall-clock already attributed to finished children
/// (total − child time = self time).
struct OpenSpan {
    id: u64,
    kind: String,
    child_us: f64,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<OpenSpan>> = const { RefCell::new(Vec::new()) };
    static PROGRESS_SINK: RefCell<Option<ProgressSink>> = const { RefCell::new(None) };
}

/// A thread's progress sink: see [`progress_scope`].
type ProgressSink = Rc<dyn Fn(&str, &[(&str, Field)])>;

/// The guard [`progress_scope`] returns. While it lives, [`progress`]
/// calls on this thread reach its sink; dropping it puts back the sink
/// that was in scope before. It is not `Send`: a scope belongs to the
/// thread that opened it.
#[must_use = "the sink is in scope only while the guard lives"]
pub struct ProgressScope {
    prev: Option<ProgressSink>,
}

/// Bring `sink` into scope on this thread until the guard drops. Scopes
/// nest: an inner scope shadows the outer one, and dropping it restores
/// the outer sink.
pub fn progress_scope(sink: impl Fn(&str, &[(&str, Field)]) + 'static) -> ProgressScope {
    let prev = PROGRESS_SINK.with(|s| s.replace(Some(Rc::new(sink))));
    ProgressScope { prev }
}

impl Drop for ProgressScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        PROGRESS_SINK.with(|s| *s.borrow_mut() = prev);
    }
}

/// Whether a [`progress`] call on this thread would reach anyone: a sink
/// is in scope or tracing is on. Emitters check it before computing the
/// fields of a progress call.
#[inline]
pub fn progress_wanted() -> bool {
    trace_enabled() || PROGRESS_SINK.with(|s| s.borrow().is_some())
}

/// Report one step of a long computation: hand `kind` and `fields` to
/// this thread's progress sink, if one is in scope, and record them as a
/// trace [`event`] when tracing is on.
pub fn progress(kind: &str, fields: &[(&str, Field)]) {
    // Cloned out of the cell so the sink may itself open a scope.
    let sink = PROGRESS_SINK.with(|s| s.borrow().clone());
    if let Some(sink) = sink {
        sink(kind, fields);
    }
    event(kind, fields);
}

fn sink() -> &'static Mutex<SinkState> {
    static SINK: OnceLock<Mutex<SinkState>> = OnceLock::new();
    SINK.get_or_init(|| {
        Mutex::new(SinkState {
            ring: std::collections::VecDeque::new(),
            file: None,
            path: None,
            dropped: 0,
        })
    })
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Warn on stderr once per process, however many sink failures occur.
fn warn_once(msg: std::fmt::Arguments<'_>) {
    if !SINK_WARNED.swap(true, Ordering::Relaxed) {
        eprintln!("kpt-obs: {msg}");
    }
}

/// Read `KPT_TRACE` / `KPT_PROFILE` once per process; called lazily from
/// every entry point so that plain library users need no explicit setup.
fn ensure_init() {
    INIT.call_once(|| {
        epoch();
        if let Ok(path) = std::env::var("KPT_TRACE") {
            if !path.is_empty() {
                // An unwritable path degrades to ring-only tracing with a
                // one-time warning rather than failing the traced program.
                if let Err(e) = install_file(&path) {
                    warn_once(format_args!(
                        "KPT_TRACE path {path:?} is not writable ({e}); \
                         tracing to the in-memory ring only"
                    ));
                }
                ENABLED.store(true, Ordering::Release);
            }
        }
        if let Ok(path) = std::env::var("KPT_PROFILE") {
            if !path.is_empty() {
                profile::install(&path);
                ENABLED.store(true, Ordering::Release);
            }
        }
    });
}

fn install_file(path: &str) -> std::io::Result<()> {
    let file = OpenOptions::new().create(true).append(true).open(path)?;
    let mut s = sink().lock().expect("trace sink poisoned");
    s.file = Some(file);
    s.path = Some(path.to_owned());
    Ok(())
}

/// Whether tracing is currently enabled (ring-only or file-backed).
#[inline]
pub fn trace_enabled() -> bool {
    if ENABLED.load(Ordering::Relaxed) {
        return true;
    }
    // Cold path: first call may still need to consult the environment.
    if INIT.is_completed() {
        return false;
    }
    ensure_init();
    ENABLED.load(Ordering::Relaxed)
}

/// The file the trace is being appended to, if a file sink is installed.
pub fn trace_path() -> Option<String> {
    ensure_init();
    sink().lock().expect("trace sink poisoned").path.clone()
}

/// Install (or replace) a JSONL file sink at `path` (append mode) and
/// enable tracing. Overrides any `KPT_TRACE` setting.
///
/// # Errors
/// I/O errors opening the file.
pub fn trace_to_file(path: &str) -> std::io::Result<()> {
    ensure_init();
    install_file(path)?;
    ENABLED.store(true, Ordering::Release);
    Ok(())
}

/// Enable tracing into the in-memory ring buffer only (drops any file
/// sink). Used by tests and the reporter example.
pub fn trace_to_ring() {
    ensure_init();
    let mut s = sink().lock().expect("trace sink poisoned");
    s.file = None;
    s.path = None;
    drop(s);
    ENABLED.store(true, Ordering::Release);
}

/// Disable tracing entirely (drops any file sink; the ring's contents are
/// kept for [`recent_events`] until tracing is re-enabled). Flushes any
/// pending folded-stack profile so short-lived programs never lose their
/// tail.
pub fn disable_trace() {
    ensure_init();
    let mut s = sink().lock().expect("trace sink poisoned");
    s.file = None;
    s.path = None;
    drop(s);
    ENABLED.store(false, Ordering::Release);
    profile::flush_profile();
}

/// The most recent events (up to the ring capacity), oldest first.
pub fn recent_events() -> Vec<Event> {
    ensure_init();
    sink()
        .lock()
        .expect("trace sink poisoned")
        .ring
        .iter()
        .cloned()
        .collect()
}

/// Events overwritten by ring-buffer wraps since process start. The same
/// total is kept in the `trace.dropped_events` counter and surfaced in
/// `trace.dropped` marker events.
pub fn dropped_events() -> u64 {
    ensure_init();
    sink().lock().expect("trace sink poisoned").dropped
}

fn emit(ev: Event) {
    let mut s = sink().lock().expect("trace sink poisoned");
    let mut write_failed = !s.record(ev);
    // Surface ring overflow in the trace itself: a marker on the first
    // wrap, then one per DROP_MARK_EVERY overwritten events. Constructed
    // inline (never through `event`) so it cannot recurse.
    if s.dropped > 0 && (s.dropped == 1 || s.dropped.is_multiple_of(DROP_MARK_EVERY)) {
        let marker = Event {
            ts_us: now_us(),
            kind: "trace.dropped".to_owned(),
            dur_us: None,
            span_id: None,
            parent_id: None,
            fields: vec![("dropped".to_owned(), Field::U64(s.dropped))],
        };
        write_failed |= !s.record(marker);
    }
    if write_failed {
        // Degrade to ring-only tracing rather than retrying a dead file
        // descriptor on every event mid-solve.
        let path = s.path.take();
        s.file = None;
        drop(s);
        warn_once(format_args!(
            "trace sink {path:?} failed to accept a write; \
             continuing with the in-memory ring only"
        ));
    }
}

fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Id of the innermost live span on this thread, if any.
fn current_parent() -> Option<u64> {
    SPAN_STACK.with(|st| st.borrow().last().map(|s| s.id))
}

/// Emit a one-shot event. A no-op (one atomic load) when tracing is
/// disabled; `fields` is only evaluated by the caller, so wrap expensive
/// payload construction in a [`trace_enabled`] check. The event carries
/// the enclosing span's id as `parent_id`.
pub fn event(kind: &str, fields: &[(&str, Field)]) {
    if !trace_enabled() {
        return;
    }
    emit(Event {
        ts_us: now_us(),
        kind: kind.to_owned(),
        dur_us: None,
        span_id: None,
        parent_id: current_parent(),
        fields: fields
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.clone()))
            .collect(),
    });
}

/// An in-flight span: emits an event carrying its wall-clock duration,
/// span id, and parent id when dropped (or explicitly [`Span::finish`]ed).
/// Obtained from [`span`]; disabled spans are inert zero-cost shells.
#[must_use = "a span measures the scope it lives in"]
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    id: u64,
    kind: String,
    start: Instant,
    ts_us: u64,
    fields: Vec<(String, Field)>,
}

/// Open a span of the given kind. When tracing is disabled this costs one
/// atomic load and returns an inert span. A live span is pushed onto the
/// thread's span stack, so spans and events opened underneath it record
/// it as their parent.
pub fn span(kind: &str) -> Span {
    if !trace_enabled() {
        return Span { inner: None };
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    SPAN_STACK.with(|st| {
        st.borrow_mut().push(OpenSpan {
            id,
            kind: kind.to_owned(),
            child_us: 0.0,
        });
    });
    Span {
        inner: Some(SpanInner {
            id,
            kind: kind.to_owned(),
            start: Instant::now(),
            ts_us: now_us(),
            fields: Vec::new(),
        }),
    }
}

impl Span {
    /// Whether this span is live (tracing was enabled when it opened).
    pub fn is_live(&self) -> bool {
        self.inner.is_some()
    }

    /// The span's process-unique id (`None` on inert spans).
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.id)
    }

    /// Attach a field (no-op on inert spans).
    pub fn field(&mut self, name: &str, value: impl Into<Field>) -> &mut Self {
        if let Some(inner) = self.inner.as_mut() {
            inner.fields.push((name.to_owned(), value.into()));
        }
        self
    }

    /// Close the span now, emitting its event.
    pub fn finish(self) {
        drop(self);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_us = inner.start.elapsed().as_secs_f64() * 1e6;
        // Unwind this span from the thread's stack. The entry is normally
        // the top; searching from the end also tolerates out-of-order
        // finishes. A span finished on a different thread than it opened
        // on simply won't be found — it then reports no parent.
        let (parent_id, self_us, folded) = SPAN_STACK.with(|st| {
            let mut stack = st.borrow_mut();
            let Some(pos) = stack.iter().rposition(|s| s.id == inner.id) else {
                return (None, dur_us, None);
            };
            let entry = stack.remove(pos);
            let self_us = (dur_us - entry.child_us).max(0.0);
            let parent_id = if pos > 0 {
                let parent = &mut stack[pos - 1];
                parent.child_us += dur_us;
                Some(parent.id)
            } else {
                None
            };
            let folded = profile::profile_enabled().then(|| {
                let mut path = String::new();
                for anc in stack.iter().take(pos) {
                    path.push_str(&anc.kind);
                    path.push(';');
                }
                path.push_str(&entry.kind);
                path
            });
            (parent_id, self_us, folded)
        });
        if let Some(path) = folded {
            profile::record_closed(&path, self_us);
        }
        emit(Event {
            ts_us: inner.ts_us,
            kind: inner.kind,
            dur_us: Some(dur_us),
            span_id: Some(inner.id),
            parent_id,
            fields: inner.fields,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The sink is global; tests in this module serialise on a lock so
    // their enable/disable toggles don't interleave.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_tracing_emits_nothing() {
        let _g = guard();
        disable_trace();
        let before = recent_events().len();
        event("test.noop", &[("x", Field::U64(1))]);
        let mut s = span("test.noop.span");
        assert!(!s.is_live());
        assert!(s.id().is_none());
        s.field("y", 2u64);
        drop(s);
        assert_eq!(recent_events().len(), before);
    }

    #[test]
    fn ring_records_events_and_spans() {
        let _g = guard();
        trace_to_ring();
        event(
            "test.ring.event",
            &[("n", Field::U64(7)), ("s", "hi".into())],
        );
        {
            let mut sp = span("test.ring.span");
            sp.field("items", 3u64);
        }
        let evs = recent_events();
        disable_trace();
        let e = evs
            .iter()
            .rev()
            .find(|e| e.kind == "test.ring.event")
            .expect("event recorded");
        assert_eq!(e.field("n"), Some(&Field::U64(7)));
        assert_eq!(e.field("s"), Some(&Field::Str("hi".into())));
        assert!(e.dur_us.is_none());
        assert!(e.span_id.is_none());
        let sp = evs
            .iter()
            .rev()
            .find(|e| e.kind == "test.ring.span")
            .expect("span recorded");
        assert!(sp.dur_us.is_some());
        assert!(sp.span_id.is_some());
        assert_eq!(sp.field("items"), Some(&Field::U64(3)));
    }

    #[test]
    fn span_stack_links_parents_and_events() {
        let _g = guard();
        trace_to_ring();
        let outer = span("test.tree.outer");
        let outer_id = outer.id().expect("live span has an id");
        {
            let inner = span("test.tree.inner");
            let inner_id = inner.id().unwrap();
            assert_ne!(inner_id, outer_id);
            event("test.tree.progress", &[("round", Field::U64(1))]);
            let evs = recent_events();
            let prog = evs
                .iter()
                .rev()
                .find(|e| e.kind == "test.tree.progress")
                .unwrap();
            // One-shot events attach to the innermost open span.
            assert_eq!(prog.parent_id, Some(inner_id));
        }
        outer.finish();
        let evs = recent_events();
        disable_trace();
        let inner = evs
            .iter()
            .rev()
            .find(|e| e.kind == "test.tree.inner")
            .unwrap();
        assert_eq!(inner.parent_id, Some(outer_id));
        let outer = evs
            .iter()
            .rev()
            .find(|e| e.kind == "test.tree.outer")
            .unwrap();
        assert_eq!(outer.span_id, Some(outer_id));
        assert_eq!(outer.parent_id, None);
        // The tree round-trips through the JSONL form.
        let parsed = crate::parse_json(&inner.to_json()).unwrap();
        assert_eq!(
            parsed.get("parent_id").and_then(|v| v.as_u64()),
            Some(outer_id)
        );
        assert!(parsed.get("span_id").and_then(|v| v.as_u64()).is_some());
    }

    #[test]
    fn ring_wrap_counts_dropped_events_and_emits_marker() {
        let _g = guard();
        trace_to_ring();
        let dropped_before = dropped_events();
        let counter_before = crate::counter("trace.dropped_events").get();
        for i in 0..(RING_CAP + 10) {
            event("test.flood", &[("i", Field::U64(i as u64))]);
        }
        let dropped_after = dropped_events();
        let evs = recent_events();
        disable_trace();
        assert!(
            dropped_after >= dropped_before + 10,
            "ring wrap uncounted: {dropped_before} -> {dropped_after}"
        );
        assert!(crate::counter("trace.dropped_events").get() >= counter_before + 10);
        let marker = evs
            .iter()
            .rev()
            .find(|e| e.kind == "trace.dropped")
            .expect("trace.dropped marker in ring");
        assert!(matches!(marker.field("dropped"), Some(&Field::U64(n)) if n > 0));
    }

    /// A sink that records the kinds it is handed, tagged with `tag`.
    fn recording(tag: &'static str, log: &Rc<RefCell<Vec<String>>>) -> ProgressScope {
        let log = Rc::clone(log);
        progress_scope(move |kind, fields| {
            assert_eq!(fields, &[("n", Field::U64(1))]);
            log.borrow_mut().push(format!("{tag}:{kind}"));
        })
    }

    #[test]
    fn nested_progress_scopes_restore_the_outer_sink() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let outer = recording("outer", &log);
        progress("a.progress", &[("n", Field::U64(1))]);
        {
            let _inner = recording("inner", &log);
            progress("b.progress", &[("n", Field::U64(1))]);
        }
        progress("c.progress", &[("n", Field::U64(1))]);
        drop(outer);
        progress("d.progress", &[("n", Field::U64(1))]);
        assert_eq!(
            *log.borrow(),
            ["outer:a.progress", "inner:b.progress", "outer:c.progress"]
        );
    }

    #[test]
    fn progress_sinks_are_per_thread() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let _scope = recording("main", &log);
        assert!(progress_wanted());
        let elsewhere = std::thread::spawn(|| {
            progress("other.progress", &[("n", Field::U64(1))]);
            PROGRESS_SINK.with(|s| s.borrow().is_some())
        })
        .join()
        .unwrap();
        assert!(!elsewhere, "a scope never leaks to another thread");
        assert!(log.borrow().is_empty());
    }

    #[test]
    fn progress_is_unwanted_without_a_scope_or_tracing() {
        let _g = guard();
        disable_trace();
        assert!(!progress_wanted());
        let before = recent_events().len();
        progress("test.unwanted.progress", &[("n", Field::U64(1))]);
        assert_eq!(recent_events().len(), before);
        trace_to_ring();
        assert!(progress_wanted(), "tracing alone wants progress");
        progress("test.traced.progress", &[("n", Field::U64(1))]);
        let evs = recent_events();
        disable_trace();
        assert!(evs.iter().any(|e| e.kind == "test.traced.progress"));
    }

    #[test]
    fn json_lines_escape_and_roundtrip() {
        let ev = Event {
            ts_us: 12,
            kind: "k\"ind".into(),
            dur_us: Some(3.25),
            span_id: Some(9),
            parent_id: Some(4),
            fields: vec![
                ("a".into(), Field::U64(1)),
                ("b".into(), Field::Str("x\ny".into())),
                ("c".into(), Field::Bool(true)),
                ("d".into(), Field::F64(1.5)),
                ("e".into(), Field::I64(-2)),
            ],
        };
        let json = ev.to_json();
        assert!(json.contains("\"kind\":\"k\\\"ind\""));
        assert!(json.contains("\\n"));
        let parsed = crate::parse_json(&json).expect("own output parses");
        assert_eq!(parsed.get("ts_us").and_then(|v| v.as_u64()), Some(12));
        assert_eq!(parsed.get("kind").and_then(|v| v.as_str()), Some("k\"ind"));
        assert_eq!(parsed.get("span_id").and_then(|v| v.as_u64()), Some(9));
        assert_eq!(parsed.get("parent_id").and_then(|v| v.as_u64()), Some(4));
        assert_eq!(parsed.get("a").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(parsed.get("c").and_then(|v| v.as_bool()), Some(true));
    }

    #[test]
    fn file_sink_appends_valid_jsonl() {
        let _g = guard();
        let path = std::env::temp_dir().join(format!("kpt-obs-test-{}.jsonl", std::process::id()));
        let path_s = path.to_str().expect("utf8 temp path");
        let _ = std::fs::remove_file(&path);
        trace_to_file(path_s).expect("open trace file");
        event("test.file.one", &[("v", Field::U64(1))]);
        event("test.file.two", &[]);
        disable_trace();
        let contents = std::fs::read_to_string(&path).expect("trace file written");
        let lines: Vec<&str> = contents.lines().filter(|l| !l.is_empty()).collect();
        assert!(lines.len() >= 2);
        for line in &lines {
            crate::parse_json(line).expect("every line parses");
        }
        assert!(contents.contains("test.file.one"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unwritable_file_sink_is_rejected_not_panicked() {
        let _g = guard();
        // `trace_to_file` surfaces the error; the env path takes the
        // warn-once branch instead (exercised implicitly by ensure_init).
        let err = trace_to_file("/nonexistent-kpt-dir/trace.jsonl");
        assert!(err.is_err());
        disable_trace();
    }
}
