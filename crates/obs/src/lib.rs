//! # kpt-obs: the workspace's zero-dependency observability layer
//!
//! The verification kernels answer *whether* a property holds; this crate
//! answers *why it was slow* and *why it failed*. Three pieces, all
//! in-tree and offline (matching the `kpt-testkit` philosophy):
//!
//! * **Metrics** ([`counter!`], [`histogram!`], [`metrics_snapshot`]) — a
//!   global registry of named atomic counters and log₂-bucketed
//!   histograms. Call sites cache the handle in a local `static`, so the
//!   steady-state cost of a bump is one relaxed atomic add; the registry
//!   lock is touched once per call site per process.
//! * **Traces** ([`span`], [`event`], [`trace_to_file`]) — structured
//!   events with monotonic timestamps, kept in a bounded ring buffer and
//!   (when `KPT_TRACE=<path>` is set, or a sink is installed
//!   programmatically) appended as JSON Lines. Live spans carry span and
//!   parent ids maintained on a thread-local span stack, so a trace is a
//!   real call tree; ring overflow is counted (`trace.dropped_events`)
//!   and marked in-band instead of being silent. When tracing is
//!   disabled — the default — every entry point is a single relaxed
//!   atomic load and a branch: no clock reads, no allocation, no locks.
//! * **Progress** ([`progress`], [`progress_scope`], [`progress_wanted`])
//!   — per-step reports from long fixpoints: a trace event while tracing,
//!   and a call into the thread's scoped progress sink, if any, whether
//!   or not tracing is on.
//! * **Memos** ([`Memo`], [`CacheStats`]) — the one clear-on-full,
//!   insert-if-absent memo behind the `K p` cache of both eq.-(25)
//!   engines, with its hit/miss/eviction accounting.
//! * **Profiles** ([`profile_to_file`], `KPT_PROFILE=<path>`,
//!   [`aggregate_spans`], [`folded_stacks`]) — exact self-time
//!   attribution over the span tree, exported in the flamegraph.pl
//!   collapsed-stack format and aggregatable per label (self vs. total
//!   time, call counts) from any recorded trace.
//! * **Verdicts** ([`Verdict`], [`WitnessState`]) — the structured
//!   explanation attached to failed proof obligations and no-solution
//!   outcomes: instead of a bare `false`, a verdict names concrete
//!   offending states decoded through the state space's variable names.
//!
//! The crate deliberately knows nothing about predicates or state spaces:
//! the verification crates decode their own states into [`WitnessState`]
//! rows and hand them over. This keeps `kpt-obs` at the bottom of the
//! dependency graph, usable from `kpt-state` up.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod json;
mod memo;
mod metrics;
mod profile;
mod trace;
mod verdict;

pub use json::{parse_json, JsonError, JsonValue};
pub use memo::{CacheStats, Memo, MEMO_CAP};
pub use metrics::{
    counter, gauge, histogram, metrics_snapshot, reset_metrics, Counter, Gauge, Histogram,
    HistogramSnapshot, Metric, MetricValue,
};
pub use profile::{
    aggregate_spans, disable_profile, flush_profile, folded_stacks, profile_path, profile_to_file,
    span_records, SpanAggregate, SpanRecord,
};
pub use trace::{
    disable_trace, dropped_events, event, json_escape_into, progress, progress_scope,
    progress_wanted, recent_events, span, trace_enabled, trace_path, trace_to_file, trace_to_ring,
    Event, Field, ProgressScope, Span,
};
pub use verdict::{report_verdict, Verdict, WitnessState};
