//! `kpt-testkit`: the workspace's zero-dependency testing and measurement
//! toolkit.
//!
//! Three pieces, all deterministic and offline:
//!
//! * [`Rng`] — a seeded SplitMix64/xoshiro256++ PRNG with the small slice
//!   of the `rand` API the workspace uses (ranges, Bernoulli, shuffle).
//!   Production code (fault-injecting channels, randomised fair
//!   schedulers) uses it for reproducible pseudo-randomness.
//! * [`check`]/[`replay`] — a seeded property-test harness replacing
//!   `proptest`: many independent random cases, failures reported with
//!   their replayable `(seed, case)` coordinates.
//! * [`Criterion`] and the [`criterion_group!`]/[`criterion_main!`] macros
//!   — a criterion-compatible micro-benchmark harness reporting median
//!   ns/iteration, with JSON output for cross-PR tracking
//!   (`KPT_BENCH_JSON`).
//! * [`pool`] — a scoped, order-preserving [`pool::parallel_map`] over one
//!   shared cursor (registry lint's fan-out) and the persistent
//!   [`pool::TaskPool`] the server dispatches on; thread count from
//!   `KPT_THREADS` or [`std::thread::available_parallelism`].

#![warn(missing_docs)]

mod bench;
pub mod genprog;
pub mod pool;
mod prop;
mod rng;

pub use bench::{
    black_box, results_to_json, Bencher, BenchmarkGroup, BenchmarkId, CaseResult, Config,
    Criterion, Throughput,
};
pub use prop::{check, replay};
pub use rng::Rng;
