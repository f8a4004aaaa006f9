//! Shared support for the `kpt-bench` report bins.
//!
//! Every `*_summary` / `*_report` bin used to hand-roll the same
//! environment plumbing (`KPT_BENCH_FAST`, `KPT_BENCH_JSON`) and each
//! perf-tracking consumer re-parsed `BENCH_*.json` ad hoc. This crate
//! centralises both behind one schema:
//!
//! * [`report_config`] — the canonical [`Config`] builder for report
//!   bins (fast/full sample counts, JSON output path resolution);
//! * [`parse_bench_json`] — parse a `BENCH_*.json` snapshot (as written
//!   by `kpt_testkit::bench::results_to_json`) back into cases;
//! * [`diff_snapshots`] — the variance-aware comparison behind the
//!   `bench_diff` bin and the CI regression gate.

use std::time::Duration;

use kpt_obs::{parse_json, JsonValue};
use kpt_testkit::Config;

/// Build the canonical report-bin [`Config`] and return it together with
/// the fast-mode flag (several bins also shrink their *case set* in fast
/// mode, not just the sample counts).
///
/// * `KPT_BENCH_FAST` set to anything but `0` selects `fast_samples`
///   samples of ≥ 500 µs with 1 warmup; otherwise `full_samples` samples
///   of ≥ 2 ms with 2 warmups.
/// * `KPT_BENCH_JSON` overrides the output path, else `default_json`.
#[must_use]
pub fn report_config(
    default_json: &str,
    fast_samples: usize,
    full_samples: usize,
) -> (Config, bool) {
    let fast = std::env::var("KPT_BENCH_FAST")
        .map(|v| v != "0")
        .unwrap_or(false);
    let config = Config {
        sample_size: if fast { fast_samples } else { full_samples },
        target_sample_time: if fast {
            Duration::from_micros(500)
        } else {
            Duration::from_millis(2)
        },
        warmup_samples: if fast { 1 } else { 2 },
        filter: None,
        json_path: Some(
            std::env::var("KPT_BENCH_JSON").unwrap_or_else(|_| default_json.to_owned()),
        ),
    };
    (config, fast)
}

/// One benchmark case as recorded in a `BENCH_*.json` snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCase {
    /// Group name (may be empty).
    pub group: String,
    /// Case name within the group.
    pub case: String,
    /// Median wall-clock nanoseconds per iteration.
    pub median_ns: f64,
    /// Mean nanoseconds per iteration.
    pub mean_ns: f64,
    /// Fastest sample, ns per iteration.
    pub min_ns: f64,
}

impl BenchCase {
    /// `group/case` — the stable identity used for cross-snapshot joins.
    #[must_use]
    pub fn full_name(&self) -> String {
        if self.group.is_empty() {
            self.case.clone()
        } else {
            format!("{}/{}", self.group, self.case)
        }
    }
}

/// Parse a `BENCH_*.json` snapshot into its cases.
///
/// # Errors
/// Returns a description if the document is not valid JSON or lacks the
/// `results` array with the required numeric fields — schema drift the
/// regression gate treats as fatal.
pub fn parse_bench_json(text: &str) -> Result<Vec<BenchCase>, String> {
    let doc = parse_json(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let results = doc
        .get("results")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "missing `results` array".to_owned())?;
    let mut cases = Vec::with_capacity(results.len());
    for (i, r) in results.iter().enumerate() {
        let field = |k: &str| {
            r.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("result {i}: missing numeric `{k}`"))
        };
        cases.push(BenchCase {
            group: r
                .get("group")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_owned(),
            case: r
                .get("case")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("result {i}: missing `case`"))?
                .to_owned(),
            median_ns: field("median_ns")?,
            mean_ns: field("mean_ns")?,
            min_ns: field("min_ns")?,
        });
    }
    Ok(cases)
}

/// Verdict on one case present in both snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseDiff {
    /// `group/case` identity.
    pub name: String,
    /// Baseline median, ns.
    pub old_median_ns: f64,
    /// New median, ns.
    pub new_median_ns: f64,
    /// new/old median ratio.
    pub ratio: f64,
    /// The ratio above which this case counts as regressed.
    pub threshold: f64,
    /// `ratio > threshold`.
    pub regressed: bool,
}

/// Outcome of comparing two snapshots.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Per-case verdicts for cases present in both snapshots, sorted by
    /// descending ratio (worst first).
    pub cases: Vec<CaseDiff>,
    /// Baseline cases absent from the new snapshot — schema drift.
    pub missing: Vec<String>,
    /// New cases absent from the baseline — informational only.
    pub added: Vec<String>,
}

impl DiffReport {
    /// Cases whose median regressed past their variance-aware threshold.
    pub fn regressions(&self) -> impl Iterator<Item = &CaseDiff> {
        self.cases.iter().filter(|c| c.regressed)
    }

    /// True when no case regressed and no baseline case disappeared.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.missing.is_empty() && self.cases.iter().all(|c| !c.regressed)
    }
}

/// Base regression threshold: a median must slow down by more than 50%
/// before noise widening is even considered.
const BASE_THRESHOLD: f64 = 1.5;
/// Hard cap on the widened threshold, kept strictly below 2.0 so a true
/// 2x regression always trips no matter how noisy the case is.
const MAX_THRESHOLD: f64 = 1.9;

/// Compare two snapshots with a variance-aware threshold.
///
/// For each case present in both, the threshold starts at
/// `BASE_THRESHOLD` and widens with the observed sample spread —
/// `(median − min) / median` of whichever snapshot is noisier — capped at
/// `MAX_THRESHOLD`. Wall-clock medians on shared CI runners routinely
/// wobble ±30% on µs-scale cases; the spread term absorbs that without
/// letting a genuine 2x slowdown through.
#[must_use]
pub fn diff_snapshots(baseline: &[BenchCase], new: &[BenchCase]) -> DiffReport {
    let mut report = DiffReport::default();
    let new_by_name: std::collections::BTreeMap<String, &BenchCase> =
        new.iter().map(|c| (c.full_name(), c)).collect();
    let mut seen = std::collections::BTreeSet::new();
    for old in baseline {
        let name = old.full_name();
        seen.insert(name.clone());
        let Some(new) = new_by_name.get(&name) else {
            report.missing.push(name);
            continue;
        };
        let spread = |c: &BenchCase| {
            if c.median_ns > 0.0 {
                ((c.median_ns - c.min_ns) / c.median_ns).max(0.0)
            } else {
                0.0
            }
        };
        let threshold = (BASE_THRESHOLD + spread(old).max(spread(new))).min(MAX_THRESHOLD);
        let ratio = if old.median_ns > 0.0 {
            new.median_ns / old.median_ns
        } else if new.median_ns > 0.0 {
            f64::INFINITY
        } else {
            1.0
        };
        report.cases.push(CaseDiff {
            name,
            old_median_ns: old.median_ns,
            new_median_ns: new.median_ns,
            ratio,
            threshold,
            regressed: ratio > threshold,
        });
    }
    for new in new {
        let name = new.full_name();
        if !seen.contains(&name) {
            report.added.push(name);
        }
    }
    report.cases.sort_by(|a, b| {
        b.ratio
            .partial_cmp(&a.ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(group: &str, name: &str, median: f64, min: f64) -> BenchCase {
        BenchCase {
            group: group.to_owned(),
            case: name.to_owned(),
            median_ns: median,
            mean_ns: median,
            min_ns: min,
        }
    }

    #[test]
    fn self_compare_is_clean() {
        let snap = vec![case("g", "a", 100.0, 90.0), case("", "b", 5_000.0, 4_000.0)];
        let report = diff_snapshots(&snap, &snap);
        assert!(report.is_clean());
        assert!(report.missing.is_empty() && report.added.is_empty());
        assert_eq!(report.cases.len(), 2);
        assert!(report.cases.iter().all(|c| (c.ratio - 1.0).abs() < 1e-9));
    }

    #[test]
    fn seeded_two_x_regression_trips() {
        // Even a maximally noisy case (spread ~1.0 capped at MAX_THRESHOLD)
        // must fail on a genuine 2x slowdown.
        let old = vec![case("g", "hot", 100.0, 1.0)];
        let new = vec![case("g", "hot", 200.0, 2.0)];
        let report = diff_snapshots(&old, &new);
        assert!(!report.is_clean());
        let diff = &report.cases[0];
        assert!(diff.regressed);
        assert!((diff.ratio - 2.0).abs() < 1e-9);
        assert!(diff.threshold < 2.0);
    }

    #[test]
    fn noise_within_spread_does_not_trip() {
        // 60% slowdown on a case whose own samples spread 40% is absorbed.
        let old = vec![case("g", "noisy", 100.0, 60.0)];
        let new = vec![case("g", "noisy", 160.0, 100.0)];
        let report = diff_snapshots(&old, &new);
        assert!(report.is_clean(), "threshold 1.5+0.4 should absorb 1.6x");
        // The same slowdown on a tight case trips.
        let old = vec![case("g", "tight", 100.0, 99.0)];
        let new = vec![case("g", "tight", 160.0, 158.0)];
        assert!(!diff_snapshots(&old, &new).is_clean());
    }

    #[test]
    fn missing_case_is_schema_drift_and_added_is_informational() {
        let old = vec![case("g", "a", 100.0, 90.0), case("g", "gone", 50.0, 40.0)];
        let new = vec![case("g", "a", 100.0, 90.0), case("g", "fresh", 10.0, 9.0)];
        let report = diff_snapshots(&old, &new);
        assert_eq!(report.missing, vec!["g/gone".to_owned()]);
        assert_eq!(report.added, vec!["g/fresh".to_owned()]);
        assert!(!report.is_clean());
    }

    #[test]
    fn snapshot_json_round_trips() {
        let results = vec![kpt_testkit::CaseResult {
            group: "g".to_owned(),
            case: "esc\"ape".to_owned(),
            median_ns: 123.4,
            mean_ns: 130.0,
            min_ns: 110.0,
            samples: 10,
            iters_per_sample: 1000,
        }];
        let json = kpt_testkit::results_to_json(&results);
        let cases = parse_bench_json(&json).expect("parses");
        assert_eq!(cases.len(), 1);
        assert_eq!(cases[0].case, "esc\"ape");
        assert!((cases[0].median_ns - 123.4).abs() < 1e-6);
    }

    #[test]
    fn malformed_snapshots_are_rejected() {
        assert!(parse_bench_json("not json").is_err());
        assert!(parse_bench_json("{}").is_err());
        assert!(parse_bench_json("{\"results\": [{\"group\": \"g\"}]}").is_err());
    }

    #[test]
    fn report_config_resolves_env() {
        // Env-var driven; only check the non-env defaults to stay
        // parallel-test safe.
        let (config, _fast) = report_config("BENCH_x.json", 3, 10);
        assert!(config.sample_size == 3 || config.sample_size == 10);
        assert!(config.json_path.is_some());
    }
}
