//! `--compare a.json… -- b.json…`: for every workload and metric in two
//! sets of `--out` result files, each set's median and quartiles and
//! whether the sets agree within the bound `BENCHMARK.json` fixes.

use std::collections::BTreeMap;

use kpt_obs::JsonValue;

use crate::stats::{median, quartiles};

/// A bounded end-to-end metric: how far it may worsen, and which way is worse.
struct Bound {
    share: f64,
    lower_is_better: bool,
}

fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let v = kpt_obs::parse_json(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = v
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let share = m.get("bound").and_then(JsonValue::as_f64);
            let better = m.get("better").and_then(JsonValue::as_str);
            match (name, share, better) {
                (Some(n), Some(share), Some(b)) => Ok((
                    n.to_owned(),
                    Bound {
                        share,
                        lower_is_better: b == "lower",
                    },
                )),
                _ => Err(format!("BENCHMARK.json: malformed end_to_end entry {m:?}")),
            }
        })
        .collect()
}

type Values = BTreeMap<(String, String), Vec<f64>>;

/// Every `(workload, metric)` value across `files`, the detail (such as
/// `host.probe_ms`) included.
fn load(files: &[String]) -> Result<Values, String> {
    let mut out = Values::new();
    for f in files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        let v = kpt_obs::parse_json(text.trim()).map_err(|e| format!("{f}: {e}"))?;
        let workload = v
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("{f}: no workload (write result files with --out)"))?;
        let (Some(JsonValue::Object(metrics)), Some(JsonValue::Object(detail))) =
            (v.get("metrics"), v.get("detail"))
        else {
            return Err(format!("{f}: no metrics or detail object"));
        };
        for (name, m) in metrics.iter().chain(detail) {
            let value = m
                .get("value")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("{f}: {name} has no value"))?;
            out.entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(out)
}

/// Relative spread: interquartile distance over the median.
fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// The verdict on one pairing: "agree", "better", "worse", or
/// "unresolved" when either set's spread exceeds the bound and not every
/// run of `b` beats every run of `a`.
fn verdict(a: &[f64], b: &[f64], bound: &Bound) -> &'static str {
    if spread(a).max(spread(b)) > bound.share {
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let b_wins = if bound.lower_is_better {
            max(b) < min(a)
        } else {
            min(b) > max(a)
        };
        return if b_wins { "better" } else { "unresolved" };
    }
    let change = (median(b) - median(a)) / median(a).abs();
    let worse = if bound.lower_is_better {
        change
    } else {
        -change
    };
    if worse > bound.share {
        "worse"
    } else if -worse > bound.share {
        "better"
    } else {
        "agree"
    }
}

/// The comparison table, and whether every bounded pairing agrees (or is
/// better).
pub fn compare(a: &[String], b: &[String], benchmark_json: &str) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark_json)?;
    let (va, vb) = (load(a)?, load(b)?);
    let mut out = format!(
        "{:<12} {:<32} {:>34} {:>34} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound"
    );
    let mut all_agree = true;
    for (key, xs) in &va {
        let Some(ys) = vb.get(key) else { continue };
        let summary = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            format!("{:.4} [{q1:.4}, {q3:.4}]", median(v))
        };
        let change = 100.0 * (median(ys) - median(xs)) / median(xs).abs();
        let (bound, verdict) = match bounds.get(&key.1) {
            Some(bd) => (format!("{:.0}%", 100.0 * bd.share), verdict(xs, ys, bd)),
            None => ("-".to_owned(), "n/a"),
        };
        all_agree &= matches!(verdict, "agree" | "better" | "n/a");
        out.push_str(&format!(
            "{:<12} {:<32} {:>34} {:>34} {:>7.1}% {:>6}  {verdict}\n",
            key.0,
            key.1,
            summary(xs),
            summary(ys),
            change,
            bound
        ));
    }
    Ok((out, all_agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_direction() {
        let lower = Bound {
            share: 0.1,
            lower_is_better: true,
        };
        let a = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(verdict(&a, &[10.5, 10.4, 10.6, 10.5], &lower), "agree");
        assert_eq!(verdict(&a, &[12.0, 12.1, 11.9, 12.0], &lower), "worse");
        assert_eq!(verdict(&a, &[8.0, 8.1, 7.9, 8.0], &lower), "better");
        assert_eq!(verdict(&a, &[5.0, 10.0, 15.0, 20.0], &lower), "unresolved");
        assert_eq!(verdict(&a, &[5.0, 6.0, 8.0, 9.0], &lower), "better");
        let higher = Bound {
            lower_is_better: false,
            ..lower
        };
        assert_eq!(verdict(&a, &[12.0, 12.1, 11.9, 12.0], &higher), "better");
    }
}
