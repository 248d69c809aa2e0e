//! `--compare <a.json> <b.json>`: one row per (metric, workload) of two
//! result files, `a` being the base.

use crate::json::{self, Json};
use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, spread};
use crate::workload::WORKLOADS;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Status {
    Ok,
    /// `b`'s median is worse than `a`'s by more than the bound.
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so the
    /// two medians cannot be told apart at that resolution.
    Unresolved,
}

/// By how much of `a` the median of `b` is worse (negative: better).
fn worse_by(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Status {
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > metric.bound);
    if wide(a) || wide(b) {
        Status::Unresolved
    } else if worse_by(metric, median(a), median(b)) > metric.bound {
        Status::Worse
    } else {
        Status::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if file.get("quick").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{path} is a --quick run (or not a result file): quick numbers are not compared"
        ));
    }
    Ok(file)
}

fn values(file: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    file.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Print the table; `Ok(true)` when no pair is worse.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("base a = {path_a}\n     b = {path_b}");
    println!(
        "{:<16}{:<16}{:>12}{:>12}  {:<22}{:>9}{:>9}{:>7}  status",
        "workload", "metric", "median a", "median b", "b / a", "spread a", "spread b", "bound"
    );
    let mut all_ok = true;
    for workload in WORKLOADS {
        for metric in END_TO_END {
            let (Some(va), Some(vb)) = (
                values(&a, workload.name, metric.name),
                values(&b, workload.name, metric.name),
            ) else {
                println!(
                    "{:<16}{:<16}  missing from one of the files",
                    workload.name, metric.name
                );
                continue;
            };
            let (ma, mb) = (median(&va), median(&vb));
            let status = judge(metric, &va, &vb);
            all_ok &= status != Status::Worse;
            let pct =
                |s: Option<f64>| s.map_or("n/a".to_string(), |s| format!("{:.1}%", 100.0 * s));
            println!(
                "{:<16}{:<16}{:>12.3}{:>12.3}  {:<22}{:>9}{:>9}{:>7}  {}",
                workload.name,
                metric.name,
                ma,
                mb,
                format!("{:.3} x {:.3} {}", mb / ma, ma, metric.unit),
                pct(spread(&va)),
                pct(spread(&vb)),
                pct(Some(metric.bound)),
                match status {
                    Status::Ok => "ok",
                    Status::Worse => "worse",
                    Status::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judges_by_direction_bound_and_spread() {
        let metric = |better| EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound: 0.05,
        };
        let (p50, qps) = (&metric(Better::Lower), &metric(Better::Higher));
        let steady = |m: f64| vec![m * 0.999, m, m * 1.001, m];
        assert_eq!(judge(p50, &steady(100.0), &steady(104.0)), Status::Ok);
        assert_eq!(judge(p50, &steady(100.0), &steady(106.0)), Status::Worse);
        assert_eq!(judge(p50, &steady(100.0), &steady(50.0)), Status::Ok);
        assert_eq!(judge(qps, &steady(100.0), &steady(94.0)), Status::Worse);
        assert_eq!(judge(qps, &steady(100.0), &steady(130.0)), Status::Ok);
        // A spread wider than the bound hides the difference.
        let noisy = vec![80.0, 95.0, 106.0, 125.0];
        assert_eq!(judge(p50, &steady(100.0), &noisy), Status::Unresolved);
        // One run per side has no spread: judged on the medians alone.
        assert_eq!(judge(p50, &[100.0], &[120.0]), Status::Worse);
    }
}
