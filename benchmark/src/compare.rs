//! `compare a.json b.json`: two sets of runs, row by row.
//!
//! A set is what `benchmark/aa.sh` writes: `{"host_cpus": n, "runs":
//! [{"workload", "seed", "result"}, ...]}`. For each workload and each
//! end-to-end metric the two sets' medians are compared against the
//! metric's bound, the way the acceptance rule does.

use damq_bench::json::Json;

use crate::declared::{Declared, Metric};
use crate::stats;

fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    let Some(Json::Arr(runs)) = set.get("runs") else {
        return Vec::new();
    };
    runs.iter()
        .filter(|r| matches!(r.get("workload"), Some(Json::Str(w)) if w == workload))
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Interquartile range as a share of the median.
fn spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = stats::quartiles(samples);
    (q3 - q1) / stats::median(samples).abs()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between runs is wider than the bound, so the medians
    /// cannot tell.
    Unresolved,
}

pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let (ma, mb) = (stats::median(a), stats::median(b));
    let worse_by = if metric.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let better = |x: f64, y: f64| {
        if metric.higher_is_better {
            x > y
        } else {
            x < y
        }
    };
    let b_wins_every_time = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread(a).max(spread(b)) > bound && !b_wins_every_time {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

pub fn command(argv: &[String], declared: &Declared) -> Result<bool, String> {
    let [a, b] = argv else {
        return Err("compare takes two files".to_owned());
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a)?, load(b)?);
    let cpus = |set: &Json| set.get("host_cpus").and_then(Json::as_f64).unwrap_or(0.0);
    println!(
        "base = first file (host_cpus {}), second host_cpus {}",
        cpus(&a),
        cpus(&b)
    );
    println!(
        "{:<20} {:<20} {:>3} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median a", "median b", "b/a", "iqr a", "iqr b", "bound"
    );
    let mut all_ok = true;
    for workload in &declared.workloads {
        for metric in &declared.end_to_end {
            let (va, vb) = (
                values(&a, workload, &metric.name),
                values(&b, workload, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<20} {:<20} missing from a set", metric.name);
                all_ok = false;
                continue;
            }
            let verdict = verdict(metric, &va, &vb);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            println!(
                "{workload:<20} {:<20} {:>3} {ma:>14.6} {mb:>14.6} {:>8.4} {:>8.4} {:>8.4} {:>6.2}  {}",
                metric.name,
                va.len().min(vb.len()),
                mb / ma,
                spread(&va),
                spread(&vb),
                metric.bound.unwrap_or(0.0),
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
            );
            all_ok &= verdict == Verdict::Ok;
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher_is_better: bool) -> Metric {
        Metric {
            name: "m".to_owned(),
            unit: "1/s".to_owned(),
            higher_is_better,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i) * 0.1).collect();
        let slower: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        let noisy: Vec<f64> = (0..10).map(|i| 60.0 + f64::from(i) * 9.0).collect();
        assert_eq!(verdict(&metric(true), &steady, &steady), Verdict::Ok);
        assert_eq!(verdict(&metric(true), &steady, &slower), Verdict::Regressed);
        assert_eq!(verdict(&metric(false), &steady, &slower), Verdict::Ok);
        assert_eq!(verdict(&metric(true), &steady, &noisy), Verdict::Unresolved);
        // Wide spread, but every run of b beats every run of a.
        let faster: Vec<f64> = noisy.iter().map(|v| v + 100.0).collect();
        assert_eq!(verdict(&metric(true), &steady, &faster), Verdict::Ok);
    }
}
