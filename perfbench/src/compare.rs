//! `tdp_bench compare <a.json> <b.json>`: one row per workload and
//! end-to-end metric, judged against the bounds `BENCHMARK.json` fixes.

use std::path::Path;

use crate::json::Json;
use crate::result::{self, Series};
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// Not worse by the medians, but a side's run-to-run spread is
    /// wider than the bound, so "unchanged" cannot be claimed either.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

struct Bound {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn bounds(spec: &Json) -> Result<Vec<Bound>, String> {
    spec.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("the bounds file has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {}", m.render())),
            }
        })
        .collect()
}

/// Judge side `b` against base `a`. `spread` is the wider of the two
/// sides' interquartile ranges over their medians (0 with one run).
pub fn verdict(a: f64, b: f64, spread: f64, bound: f64, higher_is_better: bool) -> Verdict {
    // Positive `gain`: b is better than a by that share of a.
    let gain = if a == 0.0 {
        0.0
    } else if higher_is_better {
        (b - a) / a.abs()
    } else {
        (a - b) / a.abs()
    };
    if gain < -bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn find<'a>(all: &'a [Series], workload: &str, metric: &str) -> Option<&'a Series> {
    all.iter()
        .find(|s| s.workload == workload && s.metric == metric)
}

fn quartile_text(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some([q1, _, q3]) => format!("[{q1:.4} .. {q3:.4}]"),
        None => "[one run]".to_string(),
    }
}

/// Median and quartiles of every workload × metric of one file.
pub fn print_summary(file: &Json) -> Result<(), String> {
    println!(
        "{:<20} {:<36} {:>14} {:<26} {:>7} {:>4}  unit",
        "workload", "metric", "median", "quartiles", "spread", "runs"
    );
    for s in result::series(file)? {
        let spread =
            stats::spread(&s.values).map_or("-".to_string(), |x| format!("{:.1}%", x * 100.0));
        println!(
            "{:<20} {:<36} {:>14.4} {:<26} {spread:>7} {:>4}  {}",
            s.workload,
            s.metric,
            stats::median(&s.values),
            quartile_text(&s.values),
            s.values.len(),
            s.unit
        );
    }
    Ok(())
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Returns whether `b` is acceptable: no metric worse, no failure
/// share higher.
pub fn compare(a: &Json, b: &Json, spec: &Json) -> Result<bool, String> {
    let bounds = bounds(spec)?;
    let (sa, sb) = (result::series(a)?, result::series(b)?);
    let mut workloads: Vec<&str> = Vec::new();
    for s in &sa {
        if !workloads.contains(&s.workload.as_str()) {
            workloads.push(&s.workload);
        }
    }
    let mut acceptable = true;
    println!(
        "{:<20} {:<18} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "a (base)", "b", "b/a", "spread", "bound"
    );
    for workload in workloads {
        for bound in &bounds {
            let (Some(x), Some(y)) = (
                find(&sa, workload, &bound.name),
                find(&sb, workload, &bound.name),
            ) else {
                println!("{workload:<20} {:<18} missing from one side", bound.name);
                acceptable = false;
                continue;
            };
            let (ma, mb) = (stats::median(&x.values), stats::median(&y.values));
            let spread = stats::spread(&x.values)
                .unwrap_or(0.0)
                .max(stats::spread(&y.values).unwrap_or(0.0));
            let v = verdict(ma, mb, spread, bound.bound, bound.higher_is_better);
            acceptable &= v != Verdict::Worse;
            let ratio = if ma == 0.0 { 0.0 } else { mb / ma };
            println!(
                "{workload:<20} {:<18} {ma:>12.4} {mb:>12.4} {ratio:>8.3}x {:>6.1}% {:>6.1}%  {} \
                 (a: {} n={}, b: {} n={}, {})",
                bound.name,
                spread * 100.0,
                bound.bound * 100.0,
                v.word(),
                quartile_text(&x.values),
                x.values.len(),
                quartile_text(&y.values),
                y.values.len(),
                x.unit
            );
        }
        let (attempted_a, failed_a) = result::failures(a, workload);
        let (attempted_b, failed_b) = result::failures(b, workload);
        let share = |failed: f64, attempted: f64| {
            if attempted > 0.0 {
                failed / attempted
            } else {
                0.0
            }
        };
        let (fa, fb) = (share(failed_a, attempted_a), share(failed_b, attempted_b));
        let rose = fb > fa;
        acceptable &= !rose;
        println!(
            "{workload:<20} {:<18} {fa:>12.6} {fb:>12.6} ({failed_a} of {attempted_a} ops, \
             {failed_b} of {attempted_b} ops)  {}",
            "fail_share",
            if rose { "worse" } else { "within" }
        );
    }
    Ok(acceptable)
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds_path = it.next().ok_or("--bounds needs a file")?.clone();
        } else {
            files.push(arg.clone());
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(
            "usage: tdp_bench compare <a.json> <b.json> [--bounds <BENCHMARK.json>]".into(),
        );
    };
    compare(&load(a)?, &load(b)?, &load(&bounds_path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_on_synthetic_inputs() {
        // Lower is better, 7% bound.
        assert_eq!(verdict(100.0, 103.0, 0.01, 0.07, false), Verdict::Within);
        assert_eq!(verdict(100.0, 108.0, 0.01, 0.07, false), Verdict::Worse);
        assert_eq!(verdict(100.0, 90.0, 0.01, 0.07, false), Verdict::Better);
        // Higher is better: the same numbers flip.
        assert_eq!(verdict(100.0, 108.0, 0.01, 0.07, true), Verdict::Better);
        assert_eq!(verdict(100.0, 92.0, 0.01, 0.07, true), Verdict::Worse);
        // A spread wider than the bound: neither "within" nor "better"
        // may be claimed, but a regression beyond the bound still counts.
        assert_eq!(
            verdict(100.0, 101.0, 0.12, 0.07, false),
            Verdict::Unresolved
        );
        assert_eq!(verdict(100.0, 80.0, 0.12, 0.07, false), Verdict::Unresolved);
        assert_eq!(verdict(100.0, 120.0, 0.12, 0.07, false), Verdict::Worse);
        // Exactly on the bound is still within.
        assert_eq!(verdict(100.0, 107.0, 0.0, 0.07, false), Verdict::Within);
    }

    fn result_file(p50s: &[f64], failed: f64) -> Json {
        let runs = p50s
            .iter()
            .map(|&v| {
                Json::obj(vec![(
                    "workloads",
                    Json::obj(vec![(
                        "w",
                        Json::obj(vec![
                            ("attempted", Json::Num(1000.0)),
                            ("failed", Json::Num(failed)),
                            (
                                "metrics",
                                Json::obj(vec![(
                                    "lat_p50_ms",
                                    Json::obj(vec![
                                        ("value", Json::Num(v)),
                                        ("unit", Json::str("ms")),
                                    ]),
                                )]),
                            ),
                        ]),
                    )]),
                )])
            })
            .collect();
        Json::obj(vec![("runs", Json::Arr(runs))])
    }

    #[test]
    fn compare_rejects_regressions_and_failure_rises() {
        let spec = Json::parse(
            r#"{"end_to_end": [{"name": "lat_p50_ms", "unit": "ms", "better": "lower", "bound": 0.07}]}"#,
        )
        .unwrap();
        let base = result_file(&[10.0, 10.1, 9.9], 0.0);
        assert_eq!(
            compare(&base, &result_file(&[10.2, 10.3, 10.1], 0.0), &spec),
            Ok(true)
        );
        assert_eq!(
            compare(&base, &result_file(&[11.0, 11.2, 11.1], 0.0), &spec),
            Ok(false)
        );
        assert_eq!(
            compare(&base, &result_file(&[10.0, 10.0, 10.0], 1.0), &spec),
            Ok(false)
        );
        assert_eq!(
            compare(&base, &Json::obj(vec![("runs", Json::Arr(vec![]))]), &spec),
            Ok(false)
        );
        assert!(compare(&base, &base, &Json::obj(vec![])).is_err());
    }
}
