//! The uniform result file: one JSON per invocation.
//!
//! ```text
//! { "schema_version": 1, "commit", "rustc", "nproc", "scrubbed_env": [..],
//!   "seconds", "trace", "smoke",
//!   "runs": [ { "seed": n,
//!               "workloads": { "<workload>": { "correct", "attempted", "failed",
//!                                              "engine_threads", "first_failure",
//!                                              "trace_path",
//!                                              "metrics": { "<name>": { "value", "unit",
//!                                                                       "samples"? } } } } } ] }
//! ```

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::runner::{Config, Report};
use crate::stats;

pub const SCHEMA_VERSION: f64 = 1.0;

/// First line of a command's standard output, or "unknown" (the
/// driver's checkout is not a git repository).
fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn workload(report: &Report) -> Json {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            let mut fields = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
            if let Some(n) = m.samples {
                fields.push(("samples", Json::Num(n as f64)));
            }
            (m.name.clone(), Json::obj(fields))
        })
        .collect();
    let optional = |s: Option<String>| s.map_or(Json::Null, Json::Str);
    Json::obj(vec![
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("engine_threads", Json::Num(report.engine_threads as f64)),
        ("first_failure", optional(report.first_failure.clone())),
        (
            "trace_path",
            optional(report.trace_path.as_ref().map(|p| p.display().to_string())),
        ),
        ("metrics", Json::Obj(metrics)),
    ])
}

pub fn run(seed: u64, reports: &[&Report]) -> Json {
    merge_run(
        seed,
        vec![reports
            .iter()
            .map(|r| (r.workload.clone(), workload(r)))
            .collect()],
    )
}

/// One run out of per-workload parts (each a child's `workloads`).
pub fn merge_run(seed: u64, parts: Vec<Vec<(String, Json)>>) -> Json {
    Json::obj(vec![
        ("seed", Json::Num(seed as f64)),
        (
            "workloads",
            Json::Obj(parts.into_iter().flatten().collect()),
        ),
    ])
}

/// The `workloads` of the first run of a result file.
pub fn first_run_workloads(file: &Json) -> Result<Vec<(String, Json)>, String> {
    file.get("runs")
        .and_then(Json::as_array)
        .and_then(|runs| runs.first())
        .and_then(|run| run.get("workloads"))
        .map(|w| w.fields().to_vec())
        .ok_or_else(|| "result file has no runs[0].workloads".to_string())
}

pub fn file(cfg: &Config, scrubbed: &[String], runs: Vec<Json>) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("schema_version", Json::Num(SCHEMA_VERSION)),
        (
            "commit",
            Json::str(tool_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(tool_line("rustc", &["--version"]))),
        ("nproc", Json::Num(nproc as f64)),
        (
            "scrubbed_env",
            Json::Arr(scrubbed.iter().map(Json::str).collect()),
        ),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Num(f64::from(u8::from(cfg.trace)))),
        ("smoke", Json::Bool(cfg.smoke)),
        ("runs", Json::Arr(runs)),
    ])
}

pub fn write(path: &Path, file: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Values of every `workload × metric` of a result file, one per run,
/// in file order, with the metric's unit.
pub struct Series {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub values: Vec<f64>,
}

pub fn series(file: &Json) -> Result<Vec<Series>, String> {
    let runs = file
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("result file has no runs")?;
    let mut out: Vec<Series> = Vec::new();
    for run in runs {
        let workloads = run.get("workloads").ok_or("a run has no workloads")?;
        for (workload, body) in workloads.fields() {
            let metrics = body.get("metrics").ok_or("a workload has no metrics")?;
            for (metric, entry) in metrics.fields() {
                let value = entry
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{workload}.{metric} has no value"))?;
                match out
                    .iter_mut()
                    .find(|s| s.workload == *workload && s.metric == *metric)
                {
                    Some(s) => s.values.push(value),
                    None => out.push(Series {
                        workload: workload.clone(),
                        metric: metric.clone(),
                        unit: entry
                            .get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                        values: vec![value],
                    }),
                }
            }
        }
    }
    Ok(out)
}

/// `(attempted, failed)` of a workload summed over the runs of a file.
pub fn failures(file: &Json, workload: &str) -> (f64, f64) {
    let mut totals = (0.0, 0.0);
    for run in file.get("runs").and_then(Json::as_array).unwrap_or(&[]) {
        if let Some(w) = run.get("workloads").and_then(|w| w.get(workload)) {
            totals.0 += w.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
            totals.1 += w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        }
    }
    totals
}

/// Last line of a set's standard output: every metric as
/// `<workload>/<metric>`, the median over the runs.
pub fn set_line(file: &Json, correct: bool) -> Json {
    let all = series(file).unwrap_or_default();
    let mut attempted = 0.0;
    let mut failed = 0.0;
    let mut seen: Vec<&str> = Vec::new();
    for s in &all {
        if !seen.contains(&s.workload.as_str()) {
            seen.push(&s.workload);
            let (a, f) = failures(file, &s.workload);
            attempted += a;
            failed += f;
        }
    }
    let metrics = all
        .iter()
        .map(|s| {
            (
                format!("{}/{}", s.workload, s.metric),
                Json::obj(vec![
                    ("value", Json::Num(stats::median(&s.values))),
                    ("unit", Json::str(&s.unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(workload: &str, p50: f64, failed: u64) -> Report {
        let mut r = Report::new(workload);
        r.attempted = 100;
        r.failed = failed;
        r.push_sampled("lat_p50_ms", p50, "ms", 100);
        r
    }

    #[test]
    fn series_collects_one_value_per_run() {
        let cfg = Config {
            workload: "all".into(),
            seed: 1,
            seconds: 1.0,
            trace: false,
            smoke: true,
            plant_wrong: false,
            out: None,
            trace_out: None,
        };
        let (a1, b1) = (report("a", 1.0, 0), report("b", 5.0, 1));
        let (a2, b2) = (report("a", 3.0, 0), report("b", 7.0, 0));
        let file = file(
            &cfg,
            &["TDP_THREADS".to_string()],
            vec![run(1, &[&a1, &b1]), run(2, &[&a2, &b2])],
        );
        let file = Json::parse(&file.pretty()).unwrap();
        let all = series(&file).unwrap();
        assert_eq!(all.len(), 2);
        assert_eq!(
            (all[0].workload.as_str(), all[0].values.as_slice()),
            ("a", &[1.0, 3.0][..])
        );
        assert_eq!(all[1].unit, "ms");
        assert_eq!(failures(&file, "b"), (200.0, 1.0));
        assert_eq!(first_run_workloads(&file).unwrap().len(), 2);
        let line = set_line(&file, false);
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            line.get("metrics")
                .unwrap()
                .get("b/lat_p50_ms")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(6.0)
        );
        assert_eq!(
            file.get("scrubbed_env").unwrap().as_array().unwrap().len(),
            1
        );
    }
}
