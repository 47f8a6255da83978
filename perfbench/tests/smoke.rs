//! End-to-end runs of the `tdp_bench` binary at smoke scale: every
//! workload, both modes, oracle check included.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch directory of this test's own, under the build directory.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tdp_bench(dir: &PathBuf, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tdp_bench"))
        .args(args)
        // Scratch files of the run land here, and a stray engine knob in
        // the caller's environment must not matter.
        .env("CARGO_TARGET_DIR", dir)
        .env("TDP_THREADS", "1")
        .output()
        .expect("tdp_bench starts")
}

/// `(name, number)` pairs of a flat JSON object of numbers, read with
/// no parser: the result line nests exactly `"name": {"value": n,`.
fn metric(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn field(line: &str, name: &str) -> String {
    let key = format!("\"{name}\": ");
    let rest = &line[line
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {line}"))
        + key.len()..];
    rest[..rest.find([',', '}']).unwrap()].to_string()
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

const WORKLOADS: [&str; 4] = [
    "analytic_embedded",
    "short_serve_tcp",
    "ai_embedded",
    "ingest_embedded",
];

const END_TO_END: [&str; 6] = [
    "setup_s",
    "throughput_ops_s",
    "lat_p50_ms",
    "lat_p95_ms",
    "cpu_ms_per_op",
    "peak_rss_mb",
];

#[test]
fn every_workload_runs_end_to_end_and_matches_the_oracle() {
    let dir = scratch("smoke_timed");
    for workload in WORKLOADS {
        let out = tdp_bench(
            &dir,
            &[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0.3",
                "--trace",
                "0",
                "--smoke",
            ],
        );
        let line = last_line(&out);
        assert!(
            out.status.success(),
            "{workload} failed: {line}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(field(&line, "correct"), "true", "{workload}: {line}");
        assert_eq!(field(&line, "failed"), "0", "{workload}: {line}");
        assert!(
            field(&line, "attempted").parse::<u64>().unwrap() >= 5,
            "{workload}: {line}"
        );
        for name in END_TO_END {
            let value =
                metric(&line, name).unwrap_or_else(|| panic!("{workload} lacks {name}: {line}"));
            assert!(value > 0.0, "{workload} {name} = {value}");
        }
    }
}

#[test]
fn traced_pass_reports_every_layer_and_writes_a_loadable_trace() {
    let dir = scratch("smoke_traced");
    for workload in WORKLOADS {
        let trace = dir.join(format!("{workload}.trace.json"));
        let out = tdp_bench(
            &dir,
            &[
                "--workload",
                workload,
                "--seed",
                "4",
                "--seconds",
                "0.3",
                "--trace",
                "1",
                "--smoke",
                "--trace-out",
                trace.to_str().unwrap(),
            ],
        );
        let line = last_line(&out);
        assert!(
            out.status.success(),
            "{workload} failed: {line}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(field(&line, "correct"), "true", "{workload}: {line}");
        // The layers every workload exercises.
        for name in [
            "sql.parse_us",
            "exec.run_us",
            "core.bind_us",
            "bench.tracing_overhead_ratio",
        ] {
            assert!(
                metric(&line, name).unwrap() > 0.0,
                "{workload} {name}: {line}"
            );
        }
        assert!(
            metric(&line, "bench.op_span_coverage_p50").unwrap() >= 0.9,
            "{workload}: {line}"
        );
        assert!(
            metric(&line, "lat_p50_ms").is_none(),
            "end-to-end metric in a traced result"
        );
        let text = std::fs::read_to_string(&trace).unwrap();
        assert!(
            text.starts_with("{\"displayTimeUnit\""),
            "{workload}: not a Chrome trace"
        );
        assert!(text.contains("\"ph\": \"X\"") && text.contains("\"exec.run\""));
    }
}

#[test]
fn same_seed_gives_the_same_counters() {
    let dir = scratch("smoke_repeat");
    let run = |seed: &str| {
        let out = tdp_bench(
            &dir,
            &[
                "--workload",
                "ingest_embedded",
                "--seed",
                seed,
                "--seconds",
                "0.3",
                "--trace",
                "1",
                "--smoke",
            ],
        );
        assert!(out.status.success());
        let line = last_line(&out);
        [
            "exec.morsels_pruned",
            "exec.morsels_scanned",
            "exec.barriers_selection_fed",
            "exec.barriers_gathered",
            "core.plan_cache_evictions",
            "storage.append_write_amp",
        ]
        .map(|name| metric(&line, name).unwrap())
    };
    assert_eq!(run("5"), run("5"));
}

#[test]
fn a_planted_wrong_expectation_fails_the_run() {
    let dir = scratch("smoke_planted");
    for workload in ["analytic_embedded", "short_serve_tcp"] {
        let out = tdp_bench(
            &dir,
            &[
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "0.3",
                "--trace",
                "0",
                "--smoke",
                "--plant-wrong-expected",
            ],
        );
        let line = last_line(&out);
        assert_eq!(out.status.code(), Some(1), "{workload}: {line}");
        assert_eq!(field(&line, "correct"), "false");
        assert_eq!(field(&line, "failed"), "1");
    }
}

#[test]
fn a_set_of_runs_merges_into_one_file_that_compares_equal_to_itself() {
    let dir = scratch("smoke_set");
    let file = dir.join("set.json");
    let out = tdp_bench(
        &dir,
        &[
            "--workload",
            "all",
            "--seed",
            "7",
            "--runs",
            "2",
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--smoke",
            "--out",
            file.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = last_line(&out);
    assert_eq!(field(&line, "correct"), "true");
    assert!(metric(&line, "ai_embedded/lat_p50_ms").unwrap() > 0.0);
    let text = std::fs::read_to_string(&file).unwrap();
    assert_eq!(text.matches("\"seed\":").count(), 2);
    for workload in WORKLOADS {
        assert_eq!(text.matches(&format!("\"{workload}\":")).count(), 2);
    }

    let bounds = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let same = tdp_bench(
        &dir,
        &[
            "compare",
            file.to_str().unwrap(),
            file.to_str().unwrap(),
            "--bounds",
            bounds,
        ],
    );
    let table = String::from_utf8_lossy(&same.stdout).to_string();
    assert!(same.status.success(), "{table}");
    assert!(!table.contains("worse"), "{table}");
    assert!(table.contains("fail_share"));
}

#[test]
fn bad_arguments_are_refused() {
    let dir = scratch("smoke_args");
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "0"],
        &["--trace", "2"],
        &["--frobnicate"],
        &["compare", "only-one.json"],
    ] {
        let out = tdp_bench(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
