//! `tdp_bench`: the repository's benchmark runner.
//!
//! ```text
//! tdp_bench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!           [--runs <n>] [--smoke] [--out <file>] [--trace-out <file>]
//! tdp_bench compare <a.json> <b.json> [--bounds <BENCHMARK.json>]
//! ```
//!
//! One workload runs in this process. `--workload all` and `--runs`
//! start one child process per workload and run, so that every
//! `peak_rss_mb` is the peak of a fresh process. See `README.md`.

mod ai;
mod analytic;
mod compare;
mod datagen;
mod ingest;
mod json;
mod layers;
mod metrics;
mod result;
mod runner;
mod serve;
mod stats;
mod stmt;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use runner::{Config, Report};

struct Args {
    cfg: Config,
    runs: u64,
}

fn usage() -> String {
    format!(
        "usage: tdp_bench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1> \
         [--runs <n>] [--smoke] [--out <file>] [--trace-out <file>]\n       \
         tdp_bench compare <a.json> <b.json> [--bounds <BENCHMARK.json>]",
        metrics::WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut cfg = Config {
        workload: "all".to_string(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        plant_wrong: false,
        out: None,
        trace_out: None,
    };
    let mut runs = 1;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => cfg.workload = value()?.clone(),
            "--seed" => cfg.seed = parse(flag, value()?)?,
            "--seconds" => cfg.seconds = parse(flag, value()?)?,
            "--runs" => runs = parse(flag, value()?)?,
            "--trace" => {
                cfg.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => cfg.out = Some(PathBuf::from(value()?)),
            "--trace-out" => cfg.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => cfg.smoke = true,
            "--plant-wrong-expected" => cfg.plant_wrong = true,
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    if runs == 0 || runs > 100 {
        return Err("--runs must be between 1 and 100".to_string());
    }
    if cfg.workload != "all" && !metrics::WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("unknown workload '{}'\n{}", cfg.workload, usage()));
    }
    Ok(Args { cfg, runs })
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse '{value}'"))
}

/// Remove every `TDP_*` variable: the engine reads a dozen of them
/// (threads, morsel size, kernels, zone maps, budgets), and a stray one
/// in the caller's shell would silently measure another configuration.
/// Runs first thing in `main`, before any thread exists.
fn scrub_env() -> Vec<String> {
    let mut scrubbed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("TDP_"))
        .collect();
    scrubbed.sort();
    for key in &scrubbed {
        std::env::remove_var(key);
    }
    scrubbed
}

fn run_workload(cfg: &Config) -> Result<Report, String> {
    match cfg.workload.as_str() {
        analytic::NAME => analytic::run(cfg),
        serve::NAME => serve::run(cfg),
        ai::NAME => ai::run(cfg),
        ingest::NAME => ingest::run(cfg),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn print_report(report: &Report) {
    println!(
        "== {} — {} ops attempted, {} failed, engine threads {} ==",
        report.workload, report.attempted, report.failed, report.engine_threads
    );
    for m in &report.metrics {
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("{:<40} {:>16.4} {}{samples}", m.name, m.value, m.unit);
    }
    if let Some(why) = &report.first_failure {
        println!("first failure: {why}");
    }
    if let Some(path) = &report.trace_path {
        println!("trace: {}", path.display());
    }
}

/// One workload in this process: the mode the driver uses.
fn run_one(cfg: &Config, scrubbed: &[String]) -> Result<bool, String> {
    let report = run_workload(cfg)?;
    print_report(&report);
    let path = cfg.out.clone().unwrap_or_else(|| {
        runner::scratch_dir().join(format!(
            "result_{}_seed{}_trace{}.json",
            cfg.workload,
            cfg.seed,
            u8::from(cfg.trace)
        ))
    });
    result::write(
        &path,
        &result::file(cfg, scrubbed, vec![result::run(cfg.seed, &[&report])]),
    )?;
    println!("result file: {}", path.display());
    println!("{}", metrics::final_line(&report, cfg.trace).render());
    Ok(report.correct())
}

/// `--workload all` and/or `--runs n`: one child process per workload
/// and run, merged into one result file.
fn run_set(args: &Args, scrubbed: &[String]) -> Result<bool, String> {
    let cfg = &args.cfg;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let workloads: Vec<&str> = if cfg.workload == "all" {
        metrics::WORKLOADS.to_vec()
    } else {
        vec![cfg.workload.as_str()]
    };
    let dir = runner::scratch_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for i in 0..args.runs {
        let seed = cfg.seed + i;
        let mut parts = Vec::new();
        for workload in &workloads {
            let part = dir.join(format!(
                "part_{}_{workload}_{seed}.json",
                std::process::id()
            ));
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &cfg.seconds.to_string()])
                .args(["--trace", if cfg.trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if cfg.smoke {
                cmd.arg("--smoke");
            }
            if cfg.plant_wrong {
                cmd.arg("--plant-wrong-expected");
            }
            // The child's tables go to our stderr, so that our own
            // standard output ends with exactly one result line.
            let output = cmd
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            eprint!("{}", String::from_utf8_lossy(&output.stdout));
            all_correct &= output.status.success();
            let text = std::fs::read_to_string(&part).map_err(|e| {
                format!(
                    "{workload} (seed {seed}) left no result file {}: {e}",
                    part.display()
                )
            })?;
            std::fs::remove_file(&part).ok();
            let child = json::Json::parse(&text)?;
            parts.push(result::first_run_workloads(&child)?);
        }
        runs.push(result::merge_run(seed, parts));
    }
    let merged = result::file(cfg, scrubbed, runs);
    let path = cfg.out.clone().unwrap_or_else(|| {
        dir.join(format!(
            "result_set_seed{}_trace{}.json",
            cfg.seed,
            u8::from(cfg.trace)
        ))
    });
    result::write(&path, &merged)?;
    compare::print_summary(&merged)?;
    println!("result file: {}", path.display());
    println!("{}", result::set_line(&merged, all_correct).render());
    Ok(all_correct)
}

fn main() -> ExitCode {
    stats::pin_allocator_thresholds();
    let scrubbed = scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        parse_args(&args).and_then(|args| {
            if args.cfg.workload == "all" || args.runs > 1 {
                run_set(&args, &scrubbed)
            } else {
                run_one(&args.cfg, &scrubbed)
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tdp_bench: {e}");
            ExitCode::from(2)
        }
    }
}
