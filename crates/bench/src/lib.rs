//! Shared harness utilities for the figure-regeneration benches.
//!
//! Every `[[bench]]` target with `harness = false` in this crate is one
//! figure of the paper; running `cargo bench` regenerates them all and
//! prints the same rows/series the paper reports. Scales default to a
//! laptop-friendly budget; set `TDP_BENCH_FULL=1` for paper-scale runs.
//! The numbers each bench printed at the last recorded run, beside the
//! paper's claims, are in `ROADMAP.md` (item 13, "The paper's results,
//! regenerated and checked"); nothing checks them yet.

use std::time::Instant;

/// Whether paper-scale mode is requested.
pub fn full_scale() -> bool {
    std::env::var("TDP_BENCH_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Integer knob with laptop/full defaults and an env override
/// (`TDP_<NAME>`).
pub fn knob(name: &str, laptop: usize, full: usize) -> usize {
    if let Ok(v) = std::env::var(format!("TDP_{name}")) {
        if let Ok(n) = v.parse() {
            return n;
        }
    }
    if full_scale() {
        full
    } else {
        laptop
    }
}

/// Run a closure and return (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Print a figure banner.
pub fn figure(title: &str, paper: &str) {
    println!("\n==========================================================");
    println!("{title}");
    println!("paper reports: {paper}");
    println!("==========================================================");
}

/// Format seconds for table output.
pub fn secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}
