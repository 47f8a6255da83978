//! Per-layer measurements: counters read from the program's public
//! stats structs, metrics read off the spans of a traced pass, operator
//! shares from profiled runs, and one-off probes.

use std::time::Instant;

use tdp_core::storage::Table;
use tdp_core::{ParamValues, Prepared, Session, TdpEngine};

use crate::runner::{scratch_dir, table_digest, Report};
use crate::stats;
use crate::trace::{At, Kind, Tracer};

/// Counters the program keeps, read through its public stats structs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    plan_hits: u64,
    plan_misses: u64,
    plan_evictions: u64,
    kernel_hits: u64,
    kernel_misses: u64,
    kernel_fallbacks: u64,
    morsels_pruned: u64,
    morsels_scanned: u64,
    barriers_selection_fed: u64,
    barriers_gathered: u64,
    ann_queries: u64,
    ivf_stale_fallbacks: u64,
    queued: u64,
    rejected: u64,
    budget_aborts: u64,
    mem_high_water: u64,
}

impl Counters {
    pub fn read(engine: &TdpEngine, session: &Session) -> Counters {
        let stats = engine.stats();
        let access = engine.access_path_stats();
        // The session's view: its private kernel cache once it has
        // registered a function of its own, else the engine's.
        let kernels = session.chain_kernel_stats();
        Counters {
            plan_hits: stats.plan_cache.hits,
            plan_misses: stats.plan_cache.misses,
            plan_evictions: stats.plan_cache.evictions,
            kernel_hits: kernels.hits,
            kernel_misses: kernels.misses,
            kernel_fallbacks: kernels.fallbacks,
            morsels_pruned: access.morsels_pruned,
            morsels_scanned: access.morsels_scanned,
            barriers_selection_fed: access.barriers_selection_fed,
            barriers_gathered: access.barriers_gathered,
            ann_queries: access.ann_queries,
            ivf_stale_fallbacks: access.ivf_stale_fallbacks,
            queued: stats.queries_queued,
            rejected: stats.queries_rejected,
            budget_aborts: stats.mem_budget_aborts,
            mem_high_water: stats.mem_high_water_bytes,
        }
    }

    /// Metrics for the interval `before → self`.
    pub fn report_since(&self, before: &Counters, report: &mut Report) {
        let ratio = |useful: u64, other: u64| {
            if useful + other == 0 {
                0.0
            } else {
                useful as f64 / (useful + other) as f64
            }
        };
        let d = |now: u64, then: u64| (now - then) as f64;
        let hits = self.plan_hits - before.plan_hits;
        let misses = self.plan_misses - before.plan_misses;
        report.push("core.plan_cache_hit_ratio", ratio(hits, misses), "ratio");
        report.push(
            "core.plan_cache_evictions",
            d(self.plan_evictions, before.plan_evictions),
            "count",
        );
        let k_hits = self.kernel_hits - before.kernel_hits;
        let k_other = (self.kernel_misses - before.kernel_misses)
            + (self.kernel_fallbacks - before.kernel_fallbacks);
        report.push("exec.kernel_hit_ratio", ratio(k_hits, k_other), "ratio");
        report.push(
            "exec.kernel_fallbacks",
            d(self.kernel_fallbacks, before.kernel_fallbacks),
            "count",
        );
        let pruned = self.morsels_pruned - before.morsels_pruned;
        let scanned = self.morsels_scanned - before.morsels_scanned;
        report.push("exec.morsels_pruned", pruned as f64, "count");
        report.push("exec.morsels_scanned", scanned as f64, "count");
        report.push("exec.prune_ratio", ratio(pruned, scanned), "ratio");
        report.push(
            "exec.barriers_selection_fed",
            d(self.barriers_selection_fed, before.barriers_selection_fed),
            "count",
        );
        report.push(
            "exec.barriers_gathered",
            d(self.barriers_gathered, before.barriers_gathered),
            "count",
        );
        report.push(
            "index.ann_queries",
            d(self.ann_queries, before.ann_queries),
            "count",
        );
        report.push(
            "index.ivf_stale_fallbacks",
            d(self.ivf_stale_fallbacks, before.ivf_stale_fallbacks),
            "count",
        );
        report.push("server.queued", d(self.queued, before.queued), "count");
        report.push(
            "server.rejected",
            d(self.rejected, before.rejected),
            "count",
        );
        report.push(
            "mem.budget_aborts",
            d(self.budget_aborts, before.budget_aborts),
            "count",
        );
        report.push(
            "mem.pool_high_water_mb",
            self.mem_high_water as f64 / (1024.0 * 1024.0),
            "MB",
        );
    }
}

/// Span names whose median duration is a per-layer metric in µs
/// (`<name>_us`).
const SPAN_METRICS_US: &[&str] = &[
    "sql.parse",
    "sql.normalize",
    "sql.plan",
    "sql.optimize",
    "exec.lower",
    "core.prepare_hit",
    "core.prepare_miss",
    "core.prepare_revalidate",
    "core.bind",
    "core.reregister",
    "exec.run",
    "storage.render",
    "index.ann_ivf",
    "index.ann_flat",
    "autodiff.forward",
    "autodiff.backward",
    "nn.optim_step",
    "server.connect",
    "server.roundtrip",
];

/// Per-layer metrics read off the spans of a traced pass.
pub fn span_metrics(report: &mut Report, tr: &Tracer, plain_ops_s: f64) {
    for &name in SPAN_METRICS_US {
        let v = tr.micros(name);
        report.push_sampled(format!("{name}_us"), stats::median(&v), "us", v.len());
    }
    let coverage = tr.op_coverage();
    report.push_sampled(
        "bench.op_span_coverage_min",
        coverage
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(1.0),
        "ratio",
        coverage.len(),
    );
    report.push_sampled(
        "bench.op_span_coverage_p50",
        stats::median(&coverage),
        "ratio",
        coverage.len(),
    );
    let op_total_us = tr.op_micros_total();
    // Set-up (warm-up) spans are no part of any op.
    let run_total_us: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.kind != Kind::Probe && s.name == "exec.run")
        .map(|s| s.micros())
        .sum();
    let run_share = if op_total_us > 0.0 {
        run_total_us / op_total_us
    } else {
        0.0
    };
    report.push("exec.run_share", run_share, "ratio");
    let overhead = if plain_ops_s > 0.0 {
        op_total_us / 1e6 / plain_ops_s
    } else {
        0.0
    };
    report.push("bench.tracing_overhead_ratio", overhead, "ratio");
}

/// Operator kinds `exec.profile.<kind>_share` is reported for, with the
/// EXPLAIN label prefixes that belong to each.
const PROFILE_KINDS: [(&str, &[&str]); 7] = [
    ("chain", &["Filter", "Project", "Scan"]),
    ("aggregate", &["Aggregate"]),
    ("join", &["Join"]),
    ("sort", &["Sort"]),
    ("topk", &["TopK"]),
    ("distinct", &["Distinct"]),
    ("ann", &["AnnTopK"]),
];

/// Accumulates `run_profiled` self-times per operator kind. The profile
/// re-executes the plan unfused (a batch per operator), so the shares
/// say where an *unfused* run spends its time — see ROADMAP item 5.
#[derive(Default)]
pub struct ProfileShares {
    self_s: [f64; 7],
    other_s: f64,
    profiled_s: f64,
    plain_s: f64,
    peak_query_mem: u64,
}

impl ProfileShares {
    pub fn add(&mut self, profile: &tdp_core::exec::QueryProfile, profiled_s: f64, plain_s: f64) {
        for op in &profile.ops {
            let label = op.label.trim_start();
            match PROFILE_KINDS
                .iter()
                .position(|(_, prefixes)| prefixes.iter().any(|p| label.starts_with(p)))
            {
                Some(k) => self.self_s[k] += op.self_seconds,
                None => self.other_s += op.self_seconds,
            }
        }
        self.profiled_s += profiled_s;
        self.plain_s += plain_s;
        self.peak_query_mem = self.peak_query_mem.max(profile.peak_memory_bytes);
    }

    /// Run one bound statement plainly and profiled, and add both.
    pub fn profile(&mut self, stmt: &Prepared<'_>, params: ParamValues) -> Result<(), String> {
        let bound = stmt.bind(params).map_err(|e| e.to_string())?;
        let start = Instant::now();
        bound.run().map_err(|e| e.to_string())?;
        let plain_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let (_, profile) = bound.run_profiled().map_err(|e| e.to_string())?;
        self.add(&profile, start.elapsed().as_secs_f64(), plain_s);
        Ok(())
    }

    pub fn report(&self, report: &mut Report) {
        let total: f64 = self.self_s.iter().sum::<f64>() + self.other_s;
        for ((kind, _), s) in PROFILE_KINDS.iter().zip(self.self_s) {
            let share = if total > 0.0 { s / total } else { 0.0 };
            report.push(format!("exec.profile.{kind}_share"), share, "ratio");
        }
        let ratio = if self.plain_s > 0.0 {
            self.profiled_s / self.plain_s
        } else {
            0.0
        };
        report.push("exec.profile_overhead_ratio", ratio, "ratio");
        report.push(
            "exec.peak_query_mem_bytes",
            self.peak_query_mem as f64,
            "bytes",
        );
    }
}

/// Time `f` as a `Probe` span and in seconds.
pub fn probe<T>(tr: &mut Tracer, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tr.open(name, At::PROBE);
    let start = Instant::now();
    let out = f();
    let s = start.elapsed().as_secs_f64();
    tr.close(span);
    (out, s)
}

/// `exec.input_rows_per_s`: rows the traced ops read per second of
/// `BoundQuery::run`.
pub fn input_rate(report: &mut Report, tr: &Tracer, rows: u64) {
    let run_s: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.kind == Kind::Call && s.name == "exec.run")
        .map(|s| s.micros() / 1e6)
        .sum();
    let rate = if run_s > 0.0 {
        rows as f64 / run_s
    } else {
        0.0
    };
    report.push("exec.input_rows_per_s", rate, "rows/s");
}

/// Save `table` as TDPF into the scratch directory and load it back.
pub fn tdpf_probe(report: &mut Report, tr: &mut Tracer, table: &Table) -> Result<(), String> {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("probe_{}.tdpf", std::process::id()));
    let (saved, save_s) = probe(tr, "storage.tdpf_save", || {
        tdp_core::storage::save_table(table, &path)
    });
    let mb = std::fs::metadata(&path).map(|m| m.len() as f64 / 1e6);
    let (loaded, load_s) = probe(tr, "storage.tdpf_load", || {
        tdp_core::storage::load_table(&path)
    });
    std::fs::remove_file(&path).ok();
    saved.map_err(|e| format!("saving {}: {e}", path.display()))?;
    let mb = mb.map_err(|e| format!("{}: {e}", path.display()))?;
    let loaded = loaded.map_err(|e| format!("loading {}: {e}", path.display()))?;
    if table_digest(&loaded) != table_digest(table) {
        report.fail_invariant(format!(
            "{} did not survive a TDPF round trip",
            table.name()
        ));
    }
    report.push("storage.tdpf_save_mb_s", mb / save_s, "MB/s");
    report.push("storage.tdpf_load_mb_s", mb / load_s, "MB/s");
    Ok(())
}
