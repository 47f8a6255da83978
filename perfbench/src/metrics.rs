//! The metric names `BENCHMARK.json` declares, and the one-line result
//! the driver reads. A test keeps this file and `BENCHMARK.json` equal.

use crate::json::Json;
use crate::runner::Report;

pub const WORKLOADS: [&str; 4] = [
    crate::analytic::NAME,
    crate::serve::NAME,
    crate::ai::NAME,
    crate::ingest::NAME,
];

/// `(name, unit, better)`: what `--trace 0` prints, for every workload.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("throughput_ops_s", "ops/s", "higher"),
    ("lat_p50_ms", "ms", "lower"),
    ("lat_p95_ms", "ms", "lower"),
    ("cpu_ms_per_op", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// `(name, unit, better)`: per-layer metrics beyond the class medians.
/// A workload that does not exercise a layer reports 0 for it.
pub const LAYERS: &[(&str, &str, &str)] = &[
    // Counter deltas over the plain fixed-rounds pass.
    ("core.plan_cache_hit_ratio", "ratio", "higher"),
    ("core.plan_cache_evictions", "count", "lower"),
    ("exec.kernel_hit_ratio", "ratio", "higher"),
    ("exec.kernel_fallbacks", "count", "lower"),
    ("exec.morsels_pruned", "count", "higher"),
    ("exec.morsels_scanned", "count", "lower"),
    ("exec.prune_ratio", "ratio", "higher"),
    ("exec.barriers_selection_fed", "count", "higher"),
    ("exec.barriers_gathered", "count", "lower"),
    ("exec.input_rows_per_s", "rows/s", "higher"),
    ("exec.peak_query_mem_bytes", "bytes", "lower"),
    ("mem.pool_high_water_mb", "MB", "lower"),
    ("mem.budget_aborts", "count", "lower"),
    ("server.queued", "count", "lower"),
    ("server.rejected", "count", "lower"),
    ("server.lat_p99_ms", "ms", "lower"),
    ("server.bytes_out_per_op", "bytes", "lower"),
    ("index.ann_queries", "count", "higher"),
    ("index.ivf_stale_fallbacks", "count", "lower"),
    ("bench.datagen_s", "s", "lower"),
    // Medians of spans from the traced pass.
    ("sql.parse_us", "us", "lower"),
    ("sql.normalize_us", "us", "lower"),
    ("sql.plan_us", "us", "lower"),
    ("sql.optimize_us", "us", "lower"),
    ("exec.lower_us", "us", "lower"),
    ("core.prepare_hit_us", "us", "lower"),
    ("core.prepare_miss_us", "us", "lower"),
    ("core.prepare_revalidate_us", "us", "lower"),
    ("core.bind_us", "us", "lower"),
    ("core.reregister_us", "us", "lower"),
    ("exec.run_us", "us", "lower"),
    ("exec.run_share", "ratio", "higher"),
    ("exec.profile.chain_share", "ratio", "lower"),
    ("exec.profile.aggregate_share", "ratio", "lower"),
    ("exec.profile.join_share", "ratio", "lower"),
    ("exec.profile.sort_share", "ratio", "lower"),
    ("exec.profile.topk_share", "ratio", "lower"),
    ("exec.profile.distinct_share", "ratio", "lower"),
    ("exec.profile.ann_share", "ratio", "lower"),
    ("exec.profile_overhead_ratio", "ratio", "lower"),
    ("storage.register_rows_per_s", "rows/s", "higher"),
    ("storage.append_ms", "ms", "lower"),
    ("storage.append_write_amp", "ratio", "lower"),
    ("storage.render_us", "us", "lower"),
    ("storage.tdpf_save_mb_s", "MB/s", "higher"),
    ("storage.tdpf_load_mb_s", "MB/s", "higher"),
    ("index.ivf_build_s", "s", "lower"),
    ("index.ann_ivf_us", "us", "lower"),
    ("index.ann_flat_us", "us", "lower"),
    ("index.recall_at_10", "ratio", "higher"),
    ("autodiff.forward_us", "us", "lower"),
    ("autodiff.backward_us", "us", "lower"),
    ("nn.optim_step_us", "us", "lower"),
    ("server.connect_us", "us", "lower"),
    ("server.roundtrip_us", "us", "lower"),
    ("server.overhead_us", "us", "lower"),
    ("server.overhead_share", "ratio", "lower"),
    ("bench.tracing_overhead_ratio", "ratio", "lower"),
    ("bench.op_span_coverage_min", "ratio", "higher"),
    ("bench.op_span_coverage_p50", "ratio", "higher"),
    ("bench.fail_share", "ratio", "lower"),
];

/// Every class of every workload, in workload order.
pub fn class_names() -> Vec<&'static str> {
    let mut names = Vec::new();
    names.extend(crate::analytic::CLASSES);
    names.extend(crate::serve::CLASSES);
    names.extend(crate::ai::CLASSES);
    names.extend(crate::ingest::CLASSES);
    names
}

/// All declared per-layer metrics: `(name, unit, better)`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    class_names()
        .into_iter()
        .map(|c| (format!("class.{c}.p50_ms"), "ms", "lower"))
        .chain(LAYERS.iter().map(|&(n, u, b)| (n.to_string(), u, b)))
        .collect()
}

/// The last line of standard output: exactly the declared metrics of
/// the mode that ran, 0 for a layer this workload does not touch.
pub fn final_line(report: &Report, trace: bool) -> Json {
    let declared: Vec<(String, &str)> = if trace {
        per_layer().into_iter().map(|(n, u, _)| (n, u)).collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u))
            .collect()
    };
    let metrics = declared
        .into_iter()
        .map(|(name, unit)| {
            let value = report.get(&name).unwrap_or(0.0);
            let entry = Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]);
            (name, entry)
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(spec: &Json, key: &str) -> Vec<(String, String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_runner_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        let own = |list: Vec<(String, &str, &str)>| -> Vec<(String, String, String)> {
            list.into_iter()
                .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
                .collect()
        };
        let end_to_end = own(END_TO_END
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u, b))
            .collect());
        assert_eq!(declared(&spec, "end_to_end"), end_to_end);
        assert_eq!(declared(&spec, "per_layer"), own(per_layer()));
        assert!(per_layer().len() <= 128);

        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for m in spec.get("end_to_end").unwrap().as_array().unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _, _)| n).collect();
        names.extend(END_TO_END.iter().map(|m| m.0.to_string()));
        names.extend(WORKLOADS.iter().map(|w| w.to_string()));
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "a metric name is declared twice");
    }

    #[test]
    fn final_line_fills_absent_layers_with_zero() {
        let mut report = Report::new("analytic_embedded");
        report.attempted = 10;
        report.push("sql.parse_us", 12.5, "us");
        let line = final_line(&report, true);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), per_layer().len());
        assert_eq!(
            metrics
                .get("sql.parse_us")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(12.5)
        );
        assert_eq!(
            metrics
                .get("server.connect_us")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            final_line(&report, false)
                .get("metrics")
                .unwrap()
                .fields()
                .len(),
            6
        );
    }
}
