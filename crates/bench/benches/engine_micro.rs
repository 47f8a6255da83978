//! Criterion micro-benchmarks of the query engine: end-to-end SQL
//! operators plus the soft-vs-exact aggregation ablation that DESIGN.md
//! calls out (what does differentiability cost at execution time?).

use criterion::{criterion_group, criterion_main, Criterion};
use tdp_core::storage::TableBuilder;
use tdp_core::tensor::{Rng64, Tensor};
use tdp_core::{ParamValues, QueryConfig, Tdp};

fn session(n: usize) -> Tdp {
    let mut rng = Rng64::new(9);
    let tdp = Tdp::new();
    let cats = ["alpha", "beta", "gamma", "delta"];
    let labels: Vec<&str> = (0..n).map(|_| cats[rng.below(cats.len())]).collect();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("v", (0..n).map(|_| rng.normal() as f32).collect())
            .col_i64("k", (0..n).map(|_| rng.below(50) as i64).collect())
            .col_str("label", &labels)
            .build("t"),
    );
    tdp
}

fn bench_sql_operators(c: &mut Criterion) {
    let tdp = session(50_000);
    let mut group = c.benchmark_group("sql_50k_rows");
    group.sample_size(20);
    for (name, sql) in [
        ("filter", "SELECT v FROM t WHERE v > 0.5"),
        ("filter_string", "SELECT v FROM t WHERE label = 'alpha'"),
        ("groupby_count", "SELECT k, COUNT(*) FROM t GROUP BY k"),
        (
            "groupby_agg",
            "SELECT label, SUM(v), AVG(v) FROM t GROUP BY label",
        ),
        ("orderby_limit", "SELECT v FROM t ORDER BY v DESC LIMIT 10"),
    ] {
        let q = tdp.query(sql).expect("compile");
        group.bench_function(name, |b| b.iter(|| q.run().expect("run")));
    }
    group.finish();
}

fn bench_soft_vs_exact_groupby(c: &mut Criterion) {
    // Ablation: the differentiable (soft) group-by over an exact key
    // column vs the exact hash group-by, same query.
    let tdp = session(20_000);
    let sql = "SELECT k, COUNT(*) FROM t GROUP BY k";
    let exact = tdp.query(sql).expect("compile");
    let soft = tdp
        .query_with(sql, QueryConfig::default().trainable(true))
        .expect("compile");
    let mut group = c.benchmark_group("soft_vs_exact_groupby_20k");
    group.sample_size(20);
    group.bench_function("exact_hash", |b| b.iter(|| exact.run().expect("run")));
    group.bench_function("soft_khatri_rao", |b| {
        b.iter(|| soft.run_diff().expect("run_diff"))
    });
    group.finish();
}

fn bench_compilation(c: &mut Criterion) {
    let tdp = session(100);
    let sql = "SELECT label, SUM(v * 2 + 1) AS s FROM t WHERE k > 10 \
               GROUP BY label HAVING COUNT(*) > 5 ORDER BY s DESC LIMIT 3";
    let mut group = c.benchmark_group("compile");
    group.sample_size(50);
    // Full pipeline: parse → plan → optimize → lower (cache cleared).
    group.bench_function("parse_plan_optimize_lower", |b| {
        b.iter(|| {
            tdp.clear_plan_cache();
            tdp.query(sql).expect("compile")
        })
    });
    // Plan-cache hit: the same SQL re-compiled skips all of the above.
    group.bench_function("plan_cache_hit", |b| {
        b.iter(|| tdp.query(sql).expect("compile"))
    });
    group.finish();
}

fn bench_compiled_vs_uncompiled_repeated(c: &mut Criterion) {
    // The compile-once story, end to end: issuing the same query many
    // times. `recompile_uncached` pays parse → plan → optimize → lower on
    // every run; `recompile_cached` pays one plan-cache probe; the
    // compiled query pays neither — it is pure slot-indexed kernel
    // dispatch. Small table so per-run overhead (not kernels) dominates.
    let tdp = session(1_000);
    let sql = "SELECT label, SUM(v) AS s FROM t WHERE k > 10 GROUP BY label \
               ORDER BY s DESC LIMIT 3";
    let mut group = c.benchmark_group("repeated_query_1k_rows");
    group.sample_size(50);
    group.bench_function("recompile_uncached", |b| {
        b.iter(|| {
            tdp.clear_plan_cache();
            tdp.query(sql).expect("compile").run().expect("run")
        })
    });
    group.bench_function("recompile_cached", |b| {
        b.iter(|| tdp.query(sql).expect("compile").run().expect("run"))
    });
    let compiled = tdp.query(sql).expect("compile");
    group.bench_function("compile_once_run_many", |b| {
        b.iter(|| compiled.run().expect("run"))
    });
    group.finish();
}

fn bench_prepared_rebind_vs_requery(c: &mut Criterion) {
    // The prepared-statement story, per training-loop iteration: issuing
    // the same query shape with a fresh literal each time. `requery` pays
    // parse + literal extraction + a plan-cache probe per iteration (the
    // plan itself is shared — literals normalize to parameter slots);
    // `bind_and_run` pays only an arity check and a values vector. Small
    // table so per-iteration overhead (not kernels) dominates.
    let tdp = session(1_000);
    let sql = "SELECT label, SUM(v) AS s FROM t WHERE v > ? GROUP BY label";
    let prepared = tdp.prepare(sql).expect("prepare");
    let mut group = c.benchmark_group("prepared_rebind_1k_rows");
    group.sample_size(50);
    let mut i = 0u64;
    group.bench_function("requery_fresh_literal", |b| {
        b.iter(|| {
            i += 1;
            let t = (i % 100) as f64 * 0.01;
            tdp.query(&format!(
                "SELECT label, SUM(v) AS s FROM t WHERE v > {t} GROUP BY label"
            ))
            .expect("compile")
            .run()
            .expect("run")
        })
    });
    let mut j = 0u64;
    group.bench_function("bind_and_run", |b| {
        b.iter(|| {
            j += 1;
            let t = (j % 100) as f64 * 0.01;
            prepared
                .bind(ParamValues::new().number(t))
                .expect("bind")
                .run()
                .expect("run")
        })
    });
    group.finish();
}

fn bench_encodings(c: &mut Criterion) {
    use tdp_core::encoding::{RleColumn, StringDict};
    let mut rng = Rng64::new(11);
    let n = 100_000;
    let strings: Vec<String> = (0..n).map(|_| format!("cat{}", rng.below(64))).collect();
    let repetitive: Vec<i64> = (0..n).map(|i| (i / 1000) as i64).collect();
    let rep = Tensor::from_vec(repetitive, &[n]);
    let mut group = c.benchmark_group("encodings_100k");
    group.sample_size(20);
    group.bench_function("dict_encode", |b| b.iter(|| StringDict::encode(&strings)));
    group.bench_function("rle_encode", |b| b.iter(|| RleColumn::encode(&rep)));
    let rle = RleColumn::encode(&rep);
    group.bench_function("rle_eq_mask", |b| b.iter(|| rle.eq_mask(42)));
    group.finish();
}

fn bench_topk_vs_full_sort(c: &mut Criterion) {
    // Ablation: the optimizer's Limit(Sort) -> TopK fusion. The fused
    // operator selects in O(n) average; the unfused path sorts everything.
    use tdp_core::sql::ast::OrderItem;
    use tdp_core::sql::plan::LogicalPlan;
    let tdp = session(200_000);
    let fused = tdp
        .query("SELECT v FROM t ORDER BY v DESC LIMIT 10")
        .expect("compile");
    assert!(fused.explain().contains("TopK"), "fusion must fire");
    let mut group = c.benchmark_group("topk_200k");
    group.sample_size(20);
    group.bench_function("fused_topk", |b| b.iter(|| fused.run().expect("run")));
    // Hand-built unfused plan for the comparison.
    let unfused_plan = LogicalPlan::Limit {
        n: tdp_core::sql::ast::LimitCount::Const(10),
        input: Box::new(LogicalPlan::Sort {
            keys: vec![OrderItem {
                expr: tdp_core::sql::ast::Expr::col("v"),
                desc: true,
            }],
            input: Box::new(LogicalPlan::Project {
                items: vec![tdp_core::sql::ast::SelectItem {
                    expr: tdp_core::sql::ast::Expr::col("v"),
                    alias: None,
                }],
                input: Box::new(LogicalPlan::Scan { table: "t".into() }),
            }),
        }),
    };
    let catalog = tdp.catalog();
    let udfs = tdp_core::exec::UdfRegistry::new();
    let ctx = tdp_core::exec::ExecContext::new(catalog, &udfs);
    let unfused = tdp_core::exec::lower(&unfused_plan, catalog, &udfs).expect("lower");
    group.bench_function("full_sort_then_limit", |b| {
        b.iter(|| tdp_core::exec::execute(&unfused, &ctx).expect("run"))
    });
    group.finish();
}

fn bench_compressed_encodings(c: &mut Criterion) {
    // Ablation: encode/decode cost and end-to-end GROUP BY latency on the
    // new bit-packed and delta layouts vs plain i64.
    use tdp_core::encoding::{BitPackedColumn, DeltaColumn, EncodedTensor, RleColumn};
    let n = 100_000;
    let low_card: Vec<i64> = (0..n).map(|i| (i % 8) as i64).collect();
    let timestamps: Vec<i64> = (0..n).map(|i| 1_700_000_000 + 2 * i as i64).collect();
    let low = Tensor::from_vec(low_card.clone(), &[n]);
    let ts = Tensor::from_vec(timestamps.clone(), &[n]);

    let mut group = c.benchmark_group("compressed_encodings_100k");
    group.sample_size(20);
    group.bench_function("bitpack_encode", |b| {
        b.iter(|| BitPackedColumn::encode(&low))
    });
    group.bench_function("delta_encode", |b| b.iter(|| DeltaColumn::encode(&ts)));
    let packed = BitPackedColumn::encode(&low);
    let delta = DeltaColumn::encode(&ts).expect("encodable");
    group.bench_function("bitpack_decode", |b| b.iter(|| packed.decode()));
    group.bench_function("delta_decode", |b| b.iter(|| delta.decode()));
    // The read primitives: one 4,096-row window out of the middle, and
    // every tenth row (an ascending survivor list).
    let rle = RleColumn::encode(&Tensor::from_vec(
        (0..n).map(|i| (i / 40) as i64).collect(),
        &[n],
    ));
    let (lo, hi) = (n / 2, n / 2 + 4096);
    let tenth: Vec<i64> = (0..n as i64).step_by(10).collect();
    group.bench_function("bitpack_window", |b| b.iter(|| packed.window(lo, hi)));
    group.bench_function("bitpack_at_10pct", |b| b.iter(|| packed.at(&tenth)));
    group.bench_function("rle_window", |b| b.iter(|| rle.window(lo, hi)));
    group.bench_function("delta_window", |b| b.iter(|| delta.window(lo, hi)));
    group.bench_function("delta_at_10pct", |b| b.iter(|| delta.at(&tenth)));
    group.bench_function("auto_compress", |b| {
        b.iter(|| EncodedTensor::compress_i64(&low))
    });

    // End-to-end: same GROUP BY over plain vs compressed storage.
    for (name, compress) in [("groupby_plain_i64", false), ("groupby_bitpacked", true)] {
        let tdp = Tdp::new();
        let table = TableBuilder::new()
            .col_i64("k", low_card.clone())
            .col_f32("v", vec![1.0; n])
            .build("t");
        tdp.register_table(if compress { table.compress() } else { table });
        let q = tdp
            .query("SELECT k, COUNT(*) FROM t GROUP BY k")
            .expect("compile");
        group.bench_function(name, |b| b.iter(|| q.run().expect("run")));
    }
    group.finish();
}

fn bench_parallel_scaling(c: &mut Criterion) {
    // The morsel-scheduler scaling story: the same compiled query at
    // 1/2/4/8 worker threads over a scan large enough to split into many
    // morsels. `filter_heavy` is a fused filter→project pipeline
    // (order-preserving concat sink); `aggregate_heavy` is a grouped
    // aggregation (parallel partial aggregation + combine sink). Results
    // are identical at every thread count; only wall-clock changes.
    let n = 2_000_000;
    let mut rng = Rng64::new(17);
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("v", (0..n).map(|_| rng.normal() as f32).collect())
            .col_i64("k", (0..n).map(|_| rng.below(64) as i64).collect())
            .build("big"),
    );
    let mut group = c.benchmark_group("parallel_scaling_2m");
    group.sample_size(10);
    for (name, sql) in [
        (
            "filter_heavy",
            "SELECT v * 2 + 1 AS s FROM big WHERE v > 0.0 AND v < 1.5",
        ),
        (
            "aggregate_heavy",
            "SELECT k, COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM big GROUP BY k",
        ),
    ] {
        let q = tdp.query(sql).expect("compile");
        for threads in [1usize, 2, 4, 8] {
            tdp.set_threads(threads);
            group.bench_function(format!("{name}/threads_{threads}"), |b| {
                b.iter(|| q.run().expect("run"))
            });
        }
    }
    tdp.set_threads(1);
    group.finish();
}

fn bench_parallel_barriers(c: &mut Criterion) {
    // The staged-barrier scaling story (PR 5): join-, sort- and
    // distinct-heavy queries at 1/2/4/8 worker threads over 2M-row
    // inputs. `join_heavy` probes a 50k-row build side through the
    // partitioned hash join (exchange → per-partition tables → parallel
    // probe); `sort_heavy` is a full parallel merge sort; `topk_heavy`
    // merges per-morsel top-k runs; `distinct_heavy` dedups 50k keys
    // shared-nothing across the exchange. Results are identical at
    // every thread count; only wall-clock changes.
    let n = 2_000_000;
    let keys = 50_000usize;
    let mut rng = Rng64::new(31);
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("v", (0..n).map(|_| rng.normal() as f32).collect())
            .col_i64("k", (0..n).map(|_| rng.below(keys) as i64).collect())
            .build("big"),
    );
    tdp.register_table(
        TableBuilder::new()
            .col_i64("k", (0..keys as i64).collect())
            .col_f32("w", (0..keys).map(|_| rng.normal() as f32).collect())
            .build("d"),
    );
    let mut group = c.benchmark_group("parallel_barriers_2m");
    group.sample_size(10);
    for (name, sql) in [
        (
            "join_heavy",
            "SELECT COUNT(*), SUM(w) FROM big JOIN d ON big.k = d.k WHERE v > -3.0",
        ),
        ("sort_heavy", "SELECT v FROM big ORDER BY v"),
        (
            "topk_heavy",
            "SELECT v, k FROM big ORDER BY v DESC LIMIT 100",
        ),
        ("distinct_heavy", "SELECT DISTINCT k FROM big"),
    ] {
        let q = tdp.query(sql).expect("compile");
        for threads in [1usize, 2, 4, 8] {
            tdp.set_threads(threads);
            group.bench_function(format!("{name}/threads_{threads}"), |b| {
                b.iter(|| q.run().expect("run"))
            });
        }
    }
    tdp.set_threads(1);
    group.finish();
}

fn bench_hash_join_distinct(c: &mut Criterion) {
    // The flat build/probe table by key shape: a 100k-row probe side
    // against a 50k-row build side (the `q3_join_agg` sizes), threads 1
    // (the sequential kernel: one hash table) and 2 (two probe morsels
    // against one direct-index table where the build key is one dense
    // column, else exchange → per-partition hash tables). `unique_i64`
    // is a foreign-key join; `dup8_i64` chains eight build rows per key
    // (800k output rows); `dict_keys` joins two string columns encoded
    // against different dictionaries — all three dense; `composite2`
    // hashes and compares two code columns. The `distinct` cells dedup
    // the probe side on one i64 column (43k keys, dense) and on a
    // (dictionary, f32) pair (1,000 keys, hashed).
    let (probe_rows, build_rows) = (100_000usize, 50_000usize);
    let mut rng = Rng64::new(53);
    let name = |k: usize| format!("key{k:05}");
    let ks: Vec<usize> = (0..probe_rows).map(|_| rng.below(build_rows)).collect();
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_i64("k", ks.iter().map(|&k| k as i64).collect())
            .col_i64("k8", ks.iter().map(|&k| (k % 6_250) as i64).collect())
            .col_i64("k2", ks.iter().map(|&k| (k % 7) as i64).collect())
            .col_str("s", &ks.iter().map(|&k| name(k)).collect::<Vec<_>>())
            .col_str("s8", &ks.iter().map(|&k| name(k % 8)).collect::<Vec<_>>())
            .col_f32("f", ks.iter().map(|&k| (k % 1_000) as f32 * 0.5).collect())
            .build("probe"),
    );
    tdp.register_table(
        TableBuilder::new()
            .col_i64("k", (0..build_rows as i64).collect())
            .col_i64("k8", (0..build_rows).map(|i| (i % 6_250) as i64).collect())
            .col_i64("k2", (0..build_rows).map(|i| (i % 7) as i64).collect())
            // Every third key is missing from the probe side's
            // dictionary space and vice versa.
            .col_str(
                "s",
                &(0..build_rows).map(|i| name(i + i / 3)).collect::<Vec<_>>(),
            )
            .col_f32("w", (0..build_rows).map(|_| rng.normal() as f32).collect())
            .build("build"),
    );
    let join = |on: &str| format!("SELECT COUNT(*), SUM(w) FROM probe JOIN build ON {on}");
    let groups = [
        (
            "hash_join",
            vec![
                ("unique_i64", join("probe.k = build.k")),
                ("dup8_i64", join("probe.k8 = build.k8")),
                ("dict_keys", join("probe.s = build.s")),
                (
                    "composite2",
                    join("probe.k = build.k AND probe.k2 = build.k2"),
                ),
            ],
        ),
        (
            "distinct",
            vec![
                ("i64", "SELECT DISTINCT k FROM probe".to_string()),
                ("dict_f32", "SELECT DISTINCT s8, f FROM probe".to_string()),
            ],
        ),
    ];
    for (group_name, cells) in groups {
        let mut group = c.benchmark_group(group_name);
        group.sample_size(20);
        for (cell, sql) in cells {
            let q = tdp.query(&sql).expect("compile");
            for threads in [1usize, 2] {
                tdp.set_threads(threads);
                group.bench_function(format!("{cell}/threads_{threads}"), |b| {
                    b.iter(|| q.run().expect("run"))
                });
            }
        }
        group.finish();
    }
    tdp.set_threads(1);
}

fn bench_parallel_udf_scaling(c: &mut Criterion) {
    // The declared-signature payoff: a `parallel_safe` scalar UDF chain
    // runs through the morsel worker pool instead of the sequential
    // whole-batch fallback. Same compiled query at 1/2/4/8 threads; the
    // UDF does real per-row work (decode + multiply + re-encode), so the
    // chain is compute-bound and should scale. `session_bound` is the
    // ablation: the identical implementation registered without
    // `Send + Sync` proof pins the chain to one thread.
    use std::sync::Arc;
    use tdp_core::encoding::EncodedTensor;
    use tdp_core::exec::{ArgValue, ExecContext, ExecError};
    use tdp_core::{ArgType, FunctionSpec, ScalarUdf, Volatility};

    struct Smooth;
    impl ScalarUdf for Smooth {
        fn name(&self) -> &str {
            "smooth"
        }
        fn spec(&self) -> FunctionSpec {
            FunctionSpec::scalar(self.name(), vec![ArgType::Column])
                .volatility(Volatility::Immutable)
                .parallel_safe(true)
        }
        fn invoke(
            &self,
            args: &[ArgValue],
            _ctx: &ExecContext,
        ) -> Result<EncodedTensor, ExecError> {
            let col = args[0].as_column()?.decode_f32();
            Ok(EncodedTensor::F32(col.map(|v| (v * 0.5).tanh())))
        }
    }

    let n = 1_000_000;
    let mut rng = Rng64::new(23);
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("v", (0..n).map(|_| rng.normal() as f32).collect())
            .build("big"),
    );
    let sql = "SELECT smooth(v) AS s FROM big WHERE smooth(v) > 0.0";
    let mut group = c.benchmark_group("parallel_udf_1m");
    group.sample_size(10);

    tdp.register_udf_parallel(Arc::new(Smooth));
    let q = tdp.query(sql).expect("compile");
    for threads in [1usize, 2, 4, 8] {
        tdp.set_threads(threads);
        group.bench_function(format!("parallel_safe/threads_{threads}"), |b| {
            b.iter(|| q.run().expect("run"))
        });
    }

    // Ablation: same UDF, session-bound registration -> sequential path.
    tdp.register_udf(Arc::new(Smooth));
    let seq = tdp.query(sql).expect("compile");
    tdp.set_threads(8);
    group.bench_function("session_bound/threads_8", |b| {
        b.iter(|| seq.run().expect("run"))
    });
    tdp.set_threads(1);
    group.finish();
}

fn bench_chain_kernels(c: &mut Criterion) {
    // The chain-kernel story (PR 6): interpreter vs compiled
    // selection-vector execution for the fused filter→project chains,
    // at 1/2/4/8 worker threads over a 2M-row scan. `filter_heavy`
    // leads with a selective conjunct so the expensive sqrt conjunct
    // runs only on survivors (the interpreter evaluates every conjunct
    // over every row); `conjuncts_dense` stacks non-selective
    // conjuncts — the kernel's dense path evaluates those full-width
    // too, so this cell measures pure overhead; `project_heavy` is
    // computation-bound (the kernel's win is monomorphised loops under
    // the selection); the selectivity variants sweep survivor counts.
    // Results are bit-identical in every cell — only wall-clock
    // changes.
    let n = 2_000_000;
    let mut rng = Rng64::new(41);
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("v", (0..n).map(|_| rng.normal() as f32).collect())
            .col_i64("k", (0..n).map(|_| rng.below(64) as i64).collect())
            .col_f32("w", (0..n).map(|_| rng.normal() as f32).collect())
            .build("big"),
    );
    let mut group = c.benchmark_group("chain_kernels_2m");
    group.sample_size(10);
    for (name, sql) in [
        (
            "filter_heavy",
            "SELECT v, k, w FROM big WHERE v > 1.0 AND sqrt(w * w + 4.0) + v < 3.5 AND k < 48",
        ),
        (
            "conjuncts_dense",
            "SELECT v, k, w FROM big WHERE v > -1.0 AND w < 1.0 AND k < 48",
        ),
        (
            "project_heavy",
            "SELECT v * 2.0 + w AS a, v - w * 0.5 AS b, k + 1 AS c FROM big WHERE v > -3.0",
        ),
        (
            "selective_1pct",
            "SELECT v, w FROM big WHERE v > 2.3 AND w > 0.0",
        ),
        ("selective_50pct", "SELECT v, w FROM big WHERE v > 0.0"),
    ] {
        let q = tdp.query(sql).expect("compile");
        for threads in [1usize, 2, 4, 8] {
            tdp.set_threads(threads);
            for (mode, kernels) in [("interpreted", false), ("compiled", true)] {
                tdp.set_chain_kernels(kernels);
                group.bench_function(format!("{name}/{mode}/threads_{threads}"), |b| {
                    b.iter(|| q.run().expect("run"))
                });
            }
        }
    }
    tdp.set_threads(1);
    tdp.set_chain_kernels(true);
    group.finish();
}

fn bench_concurrent_sessions(c: &mut Criterion) {
    // The engine/session split story (PR 7): T threads each open a fresh
    // session over one shared engine and run a small statement workload.
    // `shared_plan_cache` is the new architecture — the first session
    // compiles, every later session (on any thread) hits the engine-wide
    // cache. `private_plan_cache` is the ablation: one engine per thread
    // with its cache cleared each round, so every session recompiles its
    // own plans — the pre-split cost model. Execution work is identical;
    // the delta is compilation amortization across sessions.
    use std::sync::Arc;
    use tdp_core::TdpEngine;

    const STATEMENTS: &[&str] = &[
        "SELECT label, SUM(v * 2 + 1) AS s FROM t WHERE k > 10 GROUP BY label \
         HAVING COUNT(*) > 5 ORDER BY s DESC LIMIT 3",
        "SELECT k, COUNT(*), AVG(v) FROM t WHERE v > 0.25 GROUP BY k ORDER BY k LIMIT 5",
        "SELECT v FROM t WHERE label = 'alpha' ORDER BY v DESC LIMIT 10",
        "SELECT label, MIN(v), MAX(v) FROM t GROUP BY label ORDER BY label",
        "SELECT COUNT(*) FROM t WHERE v > 0.0 AND k < 25",
        "SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY s LIMIT 3",
    ];

    fn make_engine(rows: usize, seed: u64) -> Arc<TdpEngine> {
        let mut rng = Rng64::new(seed);
        let engine = TdpEngine::new();
        let cats = ["alpha", "beta", "gamma", "delta"];
        let labels: Vec<&str> = (0..rows).map(|_| cats[rng.below(cats.len())]).collect();
        engine.register_table(
            TableBuilder::new()
                .col_f32("v", (0..rows).map(|_| rng.normal() as f32).collect())
                .col_i64("k", (0..rows).map(|_| rng.below(50) as i64).collect())
                .col_str("label", &labels)
                .build("t"),
        );
        engine
    }

    fn run_workload(engine: &Arc<TdpEngine>) {
        let session = engine.session();
        session.set_threads(1);
        for sql in STATEMENTS {
            session.query(sql).expect("compile").run().expect("run");
        }
    }

    let rows = 10_000;
    let mut group = c.benchmark_group("concurrent_sessions");
    group.sample_size(10);

    let shared = make_engine(rows, 9);
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(format!("shared_plan_cache/threads_{threads}"), |b| {
            b.iter(|| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let engine = Arc::clone(&shared);
                        std::thread::spawn(move || run_workload(&engine))
                    })
                    .collect();
                for h in handles {
                    h.join().expect("worker");
                }
            })
        });
    }

    for threads in [1usize, 2, 4, 8] {
        let engines: Vec<Arc<TdpEngine>> = (0..threads)
            .map(|i| make_engine(rows, 9 + i as u64))
            .collect();
        group.bench_function(format!("private_plan_cache/threads_{threads}"), |b| {
            b.iter(|| {
                let handles: Vec<_> = engines
                    .iter()
                    .map(|engine| {
                        let engine = Arc::clone(engine);
                        std::thread::spawn(move || {
                            // A private cache never sees another session's
                            // compilations; clearing models a cold session.
                            engine.clear_plan_cache();
                            run_workload(&engine)
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("worker");
                }
            })
        });
    }
    group.finish();
}

fn bench_access_paths(c: &mut Criterion) {
    // The PR 8 access-path story over 2M rows. Pruning side: `v` is
    // block-ordered (insertion order ~ value order, the natural shape of
    // log/timestamp data), so a narrow range predicate can rule out
    // whole 4096-row chunks; the same compiled query runs with zone maps
    // on and off. ANN side: `ORDER BY distance(emb, ?) LIMIT 10` over
    // 20k 32-d embeddings through the AnnTopK operator — flat (exact)
    // vs IVF (nlist=64, nprobe=8) vs the unfused scan+sort oracle.
    let n = 2_000_000;
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("v", (0..n).map(|i| i as f32).collect())
            .col_i64("k", (0..n).map(|i| (i % 97) as i64).collect())
            .build("big"),
    );
    let mut group = c.benchmark_group("access_paths_2m");
    group.sample_size(10);
    let q = tdp
        .query("SELECT v, k FROM big WHERE v >= 1000000 AND v < 1010000")
        .expect("compile");
    for (name, zone_maps) in [("range_filter_pruned", true), ("range_filter_full", false)] {
        tdp.set_zone_maps(zone_maps);
        group.bench_function(name, |b| b.iter(|| q.run().expect("run")));
    }
    tdp.set_zone_maps(true);

    let nv = 20_000;
    let d = 32;
    let mut rng = Rng64::new(23);
    let emb = Tensor::randn(&[nv, d], 0.0, 1.0, &mut rng);
    tdp.register_table(
        TableBuilder::new()
            .col_i64("id", (0..nv as i64).collect())
            .col_tensor("emb", emb)
            .build("vecs"),
    );
    let probe = Tensor::randn(&[d], 0.0, 1.0, &mut rng);
    let run_ann = |sql: &str| {
        let prepared = tdp.prepare(sql).expect("prepare");
        let params = ParamValues::new().tensor(probe.clone());
        prepared.bind(params).expect("bind").run().expect("run")
    };
    let topk_sql = "SELECT id FROM vecs ORDER BY distance(emb, ?) LIMIT 10";
    group.bench_function("ann_flat_exact", |b| b.iter(|| run_ann(topk_sql)));
    tdp.execute("CREATE INDEX bench_ivf ON vecs (emb) USING ivf(64, 8) METRIC l2")
        .expect("create index");
    group.bench_function("ann_ivf_64_8", |b| b.iter(|| run_ann(topk_sql)));
    tdp.execute("DROP INDEX bench_ivf").expect("drop index");
    // No LIMIT → Sort, never AnnTopK: the full scan+sort cost.
    group.bench_function("ann_sort_oracle", |b| {
        b.iter(|| run_ann("SELECT id FROM vecs ORDER BY distance(emb, ?)"))
    });
    group.finish();
}

fn bench_memory_budget(c: &mut Criterion) {
    // The PR 9 memory-accounting overhead check: the same compiled
    // memory-heavy queries (the operators that charge per-query
    // ledgers: DISTINCT, partitioned join, sort) on an engine with no
    // budget vs one with a roomy 1 GiB budget no query comes near.
    // Ledger accounting itself is unconditional; the delta is the
    // budgeted pool's compare-and-rollback on every charge, and must
    // stay within the noise (≤ 2%).
    use std::sync::Arc;
    use tdp_core::TdpEngine;

    let n = 2_000_000;
    let keys = 50_000usize;
    fn load(engine: &Arc<TdpEngine>, n: usize, keys: usize) {
        let mut rng = Rng64::new(29);
        engine.register_table(
            TableBuilder::new()
                .col_f32("v", (0..n).map(|_| rng.normal() as f32).collect())
                .col_i64("k", (0..n).map(|_| rng.below(keys) as i64).collect())
                .build("big"),
        );
        engine.register_table(
            TableBuilder::new()
                .col_i64("k", (0..keys as i64).collect())
                .col_f32("w", (0..keys).map(|_| rng.normal() as f32).collect())
                .build("d"),
        );
    }

    let mut group = c.benchmark_group("memory_budget_2m");
    group.sample_size(10);
    for (mode, engine) in [
        ("unlimited", TdpEngine::new()),
        ("budget_1g", TdpEngine::with_memory_budget(1 << 30)),
    ] {
        load(&engine, n, keys);
        let session = engine.session();
        session.set_threads(4);
        for (name, sql) in [
            ("distinct_heavy", "SELECT DISTINCT k FROM big"),
            (
                "join_heavy",
                "SELECT COUNT(*), SUM(w) FROM big JOIN d ON big.k = d.k WHERE v > -3.0",
            ),
            ("topk_heavy", "SELECT v FROM big ORDER BY v LIMIT 5"),
        ] {
            let q = session.query(sql).expect("compile");
            group.bench_function(format!("{name}/{mode}"), |b| {
                b.iter(|| q.run().expect("run"))
            });
        }
    }
    group.finish();
}

fn bench_late_materialization(c: &mut Criterion) {
    // The PR 10 late-materialization story: a selective compiled filter
    // hands its selection vector straight to each barrier kind instead
    // of gathering survivors into a dense batch first. Selectivity
    // sweep 1%/10%/50%: the payoff shrinks as survivors grow (at 50%
    // the deferred gather saves little, so the modes should sit near
    // parity). `gathered` runs with chain kernels off — interpreter
    // chain, dense batch into the barrier; `selection_fed` with kernels
    // on — the barrier consumes survivor row ids (masked aggregation,
    // survivor probes, key-only sort runs) and gathers once at
    // assembly. The join places its filter in a derived table, the one
    // SQL shape that parks a chain directly under a join probe side.
    let n = 2_000_000;
    let keys = 50_000usize;
    let mut rng = Rng64::new(43);
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("v", (0..n).map(|_| rng.normal() as f32).collect())
            .col_i64("k", (0..n).map(|_| rng.below(keys) as i64).collect())
            .build("big"),
    );
    tdp.register_table(
        TableBuilder::new()
            .col_i64("k", (0..keys as i64).collect())
            .col_f32("w", (0..keys).map(|_| rng.normal() as f32).collect())
            .build("d"),
    );
    tdp.set_threads(4);
    let mut group = c.benchmark_group("late_materialization_2m");
    // 20 samples (vs the usual 10): the 1-CPU container's noise bursts
    // span whole sample windows, and the close cells (join at 10%) need
    // the extra averaging to resolve.
    group.sample_size(20);
    for (sel, cutoff) in [("1pct", "2.33"), ("10pct", "1.28"), ("50pct", "0.0")] {
        for (name, sql) in [
            (
                "aggregate",
                format!(
                    "SELECT COUNT(*), SUM(v), AVG(v), MIN(v), MAX(v) FROM big WHERE v > {cutoff}"
                ),
            ),
            (
                "join",
                format!(
                    "SELECT COUNT(*), SUM(d.w) FROM \
                     (SELECT v, k FROM big WHERE v > {cutoff}) AS s JOIN d ON s.k = d.k"
                ),
            ),
            (
                "sort",
                format!("SELECT v, k FROM big WHERE v > {cutoff} ORDER BY v DESC"),
            ),
            (
                "topk",
                format!("SELECT v, k FROM big WHERE v > {cutoff} ORDER BY v DESC LIMIT 100"),
            ),
            (
                "distinct",
                format!("SELECT DISTINCT k FROM big WHERE v > {cutoff}"),
            ),
        ] {
            let q = tdp.query(&sql).expect("compile");
            for (mode, kernels) in [("gathered", false), ("selection_fed", true)] {
                tdp.set_chain_kernels(kernels);
                group.bench_function(format!("{name}/{sel}/{mode}"), |b| {
                    b.iter(|| q.run().expect("run"))
                });
            }
        }
    }
    tdp.set_threads(1);
    tdp.set_chain_kernels(true);
    group.finish();
}

fn bench_selection_front(c: &mut Criterion) {
    // The scan→filter front end on its own: a `compress()`ed 1M-row
    // table (RLE sorted day, bit-packed key, delta timestamp, f32 dial)
    // under sinks that cost next to nothing, so a cell is the selection
    // stage plus the reads it feeds. `f32_*`: one compare per row, 1% /
    // 10% kept. `rle_window_pruned`: a one-year window on the sorted
    // column — zone maps leave 3 of 16 morsels, whose windows decode.
    // `bitpacked_payload_10pct`: the packed column read at 100k survivor
    // rows. `delta_recent`: the last ~2% of a delta timestamp, all but
    // the tail morsel pruned. Threads 1 vs 2 is the point: the front
    // end is a stage, not a serial prefix.
    let n = 1_000_000usize;
    let mut rng = Rng64::new(71);
    let tdp = Tdp::new();
    let mut ts = 1_700_000_000i64;
    tdp.register_table(
        TableBuilder::new()
            .col_i64("day", (0..n).map(|i| (i * 2556 / n) as i64).collect())
            .col_i64("key", (0..n).map(|_| rng.below(50_000) as i64).collect())
            .col_i64(
                "ts",
                (0..n)
                    .map(|_| {
                        ts += 1 + rng.below(3) as i64;
                        ts
                    })
                    .collect(),
            )
            .col_f32("v", (0..n).map(|_| rng.normal() as f32).collect())
            .build("t")
            .compress(),
    );
    let recent = ts - 40_000;
    let mut group = c.benchmark_group("selection_front_1m");
    group.sample_size(20);
    for (cell, sql) in [
        (
            "f32_1pct",
            "SELECT COUNT(*) FROM t WHERE v > 2.3263".to_string(),
        ),
        (
            "f32_10pct",
            "SELECT COUNT(*) FROM t WHERE v > 1.2816".to_string(),
        ),
        (
            "rle_window_pruned",
            "SELECT COUNT(*) FROM t WHERE day >= 730 AND day < 1095".to_string(),
        ),
        (
            "bitpacked_payload_10pct",
            "SELECT SUM(key) FROM t WHERE v > 1.2816".to_string(),
        ),
        (
            "delta_recent",
            format!("SELECT COUNT(*) FROM t WHERE ts >= {recent}"),
        ),
    ] {
        let q = tdp.query(&sql).expect("compile");
        for threads in [1usize, 2] {
            tdp.set_threads(threads);
            group.bench_function(format!("{cell}/threads_{threads}"), |b| {
                b.iter(|| q.run().expect("run"))
            });
        }
    }
    group.finish();
}

fn bench_grouped_aggregate(c: &mut Criterion) {
    // The fused grouped fold on the TPC-H Q1 shape — one key, five
    // aggregates, one computed and one repeated argument — swept over
    // group cardinality and selectivity. 3 groups is the dictionary key
    // of Q1 itself (its codes are the fold's slots, trivial merge); the integer keys
    // are spread a million apart so their span forces the hash arm, and
    // at 100 000 groups every morsel carries tens of thousands of
    // partial groups into the combine step. 97% keeps the selection a
    // dense mask, 10% demotes it to a survivor index list.
    let n = 1_000_000;
    let mut rng = Rng64::new(47);
    let flags = ["A", "N", "R"];
    let labels: Vec<&str> = (0..n).map(|_| flags[rng.below(flags.len())]).collect();
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_str("g3", &labels)
            .col_i64(
                "g1k",
                (0..n)
                    .map(|_| rng.below(1_000) as i64 * 1_000_003)
                    .collect(),
            )
            .col_i64(
                "g100k",
                (0..n)
                    .map(|_| rng.below(100_000) as i64 * 1_000_003)
                    .collect(),
            )
            .col_f32("qty", (0..n).map(|_| rng.below(50) as f32 + 1.0).collect())
            .col_f32(
                "price",
                (0..n).map(|_| rng.uniform() as f32 * 1e4).collect(),
            )
            .col_f32(
                "disc",
                (0..n).map(|_| rng.below(11) as f32 / 100.0).collect(),
            )
            .col_f32("dial", (0..n).map(|_| rng.uniform() as f32).collect())
            .build("lineitem"),
    );
    let mut group = c.benchmark_group("grouped_aggregate_1m");
    group.sample_size(10);
    // Q1's fold alone: four sums and a COUNT over every row, grouped by
    // the three-entry dictionary key — a bare scan folded in place, the
    // key's codes its slots.
    let q1 = tdp
        .query(
            "SELECT g3, SUM(qty) AS q, SUM(price) AS p, SUM(price * (1 - disc)) AS net, \
             AVG(disc) AS d, COUNT(*) AS n FROM lineitem GROUP BY g3",
        )
        .expect("compile");
    group.bench_function("g3/all_rows", |b| b.iter(|| q1.run().expect("run")));
    for key in ["g3", "g1k", "g100k"] {
        for (sel, cutoff) in [("10pct", "0.10"), ("97pct", "0.97")] {
            let q = tdp
                .query(&format!(
                    "SELECT {key}, SUM(qty) AS q, SUM(price) AS p, \
                     SUM(price * (1 - disc)) AS net, AVG(disc) AS d, COUNT(*) AS n \
                     FROM lineitem WHERE dial < {cutoff} GROUP BY {key}"
                ))
                .expect("compile");
            group.bench_function(format!("{key}/{sel}"), |b| b.iter(|| q.run().expect("run")));
        }
    }
    group.finish();
}

fn bench_ungrouped_aggregate(c: &mut Criterion) {
    // The zero-key fold: four accumulators over one f32 column, each a
    // loop with its running value in a local. Unfiltered, an aggregate
    // over a bare scan folds every window where the column is stored;
    // 97% keeps the selection a dense mask, 10% demotes it to a survivor
    // index list. The unreferenced `pad` columns are what an aggregate
    // that read every column of its windows would pay for.
    let n = 1_000_000;
    let mut rng = Rng64::new(53);
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("v", (0..n).map(|_| rng.normal() as f32).collect())
            .col_f32("dial", (0..n).map(|_| rng.uniform() as f32).collect())
            .col_i64("pad1", (0..n).map(|_| rng.below(1_000) as i64).collect())
            .col_i64("pad2", (0..n).map(|_| rng.below(1_000) as i64).collect())
            .build("facts"),
    );
    let mut group = c.benchmark_group("ungrouped_aggregate_1m");
    group.sample_size(10);
    for (sel, filter) in [
        ("unfiltered", ""),
        ("97pct", " WHERE dial < 0.97"),
        ("10pct", " WHERE dial < 0.10"),
    ] {
        let q = tdp
            .query(&format!(
                "SELECT COUNT(*) AS n, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi FROM facts{filter}"
            ))
            .expect("compile");
        for threads in [1usize, 2] {
            tdp.set_threads(threads);
            group.bench_function(format!("{sel}/threads_{threads}"), |b| {
                b.iter(|| q.run().expect("run"))
            });
        }
    }
    tdp.set_threads(1);
    group.finish();
}

fn bench_appends(c: &mut Criterion) {
    // The ingest cycle's writes: 32 appends of 4,096 rows to a 500k-row
    // `events(ts, device, val)` table, then the table is registered back
    // at its 500k rows. An append grows the stored columns where they
    // are, so the 32 appends cost about what the batches hold; one that
    // rebuilt the table would copy 500k+ rows each time.
    let (n, batch, appends) = (500_000, 4_096, 32);
    let mut rng = Rng64::new(59);
    let events = |from: usize, rows: usize, rng: &mut Rng64| {
        TableBuilder::new()
            .col_i64("ts", (from as i64..(from + rows) as i64).collect())
            .col_i64("device", (0..rows).map(|_| rng.below(100) as i64).collect())
            .col_f32("val", (0..rows).map(|_| rng.normal() as f32).collect())
            .build("events")
    };
    let base = events(0, n, &mut rng);
    let batches: Vec<_> = (0..appends)
        .map(|i| events(n + i * batch, batch, &mut rng))
        .collect();
    let tdp = Tdp::new();
    tdp.register_table(base.clone());
    let mut group = c.benchmark_group("ingest_500k");
    group.sample_size(10);
    group.bench_function("append_4096_rows", |b| {
        b.iter(|| {
            for rows in &batches {
                assert!(tdp.append_rows("events", rows));
            }
            tdp.register_table(base.clone());
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_sql_operators,
    bench_soft_vs_exact_groupby,
    bench_compilation,
    bench_compiled_vs_uncompiled_repeated,
    bench_prepared_rebind_vs_requery,
    bench_encodings,
    bench_compressed_encodings,
    bench_topk_vs_full_sort,
    bench_parallel_scaling,
    bench_parallel_barriers,
    bench_hash_join_distinct,
    bench_parallel_udf_scaling,
    bench_chain_kernels,
    bench_concurrent_sessions,
    bench_access_paths,
    bench_memory_budget,
    bench_late_materialization,
    bench_selection_front,
    bench_grouped_aggregate,
    bench_ungrouped_aggregate,
    bench_appends
);
criterion_main!(benches);
