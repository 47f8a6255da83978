//! Integration tests of the engine/session split: one `TdpEngine`
//! shared by many sessions, a cross-session plan cache (compile once,
//! hit from any session, invalidate everywhere), session-local UDF
//! isolation versus engine-shared registration, and engine-level
//! observability counters.

use std::sync::Arc;

use tdp_core::storage::{Table, TableBuilder};
use tdp_core::tensor::Tensor;
use tdp_core::{ParamValues, TdpEngine};
use tdp_integration::HalveUdf;

fn engine_with_table() -> Arc<TdpEngine> {
    let engine = TdpEngine::new();
    engine.register_table(
        TableBuilder::new()
            .col_f32("v", vec![0.5, 1.5, 2.5, 3.5, 4.5])
            .col_i64("k", vec![0, 1, 0, 1, 0])
            .build("t"),
    );
    engine
}

fn col_f32(table: &Table, name: &str) -> Vec<f32> {
    table
        .columns()
        .iter()
        .find(|c| c.name == name)
        .unwrap_or_else(|| panic!("no column {name}"))
        .data
        .decode_f32()
        .to_vec()
}

#[test]
fn two_sessions_one_compilation() {
    let engine = engine_with_table();
    let s1 = engine.session();
    let s2 = engine.session();

    let sql = "SELECT k, SUM(v) AS total FROM t GROUP BY k ORDER BY k";
    let r1 = s1.query(sql).unwrap().run().unwrap();
    let after_first = engine.plan_cache_stats();
    assert_eq!(after_first.misses, 1, "first session compiles");
    assert_eq!(after_first.hits, 0);

    let r2 = s2.query(sql).unwrap().run().unwrap();
    let after_second = engine.plan_cache_stats();
    assert_eq!(after_second.misses, 1, "second session must NOT recompile");
    assert_eq!(after_second.hits, 1, "second session hits the shared cache");
    assert!(engine.stats().plan_cache_hit_rate() > 0.0);

    assert_eq!(r1.pretty(100), r2.pretty(100), "shared plan, same bytes");
}

#[test]
fn literal_normalization_shares_plans_across_sessions() {
    let engine = engine_with_table();
    let s1 = engine.session();
    let s2 = engine.session();

    // Different literals, same normalized statement: one compilation.
    s1.query("SELECT SUM(v) FROM t WHERE v > 1.0")
        .unwrap()
        .run()
        .unwrap();
    s2.query("SELECT SUM(v) FROM t WHERE v > 3.0")
        .unwrap()
        .run()
        .unwrap();
    let stats = engine.plan_cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));
}

#[test]
fn catalog_change_in_one_session_invalidates_the_other() {
    let engine = engine_with_table();
    let s1 = engine.session();
    let s2 = engine.session();

    let sql = "SELECT * FROM t ORDER BY v";
    let before = s2.query(sql).unwrap().run().unwrap();
    assert_eq!(before.columns().len(), 2);
    assert_eq!(engine.plan_cache_stats().misses, 1);

    // Session 1 replaces `t` with a wider schema; session 2's cached
    // plan is now stale and must recompile, not serve the old shape.
    s1.register_table(
        TableBuilder::new()
            .col_f32("v", vec![10.0, 20.0])
            .col_i64("k", vec![7, 8])
            .col_f32("w", vec![0.1, 0.2])
            .build("t"),
    );
    let after = s2.query(sql).unwrap().run().unwrap();
    assert_eq!(after.columns().len(), 3, "session 2 sees the new schema");
    assert_eq!(col_f32(&after, "v"), vec![10.0, 20.0]);
    assert_eq!(
        engine.plan_cache_stats().misses,
        2,
        "stale cross-session entry recompiled exactly once"
    );
}

#[test]
fn session_local_udfs_stay_local_but_shared_udfs_are_global() {
    let engine = engine_with_table();
    let s1 = engine.session();
    let s2 = engine.session();

    s1.register_udf(Arc::new(HalveUdf));
    assert!(
        s1.query("SELECT halve(v) FROM t").is_ok(),
        "registering session sees its UDF"
    );
    let err = s2
        .query("SELECT halve(v) FROM t")
        .expect_err("session 2 must not see session 1's local UDF");
    assert!(
        err.to_string().contains("halve"),
        "error should name the unresolved function: {err}"
    );

    // Engine-shared registration is visible to every session, including
    // ones opened before the registration.
    engine.register_udf_shared(Arc::new(HalveUdf));
    let r2 = s2
        .query("SELECT halve(v) AS h FROM t ORDER BY h")
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(col_f32(&r2, "h"), vec![0.25, 0.75, 1.25, 1.75, 2.25]);
    let s3 = engine.session();
    assert!(s3.query("SELECT halve(v) FROM t").is_ok());
}

#[test]
fn local_udf_plans_do_not_poison_the_shared_cache() {
    let engine = engine_with_table();
    let s1 = engine.session();
    let s2 = engine.session();

    // Session 1 resolves halve() locally; its plan must not be served to
    // session 2, where the name does not resolve at all.
    s1.register_udf(Arc::new(HalveUdf));
    s1.query("SELECT halve(v) FROM t").unwrap().run().unwrap();
    assert_eq!(
        engine.plan_cache_stats().entries,
        0,
        "locally-resolved plans stay in the session overlay"
    );
    assert!(s2.query("SELECT halve(v) FROM t").is_err());
}

#[test]
fn shared_udf_registration_invalidates_cached_plans() {
    let engine = engine_with_table();
    let s1 = engine.session();
    let s2 = engine.session();

    s1.query("SELECT SUM(v) FROM t").unwrap().run().unwrap();
    assert_eq!(engine.plan_cache_stats().misses, 1);
    // Epoch bump: resolution may have changed, every session recompiles.
    engine.register_udf_shared(Arc::new(HalveUdf));
    s2.query("SELECT SUM(v) FROM t").unwrap().run().unwrap();
    assert_eq!(engine.plan_cache_stats().misses, 2);
}

fn vecs_table() -> Table {
    let n = 64;
    let emb: Vec<f32> = (0..n * 4).map(|i| ((i * 37 % 101) as f32) * 0.1).collect();
    TableBuilder::new()
        .col_i64("id", (0..n as i64).collect())
        .col_f32("x", (0..n).map(|i| i as f32).collect())
        .col_tensor("emb", Tensor::from_vec(emb, &[n, 4]))
        .build("vecs")
}

fn ann_ids(session: &tdp_core::Session, sql: &str) -> (String, Vec<i64>) {
    let q = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]);
    let prepared = session.prepare(sql).unwrap();
    let out = prepared
        .bind(ParamValues::new().tensor(q))
        .unwrap()
        .run()
        .unwrap();
    let ids = out.column("id").unwrap().data.decode_i64().to_vec();
    (prepared.explain(), ids)
}

#[test]
fn index_ddl_in_one_session_replans_every_session() {
    // Session 1's statement resolves a session-local function, so its
    // plan lives in session 1's overlay; index DDL from session 2 must
    // still move it to the new access path, in both directions.
    let engine = TdpEngine::new();
    engine.register_table(vecs_table());
    let s1 = engine.session();
    let s2 = engine.session();
    s1.register_udf(Arc::new(HalveUdf));
    let local = "SELECT id, halve(x) AS h, emb FROM vecs ORDER BY distance(emb, ?) LIMIT 5";
    let plain = "SELECT id FROM vecs ORDER BY distance(emb, ?) LIMIT 5";
    let (plan, before) = ann_ids(&s1, local);
    assert!(plan.contains("[flat exact]"), "{plan}");

    s2.execute("CREATE INDEX vi ON vecs (emb) USING ivf(8, 1) METRIC l2")
        .unwrap();
    let (plan, ivf_local) = ann_ids(&s1, local);
    assert!(plan.contains("[ivf nlist=8 nprobe=1]"), "{plan}");
    let (plan, ivf_plain) = ann_ids(&s2, plain);
    assert!(plan.contains("[ivf nlist=8 nprobe=1]"), "{plan}");
    assert_eq!(ivf_local, ivf_plain, "one access path, one answer");

    s2.execute("DROP INDEX vi").unwrap();
    let (plan, after) = ann_ids(&s1, local);
    assert!(plan.contains("[flat exact]"), "{plan}");
    assert_eq!(after, before);
}

#[test]
fn engine_counts_sessions_and_queries() {
    let engine = engine_with_table();
    assert_eq!(engine.stats().sessions_open, 0);
    let s1 = engine.session();
    let s2 = engine.session();
    assert_eq!(engine.stats().sessions_open, 2);
    assert_eq!(engine.stats().sessions_total, 2);

    s1.query("SELECT COUNT(*) FROM t").unwrap().run().unwrap();
    s2.query("SELECT COUNT(*) FROM t").unwrap().run().unwrap();
    assert_eq!(engine.stats().queries_served, 2);

    drop(s1);
    assert_eq!(engine.stats().sessions_open, 1);
    drop(s2);
    assert_eq!(engine.stats().sessions_open, 0);
    assert_eq!(engine.stats().sessions_total, 2, "total never decreases");
}

#[test]
fn sessions_on_threads_share_the_plan_cache() {
    let engine = engine_with_table();
    // Warm the cache from the main thread…
    engine
        .session()
        .query("SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k")
        .unwrap()
        .run()
        .unwrap();
    // …then hit it from fresh sessions on other threads.
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let s = engine.session();
                s.query("SELECT k, SUM(v) FROM t GROUP BY k ORDER BY k")
                    .unwrap()
                    .run()
                    .unwrap()
                    .pretty(100)
            })
        })
        .collect();
    let results: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(results.windows(2).all(|w| w[0] == w[1]));
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.misses, 1, "one compilation for five sessions");
    assert_eq!(stats.hits, 4);
}
