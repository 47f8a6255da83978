//! A standalone TDP server: one shared engine, many TCP clients.
//!
//! The engine/session split puts everything shareable — catalog, the
//! cross-session plan cache, parallel-safe UDFs, compiled chain
//! kernels — behind an `Arc<TdpEngine>`; the server hands each TCP
//! connection its own session over that engine. Queries sent by any
//! client warm the plan cache for every other client, which `STATS`
//! makes visible (`plan_cache_hits` climbs as clients repeat each
//! other's statements).
//!
//! Run with: `cargo run --release -p tdp_examples --example server`
//! (set `TDP_ADDR` to override `127.0.0.1:5433`, `TDP_MAX_CONCURRENT`
//! to bound concurrent query execution, `TDP_MEM_BUDGET` — bytes, with
//! an optional `k`/`m`/`g` suffix — to cap the memory all queries may
//! hold together). The process serves until
//! stdin closes or a `quit` line arrives, then drains in-flight
//! queries and exits. Talk to it with the `client` example or netcat:
//!
//! ```text
//! $ printf 'QUERY SELECT item, SUM(qty) FROM demo GROUP BY item\nQUIT\n' | nc 127.0.0.1 5433
//! ```

use std::io::BufRead;
use std::sync::Arc;

use tdp_core::storage::TableBuilder;
use tdp_core::tensor::Rng64;
use tdp_core::TdpEngine;
use tdp_data::attachments::generate_attachments;
use tdp_ml::{clip, TextSimilarityUdf};
use tdp_server::{ServerConfig, TdpServer};

fn boot() -> Arc<TdpEngine> {
    let mut rng = Rng64::new(7);
    // A deployment setting: the library reads no environment, so the
    // binary maps its own variable onto the engine's builder.
    let budget = std::env::var("TDP_MEM_BUDGET")
        .ok()
        .and_then(|v| tdp_mem::parse_bytes(&v));
    let engine = match budget {
        Some(bytes) => TdpEngine::with_memory_budget(bytes),
        None => TdpEngine::new(),
    };
    engine.register_table(
        TableBuilder::new()
            .col_f32("price", vec![3.0, 1.0, 2.0, 5.0, 4.0, 2.5])
            .col_str("item", &["book", "bag", "bag", "candle", "book", "candle"])
            .col_i64("qty", vec![10, 20, 30, 40, 50, 60])
            .build("demo"),
    );
    let att = generate_attachments(60, 24, 36, &mut rng);
    engine.register_table(
        TableBuilder::new()
            .col_tensor("images", att.images)
            .col_i64("id", (0..60).collect())
            .build("attachments"),
    );
    // Parallel-safe UDFs are engine-shared: every connection's session
    // sees CLIP_SIM without registering it.
    engine.register_udf_shared(Arc::new(TextSimilarityUdf::new(clip::pretrained(
        24, 36, 6, 7,
    ))));
    engine
}

fn main() {
    let addr = std::env::var("TDP_ADDR").unwrap_or_else(|_| "127.0.0.1:5433".to_string());
    let engine = boot();
    let server = match TdpServer::bind(engine, addr.as_str(), ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!("tdp server listening on {}", server.local_addr());
    println!("tables: demo, attachments (images + engine-shared CLIP_SIM UDF)");
    println!("verbs: QUERY | PREPARE | BIND | EXPLAIN | PROFILE | STATS | QUIT");
    println!("type 'quit' (or close stdin) to stop\n");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "quit" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }

    let stats = server.engine().stats();
    println!(
        "shutting down: {} sessions served, {} queries ({} rejected), plan-cache hit rate {:.2}",
        stats.sessions_total,
        stats.queries_served,
        stats.queries_rejected,
        stats.plan_cache_hit_rate(),
    );
    server.shutdown();
}
