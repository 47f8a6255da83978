//! Multimodal queries over email attachments (paper §5.1, Figure 2).
//!
//! Generates the attachment corpus (photos / receipts / logos), registers
//! the CLIP-sim `image_text_similarity` UDF, and runs the three query
//! shapes of Figure 2: a similarity filter, an aggregate over a filter,
//! and a top-k search — on CPU and on the simulated accelerator.
//!
//! Run with: `cargo run --release -p tdp-examples --bin multimodal_search`

use std::sync::Arc;

use tdp_core::storage::TableBuilder;
use tdp_core::tensor::Rng64;
use tdp_core::{Device, QueryConfig, Tdp};
use tdp_data::attachments::generate_attachments;
use tdp_examples::{banner, timed};
use tdp_ml::{clip, TextSimilarityUdf};

fn main() {
    let mut rng = Rng64::new(2023);
    let (h, w) = (48, 72);
    let n = 200; // paper's Figure 2 sample: 100 photos, 50 receipts, 50 logos

    banner("Dataset: email image attachments");
    let ds = generate_attachments(n, h, w, &mut rng);
    println!("generated {} attachments at {h}x{w}", ds.len());

    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_tensor("images", ds.images.clone())
            .build("Attachments"),
    );

    banner("Pretraining CLIP-sim (prototype calibration)");
    let model = clip::pretrained(h, w, 8, 7);
    // The UDF declares its signature — (query: string, images: column),
    // immutable, parallel-safe — so arity/type errors surface at
    // prepare() and similarity chains run across the morsel worker pool.
    tdp.register_udf_parallel(Arc::new(TextSimilarityUdf::new(model)));

    banner("Query 1 (filter + count): receipts above similarity 0.8");
    let q1 =
        "SELECT COUNT(*) FROM Attachments WHERE image_text_similarity('receipt', images) > 0.80";
    let (r1, t1) = timed(|| tdp.query(q1).unwrap().run().unwrap());
    println!("{}", r1.pretty(3));
    println!(
        "(ground truth: {} receipts) — {:.2}s",
        ds.classes.iter().filter(|c| c.is_receipt()).count(),
        t1
    );

    banner("Query 2 (filter): dog photos");
    let q2 = "SELECT images FROM Attachments WHERE image_text_similarity('dog', images) > 0.80";
    let (r2, t2) = timed(|| tdp.query(q2).unwrap().run().unwrap());
    println!(
        "returned {} image rows (ground truth {}) — {:.2}s",
        r2.rows(),
        ds.classes
            .iter()
            .filter(|c| format!("{c:?}") == "PhotoDog")
            .count(),
        t2
    );

    banner("Query 3 (top-k): the two best 'KFC Receipt' matches");
    let q3 = "SELECT image_text_similarity('KFC Receipt', images) AS score \
              FROM Attachments ORDER BY score DESC LIMIT 2";
    let (r3, t3) = timed(|| tdp.query(q3).unwrap().run().unwrap());
    println!("{}", r3.pretty(3));
    println!("top-k in {:.2}s", t3);

    banner("CPU vs simulated accelerator");
    let (_, cpu) = timed(|| tdp.query(q1).unwrap().run().unwrap());
    let accel_q = tdp
        .query_with(q1, QueryConfig::default().device(Device::accel()))
        .unwrap();
    let (_, acc) = timed(|| accel_q.run().unwrap());
    println!(
        "avg execution time  cpu: {:.2}s   {}: {:.2}s   speedup {:.1}x",
        cpu,
        Device::accel(),
        acc,
        cpu / acc.max(1e-9)
    );
}
