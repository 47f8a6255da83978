//! Figure 2 (right): average execution time of the multimodal query mix
//! on 1,000 attachment images, CPU vs (simulated) GPU.
//!
//! Workload: 30 queries cycling through the three shapes of Figure 2
//! (similarity filter / filter + aggregate / top-k), executed once per
//! device. The paper measures ~31s CPU vs ~6s GPU (≈5×) on a V100; we
//! reproduce the *shape* (accelerator wins clearly) with thread-parallel
//! kernels standing in for the GPU.
//!
//! Laptop scale: 200 images at 48x72. `TDP_BENCH_FULL=1`: 1,000 images at
//! 100x150.

use std::sync::Arc;

use tdp_bench::{figure, knob, secs, timed};
use tdp_core::storage::TableBuilder;
use tdp_core::tensor::Rng64;
use tdp_core::{Device, QueryConfig, Tdp};
use tdp_data::attachments::generate_attachments;
use tdp_ml::{clip, TextSimilarityUdf};

fn main() {
    let n_images = knob("FIG2_IMAGES", 200, 1000);
    let (h, w) = if tdp_bench::full_scale() {
        (100, 150)
    } else {
        (48, 72)
    };
    let n_queries = knob("FIG2_QUERIES", 30, 30);

    figure(
        "Figure 2 (right): multimodal query latency, CPU vs accelerator",
        "GPU ~6s vs CPU ~31s average over 30 queries on 1000 images (~5x)",
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "host parallelism: {cores} hardware thread(s) — the simulated \
              accelerator can only beat the CPU device when this exceeds 1"
    );
    let mut rng = Rng64::new(2023);
    println!("generating {n_images} attachments at {h}x{w}...");
    let ds = generate_attachments(n_images, h, w, &mut rng);
    let model = clip::pretrained(h, w, 8, 7);

    let queries = [
        "SELECT COUNT(*) FROM Attachments WHERE image_text_similarity('receipt', images) > 0.80",
        "SELECT images FROM Attachments WHERE image_text_similarity('dog', images) > 0.80",
        "SELECT image_text_similarity('KFC Receipt', images) AS score \
         FROM Attachments ORDER BY score DESC LIMIT 2",
        "SELECT COUNT(*) FROM Attachments WHERE image_text_similarity('logo', images) > 0.80",
        "SELECT images FROM Attachments WHERE image_text_similarity('landscape', images) > 0.80",
        "SELECT image_text_similarity('cat', images) AS score \
         FROM Attachments ORDER BY score DESC LIMIT 5",
    ];

    let mut rows = Vec::new();
    for device in [Device::Cpu, Device::accel()] {
        let tdp = Tdp::new();
        tdp.set_default_device(device);
        tdp.register_table(
            TableBuilder::new()
                .col_tensor("images", ds.images.clone())
                .build("Attachments"),
        );
        tdp.register_udf(Arc::new(TextSimilarityUdf::new(model.clone())));

        let (_, total) = timed(|| {
            for i in 0..n_queries {
                let sql = queries[i % queries.len()];
                let q = tdp
                    .query_with(sql, QueryConfig::default().device(device))
                    .expect("compile");
                let _ = q.run().expect("run");
            }
        });
        let avg = total / n_queries as f64;
        rows.push((device, avg));
        println!(
            "device {:<8}  {} queries  total {:>8}  avg {:>8}",
            device.to_string(),
            n_queries,
            secs(total),
            secs(avg)
        );
    }

    let speedup = rows[0].1 / rows[1].1.max(1e-12);
    println!(
        "\nAvg. execution time: CPU {} vs {} {}  ->  {:.1}x speedup",
        secs(rows[0].1),
        rows[1].0,
        secs(rows[1].1),
        speedup
    );
    println!("paper shape: accelerator wins on the embedding-heavy workload (paper: ~5x)");

    // Sanity: the queries actually answer correctly on either device.
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_tensor("images", ds.images.clone())
            .build("Attachments"),
    );
    tdp.register_udf(Arc::new(TextSimilarityUdf::new(model)));
    let receipts = tdp
        .query(queries[0])
        .unwrap()
        .run()
        .unwrap()
        .column("COUNT(*)")
        .unwrap()
        .data
        .decode_i64()
        .at(0);
    let truth = ds.classes.iter().filter(|c| c.is_receipt()).count() as i64;
    println!("semantic check: receipt filter found {receipts} (ground truth {truth})");
}
