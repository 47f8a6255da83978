//! Integration tests for the extended feature set: the einops rearrange
//! path, the wider SQL surface (CASE / IN / LIKE / DISTINCT / UNION ALL /
//! new aggregates / built-in scalar functions), the compressed integer
//! encodings, the vector index, the query profiler, and the soft top-k
//! relaxation — all exercised through the public `Tdp` session API.

use std::sync::Arc;

use tdp_core::autodiff::Var;
use tdp_core::encoding::EncodedTensor;
use tdp_core::exec::{ArgValue, DiffColumn, ExecContext, ExecError, ScalarUdf};
use tdp_core::index::{recall_at_k, IvfParams, Metric};
use tdp_core::nn::{Adam, Optimizer};
use tdp_core::storage::TableBuilder;
use tdp_core::tensor::{einops, F32Tensor, Rng64, Tensor};
use tdp_core::{IndexKind, QueryConfig, Tdp};

fn orders_session() -> Tdp {
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("price", vec![3.0, 1.0, 2.0, 5.0, 4.0])
            .col_str("item", &["book", "bag", "bag", "candle", "book"])
            .col_i64("qty", vec![10, 20, 30, 40, 50])
            .build("orders"),
    );
    tdp
}

fn f32_col(t: &tdp_core::storage::Table, name: &str) -> Vec<f32> {
    t.column(name).unwrap().data.decode_f32().to_vec()
}

// ----------------------------------------------------------------------
// SQL surface
// ----------------------------------------------------------------------

#[test]
fn case_in_like_through_session() {
    let tdp = orders_session();
    let r = tdp
        .query(
            "SELECT item, CASE WHEN price >= 4 THEN 1 ELSE 0 END AS pricey \
             FROM orders WHERE item LIKE 'b%' AND qty IN (10, 50) ORDER BY qty",
        )
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(r.rows(), 2);
    assert_eq!(f32_col(&r, "pricey"), vec![0.0, 1.0]);
}

#[test]
fn distinct_union_all_through_session() {
    let tdp = orders_session();
    let r = tdp
        .query("SELECT DISTINCT item FROM orders")
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(r.rows(), 3);
    let u = tdp
        .query(
            "SELECT price FROM orders WHERE price >= 5 \
             UNION ALL SELECT price FROM orders WHERE price <= 1",
        )
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(f32_col(&u, "price"), vec![5.0, 1.0]);
}

#[test]
fn new_aggregates_through_session() {
    let tdp = orders_session();
    let r = tdp
        .query(
            "SELECT item, COUNT(DISTINCT qty) AS dq, STDDEV(price) AS sd \
             FROM orders GROUP BY item ORDER BY item",
        )
        .unwrap()
        .run()
        .unwrap();
    // items sorted: bag, book, candle
    assert_eq!(
        r.column("dq").unwrap().data.decode_i64().to_vec(),
        vec![2, 2, 1]
    );
    let sd = f32_col(&r, "sd");
    assert!((sd[0] - (0.5f32).sqrt()).abs() < 1e-5); // prices 1, 2
    assert!((sd[2] - 0.0).abs() < 1e-6); // singleton group
}

#[test]
fn builtin_functions_and_profiler() {
    let tdp = orders_session();
    let q = tdp
        .query("SELECT ROUND(SQRT(qty)) AS r FROM orders ORDER BY qty LIMIT 3")
        .unwrap();
    let (table, profile) = q.run_profiled().unwrap();
    assert_eq!(f32_col(&table, "r"), vec![3.0, 4.0, 5.0]);
    // ORDER BY + LIMIT fuses into TopK (even under a projection that
    // drops the sort key), so no standalone Limit operator remains.
    assert!(profile.ops.iter().any(|o| o.label.starts_with("TopK")));
    assert!(profile.total_seconds() >= 0.0);
    assert_eq!(profile.ops[0].rows_out, 3);
}

// ----------------------------------------------------------------------
// einops
// ----------------------------------------------------------------------

#[test]
fn einops_round_trips_and_matches_manual_split() {
    // The Listing-4 pattern against a manual loop implementation.
    let mut rng = Rng64::new(3);
    let grid = F32Tensor::randn(&[1, 12, 12], 0.0, 1.0, &mut rng);
    let tiles = einops::rearrange(
        &grid,
        "1 (h1 h2) (w1 w2) -> (h1 w1) 1 h2 w2",
        &[("h1", 3), ("w1", 3)],
    )
    .unwrap();
    assert_eq!(tiles.shape(), &[9, 1, 4, 4]);
    for ty in 0..3 {
        for tx in 0..3 {
            for y in 0..4 {
                for x in 0..4 {
                    assert_eq!(
                        tiles.get(&[ty * 3 + tx, 0, y, x]),
                        grid.get(&[0, ty * 4 + y, tx * 4 + x]),
                    );
                }
            }
        }
    }
    // Inverse pattern reassembles the grid.
    let back = einops::rearrange(
        &tiles,
        "(h1 w1) 1 h2 w2 -> 1 (h1 h2) (w1 w2)",
        &[("h1", 3), ("w1", 3)],
    )
    .unwrap();
    assert_eq!(back.to_vec(), grid.to_vec());
}

// ----------------------------------------------------------------------
// Compressed encodings through SQL
// ----------------------------------------------------------------------

#[test]
fn compressed_table_queries_match_plain() {
    let ts: Vec<i64> = (0..300).map(|i| 5_000 + 7 * i).collect();
    let cat: Vec<i64> = (0..300).map(|i| i % 4).collect();
    let table = TableBuilder::new()
        .col_i64("ts", ts)
        .col_i64("cat", cat)
        .build("log");

    let plain = Tdp::new();
    plain.register_table(table.clone());
    let packed = Tdp::new();
    packed.register_table(table.compress());

    for sql in [
        "SELECT cat, COUNT(*), MIN(ts), MAX(ts) FROM log GROUP BY cat",
        "SELECT COUNT(*) FROM log WHERE ts BETWEEN 5100 AND 6000",
        "SELECT DISTINCT cat FROM log ORDER BY cat",
    ] {
        let a = plain.query(sql).unwrap().run().unwrap();
        let b = packed.query(sql).unwrap().run().unwrap();
        assert_eq!(a.rows(), b.rows(), "{sql}");
        for col in a.column_names() {
            assert_eq!(
                a.column(col).unwrap().data.decode_i64().to_vec(),
                b.column(col).unwrap().data.decode_i64().to_vec(),
                "{sql} / {col}"
            );
        }
    }
}

// ----------------------------------------------------------------------
// Vector index
// ----------------------------------------------------------------------

#[test]
fn vector_index_recall_against_exact() {
    let mut rng = Rng64::new(5);
    let data = F32Tensor::randn(&[512, 16], 0.0, 1.0, &mut rng);
    let tdp = Tdp::new();
    tdp.register_table(TableBuilder::new().col_tensor("emb", data).build("vecs"));

    tdp.create_vector_index("vecs", "emb", Metric::Cosine, IndexKind::Flat, 0)
        .unwrap();
    let q = F32Tensor::randn(&[16], 0.0, 1.0, &mut rng);
    let exact = tdp.vector_topk("vecs", "emb", &q, 10, 1).unwrap();

    tdp.create_vector_index(
        "vecs",
        "emb",
        Metric::Cosine,
        IndexKind::IvfFlat(IvfParams::new(16), 16),
        42,
    )
    .unwrap();
    let full_probe = tdp.vector_topk("vecs", "emb", &q, 10, 16).unwrap();
    assert!(
        recall_at_k(&exact, &full_probe) > 0.99,
        "full probe must be exact"
    );
    // On unclustered data recall grows with probe depth; a single probe
    // may legitimately miss most of the true top-k.
    let one = recall_at_k(&exact, &tdp.vector_topk("vecs", "emb", &q, 10, 1).unwrap());
    let eight = recall_at_k(&exact, &tdp.vector_topk("vecs", "emb", &q, 10, 8).unwrap());
    assert!(
        eight >= one,
        "recall must not shrink with nprobe: {one} vs {eight}"
    );
    assert!(
        eight > 0.5,
        "8/16 probes should recover most of the top-k: {eight}"
    );
}

// ----------------------------------------------------------------------
// Audio as a first-class SQL modality
// ----------------------------------------------------------------------

#[test]
fn sql_filters_and_searches_audio_clips() {
    use tdp_data::audio::{generate_audio, AudioClass};
    use tdp_ml::{audio, TextSimilarityUdf};

    let mut rng = Rng64::new(21);
    let ds = generate_audio(30, &mut rng);
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_tensor("clip", ds.clips.clone())
            .col_i64("id", (0..30).collect())
            .build("Sounds"),
    );
    tdp.register_udf(Arc::new(TextSimilarityUdf::new(audio::pretrained(6, 7))));

    // Filter clips by natural-language criterion (the audio Listing 7).
    let out = tdp
        .query("SELECT COUNT(*) FROM Sounds WHERE audio_text_similarity('chirp', clip) > 0.8")
        .unwrap()
        .run()
        .unwrap();
    let expected = ds
        .classes
        .iter()
        .filter(|c| **c == AudioClass::Chirp)
        .count() as i64;
    assert_eq!(
        out.column("COUNT(*)").unwrap().data.decode_i64().at(0),
        expected
    );

    // Top-k audio search through ORDER BY … LIMIT (fused TopK path).
    let top = tdp
        .query(
            "SELECT id, audio_text_similarity('noise', clip) AS score \
             FROM Sounds ORDER BY score DESC LIMIT 3",
        )
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(top.rows(), 3);
    for id in top.column("id").unwrap().data.decode_i64().to_vec() {
        assert_eq!(ds.classes[id as usize], AudioClass::Noise, "id {id}");
    }

    // Vector search over audio embeddings through the session index.
    let model = audio::pretrained(6, 7);
    let embeds = model.embed_batch(&ds.clips);
    tdp.register_table(
        TableBuilder::new()
            .col_tensor("emb", embeds.clone())
            .build("AEmb"),
    );
    tdp.create_vector_index("AEmb", "emb", Metric::Cosine, IndexKind::Flat, 0)
        .unwrap();
    let probe = embeds.row(2); // a chirp
    let hits = tdp.vector_topk("AEmb", "emb", &probe, 5, 1).unwrap();
    for h in &hits {
        assert_eq!(ds.classes[h.id], AudioClass::Chirp, "hit {}", h.id);
    }
}

#[test]
fn sql_filters_video_clips_by_motion() {
    use tdp_data::video::{generate_video, VideoClass};
    use tdp_ml::{video, TextSimilarityUdf};

    let mut rng = Rng64::new(31);
    let ds = generate_video(24, &mut rng);
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_tensor("clip", ds.clips.clone())
            .col_i64("id", (0..24).collect())
            .build("Videos"),
    );
    tdp.register_udf(Arc::new(TextSimilarityUdf::new(video::pretrained(6, 5))));

    // "find clips where something moves" — the video-analytics query shape.
    let out = tdp
        .query(
            "SELECT id FROM Videos WHERE video_text_similarity('motion', clip) > 0.8 ORDER BY id",
        )
        .unwrap()
        .run()
        .unwrap();
    let got: Vec<i64> = out.column("id").unwrap().data.decode_i64().to_vec();
    let expected: Vec<i64> = ds
        .classes
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c, VideoClass::PanLeft | VideoClass::PanRight))
        .map(|(i, _)| i as i64)
        .collect();
    assert_eq!(got, expected);

    // Aggregate over a CASE of similarity scores — mixing modalities with
    // plain SQL machinery.
    let agg = tdp
        .query(
            "SELECT COUNT(*) AS n, \
             SUM(CASE WHEN video_text_similarity('flicker', clip) > 0.8 THEN 1 ELSE 0 END) AS flickering \
             FROM Videos",
        )
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(agg.column("n").unwrap().data.decode_i64().at(0), 24);
    assert_eq!(f32_col(&agg, "flickering"), vec![6.0]);
}

#[test]
fn similarity_udfs_reject_columns_of_the_wrong_shape_through_sql() {
    use tdp_core::TdpError;
    use tdp_ml::{audio, clip, video, TextSimilarityUdf};

    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_f32("price", vec![1.0, 2.0, 3.0, 4.0])
            .col_tensor("gray", Tensor::full(&[4, 1, 8, 8], 0.5))
            .col_tensor("blank", Tensor::full(&[4, 3, 0, 0], 0.5))
            .col_tensor("tiny", Tensor::full(&[4, 2, 2, 2], 0.5))
            .col_tensor("short", Tensor::full(&[4, 100], 0.5))
            .build("t"),
    );
    tdp.register_udf_parallel(Arc::new(TextSimilarityUdf::new(clip::pretrained(
        8, 8, 2, 1,
    ))));
    tdp.register_udf_parallel(Arc::new(TextSimilarityUdf::new(audio::pretrained(2, 1))));
    tdp.register_udf_parallel(Arc::new(TextSimilarityUdf::new(video::pretrained(2, 1))));
    // 'dog' names an image class only, so the audio and video calls below
    // match no class and must still check the column.
    for (udf, col) in [
        ("image_text_similarity", "price"),
        ("image_text_similarity", "gray"),
        ("image_text_similarity", "blank"),
        ("video_text_similarity", "tiny"),
        ("video_text_similarity", "price"),
        ("audio_text_similarity", "short"),
    ] {
        for sql in [
            format!("SELECT {udf}('dog', {col}) FROM t"),
            format!("SELECT COUNT(*) FROM t WHERE {udf}('dog', {col}) > 0.8"),
        ] {
            let err = tdp.query(&sql).and_then(|q| q.run()).unwrap_err();
            assert!(
                matches!(&err, TdpError::Exec(ExecError::TypeMismatch(m)) if m.contains(udf)),
                "{sql}: {err:?}"
            );
        }
    }
}

#[test]
fn query_results_render_to_ppm_and_wav() {
    use tdp_core::render;
    use tdp_data::attachments::generate_attachments;
    use tdp_data::audio::{generate_audio, SAMPLE_RATE};

    let mut rng = Rng64::new(8);
    let ds = generate_audio(5, &mut rng);
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_tensor("clip", ds.clips.clone())
            .build("Sounds"),
    );
    let result = tdp
        .query("SELECT clip FROM Sounds LIMIT 2")
        .unwrap()
        .run()
        .unwrap();
    let wav = render::column_row_to_wav(&result, "clip", 0, SAMPLE_RATE as u32).unwrap();
    assert_eq!(&wav[..4], b"RIFF");
    assert_eq!(wav.len(), 44 + 2 * ds.clips.shape()[1]);

    // Image rendering over a generated attachment.
    let att = generate_attachments(2, 8, 12, &mut rng);
    tdp.register_table(
        TableBuilder::new()
            .col_tensor("img", att.images)
            .build("Imgs"),
    );
    let imgs = tdp.query("SELECT img FROM Imgs").unwrap().run().unwrap();
    let ppm = render::column_row_to_ppm(&imgs, "img", 1).unwrap();
    assert!(ppm.starts_with(b"P6\n12 8\n255\n"));
}

// ----------------------------------------------------------------------
// Trainable threshold through the soft predicate (end-to-end)
// ----------------------------------------------------------------------

struct ThresholdUdf {
    theta: Var,
}

impl ScalarUdf for ThresholdUdf {
    fn name(&self) -> &str {
        "threshold"
    }
    fn invoke(&self, args: &[ArgValue], _ctx: &ExecContext) -> Result<EncodedTensor, ExecError> {
        let n = args[0].as_column()?.rows();
        Ok(EncodedTensor::F32(Tensor::full(
            &[n],
            self.theta.value().at(0),
        )))
    }
    fn invoke_diff(&self, args: &[ArgValue], _ctx: &ExecContext) -> Result<DiffColumn, ExecError> {
        let n = match &args[0] {
            ArgValue::Column(c) => c.rows(),
            ArgValue::DiffColumn(d) => d.var.shape()[0],
            _ => return Err(ExecError::TypeMismatch("need a column".into())),
        };
        Ok(DiffColumn::plain(self.theta.broadcast_to(&[n])))
    }
    fn parameters(&self) -> Vec<Var> {
        vec![self.theta.clone()]
    }
}

#[test]
fn where_threshold_learns_from_counts() {
    let mut rng = Rng64::new(11);
    let tdp = Tdp::new();
    let theta = Var::param(Tensor::from_vec(vec![0.0f32], &[1]));
    tdp.register_udf(Arc::new(ThresholdUdf {
        theta: theta.clone(),
    }));
    let q = tdp
        .query_with(
            "SELECT COUNT(*) FROM readings WHERE v > threshold(v)",
            QueryConfig::default().trainable(true).temperature(0.05),
        )
        .unwrap();
    assert_eq!(
        q.num_parameters(),
        1,
        "threshold parameter must be discovered"
    );

    let true_cut = 0.4f32;
    let mut opt = Adam::new(q.parameters(), 0.05);
    for _ in 0..150 {
        let vals: Vec<f32> = (0..256).map(|_| rng.uniform() as f32).collect();
        let target = vals.iter().filter(|&&v| v > true_cut).count() as f32;
        tdp.register_table(TableBuilder::new().col_f32("v", vals).build("readings"));
        opt.zero_grad();
        let count = q.run_counts().unwrap();
        count
            .mse_loss(&Tensor::from_vec(vec![target], &[1]))
            .backward();
        opt.step();
    }
    let learned = theta.value().at(0);
    assert!(
        (learned - true_cut).abs() < 0.1,
        "θ = {learned}, expected ≈ {true_cut}"
    );
}

// ----------------------------------------------------------------------
// Soft top-k through the session API
// ----------------------------------------------------------------------

struct FixedScoreUdf {
    scores: Var,
}

impl ScalarUdf for FixedScoreUdf {
    fn name(&self) -> &str {
        "fixed_score"
    }
    fn invoke(&self, _args: &[ArgValue], _ctx: &ExecContext) -> Result<EncodedTensor, ExecError> {
        Ok(EncodedTensor::F32(self.scores.value()))
    }
    fn invoke_diff(&self, _args: &[ArgValue], _ctx: &ExecContext) -> Result<DiffColumn, ExecError> {
        Ok(DiffColumn::plain(self.scores.clone()))
    }
    fn parameters(&self) -> Vec<Var> {
        vec![self.scores.clone()]
    }
}

#[test]
fn trainable_topk_query_produces_soft_weights() {
    let tdp = Tdp::new();
    let scores = Var::param(Tensor::from_vec(vec![0.1f32, 0.9, 0.5, 0.2], &[4]));
    tdp.register_udf(Arc::new(FixedScoreUdf {
        scores: scores.clone(),
    }));
    tdp.register_table(
        TableBuilder::new()
            .col_f32("x", vec![1.0, 2.0, 3.0, 4.0])
            .build("t"),
    );
    let q = tdp
        .query_with(
            "SELECT x, fixed_score(x) AS s FROM t ORDER BY s DESC LIMIT 2",
            QueryConfig::default().trainable(true).temperature(0.01),
        )
        .unwrap();
    let batch = q.run_diff().unwrap();
    assert_eq!(batch.rows(), 4, "soft top-k keeps all rows");
    let w = batch.weights.as_ref().expect("weights").value();
    assert!(w.at(1) > 0.99 && w.at(2) > 0.99, "{:?}", w.to_vec());
    assert!((w.sum() - 2.0).abs() < 0.01, "total mass = k");
    // Exact run of the same compiled query cuts hard.
    let exact = q.run().unwrap();
    assert_eq!(exact.rows(), 2);
    assert_eq!(f32_col(&exact, "x"), vec![2.0, 3.0]);
}
