//! SQL over audio: the third modality.
//!
//! The paper's opening claim is that the tensor abstraction lets one
//! engine hold "images, videos, audio, text as well as relational" data.
//! This example stores a corpus of waveforms as a 2-d tensor column, then:
//!
//! 1. filters clips with a natural-language criterion
//!    (`audio_text_similarity`, the audio twin of Listing 7),
//! 2. runs a top-k audio search through `ORDER BY … LIMIT` (the fused
//!    TopK operator),
//! 3. renders a result row to a playable WAV file — the Example 2.3
//!    "IPython.display.Audio" analog.
//!
//! Run with: `cargo run --release -p tdp-examples --bin audio_queries`

use std::sync::Arc;

use tdp_core::render;
use tdp_core::storage::TableBuilder;
use tdp_core::tensor::Rng64;
use tdp_core::Tdp;
use tdp_data::audio::{generate_audio, SAMPLE_RATE};
use tdp_examples::{banner, timed};
use tdp_ml::{audio, TextSimilarityUdf};

fn main() {
    let mut rng = Rng64::new(2024);
    let n = 100;

    banner("ingesting an audio corpus");
    let ds = generate_audio(n, &mut rng);
    println!(
        "{n} clips of {} samples at {} Hz stored as one [{}x{}] tensor column",
        ds.clips.shape()[1],
        SAMPLE_RATE,
        n,
        ds.clips.shape()[1]
    );
    let tdp = Tdp::new();
    tdp.register_table(
        TableBuilder::new()
            .col_tensor("clip", ds.clips.clone())
            .col_i64("id", (0..n as i64).collect())
            .build("Sounds"),
    );
    tdp.register_udf(Arc::new(TextSimilarityUdf::new(audio::pretrained(8, 3))));

    banner("filtering by what the clip sounds like");
    for query in ["chirp", "noise", "clicks", "low tone"] {
        let sql = format!(
            "SELECT COUNT(*) FROM Sounds WHERE audio_text_similarity('{query}', clip) > 0.8"
        );
        let (out, secs) = timed(|| tdp.query(&sql).unwrap().run().unwrap());
        println!(
            "{query:>10}: {} clips ({:.1} ms)",
            out.column("COUNT(*)").unwrap().data.decode_i64().at(0),
            secs * 1e3
        );
    }

    banner("top-3 'siren-like' clips (fused TopK over a UDF score)");
    let q = tdp
        .query(
            "SELECT id, audio_text_similarity('siren', clip) AS score \
             FROM Sounds ORDER BY score DESC LIMIT 3",
        )
        .unwrap();
    println!("{}", q.explain());
    let top = q.run().unwrap();
    for i in 0..top.rows() {
        let id = top.column("id").unwrap().data.decode_i64().at(i);
        let score = top.column("score").unwrap().data.decode_f32().at(i);
        println!(
            "  clip {id:>3}  score {score:.3}  true class {:?}",
            ds.classes[id as usize]
        );
    }

    banner("rendering a result to WAV (Example 2.3's Audio output)");
    let hits = tdp
        .query("SELECT clip FROM Sounds WHERE audio_text_similarity('chirp', clip) > 0.8 LIMIT 1")
        .unwrap()
        .run()
        .unwrap();
    let wav = render::column_row_to_wav(&hits, "clip", 0, SAMPLE_RATE as u32).unwrap();
    let path = std::env::temp_dir().join("tdp_chirp.wav");
    std::fs::write(&path, &wav).unwrap();
    println!("wrote {} bytes to {}", wav.len(), path.display());
}
