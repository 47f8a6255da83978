//! A deterministic audio↔text joint embedding, the audio counterpart of
//! CLIP-sim ([`crate::clip`]).
//!
//! Features are classical acoustic statistics computed with tensor
//! kernels: RMS energy, zero-crossing rate, band energies from a small
//! Goertzel-style resonator bank, click duty cycle, crest factor and DC
//! ratio. The keyword rules map queries onto acoustic classes; the
//! calibration, posterior and UDF are the shared [`ExemplarSim`] /
//! [`crate::TextSimilarityUdf`], so the same multimodal SQL queries run over
//! audio columns.

use tdp_data::audio::{render_clip, AudioClass, CLIP_LEN, SAMPLE_RATE};
use tdp_tensor::{math, F32Tensor, Tensor};

use crate::exemplar::Extent::Exactly;
use crate::exemplar::{ExemplarSim, Modality};
use AudioClass::{Chirp, Clicks, Noise, ToneHigh, ToneLow};

/// Center frequencies of the resonator bank (Hz).
const BANDS: [f32; 5] = [220.0, 500.0, 1200.0, 2000.0, 3000.0];

/// Extract the feature vector of one `[CLIP_LEN]` waveform.
pub fn audio_features(wave: &F32Tensor) -> F32Tensor {
    assert_eq!(wave.ndim(), 1, "expected a 1-d waveform");
    let n = wave.numel();
    let data = wave.data();

    // RMS energy.
    let rms = (wave.mul(wave).mean()).sqrt() as f32;

    // Zero-crossing rate.
    let zc = data
        .windows(2)
        .filter(|p| (p[0] >= 0.0) != (p[1] >= 0.0))
        .count() as f32
        / n as f32;

    // Goertzel band energies (normalised by total energy).
    let total: f32 = data.iter().map(|v| v * v).sum::<f32>().max(1e-9);
    let mut bands = [0.0f32; 5];
    for (b, &freq) in BANDS.iter().enumerate() {
        let w = std::f32::consts::TAU * freq / SAMPLE_RATE as f32;
        let coef = 2.0 * w.cos();
        let (mut s1, mut s2) = (0.0f32, 0.0f32);
        for &x in data {
            let s0 = x + coef * s1 - s2;
            s2 = s1;
            s1 = s0;
        }
        let power = s1 * s1 + s2 * s2 - coef * s1 * s2;
        // Log-compressed: raw band energies span many orders of magnitude
        // across classes, which would let a single band dominate the
        // standardised embedding distance.
        bands[b] = math::log10((power / (n as f32 * total)).clamp(1e-20, 10.0));
    }

    // Duty cycle: fraction of near-silent samples (clicks are sparse).
    let silent = data.iter().filter(|v| v.abs() < 1e-4).count() as f32 / n as f32;

    // Crest factor (peak / rms): ~1.4 for tones, ~3 for noise, huge for
    // impulsive click trains. DC ratio (mean / rms): ~0 for zero-mean
    // signals, ~duty-normalised for one-sided clicks.
    let peak = data.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let crest = (peak / rms.max(1e-6)).min(50.0);
    let dc_ratio = (wave.mean() as f32 / rms.max(1e-6)).clamp(-5.0, 5.0);

    Tensor::from_vec(
        vec![
            rms, zc, bands[0], bands[1], bands[2], bands[3], bands[4], silent, crest, dc_ratio,
        ],
        &[AUDIO.num_features],
    )
}

/// The audio modality: `[CLIP_LEN]` waveforms.
pub(crate) static AUDIO: Modality<AudioClass> = Modality {
    udf_name: "audio_text_similarity",
    classes: &AudioClass::ALL,
    rules: &[
        (&["low"], &[ToneLow]),
        (&["high"], &[ToneHigh]),
        (&["tone", "note"], &[ToneLow, ToneHigh]),
        (&["chirp", "sweep", "siren"], &[Chirp]),
        (&["noise", "static", "hiss"], &[Noise]),
        (&["click", "tick", "beat"], &[Clicks]),
    ],
    features: audio_features,
    num_features: 10,
    item: &[Exactly(CLIP_LEN)],
};

/// The joint text/audio model, calibrated against the clip generator
/// ("pretrained") on `samples_per_class` clips per class.
pub fn pretrained(samples_per_class: usize, seed: u64) -> ExemplarSim {
    ExemplarSim::calibrate(&AUDIO, samples_per_class, seed, render_clip)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_data::audio::generate_audio;
    use tdp_tensor::Rng64;

    #[test]
    fn features_separate_classes() {
        let mut rng = Rng64::new(1);
        let low = audio_features(&render_clip(AudioClass::ToneLow, &mut rng));
        let high = audio_features(&render_clip(AudioClass::ToneHigh, &mut rng));
        // Band energies concentrate at the right resonator.
        assert!(low.at(2) > low.at(4), "low tone favours the 220 Hz band");
        assert!(
            high.at(4) > high.at(2),
            "high tone favours the 1200 Hz band"
        );
    }

    #[test]
    fn posterior_identifies_every_class() {
        let model = pretrained(6, 11);
        let mut rng = Rng64::new(33);
        for &c in &AudioClass::ALL {
            let clip = render_clip(c, &mut rng);
            let post = model.posterior(&clip);
            let argmax = post
                .data()
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(
                argmax as i64,
                c.id(),
                "{c:?}: posterior {:?}",
                post.to_vec()
            );
        }
    }

    #[test]
    fn similarity_scores_rank_matching_clips_first() {
        let model = pretrained(6, 12);
        let mut rng = Rng64::new(44);
        let ds = generate_audio(20, &mut rng);
        let scores = model.similarity_batch("chirp", &ds.clips);
        // Every chirp clip must outscore every non-chirp clip.
        let chirp_min = ds
            .classes
            .iter()
            .zip(scores.data())
            .filter(|(c, _)| **c == AudioClass::Chirp)
            .map(|(_, &s)| s)
            .fold(f32::INFINITY, f32::min);
        let other_max = ds
            .classes
            .iter()
            .zip(scores.data())
            .filter(|(c, _)| **c != AudioClass::Chirp)
            .map(|(_, &s)| s)
            .fold(f32::NEG_INFINITY, f32::max);
        assert!(
            chirp_min > other_max,
            "chirps {chirp_min} must outscore others {other_max}"
        );
    }

    #[test]
    fn unknown_queries_score_zero() {
        let model = pretrained(4, 13);
        let mut rng = Rng64::new(5);
        let clip = render_clip(AudioClass::Noise, &mut rng);
        assert_eq!(model.similarity("violin concerto", &clip), 0.0);
    }
}
