//! Temporal feature extraction and text↔video matching,
//! completing the modality set (table / image / audio / video).
//!
//! Features capture *motion*, which pixels of any single frame cannot:
//! temporal-difference energy, the direction of the brightness centroid's
//! drift, and global-brightness oscillation. As with images and audio,
//! keyword rules plus the shared [`ExemplarSim`] posterior give
//! calibrated similarity scores usable in SQL filters and top-k searches.

use tdp_data::video::{render_video, VideoClass, FRAMES, FRAME_H, FRAME_W};
use tdp_tensor::{F32Tensor, Tensor};

use crate::exemplar::Extent::Exactly;
use crate::exemplar::{ExemplarSim, Modality};
use VideoClass::{Flicker, PanLeft, PanRight, Static};

/// Extract the feature vector of one `[FRAMES, H, W]` clip.
pub fn video_features(clip: &F32Tensor) -> F32Tensor {
    assert_eq!(
        clip.shape(),
        &[FRAMES, FRAME_H, FRAME_W],
        "expected a [{FRAMES}, {FRAME_H}, {FRAME_W}] clip"
    );

    // Temporal difference energy: mean |frame_{t+1} − frame_t|.
    let head = clip.narrow(0, 0, FRAMES - 1);
    let tail = clip.narrow(0, 1, FRAMES - 1);
    let diff = tail.sub(&head);
    let motion = diff.abs().mean() as f32;

    // Brightness-centroid drift: x/y displacement of the bright mass
    // between the first and last frame.
    let centroid = |f: usize| {
        let frame = clip.narrow(0, f, 1).reshape(&[FRAME_H, FRAME_W]);
        let (mut nx, mut ny, mut den) = (0.0f64, 0.0f64, 0.0f64);
        for y in 0..FRAME_H {
            for x in 0..FRAME_W {
                let v = (frame.get(&[y, x]) as f64).powi(4); // weight bright pixels
                nx += x as f64 * v;
                ny += y as f64 * v;
                den += v;
            }
        }
        (nx / den.max(1e-9), ny / den.max(1e-9))
    };
    let (x0, y0) = centroid(0);
    let (x1, y1) = centroid(FRAMES - 1);
    let drift_x = ((x1 - x0) / FRAME_W as f64) as f32;
    let drift_y = ((y1 - y0) / FRAME_H as f64) as f32;

    // Global brightness oscillation: std of per-frame means.
    let frame_means: Vec<f64> = (0..FRAMES).map(|f| clip.narrow(0, f, 1).mean()).collect();
    let mean_of_means = frame_means.iter().sum::<f64>() / FRAMES as f64;
    let flicker = (frame_means
        .iter()
        .map(|m| (m - mean_of_means).powi(2))
        .sum::<f64>()
        / FRAMES as f64)
        .sqrt() as f32;

    // Spatial detail (first frame) and overall brightness.
    let first = clip.narrow(0, 0, 1);
    let fm = first.mean() as f32;
    let centered = first.sub_scalar(fm);
    let spatial = (centered.mul(&centered).mean()).sqrt() as f32;

    Tensor::from_vec(
        vec![motion, drift_x, drift_y, flicker, spatial, fm],
        &[VIDEO.num_features],
    )
}

/// The video modality: `[FRAMES, FRAME_H, FRAME_W]` clips.
pub(crate) static VIDEO: Modality<VideoClass> = Modality {
    udf_name: "video_text_similarity",
    classes: &VideoClass::ALL,
    rules: &[
        (&["right"], &[PanRight]),
        (&["left"], &[PanLeft]),
        (&["moving", "motion", "pan"], &[PanRight, PanLeft]),
        (&["flicker", "flash", "strobe"], &[Flicker]),
        (&["static", "still"], &[Static]),
    ],
    features: video_features,
    num_features: 6,
    item: &[Exactly(FRAMES), Exactly(FRAME_H), Exactly(FRAME_W)],
};

/// The joint text/video model, calibrated against the clip generator
/// ("pretrained") on `samples_per_class` clips per class.
pub fn pretrained(samples_per_class: usize, seed: u64) -> ExemplarSim {
    ExemplarSim::calibrate(&VIDEO, samples_per_class, seed, render_video)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_data::video::generate_video;
    use tdp_tensor::Rng64;

    #[test]
    fn features_capture_motion_direction_and_flicker() {
        let mut rng = Rng64::new(2);
        let right = video_features(&render_video(VideoClass::PanRight, &mut rng));
        let left = video_features(&render_video(VideoClass::PanLeft, &mut rng));
        let still = video_features(&render_video(VideoClass::Static, &mut rng));
        let flicker = video_features(&render_video(VideoClass::Flicker, &mut rng));
        assert!(right.at(1) > 0.2, "rightward drift: {:?}", right.to_vec());
        assert!(left.at(1) < -0.2, "leftward drift: {:?}", left.to_vec());
        assert!(still.at(0) < 1e-6, "no temporal energy when static");
        assert!(
            flicker.at(3) > still.at(3) + 0.05,
            "flicker has brightness swing"
        );
    }

    #[test]
    fn posterior_identifies_every_class() {
        let model = pretrained(6, 19);
        let mut rng = Rng64::new(77);
        for &c in &VideoClass::ALL {
            let clip = render_video(c, &mut rng);
            let post = model.posterior(&clip);
            let argmax = post
                .data()
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            assert_eq!(argmax as i64, c.id(), "{c:?}: {:?}", post.to_vec());
        }
    }

    #[test]
    fn directional_queries_separate_pans() {
        let model = pretrained(6, 20);
        let mut rng = Rng64::new(3);
        let ds = generate_video(16, &mut rng);
        let right_scores = model.similarity_batch("object moving right", &ds.clips);
        for (c, &s) in ds.classes.iter().zip(right_scores.data()) {
            if *c == VideoClass::PanRight {
                assert!(s > 0.8, "{c:?} scored {s}");
            } else {
                assert!(s < 0.2, "{c:?} scored {s}");
            }
        }
        // The umbrella query matches both pan directions.
        let motion_scores = model.similarity_batch("motion", &ds.clips);
        for (c, &s) in ds.classes.iter().zip(motion_scores.data()) {
            let moving = matches!(c, VideoClass::PanLeft | VideoClass::PanRight);
            assert_eq!(s > 0.5, moving, "{c:?} scored {s}");
        }
    }
}
