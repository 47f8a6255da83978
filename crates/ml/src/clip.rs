//! CLIP-sim: a deterministic joint text/image similarity model.
//!
//! Substitution for OpenAI CLIP (paper §5.1, Listing 7). The real system
//! embeds text and images into a shared space learned from 400M pairs; the
//! experiments only require that (a) a text query and the images matching
//! it score above a threshold while others score below, and (b) the image
//! side costs per-image tensor compute so CPU/accelerator comparisons are
//! meaningful.
//!
//! CLIP-sim achieves this with a classic recipe: a hand-rolled feature
//! extractor (channel statistics, texture anisotropy, saturation, band
//! colour, central contrast — all tensor kernels) plugged into the shared
//! [`ExemplarSim`] model, whose exemplars are *calibrated* once against
//! the generator (playing the role of pretraining). The similarity of a
//! text query and an image is the posterior mass the image assigns to the
//! classes named by the query.

use tdp_data::attachments::{render_attachment, AttachmentClass};
use tdp_tensor::{F32Tensor, Tensor};

use crate::exemplar::Extent::{AtLeast, Exactly};
use crate::exemplar::{ExemplarSim, Modality};
use AttachmentClass::{KfcReceipt, Logo, PhotoCat, PhotoDog, PhotoLandscape, Receipt};

/// Extract the CLIP-sim feature vector of one `[3, h, w]` image.
/// Pure tensor kernels; cost is linear in the pixel count.
pub fn image_features(img: &F32Tensor) -> F32Tensor {
    assert_eq!(img.ndim(), 3, "expected [3, h, w]");
    let (c, h, w) = (img.shape()[0], img.shape()[1], img.shape()[2]);
    assert_eq!(c, 3, "expected RGB");
    let r = img.narrow(0, 0, 1).reshape(&[h, w]);
    let g = img.narrow(0, 1, 1).reshape(&[h, w]);
    let b = img.narrow(0, 2, 1).reshape(&[h, w]);
    let gray = r.add(&g).add(&b).mul_scalar(1.0 / 3.0);

    let mean_r = r.mean() as f32;
    let mean_g = g.mean() as f32;
    let mean_b = b.mean() as f32;
    let brightness = gray.mean() as f32;

    // Contrast: std of the gray plane.
    let centered = gray.sub_scalar(brightness);
    let contrast = (centered.mul(&centered).mean()).sqrt() as f32;

    // Texture anisotropy: horizontal text lines make row-to-row differences
    // much larger than column-to-column ones.
    let row_diff = gray
        .narrow(0, 1, h - 1)
        .sub(&gray.narrow(0, 0, h - 1))
        .abs()
        .mean();
    let col_diff = gray
        .narrow(1, 1, w - 1)
        .sub(&gray.narrow(1, 0, w - 1))
        .abs()
        .mean();
    let anisotropy = (row_diff / (row_diff + col_diff + 1e-9)) as f32;

    // Saturation: mean channel spread.
    let maxc = r.maximum(&g).maximum(&b);
    let minc = r.minimum(&g).minimum(&b);
    let saturation = maxc.sub(&minc).mean() as f32;

    // Top-band redness (brand bands, skies).
    let band = h / 6;
    let top_red =
        r.narrow(0, 0, band.max(1)).mean() as f32 - g.narrow(0, 0, band.max(1)).mean() as f32;

    // Central contrast (logo discs): |centre mean − border mean|.
    let ch = h / 3;
    let cw = w / 3;
    let centre = gray
        .narrow(0, ch, ch.max(1))
        .narrow(1, cw, cw.max(1))
        .mean() as f32;
    let central_contrast = (centre - brightness).abs();

    Tensor::from_vec(
        vec![
            mean_r,
            mean_g,
            mean_b,
            brightness,
            contrast,
            anisotropy,
            saturation,
            top_red,
            central_contrast,
        ],
        &[IMAGE.num_features],
    )
}

/// The image modality: `[3, h, w]` RGB attachments. The features
/// difference neighbouring rows and columns, so an image needs at least
/// two of each.
pub(crate) static IMAGE: Modality<AttachmentClass> = Modality {
    udf_name: "image_text_similarity",
    classes: &AttachmentClass::ALL,
    rules: &[
        (&["kfc"], &[KfcReceipt]),
        (&["receipt"], &[Receipt, KfcReceipt]),
        (&["dog"], &[PhotoDog]),
        (&["cat"], &[PhotoCat]),
        (&["landscape", "scenery"], &[PhotoLandscape]),
        (&["photo", "picture"], &[PhotoDog, PhotoCat, PhotoLandscape]),
        (&["logo", "brand"], &[Logo]),
    ],
    features: image_features,
    num_features: 9,
    item: &[Exactly(3), AtLeast(2), AtLeast(2)],
};

/// CLIP-sim: the joint text/image model, calibrated against the
/// attachment generator ("pretrained") on `samples_per_class` images per
/// class at `h × w`.
pub fn pretrained(h: usize, w: usize, samples_per_class: usize, seed: u64) -> ExemplarSim {
    ExemplarSim::calibrate(&IMAGE, samples_per_class, seed, |c, rng| {
        render_attachment(c, h, w, rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_encoding::EncodedTensor;
    use tdp_exec::{ArgValue, ExecContext, ScalarUdf};
    use tdp_tensor::{Device, Rng64};

    fn model() -> ExemplarSim {
        pretrained(32, 48, 6, 42)
    }

    #[test]
    fn matching_classes_score_high_others_low() {
        let m = model();
        let mut rng = Rng64::new(7);
        for &c in &AttachmentClass::ALL {
            let img = render_attachment(c, 32, 48, &mut rng);
            let own = m.similarity(c.label(), &img);
            assert!(own > 0.8, "{c:?} scores {own} for its own label");
        }
        // Cross-class: a logo must not look like a receipt.
        let logo = render_attachment(AttachmentClass::Logo, 32, 48, &mut rng);
        assert!(m.similarity("receipt", &logo) < 0.5);
        let dog = render_attachment(AttachmentClass::PhotoDog, 32, 48, &mut rng);
        assert!(m.similarity("logo", &dog) < 0.5);
    }

    #[test]
    fn receipt_supergroup_includes_kfc() {
        let m = model();
        let mut rng = Rng64::new(8);
        let kfc = render_attachment(AttachmentClass::KfcReceipt, 32, 48, &mut rng);
        assert!(m.similarity("receipt", &kfc) > 0.8);
        // And the branded query prefers the branded receipt.
        let plain = render_attachment(AttachmentClass::Receipt, 32, 48, &mut rng);
        assert!(m.similarity("KFC Receipt", &kfc) > m.similarity("KFC Receipt", &plain));
    }

    #[test]
    fn unknown_queries_score_zero() {
        let m = model();
        let mut rng = Rng64::new(9);
        let img = render_attachment(AttachmentClass::Logo, 32, 48, &mut rng);
        assert_eq!(m.similarity("submarine", &img), 0.0);
    }

    #[test]
    fn posterior_is_a_distribution() {
        let m = model();
        let mut rng = Rng64::new(10);
        let img = render_attachment(AttachmentClass::Receipt, 32, 48, &mut rng);
        let p = m.posterior(&img);
        assert_eq!(p.numel(), AttachmentClass::ALL.len());
        assert!((p.sum() - 1.0).abs() < 1e-5);
        assert!(p.min_all() >= 0.0);
    }

    #[test]
    fn batch_scores_match_single_scores() {
        let m = model();
        let mut rng = Rng64::new(11);
        let a = render_attachment(AttachmentClass::Logo, 32, 48, &mut rng);
        let b = render_attachment(AttachmentClass::Receipt, 32, 48, &mut rng);
        let batch = tdp_tensor::index::stack(&[&a, &b]);
        let scores = m.similarity_batch("logo", &batch);
        assert!((scores.at(0) - m.similarity("logo", &a)).abs() < 1e-6);
        assert!((scores.at(1) - m.similarity("logo", &b)).abs() < 1e-6);
    }

    /// CPU and `Accel(3)` scores of one column, bit for bit.
    fn assert_device_invariant(m: &ExemplarSim, query: &str, items: &[F32Tensor]) {
        let batch = tdp_tensor::index::stack(&items.iter().collect::<Vec<_>>());
        let bits = |t: &F32Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let cpu = m.similarity_batch(query, &batch);
        let acc = m.similarity_batch(query, &batch.to(Device::Accel(3)));
        assert!(items.len() > 3 && acc.device().is_accel(), "{}", "{query}");
        assert_eq!(bits(&cpu), bits(&acc), "{query}");
    }

    #[test]
    fn batch_scores_do_not_depend_on_the_device() {
        use tdp_data::audio::{render_clip, AudioClass};
        use tdp_data::video::{render_video, VideoClass};
        let mut rng = Rng64::new(12);
        let imgs: Vec<F32Tensor> = AttachmentClass::ALL
            .iter()
            .map(|&c| render_attachment(c, 32, 48, &mut rng))
            .collect();
        assert_device_invariant(&model(), "photo", &imgs);
        let clips: Vec<F32Tensor> = AudioClass::ALL
            .iter()
            .map(|&c| render_clip(c, &mut rng))
            .collect();
        assert_device_invariant(&crate::audio::pretrained(4, 13), "tone", &clips);
        let videos: Vec<F32Tensor> = VideoClass::ALL
            .iter()
            .map(|&c| render_video(c, &mut rng))
            .collect();
        assert_device_invariant(&crate::video::pretrained(4, 14), "motion", &videos);
    }

    #[test]
    fn udf_surface() {
        let m = model();
        let udf = crate::TextSimilarityUdf::new(m);
        assert_eq!(udf.name(), "image_text_similarity");
        let catalog = tdp_storage::Catalog::new();
        let udfs = tdp_exec::UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs);
        let mut rng = Rng64::new(12);
        let img = render_attachment(AttachmentClass::Logo, 32, 48, &mut rng);
        let batch = tdp_tensor::index::stack(&[&img]);
        let out = udf
            .invoke(
                &[
                    ArgValue::Str("logo".into()),
                    ArgValue::Column(EncodedTensor::F32(batch)),
                ],
                &ctx,
            )
            .unwrap();
        assert!(out.decode_f32().at(0) > 0.8);
        // Wrong arity / types error cleanly.
        assert!(udf.invoke(&[ArgValue::Str("x".into())], &ctx).is_err());
    }
}
