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
//! colour, central contrast — all tensor kernels), feature standardisation,
//! and class prototypes *calibrated* once against the generator (playing
//! the role of pretraining). The similarity of a text query and an image
//! is the posterior mass the image assigns to the classes named by the
//! query — a calibrated score in `[0, 1]` where the paper's `> 0.8`
//! filters behave as intended.

use tdp_data::attachments::{render_attachment, AttachmentClass};
use tdp_encoding::EncodedTensor;
use tdp_exec::{ArgType, ArgValue, ExecContext, ExecError, FunctionSpec, ScalarUdf, Volatility};
use tdp_tensor::{F32Tensor, Rng64, Tensor};

/// Number of scalar features extracted per image.
pub const NUM_FEATURES: usize = 9;

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
        &[NUM_FEATURES],
    )
}

/// The calibrated joint model.
#[derive(Debug, Clone)]
pub struct ClipSim {
    /// Per-feature mean/std across the calibration corpus.
    mu: F32Tensor,
    sigma: F32Tensor,
    /// Standardised class exemplars `[num_classes * per_class, NUM_FEATURES]`.
    /// Classes like logos are multimodal (palette choices), so the posterior
    /// uses the distance to the *nearest* exemplar of each class rather than
    /// a single mean prototype.
    exemplars: F32Tensor,
    per_class: usize,
    /// Posterior sharpness.
    beta: f32,
}

impl ClipSim {
    /// Calibrate prototypes against the attachment generator ("pretrain").
    /// `samples_per_class` images per class at the given resolution.
    pub fn pretrained(h: usize, w: usize, samples_per_class: usize, seed: u64) -> ClipSim {
        let mut rng = Rng64::new(seed);
        let classes = AttachmentClass::ALL;
        let mut feats: Vec<F32Tensor> = Vec::new();
        for &c in &classes {
            for _ in 0..samples_per_class {
                feats.push(image_features(&render_attachment(c, h, w, &mut rng)));
            }
        }
        let all = {
            let refs: Vec<&F32Tensor> = feats.iter().collect();
            tdp_tensor::index::stack(&refs)
        };
        let mu = all.mean_dim(0, false);
        let centered = all.sub(&mu);
        let sigma = centered
            .mul(&centered)
            .mean_dim(0, false)
            .sqrt()
            .add_scalar(1e-6);

        // Standardised exemplars, grouped by class.
        let exemplars = all.sub(&mu).div(&sigma);
        ClipSim {
            mu,
            sigma,
            exemplars,
            per_class: samples_per_class,
            beta: 2.0,
        }
    }

    /// Class posterior of one image:
    /// softmax over classes of −β · min_exemplar ||f − e||².
    pub fn posterior(&self, img: &F32Tensor) -> F32Tensor {
        let f = image_features(img).sub(&self.mu).div(&self.sigma);
        let k = AttachmentClass::ALL.len();
        let diff = self.exemplars.sub(&f.reshape(&[1, NUM_FEATURES]));
        let d2 = diff.mul(&diff).sum_dim(1, false); // [k * per_class]
        let min_d2 = d2
            .reshape(&[k, self.per_class])
            .min_dim(1, false)
            .mul_scalar(-self.beta);
        min_d2.reshape(&[1, k]).softmax(1).reshape(&[k])
    }

    /// Classes named by a text query (the "text encoder"). Unknown words
    /// match nothing (scores ~0), like an out-of-distribution CLIP query.
    pub fn text_classes(query: &str) -> Vec<AttachmentClass> {
        let q = query.to_ascii_lowercase();
        if q.contains("kfc") {
            return vec![AttachmentClass::KfcReceipt];
        }
        if q.contains("receipt") {
            return vec![AttachmentClass::Receipt, AttachmentClass::KfcReceipt];
        }
        if q.contains("dog") {
            return vec![AttachmentClass::PhotoDog];
        }
        if q.contains("cat") {
            return vec![AttachmentClass::PhotoCat];
        }
        if q.contains("landscape") || q.contains("scenery") {
            return vec![AttachmentClass::PhotoLandscape];
        }
        if q.contains("photo") || q.contains("picture") {
            return vec![
                AttachmentClass::PhotoDog,
                AttachmentClass::PhotoCat,
                AttachmentClass::PhotoLandscape,
            ];
        }
        if q.contains("logo") || q.contains("brand") {
            return vec![AttachmentClass::Logo];
        }
        Vec::new()
    }

    /// Similarity of a text query and one image: posterior mass on the
    /// query's classes. Calibrated to `[0, 1]`.
    pub fn similarity(&self, query: &str, img: &F32Tensor) -> f32 {
        let classes = Self::text_classes(query);
        if classes.is_empty() {
            return 0.0;
        }
        let post = self.posterior(img);
        classes.iter().map(|c| post.at(c.id() as usize)).sum()
    }

    /// Similarity scores for a whole `[n, 3, h, w]` image column. Work is
    /// per-image (feature extraction over every pixel), so the accelerator
    /// splits across images regardless of how few there are.
    pub fn similarity_batch(&self, query: &str, images: &F32Tensor) -> F32Tensor {
        assert_eq!(images.ndim(), 4, "expected [n, 3, h, w]");
        let n = images.rows();
        let mut out = vec![0.0f32; n];
        images.device().fill_rows(&mut out, n, 1, |i, score| {
            score[0] = self.similarity(query, &images.row(i));
        });
        Tensor::from_vec(out, &[n]).to(images.device())
    }
}

/// The `image_text_similarity(query, images)` scalar UDF of Listing 7.
pub struct ImageTextSimilarityUdf {
    model: ClipSim,
}

impl ImageTextSimilarityUdf {
    pub fn new(model: ClipSim) -> ImageTextSimilarityUdf {
        ImageTextSimilarityUdf { model }
    }
}

impl ScalarUdf for ImageTextSimilarityUdf {
    fn name(&self) -> &str {
        "image_text_similarity"
    }

    /// Declared signature: `(query: string, images: column)`. Arity and
    /// argument types are checked at prepare time; the model weights are
    /// fixed after pretraining (Immutable) and the UDF holds no session
    /// state, so — registered through
    /// [`tdp_exec::UdfRegistry::register_scalar_parallel`] — chains
    /// applying it run across the morsel worker pool.
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::scalar(self.name(), vec![ArgType::Str, ArgType::Column])
            .volatility(Volatility::Immutable)
            .parallel_safe(true)
    }

    fn invoke(&self, args: &[ArgValue], _ctx: &ExecContext) -> Result<EncodedTensor, ExecError> {
        if args.len() != 2 {
            return Err(ExecError::Udf(
                "image_text_similarity(query, images) takes two arguments".into(),
            ));
        }
        let query = args[0].as_str()?;
        let images = match args[1].as_column()? {
            EncodedTensor::F32(t) => t.clone(),
            other => {
                return Err(ExecError::TypeMismatch(format!(
                    "images argument must be a tensor column, got {:?}",
                    other.kind()
                )))
            }
        };
        Ok(EncodedTensor::F32(
            self.model.similarity_batch(query, &images),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ClipSim {
        ClipSim::pretrained(32, 48, 6, 42)
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

    #[test]
    fn batch_scores_do_not_depend_on_the_device() {
        let m = model();
        let mut rng = Rng64::new(12);
        let imgs: Vec<F32Tensor> = AttachmentClass::ALL
            .iter()
            .map(|&c| render_attachment(c, 32, 48, &mut rng))
            .collect();
        let batch = tdp_tensor::index::stack(&imgs.iter().collect::<Vec<_>>());
        let bits = |t: &F32Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let cpu = m.similarity_batch("photo", &batch);
        let acc = m.similarity_batch("photo", &batch.to(tdp_tensor::Device::Accel(3)));
        assert!(imgs.len() > 3 && acc.device().is_accel());
        assert_eq!(bits(&cpu), bits(&acc));
    }

    #[test]
    fn udf_surface() {
        let m = model();
        let udf = ImageTextSimilarityUdf::new(m);
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
