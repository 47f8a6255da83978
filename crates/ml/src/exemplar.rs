//! The exemplar model behind every `*_text_similarity` UDF: one
//! calibration, one posterior and one scalar UDF for images, audio and
//! video, each described by a `Modality` — its feature extractor, its
//! class list, its keyword rules, its UDF name and the item shape that
//! UDF accepts.
//!
//! Calibration ("pretraining") renders `per_class` items of every class
//! with the modality's `tdp_data` generator and standardises their
//! feature vectors by the corpus mean µ and standard deviation σ; the
//! standardised vectors are the class exemplars. An item's class
//! posterior is the softmax over classes of −β · the squared distance
//! from its standardised features to the class's *nearest* exemplar
//! (classes like logos are multimodal, so a single mean prototype would
//! blur them). A text query names classes through the modality's keyword
//! rules (the "text encoder"), and its similarity to an item is the
//! posterior mass on those classes — a calibrated score in `[0, 1]`
//! where the paper's `> 0.8` filters behave as intended. A query that
//! names no class scores 0, like an out-of-distribution CLIP query.

use tdp_encoding::EncodedTensor;
use tdp_exec::{ArgType, ArgValue, ExecContext, ExecError, FunctionSpec, ScalarUdf, Volatility};
use tdp_tensor::{F32Tensor, Rng64, Tensor};

/// Posterior sharpness β.
const BETA: f32 = 2.0;

/// One dimension of the item shape a modality's UDF accepts.
#[derive(Debug)]
pub(crate) enum Extent {
    Exactly(usize),
    AtLeast(usize),
}

/// What one modality contributes to the shared exemplar model. `C` is
/// its class type.
pub(crate) struct Modality<C: 'static> {
    /// SQL name of the modality's text-similarity UDF.
    pub udf_name: &'static str,
    /// Every class, in class-id order: a posterior's `i`-th entry is the
    /// mass on `classes[i]`.
    pub classes: &'static [C],
    /// The text encoder: the first rule with a keyword in the lower-cased
    /// query names the query's classes.
    pub rules: &'static [(&'static [&'static str], &'static [C])],
    /// The feature extractor: the feature vector of one item of shape
    /// `item`, `[num_features]` wide.
    pub features: fn(&F32Tensor) -> F32Tensor,
    pub num_features: usize,
    /// Shape of one item: one row of the UDF's column.
    pub item: &'static [Extent],
}

/// A modality's calibrated joint text/item model.
#[derive(Debug, Clone)]
pub struct ExemplarSim {
    udf_name: &'static str,
    item: &'static [Extent],
    features: fn(&F32Tensor) -> F32Tensor,
    /// The modality's rules, classes as class ids.
    rules: Vec<(&'static [&'static str], Vec<usize>)>,
    /// Per-feature mean / std across the calibration corpus.
    mu: F32Tensor,
    sigma: F32Tensor,
    /// Standardised exemplars `[num_classes * per_class, num_features]`,
    /// grouped by class in class-id order.
    exemplars: F32Tensor,
    per_class: usize,
}

impl ExemplarSim {
    /// Calibrate `modality` against `render`, which draws one item of a
    /// class: `per_class` items per class, drawn class by class from one
    /// generator seeded with `seed`.
    pub(crate) fn calibrate<C: Copy + PartialEq>(
        modality: &Modality<C>,
        per_class: usize,
        seed: u64,
        mut render: impl FnMut(C, &mut Rng64) -> F32Tensor,
    ) -> ExemplarSim {
        let classes = modality.classes;
        let mut rng = Rng64::new(seed);
        let mut feats: Vec<F32Tensor> = Vec::new();
        for &c in classes {
            for _ in 0..per_class {
                feats.push((modality.features)(&render(c, &mut rng)));
            }
        }
        let all = tdp_tensor::index::stack(&feats.iter().collect::<Vec<_>>());
        let mu = all.mean_dim(0, false);
        let centered = all.sub(&mu);
        let sigma = centered
            .mul(&centered)
            .mean_dim(0, false)
            .sqrt()
            .add_scalar(1e-6);
        let exemplars = all.sub(&mu).div(&sigma);
        // A rule's classes as class ids: their positions in `classes`.
        let id = |c: &C| classes.iter().position(|k| k == c).expect("in classes");
        let rules = modality.rules.iter();
        ExemplarSim {
            udf_name: modality.udf_name,
            item: modality.item,
            features: modality.features,
            rules: rules
                .map(|&(keys, cs)| (keys, cs.iter().map(id).collect()))
                .collect(),
            mu,
            sigma,
            exemplars,
            per_class,
        }
    }

    /// Standardised `[num_features]` features of one item.
    fn embed(&self, item: &F32Tensor) -> F32Tensor {
        (self.features)(item).sub(&self.mu).div(&self.sigma)
    }

    /// Class posterior `[num_classes]` of one item:
    /// softmax over classes of −β · min_exemplar ||f − e||².
    pub fn posterior(&self, item: &F32Tensor) -> F32Tensor {
        let f = self.embed(item);
        let k = self.exemplars.rows() / self.per_class;
        let diff = self.exemplars.sub(&f.reshape(&[1, self.mu.numel()]));
        let d2 = diff.mul(&diff).sum_dim(1, false); // [k * per_class]
        let min_d2 = d2
            .reshape(&[k, self.per_class])
            .min_dim(1, false)
            .mul_scalar(-BETA);
        min_d2.reshape(&[1, k]).softmax(1).reshape(&[k])
    }

    /// Class ids named by a text query (the "text encoder"); none for a
    /// query no rule matches.
    pub fn text_classes(&self, query: &str) -> &[usize] {
        let q = query.to_ascii_lowercase();
        self.rules
            .iter()
            .find(|(keywords, _)| keywords.iter().any(|k| q.contains(k)))
            .map_or(&[], |(_, ids)| ids)
    }

    /// Similarity of a text query and one item: posterior mass on the
    /// query's classes. Calibrated to `[0, 1]`.
    pub fn similarity(&self, query: &str, item: &F32Tensor) -> f32 {
        let classes = self.text_classes(query);
        if classes.is_empty() {
            return 0.0;
        }
        let post = self.posterior(item);
        classes.iter().map(|&c| post.at(c)).sum()
    }

    /// Similarity scores `[n]` of a column of `n` items, on its device.
    /// Work is per item (feature extraction over every sample), so an
    /// accelerator splits across items however few there are. Panics on
    /// a column [`TextSimilarityUdf`] would reject.
    pub fn similarity_batch(&self, query: &str, items: &F32Tensor) -> F32Tensor {
        let n = items.rows();
        let mut out = vec![0.0f32; n];
        items.device().fill_rows(&mut out, n, 1, |i, score| {
            score[0] = self.similarity(query, &items.row(i));
        });
        Tensor::from_vec(out, &[n]).to(items.device())
    }

    /// Standardised features `[n, num_features]` of a column of `n`
    /// items, one row per item, on its device: vector-index input for
    /// search in this modality. Panics like
    /// [`ExemplarSim::similarity_batch`].
    pub fn embed_batch(&self, items: &F32Tensor) -> F32Tensor {
        let (n, width) = (items.rows(), self.mu.numel());
        let mut out = vec![0.0f32; n * width];
        items.device().fill_rows(&mut out, n, 1, |i, row| {
            row.copy_from_slice(self.embed(&items.row(i)).data());
        });
        Tensor::from_vec(out, &[n, width]).to(items.device())
    }

    /// `Ok` when `shape` is a column of `item`-shaped items; otherwise a
    /// `TypeMismatch` naming the UDF and the item shape.
    fn check_column(&self, shape: &[usize]) -> Result<(), ExecError> {
        let item = shape.get(1..).unwrap_or_default();
        let fits = |(&d, e): (&usize, &Extent)| match *e {
            Extent::Exactly(x) => d == x,
            Extent::AtLeast(x) => d >= x,
        };
        if item.len() == self.item.len() && item.iter().zip(self.item).all(fits) {
            return Ok(());
        }
        Err(ExecError::TypeMismatch(format!(
            "{}(query, items) takes a column of {:?} items, got shape {shape:?}",
            self.udf_name, self.item
        )))
    }
}

/// `udf_name(query, items)`: Listing 7's `image_text_similarity` and its
/// audio and video twins, scoring each item of a column against a text
/// query.
pub struct TextSimilarityUdf(ExemplarSim);

impl TextSimilarityUdf {
    pub fn new(model: ExemplarSim) -> TextSimilarityUdf {
        TextSimilarityUdf(model)
    }
}

impl ScalarUdf for TextSimilarityUdf {
    fn name(&self) -> &str {
        self.0.udf_name
    }

    /// Declared signature: `(query: string, items: column)`. Arity and
    /// argument types are checked at prepare time; the model is fixed
    /// after calibration (Immutable) and the UDF holds no session state,
    /// so — registered through
    /// [`tdp_exec::UdfRegistry::register_scalar_parallel`] — chains
    /// applying it run across the morsel worker pool.
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::scalar(self.name(), vec![ArgType::Str, ArgType::Column])
            .volatility(Volatility::Immutable)
            .parallel_safe(true)
    }

    /// The column's shape is checked before the query is read, so a bad
    /// column is an error even for a query that names no class.
    fn invoke(&self, args: &[ArgValue], _ctx: &ExecContext) -> Result<EncodedTensor, ExecError> {
        let [query, items] = args else {
            return Err(ExecError::TypeMismatch(format!(
                "{}(query, items) takes two arguments",
                self.name()
            )));
        };
        let items = items.as_column()?.decode_f32();
        self.0.check_column(items.shape())?;
        Ok(EncodedTensor::F32(
            self.0.similarity_batch(query.as_str()?, &items),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{audio, clip, video};
    use tdp_data::audio::CLIP_LEN;
    use tdp_data::video::{FRAMES, FRAME_H, FRAME_W};

    /// Invoke `udf` on a column of `shape`, once per query: "dog" names
    /// an image class only, "tone" an audio one, "motion" a video one and
    /// "submarine" none, so each UDF sees queries with and without a
    /// class.
    fn invoke_all(udf: &dyn ScalarUdf, shape: &[usize]) -> Vec<Result<EncodedTensor, ExecError>> {
        let catalog = tdp_storage::Catalog::new();
        let udfs = tdp_exec::UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs);
        let col = EncodedTensor::F32(Tensor::full(shape, 0.5));
        ["dog", "tone", "motion", "submarine"]
            .iter()
            .map(|q| {
                udf.invoke(
                    &[ArgValue::Str((*q).into()), ArgValue::Column(col.clone())],
                    &ctx,
                )
            })
            .collect()
    }

    #[test]
    fn every_udf_rejects_a_column_of_the_wrong_shape() {
        let image = TextSimilarityUdf::new(clip::pretrained(8, 8, 2, 1));
        let audio = TextSimilarityUdf::new(audio::pretrained(2, 1));
        let video = TextSimilarityUdf::new(video::pretrained(2, 1));
        let cases: [(&dyn ScalarUdf, &[usize], &str); 9] = [
            (&image, &[4], "[Exactly(3), AtLeast(2), AtLeast(2)]"),
            (
                &image,
                &[4, 1, 8, 8],
                "[Exactly(3), AtLeast(2), AtLeast(2)]",
            ),
            (
                &image,
                &[4, 3, 0, 0],
                "[Exactly(3), AtLeast(2), AtLeast(2)]",
            ),
            (
                &image,
                &[4, 3, 1, 8],
                "[Exactly(3), AtLeast(2), AtLeast(2)]",
            ),
            (&image, &[], "[Exactly(3), AtLeast(2), AtLeast(2)]"),
            (&audio, &[4, CLIP_LEN - 1], "[Exactly(2000)]"),
            (&audio, &[4], "[Exactly(2000)]"),
            (
                &video,
                &[4, 2, 2, 2],
                "[Exactly(8), Exactly(16), Exactly(16)]",
            ),
            (
                &video,
                &[4, FRAMES, FRAME_H, FRAME_W + 1],
                "[Exactly(8), Exactly(16), Exactly(16)]",
            ),
        ];
        for (udf, shape, expected) in cases {
            for result in invoke_all(udf, shape) {
                let Err(ExecError::TypeMismatch(msg)) = result else {
                    panic!("{} on {shape:?}: {result:?}", udf.name());
                };
                assert!(msg.contains(udf.name()) && msg.contains(expected), "{msg}");
            }
        }
        // The shapes just inside each bound are scored.
        let fine: [(&dyn ScalarUdf, &[usize]); 4] = [
            (&image, &[4, 3, 2, 2]),
            (&image, &[0, 3, 8, 8]),
            (&audio, &[4, CLIP_LEN]),
            (&video, &[4, FRAMES, FRAME_H, FRAME_W]),
        ];
        for (udf, shape) in fine {
            for result in invoke_all(udf, shape) {
                assert_eq!(
                    result.unwrap().rows(),
                    shape[0],
                    "{} on {shape:?}",
                    udf.name()
                );
            }
        }
        // A wrong arity is typed too.
        let catalog = tdp_storage::Catalog::new();
        let udfs = tdp_exec::UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs);
        assert!(matches!(
            video.invoke(&[ArgValue::Str("x".into())], &ctx),
            Err(ExecError::TypeMismatch(_))
        ));
    }

    #[test]
    fn embed_batch_is_the_standardised_features_of_each_item() {
        let model = audio::pretrained(2, 3);
        let mut rng = Rng64::new(4);
        let ds = tdp_data::audio::generate_audio(5, &mut rng);
        let embeds = model.embed_batch(&ds.clips);
        assert_eq!(embeds.shape(), &[5, audio::AUDIO.num_features]);
        for i in 0..5 {
            assert_eq!(embeds.row(i).data(), model.embed(&ds.clips.row(i)).data());
        }
    }
}
