//! The `extract_table` OCR pipeline (paper §5.2).
//!
//! A two-stage pipeline of tensor kernels, mirroring the paper's "(1)
//! recognize where the table is in the image; and (2) OCR the image and
//! convert it into a plain tensor":
//!
//! 1. **Localisation** — cross-correlate the image with the solid anchor
//!    template and take the argmax peak as the table origin.
//! 2. **Recognition** — for every character slot of every cell, crop the
//!    glyph window and template-match it against the atlas (dot-product
//!    scoring); assemble the characters and parse the float.
//!
//! Both stages are deliberately real per-image compute: the OCR experiment
//! compares *lazy* conversion of one filtered image inside the query
//! against *bulk* conversion of the whole corpus before loading an
//! external database.

use tdp_data::documents::DocGeometry;
use tdp_data::font;
use tdp_encoding::EncodedTensor;
use tdp_exec::{
    ArgType, ArgValue, Batch, ExecContext, ExecError, FunctionSpec, TableFunction, Volatility,
};
use tdp_tensor::{F32Tensor, Tensor};

/// The OCR pipeline with its geometry priors and glyph templates.
pub struct ExtractTableTvf {
    geometry: DocGeometry,
    schema: Vec<String>,
    /// Glyph templates at document scale, one per atlas character.
    templates: Vec<(char, F32Tensor)>,
    anchor: F32Tensor,
}

impl ExtractTableTvf {
    pub fn new(geometry: DocGeometry, schema: Vec<String>) -> ExtractTableTvf {
        assert_eq!(
            schema.len(),
            geometry.cols,
            "one schema column per table column"
        );
        let templates = font::CHARSET
            .iter()
            .map(|&c| {
                (
                    c,
                    font::glyph_scaled(c, geometry.scale).expect("atlas glyph"),
                )
            })
            .collect();
        let anchor = F32Tensor::ones(&[geometry.anchor, geometry.anchor]);
        ExtractTableTvf {
            geometry,
            schema,
            templates,
            anchor,
        }
    }

    /// Locate the table origin (anchor top-left) in a `[h, w]` image.
    pub fn locate(&self, img: &F32Tensor) -> (usize, usize) {
        let score = img.correlate2d(&self.anchor);
        let best = score.argmax_flat();
        let w = score.shape()[1];
        (best / w, best % w)
    }

    /// Recognise the character in a glyph window.
    fn recognise(&self, window: &F32Tensor) -> char {
        let mut best = ' ';
        let mut best_score = f32::NEG_INFINITY;
        for (c, tpl) in &self.templates {
            // Match score: correlation with a mild ink-mass penalty so '.'
            // doesn't win on every sparse window.
            let score = window.mul(tpl).sum() - 0.35 * tpl.sum();
            if score > best_score {
                best_score = score;
                best = *c;
            }
        }
        best
    }

    /// Read one cell into a float.
    fn read_cell(&self, img: &F32Tensor, origin: (usize, usize), r: usize, c: usize) -> f32 {
        let g = self.geometry;
        let (cy, cx) = g.cell_origin(r, c);
        let (gh, gw) = (font::GLYPH_H * g.scale, font::GLYPH_W * g.scale);
        let mut text = String::with_capacity(g.cell_chars);
        for slot in 0..g.cell_chars {
            let top = origin.0 + cy;
            let left = origin.1 + cx + slot * g.char_advance();
            if top + gh > img.shape()[0] || left + gw > img.shape()[1] {
                return f32::NAN;
            }
            let window = img.narrow(0, top, gh).narrow(1, left, gw);
            text.push(self.recognise(&window));
        }
        text.parse().unwrap_or(f32::NAN)
    }

    /// Extract the full table of one `[h, w]` image.
    pub fn extract(&self, img: &F32Tensor) -> F32Tensor {
        let g = self.geometry;
        let origin = self.locate(img);
        let mut out = Vec::with_capacity(g.rows * g.cols);
        for r in 0..g.rows {
            for c in 0..g.cols {
                out.push(self.read_cell(img, origin, r, c));
            }
        }
        Tensor::from_vec(out, &[g.rows, g.cols])
    }

    /// Extract every image of a `[n, 1, h, w]` column, concatenating rows.
    pub fn extract_batch(&self, images: &F32Tensor) -> F32Tensor {
        assert_eq!(images.ndim(), 4, "expected [n, 1, h, w]");
        let g = self.geometry;
        let n = images.rows();
        let (h, w) = (images.shape()[2], images.shape()[3]);
        let mut out = Vec::with_capacity(n * g.rows * g.cols);
        for i in 0..n {
            let img = images.row(i).reshape(&[h, w]);
            out.extend_from_slice(self.extract(&img).data());
        }
        Tensor::from_vec(out, &[n * g.rows, g.cols])
    }
}

impl TableFunction for ExtractTableTvf {
    fn name(&self) -> &str {
        "extract_table"
    }

    /// Declared signature: one image-column argument, projection position
    /// only, output schema = the configured table columns. Downstream
    /// expressions (`AVG(SepalLength)` over the extraction) slot-resolve
    /// at compile time instead of falling back to by-name lookup, and
    /// `FROM extract_table(...)` misuse is rejected at prepare time.
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::dynamic(self.name())
            .with_args(vec![ArgType::Column])
            .volatility(Volatility::Immutable)
            .returns(self.schema.clone())
            .projection_only()
    }

    /// Projection position: `SELECT extract_table(images) FROM …`.
    fn invoke_cols(&self, args: &[ArgValue], _ctx: &ExecContext) -> Result<Batch, ExecError> {
        if args.len() != 1 {
            return Err(ExecError::Udf(
                "extract_table takes one image column".into(),
            ));
        }
        let images = match args[0].as_column()? {
            EncodedTensor::F32(t) => t.clone(),
            other => {
                return Err(ExecError::TypeMismatch(format!(
                    "extract_table expects an image tensor column, got {:?}",
                    other.kind()
                )))
            }
        };
        let table = self.extract_batch(&images);
        let rows = table.shape()[0];
        let mut out = Batch::new();
        for (c, name) in self.schema.iter().enumerate() {
            let col = table.narrow(1, c, 1).reshape(&[rows]);
            out.push(name.clone(), EncodedTensor::F32(col));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_data::documents::{generate_documents, render_document};
    use tdp_tensor::Rng64;

    fn pipeline() -> ExtractTableTvf {
        let g = DocGeometry::iris();
        ExtractTableTvf::new(
            g,
            vec![
                "SepalLength".into(),
                "SepalWidth".into(),
                "PetalLength".into(),
                "PetalWidth".into(),
            ],
        )
    }

    #[test]
    fn localisation_finds_the_anchor() {
        let mut rng = Rng64::new(1);
        let g = DocGeometry::iris();
        let tvf = pipeline();
        for _ in 0..5 {
            let (img, _) = render_document(g, &mut rng);
            let flat = img.reshape(&[g.height, g.width]);
            let (y, x) = tvf.locate(&flat);
            // The anchor is stamped at offsets in [4, …); localisation must
            // land within a pixel of a bright solid block.
            let window = flat.narrow(0, y, g.anchor).narrow(1, x, g.anchor);
            assert!(
                window.mean() > 0.8,
                "located region is not the anchor (mean {})",
                window.mean()
            );
        }
    }

    #[test]
    fn extraction_recovers_ground_truth() {
        let mut rng = Rng64::new(2);
        let g = DocGeometry::iris();
        let tvf = pipeline();
        let mut total = 0usize;
        let mut correct = 0usize;
        for _ in 0..4 {
            let (img, truth) = render_document(g, &mut rng);
            let got = tvf.extract(&img.reshape(&[g.height, g.width]));
            assert_eq!(got.shape(), truth.shape());
            for i in 0..truth.numel() {
                total += 1;
                if (got.at(i) - truth.at(i)).abs() < 5e-3 {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.95, "cell accuracy {acc} (={correct}/{total})");
    }

    #[test]
    fn batch_extraction_stacks_rows() {
        let mut rng = Rng64::new(3);
        let ds = generate_documents(3, DocGeometry::iris(), &mut rng);
        let tvf = pipeline();
        let table = tvf.extract_batch(&ds.images);
        assert_eq!(table.shape(), &[3 * 6, 4]);
    }

    #[test]
    fn tvf_invocation_yields_schema_columns() {
        let mut rng = Rng64::new(4);
        let ds = generate_documents(2, DocGeometry::iris(), &mut rng);
        let tvf = pipeline();
        let catalog = tdp_storage::Catalog::new();
        let udfs = tdp_exec::UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs);
        let out = tvf
            .invoke_cols(
                &[ArgValue::Column(EncodedTensor::F32(ds.images.clone()))],
                &ctx,
            )
            .unwrap();
        assert_eq!(
            out.names(),
            vec!["SepalLength", "SepalWidth", "PetalLength", "PetalWidth"]
        );
        assert_eq!(out.rows(), 12);
        // AVG over the extracted column ≈ AVG over ground truth.
        let got = out.column("SepalLength").unwrap().decode_f32();
        let truth_avg: f32 = ds
            .tables
            .iter()
            .map(|t| t.narrow(1, 0, 1).sum())
            .sum::<f32>()
            / 12.0;
        assert!((got.mean() as f32 - truth_avg).abs() < 0.05);
    }

    #[test]
    fn from_position_is_rejected() {
        let tvf = pipeline();
        let catalog = tdp_storage::Catalog::new();
        let udfs = tdp_exec::UdfRegistry::new();
        let ctx = ExecContext::new(&catalog, &udfs);
        assert!(matches!(
            tvf.invoke_table(&Batch::new(), &ctx),
            Err(ExecError::Unsupported(_))
        ));
    }
}
