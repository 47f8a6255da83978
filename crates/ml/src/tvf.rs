//! The paper's table-valued functions.
//!
//! * [`ParseMnistGridTvf`] — Listing 4: splits a grid image into 9 tiles
//!   (the einops rearrange) and runs the digit and size parser CNNs,
//!   emitting two probability-encoded columns.
//! * [`ClassifyIncomesTvf`] — Listing 9: a linear classifier over the
//!   feature matrix of an LLP bag, emitting a PE `Income` column.
//!
//! Both implement the exact path by running the differentiable path and
//! decoding (argmax) — the operator-swap story of §4 in miniature.

use tdp_autodiff::Var;
use tdp_data::grid::GRID_PX;
use tdp_exec::{
    Batch, ColumnData, DiffBatch, DiffColumn, ExecContext, ExecError, FunctionSpec, TableFunction,
    Volatility,
};
use tdp_nn::{Linear, Module};
use tdp_tensor::{F32Tensor, Rng64, Tensor};

use crate::cnn::DigitCnn;

/// `parse_mnist_grid(MNIST_Grid)` — the trainable TVF of the MNISTGrid
/// query. Input: a relation whose tensor column is `[n, 1, 84, 84]` grid
/// images. Output: PE columns `Digit` (10 classes) and `Size` (2 classes)
/// with one row per tile (9·n rows).
pub struct ParseMnistGridTvf {
    pub digit_parser: DigitCnn,
    pub size_parser: DigitCnn,
}

impl ParseMnistGridTvf {
    pub fn new(rng: &mut Rng64) -> ParseMnistGridTvf {
        ParseMnistGridTvf {
            digit_parser: DigitCnn::new(10, rng),
            size_parser: DigitCnn::new(2, rng),
        }
    }

    /// The tile rearrange of Listing 4 for a whole grid batch:
    /// `[n, 1, 84, 84] -> [9n, 1, 28, 28]`.
    pub fn tiles_of(grids: &F32Tensor) -> Result<F32Tensor, ExecError> {
        if grids.ndim() != 4 || grids.shape()[1] != 1 || grids.shape()[2] != GRID_PX {
            return Err(ExecError::TypeMismatch(format!(
                "parse_mnist_grid expects [n, 1, {GRID_PX}, {GRID_PX}] grids, got {:?}",
                grids.shape()
            )));
        }
        Ok(grids.rearrange(
            "n 1 (h1 h2) (w1 w2) -> (n h1 w1) 1 h2 w2",
            &[("h1", tdp_data::grid::GRID), ("w1", tdp_data::grid::GRID)],
        ))
    }
}

impl TableFunction for ParseMnistGridTvf {
    fn name(&self) -> &str {
        "parse_mnist_grid"
    }

    /// Declared signature: FROM position only, output relation
    /// `[Digit, Size]` (so downstream GROUP BY / filters slot-resolve).
    /// The parser CNNs are trainable (`Var` parameters on the `Rc`-based
    /// autodiff tape), so the TVF is Stable — never constant-folded —
    /// and stays session-thread-bound.
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::dynamic(self.name())
            .volatility(Volatility::Stable)
            .returns(vec!["Digit".into(), "Size".into()])
            .from_only()
    }

    fn invoke_table(&self, input: &Batch, ctx: &ExecContext) -> Result<Batch, ExecError> {
        Ok(self.invoke_table_diff(&input.clone().into(), ctx)?.detach())
    }

    fn invoke_table_diff(
        &self,
        input: &DiffBatch,
        _ctx: &ExecContext,
    ) -> Result<DiffBatch, ExecError> {
        let tiles = Self::tiles_of(&input.detach().first_tensor()?)?;
        let x = Var::constant(tiles);
        let digit_probs = self.digit_parser.forward(&x).softmax(1);
        let size_probs = self.size_parser.forward(&x).softmax(1);
        let mut out = DiffBatch::new();
        out.push(
            "Digit",
            ColumnData::Diff(DiffColumn::pe(digit_probs, F32Tensor::arange(10))),
        );
        out.push(
            "Size",
            ColumnData::Diff(DiffColumn::pe(size_probs, F32Tensor::arange(2))),
        );
        Ok(out)
    }

    fn parameters(&self) -> Vec<Var> {
        let mut ps = self.digit_parser.parameters();
        ps.extend(self.size_parser.parameters());
        ps
    }
}

/// `classify_incomes(Adult_Income_Bag)` — the LLP TVF. Input: a relation
/// whose tensor column is the `[bag_size, d]` feature matrix of one bag.
/// Output: PE column `Income` (2 classes), one row per instance.
pub struct ClassifyIncomesTvf {
    pub model: Linear,
}

impl ClassifyIncomesTvf {
    pub fn new(num_features: usize, rng: &mut Rng64) -> ClassifyIncomesTvf {
        ClassifyIncomesTvf {
            model: Linear::new(num_features, 2, rng),
        }
    }

    /// Instance-level predictions for a feature matrix (used to compute
    /// test error after LLP training).
    pub fn predict(&self, features: &F32Tensor) -> Tensor<i64> {
        self.model
            .forward(&Var::constant(features.clone()))
            .value()
            .argmax_dim(1)
    }
}

impl TableFunction for ClassifyIncomesTvf {
    fn name(&self) -> &str {
        "classify_incomes"
    }

    /// FROM position only, output relation `[Income]`; trainable, so
    /// Stable and session-thread-bound (see [`ParseMnistGridTvf::spec`]).
    fn spec(&self) -> FunctionSpec {
        FunctionSpec::dynamic(self.name())
            .volatility(Volatility::Stable)
            .returns(vec!["Income".into()])
            .from_only()
    }

    fn invoke_table(&self, input: &Batch, ctx: &ExecContext) -> Result<Batch, ExecError> {
        Ok(self.invoke_table_diff(&input.clone().into(), ctx)?.detach())
    }

    fn invoke_table_diff(
        &self,
        input: &DiffBatch,
        _ctx: &ExecContext,
    ) -> Result<DiffBatch, ExecError> {
        let features = input.detach().first_tensor()?;
        if features.ndim() != 2 || features.shape()[1] != self.model.in_features() {
            return Err(ExecError::TypeMismatch(format!(
                "classify_incomes expects [n, {}] features, got {:?}",
                self.model.in_features(),
                features.shape()
            )));
        }
        let logits = self.model.forward(&Var::constant(features));
        let probs = logits.softmax(1);
        let mut out = DiffBatch::new();
        out.push(
            "Income",
            ColumnData::Diff(DiffColumn::pe(probs, F32Tensor::arange(2))),
        );
        Ok(out)
    }

    fn parameters(&self) -> Vec<Var> {
        self.model.parameters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdp_data::grid::generate_grid;
    use tdp_encoding::{EncodedTensor, EncodingKind};
    use tdp_exec::UdfRegistry;
    use tdp_storage::Catalog;

    fn ctx_fixture() -> (Catalog, UdfRegistry) {
        (Catalog::new(), UdfRegistry::new())
    }

    #[test]
    fn parse_mnist_grid_emits_pe_tile_rows() {
        let mut rng = Rng64::new(1);
        let tvf = ParseMnistGridTvf::new(&mut rng);
        let g = generate_grid(&mut rng);
        let mut input = Batch::new();
        input.push(
            "value",
            EncodedTensor::F32(g.image.reshape(&[1, 1, 84, 84])),
        );
        let (catalog, udfs) = ctx_fixture();
        let ctx = ExecContext::new(&catalog, &udfs);
        let out = tvf.invoke_table_diff(&input.clone().into(), &ctx).unwrap();
        assert_eq!(out.rows(), 9);
        match out.column("Digit").unwrap() {
            ColumnData::Diff(d) => {
                assert!(d.is_pe());
                assert_eq!(d.var.shape(), vec![9, 10]);
                let sums = d.var.value().sum_dim(1, false);
                assert!(sums.data().iter().all(|&s| (s - 1.0).abs() < 1e-5));
            }
            other => panic!("expected PE diff column, got {other:?}"),
        }
        // Exact path decodes instead.
        let exact = tvf.invoke_table(&input, &ctx).unwrap();
        assert_eq!(
            exact.column("Digit").unwrap().kind(),
            EncodingKind::Probability
        );
        assert_eq!(exact.rows(), 9);
    }

    #[test]
    fn parse_mnist_grid_batches_multiple_grids() {
        let mut rng = Rng64::new(2);
        let g1 = generate_grid(&mut rng);
        let g2 = generate_grid(&mut rng);
        let stacked = tdp_tensor::index::concat_rows(&[
            &g1.image.reshape(&[1, 1, 84, 84]),
            &g2.image.reshape(&[1, 1, 84, 84]),
        ]);
        let tiles = ParseMnistGridTvf::tiles_of(&stacked).unwrap();
        assert_eq!(tiles.shape(), &[18, 1, 28, 28]);
    }

    #[test]
    fn parse_mnist_grid_rejects_bad_shapes() {
        let bad = F32Tensor::zeros(&[1, 1, 32, 32]);
        assert!(matches!(
            ParseMnistGridTvf::tiles_of(&bad),
            Err(ExecError::TypeMismatch(_))
        ));
    }

    #[test]
    fn parameters_cover_both_parsers() {
        let mut rng = Rng64::new(3);
        let tvf = ParseMnistGridTvf::new(&mut rng);
        let n_params: usize = tvf.parameters().iter().map(|p| p.numel()).sum();
        let expected = tvf.digit_parser.num_parameters() + tvf.size_parser.num_parameters();
        assert_eq!(n_params, expected);
    }

    #[test]
    fn classify_incomes_emits_income_pe() {
        let mut rng = Rng64::new(4);
        let tvf = ClassifyIncomesTvf::new(10, &mut rng);
        let feats = F32Tensor::randn(&[16, 10], 0.0, 1.0, &mut rng);
        let mut input = Batch::new();
        input.push("value", EncodedTensor::F32(feats.clone()));
        let (catalog, udfs) = ctx_fixture();
        let ctx = ExecContext::new(&catalog, &udfs);
        let out = tvf.invoke_table_diff(&input.clone().into(), &ctx).unwrap();
        assert_eq!(out.rows(), 16);
        assert!(out.column("Income").unwrap().is_diff());
        // Predictions agree with the exact decode of the PE column.
        let pred = tvf.predict(&feats);
        let exact = tvf.invoke_table(&input, &ctx).unwrap();
        assert_eq!(
            exact.column("Income").unwrap().decode_i64().to_vec(),
            pred.to_vec()
        );
    }

    #[test]
    fn classify_incomes_shape_check() {
        let mut rng = Rng64::new(5);
        let tvf = ClassifyIncomesTvf::new(10, &mut rng);
        let mut input = Batch::new();
        input.push("value", EncodedTensor::F32(F32Tensor::zeros(&[4, 3])));
        let (catalog, udfs) = ctx_fixture();
        let ctx = ExecContext::new(&catalog, &udfs);
        assert!(matches!(
            tvf.invoke_table_diff(&input.into(), &ctx),
            Err(ExecError::TypeMismatch(_))
        ));
    }
}
