//! # tdp-ml
//!
//! The model zoo and ML-side UDF/TVF implementations for the paper's use
//! cases:
//!
//! * [`cnn`] — the digit/size parser CNNs of the MNISTGrid query, plus the
//!   two pure-deep-learning baselines (CNN-Small ≈ 850K parameters and a
//!   ResNet-18-style network ≈ 11M parameters) used in §5.5 Experiment 1;
//! * [`exemplar`] — the one text↔item similarity model of every non-table
//!   modality: a calibrated exemplar posterior ([`ExemplarSim`]) and the
//!   `*_text_similarity(query, items)` scalar UDF ([`TextSimilarityUdf`]),
//!   built from a per-modality description that supplies only a feature
//!   extractor, a class list, keyword rules, a UDF name and an item shape. Each
//!   modality's module holds its description and a `pretrained`
//!   constructor: [`clip`] (**CLIP-sim**, standing in for OpenAI CLIP in
//!   the multimodal queries of §5.1: `[3, h, w]` images), [`audio`]
//!   (`[CLIP_LEN]` waveforms) and [`video`] (`[FRAMES, H, W]` clips);
//! * [`ocr`] — the `extract_table` pipeline of §5.2: anchor-correlation
//!   table localisation + glyph template matching, all tensor kernels;
//! * [`tvf`] — the paper's table-valued functions: `parse_mnist_grid`
//!   (Listing 4) and `classify_incomes` (Listing 9), with differentiable
//!   and exact paths.

pub mod audio;
pub mod clip;
pub mod cnn;
pub mod exemplar;
pub mod ocr;
pub mod tvf;
pub mod video;

pub use cnn::{CnnSmall, DigitCnn, ResNet18};
pub use exemplar::{ExemplarSim, TextSimilarityUdf};
pub use ocr::ExtractTableTvf;
pub use tvf::{ClassifyIncomesTvf, ParseMnistGridTvf};
