//! Criterion micro-benchmarks of the tensor kernels that dominate query
//! execution: elementwise ops, matmul, conv2d and row selection, each on
//! CPU and on the simulated accelerator, row windows against a gather,
//! the vector-search kernels and the transcendental row kernels.
//! They are diagnostics of the simulated accelerator (`tdp_tensor::device`),
//! not claims. A kernel splits across lanes only from `PAR_THRESHOLD`
//! output rows on: the `matmul_256` and `conv2d_8x8x28x28` (6,272 patches)
//! accelerator rows time the serial path, `matmul_20k_x64` the split one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdp_core::autodiff::Var;
use tdp_core::exec::soft::{soft_compare, Towards};
use tdp_core::index::{kmeans, Metric};
use tdp_core::tensor::{math, Device, Rng64, Tensor};

fn bench_elementwise(c: &mut Criterion) {
    let mut rng = Rng64::new(1);
    let n = 512 * 512;
    let a = Tensor::<f32>::randn(&[n], 0.0, 1.0, &mut rng);
    let b = Tensor::<f32>::randn(&[n], 0.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("elementwise_mul_sigmoid");
    group.sample_size(20);
    for device in [Device::Cpu, Device::accel()] {
        let ad = a.to(device);
        let bd = b.to(device);
        group.bench_with_input(BenchmarkId::from_parameter(device), &device, |bch, _| {
            bch.iter(|| ad.mul(&bd).sigmoid())
        });
    }
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = Rng64::new(2);
    let a = Tensor::<f32>::randn(&[256, 256], 0.0, 1.0, &mut rng);
    let b = Tensor::<f32>::randn(&[256, 256], 0.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("matmul_256");
    group.sample_size(20);
    for device in [Device::Cpu, Device::accel()] {
        let ad = a.to(device);
        let bd = b.to(device);
        group.bench_with_input(BenchmarkId::from_parameter(device), &device, |bch, _| {
            bch.iter(|| ad.matmul(&bd))
        });
    }
    group.finish();

    let a = Tensor::<f32>::randn(&[20_000, 64], 0.0, 1.0, &mut rng);
    let b = Tensor::<f32>::randn(&[64, 32], 0.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("matmul_20k_x64");
    group.sample_size(20);
    for device in [Device::Cpu, Device::accel()] {
        let ad = a.to(device);
        group.bench_with_input(BenchmarkId::from_parameter(device), &device, |bch, _| {
            bch.iter(|| ad.matmul(&b))
        });
    }
    group.finish();
}

fn bench_conv2d(c: &mut Criterion) {
    let mut rng = Rng64::new(3);
    let img = Tensor::<f32>::randn(&[8, 8, 28, 28], 0.0, 1.0, &mut rng);
    let w = Tensor::<f32>::randn(&[16, 8, 3, 3], 0.0, 0.1, &mut rng);
    let mut group = c.benchmark_group("conv2d_8x8x28x28");
    group.sample_size(20);
    for device in [Device::Cpu, Device::accel()] {
        let im = img.to(device);
        let wd = w.to(device);
        group.bench_with_input(BenchmarkId::from_parameter(device), &device, |bch, _| {
            bch.iter(|| im.conv2d(&wd, None, 1, 1))
        });
    }
    group.finish();
}

fn bench_row_selection(c: &mut Criterion) {
    let mut rng = Rng64::new(4);
    let n = 100_000;
    let t = Tensor::<f32>::randn(&[n, 8], 0.0, 1.0, &mut rng);
    let mask = t.narrow(1, 0, 1).reshape(&[n]).gt_scalar(0.0);
    let mut group = c.benchmark_group("filter_rows_100k");
    group.sample_size(20);
    group.bench_function("mask_filter", |bch| bch.iter(|| t.filter_rows(&mask)));
    // Every other row: a gather (one ascending run would select a window).
    let idx = Tensor::from_vec((0..n as i64 / 2).map(|i| 2 * i).collect(), &[n / 2]);
    group.bench_function("gather_half", |bch| bch.iter(|| t.select_rows(&idx)));
    let col = t.narrow(1, 0, 1).reshape(&[n]);
    group.bench_function("gather_half_1d", |bch| bch.iter(|| col.select_rows(&idx)));
    group.finish();
}

/// Row windows of the `ai_embedded` payload (`[30_000, 64]` f32): a
/// `slice_rows` window and a `select_rows` of one ascending run share the
/// buffer (O(1), and O(ids) to recognise the run), against a gather of
/// the same number of scattered rows.
fn bench_row_windows(c: &mut Criterion) {
    let mut rng = Rng64::new(9);
    let (n, from) = (30_000usize, 3_000usize);
    let emb = Tensor::<f32>::randn(&[n, 64], 0.0, 1.0, &mut rng);
    let run = Tensor::from_vec((from as i64..n as i64).collect(), &[n - from]);
    // 7,919 is prime to 30,000: distinct rows in scattered order.
    let scattered: Vec<i64> = (0..(n - from) as i64)
        .map(|i| i * 7_919 % n as i64)
        .collect();
    let scattered = Tensor::from_vec(scattered, &[n - from]);
    let mut group = c.benchmark_group("row_windows_30k_x64");
    group.sample_size(20);
    group.bench_function("slice_rows", |bch| bch.iter(|| emb.slice_rows(from, n)));
    group.bench_function("select_rows_run", |bch| bch.iter(|| emb.select_rows(&run)));
    group.bench_function("select_rows_scattered", |bch| {
        bch.iter(|| emb.select_rows(&scattered))
    });
    group.finish();
}

fn bench_sort_groupby_kernels(c: &mut Criterion) {
    let mut rng = Rng64::new(5);
    let n = 100_000;
    let keys: Vec<i64> = (0..n).map(|_| rng.below(100) as i64).collect();
    let keys = Tensor::from_vec(keys, &[n]);
    let mut group = c.benchmark_group("groupby_kernels_100k");
    group.sample_size(20);
    group.bench_function("argsort", |bch| bch.iter(|| keys.argsort()));
    group.bench_function("unique_inverse_counts", |bch| {
        bch.iter(|| tdp_core::tensor::sort::unique_i64(&keys))
    });
    group.finish();
}

/// The dense vector paths of `ai_embedded`: a scoring UDF's `matvec`, a
/// flat ANN probe's L2 and cosine scores, and the IVF build's k-means
/// (IVF's default 20 Lloyd iterations), at that workload's sizes. k-means
/// runs twice: over `randn` rows, where its distance bounds prune almost
/// nothing (the no-prune cost), and over a 32-cluster mixture shaped like
/// the benchmark's embedding tables, where they prune most rows.
fn bench_vector_kernels(c: &mut Criterion) {
    let mut rng = Rng64::new(6);
    let d = 64;
    let docs = Tensor::<f32>::randn(&[30_000, d], 0.0, 1.0, &mut rng);
    let small = Tensor::<f32>::randn(&[16_000, d], 0.0, 1.0, &mut rng);
    let vecs = Tensor::<f32>::randn(&[40_000, d], 0.0, 1.0, &mut rng);
    let q = Tensor::<f32>::randn(&[d], 0.0, 1.0, &mut rng);
    let mut mix = Rng64::new(8);
    let centres: Vec<f32> = (0..32 * d).map(|_| mix.normal() as f32 * 3.0).collect();
    let mixture = Tensor::from_vec(
        (0..40_000 * d)
            .map(|e| centres[(e / d % 32) * d + e % d] + mix.normal() as f32 * 0.7)
            .collect(),
        &[40_000, d],
    );
    let mut group = c.benchmark_group("vector_kernels");
    group.sample_size(20);
    group.bench_function("matvec_30k_x64", |bch| bch.iter(|| docs.matvec(&q)));
    group.bench_function("l2_scores_16k_x64", |bch| {
        bch.iter(|| Metric::L2.scores(&small, &q))
    });
    group.bench_function("cosine_scores_16k_x64", |bch| {
        bch.iter(|| Metric::Cosine.scores(&small, &q))
    });
    group.sample_size(5);
    group.bench_function("kmeans_40k_x64_k32", |bch| {
        bch.iter(|| kmeans(&vecs, 32, 20, Metric::L2, &mut Rng64::new(7)))
    });
    group.bench_function("kmeans_40k_x64_k32_mixture", |bch| {
        bch.iter(|| kmeans(&mixture, 32, 20, Metric::L2, &mut Rng64::new(7)))
    });
    group.finish();
}

/// The engine's transcendental row kernels (`tdp_tensor::math`) over
/// 100k f32 in [−20, 20], and the forward of Listing 5's relaxed
/// comparison at `ai_embedded`'s `train_step` shape: σ((v − θ)/τ) over a
/// 100k-row column against a broadcast θ, one tape node.
fn bench_transcendentals(c: &mut Criterion) {
    let n = 100_000;
    let mut rng = Rng64::new(9);
    let x: Vec<f32> = (0..n)
        .map(|_| rng.uniform_range(-20.0, 20.0) as f32)
        .collect();
    let mut out = vec![0.0f32; n];
    let mut group = c.benchmark_group("transcendentals");
    group.sample_size(50);
    group.bench_function("exp_100k", |bch| bch.iter(|| math::exp_rows(&x, &mut out)));
    group.bench_function("sigmoid_100k", |bch| {
        bch.iter(|| math::sigmoid_rows(&x, &mut out))
    });
    let v = Var::constant(Tensor::<f32>::randn(&[n], 0.5, 0.25, &mut rng));
    let theta = Var::param(Tensor::from_vec(vec![0.3f32], &[1]));
    group.bench_function("soft_compare_100k", |bch| {
        bch.iter(|| soft_compare(&v, &theta.broadcast_to(&[n]), Towards::Greater, 0.05))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_elementwise,
    bench_matmul,
    bench_conv2d,
    bench_row_selection,
    bench_row_windows,
    bench_sort_groupby_kernels,
    bench_vector_kernels,
    bench_transcendentals
);
criterion_main!(benches);
