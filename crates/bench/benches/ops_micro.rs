//! Criterion micro-benchmarks of the tensor kernels that dominate query
//! execution: elementwise ops, matmul, conv2d and row selection, each on
//! CPU and on the simulated accelerator, and the vector-search kernels.
//! They are diagnostics of the simulated accelerator (`tdp_tensor::device`),
//! not claims. A kernel splits across lanes only from `PAR_THRESHOLD`
//! output rows on: the `matmul_256` and `conv2d_8x8x28x28` (6,272 patches)
//! accelerator rows time the serial path, `matmul_20k_x64` the split one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tdp_core::index::{kmeans, Metric};
use tdp_core::tensor::{Device, Rng64, Tensor};

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
    let idx = Tensor::<i64>::arange(n / 2);
    group.bench_function("gather_half", |bch| bch.iter(|| t.select_rows(&idx)));
    let col = t.narrow(1, 0, 1).reshape(&[n]);
    group.bench_function("gather_half_1d", |bch| bch.iter(|| col.select_rows(&idx)));
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
/// (IVF's default 20 Lloyd iterations), at that workload's sizes.
fn bench_vector_kernels(c: &mut Criterion) {
    let mut rng = Rng64::new(6);
    let d = 64;
    let docs = Tensor::<f32>::randn(&[30_000, d], 0.0, 1.0, &mut rng);
    let small = Tensor::<f32>::randn(&[16_000, d], 0.0, 1.0, &mut rng);
    let vecs = Tensor::<f32>::randn(&[40_000, d], 0.0, 1.0, &mut rng);
    let q = Tensor::<f32>::randn(&[d], 0.0, 1.0, &mut rng);
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
    group.finish();
}

criterion_group!(
    benches,
    bench_elementwise,
    bench_matmul,
    bench_conv2d,
    bench_row_selection,
    bench_sort_groupby_kernels,
    bench_vector_kernels
);
criterion_main!(benches);
