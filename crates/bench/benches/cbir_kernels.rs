//! Microbenchmarks of the functional CBIR kernels (the algorithms the
//! accelerator templates implement).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use reach_cbir::dataset::Dataset;
use reach_cbir::ivf::IvfIndex;
use reach_cbir::linalg::{batch_dist_sq, gemm_nt, Matrix};
use reach_cbir::top_k;
use reach_cbir::FeatureNet;
use reach_sim::rng::seeded;

fn bench_gemm(c: &mut Criterion) {
    // The short-list shape: a 16 x 96 query batch against 1000 centroids.
    let mut g = c.benchmark_group("cbir/gemm");
    let q = Matrix::from_vec(16, 96, (0..16 * 96).map(|i| (i % 17) as f32).collect());
    let cm = Matrix::from_vec(1000, 96, (0..1000 * 96).map(|i| (i % 13) as f32).collect());
    g.throughput(Throughput::Elements(16 * 96 * 1000));
    g.bench_function("shortlist_shape_16x96x1000", |b| {
        b.iter(|| black_box(gemm_nt(&q, &cm)));
    });
    g.bench_function("decomposed_distance_16x1000", |b| {
        b.iter(|| black_box(batch_dist_sq(&q, &cm)));
    });
    g.finish();
}

fn bench_topk(c: &mut Criterion) {
    let mut g = c.benchmark_group("cbir/topk");
    let dists: Vec<(f32, usize)> = (0..4096)
        .map(|i| ((i as f32 * 2654435761.0) % 1e6, i))
        .collect();
    g.throughput(Throughput::Elements(4096));
    g.bench_function("top10_of_4096", |b| {
        b.iter(|| black_box(top_k(dists.iter().copied(), 10)));
    });
    g.finish();
}

fn bench_features(c: &mut Criterion) {
    let mut g = c.benchmark_group("cbir/features");
    let net = FeatureNet::new(256, 96, 2, 1);
    let input: Vec<f32> = (0..256).map(|i| (i as f32).sin()).collect();
    g.bench_function("extract_256_to_96", |b| {
        b.iter(|| black_box(net.extract(&input)));
    });
    g.finish();
}

fn bench_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("cbir/search");
    g.sample_size(20);
    let mut rng = seeded(77);
    let ds = Dataset::gaussian_mixture(10_000, 32, 64, 0.3, &mut rng);
    let index = IvfIndex::build(&ds.points, 64, &mut rng);
    let (queries, _) = ds.queries(16, 0.05, &mut rng);
    g.bench_function("batch16_nprobe4_10k_points", |b| {
        b.iter(|| black_box(index.search(&ds.points, &queries, 4, 10, Some(4096))));
    });
    g.finish();
}

criterion_group!(
    cbir_kernels,
    bench_gemm,
    bench_topk,
    bench_features,
    bench_search
);
criterion_main!(cbir_kernels);
