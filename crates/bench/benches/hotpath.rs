//! Microbenchmarks of the simulator hot paths: event-queue throughput
//! (calendar queue), machine steady-state event processing, the parallel
//! CBIR kernels (GEMM micro-kernel, k-means seeding and Lloyd loop,
//! product-quantizer training and encode, binary encode, top-K), the
//! cross-batch distance cache, and the DDR stream timing model.
//!
//! Set `REACH_BENCH_QUICK=1` to shrink every problem size (the CI
//! perf-smoke mode); the full sizes are meant for local before/after
//! comparisons when touching the dispatch path or the kernels.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use reach_cbir::kmeans::kmeans;
use reach_cbir::linalg::{gemm_nt, Matrix};
use reach_cbir::scenarios::blueprint_with;
use reach_cbir::top_k;
use reach_cbir::{CbirMapping, CbirPipeline, CbirWorkload};
use reach_sim::rng::seeded;
use reach_sim::{EventQueue, SimDuration, SimTime};

/// `full` normally, `quick` under `REACH_BENCH_QUICK=1`.
fn scaled(full: usize, quick: usize) -> usize {
    if std::env::var_os("REACH_BENCH_QUICK").is_some() {
        quick
    } else {
        full
    }
}

fn bench_event_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/event_queue");
    let n = scaled(200_000, 20_000);

    // Steady-state churn: the queue holds a working set while events are
    // pushed relative to `now` and popped in order — the machine's loop.
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("push_in_pop", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::with_capacity(64);
            for i in 0..64u64 {
                q.push(SimTime::from_ps(i), i);
            }
            for i in 0..n as u64 {
                let (_, ev) = q.pop().expect("non-empty");
                q.push_in(SimDuration::from_ps(64 + (ev % 7)), i);
            }
            black_box(q.len())
        });
    });

    // Same-instant bursts drained through the batch pop the machine uses.
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("pop_batch_bursts_of_16", |b| {
        b.iter(|| {
            let mut q: EventQueue<u64> = EventQueue::with_capacity(n);
            for i in 0..n as u64 {
                q.push(SimTime::from_ps(i / 16), i);
            }
            let mut batch = Vec::new();
            let mut drained = 0usize;
            while q.pop_batch_into(&mut batch).is_some() {
                drained += batch.len();
            }
            black_box(drained)
        });
    });
    g.finish();
}

fn bench_machine(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/machine");
    g.sample_size(10);
    let batches = scaled(64, 8);
    let blueprint = blueprint_with(4, 4);
    let pipeline = CbirPipeline::new(CbirWorkload::paper_setup(), CbirMapping::Proper);

    // Steady-state events/sec through submit -> dispatch -> completion with
    // the full pipeline mapped across the hierarchy. The reported element
    // rate is machine events processed per wall second.
    let events_per_run = {
        let mut m = blueprint.instantiate();
        let compiled = pipeline.build(&m);
        let report = compiled.run(&mut m, batches);
        report.metrics.counter("engine.events_processed")
    };
    g.throughput(Throughput::Elements(events_per_run));
    g.bench_function("steady_state_pipelined", |b| {
        b.iter(|| {
            let mut m = blueprint.instantiate();
            let compiled = pipeline.build(&m);
            black_box(compiled.run(&mut m, batches).makespan)
        });
    });
    g.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/gemm");
    let m = scaled(512, 128);
    let n = 1000;
    let k = 96;
    let a = Matrix::from_vec(m, k, (0..m * k).map(|i| (i % 17) as f32 - 8.0).collect());
    let bm = Matrix::from_vec(n, k, (0..n * k).map(|i| (i % 13) as f32 - 6.0).collect());
    g.throughput(Throughput::Elements((m * n * k) as u64));
    g.bench_function("rerank_shape_parallel", |b| {
        b.iter(|| black_box(gemm_nt(&a, &bm)));
    });
    g.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/kmeans");
    g.sample_size(10);
    let n = scaled(8192, 1024);
    let d = 32;
    let k = 64;
    let pts = Matrix::from_vec(
        n,
        d,
        (0..n * d)
            .map(|i| ((i * 2_654_435_761) % 97) as f32)
            .collect(),
    );
    g.throughput(Throughput::Elements((n * k * d) as u64));
    // A fresh stream per iteration: every sample seeds and iterates alike.
    g.bench_function("assign_update_loop", |b| {
        b.iter(|| black_box(kmeans(&pts, k, 5, &mut seeded(42)).inertia));
    });

    // k-means++ seeding of one `extension-recall` PQ subspace (6000 x 4,
    // 64 codewords), unscaled in quick mode too. Zero Lloyd iterations
    // leave the seeding alone (plus the point norms).
    let ds = recall_dataset();
    let sub = Matrix::from_vec(
        6_000,
        4,
        (0..6_000)
            .flat_map(|i| ds.points.row(i)[..4].to_vec())
            .collect(),
    );
    g.throughput(Throughput::Elements(6_000 * 64 * 4));
    g.bench_function("seed_recall_subspace", |b| {
        b.iter(|| black_box(kmeans(&sub, 64, 0, &mut seeded(44)).centroids));
    });
    g.finish();
}

/// The `extension-recall` dataset shape: 6000 x 32 points in 48 blobs.
fn recall_dataset() -> reach_cbir::Dataset {
    reach_cbir::Dataset::gaussian_mixture(6_000, 32, 48, 0.8, &mut seeded(43))
}

fn bench_pq(c: &mut Criterion) {
    use reach_cbir::ProductQuantizer;

    // The `extension-recall` shape, unscaled in quick mode too: 6000 x 32
    // points, 8 subspaces of 64 codewords, each subspace's Lloyd loop one
    // work item. A fresh stream per iteration: every sample trains from
    // the same seeds for the same number of Lloyd iterations.
    let mut g = c.benchmark_group("hotpath/pq");
    g.sample_size(10);
    let ds = recall_dataset();
    g.throughput(Throughput::Elements(6_000 * 32));
    g.bench_function("train_recall_shape_8x64", |b| {
        b.iter(|| {
            black_box(ProductQuantizer::train(&ds.points, 8, 64, &mut seeded(43)).code_bytes())
        });
    });
    // Encoding the whole dataset with that quantizer.
    let pq = ProductQuantizer::train(&ds.points, 8, 64, &mut seeded(43));
    g.bench_function("encode_recall_shape_8x64", |b| {
        b.iter(|| black_box(pq.encode_batch(&ds.points)));
    });
    g.finish();
}

fn bench_binary(c: &mut Criterion) {
    use reach_cbir::BinaryCoder;

    // The `extension-recall` 256-bit binary codes of the whole dataset,
    // unscaled in quick mode too.
    let mut g = c.benchmark_group("hotpath/binary");
    g.sample_size(10);
    let ds = recall_dataset();
    let coder = BinaryCoder::new(32, 256, &mut seeded(45));
    g.throughput(Throughput::Elements(6_000 * 256));
    g.bench_function("encode_recall_shape_256", |b| {
        b.iter(|| black_box(coder.encode_batch(&ds.points)));
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    use reach_cbir::linalg::batch_dist_sq;
    use reach_cbir::QueryContext;

    let mut g = c.benchmark_group("hotpath/cache");
    let nq = scaled(64, 16);
    let np = scaled(4096, 512);
    let d = 32;
    let queries = Matrix::from_vec(
        nq,
        d,
        (0..nq * d).map(|i| ((i * 31) % 23) as f32 - 11.0).collect(),
    );
    let points = Matrix::from_vec(
        np,
        d,
        (0..np * d).map(|i| ((i * 7) % 19) as f32 - 9.0).collect(),
    );
    g.throughput(Throughput::Elements((nq * np) as u64));
    // Every batch recomputes the points-side norms from scratch.
    g.bench_function("batch_dist_uncached", |b| {
        b.iter(|| black_box(batch_dist_sq(&queries, &points)));
    });
    // The QueryContext keeps `||p||^2` warm across batches; only the first
    // iteration misses.
    let ctx = QueryContext::new();
    g.bench_function("batch_dist_cached", |b| {
        b.iter(|| black_box(ctx.batch_dist_sq(&queries, &points)));
    });
    g.finish();
}

fn bench_dimm_stream(c: &mut Criterion) {
    use reach_mem::{AccessKind, Dimm, DimmConfig, RowPolicy};

    // One closed-row scan of a near-memory working set (~550 MB) and one
    // of 4 GiB. Whole refresh cycles are skipped in one step, so both cost
    // about the same: the timing model no longer grows with the size, and
    // quick mode keeps both sizes.
    let mut g = c.benchmark_group("hotpath/dimm_stream");
    for (name, bytes) in [
        ("closed_row_550mb", 550_000_000u64),
        ("closed_row_4gib", 4 << 30),
    ] {
        g.throughput(Throughput::Bytes(bytes));
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut d = Dimm::new(DimmConfig::ddr4_16gb());
                black_box(
                    d.stream(
                        SimTime::ZERO,
                        0,
                        bytes,
                        AccessKind::Read,
                        RowPolicy::ClosedRow,
                    )
                    .complete,
                )
            });
        });
    }
    g.finish();
}

fn bench_topk(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath/topk");
    let n = scaled(262_144, 16_384);
    let dists: Vec<(f32, usize)> = (0..n)
        .map(|i| (((i * 2_654_435_761) % 1_000_003) as f32, i))
        .collect();
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("top10_large_stream", |b| {
        b.iter(|| black_box(top_k(dists.iter().copied(), 10)));
    });
    g.finish();
}

criterion_group!(
    hotpath,
    bench_event_queue,
    bench_machine,
    bench_gemm,
    bench_kmeans,
    bench_pq,
    bench_binary,
    bench_cache,
    bench_dimm_stream,
    bench_topk
);
criterion_main!(hotpath);
