//! Direct probes of the layers the suite reaches only inside scenario
//! closures and renderer bodies, timed on the suite's own inputs.
//!
//! Each probe group runs in a fresh process, so process-global caches
//! start cold, as they do for the suite's first use of each layer.

use crate::json::Obj;
use rand::Rng;
use reach::codec::{decode_report, encode_report};
use reach::RunReport;
use reach_bench::DiskCache;
use reach_cbir::dataset::Dataset;
use reach_cbir::pipeline::CbirStage;
use reach_cbir::ProductQuantizer;
use reach_cbir::{blueprint_with, CbirMapping, CbirPipeline, CbirWorkload, IvfIndex};
use reach_graph::pipeline::{graph_pipeline, GraphPlacement, GraphWorkload, PAGERANK_ITERATIONS};
use reach_graph::{bfs_levels, pagerank, Graph, GraphKind, GraphSpec, PAGERANK_DAMPING};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Names accepted by `reach-perfbench probe`.
pub const PROBES: [&str; 4] = ["graph-pipeline", "graph-parts", "cbir-recall", "cbir-parts"];

/// Seconds `f` takes, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// The PageRank tenant of `extension-graph-corun` (the private
/// `corun_graph_spec` in `crates/graph/src/co_run.rs`): 262,144 nodes of
/// average degree 32 at the session seed.
fn corun_graph_spec() -> GraphSpec {
    GraphSpec {
        nodes: 262_144,
        avg_degree: 32,
        kind: GraphKind::Uniform,
        seed: reach_sim::rng::session_seed(),
    }
}

/// Runs probe `name`, returning its metrics.
///
/// # Errors
///
/// Returns a message for an unknown probe or a failed self-check.
pub fn run(name: &str) -> Result<Obj, String> {
    let mut out = Obj::default();
    match name {
        // What the co-run renderer derives three times per pass.
        "graph-pipeline" => {
            let spec = corun_graph_spec();
            let (s, run) = timed(|| {
                graph_pipeline(&spec, GraphWorkload::Pagerank, GraphPlacement::NearMemory)
            });
            black_box(run);
            out.num("graph.pipeline_s", s);
        }
        // The same derivation split into its steps.
        "graph-parts" => {
            let spec = corun_graph_spec();
            let (build_s, g) = timed(|| spec.build());
            // `from_edges` alone, fed in generator-like random order
            // rather than the CSR's sorted order.
            let mut edges = g.edges();
            let mut rng = reach_sim::rng::derived(spec.seed, "perfbench-edge-order");
            for i in (1..edges.len()).rev() {
                edges.swap(i, rng.gen_range(0..i + 1));
            }
            let (csr_s, rebuilt) = timed(|| Graph::from_edges(spec.nodes, &edges));
            if rebuilt != g {
                return Err("graph-parts: CSR rebuilt from shuffled edges differs".into());
            }
            let (pagerank_s, ranks) = timed(|| pagerank(&g, PAGERANK_ITERATIONS, PAGERANK_DAMPING));
            black_box(ranks);
            let (bfs_s, levels) = timed(|| bfs_levels(&g, 0));
            black_box(levels);
            out.num("graph.build_s", build_s);
            out.num("graph.csr_s", csr_s);
            out.num("graph.pagerank_s", pagerank_s);
            out.num("graph.bfs_s", bfs_s);
        }
        // `extension-recall`'s whole computation.
        "cbir-recall" => {
            let (s, rows) = timed(reach_cbir::experiments::recall_vs_compression);
            black_box(rows);
            out.num("cbir.recall_s", s);
        }
        // The recall experiment's index and codec training, replaying its
        // random stream in order (the private constants of
        // `recall_vs_compression` in `crates/cbir/src/experiments.rs`),
        // then pipeline compilation for the four Fig. 13 mappings.
        "cbir-parts" => {
            let mut rng =
                reach_sim::rng::derived(reach_sim::rng::DEFAULT_SEED, "recall-vs-compression");
            let ds = Dataset::gaussian_mixture(6_000, 32, 48, 0.8, &mut rng);
            let (_queries, _) = ds.queries(32, 0.2, &mut rng);
            let (ivf_s, index) = timed(|| IvfIndex::build(&ds.points, 48, &mut rng));
            black_box(index);
            let (pq_s, codecs) = timed(|| {
                [(8, 64), (4, 16)].map(|(subspaces, centroids)| {
                    ProductQuantizer::train(&ds.points, subspaces, centroids, &mut rng)
                })
            });
            black_box(codecs);
            out.num("cbir.ivf_build_s", ivf_s);
            out.num("cbir.pq_train_s", pq_s);

            const ROUNDS: u32 = 200;
            let bp = blueprint_with(4, 4);
            let (compile_s, ()) = timed(|| {
                for _ in 0..ROUNDS {
                    for mapping in CbirMapping::ALL {
                        let p = CbirPipeline::new(CbirWorkload::paper_setup(), mapping);
                        black_box(p.compile(bp.config(), bp.registry(), &CbirStage::ALL));
                    }
                }
            });
            out.num("cbir.compile_s", compile_s / f64::from(ROUNDS));
        }
        other => {
            return Err(format!(
                "unknown probe '{other}'; known probes: {}",
                PROBES.join(", ")
            ))
        }
    }
    Ok(out)
}

/// Times the report codec and the disk store on `reports`: encode and
/// decode every report, write them all to a fresh store under `dir`
/// (flush), then load and checksum that store again (open).
///
/// # Errors
///
/// Returns a message if a report does not survive the round trip or the
/// reopened store lost entries.
pub fn codec(reports: &[RunReport], dir: &Path, out: &mut Obj) -> Result<(), String> {
    let (encode_s, encoded) = timed(|| reports.iter().map(encode_report).collect::<Vec<_>>());
    let (decode_s, decoded) = timed(|| {
        encoded
            .iter()
            .map(|bytes| decode_report(bytes))
            .collect::<Result<Vec<_>, _>>()
    });
    let decoded = decoded.map_err(|e| format!("codec: undecodable report ({e})"))?;
    if decoded
        .iter()
        .map(encode_report)
        .ne(encoded.iter().cloned())
    {
        return Err("codec: a report does not round-trip".into());
    }

    let mut store = DiskCache::open(dir);
    for (key, report) in (1u128..).zip(reports) {
        store.insert(key, report);
    }
    let (flush_s, ()) = timed(|| store.flush());
    let (open_s, reopened) = timed(|| DiskCache::open(dir));
    if reopened.len() != reports.len() {
        return Err(format!(
            "diskcache: reopened store holds {} of {} reports",
            reopened.len(),
            reports.len()
        ));
    }
    out.num("codec.encode_s", encode_s);
    out.num("codec.decode_s", decode_s);
    out.int("codec.bytes", encoded.iter().map(|b| b.len() as u64).sum());
    out.num("diskcache.flush_s", flush_s);
    out.num("diskcache.open_s", open_s);
    Ok(())
}
