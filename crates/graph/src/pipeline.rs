//! Graph workloads expressed as ReACH pipelines.
//!
//! A BFS run becomes one task per frontier level, chained through
//! same-level frontier streams; a PageRank run becomes one task per
//! iteration, chained through rank-vector streams. The work descriptor of
//! each task comes from the *actual* host-side traversal
//! ([`crate::algo`]): the edges each frontier scanned, the rank entries
//! each iteration touched.
//!
//! Building a pipeline is two steps. [`derive_shape`] is the host-side work:
//! build the graph, traverse it, summarise the shape. [`lower`] is pure:
//! it turns node and edge counts plus that shape into the pipeline one
//! placement runs, so one derivation serves every placement. A
//! fixed-iteration PageRank touches every edge on every iteration, so its
//! pipeline depends on the counts alone and needs no derivation at all.
//!
//! Placement decides the access shape the simulator prices:
//!
//! * **DRAM levels (on-chip, near-memory)** — `Gather` in 64-byte lines:
//!   per-frontier irregular row activations (the near-memory path batches
//!   row reservations through `reserve_many` inside the DIMM model, and
//!   pays the closed-row conflict penalty per line);
//! * **near-storage** — `Stream` of the whole edge list per level /
//!   iteration: the semi-external pattern out-of-core graph engines use,
//!   because random 8-byte reads at 4 KiB flash-page granularity would be
//!   catastrophically worse than a full rescan.

use crate::algo::{bfs_levels, pagerank, BfsResult, PAGERANK_DAMPING};
use crate::csr::GraphSpec;
use crate::templates::graph_registry;
use reach::{Level, Pipeline, ReachConfig, StreamType, TaskWork};

/// Bytes per CSR edge record the kernels move (4 B destination id + 4 B
/// mark / rank-share payload).
pub const EDGE_BYTES: u64 = 8;

/// Bytes per rank-vector entry (one f64).
pub const RANK_BYTES: u64 = 8;

/// DRAM gather granule: one cache line.
pub const DRAM_GRANULE: u64 = 64;

/// PageRank iteration count every experiment uses — enough for the
/// residual trend to be unmistakable, few enough to keep the suite fast.
pub const PAGERANK_ITERATIONS: usize = 6;

/// Which graph algorithm a pipeline runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphWorkload {
    /// Level-synchronous breadth-first search from node 0.
    Bfs,
    /// Fixed-iteration PageRank ([`PAGERANK_ITERATIONS`] iterations).
    Pagerank,
}

impl GraphWorkload {
    /// All workloads, sweep order.
    pub const ALL: [GraphWorkload; 2] = [GraphWorkload::Bfs, GraphWorkload::Pagerank];

    /// Stable lower-case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GraphWorkload::Bfs => "bfs",
            GraphWorkload::Pagerank => "pagerank",
        }
    }
}

/// Where the graph kernels run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphPlacement {
    /// The on-chip accelerator (coherent, TLB-translated gathers).
    OnChip,
    /// Near-memory AIM modules (closed-row gathers on their own DIMMs).
    NearMemory,
    /// Near-storage units (edge-list streaming from the SSD).
    NearStorage,
}

impl GraphPlacement {
    /// All placements, sweep order.
    pub const ALL: [GraphPlacement; 3] = [
        GraphPlacement::OnChip,
        GraphPlacement::NearMemory,
        GraphPlacement::NearStorage,
    ];

    /// Stable name used in labels and rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            GraphPlacement::OnChip => "on-chip",
            GraphPlacement::NearMemory => "near-memory",
            GraphPlacement::NearStorage => "near-storage",
        }
    }

    /// The config level this placement maps to.
    #[must_use]
    pub fn level(self) -> Level {
        match self {
            GraphPlacement::OnChip => Level::OnChip,
            GraphPlacement::NearMemory => Level::NearMem,
            GraphPlacement::NearStorage => Level::NearStor,
        }
    }

    /// The traversal / rank kernel template names at this placement.
    #[must_use]
    pub fn templates(self) -> (&'static str, &'static str) {
        match self {
            GraphPlacement::OnChip => ("GTRAV-VU9P", "GRANK-VU9P"),
            _ => ("GTRAV-ZCU9", "GRANK-ZCU9"),
        }
    }

    /// The work descriptor for `macs` of compute over `touched`
    /// randomly-addressed bytes when the full edge list holds
    /// `edge_list_bytes`: gather on DRAM levels, whole-list stream near
    /// storage (see the module docs).
    #[must_use]
    fn work(self, macs: u64, touched: u64, edge_list_bytes: u64) -> TaskWork {
        match self {
            GraphPlacement::NearStorage => TaskWork::stream(macs, edge_list_bytes.max(1)),
            _ => TaskWork::gather(macs, touched.max(1), DRAM_GRANULE),
        }
    }
}

/// The traversal shape a compiled pipeline was priced from — everything
/// the experiment rows print about the host-side computation.
#[derive(Clone, Debug)]
pub enum WorkloadShape {
    /// BFS: the per-level frontier structure.
    Bfs(BfsResult),
    /// PageRank: the per-iteration L1 residuals.
    Pagerank {
        /// L1 distance between successive iterates.
        residuals: Vec<f64>,
    },
}

/// A compiled graph pipeline plus the shape summary it was priced from.
#[derive(Clone, Debug)]
pub struct GraphRun {
    /// The submit-ready pipeline.
    pub pipeline: Pipeline,
    /// Host-side traversal summary.
    pub shape: WorkloadShape,
    /// Node count of the underlying graph.
    pub nodes: u32,
    /// Edge count of the underlying graph.
    pub edges: u64,
}

/// CSR footprint in bytes: the row-pointer array plus the column array.
fn csr_bytes(nodes: u32, edges: u64) -> u64 {
    4 * (u64::from(nodes) + 1) + 4 * edges
}

/// The host-side derivation: builds `spec`'s graph and runs `workload` on
/// it. Returns the graph's node count, edge count and traversal shape —
/// everything [`lower`] prices a placement from.
///
/// # Panics
///
/// Panics if the spec is degenerate (see [`GraphSpec::build`]).
#[must_use]
pub fn derive_shape(spec: &GraphSpec, workload: GraphWorkload) -> (u32, u64, WorkloadShape) {
    let g = spec.build();
    let shape = match workload {
        GraphWorkload::Bfs => WorkloadShape::Bfs(bfs_levels(&g, 0)),
        GraphWorkload::Pagerank => WorkloadShape::Pagerank {
            residuals: pagerank(&g, PAGERANK_ITERATIONS, PAGERANK_DAMPING).residuals,
        },
    };
    (g.node_count(), g.edge_count(), shape)
}

/// Lowers a derived traversal shape on a graph of `nodes` nodes and
/// `edges` edges to the pipeline `placement` runs.
///
/// Pure: no graph is built and nothing is traversed. A PageRank shape is
/// priced from the counts alone — every fixed iteration touches every
/// edge — so its residuals are carried into the [`GraphRun`] but never
/// read here.
#[must_use]
pub fn lower(nodes: u32, edges: u64, shape: &WorkloadShape, placement: GraphPlacement) -> GraphRun {
    let level = placement.level();
    let (trav_tpl, rank_tpl) = placement.templates();
    let edge_list_bytes = edges * EDGE_BYTES;

    let mut rc = ReachConfig::new();
    let csr = rc.create_fixed_buffer("csr", level, csr_bytes(nodes, edges).max(1));

    // Per-step work: (template, macs, touched-bytes, hand-off bytes, stage).
    let steps: Vec<_> = match shape {
        WorkloadShape::Bfs(r) => r
            .edges_scanned
            .iter()
            .zip(&r.frontier_sizes)
            .map(|(&scanned, &frontier)| {
                (
                    trav_tpl,
                    scanned,                 // one compare-and-mark per edge
                    scanned * EDGE_BYTES,    // rows touched expanding the frontier
                    u64::from(frontier) * 4, // next-frontier hand-off
                    "frontier",
                )
            })
            .collect(),
        WorkloadShape::Pagerank { .. } => {
            let rank_vec = u64::from(nodes) * RANK_BYTES;
            (0..PAGERANK_ITERATIONS)
                .map(|_| {
                    (
                        rank_tpl,
                        2 * edges, // multiply + accumulate per edge
                        edges * EDGE_BYTES,
                        rank_vec,
                        "rank-update",
                    )
                })
                .collect()
        }
    };

    // Chain the steps: seed stream from the CPU, one same-level hand-off
    // stream between consecutive steps, final results back to the CPU.
    // Stream wiring is what derives the task dependencies, so the GAM runs
    // the levels strictly in order — BFS is level-synchronous by
    // construction, not by luck.
    let seed_bytes = steps.first().map_or(4, |s| s.3);
    let mut input = rc.create_stream(Level::Cpu, level, StreamType::Pair, seed_bytes.max(4), 2);
    let mut calls = Vec::with_capacity(steps.len());
    for (i, &(tpl, macs, touched, hand_off, stage)) in steps.iter().enumerate() {
        let last = i + 1 == steps.len();
        let output = if last {
            rc.create_stream(level, Level::Cpu, StreamType::Pair, hand_off.max(4), 2)
        } else {
            rc.create_stream(level, level, StreamType::Pair, hand_off.max(4), 2)
        };
        let acc = rc.register_acc(tpl, level);
        rc.set_arg(acc, 0, csr);
        rc.set_arg(acc, 1, input);
        rc.set_arg(acc, 2, output);
        calls.push((acc, placement.work(macs, touched, edge_list_bytes), stage));
        input = output;
    }

    let mut pipeline = Pipeline::new(
        rc.build_with(&graph_registry())
            .expect("graph pipeline config"),
    );
    for (acc, work, stage) in calls {
        pipeline.call(acc, work, stage);
    }
    GraphRun {
        pipeline,
        shape: shape.clone(),
        nodes,
        edges,
    }
}

/// Builds the pipeline for `workload` on `spec`'s graph at `placement`:
/// [`derive_shape`] then [`lower`].
///
/// # Panics
///
/// Panics if the spec is degenerate (see [`GraphSpec::build`]).
#[must_use]
pub fn graph_pipeline(
    spec: &GraphSpec,
    workload: GraphWorkload,
    placement: GraphPlacement,
) -> GraphRun {
    let (nodes, edges, shape) = derive_shape(spec, workload);
    lower(nodes, edges, &shape, placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::GraphKind;
    use crate::templates::graph_blueprint;

    fn spec() -> GraphSpec {
        GraphSpec {
            nodes: 512,
            avg_degree: 4,
            kind: GraphKind::Uniform,
            seed: 5,
        }
    }

    #[test]
    fn bfs_pipeline_has_one_task_per_level() {
        let run = graph_pipeline(&spec(), GraphWorkload::Bfs, GraphPlacement::NearMemory);
        let WorkloadShape::Bfs(r) = &run.shape else {
            panic!("bfs shape expected")
        };
        let mut machine = graph_blueprint().instantiate();
        let report = run.pipeline.run(&mut machine, 1);
        assert_eq!(report.jobs, 1);
        // One "frontier" task per BFS level.
        let frontier = report
            .stages
            .iter()
            .find(|s| s.name == "frontier")
            .expect("frontier stage");
        assert_eq!(frontier.tasks, r.frontier_sizes.len() as u64);
    }

    #[test]
    fn pagerank_pipeline_runs_at_every_placement() {
        for placement in GraphPlacement::ALL {
            let run = graph_pipeline(&spec(), GraphWorkload::Pagerank, placement);
            let mut machine = graph_blueprint().instantiate();
            let report = run.pipeline.run(&mut machine, 1);
            assert_eq!(report.jobs, 1, "{}", placement.name());
            let rank = report
                .stages
                .iter()
                .find(|s| s.name == "rank-update")
                .expect("rank-update stage");
            assert_eq!(rank.tasks, PAGERANK_ITERATIONS as u64);
        }
    }

    #[test]
    fn near_storage_costs_more_than_near_memory_per_level() {
        // Near-storage rescans the whole edge list per level while the DRAM
        // placements gather only the frontier's rows, so the out-of-core
        // run must take longer on the same workload.
        let run = |placement| {
            let r = graph_pipeline(&spec(), GraphWorkload::Bfs, placement);
            let mut machine = graph_blueprint().instantiate();
            r.pipeline.run(&mut machine, 1).makespan
        };
        let nm = run(GraphPlacement::NearMemory);
        let ns = run(GraphPlacement::NearStorage);
        assert!(
            ns > nm,
            "edge-list streaming ({ns:?}) should dominate frontier gathers ({nm:?})"
        );
    }
}
