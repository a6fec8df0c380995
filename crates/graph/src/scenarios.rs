//! The `extension-graph` experiment: placement × scale sweep of the graph
//! workloads.
//!
//! Each point runs one workload (BFS on an RMAT graph, PageRank on a
//! uniform graph) at one placement and one scale, and reports the makespan
//! plus the traversal shape — frontier sizes for BFS, per-iteration L1
//! residuals for PageRank. The shape numbers come from the host-side
//! reference run, so the printed rows double as a correctness witness the
//! CI validator re-checks from stdout (frontiers positive and summing to
//! the visited count; residuals strictly decreasing).
//!
//! The sweep derives each (graph, workload) shape once and lowers it once
//! per placement. Every point carries its lowered run, which its
//! fingerprint, its simulation and its row all read.
//!
//! Determinism contract: graphs derive from fixed seeds through
//! [`reach_sim::rng`] streams, simulation from the event queue — every row
//! is byte-identical at any `--jobs` and replays through the
//! scenario-result cache (fingerprint `reach-graph-v1`).

use crate::csr::{GraphKind, GraphSpec};
use crate::pipeline::{
    derive_shape, graph_pipeline, lower, GraphPlacement, GraphRun, GraphWorkload, WorkloadShape,
};
use crate::templates::graph_blueprint;
use reach::fingerprint::ConfigFingerprint;
use reach::{Machine, MachineBlueprint, RunReport, Scenario, ScenarioExecutor};
use reach_sim::FingerprintBuilder;
use std::fmt;
use std::sync::Arc;

/// Node counts swept per workload × placement.
pub const GRAPH_SCALES: [u32; 3] = [1024, 4096, 16384];

/// Average out-degree of every swept graph.
pub const GRAPH_DEGREE: u32 = 8;

/// One graph sweep point: a workload on a generated graph at a placement.
#[derive(Clone, Debug)]
pub struct GraphScenario {
    label: String,
    blueprint: MachineBlueprint,
    spec: GraphSpec,
    workload: GraphWorkload,
    placement: GraphPlacement,
    run: Arc<GraphRun>,
    batches: usize,
    seed: u64,
}

impl GraphScenario {
    /// A sweep point on the paper-shape machine with the graph kernels
    /// registered. The graph seed derives from the session seed, so
    /// `--seed N` reshuffles every generated graph at once.
    #[must_use]
    pub fn new(spec: GraphSpec, workload: GraphWorkload, placement: GraphPlacement) -> Self {
        let run = graph_pipeline(&spec, workload, placement);
        Self::lowered(spec, workload, placement, run)
    }

    /// A sweep point around `run`, which must be `spec`'s `workload` shape
    /// lowered at `placement`.
    fn lowered(
        spec: GraphSpec,
        workload: GraphWorkload,
        placement: GraphPlacement,
        run: GraphRun,
    ) -> Self {
        GraphScenario {
            label: format!(
                "graph/{}/{}/{}",
                workload.name(),
                placement.name(),
                spec.label()
            ),
            blueprint: graph_blueprint(),
            spec,
            workload,
            placement,
            run: Arc::new(run),
            batches: 1,
            seed: reach_sim::rng::session_seed(),
        }
    }

    /// The graph spec this point traverses.
    #[must_use]
    pub fn spec(&self) -> &GraphSpec {
        &self.spec
    }
}

impl Scenario for GraphScenario {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn blueprint(&self) -> MachineBlueprint {
        self.blueprint.clone()
    }

    fn run(&self, machine: &mut Machine) -> RunReport {
        self.run.pipeline.run(machine, self.batches)
    }

    /// Everything `run` consumes: machine shape, the compiled pipeline
    /// (which itself digests the traversal shape, hence the graph), the
    /// generating spec, workload, placement, batch count and seed.
    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        let mut b = FingerprintBuilder::new("reach-graph-v1");
        self.blueprint.fingerprint().write_into(&mut b);
        self.run.pipeline.fingerprint().write_into(&mut b);
        b.write_debug(&self.spec);
        b.write_str(self.workload.name());
        b.write_str(self.placement.name());
        b.write_usize(self.batches);
        b.write_u64(self.seed);
        Some(ConfigFingerprint::from_builder(b))
    }
}

/// One rendered sweep row.
#[derive(Clone, Debug)]
pub struct GraphRow {
    /// Workload name (`bfs` / `pagerank`).
    pub workload: &'static str,
    /// Placement name.
    pub placement: &'static str,
    /// Graph label, e.g. `rmat/4096`.
    pub graph: String,
    /// Directed edge count.
    pub edges: u64,
    /// Simulated makespan, ms.
    pub makespan_ms: f64,
    /// Edge traversals per simulated second.
    pub events_per_sec: f64,
    /// Traversal shape: frontier sizes (BFS) or residuals (PageRank).
    pub shape: WorkloadShape,
}

impl GraphRow {
    /// Edge-traversal events this row's run performed (BFS: edges scanned
    /// over all frontiers; PageRank: edges × iterations).
    #[must_use]
    pub fn events(&self) -> u64 {
        match &self.shape {
            WorkloadShape::Bfs(r) => r.edges_scanned.iter().sum(),
            WorkloadShape::Pagerank { residuals } => self.edges * residuals.len() as u64,
        }
    }
}

impl fmt::Display for GraphRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:>8} {:>12} {:>12}  {:>8} edges  {:>10.3}ms  {:>12.0} ev/s  ",
            self.workload,
            self.placement,
            self.graph,
            self.edges,
            self.makespan_ms,
            self.events_per_sec
        )?;
        match &self.shape {
            WorkloadShape::Bfs(r) => {
                write!(f, "frontiers [")?;
                for (i, s) in r.frontier_sizes.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "] visited {}", r.visited())
            }
            WorkloadShape::Pagerank { residuals } => {
                write!(f, "residuals [")?;
                for (i, r) in residuals.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{r:.3e}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// The sweep grid, in row order: (workload, graph kind) pairs ×
/// placements × scales. Each (workload, scale) shape is derived once and
/// lowered per placement.
fn sweep_scenarios() -> Vec<GraphScenario> {
    let seed = reach_sim::rng::session_seed();
    let mut scenarios = Vec::new();
    for (workload, kind) in [
        (GraphWorkload::Bfs, GraphKind::Rmat),
        (GraphWorkload::Pagerank, GraphKind::Uniform),
    ] {
        let shapes: Vec<_> = GRAPH_SCALES
            .iter()
            .map(|&nodes| {
                let spec = GraphSpec {
                    nodes,
                    avg_degree: GRAPH_DEGREE,
                    kind,
                    seed,
                };
                (spec, derive_shape(&spec, workload))
            })
            .collect();
        for placement in GraphPlacement::ALL {
            for (spec, (nodes, edges, shape)) in &shapes {
                let run = lower(*nodes, *edges, shape, placement);
                scenarios.push(GraphScenario::lowered(*spec, workload, placement, run));
            }
        }
    }
    scenarios
}

/// Runs the placement × scale sweep through `executor` and reduces each
/// point to a [`GraphRow`].
#[must_use]
pub fn graph_sweep_with(executor: &dyn ScenarioExecutor) -> Vec<GraphRow> {
    let scenarios = sweep_scenarios();
    let results = executor.run_all(
        scenarios
            .iter()
            .map(|s| Box::new(s.clone()) as Box<dyn Scenario>)
            .collect(),
    );

    // Rows read the carried shape, so warm replays render identically
    // without simulating.
    scenarios
        .iter()
        .zip(results)
        .map(|(s, res)| {
            let makespan = res.report.makespan;
            let mut row = GraphRow {
                workload: s.workload.name(),
                placement: s.placement.name(),
                graph: s.spec.label(),
                edges: s.run.edges,
                makespan_ms: makespan.as_ms_f64(),
                events_per_sec: 0.0,
                shape: s.run.shape.clone(),
            };
            row.events_per_sec = row.events() as f64 / makespan.as_secs_f64();
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::SequentialExecutor;

    fn point() -> GraphScenario {
        GraphScenario::new(
            GraphSpec {
                nodes: 1024,
                avg_degree: 8,
                kind: GraphKind::Rmat,
                seed: reach_sim::rng::session_seed(),
            },
            GraphWorkload::Bfs,
            GraphPlacement::NearMemory,
        )
    }

    #[test]
    fn fingerprint_tracks_every_knob() {
        let base = point();
        let spec = *base.spec();
        // Graph, workload and placement variants go through the
        // constructor, so each carries its own lowered run.
        let mut variants = vec![
            GraphScenario::new(
                GraphSpec {
                    nodes: 2048,
                    ..spec
                },
                base.workload,
                base.placement,
            ),
            GraphScenario::new(
                GraphSpec {
                    seed: spec.seed ^ 1,
                    ..spec
                },
                base.workload,
                base.placement,
            ),
            GraphScenario::new(
                GraphSpec {
                    kind: GraphKind::Uniform,
                    ..spec
                },
                base.workload,
                base.placement,
            ),
            GraphScenario::new(spec, GraphWorkload::Pagerank, base.placement),
            GraphScenario::new(spec, base.workload, GraphPlacement::NearStorage),
        ];
        let mut v = point();
        v.batches = 2;
        variants.push(v);
        let mut v = point();
        v.seed ^= 1;
        variants.push(v);

        let mut seen = vec![base.config_fingerprint().unwrap()];
        for (i, v) in variants.iter().enumerate() {
            let fp = v.config_fingerprint().unwrap();
            assert!(
                !seen.contains(&fp),
                "variant {i} did not change the fingerprint"
            );
            seen.push(fp);
        }
    }

    #[test]
    fn equal_fingerprints_mean_byte_identical_rows() {
        let a = point();
        let b = point();
        assert_eq!(a.config_fingerprint(), b.config_fingerprint());
        assert_eq!(
            a.execute().makespan,
            b.execute().makespan,
            "equal fingerprints must replay identically"
        );
    }

    #[test]
    fn sweep_points_carry_the_derived_pipeline() {
        for s in sweep_scenarios() {
            let fresh = graph_pipeline(&s.spec, s.workload, s.placement);
            assert_eq!(
                s.run.pipeline.fingerprint(),
                fresh.pipeline.fingerprint(),
                "{}",
                s.label
            );
        }
    }

    #[test]
    fn sweep_rows_cover_the_grid_and_obey_the_validator_contract() {
        let rows = graph_sweep_with(&SequentialExecutor);
        assert_eq!(rows.len(), 2 * 3 * GRAPH_SCALES.len());
        for row in &rows {
            assert!(row.makespan_ms > 0.0, "{}: empty run", row.graph);
            match &row.shape {
                WorkloadShape::Bfs(r) => {
                    assert!(r.frontier_sizes.iter().all(|&f| f > 0));
                    let by_levels = r.levels.iter().filter(|&&l| l != u32::MAX).count() as u64;
                    assert_eq!(r.visited(), by_levels);
                }
                WorkloadShape::Pagerank { residuals } => {
                    for w in residuals.windows(2) {
                        assert!(w[1] < w[0], "residual rose in {}", row.graph);
                    }
                }
            }
        }
    }
}
