//! The `extension-corun` experiment: CBIR traffic served while graph batch
//! jobs run on the same hierarchy.
//!
//! The GAM's reason to exist is coordinating *multiple* workloads on one
//! reconfigurable hierarchy. This module measures what that coordination
//! costs the latency-sensitive tenant: open-loop CBIR query traffic
//! (PR 7's admission-queue serving) co-runs with a stream of PageRank
//! batch jobs whose near-memory gathers occupy the same accelerator slots
//! and DIMMs the CBIR short-list stage needs. Each swept rate produces a
//! solo baseline and a co-run point with identical arrivals, so the p99
//! delta is pure interference — backed by the new contention gauges
//! (`mem.ddr.contended_cycles`, `mem.aimbus.queued_ps`) and per-tenant
//! dispatch/latency attribution ([`reach_gam::tenant::TenantLedger`]).
//!
//! Both points are [`TenantMix`]es: the solo point is the CBIR tenant
//! alone, the co-run point adds the graph tenant. Job-id spaces are
//! disjoint: CBIR arrivals from 0, graph batches from [`GRAPH_JOB_BASE`].

use crate::csr::{GraphKind, GraphSpec};
use crate::pipeline::{lower, GraphPlacement, WorkloadShape};
use crate::templates::graph_registry;
use reach::traffic::ArrivalProcess;
use reach::{
    MachineBlueprint, Pipeline, Scenario, ScenarioExecutor, Schedule, SystemConfig, Tenant,
    TenantMix,
};
use reach_cbir::pipeline::CbirStage;
use reach_cbir::CbirPipeline;
use reach_sim::SimDuration;
use std::fmt;

/// Offered CBIR arrival rates swept, in query batches per second. Both
/// sit below the proper mapping's saturation knee, where p99 reflects the
/// pipeline (and any interference) rather than the tenant's own queueing.
pub const CORUN_RATES_PER_SEC: [u64; 2] = [4, 8];

/// CBIR batch arrivals offered at each rate.
pub const CORUN_OFFERED: usize = 16;

/// Admission-queue depth for arrivals — graph jobs in flight count
/// against it, so it is deliberately deeper than the traffic sweep's: the
/// batch tenant's backlog can push the queue to the bound and bounce CBIR
/// arrivals, which is admission control doing its job, visibly.
pub const CORUN_QUEUE_DEPTH: usize = 12;

/// Graph batch jobs submitted per CBIR arrival instant (see
/// [`graph_corun_rows_with`] for why they share instants).
pub const GRAPH_JOBS_PER_ARRIVAL: usize = 2;

/// First job id of the graph tenant, above every CBIR arrival's id.
pub const GRAPH_JOB_BASE: u64 = 512;

/// The graph batch tenant's workload: a near-memory PageRank big enough
/// that each iteration's gather occupies an accelerator slot for tens of
/// milliseconds at a time — the same order as one CBIR short-list shard,
/// so a query landing behind a graph task feels it.
fn corun_graph_spec() -> GraphSpec {
    GraphSpec {
        nodes: 262_144,
        avg_degree: 32,
        kind: GraphKind::Uniform,
        seed: reach_sim::rng::session_seed(),
    }
}

/// The graph tenant's near-memory PageRank pipeline, lowered from the
/// spec's node and edge counts: no graph is built and no host PageRank
/// runs, because the lowering never reads the residuals. Byte-identical to
/// [`crate::pipeline::graph_pipeline`] on the same spec (pinned by the
/// tests below and the crate's property tests).
fn corun_graph_pipeline() -> Pipeline {
    let spec = corun_graph_spec();
    let shape = WorkloadShape::Pagerank {
        residuals: Vec::new(),
    };
    lower(
        spec.node_count(),
        spec.edge_count(),
        &shape,
        GraphPlacement::NearMemory,
    )
    .pipeline
}

/// The co-run machine: the paper shape widened to 4 near-memory and 4
/// near-storage units, with both the CBIR and graph kernels registered.
#[must_use]
pub fn corun_blueprint() -> MachineBlueprint {
    MachineBlueprint::with_registry(
        SystemConfig::paper_table2()
            .with_near_memory(4)
            .with_near_storage(4),
        graph_registry(),
    )
}

/// One co-run sweep row: the solo and shared serving points at one rate.
#[derive(Clone, Debug)]
pub struct CorunRow {
    /// Offered CBIR arrival rate, batches per second.
    pub rate_per_sec: u64,
    /// CBIR arrivals offered (same in both runs).
    pub offered: usize,
    /// CBIR arrivals admitted, solo.
    pub solo_admitted: u64,
    /// CBIR arrivals bounced, solo.
    pub solo_rejected: u64,
    /// CBIR p99 latency, solo, ms.
    pub solo_p99_ms: f64,
    /// DDR contended cycles, solo.
    pub solo_ddr_contended: u64,
    /// CBIR arrivals admitted, co-run.
    pub corun_admitted: u64,
    /// CBIR arrivals bounced, co-run.
    pub corun_rejected: u64,
    /// CBIR p99 latency, co-run, ms.
    pub corun_p99_ms: f64,
    /// DDR contended cycles, co-run.
    pub corun_ddr_contended: u64,
    /// AIMbus queueing, co-run, ps.
    pub corun_aimbus_queued_ps: u64,
    /// Graph batch jobs completed in the co-run.
    pub graph_jobs: u64,
    /// GAM dispatches attributed to the CBIR tenant, co-run.
    pub cbir_dispatches: u64,
    /// GAM dispatches attributed to the graph tenant, co-run.
    pub graph_dispatches: u64,
}

impl CorunRow {
    /// What co-running cost CBIR at p99, ms (positive = slower).
    #[must_use]
    pub fn p99_delta_ms(&self) -> f64 {
        self.corun_p99_ms - self.solo_p99_ms
    }
}

impl fmt::Display for CorunRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "corun @{:>2}/s    solo  admitted {:>2}/{:<2} rejected {:>2}  cbir-p99 {:>9.3}ms  \
             ddr-contended {:>8}cy",
            self.rate_per_sec,
            self.solo_admitted,
            self.offered,
            self.solo_rejected,
            self.solo_p99_ms,
            self.solo_ddr_contended,
        )?;
        write!(
            f,
            "  corun @{:>2}/s  shared  admitted {:>2}/{:<2} rejected {:>2}  cbir-p99 {:>9.3}ms  \
             ddr-contended {:>8}cy  aimbus-queued {}ps  graph-jobs {}  \
             dispatches cbir/graph {}/{}  p99-delta {:+.3}ms",
            self.rate_per_sec,
            self.corun_admitted,
            self.offered,
            self.corun_rejected,
            self.corun_p99_ms,
            self.corun_ddr_contended,
            self.corun_aimbus_queued_ps,
            self.graph_jobs,
            self.cbir_dispatches,
            self.graph_dispatches,
            self.p99_delta_ms(),
        )
    }
}

/// Runs the co-run sweep — solo and shared serving points at each
/// [`CORUN_RATES_PER_SEC`] rate — through `executor` and reduces each rate
/// to a [`CorunRow`].
#[must_use]
pub fn graph_corun_rows_with(executor: &dyn ScenarioExecutor) -> Vec<CorunRow> {
    let blueprint = corun_blueprint();
    let seed = reach_sim::rng::session_seed();
    let cbir = CbirPipeline::paper_proper().compile(
        blueprint.config(),
        blueprint.registry(),
        &CbirStage::ALL,
    );
    let graph = corun_graph_pipeline();

    let mut scenarios: Vec<Box<dyn Scenario>> = Vec::new();
    for &rate in &CORUN_RATES_PER_SEC {
        let instants = ArrivalProcess::Poisson {
            mean_gap: SimDuration::from_secs_f64(1.0 / rate as f64),
            seed,
        }
        .arrivals(CORUN_OFFERED);
        let cbir_tenant = Tenant {
            name: "cbir".into(),
            pipeline: cbir.clone(),
            first_job: 0,
            schedule: Schedule::At {
                instants: instants.clone(),
                per_instant: 1,
                admission_depth: Some(CORUN_QUEUE_DEPTH),
            },
        };
        // The batch tenant submits its jobs at the query arrival instants
        // (fully correlated phase): every serving point then measures
        // interference by construction instead of leaving the overlap
        // between the two tenants to the luck of the seed.
        let graph_tenant = Tenant {
            name: "graph".into(),
            pipeline: graph.clone(),
            first_job: GRAPH_JOB_BASE,
            schedule: Schedule::At {
                instants,
                per_instant: GRAPH_JOBS_PER_ARRIVAL,
                admission_depth: None,
            },
        };
        scenarios.push(Box::new(TenantMix::new(
            format!("corun/{rate}qps/solo"),
            blueprint.clone(),
            vec![cbir_tenant.clone()],
        )));
        scenarios.push(Box::new(TenantMix::new(
            format!("corun/{rate}qps/shared"),
            blueprint.clone(),
            vec![cbir_tenant, graph_tenant],
        )));
    }

    let results = executor.run_all(scenarios);
    let ms = |ps: u64| ps as f64 * 1e-9;
    CORUN_RATES_PER_SEC
        .iter()
        .zip(results.chunks(2))
        .map(|(&rate, pair)| {
            let [solo, shared] = pair else {
                unreachable!("two scenarios per rate")
            };
            let s = &solo.report.metrics;
            let c = &shared.report.metrics;
            CorunRow {
                rate_per_sec: rate,
                offered: CORUN_OFFERED,
                solo_admitted: s.counter("tenant.cbir.jobs_completed"),
                solo_rejected: s.counter("tenant.cbir.jobs_rejected"),
                solo_p99_ms: ms(s.counter("tenant.cbir.latency.p99_ps")),
                solo_ddr_contended: s.counter("mem.ddr.contended_cycles"),
                corun_admitted: c.counter("tenant.cbir.jobs_completed"),
                corun_rejected: c.counter("tenant.cbir.jobs_rejected"),
                corun_p99_ms: ms(c.counter("tenant.cbir.latency.p99_ps")),
                corun_ddr_contended: c.counter("mem.ddr.contended_cycles"),
                corun_aimbus_queued_ps: c.counter("mem.aimbus.queued_ps"),
                graph_jobs: c.counter("tenant.graph.jobs_completed"),
                cbir_dispatches: c.counter("tenant.cbir.dispatches"),
                graph_dispatches: c.counter("tenant.graph.dispatches"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use reach::SequentialExecutor;

    #[test]
    fn corun_shows_measurable_contention() {
        let rows = graph_corun_rows_with(&SequentialExecutor);
        assert_eq!(rows.len(), CORUN_RATES_PER_SEC.len());
        for row in &rows {
            // The acceptance bar: co-running strictly raises CBIR's p99 at
            // the same offered rate, and the ledgers balance per tenant.
            assert!(
                row.corun_p99_ms > row.solo_p99_ms,
                "@{}qps: co-run p99 {:.3}ms not above solo {:.3}ms",
                row.rate_per_sec,
                row.corun_p99_ms,
                row.solo_p99_ms
            );
            assert_eq!(
                row.solo_admitted + row.solo_rejected,
                row.offered as u64,
                "@{}qps solo ledger",
                row.rate_per_sec
            );
            assert_eq!(
                row.corun_admitted + row.corun_rejected,
                row.offered as u64,
                "@{}qps co-run ledger",
                row.rate_per_sec
            );
            assert_eq!(
                row.graph_jobs,
                (CORUN_OFFERED * GRAPH_JOBS_PER_ARRIVAL) as u64
            );
            assert!(row.cbir_dispatches > 0 && row.graph_dispatches > 0);
        }
    }

    #[test]
    fn counts_only_tenant_matches_the_derived_pipeline() {
        let derived = crate::pipeline::graph_pipeline(
            &corun_graph_spec(),
            crate::pipeline::GraphWorkload::Pagerank,
            GraphPlacement::NearMemory,
        );
        let lowered = corun_graph_pipeline();
        assert_eq!(lowered.fingerprint(), derived.pipeline.fingerprint());
        let (job, works) = lowered.job_for_batch(GRAPH_JOB_BASE);
        let (derived_job, derived_works) = derived.pipeline.job_for_batch(GRAPH_JOB_BASE);
        assert_eq!(format!("{job:?}"), format!("{derived_job:?}"));
        assert_eq!(works, derived_works);
    }

    #[test]
    fn corun_rows_replay_byte_identically() {
        let a: Vec<String> = graph_corun_rows_with(&SequentialExecutor)
            .iter()
            .map(ToString::to_string)
            .collect();
        let b: Vec<String> = graph_corun_rows_with(&SequentialExecutor)
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn contention_gauges_move_under_co_run() {
        let rows = graph_corun_rows_with(&SequentialExecutor);
        for row in &rows {
            assert!(
                row.corun_ddr_contended >= row.solo_ddr_contended,
                "@{}qps: co-run cannot reduce DDR contention",
                row.rate_per_sec
            );
        }
    }
}
