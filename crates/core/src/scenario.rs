//! The scenario layer: one trait for every experiment point.
//!
//! A [`Scenario`] is a self-contained, independent unit of simulation — a
//! figure point, an ablation point, an analytics co-run, a sweep point.
//! It knows how to describe the machine it needs (a
//! [`MachineBlueprint`]) and what to do with it (`run`). Because scenarios
//! are `Send + Sync` and instantiate their own machines, any
//! [`ScenarioExecutor`] can fan them out — sequentially here in core, or
//! across threads in `reach-bench`'s `ScenarioRunner` — with byte-identical
//! results: determinism comes from each scenario's own seed, never from
//! execution order.
//!
//! Co-running workloads are data: a [`TenantMix`] lists [`Tenant`]s, so
//! its cache key is derived from its fields rather than vouched for.

use crate::api::Pipeline;
use crate::blueprint::MachineBlueprint;
use crate::fingerprint::ConfigFingerprint;
use crate::fleet::FleetScenario;
use crate::machine::Machine;
use crate::report::RunReport;
use reach_sim::{FingerprintBuilder, SimTime};

/// Default seed for scenarios that do not choose one
/// (re-exported from `reach_sim::rng`).
pub use reach_sim::rng::DEFAULT_SEED;

/// An independent experiment point.
pub trait Scenario: Send + Sync {
    /// Human-readable identity, e.g. `"fig8/near-memory/x4"`.
    fn label(&self) -> String;

    /// The seed this scenario derives all its randomness from. Executors
    /// never inject randomness, so runs replay bit-for-bit. Defaults to the
    /// process-wide session seed ([`DEFAULT_SEED`] unless `--seed N`
    /// overrode it via [`reach_sim::rng::set_session_seed`]).
    fn seed(&self) -> u64 {
        reach_sim::rng::session_seed()
    }

    /// The machine this scenario runs on.
    fn blueprint(&self) -> MachineBlueprint;

    /// Drives `machine` and reports. The machine is freshly instantiated
    /// from [`Scenario::blueprint`] and owned by this call.
    fn run(&self, machine: &mut Machine) -> RunReport;

    /// Instantiates the blueprint and runs — the one-stop entry point.
    fn execute(&self) -> RunReport {
        let mut machine = self.blueprint().instantiate();
        self.run(&mut machine)
    }

    /// A canonical digest of *everything* that determines this scenario's
    /// [`RunReport`] — machine blueprint, compiled pipeline, batch count,
    /// execution mode, seed — or `None` (the default: never cached).
    ///
    /// The contract a `Some` return signs up for: two scenarios with equal
    /// fingerprints produce byte-identical reports, so executors may run
    /// one and replay the report for the other. Derive it from the fields
    /// `run` reads, as [`crate::TenantMix`] does by exhaustive
    /// destructuring, rather than composing it by hand; an under-keyed
    /// fingerprint silently poisons any result cache built on it, and the
    /// persistent disk tier outlives the process.
    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        None
    }
}

/// A labelled report produced by an executor.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    /// The scenario's [`Scenario::label`].
    pub label: String,
    /// The report its run produced.
    pub report: RunReport,
}

/// Something that can execute a batch of scenarios.
///
/// The contract every executor must honour: results come back **in
/// submission order** and are **identical to sequential execution** —
/// parallelism is an implementation detail, never an observable one.
pub trait ScenarioExecutor {
    /// Executes every scenario and returns their results in submission
    /// order.
    fn run_all(&self, scenarios: Vec<Box<dyn Scenario>>) -> Vec<ScenarioResult>;

    /// Executes a batch of fleet scenarios, in submission order.
    ///
    /// Every fleet expands into one ordinary [`Scenario`] per shard; the
    /// whole expansion is submitted to [`ScenarioExecutor::run_all`] as a
    /// single flat batch, so thread fan-out, shard-level result caching
    /// and fingerprint harvesting all apply unchanged. The per-shard
    /// reports are then reduced by each fleet's
    /// [`FleetScenario::aggregate`] — sequentially, in submission order,
    /// which keeps the output byte-identical at any job count.
    fn run_fleets(&self, fleets: Vec<Box<dyn FleetScenario>>) -> Vec<ScenarioResult> {
        let mut batch: Vec<Box<dyn Scenario>> = Vec::new();
        let mut spans = Vec::with_capacity(fleets.len());
        for fleet in &fleets {
            let start = batch.len();
            let shards = fleet.fleet().shards();
            for shard in 0..shards {
                batch.push(fleet.shard_scenario(shard));
            }
            spans.push(start..batch.len());
        }
        let mut results = self.run_all(batch).into_iter();
        fleets
            .iter()
            .zip(spans)
            .map(|(fleet, span)| {
                let reports: Vec<RunReport> = span
                    .map(|_| {
                        results
                            .next()
                            .expect("run_all returns one result per scenario")
                            .report
                    })
                    .collect();
                ScenarioResult {
                    label: fleet.label(),
                    report: fleet.aggregate(reports),
                }
            })
            .collect()
    }
}

/// The trivial executor: runs scenarios one after another on the calling
/// thread. The reference implementation all parallel executors must match.
#[derive(Clone, Copy, Debug, Default)]
pub struct SequentialExecutor;

impl ScenarioExecutor for SequentialExecutor {
    fn run_all(&self, scenarios: Vec<Box<dyn Scenario>>) -> Vec<ScenarioResult> {
        scenarios
            .iter()
            .map(|s| ScenarioResult {
                label: s.label(),
                report: s.execute(),
            })
            .collect()
    }
}

/// When a tenant's jobs reach the GAM.
#[derive(Clone, Debug)]
pub enum Schedule {
    /// `jobs` jobs submitted up front, as [`Pipeline::run`] does.
    Upfront {
        /// Jobs submitted.
        jobs: usize,
    },
    /// `per_instant` jobs at each instant, via
    /// [`Machine::submit_at_bounded`] when `admission_depth` is set and
    /// [`Machine::submit_at`] otherwise.
    At {
        /// Arrival instants, in submission order.
        instants: Vec<SimTime>,
        /// Jobs arriving at each instant.
        per_instant: usize,
        /// Admission-queue depth, or `None` to admit every arrival.
        admission_depth: Option<usize>,
    },
}

/// One job's submission: up front (`None`), or at an instant behind an
/// optional admission bound.
type Submission = Option<(SimTime, Option<usize>)>;

impl Schedule {
    /// Every job's submission, in job-id order.
    fn submissions(&self) -> Vec<Submission> {
        match *self {
            Schedule::Upfront { jobs } => vec![None; jobs],
            Schedule::At {
                ref instants,
                per_instant,
                admission_depth,
            } => instants
                .iter()
                .flat_map(|&at| vec![Some((at, admission_depth)); per_instant])
                .collect(),
        }
    }
}

/// One workload of a [`TenantMix`]; it owns the job ids from `first_job`
/// up to its schedule's job count.
#[derive(Clone, Debug)]
pub struct Tenant {
    /// Attribution name (`tenant.<name>.*` in the metrics snapshot).
    pub name: String,
    /// The compiled pipeline every job is built from.
    pub pipeline: Pipeline,
    /// The first job id.
    pub first_job: u64,
    /// When the jobs arrive.
    pub schedule: Schedule,
}

/// [`Tenant`]s co-running on one machine, as a cacheable [`Scenario`].
#[derive(Clone, Debug)]
pub struct TenantMix {
    label: String,
    blueprint: MachineBlueprint,
    seed: u64,
    tenants: Vec<Tenant>,
}

impl TenantMix {
    /// A mix on a machine built from `blueprint`, at the session seed.
    ///
    /// # Panics
    ///
    /// Panics if a tenant submits no jobs.
    pub fn new(
        label: impl Into<String>,
        blueprint: MachineBlueprint,
        tenants: Vec<Tenant>,
    ) -> Self {
        for t in &tenants {
            let jobs = t.schedule.submissions().len();
            assert!(
                jobs > 0,
                "TenantMix::new: tenant {} submits no jobs",
                t.name
            );
        }
        TenantMix {
            label: label.into(),
            blueprint,
            seed: reach_sim::rng::session_seed(),
            tenants,
        }
    }
}

impl Scenario for TenantMix {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn seed(&self) -> u64 {
        self.seed
    }

    fn blueprint(&self) -> MachineBlueprint {
        self.blueprint.clone()
    }

    /// Declares every tenant on its span, submits tenant by tenant in
    /// declaration order with consecutive job ids, and runs the machine.
    fn run(&self, machine: &mut Machine) -> RunReport {
        for t in &self.tenants {
            let end = t.first_job + t.schedule.submissions().len() as u64;
            machine.declare_tenant(&t.name, t.first_job, end);
        }
        for t in &self.tenants {
            for (id, submission) in (t.first_job..).zip(t.schedule.submissions()) {
                let (job, works) = t.pipeline.job_for_batch(id);
                match submission {
                    None => machine.submit(job, works),
                    Some((at, None)) => machine.submit_at(at, job, works),
                    Some((at, Some(depth))) => machine.submit_at_bounded(at, job, works, depth),
                }
            }
        }
        machine.run()
    }

    /// Every field but the label; `At` instants are keyed as times.
    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        let TenantMix {
            label: _,
            blueprint,
            seed,
            tenants,
        } = self;
        let mut b = FingerprintBuilder::new("reach-tenant-mix-v1");
        blueprint.fingerprint().write_into(&mut b);
        b.write_u64(*seed);
        b.write_usize(tenants.len());
        for Tenant {
            name,
            pipeline,
            first_job,
            schedule,
        } in tenants
        {
            b.write_str(name);
            pipeline.fingerprint().write_into(&mut b);
            b.write_u64(*first_job);
            match schedule {
                Schedule::Upfront { jobs } => {
                    b.write_str("upfront");
                    b.write_usize(*jobs);
                }
                Schedule::At {
                    instants,
                    per_instant,
                    admission_depth,
                } => {
                    b.write_str("at");
                    b.write_usize(instants.len());
                    instants.iter().for_each(|at| b.write_u64(at.as_ps()));
                    b.write_usize(*per_instant);
                    b.write_debug(admission_depth);
                }
            }
        }
        Some(ConfigFingerprint::from_builder(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Level, ReachConfig};
    use crate::config::SystemConfig;
    use crate::work::TaskWork;
    use reach_sim::SimDuration;

    fn demo_scenario(batches: usize) -> impl Scenario {
        let mut cfg = ReachConfig::new();
        let acc = cfg.register_acc("VGG16-VU9P", Level::OnChip);
        let mut pipeline = Pipeline::new(cfg.build().expect("demo config"));
        pipeline.call(acc, TaskWork::compute(1_000_000_000), "fe");
        TenantMix::new(
            format!("demo/x{batches}"),
            MachineBlueprint::paper(),
            vec![Tenant {
                name: "demo".into(),
                pipeline,
                first_job: 0,
                schedule: Schedule::Upfront { jobs: batches },
            }],
        )
    }

    #[test]
    fn execute_builds_and_runs() {
        let scenario = demo_scenario(2);
        let report = scenario.execute();
        assert_eq!(report.jobs, 2);
        assert_eq!(scenario.label(), "demo/x2");
        assert_eq!(scenario.seed(), DEFAULT_SEED);
    }

    #[test]
    fn sequential_executor_preserves_order() {
        let batch: Vec<Box<dyn Scenario>> = vec![
            Box::new(demo_scenario(1)),
            Box::new(demo_scenario(3)),
            Box::new(demo_scenario(2)),
        ];
        let results = SequentialExecutor.run_all(batch);
        let labels: Vec<_> = results.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["demo/x1", "demo/x3", "demo/x2"]);
        assert_eq!(results[1].report.jobs, 3);
    }

    fn pipeline(macs: u64) -> Pipeline {
        let mut cfg = ReachConfig::new();
        let acc = cfg.register_acc("VGG16-VU9P", Level::OnChip);
        let mut p = Pipeline::new(cfg.build().expect("demo config"));
        p.call(acc, TaskWork::compute(macs), "fe");
        p
    }

    fn at(instants: &[u64], per_instant: usize, depth: Option<usize>) -> Schedule {
        Schedule::At {
            instants: instants
                .iter()
                .map(|&ms| SimTime::ZERO + SimDuration::from_ms(ms))
                .collect(),
            per_instant,
            admission_depth: depth,
        }
    }

    fn mix() -> TenantMix {
        TenantMix::new(
            "mix",
            MachineBlueprint::paper(),
            vec![
                Tenant {
                    name: "a".into(),
                    pipeline: pipeline(1_000_000),
                    first_job: 0,
                    schedule: Schedule::Upfront { jobs: 2 },
                },
                Tenant {
                    name: "b".into(),
                    pipeline: pipeline(2_000_000),
                    first_job: 16,
                    schedule: at(&[1, 2], 2, Some(4)),
                },
            ],
        )
    }

    #[test]
    fn every_keyed_field_moves_the_fingerprint() {
        let base = mix().config_fingerprint();
        type Edit = (&'static str, fn(&mut TenantMix));
        let edits: Vec<Edit> = vec![
            ("blueprint", |m| {
                m.blueprint =
                    MachineBlueprint::new(SystemConfig::paper_table2().with_near_memory(2));
            }),
            ("seed", |m| m.seed ^= 1),
            ("tenant order", |m| m.tenants.reverse()),
            ("name", |m| m.tenants[0].name = "c".into()),
            ("first_job", |m| m.tenants[1].first_job += 1),
            ("pipeline", |m| m.tenants[0].pipeline = pipeline(1_000_001)),
            ("variant", |m| m.tenants[0].schedule = at(&[0], 2, None)),
            ("upfront jobs", |m| {
                m.tenants[0].schedule = Schedule::Upfront { jobs: 3 };
            }),
            ("one instant", |m| {
                m.tenants[1].schedule = at(&[1, 3], 2, Some(4))
            }),
            ("per_instant", |m| {
                m.tenants[1].schedule = at(&[1, 2], 1, Some(4))
            }),
            ("admission depth", |m| {
                m.tenants[1].schedule = at(&[1, 2], 2, Some(5));
            }),
            ("admission bound", |m| {
                m.tenants[1].schedule = at(&[1, 2], 2, None)
            }),
        ];
        for (field, edit) in edits {
            let mut m = mix();
            edit(&mut m);
            assert_ne!(m.config_fingerprint(), base, "{field} is not keyed");
        }
        let mut relabelled = mix();
        relabelled.label = "other".into();
        assert_eq!(relabelled.config_fingerprint(), base, "the label is keyed");
    }

    #[test]
    fn runs_every_tenant_on_its_derived_span() {
        let report = mix().execute();
        assert_eq!(report.jobs, 6);
        for (name, jobs) in [("a", 2), ("b", 4)] {
            assert_eq!(
                report.metrics.get(&format!("tenant.{name}.jobs_completed")),
                Some(&reach_sim::MetricValue::Counter { value: jobs }),
                "tenant {name}"
            );
        }
    }

    /// An up-front tenant alone is exactly `Pipeline::run`.
    #[test]
    fn an_upfront_tenant_runs_like_the_pipeline() {
        let mix = TenantMix::new(
            "solo",
            MachineBlueprint::paper(),
            vec![Tenant {
                name: "a".into(),
                pipeline: pipeline(1_000_000),
                first_job: 0,
                schedule: Schedule::Upfront { jobs: 3 },
            }],
        );
        let direct = pipeline(1_000_000).run(&mut MachineBlueprint::paper().instantiate(), 3);
        let report = mix.execute();
        assert_eq!(report.to_string(), direct.to_string());
        assert_eq!(report.completions, direct.completions);
    }

    #[test]
    #[should_panic(expected = "TenantMix::new: tenant idle submits no jobs")]
    fn a_tenant_without_jobs_is_rejected_when_built() {
        let _ = TenantMix::new(
            "empty",
            MachineBlueprint::paper(),
            vec![Tenant {
                name: "idle".into(),
                pipeline: pipeline(1),
                first_job: 0,
                schedule: at(&[1, 2], 0, None),
            }],
        );
    }
}
