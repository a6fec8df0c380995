//! Timing wrappers around the public seams of the scenario layer.
//!
//! [`TracedExecutor`] wraps the executor stack the `experiments` binary
//! builds and times every `run_all` / `run_fleets` call (the runner layer).
//! It wraps each submitted [`Scenario`] in a [`TracedScenario`] and each
//! [`FleetScenario`] in a [`TracedFleet`], which time
//! `config_fingerprint`, `blueprint().instantiate()` and `run` separately.
//!
//! The wrappers change nothing the runner can observe: label, seed,
//! blueprint and fingerprint are forwarded unchanged, `execute` performs
//! exactly the trait default (no scenario in the suite overrides it), and
//! `run_fleets` is forwarded to the inner executor so fleet-level caching
//! still applies. The benchmark checks this on every traced run by
//! comparing stdout and cache ledgers with an untraced run.

use reach::fleet::{FleetBlueprint, FleetScenario};
use reach::{
    ConfigFingerprint, Machine, MachineBlueprint, MetricValue, RunReport, Scenario,
    ScenarioExecutor, ScenarioResult,
};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Span totals and counts of one traced pass.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Time inside the wrapped executor's `run_all` / `run_fleets`.
    pub runner: Duration,
    /// Time inside `config_fingerprint` (scenarios and fleets).
    pub fingerprint: Duration,
    /// `config_fingerprint` calls.
    pub fingerprint_calls: u64,
    /// Time inside `blueprint().instantiate()`.
    pub instantiate: Duration,
    /// Machines instantiated.
    pub instantiate_calls: u64,
    /// Time inside `run` for runs that processed simulator events.
    pub run_sim: Duration,
    /// Time inside `run` for runs with zero events (pure host derivation).
    pub run_host: Duration,
    /// `run` calls, i.e. scenarios actually executed rather than replayed.
    pub runs: u64,
    /// Simulator events processed by the executed runs.
    pub events: u64,
    /// Deepest event queue any executed run reached.
    pub queue_depth_peak: u64,
    /// The tracer's own time: wrapping scenarios and keeping reports.
    pub tracer: Duration,
}

/// Shared span sink for one traced pass.
#[derive(Debug, Default)]
pub struct Tracer {
    ledger: Mutex<Ledger>,
    reports: Mutex<Vec<RunReport>>,
    runs: Mutex<Vec<RunRecord>>,
}

/// One executed `Scenario::run`.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// The scenario's label.
    pub label: String,
    /// Time inside `run`.
    pub elapsed: Duration,
    /// Simulator events the run processed.
    pub events: u64,
}

impl Tracer {
    fn with<R>(&self, f: impl FnOnce(&mut Ledger) -> R) -> R {
        f(&mut self.ledger.lock().expect("trace ledger poisoned"))
    }

    /// A copy of the totals so far.
    pub fn snapshot(&self) -> Ledger {
        self.with(|l| l.clone())
    }

    /// Every executed run, in execution order.
    pub fn take_runs(&self) -> Vec<RunRecord> {
        std::mem::take(&mut self.runs.lock().expect("trace runs poisoned"))
    }

    /// Every report the executor returned, in submission order.
    pub fn take_reports(&self) -> Vec<RunReport> {
        std::mem::take(&mut self.reports.lock().expect("trace reports poisoned"))
    }

    fn fingerprint(
        &self,
        f: impl FnOnce() -> Option<ConfigFingerprint>,
    ) -> Option<ConfigFingerprint> {
        let started = Instant::now();
        let fp = f();
        let elapsed = started.elapsed();
        self.with(|l| {
            l.fingerprint += elapsed;
            l.fingerprint_calls += 1;
        });
        fp
    }
}

/// Final value of an engine counter in a report's telemetry (0 if absent).
fn counter(report: &RunReport, name: &str) -> u64 {
    match report.metrics.get(name) {
        Some(MetricValue::Counter { value }) => *value,
        _ => 0,
    }
}

/// A scenario whose fingerprint, instantiation and run are timed.
struct TracedScenario {
    inner: Box<dyn Scenario>,
    tracer: Arc<Tracer>,
}

impl Scenario for TracedScenario {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn seed(&self) -> u64 {
        self.inner.seed()
    }

    fn blueprint(&self) -> MachineBlueprint {
        self.inner.blueprint()
    }

    fn run(&self, machine: &mut Machine) -> RunReport {
        let started = Instant::now();
        let report = self.inner.run(machine);
        let elapsed = started.elapsed();
        let events = counter(&report, "engine.events_processed");
        let depth = counter(&report, "engine.queue_depth_peak");
        self.tracer.with(|l| {
            if events > 0 {
                l.run_sim += elapsed;
            } else {
                l.run_host += elapsed;
            }
            l.runs += 1;
            l.events += events;
            l.queue_depth_peak = l.queue_depth_peak.max(depth);
        });
        let record = RunRecord {
            label: self.inner.label(),
            elapsed,
            events,
        };
        self.tracer
            .runs
            .lock()
            .expect("trace runs poisoned")
            .push(record);
        report
    }

    /// The trait default, with the instantiation timed on its own.
    fn execute(&self) -> RunReport {
        let started = Instant::now();
        let mut machine = self.inner.blueprint().instantiate();
        let elapsed = started.elapsed();
        self.tracer.with(|l| {
            l.instantiate += elapsed;
            l.instantiate_calls += 1;
        });
        self.run(&mut machine)
    }

    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        self.tracer.fingerprint(|| self.inner.config_fingerprint())
    }
}

/// A fleet whose fingerprint is timed and whose shards are traced.
struct TracedFleet {
    inner: Box<dyn FleetScenario>,
    tracer: Arc<Tracer>,
}

impl FleetScenario for TracedFleet {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn fleet(&self) -> FleetBlueprint {
        self.inner.fleet()
    }

    fn shard_scenario(&self, shard: usize) -> Box<dyn Scenario> {
        Box::new(TracedScenario {
            inner: self.inner.shard_scenario(shard),
            tracer: Arc::clone(&self.tracer),
        })
    }

    fn aggregate(&self, shard_reports: Vec<RunReport>) -> RunReport {
        self.inner.aggregate(shard_reports)
    }

    fn config_fingerprint(&self) -> Option<ConfigFingerprint> {
        self.tracer.fingerprint(|| self.inner.config_fingerprint())
    }
}

/// Times the executor layer and traces everything submitted through it.
pub struct TracedExecutor<'a> {
    inner: &'a dyn ScenarioExecutor,
    tracer: Arc<Tracer>,
}

impl<'a> TracedExecutor<'a> {
    /// Traces `inner` into `tracer`.
    pub fn new(inner: &'a dyn ScenarioExecutor, tracer: Arc<Tracer>) -> Self {
        TracedExecutor { inner, tracer }
    }

    /// Runs `call` on the inner executor as one runner span; wrapping the
    /// batch and keeping the reports count as the tracer's own time.
    fn span<T>(
        &self,
        batch: Vec<T>,
        wrap: impl Fn(T) -> T,
        call: impl FnOnce(Vec<T>) -> Vec<ScenarioResult>,
    ) -> Vec<ScenarioResult> {
        let wrapping = Instant::now();
        let batch: Vec<T> = batch.into_iter().map(wrap).collect();
        let running = Instant::now();
        let results = call(batch);
        let keeping = Instant::now();
        self.tracer
            .reports
            .lock()
            .expect("trace reports poisoned")
            .extend(results.iter().map(|r| r.report.clone()));
        let done = Instant::now();
        self.tracer.with(|l| {
            l.runner += keeping - running;
            l.tracer += (running - wrapping) + (done - keeping);
        });
        results
    }
}

impl ScenarioExecutor for TracedExecutor<'_> {
    fn run_all(&self, scenarios: Vec<Box<dyn Scenario>>) -> Vec<ScenarioResult> {
        self.span(
            scenarios,
            |inner| {
                Box::new(TracedScenario {
                    inner,
                    tracer: Arc::clone(&self.tracer),
                })
            },
            |batch| self.inner.run_all(batch),
        )
    }

    // Forwarded, not the trait default: the default would expand fleets
    // through this wrapper's `run_all` and bypass the inner runner's
    // fleet-level result cache.
    fn run_fleets(&self, fleets: Vec<Box<dyn FleetScenario>>) -> Vec<ScenarioResult> {
        self.span(
            fleets,
            |inner| {
                Box::new(TracedFleet {
                    inner,
                    tracer: Arc::clone(&self.tracer),
                })
            },
            |batch| self.inner.run_fleets(batch),
        )
    }
}
