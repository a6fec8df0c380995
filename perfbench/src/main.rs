//! One measured repetition of the ReACH host-time benchmark, or one direct
//! layer probe. `run.py` starts a fresh process of this program for every
//! repetition, so each one pays the set-up a user of the `experiments`
//! binary pays.
//!
//! ```text
//! reach-perfbench run [--trace] [--fig13] [--codec-dir DIR] -- <experiments arguments>
//! reach-perfbench setup -- <experiments arguments>
//! reach-perfbench probe graph-pipeline|graph-parts|cbir-recall|cbir-parts
//! ```
//!
//! `run` renders the selected experiments through `reach_bench::renderers()`
//! and the `ScenarioRunner`, with the executor stack and argument grammar
//! of the `experiments` binary, and writes the bytes that binary prints to
//! stdout. `--trace` times the layers (see `trace.rs`); `--fig13` also
//! reports the Fig. 13 headline at full precision; `--codec-dir` times the
//! codec and disk store on the traced pass's reports. `setup` stops once
//! the runner is ready. Every mode ends with one `PERFBENCH {json}` line on
//! stderr.

mod json;
mod probe;
mod trace;

use json::Obj;
use reach::ScenarioExecutor;
use reach_bench::runner::{CapturedScenario, CountingExecutor, RecordingExecutor};
use reach_bench::{ExperimentsArgs, Renderer, ScenarioRunner};
use reach_cbir::CbirMapping;
use std::io::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use trace::{Ledger, TracedExecutor, Tracer};

/// Wall-clock nanoseconds since the Unix epoch, comparable with the
/// spawning process's clock.
fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
}

/// The process's peak resident set in KiB (`VmHWM`), 0 where unavailable.
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// A parsed command line and a runner ready to render.
struct Ready {
    runner: ScenarioRunner,
    selected: Vec<Renderer>,
    ready_ns: u64,
}

/// What the `experiments` binary does before its first render: parse,
/// install the seed, select experiments, build the runner (which opens and
/// checksums the disk store when one is named).
fn set_up(raw: &[String]) -> Result<Ready, String> {
    let renderers = reach_bench::renderers();
    let parsed = ExperimentsArgs::parse(raw).map_err(|e| e.to_string())?;
    parsed.common.apply_seed();
    if parsed.list || parsed.metrics.is_some() || parsed.bench_out.is_some() {
        return Err("--list, --metrics and --bench-out are not measured".into());
    }
    let selected = if parsed.ids.is_empty() {
        renderers
    } else {
        parsed
            .ids
            .iter()
            .map(|id| {
                renderers
                    .iter()
                    .find(|(name, _)| name == id)
                    .copied()
                    .ok_or_else(|| format!("unknown experiment '{id}'"))
            })
            .collect::<Result<_, _>>()?
    };
    let runner = parsed.common.runner();
    Ok(Ready {
        runner,
        selected,
        ready_ns: unix_ns(),
    })
}

/// Renders every selected experiment through `executor` as the
/// `experiments` binary does, calling `after` with each experiment's id
/// and seconds. Returns the stdout bytes and the seconds from the first
/// render to the last.
fn render_suite(
    selected: &[Renderer],
    executor: &dyn ScenarioExecutor,
    mut after: impl FnMut(&str, f64),
) -> (String, f64) {
    let mut out = String::new();
    let started = Instant::now();
    for (i, (id, render)) in selected.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let exp_started = Instant::now();
        out.push_str(&render(executor));
        after(id, exp_started.elapsed().as_secs_f64());
    }
    (out, started.elapsed().as_secs_f64())
}

/// Layer totals of a ledger, as metrics.
fn layer_metrics(l: &Ledger, out: &mut Obj) {
    out.num("runner_s", l.runner.as_secs_f64());
    out.num("fingerprint_s", l.fingerprint.as_secs_f64());
    out.int("fingerprint_calls", l.fingerprint_calls);
    out.num("instantiate_s", l.instantiate.as_secs_f64());
    out.int("instantiate_calls", l.instantiate_calls);
    out.num("run_sim_s", l.run_sim.as_secs_f64());
    out.num("run_host_s", l.run_host.as_secs_f64());
    out.int("runs", l.runs);
    out.int("events", l.events);
    out.int("queue_depth_peak", l.queue_depth_peak);
    out.num("tracer_s", l.tracer.as_secs_f64());
}

/// `a - b`, field by field; the queue-depth peak is the later running
/// maximum, as a peak does not subtract.
fn ledger_delta(a: &Ledger, b: &Ledger) -> Ledger {
    Ledger {
        runner: a.runner - b.runner,
        fingerprint: a.fingerprint - b.fingerprint,
        fingerprint_calls: a.fingerprint_calls - b.fingerprint_calls,
        instantiate: a.instantiate - b.instantiate,
        instantiate_calls: a.instantiate_calls - b.instantiate_calls,
        run_sim: a.run_sim - b.run_sim,
        run_host: a.run_host - b.run_host,
        runs: a.runs - b.runs,
        events: a.events - b.events,
        queue_depth_peak: a.queue_depth_peak,
        tracer: a.tracer - b.tracer,
    }
}

/// The Fig. 13 headline at full precision: ReACH's throughput and latency
/// gains over the on-chip baseline and its energy reduction in percent.
fn fig13_headline(executor: &dyn ScenarioExecutor) -> Obj {
    let rows = reach_cbir::experiments::fig13_with(executor);
    let find = |m: CbirMapping| {
        rows.iter()
            .find(|r| r.mapping == m)
            .expect("mapping present")
    };
    let (base, reach) = (find(CbirMapping::AllOnChip), find(CbirMapping::Proper));
    let mut out = Obj::default();
    out.num("throughput_gain", reach.throughput_gain);
    out.num("latency_gain", reach.latency_gain);
    out.num(
        "energy_reduction_pct",
        (1.0 - reach.energy_total / base.energy_total) * 100.0,
    );
    out
}

/// Options of the `run` mode that precede `--`.
#[derive(Default)]
struct RunOptions {
    trace: bool,
    fig13: bool,
    codec_dir: Option<String>,
}

fn run(opts: &RunOptions, raw: &[String]) -> Result<Obj, String> {
    let ready = set_up(raw)?;
    let runner = &ready.runner;
    let recording = RecordingExecutor::new(runner);
    let counting = CountingExecutor::new(&recording);
    // Kept like the `experiments` binary keeps them for `--metrics`.
    let mut captured: Vec<CapturedScenario> = Vec::new();
    let mut experiments: Vec<Obj> = Vec::new();

    let tracer = Arc::new(Tracer::default());
    let traced = TracedExecutor::new(&counting, Arc::clone(&tracer));
    let executor: &dyn ScenarioExecutor = if opts.trace { &traced } else { &counting };
    let mut before = tracer.snapshot();
    let (stdout, wall_s) = render_suite(&ready.selected, executor, |id, secs| {
        captured.extend(recording.drain());
        let mut exp = Obj::default();
        exp.str("id", id);
        exp.num("s", secs);
        if opts.trace {
            let now = tracer.snapshot();
            layer_metrics(&ledger_delta(&now, &before), &mut exp);
            before = now;
        }
        experiments.push(exp);
    });
    let peak_rss_kib = peak_rss_kib();

    let mut out = Obj::default();
    out.int("ready_ns", ready.ready_ns);
    out.num("wall_s", wall_s);
    out.int("peak_rss_kib", peak_rss_kib);
    out.int("scenarios", counting.scenarios_run() as u64);
    let (mem, disk, fleet) = (
        runner.cache_stats(),
        runner.disk_cache_stats(),
        runner.fleet_cache_stats(),
    );
    out.int("mem_hits", mem.hits);
    out.int("mem_misses", mem.misses);
    out.int("disk_hits", disk.hits);
    out.int("disk_misses", disk.misses);
    out.int("fleet_hits", fleet.hits);
    out.int("fleet_misses", fleet.misses);
    if opts.trace {
        layer_metrics(&tracer.snapshot(), &mut out);
        let runs: Vec<Obj> = tracer
            .take_runs()
            .into_iter()
            .map(|r| {
                let mut run = Obj::default();
                run.str("label", &r.label);
                run.num("s", r.elapsed.as_secs_f64());
                run.int("events", r.events);
                run
            })
            .collect();
        out.list("run_records", &runs);
    }
    out.list("experiments", &experiments);

    // Untimed extras, after every ledger above has been read.
    if let Some(dir) = &opts.codec_dir {
        let mut codec = Obj::default();
        probe::codec(
            &tracer.take_reports(),
            std::path::Path::new(dir),
            &mut codec,
        )?;
        out.obj("codec", &codec);
    }
    if opts.fig13 {
        out.obj("fig13", &fig13_headline(runner));
    }

    let mut stdout_handle = std::io::stdout().lock();
    stdout_handle
        .write_all(stdout.as_bytes())
        .and_then(|()| stdout_handle.flush())
        .map_err(|e| format!("writing stdout: {e}"))?;
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (head, rest) = match args.iter().position(|a| a == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None => (&args[..], &[][..]),
    };
    let result = match head.split_first() {
        Some((mode, flags)) if mode == "run" => {
            let mut opts = RunOptions::default();
            let mut it = flags.iter();
            let mut bad = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--trace" => opts.trace = true,
                    "--fig13" => opts.fig13 = true,
                    "--codec-dir" => opts.codec_dir = it.next().cloned(),
                    other => bad = Some(format!("unknown run option '{other}'")),
                }
            }
            match bad {
                Some(e) => Err(e),
                None => run(&opts, rest),
            }
        }
        Some((mode, [])) if mode == "setup" => set_up(rest).map(|ready| {
            let mut out = Obj::default();
            out.int("ready_ns", ready.ready_ns);
            out
        }),
        Some((mode, [name])) if mode == "probe" => probe::run(name),
        _ => Err(
            "usage: reach-perfbench run [--trace] [--fig13] [--codec-dir DIR] -- ARGS | \
                  setup -- ARGS | probe NAME"
                .into(),
        ),
    };
    match result {
        Ok(obj) => {
            eprintln!("PERFBENCH {}", obj.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("reach-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
