#!/usr/bin/env python3
"""Host-time benchmark of the ReACH `experiments` suite.

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 20 --trace 0

Builds `perfbench/` (a Rust package of its own, against the repository's
crates by path) and measures one workload for about `--seconds` seconds,
starting a fresh `reach-perfbench` process for every repetition. Every
repetition's stdout is compared byte for byte with the expected output.

--trace 0 prints the end-to-end metrics (medians over the repetitions);
--trace 1 alternates untraced and traced repetitions, checks that tracing
changes neither stdout nor any cache ledger, runs the direct layer probes,
and prints the per-layer metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. A readable table with sample
counts goes to stderr. NOTES.md explains the workloads and metrics.

    python3 perfbench/run.py --write-expected

re-derives `expected/sim-serving.json` from the repository's `experiments`
binary (needed only when the suite's stdout legitimately changes).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join("tests", "golden", "experiments_stdout.txt")
EXPECTED = os.path.join(HERE, "expected", "sim-serving.json")

# The 17 CBIR simulation experiments: no graph, no recall training, no
# tables, no closed-form analytics.
SIM_SERVING_IDS = [
    "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "ablation-poll", "ablation-reconfig", "ablation-pipelining", "ablation-tile",
    "ablation-batch", "ablation-candidates", "ablation-rerank-home", "ablation-interleave",
    "extension-corun", "extension-fleet", "extension-traffic",
]
# Every experiment id in suite order (one `exp.<id>.s` span each).
ALL_IDS = [
    "table1", "table2", "table3", "table4",
    "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
    "ablation-poll", "ablation-reconfig", "ablation-pipelining", "ablation-tile",
    "ablation-batch", "ablation-candidates", "ablation-rerank-home", "ablation-interleave",
    "extension-recall", "extension-analytics", "extension-corun",
    "extension-fleet", "extension-traffic", "extension-graph", "extension-graph-corun",
]
DEFAULT_SEED = 0x5EAC4001  # reach_sim::rng::DEFAULT_SEED
# sim-serving maps --seed onto these session seeds, whose expected stdout
# digests are committed in expected/sim-serving.json.
SERVING_SEEDS = [DEFAULT_SEED, 1, 2, 3, 5, 7, 11, 13]

# The Fig. 13 headline the paper reports: 4.5x throughput, 2.2x latency,
# 52% energy reduction.
PAPER_FIG13 = {"throughput_gain": 4.5, "latency_gain": 2.2, "energy_reduction_pct": 52.0}

MIN_REPS = 3
SETUPS_PER_REP = 3
PROCESS_TIMEOUT_S = 150
PROBES = ["graph-pipeline", "graph-parts", "cbir-recall", "cbir-parts"]


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    """Spawns and checks `reach-perfbench` processes for one workload."""

    def __init__(self, binary, work):
        self.binary = binary
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.output_runs = 0
        self.output_mismatches = 0

    def fail(self, what):
        self.failed += 1
        log("FAILED:", what)

    def spawn(self, args):
        """Runs one process; returns (stdout bytes, stats dict, spawn ns) or None."""
        self.attempted += 1
        spawn_ns = time.time_ns()
        try:
            proc = subprocess.run([self.binary] + args, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail(f"timed out: {' '.join(args)}")
            return None
        err = proc.stderr.decode(errors="replace")
        stats = None
        for line in err.splitlines():
            if line.startswith("PERFBENCH "):
                stats = json.loads(line[len("PERFBENCH "):])
        if proc.returncode != 0 or stats is None:
            self.fail(f"exit {proc.returncode}: {' '.join(args)}\n{err[-2000:]}")
            return None
        return proc.stdout, stats, spawn_ns

    def render(self, opts, exp_args, expected):
        """One repetition whose stdout must equal `expected` (bytes, or a
        sha256 hex digest). Returns its stats, or None if it failed."""
        self.output_runs += 1
        got = self.spawn(["run"] + opts + ["--"] + exp_args)
        if got is None:
            self.output_mismatches += 1
            return None
        stdout, stats, spawn_ns = got
        ok = (hashlib.sha256(stdout).hexdigest() == expected if isinstance(expected, str)
              else stdout == expected)
        if not ok:
            self.output_mismatches += 1
            self.fail(f"stdout differs from the expected bytes: {' '.join(exp_args)}")
            return None
        stats["stdout"] = stdout
        stats["setup_s"] = (stats["ready_ns"] - spawn_ns) / 1e9
        return stats

    def setup_sample(self, exp_args):
        got = self.spawn(["setup", "--"] + exp_args)
        return None if got is None else (got[1]["ready_ns"] - got[2]) / 1e9

    def probe(self, name):
        got = self.spawn(["probe", name])
        return {} if got is None else got[1]


LEDGER_KEYS = ["scenarios", "mem_hits", "mem_misses", "disk_hits", "disk_misses",
               "fleet_hits", "fleet_misses"]


def corun_p99_delta_ms(stdout):
    """The co-run's CBIR p99 penalty at the first swept rate (4 queries/s)."""
    m = re.search(rb"p99-delta ([+-][0-9.]+)ms", stdout)
    return float(m.group(1)) if m else None


def golden_sections(golden):
    """The golden stdout split into one section per experiment."""
    parts = golden.split(b"\n\n")
    assert len(parts) == len(ALL_IDS), "golden stdout has an unexpected layout"
    return {i: p if p.endswith(b"\n") else p + b"\n" for i, p in zip(ALL_IDS, parts)}


class Workload:
    """The experiments arguments and expected output of one workload."""

    def __init__(self, name, seed, golden, work):
        self.name = name
        self.store = None
        if name == "suite-cold":
            self.args, self.expected = ["--jobs", "1"], golden
        elif name == "warm-replay":
            self.store = os.path.join(work, "store")
            self.args = ["--jobs", "1", "--result-cache-dir", self.store]
            self.expected = golden
        elif name == "sim-serving":
            session = SERVING_SEEDS[seed % len(SERVING_SEEDS)]
            with open(EXPECTED) as f:
                self.expected = json.load(f)[str(session)]
            self.args = ["--jobs", "1", "--no-result-cache", "--seed", str(session)] \
                + SIM_SERVING_IDS
        else:
            raise SystemExit(f"unknown workload '{name}'")

    def prime(self, bench):
        """warm-replay: one cold pass of the same executable fills the store."""
        if self.store is None:
            return True
        stats = bench.render([], self.args, self.expected)
        if stats is None:
            return False
        if stats["disk_hits"] != 0:
            bench.fail("priming pass found a store that was already warm")
            return False
        return True

    def check(self, bench, stats):
        """warm-replay must not silently measure a cold run: no disk miss,
        no fleet miss, and every memory miss answered by the disk tier."""
        if self.store is None or stats is None:
            return stats
        replayed = stats["mem_misses"] + stats["fleet_hits"] == stats["disk_hits"]
        if stats["disk_misses"] or stats["fleet_misses"] or not replayed \
                or stats.get("runs", 0):
            bench.fail("warm-replay run simulated: " +
                       json.dumps({k: stats.get(k) for k in LEDGER_KEYS + ["runs"]}))
            return None
        return stats


def measure(bench, wl, seconds, golden):
    """--trace 0: untraced repetitions for about `seconds` seconds."""
    reps, setups = [], []
    fig13 = None
    started = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - started < seconds:
        opts = ["--fig13"] if fig13 is None else []
        stats = wl.check(bench, bench.render(opts, wl.args, wl.expected))
        if stats is None:
            if bench.attempted > 4 * MIN_REPS and not reps:
                break
            continue
        reps.append(stats)
        setups.append(stats["setup_s"])
        fig13 = fig13 or stats.get("fig13")
        for _ in range(SETUPS_PER_REP):
            s = bench.setup_sample(wl.args)
            if s is not None:
                setups.append(s)

    if wl.name == "sim-serving":
        # The co-run does not run in this workload; measure its headline
        # penalty in one extra process at the default seed.
        probe = bench.render([], ["--jobs", "1", "extension-graph-corun"],
                             golden_sections(golden)["extension-graph-corun"])
        delta = [corun_p99_delta_ms(probe["stdout"])] if probe else []
    else:
        delta = [corun_p99_delta_ms(r["stdout"]) for r in reps]

    walls = [r["wall_s"] for r in reps]
    rss = [r["peak_rss_kib"] * 1024 / 1e6 for r in reps]
    fig13 = fig13 or {}
    metrics = {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}
    for key, short in [("throughput_gain", "throughput"), ("latency_gain", "latency"),
                       ("energy_reduction_pct", "energy")]:
        paper = PAPER_FIG13[key]
        err = [abs(fig13[key] - paper) / paper * 100] if key in fig13 else []
        metrics[f"paper_err.{short}_pct"] = err
    metrics["sim.corun_p99_delta_ms"] = [d for d in delta if d is not None]
    return metrics


def layer_values(r):
    """Per-layer values of one traced repetition."""
    layers = r["fingerprint_s"] + r["instantiate_s"] + r["run_sim_s"] + r["run_host_s"]
    exp_total = sum(e["s"] for e in r["experiments"])
    render_self = exp_total - r["runner_s"] - r["tracer_s"]
    runner_self = r["runner_s"] - layers
    lookups = r["mem_hits"] + r["mem_misses"]
    v = {
        "runner.busy_s": r["runner_s"],
        "runner.self_s": runner_self,
        "runner.scenarios": r["scenarios"],
        "runner.simulated": r["runs"],
        "runner.mem_hit_ratio": r["mem_hits"] / lookups if lookups else 0.0,
        "runner.disk_hits": r["disk_hits"],
        "runner.disk_misses": r["disk_misses"],
        "runner.fleet_hits": r["fleet_hits"],
        "fingerprint.s": r["fingerprint_s"],
        "fingerprint.calls": r["fingerprint_calls"],
        "instantiate.s": r["instantiate_s"],
        "instantiate.calls": r["instantiate_calls"],
        "run.sim_s": r["run_sim_s"],
        "run.host_s": r["run_host_s"],
        "sim.events": r["events"],
        "sim.events_per_s": r["events"] / r["run_sim_s"] if r["run_sim_s"] > 0 else 0.0,
        "sim.queue_depth_peak": r["queue_depth_peak"],
        "render.self_s": render_self,
        "trace.wall_s": r["wall_s"],
        "trace.self_s": r["tracer_s"],
        "trace.unaccounted_s": r["wall_s"] - (render_self + runner_self + layers
                                              + r["tracer_s"]),
    }
    spans = {e["id"]: e["s"] for e in r["experiments"]}
    for i in ALL_IDS:
        v[f"exp.{i}.s"] = spans.get(i, 0.0)
    return v


def measure_traced(bench, wl, seconds):
    """--trace 1: untraced/traced pairs, transparency checks, probes."""
    plain, traced = [], []
    started = time.monotonic()
    codec_dir = os.path.join(bench.work, "codec-store")
    while not traced or time.monotonic() - started < seconds:
        u = wl.check(bench, bench.render([], wl.args, wl.expected))
        opts = ["--trace"] + ([] if traced else ["--codec-dir", codec_dir])
        t = wl.check(bench, bench.render(opts, wl.args, wl.expected))
        if u is None or t is None:
            if bench.attempted > 8:
                break
            continue
        # Tracing must be transparent: same stdout (both already equal the
        # expected bytes) and the same memory, disk and fleet ledgers.
        diff = {k: (u[k], t[k]) for k in LEDGER_KEYS if u[k] != t[k]}
        if diff:
            bench.fail(f"traced ledgers differ from untraced: {diff}")
            continue
        if traced and any(t[k] != traced[0][k] for k in LEDGER_KEYS + ["runs", "events"]):
            bench.fail("traced counts differ between repetitions")
            continue
        plain.append(u)
        traced.append(t)

    metrics = {}
    if traced:
        per_rep = [layer_values(t) for t in traced]
        for name in per_rep[0]:
            metrics[name] = [v[name] for v in per_rep]
        overhead = median([t["wall_s"] for t in traced]) - median([p["wall_s"] for p in plain])
        metrics["trace.overhead_s"] = [overhead]
        for name, value in traced[0].get("codec", {}).items():
            metrics[name] = [value]
    for p in PROBES:
        for name, value in bench.probe(p).items():
            metrics[name] = [value]
    if traced:
        log_findings(traced[0])
    return metrics


def log_findings(t):
    """Measured facts the notes cite, from one traced repetition."""
    for e in t["experiments"]:
        if e["id"] == "extension-graph-corun" and e["events"]:
            log(f"finding: extension-graph-corun {e['events']} events: "
                f"{e['events'] / e['s']:.0f} event/s over the experiment's wall "
                f"(the experiments stderr rate), {e['events'] / e['run_sim_s']:.0f} event/s "
                f"over Scenario::run")
            for kind in ("solo", "shared"):
                runs = [r for r in t["run_records"] if r["label"].startswith("corun/")
                        and r["label"].endswith(kind)]
                events, secs = sum(r["events"] for r in runs), sum(r["s"] for r in runs)
                if secs > 0:
                    log(f"finding: co-run {kind} runs: {events} events in {secs:.3f}s of "
                        f"Scenario::run = {events / secs:.0f} event/s")
        if e["id"] == "extension-analytics":
            log(f"finding: extension-analytics {e['s']:.4f}s with {e['runner_s']:.6f}s "
                f"inside the executor")
        if e["id"] in ("extension-graph", "extension-graph-corun"):
            log(f"finding: {e['id']} {e['s']:.3f}s, fingerprint {e['fingerprint_s']:.3f}s, "
                f"{e['runs']} run(s)")


def report(metrics, want):
    """Prints the readable table to stderr and returns the JSON metrics for
    the names in `want` (name -> unit)."""
    out = {}
    log(f"{'metric':<34} {'median':>14} {'unit':<8} {'n':>4} {'min':>14} {'max':>14}")
    for k, vals in metrics.items():
        unit = want.get(k, "")
        if vals:
            value = median(vals)
            log(f"{k:<34} {value:>14.6f} {unit:<8} {len(vals):>4} "
                f"{min(vals):>14.6f} {max(vals):>14.6f}")
            if k in want:
                out[k] = {"value": value, "unit": unit}
        else:
            log(f"{k:<34} {'-':>14} {unit:<8} {0:>4}")
    return out


def cargo_env():
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    return env


def build():
    env = cargo_env()
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        log(proc.stdout.decode(errors="replace")[-4000:])
        raise SystemExit("perfbench: build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "reach-perfbench"), \
        env["CARGO_TARGET_DIR"]


def write_expected(golden):
    """Digests of sim-serving's stdout at every serving seed, rendered by the
    repository's own `experiments` binary."""
    env = cargo_env()
    digests = {}
    for seed in SERVING_SEEDS:
        out = subprocess.run(
            ["cargo", "run", "--release", "--offline", "--quiet", "-p", "reach-bench",
             "--bin", "experiments", "--", "--jobs", "1", "--no-result-cache",
             "--seed", str(seed)] + SIM_SERVING_IDS,
            env=env, stdout=subprocess.PIPE, check=True).stdout
        digests[str(seed)] = hashlib.sha256(out).hexdigest()
        if seed == DEFAULT_SEED:
            sections = golden_sections(golden)
            assert out == b"\n".join(sections[i] for i in SIM_SERVING_IDS), \
                "default-seed sim-serving output disagrees with the golden stdout"
    with open(EXPECTED, "w") as f:
        json.dump(digests, f, indent=2)
        f.write("\n")
    log(f"wrote {EXPECTED}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=["suite-cold", "sim-serving", "warm-replay"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--write-expected", action="store_true")
    a = ap.parse_args()
    os.chdir(ROOT)
    if not os.path.exists(GOLDEN):
        raise SystemExit(f"perfbench: {GOLDEN} not found; run from a full checkout")
    with open(GOLDEN, "rb") as f:
        golden = f.read()
    if a.write_expected:
        write_expected(golden)
        return
    if a.workload is None:
        ap.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if a.trace else "end_to_end"]}

    binary, target = build()
    work = os.path.join(target, "perfbench-work", f"{a.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        bench = Bench(binary, work)
        wl = Workload(a.workload, a.seed, golden, work)
        metrics = {}
        if wl.prime(bench):
            if a.trace:
                metrics = measure_traced(bench, wl, a.seconds)
            else:
                metrics = measure(bench, wl, a.seconds, golden)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    log(f"workload {a.workload}, seed {a.seed}, trace {a.trace}: "
        f"{bench.attempted} process(es), {bench.failed} failed")
    log(f"{'output_mismatch_rate':<34} {bench.output_mismatches / max(bench.output_runs, 1):>14.6f} "
        f"{'share':<8} {bench.output_runs:>4}")
    out = report(metrics, want)
    for k in want:
        if k not in out:
            bench.fail(f"metric {k} was not measured")
            out[k] = {"value": 0.0, "unit": want[k]}
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": out}))


if __name__ == "__main__":
    main()
