#!/usr/bin/env python3
"""Validators for the repository's JSON exports and golden files.

One place for every check CI used to run as inline heredoc-python, so the
same validations run locally:

    ci/validate.py metrics metrics.json          # reach-run-metrics-v1
    ci/validate.py bench BENCH_PR2.json BENCH_PR5.json ...
    ci/validate.py golden tests/golden/fingerprints.txt
    ci/validate.py fleet fleet_j1.out fleet_j4.out ...  # determinism captures
    ci/validate.py traffic traffic_j1.out traffic_j4.out ...
    ci/validate.py graph graph_j1.out graph_j4.out ...
    ci/validate.py diskcache cold.out:cold.err warm.out:warm.err ...
    ci/validate.py suite suite_j1.out suite_j4.out ...
    ci/validate.py identical a.out b.out ...     # plain byte-compare
    ci/validate.py selftest                      # the validators' own tests

Most capture kinds are fed by ci/determinism.sh, which records the same
experiment ids under a matrix of --jobs levels and cache modes.

The diskcache kind takes stdout:stderr capture pairs from runs sharing one
--result-cache-dir; the first pair is the cold run, the rest are warm.

Exit status is non-zero on the first failed check, with the offending file
and reason on stderr.
"""

import json
import re
import sys

# Minimum claimed speedup per before/after record schema. A record whose
# schema is missing here only gets the arithmetic checks.
SPEEDUP_BARS = {
    "reach-bench-pr3-v1": 1.5,
    "reach-bench-pr4-v1": 1.4,
    "reach-bench-pr5-v1": 1.3,
    "reach-bench-pr8-v1": 3.0,
    "reach-bench-pr9-v1": 1.3,
    "reach-bench-pr12-v1": 1.5,
    "reach-bench-pr14-v1": 1.15,
    "reach-bench-pr16-v1": 3.0,
    "reach-bench-pr17-v1": 1.1,
}

DISK_CACHE_LINE = re.compile(r"(\d+) disk hit\(s\), (\d+) disk miss\(es\)")

FINGERPRINT_LINE = re.compile(r"^([0-9a-f]{32}|-{32})  \S.*$")

FLEET_HEADER = "EXTENSION. FLEET SCATTER-GATHER"
FLEET_SWEEP = (1, 2, 4, 8, 16)
FLEET_PLACEMENTS = ("near-memory", "near-storage")

TRAFFIC_HEADER = "EXTENSION. TRAFFIC SERVING"
TRAFFIC_RATES = (1, 2, 4, 8, 16)
TRAFFIC_PLACEMENTS = ("on-chip", "near-memory", "near-storage", "ReACH")
TRAFFIC_ROW = re.compile(
    r"^\s*(?P<source>\S+) @\s*(?P<rate>\d+)/s"
    r"\s+admitted\s*(?P<admitted>\d+)/(?P<offered>\d+)"
    r"\s*rejected\s*(?P<rejected>\d+)"
    r"\s+mean\s+(?P<mean>[\d.]+)ms"
    r"\s+p50\s+(?P<p50>[\d.]+)ms"
    r"\s+p95\s+(?P<p95>[\d.]+)ms"
    r"\s+p99\s+(?P<p99>[\d.]+)ms"
    r"\s+p999\s+(?P<p999>[\d.]+)ms\s*$"
)

GRAPH_HEADER = "EXTENSION. GRAPH ANALYTICS"
GRAPH_CORUN_HEADER = "EXTENSION. GRAPH + CBIR CO-RUN"
GRAPH_SCALES = (1024, 4096, 16384)
GRAPH_PLACEMENTS = ("on-chip", "near-memory", "near-storage")
GRAPH_CORUN_RATES = (4, 8)
GRAPH_ROW = re.compile(
    r"^\s*(?P<workload>bfs|pagerank)\s+(?P<placement>\S+)\s+(?P<graph>\S+)"
    r"\s+(?P<edges>\d+) edges\s+(?P<makespan>[\d.]+)ms\s+(?P<evps>\d+) ev/s"
    r"\s+(?:frontiers \[(?P<frontiers>[\d ]*)\] visited (?P<visited>\d+)"
    r"|residuals \[(?P<residuals>[^\]]*)\])\s*$"
)
GRAPH_CORUN_ROW = re.compile(
    r"^\s*corun @\s*(?P<rate>\d+)/s\s+(?P<mode>solo|shared)"
    r"\s+admitted\s*(?P<admitted>\d+)/(?P<offered>\d+)"
    r"\s*rejected\s+(?P<rejected>\d+)"
    r"\s+cbir-p99\s+(?P<p99>[\d.]+)ms"
    r"\s+ddr-contended\s+(?P<ddr>\d+)cy"
    r"(?:\s+aimbus-queued (?P<aimbus>\d+)ps"
    r"\s+graph-jobs (?P<jobs>\d+)"
    r"\s+dispatches cbir/graph (?P<cbir_d>\d+)/(?P<graph_d>\d+)"
    r"\s+p99-delta (?P<delta>[+-][\d.]+)ms)?\s*$"
)


class ValidationError(Exception):
    pass


def require(cond, message):
    if not cond:
        raise ValidationError(message)


def validate_metrics(doc):
    """A reach-run-metrics-v1 telemetry export from the experiments binary."""
    require(doc.get("schema") == "reach-run-metrics-v1",
            f"bad schema {doc.get('schema')!r}")
    scenarios = doc.get("scenarios")
    require(scenarios, "no scenarios captured")
    for s in scenarios:
        require(s.get("metrics", {}).get("metrics"),
                f"empty metrics for {s.get('label')!r}")
    proc = doc.get("process", {}).get("metrics", {})
    for key in (
        "cbir.cache_hits",
        "cbir.cache_misses",
        "runner.result_cache_hits",
        "runner.result_cache_misses",
        "runner.result_cache_disk_hits",
        "runner.result_cache_disk_misses",
        "runner.fleet_cache_hits",
        "runner.fleet_cache_misses",
    ):
        require(key in proc, f"missing process counter {key}")
    return f"{len(scenarios)} scenario snapshot(s)"


def validate_bench(doc):
    """Either a reach-bench-v1 wall-clock report or a before/after record."""
    schema = doc.get("schema")
    if schema == "reach-bench-v1":
        require(doc.get("experiments"), "no experiments captured")
        return f"{len(doc['experiments'])} experiment(s)"
    if schema == "reach-bench-pr10-v1":
        return validate_bench_pr10(doc)
    require(isinstance(schema, str) and schema.startswith("reach-bench-pr"),
            f"bad schema {schema!r}")
    before = doc.get("before", {}).get("wall_s")
    after = doc.get("after", {}).get("wall_s")
    speedup = doc.get("speedup")
    require(isinstance(before, (int, float)) and before > 0,
            f"bad before.wall_s {before!r}")
    require(isinstance(after, (int, float)) and after > 0,
            f"bad after.wall_s {after!r}")
    require(after < before, f"no improvement: {before}s -> {after}s")
    require(isinstance(speedup, (int, float)), f"bad speedup {speedup!r}")
    require(abs(speedup - before / after) < 0.05,
            f"claimed speedup {speedup} != measured {before / after:.2f}")
    bar = SPEEDUP_BARS.get(schema)
    if bar is not None:
        require(speedup >= bar, f"speedup {speedup} below the {bar}x bar")
    return f"{before}s -> {after}s ({speedup}x)"


def validate_bench_pr10(doc):
    """The PR 10 contention record: wall-clock of the graph + co-run suite,
    graph traversal throughput, and the measured p99 price of co-residency.
    Unlike the pr3..pr9 records this is not a speedup claim — the claim is
    that co-running *costs* latency and that the record's numbers are
    internally consistent."""
    suite = doc.get("suite", {})
    require(isinstance(suite.get("wall_s"), (int, float))
            and suite["wall_s"] > 0, f"bad suite.wall_s {suite.get('wall_s')!r}")
    require(suite.get("ids"), "suite.ids missing")
    evps = doc.get("graph_events_per_sec", {})
    require(evps, "no graph_events_per_sec entries")
    for label, v in evps.items():
        require(isinstance(v, (int, float)) and v > 0,
                f"graph_events_per_sec[{label!r}] not positive: {v!r}")
    corun = doc.get("corun")
    require(corun, "no corun entries")
    for row in corun:
        rate = row.get("rate_per_sec")
        solo, shared = row.get("solo_p99_ms"), row.get("corun_p99_ms")
        delta = row.get("p99_delta_ms")
        require(isinstance(rate, int) and rate > 0, f"bad rate {rate!r}")
        require(isinstance(solo, (int, float)) and solo > 0,
                f"@{rate}/s: bad solo_p99_ms {solo!r}")
        require(isinstance(shared, (int, float)) and shared > solo,
                f"@{rate}/s: co-run p99 {shared!r} not strictly above "
                f"solo {solo!r}")
        require(isinstance(delta, (int, float))
                and abs(delta - (shared - solo)) < 2e-3,
                f"@{rate}/s: p99_delta_ms {delta!r} inconsistent")
        ddr_solo = row.get("solo_ddr_contended_cy")
        ddr_shared = row.get("corun_ddr_contended_cy")
        require(isinstance(ddr_solo, int) and isinstance(ddr_shared, int)
                and ddr_shared > ddr_solo,
                f"@{rate}/s: ddr contention gauge did not rise "
                f"({ddr_solo!r} -> {ddr_shared!r})")
        require(isinstance(row.get("graph_jobs"), int)
                and row["graph_jobs"] > 0,
                f"@{rate}/s: no graph batch jobs recorded")
    deltas = ", ".join(f"+{r['p99_delta_ms']}ms@{r['rate_per_sec']}/s"
                       for r in corun)
    return (f"{suite['wall_s']}s suite, {len(evps)} throughput row(s), "
            f"p99 deltas {deltas}")


def validate_golden_fingerprints(text):
    """The fingerprint stability file: one '<digest>  <label>' row per
    suite scenario, 32 lowercase hex digits. Every suite scenario derives
    its cache key, so a row of 32 dashes (a scenario that opts out of
    caching) is a regression."""
    lines = text.splitlines()
    require(len(lines) >= 100, f"expected the full suite, saw {len(lines)} rows")
    for i, line in enumerate(lines, 1):
        require(FINGERPRINT_LINE.match(line), f"malformed row {i}: {line!r}")
    opted_out = sum(1 for line in lines if line.startswith("-" * 32))
    require(opted_out == 0, f"{opted_out}/{len(lines)} scenarios uncacheable")
    return f"{len(lines)} fingerprint row(s), {opted_out} uncacheable"


def validate_fleet(captures):
    """Fleet-determinism captures: `experiments extension-fleet` stdout
    recorded at different --jobs levels and cache modes. All captures must
    be byte-identical and the reference must contain the full sweep (every
    placement x every shard count)."""
    require(len(captures) >= 2,
            f"need at least two captures to compare, got {len(captures)}")
    (ref_name, reference) = captures[0]
    for name, text in captures[1:]:
        require(text == reference,
                f"{name} differs from {ref_name} — fleet determinism broke")
    require(FLEET_HEADER in reference, "missing the fleet suite header")
    for placement in FLEET_PLACEMENTS:
        for n in FLEET_SWEEP:
            require(re.search(rf"{placement} x{n}\s+makespan", reference),
                    f"missing sweep row {placement} x{n}")
    rows = len(FLEET_PLACEMENTS) * len(FLEET_SWEEP)
    return f"{len(captures)} identical capture(s), {rows} sweep rows"


def validate_traffic(captures):
    """Traffic-determinism captures: `experiments extension-traffic` stdout
    recorded at different --jobs levels and cache modes. All captures must
    be byte-identical; the reference must sweep every placement across every
    arrival rate with a sane admission ledger (admitted + rejected ==
    offered), a knee shape that makes physical sense (mean latency and
    rejections both non-decreasing in offered load, nothing rejected at the
    lowest rate), and a trace demo row that replays the bursty row exactly."""
    require(len(captures) >= 2,
            f"need at least two captures to compare, got {len(captures)}")
    (ref_name, reference) = captures[0]
    for name, text in captures[1:]:
        require(text == reference,
                f"{name} differs from {ref_name} — traffic determinism broke")
    require(TRAFFIC_HEADER in reference, "missing the traffic suite header")

    rows = {}
    for line in reference.splitlines():
        m = TRAFFIC_ROW.match(line)
        if m:
            rows.setdefault(m.group("source"), []).append(m.groupdict())
    for source, series in rows.items():
        for row in series:
            require(int(row["admitted"]) + int(row["rejected"])
                    == int(row["offered"]),
                    f"{source} @ {row['rate']}/s: admission ledger does not "
                    f"balance ({row['admitted']} + {row['rejected']} != "
                    f"{row['offered']})")
    for placement in TRAFFIC_PLACEMENTS:
        series = rows.get(placement, [])
        require([int(r["rate"]) for r in series] == list(TRAFFIC_RATES),
                f"{placement}: expected rate sweep {TRAFFIC_RATES}, "
                f"saw {[int(r['rate']) for r in series]}")
        require(int(series[0]["rejected"]) == 0,
                f"{placement}: rejections below the knee (at the lowest rate)")
        for prev, cur in zip(series, series[1:]):
            require(float(cur["mean"]) >= float(prev["mean"]),
                    f"{placement}: mean latency fell from "
                    f"{prev['mean']}ms to {cur['mean']}ms as load rose")
            require(int(cur["rejected"]) >= int(prev["rejected"]),
                    f"{placement}: rejections fell from "
                    f"{prev['rejected']} to {cur['rejected']} as load rose")
    bursty, trace = rows.get("bursty", []), rows.get("trace", [])
    require(len(bursty) == 1 and len(trace) == 1,
            "missing the bursty/trace demo row pair")
    require(bursty[0] == dict(trace[0], source="bursty"),
            "the trace row does not replay the bursty row")
    n = len(TRAFFIC_PLACEMENTS) * len(TRAFFIC_RATES) + 2
    return f"{len(captures)} identical capture(s), {n} traffic rows"


def validate_graph(captures):
    """Graph-determinism captures: `experiments extension-graph
    extension-graph-corun` stdout recorded at different --jobs levels and
    cache modes. All captures must be byte-identical; the reference must
    contain the full placement x scale sweep with a shape that re-checks
    the traversal semantics (every BFS frontier positive and summing to the
    visited count, PageRank residuals strictly decreasing) and a co-run
    sweep with balanced admission ledgers, a strictly positive p99 price of
    co-residency at every rate, and contention gauges that actually move
    when the graph tenant shares the machine."""
    require(len(captures) >= 2,
            f"need at least two captures to compare, got {len(captures)}")
    (ref_name, reference) = captures[0]
    for name, text in captures[1:]:
        require(text == reference,
                f"{name} differs from {ref_name} — graph determinism broke")
    require(GRAPH_HEADER in reference, "missing the graph suite header")
    require(GRAPH_CORUN_HEADER in reference, "missing the co-run suite header")

    sweep = {}
    corun = {}
    for line in reference.splitlines():
        m = GRAPH_ROW.match(line)
        if m:
            sweep[(m.group("workload"), m.group("placement"),
                   m.group("graph"))] = m.groupdict()
            continue
        m = GRAPH_CORUN_ROW.match(line)
        if m:
            corun[(int(m.group("rate")), m.group("mode"))] = m.groupdict()

    for placement in GRAPH_PLACEMENTS:
        for scale in GRAPH_SCALES:
            for workload, kind in (("bfs", "rmat"), ("pagerank", "uniform")):
                row = sweep.get((workload, placement, f"{kind}/{scale}"))
                require(row is not None,
                        f"missing sweep row {workload}/{placement}/"
                        f"{kind}/{scale}")
                require(float(row["makespan"]) > 0 and int(row["evps"]) > 0,
                        f"{workload}/{placement}/{kind}/{scale}: empty run")
                if workload == "bfs":
                    frontiers = [int(x) for x in row["frontiers"].split()]
                    require(frontiers and all(f > 0 for f in frontiers),
                            f"bfs {placement} {kind}/{scale}: empty frontier")
                    require(sum(frontiers) == int(row["visited"]),
                            f"bfs {placement} {kind}/{scale}: frontiers sum "
                            f"{sum(frontiers)} != visited {row['visited']}")
                else:
                    residuals = [float(x) for x in row["residuals"].split()]
                    require(len(residuals) >= 2,
                            f"pagerank {placement} {kind}/{scale}: too few "
                            "residuals")
                    for prev, cur in zip(residuals, residuals[1:]):
                        require(cur < prev,
                                f"pagerank {placement} {kind}/{scale}: "
                                f"residual rose ({prev} -> {cur})")

    for rate in GRAPH_CORUN_RATES:
        solo = corun.get((rate, "solo"))
        shared = corun.get((rate, "shared"))
        require(solo is not None and shared is not None,
                f"missing solo/shared co-run pair at {rate}/s")
        for mode, row in (("solo", solo), ("shared", shared)):
            require(int(row["admitted"]) + int(row["rejected"])
                    == int(row["offered"]),
                    f"corun @{rate}/s {mode}: admission ledger does not "
                    f"balance ({row['admitted']} + {row['rejected']} != "
                    f"{row['offered']})")
        require(shared["delta"] is not None,
                f"corun @{rate}/s: shared row lost its contention fields")
        solo_p99, shared_p99 = float(solo["p99"]), float(shared["p99"])
        require(shared_p99 > solo_p99,
                f"corun @{rate}/s: co-run p99 {shared_p99}ms not strictly "
                f"above solo {solo_p99}ms — no measurable contention")
        delta = float(shared["delta"])
        require(abs(delta - (shared_p99 - solo_p99)) < 2e-3,
                f"corun @{rate}/s: p99-delta {delta}ms inconsistent with "
                f"{shared_p99}ms - {solo_p99}ms")
        require(int(shared["ddr"]) > int(solo["ddr"]),
                f"corun @{rate}/s: ddr-contended did not rise under co-run "
                f"({solo['ddr']}cy -> {shared['ddr']}cy)")
        require(int(shared["jobs"]) > 0,
                f"corun @{rate}/s: the graph tenant completed no jobs")
        require(int(shared["cbir_d"]) > 0 and int(shared["graph_d"]) > 0,
                f"corun @{rate}/s: one tenant never dispatched")
    n_corun = len(GRAPH_CORUN_RATES) * 2
    return (f"{len(captures)} identical capture(s), {len(sweep)} sweep "
            f"row(s), {n_corun} co-run row(s)")


def validate_identical(captures):
    """The weakest capture contract: at least two captures, all
    byte-identical. For outputs with no dedicated row validator (e.g. the
    sweep binary under cache on/off)."""
    require(len(captures) >= 2,
            f"need at least two captures to compare, got {len(captures)}")
    (ref_name, reference) = captures[0]
    require(reference.strip(), f"{ref_name} is empty")
    for name, text in captures[1:]:
        require(text == reference, f"{name} differs from {ref_name}")
    return f"{len(captures)} identical capture(s)"


SUITE_HEADER = "TABLE I. MEMORY AND COMPUTE REQUIREMENTS"


def validate_suite(captures):
    """Suite-determinism captures: full `experiments` stdout recorded at
    different --jobs levels and cache modes. Every capture must be
    byte-identical, and the reference must be a full-suite run."""
    require(len(captures) >= 2,
            f"need at least two captures to compare, got {len(captures)}")
    (ref_name, reference) = captures[0]
    require(SUITE_HEADER in reference,
            f"{ref_name} is not a full-suite capture (missing the Table I "
            "header)")
    for name, text in captures[1:]:
        require(text == reference, f"{name} differs from {ref_name}")
    return f"{len(captures)} identical capture(s)"


def validate_diskcache(pairs):
    """Persistent-cache captures: (name, stdout, stderr) triples from
    `experiments` or `sweep` runs sharing one --result-cache-dir. The first
    triple is the cold run, the rest are warm. Stdout must be byte-identical
    everywhere (the cache may only move the wall clock); the cold run must
    have probed the disk and found nothing (misses > 0, hits == 0 on a fresh
    directory); every warm run must have replayed *everything* from disk
    (hits > 0, misses == 0 — zero simulations)."""
    require(len(pairs) >= 2,
            f"need a cold and at least one warm capture, got {len(pairs)}")

    def cache_line(name, stderr_text):
        m = DISK_CACHE_LINE.search(stderr_text)
        require(m, f"{name}: no disk-cache ledger on stderr")
        return int(m.group(1)), int(m.group(2))

    (cold_name, cold_stdout, cold_stderr) = pairs[0]
    cold_hits, cold_misses = cache_line(cold_name, cold_stderr)
    require(cold_misses > 0, f"{cold_name}: cold run never probed the disk "
            "tier (is --result-cache-dir set and the directory fresh?)")
    require(cold_hits == 0,
            f"{cold_name}: cold run hit a supposedly fresh store")
    for name, stdout_text, stderr_text in pairs[1:]:
        require(stdout_text == cold_stdout,
                f"{name} stdout differs from {cold_name} — the persistent "
                "cache changed the results")
        hits, misses = cache_line(name, stderr_text)
        require(misses == 0, f"{name}: warm run simulated {misses} "
                "scenario(s) instead of replaying from disk")
        require(hits > 0, f"{name}: warm run never hit the disk tier")
    return (f"cold run stored {cold_misses} result(s), "
            f"{len(pairs) - 1} warm run(s) replayed everything")


def check_diskcache(paths):
    pairs = []
    for spec in paths:
        out_path, sep, err_path = spec.partition(":")
        require(sep == ":" and out_path and err_path,
                f"expected STDOUT:STDERR capture pair, got {spec!r}")
        with open(out_path, encoding="utf-8") as f:
            stdout_text = f.read()
        with open(err_path, encoding="utf-8") as f:
            stderr_text = f.read()
        pairs.append((out_path, stdout_text, stderr_text))
    print(f"diskcache ok: {validate_diskcache(pairs)}")


def check_captures(kind, validate, paths):
    captures = []
    for path in paths:
        with open(path, encoding="utf-8") as f:
            captures.append((path, f.read()))
    print(f"{kind} ok: {validate(captures)}")


def check_file(kind, path):
    if kind == "golden":
        with open(path, encoding="utf-8") as f:
            summary = validate_golden_fingerprints(f.read())
    else:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        summary = {"metrics": validate_metrics, "bench": validate_bench}[kind](doc)
    print(f"{path} ok: {summary}")


def selftest():
    """Unit-style checks that the validators accept known-good documents
    and reject each seeded defect."""
    good_metrics = {
        "schema": "reach-run-metrics-v1",
        "scenarios": [{"label": "a", "metrics": {"metrics": [{"name": "x"}]}}],
        "process": {"metrics": {
            "cbir.cache_hits": 1, "cbir.cache_misses": 2,
            "runner.result_cache_hits": 3, "runner.result_cache_misses": 4,
            "runner.result_cache_disk_hits": 0,
            "runner.result_cache_disk_misses": 0,
            "runner.fleet_cache_hits": 0, "runner.fleet_cache_misses": 10,
        }},
    }
    validate_metrics(good_metrics)

    good_record = {
        "schema": "reach-bench-pr5-v1",
        "before": {"wall_s": 0.30}, "after": {"wall_s": 0.15}, "speedup": 2.0,
    }
    validate_bench(good_record)
    validate_bench({"schema": "reach-bench-v1", "experiments": [{"id": "fig13"}]})

    good_golden = "\n".join(f"{i:032x}  sweep/point{i}" for i in range(120))
    validate_golden_fingerprints(good_golden)

    good_fleet = FLEET_HEADER + "\n" + "\n".join(
        f"  {placement} x{n}  makespan 1.000ms"
        for placement in FLEET_PLACEMENTS for n in FLEET_SWEEP
    )
    validate_fleet([("j1", good_fleet), ("j4", good_fleet), ("j8", good_fleet)])

    def traffic_row(source, rate, admitted, rejected, mean):
        return (f"  {source} @ {rate}/s  admitted {admitted}/24 "
                f"rejected {rejected}  mean {mean:.3f}ms  p50 {mean:.3f}ms  "
                f"p95 {mean:.3f}ms  p99 {mean:.3f}ms  p999 {mean:.3f}ms")

    def traffic_capture(lowest_rejected=0, mean_step=100.0, trace_mean=300.0):
        lines = [TRAFFIC_HEADER]
        for placement in TRAFFIC_PLACEMENTS:
            for i, rate in enumerate(TRAFFIC_RATES):
                rejected = lowest_rejected if i == 0 else 2 * i
                lines.append(traffic_row(placement, rate, 24 - rejected,
                                         rejected, 200.0 + mean_step * i))
        lines.append(traffic_row("bursty", 4, 17, 7, 300.0))
        lines.append(traffic_row("trace", 4, 17, 7, trace_mean))
        return "\n".join(lines)

    good_traffic = traffic_capture()
    validate_traffic([("j1", good_traffic), ("j4", good_traffic),
                      ("j8", good_traffic)])

    def rejects(fn, arg, why):
        try:
            fn(arg)
        except ValidationError:
            return
        raise SystemExit(f"selftest: validator accepted a bad document: {why}")

    bad = json.loads(json.dumps(good_metrics))
    del bad["process"]["metrics"]["runner.result_cache_hits"]
    rejects(validate_metrics, bad, "missing result-cache counter")

    bad = json.loads(json.dumps(good_metrics))
    del bad["process"]["metrics"]["runner.result_cache_disk_hits"]
    rejects(validate_metrics, bad, "missing disk-cache counter")

    bad = json.loads(json.dumps(good_metrics))
    bad["scenarios"] = []
    rejects(validate_metrics, bad, "no scenarios")

    bad = dict(good_record, speedup=1.2)
    rejects(validate_bench, bad, "speedup below bar and inconsistent")

    bad = dict(good_record, after={"wall_s": 0.24}, speedup=1.25)
    rejects(validate_bench, bad, "pr5 speedup below the 1.3x bar")

    bad = dict(good_record, before={"wall_s": 0.10})
    rejects(validate_bench, bad, "after slower than before")

    rejects(validate_bench, {"schema": "reach-bench-v1", "experiments": []},
            "empty experiment list")

    rejects(validate_golden_fingerprints, "deadbeef  too-short-digest",
            "short digest / short file")
    rejects(validate_golden_fingerprints,
            "\n".join(["-" * 32 + f"  closure/{i}" for i in range(120)]),
            "everything uncacheable")
    rejects(validate_golden_fingerprints,
            good_golden + "\n" + "-" * 32 + "  closure/corun",
            "one uncacheable row")

    rejects(validate_fleet,
            [("j1", good_fleet), ("j4", good_fleet + " drifted")],
            "non-identical fleet captures")
    rejects(validate_fleet, [("j1", good_fleet)], "a single capture")
    truncated = "\n".join(good_fleet.splitlines()[:-1])
    rejects(validate_fleet,
            [("j1", truncated), ("j4", truncated)],
            "a capture missing the x16 sweep row")
    rejects(validate_fleet,
            [("j1", "no header"), ("j4", "no header")],
            "a capture without the fleet header")

    rejects(validate_traffic,
            [("j1", good_traffic), ("j4", good_traffic + " drifted")],
            "non-identical traffic captures")
    rejects(validate_traffic, [("j1", good_traffic)],
            "a single traffic capture")
    below_knee = traffic_capture(lowest_rejected=3)
    rejects(validate_traffic, [("j1", below_knee), ("j4", below_knee)],
            "rejections at the lowest offered rate")
    non_monotone = traffic_capture(mean_step=-10.0)
    rejects(validate_traffic, [("j1", non_monotone), ("j4", non_monotone)],
            "mean latency falling as load rises")
    trace_drift = traffic_capture(trace_mean=301.0)
    rejects(validate_traffic, [("j1", trace_drift), ("j4", trace_drift)],
            "a trace row that does not replay the bursty row")
    short = "\n".join(good_traffic.splitlines()[:-3])
    rejects(validate_traffic, [("j1", short), ("j4", short)],
            "a capture missing sweep and demo rows")
    rejects(validate_traffic, [("j1", "no header"), ("j4", "no header")],
            "a capture without the traffic header")

    bad = dict(good_record, schema="reach-bench-pr8-v1",
               after={"wall_s": 0.12}, speedup=2.5)
    rejects(validate_bench, bad, "pr8 speedup below the 3.0x bar")

    validate_bench({"schema": "reach-bench-pr9-v1",
                    "before": {"wall_s": 0.30}, "after": {"wall_s": 0.20},
                    "speedup": 1.5})
    bad = dict(good_record, schema="reach-bench-pr9-v1",
               after={"wall_s": 0.24}, speedup=1.25)
    rejects(validate_bench, bad, "pr9 speedup below the 1.3x bar")

    validate_bench({"schema": "reach-bench-pr12-v1",
                    "before": {"wall_s": 5.0}, "after": {"wall_s": 2.0},
                    "speedup": 2.5})
    bad = dict(good_record, schema="reach-bench-pr12-v1",
               after={"wall_s": 0.24}, speedup=1.25)
    rejects(validate_bench, bad, "pr12 speedup below the 1.5x bar")

    validate_bench({"schema": "reach-bench-pr14-v1",
                    "before": {"wall_s": 1.6}, "after": {"wall_s": 1.25},
                    "speedup": 1.28})
    bad = dict(good_record, schema="reach-bench-pr14-v1",
               after={"wall_s": 0.28}, speedup=1.07)
    rejects(validate_bench, bad, "pr14 speedup below the 1.15x bar")

    validate_bench({"schema": "reach-bench-pr17-v1",
                    "before": {"wall_s": 0.5}, "after": {"wall_s": 0.4},
                    "speedup": 1.25})
    bad = dict(good_record, schema="reach-bench-pr17-v1",
               after={"wall_s": 0.28}, speedup=1.07)
    rejects(validate_bench, bad, "pr17 speedup below the 1.1x bar")

    good_suite = SUITE_HEADER + "\n  Feature extraction  552 MB\nFIG 8.\n"
    validate_suite([("j1", good_suite), ("j4", good_suite),
                    ("j8", good_suite)])
    rejects(validate_suite, [("j1", good_suite)], "a single suite capture")
    rejects(validate_suite,
            [("j1", good_suite), ("j4", good_suite + "drift")],
            "non-identical suite captures")
    rejects(validate_suite, [("j1", "no header"), ("j4", "no header")],
            "a suite capture without the suite header")

    rows = "sweep/ReACH/nm4-ns4\nmakespan 1.000ms\n"
    cold = ("cold", rows, "(result cache: 0 mem hit(s), 1 mem miss(es), "
            "0 disk hit(s), 1 disk miss(es))")
    warm = ("warm", rows, "(result cache: 0 mem hit(s), 1 mem miss(es), "
            "1 disk hit(s), 0 disk miss(es))")
    validate_diskcache([cold, warm, warm])

    rejects(validate_diskcache, [cold], "a cold capture with no warm runs")
    rejects(validate_diskcache, [cold, ("warm", rows + "drift", warm[2])],
            "a warm run whose stdout drifted")
    rejects(validate_diskcache, [cold, ("warm", rows, cold[2])],
            "a warm run that simulated (nonzero disk misses)")
    rejects(validate_diskcache,
            [cold, ("warm", rows, "ran 1 scenario(s) in 0.1s")],
            "a warm run with no cache ledger on stderr")
    rejects(validate_diskcache, [("cold", rows, warm[2]), warm],
            "a cold run that hit a supposedly fresh store")
    rejects(validate_diskcache,
            [("cold", rows, "(result cache: 1 mem hit(s), 0 mem miss(es), "
              "0 disk hit(s), 0 disk miss(es))"), warm],
            "a cold run that never probed the disk tier")

    def graph_capture(visited=6, residuals="2.6e-1 8.1e-2 2.7e-2",
                      shared_p99=343.597, shared_ddr=4191788,
                      shared_admitted=None, shared_rejected=0,
                      graph_jobs=32, drop_tail=0):
        lines = [GRAPH_HEADER + " (BFS + PageRank, avg degree 8)"]
        for placement in GRAPH_PLACEMENTS:
            for scale in GRAPH_SCALES:
                lines.append(f"  bfs {placement} rmat/{scale}  8192 edges  "
                             f"0.100ms  1000000 ev/s  frontiers [1 3 2] "
                             f"visited {visited}")
                lines.append(f"  pagerank {placement} uniform/{scale}  "
                             f"8192 edges  0.100ms  1000000 ev/s  "
                             f"residuals [{residuals}]")
        lines.append(GRAPH_CORUN_HEADER + " (16 offered query batches)")
        solo_p99 = 274.878
        if shared_admitted is None:
            shared_admitted = 16 - shared_rejected
        for rate in GRAPH_CORUN_RATES:
            lines.append(f"  corun @{rate:>2}/s    solo  admitted 16/16 "
                         f"rejected  0  cbir-p99   {solo_p99:.3f}ms  "
                         f"ddr-contended        0cy")
            lines.append(f"  corun @{rate:>2}/s  shared  admitted "
                         f"{shared_admitted}/16 rejected {shared_rejected}  "
                         f"cbir-p99   {shared_p99:.3f}ms  ddr-contended  "
                         f"{shared_ddr}cy  aimbus-queued 0ps  graph-jobs "
                         f"{graph_jobs}  dispatches cbir/graph 144/192  "
                         f"p99-delta {shared_p99 - solo_p99:+.3f}ms")
        if drop_tail:
            lines = lines[:-drop_tail]
        return "\n".join(lines)

    good_graph = graph_capture()
    validate_graph([("j1", good_graph), ("j4", good_graph),
                    ("j8", good_graph)])

    rejects(validate_graph,
            [("j1", good_graph), ("j4", good_graph + " drifted")],
            "non-identical graph captures")
    rejects(validate_graph, [("j1", good_graph)], "a single graph capture")
    bad = graph_capture(visited=7)
    rejects(validate_graph, [("j1", bad), ("j4", bad)],
            "frontiers that do not sum to the visited count")
    bad = graph_capture(residuals="2.6e-1 8.1e-2 9.9e-2")
    rejects(validate_graph, [("j1", bad), ("j4", bad)],
            "a rising PageRank residual")
    bad = graph_capture(shared_p99=274.878)
    rejects(validate_graph, [("j1", bad), ("j4", bad)],
            "a co-run p99 not strictly above solo")
    bad = graph_capture(shared_ddr=0)
    rejects(validate_graph, [("j1", bad), ("j4", bad)],
            "a ddr contention gauge that never moved")
    bad = graph_capture(shared_admitted=16, shared_rejected=2)
    rejects(validate_graph, [("j1", bad), ("j4", bad)],
            "a co-run admission ledger that does not balance")
    bad = graph_capture(graph_jobs=0)
    rejects(validate_graph, [("j1", bad), ("j4", bad)],
            "a co-run with no graph batch jobs")
    bad = graph_capture(drop_tail=1)
    rejects(validate_graph, [("j1", bad), ("j4", bad)],
            "a capture missing the shared co-run row")
    rejects(validate_graph, [("j1", "no header"), ("j4", "no header")],
            "a capture without the graph headers")

    validate_identical([("a", "same bytes"), ("b", "same bytes")])
    rejects(validate_identical, [("a", "x"), ("b", "y")],
            "non-identical plain captures")
    rejects(validate_identical, [("a", "x")], "a single plain capture")
    rejects(validate_identical, [("a", ""), ("b", "")],
            "empty plain captures")

    good_pr10 = {
        "schema": "reach-bench-pr10-v1",
        "suite": {"ids": ["extension-graph", "extension-graph-corun"],
                  "wall_s": 0.5},
        "graph_events_per_sec": {"bfs/near-memory/rmat/16384": 1.5e8},
        "corun": [{
            "rate_per_sec": 4, "offered": 16,
            "solo_p99_ms": 274.878, "corun_p99_ms": 343.597,
            "p99_delta_ms": 68.719,
            "solo_ddr_contended_cy": 0, "corun_ddr_contended_cy": 4191788,
            "graph_jobs": 32,
        }],
    }
    validate_bench(good_pr10)

    bad = json.loads(json.dumps(good_pr10))
    bad["corun"][0]["corun_p99_ms"] = bad["corun"][0]["solo_p99_ms"]
    rejects(validate_bench, bad, "a pr10 record with no p99 price")
    bad = json.loads(json.dumps(good_pr10))
    bad["corun"][0]["p99_delta_ms"] = 1.0
    rejects(validate_bench, bad, "a pr10 record with inconsistent delta")
    bad = json.loads(json.dumps(good_pr10))
    bad["corun"][0]["corun_ddr_contended_cy"] = 0
    rejects(validate_bench, bad, "a pr10 record whose ddr gauge never moved")
    bad = json.loads(json.dumps(good_pr10))
    bad["corun"] = []
    rejects(validate_bench, bad, "a pr10 record with no corun entries")
    bad = json.loads(json.dumps(good_pr10))
    bad["graph_events_per_sec"] = {}
    rejects(validate_bench, bad, "a pr10 record with no throughput rows")
    bad = json.loads(json.dumps(good_pr10))
    bad["corun"][0]["graph_jobs"] = 0
    rejects(validate_bench, bad, "a pr10 record with no graph jobs")

    print("selftest ok: all validators accept good and reject bad inputs")


def main(argv):
    kinds = ("metrics", "bench", "golden", "fleet", "traffic", "graph",
             "diskcache", "suite", "identical", "selftest")
    if len(argv) < 2 or argv[1] not in kinds:
        print(__doc__, file=sys.stderr)
        return 2
    kind = argv[1]
    if kind == "selftest":
        selftest()
        return 0
    paths = argv[2:]
    if not paths:
        print(f"{kind}: no files given", file=sys.stderr)
        return 2
    if kind == "diskcache":
        try:
            check_diskcache(paths)
        except (ValidationError, OSError) as e:
            print(f"{kind}: {e}", file=sys.stderr)
            return 1
        return 0
    if kind in ("fleet", "traffic", "graph", "suite", "identical"):
        validate = {"fleet": validate_fleet, "traffic": validate_traffic,
                    "graph": validate_graph, "suite": validate_suite,
                    "identical": validate_identical}[kind]
        try:
            check_captures(kind, validate, paths)
        except (ValidationError, OSError) as e:
            print(f"{kind}: {e}", file=sys.stderr)
            return 1
        return 0
    for path in paths:
        try:
            check_file(kind, path)
        except (ValidationError, OSError, json.JSONDecodeError, KeyError) as e:
            print(f"{path}: {e}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
