#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload large-kg --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The script builds perfbench from source
(perfbench/CMakeLists.txt, Release) into .bench_build/perfbench, runs the
workload in its own process, checks the outputs, and prints every metric by
name with its unit, direction and sample count. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. Each run's metrics, host and per-layer
table go to .bench_build/results/; so do the latest raw samples and spans.

Exits non-zero when the build or the run fails (without a result line) or
when any output check fails (after the result line, with correct = false).
"""

import argparse
import json
import os
import platform
import subprocess
import sys

sys.dont_write_bytecode = True  # write nothing under perfbench/.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RESULTS_DIR = os.path.join(".bench_build", "results")
WORKLOADS = ("large-kg", "serve")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
LAYERS = ("sampling", "labels", "estimators", "core", "serve", "sched", "bench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs `cmd` with its output on stderr; waits for it to end."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:  # run() kills and reaps the child.
        return None


def build():
    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the root of a checkout (no BENCHMARK.json here)")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    if run_quiet(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
                 BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def host():
    compiler = "unknown"
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    out = subprocess.run([path, "--version"], capture_output=True,
                                         text=True, timeout=30).stdout
                    compiler = out.splitlines()[0] if out else path
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "compiler": compiler, "build_type": "Release"}


def end_to_end(raw):
    """Every end-to-end metric: (value, sample count)."""
    op, ends = raw["op_ms"], raw["op_end_s"]
    return {
        "setup_s": (stats.median(raw["setup_s"]), len(raw["setup_s"])),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
        "ops_per_s": (stats.chunk_throughput(raw["done_s"], raw["quantum"]),
                      raw["ops"]),
        "op_p50_ms": (stats.chunk_percentile(op, ends, 50), len(op)),
        "op_p90_ms": (stats.chunk_percentile(op, ends, 90), len(op)),
        # Every campaign is charged at least one triple; a run that lost
        # campaigns has failed checks and correct = false.
        "annotation_hours_geomean": (
            stats.geomean([h for h in raw["hours"] if h > 0] or [1.0]),
            len(raw["hours"])),
    }


def informational(raw):
    """Figures printed for reading but not gated (not in BENCHMARK.json)."""
    out = {"failed_share": (len(raw["failures"]) / max(raw["attempted"], 1),
                            "ratio", "lower", raw["attempted"]),
           "ops_per_s_whole_script": (raw["ops"] / raw["script_s"], "1/s",
                                      "higher", raw["ops"])}
    query = raw["samples"].get("query_ms")
    if query:
        out["query_p50_ms"] = (stats.percentile(query, 50), "ms", "lower",
                               len(query))
    if "grants_per_s" in raw["values"]:
        out["grants_per_s"] = (raw["values"]["grants_per_s"], "1/s", "higher",
                               1)
    return out


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(raw, spans):
    """Every per-layer metric: (value, sample count), plus the table written
    alongside the spans."""
    script = [s for s in spans if s.pass_ == 0]
    down = [s for s in spans if s.pass_ == 1]
    setup = [s for s in spans if s.pass_ == 2]
    handled = [s for s in spans if s.pass_ == 3]
    session = [s for s in spans if s.pass_ == 4]
    self_ns = stats.layer_self_ns(script)
    if down:
        # The layer-down pass ran the script's campaigns inside the engine;
        # what it attributes to lower layers is time pass 0 saw as serve.
        for name, ns in stats.layer_self_ns(down).items():
            if name in ("serve", "bench"):
                continue
            self_ns[name] = self_ns.get(name, 0) + ns
            self_ns["serve"] = self_ns.get("serve", 0) - ns
    traced_ns = raw["traced_s"] * 1e9
    c = raw["counts"]
    campaigns = c.get("campaigns", 0)
    grants = c.get("grants", 0)
    names = {p: stats.name_table(group) for p, group in
             ((0, script), (1, down), (2, setup), (3, handled), (4, session))
             if group}
    grant_ns = names.get(0, {}).get("sched.grant", (0, 0, 0))[1]
    metrics = {
        "datasets.generate_ms": (
            sum(s.end - s.start for s in setup if stats.layer(s.name) == "datasets") / 1e6,
            sum(1 for s in setup if stats.layer(s.name) == "datasets")),
        "kg.cluster_size_reads_per_campaign": (
            ratio(c.get("cluster_size_reads", 0), campaigns), campaigns),
        "sampling.units_per_campaign": (ratio(c.get("units", 0), campaigns), campaigns),
        "labels.refs_per_round": (ratio(c.get("refs", 0), c.get("rounds", 0)),
                                  c.get("rounds", 0)),
        "labels.cache_hit_share": (1.0 - ratio(c.get("paid_refs", 0), c.get("refs", 0))
                                   if c.get("refs", 0) else 0.0, c.get("refs", 0)),
        "labels.oracle_reads_per_campaign": (
            ratio(c.get("oracle_reads", 0), campaigns), campaigns),
        "core.rounds_per_campaign": (ratio(c.get("rounds", 0), campaigns), campaigns),
        "serve.error_responses": (c.get("error_responses", 0), c.get("ops", 0)),
        "sched.evictions_per_grant": (ratio(c.get("evictions", 0), grants), grants),
        "sched.free_grant_share": (ratio(c.get("free_grants", 0), grants), grants),
        # The scheduler's own pick, accounting and eviction time over the
        # time of its grants; the rest is the tenants' sessions running.
        "sched.overhead_share": (ratio(c.get("sched_overhead_s", 0) * 1e9, grant_ns),
                                 grants),
        "trace.unattributed_share": (1.0 - ratio(sum(self_ns.values()), traced_ns),
                                     len(script)),
        "trace.overhead_share": (ratio(raw["traced_s"], raw["untraced_s"]) - 1.0, 1),
    }
    for name in LAYERS:
        metrics[name + ".self_share"] = (ratio(self_ns.get(name, 0), traced_ns),
                                         len(script))
    table = {
        "self_ms_by_layer": {k: v / 1e6 for k, v in sorted(self_ns.items())},
        "traced_ms": traced_ns / 1e6,
        "untraced_ms": raw["untraced_s"] * 1e3,
        "spans_by_name": {
            str(p): {name: {"count": n, "total_ms": t / 1e6, "self_ms": o / 1e6}
                     for name, (n, t, o) in sorted(rows.items())}
            for p, rows in names.items()},
        "serve_us_per_request": serve_split(names, c),
        "counts": c,
    }
    return metrics, table


def serve_split(names, counts):
    """Mean time of each request type as the client saw it over TCP (pass 0),
    inside SessionManager::HandleLine (pass 3), and the difference: the
    transport. For step, also ServeSession::Step (pass 4) against one engine
    round (pass 1 campaign time over its rounds): the step gate."""
    tcp, handled = names.get(0, {}), names.get(3, {})
    out = {}
    for name, (n, total, _) in tcp.items():
        if not name.startswith("serve.request."):
            continue
        op = name[len("serve.request."):]
        row = {"tcp_us": total / n / 1e3}
        inner = handled.get("serve.handle." + op)
        if inner:
            row["handle_us"] = inner[1] / inner[0] / 1e3
            row["transport_us"] = row["tcp_us"] - row["handle_us"]
        out[op] = row
    step = names.get(4, {}).get("serve.session_step")
    campaign = names.get(1, {}).get("core.campaign")
    if step and campaign and counts.get("rounds"):
        row = out.setdefault("step", {})
        row["session_step_us"] = step[1] / step[0] / 1e3
        row["engine_round_us"] = campaign[1] / counts["rounds"] / 1e3
        row["gate_us"] = row["session_step_us"] - row["engine_round_us"]
    return out


def print_table(table):
    """The spans with the most self time, per pass, and the serve split."""
    for p, rows in table["spans_by_name"].items():
        print("  pass %s: span, count, mean us, self ms" % p)
        top = sorted(rows.items(), key=lambda kv: -kv[1]["self_ms"])[:10]
        for name, row in top:
            print("    %-34s %9d %12.2f %12.1f" % (
                name, row["count"], row["total_ms"] * 1e3 / row["count"],
                row["self_ms"]))
    for op, row in table["serve_us_per_request"].items():
        print("  serve %-16s " % op + ", ".join(
            "%s %.1f" % (k, v) for k, v in row.items()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    binary = build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    # Raw samples and spans are large: keep the latest run's per workload.
    latest = os.path.join(RESULTS_DIR,
                          "%s-trace%d" % (args.workload, args.trace))
    raw_path, spans_path = latest + ".raw.json", latest + ".spans.tsv"
    stem = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d" % (
        args.workload, args.seed, args.trace))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", raw_path, "--spans", spans_path]
    code = run_quiet(cmd, RUN_TIMEOUT_S)
    if code != 0:
        fail("workload run failed (%s)" % ("timeout" if code is None else
                                           "exit code %d" % code))
    with open(raw_path) as f:
        raw = json.load(f)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    table = None
    if args.trace:
        values, table = per_layer(raw, stats.read_spans(spans_path))
    else:
        values = end_to_end(raw)
    if set(values) != {m["name"] for m in declared}:
        fail("metrics do not match BENCHMARK.json")

    failures = raw["failures"]
    correct = not failures
    info = host()
    print("perfbench %s seed=%d trace=%d  host: nproc=%s, %s, %s" % (
        args.workload, args.seed, args.trace, info["nproc"], info["compiler"],
        info["build_type"]))
    metrics = {}
    for m in declared:
        value, n = values[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  %-36s %14.6g %-9s %-6s n=%d" % (m["name"], value, m["unit"],
                                                 m["better"], n))
    if not args.trace:
        for name, (value, unit, better, n) in informational(raw).items():
            print("  %-36s %14.6g %-9s %-6s n=%d (not gated)" % (
                name, value, unit, better, n))
    else:
        print_table(table)
    for failure in failures[:20]:
        print("  FAILED: " + failure)
    with open(stem + ".result.json", "w") as f:
        json.dump({"host": info, "workload": args.workload, "seed": args.seed,
                   "trace": args.trace, "metrics": metrics, "layers": table,
                   "attempted": raw["attempted"], "failures": failures},
                  f, indent=1)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
