#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the program's
libraries and the benchmark binary into .bench_build/ (Release); later
runs only check the build. The binary writes a raw record (samples,
counters, spans, output checks) under .bench_out/; this script reduces
it to the metrics named in BENCHMARK.json and prints them as the last
line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Every workload reports the same metric names. --trace 0 reports the
end-to-end metrics as measured on the wall clock; --trace 1 reports the
per-layer metrics and writes the per-layer span table, the tracing
overhead and the workload's module-level figures to
.bench_out/<workload>-seed<N>-trace1-layers.txt.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_out"
TRACED = "|traced"


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("program sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BUILD_DIR / "perfbench"


# ---------------------------------------------------------------- helpers

def samples(raw, name, traced=False):
    return raw["samples"].get(name + (TRACED if traced else ""), [])


def value(raw, name, default=None):
    return raw["values"].get(name, default)


def indexed(raw, prefix):
    """{i: v} for values named prefix + "." + i."""
    out = {}
    for key, v in raw["values"].items():
        if key.startswith(prefix + "."):
            tail = key[len(prefix) + 1:]
            if tail.isdigit():
                out[int(tail)] = v
    return out


def span_medians(raw, scale):
    """Median span duration per name, in ns / scale."""
    table = stats.layer_table([tuple(s) for s in raw["spans"]])
    return {name: row["median_ns"] / scale for name, row in table.items()}


def tail(values, p=99.0):
    """Nearest-rank p-th percentile; refuses tails the sample cannot
    support (fewer than 10 samples beyond)."""
    supported = stats.tail_percentile(len(values))
    if supported is None or supported < p:
        raise RuntimeError(
            "%d samples do not support a p%g tail" % (len(values), p))
    return stats.percentile(values, p)


# ------------------------------------------------------ per-workload math
#
# Every workload reports the same metrics (BENCHMARK.json). Each one
# defines its own unit operation for op_ms, the items whose tail is
# op.tail_ms, and the exact count behind work.count; workloads.json
# records these definitions. The module-level figures of each workload
# go into the per-layer report of the traced run.

ENGINES = ("serial", "parallel", "vectorized")


def nightly_suite_ms(raw, traced=False):
    """{engine: one load of the optimized suite}, each the sum of the
    per-workflow medians, over the workflows measured on every engine."""
    rows = indexed(raw, "rows")
    med = {e: {} for e in ENGINES}
    for w in rows:
        for e in ENGINES:
            xs = samples(raw, "exec_ms.%s.%d" % (e, w), traced)
            if xs:
                med[e][w] = stats.median(xs)
    common = [w for w in rows if all(w in med[e] for e in ENGINES)]
    if len(common) < len(rows):
        raise RuntimeError("only %d of %d workflows ran on every engine"
                           % (len(common), len(rows)))
    return {e: sum(med[e][w] for w in common) for e in ENGINES}


def nightly_op(raw, traced=False):
    """One load of the optimized 40-workflow suite on one engine, the
    mean over the three engines."""
    suite = nightly_suite_ms(raw, traced)
    return sum(suite.values()) / len(suite)


def nightly_items(raw):
    """Every untraced workflow execution on the three engines."""
    return [x for e in ENGINES for name, xs in raw["samples"].items()
            if name.startswith("exec_ms.%s." % e) and TRACED not in name
            for x in xs]


def nightly_detail(raw):
    out = {}
    rows = indexed(raw, "rows")
    total_rows = sum(rows.values())
    for e, ms in nightly_suite_ms(raw).items():
        out["load_rows_per_s." + e] = total_rows / (ms / 1000.0)
    cats = indexed(raw, "category")
    names = {0: "small", 1: "medium", 2: "large"}
    med = {}
    for e in ENGINES + ("initial",):
        med[e] = {w: stats.median(samples(raw, "exec_ms.%s.%d" % (e, w)))
                  for w in rows if samples(raw, "exec_ms.%s.%d" % (e, w))}
    for e in ENGINES:
        for c, cname in names.items():
            out["engine.%s.exec_ms.%s" % (e, cname)] = sum(
                t for w, t in med[e].items() if cats[w] == c)
    both = [w for w in med["serial"] if w in med["initial"]]
    initial_ms = sum(med["initial"][w] for w in both)
    optimized_ms = sum(med["serial"][w] for w in both)
    out["optimizer.measured_speedup"] = initial_ms / optimized_ms
    cost_initial = indexed(raw, "cost.initial")
    cost_best = indexed(raw, "cost.best")
    out["cost.predicted_speedup"] = (sum(cost_initial.values())
                                     / sum(cost_best.values()))
    ws = sorted(med["serial"])
    out["cost.rank_corr"] = stats.spearman([cost_best[w] for w in ws],
                                           [med["serial"][w] for w in ws])
    out["engine.rows_out"] = value(raw, "engine.rows_out")
    vm = value(raw, "columnar.vectorized_members", 0)
    fm = value(raw, "columnar.fallback_members", 0)
    out["columnar.kernel_share"] = vm / (vm + fm) if vm + fm else 0.0
    out.update(search_detail(raw))
    bases = {"optimizer.measured_speedup":
             "initial %.1f ms / optimized %.1f ms (serial, %d workflows)"
             % (initial_ms, optimized_ms, len(both)),
             "cost.predicted_speedup":
             "initial %.4g / optimized %.4g model cost units"
             % (sum(cost_initial.values()), sum(cost_best.values()))}
    return out, bases


def search_detail(raw):
    search_ms = stats.median(samples(raw, "optimizer.search_ms"))
    states = value(raw, "optimizer.states_visited")
    return {"optimizer.search_ms": search_ms,
            "optimizer.states_visited": states,
            "optimizer.states_per_s": states / (search_ms / 1000.0)}


def plan_latencies(raw, traced=False):
    """{"hit": [...], "miss": [...]}: open-loop latencies from the due
    time, split by whether the request was first-seen."""
    records = raw["rows"].get("open" + (TRACED if traced else ""), [])
    latencies, _ = stats.open_loop(records)
    groups = {"hit": [], "miss": []}
    for r, latency in zip(records, latencies):
        groups["miss" if r[3] else "hit"].append(latency)
    return groups


def plan_op(raw, traced=False):
    """One optimize request over the wire: the request mix's typical
    latency, hits and first-seen misses each at their median."""
    return stats.mix_median(plan_latencies(raw, traced))


def plan_items(raw):
    groups = plan_latencies(raw)
    return groups["hit"] + groups["miss"]


def plan_detail(raw):
    us = span_medians(raw, 1e3)
    groups = plan_latencies(raw)
    latencies = groups["hit"] + groups["miss"]
    out = {"optimize_p50_ms": stats.median(latencies),
           "optimize_p99_ms": tail(latencies, 99.0),
           "optimize_hit_p50_ms": stats.median(groups["hit"]),
           "optimize_miss_p50_ms": stats.median(groups["miss"])}
    rps = stats.closed_loop_rates(raw["rows"].get("closed", []))
    out["optimize_rps"] = stats.median(list(rps.values()))
    for name in ("io.text_parse", "io.text_print", "io.plan_encode",
                 "io.plan_decode", "graph.signature"):
        out[name + "_us"] = us[name]
    out["service.hit_us"] = us["service.optimize"]
    requests = value(raw, "requests", 0)
    out["service.hit_ratio"] = value(raw, "hits", 0) / requests
    out["service.shed"] = value(raw, "service.shed", 0.0)
    out["net.rtt_hit_us"] = stats.median(samples(raw, "rtt_hit_us"))
    out["net.overhead_us"] = out["net.rtt_hit_us"] - out["service.hit_us"]
    out["net.bytes_per_request"] = stats.median(
        samples(raw, "bytes_per_request"))
    _, lateness = stats.open_loop(raw["rows"].get("open", []))
    out["net.gen_lateness_ms"] = tail(lateness, 99.0)
    out.update(search_detail(raw))
    return out, {"net.overhead_us": "rtt %.1f us - in-process hit %.1f us"
                 % (out["net.rtt_hit_us"], out["service.hit_us"])}


def durable_op(raw, traced=False):
    """One durable round: a stream replay, a fault-free recoverable
    load and the resume after a crash, each at its median."""
    return sum(stats.median(samples(raw, name, traced))
               for name in ("replay_ms", "durable_load_ms", "resume_ms"))


def durable_items(raw):
    return samples(raw, "batch_ms")


def durable_detail(raw):
    ms = span_medians(raw, 1e6)
    batches = samples(raw, "batch_ms")
    out = {"replay_ms": stats.median(samples(raw, "replay_ms")),
           "batch_p50_ms": stats.median(batches),
           "batch_p99_ms": tail(batches, 99.0),
           "durable_load_ms": stats.median(samples(raw, "durable_load_ms")),
           "resume_ms": stats.median(samples(raw, "resume_ms")),
           "cost.placement_ms": stats.median(
               samples(raw, "cost.placement_ms"))}
    for name in ("stream.checkpoints_written", "stream.checkpoint_bytes",
                 "stream.delta_nodes", "stream.refresh_nodes",
                 "engine.recovery.checkpoint_rows_written",
                 "engine.recovery.nodes_skipped"):
        out[name] = value(raw, name)
    out["io.checkpoint_encode_ms"] = ms["io.checkpoint_encode"]
    out["io.checkpoint_decode_ms"] = ms["io.checkpoint_decode"]
    # Activity executions beyond one fault-free run: the crashed attempt
    # completed crash_hit - 1 of them before the crash.
    out["engine.recovery.redo_nodes"] = (
        value(raw, "engine.recovery.crash_hit") - 1
        + value(raw, "engine.recovery.resume_nodes_executed")
        - value(raw, "engine.recovery.nodes_executed"))
    durable = out["durable_load_ms"]
    plain = stats.median(samples(raw, "plain_ms"))
    out["engine.recovery.overhead"] = durable / plain
    return out, {"engine.recovery.overhead":
                 "recoverable %.1f ms / plain serial %.1f ms"
                 % (durable, plain)}


def tenant_op(raw, traced=False):
    """One round: the four tenants through a fresh shared cache."""
    return stats.median(samples(raw, "round_ms", traced))


def tenant_items(raw):
    return samples(raw, "round_ms")


def tenant_detail(raw):
    ms = span_medians(raw, 1e6)
    out = {"tenant_rows_per_s": value(raw, "rows_per_round")
           / (tenant_op(raw) / 1000.0),
           "graph.subgraph_sig_ms": ms["graph.subgraph_sig"]}
    for name in ("service.result_cache.hit_ratio",
                 "service.result_cache.work_ratio",
                 "service.result_cache.bytes"):
        out[name] = value(raw, name)
    return out, {}


# name: (op_ms, op.tail_ms items, work.count value, module detail)
WORKLOADS = {
    "nightly_load": (nightly_op, nightly_items, "engine.rows_out",
                     nightly_detail),
    "plan_service": (plan_op, plan_items, "optimizer.states_visited",
                     plan_detail),
    "durable_feed": (durable_op, durable_items,
                     "engine.recovery.checkpoint_rows_written",
                     durable_detail),
    "tenant_overlap": (tenant_op, tenant_items, "engine.rows_computed",
                       tenant_detail),
}


def end_to_end(workload, raw):
    """End-to-end values of one run, as measured on the wall clock."""
    return {"setup_s": stats.median(raw["setup_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
            "op_ms": WORKLOADS[workload][0](raw)}


def per_layer(workload, raw):
    """Per-layer values of a traced run: the same names on every
    workload."""
    op, items, work, _ = WORKLOADS[workload]
    xs = items(raw)
    p = stats.tail_percentile(len(xs))
    if p is None:
        raise RuntimeError("%d items do not support a tail" % len(xs))
    return {"op.tail_ms": stats.percentile(xs, p),
            "trace.overhead": op(raw, True) / op(raw, False),
            "work.count": value(raw, work),
            "workload.gen_ms": stats.median(samples(raw, "workload.gen_ms")),
            "host.ref_ms": stats.median(samples(raw, "host.ref_ms"))}


def layer_report(workload, raw, layers):
    """The per-layer span table, the tracing overhead and the workload's
    module-level figures, as text."""
    op = WORKLOADS[workload][0]
    spans = [tuple(s) for s in raw["spans"]]
    table = stats.layer_table(spans)
    lines = ["per-layer spans, %s seed %s (traced sweeps only)"
             % (workload, raw["seed"]),
             "%-28s %8s %12s %12s %12s" % ("span", "count", "total_ms",
                                           "self_ms", "median_us")]
    for name in sorted(table):
        row = table[name]
        lines.append("%-28s %8d %12.2f %12.2f %12.1f" % (
            name, row["count"], row["total_ns"] / 1e6, row["self_ns"] / 1e6,
            row["median_ns"] / 1e3))
    lines.append("")
    lines.append("tracing overhead (traced vs untraced rounds of this run):")
    lines.append("  op_ms untraced %.4g  traced %.4g  (%+.1f%%)" % (
        op(raw), op(raw, True), 100.0 * (layers["trace.overhead"] - 1)))
    lines.append("")
    lines.append("per-layer metrics:")
    for name in sorted(layers):
        lines.append("  %-40s %14.6g" % (name, layers[name]))
    lines.append("")
    lines.append("module-level figures of this workload:")
    try:
        detail, bases = WORKLOADS[workload][3](raw)
        for name in sorted(detail):
            base = bases.get(name)
            lines.append("  %-40s %14.6g%s" % (
                name, detail[name], "   [%s]" % base if base else ""))
    except (RuntimeError, KeyError, ValueError, ZeroDivisionError) as e:
        lines.append("  not measurable in this run: %r" % (e,))
    lines.append("")
    lines.append("timing samples (median and the highest percentile with "
                 ">= 10 samples beyond it):")
    for name in sorted(raw["samples"]):
        xs = raw["samples"][name]
        p = stats.tail_percentile(len(xs))
        lines.append("  %-40s n=%6d median %12.4g%s" % (
            name, len(xs), stats.median(xs),
            "  p%g %12.4g" % (p, stats.percentile(xs, p)) if p else ""))
    lines.append("")
    host = samples(raw, "host.ref_ms")
    lines.append("host.ref_ms over the run: n=%d min %.3f median %.3f max %.3f"
                 % (len(host), min(host), stats.median(host), max(host)))
    return "\n".join(lines) + "\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    provenance = json.loads((HERE / "workloads.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    # Dropped workloads stay runnable by name; they are not in the manifest.
    wl = {**provenance["dropped"], **provenance["workloads"]}[args.workload]

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    OUT_DIR.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path = OUT_DIR / (stem + ".raw.json")
    if raw_path.exists():
        raw_path.unlink()
    work_dir = OUT_DIR / ("work-%d" % os.getpid())
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--setup-reps", str(wl["setup_reps"]),
           "--out", str(raw_path), "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=170)
    except subprocess.TimeoutExpired:
        log("perfbench: benchmark binary timed out")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0 or not raw_path.is_file():
        log("perfbench: benchmark binary exited with %d" % proc.returncode)
        return 1
    raw = json.loads(raw_path.read_text())

    try:
        if args.trace:
            metrics = per_layer(args.workload, raw)
            wanted = [m["name"] for m in spec["per_layer"]]
            report = layer_report(args.workload, raw, metrics)
            (OUT_DIR / (stem + "-layers.txt")).write_text(report)
            log(report)
        else:
            metrics = end_to_end(args.workload, raw)
            wanted = [m["name"] for m in spec["end_to_end"]]
            log("host.ref_ms median %.4f" % stats.median(
                samples(raw, "host.ref_ms")))
    except (RuntimeError, KeyError, ValueError, ZeroDivisionError) as e:
        log("perfbench: cannot reduce the run: %r" % (e,))
        return 1
    missing = [m for m in wanted if m not in metrics]
    if missing:
        log("perfbench: metrics not produced: %s" % missing)
        return 1
    result = {
        "correct": raw["failed"] == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m: {"value": metrics[m], "unit": units[m]}
                    for m in wanted},
    }
    if raw["failures"]:
        log("perfbench: failures: %s" % raw["failures"])
    for m in wanted:
        log("  %-40s %14.6g %s" % (m, metrics[m], units[m]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
