#!/usr/bin/env python3
"""Proof of steadiness: runs workloads repeatedly with distinct seeds and
prints, per end-to-end metric, the median, quartiles, min-max and the
interquartile spread as a share of the median, next to the metric's
bound in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...] [--json FILE]
                                [--compare EARLIER.json]

Run from the root of a checkout. Each run is one
`python3 perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0`; seeds are first-seed, first-seed+1, ...

Every end-to-end metric, setup_s included, is checked: its spread must
stay within its bound, and with --compare (the --json file of an
earlier set) its median must not be worse than the earlier median by
more than the bound. Spreads above a third of the bound are flagged as
"wide". The exit status is 1 when any check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

ROOT = HERE.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError("%s seed %d exited %d"
                           % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json", help="also write all values here")
    parser.add_argument("--compare",
                        help="--json file of an earlier set to compare with")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    earlier = (json.loads(Path(args.compare).read_text())
               if args.compare else {})
    collected = {}
    worst = 0.0
    failures = []
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            result = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"] or result["failed"]:
                raise RuntimeError("%s seed %d: incorrect output (%d failed)"
                                   % (workload, seed, result["failed"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("  %s seed %d done" % (workload, seed), file=sys.stderr,
                  flush=True)
        collected[workload] = values
        print("%s (%d runs, seeds %d-%d)" % (
            workload, args.runs, args.first_seed,
            args.first_seed + args.runs - 1))
        print("  %-28s %12s %12s %12s %12s %12s %8s %6s %9s" % (
            "metric", "median", "q1", "q3", "min", "max", "spread",
            "bound", "vs earlier"))
        for name, vs in values.items():
            q1, q2, q3 = stats.quartiles(vs)
            s = stats.spread(vs)
            worst = max(worst, s / bounds[name])
            notes = []
            if s > bounds[name]:
                failures.append("%s %s spread %.1f%%" % (workload, name,
                                                         100 * s))
                notes.append("OVER BOUND")
            elif s > bounds[name] / 3:
                notes.append("wide")
            shift = ""
            before = earlier.get(workload, {}).get(name)
            if before:
                worse = stats.worsening(stats.median(before), q2,
                                        better[name])
                shift = "%+8.1f%%" % (100 * worse)
                if worse > bounds[name]:
                    failures.append("%s %s median worse by %.1f%%"
                                    % (workload, name, 100 * worse))
                    notes.append("MEDIAN WORSE THAN BOUND")
            print("  %-28s %12.5g %12.5g %12.5g %12.5g %12.5g %7.2f%% %6.2f"
                  " %9s %s" % (name, q2, q1, q3, min(vs), max(vs), 100 * s,
                               bounds[name], shift, " ".join(notes)))
    print("largest spread / bound: %.2f" % worst)
    if args.json:
        Path(args.json).write_text(json.dumps(collected, indent=1) + "\n")
    for f in failures:
        print("FAILED: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
