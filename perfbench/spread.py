"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload zbw_export --seeds 1-10

Runs the benchmark once per seed (untraced, run_seconds from BENCHMARK.json)
and prints, per metric, the median and (Q3 - Q1) / median of the values
next to the metric's bound and a third of it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import harness


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'a-b' or 'a,b,c'")
    args = parser.parse_args(argv)
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        argv = [sys.executable, os.path.join(harness.BENCH_DIR, "run.py"),
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(argv, cwd=harness.ROOT, capture_output=True, text=True,
                              timeout=600, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = harness.last_json_line(proc.stdout)
        line = " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {line}",
              flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        spread = harness.quartile_spread(vals) if len(vals) > 1 else 0.0
        print(f"{args.workload} {m['name']:<14s} median {harness.median(vals):.6g} "
              f"spread {spread:.4f} bound {m['bound']} third {m['bound'] / 3:.4f}"
              f"{'' if spread < m['bound'] / 3 else '  <-- too wide'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
