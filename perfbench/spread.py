"""Measure the run-to-run spread of the end-to-end metrics.

Runs ``perfbench/run.py`` once per seed for each workload (one after
another, never in parallel, for ``run_seconds`` from ``BENCHMARK.json``;
by default the workloads ``BENCHMARK.json`` lists)
and prints, per workload and metric, the median and the spread: the
distance between the first and third quartile of the values
(``statistics.quantiles(values, n=4)``) as a share of their median, next
to the metric's bound::

    python3 perfbench/spread.py --workloads exact-sweep serve-mixed \\
        --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def spread(values: List[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:"
                           f"\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    raw: Dict[str, List[Dict]] = {}
    for workload in workloads:
        raw[workload] = []
        for seed in parse_seeds(args.seeds):
            result = run_once(workload, seed, seconds, 0)
            raw[workload].append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
    print("| workload | metric | median | spread | bound |")
    print("|---|---|---|---|---|")
    for workload, results in raw.items():
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            shown = f"{spread(values):.3f}" if len(values) > 1 else "-"
            print(f"| {workload} | {name} | "
                  f"{statistics.median(values):.4g} {unit} | "
                  f"{shown} | {bound} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
