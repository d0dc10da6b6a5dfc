r"""Run one benchmark workload and print its result as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact-sweep --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric (untraced timing); ``--trace
1`` prints every per-layer metric from a separate traced run.  The last
line of standard output is always the result object::

    {"correct": true, "attempted": 168, "failed": 0,
     "metrics": {"setup_s": {"value": 0.41, "unit": "s"}, ...}}

The simulator is imported from ``src/`` of the same checkout; with no
``src/repro`` beside this directory the script exits 2 without a result.
Scratch files (sweep journals, serve spools) live under
``.perfbench_work/`` in the checkout and are removed on exit; a traced
run keeps its spans in ``.perfbench_work/spans-<workload>-<seed>.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="run one benchmark workload; the last stdout line is "
                    "the JSON result")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources at {ROOT / 'src' / 'repro'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import WORKLOAD_NAMES, BenchError, run_workload

    if args.workload not in WORKLOAD_NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOAD_NAMES)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work"
    rundir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    spans_path = (work / f"spans-{args.workload}-{args.seed}.npz"
                  if args.trace else None)
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), rundir, spans_path)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - report, then fail without a result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
