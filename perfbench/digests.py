"""Regenerate ``reference_digests.json``: the pinned results of the sweep
workloads for the seeds the benchmark ships.

A run whose seed is listed fails every delivered cell if its results
digest differs, so only regenerate after a change that is meant to alter
simulated results::

    python3 perfbench/digests.py --seeds 0-9
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.harness import REFERENCE_DIGESTS, SWEEPS, SweepRun
    from perfbench.spread import parse_seeds

    digests = {}
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for name, spec in SWEEPS.items():
            digests[name] = {}
            for seed in parse_seeds(args.seeds):
                run = SweepRun(spec, seed, Path(tmp))
                run.fill_memo()
                run.fresh_pass()
                if run.outcome.failed:
                    raise SystemExit(f"{name} seed {seed}: "
                                     f"{run.outcome.problems}")
                digests[name][str(seed)] = run.digest
                print(f"{name} seed {seed}: {run.digest[:16]}",
                      file=sys.stderr, flush=True)
    REFERENCE_DIGESTS.write_text(json.dumps(digests, indent=1,
                                            sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
