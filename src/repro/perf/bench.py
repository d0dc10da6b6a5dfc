"""The ``repro bench`` harness: simulator throughput measurement.

Runs the tier-1 smoke matrix (workloads x designs) with per-stage
instrumentation and emits ``BENCH_perf.json``:

* **throughput** — ``cells_per_sec`` (completed sweep cells per second of
  wall clock) and ``accesses_per_sec`` (simulated memory references per
  second of run-loop time);
* **stage latencies** — p50/p95 seconds per cell for each pipeline stage
  (``trace`` build, simulator ``construct``, ``prewarm``, the main
  ``loop``, result ``collect``);
* **calibration** — a fixed pure-Python spin measured at bench time.
  Regression checks compare *normalized* throughput
  (``cells_per_sec / calibration``), so a baseline committed from one
  machine transfers to a faster or slower one.

Repeats are best-of-N: per-stage samples are pooled across repeats for
the percentiles, while throughput uses the fastest repeat (the least
machine-noise-contaminated estimate of what the code can do).
"""

from __future__ import annotations

import json
import platform
import time
from typing import Dict, List, Optional, Sequence

#: JSON schema version of the BENCH_perf.json payload.
BENCH_SCHEMA = 1

#: The tier-1 smoke matrix (matches the CI kill-and-resume sweep).
SMOKE_WORKLOADS = ("g500", "gups", "redis", "mcf")
#: Reduced matrix for ``--quick`` (CI-budget) runs.
QUICK_WORKLOADS = ("gups", "redis")

STAGES = ("trace", "construct", "prewarm", "loop", "collect")


def calibrate(iterations: int = 2_000_000) -> float:
    """Machine-speed yardstick: fixed-arithmetic iterations per second.

    A deterministic integer LCG spin — no allocation, no library calls —
    so the number tracks the interpreter + CPU speed the simulator itself
    runs on.  Used to normalize throughput across machines.
    """
    state = 1
    start = time.perf_counter()
    for _ in range(iterations):
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
    elapsed = time.perf_counter() - start
    return iterations / elapsed


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (q in [0, 100]) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def _run_cell_instrumented(config, workload: str, trace_length: int,
                           seed: int) -> Dict[str, float]:
    """One sweep cell with per-stage wall-clock timings.

    Uses :func:`build_trace` directly (not the memo) so the ``trace``
    stage reports the honest cold cost every time.
    """
    from repro.sim.system import SystemSimulator
    from repro.workloads.suite import build_trace, get_workload

    timings: Dict[str, float] = {}
    start = time.perf_counter()
    trace = build_trace(get_workload(workload), length=trace_length,
                        seed=seed)
    timings["trace"] = time.perf_counter() - start

    start = time.perf_counter()
    simulator = SystemSimulator(config, trace)
    timings["construct"] = time.perf_counter() - start

    start = time.perf_counter()
    simulator._begin(0.25)
    timings["prewarm"] = time.perf_counter() - start

    start = time.perf_counter()
    simulator.run_until(len(trace))
    timings["loop"] = time.perf_counter() - start

    start = time.perf_counter()
    simulator._collect()
    timings["collect"] = time.perf_counter() - start

    timings["references"] = float(len(trace))
    return timings


def run_benchmark(workloads: Optional[Sequence[str]] = None,
                  designs: Sequence[str] = ("vipt", "seesaw"),
                  trace_length: int = 20_000, seed: int = 42,
                  repeats: int = 3, jobs: int = 1,
                  quick: bool = False,
                  base_config=None) -> Dict:
    """Measure sweep throughput and stage latencies; return the payload.

    ``quick`` shrinks the matrix (two workloads, one repeat) to CI
    budget.  ``jobs > 1`` adds a ``parallel`` section: wall-clock of a
    ``resilient_sweep(jobs=…)`` over the same matrix and its speedup
    against the serial instrumented pass.
    """
    from repro.sim.config import SystemConfig

    if quick:
        workloads = list(workloads or QUICK_WORKLOADS)
        repeats = 1
    else:
        workloads = list(workloads or SMOKE_WORKLOADS)
    config = base_config if base_config is not None else SystemConfig(
        seed=seed)
    cells = [(workload, design) for workload in workloads
             for design in designs]

    # Warm the interpreter (imports, code objects) outside the clock.
    _run_cell_instrumented(config.with_design(designs[0]), workloads[0],
                           min(2000, trace_length), seed)

    stage_samples: Dict[str, List[float]] = {stage: [] for stage in STAGES}
    repeat_walls: List[float] = []
    repeat_loops: List[float] = []
    total_references = 0
    for repeat in range(max(1, repeats)):
        wall = 0.0
        loop = 0.0
        references = 0
        for workload, design in cells:
            timings = _run_cell_instrumented(
                config.with_design(design), workload, trace_length, seed)
            for stage in STAGES:
                stage_samples[stage].append(timings[stage])
            wall += sum(timings[stage] for stage in STAGES)
            loop += timings["loop"]
            references += int(timings["references"])
        repeat_walls.append(wall)
        repeat_loops.append(loop)
        total_references = references

    best_wall = min(repeat_walls)
    best_loop = min(repeat_loops)
    payload: Dict = {
        "schema": BENCH_SCHEMA,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "params": {
            "workloads": workloads,
            "designs": list(designs),
            "trace_length": trace_length,
            "seed": seed,
            "repeats": max(1, repeats),
            "quick": quick,
        },
        "calibration_ops_per_sec": calibrate(),
        "cells": len(cells),
        "references_per_repeat": total_references,
        "wall_s": best_wall,
        "cells_per_sec": len(cells) / best_wall,
        "accesses_per_sec": total_references / best_loop,
        "stages": {
            stage: {
                "p50_s": percentile(stage_samples[stage], 50),
                "p95_s": percentile(stage_samples[stage], 95),
            }
            for stage in STAGES
        },
    }

    if jobs > 1:
        from repro.resilience.runner import resilient_sweep
        start = time.perf_counter()
        resilient_sweep(config, workloads, trace_length=trace_length,
                        seed=seed, designs=designs, jobs=jobs)
        parallel_wall = time.perf_counter() - start
        payload["parallel"] = {
            "jobs": jobs,
            "wall_s": parallel_wall,
            "speedup_vs_serial": best_wall / parallel_wall,
        }
    return payload


def bench_serve(workload: str = "gups", trace_length: int = 2_000,
                seed: int = 42, round_trips: int = 20) -> Dict:
    """Measure a ``repro serve`` request round-trip.

    Boots an in-process server on a loopback port, issues one priming
    ``run`` request (which simulates and fills the cache/journal), then
    times ``round_trips`` identical requests — each a full HTTP +
    JSON-RPC + admission + journal-replay cycle with zero simulation.
    The figure is the service overhead a cached client sees, so a
    protocol or admission-path regression moves it even though the
    simulator is untouched.
    """
    import tempfile
    from pathlib import Path

    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, serve_in_thread

    params = {"workload": workload, "design": "seesaw",
              "length": trace_length, "seed": seed}
    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        # The bench intentionally hammers one client; quota admission is
        # not what's being measured, so give it ample headroom.
        config = ServeConfig(port=0, jobs=1,
                             quota_capacity=round_trips + 10,
                             quota_refill_per_s=1000.0,
                             spool=Path(tmp) / "spool")
        with serve_in_thread(config) as server:
            client = ServeClient(port=server.bound_port,
                                 client_id="bench",
                                 timeout_s=120.0)
            primed = client.call("run", params)
            samples: List[float] = []
            for _ in range(max(1, round_trips)):
                start = time.perf_counter()
                reply = client.call("run", params)
                samples.append(time.perf_counter() - start)
                if reply["simulated"]:
                    raise RuntimeError(
                        "bench_serve: duplicate request re-simulated — "
                        "the result cache/journal replay is broken")
    return {
        "round_trips": len(samples),
        "priming_simulated": primed["simulated"],
        "round_trips_per_sec": len(samples) / sum(samples),
        "p50_s": percentile(samples, 50),
        "p95_s": percentile(samples, 95),
    }


def _headline_value(result_dict: Dict, metric: str) -> float:
    """Pull one headline metric out of a ``SimulationResult.to_dict()``."""
    if metric == "l1_miss_rate":
        return 1.0 - result_dict["l1_hit_rate"]
    return float(result_dict[metric])


def bench_sampled(workloads: Optional[Sequence[str]] = None,
                  designs: Sequence[str] = ("vipt", "seesaw"),
                  trace_length: int = 60_000, seed: int = 42,
                  repeats: int = 4, quick: bool = False,
                  plan=None) -> Dict:
    """Sampled-vs-exact speedup and observed accuracy per smoke cell.

    Timing methodology: per cell, the exact run loop and the sampled
    pipeline (profile + cluster + measurement loop) are timed
    *back-to-back, best-of-N* — interleaving the two lanes inside one
    cell keeps CPU frequency/cache state comparable, which matters far
    more than repeat count (measuring all exact lanes up front then all
    sampled lanes produces 2x swings on identical work).  The reported
    speedup is the better of best-exact/best-sampled and the best
    *paired* per-repeat ratio: a host load spike that lands on only one
    lane of a pair contaminates min/min, but some adjacent pair usually
    ran under matching conditions.  The speedup denominator deliberately
    excludes trace build, simulator construction, and prewarm: both
    lanes pay those identically, and the sampled lane's pitch is about
    the measurement loop it avoids.

    Accuracy: observed relative error of every headline metric against
    the exact lane's counters, checked against both the flat budget and
    the run's own reported confidence bounds by :func:`check_sampling`.
    """
    from repro.sampling import SamplingPlan, simulate_sampled
    from repro.sampling.runner import HEADLINE_METRICS, relative_error
    from repro.sim.config import SystemConfig
    from repro.sim.system import SystemSimulator
    from repro.workloads.suite import cached_trace

    if plan is None:
        plan = SamplingPlan()
    workloads = list(workloads
                     or (QUICK_WORKLOADS if quick else SMOKE_WORKLOADS))
    repeats = max(1, repeats)

    cells: List[Dict] = []
    for workload in workloads:
        trace = cached_trace(workload, trace_length, seed=seed)
        trace.columns()  # build the cached arrays outside every clock
        for design in designs:
            config = SystemConfig(l1_design=design, seed=seed)
            exact_samples: List[float] = []
            sampled_samples: List[float] = []
            exact_result = None
            sampled_result = None
            for _ in range(repeats):
                simulator = SystemSimulator(config, trace)
                simulator._begin(0.25)
                start = time.perf_counter()
                simulator.run_until(len(trace))
                exact_samples.append(time.perf_counter() - start)
                if exact_result is None:
                    exact_result = simulator.finish()
                timings: Dict[str, float] = {}
                sampled_result = simulate_sampled(config, trace, plan,
                                                  timings=timings)
                sampled_samples.append(timings.get("profile", 0.0)
                                       + timings.get("cluster", 0.0)
                                       + timings["loop"])
            exact_s = min(exact_samples)
            sampled_s = min(sampled_samples)
            speedup = max(exact_s / sampled_s,
                          max(e / s for e, s in zip(exact_samples,
                                                    sampled_samples)))
            exact_dict = exact_result.to_dict()
            sampled_dict = sampled_result.to_dict()
            errors = {
                metric: relative_error(
                    _headline_value(sampled_dict, metric),
                    _headline_value(exact_dict, metric),
                    rate_metric=metric.endswith("_rate"))
                for metric in HEADLINE_METRICS
            }
            bounds = sampled_result.sampling["error_bounds"]
            cells.append({
                "workload": workload,
                "design": design,
                "exact_loop_s": exact_s,
                "sampled_loop_s": sampled_s,
                "speedup": speedup,
                "coverage": sampled_result.sampling["coverage"],
                "errors": errors,
                "error_bounds": bounds,
                "within_bounds": all(errors[m] <= bounds[m]
                                     for m in HEADLINE_METRICS),
            })

    speedups = sorted(cell["speedup"] for cell in cells)
    worst_metric, worst_error = max(
        ((metric, cell["errors"][metric])
         for cell in cells for metric in cell["errors"]),
        key=lambda pair: pair[1])
    return {
        "plan": plan.to_dict(),
        "trace_length": trace_length,
        "seed": seed,
        "repeats": repeats,
        "cells": cells,
        "min_speedup": speedups[0],
        "median_speedup": percentile(speedups, 50),
        "worst_error": worst_error,
        "worst_error_metric": worst_metric,
    }


def check_sampling(sampled: Dict, min_speedup: float = 5.0,
                   max_error: float = 0.05) -> List[str]:
    """Gate a :func:`bench_sampled` payload; returns problems (empty = pass).

    Three independent conditions, each per cell: the sampled lane must
    be at least ``min_speedup`` times faster than the exact lane, every
    headline metric's observed error must fit the flat ``max_error``
    budget, and every observed error must also fall within the bound the
    sampled run *itself reported* — a run that is fast and accurate but
    mis-states its own confidence still fails.
    """
    problems: List[str] = []
    for cell in sampled.get("cells", []):
        label = f"({cell['workload']}, {cell['design']})"
        if cell["speedup"] < min_speedup:
            problems.append(
                f"{label}: sampled speedup {cell['speedup']:.2f}x is "
                f"below the {min_speedup:g}x floor")
        for metric, error in cell["errors"].items():
            if error > max_error:
                problems.append(
                    f"{label}: {metric} relative error {error:.4f} "
                    f"exceeds the {max_error:g} budget")
            bound = cell["error_bounds"].get(metric)
            if bound is not None and error > bound:
                problems.append(
                    f"{label}: {metric} relative error {error:.4f} "
                    f"exceeds its reported confidence bound {bound:.4f}")
    if not sampled.get("cells"):
        problems.append("sampled bench payload has no cells")
    return problems


def check_regression(current: Dict, baseline: Dict,
                     max_regression: float = 0.20) -> List[str]:
    """Compare normalized throughput against a committed baseline.

    Returns a list of human-readable problems (empty = pass).  Throughput
    is normalized by each payload's own calibration figure, so the check
    measures code speed, not machine speed.
    """
    problems: List[str] = []
    for payload, label in ((current, "current"), (baseline, "baseline")):
        if not payload.get("calibration_ops_per_sec"):
            problems.append(f"{label} payload has no calibration figure")
    if problems:
        return problems
    current_norm = (current["cells_per_sec"]
                    / current["calibration_ops_per_sec"])
    baseline_norm = (baseline["cells_per_sec"]
                     / baseline["calibration_ops_per_sec"])
    floor = baseline_norm * (1.0 - max_regression)
    if current_norm < floor:
        drop = 100.0 * (1.0 - current_norm / baseline_norm)
        problems.append(
            f"normalized cells/sec regressed {drop:.1f}% "
            f"(limit {100.0 * max_regression:.0f}%): "
            f"{current_norm:.3e} vs baseline {baseline_norm:.3e}")
    return problems


def load_payload(path) -> Dict:
    """Read a BENCH_perf.json payload, validating the schema marker."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema "
            f"{payload.get('schema')!r} (expected {BENCH_SCHEMA})")
    return payload
