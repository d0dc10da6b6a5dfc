"""Performance engineering: the ``repro bench`` harness.

:mod:`repro.perf.bench` measures per-stage latency percentiles, cells/sec
and accesses/sec throughput, and gates them against a committed baseline
with a calibration-normalized regression check.  Its ``jobs > 1`` section
times ``resilient_sweep(jobs=…)`` — the one sweep engine, whose process
dispatcher lives in :mod:`repro.resilience.supervisor` — over the same
matrix.
"""

from repro.perf.bench import check_regression, run_benchmark

__all__ = [
    "run_benchmark",
    "check_regression",
]
