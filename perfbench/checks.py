"""Output checks for every result the benchmark times.

The checks work on the plain ``SimulationResult.to_dict()`` payloads the
public entry points hand back (or that ``repro serve`` returns over the
wire), and restate each contract here rather than calling the program's
own checker, so a change that weakens the program's self-checks cannot
weaken the benchmark's.  Each check returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Dict, Iterable, List, Tuple

#: Warm-up share of every trace (the entry points' default); statistics
#: cover only the references after it.
WARMUP_FRACTION = 0.25

#: The sampled lane's accuracy contract: these metrics, with rate metrics
#: measured against a denominator floor of 0.01.
HEADLINE_METRICS = ("l1_miss_rate", "tlb_miss_rate", "runtime_cycles",
                    "energy_total_nj")
RATE_FLOOR = 0.01

#: Fields a reference digest pins: every headline counter of a cell.
DIGEST_FIELDS = ("workload", "runtime_cycles", "instructions",
                 "memory_references", "l1_hits", "l1_misses",
                 "l1_ways_probed", "tlb_hits", "tlb_misses",
                 "superpage_reference_fraction",
                 "footprint_superpage_fraction", "superpage_accesses",
                 "tft_hit_rate", "fast_hits", "squashes",
                 "coherence_probes", "energy_nj")

_FRACTIONS = ("l1_hit_rate", "tlb_miss_rate", "superpage_reference_fraction",
              "footprint_superpage_fraction", "tft_hit_rate",
              "tft_missed_superpage_fraction")


def measured_references(length: int) -> int:
    """References in the statistics window of a ``length``-reference trace."""
    return length - int(length * WARMUP_FRACTION)


def _fraction_problems(row: Dict) -> List[str]:
    return [f"{name} = {row[name]!r} is outside [0, 1]"
            for name in _FRACTIONS if not 0.0 <= row[name] <= 1.0]


def _energy_problems(row: Dict) -> List[str]:
    parts = row["energy_nj"]
    problems = [f"energy component {name} = {value!r} is negative"
                for name, value in parts.items() if value < 0]
    total = sum(parts.values())
    if not math.isclose(total, row["energy_total_nj"], rel_tol=1e-9):
        problems.append(f"energy components sum to {total!r}, not the "
                        f"reported total {row['energy_total_nj']!r}")
    if row["energy_total_nj"] <= 0:
        problems.append("total energy is not positive")
    return problems


def check_exact_cell(row: Dict, workload: str, design: str,
                     length: int) -> List[str]:
    """Invariants every exact-lane result must satisfy, on any seed."""
    problems: List[str] = []
    if row.get("sampling") is not None:
        problems.append("an exact cell carries a sampling block")
    if row["workload"] != workload:
        problems.append(f"workload {row['workload']!r} != {workload!r}")
    if not row["config"].startswith(design + " "):
        problems.append(f"config {row['config']!r} is not a {design} L1")
    references = measured_references(length)
    if row["memory_references"] != references:
        problems.append(f"memory_references {row['memory_references']} != "
                        f"the {references}-reference measured window")
    if row["l1_hits"] + row["l1_misses"] != row["memory_references"]:
        problems.append("l1_hits + l1_misses != memory_references")
    if row["tlb_hits"] + row["tlb_misses"] < row["memory_references"]:
        problems.append("fewer TLB lookups than references")
    if row["instructions"] < row["memory_references"]:
        problems.append("fewer instructions than memory references")
    if row["runtime_cycles"] <= 0:
        problems.append("runtime is not positive")
    if row["fast_hits"] > row["l1_hits"]:
        problems.append("fast_hits exceed l1_hits")
    if design != "seesaw" and (row["fast_hits"] or row["tft_hit_rate"]):
        problems.append(f"a {design} L1 reports SEESAW fast hits or TFT hits")
    if row["faults_injected"]:
        problems.append("faults were injected into a benchmark cell")
    return problems + _fraction_problems(row) + _energy_problems(row)


def headline_value(row: Dict, metric: str) -> float:
    if metric == "l1_miss_rate":
        return 1.0 - row["l1_hit_rate"]
    return float(row[metric])


def relative_error(sampled: float, exact: float, rate: bool) -> float:
    floor = RATE_FLOOR if rate else 1e-12
    return abs(sampled - exact) / max(abs(exact), floor)


def sampled_errors(row: Dict, exact_row: Dict) -> Dict[str, float]:
    """Observed relative error of each headline metric vs the exact lane."""
    return {metric: relative_error(headline_value(row, metric),
                                   headline_value(exact_row, metric),
                                   rate=metric.endswith("_rate"))
            for metric in HEADLINE_METRICS}


def check_sampled_cell(row: Dict, exact_row: Dict, workload: str,
                       length: int) -> List[str]:
    """A sampled cell is well-formed and within its own reported bounds."""
    problems: List[str] = []
    block = row.get("sampling")
    if not block or not block.get("sampled"):
        return ["a sampled cell carries no sampling block"]
    if row["workload"] != workload:
        problems.append(f"workload {row['workload']!r} != {workload!r}")
    if row["memory_references"] != measured_references(length):
        problems.append("memory_references != the measured window")
    if not 0.0 < block["coverage"] <= 1.0:
        problems.append(f"coverage {block['coverage']!r} is outside (0, 1]")
    bounds = block.get("error_bounds") or {}
    for metric, error in sampled_errors(row, exact_row).items():
        bound = bounds.get(metric)
        if bound is None:
            problems.append(f"no reported error bound for {metric}")
        elif error > bound:
            problems.append(f"{metric} error {error:.4f} exceeds the cell's "
                            f"own bound {bound:.4f}")
    return problems + _fraction_problems(row) + _energy_problems(row)


def results_digest(cells: Iterable[Tuple[str, str, Dict]]) -> str:
    """SHA-256 over the pinned fields of ``(workload, design, row)`` cells,
    in the order given."""
    body = [[workload, design, {key: row[key] for key in DIGEST_FIELDS}]
            for workload, design, row in cells]
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()
