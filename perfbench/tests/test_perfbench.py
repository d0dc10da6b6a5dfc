"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, the
metric names it prints, its output checks, and a tiny smoke of every
workload.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import checks, harness
from perfbench.tracer import TARGETS, Tracer, inclusive_times, resolve, \
    self_times, totals_by_name, wrapper_cost

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ span maths

def test_self_time_subtracts_direct_children_only():
    # root [0, 10) > a [1, 4) > b [2, 3); root > c [5, 6)
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_tracer_cost_comes_out_of_self_and_inclusive_times():
    # root [0, 10) > a [1, 4) > b [2, 3); root > c [5, 6).  Each span
    # carries 0.1 s of tracer cost inside it and charges 0.2 s to its
    # parent per call.
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    parent = np.array([-1, 0, 1, 0])
    own = self_times(start, end, parent, inside=0.1, outside=0.2)
    assert np.allclose(own, [6.0 - 0.1 - 0.4, 2.0 - 0.1 - 0.2, 0.9, 0.9])
    total = inclusive_times(start, end, parent, inside=0.1, outside=0.2)
    assert np.allclose(total, [10.0 - 0.1 - 3 * 0.3, 3.0 - 0.1 - 0.3,
                               0.9, 0.9])
    # The corrected inclusive time is the sum of the corrected self times.
    assert np.isclose(total[0], own.sum())


def test_wrapper_cost_is_positive_and_small():
    inside, outside = wrapper_cost(calls=2000, repeats=3)
    assert 0 < inside < 1e-4
    assert 0 < outside < 1e-4


def test_totals_group_by_name():
    spans = {"start": np.array([0.0, 1.0, 2.0, 5.0]),
             "end": np.array([10.0, 4.0, 3.0, 6.0]),
             "parent": np.array([-1, 0, 1, 0]),
             "name": np.array([0, 1, 1, 2])}
    totals = totals_by_name(spans, ["root", "x", "y"])
    assert totals["x"] == {"self": 3.0, "total": 4.0, "calls": 2}
    assert totals["root"]["self"] == 6.0


def test_phase_spans_keep_only_the_named_subtrees():
    tracer = Tracer()
    outer = tracer.open("bench.pass")
    inner = tracer.open("work")
    tracer.close(inner)
    tracer.close(outer)
    other = tracer.open("bench.setup")
    tracer.open("work")
    tracer.close(other + 1)
    tracer.close(other)
    spans = tracer.spans()
    one = harness.phase_spans(tracer, spans, ["bench.pass"])
    assert len(one["name"]) == 2
    assert one["parent"].tolist() == [-1, 0]


def test_wrapped_calls_nest_and_carry_their_cell():
    import types

    class Layer:
        def inner(self):
            return 1

    module = types.ModuleType("fake_layer")
    module.Layer = Layer

    def run_cell(config, workload):
        return module.Layer().inner() + 1

    module.run_cell = run_cell
    sys.modules["fake_layer"] = module
    try:
        tracer = Tracer()
        tracer.install([("fake_layer", "Layer", "inner", "inner"),
                        ("fake_layer", None, "run_cell", "resilience.cell")])
        config = types.SimpleNamespace(l1_design="seesaw")
        assert module.run_cell(config, "gups") == 2
        tracer.uninstall()
        assert module.run_cell is run_cell
        assert not hasattr(Layer.inner, "__perfbench_original__")
        spans = tracer.spans()
        names = [tracer.names[n] for n in spans["name"]]
        assert names == ["resilience.cell", "inner"]
        assert spans["parent"].tolist() == [-1, 0]
        assert [tracer.contexts[c] for c in spans["ctx"]] == \
            ["gups/seesaw", "gups/seesaw"]
    finally:
        del sys.modules["fake_layer"]


# ---------------------------------------------------------- output checks

def _exact_row():
    from repro.sim.config import SystemConfig
    from repro.sim.system import SystemSimulator
    from repro.workloads.suite import cached_trace

    trace = cached_trace("gups", 2000, seed=3)
    return SystemSimulator(SystemConfig(l1_design="seesaw", seed=3),
                           trace).run().to_dict()


def test_exact_checks_accept_a_real_result_and_catch_damage():
    row = _exact_row()
    assert checks.check_exact_cell(row, "gups", "seesaw", 2000) == []
    broken = dict(row, l1_hits=row["l1_hits"] + 1)
    assert checks.check_exact_cell(broken, "gups", "seesaw", 2000)
    assert checks.check_exact_cell(row, "gups", "vipt", 2000)
    skewed = dict(row, energy_total_nj=row["energy_total_nj"] * 1.01)
    assert checks.check_exact_cell(skewed, "gups", "seesaw", 2000)


def test_sampled_check_enforces_the_cells_own_bound():
    exact = _exact_row()
    sampled = dict(exact, sampling={
        "sampled": True, "coverage": 0.5,
        "error_bounds": {m: 0.01 for m in checks.HEADLINE_METRICS}})
    assert checks.check_sampled_cell(sampled, exact, "gups", 2000) == []
    off = dict(sampled, runtime_cycles=int(exact["runtime_cycles"] * 1.05))
    problems = checks.check_sampled_cell(off, exact, "gups", 2000)
    assert any("runtime_cycles" in p for p in problems)


def test_digest_pins_results():
    row = _exact_row()
    digest = checks.results_digest([("gups", "seesaw", row)])
    assert digest == checks.results_digest([("gups", "seesaw", dict(row))])
    assert digest != checks.results_digest(
        [("gups", "seesaw", dict(row, runtime_cycles=1))])


# ------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_lists_exactly_the_printed_metrics():
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCH["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in BENCH["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in BENCH["workloads"]] == \
        [name for name in harness.WORKLOAD_NAMES
         if name not in harness.UNGATED]
    assert BENCH["paths"] == ["perfbench"]


def test_every_target_exists_and_is_a_callable():
    for module, owner, attr, _name in TARGETS:
        assert callable(getattr(resolve(module, owner), attr)), (module, attr)


# ------------------------------------------------------------- smoke runs

#: A seed with no shipped reference digest (the shrunk smoke workloads
#: produce different results from the shipped ones).
SMOKE_SEED = 12345


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload so a whole run takes seconds."""
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "REPLAY_SHARE", 0.02)
    monkeypatch.setattr(harness, "SERVE_LENGTH", 1024)
    monkeypatch.setattr(harness, "SWEEPS", {
        "exact-sweep": dataclasses.replace(
            harness.EXACT, length=1200, warm_length=400),
        "churn-sweep": dataclasses.replace(
            harness.CHURN, length=2400, warm_length=400),
        "sampled-sweep": dataclasses.replace(
            harness.SAMPLED, workloads=("gups", "redis"), length=12_000,
            warm_workloads=("gups",), warm_length=12_000),
    })


def _metric_table(trace: bool):
    entries = BENCH["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


@pytest.mark.parametrize("workload", harness.WORKLOAD_NAMES)
def test_untraced_smoke_passes_checks_and_prints_every_metric(
        tiny, monkeypatch, tmp_path, workload):
    def refuse(*_args, **_kwargs):
        raise AssertionError("the untraced run installed a tracer")

    monkeypatch.setattr(Tracer, "install", refuse)
    outcome = harness.run_workload(workload, SMOKE_SEED, 0.2, False,
                                   tmp_path)
    assert outcome.failed == 0, outcome.problems
    assert outcome.attempted > 0
    printed = {name: unit for name, (_v, unit) in outcome.metrics.items()}
    assert printed == _metric_table(trace=False)
    assert all(value > 0 for value, _u in outcome.metrics.values())


@pytest.mark.parametrize("workload", harness.WORKLOAD_NAMES)
def test_traced_smoke_restores_every_original(tiny, tmp_path, workload):
    before = {(module, owner, attr): getattr(resolve(module, owner), attr)
              for module, owner, attr, _name in TARGETS}
    outcome = harness.run_workload(workload, SMOKE_SEED, 0.4, True, tmp_path)
    assert outcome.failed == 0, outcome.problems
    for key, original in before.items():
        assert getattr(resolve(key[0], key[1]), key[2]) is original, key
    printed = {name: unit for name, (_v, unit) in outcome.metrics.items()}
    assert printed == _metric_table(trace=True)
    assert outcome.metrics["sim.loop_s"][0] > 0 or workload == "serve-mixed"


def test_a_digest_mismatch_fails_every_delivered_cell(tiny, monkeypatch,
                                                      tmp_path):
    monkeypatch.setattr(harness, "load_reference_digests",
                        lambda: {"exact-sweep": {str(SMOKE_SEED): "0" * 64}})
    outcome = harness.run_workload("exact-sweep", SMOKE_SEED, 0.1, False,
                                   tmp_path)
    assert outcome.failed == outcome.attempted > 0


def test_shipped_digests_match_the_current_simulator(tmp_path):
    """Each shipped reference digest is reproduced for its first seed."""
    shipped = harness.load_reference_digests()
    for name, by_seed in shipped.items():
        seed = min(by_seed, key=int)
        run = harness.SweepRun(harness.SWEEPS[name], int(seed), tmp_path)
        run.fill_memo()
        run.fresh_pass()
        assert run.digest == by_seed[seed], name


def test_run_refuses_a_directory_without_the_simulator(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
