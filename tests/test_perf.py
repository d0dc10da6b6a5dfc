"""Unit tests for the repro.perf package and canonical journals.

Covers the pieces the differential suite doesn't: the duplicate-in-flight
guard, failure degradation and fail-fast in the process dispatcher,
``SweepJournal.rewrite_canonical``, and the bench harness's percentile /
calibration-normalized regression arithmetic.
"""

import json
from pathlib import Path

import pytest

from repro.perf.bench import (
    BENCH_SCHEMA,
    check_regression,
    load_payload,
    percentile,
    run_benchmark,
)
from repro.resilience import FaultPlan, FaultSpec
from repro.resilience.checkpoint import config_digest
from repro.resilience.errors import DuplicateCellError
from repro.resilience.runner import (
    CellError,
    SweepJournal,
    _CellTask,
    resilient_sweep,
)
from repro.resilience.supervisor import _Dispatcher
from repro.sim.config import SystemConfig


def _task(slot, workload="gups", design="vipt", seed=42):
    config = SystemConfig(l1_design=design, seed=seed)
    return _CellTask(slot, workload, design, config, config_digest(config))


def _dispatcher(**overrides):
    parameters = dict(jobs=2, trace_length=500, seed=42, fault_plan=None,
                      timeout_s=None, max_retries=0, retry_backoff_s=0.01,
                      fail_fast=False)
    parameters.update(overrides)
    return _Dispatcher(**parameters)


class TestDuplicateCellGuard:
    def test_spawning_an_in_flight_cell_raises(self):
        dispatcher = _dispatcher()
        first = _task(0)
        duplicate = _task(1)  # same (workload, design), different slot
        dispatcher._spawn(first)
        try:
            with pytest.raises(DuplicateCellError):
                dispatcher._spawn(duplicate)
        finally:
            dispatcher._shutdown()

    def test_distinct_cells_may_fly_together(self):
        dispatcher = _dispatcher()
        dispatcher._spawn(_task(0, design="vipt"))
        try:
            dispatcher._spawn(_task(1, design="seesaw"))
            assert len(dispatcher._in_flight) == 2
        finally:
            dispatcher._shutdown()


class TestParallelFailureHandling:
    def test_worker_error_degrades_to_failed_cell(self, tmp_path):
        """A deterministic worker error (sanitizer tripping on an injected
        fault) becomes a FailedCell record and the sweep keeps going —
        the serial runner's degradation contract."""
        plan = FaultPlan([FaultSpec("stats-skew", 1200)])
        journal = tmp_path / "journal.jsonl"
        report = resilient_sweep(
            SystemConfig(seed=42, sanitize=True), ["gups"],
            trace_length=2000, jobs=2, designs=("vipt", "seesaw"),
            fault_plan=plan, journal_path=journal)
        assert not report.ok
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure.error_class == "SanitizerError"
            assert failure.attempts == 1  # deterministic: never retried
        raw = journal.read_text()
        assert raw.count('"type": "failed"') == 2

    def test_fail_fast_raises_cell_error(self):
        """fail_fast propagates the worker's exception shape instead of
        degrading."""
        plan = FaultPlan([FaultSpec("stats-skew", 1200)])
        with pytest.raises(CellError):
            resilient_sweep(
                SystemConfig(seed=42, sanitize=True), ["gups"],
                trace_length=2000, jobs=2, designs=("vipt", "seesaw"),
                fault_plan=plan, fail_fast=True)

    def test_timeout_degrades_after_retries(self, tmp_path):
        report = resilient_sweep(
            SystemConfig(seed=42), ["mcf"], trace_length=60_000, jobs=2,
            designs=("vipt",), timeout_s=0.02, max_retries=1,
            retry_backoff_s=0.01,
            journal_path=tmp_path / "journal.jsonl")
        assert not report.ok
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.error_class == "CellTimeout"
        assert failure.attempts == 2  # first try + one retry


class TestCanonicalJournal:
    def _write_out_of_order(self, path):
        journal = SweepJournal(path)
        journal.write_header({
            "workloads": ["gups", "redis"],
            "designs": ["vipt", "seesaw"],
        })
        journal.append_done("redis", "seesaw", "d1", {"x": 1})
        journal.append_done("gups", "vipt", "d2", {"x": 2})
        journal.append_done("redis", "vipt", "d3", {"x": 3})
        journal.append_done("gups", "seesaw", "d4", {"x": 4})
        return journal

    def test_rewrite_sorts_by_cell_enumeration(self, tmp_path):
        journal = self._write_out_of_order(tmp_path / "journal.jsonl")
        assert journal.rewrite_canonical() is True
        records = [json.loads(line) for line in
                   (tmp_path / "journal.jsonl").read_text().splitlines()]
        assert records[0]["type"] == "header"
        cells = [(r["workload"], r["design"]) for r in records[1:]]
        assert cells == [("gups", "vipt"), ("gups", "seesaw"),
                         ("redis", "vipt"), ("redis", "seesaw")]

    def test_rewrite_is_idempotent(self, tmp_path):
        journal = self._write_out_of_order(tmp_path / "journal.jsonl")
        journal.rewrite_canonical()
        first = (tmp_path / "journal.jsonl").read_bytes()
        assert journal.rewrite_canonical() is False
        assert (tmp_path / "journal.jsonl").read_bytes() == first

    def test_rewrite_collapses_superseded_records(self, tmp_path):
        journal = self._write_out_of_order(tmp_path / "journal.jsonl")
        journal.append_done("gups", "vipt", "d2", {"x": 99})  # supersedes
        journal.rewrite_canonical()
        _, cells = journal.read()
        assert cells[("gups", "vipt")]["result"] == {"x": 99}
        raw = (tmp_path / "journal.jsonl").read_text()
        assert raw.count('"workload": "gups", "design"') == 0  # sanity
        assert sum(1 for line in raw.splitlines()
                   if '"type": "done"' in line) == 4

    def test_rewrite_survives_checksum_validation(self, tmp_path):
        """Rewritten records must still pass the journal's per-record
        checksums (they are carried verbatim, not recomputed)."""
        journal = self._write_out_of_order(tmp_path / "journal.jsonl")
        journal.rewrite_canonical()
        header, cells = journal.read()  # read() raises on checksum failure
        assert len(cells) == 4

    def test_resumed_serial_sweep_matches_uninterrupted(self, tmp_path):
        """Interrupt a journaled sweep after one cell, resume it, and the
        final journal equals an uninterrupted run's journal byte for
        byte (the canonicalize-on-completion contract)."""
        config = SystemConfig(seed=42)
        full = tmp_path / "full.jsonl"
        resilient_sweep(config, ["gups"], trace_length=500,
                        journal_path=full)
        partial = tmp_path / "partial.jsonl"
        resilient_sweep(config, ["gups"], trace_length=500,
                        designs=("vipt",), journal_path=partial)
        # Patch the partial journal's header to the full matrix, as a
        # killed full sweep would have written it.
        header_line = full.read_text().splitlines()[0]
        partial_lines = partial.read_text().splitlines()
        partial.write_text("\n".join([header_line, partial_lines[1]]) + "\n")
        resumed = resilient_sweep(config, ["gups"], trace_length=500,
                                  journal_path=partial, resume=True)
        assert resumed.reused == 1
        assert partial.read_bytes() == full.read_bytes()


class TestBenchArithmetic:
    def test_percentile_interpolates(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 50) == pytest.approx(2.5)
        assert percentile(samples, 95) == pytest.approx(3.85)
        assert percentile([7.0], 95) == 7.0

    def test_regression_check_normalizes_by_calibration(self):
        baseline = {"cells_per_sec": 10.0, "calibration_ops_per_sec": 1e6}
        # Same code speed on a machine twice as fast: no regression.
        current = {"cells_per_sec": 20.0, "calibration_ops_per_sec": 2e6}
        assert check_regression(current, baseline, 0.20) == []
        # 40% normalized drop: flagged.
        slow = {"cells_per_sec": 6.0, "calibration_ops_per_sec": 1e6}
        problems = check_regression(slow, baseline, 0.20)
        assert len(problems) == 1
        assert "regressed" in problems[0]

    def test_regression_check_requires_calibration(self):
        problems = check_regression({"cells_per_sec": 1.0},
                                    {"cells_per_sec": 1.0}, 0.20)
        assert problems


class TestBenchHarness:
    def test_quick_payload_shape(self, tmp_path):
        payload = run_benchmark(workloads=["gups"], designs=("vipt",),
                                trace_length=1_000, repeats=1, quick=False)
        assert payload["schema"] == BENCH_SCHEMA
        assert payload["cells"] == 1
        assert payload["cells_per_sec"] > 0
        assert payload["accesses_per_sec"] > 0
        for stage in ("trace", "construct", "prewarm", "loop", "collect"):
            figures = payload["stages"][stage]
            assert figures["p50_s"] <= figures["p95_s"] or \
                figures["p50_s"] == pytest.approx(figures["p95_s"])
        out = tmp_path / "bench.json"
        out.write_text(json.dumps(payload))
        assert load_payload(out)["cells"] == 1

    def test_load_payload_rejects_other_schemas(self, tmp_path):
        out = tmp_path / "bench.json"
        out.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError):
            load_payload(out)

class TestCommittedBaseline:
    def test_baseline_payload_loads_and_is_complete(self):
        """The regression gate in CI depends on the committed baseline
        staying loadable with a calibration figure and throughput."""
        baseline = (Path(__file__).resolve().parents[1]
                    / "benchmarks" / "perf" / "BENCH_baseline.json")
        payload = load_payload(baseline)
        assert payload["cells_per_sec"] > 0
        assert payload["calibration_ops_per_sec"] > 0
        assert set(payload["stages"]) == {"trace", "construct", "prewarm",
                                          "loop", "collect"}
