"""Tests for the resilience harness: checkpoints, crash-safe sweeps,
fault injection, and the associated up-front validation satellites."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.devtools.sanitize import SanitizerError
from repro.resilience import (
    CheckpointError,
    FAULT_KINDS,
    FaultInjectionError,
    FaultPlan,
    FaultSpec,
    JournalError,
    SweepJournal,
    load_checkpoint,
    resilient_sweep,
    restore_simulator,
    save_checkpoint,
)
from repro.sim.config import SystemConfig
from repro.sim.experiment import (
    compare_designs,
    energy_improvement,
    runtime_improvement,
    sweep,
)
from repro.sim.stats import SimulationResult
from repro.sim.system import SystemSimulator
from repro.workloads.suite import build_trace, get_workload

LENGTH = 2500


def make_trace(name="g500", length=LENGTH, seed=3):
    return build_trace(get_workload(name), length, seed=seed)


def make_config(**overrides):
    defaults = dict(l1_design="seesaw", memhog_fraction=0.4)
    defaults.update(overrides)
    return SystemConfig(**defaults)


# --------------------------------------------------------- validation (sats)

class TestUpFrontValidation:
    def test_run_rejects_warmup_out_of_range(self):
        sim = SystemSimulator(make_config(), make_trace(length=500))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                sim.run(warmup_fraction=bad)

    def test_run_accepts_zero_warmup(self):
        sim = SystemSimulator(make_config(), make_trace(length=500))
        result = sim.run(warmup_fraction=0.0)
        assert result.memory_references == 500

    def test_compare_designs_rejects_unknown_design(self):
        with pytest.raises(ValueError, match="valid designs"):
            compare_designs(make_config(), make_trace(length=500),
                            designs=("vipt", "sesame"))

    def test_improvements_name_available_designs(self):
        results = compare_designs(make_config(), make_trace(length=500),
                                  designs=("vipt", "seesaw"))
        with pytest.raises(ValueError, match="available designs"):
            runtime_improvement(results, baseline="pipt")
        with pytest.raises(ValueError, match="available designs"):
            energy_improvement(results, candidate="vivt")

    def test_sweep_rejects_unknown_design(self):
        with pytest.raises(ValueError, match="valid designs"):
            resilient_sweep(make_config(), ["g500"], trace_length=100,
                            designs=("vipt", "nope"))

    def test_sweep_rejects_unknown_workload_up_front(self):
        with pytest.raises(KeyError, match="valid workloads"):
            resilient_sweep(make_config(), ["graph500"], trace_length=100)

    def test_config_rejects_bad_fractions(self):
        with pytest.raises(ValueError, match="memhog_fraction"):
            SystemConfig(memhog_fraction=1.0)
        with pytest.raises(ValueError, match="aging_fraction"):
            SystemConfig(aging_fraction=-0.2)

    def test_get_workload_lists_valid_names(self):
        with pytest.raises(KeyError, match="valid workloads"):
            get_workload("graph500")


# ------------------------------------------------------------- fault specs

class TestFaultSpecs:
    def test_parse_round_trip(self):
        spec = FaultSpec.parse("energy-skew@2000")
        assert spec == FaultSpec("energy-skew", 2000)

    def test_parse_rejects_bad_forms(self):
        for bad in ("energy-skew", "bogus@5", "energy-skew@x",
                    "energy-skew@-1"):
            with pytest.raises(FaultInjectionError):
                FaultSpec.parse(bad)

    def test_plan_kinds_in_order(self):
        plan = FaultPlan.parse(["stats-skew@10", "energy-skew@5"])
        assert plan.kinds == ["stats-skew", "energy-skew"]


# -------------------------------------------------------- snapshot/restore

class TestSnapshotRestore:
    @pytest.mark.parametrize("design", ["vipt", "seesaw"])
    def test_round_trip_bit_identical(self, design):
        config = make_config(l1_design=design)
        reference = SystemSimulator(config, make_trace()).run()

        sim = SystemSimulator(config, make_trace())
        sim.run_until(LENGTH // 3)
        blob = sim.snapshot()
        resumed = SystemSimulator(config, make_trace())
        resumed.restore(blob)
        assert resumed.finish() == reference

    def test_restore_rejects_other_config(self):
        sim = SystemSimulator(make_config(), make_trace(length=500))
        sim.run_until(100)
        blob = sim.snapshot()
        other = SystemSimulator(make_config(l1_design="vipt"),
                                make_trace(length=500))
        with pytest.raises(CheckpointError, match="configuration"):
            other.restore(blob)

    def test_restore_rejects_v2_snapshot(self):
        """v2 payloads pickled the LLC as a SetAssociativeCache; a v3
        simulator must refuse them rather than load a foreign layout."""
        import pickle
        sim = SystemSimulator(make_config(), make_trace(length=500))
        sim.run_until(100)
        state = pickle.loads(sim.snapshot())
        assert state["version"] == SystemSimulator.SNAPSHOT_VERSION > 2
        state["version"] = 2
        other = SystemSimulator(make_config(), make_trace(length=500))
        with pytest.raises(CheckpointError, match="version 2"):
            other.restore(pickle.dumps(state))

    def test_restore_rejects_other_trace(self):
        sim = SystemSimulator(make_config(), make_trace(length=500))
        sim.run_until(100)
        blob = sim.snapshot()
        other = SystemSimulator(make_config(),
                                make_trace(length=500, seed=99))
        with pytest.raises(CheckpointError, match="trace"):
            other.restore(blob)


class TestCheckpointFiles:
    def test_file_round_trip(self, tmp_path):
        config = make_config()
        reference = SystemSimulator(config, make_trace()).run()

        path = tmp_path / "ckpt.bin"
        sim = SystemSimulator(config, make_trace())
        sim.run_until(LENGTH // 2)
        sim._next_index = LENGTH // 2
        save_checkpoint(path, sim)
        header, _payload = load_checkpoint(path)
        assert header["workload"] == "g500"
        assert header["next_index"] == LENGTH // 2

        resumed = restore_simulator(path, config, make_trace())
        assert resumed.finish() == reference

    def test_corrupted_payload_detected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        sim = SystemSimulator(make_config(), make_trace(length=500))
        sim.run_until(200)
        save_checkpoint(path, sim)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_text("hello world\n")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_periodic_checkpoints_during_run(self, tmp_path):
        config = make_config()
        reference = SystemSimulator(config, make_trace()).run()
        path = tmp_path / "ckpt.bin"
        sim = SystemSimulator(config, make_trace())
        sim.run_until(1700, checkpoint_path=path, checkpoint_interval=600)
        # the last periodic checkpoint landed at index 1200
        _header, _payload = load_checkpoint(path)
        resumed = restore_simulator(path, config, make_trace())
        assert resumed._next_index == 1200
        assert resumed.finish() == reference


# ------------------------------------------------------------------ sweeps

class TestResilientSweep:
    def test_empty_design_list(self):
        report = resilient_sweep(make_config(), ["g500"], trace_length=200,
                                 designs=())
        assert report.results == {"g500": {}}
        assert report.ok

    def test_single_point_sweep(self):
        report = resilient_sweep(make_config(), ["g500"], trace_length=1000,
                                 designs=("seesaw",))
        assert set(report.results["g500"]) == {"seesaw"}
        assert report.executed == 1

    def test_duplicate_values_collapsed(self):
        report = resilient_sweep(make_config(), ["g500", "g500"],
                                 trace_length=1000,
                                 designs=("vipt", "vipt"))
        assert report.executed == 1
        assert set(report.results) == {"g500"}

    def test_journal_resume_reuses_cells(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        first = resilient_sweep(make_config(), ["g500", "gups"],
                                trace_length=1000, journal_path=journal)
        assert first.executed == 4 and first.reused == 0
        second = resilient_sweep(make_config(), ["g500", "gups"],
                                 trace_length=1000, journal_path=journal)
        assert second.executed == 0 and second.reused == 4
        for workload in first.results:
            assert first.results[workload] == second.results[workload]

    def test_isolated_matches_inline(self):
        inline = resilient_sweep(make_config(), ["g500"], trace_length=1000,
                                 designs=("vipt",))
        isolated = resilient_sweep(make_config(), ["g500"],
                                   trace_length=1000, designs=("vipt",),
                                   isolate=True)
        assert inline.results["g500"]["vipt"] == \
            isolated.results["g500"]["vipt"]

    def test_timeout_degrades_and_continues(self):
        report = resilient_sweep(make_config(), ["g500"], trace_length=2000,
                                 designs=("vipt", "seesaw"),
                                 timeout_s=0.001, max_retries=1,
                                 retry_backoff_s=0.01)
        assert not report.ok
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure.error_class == "CellTimeout"
            assert failure.attempts == 2  # initial try + one retry

    def test_classic_sweep_contract_preserved(self):
        results = sweep(make_config(memhog_fraction=0.0), ["g500"],
                        trace_length=1000)
        assert set(results["g500"]) == {"vipt", "seesaw"}


class TestJournalFormat:
    def test_torn_trailing_line_tolerated(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        resilient_sweep(make_config(), ["g500"], trace_length=1000,
                        designs=("vipt",), journal_path=journal_path)
        with open(journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "done", "workload": "gups", "trunc')
        header, cells = SweepJournal(journal_path).read()
        assert header["type"] == "header"
        assert ("g500", "vipt") in cells
        assert ("gups", "vipt") not in cells

    def test_mid_file_corruption_rejected(self, tmp_path):
        journal_path = tmp_path / "sweep.jsonl"
        resilient_sweep(make_config(), ["g500"], trace_length=1000,
                        designs=("vipt", "seesaw"),
                        journal_path=journal_path)
        lines = journal_path.read_text().splitlines()
        assert len(lines) == 3  # header + two cells
        lines[1] = lines[1][:-10] + 'corrupted"'
        journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt record"):
            SweepJournal(journal_path).read()

    def test_missing_journal(self, tmp_path):
        with pytest.raises(JournalError, match="no sweep journal"):
            SweepJournal(tmp_path / "nope.jsonl").read()

    def test_result_survives_json_round_trip(self):
        result = SystemSimulator(make_config(), make_trace(length=800)).run()
        payload = json.loads(json.dumps(result.to_dict()))
        assert SimulationResult.from_dict(payload) == result


def _sweep_victim(journal_path):
    """Child process body for the kill-and-resume test."""
    resilient_sweep(SystemConfig(l1_design="seesaw", memhog_fraction=0.4),
                    ["g500", "gups"], trace_length=LENGTH,
                    designs=("vipt", "seesaw"), journal_path=journal_path)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="kill-and-resume test needs fork")
def test_sweep_killed_mid_run_resumes_bit_identical(tmp_path):
    journal_path = str(tmp_path / "sweep.jsonl")
    reference = resilient_sweep(make_config(), ["g500", "gups"],
                                trace_length=LENGTH,
                                designs=("vipt", "seesaw"))

    context = multiprocessing.get_context("fork")
    victim = context.Process(target=_sweep_victim, args=(journal_path,))
    victim.start()
    # wait until at least one cell has been journaled, then SIGKILL —
    # the harshest interruption: no cleanup code runs.
    deadline = time.time() + 60
    done_cells = 0
    while time.time() < deadline and victim.is_alive():
        if os.path.exists(journal_path):
            with open(journal_path, "r", encoding="utf-8") as handle:
                done_cells = sum(1 for line in handle
                                 if '"type": "done"' in line)
            if done_cells >= 1:
                break
        time.sleep(0.02)
    if victim.is_alive():
        os.kill(victim.pid, signal.SIGKILL)
    victim.join(10)
    assert done_cells >= 1, "victim never completed a cell within 60s"

    resumed = resilient_sweep(make_config(), ["g500", "gups"],
                              trace_length=LENGTH,
                              designs=("vipt", "seesaw"),
                              journal_path=journal_path)
    assert resumed.ok
    assert resumed.reused >= 1
    for workload in reference.results:
        for design in reference.results[workload]:
            assert resumed.results[workload][design] == \
                reference.results[workload][design]


# --------------------------------------------------------- fault injection

FAULT_SCHEDULE = {
    "tft-false-positive": 1200,
    "partition-desync": LENGTH - 200,
    "tlb-shootdown-drop": 1200,
    "trace-truncate": 1800,
    "energy-skew": 1200,
    "stats-skew": 1200,
}


class TestFaultInjection:
    def test_schedule_covers_every_kind(self):
        assert set(FAULT_SCHEDULE) == set(FAULT_KINDS)

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_sanitizer_detects_each_fault_class(self, kind):
        config = make_config(sanitize=True)
        sim = SystemSimulator(config, make_trace())
        sim.arm_faults(FaultPlan([FaultSpec(kind, FAULT_SCHEDULE[kind])]))
        with pytest.raises(SanitizerError):
            sim.run()

    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_unsanitized_run_completes_and_flags(self, kind):
        config = make_config(sanitize=False)
        sim = SystemSimulator(config, make_trace())
        sim.arm_faults(FaultPlan([FaultSpec(kind, FAULT_SCHEDULE[kind])]))
        result = sim.run()
        assert kind in result.faults_injected

    def test_fault_requiring_tft_rejects_plain_vipt(self):
        config = make_config(l1_design="vipt", sanitize=False)
        sim = SystemSimulator(config, make_trace(length=800))
        sim.arm_faults(FaultPlan([FaultSpec("tft-false-positive", 10)]))
        with pytest.raises(FaultInjectionError, match="TFT"):
            sim.run()

    def test_clean_sanitized_runs_stay_clean(self):
        # the detection paths must not false-positive on healthy runs
        for design in ("vipt", "seesaw"):
            config = make_config(l1_design=design, sanitize=True)
            result = SystemSimulator(config, make_trace(length=1500)).run()
            assert result.faults_injected == []

    def test_sweep_report_carries_faults(self):
        plan = FaultPlan([FaultSpec("stats-skew", 1200)])
        report = resilient_sweep(make_config(sanitize=False), ["g500"],
                                 trace_length=LENGTH, designs=("seesaw",),
                                 fault_plan=plan)
        assert report.ok
        result = report.results["g500"]["seesaw"]
        assert result.faults_injected == ["stats-skew"]
