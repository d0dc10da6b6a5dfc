"""Crash-safe, isolated, resumable sweeps.

:func:`resilient_sweep` is the one sweep engine: it runs
``repro.sim.experiment.sweep``, ``repro sweep``/``repro resume``, ``repro
serve`` requests and the ``repro bench`` parallel pass, at every
``jobs`` value:

* **Journaling** — every completed (workload, design) cell is appended to
  a JSONL journal with an fsync and a per-record checksum, so a sweep
  killed mid-run (even ``SIGKILL``) resumes from the journal instead of
  restarting.  Reused cells are rebuilt with
  ``SimulationResult.from_dict`` and are bit-identical to a fresh run
  (the round trip is lossless).
* **Isolation** — cells optionally run in a subprocess with a wall-clock
  watchdog, so a wedged or crashing cell cannot take the sweep down.
* **Retry + graceful degradation** — transient failures (timeout, worker
  crash) are retried with exponential backoff; deterministic errors are
  recorded as structured :class:`FailedCell` entries and the sweep moves
  on.
* **Parallelism** — ``jobs > 1`` hands the planned cells to the process
  dispatcher in :mod:`repro.resilience.supervisor`; outcomes are
  journaled in cell-enumeration order either way, so the journal bytes
  do not depend on ``jobs``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import shutil
import signal as _signal_module
import threading
import time
import traceback
from contextlib import ExitStack, suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.resilience import chaos
from repro.resilience.checkpoint import config_digest, config_to_dict
from repro.resilience.fsio import replace_durable
from repro.resilience.errors import (
    CellCrash,
    CellError,
    CellTimeout,
    DeadlineExceeded,
    DiskSpaceError,
    JournalError,
    JournalWriteError,
    SweepInterrupted,
    classify_write_error,
)

#: Designs a sweep accepts (mirrors SystemConfig.l1_design validation).
VALID_DESIGNS = ("vipt", "pipt", "vivt", "seesaw")

#: Default free-space floor (bytes) checked before every journal append;
#: hitting it pauses the sweep cleanly instead of tearing the journal.
DEFAULT_MIN_FREE_BYTES = 32 * 2 ** 20

#: Ceiling on any single retry backoff sleep ("bounded exponential").
MAX_RETRY_BACKOFF_S = 30.0

__all__ = [
    "VALID_DESIGNS",
    "MAX_RETRY_BACKOFF_S",
    "CellTimeout",
    "CellCrash",
    "CellError",
    "JournalError",
    "FailedCell",
    "SweepReport",
    "SweepJournal",
    "resilient_sweep",
    "retry_delay",
    "retry_rng_for",
]


def retry_delay(base_s: float, attempt: int, rng=None,
                max_s: float = MAX_RETRY_BACKOFF_S) -> float:
    """Bounded exponential backoff with deterministic jitter.

    ``attempt`` is 1-based (the attempt that just failed).  With ``rng``
    — a seeded ``random.Random`` threaded through the sweep — the delay
    is stretched by a jitter factor in [1.0, 1.5) drawn from that RNG, so
    concurrent retries de-synchronize while the whole schedule stays
    reproducible for a given sweep seed.  Without ``rng`` the delay is
    the plain exponential.  Always capped at ``max_s``.
    """
    delay = base_s * 2 ** max(0, attempt - 1)
    if rng is not None:
        delay *= 1.0 + 0.5 * rng.random()
    return min(delay, max_s)


def retry_rng_for(seed: int) -> random.Random:
    """The shared seeded RNG for a sweep's retry jitter.

    Derived from the sweep seed (offset so it never aliases the trace
    RNG stream), so two runs of the same sweep sleep the same jittered
    backoff sequence — service retry tests are reproducible.
    """
    return random.Random((seed & 0xFFFFFFFF) ^ 0x5EE5AB0F)


def execution_host() -> str:
    """``host:pid`` provenance for degradation records written here.

    Post-mortems of a distributed campaign (or a served request) need to
    attribute a failure to the process that observed it; this is the
    default value threaded into :class:`FailedCell.shard` when no
    campaign shard id applies.
    """
    import socket

    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class FailedCell:
    """A (workload, design) cell that failed after all retries.

    ``shard`` and ``attempts`` are failure provenance: which shard worker
    (campaigns), or which ``host:pid`` (sweeps and served requests),
    observed the final failure, and how many attempts it burned.  Both
    ride the journal record and every degradation payload, so a
    post-mortem can attribute a failure to a host.
    """

    workload: str
    design: str
    error_class: str
    message: str
    traceback: str
    config_digest: str
    attempts: int
    shard: str = ""

    def as_dict(self) -> Dict:
        return {
            "workload": self.workload,
            "design": self.design,
            "error_class": self.error_class,
            "message": self.message,
            "traceback": self.traceback,
            "config_digest": self.config_digest,
            "attempts": self.attempts,
            "shard": self.shard,
        }


@dataclass
class SweepReport:
    """Everything a resilient sweep produced.

    ``results`` keeps the classic ``sweep()`` shape —
    ``{workload: {design: SimulationResult}}`` — while ``failures``
    records cells that degraded instead of completing.
    """

    results: Dict[str, Dict]
    failures: List[FailedCell] = field(default_factory=list)
    #: cells reused from the journal instead of re-simulated.
    reused: int = 0
    #: cells actually simulated this invocation.
    executed: int = 0
    #: the sweep stopped cleanly before finishing (disk guard / write
    #: fault); the journal is intact and ``resume_hint`` continues it.
    paused: bool = False
    pause_reason: str = ""
    resume_hint: str = ""

    @property
    def ok(self) -> bool:
        """True when every cell completed (possibly across resumes)."""
        return not self.failures and not self.paused


# ------------------------------------------------------------------ journal

def _record_checksum(record: Dict) -> str:
    """SHA-256 of the record's canonical JSON, excluding the checksum field."""
    body = {key: value for key, value in record.items() if key != "checksum"}
    return hashlib.sha256(
        json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()


class SweepJournal:
    """Append-only JSONL journal of sweep progress.

    Record types:

    * ``header`` — the sweep's identity: serialized base config plus its
      digest, workloads, designs, trace length, seed.
    * ``done`` — a completed cell with its full ``SimulationResult``
      payload.
    * ``failed`` — a cell that degraded into a :class:`FailedCell`.

    Every record carries a ``checksum`` over its canonical JSON, and
    appends are flushed and fsynced, so after a crash the journal is
    valid up to (at worst) one torn trailing line, which :meth:`read`
    tolerates and resume re-runs.

    Appends are guarded: a free-disk-space floor (``min_free_bytes``) is
    checked *before* each write, so a filling disk pauses the sweep with
    a :class:`DiskSpaceError` instead of fsyncing into ENOSPC and tearing
    the file, and write failures surface as :class:`JournalWriteError`
    (the on-disk journal stays valid and resumable either way).  The
    chaos layer (:mod:`repro.resilience.chaos`) hooks the same path to
    inject deterministic ENOSPC/EIO/torn-write faults.
    """

    def __init__(self, path,
                 min_free_bytes: Optional[int] = DEFAULT_MIN_FREE_BYTES
                 ) -> None:
        self.path = Path(path)
        self.min_free_bytes = min_free_bytes

    #: False from the start of :meth:`write_header` until the header is on
    #: disk: a journal without its header identifies no sweep, so a pause
    #: in that window has nothing to resume.
    resumable = True

    def exists(self) -> bool:
        return self.path.exists()

    @property
    def resume_hint(self) -> str:
        """How to continue after a write fault pauses the sweep."""
        if not self.resumable:
            return (f"re-run the sweep: no journal header reached "
                    f"{self.path}, so there is nothing to resume")
        return f"python -m repro resume {self.path}"

    @property
    def _resume_hint(self) -> str:
        if not self.resumable:
            return self.resume_hint
        return f"the journal is intact and resumable: {self.resume_hint}"

    def _guard_free_space(self, incoming_bytes: int) -> None:
        if not self.min_free_bytes:
            return
        try:
            free = shutil.disk_usage(self.path.parent or Path(".")).free
        except OSError:
            return  # cannot stat the filesystem; let the write decide
        if free < max(self.min_free_bytes, incoming_bytes):
            raise DiskSpaceError(
                f"{self.path}: only {free} bytes free on the journal's "
                f"filesystem (floor {self.min_free_bytes}) — pausing "
                f"before the append could tear the journal; free space, "
                f"then {self._resume_hint}")

    def _append(self, record: Dict) -> None:
        record = dict(record)
        record["checksum"] = _record_checksum(record)
        line = json.dumps(record, sort_keys=True)
        data = (line + "\n").encode("utf-8")
        self._guard_free_space(len(data))
        try:
            torn = chaos.write_fault("journal", data)
            with open(self.path, "ab") as handle:
                handle.write(data if torn is None else torn)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            raise classify_write_error(exc, self.path,
                                       self._resume_hint) from exc
        if torn is not None:
            raise JournalWriteError(
                f"{self.path}: torn write — only {len(torn)} of "
                f"{len(data)} bytes reached the disk (crash mid-append); "
                f"{self._resume_hint}")
        chaos.after_write("journal")

    def write_header(self, header_fields: Dict) -> None:
        """Start a fresh journal (truncating any previous one).

        A write fault on the header leaves no file behind: a torn header
        identifies no sweep, and the pause it causes says to re-run.
        """
        if self.path.exists():
            self.path.unlink()
        self.resumable = False
        try:
            self._append({"type": "header", **header_fields})
        except JournalWriteError:
            with suppress(OSError):
                self.path.unlink()
            raise
        self.resumable = True

    def append_done(self, workload: str, design: str, digest: str,
                    result_payload: Dict) -> None:
        self._append({"type": "done", "workload": workload, "design": design,
                      "config_digest": digest, "result": result_payload})

    def append_failed(self, failure: FailedCell) -> None:
        self._append({"type": "failed", **failure.as_dict()})

    def scan(self) -> Iterator[Tuple[int, str, Optional[Dict]]]:
        """Yield ``(line_number, raw_line, record)`` for every non-blank
        line; ``record`` is None when the line is corrupt (truncated JSON,
        a non-object, or a checksum mismatch).  Never raises on content —
        this is the salvage primitive ``repro doctor`` is built on.
        """
        if not self.path.exists():
            raise JournalError(f"no sweep journal at {self.path}")
        with open(self.path, "r", encoding="utf-8",
                  errors="replace") as handle:
            lines = handle.read().splitlines()
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                good = (isinstance(record, dict)
                        and record.get("checksum") == _record_checksum(record))
            except (json.JSONDecodeError, TypeError):
                good = False
            yield number, line, (record if good else None)

    def read(self) -> Tuple[Dict, Dict[Tuple[str, str], Dict]]:
        """Return ``(header, {(workload, design): last record})``.

        A corrupt or checksum-failing *trailing* line is treated as torn
        by the crash and skipped; corruption anywhere else means the file
        is not a journal we can trust as-is and raises
        :class:`JournalError` naming the repair path — ``repro doctor
        --repair`` quarantines the bad record(s) and rebuilds the journal
        from every checksum-valid one.  Later records for a cell
        supersede earlier ones (a failed cell re-run on resume appends a
        fresh record rather than rewriting).
        """
        entries = list(self.scan())
        records: List[Dict] = []
        for position, (number, _line, record) in enumerate(entries):
            if record is None:
                if position == len(entries) - 1:
                    break  # torn trailing append from a crash: resume re-runs it
                raise JournalError(
                    f"{self.path}: corrupt record at line {number} "
                    f"(mid-file corruption, not a torn append) — run "
                    f"`python -m repro doctor --repair {self.path}` to "
                    f"quarantine it to {self.path.name}.quarantine and "
                    f"rebuild the journal from every intact record")
            records.append(record)
        if not records or records[0].get("type") != "header":
            raise JournalError(
                f"{self.path}: missing journal header — the journal "
                f"cannot identify its sweep; `repro doctor` can only "
                f"salvage journals with an intact header, so re-run the "
                f"sweep with a fresh journal")
        header = records[0]
        cells: Dict[Tuple[str, str], Dict] = {}
        for record in records[1:]:
            if record.get("type") in ("done", "failed"):
                cells[(record["workload"], record["design"])] = record
        return header, cells

    def rewrite_canonical(self, cell_order=None) -> bool:
        """Rewrite as header + the last record per cell, in canonical order.

        Canonical order is the sweep's cell enumeration — ``workloads x
        designs`` from the header, or an explicit ``cell_order`` list of
        ``(workload, design)`` pairs; cells outside the enumeration (e.g.
        after the matrix shrank) sort after it, lexicographically.  A
        resumed or parallel sweep appends records in completion order;
        canonicalizing collapses superseded records and makes the journal
        bytes independent of that order, so an interrupted-and-resumed
        sweep ends with the same journal as an uninterrupted one.

        Atomic and durable: the new content is written to a sibling temp
        file, fsynced, ``os.replace``d over the journal, and the parent
        directory is fsynced so the rename survives power loss.  Returns
        True when the file content changed.
        """
        header, cells = self.read()
        if cell_order is None:
            cell_order = [(workload, design)
                          for workload in header.get("workloads", [])
                          for design in header.get("designs", [])]
        rank = {key: position for position, key in enumerate(cell_order)}
        ordered = sorted(
            cells.items(),
            key=lambda item: (rank.get(item[0], len(rank)), item[0]))
        # Records already carry their checksums; re-dumping with sorted keys
        # reproduces each original line byte for byte.
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(json.dumps(record, sort_keys=True)
                     for _, record in ordered)
        content = "\n".join(lines) + "\n"
        current = self.path.read_text(encoding="utf-8")
        if content == current:
            return False
        temp = self.path.with_name(self.path.name + ".canonical.tmp")
        with open(temp, "w", encoding="utf-8") as handle:
            handle.write(content)
            handle.flush()
            os.fsync(handle.fileno())
        replace_durable(temp, self.path)
        return True


# ----------------------------------------------------------- sweep headers

def sweep_header_fields(base_config, workloads, designs, trace_length: int,
                        seed: int, sampling_plan=None) -> Dict:
    """The journal header a sweep writes, at every ``jobs`` value.

    When any workload is an ``rtrace:`` token, the
    header records that trace's digest so a resume against a re-ingested
    or swapped trace file is refused instead of mixing results.
    """
    fields: Dict = {
        "config": config_to_dict(base_config),
        "config_digest": config_digest(base_config),
        "workloads": list(workloads),
        "designs": list(designs),
        "trace_length": trace_length,
        "seed": seed,
    }
    rtrace_digests = _rtrace_digests(workloads)
    if rtrace_digests:
        fields["rtrace_digests"] = rtrace_digests
    if sampling_plan is not None:
        fields["sampling"] = sampling_plan.to_dict()
    return fields


def _rtrace_digests(workloads) -> Dict[str, str]:
    """token -> trace digest for every ingested-trace workload (cheap:
    header reads only)."""
    from repro.ingest import is_rtrace_token, read_header, rtrace_path

    return {workload: read_header(rtrace_path(workload))["trace_digest"]
            for workload in workloads if is_rtrace_token(workload)}


def verify_rtrace_digests(header: Dict, journal_path) -> None:
    """Refuse to resume a journal whose ingested traces changed on disk.

    Synthetic workloads are pinned by (name, length, seed) in the header;
    ingested traces are files that can be re-ingested or replaced between
    runs, so their digests are checked against the current ``.rtrace``
    headers before any cell is reused.
    """
    digests = header.get("rtrace_digests") or {}
    if not digests:
        return
    from repro.ingest import read_header, rtrace_path
    from repro.resilience.errors import RtraceError

    for token, expected in digests.items():
        path = rtrace_path(token)
        try:
            current = read_header(path)["trace_digest"]
        except RtraceError as exc:
            raise JournalError(
                f"{journal_path}: cannot resume — ingested trace {path} is "
                f"missing or unreadable ({exc}); restore it or start a "
                f"fresh journal") from exc
        if current != expected:
            raise JournalError(
                f"{journal_path}: cannot resume — ingested trace {path} "
                f"changed since the journal was written (digest "
                f"{current[:12]}… != journaled {expected[:12]}…); re-run "
                f"against the original trace or start a fresh journal")


# ------------------------------------------------------------ cell execution

def _run_cell(config, workload: str, trace_length: int, seed: int,
              fault_plan=None, sampling_plan=None):
    """Simulate one (workload, design) cell inline and return its result."""
    from repro.sim.system import SystemSimulator
    from repro.workloads.suite import build_trace, cached_trace, get_workload

    if sampling_plan is not None:
        if fault_plan is not None:
            raise ValueError(
                "sampled simulation cannot be combined with fault "
                "injection: extrapolated counters would hide or scale the "
                "injected damage — run the exact lane for fault campaigns")
        from repro.sampling import simulate_sampled

        trace = cached_trace(workload, trace_length, seed=seed)
        return simulate_sampled(config, trace, sampling_plan)
    if fault_plan is None:
        # Fault-free cells treat the trace as read-only, so consecutive
        # designs of one sweep row share a memoized copy.
        trace = cached_trace(workload, trace_length, seed=seed)
    else:
        # Fault injection may mutate the trace in place (trace-truncate);
        # build a private copy (a fresh verified load for ingested traces).
        from repro.ingest import is_rtrace_token, load_rtrace, rtrace_path
        if is_rtrace_token(workload):
            trace = load_rtrace(rtrace_path(workload))
        else:
            trace = build_trace(get_workload(workload), trace_length,
                                seed=seed)
    sim = SystemSimulator(config, trace)
    if fault_plan is not None:
        sim.arm_faults(fault_plan)
    return sim.run()


def _cell_worker(connection, config, workload: str, trace_length: int,
                 seed: int, fault_plan,
                 heartbeat_s: Optional[float] = None,
                 sampling_plan=None) -> None:
    """Subprocess entry point: run a cell, ship the outcome over a pipe.

    With ``heartbeat_s``, a daemon thread sends ``("hb",)`` over the pipe
    on that period so a supervisor can tell a *hung* worker (alive but
    silent) from a slow one; the final result/error message shares the
    pipe under a lock, so heartbeats never interleave with it.
    """
    try:
        # A forked worker inherits the parent's signal wakeup fd.  Under
        # an asyncio parent (repro serve) that fd is the event loop's
        # self-pipe, so a signal delivered to the *worker* (e.g. the
        # reaper's terminate()) would be read by the parent's loop as its
        # own and trigger a spurious drain.  Detach it first thing.
        _signal_module.set_wakeup_fd(-1)
    except (ValueError, OSError):
        pass  # not the main thread / platform quirk: nothing inherited
    send_lock = threading.Lock()
    stop = threading.Event()
    if heartbeat_s:
        def _beat() -> None:
            while not stop.wait(heartbeat_s):
                try:
                    with send_lock:
                        connection.send(("hb",))
                except OSError:
                    return  # pipe gone: the parent moved on
        threading.Thread(target=_beat, daemon=True).start()
    try:
        result = _run_cell(config, workload, trace_length, seed, fault_plan,
                           sampling_plan)
        with send_lock:
            connection.send(("ok", result.to_dict()))
    except BaseException as exc:  # noqa: BLE001 - the pipe is the error channel
        with send_lock:
            connection.send(("error", type(exc).__name__, str(exc),
                             traceback.format_exc()))
    finally:
        stop.set()
        connection.close()


def _start_worker(config, workload: str, trace_length: int, seed: int,
                  fault_plan, sampling_plan=None,
                  heartbeat_s: Optional[float] = None):
    """Start one cell attempt in a worker process; returns
    ``(worker, receiver)``, the process and the read end of its result
    pipe.

    Forks where the platform allows (else spawns).  A due chaos
    ``worker-kill`` SIGKILLs the worker the instant it starts.
    """
    method = ("fork" if "fork" in multiprocessing.get_all_start_methods()
              else "spawn")
    context = multiprocessing.get_context(method)
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(
        target=_cell_worker,
        args=(sender, config, workload, trace_length, seed, fault_plan,
              heartbeat_s, sampling_plan),
        daemon=True)
    worker.start()
    sender.close()  # parent keeps only the read end
    if chaos.worker_kill_due():
        os.kill(worker.pid, _signal_module.SIGKILL)
    return worker, receiver


def _reap_worker(worker, receiver) -> None:
    """Close a worker's pipe and make sure the process is gone:
    terminate, then kill if it lingers."""
    receiver.close()
    if worker.is_alive():
        worker.terminate()
        worker.join(2)
    if worker.is_alive():
        worker.kill()
        worker.join(2)


def _run_cell_isolated(config, workload: str, trace_length: int, seed: int,
                       fault_plan, timeout_s: Optional[float],
                       sampling_plan=None):
    """Run a cell in a watchdogged subprocess.

    Raises :class:`CellTimeout` when the wall clock expires,
    :class:`CellCrash` when the worker dies silently (segfault, OOM kill),
    and :class:`CellError` when the worker reports an exception.
    """
    from repro.sim.stats import SimulationResult

    worker, receiver = _start_worker(config, workload, trace_length, seed,
                                     fault_plan, sampling_plan)
    try:
        if not receiver.poll(timeout_s):
            raise CellTimeout(
                f"cell ({workload}, {config.l1_design}) exceeded "
                f"{timeout_s:g}s wall clock")
        try:
            outcome = receiver.recv()
        except EOFError:
            raise CellCrash(
                f"cell ({workload}, {config.l1_design}) worker died "
                f"without reporting (exit code {worker.exitcode})") from None
    finally:
        _reap_worker(worker, receiver)
    if outcome[0] == "ok":
        return SimulationResult.from_dict(outcome[1])
    _, error_class, message, traceback_text = outcome
    raise CellError(error_class, message, traceback_text)


def _execute_with_retries(config, workload: str, trace_length: int, seed: int,
                          fault_plan, isolate: bool,
                          timeout_s: Optional[float], max_retries: int,
                          retry_backoff_s: float, fail_fast: bool,
                          rng=None, deadline_at: Optional[float] = None,
                          sampling_plan=None, shard: str = ""):
    """Run one cell, retrying transient failures.

    Returns ``(result, None, attempts)`` on success, or
    ``(None, FailedCell, attempts)`` after the retry budget is spent or a
    deterministic error occurs (no point re-running those).  With
    ``fail_fast`` the error propagates instead of degrading (the classic
    ``sweep()`` contract when no journal is in play).

    ``rng`` is the sweep's shared seeded RNG for backoff jitter (see
    :func:`retry_delay`).  ``deadline_at`` is a ``time.monotonic``
    deadline: the per-attempt watchdog is clamped to the remaining
    budget, and a retry that cannot fit degrades immediately with error
    class ``DeadlineExceeded`` instead of sleeping past the deadline.
    ``shard`` stamps failure provenance onto any :class:`FailedCell`
    (campaign shard workers pass their shard id; plain sweeps leave it
    empty so journal bytes stay independent of the executing process).
    """
    digest = config_digest(config)
    if sampling_plan is not None:
        from repro.sampling import sampling_cell_digest

        digest = sampling_cell_digest(digest, sampling_plan)
    attempt = 0
    while True:
        attempt += 1
        effective_timeout = timeout_s
        if deadline_at is not None:
            remaining = deadline_at - time.monotonic()
            if remaining <= 0:
                exc = DeadlineExceeded(
                    f"cell ({workload}, {config.l1_design}) hit the sweep "
                    f"deadline before attempt {attempt} could start")
                if fail_fast:
                    raise exc
                return None, FailedCell(
                    workload=workload, design=config.l1_design,
                    error_class=type(exc).__name__, message=str(exc),
                    traceback="", config_digest=digest,
                    attempts=attempt - 1, shard=shard), attempt - 1
            effective_timeout = (remaining if timeout_s is None
                                 else min(timeout_s, remaining))
        try:
            if isolate or effective_timeout is not None:
                result = _run_cell_isolated(config, workload, trace_length,
                                            seed, fault_plan,
                                            effective_timeout, sampling_plan)
            else:
                result = _run_cell(config, workload, trace_length, seed,
                                   fault_plan, sampling_plan)
            return result, None, attempt
        except (CellTimeout, CellCrash) as exc:
            if (deadline_at is not None
                    and time.monotonic() >= deadline_at
                    and isinstance(exc, CellTimeout)):
                # The watchdog fired because the *deadline* clamped it,
                # not the per-cell budget: report the honest error class.
                exc = DeadlineExceeded(
                    f"cell ({workload}, {config.l1_design}) ran out of "
                    f"sweep deadline mid-attempt")
            if attempt <= max_retries \
                    and not isinstance(exc, DeadlineExceeded):
                delay = retry_delay(retry_backoff_s, attempt, rng)
                if (deadline_at is None
                        or time.monotonic() + delay < deadline_at):
                    time.sleep(delay)
                    continue
                exc = DeadlineExceeded(
                    f"cell ({workload}, {config.l1_design}) has no "
                    f"deadline budget left for a retry after: {exc}")
            if fail_fast:
                raise exc
            failure = FailedCell(
                workload=workload, design=config.l1_design,
                error_class=type(exc).__name__, message=str(exc),
                traceback="", config_digest=digest, attempts=attempt, shard=shard)
            return None, failure, attempt
        except CellError as exc:
            if fail_fast:
                raise
            failure = FailedCell(
                workload=workload, design=config.l1_design,
                error_class=exc.error_class, message=exc.message,
                traceback=exc.traceback_text, config_digest=digest,
                attempts=attempt, shard=shard)
            return None, failure, attempt
        except Exception as exc:  # noqa: BLE001 - degrade, don't die
            if fail_fast:
                raise
            failure = FailedCell(
                workload=workload, design=config.l1_design,
                error_class=type(exc).__name__, message=str(exc),
                traceback=traceback.format_exc(), config_digest=digest,
                attempts=attempt, shard=shard)
            return None, failure, attempt


# ------------------------------------------------------------------- sweep

class _CellTask:
    """One planned sweep cell: its slot in the execution order, config
    and digest, plus the dispatcher's retry bookkeeping."""

    __slots__ = ("slot", "workload", "design", "config", "digest",
                 "attempts", "ready_at")

    def __init__(self, slot: int, workload: str, design: str, config,
                 digest: str) -> None:
        self.slot = slot
        self.workload = workload
        self.design = design
        self.config = config
        self.digest = digest
        self.attempts = 0
        self.ready_at = 0.0           # monotonic time a retry becomes due


def _journal_outcome(journal: Optional[SweepJournal], task: _CellTask,
                     result, failure: Optional[FailedCell]) -> None:
    if journal is None:
        return
    if result is not None:
        journal.append_done(task.workload, task.design, task.digest,
                            result.to_dict())
    else:
        journal.append_failed(failure)


def resilient_sweep(base_config, workloads, trace_length: int = 60_000,
                    seed: int = 42, designs=("vipt", "seesaw"),
                    mutate=None, journal_path=None, resume: bool = True,
                    jobs: int = 1, isolate: bool = False,
                    timeout_s: Optional[float] = None,
                    max_retries: int = 1, retry_backoff_s: float = 0.25,
                    fault_plan=None, fail_fast: bool = False,
                    min_free_mb: Optional[float] = None,
                    deadline_s: Optional[float] = None,
                    retry_rng=None,
                    interrupt_state=None,
                    sampling_plan=None, policy=None) -> SweepReport:
    """Run a (workload x design) sweep that survives crashes and bad cells.

    The sweep is planned once (validation, journal header or resume,
    ``mutate``, the reuse check); then either the in-process loop
    (``jobs <= 1``) or the process dispatcher (``jobs > 1``) executes the
    remaining cells.  Both report every outcome to one sink that appends
    journal records in cell-enumeration order, so the report, the
    journal bytes and the resume behaviour are the same at every
    ``jobs`` value — only wall-clock time changes.

    Args:
        base_config: the machine every cell derives from via
            ``with_design``.
        workloads: workload names (see ``repro.workloads.suite``).
        trace_length / seed: forwarded to ``build_trace``.
        designs: L1 designs to sweep; duplicates are collapsed, order kept.
        mutate: optional ``f(config, workload) -> config`` hook applied
            once per workload (kept from the classic ``sweep``).
        journal_path: JSONL journal location; None disables journaling.
        resume: with a journal, reuse completed cells whose config digest
            matches instead of re-simulating them.  ``resume=False``
            truncates any existing journal and starts over.
        jobs: worker processes.  Above 1 every cell runs in its own
            subprocess (parallelism implies isolation), so ``isolate``
            is moot and ``timeout_s`` watchdogs apply per cell.
        isolate: with ``jobs <= 1``, run each cell in a subprocess
            (implied by ``timeout_s`` and ``deadline_s``).
        timeout_s: wall-clock budget per cell attempt.
        max_retries: extra attempts for transient (timeout/crash)
            failures; deterministic errors never retry.
        retry_backoff_s: base of the exponential backoff between retries.
        fault_plan: optional :class:`~repro.resilience.faults.FaultPlan`
            armed on every cell (fault-injection campaigns).
        fail_fast: propagate cell errors instead of degrading them into
            :class:`FailedCell` records (classic ``sweep()`` behaviour).
        min_free_mb: override the journal's free-disk-space floor (MB);
            dropping below it pauses the sweep cleanly (``report.paused``)
            instead of tearing the journal.
        deadline_s: overall wall-clock budget for the sweep.  Per-attempt
            watchdogs are clamped to the remaining budget (in-process
            cells are only checked between cells), and cells the
            deadline strands degrade into ``FailedCell`` records with
            error class ``DeadlineExceeded`` — never retried, always
            journaled, re-run on resume.
        retry_rng: a seeded ``random.Random`` for backoff jitter (see
            :func:`retry_delay`); ``None`` derives one from ``seed`` via
            :func:`retry_rng_for`, so the jitter schedule is reproducible.
        interrupt_state: an externally owned
            :class:`~repro.resilience.supervisor.InterruptState` to poll
            instead of trapping SIGINT/SIGTERM here — the seam
            ``repro serve`` uses to drain a request without process
            signals.  Setting its ``signum`` makes the sweep stop after
            the in-flight cell(s), flush, canonicalize, and raise
            :class:`SweepInterrupted` exactly as a real signal would.
        sampling_plan: optional :class:`~repro.sampling.SamplingPlan`
            switching every cell to the sampled lane.  The journal header
            records the plan, cell digests are folded through
            :func:`~repro.sampling.sampling_cell_digest` (so sampled and
            exact records never satisfy each other on resume), and
            combining it with ``fault_plan`` is refused up front.
        policy: with ``jobs > 1``, a
            :class:`~repro.resilience.supervisor.SupervisionPolicy`
            enabling worker heartbeats and the hung/RSS watchdogs;
            ``None`` runs workers unsupervised.

    Returns:
        a :class:`SweepReport`; ``report.results`` matches the classic
        ``sweep()`` return shape.

    Journaled sweeps trap SIGINT/SIGTERM: in-flight cells are finished
    (in-process) or reaped (workers), completed cells are flushed, the
    journal is canonicalized, and :class:`SweepInterrupted` is raised —
    the interrupted sweep resumes exactly where it stopped.  Journal
    write trouble (ENOSPC, EIO, torn writes, the free-space floor)
    pauses the sweep instead: the report comes back with
    ``paused=True`` and a ``resume_hint``.
    """
    from repro.sim.stats import SimulationResult
    from repro.workloads.suite import get_workload

    workloads = list(workloads)
    designs = list(designs)
    for design in designs:
        if design not in VALID_DESIGNS:
            raise ValueError(
                f"unknown design {design!r}; valid designs: "
                f"{', '.join(VALID_DESIGNS)}")
    for workload in workloads:
        get_workload(workload)  # typo fails up front, naming valid choices
    if sampling_plan is not None and fault_plan is not None:
        raise ValueError(
            "sampled simulation cannot be combined with fault injection: "
            "extrapolated counters would hide or scale the injected "
            "damage — run the exact lane for fault campaigns")

    journal = SweepJournal(journal_path) if journal_path is not None else None
    if journal is not None and min_free_mb is not None:
        journal.min_free_bytes = int(min_free_mb * 2 ** 20)
    cells = list(dict.fromkeys(
        (workload, design) for workload in workloads for design in designs))
    tasks: List[_CellTask] = []
    reused: Dict[Tuple[str, str], Dict] = {}
    #: slot -> (result, failure), in completion order.
    outcomes: Dict[int, Tuple[object, Optional[FailedCell]]] = {}
    pause: Optional[JournalWriteError] = None
    with ExitStack() as stack:
        # Trap SIGINT/SIGTERM for the whole journaled section — header
        # write through canonicalization — so a signal anywhere in it
        # degrades into a graceful, resumable stop.
        interrupt = interrupt_state
        if interrupt is None and journal is not None:
            from repro.resilience.supervisor import trap_interrupts
            interrupt = stack.enter_context(trap_interrupts())
        done: Dict[Tuple[str, str], Dict] = {}
        if journal is not None:
            if resume and journal.exists():
                header, done = journal.read()
                verify_rtrace_digests(header, journal.path)
            else:
                try:
                    journal.write_header(sweep_header_fields(
                        base_config, workloads, designs, trace_length, seed,
                        sampling_plan=sampling_plan))
                except JournalWriteError as exc:
                    pause = exc

        # mutate is called once per workload (the classic sweep()
        # contract), before the design is applied.
        per_workload_config: Dict[str, object] = {}
        for workload, design in cells:
            if workload not in per_workload_config:
                per_workload_config[workload] = (
                    mutate(base_config, workload) if mutate else base_config)
            config = per_workload_config[workload].with_design(design)
            digest = config_digest(config)
            if sampling_plan is not None:
                from repro.sampling import sampling_cell_digest

                digest = sampling_cell_digest(digest, sampling_plan)
            record = done.get((workload, design))
            if (record is not None and record.get("type") == "done"
                    and record.get("config_digest") == digest):
                reused[(workload, design)] = record
                continue
            tasks.append(
                _CellTask(len(tasks), workload, design, config, digest))

        # Outcomes arrive in completion order and are journaled in slot
        # order: slot N's record is appended only once slots 0..N-1 are
        # written, so the journal is always a clean serial-order prefix.
        next_slot = 0

        def on_complete(task: _CellTask, result, failure) -> None:
            nonlocal next_slot
            outcomes[task.slot] = (result, failure)
            while next_slot in outcomes:
                _journal_outcome(journal, tasks[next_slot],
                                 *outcomes[next_slot])
                next_slot += 1

        rng = retry_rng if retry_rng is not None else retry_rng_for(seed)
        deadline_at = (time.monotonic() + deadline_s
                       if deadline_s is not None else None)
        if pause is None:
            try:
                if jobs > 1:
                    from repro.resilience.supervisor import _Dispatcher

                    _Dispatcher(jobs, trace_length, seed, fault_plan,
                                timeout_s, max_retries, retry_backoff_s,
                                fail_fast, rng, deadline_at, sampling_plan,
                                policy, interrupt).run(tasks, on_complete)
                else:
                    for task in tasks:
                        if interrupt is not None \
                                and interrupt.signum is not None:
                            break
                        result, failure, _attempts = _execute_with_retries(
                            task.config, task.workload, trace_length, seed,
                            fault_plan, isolate, timeout_s, max_retries,
                            retry_backoff_s, fail_fast, rng=rng,
                            deadline_at=deadline_at,
                            sampling_plan=sampling_plan)
                        on_complete(task, result, failure)
            except JournalWriteError as exc:
                pause = exc
        interrupted = interrupt.signum if interrupt is not None else None
        if journal is not None and pause is None:
            # Flush completed cells still buffered past an unfinished
            # slot (only an interrupt leaves any); canonicalization
            # restores enumeration order.
            for slot in sorted(s for s in outcomes if s >= next_slot):
                try:
                    _journal_outcome(journal, tasks[slot], *outcomes[slot])
                except JournalWriteError as exc:
                    pause = exc
                    break
        if journal is not None and journal.exists():
            # Collapse superseded records and order by cell enumeration,
            # so a resumed sweep leaves the same journal bytes as an
            # uninterrupted one (no-op when already canonical).
            try:
                journal.rewrite_canonical(cells)
            except (JournalError, OSError):
                if pause is None and interrupted is None:
                    raise
                # Disk trouble mid-pause: the append-order journal on
                # disk is still valid and resumable, so keep it as-is.

    if interrupted is not None and pause is None \
            and len(outcomes) < len(tasks):
        raise SweepInterrupted(
            interrupted, journal.path if journal is not None else None)
    results: Dict[str, Dict] = {
        workload: {} for workload in dict.fromkeys(workloads)}
    failures: List[FailedCell] = []
    slots = {(task.workload, task.design): task.slot for task in tasks}
    for workload, design in cells:
        record = reused.get((workload, design))
        if record is not None:
            results[workload][design] = SimulationResult.from_dict(
                record["result"])
            continue
        result, failure = outcomes.get(slots[(workload, design)],
                                       (None, None))
        if result is not None:
            results[workload][design] = result
        elif failure is not None:
            failures.append(failure)
    report = SweepReport(results=results, failures=failures,
                         reused=len(reused), executed=len(outcomes))
    if pause is not None:
        report.paused = True
        report.pause_reason = str(pause)
        report.resume_hint = journal.resume_hint
    return report
