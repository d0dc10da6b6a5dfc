"""The process dispatcher behind parallel sweeps, and its supervision.

``resilient_sweep(jobs=N)`` with ``N > 1`` hands its planned cells to
:class:`_Dispatcher`, which runs each cell attempt in its own worker
process (up to ``jobs`` at once) and reports every outcome back to the
sweep's enumeration-order journal sink.  Transient failures (wall-clock
timeout, a worker dying without reporting) retry with the serial
runner's backoff; deterministic errors degrade into ``FailedCell``
records (or raise under ``fail_fast``); dispatching a cell already in
flight raises :class:`~repro.resilience.errors.DuplicateCellError`.

A :class:`SupervisionPolicy` adds the monitoring a multi-day campaign
needs to actually reach its last cell (``policy=None`` runs workers
without heartbeats or watchdogs):

* **Heartbeats.**  Workers send ``("hb",)`` over their result pipe every
  ``heartbeat_s``; a worker silent for ``hung_after_s`` is declared hung,
  SIGKILLed, and its cell requeued under the sweep's existing retry
  budget (a cell that hangs deterministically degrades into a
  ``FailedCell`` with error class ``CellHung`` instead of wedging the
  campaign).
* **RSS watchdog.**  Each worker's resident set (``/proc/<pid>/statm``)
  is sampled every ``check_interval_s``; a breach of ``max_rss_mb``
  kills the worker and — when more than one slot is active — *downshifts*
  the effective ``jobs`` by one and requeues the cell for free: memory
  pressure is treated as a concurrency problem, not the cell's fault.
  Only at one job does a breach consume the retry budget
  (``CellResourceLimit``), so a single cell that genuinely cannot fit
  still degrades instead of looping.

:func:`trap_interrupts` converts the first SIGINT/SIGTERM into a flag
every journaled sweep polls: workers are reaped, completed cells are
flushed, the journal is canonicalized, and the sweep raises
:class:`~repro.resilience.errors.SweepInterrupted` (CLI exit
``128 + signum``).  A second Ctrl-C falls through to the default
KeyboardInterrupt for users who really mean it.

None of this changes journal bytes: supervision manages *processes*,
and the sweep's sink journals in enumeration order, so the serial ≡
parallel differential goldens hold under supervision.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Callable, Dict, List, Optional, Tuple

from repro.resilience.errors import (
    CellCrash,
    CellError,
    CellHung,
    CellResourceLimit,
    CellTimeout,
    DeadlineExceeded,
    DuplicateCellError,
)
from repro.resilience.runner import (
    FailedCell,
    _CellTask,
    _reap_worker,
    _start_worker,
    retry_delay,
    retry_rng_for,
)

__all__ = [
    "SupervisionPolicy",
    "InterruptState",
    "trap_interrupts",
    "worker_rss_bytes",
    "free_disk_bytes",
    "host_readiness",
]


@dataclass(frozen=True)
class SupervisionPolicy:
    """Watchdog thresholds for a supervised parallel sweep.

    The journal's free-disk floor is not a watchdog: it is the sweep's
    own ``min_free_mb`` argument, honoured at every ``jobs`` value.

    Attributes:
        heartbeat_s: worker heartbeat period (0/None disables heartbeats
            and therefore hung detection).
        hung_after_s: a worker silent for this long is hung (killed and
            requeued); must comfortably exceed ``heartbeat_s``.
        max_rss_mb: per-worker resident-set ceiling in MB (None disables
            the RSS watchdog).
        check_interval_s: watchdog sampling period; also bounds how long
            an interrupt can go unnoticed.
    """

    heartbeat_s: Optional[float] = 1.0
    hung_after_s: Optional[float] = 30.0
    max_rss_mb: Optional[float] = None
    check_interval_s: float = 0.25

    def __post_init__(self) -> None:
        if self.check_interval_s <= 0:
            raise ValueError("check_interval_s must be > 0")
        if self.heartbeat_s is not None and self.heartbeat_s < 0:
            raise ValueError("heartbeat_s must be >= 0")
        if (self.heartbeat_s and self.hung_after_s is not None
                and self.hung_after_s <= self.heartbeat_s):
            raise ValueError(
                f"hung_after_s ({self.hung_after_s}) must exceed "
                f"heartbeat_s ({self.heartbeat_s}); a healthy worker "
                f"would be declared hung between beats")


# ------------------------------------------------------------ host probes

def worker_rss_bytes(pid: int) -> Optional[int]:
    """Resident set size of ``pid`` in bytes, or None when unavailable
    (non-Linux hosts, or the process already exited)."""
    try:
        with open(f"/proc/{pid}/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        return None


def free_disk_bytes(path) -> Optional[int]:
    """Free bytes on the filesystem holding ``path`` (None on failure)."""
    import shutil

    try:
        return shutil.disk_usage(path).free
    except OSError:
        return None


def host_readiness(path, max_rss_mb: Optional[float] = None,
                   min_free_mb: Optional[float] = None):
    """Evaluate the supervisor's RSS/disk guards for *this* process.

    Returns ``(ready, checks)``: ``ready`` is False when a configured
    guard is breached, and ``checks`` is a JSON-safe dict of what was
    measured (``rss_mb``, ``free_disk_mb``) plus a ``reasons`` list
    naming each breached guard.  This is the probe behind ``repro
    serve``'s ``/readyz`` endpoint, so a server on a filling disk or
    with a ballooning RSS stops admitting work *before* a sweep would
    have to pause.
    """
    checks: dict = {"reasons": []}
    ready = True
    rss = worker_rss_bytes(os.getpid())
    if rss is not None:
        checks["rss_mb"] = round(rss / 2 ** 20, 1)
        if max_rss_mb is not None and rss > max_rss_mb * 2 ** 20:
            ready = False
            checks["reasons"].append(
                f"rss {rss / 2 ** 20:.0f}MB exceeds the "
                f"{max_rss_mb:g}MB ceiling")
    free = free_disk_bytes(path)
    if free is not None:
        checks["free_disk_mb"] = round(free / 2 ** 20, 1)
        if min_free_mb is not None and free < min_free_mb * 2 ** 20:
            ready = False
            checks["reasons"].append(
                f"free disk {free / 2 ** 20:.0f}MB below the "
                f"{min_free_mb:g}MB floor")
    return ready, checks


# ------------------------------------------------------- interrupt trapping

class InterruptState:
    """Which signal (if any) asked the sweep to stop gracefully."""

    __slots__ = ("signum",)

    def __init__(self) -> None:
        self.signum: Optional[int] = None


@contextmanager
def trap_interrupts(signals=(signal.SIGINT, signal.SIGTERM)):
    """Trap SIGINT/SIGTERM into a polled flag for graceful shutdown.

    The first signal sets ``state.signum`` and returns, letting the sweep
    finish its cell, flush buffers, and canonicalize the journal; a
    second SIGINT raises ``KeyboardInterrupt`` immediately (the user
    insists).  Outside the main thread, where handlers cannot be
    installed, the state is yielded unarmed and default signal behaviour
    applies.
    """
    state = InterruptState()

    def _handler(signum, frame) -> None:
        if state.signum is None:
            state.signum = signum
        elif signum == signal.SIGINT:
            raise KeyboardInterrupt

    previous = {}
    try:
        for sig in signals:
            previous[sig] = signal.signal(sig, _handler)
    except ValueError:
        previous = {}  # not the main thread: no handlers were installed
    try:
        yield state
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


# --------------------------------------------------------------- dispatcher

class _Running:
    """A task currently executing in a worker process."""

    __slots__ = ("task", "worker", "receiver", "deadline", "last_heartbeat")

    def __init__(self, task: _CellTask, worker, receiver,
                 deadline: Optional[float]) -> None:
        self.task = task
        self.worker = worker
        self.receiver = receiver
        self.deadline = deadline
        self.last_heartbeat = time.monotonic()


class _Dispatcher:
    """Run cell tasks across up to ``jobs`` worker processes.

    Completion is reported through ``on_complete(task, result, failure)``
    — a ``SimulationResult`` and None, or None and a :class:`FailedCell`
    — in completion order; the sweep re-sequences by ``task.slot``.
    """

    def __init__(self, jobs: int, trace_length: int, seed: int, fault_plan,
                 timeout_s: Optional[float], max_retries: int,
                 retry_backoff_s: float, fail_fast: bool,
                 retry_rng=None, deadline_at: Optional[float] = None,
                 sampling_plan=None,
                 policy: Optional[SupervisionPolicy] = None,
                 interrupt: Optional[InterruptState] = None) -> None:
        self.jobs = max(1, jobs)
        self.trace_length = trace_length
        self.seed = seed
        self.fault_plan = fault_plan
        self.sampling_plan = sampling_plan
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.fail_fast = fail_fast
        #: shared seeded RNG for deterministic retry-backoff jitter.
        self.retry_rng = (retry_rng if retry_rng is not None
                          else retry_rng_for(seed))
        #: monotonic instant the whole sweep must stop by (None = none).
        self.deadline_at = deadline_at
        self.policy = policy
        self.heartbeat_s = (policy.heartbeat_s or None
                            if policy is not None else None)
        #: an InterruptState polled for graceful SIGINT/SIGTERM shutdown.
        self.interrupt = interrupt
        self._in_flight: Dict[Tuple[str, str], _Running] = {}

    # ------------------------------------------------------------- lifecycle

    def _spawn(self, task: _CellTask) -> None:
        key = (task.workload, task.design)
        if key in self._in_flight:
            raise DuplicateCellError(
                f"cell ({task.workload}, {task.design}) is already in "
                f"flight — refusing to race two workers on one journal "
                f"record")
        worker, receiver = _start_worker(
            task.config, task.workload, self.trace_length, self.seed,
            self.fault_plan, self.sampling_plan, self.heartbeat_s)
        task.attempts += 1
        deadline = (time.monotonic() + self.timeout_s
                    if self.timeout_s is not None else None)
        self._in_flight[key] = _Running(task, worker, receiver, deadline)

    def _kill(self, key: Tuple[str, str]) -> _Running:
        """Take a task out of flight and reap its worker."""
        running = self._in_flight.pop(key)
        _reap_worker(running.worker, running.receiver)
        return running

    def _shutdown(self) -> None:
        for key in list(self._in_flight):
            self._kill(key)

    # -------------------------------------------------------------- failure

    def _fail(self, task: _CellTask, error_class: str, message: str,
              traceback_text: str = "") -> FailedCell:
        return FailedCell(
            workload=task.workload, design=task.design,
            error_class=error_class, message=message,
            traceback=traceback_text, config_digest=task.digest,
            attempts=task.attempts)

    def _transient(self, task: _CellTask, exc, retries: List[_CellTask],
                   on_complete) -> None:
        """Timeout/crash/hang: retry with backoff, else degrade (or
        raise)."""
        if (task.attempts <= self.max_retries
                and not isinstance(exc, DeadlineExceeded)):
            delay = retry_delay(self.retry_backoff_s, task.attempts,
                                self.retry_rng)
            ready_at = time.monotonic() + delay
            if self.deadline_at is None or ready_at < self.deadline_at:
                task.ready_at = ready_at
                retries.append(task)
                return
            exc = DeadlineExceeded(
                f"cell ({task.workload}, {task.design}) has no deadline "
                f"budget left for a retry after: {exc}")
        if self.fail_fast:
            self._shutdown()
            raise exc
        on_complete(task, None,
                    self._fail(task, type(exc).__name__, str(exc)))

    def _expire_deadline(self, pending, retries: List[_CellTask],
                         on_complete) -> None:
        """The sweep deadline passed: kill in-flight workers and degrade
        every unfinished cell into a ``DeadlineExceeded`` FailedCell (all
        journaled, so a resume re-runs exactly these cells)."""
        exc = DeadlineExceeded("sweep deadline exceeded")
        if self.fail_fast:
            self._shutdown()
            raise exc
        stranded = [self._kill(key).task for key in list(self._in_flight)]
        stranded.extend(retries)
        retries.clear()
        stranded.extend(pending)
        pending.clear()
        for task in stranded:
            on_complete(task, None, self._fail(
                task, type(exc).__name__,
                f"cell ({task.workload}, {task.design}) unfinished when "
                f"the sweep deadline expired"))

    def _supervise(self, retries: List[_CellTask], on_complete) -> None:
        """The policy's hung-worker and RSS watchdogs."""
        policy = self.policy
        now = time.monotonic()
        for key, running in list(self._in_flight.items()):
            if running.receiver.poll(0):
                continue  # a result/heartbeat is waiting; let recv see it
            task = running.task
            if (self.heartbeat_s and policy.hung_after_s is not None
                    and now - running.last_heartbeat > policy.hung_after_s):
                self._kill(key)
                self._transient(task, CellHung(
                    f"cell ({task.workload}, {task.design}) worker sent no "
                    f"heartbeat for {policy.hung_after_s:g}s — killed as "
                    f"hung"), retries, on_complete)
                continue
            if policy.max_rss_mb is None:
                continue
            rss = worker_rss_bytes(running.worker.pid)
            if rss is None or rss <= policy.max_rss_mb * 2 ** 20:
                continue
            self._kill(key)
            if self.jobs > 1:
                # Memory pressure is a concurrency problem: shed a slot
                # and requeue the cell without spending its retry budget.
                self.jobs -= 1
                task.attempts -= 1
                task.ready_at = now
                retries.append(task)
            else:
                self._transient(task, CellResourceLimit(
                    f"cell ({task.workload}, {task.design}) worker RSS "
                    f"{rss / 2 ** 20:.0f}MB exceeded the "
                    f"{policy.max_rss_mb:g}MB ceiling with no concurrency "
                    f"left to shed"), retries, on_complete)

    # ------------------------------------------------------------------ run

    def _wait_timeout(self, now: float,
                      retries: List[_CellTask]) -> Optional[float]:
        """How long the loop may block on pipe traffic: until the first
        watchdog, retry, deadline or supervision check falls due."""
        bounds = []
        if self.timeout_s is not None and self._in_flight:
            bounds.append(min(r.deadline for r in self._in_flight.values())
                          - now)
        if retries:
            bounds.append(min(t.ready_at for t in retries) - now)
        if self.deadline_at is not None:
            bounds.append(self.deadline_at - now)
        if self.policy is not None:
            bounds.append(self.policy.check_interval_s)
        if self.interrupt is not None:
            bounds.append(0.2)  # stay responsive to a SIGINT/SIGTERM flag
        return max(0.0, min(bounds)) if bounds else None

    def _receive(self, running: _Running, retries: List[_CellTask],
                 on_complete: Callable) -> None:
        """Handle one readable worker pipe."""
        task = running.task
        key = (task.workload, task.design)
        try:
            outcome = running.receiver.recv()
        except EOFError:
            self._kill(key)
            self._transient(task, CellCrash(
                f"cell ({task.workload}, {task.design}) worker died "
                f"without reporting (exit code "
                f"{running.worker.exitcode})"), retries, on_complete)
            return
        if outcome[0] == "hb":
            running.last_heartbeat = time.monotonic()
            return
        self._kill(key)
        if outcome[0] == "ok":
            from repro.sim.stats import SimulationResult

            on_complete(task, SimulationResult.from_dict(outcome[1]), None)
            return
        _, error_class, message, traceback_text = outcome
        if self.fail_fast:
            self._shutdown()
            raise CellError(error_class, message, traceback_text)
        # Deterministic error: never retried (same input, same crash),
        # mirrors the serial runner.
        on_complete(task, None,
                    self._fail(task, error_class, message, traceback_text))

    def run(self, tasks: List[_CellTask], on_complete: Callable) -> None:
        """Dispatch until every task completed — or a graceful interrupt
        was flagged, in which case in-flight workers are reaped and their
        cells simply stay unfinished (the journal already holds every
        flushed record, so resume re-runs them)."""
        pending = deque(tasks)
        retries: List[_CellTask] = []
        try:
            while pending or retries or self._in_flight:
                if (self.interrupt is not None
                        and self.interrupt.signum is not None):
                    break
                now = time.monotonic()
                if self.deadline_at is not None and now >= self.deadline_at:
                    self._expire_deadline(pending, retries, on_complete)
                    break
                for task in [t for t in retries if t.ready_at <= now]:
                    retries.remove(task)
                    pending.append(task)
                while pending and len(self._in_flight) < self.jobs:
                    self._spawn(pending.popleft())
                if not self._in_flight:
                    if retries:
                        time.sleep(self._wait_timeout(time.monotonic(),
                                                      retries))
                    continue
                by_receiver = {r.receiver: r
                               for r in self._in_flight.values()}
                for receiver in _connection_wait(
                        list(by_receiver), self._wait_timeout(now, retries)):
                    running = by_receiver[receiver]
                    if self._in_flight.get((running.task.workload,
                                            running.task.design)) \
                            is running:
                        self._receive(running, retries, on_complete)
                if self.timeout_s is not None:
                    now = time.monotonic()
                    for key, running in list(self._in_flight.items()):
                        if running.deadline > now or \
                                running.receiver.poll(0):
                            continue  # still in budget, or raced completion
                        self._kill(key)
                        task = running.task
                        self._transient(task, CellTimeout(
                            f"cell ({task.workload}, {task.design}) "
                            f"exceeded {self.timeout_s:g}s wall clock"),
                            retries, on_complete)
                if self.policy is not None:
                    self._supervise(retries, on_complete)
        finally:
            self._shutdown()
