"""Unified error taxonomy for the resilience layer.

Every failure the resilience stack can raise derives from
:class:`ReproResilienceError`, so callers that just want "the sweep
machinery had a problem" can catch one type; the concrete subclasses
keep their historical stdlib bases (``TimeoutError``, ``ValueError``)
so existing ``except`` clauses keep working.

Each error class carries the CLI exit code the ``repro`` command maps it
to (``exit_code``).  The documented exit-code contract:

====  ========================================================
code  meaning
====  ========================================================
0     success
1     completed, but some sweep cells failed (or lint findings)
2     usage / configuration errors (bad specs, corrupt headers,
      unrepairable journals)
3     the runtime invariant sanitizer tripped
4     the sweep paused cleanly (disk-space guard, journal write
      fault) — the journal is intact; ``repro resume`` continues
      (re-run the sweep instead when its header never reached the disk)
130   interrupted by SIGINT — journal flushed, canonicalized,
      resumable (128 + signal number; SIGTERM exits 143)
====  ========================================================

``repro serve`` shares the contract: 0 after a clean ``shutdown`` RPC,
2 for usage errors, and 130/143 after a signal-triggered graceful drain
(in-flight requests flush their journals, clients receive resumable-job
tokens, then the process exits 128 + signum).

The serve layer adds *admission* errors — structured request rejections
(:class:`PoolOverloaded`, :class:`QuotaExceeded`, :class:`ServerDraining`,
:class:`JobNotFound`) that map to JSON-RPC error codes instead of process
exits, and :class:`DeadlineExceeded`, the per-request deadline that
degrades unfinished cells into ``FailedCell`` records.

``repro ingest`` (the real-trace importer) extends the contract with the
:class:`IngestError` family: 0 for a clean import; 1 when malformed
input records were quarantined (within the ``--max-bad-records``
budget) but the canonical ``.rtrace`` was still produced; 2 for unusable
input (unknown format, corruption beyond the budget or under
``--strict``, an invalid ``.rtrace``, a resume whose input changed);
4 when the ingest paused cleanly (input EIO, output write fault) with
its offset journal intact — re-running the same ``repro ingest``
command resumes from the journaled byte offset.
"""

from __future__ import annotations

from typing import Optional

#: Documented ``repro`` CLI exit codes.
EXIT_OK = 0
EXIT_FAILED_CELLS = 1
EXIT_USAGE = 2
EXIT_SANITIZER = 3
EXIT_PAUSED = 4
#: Interrupt exits are ``EXIT_INTERRUPT_BASE + signal number`` (the shell
#: convention): SIGINT -> 130, SIGTERM -> 143.
EXIT_INTERRUPT_BASE = 128


class ReproResilienceError(RuntimeError):
    """Base of every checkpoint/journal/sweep/chaos error.

    ``exit_code`` is the process exit code ``repro``'s CLI maps the
    error to (subclasses override it where the contract differs).
    """

    exit_code = EXIT_USAGE


class CellTimeout(ReproResilienceError, TimeoutError):
    """An isolated cell exceeded its wall-clock budget (transient)."""


class CellCrash(ReproResilienceError):
    """An isolated cell's worker died without reporting (transient)."""


class CellHung(CellTimeout):
    """A supervised worker stopped heartbeating (hung; transient)."""


class CellResourceLimit(ReproResilienceError):
    """A supervised worker breached its RSS ceiling with no concurrency
    left to shed (transient; retried by the usual budget)."""


class DeadlineExceeded(CellTimeout):
    """A sweep/request deadline expired.

    Unlike a per-cell wall-clock timeout, a deadline is *never* retried —
    the time budget is gone — so in-flight cells are killed and every
    unfinished cell degrades into a ``FailedCell`` record with this error
    class (the journal stays resumable: failed cells re-run on resume).
    """


class CellError(ReproResilienceError):
    """A cell raised inside the worker; carries the remote error shape."""

    def __init__(self, error_class: str, message: str,
                 traceback_text: str) -> None:
        super().__init__(f"{error_class}: {message}")
        self.error_class = error_class
        self.message = message
        self.traceback_text = traceback_text


class DuplicateCellError(ReproResilienceError):
    """The same (workload, design) cell was dispatched twice concurrently."""


class JournalError(ReproResilienceError):
    """A sweep journal is unreadable or inconsistent."""


class CampaignError(ReproResilienceError):
    """A distributed campaign's spec, directory, or shard state is
    unusable as described (bad axis declarations, a shard journal from a
    different campaign, a merge over an empty shard set).  Maps to the
    usage exit code: the operator must fix the campaign, not retry it."""


class CheckpointError(ReproResilienceError):
    """A checkpoint could not be written, read, or applied."""


class IngestError(ReproResilienceError):
    """Base of real-trace ingestion failures (``repro ingest``)."""


class TraceFormatError(IngestError, ValueError):
    """The input's trace format is unknown, unsniffable, or the
    requested format name is not a registered parser."""


class RtraceError(IngestError):
    """A canonical ``.rtrace`` file is missing, corrupt, or fails its
    checksum — ``repro doctor FILE.rtrace`` diagnoses and repairs."""


class TraceCorruptionError(IngestError):
    """The input is too corrupt to ingest as configured: a malformed
    record under ``--strict``, more bad records than the
    ``--max-bad-records`` budget allows, or a resumed ingest whose input
    file no longer matches the offset journal's fingerprint."""


class IngestPausedError(IngestError):
    """The ingest paused cleanly on an I/O fault (input EIO, output
    write error, disk full).

    The offset journal and partial output reflect the last completed
    checkpoint, so re-running the same ``repro ingest`` command resumes
    from the journaled byte offset instead of starting over.
    """

    exit_code = EXIT_PAUSED


class JournalWriteError(ReproResilienceError):
    """Appending to the journal failed (I/O error, torn write).

    The journal on disk is still valid — at worst it ends in one torn
    trailing line, which :meth:`SweepJournal.read` tolerates — so the
    sweep pauses cleanly instead of tearing state, and ``repro resume``
    picks it back up.
    """

    exit_code = EXIT_PAUSED


class DiskSpaceError(JournalWriteError):
    """The journal's filesystem dropped below the free-space floor.

    Raised *before* the write, so nothing is torn; the sweep pauses with
    a resume hint instead of fsyncing into a full disk.
    """


class SweepInterrupted(ReproResilienceError):
    """A journaled sweep stopped on SIGINT/SIGTERM with a resumable journal.

    Raised only after buffered completed cells were flushed and the
    journal canonicalized, so ``repro resume`` (or ``repro sweep
    --resume``) continues exactly where the interrupted run stopped.
    """

    def __init__(self, signum: int, journal_path=None) -> None:
        import signal as _signal

        try:
            name = _signal.Signals(signum).name
        except ValueError:
            name = f"signal {signum}"
        hint = (f"; resume with: python -m repro resume {journal_path}"
                if journal_path is not None else "")
        super().__init__(
            f"sweep interrupted by {name} — completed cells are journaled "
            f"and the journal is canonical{hint}")
        self.signum = signum
        self.journal_path = journal_path

    @property
    def exit_code(self) -> int:
        return EXIT_INTERRUPT_BASE + self.signum


class AdmissionError(ReproResilienceError):
    """Base of serve-side request rejections.

    Admission errors are *structured* by design: an overloaded or
    draining server answers with a JSON-RPC error carrying ``rpc_code``
    and a machine-readable ``data`` payload (retry-after hints, resume
    tokens) — it never hangs the client and never tears server state.
    ``retry_after_s`` is the server's backoff suggestion, surfaced in the
    error data (the HTTP-429 convention, carried over JSON-RPC).
    """

    #: JSON-RPC error code (server-defined -32000 range).
    rpc_code = -32000

    def __init__(self, message: str,
                 retry_after_s: Optional[float] = None, **data) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.data = dict(data)
        if retry_after_s is not None:
            self.data["retry_after_s"] = round(retry_after_s, 3)


class PoolOverloaded(AdmissionError):
    """The bounded pending-request pool is full (structured 429)."""

    rpc_code = -32001


class QuotaExceeded(AdmissionError):
    """The client's token-bucket quota is exhausted (structured 429)."""

    rpc_code = -32002


class ServerDraining(AdmissionError):
    """The server is draining after SIGINT/SIGTERM/shutdown; new requests
    are rejected, in-flight ones flush and return resumable tokens."""

    rpc_code = -32003


class JobNotFound(AdmissionError):
    """A ``status`` request named a job/token the server does not know."""

    rpc_code = -32004


def classify_write_error(exc: OSError, path,
                         resume_hint: Optional[str] = None) -> JournalWriteError:
    """Map an OSError from a journal write to the taxonomy.

    ``ENOSPC`` becomes :class:`DiskSpaceError`; everything else (EIO,
    torn-write simulation, ...) a :class:`JournalWriteError`.  Both pause
    the sweep cleanly with ``resume_hint`` appended to the message.
    """
    import errno as _errno

    hint = f" — {resume_hint}" if resume_hint else ""
    reason = exc.strerror or str(exc)
    if exc.errno == _errno.ENOSPC:
        return DiskSpaceError(
            f"{path}: no space left on device ({reason}); pausing before "
            f"the append could tear the journal{hint}")
    return JournalWriteError(
        f"{path}: journal write failed ({reason}); the journal is valid "
        f"up to its last complete record{hint}")
