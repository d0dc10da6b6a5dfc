"""Outside-in span tracing for the traced benchmark run.

The simulator is never edited to be traced.  Instead :class:`Tracer`
replaces the public (and a few well-known private) methods of each layer
with thin wrappers, by class- or module-attribute assignment, for the
duration of the traced run only.  This works without any source change
because the simulator looks every one of these callables up by attribute
on each call (``run_until`` reads ``tlb.translate_raw``, ``l1.access_raw``
and friends through the instance every iteration).

Each wrapped call records one span: name, start, end, parent span and the
cell or request it served.  Spans are kept in per-thread buffers in
memory; :meth:`Tracer.spans` merges them at the end, and
:func:`self_times` turns them into per-name self time (a span's duration
minus the part its direct children cover, less the wrapper's own cost as
timed by :func:`wrapper_cost`).
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Layer boundaries the traced run wraps: (module, class or None, attribute,
#: span name).  A class of None wraps a module-level function.  Span names
#: follow the repository's module names.
TARGETS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.tlb.hierarchy", "SplitTLBHierarchy", "translate_raw",
     "tlb.translate"),
    ("repro.cache.vipt", "ViptL1Cache", "access_raw", "cache.l1_access.vipt"),
    ("repro.core.seesaw", "SeesawL1Cache", "access_raw",
     "cache.l1_access.seesaw"),
    ("repro.cache.pipt", "PiptL1Cache", "access_raw", "cache.l1_access.pipt"),
    ("repro.cache.vivt", "VivtL1Cache", "access_raw", "cache.l1_access.vivt"),
    ("repro.cache.vipt", "ViptL1Cache", "fill", "cache.l1_fill"),
    ("repro.core.seesaw", "SeesawL1Cache", "fill", "cache.l1_fill"),
    ("repro.cache.pipt", "PiptL1Cache", "fill", "cache.l1_fill"),
    ("repro.cache.vivt", "VivtL1Cache", "fill", "cache.l1_fill"),
    ("repro.cache.hierarchy", "MemoryHierarchy", "service_miss",
     "cache.miss_path"),
    ("repro.cache.hierarchy", "MemoryHierarchy", "writeback",
     "cache.writeback"),
    ("repro.coherence.directory", "Directory", "cpu_read", "coherence"),
    ("repro.coherence.directory", "Directory", "cpu_write", "coherence"),
    ("repro.coherence.directory", "Directory", "sharer_count", "coherence"),
    ("repro.coherence.directory", "Directory", "evict", "coherence"),
    ("repro.cache.vipt", "ViptL1Cache", "coherence_probe", "coherence"),
    ("repro.core.seesaw", "SeesawL1Cache", "coherence_probe", "coherence"),
    ("repro.cache.pipt", "PiptL1Cache", "coherence_probe", "coherence"),
    ("repro.cache.vivt", "VivtL1Cache", "coherence_probe", "coherence"),
    ("repro.sim.system", "SystemSimulator", "_system_probe", "sim.probe"),
    ("repro.sim.system", "SystemSimulator", "_churn_splinter", "mem.churn"),
    ("repro.sim.system", "SystemSimulator", "_churn_promote", "mem.churn"),
    ("repro.core.seesaw", "SeesawL1Cache", "on_context_switch",
     "core.context_switch"),
    ("repro.cache.vivt", "VivtL1Cache", "flush", "core.context_switch"),
    ("repro.mem.os_policy", "MemoryManager", "touch", "mem.touch"),
    ("repro.mem.fragmentation", "Memhog", "run", "mem.memhog"),
    ("repro.sim.system", "SystemSimulator", "__init__", "sim.construct"),
    ("repro.sim.system", "SystemSimulator", "_prewarm", "sim.prewarm"),
    ("repro.sim.system", "SystemSimulator", "run_until", "sim.loop"),
    ("repro.sampling", None, "simulate_sampled", "sampling.lane"),
    ("repro.sampling.runner", None, "profile_trace", "sampling.profile"),
    ("repro.sampling.runner", None, "cluster_signatures", "sampling.cluster"),
    ("repro.sampling.runner", None, "_functional_warm_gap", "sampling.warm"),
    ("repro.workloads.suite", None, "build_trace", "workloads.build_trace"),
    ("repro.workloads.suite", None, "cached_trace", "workloads.cached_trace"),
    ("repro.resilience", None, "resilient_sweep", "resilience.sweep"),
    ("repro.resilience.runner", None, "resilient_sweep", "resilience.sweep"),
    ("repro.resilience.runner", None, "_run_cell", "resilience.cell"),
    ("repro.resilience.runner", None, "_run_cell_isolated",
     "resilience.cell"),
    ("repro.resilience.runner", "SweepJournal", "_append",
     "resilience.journal"),
    ("repro.resilience.runner", "SweepJournal", "read", "resilience.journal"),
    ("repro.resilience.runner", "SweepJournal", "rewrite_canonical",
     "resilience.journal"),
    ("repro.serve.jobs", None, "execute_job", "serve.execute_job"),
    ("repro.serve.cache", "ResultCache", "get", "serve.cache_get"),
)


def _cell_context(args) -> str:
    """``workload/design`` of a ``_run_cell``/``_run_cell_isolated`` call."""
    config, workload = args[0], args[1]
    return f"{workload}/{config.l1_design}"


def _job_context(args) -> str:
    """``job:<id>`` of an ``execute_job`` call (the reply's ``job_id``)."""
    return f"job:{args[0].id}"


#: Span names that start a new cell or request context for their subtree.
CONTEXT_OF: Dict[str, Callable] = {
    "resilience.cell": _cell_context,
    "serve.execute_job": _job_context,
}


def resolve(module: str, owner: Optional[str]):
    """The object a target's attribute lives on (a class or a module)."""
    mod = importlib.import_module(module)
    return getattr(mod, owner) if owner is not None else mod


class _Buffer:
    """One thread's spans, as parallel typed arrays (cheap to grow)."""

    __slots__ = ("name", "parent", "ctx", "start", "end", "stack",
                 "context")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.ctx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.context = -1


class Tracer:
    """Installs span-recording wrappers and holds the recorded spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.contexts: List[str] = []
        self._context_ids: Dict[str, int] = {}
        self._buffers: List[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ registry

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def context_id(self, label: str) -> int:
        with self._lock:
            if label not in self._context_ids:
                self._context_ids[label] = len(self.contexts)
                self.contexts.append(label)
            return self._context_ids[label]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    # --------------------------------------------------------------- spans

    def open(self, name: str) -> int:
        """Start a span on this thread; returns its thread-local index."""
        buf = self._buffer()
        index = len(buf.name)
        buf.name.append(self._name_id(name))
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.ctx.append(buf.context)
        buf.start.append(time.perf_counter())
        buf.end.append(0.0)
        buf.stack.append(index)
        return index

    def close(self, index: int, context: Optional[str] = None) -> None:
        """End span ``index``; ``context`` relabels it (e.g. once a reply
        names the job that served it)."""
        buf = self._buffer()
        buf.end[index] = time.perf_counter()
        buf.stack.pop()
        if context is not None:
            buf.ctx[index] = self.context_id(context)

    def _wrapper(self, original, name: str):
        name_id = self._name_id(name)
        context_of = CONTEXT_OF.get(name)
        tracer = self
        perf_counter = time.perf_counter

        # open()/close() inlined: this runs on every wrapped call (about a
        # million per exact-sweep pass), so it avoids two method calls.
        @functools.wraps(original)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            index = len(buf.name)
            stack = buf.stack
            buf.name.append(name_id)
            buf.parent.append(stack[-1] if stack else -1)
            saved = buf.context
            if context_of is not None:
                buf.context = tracer.context_id(context_of(args))
            buf.ctx.append(buf.context)
            buf.end.append(0.0)
            stack.append(index)
            buf.start.append(perf_counter())
            try:
                return original(*args, **kwargs)
            finally:
                buf.end[index] = perf_counter()
                stack.pop()
                buf.context = saved

        traced.__perfbench_original__ = original
        return traced

    # ------------------------------------------------------ install/remove

    def install(self, targets: Sequence = TARGETS) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for module, owner_name, attr, name in targets:
                owner = resolve(module, owner_name)
                original = (owner.__dict__[attr] if owner_name is not None
                            else getattr(owner, attr))
                if getattr(original, "__perfbench_original__", None):
                    raise RuntimeError(f"{module}.{owner_name}.{attr} is "
                                       f"already wrapped")
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(original, name))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- export

    def spans(self) -> Dict[str, np.ndarray]:
        """Every recorded span, merged across threads, as columns.

        ``parent`` indexes the merged arrays (-1 for a root span);
        ``name`` and ``ctx`` index :attr:`names` and :attr:`contexts`.
        Spans still open (end 0) are dropped.
        """
        columns = {key: [] for key in
                   ("name", "parent", "ctx", "start", "end", "thread")}
        offset = 0
        for thread, buf in enumerate(self._buffers):
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            columns["parent"].append(
                np.where(parent >= 0, parent + offset, -1))
            columns["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            columns["ctx"].append(np.frombuffer(buf.ctx, dtype=np.int32))
            columns["start"].append(np.frombuffer(buf.start))
            columns["end"].append(np.frombuffer(buf.end))
            columns["thread"].append(
                np.full(len(buf.name), thread, dtype=np.int32))
            offset += len(buf.name)
        if offset == 0:
            return {"name": np.zeros(0, np.int32),
                    "parent": np.zeros(0, np.int64),
                    "ctx": np.zeros(0, np.int32),
                    "start": np.zeros(0), "end": np.zeros(0),
                    "thread": np.zeros(0, np.int32)}
        merged = {key: np.concatenate(parts) for key, parts in columns.items()}
        return merged


def wrapper_cost(calls: int = 20_000, repeats: int = 5
                 ) -> Tuple[float, float]:
    """Seconds one wrapped call adds to the spans, as ``(inside,
    outside)``: the part inside the call's own span, and the part outside
    it, which the parent span's self time absorbs.

    Times ``calls`` calls of an empty function, bare and wrapped under one
    parent span, on a tracer of its own (so none of these spans mix with
    the measured ones); each part is the median over ``repeats``.
    """
    def noop():
        return None

    tracer = Tracer()
    traced = tracer._wrapper(noop, "noop")
    inside, outside = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        first = len(tracer._buffer().name)
        parent = tracer.open("calibrate")
        for _ in range(calls):
            traced()
        tracer.close(parent)
        buf = tracer._buffer()
        total = buf.end[parent] - buf.start[parent]
        children = sum(buf.end[i] - buf.start[i]
                       for i in range(first + 1, len(buf.name)))
        inside.append(children / calls)
        outside.append((total - children - bare) / calls)
    return float(np.median(inside)), float(np.median(outside))


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray,
               inside: float = 0.0, outside: float = 0.0) -> np.ndarray:
    """Per-span self time: duration minus the direct children's durations.

    Children always nest inside their parent on one thread, so the
    children's durations are exactly the part of the parent's interval
    they cover.  ``inside`` and ``outside`` (from :func:`wrapper_cost`)
    take the tracer's own cost out: ``inside`` once from every span, and
    ``outside`` from a parent once per direct child.
    """
    duration = end - start
    covered = np.zeros(len(duration))
    children = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    np.add.at(children, parent[has_parent], 1.0)
    return duration - covered - inside - outside * children


def inclusive_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray,
                    inside: float = 0.0, outside: float = 0.0) -> np.ndarray:
    """Per-span duration less the tracer's cost inside it: ``inside`` for
    the span itself and ``inside + outside`` for every descendant."""
    descendants = np.zeros(len(start))
    ancestor = parent.copy()
    while True:
        live = ancestor >= 0
        if not live.any():
            break
        np.add.at(descendants, ancestor[live], 1.0)
        ancestor = np.where(live, parent[np.maximum(ancestor, 0)], -1)
    return end - start - inside - (inside + outside) * descendants


def totals_by_name(spans: Dict[str, np.ndarray], names: Sequence[str],
                   inside: float = 0.0, outside: float = 0.0
                   ) -> Dict[str, Dict[str, float]]:
    """``{span name: {"self": s, "total": s, "calls": n}}``, with the
    tracer's cost taken out as in :func:`self_times`."""
    own = self_times(spans["start"], spans["end"], spans["parent"],
                     inside, outside)
    duration = inclusive_times(spans["start"], spans["end"], spans["parent"],
                               inside, outside)
    out: Dict[str, Dict[str, float]] = {}
    for index, name in enumerate(names):
        mask = spans["name"] == index
        out[name] = {"self": float(own[mask].sum()),
                     "total": float(duration[mask].sum()),
                     "calls": int(mask.sum())}
    return out


def write_spans(path, tracer: Tracer, spans: Dict[str, np.ndarray],
                cost: Tuple[float, float]) -> None:
    """Save the spans (plus name and context tables, and the
    :func:`wrapper_cost` the metrics took out) as one ``.npz``."""
    np.savez_compressed(path, names=np.array(tracer.names, dtype=str),
                        contexts=np.array(tracer.contexts, dtype=str),
                        wrapper_cost=np.array(cost), **spans)
