"""In-memory span recorder and the layer wrappers for the traced run.

The benchmark attributes time to layers without touching the library:
:func:`install` replaces each layer's public entry point with a wrapper
that records a span around the original call, and the returned
:class:`Patches` puts the originals back.  A span is ``(name, start, end, parent,
thread, rid)``; the parent is the innermost open span on the same
thread, so nesting follows the call stack.  A layer's self time is its
span minus the part its child spans cover.

Spans whose lifetime crosses ``await`` points (a served request) are
recorded as *async* spans: they carry a request id but take no part in
the parent/child tree, because many of them overlap on one thread.
What runs on the event loop is traced step by step instead: a
:class:`Stepped` coroutine opens a span around each resumption of the
coroutine it wraps, so the steps of many overlapping requests never
overlap each other.
"""

from __future__ import annotations

import collections.abc
import functools
import json
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0
    rid: int | None = None
    children_s: float = 0.0
    child_names: list = field(default_factory=list)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Collects spans and counters; written to disk only by :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.async_spans: list[Span] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, rid: int | None = None) -> int:
        stack = self._stack()
        span = Span(
            name=name,
            start=time.perf_counter(),
            parent=stack[-1] if stack else None,
            thread=threading.get_ident(),
            rid=rid,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.children_s += span.duration
            parent.child_names.append(span.name)
        return span

    def record_async(self, name: str, start: float, end: float, rid: int) -> None:
        with self._lock:
            self.async_spans.append(
                Span(name=name, start=start, end=end, thread=threading.get_ident(), rid=rid)
            )

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] += n

    # ---- aggregation ---------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def coverage(self, thread: int, wall_s: float) -> float:
        """Summed self time of the spans on ``thread`` over ``wall_s``."""
        covered = sum(s.self_s for s in self.spans if s.thread == thread)
        return covered / wall_s if wall_s > 0.0 else 0.0

    def dump(self, path: Path) -> None:
        """Write every span (one JSON object a line) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "thread": span.thread, "rid": span.rid,
                    "self_s": span.self_s,
                }) + "\n")
            for span in self.async_spans:
                out.write(json.dumps({
                    "id": None, "name": span.name, "start": span.start,
                    "end": span.end, "parent": None, "thread": span.thread,
                    "rid": span.rid, "async": True,
                }) + "\n")


# ---- wrappers ------------------------------------------------------------


class Stepped(collections.abc.Coroutine):
    """Wraps a coroutine and records one span named ``name`` around each
    of its steps (each resumption until it next suspends)."""

    def __init__(self, tracer: Tracer, name: str, coro) -> None:
        self._tracer = tracer
        self._name = name
        self._coro = coro

    def send(self, value):
        index = self._tracer.open(self._name)
        try:
            return self._coro.send(value)
        finally:
            self._tracer.close(index)

    def throw(self, *exc):
        index = self._tracer.open(self._name)
        try:
            return self._coro.throw(*exc)
        finally:
            self._tracer.close(index)

    def close(self):
        return self._coro.close()

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


def stepped_task_factory(tracer: Tracer):
    """An event-loop task factory that traces every task's steps, named
    ``serve.task`` for the library's own tasks (the batcher's flushes)
    and ``loadgen.task`` for the benchmark's."""
    import asyncio

    def factory(loop, coro, **kwargs):
        frame = getattr(coro, "cr_frame", None)
        module = frame.f_globals.get("__name__", "") if frame is not None else ""
        name = "serve.task" if module.startswith("repro.") else "loadgen.task"
        return asyncio.Task(Stepped(tracer, name, coro), loop=loop, **kwargs)

    return factory


def _wrap_sync(tracer: Tracer, name, fn, after=None):
    """Record a span named ``name`` (or ``name(*args)``) around ``fn``.

    ``after(span, result, args, kwargs)`` runs once the span is closed,
    so it can turn the call's outcome into counters.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        index = tracer.open(label)
        try:
            result = fn(*args, **kwargs)
        finally:
            span = tracer.close(index)
        if after is not None:
            after(span, result, args, kwargs)
        return result

    return wrapper


class Patches:
    """The set of attribute replacements :func:`install` made."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(self, tracer, owner, attr, name, after=None) -> None:
        self.replace(owner, attr, _wrap_sync(tracer, name, owner.__dict__[attr], after))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _oracle_label(kind: str):
    def label(self, profile, *args, **kwargs):
        if kind == "drm":
            mode = kwargs.get("mode")
            return f"oracle.drm_{mode.value if mode is not None else 'archdvs'}"
        return f"oracle.{kind}"

    return label


def install(tracer: Tracer) -> Patches:
    """Wrap every layer's entry point (see the benchmark's README)."""
    from repro.core.combined import JointOracle
    from repro.core.controllers import WearAwareController
    from repro.core.drm import DRMOracle
    from repro.core.dtm import DTMOracle
    from repro.core.intra import IntraAppOracle
    from repro.core.ramp import RampModel
    from repro.cpu.simulator import CycleSimulator
    from repro.engine.store import ResultStore
    import repro.harness.sweep as sweep_module
    from repro.harness.platform import Platform
    from repro.harness.sweep import SimulationCache
    from repro.lifetime.adversary import AdversarySearch
    from repro.lifetime.simulator import LifetimeSimulator
    from repro.serve.batcher import MicroBatcher
    from repro.serve.cache import DecisionCache
    from repro.serve.service import DecisionService
    from repro.serve.state import ChipStateStore
    from repro.telemetry import TelemetryWriter
    from repro.workloads import generator
    from repro.workloads.generator import MissionSchedule, TraceGenerator

    patches = Patches()
    sim_keys: set = set()

    def after_sim(span, run, args, kwargs):
        profile = args[1]
        tracer.count("cpu.instructions", run.instructions)
        tracer.count("cpu.cycles", run.cycles)
        span.attrs["app"] = profile.name
        with tracer._lock:
            sim_keys.add((profile.name, args[0].config.describe()))
            tracer.counters["cpu.distinct_keys"] = len(sim_keys)

    patches.wrap(tracer, CycleSimulator, "run", "cpu.sim", after_sim)
    patches.wrap(tracer, TraceGenerator, "phase_trace", "workloads.trace")
    patches.wrap(tracer, generator, "random_mission", "workloads.mission")

    def after_sweep(span, run, args, kwargs):
        if "cpu.sim" in span.child_names:
            tracer.count("sweep.simulated")
        elif "store.get" in span.child_names:
            tracer.count("sweep.store_reads")
        else:
            tracer.count("sweep.memo_hits")

    patches.wrap(tracer, SimulationCache, "run", "sweep.run", after_sweep)

    def after_get(span, payload, args, kwargs):
        tracer.count("store.gets")
        if payload is not None:
            tracer.count("store.hits")

    patches.wrap(tracer, ResultStore, "get", "store.get", after_get)
    patches.wrap(tracer, ResultStore, "put", "store.put")
    patches.wrap(tracer, sweep_module, "decode_workload_run", "store.decode")
    patches.wrap(tracer, sweep_module, "encode_workload_run", "store.encode")

    def after_kernel(span, batch, args, kwargs):
        tracer.count("kernel.calls")
        tracer.count("kernel.candidates", batch.n_candidates)
        if batch.salvage is not None:
            report = batch.salvage
            tracer.count("kernel.salvaged", len(report.salvaged) + len(report.rescued))

    patches.wrap(tracer, Platform, "evaluate_batch", "kernel.evaluate_batch", after_kernel)
    patches.wrap(tracer, RampModel, "application_fit_batch", "ramp.fit_batch")

    patches.wrap(tracer, DRMOracle, "best", _oracle_label("drm"))
    patches.wrap(tracer, DTMOracle, "best", _oracle_label("dtm"))
    patches.wrap(tracer, JointOracle, "best", _oracle_label("joint"))
    patches.wrap(tracer, IntraAppOracle, "best", _oracle_label("intra"))

    original_decide = DecisionService.__dict__["decide"]

    @functools.wraps(original_decide)
    def decide(self, request):
        return Stepped(tracer, "serve.decide", original_decide(self, request))

    patches.replace(DecisionService, "decide", decide)
    patches.wrap(tracer, MicroBatcher, "_on_deadline", "serve.batcher_deadline")
    patches.wrap(tracer, DecisionCache, "get_memory", "serve.cache_memory")
    patches.wrap(tracer, DecisionCache, "get", "serve.cache_get")
    patches.wrap(tracer, DecisionCache, "put", "serve.cache_put")
    patches.wrap(tracer, ChipStateStore, "record", "serve.chip_record")

    def after_open(span, state, args, kwargs):
        tracer.count("lifetime.open_epochs", args[1].n_epochs)

    def after_closed(span, result, args, kwargs):
        tracer.count("lifetime.closed_epochs", result.epochs_run)

    def after_search(span, result, args, kwargs):
        tracer.count("adversary.evals", result.evaluations)

    patches.wrap(tracer, LifetimeSimulator, "open_loop", "lifetime.open_loop", after_open)
    patches.wrap(tracer, LifetimeSimulator, "simulate", "lifetime.simulate", after_closed)
    patches.wrap(tracer, WearAwareController, "decide", "lifetime.controller")
    patches.wrap(tracer, MissionSchedule, "digest", "lifetime.digest")
    patches.wrap(tracer, AdversarySearch, "search", "adversary.search", after_search)
    patches.wrap(tracer, TelemetryWriter, "append", "telemetry.append")

    return patches
