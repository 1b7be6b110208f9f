"""Span tracing for the benchmark's traced run.

The benchmark never edits the program: the traced run installs timing
wrappers on the attributes the program actually looks up (class
attributes for methods, the importing module's global for functions
imported by name) and removes them when the run ends.  Untraced runs
never see a wrapper.

Spans nest on one stack.  The program's wrapped calls are synchronous,
so even under the daemon's event loop a span never yields before it
ends, and a span opened by the benchmark's own code (a phase, or the
load generator's wait for the next due time) contains every span that
runs while it is open.  A span's *self* time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

perf_counter = time.perf_counter

#: Root spans opened by the workloads around their timed regions.  Time
#: in a phase not covered by a layer span is the uncovered remainder.
PHASES = ("phase.setup", "phase.replay", "phase.recover", "phase.plan")


class Tracer:
    """Records span self time, inclusive time and call counts by name."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, start, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        #: First value seen per key (for per-build facts such as nnz).
        self.first: dict[str, float] = {}
        #: ``(start, arrivals)`` per ``ChurnDriver.feed`` call and the end
        #: time of each repair ``apply`` call, in call order: a daemon
        #: flush is one feed followed by one apply.
        self.feeds: list[tuple[float, int]] = []
        self.apply_ends: list[float] = []

    @property
    def top(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def push(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def pop(self) -> float:
        name, start, child = self._stack.pop()
        now = perf_counter()
        dur = now - start
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        return now

    @contextlib.contextmanager
    def span(self, name: str):
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    def note_first(self, key: str, value: float) -> None:
        self.first.setdefault(key, float(value))

    def coverage(self) -> float:
        """Share of phase wall time covered by layer spans."""
        wall = sum(self.total_s[p] for p in PHASES)
        uncovered = sum(self.self_s[p] for p in PHASES)
        return 1.0 - uncovered / wall if wall > 0 else 0.0


class NullTracer:
    """The untraced run's stand-in: spans cost one attribute lookup."""

    @contextlib.contextmanager
    def span(self, name: str):
        yield


def _wrapper(tracer: Tracer, name: str, fn, enter=None, leave=None):
    """``fn`` timed as span ``name``; a same-name nested call (a
    subclass ``__init__`` calling its base's, a flush applying a
    one-event chunk) stays in the outer span."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.top == name:
            return fn(*args, **kwargs)
        if enter is not None:
            enter(args)
        tracer.push(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = tracer.pop()
        if leave is not None:
            leave(args, result, end)
        return result

    return traced


def install(tracer: Tracer):
    """Install every layer wrapper; returns the function removing them."""
    import repro.algorithms.context as context_mod
    import repro.service.daemon as daemon_mod
    from repro.algorithms.context import DynamicContext, SchedulingContext
    from repro.algorithms.repair import (
        CapacityRepairScheduler,
        OnlineRepairScheduler,
    )
    from repro.core.decay import DecaySpace
    from repro.dynamics import ChurnDriver
    from repro.geometry.cells import CellIndex
    from repro.service.daemon import SchedulerDaemon

    t = tracer

    def pairs(args, result, end):
        t.counters["cells.pairs"] += len(result[0])

    def pattern(args, result, end):
        t.note_first("affectance_sparse.nnz", result.nnz)
        t.note_first("affectance_sparse.radius", result.radius)

    def nodes(args, result, end):
        t.note_first("metricity.nodes", args[0].n)

    def added(args, result, end):
        t.counters["context.links_added"] += len(result)

    def feed_in(args):
        t.feeds.append((perf_counter(), len(args[1].arrivals)))

    def apply_out(args, result, end):
        t.apply_ends.append(end)

    # (owner, attribute, span name, enter hook, leave hook)
    targets = [
        (CellIndex, "query", "cells.query", None, pairs),
        (CellIndex, "far_field_sums", "cells.far_field", None, None),
        # Imported by name into the context module: wrapping the defining
        # module's attribute would never be called.
        (context_mod, "build_sparse_affectance", "affectance_sparse.build",
         None, pattern),
        (context_mod, "affectance_matrix", "affectance.matrix", None, None),
        (DecaySpace, "metricity", "metricity", None, nodes),
        (SchedulingContext, "first_fit", "context.first_fit", None, None),
        (SchedulingContext, "repeated_capacity", "context.repeated_capacity",
         None, None),
        (DynamicContext, "__init__", "context.init", None, None),
        (DynamicContext, "add_links", "context.add_links", None, added),
        (DynamicContext, "remove_links", "context.remove_links", None, None),
        (ChurnDriver, "feed", "dynamics.feed", feed_in, None),
        (OnlineRepairScheduler, "__init__", "repair.anchor", None, None),
        (CapacityRepairScheduler, "__init__", "repair.anchor", None, None),
        (OnlineRepairScheduler, "apply", "repair.apply", None, apply_out),
        (daemon_mod, "build_daemon", "daemon.build", None, None),
        # The worker's per-flush plumbing around feed + apply.
        (SchedulerDaemon, "_apply", "daemon.flush", None, None),
        (SchedulerDaemon, "_flush_chunk", "daemon.flush", None, None),
        (SchedulerDaemon, "checkpoint", "io.checkpoint", None, None),
        (SchedulerDaemon, "restore", "io.restore", None, None),
    ]
    saved = []
    for owner, attr, name, enter, leave in targets:
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            patched = classmethod(
                _wrapper(t, name, original.__func__, enter, leave)
            )
        else:
            patched = _wrapper(t, name, original, enter, leave)
        setattr(owner, attr, patched)
        saved.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall
