"""Self-time tracing of program layers from outside the program.

:class:`LayerTracer` replaces chosen functions (class attributes or module
globals) with timing wrappers.  Each call becomes a span; a span's *self*
time is its duration minus the time its direct child spans covered, so the
layers of one call tree add up to the root's wall time.  Spans are kept as
per-name totals in memory and read out when the run ends.

Rollout workers are forked from the traced process and inherit the
wrappers.  A worker starts with empty totals and, while the program's
telemetry flag is on for the collect, also adds its totals to
``repro.obs`` counters named ``perfbench.<layer>.*``.  The program already
ships those counters back with each collect reply and merges them into the
parent's registry; :meth:`LayerTracer.merge_worker_counters` folds them in.

The tracer keeps one span stack per process and is meant for
single-threaded call trees (the training loop).
"""

from __future__ import annotations

import functools
import os
import time

_FIELDS = ("calls", "total_ns", "self_ns", "rows")
_PREFIX = "perfbench."


class LayerTracer:
    """Installs timing wrappers and accumulates per-layer totals."""

    def __init__(self):
        self.pid = self._root_pid = os.getpid()
        self.totals = {}
        self._stack = []
        self._patches = []

    def _totals_for(self, name):
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = dict.fromkeys(_FIELDS, 0)
        return entry

    def wrap(self, owner, attr, name, rows=None, on_result=None):
        """Time every call of ``owner.attr`` as layer ``name``.

        Args:
            owner: A class or module holding the function.
            attr: Attribute name of the function on ``owner``.
            name: Layer name the calls are booked under (several functions
                may share one name).
            rows: Optional ``fn(args, kwargs, result) -> int`` counting the
                work items of one call.
            on_result: Optional ``fn(result)`` observing each return value
                outside the timed interval.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            pid = os.getpid()
            if pid != tracer.pid:
                # A forked worker: drop the parent's totals and open spans.
                tracer.pid = pid
                tracer.totals = {}
                tracer._stack = []
            frame = [0]
            tracer._stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter_ns() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += duration
            count = rows(args, kwargs, result) if rows is not None else 0
            tracer._record(name, duration, duration - frame[0], count)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _record(self, name, total_ns, self_ns, rows):
        entry = self._totals_for(name)
        entry["calls"] += 1
        entry["total_ns"] += total_ns
        entry["self_ns"] += self_ns
        entry["rows"] += rows
        if self.pid != self._root_pid:
            from repro import obs

            if obs.enabled():
                for field, value in (("calls", 1), ("total_ns", total_ns),
                                     ("self_ns", self_ns), ("rows", rows)):
                    obs.counter(f"{_PREFIX}{name}.{field}").inc(value)

    def merge_worker_counters(self, counters):
        """Add worker totals found in a ``repro.obs`` counter snapshot."""
        for key, value in counters.items():
            if not key.startswith(_PREFIX):
                continue
            name, field = key[len(_PREFIX):].rsplit(".", 1)
            if field in _FIELDS:
                self._totals_for(name)[field] += value

    def reset(self):
        self.totals = {}
        self._stack = []

    def uninstall(self):
        """Restore every wrapped function (last wrapped, first restored)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def get(self, name, field):
        return self.totals.get(name, {}).get(field, 0)
