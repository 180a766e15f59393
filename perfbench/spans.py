"""A small in-memory span recorder owned by the benchmark.

It depends on nothing in ``repro`` (in particular not on ``repro.obs``),
so a rewrite of the program's own tracing cannot move the measuring
stick.  Spans are opened around the calls the benchmark makes into each
layer; each records a name, start, end and parent, and they are kept in
memory until the run writes them out.

A span name is ``<layer>.<what>``.  The layer is the part before the
first dot; ``bench`` marks the benchmark's own spans (the workload's
iteration, its phases and epochs, schedule waits), whose self time is
the glue between layer calls.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import defaultdict


class Recorder:
    """Spans and counters of one traced iteration."""

    enabled = True

    def __init__(self, iteration: int = 0):
        self.iteration = iteration
        # [name, parent index or -1, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, time.perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def set(self, name: str, value: float) -> None:
        self.counts[name] = value

    @contextlib.contextmanager
    def wrap(self, module, attr: str, span_name: str, nbytes_counter: str,
             path_of):
        """Temporarily replace ``module.attr`` with a version that runs
        inside a span, so calls the program makes internally (for
        example the engine reading tiles) are attributed to their
        layer.  ``path_of(args, result)`` names a file whose size is
        added to ``nbytes_counter``."""
        original = getattr(module, attr)

        def wrapped(*args, **kwargs):
            with self.span(span_name):
                result = original(*args, **kwargs)
            self.add(nbytes_counter, os.path.getsize(path_of(args, result)))
            return result

        setattr(module, attr, wrapped)
        try:
            yield
        finally:
            setattr(module, attr, original)

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Inclusive seconds per span name."""
        out: dict[str, float] = defaultdict(float)
        for name, _, start, end in self.spans:
            out[name] += end - start
        return out

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer: each span's duration minus the part
        its direct children cover (children never overlap: one
        thread, strictly nested)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans):
            out[name.split(".", 1)[0]] += (end - start) - child_time[i]
        return out

    def dump(self) -> list[dict]:
        return [
            {
                "iteration": self.iteration,
                "id": i,
                "name": name,
                "parent": parent,
                "start": start,
                "end": end,
            }
            for i, (name, parent, start, end) in enumerate(self.spans)
        ]


class NullRecorder:
    """The untraced stand-in: every call is a no-op."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def wrap(self, *args, **kwargs):
        return self._null

    def add(self, name, value):
        pass

    def set(self, name, value):
        pass


NULL = NullRecorder()
