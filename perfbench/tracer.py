"""Spans around calls into dcflow, installed from outside the package.

``Tracer.install`` swaps each named function for a wrapper in every loaded
``dcflow`` module that holds it (so calls made through re-exports and
``from x import y`` names are caught too) and ``uninstall`` puts the
originals back. A span is ``(id, parent, name, thread, start, end)``; spans
and counts stay in memory until the run writes them out.

A span's self time is its duration minus the durations of its children on
the same thread. Work a wrapper does after the call to compute a count is
recorded as a ``trace.bookkeeping`` child of the caller, so it is charged to
the tracer rather than to a layer. The self times of all spans then add up
exactly to the durations of each thread's root spans.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

Counter = Callable[[tuple, dict, object, float], Iterable[tuple[str, float]]]

_perf = time.perf_counter
_thread = threading.get_ident


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple[str, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = _perf()
        try:
            yield
        finally:
            end = _perf()
            stack.pop()
            self.spans.append((sid, parent, name, _thread(), start, end))

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value))

    def wrap(self, fn: Callable, name: str, counter: Optional[Counter] = None) -> Callable:
        spans, counts, ids, stack_of = self.spans, self.counts, self._ids, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            stack = stack_of()
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _perf()
                stack.pop()
                spans.append((sid, parent, name, _thread(), start, end))
            if counter is not None:
                counts.extend(counter(args, kwargs, result, end - start))
                spans.append((next(ids), parent, "trace.bookkeeping", _thread(), end, _perf()))
            return result

        return wrapper

    def counting(self, fn: Callable, name: str) -> Callable:
        """A wrapper that only counts calls; its time stays with the caller."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts.append((name, 1))
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, counter: Optional[Counter] = None,
                       span: bool = True) -> None:
        original = getattr(module, attr)
        wrapper = self.wrap(original, name, counter) if span else self.counting(original, name)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("dcflow"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def patch_method(self, cls, attr: str, name: str, counter: Optional[Counter] = None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, name, counter))
        self._patches.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def mark(self) -> tuple[int, int]:
        return len(self.spans), len(self.counts)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, thread, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, thread, start, end]) + "\n")


def self_times(spans: list[tuple]) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-name self time and call count, and the summed duration of the
    thread roots (spans whose parent is absent or on another thread)."""
    thread_of = {s[0]: s[3] for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    roots = 0.0
    for sid, parent, _name, thread, start, end in spans:
        if parent is not None and thread_of.get(parent) == thread:
            child_time[parent] += end - start
        else:
            roots += end - start
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for sid, _parent, name, _thread_id, start, end in spans:
        self_s[name] += end - start - child_time[sid]
        calls[name] += 1
    return dict(self_s), dict(calls), roots


def sum_counts(counts: list[tuple[str, float]]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for name, value in counts:
        out[name] += value
    return dict(out)
