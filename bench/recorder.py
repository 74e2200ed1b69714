"""Span recorder for the traced benchmark run.

The recorder replaces named entry points of the package with thin wrappers
for the length of a traced run and puts the originals back afterwards. A
wrap point names the binding a caller looks up, e.g. ``eprqkd.runner:run_protocol``
(the name ``runner`` calls) or ``eprqkd.rng:RandomSource.random`` (a method
looked up on the class). The same function bound under two names is wrapped
at each binding, so every call site is seen.

A span wrapper records (name, start, end, parent) in parallel in-memory lists;
a count wrapper only adds to a counter. Nothing is written until the run ends.
A wrap point that no longer resolves is listed in ``missing`` rather than
read as zero.
"""
from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


def _one(args, kwargs, result) -> int:
    return 1


@dataclass(frozen=True)
class WrapPoint:
    """One binding to wrap.

    ``span`` names the metric its self time adds to (None: no span is
    recorded); ``count`` names the counter it adds ``tally(args, kwargs,
    result)`` to on every call (None: not counted).
    """

    target: str
    span: str | None = None
    count: str | None = None
    tally: Callable = _one


def resolve(target: str):
    """Return (owner, attribute name) for "module:attr" or "module:Class.attr".

    Raises LookupError when the module, class or attribute is gone.
    """
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(target) from exc
    *parents, attr = path.split(".")
    for name in parents:
        if not hasattr(owner, name):
            raise LookupError(target)
        owner = getattr(owner, name)
    if not hasattr(owner, attr):
        raise LookupError(target)
    return owner, attr


class Recorder:
    """In-memory spans and counters, filled by the wrappers it installs."""

    ROOT = "bench.root"

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]
        self._installed: list[tuple[object, str, bool, object]] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(self.clock())
        return index

    def close(self, index: int):
        self.ends[index] = self.clock()
        self._stack.pop()

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    # -- wrapping --------------------------------------------------------

    def _span_wrapper(self, point: WrapPoint, fn):
        open_, close, counts = self.open, self.close, self.counts
        name, count, tally = point.span, point.count, point.tally

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = open_(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(index)
            if count is not None:
                counts[count] += tally(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, point: WrapPoint, fn):
        counts, count, tally = self.counts, point.count, point.tally

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[count] += tally(args, kwargs, result)
            return result

        return wrapper

    def install(self, points: list[WrapPoint]):
        """Wrap every resolvable point; list the others in ``missing``."""
        for point in points:
            try:
                owner, attr = resolve(point.target)
            except LookupError:
                self.missing.append(point.target)
                continue
            # Restore the raw attribute (a classmethod stays one), or delete
            # the override when the name was inherited.
            own = attr in vars(owner)
            original = vars(owner).get(attr)
            fn = getattr(owner, attr)
            if point.span is not None:
                wrapped = self._span_wrapper(point, fn)
            else:
                wrapped = self._count_wrapper(point, fn)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, own, original))

    def restore(self):
        """Put back every original, newest first."""
        while self._installed:
            owner, attr, own, original = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ----------------------------------------------------------

    def write(self, path):
        """Write spans, counts and missing points as one JSON document."""
        names = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(names)}
        document = {
            "span_names": names,
            "spans": [
                [ids[n], s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        with open(path, "w") as handle:
            json.dump(document, handle, separators=(",", ":"))


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    ``spans`` holds (name, start, end, parent index) with -1 for no parent.
    Overlapping children are merged so covered time is never counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        result.append((end - start) - covered)
    return result


def self_time_by_name(spans) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for (name, *_), value in zip(spans, self_times(spans)):
        totals[name] += value
    return dict(totals)
