"""Timing spans kept in memory around functions of a running program.

A span has a name, a start, an end and a parent: the span that was open when
it started.  While the traced code runs, spans only go into parallel arrays;
self times and per-name totals are worked out after it has finished.  A
span's self time is its duration minus the part of its interval that its
child spans cover.

Wrapping replaces every module attribute that refers to the original
function, so names bound by ``from module import name`` are traced too, and
`patched` puts every original back when it exits.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from contextlib import contextmanager

# Span of the tracer's own bookkeeping on a result; no layer owns it, and it
# keeps that cost out of the caller's self time.
OBSERVE = "tracer.observe"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """fn inside a span called name; observe(result) runs outside it.

        A generator function is timed over each step of its iteration, not
        over the call that creates it.
        """
        nid = self.name_id(name)
        oid = self.name_id(OBSERVE)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._steps(nid, fn(*args, **kwargs))

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if observe is not None:
                j = self.open(oid)
                observe(result)
                self.close(j)
            return result

        return wrapper

    def _steps(self, nid: int, gen):
        try:
            while True:
                i = self.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                yield item
        finally:
            gen.close()

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (span count, summed self time in seconds)."""
        selfs = self_times(self.starts, self.ends, self.parents)
        calls = [0] * len(self.names)
        sums = [0.0] * len(self.names)
        for nid, s in zip(self.name_ids, selfs):
            calls[nid] += 1
            sums[nid] += s
        return {name: (calls[i], sums[i]) for i, name in enumerate(self.names)}

    def durations(self, name: str) -> list[float]:
        """Inclusive duration of every span called name."""
        nid = self._ids.get(name)
        return [
            e - s
            for k, s, e in zip(self.name_ids, self.starts, self.ends)
            if k == nid
        ]


def self_times(starts, ends, parents) -> array:
    """Each span's duration minus the union of its children's intervals.

    parents[i] is the index of span i's parent, or -1 for a root.  Children
    are clipped to their parent's interval, and overlapping children are
    counted once.
    """
    n = len(starts)
    order = range(n)
    if any(starts[i] > starts[i + 1] for i in range(n - 1)):
        order = sorted(order, key=starts.__getitem__)
    covered = array("d", bytes(8 * n))
    reach: dict[int, float] = {}
    for i in order:
        p = parents[i]
        if p < 0:
            continue
        lo = max(starts[i], starts[p], reach.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (ends[i] - starts[i] - covered[i] for i in range(n)))


@contextmanager
def patched(tracer: Tracer, targets, modules):
    """Trace targets inside the block; restore every replaced attribute after.

    targets holds (span name, owner, attribute, observe) tuples: owner is a
    module or a class.  A target whose attribute is missing is skipped.  For
    a module function, every attribute of every module in modules that is
    the original function is replaced.
    """
    saved = []
    try:
        for name, owner, attr, observe in targets:
            raw = vars(owner).get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                saved.append((owner, attr, raw))
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__, observe)))
                continue
            wrapped = tracer.wrap(name, raw, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        saved.append((mod, key, raw))
                        setattr(mod, key, wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
