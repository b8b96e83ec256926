"""In-memory spans recorded around calls into the library's layers.

A ``Tracer`` keeps spans as (name, start, end, parent, attrs) records.
``patched`` wraps library functions at every ``howedual.*`` module attribute
that holds them (the names the library looks them up by at call time), so
calls made inside the library are seen too; the originals are restored when
the context exits.  Nothing is written until the caller asks for it.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict


class Tracer:
    """Single-threaded span recorder: the open spans form a stack."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.attrs.append({})
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.attrs[idx]
        finally:
            self.close(idx)

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its direct children.

        Spans nest strictly (one thread), so the children of a span cover
        disjoint parts of its interval.
        """
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= self.ends[idx] - self.starts[idx]
        return out

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total seconds, self seconds, summed attrs."""
        agg: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for idx, st in enumerate(self.self_times()):
            row = agg[self.names[idx]]
            row["calls"] += 1
            row["total_s"] += self.ends[idx] - self.starts[idx]
            row["self_s"] += st
            for key, value in self.attrs[idx].items():
                row[key] = row.get(key, 0) + value
        return dict(agg)

    def child_counts(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        return sum(
            1
            for idx, parent in enumerate(self.parents)
            if parent >= 0 and self.names[idx] == child_name and self.names[parent] == parent_name
        )

    def write(self, path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, **a}
            for n, s, e, p, a in zip(self.names, self.starts, self.ends, self.parents, self.attrs)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


def _wrap(tracer: Tracer, name: str, fn, measure):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if measure is not None:
                tracer.attrs[idx].update(measure(args, result))
            return result
        finally:
            tracer.close(idx)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


@contextlib.contextmanager
def patched(tracer: Tracer, functions, methods=()):
    """Wrap library callables for the duration of the context.

    ``functions`` holds (span name, function, measure) triples: every
    attribute of a loaded ``howedual`` module that is the function itself
    is replaced.  ``methods`` holds (span name, class, attribute, measure)
    and patches the class attribute.  ``measure(args, result)`` returns
    counts to attach to the span, or is None.
    """
    restore = []
    try:
        modules = [m for n, m in list(sys.modules.items()) if n == "howedual" or n.startswith("howedual.")]
        for name, fn, measure in functions:
            wrapper = _wrap(tracer, name, fn, measure)
            hits = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        restore.append((module, attr, fn))
                        hits += 1
            if not hits:
                raise LookupError(f"{name}: function not found in any howedual module")
        for name, cls, attr, measure in methods:
            fn = cls.__dict__[attr]
            setattr(cls, attr, _wrap(tracer, name, fn, measure))
            restore.append((cls, attr, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(restore):
            setattr(owner, attr, fn)
