"""In-memory span recorder for the traced benchmark run.

``Tracer.wrap`` replaces a function at the place where its caller looks
it up (a module attribute), so the program's files stay untouched. A
span is ``[name_id, parent_index, start_ns, end_ns]``; the parent is the
span open when the call began, or -1 at the root. Self time is a span's
duration minus the durations of its children.
"""

from __future__ import annotations

import contextlib
import functools
import json
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> list[int]:
        rec = [nid, self._stack[-1] if self._stack else -1, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter_ns()
        return rec

    def _close(self, rec: list[int]) -> None:
        rec[3] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, module, attr: str, name: str, on_return=None) -> None:
        """Record a span named ``name`` around every call of
        ``module.attr``; ``on_return(args, result)`` runs after the span
        closes."""
        fn = getattr(module, attr)
        nid = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_return is not None:
                on_return(args, out)
            return out

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, fn))

    def restore(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def totals(self, lo: int = 0, hi: int | None = None) -> dict[str, dict[str, float]]:
        """Per-name call count, total and self seconds over spans
        ``lo:hi``, which must hold whole subtrees."""
        rows = np.array(self.spans[lo:hi], dtype=np.int64).reshape(-1, 4)
        dur = rows[:, 3] - rows[:, 2]
        parent = rows[:, 1] - lo
        child = np.zeros(len(rows), dtype=np.int64)
        inner = rows[:, 1] >= lo
        np.add.at(child, parent[inner], dur[inner])
        n = len(self.names)
        count = np.bincount(rows[:, 0], minlength=n)
        total = np.bincount(rows[:, 0], weights=dur, minlength=n) * 1e-9
        self_s = np.bincount(rows[:, 0], weights=dur - child, minlength=n) * 1e-9
        return {
            name: {"count": int(count[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }

    def dump(self, path, **extra) -> None:
        doc = {
            **extra,
            "names": self.names,
            "span_fields": ["name", "parent", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
