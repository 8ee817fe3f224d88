"""In-memory span recorder that wraps curdur's public functions from outside.

A span is (name, start, end, parent, run id).  Spans stay in memory and are
written once, when the run ends.  The gradient is called hundreds of
thousands of times per fit, so its calls are not kept one by one: each call
adds its count and duration to the span that encloses it, which is enough
to derive every self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    run_id: str
    end: float = 0.0
    # summed duration of aggregated leaf calls made directly inside this span
    leaf_s: float = 0.0
    leaf_calls: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and call counts of one run, plus the wrappers that record them."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []  # indices of the open spans
        self._undo: list = []  # (owner, attribute, original) to restore

    # ---------------------------------------------------------------- record
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.run_id))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    # ------------------------------------------------------------------ wrap
    def _span_wrapper(self, name, fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self.count(name)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, fn):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                if stack:
                    span = spans[stack[-1]]
                    span.leaf_s += elapsed
                    span.leaf_calls += 1

        return wrapper

    def wrap_function(self, fn, name: str, on_result=None) -> None:
        """Replace ``fn`` in every loaded curdur module that binds it."""
        wrapper = self._span_wrapper(name, fn, on_result)
        found = False
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "curdur" or mod_name.startswith("curdur.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, fn))
                    found = True
        if not found:
            raise LookupError(f"{name}: function not bound in any curdur module")

    def wrap_method(self, cls, attr: str, name: str, leaf: bool = False,
                    on_result=None) -> None:
        fn = vars(cls)[attr]
        if leaf:
            wrapper = self._leaf_wrapper(fn)
        else:
            wrapper = self._span_wrapper(name, fn, on_result)
        setattr(cls, attr, wrapper)
        self._undo.append((cls, attr, fn))

    def unwrap(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)

    # --------------------------------------------------------------- derive
    def total(self, name: str) -> float:
        return sum(s.duration for s in self.spans if s.name == name)

    def leaf_totals(self) -> tuple[int, float]:
        return (sum(s.leaf_calls for s in self.spans),
                sum(s.leaf_s for s in self.spans))

    def self_time(self, name: str) -> float:
        """Duration of ``name`` spans minus the time covered by their children."""
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_s[span.parent] += span.duration
        return sum(
            s.duration - child_s[i] - s.leaf_s
            for i, s in enumerate(self.spans)
            if s.name == name
        )

    def write(self, path) -> None:
        payload = {
            "run_id": self.run_id,
            "counts": self.counts,
            "spans": [
                {
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "run_id": s.run_id,
                    "leaf_calls": s.leaf_calls,
                    "leaf_s": s.leaf_s,
                }
                for s in self.spans
            ],
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1)
            handle.write("\n")
