"""In-memory spans and counts recorded around library calls, from outside.

A Tracer replaces a library function (or method) by a wrapper that records
a span (name, start, end, parent span, operation id) and then runs an
optional hook on the arguments and result.  Every module of the library
that holds a reference to the original gets the wrapper, so calls through
`from .x import f` bindings are seen too.  uninstall() restores them all.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

NAME, START, END, PARENT, OP = range(5)


@dataclass
class Tracer:
    package: str
    clock: Callable[[], float] = time.perf_counter
    spans: list[list] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    maxes: dict[str, int] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    op: int | None = None
    per_op: dict[int, dict] = field(default_factory=dict)   # hook state per operation
    _stack: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def begin_op(self, op_id: int) -> None:
        self.op = op_id

    def op_state(self) -> dict:
        return self.per_op.setdefault(self.op, {})

    def note_max(self, name: str, value: int) -> None:
        self.maxes[name] = max(self.maxes.get(name, value), value)

    # -- wrapping ----------------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        tracer, clock = self, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer.op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                tracer._stack.pop()
            if hook is not None:
                hook(tracer, rec, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self, target: str, name: str, hook=None, spans: bool = True) -> None:
        """Wrap `target`, a dotted path below the package such as
        "modp.ddf_degrees" or "modp.HenselLift.lift_to".  A target that no
        longer exists is recorded in `absent` instead of failing."""
        mod_path, _, attr = target.rpartition(".")
        owner = None
        try:
            owner = importlib.import_module(f"{self.package}.{mod_path}")
        except ImportError:
            # the last component before attr may be a class inside a module
            mod_name, _, cls_name = mod_path.rpartition(".")
            try:
                owner = getattr(importlib.import_module(f"{self.package}.{mod_name}"), cls_name)
            except (ImportError, AttributeError):
                owner = None
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.absent.append(target)
            return
        wrapper = (self._span_wrapper(name, original, hook) if spans
                   else self._count_wrapper(name, original))
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == self.package or mod_name.startswith(self.package + "."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------------

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.spans]
        for i, rec in enumerate(self.spans):
            if rec[PARENT] >= 0:
                out[rec[PARENT]].append(i)
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by child
        spans (calls run one at a time, so children never overlap)."""
        kids = self.children()
        out: dict[str, float] = {}
        for i, rec in enumerate(self.spans):
            inner = sum(self.spans[c][END] - self.spans[c][START] for c in kids[i])
            out[rec[NAME]] = out.get(rec[NAME], 0.0) + (rec[END] - rec[START]) - inner
        return out

    def totals(self) -> tuple[Counter, dict[str, float]]:
        calls: Counter = Counter()
        seconds: dict[str, float] = {}
        for rec in self.spans:
            calls[rec[NAME]] += 1
            seconds[rec[NAME]] = seconds.get(rec[NAME], 0.0) + rec[END] - rec[START]
        return calls, seconds

    def has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][PARENT]
        while parent >= 0:
            if self.spans[parent][NAME] == name:
                return True
            parent = self.spans[parent][PARENT]
        return False
