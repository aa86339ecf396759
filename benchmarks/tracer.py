"""In-memory span tracer that wraps pretermalc's public functions from outside.

The tracer never edits the program. It replaces a name in the module where
the caller looks it up (``pretermalc.bench.generate_cohort``, not
``pretermalc.synth.generate_cohort``), records one span per call, and puts
the original object back when the ``with`` block ends.

Two traps decide how names are patched:

* ``import pretermalc.train as m`` binds the *function* ``train``, because
  ``pretermalc/__init__.py`` re-exports it under the same name as the
  module. Modules are therefore always fetched with
  ``importlib.import_module``.
* ``bench`` and ``train`` bind their callees with ``from .x import y``, so
  patching the defining module would miss every call. Each patch names the
  calling module.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans, None at the top level

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans (name, start, end, parent) and counts in memory.

    Usage::

        tracer = Tracer()
        tracer.patch("pretermalc.bench", "generate_cohort", "synth.generate_cohort")
        with tracer:
            ...  # calls made here are traced
        tracer.total("synth.generate_cohort")
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._plan: list[tuple] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self._stack.pop()
        self.spans[index].end = self.clock()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around the benchmark's own code."""
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]].name if self._stack else None

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recorded as span ``name``. ``observe(result)`` runs after
        the span closes, so ``current()`` there names the caller's span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if observe is not None:
                observe(result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def patch(self, module: str, attr: str, name: str, observe=None) -> None:
        """Plan to wrap ``module.attr`` as span ``name`` while the tracer is
        entered. ``attr`` may be ``"Class.method"`` for a classmethod of a
        class that ``module`` defines or imports; the class object is
        shared, so every caller sees the wrapper."""
        owner, _, method = attr.partition(".")
        self._plan.append((module, owner, method or None, name, observe))

    def __enter__(self) -> "Tracer":
        for module_name, owner, method, name, observe in self._plan:
            module = importlib.import_module(module_name)
            if method is None:
                target, attr = module, owner
                original = getattr(module, owner)
                replacement = self.wrap(name, original, observe)
            else:
                target, attr = getattr(module, owner), method
                original = target.__dict__[method]
                if not isinstance(original, classmethod):
                    raise TypeError(f"{module_name}.{owner}.{method} is not a classmethod")
                replacement = classmethod(self.wrap(name, original.__func__, observe))
            self._undo.append((target, attr, original))
            setattr(target, attr, replacement)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- reading -----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def self_time(self, name: str) -> float:
        """Summed duration of the named spans minus the time their direct
        children cover. Spans come from one thread and nest, so children of
        one span never overlap."""
        child_time: Counter[int] = Counter()
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.duration
        return sum(
            s.duration - child_time[i] for i, s in enumerate(self.spans) if s.name == name
        )


def wrapper_cost(repeats: int = 5, calls: int = 20000) -> float:
    """Median seconds one traced call adds over a bare call, measured on a
    no-op function in this process."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap("noop", noop)
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        tracer.spans.clear()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    samples.sort()
    return max(samples[len(samples) // 2], 0.0)
