"""Outside-in tracing of ``entrunc``: spans recorded around calls between its modules.

Nothing in the package is instrumented.  :meth:`Tracer.install` replaces, in
each module's namespace, every public function that module imports from a
sibling module (``entrunc.ensemble.sample_cue``, ``entrunc.cli.run_ensemble``,
...) with a wrapper that records a span, plus any functions named explicitly
(``entrunc.ensemble.run_cell``, which ``_collect`` looks up in its own
module).  :meth:`Tracer.uninstall` puts the originals back, so untraced runs
execute the package exactly as shipped.

A span's parent is the innermost open span on the same thread.  A span opened
on a thread with no open span (a pool worker) takes the innermost open span of
the thread that installed the tracer, i.e. the ``run_ensemble``/``loss_sweep``
call that owns the pool.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from dataclasses import dataclass
from types import ModuleType
from typing import Callable, Iterable

#: Name of the spans that time result hooks (numerical-health checks).
HOOK_SPAN = "trace.health"


@dataclass(eq=False)
class Span:
    id: int
    name: str  # "<layer>.<function>"
    layer: str
    start: float
    end: float
    parent: int | None
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children on worker threads can overlap each other; counting their union
    rather than their sum keeps a parent's self time from going negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        clipped = [
            (max(lo, span.start), min(hi, span.end))
            for lo, hi in children.get(span.id, ())
            if hi > span.start and lo < span.end
        ]
        out[span.id] = span.duration - union_length(clipped)
    return out


class Tracer:
    """Collects spans in memory while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self._saved: list[tuple[ModuleType, str, Callable]] = []
        self._hooks: dict[str, Callable] = {}

    # -- span recording -------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else (self._root_stack[-1] if self._root_stack else None)
        span = Span(next(self._ids), name, layer, time.perf_counter(), 0.0,
                    None if parent is None else parent.id, threading.get_ident())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def call(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span: the benchmark's call of ``cli.main``, and result hooks."""
        span = self._open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def take(self) -> list[Span]:
        """Remove and return the spans recorded so far."""
        spans, self.spans = self.spans, []
        return spans

    # -- installation ---------------------------------------------------

    def on_result(self, name: str, hook: Callable[[object, tuple], None]) -> None:
        """Call ``hook(result, args)`` after each traced call of ``name``.

        The hook runs outside the call's span, in a span of its own, so its
        cost counts as tracing overhead rather than as the caller's self time.
        """
        self._hooks[name] = hook

    def _wrapper(self, fn: Callable) -> Callable:
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            hook = tracer._hooks.get(name)
            if hook is not None:
                tracer.call(HOOK_SPAN, "trace", hook, result, args)
            return result

        return traced

    def install(self, modules: Iterable[ModuleType], own: Iterable[tuple[ModuleType, str]] = ()) -> None:
        """Wrap sibling imports in every module of ``modules``, plus the ``own`` functions."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = list(modules)
        package = {m.__name__ for m in modules}
        targets = [
            (module, attr)
            for module in modules
            for attr, value in vars(module).items()
            if inspect.isfunction(value)
            and not attr.startswith("_")
            and value.__module__ in package
            and value.__module__ != module.__name__
        ]
        targets += list(own)
        self._root_stack = self._stack()
        for module, attr in targets:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    @property
    def wrapped(self) -> list[str]:
        return [f"{module.__name__}.{attr}" for module, attr, _ in self._saved]
