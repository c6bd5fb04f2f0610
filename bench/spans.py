"""In-memory span recording for the traced benchmark run.

A :class:`Recorder` wraps library functions so that each call records a
span: its name, start and end (on the recorder's ns clock), the index of the
enclosing span (``-1`` for a root) and optional attributes computed from the
call's arguments and result.  Spans stay in memory until the run ends.

:func:`install` replaces every binding of a wrapped function inside the
package, not just the defining module's: ``from .slices import sup_modulus``
copies the function object into ``functionals``, and a wrapper installed
only on ``slices`` would never see those calls.

A span's self time is its duration minus the part of it that its child
spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

Observer = Callable[[tuple, dict, Any], Any]


class Span:
    """One call: name, start and end in ns, parent index (-1 for a root), attributes."""

    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: int, end: int, parent: int, attrs: Any = None) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs


class Recorder:
    """Collects spans from the wrappers it creates; single-threaded."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0, 0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if observe is not None:
                span.attrs = observe(args, kwargs, result)
            return result

        return wrapper


@dataclass(frozen=True)
class Hook:
    """A function to wrap: ``<package>.<module>.<function>``."""

    module: str
    function: str
    observe: Observer | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


@dataclass
class Installation:
    """Which hooks were installed, which bindings they replaced, and how to undo it."""

    found: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    bindings: dict[str, list[str]] = field(default_factory=dict)
    _undo: list[tuple[object, str, object]] = field(default_factory=list)

    def restore(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


def install(recorder: Recorder, hooks: Iterable[Hook], package: str) -> Installation:
    """Wrap each hook's function and rebind every package attribute that held it."""
    inst = Installation()
    hooks = list(hooks)
    modules = {}
    # Import every hooked module before wrapping anything, so that no module
    # imported later copies a wrapper that restore() would not undo.
    for hook in hooks:
        try:
            modules[hook.module] = importlib.import_module(f"{package}.{hook.module}")
        except ImportError:
            modules[hook.module] = None
    for hook in hooks:
        module = modules[hook.module]
        original = getattr(module, hook.function, None) if module is not None else None
        if not callable(original):
            inst.missing.append(hook.name)
            continue
        wrapper = recorder.wrap(hook.name, original, hook.observe)
        rebound = []
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    inst._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    rebound.append(f"{mod_name}.{attr}")
        inst.found.append(hook.name)
        inst.bindings[hook.name] = rebound
    return inst


def covered_ns(lo: int, hi: int, intervals: Iterable[tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Per span: duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.end - s.start - covered_ns(s.start, s.end, children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def unspanned_ns(spans: list[Span], lo: int, hi: int) -> int:
    """Time in ``[lo, hi]`` covered by no root span."""
    return hi - lo - covered_ns(lo, hi, ((s.start, s.end) for s in spans if s.parent < 0))
