"""In-memory span tracer that wraps fkplump's cross-module calls from outside.

The package is not edited.  `Tracer.install` replaces, in every fkplump
submodule, each public function that the submodule imported from another
fkplump submodule (for example `fkplump.solver.fft2`) with a wrapper that
records one span per call.  A span is named after the layer that defines
the function (`grid.fft2`), so new or renamed functions get spans without
a benchmark edit.  `Tracer.wrap` gives the benchmark's own entry calls the
same treatment.

Spans hold name, start, end, parent and whether the call raised, plus the
bytes of the ndarray arguments and result.  The process is single-threaded,
so a stack gives each span its parent and a span's children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from dataclasses import dataclass
from types import ModuleType

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    failed: bool = False
    nbytes: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _array_bytes(values) -> int:
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


class Tracer:
    """Records nested spans of wrapped calls; install/uninstall patch a package."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[ModuleType, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            span.nbytes = _array_bytes(args) + _array_bytes(kwargs.values())
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.nbytes += _array_bytes(result if isinstance(result, tuple) else (result,))
            return result

        return traced

    def install(self, package: ModuleType) -> list[str]:
        """Wrap every cross-module public function import inside `package`.

        Returns the patched attribute paths, e.g. "fkplump.solver.fft2".
        """
        prefix = package.__name__ + "."
        modules = [
            importlib.import_module(prefix + info.name)
            for info in pkgutil.iter_modules(package.__path__)
        ]
        patched = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if home == module.__name__ or not home.startswith(prefix):
                    continue
                span_name = f"{home[len(prefix):]}.{value.__name__}"
                setattr(module, attr, self.wrap(span_name, value))
                self._patched.append((module, attr, value))
                patched.append(f"{module.__name__}.{attr}")
        return patched

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def clear(self) -> None:
        if self._stack:
            raise RuntimeError("cannot clear spans while a span is open")
        self.spans.clear()


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def descendants(spans: list[Span], root: int) -> list[int]:
    """Indices of the spans nested (at any depth) inside span `root`."""
    inside = {root}
    found = []
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
            found.append(i)
    return found


def outermost_of_layer(spans: list[Span], layer: str) -> list[int]:
    """Spans of `layer` with no enclosing span of the same layer.

    Summing their durations gives the layer's wall time without counting
    a nested call twice.
    """
    found = []
    for i, s in enumerate(spans):
        if s.layer != layer:
            continue
        p = s.parent
        while p is not None and spans[p].layer != layer:
            p = spans[p].parent
        if p is None:
            found.append(i)
    return found


def function_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total_ms, self_ms and failed calls."""
    own = self_seconds(spans)
    stats: dict[str, dict[str, float]] = {}
    for s, own_s in zip(spans, own):
        entry = stats.setdefault(
            s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "failed": 0}
        )
        entry["calls"] += 1
        entry["total_ms"] += 1e3 * s.seconds
        entry["self_ms"] += 1e3 * own_s
        entry["failed"] += int(s.failed)
    return stats
