"""Spans around the program's layer functions, from outside the program.

Each layer is wrapped at the module attribute through which the program
calls it (for example `bilqr.solver.riccati_sweep`, which `iterate_once`
looks up at call time). A call records a span: layer, start, end and the
span that was open when it began. Times are the process's CPU time, the
clock the end-to-end metrics use. Spans stay in memory; self time, call
counts and allocation peaks are computed from them when the run ends. A
layer whose function no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Layer:
    """One traced function. `sites` are (module, attribute path) pairs;
    `mem` adds an allocation peak."""

    name: str
    sites: tuple
    mem: bool = False


@dataclass
class _Span:
    layer: int
    start: float
    parent: int
    end: float = 0.0
    mem_base: int = 0
    mem_peak: int = 0


@dataclass
class Tracer:
    layers: tuple
    memory: bool = False
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _mem_open: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def install(self) -> None:
        for index, layer in enumerate(self.layers):
            found = False
            for module_name, path in layer.sites:
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    continue
                found = True
                self._restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(index, layer, original))
            if not found:
                self.absent.append(layer.name)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _fold_peak(self) -> None:
        _, peak = tracemalloc.get_traced_memory()
        for span in self._mem_open:
            span.mem_peak = max(span.mem_peak, peak)
        tracemalloc.reset_peak()

    def _wrap(self, index: int, layer: Layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            track_mem = self.memory and layer.mem
            span = _Span(index, 0.0, self._stack[-1] if self._stack else -1)
            if track_mem:
                self._fold_peak()
                span.mem_base = span.mem_peak = tracemalloc.get_traced_memory()[0]
                self._mem_open.append(span)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.process_time()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.process_time()
                self._stack.pop()
                if track_mem:
                    self._fold_peak()
                    self._mem_open.pop()

        return traced

    def summary(self, first: int = 0) -> dict:
        """Per layer over the spans from index `first` on: calls, self time
        in ms, and the largest allocation peak above the level at entry in
        MB (zero unless memory was traced)."""
        child = [0.0] * len(self.spans)
        for span in self.spans[first:]:
            if span.parent >= first:
                child[span.parent] += span.end - span.start
        out = {layer.name: {"calls": 0, "self_ms": 0.0, "peak_mb": 0.0} for layer in self.layers}
        for i in range(first, len(self.spans)):
            span = self.spans[i]
            row = out[self.layers[span.layer].name]
            row["calls"] += 1
            row["self_ms"] += 1e3 * (span.end - span.start - child[i])
            row["peak_mb"] = max(row["peak_mb"], (span.mem_peak - span.mem_base) / 2 ** 20)
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line: layer, start, end, parent."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps([self.layers[span.layer].name, span.start, span.end, span.parent]) + "\n")
