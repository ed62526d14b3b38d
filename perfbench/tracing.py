"""Spans around the calls into each slowdrive layer, recorded from outside the
program by rebinding the names the program's modules import.

A span is (id, sweep, name, parent, start, end) plus a few counts read from
the wrapped call's arguments or result. Spans stay in memory; the benchmark
writes them out when its run ends. Calls to ``numpy.linalg.eigh`` are counted,
not spanned, and each is charged to the innermost open span.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from importlib import import_module

import numpy as np


@dataclass
class Span:
    id: int
    sweep: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    eigh_calls: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _evolve_counts(args, kwargs, result) -> dict:
    # Sub-steps per grid interval, rebuilt from the returned grid and step:
    # the propagator splits every interval into ceil(span / step) equal parts.
    spans = np.diff(result.s_grid)
    steps = int(np.sum(np.maximum(1, np.ceil(spans / result.step - 1e-9))))
    return {"steps": steps, "max_drift": float(result.max_drift)}


def _decomp_counts(args, kwargs, result) -> dict:
    return {"levels": len(result.levels)}


def _csv_counts(args, kwargs, result) -> dict:
    path, _scenario, _metric, rows = args
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


# (module, imported name, span name, counts read after the call)
TARGETS = (
    ("slowdrive.cli", "run_sweep", "sweeps.run_sweep", None),
    ("slowdrive.sweeps", "build_scenario", "scenarios.build", None),
    ("slowdrive.sweeps", "evolve", "propagation.evolve", _evolve_counts),
    ("slowdrive.sweeps", "comparison_family", "propagation.comparison_family", None),
    ("slowdrive.sweeps", "omega_infinity", "propagation.omega_inf", None),
    ("slowdrive.sweeps", "heisenberg_distance_norm", "diagnostics.heisenberg_norm", None),
    ("slowdrive.sweeps", "heisenberg_distance_sot", "diagnostics.heisenberg_sot", None),
    ("slowdrive.sweeps", "resolvent_distance", "diagnostics.resolvent", None),
    ("slowdrive.sweeps", "offdiagonal_block_decay", "diagnostics.offdiag", None),
    ("slowdrive.sweeps", "rate_fit", "diagnostics.rate_fit", None),
    ("slowdrive.sweeps", "write_metric_csv", "diagnostics.csv", _csv_counts),
    ("slowdrive.sweeps", "projection_eq", "spectral.projection", None),
    ("slowdrive.scenarios", "hermitian_eigendecomposition", "operators.decomp", _decomp_counts),
    ("slowdrive.scenarios", "projection_eq", "spectral.projection", None),
    ("slowdrive.scenarios", "projection_leq", "spectral.projection", None),
    ("slowdrive.scenarios", "calculus_continuous", "spectral.projection", None),
)


class Tracer:
    """Collects spans; ``sweep`` opens the root span of one sweep."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._sweep = -1

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), self._sweep, name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def sweep(self):
        self._sweep += 1
        span = self._open("cli.main")
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str, counts=None):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_eigh(self, fn):
        def counted(*args, **kwargs):
            if self._stack:
                self._stack[-1].eigh_calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextmanager
def installed(tracer: Tracer):
    """Rebind every target to its traced wrapper; restore all on exit."""
    saved = []
    try:
        for module_name, attr, span_name, counts in TARGETS:
            module = import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, span_name, counts))
        saved.append((np.linalg, "eigh", np.linalg.eigh))
        np.linalg.eigh = tracer.count_eigh(np.linalg.eigh)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover
    (children of one span never overlap: the sweep runs on one thread)."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
    return {s.id: s.seconds - child_time.get(s.id, 0.0) for s in spans}
