"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of each ``nhcool`` layer at every
module binding that refers to them.  Layers import each other's functions by
name (``steady.build_rate_matrix``, ``dynamics.build_hopping_matrix``,
``cli.make_uniform_chain``, ...), so wrapping only the package attributes
would miss the calls one layer makes into another.  Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass

# Layer-qualified names of the wrapped functions.  The model functions that
# build arrays also report the computed size of what they return.
TRACED = (
    "model.build_rate_matrix",
    "model.build_hopping_matrix",
    "model.make_uniform_chain",
    "model.chain_from_config",
    "steady.solve_steady_chain",
    "steady.solve_steady_rates",
    "steady.solve_with_attached",
    "steady.closed_form_two_mode",
    "spectral.diagonalize",
    "spectral.spectral_occupations",
    "dynamics.steady_from_dynamics",
    "dynamics.evolve_covariance",
    "dynamics.single_excitation_trace",
    "oracle.oracle_steady",
    "oracle.evolve_master_equation",
    "cli.main",
)

# Modules whose namespaces may hold a binding of a traced function.
BINDING_MODULES = (
    "nhcool", "nhcool.model", "nhcool.steady", "nhcool.spectral",
    "nhcool.dynamics", "nhcool.oracle", "nhcool.cli",
)


def _result_nbytes(result) -> int:
    for attr in ("rates", "matrix"):
        array = getattr(result, attr, None)
        if array is not None:
            return int(array.nbytes)
    return 0


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int
    nbytes: int = 0


class Recorder:
    """Collects spans; ``pass_id`` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        measure_bytes = name.startswith("model.build_")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(self.spans), name, 0.0, 0.0,
                        self._stack[-1] if self._stack else None, self.pass_id)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if measure_bytes:
                span.nbytes = _result_nbytes(result)
            return result

        return traced

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class Patched:
    """Context manager that swaps every binding of a traced function for its wrapper."""

    def __init__(self, recorder: Recorder, modules: dict):
        self.recorder = recorder
        self.modules = modules  # dotted name -> module object
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        wrappers = {}  # id of the original function -> wrapper
        for qual in TRACED:
            layer, func = qual.split(".")
            fn = getattr(self.modules["nhcool." + layer], func)
            wrappers[id(fn)] = self.recorder.wrap(qual, fn)
        for mod_name in BINDING_MODULES:
            module = self.modules[mod_name]
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()
        return False


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it covered by the span's children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def per_pass_totals(spans: list[Span]) -> dict[int, dict[str, dict[str, float]]]:
    """``{pass_id: {name: {"self_s", "calls", "nbytes"}}}`` summed over each pass."""
    own = self_times(spans)
    out: dict[int, dict[str, dict[str, float]]] = {}
    for s in spans:
        row = out.setdefault(s.pass_id, {}).setdefault(
            s.name, {"self_s": 0.0, "calls": 0, "nbytes": 0})
        row["self_s"] += own[s.id]
        row["calls"] += 1
        row["nbytes"] += s.nbytes
    return out
