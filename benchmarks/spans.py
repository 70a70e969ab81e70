"""Span recording around the public names one sumsetlab module calls in another.

Tracing works from outside the package: while a ``Recorder`` is installed,
each wrap point below is replaced in the *calling* module's namespace by a
wrapper that records a span (name, start, end, parent span), and the
original is put back on exit. Nothing under ``src/`` is edited. Spans stay
in memory and are summarised once, after the traced job has finished.

Span names are ``<layer>.<function>``, where the layer is the module that
does the work. A layer's self time is the duration of its spans minus the
part covered by their child spans.
"""

from __future__ import annotations

import importlib
import resource
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("cli", "sweep", "sets", "poly", "nullstellensatz", "audit", "field")

# calling module -> {public name looked up there: span name}
WRAP_POINTS = {
    "sumsetlab.cli": {
        "verify_main_theorem": "sweep.verify",
        "verify_karolyi_inverse": "sweep.verify",
        "verify_bounds": "sweep.verify",
        "report_to_json": "sweep.report_to_json",
    },
    "sumsetlab.sweep": {
        "canonical_pair": "sets.canonical_pair",
        "make_pair_record": "sweep.make_pair_record",
        "classify_pair": "sets.classify_pair",
        "is_arithmetic_progression": "sets.is_arithmetic_progression",
        "restricted_sumset": "sets.restricted_sumset",
    },
    "sumsetlab.audit": {
        "build_locus_poly": "poly.build_locus_poly",
        "cn_decompose": "nullstellensatz.cn_decompose",
        "verify_witness": "nullstellensatz.verify_witness",
        "sigma_expansion": "poly.sigma_expansion",
        "homogeneous_components": "poly.homogeneous_components",
        "elementary_symmetric": "poly.elementary_symmetric",
        "vanishing_polynomial": "poly.vanishing_polynomial",
        "cij": "poly.cij",
        "inverse_mod": "field.inverse_mod",
        "restricted_sumset": "sets.restricted_sumset",
    },
    "sumsetlab.poly": {
        "binomial_mod": "field.binomial_mod",
    },
}

# spans whose CPU time, pool workers included, is also recorded
CPU_SPANS = frozenset({"sweep.verify"})


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Recorder:
    """In-memory spans of one traced job."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.cpu_s: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        cpu0 = _cpu_seconds() if name in CPU_SPANS else None
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            if cpu0 is not None:
                self.cpu_s[name] = self.cpu_s.get(name, 0.0) + _cpu_seconds() - cpu0
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def wrap(self, name: str, fn):
        span = self.span

        def traced(*args, **kwargs):
            with span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Patch every wrap point for the duration of the block."""
        saved = []
        try:
            for module_name, names in WRAP_POINTS.items():
                module = importlib.import_module(module_name)
                for attr, span_name in names.items():
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(span_name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict:
        """Calls and busy seconds per span name, and self seconds per layer."""
        spans = self.spans
        if any(s is None for s in spans):
            raise RuntimeError("summary taken while a span is still open")
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_s = {layer: 0.0 for layer in LAYERS}
        for idx, (name, start, end, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)
            self_s[name.split(".", 1)[0]] += (end - start) - child_s[idx]
        return {"calls": calls, "busy_s": busy, "self_s": self_s, "cpu_s": dict(self.cpu_s)}
