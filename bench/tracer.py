"""Outside-in tracer for the rmtorus layers.

The tracer wraps public functions of the package without touching its source.
A module that imported a function holds its own reference to it, so the
wrapper replaces every module attribute that *is* the original function: the
defining module, each importer (``rmtorus.core.theta_constant``,
``rmtorus.groebner.relations``, ...), the package namespace, and the function
references held in ``rmtorus.cli._NORMALIZERS``.  ``modsym`` imports
``kernel_pivots`` at call time from ``rmtorus.presentation``, which is patched
like any other module attribute.  ``rmtorus.theta`` is reached through
``sys.modules`` because the package attribute of that name is the function
``theta``, not the module.

Each call records a span ``[name, start, end, parent]``; exceptions are
counted per boundary and re-raised.  Every original is restored on exit.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: Layer boundaries as (module, function); module names are under ``rmtorus``.
BOUNDARIES = (
    ("theta", "theta_constant"),
    ("core", "block_M"),
    ("presentation", "relations"),
    ("presentation", "kernel_basis"),
    ("presentation", "kernel_pivots"),
    ("presentation", "normalize_rational"),
    ("presentation", "normalize_modular"),
    ("presentation", "monic_ordered"),
    ("presentation", "presentation_json"),
    ("groebner", "state_for"),
    ("groebner", "complete_to_degree"),
    ("groebner", "normal_form"),
    ("groebner", "linear_basis"),
    ("modsym", "averaged_relations"),
    ("modsym", "relation_values"),
    ("modsym", "integrate_geodesic"),
    ("modsym", "averaged_json"),
    ("geometry", "omega_matrix"),
    ("geometry", "minor_equations"),
    ("geometry", "minors_json"),
    ("cli", "main"),
)

BOUNDARY_NAMES = tuple(f"{mod}.{fn}" for mod, fn in BOUNDARIES)


class Tracer:
    """Spans and result observers for the boundaries in :data:`BOUNDARIES`.

    ``observers`` maps a boundary name to ``f(result, counts)``, called after
    each successful call so work counts are taken where the work happens.
    """

    def __init__(self, observers=None) -> None:
        self.observers = dict(observers or {})
        self.spans: list[list] = []
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn):
        observe = self.observers.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result, self.counts)
            return result

        return traced

    def _patch(self, container, key, value, is_mapping: bool) -> None:
        original = container[key] if is_mapping else getattr(container, key)
        self._patches.append((container, key, original, is_mapping))
        if is_mapping:
            container[key] = value
        else:
            setattr(container, key, value)

    @contextmanager
    def installed(self):
        """Patch every boundary for the duration of the block."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rmtorus" or n.startswith("rmtorus."))]
        normalizers = sys.modules["rmtorus.cli"]._NORMALIZERS
        try:
            for mod, fn in BOUNDARIES:
                original = getattr(sys.modules[f"rmtorus.{mod}"], fn)
                wrapped = self._wrap(f"{mod}.{fn}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapped, False)
                for key, value in list(normalizers.items()):
                    if value is original:
                        self._patch(normalizers, key, wrapped, True)
            yield self
        finally:
            while self._patches:
                container, key, original, is_mapping = self._patches.pop()
                if is_mapping:
                    container[key] = original
                else:
                    setattr(container, key, original)

    def layer_metrics(self) -> dict[str, float]:
        """``<boundary>.{calls,self_s,errors}`` for every boundary."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += (end - start) - inner
        out: dict[str, float] = {}
        for name in BOUNDARY_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.errors"] = self.errors[name]
        return out
