"""Span tracer that wraps primelattice's public functions from outside.

`Tracer.install` replaces each name in SPANS with a timing wrapper in every
primelattice module that holds it (a module that did `from .x import f`
holds its own reference, so patching only the defining module would miss
those calls), and wraps each listed class's `__init__`. Every span is
(name, start, end, parent); when a span closes its duration is added to its
name's total and to its parent's child time, so self time is the duration
minus the part that nested spans cover. Spans are folded into per-name
totals as they close instead of being stored, because the landau workload
opens millions of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# Layer (package module) -> wrapped public names; "Cls.init" is a constructor.
LAYERS = {
    "factorization": ("factorize", "is_prime", "primes_up_to", "Factorization.init"),
    "lattice": ("align", "meet", "join", "PrimeSupport.init", "ExponentVector.init"),
    "gcdlcm": ("gcd_lcm_set", "GcdLcmResult.init"),
    "landau": (
        "asymptotic_table", "landau_dp", "landau_bruteforce", "partitions",
        "Partition.init", "LandauRecord.init",
    ),
    "permutation": ("cycle_decompose", "order", "CycleDecomposition.init"),
    "cli": ("run", "build_parser"),
}
SPANS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

# An input with at least two prime factors (with multiplicity) above this
# cannot be finished by trial division, so factorize hands it to rho.
RHO_FLOOR = 10**6
RHO_COUNTER = "factorization.factorize.rho_inputs"


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total_ns, self_ns]
        self.stats = {name: [0, 0, 0] for name in SPANS}
        self.counts = {RHO_COUNTER: 0}
        self.missing: list[str] = []
        self._stack: list[list[int]] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"primelattice.{layer}") for layer in LAYERS]
        holders = [m for name, m in sys.modules.items()
                   if name == "primelattice" or name.startswith("primelattice.")]
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name in LAYERS[layer]:
                span = f"{layer}.{name}"
                if name.endswith(".init"):
                    cls = getattr(module, name[: -len(".init")], None)
                    if cls is None:
                        self.missing.append(span)
                        continue
                    self._patch(cls, "__init__", self._wrap(span, cls.__init__))
                    continue
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(span)
                    continue
                wrapper = self._wrap(span, original)
                if span == "factorization.factorize":
                    wrapper = self._count_rho(wrapper)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def merge(self, other: dict) -> None:
        """Add another tracer's `report()` (e.g. from a child process)."""
        for name, values in other["stats"].items():
            mine = self.stats[name]
            for i, v in enumerate(values):
                mine[i] += v
        for name, v in other["counts"].items():
            self.counts[name] += v
        self.missing = sorted(set(self.missing) | set(other["missing"]))

    def report(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "missing": self.missing}

    def _patch(self, obj: object, attr: str, value: object) -> None:
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _close(self, stat: list[int], start: int, frame: list[int]) -> None:
        duration = time.perf_counter_ns() - start
        stack = self._stack
        stack.pop()
        stat[1] += duration
        stat[2] += duration - frame[0]
        if stack:
            stack[-1][0] += duration

    def _wrap(self, span: str, fn):
        stat = self.stats[span]
        stack = self._stack
        close = self._close
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(fn):
            # One call, but a span per step: the work happens while iterating.
            @functools.wraps(fn)
            def traced_steps(*args, **kwargs):
                stat[0] += 1
                steps = fn(*args, **kwargs)
                while True:
                    frame = [0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(steps)
                    except StopIteration:
                        return
                    finally:
                        close(stat, start, frame)
                    yield item

            return traced_steps

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(stat, start, frame)

        return traced

    def _count_rho(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if sum(e for p, e in result.entries if p > RHO_FLOOR) >= 2:
                counts[RHO_COUNTER] += 1
            return result

        return counted
