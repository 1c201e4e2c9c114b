"""Span tracing of ctcsim's public functions, from outside the program.

`Tracer.install` rebinds each traced name in every loaded ``ctcsim`` module
that holds it (the package namespace and each module that imported it), so
internal calls such as protocol -> ctc_evolve -> induced_superoperator nest
the same way as calls from the benchmark.  Spans live in memory and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# module -> traced public functions, named "<module>.<function>" in metrics
LAYERS = {
    "qmat": ("validate", "require_unitary", "require_density",
             "trace_distance", "partial_trace", "mutual_information"),
    "circuit": ("compile_unitary",),
    "ctc": ("induced_superoperator", "fixed_point_exact",
            "fixed_point_cesaro", "evolve_given_ctc_state", "ctc_evolve"),
    "oracle": ("fixed_point_bruteforce",),
    "protocol": ("run_discrimination", "simulate_without_ctc",
                 "run_superposition", "run_computation_mixture"),
    "cli": ("main",),
}

# Layers that every workload calls.  Only these report self time in seconds:
# a layer a workload never calls would print a time of exactly 0 on every
# run, which cannot be told apart from a hard-coded value.  Every layer
# reports its share of the traced wall time.
TIMED_LAYERS = ("qmat", "circuit", "ctc",
                "qmat.validate", "qmat.require_unitary", "qmat.require_density",
                "qmat.trace_distance", "qmat.partial_trace",
                "circuit.compile_unitary",
                "ctc.induced_superoperator", "ctc.fixed_point_exact",
                "ctc.evolve_given_ctc_state", "ctc.ctc_evolve")

OP = "op"   # root span of one benchmark op


def layer_names() -> list[str]:
    return list(LAYERS) + [f"{m}.{f}" for m, fs in LAYERS.items() for f in fs]


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for name in layer_names():
        units[f"{name}.calls"] = "count"
        if name in TIMED_LAYERS:
            units[f"{name}.self_s"] = "s"
        units[f"{name}.share"] = "frac"
    units["ctc.fixed_point_exact.degenerate_frac"] = "frac"
    units["circuit.compile_unitary.calls_per_circuit"] = "calls/circuit"
    units["oracle.converged_ratio"] = "frac"
    units["trace.overhead_frac"] = "frac"
    return units


class Tracer:
    """Records [op, parent, name, start, end] spans while `op` is >= 0."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.solves = Counter()        # fixed_point_exact results by degeneracy
        self.oracle = Counter()        # converged and attempted oracle starts
        self.circuits: dict[int, object] = {}   # compiled circuits, by id
        self.compiles = 0

    def _span(self, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        record = [self.op, parent, name, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def run_op(self, k: int, fn, *args):
        self.op = k
        try:
            return self._span(OP, fn, args, {})
        finally:
            self.op = -1

    def _observe(self, name, args, result) -> None:
        if name == "ctc.fixed_point_exact":
            self.solves["degenerate" if result.fixed_space_dim > 1 else "unique"] += 1
        elif name == "oracle.fixed_point_bruteforce":
            self.oracle["converged"] += result.converged
            self.oracle["trials"] += result.trials
        elif name == "circuit.compile_unitary":
            # holding the circuit keeps its id from being reused
            self.circuits[id(args[0])] = args[0]
            self.compiles += 1

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            result = self._span(name, fn, args, kwargs)
            self._observe(name, args, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "ctcsim" or n.startswith("ctcsim.")]
        for layer, functions in LAYERS.items():
            home = sys.modules.get(f"ctcsim.{layer}")
            if home is None:
                continue
            for fname in functions:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if getattr(module, fname, None) is original:
                        setattr(module, fname, wrapped)
                        self._undo.append((module, fname, original))

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._undo):
            setattr(module, fname, original)
        self._undo.clear()

    def self_times(self) -> tuple[dict[str, float], Counter, float]:
        """Self time and calls per span name, and the traced op wall time."""
        child = [0.0] * len(self.spans)
        for op, parent, name, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        calls = Counter()
        wall = 0.0
        for i, (op, parent, name, start, end) in enumerate(self.spans):
            own[name] += end - start - child[i]
            calls[name] += 1
            if name == OP:
                wall += end - start
        return own, calls, wall

    def metrics(self, overhead: float) -> dict[str, float]:
        own, calls, wall = self.self_times()
        values = {}
        for layer, functions in LAYERS.items():
            names = [f"{layer}.{f}" for f in functions]
            for name, members in [(layer, names)] + [(n, [n]) for n in names]:
                values[f"{name}.calls"] = sum(calls[m] for m in members)
                self_s = sum(own[m] for m in members)
                if name in TIMED_LAYERS:
                    values[f"{name}.self_s"] = self_s
                values[f"{name}.share"] = self_s / wall if wall else 0.0
        solves = sum(self.solves.values())
        values["ctc.fixed_point_exact.degenerate_frac"] = (
            self.solves["degenerate"] / solves if solves else 0.0)
        values["circuit.compile_unitary.calls_per_circuit"] = (
            self.compiles / len(self.circuits) if self.circuits else 0.0)
        values["oracle.converged_ratio"] = (
            self.oracle["converged"] / self.oracle["trials"]
            if self.oracle["trials"] else 0.0)
        values["trace.overhead_frac"] = overhead
        return values

    def ranking(self) -> list[list]:
        """Traced functions by self time, largest first, as [name, seconds]."""
        own, _, _ = self.self_times()
        ranked = sorted(((n, t) for n, t in own.items() if n != OP),
                        key=lambda item: -item[1])
        return [[n, t] for n, t in ranked]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "parent", "name", "start_s", "end_s"],
                       "spans": self.spans}, fh)
