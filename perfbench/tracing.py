"""Per-layer tracing from outside the program.

`Tracer.installed` wraps the library's public functions at the name each
caller binds (`from .x import y` makes that the caller's module attribute)
and records one span per call: name, start, end, parent span and run id.
Spans live in flat arrays and are written once, by `save`.  A layer's self
time is the duration of its spans minus the part their child spans cover.
"""
from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np

from oracle_forge import brute, engine, evaluate, gates, targets

# (module or class, attribute, span name); the span name's prefix is the layer
WRAPPED = (
    (engine, "evolve", "engine.evolve"),
    (engine, "init_population", "engine.init_population"),
    (engine, "rotate_toward", "engine.rotate_toward"),
    (engine, "decode", "codec.decode"),
    (engine, "evaluate_circuit", "evaluate.evaluate_circuit"),
    (evaluate, "circuit_unitary", "evaluate.circuit_unitary"),
    (evaluate, "correctness", "evaluate.correctness"),
    (evaluate, "apply_structured", "kron_apply.evaluate"),
    (brute, "min_cost_search", "brute.min_cost_search"),
    (brute, "apply_structured", "kron_apply.brute"),
    (gates.GateSet, "cases", "gates.cases"),
    (targets, "builtin", "targets.builtin"),
)
LAYERS = ("bench", "engine", "codec", "gates", "evaluate", "kron_apply", "brute", "targets")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.code = array("h")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.runs = array("q")
        self.run = 0
        self.mults = {"kron_apply.evaluate": 0, "kron_apply.brute": 0}
        self.distinct: dict[int, set] = {}
        self._stack = [-1]

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, code: int) -> int:
        i = len(self.start)
        self.code.append(code)
        self.parent.append(self._stack[-1])
        self.runs.append(self.run)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn, after=None):
        code = self._code(name)

        def traced(*args, **kwargs):
            i = self._open(code)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)
                if after is not None:
                    after(args)

        return traced

    def _count_mults(self, name):
        def after(args):
            op = args[0]  # apply_structured(op, b, ..., skip_zeros=True)
            self.mults[name] += int(np.count_nonzero(op.gate)) * op.m * op.m * op.n * op.k * op.k
        return after

    def _count_distinct(self, args):
        key = tuple((p.name, p.top) for p in args[0] if not p.is_wire)
        self.distinct.setdefault(self.run, set()).add(key)

    @contextmanager
    def installed(self):
        """Wrap every boundary in WRAPPED for the duration of the block."""
        hooks = {
            "kron_apply.evaluate": self._count_mults("kron_apply.evaluate"),
            "kron_apply.brute": self._count_mults("kron_apply.brute"),
            "evaluate.evaluate_circuit": self._count_distinct,
        }
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in WRAPPED]
        try:
            for owner, attr, name in WRAPPED:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), hooks.get(name)))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        i = self._open(self._code(name))
        try:
            yield
        finally:
            self._close(i)

    def arrays(self) -> dict:
        return {
            "code": np.frombuffer(self.code, dtype=np.int16),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "run": np.frombuffer(self.runs, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def by_name(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(float) / 1e9
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        own = dur - covered
        n = len(self.names)
        calls = np.bincount(a["code"], minlength=n)
        total = np.bincount(a["code"], weights=dur, minlength=n)
        self_s = np.bincount(a["code"], weights=own, minlength=n)
        return {name: (int(calls[c]), float(total[c]), float(self_s[c]))
                for c, name in enumerate(self.names)}
