"""Exhaustive minimal-cost circuit search, used as an independent verifier.

Enumerates all gate sequences up to a length budget (wires excluded: they
change neither the unitary nor the cost) and reports the cheapest circuit
matching the goal up to global phase.  Cost-based pruning is admissible
because gate costs are non-negative; disable it when asserting the exact
node count.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .evaluate import GoalSpec
from .gates import GateSet
from .kron_apply import apply_structured
from .linalg import identity


@dataclass
class SearchReport:
    min_cost: int | None
    witness: list | None
    circuits_examined: int

    def to_json(self) -> dict:
        return {
            "min_cost": self.min_cost,
            "witness": None if self.witness is None
            else [{"gate": p.name, "top": p.top} for p in self.witness],
            "circuits_examined": self.circuits_examined,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def node_count(n_gates: int, max_gates: int) -> int:
    """Sequences of length 0..max_gates over n_gates non-wire placements."""
    return sum(n_gates ** d for d in range(max_gates + 1))


def min_cost_search(
    goal: GoalSpec,
    max_gates: int,
    gs: GateSet,
    eps: float = 1e-6,
    budget: int = 10 ** 8,
    prune: bool = True,
) -> SearchReport:
    table = gs.table(goal.num_qubits)
    ops = list(zip(table.cases[1:], table.operators[1:]))  # index 0 is the wire
    total = node_count(len(ops), max_gates)
    if total > budget:
        raise ValueError(f"search would examine {total} circuits, over the budget of {budget}")

    goal_conj = goal.matrix.conj()
    dim = goal.dim
    threshold = 1.0 - eps

    best_cost: int | None = None
    witness: list | None = None
    examined = 0

    def visit(u: np.ndarray, cost: int, seq: list, depth: int):
        nonlocal best_cost, witness, examined
        examined += 1
        corr = abs(np.sum(goal_conj * u)) / dim
        if corr >= threshold and (best_cost is None or cost < best_cost):
            best_cost = cost
            witness = list(seq)
        if depth == max_gates:
            return
        for p, op in ops:
            if prune and best_cost is not None and cost + p.cost >= best_cost:
                continue
            seq.append(p)
            visit(apply_structured(op, u, skip_zeros=True), cost + p.cost, seq, depth + 1)
            seq.pop()

    visit(identity(dim), 0, [], 0)
    return SearchReport(min_cost=best_cost, witness=witness, circuits_examined=examined)
