"""Circuit evaluation: realized unitary, correctness, cost and fitness.

Fitness is minimized:

    award * (allcost - satcost) + punish * (1 - correctness)

so a correct circuit below the satisfying cost scores negative, and an
incorrect one pays `punish` per unit of error.  No clamping is applied;
with a small `punish` a cheap wrong circuit can legitimately out-score a
correct one (that failure mode is real, not a bug).

`evaluate_circuit` scores one circuit given as placements;
`evaluate_batch` scores a stack of circuits given as placement indices and
gives bit-identical results, because each matrix of the stack goes through
the same kernel operations in the same order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gates import PlacementTable, placement_operator
from .kron_apply import apply_structured
from .linalg import MulCounter, identity, is_unitary


@dataclass(frozen=True, eq=False)
class GoalSpec:
    """Target unitary on num_qubits qubits, optionally with its known optimal cost."""

    num_qubits: int
    matrix: np.ndarray
    optimal_cost: int | None = None
    name: str = ""

    def __post_init__(self):
        dim = 1 << self.num_qubits
        if self.matrix.shape != (dim, dim):
            raise ValueError(
                f"goal on {self.num_qubits} qubits must be {dim}x{dim}, got {self.matrix.shape}"
            )
        if not is_unitary(self.matrix, 1e-10):
            dev = np.abs(self.matrix.conj().T @ self.matrix - np.eye(dim)).max()
            raise ValueError(f"goal matrix is not unitary (max deviation {dev:.3e})")

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


@dataclass(frozen=True)
class FitnessParams:
    satcost: int
    award: float = 1.0
    punish: float = 20.0
    eps: float = 1e-6

    def __post_init__(self):
        if self.satcost < 0:
            raise ValueError("satcost must be non-negative")
        if self.award < 0 or self.punish < 0:
            raise ValueError("award and punish must be non-negative")
        if self.award == 0 and self.punish == 0:
            raise ValueError("award and punish must not both be zero")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


class Score(NamedTuple):
    """The scalar part of an evaluation, without lambda."""

    fitness: float
    correctness: float
    allcost: int


@dataclass(frozen=True, eq=False)
class EvalResult:
    lambda_matrix: np.ndarray
    correctness: float
    allcost: int
    fitness: float


def circuit_unitary(circuit, m: int, counter: MulCounter | None = None) -> np.ndarray:
    """Ordered product of the embedded gate matrices; wires contribute nothing."""
    u = identity(1 << m)
    for p in circuit:
        if p.is_wire:
            continue
        u = apply_structured(placement_operator(p, m), u, counter=counter, skip_zeros=True)
    return u


def correctness(lam: np.ndarray, goal: GoalSpec) -> float:
    """|tr(G^dag lam)| / 2^m: 1 iff lam equals the goal up to global phase."""
    if lam.shape != goal.matrix.shape:
        raise ValueError(f"dimension mismatch: {lam.shape} vs {goal.matrix.shape}")
    return float(abs(np.vdot(goal.matrix, lam))) / goal.dim


def allcost(circuit) -> int:
    return sum(p.cost for p in circuit)


def fitness_value(cost: int, corr: float, params: FitnessParams) -> float:
    return params.award * (cost - params.satcost) + params.punish * (1.0 - corr)


def evaluate_circuit(
    circuit, goal: GoalSpec, params: FitnessParams, counter: MulCounter | None = None
) -> EvalResult:
    lam = circuit_unitary(circuit, goal.num_qubits, counter=counter)
    corr = correctness(lam, goal)
    cost = allcost(circuit)
    return EvalResult(lam, corr, cost, fitness_value(cost, corr, params))


def evaluate_batch(
    indices: np.ndarray, table: PlacementTable, goal: GoalSpec, params: FitnessParams
) -> tuple[np.ndarray, list[Score]]:
    """Lambda stack and scores of the circuits given as rows of placement indices.

    Gate position by gate position, every placement index present in the
    column is applied to the rows that hold it; wires (index 0) are skipped.
    """
    lams = np.tile(identity(goal.dim), (len(indices), 1, 1))
    for column in indices.T:
        for idx in np.unique(column[column != 0]):
            rows = np.flatnonzero(column == idx)
            lams[rows] = apply_structured(table.operators[idx], lams[rows], skip_zeros=True)
    costs = table.costs[indices].sum(axis=1).tolist()
    scores = []
    for lam, cost in zip(lams, costs):
        corr = correctness(lam, goal)
        scores.append(Score(fitness_value(cost, corr, params), corr, cost))
    return lams, scores


def is_success(result: EvalResult | Score, params: FitnessParams) -> bool:
    """Correct within eps and at or below the satisfying cost."""
    return result.correctness >= 1.0 - params.eps and result.allcost <= params.satcost
