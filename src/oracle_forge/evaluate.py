"""Circuit evaluation: realized unitary, correctness, cost and fitness.

Fitness is minimized:

    award * (allcost - satcost) + punish * (1 - correctness)

so a correct circuit below the satisfying cost scores negative, and an
incorrect one pays `punish` per unit of error.  No clamping is applied;
with a small `punish` a cheap wrong circuit can legitimately out-score a
correct one (that failure mode is real, not a bug).

`evaluate_circuit` scores one circuit given as placements with the
structured kernel.  `evaluate_batch` scores a stack of circuits given as
rows of placement indices and returns score arrays bit-identical to it,
because each matrix entry is summed from the same terms in the same order
and each score from the same operations.  It builds the lambdas with one of
two kernels, picked by the matrix size alone: below BLOCK_MIN_DIM the
row-sparse kernel applies a gate position to a cache-sized chunk of rows at
once with one gather per term; from BLOCK_MIN_DIM up the block kernel
updates one row's lambda in place, gate by gate, through the placement's
`BlockStep`, with no gathers and no multiplies by 1.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gates import PlacementTable, placement_operator
from .kron_apply import apply_block_step, apply_structured
from .linalg import identity, require_unitary

# working-set budget of row_sparse_correctness: its rows are scored this
# many bytes of lambda matrices at a time
CHUNK_BYTES = 1 << 18
# evaluate_batch builds lambdas of this dimension and up with the block
# kernel and smaller ones with the row-sparse kernel.  Measured crossover, as
# block-kernel speed over row-sparse speed on 300-3,000 random 8-gate rows of
# the default gates: 0.14x at dim 8, 0.37-0.48x at 16, 1.05-1.28x at 32,
# 1.97-2.08x at 64 and 1.76-2.06x at 128; in evolve on a 5-qubit GHZ goal
# (dim 32) the block kernel won 10 of 10 rounds, by 1.2x in the median
BLOCK_MIN_DIM = 32


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
        require_unitary(self.matrix, "goal matrix")

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


def circuit_unitary(circuit, m: int) -> np.ndarray:
    """Ordered product of the embedded gate matrices; wires contribute nothing."""
    u = identity(1 << m)
    for p in circuit:
        if p.is_wire:
            continue
        u = apply_structured(placement_operator(p, m), u)
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


def evaluate_circuit(circuit, goal: GoalSpec, params: FitnessParams) -> EvalResult:
    lam = circuit_unitary(circuit, goal.num_qubits)
    corr = correctness(lam, goal)
    cost = allcost(circuit)
    return EvalResult(lam, corr, cost, fitness_value(cost, corr, params))


def evaluate_batch(
    indices: np.ndarray, table: PlacementTable, goal: GoalSpec, params: FitnessParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fitness, correctness and cost arrays of the circuits given as rows of placement indices.

    Each row's lambda is built by one of two kernels, chosen by the matrix
    size alone: `block_correctness` from BLOCK_MIN_DIM up,
    `row_sparse_correctness` below.  Both sum every matrix entry from the
    terms of the structured kernel in its order, so each lambda equals
    `evaluate_circuit`'s bit for bit (only the sign of an exact zero can
    differ, and no score sees it), and both give correctness as `hypot` of
    the overlap with the goal, which equals `correctness`'s `abs` bit for
    bit.  The fitness is `fitness_value` of the arrays.  So the
    scores equal `evaluate_circuit`'s exactly.  Cost is int64.
    """
    kernel = block_correctness if goal.dim >= BLOCK_MIN_DIM else row_sparse_correctness
    corr = kernel(indices, table, goal)
    cost = table.costs[indices].sum(axis=1)
    return fitness_value(cost, corr, params), corr, cost


def row_sparse_correctness(indices: np.ndarray, table: PlacementTable, goal: GoalSpec) -> np.ndarray:
    """Correctness of each row's circuit, a whole chunk of rows per product.

    The rows are taken CHUNK_BYTES of matrices at a time, so a chunk's stack
    stays in cache while every gate position is applied to it.  A position
    is one row-sparse product (see `PlacementTable`): term t of every output
    row is its weight times the input row it reads, one gather per term over
    the whole chunk.  Positions where every row holds the wire are skipped.
    The products run in three buffers allocated once per call: the source
    and destination of a position, which swap after it, and the term being
    added.  Each chunk's correctness is one `vecdot` with the goal, which
    equals `correctness`'s `vdot` bit for bit.
    """
    dim = goal.dim
    chunk = max(1, CHUNK_BYTES // (16 * dim * dim))
    corr = np.empty(len(indices))
    goal_flat = goal.matrix.ravel()
    size = min(chunk, len(indices)) * dim
    buffers = [np.empty((size, dim), dtype=complex) for _ in range(3)]
    eye = identity(dim)
    for start in range(0, len(indices), chunk):
        rows = indices[start:start + chunk]
        n = len(rows)
        lam, out, term = (buf[:n * dim] for buf in buffers)
        term = term.reshape(n, dim, dim)
        lam.reshape(n, dim, dim)[:] = eye
        gates = rows[:, rows.any(axis=0)].T  # the positions with a gate in some row
        # (position, row of the chunk, output row, term): the flat input row read
        first = np.arange(0, n * dim, dim)[:, None, None]  # flat row 0 of each matrix
        reads = np.take(table.cols, gates, axis=0) + first
        # the gathers clip instead of raising, which would buffer their output
        if reads.size and (reads.min() < 0 or reads.max() >= n * dim):
            raise IndexError(f"placement table reads outside the {n * dim} rows of a chunk")
        weights = np.take(table.vals, gates, axis=0)
        for read, weight, terms in zip(reads, weights, table.width[gates].max(axis=1).tolist()):
            prod = out.reshape(n, dim, dim)
            # weight first: numpy's complex product is not bitwise commutative,
            # and the kernel multiplies gate entry times block
            np.take(lam, read[..., 0], axis=0, out=prod, mode="clip")
            np.multiply(weight[..., 0, None], prod, out=prod)
            for t in range(1, terms):
                np.take(lam, read[..., t], axis=0, out=term, mode="clip")
                np.multiply(weight[..., t, None], term, out=term)
                prod += term
            lam, out = out, lam
        overlap = np.vecdot(goal_flat, lam.reshape(n, -1))
        corr[start:start + n] = np.hypot(overlap.real, overlap.imag) / dim
    return corr


def block_correctness(indices: np.ndarray, table: PlacementTable, goal: GoalSpec) -> np.ndarray:
    """Correctness of each row's circuit, its lambda updated in place gate by gate.

    Each gate is its placement's `BlockStep`: a diagonal gate scales only
    its blocks whose entry is not 1, a permutation gate is one gather of
    blocks, a dense gate adds its columns times blocks in the structured
    kernel's order, and the wire does nothing.  The lambda, its spare and a
    term buffer are one matrix each, allocated once per call, so a row's
    work stays in cache.  Each correctness is `correctness`'s `vdot` with
    the goal.
    """
    dim = goal.dim
    lam, spare, term = np.empty((3, dim, dim), dtype=complex)
    overlap = np.empty(len(indices), dtype=complex)
    eye = identity(dim)
    steps = table.steps
    for r, row in enumerate(indices.tolist()):
        lam[:] = eye
        for i in row:
            lam, spare = apply_block_step(steps[i], lam, spare, term)
        overlap[r] = np.vdot(goal.matrix, lam)
    return np.hypot(overlap.real, overlap.imag) / dim


def is_success(result: EvalResult | Score, params: FitnessParams) -> bool:
    """Correct within eps and at or below the satisfying cost."""
    return result.correctness >= 1.0 - params.eps and result.allcost <= params.satcost
