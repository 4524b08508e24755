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
row-sparse kernel starts each row from a table of the lambdas of every
short prefix, then applies a gate position to a cache-sized chunk of rows at
once with one gather per term, in buffers it keeps from call to call; from
BLOCK_MIN_DIM up the block kernel updates one row's lambda in place, gate by
gate, through the placement's `BlockStep`, with no gathers and no
multiplies by 1.
"""
from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gates import PlacementTable, placement_operator
from .kron_apply import apply_block_step, apply_structured
from .linalg import identity, require_unitary

# working-set budget of row_sparse_correctness: its rows are scored this
# many bytes of lambda matrices at a time, and its prefix table holds at
# most this many
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

    The rows are taken a chunk of at most CHUNK_BYTES of matrices at a time,
    so a chunk's stack stays in cache while every gate position is applied
    to it.  Each row starts from the tabulated lambda of its first `depth`
    placement indices (see `RowSparseScratch`), one gather for the chunk,
    and `apply_positions` applies only its positions after those.  Each
    chunk's correctness is one `vecdot` with the goal, which equals
    `correctness`'s `vdot` bit for bit.

    The gathers clip instead of raising, which would make numpy buffer their
    output, so the indices they follow are checked first, on every call:
    each placement reads only rows of its own matrix, and each row holds
    placement indices of the table.
    """
    dim = goal.dim
    if table.cols.min() < 0 or table.cols.max() >= dim:
        raise IndexError(f"placement table reads outside the {dim} rows of a matrix")
    check_indices(indices, table)
    scratch = row_sparse_scratch(table)
    depth = min(scratch.depth, indices.shape[1])
    # a row shorter than the table's depth pads its prefix with wires (index 0)
    place = len(table) ** np.arange(scratch.depth - 1, scratch.depth - 1 - depth, -1)
    corr = np.empty(len(indices))
    goal_flat = goal.matrix.ravel()
    for start in range(0, len(indices), scratch.chunk):
        rows = indices[start:start + scratch.chunk]
        n = len(rows)
        np.take(scratch.prefixes, rows[:, :depth] @ place, axis=0, out=scratch.lams[0, :n],
                mode="clip")
        lam = apply_positions(rows[:, depth:], table, scratch)
        overlap = np.vecdot(goal_flat, lam.reshape(n, -1))
        corr[start:start + n] = np.hypot(overlap.real, overlap.imag) / dim
    return corr


def check_indices(indices: np.ndarray, table: PlacementTable) -> None:
    """Raise IndexError unless every placement index lies in [0, len(table))."""
    if indices.size and (indices.min() < 0 or indices.max() >= len(table)):
        raise IndexError(f"placement indices outside [0, {len(table)})")


def apply_positions(rows: np.ndarray, table: PlacementTable, scratch: RowSparseScratch) -> np.ndarray:
    """Apply the gate positions of `rows` in order to the matrices in `scratch.lams[0]`.

    Row r's matrix is `scratch.lams[0, r]`.  A position is one row-sparse
    product (see `PlacementTable`): term t of every output row is its weight
    times the input row it reads, one gather per term over the whole stack.
    Positions where every row holds the wire are skipped.  The products run
    in the three matrix buffers: the source and destination of a position,
    which swap after it, and the term being added.  Returns the view of the
    buffer that holds the products.  The indices are not checked here.
    """
    n = len(rows)
    lam, out, term = scratch.lams[:, :n]
    dim = lam.shape[-1]
    reads, weights = scratch.reads[:n], scratch.weights[:n]
    for j in np.flatnonzero(rows.any(axis=0)).tolist():
        gates = rows[:, j]
        # (row, output row, term): the flat input row read
        table.cols.take(gates, axis=0, out=reads, mode="clip")
        reads += scratch.first[:n]
        flat = lam.reshape(n * dim, dim)
        for t in range(int(table.width[gates].max())):
            dest = out if t == 0 else term
            flat.take(reads[..., t], axis=0, out=dest, mode="clip")
            scratch.spread[t].take(gates, axis=0, out=weights, mode="clip")
            # weight first: numpy's complex product is not bitwise commutative,
            # and the kernel multiplies gate entry times block
            np.multiply(weights, dest, out=dest)
            if t:
                out += term
        lam, out = out, lam
    return lam


class RowSparseScratch:
    """The row-sparse kernel's buffers and prefix table for one placement table.

    `lams` holds three stacks of `chunk` matrices (see `apply_positions`).
    `reads` takes a position's flat input rows for a chunk and `weights` a
    term's weights.  `first` is the flat row 0 of each matrix, repeated to
    the shape of `reads`, and `spread[t, i]` is term t's weights of placement
    i spread along the rows they scale, so that no sum or product broadcasts
    (numpy allocates an iteration buffer for every broadcast).  They are
    allocated once, and a chunk writes each part it reads first.

    `prefixes[k]` is the lambda of the `depth` placement indices whose digits
    in base N (the table's length) are k, wires included, built with
    `apply_positions` itself so that each entry is the lambda the kernel
    would build for that prefix.  `depth` is the largest whose N^depth
    matrices fit in CHUNK_BYTES: 6, 3, 2 and 1 for the default gates on one
    to four qubits, and 0 (the identity alone) from 32 x 32 up.

    `lams`, `weights` and `prefixes` are at most CHUNK_BYTES or one matrix
    each, and `reads` and `first` half that, so a scratch keeps at most
    6 x CHUNK_BYTES (1.5 MiB) plus the w x N matrices of `spread`: 1.3 to
    1.5 MiB in all for the default gates on one to four qubits.  The kernel
    keeps one per live placement table it has scored, built for the
    CHUNK_BYTES of that time.  It is not for concurrent use.
    """

    def __init__(self, table: PlacementTable):
        n, dim, width = table.cols.shape
        matrix = 16 * dim * dim
        self.budget = CHUNK_BYTES
        self.chunk = max(1, CHUNK_BYTES // matrix)
        self.lams = np.empty((3, self.chunk, dim, dim), dtype=complex)
        self.reads = np.empty((self.chunk, dim, width), dtype=np.intp)
        self.weights = np.empty((self.chunk, dim, dim), dtype=complex)
        self.first = np.repeat(np.arange(0, self.chunk * dim, dim), dim * width).reshape(
            self.chunk, dim, width)
        self.spread = np.repeat(np.moveaxis(table.vals, 2, 0)[..., None], dim, axis=3)
        self.depth = 0
        while n > 1 and n ** (self.depth + 1) * matrix <= CHUNK_BYTES:  # n = 1: the wire alone
            self.depth += 1
        sequences = np.indices((n,) * self.depth).reshape(self.depth, n ** self.depth).T
        self.lams[0, :len(sequences)] = identity(dim)
        self.prefixes = apply_positions(sequences, table, self).copy()


_SCRATCH: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def row_sparse_scratch(table: PlacementTable) -> RowSparseScratch:
    """The table's `RowSparseScratch`, built on first use or when CHUNK_BYTES changed."""
    scratch = _SCRATCH.get(table)
    if scratch is None or scratch.budget != CHUNK_BYTES:
        scratch = _SCRATCH[table] = RowSparseScratch(table)
    return scratch


def block_correctness(indices: np.ndarray, table: PlacementTable, goal: GoalSpec) -> np.ndarray:
    """Correctness of each row's circuit, its lambda updated in place gate by gate.

    Each gate is its placement's `BlockStep`: a diagonal gate scales only
    its blocks whose entry is not 1, a permutation gate is one gather of
    blocks, a dense gate adds its columns times blocks in the structured
    kernel's order, and the wire does nothing.  The lambda, its spare and a
    term buffer are one matrix each, allocated once per call, so a row's
    work stays in cache.  Each correctness is `correctness`'s `vdot` with
    the goal.  The indices are checked first, as the row-sparse kernel
    checks them: a negative one would otherwise wrap to the table's end.
    """
    check_indices(indices, table)
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
