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
BLOCK_MIN_DIM up the block kernel builds each row's head, its positions
before its second placement of width > 1, sparsely for a chunk of rows at
once (a head's lambda has at most w nonzeros a row, w the table's widest
row), scatters it into a dense lambda and applies the rest of the row in
place, gate by gate, through the placements' `BlockStep`s.
"""
from __future__ import annotations

import math
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
# block-kernel speed over row-sparse speed on 300 random 8-gate rows of the
# default gates (three row sets, best of seven calls each), with the sparse
# head: 0.27-0.33x at dim 8, 0.94-0.99x at 16, 2.6-3.1x at 32 and 3.7-4.3x
# at 64; in evolve on a 4-qubit GHZ goal (dim 16, 40 generations) the block
# kernel lost 7 of 7 rounds, at 0.87x in the median, so the crossover stays
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
        if self.optimal_cost is not None and self.optimal_cost < 0:
            raise ValueError(f"goal optimal_cost must be non-negative, got {self.optimal_cost}")

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits


def require_eps(eps: float) -> None:
    """A success tolerance must leave the threshold 1 - eps in (0, 1)."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if not eps < 1:
        raise ValueError(f"eps must be below 1, got {eps}")


@dataclass(frozen=True)
class FitnessParams:
    satcost: int
    award: float = 1.0
    punish: float = 20.0
    eps: float = 1e-6

    def __post_init__(self):
        if self.satcost < 0:
            raise ValueError("satcost must be non-negative")
        if not (math.isfinite(self.award) and math.isfinite(self.punish)):
            raise ValueError("award and punish must be finite")
        if self.award < 0 or self.punish < 0:
            raise ValueError("award and punish must be non-negative")
        if self.award == 0 and self.punish == 0:
            raise ValueError("award and punish must not both be zero")
        require_eps(self.eps)


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
    terms of the structured kernel in its order, less some terms that are
    exact zeros, so each lambda equals `evaluate_circuit`'s bit for bit
    (only the sign of an exact zero can differ, and no score sees it), and
    both give correctness as `hypot` of the overlap with the goal, which
    equals `correctness`'s `abs` bit for bit.  The fitness is `fitness_value` of the arrays.  So the
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
    check_reads(table, dim)
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


def kernel_scratch(kind: type, table: PlacementTable):
    """The table's scratch of class `kind`, built on first use or when CHUNK_BYTES changed."""
    kept = _SCRATCH.setdefault(table, {})
    scratch = kept.get(kind)
    if scratch is None or scratch.budget != CHUNK_BYTES:
        scratch = kept[kind] = kind(table)
    return scratch


def row_sparse_scratch(table: PlacementTable) -> RowSparseScratch:
    """The table's `RowSparseScratch`."""
    return kernel_scratch(RowSparseScratch, table)


def block_correctness(indices: np.ndarray, table: PlacementTable, goal: GoalSpec) -> np.ndarray:
    """Correctness of each row's circuit: a sparse head, then block steps.

    A row's head is its positions before its second placement of width > 1
    (see `PlacementTable`).  Up to there its lambda is monomial, one nonzero
    per row, and after the one wide placement at most w per row, so the
    heads of a chunk of rows are carried as the columns and values of those
    nonzeros (see `BlockScratch`), one flat gather per position for the
    whole chunk.  Each lambda is then scattered into a stack of CHUNK_BYTES
    of matrices and the rest of its row applied in place, gate by gate,
    through the placements' `BlockStep`s; trailing wires are dropped.  Each
    stack's correctness is one `vecdot` with the goal, which equals
    `correctness`'s `vdot` bit for bit.

    The lambda equals the block steps' bit for bit, up to the sign of an
    exact zero.  A block step sums gate entry times block over the gate's
    columns.  Before the wide placement every row reads one row of a
    monomial lambda, so each entry has one term, gate entry times value.
    The wide placement reads w rows of that monomial lambda, whose nonzeros
    lie in distinct columns, so each entry of its product again has one
    nonzero term, and every other term the block step adds is a product
    with an exact zero.  A product with an exact 1, which the block step
    skips, changes at most the sign of a zero.

    The gathers clip instead of raising, so the indices and the table's read
    columns are checked first, as the row-sparse kernel checks them.
    """
    check_reads(table, goal.dim)
    check_indices(indices, table)
    scratch = kernel_scratch(BlockScratch, table)
    steps = table.steps
    g = indices.shape[1]
    in_head = np.cumsum(table.width[indices] > 1, axis=1) <= 1
    heads = np.where(in_head, indices, 0)  # the wire past each head
    starts = in_head.sum(axis=1)
    ends = (np.arange(1, g + 1) * (indices != 0)).max(axis=1, initial=0)
    overlap = np.empty(len(indices), dtype=complex)
    goal_flat = goal.matrix.ravel()
    spare, term = scratch.spare, scratch.term
    for start in range(0, len(indices), scratch.chunk):
        stop = start + scratch.chunk
        cols, vals = head_lambdas(heads[start:stop], table, scratch)
        tails = [row[a:b] for row, a, b in zip(indices[start:stop].tolist(),
                                               starts[start:stop].tolist(),
                                               ends[start:stop].tolist())]
        for k in range(0, len(tails), len(scratch.lams)):
            part = slice(k, k + len(scratch.lams))
            lams = scatter_heads(cols[part], vals[part], scratch)
            for x, tail in zip(lams, tails[part]):
                lam = x
                for i in tail:
                    lam, spare = apply_block_step(steps[i], lam, spare, term)
                if lam is not x:
                    x[...] = lam
                    spare = lam
            n = len(lams)
            overlap[start + k:start + k + n] = np.vecdot(goal_flat, lams.reshape(n, -1))
    return np.hypot(overlap.real, overlap.imag) / goal.dim


def check_reads(table: PlacementTable, dim: int) -> None:
    """Raise IndexError unless every placement reads only rows of its own matrix."""
    if table.cols.min() < 0 or table.cols.max() >= dim:
        raise IndexError(f"placement table reads outside the {dim} rows of a matrix")


def head_lambdas(heads: np.ndarray, table: PlacementTable, scratch: BlockScratch):
    """The (rows, dim, w) columns and values of the lambdas of `heads`.

    Row r's lambda has the value `vals[r, i, s]` at column `cols[r, i, s]` of
    its row i, for each slot s.  Each lambda starts as the identity, the
    wire's row-sparse form, and each position is one gather of the chunk's
    slots through `scratch.read` and one product with `scratch.weight`,
    weight first as in the block step.  Positions where every row holds the
    wire are skipped.
    """
    n = len(heads)
    cols, new_cols = scratch.cols[:, :n]
    vals, new_vals = scratch.vals[:, :n]
    cols[...] = table.cols[0]
    vals[...] = table.vals[0]
    reads, weights = scratch.reads[:n], scratch.weights[:n]
    for j in np.flatnonzero(heads.any(axis=0)).tolist():
        gates = heads[:, j]
        scratch.read.take(gates, axis=0, out=reads, mode="clip")
        reads += scratch.first[:n]
        scratch.weight.take(gates, axis=0, out=weights, mode="clip")
        cols.take(reads, out=new_cols, mode="clip")
        vals.take(reads, out=new_vals, mode="clip")
        np.multiply(weights, new_vals, out=new_vals)
        cols, new_cols, vals, new_vals = new_cols, cols, new_vals, vals
    return cols, vals


def scatter_heads(cols: np.ndarray, vals: np.ndarray, scratch: BlockScratch) -> np.ndarray:
    """The dense lambdas of the head slots `cols` and `vals`, in the first
    matrices of `scratch.lams`."""
    n = len(cols)
    lams = scratch.lams[:n]
    lams[...] = 0
    flat, where = lams.reshape(-1), scratch.where[:n]
    # a zero-weight pad slot may share a column with a real entry of its row,
    # which comes in a lower slot and so is written after it
    for s in range(cols.shape[2] - 1, -1, -1):
        np.add(scratch.base[:n], cols[:, :, s], out=where)
        flat[where] = vals[:, :, s]
    return lams


class BlockScratch:
    """The block kernel's head tables and buffers for one placement table.

    A head lambda keeps w slots a row, w the table's widest row (see
    `head_lambdas`).  Placement p's product on it reads, for output slot s
    of row i, the flat slot `read[p, i, s]` of the input's (dim, w) slots,
    with the weight `weight[p, i, s]`:

    - a placement of width 1 reads slot s of its one row `cols[p, i, 0]`,
      with its weight `vals[p, i, 0]`, so it moves the slots of a row in
      their order;
    - a wider one reads slot 0 of each of its rows `cols[p, i, t]`, with the
      weights `vals[p, i, t]`: each row of the monomial lambda it reads
      holds its one nonzero in slot 0.

    `cols` and `vals` hold two head stacks of `chunk` lambdas, the source and
    destination of a position, and `reads` and `weights` take a position's
    reads and weights for a chunk; `first` is the flat slot 0 of each
    lambda, repeated to the shape of `reads`.  Those six arrays take 80
    bytes a slot, and `chunk` is the most lambdas whose slots fit in
    CHUNK_BYTES: 25 at 64 x 64 and 51 at 32 x 32 with w = 2.  `lams` is the
    stack of CHUNK_BYTES of matrices the heads are scattered into,
    `base[k, i]` the flat index of row i of its matrix k, and `where` takes
    a slot's scatter indices; `spare` and `term` are the block steps'.  So
    a scratch keeps about 2 x CHUNK_BYTES plus two matrices and the tables:
    0.7 MiB at 64 x 64 for the default gates.  It is not for concurrent use.
    """

    def __init__(self, table: PlacementTable):
        _, dim, width = table.cols.shape
        self.budget = CHUNK_BYTES
        narrow = (table.width == 1)[:, None, None]
        self.read = np.where(narrow, table.cols[..., :1] * width + np.arange(width),
                             table.cols * width)
        self.weight = np.where(narrow, table.vals[..., :1], table.vals)
        self.chunk = max(1, CHUNK_BYTES // (80 * dim * width))
        self.cols = np.empty((2, self.chunk, dim, width), dtype=np.intp)
        self.vals = np.empty((2, self.chunk, dim, width), dtype=complex)
        self.reads = np.empty((self.chunk, dim, width), dtype=np.intp)
        self.weights = np.empty((self.chunk, dim, width), dtype=complex)
        self.first = np.repeat(np.arange(0, self.chunk * dim * width, dim * width),
                               dim * width).reshape(self.chunk, dim, width)
        stack = max(1, CHUNK_BYTES // (16 * dim * dim))
        self.lams = np.empty((stack, dim, dim), dtype=complex)
        self.base = np.arange(0, stack * dim * dim, dim).reshape(stack, dim)
        self.where = np.empty((stack, dim), dtype=np.intp)
        self.spare, self.term = np.empty((2, dim, dim), dtype=complex)


def is_success(result: EvalResult | Score, params: FitnessParams) -> bool:
    """Correct within eps and at or below the satisfying cost."""
    return result.correctness >= 1.0 - params.eps and result.allcost <= params.satcost
