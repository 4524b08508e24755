"""Circuit evaluation: realized unitary, correctness, cost and fitness.

Fitness is minimized:

    award * (allcost - satcost) + punish * (1 - correctness)

so a correct circuit below the satisfying cost scores negative, and an
incorrect one pays `punish` per unit of error.  No clamping is applied;
with a small `punish` a cheap wrong circuit can legitimately out-score a
correct one (that failure mode is real, not a bug).

`evaluate_circuit` scores one circuit given as placements with the
structured kernel.  `evaluate_batch` scores a stack of circuits given as
rows of placement indices, bit-identically: it checks the rows, takes each
row's overlap with the goal from one of two kernels, picked by the matrix
size alone, and turns the overlaps into correctness and fitness.  Below
BLOCK_MIN_DIM `row_sparse_overlaps` applies each gate position to a
cache-sized chunk of rows at once, one gather per term; from BLOCK_MIN_DIM
up `block_overlaps` builds each row's sparse head, through its second wide
placement, and applies the rest of the row in place through the
placements' `BlockStep`s.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .gates import PlacementTable, placement_operator, require_cost, require_qubits
from .kron_apply import apply_block_step, apply_structured
from .linalg import complex_matrix, identity, require_unitary

# working-set budget of both kernels: the row-sparse one scores its rows this
# many bytes of lambda matrices at a time, and its prefix table, read by one
# gather per chunk, holds at most eight times this many; the block one
# scatters its heads into a stack of this many bytes of matrices, and sizes
# its head chunk so that its slot arrays fit in it
CHUNK_BYTES = 1 << 18
# evaluate_batch builds lambdas of this dimension and up with the block
# kernel and smaller ones with the row-sparse kernel.  Measured crossover, as
# block-kernel speed over row-sparse speed in one process, interleaved, with
# the head through the second wide placement: on 300 random 8-gate rows of
# the default gates (three row sets, best of seven calls each) 0.36-0.40x at
# dim 8, 0.98-1.08x at 16 and 3.1x at 32; in evolve on a 4-qubit GHZ goal
# (dim 16, 40 generations, three seeds a round) the block kernel won 15 of
# 15 rounds, at 1.43x in the median (quartiles 1.22-1.65), and on a random
# 4-qubit goal 9 of 9, at 1.82x
BLOCK_MIN_DIM = 16


@dataclass(frozen=True, eq=False)
class GoalSpec:
    """Target unitary on num_qubits qubits, optionally with its known optimal cost."""

    num_qubits: int
    matrix: np.ndarray
    optimal_cost: int | None = None
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "matrix", complex_matrix(self.matrix, "goal matrix"))
        m, shape = self.num_qubits, self.matrix.shape
        require_qubits(m, "goal qubits")  # before the unitarity check of an oversized matrix
        if shape != (1 << m, 1 << m):
            raise ValueError(f"goal matrix of shape {shape} is not 2^qubits x 2^qubits "
                             f"(qubits={m})")
        require_unitary(self.matrix, "goal matrix")
        if self.optimal_cost is not None:
            require_cost(self.optimal_cost, "goal optimal_cost")

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
        require_cost(self.satcost, "satcost")
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
    """Ordered product of the embedded gate matrices."""
    u = identity(1 << m)
    for p in circuit:
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

    The kernels' gathers clip instead of raising, which would make numpy
    buffer their output, so every index is checked here to lie in
    [0, len(table)); the table checked its own reads when it was built.
    Costs are summed in int64, so rows whose costliest circuit would not fit
    raise ValueError.

    Each row's overlap tr(G^dag lambda) comes from `block_overlaps` from
    BLOCK_MIN_DIM up and from `row_sparse_overlaps` below.  Both sum every
    matrix entry from the structured kernel's terms in its order, less some
    exact zeros, so each lambda equals `evaluate_circuit`'s bit for bit (up
    to the sign of an exact zero, which no score sees), and both take the
    overlap as a `vecdot`, which equals `correctness`'s `vdot` bit for bit.
    `hypot` over the dimension equals its `abs` bit for bit, and the fitness
    is `fitness_value` of the arrays, so the scores equal
    `evaluate_circuit`'s exactly.
    """
    if indices.size and (indices.min() < 0 or indices.max() >= len(table)):
        raise IndexError(f"placement indices outside [0, {len(table)})")
    table.require_budget(indices.shape[1])
    kernel = block_overlaps if goal.dim >= BLOCK_MIN_DIM else row_sparse_overlaps
    overlap = kernel(indices, table, goal.matrix.ravel())
    corr = np.hypot(overlap.real, overlap.imag) / goal.dim
    cost = table.costs[indices].sum(axis=1)
    return fitness_value(cost, corr, params), corr, cost


def row_sparse_overlaps(indices: np.ndarray, table: PlacementTable,
                        goal_flat: np.ndarray) -> np.ndarray:
    """The overlap of each row's lambda with the goal, a whole chunk of rows per product.

    The rows are taken a chunk of at most CHUNK_BYTES of matrices at a time,
    so a chunk's stack stays in cache while every gate position is applied
    to it.  Each row starts from the tabulated lambda of its first `depth`
    placement indices (see `RowSparseScratch`), one gather for the chunk,
    and `apply_positions` applies only its positions after those.  Each
    chunk's overlaps are one `vecdot` with the flat goal.
    """
    scratch = kernel_scratch(RowSparseScratch, table)
    depth = min(scratch.depth, indices.shape[1])
    # a row shorter than the table's depth pads its prefix with wires (index 0)
    place = len(table) ** np.arange(scratch.depth - 1, scratch.depth - 1 - depth, -1)
    overlap = np.empty(len(indices), dtype=complex)
    with scratch.lock:
        for start in range(0, len(indices), scratch.chunk):
            rows = indices[start:start + scratch.chunk]
            n = len(rows)
            np.take(scratch.prefixes, rows[:, :depth] @ place, axis=0, out=scratch.lams[0, :n],
                    mode="clip")
            lam = apply_positions(rows[:, depth:], table, scratch)
            overlap[start:start + n] = np.vecdot(goal_flat, lam.reshape(n, -1))
    return overlap


def apply_positions(rows: np.ndarray, table: PlacementTable, scratch: RowSparseScratch) -> np.ndarray:
    """Apply the gate positions of `rows` in order to the matrices in `scratch.lams[0]`.

    Row r's matrix is `scratch.lams[0, r]`.  A position is one row-sparse
    product (see `PlacementTable`): term t of every output row is its weight
    times the input row it reads, one gather per term over the whole stack.
    A wire is one term of weight 1.  The products run in the three matrix
    buffers: the source and destination of a position, which swap after it,
    and the term being added.  Returns the view of the buffer that holds the
    products.  The indices are not checked here (see `evaluate_batch`).
    """
    n = len(rows)
    lam, out, term = scratch.lams[:, :n]
    dim = lam.shape[-1]
    reads, weights = scratch.reads[:n], scratch.weights[:n]
    for gates in rows.T:
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
    in base N (the table's length) are k, wires included, built a chunk at
    a time with `apply_positions` itself so that each entry is the lambda
    the kernel would build for that prefix.  `depth` is the largest whose
    N^depth matrices fit in 8 x CHUNK_BYTES: 7, 4 and 2 for the default
    gates on one to three qubits, the sizes below BLOCK_MIN_DIM, and 0 (the
    identity alone) from 128 x 128 up.

    Each of the three stacks of `lams` and `weights` is at most CHUNK_BYTES
    or one matrix, `reads` and `first` half that, and `prefixes` at most
    8 x CHUNK_BYTES or one matrix, so a scratch keeps at most
    13 x CHUNK_BYTES (3.25 MiB) plus the w x N matrices of `spread`: 1.3 to
    2.7 MiB in all for the default gates on one to three qubits (2.7 on two,
    where the table is 1.6 MiB).  The kernel keeps one on each placement
    table it scores (see `kernel_scratch`) and holds its `lock` per call.
    """

    def __init__(self, table: PlacementTable):
        n, dim, width = table.cols.shape
        matrix = 16 * dim * dim
        self.chunk = max(1, CHUNK_BYTES // matrix)
        self.lock = threading.Lock()
        self.lams = np.empty((3, self.chunk, dim, dim), dtype=complex)
        self.reads = np.empty((self.chunk, dim, width), dtype=np.intp)
        self.weights = np.empty((self.chunk, dim, dim), dtype=complex)
        self.first = np.repeat(np.arange(0, self.chunk * dim, dim), dim * width).reshape(
            self.chunk, dim, width)
        self.spread = np.repeat(np.moveaxis(table.vals, 2, 0)[..., None], dim, axis=3)
        self.depth = 0
        while n > 1 and n ** (self.depth + 1) * matrix <= 8 * CHUNK_BYTES:  # n = 1: the wire alone
            self.depth += 1
        sequences = np.indices((n,) * self.depth).reshape(self.depth, n ** self.depth).T
        self.prefixes = np.empty((len(sequences), dim, dim), dtype=complex)
        for start in range(0, len(sequences), self.chunk):
            part = sequences[start:start + self.chunk]
            self.lams[0, :len(part)] = identity(dim)
            self.prefixes[start:start + len(part)] = apply_positions(part, table, self)


def kernel_scratch(kind: type, table: PlacementTable):
    """The scratch of class `kind` for the table and the current CHUNK_BYTES, kept on the table."""
    return table.kept((kind, CHUNK_BYTES), lambda: kind(table))


def block_overlaps(indices: np.ndarray, table: PlacementTable,
                   goal_flat: np.ndarray) -> np.ndarray:
    """The overlap of each row's lambda with the goal: a sparse head, then block steps.

    A row's head is its positions up to and including its second placement
    of width > 1 (see `PlacementTable`).  Its lambda is monomial, one
    nonzero per row, up to the first wide placement, has at most w nonzeros
    per row from there to the second, and at most w * w after it.  So the
    heads of a chunk of rows are carried as the columns and values of those
    slots (see `head_lambdas`), one flat gather per position for the whole
    chunk.  Each lambda is then scattered into a stack of CHUNK_BYTES of
    matrices and the rest of its row applied in place, gate by gate,
    through the placements' `BlockStep`s.
    Each stack's overlaps are one `vecdot` with the flat goal.

    The lambda equals the block steps' bit for bit, up to the sign of an
    exact zero.  A block step sums gate entry times block over the gate's
    columns, in increasing column.  Before the first wide placement every
    row reads one row of a monomial lambda, so each entry has one term,
    gate entry times value.  The first wide placement reads w rows of that
    monomial lambda, whose nonzeros lie in distinct columns, so each entry
    of its product again has one term.  The second reads w rows, each with
    its nonzeros in distinct columns, so each entry of its product has at
    most one term from each row it reads, and the scatter adds a row's
    slots in slot order, which takes those rows in increasing gate column,
    the block step's order.  Pad slots, zero-weight reads of row 0, add an
    exact zero, as does every other term the block step adds, a product
    with an exact zero; and a product with an exact 1, which the block step
    skips, changes at most the sign of a zero.
    """
    scratch = kernel_scratch(BlockScratch, table)
    steps = table.steps
    wide = table.width[indices] > 1
    count = np.cumsum(wide, axis=1)
    before = count <= 1
    heads = np.where(before, indices, 0)  # the wire from each second wide placement on
    # each row's second wide placement, or the wire (index 0, of width 1);
    # a sum, so that rows of no positions need no column
    seconds = np.where(wide & (count == 2), indices, 0).sum(axis=1)
    starts = before.sum(axis=1) + (seconds > 0)
    overlap = np.empty(len(indices), dtype=complex)
    with scratch.lock:
        spare, term = scratch.spare, scratch.term
        for start in range(0, len(indices), scratch.chunk):
            stop = start + scratch.chunk
            cols, vals = head_lambdas(heads[start:stop], seconds[start:stop], table, scratch)
            tails = [row[a:] for row, a in zip(indices[start:stop].tolist(),
                                               starts[start:stop].tolist())]
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
    return overlap


def head_lambdas(heads: np.ndarray, seconds: np.ndarray, table: PlacementTable,
                 scratch: BlockScratch):
    """The (rows, dim, w * w) columns and values of the lambdas of `heads`,
    each followed by its row's placement in `seconds`.

    Row r's lambda has the value `vals[r, i, s]` at column `cols[r, i, s]` of
    its row i, for each slot s; slots may share a column, and the lambda's
    entry is then their sum.  Each lambda starts as the identity, the
    wire's row-sparse form, in w slots a row, and each position of `heads`
    is one gather of the chunk's slots through `scratch.read` and one
    product with `scratch.weight`, weight first as in the block step.  A
    wire moves each slot to itself with weight 1.  The placement of
    `seconds` is one more such step, through `scratch.wide_read` and
    `scratch.wide_weight`, into w * w slots a row.
    """
    n = len(heads)
    cols, new_cols = scratch.cols[:, :n]
    vals, new_vals = scratch.vals[:, :n]
    cols[...] = table.cols[0]
    vals[...] = table.vals[0]
    reads, weights = scratch.reads[:n], scratch.weights[:n]
    for gates in heads.T:
        scratch.read.take(gates, axis=0, out=reads, mode="clip")
        reads += scratch.first[:n]
        scratch.weight.take(gates, axis=0, out=weights, mode="clip")
        cols.take(reads, out=new_cols, mode="clip")
        vals.take(reads, out=new_vals, mode="clip")
        np.multiply(weights, new_vals, out=new_vals)
        cols, new_cols, vals, new_vals = new_cols, cols, new_vals, vals
    reads, weights = scratch.wide_reads[:n], scratch.wide_weights[:n]
    wide_cols, wide_vals = scratch.wide_cols[:n], scratch.wide_vals[:n]
    scratch.wide_read.take(seconds, axis=0, out=reads, mode="clip")
    reads += scratch.wide_first[:n]
    scratch.wide_weight.take(seconds, axis=0, out=weights, mode="clip")
    cols.take(reads, out=wide_cols, mode="clip")
    vals.take(reads, out=wide_vals, mode="clip")
    np.multiply(weights, wide_vals, out=wide_vals)
    return wide_cols, wide_vals


def scatter_heads(cols: np.ndarray, vals: np.ndarray, scratch: BlockScratch) -> np.ndarray:
    """The dense lambdas of the head slots `cols` and `vals`, in the first
    matrices of `scratch.lams`: each entry the sum of its slots, added in
    slot order."""
    n = len(cols)
    lams = scratch.lams[:n]
    lams[...] = 0
    where = scratch.where[:n]
    np.add(scratch.base[:n], cols, out=where)
    # flat indices and values, which numpy's fast path of `at` takes
    np.add.at(lams.reshape(-1), where.reshape(-1), vals.reshape(-1))
    return lams


class BlockScratch:
    """The block kernel's head tables and buffers for one placement table.

    A head lambda keeps w slots a row, w the table's widest row, up to its
    last position (see `head_lambdas`).  Placement p's product on them
    reads, for output slot s of row i, the flat slot `read[p, i, s]` of the
    input's (dim, w) slots, with the weight `weight[p, i, s]`:

    - a placement of width 1 reads slot s of its one row `cols[p, i, 0]`,
      with its weight `vals[p, i, 0]`, so it moves the slots of a row in
      their order;
    - a wider one reads slot 0 of each of its rows `cols[p, i, t]`, with the
      weights `vals[p, i, t]`: each row of the monomial lambda it reads
      holds its one nonzero in slot 0.

    The head's last position, its second wide placement or the wire, makes
    w * w slots a row: output slot t * w + s of row i reads the flat slot
    `wide_read[p, i, t * w + s]`, slot s of row `cols[p, i, t]`, with the
    weight `wide_weight[p, i, t * w + s]`, which is `vals[p, i, t]`.

    `cols` and `vals` hold two head stacks of `chunk` lambdas, the source and
    destination of a position, and `reads` and `weights` take a position's
    reads and weights for a chunk; `first` is the flat slot 0 of each
    lambda, repeated to the shape of `reads`.  Those six arrays take 80
    bytes a slot, and `chunk` is the most lambdas whose slots fit in
    CHUNK_BYTES: 25 at 64 x 64, 51 at 32 x 32 and 102 at 16 x 16 with
    w = 2.  The `wide_` buffers are the last position's alike, at 56 bytes
    each of their w * w slots a row: 0.7 w x CHUNK_BYTES.  `lams` is the stack of CHUNK_BYTES
    of matrices the heads are scattered into, `base[k, i, j]` the flat
    index of row i of its matrix k for each of the row's w * w slots, and
    `where` takes the scatter indices; `spare` and `term` are the block
    steps'.  So a scratch keeps about (2 + 0.7 w) x CHUNK_BYTES plus two
    matrices and the tables: 1.2 MiB at 64 x 64 for the default gates.  The
    kernel holds `lock` for each call, so threads that share a table wait.
    """

    def __init__(self, table: PlacementTable):
        _, dim, width = table.cols.shape
        slots = width * width
        narrow = (table.width == 1)[:, None, None]
        self.read = np.where(narrow, table.cols[..., :1] * width + np.arange(width),
                             table.cols * width)
        self.weight = np.where(narrow, table.vals[..., :1], table.vals)
        self.wide_read = (table.cols[..., None] * width + np.arange(width)).reshape(-1, dim, slots)
        self.wide_weight = np.repeat(table.vals, width, axis=2)
        self.chunk = max(1, CHUNK_BYTES // (80 * dim * width))
        self.cols = np.empty((2, self.chunk, dim, width), dtype=np.intp)
        self.vals = np.empty((2, self.chunk, dim, width), dtype=complex)
        self.reads = np.empty((self.chunk, dim, width), dtype=np.intp)
        self.weights = np.empty((self.chunk, dim, width), dtype=complex)
        self.first = np.repeat(np.arange(0, self.chunk * dim * width, dim * width),
                               dim * width).reshape(self.chunk, dim, width)
        self.wide_cols = np.empty((self.chunk, dim, slots), dtype=np.intp)
        self.wide_vals = np.empty((self.chunk, dim, slots), dtype=complex)
        self.wide_reads = np.empty((self.chunk, dim, slots), dtype=np.intp)
        self.wide_weights = np.empty((self.chunk, dim, slots), dtype=complex)
        self.wide_first = np.repeat(self.first[..., :1], slots, axis=2)
        stack = max(1, CHUNK_BYTES // (16 * dim * dim))
        self.lams = np.empty((stack, dim, dim), dtype=complex)
        self.base = np.repeat(np.arange(0, stack * dim * dim, dim), slots).reshape(
            stack, dim, slots)
        self.where = np.empty((stack, dim, slots), dtype=np.intp)
        self.spare, self.term = np.empty((2, dim, dim), dtype=complex)
        self.lock = threading.Lock()


def is_success(result: EvalResult | Score, params: FitnessParams) -> bool:
    """Correct within eps and at or below the satisfying cost."""
    return result.correctness >= 1.0 - params.eps and result.allcost <= params.satcost
