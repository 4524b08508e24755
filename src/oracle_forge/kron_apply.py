"""Fast multiplication by operators of the form I_m (x) A_n (x) I_k.

The block decomposition multiplies an mnk x mnk matrix by the structured
operator in at most m^2 * n^3 * k^2 scalar multiplications instead of the
(mnk)^3 of a naive dense product.  Each scalar-times-(k x k block) product
is counted as k^2 multiplications; additions are free.  Zero gate entries
are skipped and not counted, so a gate with nnz nonzero entries costs
nnz * m^2 * n * k^2, and a dense one m^2 * n^3 * k^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_MAX_DIM, MulCounter, kron, identity, mat_mul_naive, require_dim


def _is_pow2(x) -> bool:
    return isinstance(x, (int, np.integer)) and x >= 1 and (x & (x - 1)) == 0


@dataclass(frozen=True, eq=False)
class StructuredOperator:
    """I_m (x) gate (x) I_k with all three dimensions powers of two."""

    m: int
    gate: np.ndarray
    k: int

    def __post_init__(self):
        if not _is_pow2(self.m) or not _is_pow2(self.k):
            raise ValueError(f"identity dimensions must be powers of two, got m={self.m}, k={self.k}")
        n = self.gate.shape[0]
        if self.gate.ndim != 2 or self.gate.shape != (n, n) or not _is_pow2(n):
            raise ValueError(f"gate must be square with power-of-two dimension, got {self.gate.shape}")

    @property
    def n(self) -> int:
        return self.gate.shape[0]

    @property
    def dim(self) -> int:
        return self.m * self.n * self.k


def apply_structured(
    op: StructuredOperator,
    b: np.ndarray,
    counter: MulCounter | None = None,
) -> np.ndarray:
    """Compute (I_m (x) gate (x) I_k) x b via block decomposition.

    The scalar-by-block products of zero gate entries are skipped, so
    `counter` records m^2 * n * k^2 multiplications for each nonzero gate
    entry.
    """
    m, a, k = op.m, op.gate, op.k
    n = op.n
    dim = m * n * k
    if b.shape != (dim, dim):
        raise ValueError(f"dimension mismatch: operator dim {dim}, matrix shape {b.shape}")
    # Row index (i, p, r) with i < m, p < n, r < k; the operator only mixes
    # the p axis, scaling k x k blocks by gate entries.
    br = b.reshape(m, n, k, m, n, k)
    out = np.zeros_like(br)
    per_entry = m * m * n * k * k
    for p in range(n):
        for l in range(n):
            apl = a[p, l]
            if apl == 0:
                continue
            out[:, p] += apl * br[:, l]
            if counter is not None:
                # all (i, j) block pairs and all q columns for this (p, l)
                counter.add(per_entry)
    return out.reshape(b.shape)


@dataclass(frozen=True, eq=False)
class BlockStep:
    """One I_m (x) A (x) I_k product, as `apply_block_step` applies it to a
    dim x dim matrix X viewed as `shape` = (-1, n, k*dim): m blocks of n
    block rows.  The leading -1 lets the same step apply to a C-contiguous
    (B, dim, dim) stack, as B*m blocks, each matrix on its own with the
    operations of the one-matrix step.

    Output block row p is the sum over l of A[p, l] * X[:, l], so the step
    depends on the form of A (`kind`):

    - "diagonal": `entries` holds (p, A[p, p]) for each entry that is not
      exactly 1, and each scales block row p in place (an identity, such
      as the wire's, has no entries and does nothing);
    - "permutation": every row of A has one nonzero, an exact 1, and
      `entries[p]` is its column: one gather of block rows;
    - "dense": `entries[l]` is column l of A as an (n, 1) array, and the
      columns are added in increasing l, the structured kernel's order,
      each for every output block row at once.

    A product with an exact 1, or with a zero entry of a dense gate, changes
    at most the sign of an exact zero, so the result equals
    `apply_structured`'s bit for bit up to that sign.
    """

    shape: tuple
    kind: str
    entries: object


def block_step(op: StructuredOperator, dim: int) -> BlockStep:
    """The block step of `op` on dim x dim matrices."""
    a = op.gate
    shape = (-1, op.n, op.k * dim)
    nonzero = a != 0
    if not np.any(nonzero & ~np.eye(op.n, dtype=bool)):
        return BlockStep(shape, "diagonal",
                         tuple((p, a[p, p]) for p in range(op.n) if a[p, p] != 1))
    if np.all(nonzero.sum(axis=1) == 1) and np.all(a[nonzero] == 1):
        return BlockStep(shape, "permutation", np.argmax(nonzero, axis=1))
    return BlockStep(shape, "dense", tuple(a[:, l, None].copy() for l in range(op.n)))


def row_sparse(op: StructuredOperator, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """`cols[dim, w]` and `vals[dim, w]` of `op` on dim x dim matrices.

    Row (i, p, r) reads rows (i, l, r) for each nonzero A[p, l], in
    increasing l, with weight A[p, l], then row 0 with weight 0 up to w,
    the gate's widest row.
    """
    a, n, k = op.gate, op.n, op.k
    nonzero = a != 0
    w = nonzero.sum(axis=1).max()
    order = np.argsort(~nonzero, axis=1, kind="stable")[:, :w]  # each row's nonzeros first
    keep = np.take_along_axis(nonzero, order, axis=1)[:, None]
    i, r = np.arange(op.m)[:, None, None, None], np.arange(k)[:, None]
    cols = np.where(keep, (i * n + order[:, None]) * k + r, 0)
    vals = np.where(keep, np.take_along_axis(a, order, axis=1)[:, None], 0)
    return cols.reshape(dim, w), np.broadcast_to(vals, cols.shape).reshape(dim, w)


def apply_block_step(step: BlockStep, x: np.ndarray, spare: np.ndarray, term: np.ndarray):
    """Apply `step` to the dim x dim matrix `x`, or to a C-contiguous stack
    of them; returns (result, free buffer).

    A diagonal step updates `x` in place; the others write into `spare`, a
    buffer of x's shape, and hand `x` back as the free one.  `term`, a third
    buffer of that shape, holds a dense gate's column product before it is
    added.  Each product is gate entry times block, in that order: numpy's
    complex product is not bitwise commutative.
    """
    xs = x.reshape(step.shape)
    if step.kind == "diagonal":
        for p, a in step.entries:
            block = xs[:, p]
            np.multiply(a, block, out=block)
        return x, spare
    out = spare.reshape(step.shape)
    if step.kind == "permutation":
        # clip, not raise: a raising take would buffer its output
        np.take(xs, step.entries, axis=1, out=out, mode="clip")
        return spare, x
    product = term.reshape(step.shape)
    first, *rest = step.entries
    np.multiply(first, xs[:, 0, None], out=out)
    for l, column in enumerate(rest, 1):
        np.multiply(column, xs[:, l, None], out=product)
        np.add(out, product, out=out)
    return spare, x


def step_product(step: BlockStep, x: np.ndarray, term: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """`step` applied to `x` in `out` (a new array by default), leaving `x`
    unchanged.

    A diagonal step works on a copy of `x` in `out`, the others write into
    it as their spare; `out` must be C-contiguous, of x's shape, and `term`
    is `apply_block_step`'s.
    """
    if out is None:
        out = np.empty_like(x, order="C")
    if step.kind == "diagonal":
        np.copyto(out, x)
        return apply_block_step(step, out, None, term)[0]
    return apply_block_step(step, x, out, term)[0]


def embed_dense(op: StructuredOperator) -> np.ndarray:
    """Dense realization I_m (x) gate (x) I_k."""
    require_dim(op.dim, "embedded dimension")
    return kron(identity(op.m), kron(op.gate, identity(op.k)))


def speedup_predicted(m: int, n: int, k: int) -> bool:
    """True iff log2(m) + log2(k) > 1.66 * log2(n)."""
    for x in (m, n, k):
        if not _is_pow2(x):
            raise ValueError(f"{x} is not a power of two")
    return math.log2(m) + math.log2(k) > 1.66 * math.log2(n)


@dataclass
class BenchRow:
    m: int
    n: int
    k: int
    structured_count: int
    naive_count: int
    predicted_speedup: bool


def benchmark_triple(m: int, n: int, k: int) -> BenchRow:
    """Instrumented structured-vs-naive run for one (m, n, k) triple.

    The counts depend only on the triple: the random dense gate and matrix
    feed only the check that both products agree.
    """
    predicted = speedup_predicted(m, n, k)  # rejects a dimension that is not a power of two
    dim = m * n * k
    require_dim(dim, "embedded dimension")  # before the dim x dim draw
    rng = np.random.default_rng(0)
    gate = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    op = StructuredOperator(m, gate, k)

    sc = MulCounter()
    fast = apply_structured(op, b, counter=sc)
    nc = MulCounter()
    ref = mat_mul_naive(embed_dense(op), b, counter=nc)

    err = np.abs(fast - ref).max()
    if err > 1e-9:
        raise AssertionError(f"kernel mismatch during benchmark: max error {err}")
    return BenchRow(m, n, k, sc.count, nc.count, predicted)


def benchmark_sweep(max_total: int = 64, triples=None) -> list[BenchRow]:
    """Benchmark all power-of-two triples with m*n*k <= max_total (or the given triples)."""
    if triples is None:
        if max_total < 2:
            # the smallest triple, (1, 2, 1), has m*n*k = 2
            raise ValueError(f"max_total must be at least 2, got {max_total}")
        if max_total >= 2 * DEFAULT_MAX_DIM:  # its largest triples would not embed
            raise ValueError(f"max_total must be below {2 * DEFAULT_MAX_DIM}, got {max_total}")
        pows = [1 << e for e in range(max_total.bit_length())]
        # a 1x1 "gate" is degenerate
        triples = [(m, n, k) for m in pows for n in pows[1:] for k in pows if m * n * k <= max_total]
    return [benchmark_triple(m, n, k) for (m, n, k) in triples]
