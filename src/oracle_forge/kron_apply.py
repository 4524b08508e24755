"""Fast multiplication by operators of the form I_m (x) A_n (x) I_k.

The block decomposition multiplies an mnk x mnk matrix by the structured
operator in m^2 * n^3 * k^2 scalar multiplications instead of the (mnk)^3
of a naive dense product.  Each scalar-times-(k x k block) product is
counted as k^2 multiplications; additions are free.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_MAX_DIM, MulCounter, kron, identity, mat_mul_naive


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
    skip_zeros: bool = False,
) -> np.ndarray:
    """Compute (I_m (x) gate (x) I_k) x b via block decomposition.

    `b` is one dim x dim matrix or a (B, dim, dim) stack, each matrix
    multiplied on its own with the same operations in the same order.
    With `skip_zeros` the scalar-by-block products for zero gate entries
    are elided (no result change, fewer multiplications); leave it off
    when asserting exact operation counts.
    """
    m, a, k = op.m, op.gate, op.k
    n = op.n
    dim = m * n * k
    if b.ndim not in (2, 3) or b.shape[-2:] != (dim, dim):
        raise ValueError(f"dimension mismatch: operator dim {dim}, matrix shape {b.shape}")
    batch = b.shape[:-2]
    # Row index (i, p, r) with i < m, p < n, r < k; the operator only mixes
    # the p axis, scaling k x k blocks by gate entries.
    br = b.reshape(*batch, m, n, k, m, n, k)
    out = np.zeros_like(br)
    per_entry = m * m * n * k * k * (batch[0] if batch else 1)
    for p in range(n):
        for l in range(n):
            apl = a[p, l]
            if skip_zeros and apl == 0:
                continue
            out[..., p, :, :, :, :] += apl * br[..., l, :, :, :, :]
            if counter is not None:
                # all (i, j) block pairs and all q columns for this (p, l)
                counter.add(per_entry)
    return out.reshape(b.shape)


def embed_dense(op: StructuredOperator, max_dim: int = DEFAULT_MAX_DIM) -> np.ndarray:
    """Dense realization I_m (x) gate (x) I_k."""
    if op.dim > max_dim:
        raise ValueError(f"embedded dimension {op.dim} exceeds maximum {max_dim}")
    return kron(identity(op.m), kron(op.gate, identity(op.k), max_dim=max_dim), max_dim=max_dim)


def speedup_predicted(m: int, n: int, k: int) -> bool:
    """True iff log2(m) + log2(k) > 1.66 * log2(n)."""
    for x in (m, n, k):
        if not _is_pow2(x):
            raise ValueError(f"{x} is not a power of two")
    return math.log2(m) + math.log2(k) > 1.66 * math.log2(n)


BENCH_CSV_HEADER = "m,n,k,structured_count,naive_count,predicted_speedup,wall_ns_structured,wall_ns_naive"


@dataclass
class BenchRow:
    m: int
    n: int
    k: int
    structured_count: int
    naive_count: int
    predicted_speedup: bool
    wall_ns_structured: int
    wall_ns_naive: int

    def csv(self) -> str:
        return (
            f"{self.m},{self.n},{self.k},{self.structured_count},{self.naive_count},"
            f"{self.predicted_speedup},{self.wall_ns_structured},{self.wall_ns_naive}"
        )


def benchmark_triple(m: int, n: int, k: int, rng: np.random.Generator) -> BenchRow:
    """Instrumented structured-vs-naive run for one (m, n, k) triple."""
    dim = m * n * k
    gate = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    op = StructuredOperator(m, gate, k)

    sc = MulCounter()
    t0 = time.perf_counter_ns()
    fast = apply_structured(op, b, counter=sc)
    t1 = time.perf_counter_ns()

    nc = MulCounter()
    dense = embed_dense(op)
    t2 = time.perf_counter_ns()
    ref = mat_mul_naive(dense, b, counter=nc)
    t3 = time.perf_counter_ns()

    err = np.abs(fast - ref).max()
    if err > 1e-9:
        raise AssertionError(f"kernel mismatch during benchmark: max error {err}")
    return BenchRow(m, n, k, sc.count, nc.count, speedup_predicted(m, n, k), t1 - t0, t3 - t2)


def benchmark_sweep(max_total: int = 64, seed: int = 0, triples=None) -> list[BenchRow]:
    """Benchmark all power-of-two triples with m*n*k <= max_total (or the given triples)."""
    if triples is None:
        triples = []
        p = 1
        pows = []
        while p <= max_total:
            pows.append(p)
            p *= 2
        for m in pows:
            for n in pows[1:]:  # a 1x1 "gate" is degenerate
                for k in pows:
                    if m * n * k <= max_total:
                        triples.append((m, n, k))
    rng = np.random.default_rng(seed)
    return [benchmark_triple(m, n, k, rng) for (m, n, k) in triples]
