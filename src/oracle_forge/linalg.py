"""Dense complex matrix helpers.

All matrices are square numpy arrays of complex128, treated as immutable
values: every operation returns a fresh array and never writes to its
inputs.
"""
from __future__ import annotations

import numpy as np

DEFAULT_MAX_DIM = 1 << 10
# the one tolerance every gate and goal matrix is checked against
UNITARY_TOL = 1e-10


class MulCounter:
    """Tally of scalar complex multiplications performed by instrumented ops."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n):
        self.count += n


def mat_mul_naive(a: np.ndarray, b: np.ndarray, counter: MulCounter | None = None) -> np.ndarray:
    """Schoolbook matrix product, n^3 scalar multiplications.

    Baseline for the structured kernel; `counter` records exactly n^3
    multiplications.
    """
    n = a.shape[0]
    if b.shape[0] != n or a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        out[i, :] = a[i, :] @ b  # row of sum-of-products
    if counter is not None:
        counter.add(n ** 3)
    return out


def complex_matrix(a, what: str) -> np.ndarray:
    """`a` as a new complex array; a ragged or non-numeric `a` raises, naming `what`."""
    try:
        return np.array(a, dtype=complex)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a rectangular array of numbers") from None


def require_dim(dim: int, what: str) -> None:
    """Reject a matrix dimension past DEFAULT_MAX_DIM; `what` names it."""
    if dim > DEFAULT_MAX_DIM:
        raise ValueError(f"{what} {dim} exceeds maximum {DEFAULT_MAX_DIM}")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a guard on the result dimension."""
    require_dim(a.shape[0] * b.shape[0], "kron result dimension")
    return np.kron(a, b)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def unitarity_deviation(a: np.ndarray) -> float:
    """Max entrywise |a^dag a - I|: inf or NaN, with no numpy warning, when a^dag a overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # entries past 1e154 overflow
        return float(np.abs(a.conj().T @ a - np.eye(a.shape[0])).max())


def is_unitary(a: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """True iff max entrywise |a^dag a - I| <= tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    return unitarity_deviation(a) <= tol


def require_unitary(a: np.ndarray, what: str) -> None:
    """Reject a non-finite matrix, or one not unitary within UNITARY_TOL; `what` names it."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} has a non-finite entry")
    dev = unitarity_deviation(a)
    if not dev <= UNITARY_TOL:  # also rejects NaN
        raise ValueError(f"{what} is not unitary: max |U^dag U - I| = {dev:.3e}, "
                         f"over the tolerance {UNITARY_TOL:g}")
