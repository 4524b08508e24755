"""Built-in goal unitaries.

The entangling goals are defined as the unitaries of their optimal
reference circuits (Bell / GHZ state preparation), composed from exact
gate matrices.  A goal's JSON form is in `cli`.
"""
from __future__ import annotations

import numpy as np

from .evaluate import GoalSpec
from .gates import CNOT_MATRIX, H_MATRIX, SWAP_MATRIX
from .linalg import identity, kron


def _swap() -> GoalSpec:
    return GoalSpec(2, SWAP_MATRIX.copy(), optimal_cost=6, name="swap")


def _entangle2() -> GoalSpec:
    g = CNOT_MATRIX @ kron(H_MATRIX, identity(2))
    return GoalSpec(2, g, optimal_cost=3, name="entangle2")


def _entangle3() -> GoalSpec:
    i2 = identity(2)
    g = kron(i2, CNOT_MATRIX) @ kron(CNOT_MATRIX, i2) @ kron(H_MATRIX, identity(4))
    return GoalSpec(3, g, optimal_cost=5, name="entangle3")


def _controlled_s() -> GoalSpec:
    return GoalSpec(2, np.diag([1, 1, 1, 1j]).astype(complex), optimal_cost=10, name="controlled_s")


_BUILTINS = {
    "swap": _swap,
    "entangle2": _entangle2,
    "entangle3": _entangle3,
    "controlled_s": _controlled_s,
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str) -> GoalSpec:
    """Built-in benchmark goal by name."""
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(
            f"unknown goal {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        ) from None

