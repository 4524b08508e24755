"""Built-in goal unitaries, and the JSON form of a goal.

The entangling goals are defined as the unitaries of their optimal
reference circuits (Bell / GHZ state preparation), composed from exact
gate matrices.
"""
from __future__ import annotations

import numpy as np

from .evaluate import GoalSpec
from .gates import (CNOT_MATRIX, H_MATRIX, SWAP_MATRIX, json_fields, json_matrix, json_object,
                    whole_number)
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


def goal_to_json(goal: GoalSpec) -> dict:
    """Exportable form: the qubit count, the matrix as [re, im] pairs, and the
    optimal cost and name when the goal has them."""
    data = {
        "qubits": goal.num_qubits,
        "matrix": [[[z.real, z.imag] for z in row] for row in goal.matrix],
    }
    if goal.optimal_cost is not None:
        data["optimal_cost"] = goal.optimal_cost
    if goal.name:
        data["name"] = goal.name
    return data


def goal_from_json(data) -> GoalSpec:
    """Rebuild a goal from the JSON form; `GoalSpec` rejects non-unitary or non-2^m matrices."""
    data = json_object(data, "a goal file")
    mat = json_matrix(*json_fields(data, "a goal file", "matrix"), "goal matrix")
    m = whole_number(data.get("qubits", len(mat).bit_length() - 1), "goal qubits")
    opt = data.get("optimal_cost")
    if opt is not None:
        opt = whole_number(opt, "goal optimal_cost")
    name = data.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"goal name must be a string, got {name!r}")
    return GoalSpec(m, mat, optimal_cost=opt, name=name)
