"""Primitive gate set, the adjacent-only placement enumeration and costs.

Qubit 0 is the topmost wire and the most significant tensor factor.  A
two-qubit family contributes two orientations per adjacent pair: the
matrix as given (control on the upper wire for CNOT) and its conjugation
by SWAP (suffix "2", control on the lower wire).

Placement index convention (fixed for reproducibility):
  0                   -> the quantum wire (no-op)
  1 .. n1*m           -> one-qubit gates, gate-major then qubit
  n1*m+1 .. end       -> two-qubit families, family-major then pair,
                         (down, up) within each pair

`GateSet.table(m)` builds the placements on m qubits once, with their
costs and structured operators, and keeps them for later calls; the codec,
the evaluator, the engine and the verifier all read that one table.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .kron_apply import StructuredOperator
from .linalg import as_matrix, is_unitary

WIRE = "wire"

_SQ2 = 1.0 / math.sqrt(2.0)

S_MATRIX = np.array([[1, 0], [0, 1j]], dtype=complex)
T_MATRIX = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)
H_MATRIX = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)
SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)
# CNOT with the lower qubit as control
CNOT2_MATRIX = SWAP_MATRIX @ CNOT_MATRIX @ SWAP_MATRIX


def gate_matrix(name: str) -> np.ndarray:
    """Matrix of a built-in gate by name; the wire has no matrix."""
    table = {"S": S_MATRIX, "T": T_MATRIX, "H": H_MATRIX,
             "CNOT": CNOT_MATRIX, "CNOT2": CNOT2_MATRIX}
    if name == WIRE:
        raise ValueError("the wire contributes no matrix factor")
    if name not in table:
        raise ValueError(f"unknown gate {name!r}")
    return table[name].copy()


def flip_two_qubit(matrix: np.ndarray) -> np.ndarray:
    """The SWAP-conjugated orientation of a two-qubit gate."""
    return SWAP_MATRIX @ matrix @ SWAP_MATRIX


@dataclass(frozen=True)
class CostModel:
    one_qubit_cost: int = 1
    two_qubit_cost: int = 2

    def __post_init__(self):
        if self.one_qubit_cost < 0 or self.two_qubit_cost < 0:
            raise ValueError("gate costs must be non-negative")


@dataclass(frozen=True, eq=False)
class Gate:
    """A named primitive gate (one- or two-qubit) with its cost."""

    name: str
    matrix: np.ndarray
    cost: int

    def __post_init__(self):
        m = as_matrix(self.matrix)
        if m.shape[0] not in (2, 4):
            raise ValueError(f"gate {self.name!r}: only 2x2 or 4x4 matrices are supported")
        if not is_unitary(m, 1e-10):
            dev = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
            raise ValueError(f"gate {self.name!r} is not unitary (max deviation {dev:.3e})")
        if self.cost < 0:
            raise ValueError(f"gate {self.name!r}: cost must be non-negative")
        object.__setattr__(self, "matrix", m)

    @property
    def arity(self) -> int:
        return 1 if self.matrix.shape[0] == 2 else 2


@dataclass(frozen=True, eq=False)
class Placement:
    """One gate applied at one position, or the wire (matrix None)."""

    name: str
    top: int
    span: int
    cost: int
    matrix: np.ndarray | None

    @property
    def is_wire(self) -> bool:
        return self.matrix is None


def placement_operator(p: Placement, m: int) -> StructuredOperator:
    """I (x) gate (x) I embedding of a non-wire placement on m qubits."""
    below = m - p.top - p.span
    return StructuredOperator(1 << p.top, p.matrix, 1 << below)


@dataclass(frozen=True, eq=False)
class PlacementTable:
    """Every placement on m qubits in index order, with per-index data.

    `cases[i]` carries the name, top qubit and matrix of index i, `costs[i]`
    its cost and `operators[i]` its structured operator (None for the wire,
    index 0).  `index` maps (name, top) to the placement index; the wire is
    keyed by top 0.
    """

    cases: tuple
    costs: np.ndarray
    operators: tuple
    index: dict

    def __len__(self) -> int:
        return len(self.cases)


@dataclass(frozen=True, eq=False)
class GateSet:
    one_qubit: tuple
    two_qubit: tuple
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not self.one_qubit and not self.two_qubit:
            raise ValueError("gate set must not be empty")
        for g in self.one_qubit:
            if g.arity != 1:
                raise ValueError(f"gate {g.name!r} is not one-qubit")
        for g in self.two_qubit:
            if g.arity != 2:
                raise ValueError(f"gate {g.name!r} is not two-qubit")
        # placements are looked up by (name, top), so every name must be unique
        owners = {WIRE: "the quantum wire"}
        named = [(g.name, f"one-qubit gate {g.name!r}") for g in self.one_qubit]
        for fam in self.two_qubit:
            named.append((fam.name, f"two-qubit family {fam.name!r}"))
            named.append((fam.name + "2", f"the swapped orientation of family {fam.name!r}"))
        for name, owner in named:
            if name in owners:
                raise ValueError(f"gate name {name!r} of {owner} is already used by {owners[name]}")
            owners[name] = owner

    @property
    def n1(self) -> int:
        return len(self.one_qubit)

    @property
    def n2(self) -> int:
        return len(self.two_qubit)

    def table(self, m: int) -> PlacementTable:
        """The placement table on m qubits, built on first use and then kept."""
        table = self._tables.get(m)
        if table is None:
            table = self._tables[m] = self._build_table(m)
        return table

    def _build_table(self, m: int) -> PlacementTable:
        if m < 1:
            raise ValueError("qubit count must be at least 1")
        cases = [Placement(WIRE, 0, m, 0, None)]
        for g in self.one_qubit:
            for q in range(m):
                cases.append(Placement(g.name, q, 1, g.cost, g.matrix))
        for fam in self.two_qubit:
            flipped = flip_two_qubit(fam.matrix)
            for p in range(m - 1):
                cases.append(Placement(fam.name, p, 2, fam.cost, fam.matrix))
                cases.append(Placement(fam.name + "2", p, 2, fam.cost, flipped))
        return PlacementTable(
            cases=tuple(cases),
            costs=np.array([p.cost for p in cases], dtype=np.int64),
            operators=(None,) + tuple(placement_operator(p, m) for p in cases[1:]),
            index={(p.name, p.top): i for i, p in enumerate(cases)},
        )

    def cases(self, m: int) -> tuple[Placement, ...]:
        """All N placements on m qubits in canonical index order."""
        return self.table(m).cases

    def placement(self, name: str, top: int, m: int) -> Placement:
        """Placement by gate name and top qubit (used when importing circuits)."""
        table = self.table(m)
        i = table.index.get((name, 0 if name == WIRE else top))
        if i is None:
            raise ValueError(f"no gate {name!r} at qubit {top} on {m} qubits")
        return table.cases[i]


def case_count(m: int, gs: GateSet) -> int:
    """N = n1*m + 2*n2*(m-1) + 1 placements on m qubits, wire included."""
    if m < 1:
        raise ValueError("qubit count must be at least 1")
    return gs.n1 * m + 2 * gs.n2 * (m - 1) + 1


def case_from_index(idx: int, m: int, gs: GateSet) -> Placement:
    cases = gs.table(m).cases
    if not 0 <= idx < len(cases):
        raise ValueError(f"case index {idx} out of range [0, {len(cases)})")
    return cases[idx]


def placement_cost(p: Placement) -> int:
    return p.cost


def default_gate_set(cost_model: CostModel = CostModel()) -> GateSet:
    """S, T, H and adjacent CNOT (both orientations)."""
    c1, c2 = cost_model.one_qubit_cost, cost_model.two_qubit_cost
    return GateSet(
        one_qubit=(
            Gate("S", S_MATRIX, c1),
            Gate("T", T_MATRIX, c1),
            Gate("H", H_MATRIX, c1),
        ),
        two_qubit=(Gate("CNOT", CNOT_MATRIX, c2),),
    )


def extend_gate_set(gs: GateSet, path) -> GateSet:
    """Append user gates from a JSON file of {name, arity, cost, matrix} entries.

    Matrices are given as nested [re, im] pairs and validated for
    unitarity on load.  Two-qubit entries are treated as families and
    contribute both orientations.
    """
    with open(path) as f:
        entries = json.load(f)
    one = list(gs.one_qubit)
    two = list(gs.two_qubit)
    for e in entries:
        mat = np.array([[complex(re, im) for (re, im) in row] for row in e["matrix"]])
        g = Gate(e["name"], mat, int(e["cost"]))
        if g.arity != int(e["arity"]):
            raise ValueError(f"gate {g.name!r}: declared arity {e['arity']} does not match matrix size")
        (one if g.arity == 1 else two).append(g)
    return GateSet(one_qubit=tuple(one), two_qubit=tuple(two))
