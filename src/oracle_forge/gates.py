"""Primitive gate set, the adjacent-only placement enumeration and costs.

Qubit 0 is the topmost wire and the most significant tensor factor.  A
two-qubit family contributes two orientations per adjacent pair: the
matrix as given (control on the upper wire for CNOT) and its conjugation
by SWAP (suffix "2", control on the lower wire).

Placement index convention (fixed for reproducibility):
  0                   -> the quantum wire, the identity on qubit 0
  1 .. n1*m           -> one-qubit gates, gate-major then qubit
  n1*m+1 .. end       -> two-qubit families, family-major then pair,
                         (down, up) within each pair
where a gate set's one list gives the order of its gates and of its families.

`GateSet.table(m)` builds the placements on m qubits once, with their
costs, block steps and row-sparse form, and keeps them for later calls; the
codec, the evaluators, the engine and the verifier all read that one table,
and keep what they build from it (kernel buffers, suffix blocks, clan plans)
on it with `PlacementTable.kept`.  A gate file is read by `cli.extend_gate_set`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kron_apply import StructuredOperator, block_step, row_sparse
from .linalg import DEFAULT_MAX_DIM, complex_matrix, identity, require_unitary

MAX_QUBITS = DEFAULT_MAX_DIM.bit_length() - 1  # the most qubits of any goal, circuit or table

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


@dataclass(frozen=True, eq=False)
class Gate:
    """A named primitive gate (one- or two-qubit) with its cost."""

    name: str
    matrix: np.ndarray
    cost: int

    def __post_init__(self):
        m = complex_matrix(self.matrix, f"gate {self.name!r}: matrix")
        if m.shape not in ((2, 2), (4, 4)):
            raise ValueError(f"gate {self.name!r}: matrix must be 2x2 or 4x4, got shape {m.shape}")
        require_unitary(m, f"gate {self.name!r}")
        require_cost(self.cost, f"gate {self.name!r}: cost")
        object.__setattr__(self, "matrix", m)

    @property
    def arity(self) -> int:
        return 1 if self.matrix.shape[0] == 2 else 2


@dataclass(frozen=True, eq=False)
class Placement:
    """One gate applied at one position; the wire is the identity on qubit 0."""

    name: str
    top: int
    span: int
    cost: int
    matrix: np.ndarray

    @property
    def is_wire(self) -> bool:
        return self.name == WIRE


def require_cost(cost: int, what: str) -> None:
    """Reject a cost below 0 or past int64, the type costs are summed in."""
    if cost < 0:
        raise ValueError(f"{what} must be non-negative, got {cost}")
    if cost >= 1 << 63:
        raise ValueError(f"{what} must be below 2^63, got {cost}")


def require_qubits(m: int, what: str) -> None:
    """Reject a qubit count outside 1..MAX_QUBITS, before m (maybe from a file) is a shift."""
    if not 1 <= m <= MAX_QUBITS:
        raise ValueError(f"{what} must be from 1 to {MAX_QUBITS}, got {m}")


def placement_operator(p: Placement, m: int) -> StructuredOperator:
    """I (x) gate (x) I embedding of a placement on m qubits."""
    below = m - p.top - p.span
    return StructuredOperator(1 << p.top, p.matrix, 1 << below)


@dataclass(frozen=True, eq=False)
class PlacementTable:
    """Every placement on m qubits in index order, with per-index data.

    `cases[i]` carries the name, top qubit and matrix of index i (the wire,
    the identity on qubit 0, is index 0), and `costs[i]` its cost.  `index`
    maps (name, top) to the placement index; the wire is keyed by top 0.

    `steps[i]` is index i's `BlockStep`: how its `placement_operator` updates
    a 2^m x 2^m matrix block by block (the wire's is a diagonal step with no
    entries, which does nothing).

    The row-sparse form, `kron_apply.row_sparse` of the same operator,
    gives row r of the embedded 2^m x 2^m matrix of index i as `width[i]`
    terms: it reads the rows `cols[i, r, :]` in increasing order with the
    weights `vals[i, r, :]`.  The terms past a row's nonzeros, up to the
    table's widest row, have weight 0 on row 0.  The wire reads one term of
    weight 1 per row, its own row.

    A table whose `cols` read outside the rows of its own matrix raises
    IndexError when it is built: the evaluator's gathers clip instead of
    raising.  `costs`, `cols`, `vals` and `width` are then read-only, so
    what was checked stays true.

    `kept(key, build)` holds what is built from the table, so it lives as
    long as the table does.
    """

    cases: tuple
    costs: np.ndarray
    index: dict
    steps: tuple
    cols: np.ndarray
    vals: np.ndarray
    width: np.ndarray
    _kept: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        dim = self.cols.shape[1]
        if self.cols.min() < 0 or self.cols.max() >= dim:
            raise IndexError(f"placement table reads outside the {dim} rows of a matrix")
        for array in (self.costs, self.cols, self.vals, self.width):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.cases)

    def require_budget(self, max_gates: int) -> None:
        """Reject a gate budget whose costliest circuit's cost does not fit in int64."""
        require_cost(max_gates * max(self.costs.tolist()), f"the cost of {max_gates} gates")

    def kept(self, key, build):
        """`build()`, called on the first use of `key` and then kept."""
        value = self._kept.get(key)
        if value is None:
            value = self._kept[key] = build()
        return value


@dataclass(frozen=True, eq=False)
class GateSet:
    """One list of gates, numbered in its tables as the module docstring says."""

    gates: tuple
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if not self.gates:
            raise ValueError("gate set must not be empty")
        # placements are looked up by (name, top), so every name must be unique
        owners = {WIRE: "the quantum wire"}
        named = [(g.name, f"{'one-qubit gate' if g.arity == 1 else 'two-qubit family'} {g.name!r}")
                 for g in self.gates]
        named += [(g.name + "2", f"the swapped orientation of family {g.name!r}")
                  for g in self.gates if g.arity == 2]
        for name, owner in named:
            if name in owners:
                raise ValueError(f"gate name {name!r} of {owner} is already used by {owners[name]}")
            owners[name] = owner

    def table(self, m: int) -> PlacementTable:
        """The placement table on m qubits, built on first use and then kept."""
        table = self._tables.get(m)
        if table is None:
            table = self._tables[m] = self._build_table(m)
        return table

    def _build_table(self, m: int) -> PlacementTable:
        require_qubits(m, "qubit count")
        cases = [Placement(WIRE, 0, 1, 0, identity(2))]
        for g in sorted(self.gates, key=lambda g: g.arity):  # stable: each arity as given
            if g.arity == 1:
                cases += [Placement(g.name, q, 1, g.cost, g.matrix) for q in range(m)]
                continue
            flipped = SWAP_MATRIX @ g.matrix @ SWAP_MATRIX  # the lower-control orientation
            for p in range(m - 1):
                cases.append(Placement(g.name, p, 2, g.cost, g.matrix))
                cases.append(Placement(g.name + "2", p, 2, g.cost, flipped))
        ops = [placement_operator(p, m) for p in cases]
        rows = [row_sparse(op, 1 << m) for op in ops]
        width = np.array([c.shape[1] for c, _ in rows])
        cols = np.zeros((len(cases), 1 << m, width.max()), dtype=np.intp)
        vals = np.zeros(cols.shape, dtype=complex)
        for i, (c, v) in enumerate(rows):  # past width[i], weight 0 on row 0
            cols[i, :, :width[i]], vals[i, :, :width[i]] = c, v
        return PlacementTable(
            cases=tuple(cases),
            costs=np.array([p.cost for p in cases], dtype=np.int64),
            index={(p.name, p.top): i for i, p in enumerate(cases)},
            steps=tuple(block_step(op, 1 << m) for op in ops),
            cols=cols,
            vals=vals,
            width=width,
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
    """N = n1*m + 2*n2*(m-1) + 1 placements on m qubits, wire included, for
    n1 one-qubit gates and n2 two-qubit families."""
    require_qubits(m, "qubit count")
    n2 = sum(g.arity == 2 for g in gs.gates)
    return (len(gs.gates) - n2) * m + 2 * n2 * (m - 1) + 1


def default_gate_set() -> GateSet:
    """S, T, H at cost 1 and adjacent CNOT (both orientations) at cost 2."""
    return GateSet((Gate("S", S_MATRIX, 1), Gate("T", T_MATRIX, 1), Gate("H", H_MATRIX, 1),
                    Gate("CNOT", CNOT_MATRIX, 2)))

