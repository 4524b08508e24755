"""Binary chromosome <-> circuit translation.

A chromosome of g*k bits splits into g codons of k bits each, read
big-endian.  Codon value s selects placement index floor(s*N / 2^k), so
every bit pattern decodes to a valid circuit and each index has either
floor(2^k/N) or ceil(2^k/N) preimages.
"""
from __future__ import annotations

import numpy as np

from .gates import (GateSet, Placement, json_fields, json_list, json_object, require_qubits,
                    whole_number)


def codon_bits(n_cases: int) -> int:
    """Smallest k with 2^k >= n_cases."""
    if n_cases < 1:
        raise ValueError("case count must be at least 1")
    return (n_cases - 1).bit_length()


def decode_codon(s: int, n_cases: int, k: int) -> int:
    """Map codon value s in [0, 2^k) to a placement index in [0, n_cases)."""
    if not 0 <= s < (1 << k):
        raise ValueError(f"codon value {s} out of range for {k} bits")
    return (s * n_cases) >> k


def decode_indices(bits: np.ndarray, n_cases: int) -> np.ndarray:
    """Decode a (B, g*k) bit array into the (B, g) placement indices."""
    k = codon_bits(n_cases)
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2 or k == 0 or bits.shape[1] % k != 0:
        raise ValueError(f"chromosome length {bits.shape} is not a multiple of codon width {k}")
    weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    s = bits.reshape(len(bits), bits.shape[1] // k, k) @ weights
    return (s * n_cases) >> k


def decode(bits, m: int, gs: GateSet) -> list[Placement]:
    """Decode a bit sequence of length g*k into g placements."""
    bits = np.asarray(bits, dtype=np.uint8)
    table = gs.table(m)
    if bits.ndim != 1:
        raise ValueError(f"chromosome shape {bits.shape} is not one-dimensional")
    return [table.cases[i] for i in decode_indices(bits[None], len(table))[0]]


# (control wire, its idle basis states, its active ones) of a two-qubit
# matrix: the upper wire is the more significant bit of the basis index
_CONTROLS = ((0, [0, 1], [2, 3]), (1, [0, 2], [1, 3]))
_X = np.array([[0, 1], [1, 0]])


def _cells(p: Placement) -> dict:
    """The drawn cell of each wire a non-wire placement acts on.

    A two-qubit matrix that is the identity on the basis states where one of
    its wires is 0 is controlled by that wire, drawn `o`; its target is drawn
    `(+)` when the controlled gate is X.  The first wire that qualifies is
    the control, so a symmetric one (CZ) draws it on the upper wire.
    """
    if p.span == 1:
        return {p.top: f"[{p.name}]"}
    a = p.matrix
    for control, idle, active in _CONTROLS:
        if np.array_equal(a[idle], np.eye(4)[idle]):
            target = "(+)" if np.array_equal(a[np.ix_(active, active)], _X) else f"[{p.name}]"
            return {p.top + control: "o", p.top + 1 - control: target}
    return {p.top: f"[{p.name}", p.top + 1: f"{p.name}]"}


def render_ascii(circuit, m: int) -> str:
    """Draw the circuit as m wire rows, time running left to right."""
    columns = []
    for p in circuit:
        if p.is_wire:
            continue
        cells = _cells(p)
        width = max(len(c) for c in cells.values()) + 2
        col = []
        for q in range(m):
            cell = cells.get(q, "")
            pad = width - len(cell)
            col.append("-" * (pad // 2) + cell + "-" * (pad - pad // 2))
        columns.append(col)
    rows = []
    for q in range(m):
        body = "".join(col[q] for col in columns) if columns else "---"
        rows.append(f"q{q}: ---{body}---")
    return "\n".join(rows)


def circuit_to_json(circuit, m: int) -> dict:
    """Exportable form: non-wire gates in time order plus the derived cost."""
    return {
        "qubits": m,
        "gates": [{"gate": p.name, "top": p.top} for p in circuit if not p.is_wire],
        "cost": sum(p.cost for p in circuit),
    }


def circuit_from_json(data: dict, gs: GateSet) -> tuple[list[Placement], int]:
    """Rebuild (circuit, qubit count) from the JSON form."""
    qubits, gates = json_fields(json_object(data, "a circuit file"), "a circuit file",
                                "qubits", "gates")
    m = whole_number(qubits, "circuit qubits")
    require_qubits(m, "circuit qubits")
    circuit = []
    for i, e in enumerate(json_list(gates, "circuit gates")):
        what = f"circuit gate {i}"
        name, top = json_fields(json_object(e, what), what, "gate", "top")
        if not isinstance(name, str):
            raise ValueError(f"{what}: gate must be a name, got {name!r}")
        circuit.append(gs.placement(name, whole_number(top, f"gate {name!r}: top"), m))
    return circuit, m

