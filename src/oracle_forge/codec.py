"""Binary chromosome <-> circuit translation.

A chromosome of g*k bits splits into g codons of k bits each, read
big-endian.  Codon value s selects placement index floor(s*N / 2^k), so
every bit pattern decodes to a valid circuit and each index has either
floor(2^k/N) or ceil(2^k/N) preimages.
"""
from __future__ import annotations

import json

import numpy as np

from .gates import GateSet, Placement


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


def bits_from_string(text: str) -> np.ndarray:
    """Parse a "0101"-style string (spaces allowed) into a bit array."""
    return np.array([int(c) for c in text if c in "01"], dtype=np.uint8)


def render_ascii(circuit, m: int) -> str:
    """Draw the circuit as m wire rows, time running left to right."""
    columns = []
    for p in circuit:
        if p.is_wire:
            continue
        cells = {}
        if p.span == 1:
            cells[p.top] = f"[{p.name}]"
        elif p.name == "CNOT":
            cells[p.top] = "o"
            cells[p.top + 1] = "(+)"
        elif p.name == "CNOT2":
            cells[p.top] = "(+)"
            cells[p.top + 1] = "o"
        else:
            cells[p.top] = f"[{p.name}"
            cells[p.top + 1] = f"{p.name}]"
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
    m = int(data["qubits"])
    circuit = [gs.placement(e["gate"], int(e["top"]), m) for e in data["gates"]]
    return circuit, m


def save_circuit(circuit, m: int, path) -> None:
    with open(path, "w") as f:
        json.dump(circuit_to_json(circuit, m), f, indent=2)
        f.write("\n")


def load_circuit(path, gs: GateSet) -> tuple[list[Placement], int]:
    with open(path) as f:
        return circuit_from_json(json.load(f), gs)
