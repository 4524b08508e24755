"""Binary chromosome -> circuit decoding.

A chromosome of g*k bits splits into g codons of k bits each, read
big-endian.  Codon value s selects placement index floor(s*N / 2^k), so
every bit pattern decodes to a valid circuit and each index has either
floor(2^k/N) or ceil(2^k/N) preimages.  A circuit's JSON form and its
drawing are in `cli`.
"""
from __future__ import annotations

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

