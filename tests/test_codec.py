import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_forge.cli import circuit_from_json, circuit_to_json, render_ascii
from oracle_forge.codec import codon_bits, decode, decode_codon, decode_indices
from oracle_forge.evaluate import circuit_unitary
from oracle_forge.gates import (
    H_MATRIX,
    SWAP_MATRIX,
    Gate,
    GateSet,
    case_count,
    default_gate_set,
)


@pytest.fixture
def gs():
    return default_gate_set()


def test_codon_bits():
    assert codon_bits(9) == 4
    assert codon_bits(14) == 4
    assert codon_bits(16) == 4
    assert codon_bits(17) == 5
    assert codon_bits(1) == 0
    with pytest.raises(ValueError):
        codon_bits(0)


def test_decode_codon_examples():
    assert decode_codon(0, 9, 4) == 0
    assert decode_codon(15, 9, 4) == 8
    assert decode_codon(7, 9, 4) == 3
    with pytest.raises(ValueError):
        decode_codon(16, 9, 4)


def test_decode_codon_monotone():
    for n_cases in (3, 9, 14, 30):
        k = codon_bits(n_cases)
        vals = [decode_codon(s, n_cases, k) for s in range(1 << k)]
        assert vals == sorted(vals)
        assert set(vals) == set(range(n_cases))


def test_preimage_balance():
    for n_cases in range(1, 65):
        k = codon_bits(n_cases)
        counts = [0] * n_cases
        for s in range(1 << k):
            counts[decode_codon(s, n_cases, k)] += 1
        lo, hi = (1 << k) // n_cases, -((1 << k) // -n_cases)
        assert all(c in (lo, hi) for c in counts)
        assert sum(counts) == 1 << k


def test_all_zero_decodes_to_wires(gs):
    circuit = decode(np.zeros(24, dtype=np.uint8), 2, gs)
    assert len(circuit) == 6
    assert all(p.is_wire for p in circuit)


def test_decode_indices_agrees_with_decode_codon_on_every_codon():
    # criterion 3's preimage balance is shown on decode_codon; evolve runs decode_indices
    for n_cases in range(2, 65):
        k = codon_bits(n_cases)
        values = np.arange(1 << k)
        bits = (values[:, None] >> np.arange(k - 1, -1, -1)) & 1
        assert decode_indices(bits, n_cases)[:, 0].tolist() == \
            [decode_codon(s, n_cases, k) for s in values.tolist()]


def test_decode_single_codon(gs):
    circuit = decode(np.array([1, 1, 1, 1], dtype=np.uint8), 2, gs)
    assert [(p.name, p.top) for p in circuit] == [("CNOT2", 0)]


def test_decode_two_codons(gs):
    circuit = decode(np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.uint8), 2, gs)
    assert circuit[0].is_wire
    assert (circuit[1].name, circuit[1].top) == ("CNOT2", 0)


def test_decode_length_mismatch(gs):
    with pytest.raises(ValueError):
        decode(np.zeros(7, dtype=np.uint8), 2, gs)


def test_decode_total_on_random_bits(gs):
    rng = np.random.default_rng(0)
    for _ in range(200):
        bits = rng.integers(0, 2, 24, dtype=np.uint8)
        circuit = decode(bits, 2, gs)
        assert len(circuit) == 6
        for p in circuit:
            assert p.is_wire or p.top + p.span <= 2


def test_render_ascii_gate_symbols(gs):
    circuit = [gs.placement("H", 0, 2), gs.placement("CNOT", 0, 2)]
    text = render_ascii(circuit, 2)
    lines = text.splitlines()
    assert len(lines) == 2
    assert "[H]" in lines[0] and "o" in lines[0]
    assert "(+)" in lines[1]


def test_render_ascii_all_wire(gs):
    circuit = decode(np.zeros(8, dtype=np.uint8), 2, gs)
    lines = render_ascii(circuit, 2).splitlines()
    assert lines[0].startswith("q0:") and "[" not in lines[0]


def test_render_ascii_swap_reference(gs):
    circuit = [gs.placement("CNOT", 0, 2), gs.placement("CNOT2", 0, 2),
               gs.placement("CNOT", 0, 2)]
    text = render_ascii(circuit, 2)
    assert text.splitlines()[0].count("o") == 2
    assert text.splitlines()[1].count("o") == 1


def test_render_ascii_draws_controls_from_the_oriented_matrix(gs):
    # CNOT and CNOT2 draw as they always have
    text = render_ascii([gs.placement("CNOT", 0, 2), gs.placement("CNOT2", 0, 2)], 2)
    assert text == "q0: -----o---(+)----\nq1: ----(+)---o-----"
    # a user controlled-H family: its control is on the upper wire, and on
    # the lower one in its swapped orientation
    controlled = np.eye(4, dtype=complex)
    controlled[2:, 2:] = H_MATRIX
    user = GateSet((Gate("CU", controlled, 2),))
    text = render_ascii([user.placement("CU", 0, 3), user.placement("CU2", 1, 3)], 3)
    assert text.splitlines() == ["q0: -----o-------------",
                                 "q1: ----[CU]--[CU2]----",
                                 "q2: ------------o------"]
    # a gate controlled by neither wire spans both
    swap = GateSet((Gate("SW", SWAP_MATRIX, 3),))
    assert render_ascii([swap.placement("SW", 0, 2)], 2) == "q0: ----[SW----\nq1: ----SW]----"


def test_circuit_json_round_trip(gs):
    circuit = [gs.placement("H", 0, 2), gs.cases(2)[0], gs.placement("CNOT", 0, 2)]
    data = circuit_to_json(circuit, 2)
    assert data["cost"] == 3
    assert data["gates"] == [{"gate": "H", "top": 0}, {"gate": "CNOT", "top": 0}]
    rebuilt, m = circuit_from_json(data, gs)
    assert m == 2
    assert [(p.name, p.top) for p in rebuilt] == [("H", 0), ("CNOT", 0)]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), g=st.integers(1, 8))
def test_codon_bits_of_any_indices_decode_back(data, m, g):
    gs = default_gate_set()
    table = gs.table(m)
    n = len(table)
    k = codon_bits(n)
    indices = data.draw(st.lists(st.integers(0, n - 1), min_size=g, max_size=g))
    bits = []
    for i in indices:
        # any codon value in the preimage of i: [ceil(i 2^k / n), ceil((i+1) 2^k / n))
        lo, end = (-((-j << k) // n) for j in (i, i + 1))
        s = data.draw(st.integers(lo, end - 1))
        bits += [(s >> (k - 1 - b)) & 1 for b in range(k)]
    bits = np.array(bits, dtype=np.uint8)
    assert decode_indices(bits[None], n)[0].tolist() == indices
    assert all(p is table.cases[i] for p, i in zip(decode(bits, m, gs), indices))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), g=st.integers(0, 8))
def test_circuit_json_file_round_trip(data, m, g):
    gs = default_gate_set()
    table = gs.table(m)
    circuit = [table.cases[i] for i in data.draw(
        st.lists(st.integers(0, len(table) - 1), min_size=g, max_size=g))]
    # through the JSON text a circuit file holds
    rebuilt, m_back = circuit_from_json(json.loads(json.dumps(circuit_to_json(circuit, m))), gs)
    gates = [p for p in circuit if not p.is_wire]
    assert m_back == m
    assert len(rebuilt) == len(gates) and all(a is b for a, b in zip(rebuilt, gates))
    assert circuit_to_json(rebuilt, m) == circuit_to_json(circuit, m)
    assert np.array_equal(circuit_unitary(rebuilt, m), circuit_unitary(circuit, m))


@pytest.mark.parametrize("gate", [{"gate": "H", "top": 0.7}, {"gate": "H", "top": True}])
def test_circuit_from_json_rejects_a_non_whole_top(gs, gate):
    with pytest.raises(ValueError, match="^gate 'H': top must be a whole number, got "):
        circuit_from_json({"qubits": 2, "gates": [gate]}, gs)
    with pytest.raises(ValueError, match="^circuit qubits must be a whole number, got 2.5"):
        circuit_from_json({"qubits": 2.5, "gates": []}, gs)


@pytest.mark.parametrize("data,message", [
    ([], "a circuit file must be a JSON object, got a list"),
    ({"qubits": 2, "gates": 5}, "circuit gates must be a JSON list, got 5"),
    ({"qubits": 2, "gates": {"gate": "H", "top": 0}},
     "circuit gates must be a JSON list, got an object"),
    ({"qubits": 2, "gates": ["H"]}, "circuit gate 0 must be a JSON object, got 'H'"),
    ({"qubits": 2, "gates": [{"gate": 7, "top": 0}]}, "circuit gate 0: gate must be a name, got 7"),
])
def test_circuit_from_json_rejects_the_wrong_shape(gs, data, message):
    with pytest.raises(ValueError) as exc:
        circuit_from_json(data, gs)
    assert str(exc.value) == message
