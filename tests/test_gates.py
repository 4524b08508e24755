import json

import numpy as np
import pytest

from oracle_forge.gates import (
    CNOT2_MATRIX,
    CNOT_MATRIX,
    CostModel,
    Gate,
    GateSet,
    H_MATRIX,
    S_MATRIX,
    T_MATRIX,
    case_count,
    case_from_index,
    default_gate_set,
    extend_gate_set,
    gate_matrix,
    placement_cost,
)
from oracle_forge.linalg import identity, is_unitary, kron


@pytest.fixture
def gs():
    return default_gate_set()


def test_case_count_formula(gs):
    assert case_count(2, gs) == 9
    assert case_count(3, gs) == 14
    assert case_count(1, gs) == 4


def test_case_count_increasing(gs):
    counts = [case_count(m, gs) for m in range(1, 8)]
    assert counts == sorted(set(counts))


def test_case_zero_is_wire(gs):
    p = case_from_index(0, 2, gs)
    assert p.is_wire and p.top == 0 and p.span == 2


def test_case_ordering_anchors(gs):
    p = case_from_index(1, 2, gs)
    assert (p.name, p.top) == ("S", 0)
    p = case_from_index(8, 2, gs)
    assert (p.name, p.top) == ("CNOT2", 0)


def test_case_bijection(gs):
    for m in (1, 2, 3, 4):
        n = case_count(m, gs)
        seen = {(p.name, p.top) for p in (case_from_index(i, m, gs) for i in range(n))}
        assert len(seen) == n
        with pytest.raises(ValueError):
            case_from_index(n, m, gs)
        with pytest.raises(ValueError):
            case_from_index(-1, m, gs)


def test_gate_matrices():
    assert np.array_equal(gate_matrix("S"), np.diag([1, 1j]))
    assert np.abs(gate_matrix("S") @ gate_matrix("S") - np.diag([1, -1])).max() <= 1e-15
    assert np.abs(gate_matrix("T") @ gate_matrix("T") - gate_matrix("S")).max() <= 1e-14
    hh = kron(H_MATRIX, H_MATRIX)
    assert np.abs(gate_matrix("CNOT2") - hh @ gate_matrix("CNOT") @ hh).max() <= 1e-12


def test_gate_matrix_wire_and_unknown():
    with pytest.raises(ValueError):
        gate_matrix("wire")
    with pytest.raises(ValueError):
        gate_matrix("Q")


def test_all_gate_matrices_unitary():
    for name in ("S", "T", "H", "CNOT", "CNOT2"):
        assert is_unitary(gate_matrix(name), 1e-14)


def test_placement_costs(gs):
    cases = gs.cases(2)
    assert placement_cost(cases[0]) == 0          # wire
    assert placement_cost(gs.placement("H", 1, 2)) == 1
    assert placement_cost(gs.placement("CNOT", 0, 2)) == 2


def test_cost_model_configurable():
    gs = default_gate_set(CostModel(one_qubit_cost=3, two_qubit_cost=5))
    assert gs.placement("H", 0, 2).cost == 3
    assert gs.placement("CNOT", 0, 2).cost == 5


def test_empty_gate_set_rejected():
    with pytest.raises(ValueError):
        GateSet(one_qubit=(), two_qubit=())


def test_gate_unitarity_enforced():
    with pytest.raises(ValueError):
        Gate("bad", np.diag([1, 2]).astype(complex), 1)


def test_extend_gate_set(tmp_path, gs):
    x = [[0, 1], [1, 0]]
    entries = [
        {"name": "X", "arity": 1, "cost": 1,
         "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
    ]
    path = tmp_path / "gates.json"
    path.write_text(json.dumps(entries))
    ext = extend_gate_set(gs, path)
    assert ext.n1 == 4
    assert case_count(2, ext) == 4 * 2 + 2 * 1 * 1 + 1
    assert np.array_equal(ext.placement("X", 0, 2).matrix, np.array(x, dtype=complex))


def test_extend_gate_set_rejects_non_unitary(tmp_path, gs):
    entries = [{"name": "bad", "arity": 1, "cost": 1,
                "matrix": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]}]
    path = tmp_path / "gates.json"
    path.write_text(json.dumps(entries))
    with pytest.raises(ValueError):
        extend_gate_set(gs, path)


def test_two_qubit_orientations_both_enumerated(gs):
    cases = gs.cases(3)
    names = [(p.name, p.top) for p in cases if p.span == 2]
    assert names == [("CNOT", 0), ("CNOT2", 0), ("CNOT", 1), ("CNOT2", 1)]


def _gate_file(tmp_path, *entries):
    x1 = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    swap = [[[1 if (r, c) in ((0, 0), (1, 2), (2, 1), (3, 3)) else 0, 0] for c in range(4)]
            for r in range(4)]
    path = tmp_path / "gates.json"
    path.write_text(json.dumps([{"name": name, "arity": arity, "cost": 1,
                                 "matrix": x1 if arity == 1 else swap}
                                for name, arity in entries]))
    return path


@pytest.mark.parametrize("entries,clash", [
    ((("X2", 1), ("X", 2)), "'X2'"),    # one-qubit X2 vs the flipped orientation of family X
    ((("X", 2), ("X2", 1)), "'X2'"),
    ((("H", 1),), "'H'"),               # duplicate of a built-in one-qubit gate
    ((("CNOT", 2),), "'CNOT'"),         # duplicate family
    ((("CNOT2", 1),), "'CNOT2'"),       # the built-in family's flipped name
    ((("wire", 1),), "'wire'"),         # reserved for the no-op placement
])
def test_extend_gate_set_rejects_name_clashes(tmp_path, gs, entries, clash):
    with pytest.raises(ValueError, match=clash):
        extend_gate_set(gs, _gate_file(tmp_path, *entries))


def test_placements_are_unique_by_name_and_top(tmp_path, gs):
    ext = extend_gate_set(gs, _gate_file(tmp_path, ("X", 1), ("W", 2)))
    table = ext.table(3)
    assert len(table.index) == len(table) == case_count(3, ext)
    for i, p in enumerate(table.cases):
        assert ext.placement(p.name, p.top, 3) is p
        assert table.index[(p.name, p.top)] == i


def test_placement_table_is_built_once_per_qubit_count(gs):
    assert gs.table(3) is gs.table(3)
    assert gs.cases(3) is gs.table(3).cases
    assert gs.table(2) is not gs.table(3)
    table = gs.table(3)
    assert table.operators[0] is None and table.costs[0] == 0
    assert list(table.costs) == [p.cost for p in table.cases]
    for p, op in zip(table.cases[1:], table.operators[1:]):
        assert op.m == 1 << p.top and op.k == 1 << (3 - p.top - p.span)
        assert np.array_equal(op.gate, p.matrix)


def test_default_gate_set_builds_no_table():
    assert default_gate_set()._tables == {}
