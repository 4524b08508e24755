import numpy as np
import pytest

from oracle_forge.cli import extend_gate_set
from oracle_forge.evaluate import GoalSpec
from oracle_forge.gates import (
    CNOT2_MATRIX,
    CNOT_MATRIX,
    Gate,
    GateSet,
    H_MATRIX,
    S_MATRIX,
    T_MATRIX,
    case_count,
    default_gate_set,
    placement_operator,
)
from oracle_forge.kron_apply import block_step, row_sparse
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
    p = gs.cases(2)[0]
    assert p.is_wire and p.top == 0 and p.span == 1 and p.cost == 0
    assert np.array_equal(p.matrix, identity(2))


def test_case_ordering_anchors(gs):
    p = gs.cases(2)[1]
    assert (p.name, p.top) == ("S", 0)
    p = gs.cases(2)[8]
    assert (p.name, p.top) == ("CNOT2", 0)


def test_case_bijection(gs):
    for m in (1, 2, 3, 4):
        n = case_count(m, gs)
        cases = gs.cases(m)
        assert len(cases) == n
        assert len({(p.name, p.top) for p in cases}) == n


def test_gate_matrices():
    assert np.array_equal(S_MATRIX, np.diag([1, 1j]))
    assert np.abs(S_MATRIX @ S_MATRIX - np.diag([1, -1])).max() <= 1e-15
    assert np.abs(T_MATRIX @ T_MATRIX - S_MATRIX).max() <= 1e-14
    hh = kron(H_MATRIX, H_MATRIX)
    assert np.abs(CNOT2_MATRIX - hh @ CNOT_MATRIX @ hh).max() <= 1e-12


def test_all_gate_matrices_unitary():
    for matrix in (S_MATRIX, T_MATRIX, H_MATRIX, CNOT_MATRIX, CNOT2_MATRIX):
        assert is_unitary(matrix, 1e-14)


def test_placement_costs(gs):
    cases = gs.cases(2)
    assert cases[0].cost == 0          # wire
    assert gs.placement("H", 1, 2).cost == 1
    assert gs.placement("CNOT", 0, 2).cost == 2
    # S, T and H cost 1 on each qubit, CNOT 2 in each orientation
    assert [p.cost for p in cases] == [0] + [1] * 6 + [2] * 2


def test_empty_gate_set_rejected():
    with pytest.raises(ValueError):
        GateSet(())


def test_gate_unitarity_enforced():
    with pytest.raises(ValueError):
        Gate("bad", np.diag([1, 2]).astype(complex), 1)
    # the same check and message as for goal matrices
    with pytest.raises(ValueError, match=r"^gate 'near' is not unitary: max \|U\^dag U - I\| = "
                                         r"4\.000e-09, over the tolerance 1e-10$"):
        Gate("near", np.diag([1 + 2e-9, 1]).astype(complex), 1)


@pytest.mark.parametrize("build,what", [
    (lambda matrix: Gate("R", matrix, 1), "gate 'R': matrix"),
    (lambda matrix: GoalSpec(1, matrix), "goal matrix"),
], ids=["gate", "goal"])
def test_a_gate_or_goal_matrix_is_converted_once_to_a_complex_array(build, what):
    assert build([[0, 1], [1, 0]]).matrix.dtype == complex
    assert build(np.array([[0, 1], [1, 0]])).matrix.dtype == complex
    with pytest.raises(ValueError) as err:
        build([[1, 0], [0]])
    assert str(err.value) == f"{what} must be a rectangular array of numbers"


def test_gate_rejects_a_matrix_of_the_wrong_shape_or_a_non_finite_entry():
    cases = [
        (np.zeros((2, 3)), "gate 'bad': matrix must be 2x2 or 4x4, got shape (2, 3)"),
        ([], "gate 'bad': matrix must be 2x2 or 4x4, got shape (0,)"),
        ([[1, np.nan], [0, 1]], "gate 'bad' has a non-finite entry"),
        ([[1, 1j * np.inf], [0, 1]], "gate 'bad' has a non-finite entry"),
    ]
    for matrix, message in cases:
        with pytest.raises(ValueError) as err:
            Gate("bad", matrix, 1)
        assert str(err.value) == message


def test_extend_gate_set(gs):
    x = [[0, 1], [1, 0]]
    entries = [
        {"name": "X", "arity": 1, "cost": 1,
         "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]},
    ]
    ext = extend_gate_set(gs, entries)
    assert [g.name for g in ext.gates] == ["S", "T", "H", "CNOT", "X"]
    assert case_count(2, ext) == 4 * 2 + 2 * 1 * 1 + 1
    assert np.array_equal(ext.placement("X", 0, 2).matrix, np.array(x, dtype=complex))


def test_extend_gate_set_rejects_non_unitary(gs):
    entries = [{"name": "bad", "arity": 1, "cost": 1,
                "matrix": [[[2, 0], [0, 0]], [[0, 0], [1, 0]]]}]
    with pytest.raises(ValueError):
        extend_gate_set(gs, entries)


def test_two_qubit_orientations_both_enumerated(gs):
    cases = gs.cases(3)
    names = [(p.name, p.top) for p in cases if p.span == 2]
    assert names == [("CNOT", 0), ("CNOT2", 0), ("CNOT", 1), ("CNOT2", 1)]


def _gate_entries(*entries):
    x1 = [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]
    swap = [[[1 if (r, c) in ((0, 0), (1, 2), (2, 1), (3, 3)) else 0, 0] for c in range(4)]
            for r in range(4)]
    return [{"name": name, "arity": arity, "cost": 1, "matrix": x1 if arity == 1 else swap}
            for name, arity in entries]


@pytest.mark.parametrize("entries,clash", [
    ((("X2", 1), ("X", 2)), "'X2'"),    # one-qubit X2 vs the flipped orientation of family X
    ((("X", 2), ("X2", 1)), "'X2'"),
    ((("H", 1),), "'H'"),               # duplicate of a built-in one-qubit gate
    ((("CNOT", 2),), "'CNOT'"),         # duplicate family
    ((("CNOT2", 1),), "'CNOT2'"),       # the built-in family's flipped name
    ((("wire", 1),), "'wire'"),         # reserved for the no-op placement
])
def test_extend_gate_set_rejects_name_clashes(gs, entries, clash):
    with pytest.raises(ValueError, match=clash):
        extend_gate_set(gs, _gate_entries(*entries))


def test_placements_are_unique_by_name_and_top(gs):
    ext = extend_gate_set(gs, _gate_entries(("X", 1), ("W", 2)))
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
    assert table.cases[0].is_wire and table.costs[0] == 0
    assert list(table.costs) == [p.cost for p in table.cases]
    for p in table.cases:
        op = placement_operator(p, 3)
        assert op.m == 1 << p.top and op.k == 1 << (3 - p.top - p.span)
        assert np.array_equal(op.gate, p.matrix)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_every_table_entry_is_built_from_its_own_operator(gs, m):
    # the wire included: it is the identity on qubit 0, with no special case
    ext = extend_gate_set(gs, _gate_entries(("X", 1), ("W", 2)))
    for table in (gs.table(m), ext.table(m)):
        for i, p in enumerate(table.cases):
            op = placement_operator(p, m)
            step, (cols, vals) = block_step(op, 1 << m), row_sparse(op, 1 << m)
            got = table.steps[i]
            assert (got.shape, got.kind, len(got.entries)) == (
                step.shape, step.kind, len(step.entries))
            assert all(np.array_equal(a, b) for a, b in zip(got.entries, step.entries))
            w = table.width[i]
            assert w == cols.shape[1]
            assert np.array_equal(table.cols[i, :, :w], cols)
            assert np.array_equal(table.vals[i, :, :w], vals)
        wire = table.steps[0]
        assert (wire.kind, wire.entries, table.width[0]) == ("diagonal", (), 1)
        assert table.cols[0, :, 0].tolist() == list(range(1 << m))


def test_one_qubit_gates_are_numbered_before_the_families_in_the_order_given():
    cz = Gate("CZ", np.diag([1, 1, 1, -1]), 2)
    mixed = GateSet((Gate("S", S_MATRIX, 1), cz, Gate("T", T_MATRIX, 1)))
    assert [(p.name, p.top) for p in mixed.cases(2)] == [
        ("wire", 0), ("S", 0), ("S", 1), ("T", 0), ("T", 1), ("CZ", 0), ("CZ2", 0)]
    assert case_count(2, mixed) == 7


def test_a_table_beyond_the_largest_matrix_is_rejected_before_it_is_built():
    gs = default_gate_set()
    with pytest.raises(ValueError, match="^qubit count must be from 1 to 10, got 11$"):
        gs.table(11)
    assert gs._tables == {}


def test_default_gate_set_builds_no_table():
    assert default_gate_set()._tables == {}


@pytest.mark.parametrize("field,value", [
    ("cost", 1.9), ("cost", True), ("cost", "1"), ("arity", 1.4), ("arity", None),
])
def test_extend_gate_set_rejects_a_non_whole_cost_or_arity(gs, field, value):
    entry = {"name": "X", "arity": 1, "cost": 1, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
    with pytest.raises(ValueError, match=f"^gate 'X': {field} must be a whole number, got "):
        extend_gate_set(gs, [{**entry, field: value}])


def test_extend_gate_set_takes_a_whole_float_cost(gs):
    entry = {"name": "X", "arity": 1.0, "cost": 3.0,
             "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}
    cost = extend_gate_set(gs, [entry]).placement("X", 0, 1).cost
    assert cost == 3 and type(cost) is int


@pytest.mark.parametrize("matrix", [
    5, [5], [[1, 0], [0, 1]], [[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]],
    [[[1, 0], [0, 0]], [[0, 0]]], [[[1, "0"], [0, 0]], [[0, 0], [1, 0]]],
    [[[True, 0], [0, 0]], [[0, 0], [1, 0]]],
])
def test_extend_gate_set_rejects_a_matrix_that_is_not_rows_of_pairs(gs, matrix):
    with pytest.raises(ValueError, match="^gate 'X': matrix must be a list of equally long rows "):
        extend_gate_set(gs, [{"name": "X", "arity": 1, "cost": 1, "matrix": matrix}])


@pytest.mark.parametrize("entries,message", [
    ({}, "a gate file must be a JSON list, got an object"),
    ([[1]], "gate entry 0 must be a JSON object, got a list"),
    ([{"name": 3, "arity": 1, "cost": 1, "matrix": []}], "gate entry 0: name must be a string, got 3"),
])
def test_extend_gate_set_rejects_a_file_of_the_wrong_shape(gs, entries, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        extend_gate_set(gs, entries)
