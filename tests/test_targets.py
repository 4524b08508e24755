import json

import numpy as np
import pytest

from oracle_forge.cli import goal_from_json, goal_to_json
from oracle_forge.evaluate import correctness, circuit_unitary
from oracle_forge.gates import default_gate_set
from oracle_forge.linalg import identity, is_unitary
from oracle_forge.targets import BUILTIN_NAMES, builtin


def test_builtin_names():
    assert set(BUILTIN_NAMES) == {"swap", "entangle2", "entangle3", "controlled_s"}
    with pytest.raises(ValueError):
        builtin("nope")


def test_all_builtins_unitary_with_costs():
    for name in BUILTIN_NAMES:
        goal = builtin(name)
        assert is_unitary(goal.matrix, 1e-12)
        assert goal.optimal_cost is not None


def test_swap_permutation():
    g = builtin("swap")
    col = g.matrix @ np.array([0, 1, 0, 0], dtype=complex)  # input |01>
    assert np.array_equal(col, np.array([0, 0, 1, 0], dtype=complex))  # |10>


def test_entangle2_bell_state():
    g = builtin("entangle2")
    col = g.matrix @ np.array([1, 0, 0, 0], dtype=complex)
    want = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert np.abs(col - want).max() <= 1e-14


def test_entangle3_ghz_state():
    g = builtin("entangle3")
    col = g.matrix @ np.eye(8, dtype=complex)[:, 0]
    want = np.zeros(8, dtype=complex)
    want[0] = want[7] = 1 / np.sqrt(2)
    assert np.abs(col - want).max() <= 1e-14


def test_controlled_s_diagonal():
    assert np.array_equal(builtin("controlled_s").matrix, np.diag([1, 1, 1, 1j]))


def test_reference_circuits_reproduce_goals():
    gs = default_gate_set()
    refs = {
        "swap": [("CNOT", 0), ("CNOT2", 0), ("CNOT", 0)],
        "entangle2": [("H", 0), ("CNOT", 0)],
        "entangle3": [("H", 0), ("CNOT", 0), ("CNOT", 1)],
    }
    for name, gates in refs.items():
        goal = builtin(name)
        circuit = [gs.placement(n, t, goal.num_qubits) for n, t in gates]
        lam = circuit_unitary(circuit, goal.num_qubits)
        assert correctness(lam, goal) == pytest.approx(1.0, abs=1e-12)


def test_save_load_round_trip():
    goal = builtin("entangle3")
    back = goal_from_json(json.loads(json.dumps(goal_to_json(goal))))
    assert back.num_qubits == 3
    assert back.optimal_cost == 5
    assert np.abs(back.matrix - goal.matrix).max() <= 1e-15


def test_load_rejects_non_unitary():
    with pytest.raises(ValueError, match="not unitary"):
        goal_from_json({"qubits": 1, "matrix": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]})


def test_goal_file_off_by_2e9_gets_the_unified_error():
    # within the old 1e-8 file tolerance, but not the 1e-10 every matrix is held to
    with pytest.raises(ValueError) as err:
        goal_from_json({"qubits": 1, "matrix": [[[1.000000002, 0], [0, 0]], [[0, 0], [1, 0]]]})
    assert str(err.value) == ("goal matrix is not unitary: max |U^dag U - I| = 4.000e-09, "
                              "over the tolerance 1e-10")


def test_load_rejects_wrong_dimension():
    rows = [[[1, 0], [0, 0], [0, 0]],
            [[0, 0], [1, 0], [0, 0]],
            [[0, 0], [0, 0], [1, 0]]]
    with pytest.raises(ValueError):
        goal_from_json({"qubits": 2, "matrix": rows})


def test_save_load_identity_goal():
    from oracle_forge.evaluate import GoalSpec
    goal = GoalSpec(2, identity(4), name="identity")
    back = goal_from_json(json.loads(json.dumps(goal_to_json(goal))))
    assert np.array_equal(back.matrix, identity(4))
    assert back.optimal_cost is None


@pytest.mark.parametrize("field,value", [("optimal_cost", 1.9), ("optimal_cost", False),
                                         ("qubits", 1.5), ("qubits", "1")])
def test_load_rejects_a_non_whole_qubit_count_or_optimal_cost(field, value):
    data = {"qubits": 1, "matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], field: value}
    with pytest.raises(ValueError, match=f"^goal {field} must be a whole number, got "):
        goal_from_json(data)


@pytest.mark.parametrize("field", ["qubits", "optimal_cost", "name"])
def test_load_reads_a_null_optional_field_as_absent(field):
    # a null optimal cost read as none, but a null name or qubit count was
    # rejected as a value of the wrong type
    data = goal_to_json(builtin("entangle2"))
    got = goal_from_json({**data, field: None})
    want = goal_from_json({key: value for key, value in data.items() if key != field})
    assert (got.num_qubits, got.optimal_cost, got.name) == \
        (want.num_qubits, want.optimal_cost, want.name)
    assert np.array_equal(got.matrix, want.matrix)


@pytest.mark.parametrize("data,message", [
    ([[1, 0], [0, 1]], "a goal file must be a JSON object, got a list"),
    ({"matrix": 5}, "goal matrix must be a list of equally long rows of [re, im] number pairs"),
    ({"matrix": [[1, 0], [0, 1]]}, "goal matrix must be a list of equally long rows of "
                                   "[re, im] number pairs"),
])
def test_load_rejects_a_goal_file_of_the_wrong_shape(data, message):
    with pytest.raises(ValueError) as exc:
        goal_from_json(data)
    assert str(exc.value) == message
