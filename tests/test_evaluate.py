import math

import numpy as np
import pytest

from oracle_forge.codec import decode
from oracle_forge.evaluate import (
    EvalResult,
    FitnessParams,
    GoalSpec,
    allcost,
    circuit_unitary,
    correctness,
    evaluate_circuit,
    fitness_value,
    is_success,
)
from oracle_forge.gates import default_gate_set
from oracle_forge.kron_apply import apply_structured, embed_dense
from oracle_forge.evaluate import placement_operator
from oracle_forge.linalg import MulCounter, identity, is_unitary, mat_mul_naive
from oracle_forge.targets import builtin

SQRT2_OVER_4 = math.sqrt(2) / 4


@pytest.fixture
def gs():
    return default_gate_set()


def random_circuit(rng, m, g, gs):
    from oracle_forge.codec import codon_bits
    from oracle_forge.gates import case_count
    k = codon_bits(case_count(m, gs))
    return decode(rng.integers(0, 2, g * k, dtype=np.uint8), m, gs)


def test_goal_validation():
    with pytest.raises(ValueError):
        GoalSpec(2, np.diag([1, 2, 1, 1]).astype(complex))
    with pytest.raises(ValueError):
        GoalSpec(3, identity(4))


@pytest.mark.parametrize("m", [0, 11])
def test_goal_qubit_count_is_checked_before_the_matrix(monkeypatch, m):
    # an 11-qubit goal spent seconds in its unitarity check before a table refused it
    from oracle_forge import evaluate

    def spy(*args):
        raise AssertionError("require_unitary called for an out-of-range qubit count")

    monkeypatch.setattr(evaluate, "require_unitary", spy)
    with pytest.raises(ValueError, match=f"^goal qubits must be from 1 to 10, got {m}$"):
        GoalSpec(m, np.eye(1 << m))


def test_fitness_params_validation():
    with pytest.raises(ValueError):
        FitnessParams(satcost=-1)
    with pytest.raises(ValueError):
        FitnessParams(satcost=0, award=0, punish=0)
    with pytest.raises(ValueError):
        FitnessParams(satcost=0, award=-1)


def test_circuit_unitary_empty(gs):
    circuit = decode(np.zeros(8, dtype=np.uint8), 2, gs)
    assert np.array_equal(circuit_unitary(circuit, 2), identity(4))


def test_circuit_unitary_single_gate(gs):
    circuit = [gs.placement("H", 0, 1)]
    assert np.abs(circuit_unitary(circuit, 1) - gs.placement("H", 0, 1).matrix).max() <= 1e-15


def test_circuit_unitary_entangle2(gs):
    circuit = [gs.placement("H", 0, 2), gs.placement("CNOT", 0, 2)]
    assert np.abs(circuit_unitary(circuit, 2) - builtin("entangle2").matrix).max() <= 1e-12


def test_circuit_unitary_matches_dense_product(gs):
    rng = np.random.default_rng(8)
    for _ in range(30):
        circuit = random_circuit(rng, 3, 6, gs)
        lam = circuit_unitary(circuit, 3)
        ref = identity(8)
        for p in circuit:
            if not p.is_wire:
                ref = embed_dense(placement_operator(p, 3)) @ ref
        assert np.abs(lam - ref).max() <= 1e-12


def test_lambda_always_unitary(gs):
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(1, 4))
        g = int(rng.integers(1, 9))
        lam = circuit_unitary(random_circuit(rng, m, g, gs), m)
        assert is_unitary(lam, 1e-10)


def test_correctness_examples(gs):
    goal = builtin("entangle2")
    assert correctness(goal.matrix, goal) == pytest.approx(1.0, abs=1e-12)
    assert correctness(identity(4), goal) == pytest.approx(SQRT2_OVER_4, abs=1e-12)
    phased = np.exp(1j * math.pi / 4) * goal.matrix
    assert correctness(phased, goal) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        correctness(identity(8), goal)


def test_correctness_bounds(gs):
    rng = np.random.default_rng(3)
    goal = builtin("entangle3")
    for _ in range(100):
        lam = circuit_unitary(random_circuit(rng, 3, 6, gs), 3)
        c = correctness(lam, goal)
        assert 0.0 <= c <= 1.0 + 1e-12


def test_allcost(gs):
    assert allcost(decode(np.zeros(8, dtype=np.uint8), 2, gs)) == 0
    assert allcost([gs.placement("H", 0, 2), gs.placement("CNOT", 0, 2)]) == 3
    swap = [gs.placement("CNOT", 0, 2), gs.placement("CNOT2", 0, 2),
            gs.placement("CNOT", 0, 2)]
    assert allcost(swap) == 6


def test_fitness_formula():
    p = FitnessParams(satcost=6, award=1, punish=20)
    assert fitness_value(3, 1.0, p) == pytest.approx(-3.0)
    p = FitnessParams(satcost=6, award=1, punish=1)
    assert fitness_value(0, SQRT2_OVER_4, p) == pytest.approx(-6 + (1 - SQRT2_OVER_4))
    p = FitnessParams(satcost=8, award=1, punish=100)
    assert fitness_value(8, 0.5, p) == pytest.approx(50.0)


def test_fitness_monotone_in_punish():
    prev = None
    for punish in (1, 5, 20, 100):
        f = fitness_value(3, 0.8, FitnessParams(satcost=6, award=1, punish=punish))
        if prev is not None:
            assert f > prev
        prev = f
    # with full correctness the punish term vanishes
    vals = {fitness_value(3, 1.0, FitnessParams(satcost=6, award=1, punish=p))
            for p in (1, 5, 20, 100)}
    assert len(vals) == 1


def test_argmin_shift_threshold():
    # empty circuit beats any correct circuit iff punish < 3 / (1 - sqrt2/4)
    threshold = 3 / (1 - SQRT2_OVER_4)
    for punish in (1, 4):
        fp = FitnessParams(satcost=6, award=1, punish=punish)
        assert fitness_value(0, SQRT2_OVER_4, fp) < fitness_value(3, 1.0, fp)
        assert punish < threshold
    for punish in (5, 20):
        fp = FitnessParams(satcost=6, award=1, punish=punish)
        assert fitness_value(3, 1.0, fp) < fitness_value(0, SQRT2_OVER_4, fp)
        assert punish > threshold


def test_is_success():
    lam = identity(4)
    assert is_success(EvalResult(lam, 1.0, 3, -1.0), FitnessParams(satcost=4))
    assert not is_success(EvalResult(lam, 0.9999, 3, 0.0), FitnessParams(satcost=4))
    assert not is_success(EvalResult(lam, 1.0, 7, 1.0), FitnessParams(satcost=6))


def test_structured_and_dense_counts_differ(gs):
    h = gs.placement("H", 1, 3)
    op = placement_operator(h, 3)  # I_2 (x) H (x) I_2
    structured, dense = MulCounter(), MulCounter()
    lam = apply_structured(op, identity(8), counter=structured)
    mat_mul_naive(embed_dense(op), identity(8), counter=dense)
    assert np.array_equal(lam, circuit_unitary([h], 3))
    # H has no zero entry, so the count is the full m^2 n^3 k^2
    assert structured.count == 4 * 8 * 4 < dense.count == 8 ** 3
