import math

import numpy as np
import pytest

from oracle_forge.engine import (
    BatchStats,
    HqeaParams,
    THETA_MAX,
    THETA_MIN,
    evolve,
    init_population,
    observe,
    rotate_toward,
    run_batch,
)
from oracle_forge.evaluate import FitnessParams, GoalSpec, is_success
from oracle_forge.gates import default_gate_set
from oracle_forge.linalg import identity
from oracle_forge.targets import builtin


@pytest.fixture
def gs():
    return default_gate_set()


def small_params(**kw):
    defaults = dict(fitness=FitnessParams(satcost=6, award=1, punish=20),
                    max_gen=50, seed=1)
    defaults.update(kw)
    return HqeaParams(**defaults)


def test_params_validation():
    with pytest.raises(ValueError):
        small_params(pop_size=0)
    with pytest.raises(ValueError):
        small_params(mutation_prob=1.5)


def test_init_population_uniform():
    pop = init_population(20, 24)
    assert pop.shape == (20, 24)
    assert np.all(pop == math.pi / 4)
    # alpha = beta = 1/sqrt2
    assert np.abs(np.cos(pop) - 1 / math.sqrt(2)).max() <= 1e-15


def test_observe_deterministic_extremes():
    rng = np.random.default_rng(0)
    assert not observe(np.zeros(50), rng).any()
    assert observe(np.full(50, math.pi / 2), rng).all()


def test_observe_statistics_match_beta_squared():
    # empirical P(1) within 3 sigma of sin^2(theta) over 1e5 samples
    rng = np.random.default_rng(5)
    for theta in (0.3, math.pi / 4, 1.2):
        n = 100_000
        ones = int(observe(np.full(n, theta), rng).sum())
        p = math.sin(theta) ** 2
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(ones - n * p) <= 3 * sigma


def test_rotation_preserves_normalization():
    rng = np.random.default_rng(2)
    theta = np.full(32, math.pi / 4)
    for _ in range(10_000):
        bits = rng.integers(0, 2, 32, dtype=np.uint8)
        theta = rotate_toward(theta, bits, 0.01 * math.pi)
        norm = np.cos(theta) ** 2 + np.sin(theta) ** 2
        assert np.abs(norm - 1).max() <= 1e-12
    assert theta.min() >= THETA_MIN and theta.max() <= THETA_MAX


def test_rotation_accumulates_toward_one():
    theta = np.full(8, math.pi / 4)
    ones = np.ones(8, dtype=np.uint8)
    for _ in range(200):
        theta = rotate_toward(theta, ones, 0.01 * math.pi)
    assert (np.sin(theta) ** 2).min() >= 0.99


def test_rotation_single_step():
    theta = rotate_toward(np.array([math.pi / 4]), np.array([1]), 0.01 * math.pi)
    assert math.sin(theta[0]) ** 2 > 0.5


def test_identity_goal_succeeds_immediately(gs):
    goal = GoalSpec(1, identity(2), name="identity")
    params = small_params(fitness=FitnessParams(satcost=0, award=1, punish=20),
                          max_gen=20)
    result = evolve(goal, gs, 2, params)
    assert result.success
    assert result.best_eval.allcost == 0
    assert all(p.is_wire for p in result.best_circuit)


def test_evolve_deterministic(gs):
    goal = builtin("entangle2")
    params = small_params(seed=7)
    r1 = evolve(goal, gs, 6, params)
    r2 = evolve(goal, gs, 6, params)
    assert r1.success == r2.success
    assert np.array_equal(r1.best_bits, r2.best_bits)
    assert r1.history == r2.history
    assert r1.generation_found == r2.generation_found


def test_evolve_entangle2(gs):
    goal = builtin("entangle2")
    result = evolve(goal, gs, 6, small_params(max_gen=100, seed=3))
    assert result.success
    assert result.best_eval.allcost <= 6
    assert result.best_eval.correctness >= 1 - 1e-6
    assert is_success(result.best_eval, small_params().fitness)


def test_best_fitness_monotone_across_generations(gs):
    goal = builtin("entangle2")
    # deceptive setting: punish too small, run never succeeds
    params = small_params(fitness=FitnessParams(satcost=6, award=1, punish=1),
                          max_gen=30, seed=0)
    result = evolve(goal, gs, 6, params)
    fits = [row[1] for row in result.history]
    assert all(b <= a + 1e-15 for a, b in zip(fits, fits[1:]))
    assert not result.success


def test_run_batch_aggregation(gs):
    goal = builtin("entangle2")
    stats = run_batch(goal, gs, 6, small_params(max_gen=60), n_runs=3, base_seed=10)
    assert isinstance(stats, BatchStats)
    assert 0 <= stats.st <= 3
    if stats.st:
        gens = [r.generation_found for r in stats.results if r.success]
        assert stats.as_mean == pytest.approx(sum(gens) / len(gens))
    assert stats.ot is not None and stats.ot <= stats.st


def test_run_batch_seeds_are_independent(gs):
    goal = builtin("entangle2")
    s1 = run_batch(goal, gs, 6, small_params(), n_runs=2, base_seed=0)
    s2 = run_batch(goal, gs, 6, small_params(), n_runs=2, base_seed=0)
    for a, b in zip(s1.results, s2.results):
        assert np.array_equal(a.best_bits, b.best_bits)


def test_history_csv_format(gs):
    goal = builtin("entangle2")
    result = evolve(goal, gs, 6, small_params(max_gen=5, seed=2))
    lines = result.history_csv().splitlines()
    assert lines[0] == "gen,best_fitness,best_correctness,best_cost"
    assert len(lines) == len(result.history) + 1
    first = lines[1].split(",")
    assert first[0] == "1" and len(first) == 4


@pytest.mark.parametrize("g", [0, -1])
def test_gate_budget_must_be_positive(gs, g):
    with pytest.raises(ValueError, match="gate budget must be at least 1"):
        evolve(builtin("entangle2"), gs, g, small_params())
    with pytest.raises(ValueError, match="gate budget must be at least 1"):
        run_batch(builtin("entangle2"), gs, g, small_params(), 2)


def test_gate_set_without_placements_on_the_goal_is_rejected():
    from oracle_forge.gates import CNOT_MATRIX, Gate, GateSet

    two_only = GateSet(one_qubit=(), two_qubit=(Gate("CNOT", CNOT_MATRIX, 2),))
    with pytest.raises(ValueError, match="no gate that fits on 1 qubit"):
        evolve(GoalSpec(1, identity(2)), two_only, 3, small_params())
