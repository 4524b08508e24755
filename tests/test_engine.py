import math
from dataclasses import replace

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


@pytest.mark.parametrize("name", ["pop_size", "measurements", "max_gen", "restart_after", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, "3", True])
def test_count_fields_must_be_ints(name, value):
    # a float pop_size failed inside numpy, and a float restart_after ran
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {value!r}$"):
        small_params(**{name: value})


def test_count_fields_take_numpy_ints():
    params = small_params(pop_size=np.int64(4), seed=np.int32(7))
    assert (params.pop_size, params.seed) == (4, 7)


def test_seed_must_be_non_negative():
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        small_params(seed=-1)


@pytest.mark.parametrize("delta_theta", [float("nan"), float("inf"), -0.01])
def test_delta_theta_must_be_finite_and_non_negative(delta_theta):
    # NaN turns every rotated theta into NaN; a negative step rotates away from the guide
    with pytest.raises(ValueError, match="^delta_theta must be finite and non-negative, got "):
        small_params(delta_theta=delta_theta)


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


def test_evolve_draws_its_first_generation_by_observe(monkeypatch, gs):
    # criterion 10 measures observe, but evolve draws with its own copy of the
    # rule; with no mutation its first generation is observe's on the uniform
    # population (the mutation draw comes after it)
    from oracle_forge import engine
    from oracle_forge.codec import codon_bits, decode_indices

    pop, measurements, g, seed = 6, 5, 4, 7
    scored = []
    evaluate_batch = engine.evaluate_batch

    def spy(rows, *args):
        scored.append(rows.copy())
        return evaluate_batch(rows, *args)

    monkeypatch.setattr(engine, "evaluate_batch", spy)
    evolve(builtin("entangle2"), gs, g, small_params(pop_size=pop, measurements=measurements,
                                                     max_gen=1, mutation_prob=0.0, seed=seed))
    n = len(gs.table(2))
    bits = observe(np.full((pop, measurements, g * codon_bits(n)), math.pi / 4),
                   np.random.default_rng(seed))
    drawn = {tuple(row) for row in decode_indices(bits.reshape(pop * measurements, -1), n).tolist()}
    [first] = scored
    assert len(first) == len(drawn) > 1
    assert {tuple(row) for row in first.tolist()} == drawn


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
    stats = run_batch(goal, gs, 6, small_params(max_gen=60, seed=10), n_runs=3)
    assert isinstance(stats, BatchStats)
    assert 0 <= stats.st <= 3
    if stats.st:
        gens = [r.generation_found for r in stats.results if r.success]
        assert stats.as_mean == pytest.approx(sum(gens) / len(gens))
    assert stats.ot is not None and stats.ot <= stats.st


def test_run_batch_seeds_are_independent(gs):
    goal = builtin("entangle2")
    s1 = run_batch(goal, gs, 6, small_params(seed=0), n_runs=2)
    s2 = run_batch(goal, gs, 6, small_params(seed=0), n_runs=2)
    for a, b in zip(s1.results, s2.results):
        assert np.array_equal(a.best_bits, b.best_bits)


@pytest.mark.parametrize("seed", [0, 7])
def test_run_batch_runs_the_seeds_from_params_seed(gs, seed):
    goal, params = builtin("entangle2"), small_params(max_gen=5)
    stats = run_batch(goal, gs, 6, replace(params, seed=seed), n_runs=3)
    for s, result in zip(range(seed, seed + 3), stats.results, strict=True):
        alone = evolve(goal, gs, 6, replace(params, seed=s))
        assert np.array_equal(result.best_bits, alone.best_bits)


@pytest.mark.parametrize("g", [0, -1])
def test_gate_budget_must_be_positive(gs, g):
    with pytest.raises(ValueError, match="gate budget must be at least 1"):
        evolve(builtin("entangle2"), gs, g, small_params())
    with pytest.raises(ValueError, match="gate budget must be at least 1"):
        run_batch(builtin("entangle2"), gs, g, small_params(), 2)


def test_gate_set_without_placements_on_the_goal_is_rejected():
    from oracle_forge.gates import CNOT_MATRIX, Gate, GateSet

    two_only = GateSet((Gate("CNOT", CNOT_MATRIX, 2),))
    with pytest.raises(ValueError, match="no gate that fits on 1 qubit"):
        evolve(GoalSpec(1, identity(2)), two_only, 3, small_params())
