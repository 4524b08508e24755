"""The batched generation path against the scalar one it replaces.

`evaluate_batch` must agree bit for bit with `evaluate_circuit`, and
`evolve` must reproduce a plain per-candidate loop (decode one bit string,
evaluate it, cache it by its bytes, scan in (member, measurement) order).
"""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_forge import engine
from oracle_forge.codec import codon_bits, decode, decode_indices
from oracle_forge.engine import HqeaParams, evolve, init_population, rotate_toward
from oracle_forge.evaluate import (
    FitnessParams,
    GoalSpec,
    evaluate_batch,
    evaluate_circuit,
    is_success,
)
from oracle_forge.gates import default_gate_set, extend_gate_set
from oracle_forge.kron_apply import StructuredOperator, apply_structured
from oracle_forge.targets import builtin


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture(scope="module")
def gate_sets(tmp_path_factory):
    """The default gate set and one extended by dense 2x2 and 4x4 user gates."""
    rng = np.random.default_rng(5)
    entries = [{"name": name, "arity": arity, "cost": cost,
                "matrix": [[[z.real, z.imag] for z in row]
                           for row in random_unitary(rng, 1 << arity)]}
               for name, arity, cost in (("U", 1, 1), ("V", 2, 3))]
    path = tmp_path_factory.mktemp("gates") / "dense.json"
    path.write_text(json.dumps(entries))
    base = default_gate_set()
    ext = extend_gate_set(base, path)
    for g in ext.one_qubit[-1:] + ext.two_qubit[-1:]:
        assert np.count_nonzero(g.matrix) == g.matrix.size  # dense, nothing to skip
    return base, ext


GOALS = {m: GoalSpec(m, random_unitary(np.random.default_rng(m), 1 << m)) for m in range(1, 5)}
FP = FitnessParams(satcost=4, award=1.0, punish=20.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), extended=st.booleans(), m=st.integers(1, 4), g=st.integers(1, 8))
def test_batch_matches_scalar_evaluator(gate_sets, data, extended, m, g):
    gs = gate_sets[extended]
    table = gs.table(m)
    row = st.lists(st.integers(0, len(table) - 1), min_size=g, max_size=g)
    rows = data.draw(st.lists(row, min_size=1, max_size=10))
    rows += [[0] * g, rows[0]]  # an all-wire row and a duplicate row
    lams, scores = evaluate_batch(np.array(rows), table, GOALS[m], FP)
    assert len(lams) == len(scores) == len(rows)
    for row, lam, score in zip(rows, lams, scores):
        ref = evaluate_circuit([table.cases[i] for i in row], GOALS[m], FP)
        assert np.array_equal(lam, ref.lambda_matrix)
        assert score.correctness == ref.correctness
        assert score.allcost == ref.allcost and type(score.allcost) is int
        assert score.fitness == ref.fitness


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dims=st.tuples(*[st.sampled_from([1, 2, 4])] * 3),
       batch=st.integers(1, 5))
def test_batched_kernel_matches_each_matrix(seed, dims, batch):
    rng = np.random.default_rng(seed)
    m, n, k = dims[0], 2 * dims[1], dims[2]
    gate = random_unitary(rng, n)
    gate[0, -1] = 0  # one zero entry, so skip_zeros has something to skip
    op = StructuredOperator(m, gate, k)
    shape = (batch, op.dim, op.dim)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for skip in (False, True):
        out = apply_structured(op, stack, skip_zeros=skip)
        assert out.shape == stack.shape
        for b, o in zip(stack, out):
            assert np.array_equal(o, apply_structured(op, b, skip_zeros=skip))


def test_batched_kernel_rejects_wrong_shapes():
    op = StructuredOperator(2, np.eye(2, dtype=complex), 1)
    for shape in ((4,), (3, 4, 3), (2, 2, 4, 4)):
        with pytest.raises(ValueError):
            apply_structured(op, np.zeros(shape, dtype=complex))


def scalar_evolve(goal, gs, max_gates, params):
    """The per-candidate loop the batched engine must reproduce."""
    m = goal.num_qubits
    n_bits = max_gates * codon_bits(len(gs.table(m)))
    rng = np.random.default_rng(params.seed)
    pop = init_population(params.pop_size, n_bits)
    cache = {}
    best_bits = best_eval = guide_bits = None
    guide_fitness = math.inf
    stagnant = 0
    history = []
    for gen in range(1, params.max_gen + 1):
        u = rng.random((params.pop_size, params.measurements, n_bits))
        flips = rng.random((params.pop_size, params.measurements, n_bits)) < params.mutation_prob
        prob1 = np.sin(pop) ** 2
        member_best = np.full(params.pop_size, np.inf)
        improved = False
        for c in range(params.pop_size):
            for t in range(params.measurements):
                bits = ((u[c, t] < prob1[c]) ^ flips[c, t]).astype(np.uint8)
                res = cache.get(bits.tobytes())
                if res is None:
                    res = cache[bits.tobytes()] = evaluate_circuit(
                        decode(bits, m, gs), goal, params.fitness)
                member_best[c] = min(member_best[c], res.fitness)
                if res.fitness < guide_fitness:
                    guide_fitness, guide_bits, improved = res.fitness, bits.copy(), True
                if best_eval is None or res.fitness < best_eval.fitness:
                    best_eval, best_bits = res, bits.copy()
        history.append((gen, best_eval.fitness, best_eval.correctness, best_eval.allcost))
        if is_success(best_eval, params.fitness):
            break
        stagnant = 0 if improved else stagnant + 1
        if stagnant >= params.restart_after:
            pop = init_population(params.pop_size, n_bits)
            guide_bits, guide_fitness, stagnant = None, math.inf, 0
            continue
        if guide_bits is not None:
            for c in range(params.pop_size):
                if guide_fitness < member_best[c]:
                    pop[c] = rotate_toward(pop[c], guide_bits, params.delta_theta)
    return history, best_bits, best_eval


def small(seed, **kw):
    return HqeaParams(fitness=FitnessParams(**{"satcost": 3, "punish": 20.0, **kw}),
                      pop_size=6, measurements=4, max_gen=25, restart_after=6, seed=seed)


@pytest.mark.parametrize("goal_name,g,seed,extended", [
    ("entangle2", 6, 0, False),
    ("entangle2", 4, 3, True),
    ("entangle3", 5, 1, False),
    ("controlled_s", 3, 2, True),
])
@pytest.mark.parametrize("cache_limit", [engine.CACHE_LIMIT, 7])
def test_evolve_matches_scalar_loop(gate_sets, monkeypatch, goal_name, g, seed, extended,
                                    cache_limit):
    monkeypatch.setattr(engine, "CACHE_LIMIT", cache_limit)
    gs = gate_sets[extended]
    goal = builtin(goal_name)
    params = small(seed)
    result = evolve(goal, gs, g, params)
    history, best_bits, best_eval = scalar_evolve(goal, gs, g, params)
    assert result.history == history
    assert np.array_equal(result.best_bits, best_bits)
    assert np.array_equal(result.best_eval.lambda_matrix, best_eval.lambda_matrix)
    assert (result.best_eval.fitness, result.best_eval.correctness, result.best_eval.allcost) \
        == (best_eval.fitness, best_eval.correctness, best_eval.allcost)


def test_clearing_the_cache_only_costs_reevaluations(monkeypatch):
    real = engine.evaluate_batch
    goal, gs, params = builtin("entangle3"), default_gate_set(), small(4, satcost=0)

    def run(limit):
        sizes = []

        def spy(indices, *args):
            sizes.append(len(indices))
            return real(indices, *args)

        monkeypatch.setattr(engine, "CACHE_LIMIT", limit)
        monkeypatch.setattr(engine, "evaluate_batch", spy)
        return evolve(goal, gs, 6, params), sum(sizes)

    kept, kept_evals = run(engine.CACHE_LIMIT)
    cleared, cleared_evals = run(10)
    assert cleared.history == kept.history
    assert np.array_equal(cleared.best_bits, kept.best_bits)
    assert cleared_evals > kept_evals


def test_decode_indices_rows_match_scalar_decode():
    gs = default_gate_set()
    rng = np.random.default_rng(8)
    for m in (1, 2, 3, 5):
        table = gs.table(m)
        k = codon_bits(len(table))
        bits = rng.integers(0, 2, (30, 7 * k), dtype=np.uint8)
        indices = decode_indices(bits, len(table))
        assert indices.shape == (30, 7)
        for row, b in zip(indices, bits):
            assert [table.cases[i] for i in row] == decode(b, m, gs)
