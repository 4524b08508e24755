"""The exhaustive verifier, and its blocked search against the plain recursive DFS."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_forge.brute import BLOCK_BYTES, block_depth, min_cost_search, node_count
from oracle_forge.cli import main as cli_main
from oracle_forge.evaluate import GoalSpec, circuit_unitary, correctness
from oracle_forge.gates import default_gate_set, extend_gate_set
from oracle_forge.kron_apply import apply_structured
from oracle_forge.linalg import identity
from oracle_forge.targets import builtin


@pytest.fixture
def gs():
    return default_gate_set()


def test_entangle2_min_cost(gs):
    report = min_cost_search(builtin("entangle2"), 3, gs)
    assert report.min_cost == 3
    assert [(p.name, p.top) for p in report.witness] == [("H", 0), ("CNOT", 0)]


def test_identity_goal_min_cost_zero(gs):
    goal = GoalSpec(2, identity(4), name="identity")
    report = min_cost_search(goal, 2, gs)
    assert report.min_cost == 0
    assert report.witness == []


def test_swap_min_cost(gs):
    report = min_cost_search(builtin("swap"), 3, gs)
    assert report.min_cost == 6
    names = [p.name for p in report.witness]
    assert sorted(names) == ["CNOT", "CNOT", "CNOT2"]


def test_entangle3_min_cost(gs):
    report = min_cost_search(builtin("entangle3"), 3, gs)
    assert report.min_cost == 5


def test_budget_guard(gs):
    with pytest.raises(ValueError, match="budget"):
        min_cost_search(builtin("entangle2"), 10, gs, budget=1000)


def test_exhaustive_node_count_without_pruning(gs):
    n_gates = 8  # nine cases minus the wire
    # SWAP costs 6 and needs three gates, so at two nothing matches and nothing is pruned
    report = min_cost_search(builtin("swap"), 2, gs)
    assert report.min_cost is None
    assert report.circuits_examined == node_count(n_gates, 2) == 1 + 8 + 64
    _, _, examined = reference_search(builtin("entangle2"), 2, gs, prune=False)
    assert examined == node_count(n_gates, 2)


def test_pruning_preserves_result(gs):
    goal = builtin("entangle2")
    pruned = min_cost_search(goal, 3, gs)
    full_cost, _, full_examined = reference_search(goal, 3, gs, prune=False)
    assert pruned.min_cost == full_cost == 3
    assert pruned.circuits_examined < full_examined


def test_no_match_returns_none(gs):
    # SWAP needs cost 6; a single gate can never realize it
    report = min_cost_search(builtin("swap"), 1, gs)
    assert report.min_cost is None and report.witness is None


def test_report_json(gs):
    report = min_cost_search(builtin("entangle2"), 3, gs)
    data = report.to_json()
    assert data["min_cost"] == 3
    assert data["witness"] == [{"gate": "H", "top": 0}, {"gate": "CNOT", "top": 0}]
    assert data["circuits_examined"] > 0


def test_ea_never_beats_brute_force(gs):
    from oracle_forge.engine import HqeaParams, evolve
    from oracle_forge.evaluate import FitnessParams
    goal = builtin("entangle2")
    params = HqeaParams(fitness=FitnessParams(satcost=6, award=1, punish=20),
                        max_gen=100, seed=5)
    result = evolve(goal, gs, 6, params)
    brute = min_cost_search(goal, 3, gs)
    assert result.success
    assert result.best_eval.allcost >= brute.min_cost


def test_controlled_s_min_cost_is_ten(gs):
    # every circuit of cost <= 9 has at most 9 gates, so this settles the optimum
    goal = builtin("controlled_s")
    report = min_cost_search(goal, 9, gs, budget=2 * 10 ** 8)
    assert report.min_cost == 10 == goal.optimal_cost
    assert len(report.witness) <= 9
    assert sum(p.cost for p in report.witness) == 10
    assert correctness(circuit_unitary(report.witness, 2), goal) >= 1 - 1e-6


def test_negative_gate_budget_rejected(gs):
    with pytest.raises(ValueError, match="gate budget must be non-negative"):
        min_cost_search(builtin("entangle2"), -1, gs)


def test_negative_gate_budget_cli(capsys):
    code = cli_main(["brute", "--goal", "entangle2", "--max-gates", "-1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.strip().splitlines() == ["error: the gate budget must be non-negative, got -1"]


@pytest.mark.parametrize("eps", [0.0, -1e-6, float("nan")])
def test_non_positive_eps_rejected(gs, eps):
    # eps = 0 would silently miss exact matches whose correctness rounds below 1
    with pytest.raises(ValueError, match="^eps must be positive$"):
        min_cost_search(builtin("entangle2"), 3, gs, eps=eps)


def test_non_positive_eps_cli(capsys):
    code = cli_main(["brute", "--goal", "entangle2", "--max-gates", "3", "--eps", "0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.strip().splitlines() == ["error: eps must be positive"]


def test_zero_gate_budget_examines_the_root_only(gs):
    report = min_cost_search(builtin("entangle2"), 0, gs)
    assert report.min_cost is None and report.circuits_examined == 1
    report = min_cost_search(GoalSpec(2, identity(4)), 0, gs)
    assert report.min_cost == 0 and report.witness == [] and report.circuits_examined == 1


def test_block_depth_fits_the_block_memory():
    # default gate set: 8 placements on 2 qubits, 13 on 3
    assert block_depth(8, 4, 100) == 3
    assert block_depth(13, 8, 100) == 2
    assert block_depth(8, 4, 2) == 2  # capped at the gate budget
    assert block_depth(0, 2, 100) == 0
    for n, dim in ((3, 2), (8, 4), (13, 8), (20, 8)):
        depth = block_depth(n, dim, 100)
        assert node_count(n, depth) - 1 <= BLOCK_BYTES // (16 * dim * dim) < node_count(n, depth + 1) - 1


def reference_search(goal, max_gates, gs, eps=1e-6, prune=True):
    """The verifier as a plain recursive DFS: one structured product per node."""
    table = gs.table(goal.num_qubits)
    ops = list(zip(table.cases[1:], table.operators[1:]))
    goal_conj = goal.matrix.conj()
    dim = goal.dim
    threshold = 1.0 - eps
    best_cost, witness, examined = None, None, 0

    def visit(u, cost, seq, depth):
        nonlocal best_cost, witness, examined
        examined += 1
        corr = abs(np.sum(goal_conj * u)) / dim
        if corr >= threshold and (best_cost is None or cost < best_cost):
            best_cost = cost
            witness = list(seq)
        if depth == max_gates:
            return
        for p, op in ops:
            if prune and best_cost is not None and cost + p.cost >= best_cost:
                continue
            seq.append(p)
            visit(apply_structured(op, u), cost + p.cost, seq, depth + 1)
            seq.pop()

    visit(identity(dim), 0, [], 0)
    return best_cost, witness, examined


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture(scope="module")
def gate_sets(tmp_path_factory):
    """The default gate set and one extended by dense user gates, one of cost 0."""
    rng = np.random.default_rng(11)
    entries = [{"name": name, "arity": arity, "cost": cost,
                "matrix": [[[z.real, z.imag] for z in row]
                           for row in random_unitary(rng, 1 << arity)]}
               for name, arity, cost in (("U", 1, 0), ("V", 2, 3))]
    path = tmp_path_factory.mktemp("gates") / "dense.json"
    path.write_text(json.dumps(entries))
    base = default_gate_set()
    return base, extend_gate_set(base, path)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), extended=st.booleans(), m=st.integers(1, 3),
       depth=st.sampled_from(["zero", "one", "block", "deeper"]),
       reachable=st.booleans(), eps=st.sampled_from([1e-6, 0.05, 0.4]))
def test_blocked_search_matches_recursive_dfs(gate_sets, data, extended, m, depth, reachable,
                                              eps):
    # The block sums each trace in another order than the reference, so only a
    # correctness within rounding of 1 - eps could be decided differently; these
    # goals put none there.
    gs = gate_sets[extended]
    table = gs.table(m)
    n_gates = len(table) - 1
    block = block_depth(n_gates, 1 << m, 100)
    max_gates = {"zero": 0, "one": 1, "block": block, "deeper": block + 1}[depth]
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if reachable:
        length = data.draw(st.integers(0, 4))
        circuit = [table.cases[i] for i in rng.integers(1, len(table), length)]
        matrix = circuit_unitary(circuit, m) * np.exp(2j * math.pi * rng.random())
    else:
        matrix = random_unitary(rng, 1 << m)
    goal = GoalSpec(m, matrix)
    report = min_cost_search(goal, max_gates, gs, eps=eps)
    best_cost, witness, examined = reference_search(goal, max_gates, gs, eps=eps)
    assert report.min_cost == best_cost
    assert (report.witness is None) == (witness is None)
    if witness is not None:
        assert [(p.name, p.top) for p in report.witness] == [(p.name, p.top) for p in witness]
    assert report.circuits_examined == examined
