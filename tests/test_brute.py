"""The exhaustive verifier, and its blocked search against the plain recursive DFS."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_forge.brute import (BLOCK_BYTES, SuffixBlock, block_depth, leaf_correctness,
                                min_cost_search, node_count)
from oracle_forge.cli import main as cli_main
from oracle_forge.evaluate import GoalSpec, circuit_unitary, correctness
from oracle_forge.gates import default_gate_set, extend_gate_set
from oracle_forge.kron_apply import (StructuredOperator, apply_block_step, apply_structured,
                                     step_product)
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
    assert report.circuits_examined == 57961016
    assert len(report.witness) <= 9
    assert sum(p.cost for p in report.witness) == 10
    assert correctness(circuit_unitary(report.witness, 2), goal) >= 1 - 1e-6


@pytest.mark.parametrize("name, max_gates, min_cost, examined", [
    ("entangle2", 5, 3, 21479),
    ("swap", 5, 6, 31579),
    ("entangle3", 4, 5, 18287),
    ("controlled_s", 5, None, 37449),
])
def test_builtin_queries_examine_a_fixed_number_of_circuits(gs, name, max_gates, min_cost,
                                                           examined):
    # the benchmark's brute queries: a walk product that differs from the
    # structured one in more than the sign of a zero would move these counts
    report = min_cost_search(builtin(name), max_gates, gs)
    assert (report.min_cost, report.circuits_examined) == (min_cost, examined)


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


@pytest.mark.parametrize("eps", [1.0, 2.0, float("inf")])
def test_eps_of_one_or_more_rejected(gs, eps):
    # the threshold 1 - eps would be at most 0, and every circuit a match
    with pytest.raises(ValueError, match="^eps must be below 1, got "):
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


@pytest.mark.parametrize("m", range(1, 5))
def test_walk_child_product_matches_the_structured_kernel(gate_sets, m):
    # the walk builds every child of a node from the parent's unitary, which
    # stays on the stack for its siblings: a diagonal step scales in place, so
    # a missed copy would change the parent
    rng = np.random.default_rng(m)
    dim = 1 << m
    term = np.empty((dim, dim), dtype=complex)
    for gs in gate_sets:
        table = gs.table(m)
        parent = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        before = parent.copy()
        for op, step in zip(table.operators[1:], table.steps[1:]):
            child = step_product(step, parent, term)
            assert not np.shares_memory(child, parent)
            # float views compare real and imaginary parts (zeros up to sign)
            assert np.array_equal(child.view(float), apply_structured(op, parent).view(float))
        assert parent.tobytes() == before.tobytes()


@pytest.mark.parametrize("m", range(1, 5))
def test_block_step_on_a_stack_equals_the_step_on_each_matrix(gate_sets, m):
    rng = np.random.default_rng(m)
    dim = 1 << m
    kinds = set()
    for gs in gate_sets:
        for step in gs.table(m).steps:
            kinds.add(step.kind)
            x = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
            each = []
            for matrix in x:
                spare, term = np.empty((2, dim, dim), dtype=complex)
                each.append(apply_block_step(step, matrix.copy(), spare, term)[0])
            spare, term = np.empty((2, 3, dim, dim), dtype=complex)
            got = apply_block_step(step, x.copy(), spare, term)[0]
            assert got.tobytes() == np.stack(each).tobytes()
    assert kinds == ({"wire", "diagonal", "permutation", "dense"} if m > 1
                     else {"wire", "diagonal", "dense"})


def structured_block_rows(operators, goal_conj, depth):
    """The suffix block's rows as built with the structured kernel: each level
    is every transposed operator applied to the level below, in preorder."""
    n, dim = len(operators), goal_conj.shape[0]
    subtree = [sum(n ** j for j in range(r + 1)) for r in range(depth + 1)]
    rows = np.empty((subtree[depth] - 1, dim * dim), dtype=complex)
    transposed = [StructuredOperator(op.m, op.gate.T, op.k) for op in operators]
    level, pos = goal_conj[None], np.array([-1])
    for d in range(1, depth + 1):
        level = np.concatenate([apply_structured(op, level) for op in transposed])
        child = (pos[:, None] + 1 + np.arange(n) * subtree[depth - d]).ravel()
        rows[child] = level.reshape(-1, dim * dim)
        pos = child
    return rows


@pytest.mark.parametrize("m", range(1, 4))
def test_suffix_block_rows_match_the_structured_build(gate_sets, m):
    rng = np.random.default_rng(m)
    goal_conj = random_unitary(rng, 1 << m).conj()
    for gs in gate_sets:
        table = gs.table(m)
        operators = table.operators[1:]
        depth = min(block_depth(len(operators), 1 << m, 100), 3)
        block = SuffixBlock(operators, table.costs[1:], goal_conj, depth)
        # complex == ignores the sign of an exact zero, which no correctness sees
        assert np.array_equal(block.rows, structured_block_rows(operators, goal_conj, depth))


@pytest.mark.parametrize("m", range(1, 7))
def test_family_leaf_correctness_is_the_walks_exactly(m):
    rng = np.random.default_rng(m)
    dim = 1 << m
    goal_conj = random_unitary(rng, dim).conj()
    leaves = np.stack([random_unitary(rng, dim) for _ in range(9)])
    assert leaf_correctness(goal_conj, leaves) == [abs(np.sum(goal_conj * u)) / dim
                                                   for u in leaves]


def assert_matches_reference(goal, max_gates, gs):
    report = min_cost_search(goal, max_gates, gs)
    best_cost, witness, examined = reference_search(goal, max_gates, gs)
    assert report.min_cost == best_cost
    assert (report.witness is None) == (witness is None)
    if witness is not None:
        assert [(p.name, p.top) for p in report.witness] == [(p.name, p.top) for p in witness]
    assert report.circuits_examined == examined
    return report


# on two qubits the default block holds every sequence of 1..3 gates, so a
# budget of 3 + w walks w levels: the families are the nodes at depth w
WALK_BLOCK = 3


def test_family_hit_prunes_the_later_children(gs):
    # T on qubit 1 is child 4 of the root's family at a budget of 4; its own
    # match (cost 1) prunes every later child, all of cost 1 or more
    table = gs.table(2)
    t1 = table.index[("T", 1)]
    goal = GoalSpec(2, circuit_unitary([table.cases[t1]], 2))
    report = assert_matches_reference(goal, WALK_BLOCK + 1, gs)
    assert [(p.name, p.top) for p in report.witness] == [("T", 1)]
    assert t1 < len(table) - 1  # later children exist
    # at most the root, the earlier children with their blocks, and T itself
    block = node_count(8, WALK_BLOCK) - 1
    assert report.circuits_examined <= 1 + (t1 - 1) * (1 + block) + 1


@pytest.mark.parametrize("walk", [0, 1, 2])
@pytest.mark.parametrize("name", ["entangle2", "swap", "controlled_s"])
def test_family_path_matches_the_recursive_dfs(gs, walk, name):
    assert block_depth(8, 4, 100) == WALK_BLOCK
    report = assert_matches_reference(builtin(name), WALK_BLOCK + walk, gs)
    if name == "entangle2" and walk == 2:
        # H then CNOT: the optimum is a family member's own node
        assert len(report.witness) == walk

