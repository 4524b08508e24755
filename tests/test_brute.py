"""The exhaustive verifier, and its blocked search against the plain recursive DFS."""
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_forge import brute
from oracle_forge.brute import (BLOCK_BYTES, ClanPlan, SuffixBlock, block_depth, clan_depth,
                                min_cost_search, node_count)
from oracle_forge.cli import extend_gate_set, main as cli_main
from oracle_forge.evaluate import GoalSpec, circuit_unitary, correctness
from oracle_forge.gates import GateSet, PlacementTable, default_gate_set, placement_operator
from oracle_forge.kron_apply import apply_block_step, apply_structured, step_product
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


def test_report_json(capsys):
    # the report is built by the brute subcommand; its witness entries are codec's
    code = cli_main(["brute", "--goal", "entangle2", "--max-gates", "3"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
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
    assert [(p.name, p.top) for p in report.witness] == [
        ("T", 0), ("T", 1), ("CNOT", 0), ("S", 1), ("S", 1), ("S", 1), ("T", 1), ("CNOT", 0)]
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
    if min_cost is not None:
        # a circuit cheaper than c has at most (c - 1) // c_min gates, so a
        # search at that budget proves the written optimum for every budget
        c_min = min(g.cost for g in gs.gates)
        assert c_min >= 1
        assert min_cost == builtin(name).optimal_cost
        assert max_gates >= (min_cost - 1) // c_min


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


@pytest.mark.parametrize("max_gates", range(4))
def test_a_gate_set_with_no_placement_examines_the_root_only(gs, max_gates):
    # a two-qubit gate has no placement on one qubit, so only the root exists
    no_placement = GateSet(tuple(g for g in gs.gates if g.arity == 2))
    assert len(no_placement.table(1)) == 1
    report = min_cost_search(GoalSpec(1, identity(2)), max_gates, no_placement)
    assert (report.min_cost, report.witness, report.circuits_examined) == (0, [], 1)
    x = GoalSpec(1, np.array([[0, 1], [1, 0]], dtype=complex))
    report = min_cost_search(x, max_gates, no_placement)
    assert (report.min_cost, report.witness, report.circuits_examined) == (None, None, 1)


def test_block_depth_fits_the_block_memory():
    # default gate set: 8 placements on 2 qubits, 13 on 3
    assert block_depth(8, 4, 100) == 3
    assert block_depth(13, 8, 100) == 2
    assert block_depth(8, 4, 2) == 2  # capped at the gate budget
    assert block_depth(0, 2, 100) == 0
    for n, dim in ((3, 2), (8, 4), (13, 8), (20, 8)):
        depth = block_depth(n, dim, 100)
        assert node_count(n, depth) - 1 <= BLOCK_BYTES // (16 * dim * dim) < node_count(n, depth + 1) - 1


def test_clan_depth_fits_the_block_memory():
    # default gate set: two walk levels on two and three qubits, one on four
    assert clan_depth(8, 100, 3) == 2
    assert clan_depth(13, 100, 2) == 2
    assert clan_depth(18, 100, 1) == 1
    assert clan_depth(8, 1, 3) == 1  # capped at the walk depth
    assert clan_depth(8, 0, 3) == 0
    assert clan_depth(8, 100, 0) == 0  # and at the block depth
    assert clan_depth(0, 5, 0) == 0
    for n, dim in ((3, 2), (8, 4), (13, 8), (18, 16), (20, 8)):
        depth = block_depth(n, dim, 100)
        c = clan_depth(n, 100, depth)
        # the clan's tables are rows of the block, and its plan as built (an
        # int64 position and cost per sequence) fits; one more level does not
        assert c <= depth
        assert node_count(n, c + depth) * 16 <= BLOCK_BYTES
        assert c == depth or node_count(n, c + 1 + depth) * 16 > BLOCK_BYTES


def reference_search(goal, max_gates, gs, eps=1e-6, prune=True):
    """The verifier as a plain recursive DFS: one structured product per node."""
    table = gs.table(goal.num_qubits)
    ops = [(p, placement_operator(p, goal.num_qubits)) for p in table.cases[1:]]
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
def gate_sets():
    """The default gate set and one extended by dense user gates, one of cost 0."""
    rng = np.random.default_rng(11)
    entries = [{"name": name, "arity": arity, "cost": cost,
                "matrix": [[[z.real, z.imag] for z in row]
                           for row in random_unitary(rng, 1 << arity)]}
               for name, arity, cost in (("U", 1, 0), ("V", 2, 3))]
    base = default_gate_set()
    return base, extend_gate_set(base, entries)


def draw_goal(data, table, m, reachable):
    """A random unitary, or the unitary of a random circuit of up to four
    placements of the table, times a random phase."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if reachable:
        length = data.draw(st.integers(0, 4))
        circuit = [table.cases[i] for i in rng.integers(1, len(table), length)]
        matrix = circuit_unitary(circuit, m) * np.exp(2j * math.pi * rng.random())
    else:
        matrix = random_unitary(rng, 1 << m)
    return GoalSpec(m, matrix)


# The search scores a trace of O_seq G^dag, which sums in another order than
# the reference's and evaluate_circuit's overlap of G and O_seq, so only a
# correctness within rounding of 1 - eps could be decided differently; the
# drawn goals put none there.

@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), extended=st.booleans(), m=st.integers(1, 3),
       depth=st.sampled_from(["zero", "one", "block", "deeper"]),
       reachable=st.booleans(), eps=st.sampled_from([1e-6, 0.05, 0.4]))
def test_blocked_search_matches_recursive_dfs(gate_sets, data, extended, m, depth, reachable,
                                              eps):
    gs = gate_sets[extended]
    table = gs.table(m)
    block = block_depth(len(table) - 1, 1 << m, 100)
    max_gates = {"zero": 0, "one": 1, "block": block, "deeper": block + 1}[depth]
    assert_matches_reference(draw_goal(data, table, m, reachable), max_gates, gs, eps)


def small_gate_set(base, name):
    """One gate of `base` alone: few placements, so that a clan can span
    three walk levels."""
    return GateSet(tuple(g for g in base.gates if g.name == name))


# (gate set, m, BLOCK_BYTES, max_gates, (L, c)): a smaller block memory makes
# the block depth L small and lets the clan depth c reach 2, or 3 where the
# plan fits, with reference trees of at most a few thousand nodes
@pytest.mark.parametrize("name, m, block_bytes, max_gates, expected", [
    ("default", 1, 64, 3, (0, 0)),  # no block: the walk examines every node itself
    ("default", 1, 1000, 4, (2, 1)),  # c held below L by the plan
    # the plans of one more level take 1936 and 74896 bytes as built
    ("default", 1, 1872, 4, (2, 1)),
    ("default", 1, 1872, 5, (2, 1)),
    ("default", 2, 74752, 4, (2, 1)),
    ("CNOT", 2, 4096, 6, (3, 3)),
    ("CNOT", 2, 4096, 7, (3, 3)),
    ("H", 3, 40960, 6, (3, 3)),
    ("default", 1, 1936, 4, (2, 2)),  # one clan, rooted at the root
    ("default", 1, 1936, 5, (2, 2)),  # clans rooted one level down
    ("default", 2, 74896, 4, (2, 2)),
    # the dense user gates: their matrices, unlike the default gates', are
    # not symmetric, so only they tell tr(O_s V) from tr(O_s^T V)
    ("U", 2, 4096, 6, (3, 3)),
    ("V", 2, 4096, 6, (3, 3)),
])
@settings(max_examples=10, deadline=None, derandomize=True)
@given(data=st.data(), reachable=st.booleans(), eps=st.sampled_from([1e-6, 0.05, 0.4]))
def test_clan_search_matches_recursive_dfs(gate_sets, name, m, block_bytes, max_gates, expected,
                                           data, reachable, eps):
    gs = gate_sets[0] if name == "default" else small_gate_set(gate_sets[1], name)
    table = gs.table(m)
    n_gates = len(table) - 1
    goal = draw_goal(data, table, m, reachable)
    with mock.patch.object(brute, "BLOCK_BYTES", block_bytes):
        block = block_depth(n_gates, 1 << m, max_gates)
        clan = clan_depth(n_gates, max_gates - block, block)
        assert (block, clan) == expected
        assert_matches_reference(goal, max_gates, gs, eps)


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
        for p, step in zip(table.cases[1:], table.steps[1:]):
            child = step_product(step, parent, term)
            assert not np.shares_memory(child, parent)
            # float views compare real and imaginary parts (zeros up to sign)
            ref = apply_structured(placement_operator(p, m), parent)
            assert np.array_equal(child.view(float), ref.view(float))
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
    assert kinds == ({"diagonal", "permutation", "dense"} if m > 1 else {"diagonal", "dense"})


def structured_block_rows(operators, depth):
    """The suffix block's rows as built with the structured kernel from the
    identity: each level is every operator applied to each matrix of the
    level below, the sequences in preorder, and each row the transpose."""
    n, dim = len(operators), operators[0].dim
    subtree = [sum(n ** j for j in range(r + 1)) for r in range(depth + 1)]
    rows = np.empty((subtree[depth], dim * dim), dtype=complex)
    level, pos = identity(dim)[None], np.array([0])
    rows[0] = level.ravel()
    for d in range(1, depth + 1):
        # matrix i * n + g is sequence i of the level below, then gate g
        level = np.stack([apply_structured(op, x) for x in level for op in operators])
        child = (pos[:, None] + 1 + np.arange(n) * subtree[depth - d]).ravel()
        rows[child] = level.transpose(0, 2, 1).reshape(-1, dim * dim)
        pos = child
    return rows


@pytest.mark.parametrize("m", range(1, 4))
def test_suffix_block_rows_match_the_structured_build(gate_sets, m):
    for gs in gate_sets:
        table = gs.table(m)
        operators = [placement_operator(p, m) for p in table.cases[1:]]
        depth = min(block_depth(len(operators), 1 << m, 100), 3)
        block = SuffixBlock(table, depth)
        # complex == ignores the sign of an exact zero, which no correctness sees
        assert np.array_equal(block.rows, structured_block_rows(operators, depth))


def preorder(n, depth, seq=()):
    """Every sequence of 0..depth gate indices below n, in DFS preorder."""
    yield seq
    if len(seq) < depth:
        for g in range(n):
            yield from preorder(n, depth, seq + (g,))


@pytest.mark.parametrize("m", range(1, 4))
def test_suffix_block_row_zero_is_the_empty_sequence(gate_sets, m):
    dim = 1 << m
    for gs in gate_sets:
        table = gs.table(m)
        n = len(table) - 1
        depth = min(block_depth(n, dim, 100), 3)
        block = SuffixBlock(table, depth)
        assert np.array_equal(block.rows[0], identity(dim).ravel())
        sequences = list(preorder(n, depth))
        assert len(block) == len(sequences) == node_count(n, depth)
        for row, seq in zip(block.rows, sequences):
            circuit = [table.cases[1 + g] for g in seq]
            assert np.allclose(row, circuit_unitary(circuit, m).T.ravel(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("m", range(1, 4))
@pytest.mark.parametrize("depth, clan", [(0, 0), (3, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2)])
def test_clan_plan_numbers_every_sequence_in_preorder(gate_sets, m, depth, clan):
    dim = 1 << m
    for gs in gate_sets:
        table = gs.table(m)
        n = len(table) - 1
        block = SuffixBlock(table, depth)
        if clan > depth:  # a clan's tables are rows of its block; `clan_depth` caps it there
            with pytest.raises(ValueError, match=f"^a clan of {clan} levels is deeper than its "
                                                 f"block of {depth}$"):
                ClanPlan(table, block, clan)
            continue
        plan = ClanPlan(table, block, clan)
        sequences = list(preorder(n, clan + depth))
        assert plan.costs.tolist() == [sum(table.costs[1 + g] for g in seq) for seq in sequences]
        assert [plan.decode(p) for p in range(len(sequences))] == sequences
        assert len(plan.inner) == node_count(n, clan - 1)
        positions = np.concatenate([plan.inner, plan.leaves])
        assert [len(sequences[p]) for p in positions] == [d for d in range(clan + 1)
                                                          for _ in range(n ** d)]
        if not clan:  # a plan of no clan levels keeps no table: its root is its leaf
            continue
        # the kept tables are the block's rows of the clan's sequences, the
        # leaves' transposed back: each position's sequence is the one whose
        # unitary the tables hold there
        row = {seq: r for r, seq in enumerate(preorder(n, depth))}
        inner = block.rows[[row[sequences[p]] for p in plan.inner]]
        leaves = block.rows[[row[sequences[p]] for p in plan.leaves]].reshape(-1, dim, dim)
        assert plan.inner_ops.tobytes() == inner.tobytes()
        assert plan.leaf_ops.tobytes() == leaves.transpose(0, 2, 1).tobytes()
        unitaries = np.concatenate([inner.reshape(-1, dim, dim).transpose(0, 2, 1),
                                    plan.leaf_ops.reshape(-1, dim, dim)])
        for p, v in zip(positions, unitaries):
            circuit = [table.cases[1 + g] for g in sequences[p]]
            assert np.allclose(v, circuit_unitary(circuit, m), rtol=0, atol=1e-12)
        # leaf j followed by block row r is sequence leaves[j] + r
        suffixes = list(preorder(n, depth))
        for leaf in plan.leaves:
            assert sequences[leaf:leaf + len(suffixes)] == [sequences[leaf] + s for s in suffixes]


def near_threshold_goal(rng, circuit, m, target):
    """exp(i delta H) U times a random phase, for the circuit's unitary U and a
    random Hermitian H, with delta set so that the circuit's correctness is
    `target`: |tr(exp(-i delta H))| / 2^m, which falls from 1 as delta grows
    from 0."""
    dim = 1 << m
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    lam, vecs = np.linalg.eigh(z + z.conj().T)

    def corr(delta):
        return abs(np.exp(-1j * delta * lam).sum()) / dim

    lo, hi = 0.0, 1e-6
    while corr(hi) > target:
        lo, hi = hi, 2 * hi
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if corr(mid) > target else (lo, mid)
    rotation = (vecs * np.exp(1j * lo * lam)) @ vecs.conj().T
    phase = np.exp(2j * math.pi * rng.random())
    return GoalSpec(m, rotation @ circuit_unitary(circuit, m) * phase)


def index_matches(block, leaves, bound):
    return sorted((j, r) for js, rs in block.matches(leaves, bound)
                  for j, r in zip(js.tolist(), rs.tolist()))


# a goal whose best match's correctness lies eps/100 above or below 1 - eps
# puts that pair just inside or just outside the index's radius, and far
# from the rounding in which the index's dot products and a dense product's
# may differ
@pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
@pytest.mark.parametrize("eps", [1e-6, 0.05])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_index_finds_the_dense_products_matches_near_the_threshold(gate_sets, m, eps, side):
    dim = 1 << m
    bound = dim * (1 - eps)
    target = 1 - eps + side * eps / 100
    rng = np.random.default_rng([m, round(eps * 1e6), side + 1])
    for gs in gate_sets:
        table = gs.table(m)
        n = len(table) - 1
        depth = min(block_depth(n, dim, 100), 2)
        block = SuffixBlock(table, depth)
        plan = ClanPlan(table, block, 1)
        goals = 0
        for _ in range(100):
            if goals == 3:
                break
            circuit = [table.cases[i] for i in rng.integers(1, len(table), 1 + depth)]
            goal = near_threshold_goal(rng, circuit, m, target)
            # every leaf of a clan rooted at the root, against the whole block
            leaves = (plan.leaf_ops @ goal.matrix.conj().T).reshape(n, dim * dim)
            overlaps = np.abs(block.rows @ leaves.T)
            if abs(overlaps.max() / dim - target) > 1e-12:
                continue  # the rotation brought another sequence closer
            goals += 1
            r, j = np.nonzero(overlaps >= bound)
            assert index_matches(block, leaves, bound) == sorted(zip(j.tolist(), r.tolist()))
            assert len(r) > 0 if side > 0 else len(r) == 0
            assert_matches_reference(goal, 1 + depth, gs, eps)
        assert goals == 3


@pytest.mark.parametrize("m", [1, 2, 3])
def test_index_radius_holds_a_match_moved_along_a_probe(gate_sets, m):
    # b = conj(a) + t u, u a probe in the phase of conj(a)'s projection on it,
    # moves that projection by exactly t, as far as any vector t from conj(a)
    # can; at a bound of |a . b| as the exact test sums it the pair is a match,
    # and it lies on the radius when |a|^2 is the block's largest, so only the
    # index's rounding slack keeps it
    for gs in gate_sets:
        table = gs.table(m)
        block = SuffixBlock(table, min(block_depth(len(table) - 1, 1 << m, 100), 2))
        norms = np.vecdot(block.rows, block.rows).real
        for probe in block.probes.T:  # the key's, then the screen's
            for r in (int(np.argmax(norms)), 0, len(block) // 2, len(block) - 1):
                a = block.rows[r]
                proj = a.conj() @ probe
                u = probe * (proj / abs(proj))
                for t in (1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0):
                    for sign in (1, -1):
                        b = a.conj() + sign * t * u
                        bound = abs(np.einsum("ij,ij->i", a[None], b[None])[0])
                        assert (0, r) in index_matches(block, b[None], bound)


def test_index_scores_every_pair_in_chunks(gate_sets, monkeypatch):
    # at eps near 1 every pair lies within the radius; a small block memory
    # makes the pairs come in many chunks
    table = gate_sets[1].table(2)
    block = SuffixBlock(table, 2)
    plan = ClanPlan(table, block, 1)
    rng = np.random.default_rng(5)
    leaves = (plan.leaf_ops @ random_unitary(rng, 4)).reshape(len(plan.leaves), 16)
    monkeypatch.setattr(brute, "BLOCK_BYTES", 16 * 16 * 7)
    for bound in (0.1, 1.0, 2.0):
        chunks = list(block.matches(leaves, bound))
        assert len(chunks) == math.ceil(len(block) * len(leaves) / 7)
        r, j = np.nonzero(np.abs(block.rows @ leaves.T) >= bound)
        assert index_matches(block, leaves, bound) == sorted(zip(j.tolist(), r.tolist()))


def test_queries_on_one_table_share_one_block(gate_sets, monkeypatch):
    used, built = [], []
    kept = PlacementTable.kept

    def recording(table, key, build):
        def building():
            built.append(key)
            return build()
        used.append(kept(table, key, building))
        return used[-1]

    monkeypatch.setattr(PlacementTable, "kept", recording)
    # gate sets of their own, so that no earlier test has built on their tables
    base, extended = (GateSet(g.gates) for g in gate_sets)
    for name in ("entangle2", "swap", "controlled_s", "entangle2"):
        assert_matches_reference(builtin(name), 4, base)
    # each query looks up one block and one plan, built by the first
    assert [type(x) for x in used] == [SuffixBlock, ClanPlan] * 4
    assert all(x is used[i % 2] for i, x in enumerate(used))
    assert [key[0] for key in built] == [SuffixBlock, ClanPlan]
    # another gate set's table keeps its own block and plan
    assert_matches_reference(builtin("entangle2"), 4, extended)
    assert [key[0] for key in built] == [SuffixBlock, ClanPlan] * 2
    assert used[-2] is not used[0] and len(used[-2]) > len(used[0])
    assert used[-1] is not used[1] and len(used[-1].costs) > len(used[1].costs)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), extended=st.booleans(), m=st.integers(1, 4), reachable=st.booleans())
def test_walk_correctness_is_the_evaluators_within_rounding(gate_sets, data, extended, m,
                                                            reachable):
    # the walk scores |tr(O_seq G^dag)| / dim, the evaluator |vdot(G, O_seq)| / dim
    table = gate_sets[extended].table(m)
    dim = 1 << m
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    seq = data.draw(st.lists(st.integers(1, len(table) - 1), max_size=6))
    circuit = [table.cases[i] for i in seq]
    if reachable:
        matrix = circuit_unitary(circuit, m) * np.exp(2j * math.pi * rng.random())
    else:
        matrix = random_unitary(rng, dim)
    goal = GoalSpec(m, matrix)
    v = np.ascontiguousarray(matrix.conj().T)
    term = np.empty((dim, dim), dtype=complex)
    for i in seq:
        v = step_product(table.steps[i], v, term)
    expected = correctness(circuit_unitary(circuit, m), goal)
    assert abs(abs(np.trace(v)) / dim - expected) <= 1e-12
    # a leaf's own correctness: row 0 of its block product
    assert abs(abs(identity(dim).ravel() @ v.ravel()) / dim - expected) <= 1e-12


def assert_matches_reference(goal, max_gates, gs, eps=1e-6):
    report = min_cost_search(goal, max_gates, gs, eps=eps)
    best_cost, witness, examined = reference_search(goal, max_gates, gs, eps=eps)
    assert report.min_cost == best_cost
    assert (report.witness is None) == (witness is None)
    if witness is not None:
        assert [(p.name, p.top) for p in report.witness] == [(p.name, p.top) for p in witness]
    assert report.circuits_examined == examined
    return report


# on two qubits the default block holds every sequence of 1..3 gates, so a
# budget of 3 + w walks w levels, and the clans span min(w, 2) of them: at
# w <= 2 one clan, rooted at the empty circuit, is scored in one preorder pass
WALK_BLOCK = 3


def test_clan_hit_prunes_the_later_children(gs):
    # T on qubit 1 is child 4 of the root's clan at a budget of 4; its own
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


def test_clan_hit_at_depth_two_prunes_later_parents_and_their_children(gs):
    # At a budget of 5 one clan spans the root, its 8 children (the parents)
    # and their 64 children.  S on qubit 0 then T on qubit 1 is child 4 of
    # the first parent; in the clan's preorder its own match (cost 2) prunes
    # that parent's later children, the two CNOT parents (cost 2) and the
    # children of every later parent, which all cost 2 or more.
    table = gs.table(2)
    s0, t1 = table.index[("S", 0)], table.index[("T", 1)]
    assert s0 == 1  # the first parent
    goal = GoalSpec(2, circuit_unitary([table.cases[s0], table.cases[t1]], 2))
    report = assert_matches_reference(goal, WALK_BLOCK + 2, gs)
    assert [(p.name, p.top) for p in report.witness] == [("S", 0), ("T", 1)]
    later_parents = int(np.count_nonzero(table.costs[s0 + 1:] == 1))  # S1, T0, T1, H0, H1
    assert later_parents == 5
    # at most the root, S0, its earlier children with their blocks, S0 T1
    # itself, and the later cost-1 parents with none of their children
    block = node_count(8, WALK_BLOCK)
    assert report.circuits_examined <= 2 + (t1 - 1) * block + 1 + later_parents


@pytest.mark.parametrize("walk", [0, 1, 2])
@pytest.mark.parametrize("name", ["entangle2", "swap", "controlled_s"])
def test_clan_pass_matches_the_recursive_dfs(gs, walk, name):
    assert block_depth(8, 4, 100) == WALK_BLOCK
    assert clan_depth(8, walk, WALK_BLOCK) == walk
    report = assert_matches_reference(builtin(name), WALK_BLOCK + walk, gs)
    if name == "entangle2" and walk == 2:
        # H then CNOT: the optimum is a node on the clan's last level
        assert len(report.witness) == walk


def ghz_goal(gs, m):
    """GHZ preparation on m qubits: H on qubit 0, then CNOT down the chain."""
    circuit = [gs.placement("H", 0, m)] + [gs.placement("CNOT", q, m) for q in range(m - 1)]
    return GoalSpec(m, circuit_unitary(circuit, m), name=f"ghz{m}")


def walk_shape(gs, m, max_gates):
    """(L, c): the block depth and clan depth of a query at the shipped BLOCK_BYTES."""
    n = len(gs.table(m)) - 1
    depth = block_depth(n, 1 << m, max_gates)
    return depth, clan_depth(n, max_gates - depth, depth)


# the regimes past the built-in goals' clans of two levels: clans of one
# level on four and five qubits, and no block on six, where the walk
# examines every node itself
@pytest.mark.parametrize("m, max_gates, shape, min_cost, examined, witness", [
    (4, 4, (1, 1), 7, 101232, [("H", 0), ("CNOT", 0), ("CNOT", 1), ("CNOT", 2)]),
    (5, 3, (1, 1), None, 12720, None),
    (6, 2, (0, 0), None, 813, None),
])
def test_ghz_search_at_the_shipped_block_memory(gs, m, max_gates, shape, min_cost, examined,
                                                witness):
    assert walk_shape(gs, m, max_gates) == shape
    report = min_cost_search(ghz_goal(gs, m), max_gates, gs)
    assert report.min_cost == min_cost
    assert report.circuits_examined == examined
    assert (None if report.witness is None
            else [(p.name, p.top) for p in report.witness]) == witness


@pytest.mark.parametrize("m, max_gates", [(4, 3), (5, 2), (6, 2)])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(data=st.data(), reachable=st.booleans())
def test_wide_search_matches_recursive_dfs(gate_sets, m, max_gates, data, reachable):
    gs = gate_sets[0]
    assert walk_shape(gs, m, max_gates) == ((1, 1) if m < 6 else (0, 0))
    assert_matches_reference(draw_goal(data, gs.table(m), m, reachable), max_gates, gs)
