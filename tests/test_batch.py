"""The batched generation path against the scalar one it replaces.

The score arrays of `evaluate_batch` must equal `evaluate_circuit`'s scores
and those of a per-placement loop over the structured kernel exactly, and
`evolve` must reproduce a plain per-candidate loop (decode one bit string,
evaluate it, cache it by its bytes, scan in (member, measurement) order).
"""
import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_forge import engine, evaluate
from oracle_forge.codec import codon_bits, decode, decode_indices
from oracle_forge.engine import (
    HqeaParams,
    evolve,
    init_population,
    rotate_toward,
    wire_compacted,
)
from oracle_forge.evaluate import (
    FitnessParams,
    GoalSpec,
    Score,
    circuit_unitary,
    correctness,
    evaluate_batch,
    evaluate_circuit,
    fitness_value,
    is_success,
)
from oracle_forge.gates import CNOT_MATRIX, Gate, GateSet, default_gate_set, extend_gate_set
from oracle_forge.kron_apply import (
    StructuredOperator,
    apply_block_step,
    apply_structured,
    embed_dense,
)
from oracle_forge.linalg import identity
from oracle_forge.targets import builtin


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gate_entry(name, matrix, cost):
    arity = matrix.shape[0].bit_length() - 1
    return {"name": name, "arity": arity, "cost": cost,
            "matrix": [[[z.real, z.imag] for z in row] for row in matrix]}


@pytest.fixture(scope="module")
def gate_sets(tmp_path_factory):
    """The default gate set and one extended by user gates of every block kind.

    The user gates are dense 2x2 and 4x4 unitaries, a controlled unitary
    (dense, with zero entries), a 4-cycle of basis states (a permutation that
    is not its own inverse, unlike CNOT) and a diagonal of non-unit phases
    after a 1.
    """
    rng = np.random.default_rng(5)
    controlled = np.eye(4, dtype=complex)
    controlled[2:, 2:] = random_unitary(rng, 2)
    cycle = np.eye(4, dtype=complex)[[3, 0, 1, 2]]
    phases = np.diag(np.exp(1j * np.array([0.0, 0.7, 2.1, -1.3])))
    entries = [gate_entry("U", random_unitary(rng, 2), 1), gate_entry("V", random_unitary(rng, 4), 3),
               gate_entry("CU", controlled, 2), gate_entry("P", cycle, 2),
               gate_entry("D", phases, 2)]
    path = tmp_path_factory.mktemp("gates") / "user.json"
    path.write_text(json.dumps(entries))
    base = default_gate_set()
    ext = extend_gate_set(base, path)
    assert not np.array_equal(cycle @ cycle, np.eye(4))
    return base, ext


BLOCK_KINDS = {"wire": "wire", "S": "diagonal", "T": "diagonal", "D": "diagonal",
               "D2": "diagonal", "CNOT": "permutation", "CNOT2": "permutation",
               "P": "permutation", "P2": "permutation", "H": "dense", "U": "dense",
               "V": "dense", "V2": "dense", "CU": "dense", "CU2": "dense"}


GOALS = {m: GoalSpec(m, random_unitary(np.random.default_rng(m), 1 << m)) for m in range(1, 7)}
FP = FitnessParams(satcost=4, award=1.0, punish=20.0)


def assert_scores_equal(batch, scores):
    """The three arrays of `evaluate_batch` against a list of exact scores."""
    fitness, corr, cost = batch
    assert fitness.shape == corr.shape == cost.shape == (len(scores),)
    assert cost.dtype == np.int64
    assert fitness.tolist() == [s.fitness for s in scores]
    assert corr.tolist() == [s.correctness for s in scores]
    assert cost.tolist() == [s.allcost for s in scores]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), extended=st.booleans(), m=st.integers(1, 6), g=st.integers(1, 8))
def test_batch_matches_scalar_evaluator(gate_sets, data, extended, m, g):
    gs = gate_sets[extended]
    table = gs.table(m)
    row = st.lists(st.integers(0, len(table) - 1), min_size=g, max_size=g)
    rows = data.draw(st.lists(row, min_size=1, max_size=10))
    rows += [[0] * g, rows[0]]  # an all-wire row and a duplicate row
    refs = [evaluate_circuit([table.cases[i] for i in row], GOALS[m], FP) for row in rows]
    assert_scores_equal(evaluate_batch(np.array(rows), table, GOALS[m], FP), refs)


def per_placement_batch(indices, table, goal, params):
    """The evaluator the row-sparse one replaced: per gate position, each
    placement present is applied with the structured kernel to its rows."""
    lams = np.tile(identity(goal.dim), (len(indices), 1, 1))
    for column in indices.T:
        for idx in np.unique(column[column != 0]):
            rows = np.flatnonzero(column == idx)
            lams[rows] = apply_structured(table.operators[idx], lams[rows])
    costs = table.costs[indices].sum(axis=1).tolist()
    scores = []
    for lam, cost in zip(lams, costs):
        corr = correctness(lam, goal)
        scores.append(Score(fitness_value(cost, corr, params), corr, cost))
    return lams, scores


@settings(max_examples=80, deadline=None)
@given(data=st.data(), extended=st.booleans(), m=st.integers(1, 6), g=st.integers(1, 8),
       chunk=st.sampled_from([1, 2, 3, None]), wire_column=st.booleans())
def test_batch_matches_per_placement_loop(gate_sets, data, extended, m, g, chunk, wire_column):
    gs = gate_sets[extended]
    table = gs.table(m)
    # chunk matrices per chunk (None: the module's budget); batch sizes on
    # both sides of a chunk boundary
    size = data.draw(st.integers(1, 2 * (chunk or 2) + 1))
    row = st.lists(st.integers(0, len(table) - 1), min_size=g, max_size=g)
    rows = np.array(data.draw(st.lists(row, min_size=size, max_size=size)))
    if wire_column:
        rows[:, data.draw(st.integers(0, g - 1))] = 0
    rows = np.vstack([rows, np.zeros((1, g), dtype=rows.dtype)])  # an all-wire row
    budget = evaluate.CHUNK_BYTES if chunk is None else chunk * 16 * (1 << 2 * m)
    with mock.patch.object(evaluate, "CHUNK_BYTES", budget):
        batch = evaluate_batch(rows, table, GOALS[m], FP)
    ref_lams, ref_scores = per_placement_batch(rows, table, GOALS[m], FP)
    assert_scores_equal(batch, ref_scores)
    assert np.array_equal(ref_lams[-1], identity(1 << m))
    assert batch[1][-1] == correctness(identity(1 << m), GOALS[m])


@pytest.mark.parametrize("m", range(1, 7))
@settings(max_examples=15, deadline=None)
@given(data=st.data(), extended=st.booleans(), g=st.integers(1, 8))
def test_block_and_row_sparse_kernels_agree(gate_sets, m, data, extended, g):
    # both kernels called directly, whatever evaluate_batch would pick at this m
    table = gate_sets[extended].table(m)
    row = st.lists(st.integers(0, len(table) - 1), min_size=g, max_size=g)
    rows = np.array(data.draw(st.lists(row, min_size=1, max_size=6)) + [[0] * g])
    block = evaluate.block_correctness(rows, table, GOALS[m])
    row_sparse = evaluate.row_sparse_correctness(rows, table, GOALS[m])
    fitness, corr, cost = evaluate_batch(rows, table, GOALS[m], FP)
    assert block.tolist() == row_sparse.tolist() == corr.tolist()
    assert cost.tolist() == table.costs[rows].sum(axis=1).tolist()
    assert fitness.tolist() == [fitness_value(c, k, FP) for c, k in zip(cost.tolist(), corr.tolist())]


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_each_block_step_matches_the_structured_kernel(gate_sets, m):
    rng = np.random.default_rng(m)
    dim = 1 << m
    for gs in gate_sets:
        table = gs.table(m)
        for i, (case, step) in enumerate(zip(table.cases, table.steps)):
            assert step.kind == BLOCK_KINDS[case.name]
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            ref = x if i == 0 else apply_structured(table.operators[i], x)
            lam, spare, term = np.empty((3, dim, dim), dtype=complex)
            lam[:] = x
            got, free = apply_block_step(step, lam, spare, term)
            assert np.array_equal(got, ref)
            # the result and the free buffer are the two matrix buffers
            assert {id(got), id(free)} == {id(lam), id(spare)}
    # a diagonal step scales only its non-unit entries
    assert [p for p, _ in gate_sets[0].table(2).steps[1].entries] == [1]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.integers(1, 4), g=st.integers(1, 6),
       phase=st.floats(0, 2 * math.pi, exclude_max=True))
def test_batch_correctness_ignores_a_global_phase_on_the_goal(data, m, g, phase):
    table = default_gate_set().table(m)
    row = st.lists(st.integers(0, len(table) - 1), min_size=g, max_size=g)
    rows = np.array(data.draw(st.lists(row, min_size=1, max_size=8)))
    # the goal is itself a circuit of the batch, so some correctness is 1
    goal = GoalSpec(m, circuit_unitary([table.cases[i] for i in rows[0]], m))
    turned = GoalSpec(m, np.exp(1j * phase) * goal.matrix)
    _, corr, _ = evaluate_batch(rows, table, goal, FP)
    _, corr_turned, _ = evaluate_batch(rows, table, turned, FP)
    assert np.allclose(corr_turned, corr, rtol=0, atol=1e-12)
    assert abs(corr[0] - 1.0) < 1e-12


@pytest.mark.parametrize("bad_row", [-1, 4])
def test_batch_rejects_a_read_outside_the_chunk(gate_sets, bad_row):
    # the gathers clip, so a table that reads outside the chunk (one 4x4
    # matrix: flat rows 0..3) must raise instead
    table = gate_sets[0].table(2)
    cols = table.cols.copy()
    cols[1, 0, 0] = bad_row
    bad = dataclasses.replace(table, cols=cols)
    with pytest.raises(IndexError):
        evaluate_batch(np.array([[1, 0]]), bad, GOALS[2], FP)
    # two rows share a chunk (flat rows 0..7), where row 4 is the second
    # matrix's: the read must still raise
    with pytest.raises(IndexError):
        evaluate_batch(np.array([[1, 0], [2, 0]]), bad, GOALS[2], FP)


@pytest.mark.parametrize("bad_index", [-1, 9])
def test_batch_rejects_an_index_outside_the_table(gate_sets, bad_index):
    table = gate_sets[0].table(2)  # 9 placements
    with pytest.raises(IndexError):
        evaluate.row_sparse_correctness(np.array([[1, 2], [bad_index, 0]]), table, GOALS[2])


@pytest.mark.parametrize("bad_index", [-1, 24])
def test_block_kernel_rejects_an_index_outside_the_table(gate_sets, bad_index):
    # from 32 x 32 up the block kernel scores the rows; a negative index must
    # not wrap to the last placement, nor N fail on a bare tuple index
    table = gate_sets[0].table(5)
    assert len(table) == 24
    rows = np.array([[1, 2], [bad_index, 3]])
    message = r"^placement indices outside \[0, 24\)$"
    with pytest.raises(IndexError, match=message):
        evaluate.block_correctness(rows, table, GOALS[5])
    with pytest.raises(IndexError, match=message):
        evaluate_batch(rows, table, GoalSpec(5, np.eye(32)), FitnessParams(satcost=2))


@pytest.mark.parametrize("m", range(1, 5))
def test_prefix_table_holds_each_prefix_lambda_exactly(gate_sets, m):
    dim = 1 << m
    matrix = 16 * dim * dim
    rng = np.random.default_rng(m)
    for gs, default_depth in zip(gate_sets, ([6, 3, 2, 1][m - 1], None)):
        table = gs.table(m)
        n = len(table)
        scratch = evaluate.row_sparse_scratch(table)
        h = scratch.depth
        # the deepest whose N^h matrices fit in the chunk budget
        assert n ** h * matrix <= evaluate.CHUNK_BYTES < n ** (h + 1) * matrix
        assert default_depth in (None, h)
        assert scratch.prefixes.shape == (n ** h, dim, dim)
        # entry k is the prefix whose base-N digits are k, wires included;
        # float views compare real and imaginary parts (zeros up to sign)
        for k, prefix in enumerate(np.indices((n,) * h).reshape(h, -1).T):
            ref = circuit_unitary([table.cases[i] for i in prefix], m)
            assert np.array_equal(scratch.prefixes[k].view(float), ref.view(float))
        # rows shorter than the prefix pad it with wires
        for g in range(1, h):
            rows = np.vstack([rng.integers(0, n, (5, g)), np.zeros((1, g), dtype=np.int64)])
            refs = [evaluate_circuit([table.cases[i] for i in row], GOALS[m], FP) for row in rows]
            assert_scores_equal(evaluate_batch(rows, table, GOALS[m], FP), refs)
        # a new budget gets a new scratch
        with mock.patch.object(evaluate, "CHUNK_BYTES", 2 * matrix):
            small_scratch = evaluate.row_sparse_scratch(table)
            assert (small_scratch.chunk, small_scratch.depth) == (2, 0)
        assert evaluate.row_sparse_scratch(table).depth == h


def test_a_table_of_the_wire_alone_has_no_prefix_depth():
    # two-qubit gates only, on one qubit: every prefix is the identity
    table = GateSet(one_qubit=(), two_qubit=(Gate("CNOT", CNOT_MATRIX, 2),)).table(1)
    assert len(table) == 1 and evaluate.row_sparse_scratch(table).depth == 0
    _, corr, _ = evaluate_batch(np.zeros((3, 4), dtype=np.int64), table, GOALS[1], FP)
    assert corr.tolist() == [correctness(identity(2), GOALS[1])] * 3


def test_kernel_buffers_carry_nothing_from_call_to_call(gate_sets):
    # calls of other sizes and qubit counts on one gate set, interleaved, so
    # each call finds buffers last written by a different one
    gs = gate_sets[0]
    rng = np.random.default_rng(12)
    for m, size, g in [(3, 200, 8), (2, 200, 8), (3, 3, 5), (2, 3, 1), (3, 200, 3), (2, 200, 8)]:
        table = gs.table(m)
        rows = rng.integers(0, len(table), (size, g))
        rows[::7, g // 2:] = 0  # some short circuits
        refs = [evaluate_circuit([table.cases[i] for i in row], GOALS[m], FP) for row in rows]
        assert_scores_equal(evaluate_batch(rows, table, GOALS[m], FP), refs)


def test_repeated_batch_allocates_no_chunk_sized_array():
    table = default_gate_set().table(3)
    rows = np.random.default_rng(13).integers(0, len(table), (200, 8))
    evaluate_batch(rows, table, GOALS[3], FP)  # builds the prefix table and the buffers
    tracemalloc.start()
    try:
        evaluate_batch(rows, table, GOALS[3], FP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a chunk of 200 8x8 matrices is 200 KiB
    assert peak < 64 * 1024


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(st.integers(0, 3), min_size=4, max_size=4), min_size=1,
                     max_size=12))
def test_wire_compacted_keys_collide_exactly_on_equal_gate_sequences(rows):
    gates = [[i for i in row if i] for row in rows]
    # each row again with its wires moved to the front
    rows = rows + [[0] * (len(row) - len(seq)) + seq for row, seq in zip(rows, gates)]
    gates = gates + gates
    compact, keys = wire_compacted(np.array(rows, dtype=np.int64))
    for row, gate_row in zip(compact.tolist(), gates):
        assert row == gate_row + [0] * (len(row) - len(gate_row))
    assert keys.shape == (len(rows),)
    for a, key_a in zip(gates, keys.tolist()):
        for b, key_b in zip(gates, keys.tolist()):
            assert (key_a == key_b) == (a == b)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_row_sparse_table_rebuilds_each_placement(gate_sets, m):
    for gs in gate_sets:
        table = gs.table(m)
        dim = 1 << m
        n, w = len(table), table.cols.shape[-1]
        assert table.cols.shape == table.vals.shape == (n, dim, w)
        assert table.width.shape == (n,) and table.width[0] == 1
        for i in range(n):
            cols, vals = table.cols[i], table.vals[i]
            dense = np.zeros((dim, dim), dtype=complex)
            np.add.at(dense, (np.arange(dim)[:, None], cols), vals)
            ref = identity(dim) if i == 0 else embed_dense(table.operators[i])
            assert np.array_equal(dense, ref)
            terms = vals != 0
            # nonzeros first, in increasing column order, then weight 0 on row 0
            assert terms.sum(axis=1).max() == table.width[i]
            assert not (~terms[:, :-1] & terms[:, 1:]).any()
            assert np.all(np.where(terms[:, 1:], np.diff(cols, axis=1) > 0, True))
            assert not cols[~terms].any()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dims=st.tuples(*[st.sampled_from([1, 2, 4])] * 3),
       batch=st.integers(1, 5))
def test_batched_kernel_matches_each_matrix(seed, dims, batch):
    rng = np.random.default_rng(seed)
    m, n, k = dims[0], 2 * dims[1], dims[2]
    gate = random_unitary(rng, n)
    gate[0, -1] = 0  # one zero entry, so the kernel has a product to skip
    op = StructuredOperator(m, gate, k)
    shape = (batch, op.dim, op.dim)
    stack = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = apply_structured(op, stack)
    assert out.shape == stack.shape
    for b, o in zip(stack, out):
        assert np.array_equal(o, apply_structured(op, b))


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
    ("random5", 4, 4, True),  # 32x32: the block kernel
])
# a generation's distinct rows are scored in multi-row chunks, or one row per chunk
@pytest.mark.parametrize("chunk_bytes", [1 << 16, 7])
def test_evolve_matches_scalar_loop(gate_sets, monkeypatch, goal_name, g, seed, extended,
                                    chunk_bytes):
    monkeypatch.setattr(evaluate, "CHUNK_BYTES", chunk_bytes)
    gs = gate_sets[extended]
    goal = GOALS[5] if goal_name == "random5" else builtin(goal_name)
    params = small(seed)
    result = evolve(goal, gs, g, params)
    history, best_bits, best_eval = scalar_evolve(goal, gs, g, params)
    assert result.history == history
    assert np.array_equal(result.best_bits, best_bits)
    assert np.array_equal(result.best_eval.lambda_matrix, best_eval.lambda_matrix)
    assert (result.best_eval.fitness, result.best_eval.correctness, result.best_eval.allcost) \
        == (best_eval.fitness, best_eval.correctness, best_eval.allcost)


def test_each_generation_scores_each_distinct_gate_sequence_once(monkeypatch):
    # satcost 0 never succeeds, and the population converges enough to draw
    # equal gate sequences with their wires in other positions
    params = dataclasses.replace(small(0, satcost=0), max_gen=80, restart_after=40)
    goal, gs = builtin("controlled_s"), default_gate_set()
    drawn, scored = [], []

    def decode_spy(bits, n_cases):
        drawn.append(decode_indices(bits, n_cases))
        return drawn[-1]

    def batch_spy(indices, *args):
        scored.append(indices)
        return evaluate_batch(indices, *args)

    monkeypatch.setattr(engine, "decode_indices", decode_spy)
    monkeypatch.setattr(engine, "evaluate_batch", batch_spy)
    result = evolve(goal, gs, 6, params)
    assert len(drawn) == len(scored) == result.generations_run == params.max_gen
    merged = 0
    for rows, batch in zip(drawn, scored):
        sequences = [tuple(i for i in row if i) for row in rows.tolist()]
        batch_sequences = [tuple(i for i in row if i) for row in batch.tolist()]
        # wire-compacted rows, one per distinct gate sequence of the generation
        assert batch.tolist() == [list(seq) + [0] * (6 - len(seq)) for seq in batch_sequences]
        assert sorted(batch_sequences) == sorted(set(sequences))
        merged += len({tuple(row) for row in rows.tolist()}) - len(batch)
    assert merged > 0  # some equal gate sequences were drawn with their wires elsewhere
    # the scores are Python numbers, so the history prints as the scalar path's does
    assert all(type(fit) is float and type(corr) is float and type(cost) is int
               for _, fit, corr, cost in result.history)


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
