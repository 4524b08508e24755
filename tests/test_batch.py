"""The batched generation path against the scalar one it replaces.

The score arrays of `evaluate_batch` must equal `evaluate_circuit`'s scores
and those of a per-placement loop over the structured kernel exactly, and
`evolve` must reproduce a plain per-candidate loop (decode one bit string,
evaluate it, cache it by its bytes, scan in (member, measurement) order).
"""
import dataclasses
import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_forge import engine, evaluate
from oracle_forge.cli import extend_gate_set
from oracle_forge.codec import codon_bits, decode, decode_indices
from oracle_forge.engine import (
    HqeaParams,
    evolve,
    init_population,
    rotate_toward,
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
from oracle_forge.gates import (CNOT_MATRIX, Gate, GateSet, PlacementTable, default_gate_set,
                               placement_operator)
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
def gate_sets():
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
    base = default_gate_set()
    ext = extend_gate_set(base, entries)
    assert not np.array_equal(cycle @ cycle, np.eye(4))
    return base, ext


BLOCK_KINDS = {"wire": "diagonal", "S": "diagonal", "T": "diagonal", "D": "diagonal",
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


def kernel_batch(kernel, rows, table, goal, params=FP):
    """`evaluate_batch` with the named kernel, "block" or "row_sparse", picked
    by the crossover patched to below or above every matrix size."""
    with mock.patch.object(evaluate, "BLOCK_MIN_DIM", 1 if kernel == "block" else math.inf):
        return evaluate_batch(rows, table, goal, params)


def per_placement_batch(indices, table, goal, params):
    """The evaluator the row-sparse one replaced: per gate position, each
    placement present is applied with the structured kernel to its rows."""
    lams = np.tile(identity(goal.dim), (len(indices), 1, 1))
    for column in indices.T:
        for idx in np.unique(column[column != 0]):
            for r in np.flatnonzero(column == idx):
                lams[r] = apply_structured(placement_operator(table.cases[idx], goal.num_qubits),
                                           lams[r])
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
    # both kernels, whatever evaluate_batch would pick at this m
    table = gate_sets[extended].table(m)
    row = st.lists(st.integers(0, len(table) - 1), min_size=g, max_size=g)
    rows = np.array(data.draw(st.lists(row, min_size=1, max_size=6)) + [[0] * g])
    block = kernel_batch("block", rows, table, GOALS[m])[1]
    row_sparse = kernel_batch("row_sparse", rows, table, GOALS[m])[1]
    fitness, corr, cost = evaluate_batch(rows, table, GOALS[m], FP)
    assert block.tolist() == row_sparse.tolist() == corr.tolist()
    assert cost.tolist() == table.costs[rows].sum(axis=1).tolist()
    assert fitness.tolist() == [fitness_value(c, k, FP) for c, k in zip(cost.tolist(), corr.tolist())]


def head_rows(table, extended):
    """Rows of six positions that end a block kernel head in each way it can end.

    Width 1 are S, T, CNOT, CNOT2 and the wire; H (and the user gates CU and
    V) are wider.  A head ends at a row's second wide placement, or with the
    row.  CU has rows of width 1 and 2, so its product carries zero-weight
    pad slots, and the CNOT2 and P after it move them; V has rows of width
    4, so the extended table's heads end in 16 slots a row.
    """
    def at(*gates):
        return [table.index[gate] for gate in gates] + [0] * (6 - len(gates))

    rows = [
        at(),  # all wires
        at(("S", 0), ("CNOT", 1), ("T", 3), ("CNOT2", 2), ("S", 4), ("H", 3)),  # wide last
        at(("H", 0), ("CNOT", 0), ("T", 1), ("CNOT2", 1), ("H", 4), ("S", 1)),  # wide first
        at(("S", 0), ("H", 0), ("H", 1), ("CNOT", 0), ("T", 1)),  # two adjacent wide
        # H H on one qubit: the second's terms share columns and cancel to zeros
        at(("T", 2), ("H", 2), ("H", 2), ("S", 2)),
        at(("H", 1), ("H", 1)),
        at(("H", 0), ("T", 0), ("H", 3)),  # H on two qubits: disjoint columns
        # the CNOT carries the first H's row pair onto the second H's qubit
        at(("H", 1), ("CNOT", 1), ("H", 2)),
        at(("H", 3), ("CNOT2", 2), ("T", 2), ("H", 2)),
        at(("S", 1), ("H", 1), ("T", 0), ("CNOT", 0), ("S", 3), ("H", 0)),  # second wide last
        # narrow placements and a third wide one after the second
        at(("H", 0), ("H", 1), ("S", 0), ("CNOT", 1), ("H", 2), ("T", 3)),
        at(("H", 2), ("CNOT", 2), ("H", 3), ("H", 2), ("CNOT2", 1), ("H", 1)),
    ]
    if extended:
        rows.append(at(("CNOT", 2), ("CU", 1), ("CNOT2", 1), ("P", 2), ("H", 3), ("T", 2)))
        rows.append(at(("CU2", 0), ("P2", 1), ("S", 1), ("CU", 2), ("V", 0)))
        rows.append(at(("CU", 1), ("H", 1), ("S", 2)))  # pad slots into the second wide
        rows.append(at(("CU", 0), ("T", 1), ("H", 2)))
        rows.append(at(("H", 0), ("V", 0), ("T", 1)))  # H then V: 16 slots a row
        rows.append(at(("H", 2), ("CNOT", 1), ("V2", 1), ("H", 0)))
        # V then V on one pair: four terms an entry, summed in gate column order
        rows.append(at(("V", 0), ("S", 1), ("V", 0)))
        rows.append(at(("V", 2), ("V2", 2), ("T", 3)))
    return rows


@settings(max_examples=40, deadline=None)
@given(data=st.data(), extended=st.booleans(), m=st.sampled_from([5, 6]), g=st.integers(1, 8),
       chunk=st.sampled_from([1, 3, None]))
def test_block_head_matches_scalar_evaluator(gate_sets, data, extended, m, g, chunk):
    table = gate_sets[extended].table(m)
    narrow = np.flatnonzero(table.width == 1).tolist()
    wide = np.flatnonzero(table.width > 1).tolist()
    rows = []
    for _ in range(data.draw(st.integers(1, 30))):
        # mostly placements of width 1, and 0 to 3 wider ones anywhere
        k = data.draw(st.integers(0, min(3, g)))
        at = data.draw(st.sets(st.integers(0, g - 1), min_size=k, max_size=k))
        rows.append([data.draw(st.sampled_from(wide if j in at else narrow)) for j in range(g)])
    # the drawn rows and the explicit ones, padded with wires to one length
    length = max(g, 6)
    rows = np.array([row + [0] * (length - len(row)) for row in rows + head_rows(table, extended)])
    budget = evaluate.CHUNK_BYTES if chunk is None else chunk * 16 * (1 << 2 * m)
    with mock.patch.object(evaluate, "CHUNK_BYTES", budget):
        corr = kernel_batch("block", rows, table, GOALS[m])[1]
    refs = [evaluate_circuit([table.cases[i] for i in row], GOALS[m], FP).correctness
            for row in rows]
    assert corr.tolist() == refs


def count_block_steps(monkeypatch):
    """The list of block steps `block_overlaps` applies from now on."""
    applied = []

    def spy(step, *args):
        applied.append(step)
        return apply_block_step(step, *args)

    monkeypatch.setattr(evaluate, "apply_block_step", spy)
    return applied


def test_block_kernel_applies_only_the_positions_after_each_second_wide_placement(
        gate_sets, monkeypatch):
    table = gate_sets[0].table(5)
    applied = count_block_steps(monkeypatch)
    # rows cut after their last placement other than a wire, where that is
    # their second wide one or they have fewer: the head is the whole row
    ends = 0
    for row in head_rows(table, False):
        row = row[:max((j + 1 for j, i in enumerate(row) if i), default=0)]
        wide = int((table.width[row] > 1).sum())
        if wide < 2 or wide == 2 and table.width[row[-1]] > 1:
            corr = kernel_batch("block", np.array([row], dtype=np.int64), table, GOALS[5])[1]
            ref = evaluate_circuit([table.cases[i] for i in row], GOALS[5], FP)
            assert corr[0] == ref.correctness
            ends += 1
    assert ends == 7 and applied == []
    rows = np.random.default_rng(15).integers(0, len(table), (300, 8))
    corr = kernel_batch("block", rows, table, GOALS[5])[1]
    # each row's positions after its second wide placement, wires included
    count = np.cumsum(table.width[rows] > 1, axis=1)
    after = int((count > 2).sum() + ((count == 2) & (table.width[rows] == 1)).sum())
    assert len(applied) == after == 503
    assert corr.tolist() == kernel_batch("row_sparse", rows, table, GOALS[5])[1].tolist()


@pytest.mark.parametrize("kernel", ["block", "row_sparse"])
@pytest.mark.parametrize("shape", [(0, 6), (4, 0), (0, 0)])
def test_empty_batches_score_as_empty_circuits(kernel, shape):
    table = default_gate_set().table(5)
    fitness, corr, cost = kernel_batch(kernel, np.zeros(shape, dtype=np.int64), table, GOALS[5])
    assert fitness.shape == corr.shape == cost.shape == (shape[0],)
    ref = evaluate_circuit([], GOALS[5], FP)
    assert corr.tolist() == [ref.correctness] * shape[0]
    assert fitness.tolist() == [ref.fitness] * shape[0]
    assert cost.tolist() == [0] * shape[0]


def test_repeated_block_batch_allocates_no_chunk_sized_array():
    table = default_gate_set().table(6)
    rows = np.random.default_rng(14).integers(0, len(table), (200, 8))
    evaluate_batch(rows, table, GOALS[6], FP)  # builds the head tables and the buffers
    tracemalloc.start()
    try:
        evaluate_batch(rows, table, GOALS[6], FP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the stack of 64 x 64 matrices is 256 KiB, and the head chunk's w * w
    # slot arrays 350 KiB; what a call allocates is numpy's 128 KiB
    # iteration buffer of a dense block step's broadcast product, and index
    # arrays of the rows
    assert peak < 256 * 1024


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_each_block_step_matches_the_structured_kernel(gate_sets, m):
    rng = np.random.default_rng(m)
    dim = 1 << m
    for gs in gate_sets:
        table = gs.table(m)
        for case, step in zip(table.cases, table.steps):
            assert step.kind == BLOCK_KINDS[case.name]
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            ref = apply_structured(placement_operator(case, m), x)
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
    # the gathers clip, so a table that reads outside its matrix (4x4: rows
    # 0..3), where a chunk's next matrix or nothing lies, is not built
    table = gate_sets[0].table(2)
    cols = table.cols.copy()
    cols[1, 0, 0] = bad_row
    with pytest.raises(IndexError, match="^placement table reads outside the 4 rows of a matrix$"):
        dataclasses.replace(table, cols=cols)
    # and a built table's checked reads cannot change
    for array in (table.costs, table.cols, table.vals, table.width):
        with pytest.raises(ValueError, match="read-only"):
            array[1] = bad_row


@pytest.mark.parametrize("g", [1, 2, 4])
def test_huge_cost_rows_score_as_the_scalar_evaluator_or_are_rejected(g):
    # one gate of cost 2^62 fits in int64, where the batch sums costs; the
    # rows of two or more could sum past it, which wrapped to a negative cost
    x_gate = np.array([[0, 1], [1, 0]], dtype=complex)
    table = extend_gate_set(default_gate_set(), [gate_entry("X", x_gate, 1 << 62)]).table(2)
    x = table.index[("X", 0)]
    rows = np.array([[x] * g, [x] + [0] * (g - 1)])
    goal, fp = builtin("swap"), FitnessParams(satcost=6)
    if g * (1 << 62) >= 1 << 63:
        with pytest.raises(ValueError, match=rf"^the cost of {g} gates must be below 2\^63, got"):
            evaluate_batch(rows, table, goal, fp)
    else:
        refs = [evaluate_circuit([table.cases[i] for i in row], goal, fp) for row in rows]
        assert_scores_equal(evaluate_batch(rows, table, goal, fp), refs)


@pytest.mark.parametrize("bad_index", [-1, 9])
def test_batch_rejects_an_index_outside_the_table(gate_sets, bad_index):
    table = gate_sets[0].table(2)  # 9 placements
    with pytest.raises(IndexError):
        kernel_batch("row_sparse", np.array([[1, 2], [bad_index, 0]]), table, GOALS[2])


@pytest.mark.parametrize("bad_index", [-1, 24])
def test_block_kernel_rejects_an_index_outside_the_table(gate_sets, bad_index):
    # from 16 x 16 up the block kernel scores the rows; a negative index must
    # not wrap to the last placement, nor N fail on a bare tuple index
    table = gate_sets[0].table(5)
    assert len(table) == 24
    rows = np.array([[1, 2], [bad_index, 3]])
    message = r"^placement indices outside \[0, 24\)$"
    with pytest.raises(IndexError, match=message):
        kernel_batch("block", rows, table, GOALS[5])
    with pytest.raises(IndexError, match=message):
        evaluate_batch(rows, table, GoalSpec(5, np.eye(32)), FitnessParams(satcost=2))


def prefix_lambdas(table, m, depth):
    """The lambdas of every prefix of 0 to `depth` placement indices, one stack per length.

    Entry k of the stack of length h is the prefix whose base-N digits are k,
    built from its parent, entry k // N of the stack of length h - 1, with
    one structured product as `circuit_unitary` applies it, so it equals
    `circuit_unitary` of the prefix bit for bit.
    """
    ops = [placement_operator(p, m) for p in table.cases]
    levels = [identity(1 << m)[None]]
    for _ in range(depth):
        levels.append(np.stack([apply_structured(op, parent)
                                for parent in levels[-1] for op in ops]))
    return levels


@pytest.mark.parametrize("m", range(1, 5))
def test_prefix_table_holds_each_prefix_lambda_exactly(gate_sets, m):
    dim = 1 << m
    matrix = 16 * dim * dim
    budget = 8 * evaluate.CHUNK_BYTES
    rng = np.random.default_rng(m)
    for gs, default_depth in zip(gate_sets, ([7, 4, 2, 2][m - 1], None)):
        table = gs.table(m)
        n = len(table)
        scratch = evaluate.kernel_scratch(evaluate.RowSparseScratch, table)
        h = scratch.depth
        # the deepest whose N^h matrices fit in the table's budget
        assert n ** h * matrix <= budget < n ** (h + 1) * matrix
        assert default_depth in (None, h)
        assert scratch.prefixes.shape == (n ** h, dim, dim)
        assert scratch.prefixes.nbytes <= budget
        # entry k is the prefix whose base-N digits are k, wires included;
        # float views compare real and imaginary parts (zeros up to sign)
        levels = prefix_lambdas(table, m, h)
        assert np.array_equal(scratch.prefixes.view(float), levels[h].view(float))
        for k in (0, n ** h // 2, n ** h - 1):
            prefix = np.unravel_index(k, (n,) * h)
            ref = circuit_unitary([table.cases[i] for i in prefix], m)
            assert np.array_equal(levels[h][k].view(float), ref.view(float))
        # rows shorter than the prefix pad it with wires
        for g in range(1, h):
            rows = np.vstack([rng.integers(0, n, (5, g)), np.zeros((1, g), dtype=np.int64)])
            refs = [evaluate_circuit([table.cases[i] for i in row], GOALS[m], FP) for row in rows]
            assert_scores_equal(evaluate_batch(rows, table, GOALS[m], FP), refs)
        # a new budget gets a new scratch, whose table of 16 matrices is
        # built two matrices at a time
        with mock.patch.object(evaluate, "CHUNK_BYTES", 2 * matrix):
            small_scratch = evaluate.kernel_scratch(evaluate.RowSparseScratch, table)
            small = small_scratch.depth
            assert small_scratch.chunk == 2 and n ** small <= 16 < n ** (small + 1)
            assert np.array_equal(small_scratch.prefixes.view(float), levels[small].view(float))
        assert evaluate.kernel_scratch(evaluate.RowSparseScratch, table).depth == h


@pytest.mark.parametrize("m, kind", [(2, evaluate.RowSparseScratch), (5, evaluate.BlockScratch)])
def test_calls_on_one_table_reuse_one_scratch(monkeypatch, m, kind):
    table = default_gate_set().table(m)
    used = []
    kept = PlacementTable.kept

    def recording(self, key, build):
        used.append(kept(self, key, build))
        return used[-1]

    monkeypatch.setattr(PlacementTable, "kept", recording)
    rows = np.array([[1, 2, 0], [3, 0, 1]])
    for _ in range(2):
        evaluate_batch(rows, table, GOALS[m], FP)
    assert len(used) == 2 and type(used[0]) is kind and used[1] is used[0]


def test_a_table_of_the_wire_alone_has_no_prefix_depth():
    # two-qubit gates only, on one qubit: every prefix is the identity
    table = GateSet((Gate("CNOT", CNOT_MATRIX, 2),)).table(1)
    assert len(table) == 1 and evaluate.kernel_scratch(evaluate.RowSparseScratch, table).depth == 0
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
    # two qubits hold the largest prefix table of the row-sparse kernel's
    # workloads, three the largest chunk of matrices
    for m in (2, 3):
        table = default_gate_set().table(m)
        rows = np.random.default_rng(13).integers(0, len(table), (200, 8))
        evaluate_batch(rows, table, GOALS[m], FP)  # builds the prefix table and the buffers
        tracemalloc.start()
        try:
            evaluate_batch(rows, table, GOALS[m], FP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a chunk of 200 matrices is 200 KiB at 8x8 and 50 KiB at 4x4
        assert peak < 32 * 1024


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 8])
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
            ref = identity(dim) if i == 0 else embed_dense(placement_operator(table.cases[i], m))
            assert np.array_equal(dense, ref)
            terms = vals != 0
            # nonzeros first, in increasing column order, then weight 0 on row 0
            assert terms.sum(axis=1).max() == table.width[i]
            assert not (~terms[:, :-1] & terms[:, 1:]).any()
            assert np.all(np.where(terms[:, 1:], np.diff(cols, axis=1) > 0, True))
            assert not cols[~terms].any()


def test_batched_kernel_rejects_wrong_shapes():
    # the structured kernel takes one matrix: a stack of them is rejected too
    op = StructuredOperator(2, np.eye(2, dtype=complex), 1)
    for shape in ((4,), (3, 4, 3), (3, 4, 4), (2, 2, 4, 4)):
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
    ("controlled_s", 20, 5, False),  # rows past one int64 key word
    ("random5", 4, 4, True),  # 32x32: the block kernel
    ("random6", 5, 6, False),  # 64x64
])
# a generation's distinct rows are scored in multi-row chunks, or one row per chunk
@pytest.mark.parametrize("chunk_bytes", [1 << 16, 7])
def test_evolve_matches_scalar_loop(gate_sets, monkeypatch, goal_name, g, seed, extended,
                                    chunk_bytes):
    monkeypatch.setattr(evaluate, "CHUNK_BYTES", chunk_bytes)
    gs = gate_sets[extended]
    goal = GOALS[int(goal_name[-1])] if goal_name.startswith("random") else builtin(goal_name)
    params = small(seed)
    if g > 8:
        # rows this long are drawn twice in a generation only once the
        # population converges, which takes fewer restarts
        params = dataclasses.replace(params, max_gen=60, restart_after=40)
    result = evolve(goal, gs, g, params)
    history, best_bits, best_eval = scalar_evolve(goal, gs, g, params)
    assert result.history == history
    assert np.array_equal(result.best_bits, best_bits)
    assert np.array_equal(result.best_eval.lambda_matrix, best_eval.lambda_matrix)
    assert (result.best_eval.fitness, result.best_eval.correctness, result.best_eval.allcost) \
        == (best_eval.fitness, best_eval.correctness, best_eval.allcost)


def test_each_generation_scores_each_distinct_drawn_row_once(monkeypatch):
    # satcost 0 never succeeds, and the population converges enough to draw
    # equal rows within a generation
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
    # rows of 20 placements of 9 are past one int64 key word (9^20 > 2^63)
    for g in (6, 20):
        drawn.clear()
        scored.clear()
        result = evolve(goal, gs, g, params)
        assert len(drawn) == len(scored) == result.generations_run == params.max_gen
        merged = 0
        for rows, batch in zip(drawn, scored):
            # each distinct row as drawn, wires in place, once, in the order
            # of the rows' base-N keys, which is their lexicographic order
            distinct = sorted({tuple(row) for row in rows.tolist()})
            assert [tuple(row) for row in batch.tolist()] == distinct
            merged += len(rows) - len(batch)
        assert merged > 0  # some generations drew equal rows
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


@pytest.mark.parametrize("m", [3, 4], ids=["row-sparse", "block"])
def test_two_threads_on_one_gate_set_score_as_one_thread_does(m):
    # each kernel keeps its buffers on the placement table the threads share;
    # satcost 0 keeps every run from stopping early on a success
    gs = default_gate_set()
    circuit = [gs.placement("H", 0, m)] + [gs.placement("CNOT", q, m) for q in range(m - 1)]
    goal = GoalSpec(m, circuit_unitary(circuit, m))
    params = [HqeaParams(FitnessParams(0), max_gen=30, seed=seed) for seed in range(6)]
    want = [evolve(goal, default_gate_set(), 8, p) for p in params]
    got = [None] * len(params)

    def run(first):
        for i in range(first, len(params), 2):
            got[i] = evolve(goal, gs, 8, params[i])

    threads = [threading.Thread(target=run, args=(first,)) for first in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for a, b in zip(got, want):
        assert np.array_equal(a.best_bits, b.best_bits) and a.history == b.history
