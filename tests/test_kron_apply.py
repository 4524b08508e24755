import numpy as np
import pytest

from oracle_forge.gates import CNOT_MATRIX, H_MATRIX
from oracle_forge import kron_apply
from oracle_forge.kron_apply import (
    StructuredOperator,
    apply_structured,
    benchmark_sweep,
    benchmark_triple,
    embed_dense,
    row_sparse,
    speedup_predicted,
)
from oracle_forge.linalg import MulCounter, identity, kron, mat_mul_naive

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_operator_validation():
    with pytest.raises(ValueError):
        StructuredOperator(3, identity(2), 1)
    with pytest.raises(ValueError):
        StructuredOperator(2, identity(3), 1)
    with pytest.raises(ValueError):
        StructuredOperator(2, identity(2), 0)


def test_apply_degenerate_identities():
    op = StructuredOperator(1, H_MATRIX, 1)
    assert np.abs(apply_structured(op, identity(2)) - H_MATRIX).max() <= 1e-15


def test_apply_block_diagonal_structure():
    op = StructuredOperator(2, X, 1)
    got = apply_structured(op, identity(4))
    want = np.zeros((4, 4), dtype=complex)
    want[:2, :2] = X
    want[2:, 2:] = X
    assert np.array_equal(got, want)


def test_apply_matches_dense_oracle():
    rng = np.random.default_rng(11)
    op = StructuredOperator(2, random_matrix(rng, 2), 2)
    b = random_matrix(rng, 8)
    ref = mat_mul_naive(embed_dense(op), b)
    assert np.abs(apply_structured(op, b) - ref).max() <= 1e-12


def test_apply_dimension_mismatch():
    op = StructuredOperator(2, identity(2), 2)
    with pytest.raises(ValueError):
        apply_structured(op, identity(4))


def test_embed_dense_definitions():
    assert np.array_equal(embed_dense(StructuredOperator(1, H_MATRIX, 1)), H_MATRIX)
    op = StructuredOperator(1, CNOT_MATRIX, 2)
    assert np.array_equal(embed_dense(op), kron(CNOT_MATRIX, identity(2)))
    op = StructuredOperator(2, H_MATRIX, 2)
    assert np.array_equal(embed_dense(op), kron(identity(2), kron(H_MATRIX, identity(2))))


def test_embed_dense_overflow():
    with pytest.raises(ValueError):
        embed_dense(StructuredOperator(1024, identity(2), 1024))


def test_speedup_predicted():
    assert speedup_predicted(8, 2, 8)
    assert not speedup_predicted(1, 4, 1)
    assert not speedup_predicted(2, 2, 1)
    with pytest.raises(ValueError):
        speedup_predicted(3, 2, 2)


def test_random_equivalence_sweep():
    rng = np.random.default_rng(5)
    dims = [1, 2, 4, 8]
    for _ in range(50):
        m, n, k = (int(rng.choice(dims)) for _ in range(3))
        op = StructuredOperator(m, random_matrix(rng, n), k)
        b = random_matrix(rng, m * n * k)
        ref = embed_dense(op) @ b
        assert np.abs(apply_structured(op, b) - ref).max() <= 1e-12


def test_exact_multiplication_counts():
    rng = np.random.default_rng(9)
    for m, n, k in [(1, 2, 1), (2, 2, 2), (4, 2, 1), (2, 4, 2), (8, 2, 8)]:
        op = StructuredOperator(m, random_matrix(rng, n), k)
        b = random_matrix(rng, m * n * k)
        sc = MulCounter()
        apply_structured(op, b, counter=sc)
        assert sc.count == m * m * n ** 3 * k * k
        nc = MulCounter()
        mat_mul_naive(embed_dense(op), b, counter=nc)
        assert nc.count == (m * n * k) ** 3


def test_count_ratio_for_8_2_8():
    rng = np.random.default_rng(1)
    op = StructuredOperator(8, random_matrix(rng, 2), 8)
    b = random_matrix(rng, 128)
    sc = MulCounter()
    apply_structured(op, b, counter=sc)
    assert sc.count == 32768
    nc = MulCounter()
    mat_mul_naive(embed_dense(op), b, counter=nc)
    assert nc.count == 2097152
    assert nc.count // sc.count == 64


def test_zero_gate_entries_are_skipped_and_not_counted():
    rng = np.random.default_rng(2)
    m, k = 2, 1
    op = StructuredOperator(m, CNOT_MATRIX, k)
    b = random_matrix(rng, 8)
    ctr = MulCounter()
    got = apply_structured(op, b, counter=ctr)
    assert np.array_equal(got, embed_dense(op) @ b)
    nnz, n = np.count_nonzero(CNOT_MATRIX), 4
    assert ctr.count == nnz * m * m * n * k * k < m * m * n ** 3 * k * k


@pytest.mark.parametrize("m, n, k", [(1, 2, 1), (2, 4, 1), (1, 8, 2), (2, 2, 4)])
def test_row_sparse_rows_rebuild_the_embedding(m, n, k):
    # gates wider than a placement's, with zeros, so rows differ in width
    a = random_matrix(np.random.default_rng(n), n) * (np.arange(n * n).reshape(n, n) % 3 != 1)
    op = StructuredOperator(m, a, k)
    cols, vals = row_sparse(op, op.dim)
    w = np.count_nonzero(a, axis=1).max()
    assert cols.shape == vals.shape == (op.dim, w)
    dense = np.zeros((op.dim, op.dim), dtype=complex)
    np.add.at(dense, (np.arange(op.dim)[:, None], cols), vals)
    assert np.array_equal(dense, embed_dense(op))
    terms = vals != 0  # nonzeros first, in increasing column order, then weight 0 on row 0
    assert not (~terms[:, :-1] & terms[:, 1:]).any()
    assert np.all(np.where(terms[:, 1:], np.diff(cols, axis=1) > 0, True))
    assert not cols[~terms].any()
    # the identity on the top qubit, the placement table's wire, reads each row itself
    wire_cols, wire_vals = row_sparse(StructuredOperator(1, identity(2), op.dim // 2), op.dim)
    assert wire_cols.tolist() == [[r] for r in range(op.dim)] and np.all(wire_vals == 1)


def test_benchmark_triple_checks_the_size_before_it_allocates(monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("apply_structured called for an oversized triple")

    monkeypatch.setattr(kron_apply, "apply_structured", spy)
    with pytest.raises(ValueError, match="^embedded dimension 2048 exceeds maximum 1024$"):
        benchmark_triple(1, 2, 1024)


@pytest.mark.parametrize("max_total", [1, 0, -5])
def test_benchmark_sweep_rejects_a_bound_below_the_smallest_triple(max_total):
    # no triple has m*n*k below 2, so the sweep would be empty
    with pytest.raises(ValueError, match=f"^max_total must be at least 2, got {max_total}$"):
        benchmark_sweep(max_total=max_total)


def test_benchmark_sweep_rows():
    # the sweep `bench-matmul` and demos/kron_speedup.py print: random dense
    # gates have no zero entry, so every row counts m^2 n^3 k^2
    rows = benchmark_sweep(max_total=64)
    assert len(rows) == 56
    for r in rows:
        assert r.structured_count == r.m ** 2 * r.n ** 3 * r.k ** 2
        assert r.naive_count == (r.m * r.n * r.k) ** 3
        assert r.predicted_speedup == speedup_predicted(r.m, r.n, r.k)
