import numpy as np
import pytest

from oracle_forge.linalg import (
    MulCounter,
    identity,
    is_unitary,
    kron,
    mat_mul_naive,
    require_unitary,
)

H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def random_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_mat_mul_identity():
    i2 = identity(2)
    assert np.array_equal(mat_mul_naive(i2, i2), i2)


def test_mat_mul_hadamard_involution():
    assert np.abs(mat_mul_naive(H, H) - identity(2)).max() <= 1e-14


def test_mat_mul_matches_high_precision_reference():
    # independent schoolbook reference computed entrywise at long-double precision
    rng = np.random.default_rng(42)
    a, b = random_matrix(rng, 8), random_matrix(rng, 8)
    ref = np.empty((8, 8), dtype=complex)
    for i in range(8):
        for j in range(8):
            re = sum(np.longdouble(a[i, l].real) * np.longdouble(b[l, j].real)
                     - np.longdouble(a[i, l].imag) * np.longdouble(b[l, j].imag)
                     for l in range(8))
            im = sum(np.longdouble(a[i, l].real) * np.longdouble(b[l, j].imag)
                     + np.longdouble(a[i, l].imag) * np.longdouble(b[l, j].real)
                     for l in range(8))
            ref[i, j] = complex(float(re), float(im))
    assert np.abs(mat_mul_naive(a, b) - ref).max() <= 1e-12


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul_naive(identity(2), identity(4))


def test_mat_mul_counts_exactly_n_cubed():
    rng = np.random.default_rng(0)
    for n in (1, 2, 4, 8):
        ctr = MulCounter()
        mat_mul_naive(random_matrix(rng, n), random_matrix(rng, n), counter=ctr)
        assert ctr.count == n ** 3


def test_kron_identities():
    assert np.array_equal(kron(identity(2), identity(2)), identity(4))


def test_kron_diagonal():
    got = kron(np.diag([1, 1j]).astype(complex), identity(2))
    assert np.array_equal(got, np.diag([1, 1, 1j, 1j]))


def test_kron_hh_on_basis_vector():
    hh = kron(H, H)
    col = hh @ np.array([1, 0, 0, 0], dtype=complex)
    assert np.abs(col - 0.25 ** 0.5 * np.ones(4)).max() <= 1e-14


def test_kron_dimension_guard():
    assert kron(identity(32), identity(32)).shape == (1024, 1024)  # DEFAULT_MAX_DIM
    with pytest.raises(ValueError):
        kron(identity(64), identity(64))


def test_is_unitary():
    assert is_unitary(identity(8), 1e-10)
    assert not is_unitary(np.diag([1, 2]).astype(complex), 1e-10)
    assert not is_unitary(np.diag([1e200, 1]).astype(complex))  # U^dag U overflows, unwarned
    with pytest.raises(ValueError):
        is_unitary(identity(2), 0.0)


def test_require_unitary_names_the_matrix():
    require_unitary(identity(4), "goal matrix")
    with pytest.raises(ValueError, match="^X is not unitary"):
        require_unitary(np.diag([1, 2]).astype(complex), "X")
    with pytest.raises(ValueError, match="^X has a non-finite entry$"):
        require_unitary(np.diag([1, np.nan]).astype(complex), "X")


def test_kron_associative():
    rng = np.random.default_rng(4)
    a, b, c = (random_matrix(rng, 2) for _ in range(3))
    assert np.abs(kron(kron(a, b), c) - kron(a, kron(b, c))).max() <= 1e-12
