import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunclap.operators import (
    JACOBI_TOL,
    MatrixInputError,
    _jacobi,
    SymmetricMatrix,
    add_rank_one_top,
    eigen_decomposition,
    eigenvalues_ascending,
    match_tol,
    smallest_eigen_sum,
)

from oracles import random_symmetric, sturm_eigenvalues, sturm_smallest_sum


def sym(entries) -> SymmetricMatrix:
    return SymmetricMatrix.from_dense(np.asarray(entries, dtype=float))


def test_diagonal_eigenvalues_sorted():
    m = SymmetricMatrix.diagonal([3.0, 1.0, 2.0])
    assert eigenvalues_ascending(m).values == (1.0, 2.0, 3.0)


def test_two_by_two_offdiagonal():
    m = sym([[0.0, 1.0], [1.0, 0.0]])
    vals = eigenvalues_ascending(m).as_array()
    assert vals == pytest.approx([-1.0, 1.0], abs=1e-13)


def test_matches_sturm_oracle_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_symmetric(rng, 5)
        m = SymmetricMatrix.from_dense(a)
        mine = eigenvalues_ascending(m).as_array()
        ref = sturm_eigenvalues(a)
        assert np.max(np.abs(mine - ref)) <= 1e-10


def test_eigenpair_residuals_small():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 6):
        a = random_symmetric(rng, n, scale=2.0)
        m = SymmetricMatrix.from_dense(a)
        spec, vec = eigen_decomposition(m)
        for j, lam in enumerate(spec.values):
            res = np.linalg.norm(a @ vec[:, j] - lam * vec[:, j])
            assert res <= 1e-10 * (1.0 + m.frobenius())


def test_smallest_sum_of_single_curvature_matrix():
    # diag(0, ..., 0, 2a) has k smallest eigenvalues all zero while k < dim
    for n in (2, 3, 5):
        for a in (0.5, 2.0, 7.0):
            m = SymmetricMatrix.diagonal([0.0] * (n - 1) + [2.0 * a])
            for k in range(1, n):
                assert smallest_eigen_sum(m, k) == 0.0
            assert smallest_eigen_sum(m, n) == pytest.approx(2.0 * a, abs=1e-13)


def test_smallest_sum_examples():
    assert smallest_eigen_sum(SymmetricMatrix.diagonal([1.0, 2.0]), 1) == 1.0
    rng = np.random.default_rng(3)
    a = random_symmetric(rng, 4)
    got = smallest_eigen_sum(SymmetricMatrix.from_dense(a), 2)
    assert got == pytest.approx(sturm_smallest_sum(a, 2), abs=1e-10)


def test_k_out_of_range():
    m = SymmetricMatrix.diagonal([1.0, 2.0])
    with pytest.raises(MatrixInputError):
        smallest_eigen_sum(m, 0)
    with pytest.raises(MatrixInputError):
        smallest_eigen_sum(m, 3)


def test_nonfinite_entries_rejected():
    with pytest.raises(MatrixInputError):
        SymmetricMatrix(2, (1.0, float("nan"), 2.0))
    with pytest.raises(MatrixInputError):
        SymmetricMatrix(2, (1.0, 2.0))  # wrong triangle length


def test_add_rank_one_top_diagonal_example():
    m = SymmetricMatrix.diagonal([1.0, 2.0])
    bumped = add_rank_one_top(m, 5.0)
    assert np.allclose(bumped.to_dense(), np.diag([1.0, 7.0]), atol=1e-12)
    assert smallest_eigen_sum(bumped, 1) == pytest.approx(1.0, abs=1e-12)


def test_add_rank_one_top_zero_is_identity():
    rng = np.random.default_rng(5)
    a = random_symmetric(rng, 3)
    m = SymmetricMatrix.from_dense(a)
    same = add_rank_one_top(m, 0.0)
    assert np.allclose(same.to_dense(), a, atol=1e-12)


def test_add_rank_one_top_preserves_lower_sums():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a = random_symmetric(rng, 3)
        m = SymmetricMatrix.from_dense(a)
        bumped = add_rank_one_top(m, 1.0)
        for k in (1, 2):
            assert smallest_eigen_sum(bumped, k) == pytest.approx(
                smallest_eigen_sum(m, k), abs=match_tol(m)
            )


def test_add_rank_one_top_rejects_negative():
    with pytest.raises(MatrixInputError):
        add_rank_one_top(SymmetricMatrix.diagonal([1.0, 2.0]), -0.5)


def test_json_round_trip():
    m = sym([[1.0, -0.25, 0.0], [-0.25, 2.0, 3.5], [0.0, 3.5, -1.0]])
    again = SymmetricMatrix.from_json(m.to_json())
    assert again == m


# -- property tests ----------------------------------------------------------

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def upper_strategy(n: int):
    return st.lists(finite, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2)


matrix_strategy = st.integers(min_value=2, max_value=5).flatmap(
    lambda n: st.tuples(st.just(n), upper_strategy(n))
)


@given(matrix_strategy)
@settings(max_examples=60, deadline=None)
def test_spectrum_matches_oracle(data):
    n, upper = data
    m = SymmetricMatrix(n, tuple(upper))
    mine = eigenvalues_ascending(m).as_array()
    ref = sturm_eigenvalues(m.to_dense())
    assert np.max(np.abs(mine - ref)) <= match_tol(m)


@given(matrix_strategy, matrix_strategy, st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_degenerate_ellipticity(xdata, bdata, k):
    n, upper = xdata
    if k > n:
        k = n
    x = SymmetricMatrix(n, tuple(upper))
    nb, upper_b = bdata
    rng = np.random.default_rng(abs(hash((n, k))) % (2**32))
    b = rng.normal(size=(n, n))
    y = SymmetricMatrix.from_dense(x.to_dense() + b @ b.T)  # psd increment
    assert smallest_eigen_sum(x, k) <= smallest_eigen_sum(y, k) + match_tol(y)


@given(matrix_strategy, st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_scalar_shift_identity(data, c):
    n, upper = data
    m = SymmetricMatrix(n, tuple(upper))
    shifted = SymmetricMatrix.from_dense(m.to_dense() + c * np.eye(n))
    for k in range(1, n + 1):
        assert smallest_eigen_sum(shifted, k) == pytest.approx(
            smallest_eigen_sum(m, k) + c * k, abs=match_tol(shifted)
        )


@given(matrix_strategy)
@settings(max_examples=60, deadline=None)
def test_full_sum_is_trace(data):
    n, upper = data
    m = SymmetricMatrix(n, tuple(upper))
    assert smallest_eigen_sum(m, n) == pytest.approx(
        float(np.trace(m.to_dense())), abs=match_tol(m)
    )


@given(matrix_strategy, st.floats(min_value=0.0, max_value=4.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_rank_one_push_dominates_spectrum(data, t):
    n, upper = data
    m = SymmetricMatrix(n, tuple(upper))
    before = eigenvalues_ascending(m).as_array()
    after = eigenvalues_ascending(add_rank_one_top(m, t)).as_array()
    assert np.all(after >= before - match_tol(m))


def _jacobi_on_numpy_scalars(a, want_vectors):
    """The rotation loop as it ran on NumPy arrays, kept as the reference."""
    n = a.shape[0]
    a = a.copy()
    vec = np.eye(n) if want_vectors else None
    goal = JACOBI_TOL * float(np.linalg.norm(a))
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(64):
        if math.sqrt(float(np.sum(a[off_mask] ** 2))) <= goal:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                num = a[q, q] - a[p, p]
                if abs(num) > 2.0 * abs(apq) * 1e300:
                    a[p, q] = a[q, p] = 0.0
                    continue
                tau = num / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                for i in range(n):
                    if i == p or i == q:
                        continue
                    aip, aiq = a[i, p], a[i, q]
                    a[i, p] = a[p, i] = aip * c - aiq * s
                    a[i, q] = a[q, i] = aiq * c + aip * s
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
                if want_vectors:
                    for i in range(n):
                        vip, viq = vec[i, p], vec[i, q]
                        vec[i, p] = vip * c - viq * s
                        vec[i, q] = viq * c + vip * s
    return np.diag(a).copy(), vec


def test_jacobi_on_python_floats_is_bit_identical_to_numpy_scalars():
    rng = np.random.default_rng(3)
    for i in range(600):
        n = int(rng.integers(2, 7))
        a = random_symmetric(rng, n, scale=float(10.0 ** rng.integers(-150, 150)))
        if i % 5 == 0:
            a[0, n - 1] = a[n - 1, 0] = 0.0  # a coupling that is already zero
        d, vec = _jacobi(a, want_vectors=True)
        with np.errstate(over="ignore"):  # the underflow guard may overflow to inf
            d_ref, vec_ref = _jacobi_on_numpy_scalars(a, want_vectors=True)
        assert d.tobytes() == d_ref.tobytes()
        assert vec.tobytes() == vec_ref.tobytes()
        d_only, none = _jacobi(a, want_vectors=False)
        assert none is None and d_only.tobytes() == d_ref.tobytes()
