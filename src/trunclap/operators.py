"""Symmetric matrices and partial sums of their smallest eigenvalues.

The central quantity is ``smallest_eigen_sum(M, k)``: the sum of the k
smallest eigenvalues of a real symmetric matrix.  Applied to Hessians it is a
degenerate elliptic operator; it is monotone under the semidefinite order,
reduces to the trace at k = dim, and ignores rank-one pushes along a top
eigenvector as long as k < dim.

Eigenvalues are computed by cyclic Jacobi rotations, chosen for determinism
and because the matrices here are tiny.  All types are frozen dataclasses and
every function is pure, so instances are safe to share across threads.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

#: A Jacobi pass is converged once the off-diagonal Frobenius norm falls below
#: this fraction of the Frobenius norm of the input.
JACOBI_TOL = 1e-13

#: Base absolute tolerance for comparing derived values; see :func:`match_tol`.
MATCH_TOL = 1e-10

_MAX_SWEEPS = 64


class MatrixInputError(ValueError):
    """Raised for malformed matrix data or out-of-range operator indices."""


@functools.lru_cache(maxsize=None)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row-major upper-triangle indices of an n x n matrix."""
    rows, cols = np.triu_indices(n)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@dataclass(frozen=True)
class SymmetricMatrix:
    """N x N real symmetric matrix stored as its row-major upper triangle."""

    dim: int
    upper: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise MatrixInputError(f"dim must be at least 1, got {self.dim}")
        expected = self.dim * (self.dim + 1) // 2
        if len(self.upper) != expected:
            raise MatrixInputError(
                f"upper triangle of a {self.dim}x{self.dim} matrix needs "
                f"{expected} entries, got {len(self.upper)}"
            )
        if not all(math.isfinite(x) for x in self.upper):
            raise MatrixInputError("matrix entries must be finite")

    @classmethod
    def from_dense(cls, a) -> SymmetricMatrix:
        """Build from a dense square array, reading only the upper triangle."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise MatrixInputError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        return cls(n, tuple(a[_triu(n)].tolist()))

    @classmethod
    def diagonal(cls, values) -> SymmetricMatrix:
        return cls.from_dense(np.diag(np.asarray(values, dtype=float)))

    def to_dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        iu = _triu(self.dim)
        a[iu] = self.upper
        a.T[iu] = self.upper
        return a

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.to_dense()))

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim, "upper": list(self.upper)})

    @classmethod
    def from_json(cls, text: str) -> SymmetricMatrix:
        data = json.loads(text)
        return cls(int(data["dim"]), tuple(float(x) for x in data["upper"]))


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(b < a for a, b in zip(self.values, self.values[1:])):
            raise MatrixInputError("spectrum values must be ascending")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values)


def match_tol(m: SymmetricMatrix) -> float:
    """Absolute comparison tolerance for quantities derived from ``m``."""
    return MATCH_TOL * (1.0 + m.frobenius())


def _jacobi(a: np.ndarray, want_vectors: bool):
    """Run cyclic Jacobi sweeps on a copy of the dense matrix ``a``.

    Returns the unsorted diagonal and, when requested, the accumulated
    rotation whose columns are the matching eigenvectors.  The rotations run
    on nested lists of Python floats, which is several times faster than
    indexing NumPy scalars and rounds every operation identically.
    """
    n = a.shape[0]
    # The Frobenius norm is rotation invariant, so the goal is fixed up front.
    goal = JACOBI_TOL * float(np.linalg.norm(a))
    # Summed directly over off-diagonal entries: the subtraction trick
    # trace(A*A) - sum(diag^2) cancels catastrophically near convergence.
    off_mask = ~np.eye(n, dtype=bool)
    rows = np.asarray(a, dtype=float).tolist()
    vec = np.eye(n).tolist() if want_vectors else None
    for _ in range(_MAX_SWEEPS):
        if math.sqrt(float(np.sum(np.array(rows)[off_mask] ** 2))) <= goal:
            break
        for p in range(n - 1):
            row_p = rows[p]
            for q in range(p + 1, n):
                row_q = rows[q]
                apq = row_p[q]
                if apq == 0.0:
                    continue
                num = row_q[q] - row_p[p]
                if abs(num) > 2.0 * abs(apq) * 1e300:
                    # The rotation angle underflows; dropping the coupling
                    # perturbs the spectrum by less than 1e-300 * scale.
                    row_p[q] = row_q[p] = 0.0
                    continue
                tau = num / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + math.hypot(1.0, tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                app, aqq = row_p[p], row_q[q]
                for i in range(n):
                    if i == p or i == q:
                        continue
                    row_i = rows[i]
                    aip, aiq = row_i[p], row_i[q]
                    row_i[p] = row_p[i] = aip * c - aiq * s
                    row_i[q] = row_q[i] = aiq * c + aip * s
                row_p[p] = app - t * apq
                row_q[q] = aqq + t * apq
                row_p[q] = row_q[p] = 0.0
                if want_vectors:
                    for row_v in vec:
                        vip, viq = row_v[p], row_v[q]
                        row_v[p] = vip * c - viq * s
                        row_v[q] = viq * c + vip * s
    else:
        raise ArithmeticError("Jacobi iteration did not converge")
    diag = np.array([rows[i][i] for i in range(n)])
    return diag, None if vec is None else np.array(vec)


def eigenvalues_ascending(m: SymmetricMatrix) -> Spectrum:
    d, _ = _jacobi(m.to_dense(), want_vectors=False)
    d.sort()
    return Spectrum(tuple(float(x) for x in d))


def eigen_decomposition(m: SymmetricMatrix) -> tuple[Spectrum, np.ndarray]:
    """All eigenpairs, ascending; tied values keep the rotation-produced order."""
    d, vec = _jacobi(m.to_dense(), want_vectors=True)
    order = np.argsort(d, kind="stable")
    return Spectrum(tuple(float(x) for x in d[order])), vec[:, order]


def smallest_eigen_sum(m: SymmetricMatrix, k: int) -> float:
    """Sum of the k smallest eigenvalues of ``m`` (the trace when k = dim)."""
    d, _ = _jacobi(m.to_dense(), want_vectors=False)
    return float(smallest_sums(d[np.newaxis], k)[0])


def smallest_sums(values, k: int) -> np.ndarray:
    """Sum of the k smallest entries of each row of a (G, N) array.

    Applied to the eigenvalues of G matrices this is their operator value.
    Each sorted row is summed left to right from 0.0.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[1]
    if not 1 <= k <= n:
        raise MatrixInputError(f"k must lie in [1, {n}], got {k}")
    if not np.isfinite(values).all():
        raise MatrixInputError("matrix entries must be finite")
    values = np.sort(values, axis=1)
    total = np.zeros(values.shape[0])
    for j in range(k):
        total += values[:, j]
    return total


def add_rank_one_top(m: SymmetricMatrix, t: float) -> SymmetricMatrix:
    """Add ``t`` times the outer square of a top eigenvector of ``m``.

    For t >= 0 this raises the largest eigenvalue by t and leaves the rest of
    the spectrum alone, so sums over the k < dim smallest eigenvalues are
    unchanged.  Among tied top eigenvalues the rotation output with the lowest
    column index is used, which keeps the result deterministic.
    """
    if not t >= 0.0:
        raise MatrixInputError(f"t must be nonnegative, got {t}")
    d, vec = _jacobi(m.to_dense(), want_vectors=True)
    top = int(np.flatnonzero(d == d.max())[0])
    v = vec[:, top]
    return SymmetricMatrix.from_dense(m.to_dense() + t * np.outer(v, v))
