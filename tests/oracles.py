"""Independent numerical oracles used to cross-check the library.

The eigensolver here reduces to tridiagonal form by Householder reflections
and then brackets each eigenvalue by bisection on a Sturm sign count.  It
shares no code with the library's rotation-based solver, so agreement between
the two is meaningful evidence.
"""

from __future__ import annotations

import math

import numpy as np


def tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder reduction; returns (diagonal, subdiagonal)."""
    a = np.array(a, dtype=float)
    n = a.shape[0]
    for k in range(n - 2):
        x = a[k + 1 :, k].copy()
        nx = float(np.linalg.norm(x))
        if nx == 0.0:
            continue
        sign = 1.0 if x[0] >= 0.0 else -1.0
        # unit-scale Householder vector: v @ v of a raw tiny column underflows
        v = x / nx
        v[0] += sign
        beta = 2.0 / float(v @ v)
        s = a[k + 1 :, k + 1 :]
        p = beta * (s @ v)
        w = p - (0.5 * beta * float(v @ p)) * v
        s -= np.outer(v, w) + np.outer(w, v)
        a[k + 1, k] = a[k, k + 1] = -sign * nx
        a[k + 2 :, k] = 0.0
        a[k, k + 2 :] = 0.0
    return np.diag(a).copy(), np.diag(a, -1).copy()


def sturm_count_below(d: np.ndarray, e: np.ndarray, x: float) -> int:
    """Number of eigenvalues of the tridiagonal matrix strictly below x."""
    count = 0
    q = 1.0
    for i in range(len(d)):
        off = e[i - 1] ** 2 if i > 0 else 0.0
        q = d[i] - x - off / q
        if q == 0.0:
            q = -1e-300
        if q < 0.0:
            count += 1
    return count


def sturm_eigenvalues(a, tol: float = 1e-13) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending, by Sturm bisection."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if n == 1:
        return np.array([float(a[0, 0])])
    d, e = tridiagonalize(a)
    reach = np.zeros(n)
    reach[:-1] += np.abs(e)
    reach[1:] += np.abs(e)
    lo = float(np.min(d - reach))
    hi = float(np.max(d + reach))
    scale = max(1.0, abs(lo), abs(hi))
    los = np.full(n, lo)
    his = np.full(n, hi)
    for _ in range(120):
        if np.max(his - los) <= tol * scale:
            break
        for j in range(n):
            if his[j] - los[j] <= tol * scale:
                continue
            mid = 0.5 * (los[j] + his[j])
            if sturm_count_below(d, e, mid) >= j + 1:
                his[j] = mid
            else:
                los[j] = mid
    return 0.5 * (los + his)


def sturm_smallest_sum(a, k: int) -> float:
    """Oracle for the sum of the k smallest eigenvalues."""
    vals = sturm_eigenvalues(a)
    return float(np.sum(vals[:k]))


def random_symmetric(rng: np.random.Generator, n: int, scale: float = 1.0) -> np.ndarray:
    b = rng.normal(size=(n, n), scale=scale)
    return 0.5 * (b + b.T)


def one_sided_slope(fn, t0: float, side: str, h: float = 1e-6) -> float:
    """Numerical one-sided derivative at t0 from the given side."""
    if side == "right":
        return (fn(t0 + h) - fn(t0)) / h
    return (fn(t0) - fn(t0 - h)) / h


def centered_second(fn, t: float, h: float = 1e-5) -> float:
    return (fn(t + h) - 2.0 * fn(t) + fn(t - h)) / (h * h)


def w_n_factored(n: int, x, y):
    """Product form -2 sin((nx+y)/2) cos((nx-y)/2) of the collapsing-domain
    test function -(sin(nx) + sin(y)); equal to it to roundoff."""
    s = 0.5 * (n * np.asarray(x) + np.asarray(y))
    t = 0.5 * (n * np.asarray(x) - np.asarray(y))
    return -2.0 * np.sin(s) * np.cos(t)
