"""Collapsing planar domains with a uniformly bounded principal eigenvalue.

The family of open sets indexed by n lives between two rotated strips:

    0 < (n x + y) / 2 < pi,    -pi/2 < (n x - y) / 2 < pi/2.

As n grows the sets flatten onto a segment while keeping area of order 1/n.
On each of them the explicit function w(x, y) = -(sin(n x) + sin(y)) is
negative inside, vanishes on the boundary, and satisfies

    min(eigenvalues of D2 w) + w <= 0,

which is exactly the test-function inequality certifying that the principal
eigenvalue of the smallest-eigenvalue operator stays at most 1 no matter how
thin the domain gets.  The scan verifies the inequality on a grid through a
three-region case split driven by the signs of sin(n x) and sin(y), checks
the sign and boundary behaviour of w, and estimates the area by seeded
Monte Carlo against the exact change-of-variables value 2 pi^2 / n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import SymmetricMatrix, smallest_eigen_sum

RESIDUAL_TOL = 1e-12
# a sample is interior when both strip coordinates clear the edges by this
INTERIOR_MARGIN = 1e-9
MIN_RESOLUTION = 50
MIN_AREA_SAMPLES = 100_000
DEFAULT_AREA_SAMPLES = 400_000
_AREA_SEED_BASE = 74120
_SPOT_CHECKS = 64

_PI = math.pi


class ScanInputError(ValueError):
    """Bad scan parameters."""


class CertificateViolation(RuntimeError):
    """A sampled point broke the inequality, sign, or boundary requirement."""


@dataclass(frozen=True)
class CollapsingDomain:
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 1:
            raise ScanInputError(f"index must be a positive integer, got {self.n}")

    @property
    def bounding_box(self) -> tuple[float, float, float, float]:
        """Tight (xmin, xmax, ymin, ymax): image of the strip-coordinate square."""
        n = self.n
        return (-_PI / (2 * n), 3 * _PI / (2 * n), -_PI / 2, 3 * _PI / 2)

    def strip_coords(self, x, y):
        s = 0.5 * (self.n * np.asarray(x) + np.asarray(y))
        t = 0.5 * (self.n * np.asarray(x) - np.asarray(y))
        return s, t

    def membership(self, x, y):
        s, t = self.strip_coords(x, y)
        return (s > 0) & (s < _PI) & (t > -_PI / 2) & (t < _PI / 2)

    def boundary_distance(self, x, y):
        """Distance to the boundary in strip coordinates; negative outside."""
        s, t = self.strip_coords(x, y)
        return np.minimum.reduce([s, _PI - s, _PI / 2 - t, _PI / 2 + t])


def w_n(n: int, x, y):
    return -(np.sin(n * np.asarray(x)) + np.sin(np.asarray(y)))


def w_n_factored(n: int, x, y):
    """Product form -2 sin((nx+y)/2) cos((nx-y)/2); equal to w_n to roundoff."""
    s = 0.5 * (n * np.asarray(x) + np.asarray(y))
    t = 0.5 * (n * np.asarray(x) - np.asarray(y))
    return -2.0 * np.sin(s) * np.cos(t)


def hessian_w_n(n: int, x: float, y: float) -> SymmetricMatrix:
    return SymmetricMatrix.diagonal(
        [n * n * math.sin(n * x), math.sin(y)]
    )


@dataclass(frozen=True)
class EigenScanReport:
    n: int
    resolution: int
    interior_count: int
    region_counts: dict
    max_residual: float
    max_interior_w: float
    boundary_max_abs_w: float
    boundary_band: float
    grid_area_estimate: float

    @property
    def all_regions_nonempty(self) -> bool:
        return all(self.region_counts[r] > 0 for r in ("A", "B", "C"))

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "resolution": self.resolution,
            "interior_count": self.interior_count,
            "region_counts": dict(self.region_counts),
            "max_residual": self.max_residual,
            "max_interior_w": self.max_interior_w,
            "boundary_max_abs_w": self.boundary_max_abs_w,
            "boundary_band": self.boundary_band,
            "grid_area_estimate": self.grid_area_estimate,
        }


def _grid(domain: CollapsingDomain, resolution: int):
    xmin, xmax, ymin, ymax = domain.bounding_box
    xs = np.linspace(xmin, xmax, resolution)
    ys = np.linspace(ymin, ymax, resolution)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return X, Y


def _checked_samples(n: int, resolution: int):
    """Grid samples of the certificate scan; hard-fails on violations.

    Returns (domain, X, Y, w, residual, d, closed, interior, regions): d is
    the boundary distance, closed masks the closed domain, and regions maps
    "A", "B", "C" and "both" to disjoint masks that cover the interior; see
    :func:`scan_inequality`.
    """
    if not isinstance(resolution, int) or resolution < MIN_RESOLUTION:
        raise ScanInputError(
            f"resolution must be an integer >= {MIN_RESOLUTION}, got {resolution}"
        )
    domain = CollapsingDomain(n)
    X, Y = _grid(domain, resolution)
    w = w_n(n, X, Y)
    snx = np.sin(n * X)
    sy = np.sin(Y)
    a = float(n * n) * snx
    d = domain.boundary_distance(X, Y)

    # global closed-square bound |w| <= 2 * distance-to-boundary
    closed = d >= -1e-12
    slack = np.abs(w[closed]) - 2.0 * np.maximum(d[closed], 0.0)
    if slack.size and float(slack.max()) > 1e-12:
        i = int(np.argmax(slack))
        xi = X[closed][i]
        yi = Y[closed][i]
        raise CertificateViolation(
            f"boundary decay |w| <= 2*dist broken at ({xi}, {yi})"
        )

    interior = d > INTERIOR_MARGIN
    if not interior.any():
        raise ScanInputError("no interior samples; increase the resolution")
    residual = np.minimum(a, sy) + w

    bad = interior & (residual > RESIDUAL_TOL)
    if bad.any():
        i = np.argwhere(bad)[0]
        raise CertificateViolation(
            f"inequality broken at ({X[tuple(i)]}, {Y[tuple(i)]}):"
            f" residual {residual[tuple(i)]}"
        )
    nonneg = interior & (w >= 0.0)
    if nonneg.any():
        i = np.argwhere(nonneg)[0]
        raise CertificateViolation(
            f"w is not negative at interior sample ({X[tuple(i)]}, {Y[tuple(i)]})"
        )

    regions = {
        "A": interior & (snx > 0.0) & (sy > 0.0),
        "B": interior & (snx <= 0.0) & (sy > 0.0),
        "C": interior & (snx > 0.0) & (sy <= 0.0),
        "both": interior & (snx <= 0.0) & (sy <= 0.0),
    }
    chains = {
        "A": (np.minimum(a, sy) <= sy + RESIDUAL_TOL) & (sy <= -w + RESIDUAL_TOL),
        "B": (a <= snx + RESIDUAL_TOL) & (snx <= -w + RESIDUAL_TOL),
        "C": sy <= -w + RESIDUAL_TOL,
    }
    for name, ok in chains.items():
        broken = regions[name] & ~ok
        if broken.any():
            i = np.argwhere(broken)[0]
            raise CertificateViolation(
                f"region {name} chain broken at ({X[tuple(i)]}, {Y[tuple(i)]})"
            )

    # spot-check the diagonal shortcut against the matrix engine
    flat = np.flatnonzero(interior.ravel())
    stride = max(1, flat.size // _SPOT_CHECKS)
    for idx in flat[::stride]:
        i, j = np.unravel_index(idx, interior.shape)
        m = hessian_w_n(n, float(X[i, j]), float(Y[i, j]))
        engine = smallest_eigen_sum(m, 1)
        direct = min(float(a[i, j]), float(sy[i, j]))
        if abs(engine - direct) > 1e-13 * (1.0 + abs(direct)):
            raise CertificateViolation(
                f"diagonal shortcut disagrees with the eigensolver at"
                f" ({X[i, j]}, {Y[i, j]})"
            )
    return domain, X, Y, w, residual, d, closed, interior, regions


def scan_inequality(n: int, resolution: int = 200) -> EigenScanReport:
    """Verify the test-function inequality over a grid; hard-fails on violations.

    Case split at interior samples, with a := n^2 sin(nx), b := sin(y):
      region A (both sines positive):  min(a, b) <= b <= -w;
      region B (sin(nx) <= 0):         a <= sin(nx) <= -w;
      region C (sin(y) <= 0):          b <= -w.
    Points with both sines nonpositive would satisfy both chains; they
    cannot be interior (w < 0 forces sin(nx) + sin(y) > 0) but are counted
    under "both" if they ever appear.
    """
    domain, X, Y, w, residual, d, closed, interior, regions = _checked_samples(
        n, resolution
    )
    xmin, xmax, ymin, ymax = domain.bounding_box
    box_area = (xmax - xmin) * (ymax - ymin)
    inside = domain.membership(X, Y)
    # one grid step measured in strip coordinates
    dx = (xmax - xmin) / (resolution - 1)
    dy = (ymax - ymin) / (resolution - 1)
    band = 0.5 * (n * dx + dy) + 1e-12
    near_boundary = closed & (d <= band)
    boundary_max = float(np.abs(w[near_boundary]).max()) if near_boundary.any() else 0.0

    return EigenScanReport(
        n=n,
        resolution=resolution,
        interior_count=int(interior.sum()),
        region_counts={name: int(mask.sum()) for name, mask in regions.items()},
        max_residual=float(residual[interior].max()),
        max_interior_w=float(w[interior].max()),
        boundary_max_abs_w=boundary_max,
        boundary_band=float(band),
        grid_area_estimate=float(inside.mean()) * box_area,
    )


def area_estimate(n: int, samples: int = DEFAULT_AREA_SAMPLES) -> float:
    """Seeded Monte Carlo area of the domain; exact value is 2 pi^2 / n."""
    if not isinstance(samples, int) or samples < MIN_AREA_SAMPLES:
        raise ScanInputError(
            f"need at least {MIN_AREA_SAMPLES} samples, got {samples}"
        )
    domain = CollapsingDomain(n)
    xmin, xmax, ymin, ymax = domain.bounding_box
    rng = np.random.default_rng(_AREA_SEED_BASE + n)
    xs = rng.uniform(xmin, xmax, samples)
    ys = rng.uniform(ymin, ymax, samples)
    frac = float(domain.membership(xs, ys).mean())
    return frac * (xmax - xmin) * (ymax - ymin)


def eigenvalue_bound_certificate(
    n: int,
    resolution: int = 200,
    area_samples: int = DEFAULT_AREA_SAMPLES,
) -> dict:
    """Grid-evidence certificate that the principal eigenvalue is at most 1.

    Emitted only when the scan passes; a failed scan raises instead, so no
    bound is ever reported for a broken inequality.
    """
    report = scan_inequality(n, resolution)
    area = area_estimate(n, area_samples)
    return {
        "n": n,
        "bound": 1.0,
        "kind": "grid-evidence certificate",
        "statement": (
            "w < 0 at every interior sample, |w| decays linearly at the"
            " boundary, and min-eigenvalue(D2 w) + w <= 0 holds at every"
            " interior sample; grid evidence that the principal eigenvalue"
            " is at most 1"
        ),
        "scan": report.to_dict(),
        "area": {
            "monte_carlo": area,
            "change_of_variables": 2.0 * _PI * _PI / n,
            "samples": area_samples,
        },
    }


def scan_to_csv(n: int, resolution: int = 200) -> str:
    """Interior samples as x,y,w,residual,region rows for plotting.

    The scan's checks run first, so a broken certificate dumps nothing.
    """
    _, X, Y, w, residual, _, _, interior, regions = _checked_samples(n, resolution)
    label = np.empty(interior.shape, dtype="<U4")
    for name, mask in regions.items():
        label[mask] = name
    lines = ["x,y,w,residual,region"]
    # one grid row at a time, so only one row of Python floats is alive
    for i, row in enumerate(interior):
        columns = (arr[i, row].tolist() for arr in (X, Y, w, residual, label))
        for x, y, wv, r, region in zip(*columns):
            lines.append(f"{x!r},{y!r},{wv!r},{r!r},{region}")
    # the empty last row ends the text with a newline without a second copy
    lines.append("")
    return "\n".join(lines)
