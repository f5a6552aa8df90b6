"""Verification engine for piecewise-smooth candidates.

Decides whether a candidate is a subsolution, supersolution, or full solution
of ``smallest_eigen_sum(D2 u, k) + f(u) = 0`` by combining classical residual
scans on the smooth pieces with closed-form rules at the declared kinks:

* smooth point: subsolution needs residual >= -tol, supersolution needs
  residual <= +tol;
* upward kink (right slope exceeds left slope): no admissible test function
  touches from above, so the subsolution side passes vacuously; touching from
  below, a flat tangential test forces the operator value to zero, so the
  supersolution side reduces to f(value) <= tol;
* downward kink: mirrored, except the subsolution side always fails because
  tests touching from above may have arbitrarily negative curvature;
* equal-slope junction: treated as a smooth point probed from both sides.

Also computes structure read-offs (minimum, sign, monotonicity, zero
plateau) with consistency flags for the facts that one-dimensional
subsolutions are nonnegative, strictly positive one-dimensional
supersolutions do not exist, and nondecreasing nonnegative supersolutions
carry a zero plateau extending to the left end of the scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# smallest_eigen_sum and candidate_hessian, the general-point forms that the
# tests compare the scan against, are not used here but stay attributes of
# this module: the benchmark's tracer (perfbench/tracing.py) wraps them by
# these names.
from .operators import smallest_eigen_sum, smallest_sums  # noqa: F401
from .profiles import (  # noqa: F401
    Candidate,
    Corner,
    candidate_hessian,
    candidate_spectra,
    refused_points,
)

DEFAULT_TOL = 1e-8
# smooth scans must stay this far from declared kink loci
CORNER_CLEARANCE = 1e-7
# offset for the two one-sided probes at an equal-slope junction
PROBE_OFFSET = 1e-6
MAX_WITNESSES = 16
_ZERO_BAND = 1e-12
_ORIGIN_SLOPE_TOL = 1e-10


class VerificationError(ValueError):
    """Bad input to the verification engine."""


class CornerOnGridError(VerificationError):
    """A scan point landed on or too near a kink locus."""


class WeakCornerError(VerificationError):
    """check_corner was called on an equal-slope junction."""


class UnsupportedCandidateError(VerificationError):
    """Candidate shape the engine does not handle (e.g. kinked radial profiles)."""


def default_grid(
    kind: str, lo: float | None = None, hi: float | None = None, points: int | None = None
) -> np.ndarray:
    """Scan grid on the default window of the candidate kind (1D: step 1e-2;
    radial: t > 0).  Each of lo, hi and points that is given replaces its
    default on its own."""
    windows = {"one_dimensional": (-20.0, 20.0, 4001), "radial": (1e-3, 20.0, 2001)}
    if kind not in windows:
        raise VerificationError(f"unknown candidate kind {kind!r}")
    d_lo, d_hi, d_points = windows[kind]
    lo, hi = (d_lo if lo is None else lo), (d_hi if hi is None else hi)
    if not np.all(np.isfinite((lo, hi))):
        raise VerificationError(f"scan grid ends must be finite, got {lo} and {hi}")
    return np.linspace(lo, hi, d_points if points is None else points)


@dataclass(frozen=True)
class Witness:
    """One reason a verdict side failed: location, measured number, rule name."""

    t: float
    residual: float
    rule: str


@dataclass(frozen=True)
class CornerOutcome:
    corner: Corner
    subsolution: bool
    supersolution: bool
    rule: str
    witnesses: tuple[Witness, ...]


@dataclass(frozen=True)
class StructureReport:
    """Read-offs of the scanned profile plus consistency flags.

    plateau is the widest sampled interval where the profile vanishes,
    or None.  flags is empty when every structural expectation holds.
    """

    min_value: float
    max_value: float
    sign: str
    monotonicity: str
    plateau: tuple[float, float] | None
    flags: tuple[str, ...]


@dataclass(frozen=True)
class Verdict:
    candidate: str
    ambient_dim: int
    op_index: int
    tol: float
    subsolution: bool
    supersolution: bool
    witnesses: tuple[Witness, ...]
    structure: StructureReport

    @property
    def solution(self) -> bool:
        return self.subsolution and self.supersolution

    def report(self) -> dict:
        plateau = self.structure.plateau
        return {
            "candidate": self.candidate,
            "N": self.ambient_dim,
            "k": self.op_index,
            "tol": self.tol,
            "subsolution": self.subsolution,
            "supersolution": self.supersolution,
            "solution": self.solution,
            "witnesses": [
                {"t": w.t, "residual": w.residual, "rule": w.rule}
                for w in self.witnesses
            ],
            "structure": {
                "min": self.structure.min_value,
                "plateau": None if plateau is None else list(plateau),
            },
        }


def _cleared(candidate: Candidate, ts: np.ndarray) -> np.ndarray:
    """Mask of the points at least CORNER_CLEARANCE away from every kink locus."""
    cleared = np.ones(ts.shape, dtype=bool)
    for corner in candidate.profile.corners:
        cleared &= np.abs(ts - corner.t0) >= CORNER_CLEARANCE
    return cleared


def _first(mask: np.ndarray) -> int:
    """Index of the first True entry of mask, or its size when there is none."""
    return int(np.argmax(mask)) if mask.any() else mask.size


def scan_smooth_residuals(candidate: Candidate, grid) -> np.ndarray:
    """Classical residuals at the grid points, as one array.

    Each point is checked in this order: it must be cleared of every kink,
    its Hessian must not be refused, its spectrum and then its residual must
    be finite.  The grid is evaluated in one array pass that stops before
    the first point failing one of the first three checks.  The error raised
    is the one the first offending point raises on its own.
    """
    ts = np.array(grid, dtype=float)
    near = ~_cleared(candidate, ts)
    cut = _first(near | refused_points(candidate, ts))
    spectra = candidate_spectra(candidate, ts[:cut])
    if not np.isfinite(spectra).all():
        cut = _first(~np.isfinite(spectra).all(axis=1))
    sums = smallest_sums(spectra[:cut], candidate.op_index)
    values = candidate.profile.values(ts[:cut])
    # a non-finite residual is raised below, naming its first point
    with np.errstate(all="ignore"):
        residuals = sums + candidate.nonlinearity.f(values)
    bad = ~np.isfinite(residuals)
    if bad.any():
        raise VerificationError(f"non-finite residual at t={float(ts[np.argmax(bad)])}")
    if cut < ts.size:
        if near[cut]:
            t = float(ts[cut])
            corner = next(c for c in candidate.profile.corners
                          if not abs(t - c.t0) >= CORNER_CLEARANCE)
            raise CornerOnGridError(
                f"scan point t={t} is within {CORNER_CLEARANCE} of the"
                f" kink at t={corner.t0}"
            )
        # raises the Hessian refusal, or else the non-finite spectrum, at t
        smallest_sums(candidate_spectra(candidate, ts[cut:cut + 1]), candidate.op_index)
    return residuals


def check_corner(
    candidate: Candidate, corner: Corner, tol: float = DEFAULT_TOL
) -> CornerOutcome:
    """Apply the closed-form kink rules; rejects equal-slope junctions."""
    if candidate.kind != "one_dimensional":
        raise UnsupportedCandidateError(
            "kink rules only apply to one-dimensional candidates;"
            " kinks on spheres are not supported"
        )
    if corner.kind == "weak":
        raise WeakCornerError(
            f"junction at t={corner.t0} has equal one-sided slopes;"
            " check it as a smooth point from both sides"
        )
    if corner.kind == "convex":
        fval = float(candidate.nonlinearity.f(corner.value))
        if fval <= tol:
            return CornerOutcome(corner, True, True, "convex-corner", ())
        # No admissible upper test exists, so only the supersolution side can
        # fail: the flat tangential lower test pins the operator at zero and
        # leaves the bare reaction term as the residual.  Rule derived from
        # the test-function construction rather than a catalog identity.
        witness = Witness(
            corner.t0, fval, "convex-corner-supersolution (derived rule)"
        )
        return CornerOutcome(
            corner, True, False, "convex-corner-supersolution (derived rule)",
            (witness,),
        )
    # downward kink: upper tests with arbitrarily negative curvature exist,
    # so no finite tolerance saves the subsolution side
    witness = Witness(corner.t0, corner.gap, "concave-corner-subsolution")
    return CornerOutcome(
        corner, False, True, "concave-corner-subsolution", (witness,)
    )


def verify(
    candidate: Candidate,
    grid: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Full verdict: smooth scan + kink rules + structure read-offs."""
    if grid is None:
        grid = default_grid(candidate.kind)
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise VerificationError("scan grid must be a 1D array with >= 2 points")
    i = int(np.argmin(np.isfinite(grid)))  # the first non-finite point, if any
    if not np.isfinite(grid[i]):
        raise VerificationError(f"scan grid point {i} is not finite: {grid[i]}")
    grid = np.sort(grid)
    if tol <= 0.0:
        raise VerificationError(f"tolerance must be positive, got {tol}")

    profile = candidate.profile
    if candidate.kind == "radial" and profile.corners:
        raise UnsupportedCandidateError(
            f"profile {profile.name!r} has kinks; kinked radial candidates"
            " are not supported"
        )

    keep = _cleared(candidate, grid)
    if candidate.kind == "radial":
        keep &= grid >= 0.0
    # side 1 and 2 mark the left and right probes of an equal-slope junction
    probe_ts, probe_sides = [], []
    if candidate.kind == "radial" and grid[0] > 0.0:
        # probe the center too when the profile is flat there
        if abs(profile.deriv(0.0)) <= _ORIGIN_SLOPE_TOL:
            probe_ts.append(0.0)
            probe_sides.append(0)
    for corner in profile.corners:
        if corner.kind == "weak":
            probe_ts += [corner.t0 - PROBE_OFFSET, corner.t0 + PROBE_OFFSET]
            probe_sides += [1, 2]
    ts = np.concatenate([grid[keep], probe_ts])
    side = np.zeros(ts.size, dtype=int)
    side[ts.size - len(probe_sides):] = probe_sides
    r = scan_smooth_residuals(candidate, ts)

    sub = r < -tol
    sup = r > tol
    sub_ok = not sub.any()
    super_ok = not sup.any()
    witnesses = []
    for corner in profile.corners:
        if corner.kind != "weak":
            outcome = check_corner(candidate, corner, tol)
            sub_ok &= outcome.subsolution
            super_ok &= outcome.supersolution
            witnesses.extend(outcome.witnesses)
    # kink witnesses come first, by t and rule; then the smooth ones, most
    # severe first, then by t and rule
    witnesses.sort(key=lambda w: (w.t, w.rule))
    failing = np.flatnonzero(sub | sup)
    r_f, t_f, sup_f = r[failing], ts[failing], sup[failing]
    severity = np.where(sup_f, r_f - tol, -tol - r_f)
    side_f = side[failing]
    # 3 * sup + side sorts the way the rule names below sort
    for i in np.lexsort((3 * sup_f + side_f, t_f, -severity))[:MAX_WITNESSES].tolist():
        kind = "supersolution" if sup_f[i] else "subsolution"
        where = ("", " (corner-left probe)", " (corner-right probe)")[side_f[i]]
        witnesses.append(Witness(float(t_f[i]), float(r_f[i]), f"smooth-{kind}{where}"))
    witnesses = tuple(witnesses[:MAX_WITNESSES])

    structure = _structure(candidate, grid, sub_ok, super_ok, tol)
    return Verdict(
        candidate=profile.name,
        ambient_dim=candidate.ambient_dim,
        op_index=candidate.op_index,
        tol=tol,
        subsolution=sub_ok,
        supersolution=super_ok,
        witnesses=witnesses,
        structure=structure,
    )


def _plateau(ts: np.ndarray, values: np.ndarray) -> tuple[float, float] | None:
    """Widest sampled run with |v| <= 1e-12; leftmost wins ties."""
    flat = np.concatenate(([False], np.abs(values) <= _ZERO_BAND, [False]))
    # runs are [start, stop) between consecutive changes of the padded mask
    start, stop = np.flatnonzero(flat[1:] != flat[:-1]).reshape(-1, 2).T
    if start.size == 0 or np.max(stop - start) < 2:
        return None
    widest = int(np.argmax(stop - start))
    return float(ts[start[widest]]), float(ts[stop[widest] - 1])


def _structure(
    candidate: Candidate,
    ts: np.ndarray,
    subsolution: bool,
    supersolution: bool,
    tol: float,
) -> StructureReport:
    """Structure read-offs on the sorted scan grid ts with consistency flags.

    The positivity and plateau expectations are facts about one-dimensional
    profiles only; radial candidates (where bounded positive solutions do
    exist) are exempt from those two flags.
    """
    values = candidate.profile.values(ts)

    vmin = float(values.min())
    vmax = float(values.max())
    if vmax <= _ZERO_BAND and vmin >= -_ZERO_BAND:
        sign = "zero"
    elif vmin > 0.0:
        sign = "positive"
    elif vmax < 0.0:
        sign = "negative"
    elif vmin >= -_ZERO_BAND:
        sign = "nonnegative"
    elif vmax <= _ZERO_BAND:
        sign = "nonpositive"
    else:
        sign = "mixed"

    diffs = np.diff(values)
    if np.all(np.abs(diffs) <= _ZERO_BAND):
        monotonicity = "constant"
    elif np.all(diffs >= -_ZERO_BAND):
        monotonicity = "nondecreasing"
    elif np.all(diffs <= _ZERO_BAND):
        monotonicity = "nonincreasing"
    else:
        monotonicity = "non-monotone"

    plateau = _plateau(ts, values)

    flags = []
    if subsolution and vmin < -tol:
        flags.append(
            "subsolution-with-negative-min: subsolutions should be"
            f" nonnegative but min={vmin}"
        )
    if candidate.kind == "one_dimensional" and supersolution:
        if sign == "positive":
            flags.append(
                "positive-1d-supersolution: strictly positive one-dimensional"
                " supersolutions should not exist; engine or profile bug"
            )
        if sign in ("nonnegative", "zero") and monotonicity in (
            "nondecreasing",
            "constant",
        ):
            reaches_left = (
                plateau is not None and plateau[0] <= float(ts[0]) + _ZERO_BAND
            )
            if not reaches_left:
                flags.append(
                    "missing-left-plateau: nondecreasing nonnegative"
                    " supersolution must vanish on an interval reaching the"
                    " left end of the scan"
                )
    return StructureReport(
        min_value=vmin,
        max_value=vmax,
        sign=sign,
        monotonicity=monotonicity,
        plateau=plateau,
        flags=tuple(flags),
    )
