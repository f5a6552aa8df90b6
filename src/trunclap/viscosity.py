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

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

# smallest_eigen_sum and candidate_hessian, the general-point forms that the
# tests compare the scan against, are not used here but stay attributes of
# this module: the benchmark's tracer (perfbench/tracing.py) wraps them by
# these names.
from .operators import MatrixInputError, smallest_eigen_sum, smallest_sums  # noqa: F401
from .profiles import (  # noqa: F401
    Candidate,
    Corner,
    SingularPointError,
    candidate_hessian,
    candidate_spectra,
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


def default_grid(kind: str) -> np.ndarray:
    """Default scan grids: [-20, 20] step 1e-2 for 1D, (0, 20] for radial."""
    if kind == "one_dimensional":
        return np.linspace(-20.0, 20.0, 4001)
    if kind == "radial":
        return np.linspace(1e-3, 20.0, 2001)
    raise VerificationError(f"unknown candidate kind {kind!r}")


@dataclass(frozen=True)
class ResidualSample:
    """Classical residual at one scan location.

    side is "smooth" for ordinary grid points and "corner-left" /
    "corner-right" for the one-sided probes next to an equal-slope junction.
    """

    t: float
    residual: float
    side: str = "smooth"

    def __post_init__(self) -> None:
        if not math.isfinite(self.residual):
            raise VerificationError(f"non-finite residual at t={self.t}")


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


@dataclass(frozen=True, eq=False)
class ResidualScan(Sequence):
    """Residuals of one scan as arrays; item i is a :class:`ResidualSample`."""

    ts: np.ndarray
    residuals: np.ndarray
    side: str = "smooth"

    def __len__(self) -> int:
        return self.ts.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ResidualScan(self.ts[i], self.residuals[i], self.side)
        return ResidualSample(float(self.ts[i]), float(self.residuals[i]), self.side)


def _residuals(candidate: Candidate, ts: np.ndarray) -> np.ndarray:
    """Classical residuals at the points ts; non-finite ones are refused."""
    sums = smallest_sums(candidate_spectra(candidate, ts), candidate.op_index)
    # f sees Python floats, one at a time: NumPy's array power can round
    # differently from the scalar one, and f(v) is what failing points report
    f = candidate.nonlinearity.f
    reaction = np.array(
        [float(f(v)) for v in candidate.profile.values(ts).tolist()], dtype=float
    )
    residuals = sums + reaction
    bad = ~np.isfinite(residuals)
    if bad.any():
        raise VerificationError(f"non-finite residual at t={float(ts[np.argmax(bad)])}")
    return residuals


def _probe(candidate: Candidate, t: float, side: str = "smooth") -> ResidualScan:
    ts = np.array([t], dtype=float)
    return ResidualScan(ts, _residuals(candidate, ts), side)


def _residual_at(candidate: Candidate, t: float) -> float:
    return float(_probe(candidate, t).residuals[0])


def _clear_residuals(candidate: Candidate, ts: np.ndarray) -> np.ndarray:
    near = np.zeros(ts.shape, dtype=bool)
    for corner in candidate.profile.corners:
        near |= np.abs(ts - corner.t0) <= CORNER_CLEARANCE
    if near.any():
        t = float(ts[np.argmax(near)])
        corner = candidate.profile.corner_near(t, CORNER_CLEARANCE)
        raise CornerOnGridError(
            f"scan point t={t} is within {CORNER_CLEARANCE} of the"
            f" kink at t={corner.t0}"
        )
    return _residuals(candidate, ts)


def scan_smooth_residuals(candidate: Candidate, grid: np.ndarray) -> ResidualScan:
    """Classical residuals at each grid point, which must avoid kink loci.

    The grid is evaluated in one array pass.  A bad grid is rescanned point
    by point, so the error raised is the one the first offending point
    raises on its own.
    """
    ts = np.array(grid, dtype=float)
    try:
        residuals = _clear_residuals(candidate, ts)
    except (VerificationError, SingularPointError, MatrixInputError):
        for i in range(ts.size):
            _clear_residuals(candidate, ts[i:i + 1])
        raise
    return ResidualScan(ts, residuals)


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


def _collect(
    scan: ResidualScan, tol: float
) -> tuple[bool, bool, list[tuple[float, Witness]]]:
    """Classify a scan; returns (sub_ok, super_ok, severity-tagged witnesses).

    Only the MAX_WITNESSES witnesses that come first in verify's order (most
    severe, then smallest t, then rule name) are tagged; verify keeps no more.
    """
    r = scan.residuals
    sub = r < -tol
    sup = r > tol
    failing = np.flatnonzero(sub | sup)
    sup_f = sup[failing]
    r_f = r[failing]
    t_f = scan.ts[failing]
    severity = np.where(sup_f, r_f - tol, -tol - r_f)
    where = "" if scan.side == "smooth" else f" ({scan.side} probe)"
    # "smooth-subsolution" sorts before "smooth-supersolution"
    tagged = []
    for i in np.lexsort((sup_f, t_f, -severity))[:MAX_WITNESSES].tolist():
        rule = "smooth-supersolution" if sup_f[i] else "smooth-subsolution"
        witness = Witness(float(t_f[i]), float(r_f[i]), rule + where)
        tagged.append((float(severity[i]), witness))
    return not sub.any(), not sup.any(), tagged


def _filter_grid(candidate: Candidate, grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    keep = np.ones(grid.shape, dtype=bool)
    for corner in candidate.profile.corners:
        keep &= np.abs(grid - corner.t0) >= CORNER_CLEARANCE
    if candidate.kind == "radial":
        keep &= grid >= 0.0
    return grid[keep]


def verify(
    candidate: Candidate,
    grid: np.ndarray | None = None,
    tol: float = DEFAULT_TOL,
) -> Verdict:
    """Full verdict: smooth scan + kink rules + structure read-offs."""
    if grid is None:
        grid = default_grid(candidate.kind)
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.ndim != 1 or grid.size < 2:
        raise VerificationError("scan grid must be a 1D array with >= 2 points")
    if tol <= 0.0:
        raise VerificationError(f"tolerance must be positive, got {tol}")

    profile = candidate.profile
    if candidate.kind == "radial" and profile.corners:
        raise UnsupportedCandidateError(
            f"profile {profile.name!r} has kinks; kinked radial candidates"
            " are not supported"
        )

    scans = [scan_smooth_residuals(candidate, _filter_grid(candidate, grid))]
    if candidate.kind == "radial" and grid[0] > 0.0:
        # probe the center too when the profile is flat there
        if abs(profile.deriv(0.0)) <= _ORIGIN_SLOPE_TOL:
            scans.insert(0, _probe(candidate, 0.0))
    for corner in profile.corners:
        if corner.kind == "weak":
            scans.append(_probe(candidate, corner.t0 - PROBE_OFFSET, "corner-left"))
            scans.append(_probe(candidate, corner.t0 + PROBE_OFFSET, "corner-right"))

    sub_ok = True
    super_ok = True
    tagged = []
    for scan in scans:
        s_sub, s_super, s_tagged = _collect(scan, tol)
        sub_ok &= s_sub
        super_ok &= s_super
        tagged.extend(s_tagged)
    for corner in profile.corners:
        if corner.kind != "weak":
            outcome = check_corner(candidate, corner, tol)
            sub_ok &= outcome.subsolution
            super_ok &= outcome.supersolution
            tagged.extend((math.inf, w) for w in outcome.witnesses)

    tagged.sort(key=lambda item: (-item[0], item[1].t, item[1].rule))
    witnesses = tuple(w for _, w in tagged[:MAX_WITNESSES])

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


def analyze_profile_structure(
    candidate: Candidate, verdict: Verdict, grid: np.ndarray | None = None
) -> StructureReport:
    """Structure read-offs for a verdict produced on the same candidate."""
    return _structure(
        candidate, grid, verdict.subsolution, verdict.supersolution, verdict.tol
    )


def _structure(
    candidate: Candidate,
    grid: np.ndarray | None,
    subsolution: bool,
    supersolution: bool,
    tol: float,
) -> StructureReport:
    """Structure read-offs on the scan window with consistency flags.

    The positivity and plateau expectations are facts about one-dimensional
    profiles only; radial candidates (where bounded positive solutions do
    exist) are exempt from those two flags.
    """
    if grid is None:
        grid = default_grid(candidate.kind)
    ts = np.sort(np.asarray(grid, dtype=float))
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
