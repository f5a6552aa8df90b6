"""Piecewise-smooth scalar profiles, their kinks, and ambient embeddings.

A :class:`Profile1D` is a list of C^2 pieces tiling the real line plus the
declared junctions between them.  Junctions whose one-sided slopes differ get
corner treatment by the verification engine; junctions with matching slopes
are "weak" and are checked like smooth points from both sides.

A :class:`Candidate` embeds a profile into dimension N, either as a function
of the last coordinate alone or radially, and fixes the operator index k.
:func:`candidate_hessian` assembles the ambient Hessian at a point and
:func:`candidate_spectra` gives its eigenvalues along a scan of profile
coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .nonlinearities import Nonlinearity
from .operators import SymmetricMatrix

#: Slope gap above which a junction counts as a true corner.
SLOPE_GAP_TOL = 1e-9

#: Points closer than this to a kink locus are refused by derivative evaluators.
CORNER_LOCUS_TOL = 1e-9

#: |v'(0)| below which a radial profile is accepted as smooth at the origin.
ORIGIN_SLOPE_TOL = 1e-10

_SQRT2 = math.sqrt(2.0)
_INV_SQRT3 = 1.0 / math.sqrt(3.0)


class ProfileConstructionError(ValueError):
    """Pieces that do not tile the line or disagree at junctions."""


class SingularPointError(ValueError):
    """Derivative evaluation requested on a kink locus or bad radial origin."""


@dataclass(frozen=True)
class Corner:
    """Junction of two pieces: location, shared value, one-sided slopes."""

    t0: float
    value: float
    slope_left: float
    slope_right: float

    @property
    def gap(self) -> float:
        return self.slope_right - self.slope_left

    @property
    def kind(self) -> str:
        if self.gap > SLOPE_GAP_TOL:
            return "convex"
        if self.gap < -SLOPE_GAP_TOL:
            return "concave"
        return "weak"


@dataclass(frozen=True)
class Piece:
    """One C^2 piece on the closed interval [lo, hi] with its derivatives."""

    lo: float
    hi: float
    v: Callable
    vp: Callable
    vpp: Callable


@dataclass(frozen=True)
class Profile1D:
    """Scalar profile on the whole line; see the module docstring."""

    name: str
    pieces: tuple[Piece, ...]
    corners: tuple[Corner, ...]

    def __post_init__(self) -> None:
        ps = self.pieces
        if not ps:
            raise ProfileConstructionError("profile needs at least one piece")
        if not math.isinf(ps[0].lo) or ps[0].lo > 0:
            raise ProfileConstructionError("first piece must start at -inf")
        if not math.isinf(ps[-1].hi) or ps[-1].hi < 0:
            raise ProfileConstructionError("last piece must end at +inf")
        for left, right in zip(ps, ps[1:]):
            if left.hi != right.lo:
                raise ProfileConstructionError(
                    f"pieces do not tile the line: {left.hi} != {right.lo}"
                )
        breakpoints = {p.hi for p in ps[:-1]}
        for c in self.corners:
            if c.t0 not in breakpoints:
                raise ProfileConstructionError(f"corner at {c.t0} is not a junction")
        # continuity and declared slopes, checked numerically at each junction
        for left, right in zip(ps, ps[1:]):
            t0 = left.hi
            jump = abs(float(left.v(t0)) - float(right.v(t0)))
            if jump > 1e-12:
                raise ProfileConstructionError(f"value jump {jump:.3e} at t={t0}")
        h = 1e-6
        for c in self.corners:
            left = self._piece_left_of(c.t0)
            right = self._piece_right_of(c.t0)
            num_l = (float(left.v(c.t0)) - float(left.v(c.t0 - h))) / h
            num_r = (float(right.v(c.t0 + h)) - float(right.v(c.t0))) / h
            if abs(num_l - c.slope_left) > 1e-8 or abs(num_r - c.slope_right) > 1e-8:
                raise ProfileConstructionError(
                    f"declared slopes at t={c.t0} disagree with one-sided differences"
                )

    def _piece_left_of(self, t0: float) -> Piece:
        for p in self.pieces:
            if p.hi == t0:
                return p
        raise ProfileConstructionError(f"no piece ends at {t0}")

    def _piece_right_of(self, t0: float) -> Piece:
        for p in self.pieces:
            if p.lo == t0:
                return p
        raise ProfileConstructionError(f"no piece starts at {t0}")

    def piece_at(self, t: float) -> Piece:
        for p in self.pieces[:-1]:
            if t < p.hi:
                return p
        return self.pieces[-1]

    def corner_near(self, t: float, tol: float = CORNER_LOCUS_TOL):
        for c in self.corners:
            if abs(t - c.t0) <= tol:
                return c
        return None

    def value(self, t: float) -> float:
        return float(self.piece_at(t).v(t))

    def deriv(self, t: float) -> float:
        c = self.corner_near(t)
        if c is not None and c.kind != "weak":
            raise SingularPointError(f"derivative undefined at the kink t={c.t0}")
        return float(self.piece_at(t).vp(t))

    def second_deriv(self, t: float) -> float:
        c = self.corner_near(t)
        if c is not None:
            raise SingularPointError(f"second derivative undefined at t={c.t0}")
        return float(self.piece_at(t).vpp(t))

    def _eval_piecewise(self, ts: np.ndarray, attr: str) -> np.ndarray:
        """Evaluate on each t the piece that :meth:`piece_at` picks for it."""
        ts = np.asarray(ts, dtype=float)
        out = np.empty_like(ts)
        his = [p.hi for p in self.pieces[:-1]]
        # a junction belongs to the piece on its right; NaN sorts past every end
        which = np.searchsorted(his, ts, side="right")
        for i, p in enumerate(self.pieces):
            mask = which == i
            if np.any(mask):
                out[mask] = getattr(p, attr)(ts[mask])
        return out

    def values(self, ts) -> np.ndarray:
        return self._eval_piecewise(ts, "v")

    def derivs(self, ts) -> np.ndarray:
        return self._eval_piecewise(ts, "vp")

    def second_derivs(self, ts) -> np.ndarray:
        return self._eval_piecewise(ts, "vpp")


def _constant_piece(lo: float, hi: float, value: float) -> Piece:
    return Piece(
        lo,
        hi,
        lambda t, v=value: np.full_like(np.asarray(t, dtype=float), v)
        if np.ndim(t)
        else v,
        lambda t: np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0,
        lambda t: np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0,
    )


def _tanh_piece(lo: float, hi: float, shift: float, sign: float) -> Piece:
    """sign * tanh((t - shift)/sqrt(2)); its second derivative is v^3 - v."""

    def v(t):
        return sign * np.tanh((np.asarray(t, dtype=float) - shift) / _SQRT2)

    def vp(t):
        w = np.tanh((np.asarray(t, dtype=float) - shift) / _SQRT2)
        return sign * (1.0 - w * w) / _SQRT2

    def vpp(t):
        val = v(t)
        return val**3 - val

    return Piece(lo, hi, v, vp, vpp)


_INF = float("inf")
_HALF_SLOPE = 1.0 / _SQRT2


def plain_tanh() -> Profile1D:
    """The odd transition layer tanh(t / sqrt(2)); smooth, no corners."""
    return Profile1D("plain-tanh", (_tanh_piece(-_INF, _INF, 0.0, 1.0),), ())


def halfline_tanh() -> Profile1D:
    """Zero for t <= 0, tanh(t / sqrt(2)) for t >= 0; one upward kink at 0."""
    pieces = (_constant_piece(-_INF, 0.0, 0.0), _tanh_piece(0.0, _INF, 0.0, 1.0))
    return Profile1D(
        "halfline-tanh", pieces, (Corner(0.0, 0.0, 0.0, _HALF_SLOPE),)
    )


def tanh_shifted(c: float) -> Profile1D:
    """Three-piece family: falling layer, zero plateau on (-c, c), rising layer.

    Both junctions are upward kinks for c > 0.  At c = 0 the plateau vanishes
    and the two layers glue into the plain odd profile; the junction is kept
    but has equal one-sided slopes (a weak corner, checked like a smooth
    point from both sides).
    """
    if c < 0.0:
        raise ProfileConstructionError(f"shift must be nonnegative, got {c}")
    name = f"tanh-shifted:{c:g}"
    if c == 0.0:
        pieces = (
            _tanh_piece(-_INF, 0.0, 0.0, 1.0),
            _tanh_piece(0.0, _INF, 0.0, 1.0),
        )
        return Profile1D(name, pieces, (Corner(0.0, 0.0, _HALF_SLOPE, _HALF_SLOPE),))
    pieces = (
        _tanh_piece(-_INF, -c, -c, -1.0),
        _constant_piece(-c, c, 0.0),
        _tanh_piece(c, _INF, c, 1.0),
    )
    corners = (
        Corner(-c, 0.0, -_HALF_SLOPE, 0.0),
        Corner(c, 0.0, 0.0, _HALF_SLOPE),
    )
    return Profile1D(name, pieces, corners)


def zero_profile() -> Profile1D:
    return Profile1D("zero", (_constant_piece(-_INF, _INF, 0.0),), ())


def constant_profile(value: float) -> Profile1D:
    return Profile1D(f"constant:{value:g}", (_constant_piece(-_INF, _INF, value),), ())


def radial_closed_form(alpha: float, k: int) -> Profile1D:
    """Positive bump 1 / sqrt(1 + C exp(t^2 / k)) with C = (1 - a^2) / a^2.

    Smooth and even, with value alpha at the origin; decays like a Gaussian.
    Only heights up to 1/sqrt(3) are allowed, which keeps the trajectory
    inside the monotone window of the cubic reaction.
    """
    if not 0.0 < alpha <= _INV_SQRT3 + 1e-15:
        raise ProfileConstructionError(
            f"height must lie in (0, 1/sqrt(3)], got {alpha}"
        )
    if not (isinstance(k, int) and k >= 1):
        raise ProfileConstructionError(f"decay index must be a positive integer, got {k}")
    log_c = math.log1p(-alpha * alpha) - 2.0 * math.log(alpha)

    # Evaluated through L = t^2/k + log C, always positive here, so the
    # exponentials only ever underflow (harmlessly) rather than overflow.
    def _parts(t):
        t = np.asarray(t, dtype=float)
        big = t * t / k + log_c
        half = np.exp(-0.5 * big)
        reciprocal = np.exp(-big)
        return t, half, reciprocal

    def v(t):
        scalar = np.ndim(t) == 0
        t, half, rec = _parts(t)
        out = half / np.sqrt(1.0 + rec)
        return float(out) if scalar else out

    def vp(t):
        scalar = np.ndim(t) == 0
        t, half, rec = _parts(t)
        out = -(t / k) * half * (1.0 + rec) ** -1.5
        return float(out) if scalar else out

    def vpp(t):
        scalar = np.ndim(t) == 0
        t, half, rec = _parts(t)
        t2 = t * t
        out = half * (
            -(1.0 / k + 2.0 * t2 / (k * k)) * (1.0 + rec) ** -1.5
            + (3.0 * t2 / (k * k)) * (1.0 + rec) ** -2.5
        )
        return float(out) if scalar else out

    piece = Piece(-_INF, _INF, v, vp, vpp)
    return Profile1D(f"radial-closed:{alpha:g},{k}", (piece,), ())


@dataclass(frozen=True)
class Candidate:
    """A profile embedded in dimension N with a fixed operator index.

    kind "one_dimensional": u(x) = v(x_N), constant tangentially.
    kind "radial": u(x) = v(|x|); the profile must be smooth at the origin.
    """

    kind: str
    profile: Profile1D
    ambient_dim: int
    op_index: int
    nonlinearity: Nonlinearity

    def __post_init__(self) -> None:
        if self.kind not in ("one_dimensional", "radial"):
            raise ValueError(f"unknown candidate kind {self.kind!r}")
        if self.ambient_dim < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {self.ambient_dim}")
        if not 1 <= self.op_index <= self.ambient_dim - 1:
            raise ValueError(
                f"operator index must lie in [1, {self.ambient_dim - 1}], "
                f"got {self.op_index}"
            )

    def embed(self, t: float) -> np.ndarray:
        """A point of ambient space with profile coordinate t."""
        x = np.zeros(self.ambient_dim)
        if self.kind == "one_dimensional":
            x[-1] = t
        else:
            x[0] = t
        return x


def _refusal(c: Candidate, s: float) -> str | None:
    """Why the Hessian at profile coordinate s (t, or r when radial) is refused."""
    if c.kind == "radial" and s == 0.0:
        slope = c.profile.piece_at(0.0).vp(0.0)
        if abs(float(slope)) > ORIGIN_SLOPE_TOL:
            return "radial profile is not smooth at the origin (v'(0) != 0)"
        kink = c.profile.corner_near(0.0)
        return None if kink is None else f"second derivative undefined at t={kink.t0}"
    kink = c.profile.corner_near(s)
    if kink is None:
        return None
    if c.kind == "one_dimensional":
        return f"point sits on the kink locus t={kink.t0}"
    return f"point sits on the kink sphere r={kink.t0}"


def candidate_hessian(c: Candidate, x) -> SymmetricMatrix:
    """Ambient Hessian of the embedded profile at the point x.

    Kink loci raise :class:`SingularPointError`; those points get corner
    treatment in the verification engine instead.  The radial origin is fine
    when the profile is flat there (the Hessian is v''(0) times the identity).
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (c.ambient_dim,):
        raise ValueError(f"expected a point of R^{c.ambient_dim}, got shape {x.shape}")
    n = c.ambient_dim
    s = float(x[-1]) if c.kind == "one_dimensional" else float(np.linalg.norm(x))
    reason = _refusal(c, s)
    if reason is not None:
        raise SingularPointError(reason)
    if c.kind == "one_dimensional":
        dense = np.zeros((n, n))
        dense[-1, -1] = c.profile.second_deriv(s)
        return SymmetricMatrix.from_dense(dense)
    if s == 0.0:
        return SymmetricMatrix.from_dense(c.profile.second_deriv(0.0) * np.eye(n))
    unit = x / s
    proj = np.outer(unit, unit)
    radial_curv = c.profile.second_deriv(s)
    tangential = c.profile.deriv(s) / s
    dense = radial_curv * proj + tangential * (np.eye(n) - proj)
    return SymmetricMatrix.from_dense(dense)


def _profile_coordinates(c: Candidate, ts: np.ndarray) -> np.ndarray:
    """|embed(t)| as np.linalg.norm computes it (sqrt of the dot product) when radial."""
    return ts if c.kind == "one_dimensional" else np.sqrt(ts * ts)


def refused_points(c: Candidate, ts) -> np.ndarray:
    """Mask of the points ``c.embed(t)`` where :func:`candidate_hessian` refuses."""
    ts = np.asarray(ts, dtype=float)
    s = _profile_coordinates(c, ts)
    refused = np.zeros(ts.shape, dtype=bool)
    for corner in c.profile.corners:
        refused |= np.abs(s - corner.t0) <= CORNER_LOCUS_TOL
    if c.kind == "radial":
        origin = s == 0.0
        if origin.any() and _refusal(c, 0.0) is not None:
            refused |= origin
    return refused


def candidate_spectra(c: Candidate, ts) -> np.ndarray:
    """Eigenvalues of the Hessians at the points ``c.embed(t)``: shape (G, N).

    Every ``c.embed(t)`` lies on a coordinate axis, where the Hessian that
    :func:`candidate_hessian` builds has no nonzero off-diagonal entry.  Row
    g is its diagonal, entry for entry with the same arithmetic, with the
    profile derivatives evaluated on the whole array at once.  Raises the
    same :class:`SingularPointError` as :func:`candidate_hessian` does at the
    first refused t (see :func:`refused_points`).
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"expected a 1D array of profile coordinates, got shape {ts.shape}")
    n = c.ambient_dim
    profile = c.profile
    s = _profile_coordinates(c, ts)
    refused = refused_points(c, ts)
    if refused.any():
        raise SingularPointError(_refusal(c, float(s[np.argmax(refused)])))

    out = np.zeros((ts.size, n))
    if c.kind == "one_dimensional":
        out[:, -1] = profile.second_derivs(ts)
        return out
    origin = s == 0.0
    if origin.any():
        out[origin] = profile.second_deriv(0.0)
    away = ~origin
    r = s[away]
    unit = ts[away] / r
    p = unit * unit
    radial_curv = profile.second_derivs(r)
    tangential = profile.derivs(r) / r
    out[away, 0] = radial_curv * p + tangential * (1.0 - p)
    out[away, 1:] = tangential[:, np.newaxis]
    return out
