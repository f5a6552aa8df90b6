"""Radial reduction solver.

For a radial candidate u(x) = v(|x|) whose radial curvature dominates the
tangential one (v'' >= v'/r), the degenerate operator collapses to
k * v'(r) / r and the PDE reduces to the scalar initial value problem

    v'(r) = -(r / k) * f(v(r)),   v(0) = alpha.

This module integrates that IVP with a fixed-step classical RK4 (compensated
accumulation keeps roundoff near machine precision over long runs), evaluates
the equivalent quadrature representation v(r) = G(r^2 / 2k) where G inverts
s -> integral_s^alpha du / f(u), cross-checks the curvature ordering needed
for the reduction, and reassembles the full ambient residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_STEP = 1e-3
DEFAULT_RMAX = 10.0
# slack for the v'' >= v'/r comparison at sampled points
ORDERING_SLACK = 1e-9
# geometric bracketing floor for the quadrature inverse
_BRACKET_FLOOR = 1e-280
_QUAD_TOL = 1e-11
_BISECT_ITERS = 200


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on the first call.

    SciPy takes about half a second to import, and only the quadrature
    oracle needs it.  The first call rebinds this module's ``quad`` to
    SciPy's function, unless something else has been bound there meanwhile.
    """
    global quad
    from scipy.integrate import quad as scipy_quad

    if quad is _lazy_quad:
        quad = scipy_quad
    return scipy_quad(*args, **kwargs)


_lazy_quad = quad


class RadialInputError(ValueError):
    """Bad parameters for the radial IVP or quadrature."""


class IntegrationBlowupError(RuntimeError):
    """The trajectory left the finite range; carries the last good radius."""

    def __init__(self, message: str, last_good_r: float):
        super().__init__(message)
        self.last_good_r = last_good_r


class OrderingViolationError(RuntimeError):
    """v'' >= v'/r failed somewhere, so the scalar reduction is invalid."""


class InverseRangeError(RuntimeError):
    """The reaction integral converges: the inverse stops at a finite radius."""


@dataclass(frozen=True)
class Diagnostics:
    monotone_decreasing: bool
    positive: bool
    curvature_ordering_holds: bool
    tail_below: float

    def to_dict(self) -> dict:
        return {
            "monotone_decreasing": self.monotone_decreasing,
            "positive": self.positive,
            "curvature_ordering_holds": self.curvature_ordering_holds,
            "tail_below": self.tail_below,
        }


@dataclass(eq=False)
class RadialRun:
    """Sampled trajectory of the radial IVP on a uniform grid."""

    nonlinearity_name: str
    alpha: float
    k: int
    step: float
    rmax: float
    r: np.ndarray
    v: np.ndarray
    vp: np.ndarray
    diagnostics: Diagnostics

    def __post_init__(self) -> None:
        if not (self.r[0] == 0.0 and self.v[0] == self.alpha and self.vp[0] == 0.0):
            raise RadialInputError("samples must start at (0, alpha, 0)")
        dr = np.diff(self.r)
        if not (np.all(dr > 0) and np.max(np.abs(dr - self.step)) <= 1e-12):
            raise RadialInputError("radii must increase with uniform step")


def _validate_height(f, alpha: float, allow_beyond_window: bool) -> None:
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)) or alpha <= 0.0:
        raise RadialInputError(f"initial height must be positive, got {alpha}")
    # inclusive at the window edge: the borderline height is admissible
    if alpha > f.delta + 1e-15 and not allow_beyond_window:
        raise RadialInputError(
            f"initial height {alpha} exceeds the monotone reaction window"
            f" (0, {f.delta}]; pass allow_beyond_window=True to explore anyway"
        )


def integrate_ivp(
    f,
    alpha: float,
    k: int,
    step: float = DEFAULT_STEP,
    rmax: float = DEFAULT_RMAX,
    allow_beyond_window: bool = False,
) -> RadialRun:
    """Classical fixed-step RK4 trajectory of the radial IVP."""
    _validate_height(f, alpha, allow_beyond_window)
    if not isinstance(k, int) or k < 1:
        raise RadialInputError(f"operator index must be a positive integer, got {k}")
    if not (step > 0.0 and math.isfinite(step)):
        raise RadialInputError(f"step must be positive, got {step}")
    if rmax < 1.0:
        raise RadialInputError(f"rmax must be at least 1, got {rmax}")
    n = int(round(rmax / step))
    if n < 1 or abs(n * step - rmax) > 1e-9 * max(1.0, rmax):
        raise RadialInputError("rmax must be an integer multiple of step")

    def rhs(r: float, u: float) -> float:
        return -(r / k) * float(f.f(u))

    v = np.empty(n + 1)
    v[0] = alpha
    u = float(alpha)
    comp = 0.0  # compensated accumulation of the RK4 increments
    h = step
    for i in range(n):
        r0 = i * h
        k1 = rhs(r0, u)
        k2 = rhs(r0 + 0.5 * h, u + 0.5 * h * k1)
        k3 = rhs(r0 + 0.5 * h, u + 0.5 * h * k2)
        k4 = rhs(r0 + h, u + h * k3)
        incr = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y = incr - comp
        t = u + y
        comp = (t - u) - y
        u = t
        if not math.isfinite(u) or abs(u) > 1e6:
            raise IntegrationBlowupError(
                f"trajectory left the finite range at r={(i + 1) * h}",
                last_good_r=i * h,
            )
        v[i + 1] = u

    r = np.arange(n + 1) * h
    fv = np.asarray(f.f(v), dtype=float)
    vp = -(r / k) * fv
    vp[0] = 0.0

    vpp = _curvature(f, r, v, vp, k, fv)
    # unlike check_curvature_ordering, a NaN curvature fails the ordering here
    ordering_ok = bool(np.all(vpp[1:] >= _ordering_floor(r, vp)))
    diagnostics = Diagnostics(
        monotone_decreasing=bool(np.all(np.diff(v) < 0.0)),
        positive=bool(np.all(v > 0.0)),
        curvature_ordering_holds=ordering_ok,
        tail_below=float(v[-1]),
    )
    return RadialRun(
        nonlinearity_name=f.name,
        alpha=float(alpha),
        k=k,
        step=h,
        rmax=n * h,
        r=r,
        v=v,
        vp=vp,
        diagnostics=diagnostics,
    )


def _curvature(f, r, v, vp, k: int, fv) -> np.ndarray:
    """v'' = -(1/k)(f(v) + r f'(v) v') from the differentiated IVP; fv is f(v)."""
    fpv = np.asarray(f.fprime(v), dtype=float)
    return -(fv + r * fpv * vp) / k


def _ordering_floor(r, vp) -> np.ndarray:
    """v'/r - slack from the first step on, the floor v'' must stay above.

    At r = 0 both sides share the limit v''(0), so that sample is left out.
    """
    return vp[1:] / r[1:] - ORDERING_SLACK


def _ordering_violations(run: RadialRun, vpp) -> list[float]:
    bad = vpp[1:] < _ordering_floor(run.r, run.vp)
    return [float(x) for x in run.r[1:][bad]]


def second_derivative_from_ode(run: RadialRun, f) -> np.ndarray:
    """v'' along the run via the differentiated IVP, avoiding difference noise:
    v'' = -(1/k)(f(v) + r f'(v) v')."""
    fv = np.asarray(f.f(run.v), dtype=float)
    return _curvature(f, run.r, run.v, run.vp, run.k, fv)


def check_curvature_ordering(run: RadialRun, f) -> list[float]:
    """Radii where v'' < v'/r - slack; empty list means the reduction is valid."""
    return _ordering_violations(run, second_derivative_from_ode(run, f))


def _reaction_integral(f, lo: float, hi: float) -> float:
    """integral_lo^hi du / f(u) via u = e^w, which flattens the endpoint
    blowup: the substituted integrand e^w / f(e^w) tends to 1 / f'(0)."""

    def g(w: float) -> float:
        u = math.exp(w)
        return u / float(f.f(u))

    result = quad(
        g,
        math.log(lo),
        math.log(hi),
        epsabs=_QUAD_TOL,
        epsrel=_QUAD_TOL,
        limit=200,
        full_output=1,
    )
    return float(result[0])


def quadrature_inverse(
    f,
    alpha: float,
    k: int,
    r: float,
    allow_beyond_window: bool = False,
) -> float:
    """Evaluate the trajectory at radius r through the quadrature form.

    The running cost F(s) = integral_s^alpha du/f(u) increases without bound
    as s drops to 0 whenever 1/f is non-integrable at 0 (the generic case for
    smooth reactions with f(0) = 0), so F inverts on [0, inf); the value is
    the s with F(s) = r^2 / 2k, found by geometric bracketing plus bisection
    in log space.  If F turns out to converge, the inverse runs out of range
    at a finite radius and InverseRangeError reports it.
    """
    _validate_height(f, alpha, allow_beyond_window)
    if not isinstance(k, int) or k < 1:
        raise RadialInputError(f"operator index must be a positive integer, got {k}")
    if not (r >= 0.0 and math.isfinite(r)):
        raise RadialInputError(f"radius must be finite and nonnegative, got {r}")
    if r == 0.0:
        return float(alpha)

    target = r * r / (2.0 * k)
    lo = alpha * 0.5
    while _reaction_integral(f, lo, alpha) < target:
        lo *= 0.25
        if lo < _BRACKET_FLOOR:
            total = _reaction_integral(f, _BRACKET_FLOOR, alpha)
            raise InverseRangeError(
                f"reaction integral looks convergent (F({_BRACKET_FLOOR}) ="
                f" {total} < {target}): the profile hits zero at finite radius"
            )

    wlo, whi = math.log(lo), math.log(alpha)  # F(e^wlo) >= target >= F(e^whi)=0
    for _ in range(_BISECT_ITERS):
        wmid = 0.5 * (wlo + whi)
        if _reaction_integral(f, math.exp(wmid), alpha) >= target:
            wlo = wmid
        else:
            whi = wmid
        if whi - wlo <= 1e-14:
            break
    return math.exp(0.5 * (wlo + whi))


def residual_of_radial(run: RadialRun, N: int, f) -> float:
    """Max absolute ambient residual along the run for x in R^N.

    The Hessian of v(|x|) has eigenvalues {v''(r)} once and {v'(r)/r} with
    multiplicity N-1; the k smallest of these are summed exactly.  Refuses
    when the curvature ordering fails, because then the sampled trajectory
    no longer solves the reduced equation the integrator used.
    """
    if not isinstance(N, int) or N < 2:
        raise RadialInputError(f"ambient dimension must be an integer >= 2, got {N}")
    if run.k > N - 1:
        raise RadialInputError(
            f"operator index {run.k} must be at most N-1 = {N - 1}"
        )
    fv = np.asarray(f.f(run.v), dtype=float)
    vpp = _curvature(f, run.r, run.v, run.vp, run.k, fv)
    violations = _ordering_violations(run, vpp)
    if violations:
        raise OrderingViolationError(
            f"curvature ordering v'' >= v'/r fails at {len(violations)} radii"
            f" starting at r={violations[0]}; ambient reduction invalid"
        )
    tangential = np.empty_like(vpp)
    tangential[0] = vpp[0]  # limit of v'/r at the center
    tangential[1:] = run.vp[1:] / run.r[1:]
    k = run.k
    # k smallest of {vpp, tangential x (N-1)} with k <= N-1
    sum_k = np.where(
        tangential <= vpp,
        k * tangential,
        vpp + (k - 1) * tangential,
    )
    residual = sum_k + fv
    return float(np.max(np.abs(residual)))


def run_to_csv(run: RadialRun) -> str:
    lines = ["r,v,vp"]
    for r, v, vp in zip(run.r, run.v, run.vp):
        lines.append(f"{float(r)!r},{float(v)!r},{float(vp)!r}")
    return "\n".join(lines) + "\n"


def run_report(run: RadialRun) -> dict:
    """JSON-ready diagnostics block mirroring the run parameters."""
    return {
        "nonlinearity": run.nonlinearity_name,
        "alpha": run.alpha,
        "k": run.k,
        "step": run.step,
        "rmax": run.rmax,
        "samples": int(run.r.size),
        "diagnostics": run.diagnostics.to_dict(),
    }
