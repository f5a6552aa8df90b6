import io
import math
import types

import numpy as np
import pytest

from trunclap.nonlinearities import allen_cahn, power_law
from trunclap.operators import SymmetricMatrix, smallest_eigen_sum
from trunclap.profiles import radial_closed_form
from trunclap.radial import (
    IntegrationBlowupError,
    InverseRangeError,
    OrderingViolationError,
    QuadratureError,
    RadialInputError,
    RadialRun,
    check_curvature_ordering,
    integrate_ivp,
    quad,
    quadrature_inverse,
    residual_of_radial,
    run_report,
    run_to_csv,
    second_derivative_from_ode,
)

AC = allen_cahn()


def linear_reaction():
    # f(u) = u, duck-typed; exact trajectory alpha * exp(-r^2 / 2k)
    return types.SimpleNamespace(
        name="linear",
        f=lambda u: np.asarray(u, dtype=float) + 0.0,
        fprime=lambda u: np.ones_like(np.asarray(u, dtype=float)),
        delta=1.0,
    )


def sqrt_reaction():
    # f(u) = sqrt(u): 1/f integrable at 0, so the quadrature range is finite
    return types.SimpleNamespace(
        name="sqrt",
        f=lambda u: np.sqrt(np.asarray(u, dtype=float)),
        fprime=lambda u: 0.5 / np.sqrt(np.asarray(u, dtype=float)),
        delta=1.0,
    )


def repulsive_reaction():
    # f(u) = -u blows the trajectory up like exp(+r^2/2)
    return types.SimpleNamespace(
        name="repulsive",
        f=lambda u: -np.asarray(u, dtype=float),
        fprime=lambda u: -np.ones_like(np.asarray(u, dtype=float)),
        delta=1.0,
    )


# -- IVP integration ---------------------------------------------------------------

def test_run_shape_and_start():
    run = integrate_ivp(AC, 0.5, 1, step=1e-2, rmax=2.0)
    assert run.r[0] == 0.0 and run.v[0] == 0.5 and run.vp[0] == 0.0
    assert run.r.size == 201
    assert run.rmax == pytest.approx(2.0)


def test_rk4_matches_closed_form():
    run = integrate_ivp(AC, 0.5, 1, step=2e-3, rmax=4.0)
    closed = radial_closed_form(0.5, 1).values(run.r)
    assert np.max(np.abs(run.v - closed)) <= 1e-12


def test_rk4_frozen_value_at_unit_radius():
    run = integrate_ivp(AC, 0.5, 1, step=1e-3, rmax=2.0)
    i = int(round(1.0 / run.step))
    assert run.r[i] == pytest.approx(1.0, abs=1e-12)
    assert run.v[i] == pytest.approx(0.33050230343075665, abs=1e-9)


def test_rk4_linear_reaction_exact():
    lin = linear_reaction()
    run = integrate_ivp(lin, 0.5, 1, step=1e-3, rmax=5.0)
    exact = 0.5 * np.exp(-run.r**2 / 2.0)
    assert np.max(np.abs(run.v - exact)) <= 1e-10


def test_initial_concavity_from_ode():
    run = integrate_ivp(AC, 0.4, 2, step=1e-2, rmax=1.0)
    vpp = second_derivative_from_ode(run, AC)
    assert vpp[0] == pytest.approx(-float(AC.f(0.4)) / 2.0, abs=1e-15)
    assert vpp[0] < 0.0


def test_diagnostics_monotone_positive_decaying():
    run = integrate_ivp(AC, 0.3, 1, step=1e-2, rmax=10.0)
    d = run.diagnostics
    assert d.monotone_decreasing and d.positive and d.curvature_ordering_holds
    assert d.tail_below <= 1e-2


def test_runs_never_cross():
    heights = [0.1, 0.3, 0.5]
    runs = [integrate_ivp(AC, a, 1, step=1e-2, rmax=8.0) for a in heights]
    for lo, hi in zip(runs, runs[1:]):
        assert np.all(lo.v < hi.v)


def test_height_window_enforced():
    with pytest.raises(RadialInputError):
        integrate_ivp(AC, 0.63, 1, step=1e-2, rmax=2.0)
    with pytest.raises(RadialInputError):
        integrate_ivp(AC, 0.0, 1)
    with pytest.raises(RadialInputError):
        integrate_ivp(AC, -0.1, 1)
    # the borderline height is admissible
    run = integrate_ivp(AC, AC.delta, 1, step=1e-2, rmax=1.0)
    assert run.v[0] == pytest.approx(AC.delta)


def test_beyond_window_exploration_allowed_with_flag():
    run = integrate_ivp(AC, 0.63, 1, step=1e-2, rmax=3.0, allow_beyond_window=True)
    assert run.v[0] == 0.63
    # outcome recorded, not asserted: the flag may legitimately be False here
    assert isinstance(run.diagnostics.curvature_ordering_holds, bool)


def test_bad_step_and_rmax():
    with pytest.raises(RadialInputError):
        integrate_ivp(AC, 0.5, 1, step=0.0)
    with pytest.raises(RadialInputError):
        integrate_ivp(AC, 0.5, 1, rmax=0.5)
    with pytest.raises(RadialInputError):
        integrate_ivp(AC, 0.5, 0)
    with pytest.raises(RadialInputError):
        integrate_ivp(AC, 0.5, 1, step=0.3, rmax=1.0)
    # more steps than MAX_STEPS, refused before anything is allocated
    with pytest.raises(RadialInputError, match="the limit is 1000000"):
        integrate_ivp(AC, 0.5, 1, step=1e-12, rmax=1.0)


def test_blowup_reports_last_good_radius():
    with pytest.raises(IntegrationBlowupError) as exc:
        integrate_ivp(repulsive_reaction(), 0.5, 1, step=1e-2, rmax=10.0)
    assert 4.0 < exc.value.last_good_r < 7.0


def test_run_validation():
    r = np.array([0.0, 0.1, 0.2])
    good = dict(
        nonlinearity_name="x", alpha=0.5, k=1, step=0.1, rmax=0.2,
        diagnostics=integrate_ivp(AC, 0.5, 1, step=1e-2, rmax=1.0).diagnostics,
    )
    with pytest.raises(RadialInputError):
        RadialRun(r=r, v=np.array([0.4, 0.3, 0.2]), vp=np.zeros(3), **good)
    with pytest.raises(RadialInputError):
        RadialRun(
            r=np.array([0.0, 0.1, 0.15]), v=np.array([0.5, 0.4, 0.3]),
            vp=np.zeros(3), **good,
        )


# -- curvature ordering --------------------------------------------------------------

def test_ordering_holds_in_window():
    for alpha, k in ((0.1, 1), (0.3, 2), (1.0 / math.sqrt(3.0), 1)):
        run = integrate_ivp(AC, alpha, k, step=1e-2, rmax=8.0)
        assert check_curvature_ordering(run, AC) == []


def test_nan_curvature_fails_the_ordering_everywhere():
    # the cubic reaction with f' undefined (NaN) below 0.2, which the
    # trajectory from 0.5 crosses before r = 4
    nl = types.SimpleNamespace(
        name="nan-fprime",
        f=AC.f,
        fprime=lambda u: np.where(np.asarray(u) < 0.2, np.nan, AC.fprime(u)),
        delta=AC.delta,
    )
    run = integrate_ivp(nl, 0.5, 1, step=1e-2, rmax=4.0)
    assert run.v[-1] < 0.2
    assert not run.diagnostics.curvature_ordering_holds
    violations = check_curvature_ordering(run, nl)
    assert violations[0] == float(run.r[np.argmax(run.v < 0.2)])
    with pytest.raises(OrderingViolationError, match=f"starting at r={violations[0]}"):
        residual_of_radial(run, 3, nl)


def test_linear_reaction_ordering_margin():
    # v'' - v'/r = alpha e^{-r^2/2k} r^2/k^2 >= 0 exactly
    lin = linear_reaction()
    run = integrate_ivp(lin, 0.5, 2, step=1e-2, rmax=5.0)
    vpp = second_derivative_from_ode(run, lin)
    margin = vpp[1:] - run.vp[1:] / run.r[1:]
    expected = run.v[1:] * run.r[1:] ** 2 / 4.0
    assert np.max(np.abs(margin - expected)) <= 1e-12
    assert np.all(margin >= 0.0)


# -- quadrature route ------------------------------------------------------------------

def test_quadrature_at_zero_radius_returns_height():
    assert quadrature_inverse(AC, 0.37, 2, 0.0) == 0.37


def test_quadrature_matches_closed_form():
    p = radial_closed_form(0.5, 1)
    for r in (0.5, 1.0, 2.0, 3.5):
        assert quadrature_inverse(AC, 0.5, 1, r) == pytest.approx(
            p.value(r), abs=1e-12
        )


def test_quadrature_frozen_value():
    assert quadrature_inverse(AC, 0.5, 1, 1.0) == pytest.approx(
        0.33050230343075665, abs=1e-9
    )


def test_quadrature_linear_reaction_analytic():
    assert quadrature_inverse(linear_reaction(), 0.3, 2, 2.0) == pytest.approx(
        0.3 * math.exp(-1.0), abs=1e-12
    )
    # deep in the tail, where an absolute tolerance says nothing
    assert quadrature_inverse(linear_reaction(), 0.3, 1, 10.0) == pytest.approx(
        0.3 * math.exp(-50.0), rel=1e-12
    )


def test_quadrature_agrees_with_ivp_across_catalog():
    p13 = power_law(1.0, 0.0, 3.0)  # f(u) = u + u^3 on u > 0, window delta = 1
    for f in (AC, p13):
        for alpha in (0.5 * f.delta, 0.9 * f.delta):
            for k in (1, 3):
                run = integrate_ivp(f, alpha, k, step=2e-3, rmax=4.0)
                for i in (500, 1000, 2000):
                    q = quadrature_inverse(f, alpha, k, float(run.r[i]))
                    assert abs(q - run.v[i]) <= 1e-8, (f.name, alpha, k, i)


def test_quadrature_detects_finite_range():
    sq = sqrt_reaction()
    # total cost 2 sqrt(alpha) = 1.0; radius beyond sqrt(2) is out of range
    assert quadrature_inverse(sq, 0.25, 1, 1.0) == pytest.approx(
        (0.5 - 0.25) ** 2, abs=1e-10
    )
    with pytest.raises(InverseRangeError):
        quadrature_inverse(sq, 0.25, 1, 2.0)


@pytest.mark.parametrize(
    "f,alpha",
    [(AC, 0.5), (power_law(1.0, 0.5, 3.0), 0.9), (linear_reaction(), 0.3)],
)
def test_quadrature_inverse_calls_quad_through_the_module(monkeypatch, f, alpha):
    from trunclap import radial

    calls = []

    def counting(*args):
        calls.append(1)
        return quad(*args)

    monkeypatch.setattr(radial, "quad", counting)
    for r in (0.5, 2.0, 6.0):
        calls.clear()
        quadrature_inverse(f, alpha, 1, r)
        # the range check, then one call per Newton step
        assert 2 <= len(calls) <= 6, (f.name, r, len(calls))


def test_quad_raises_when_the_levels_do_not_settle():
    # 1/sqrt(x) is integrable, but its endpoint singularity defeats the rule
    with pytest.raises(QuadratureError):
        quad(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)


def test_quadrature_inverse_raises_when_newton_does_not_settle(monkeypatch):
    from trunclap import radial

    # past the range check, a cost stuck at zero walks Newton down the
    # 644-wide bracket in steps of r^2 / 2k = 0.5
    values = iter([1e9])
    monkeypatch.setattr(radial, "quad", lambda g, a, b: next(values, 0.0))
    with pytest.raises(QuadratureError):
        quadrature_inverse(AC, 0.5, 1, 1.0)


def test_quadrature_input_validation():
    with pytest.raises(RadialInputError):
        quadrature_inverse(AC, 0.63, 1, 1.0)
    with pytest.raises(RadialInputError):
        quadrature_inverse(AC, 0.5, 1, -1.0)
    with pytest.raises(RadialInputError):
        quadrature_inverse(AC, 0.5, 0, 1.0)


# -- ambient residual --------------------------------------------------------------------

def test_ambient_residual_small_for_catalog():
    run = integrate_ivp(AC, 0.5, 1, step=1e-3, rmax=10.0)
    assert residual_of_radial(run, 3, AC) <= 1e-8


def test_ambient_residual_agrees_with_matrix_operator():
    # spot-check the two-branch eigenvalue sum against the full solver
    run = integrate_ivp(AC, 0.5, 2, step=1e-2, rmax=3.0)
    vpp = second_derivative_from_ode(run, AC)
    i = 150
    r, v, vp = float(run.r[i]), float(run.v[i]), float(run.vp[i])
    n = 4
    dense = np.diag([vpp[i]] + [vp / r] * (n - 1))
    expected = smallest_eigen_sum(SymmetricMatrix.from_dense(dense), 2) + float(
        AC.f(v)
    )
    tangential = vp / r
    got = (
        2 * tangential if tangential <= vpp[i] else vpp[i] + tangential
    ) + float(AC.f(v))
    assert got == pytest.approx(expected, abs=1e-12)
    assert abs(got) <= 1e-10


def test_ambient_residual_requires_room_for_index():
    run = integrate_ivp(AC, 0.5, 2, step=1e-2, rmax=2.0)
    with pytest.raises(RadialInputError):
        residual_of_radial(run, 2, AC)


def test_ambient_residual_refuses_broken_ordering():
    run = integrate_ivp(
        AC, 0.63, 1, step=1e-2, rmax=3.0, allow_beyond_window=True
    )
    if check_curvature_ordering(run, AC):
        with pytest.raises(OrderingViolationError):
            residual_of_radial(run, 3, AC)
    else:
        assert residual_of_radial(run, 3, AC) <= 1e-8


# -- serialization ------------------------------------------------------------------------

def test_csv_roundtrip_and_header():
    run = integrate_ivp(AC, 0.5, 1, step=0.25, rmax=1.0)
    text = run_to_csv(run)
    lines = text.strip().split("\n")
    assert lines[0] == "r,v,vp"
    assert lines[1] == "0.0,0.5,0.0"
    back = np.loadtxt(io.StringIO(text), skiprows=1, delimiter=",")
    assert np.array_equal(back[:, 0], run.r)
    assert np.array_equal(back[:, 1], run.v)
    assert np.array_equal(back[:, 2], run.vp)


def test_report_block():
    run = integrate_ivp(AC, 0.5, 1, step=0.5, rmax=2.0)
    rep = run_report(run)
    assert rep["nonlinearity"] == "allen-cahn"
    assert rep["samples"] == 5
    assert set(rep["diagnostics"]) == {
        "monotone_decreasing", "positive", "curvature_ordering_holds", "tail_below",
    }


def test_reports_deterministic():
    a = run_to_csv(integrate_ivp(AC, 0.4, 2, step=1e-2, rmax=3.0))
    b = run_to_csv(integrate_ivp(AC, 0.4, 2, step=1e-2, rmax=3.0))
    assert a == b
