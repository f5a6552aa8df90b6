import math

import numpy as np
import pytest

from trunclap.nonlinearities import allen_cahn
from trunclap.profiles import (
    Candidate,
    Corner,
    Piece,
    Profile1D,
    constant_profile,
    halfline_tanh,
    plain_tanh,
    radial_closed_form,
    tanh_shifted,
    zero_profile,
)
from trunclap.viscosity import (
    CORNER_CLEARANCE,
    CornerOnGridError,
    UnsupportedCandidateError,
    VerificationError,
    WeakCornerError,
    _structure,
    check_corner,
    default_grid,
    scan_smooth_residuals,
    verify,
)

AC = allen_cahn()
INF = math.inf


def one_dim(profile, n=3, k=1):
    return Candidate("one_dimensional", profile, n, k, AC)


def radial(profile, n=3, k=1):
    return Candidate("radial", profile, n, k, AC)


def tent_profile():
    # downward kink at 0: slopes +1 then -1
    up = Piece(-INF, 0.0, lambda t: 1.0 * t, lambda t: 1.0 + 0.0 * t, lambda t: 0.0 * t)
    down = Piece(0.0, INF, lambda t: -1.0 * t, lambda t: -1.0 + 0.0 * t, lambda t: 0.0 * t)
    return Profile1D("tent", (up, down), (Corner(0.0, 0.0, 1.0, -1.0),))


def raised_elbow_profile():
    # upward kink at a level where the reaction does not vanish
    flat = Piece(-INF, 0.0, lambda t: 0.5 + 0.0 * t, lambda t: 0.0 * t, lambda t: 0.0 * t)
    rise = Piece(0.0, INF, lambda t: 0.5 + t, lambda t: 1.0 + 0.0 * t, lambda t: 0.0 * t)
    return Profile1D("raised-elbow", (flat, rise), (Corner(0.0, 0.5, 0.0, 1.0),))


# -- smooth residual scans ------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_halfline_residuals_vanish_on_layer(k):
    c = one_dim(halfline_tanh(), n=3, k=k)
    residuals = scan_smooth_residuals(c, np.array([0.5, 1.0, 2.0]))
    assert np.max(np.abs(residuals)) <= 1e-10


def test_plain_tanh_residual_frozen_value():
    # residual at t=-1 equals the bare reaction term: the sole nonzero
    # Hessian eigenvalue is positive there, so the smallest one is 0
    c = one_dim(plain_tanh(), n=2, k=1)
    residual = scan_smooth_residuals(c, [-1.0])[0]
    assert residual == pytest.approx(-0.38314927641474905, abs=1e-12)
    assert abs(scan_smooth_residuals(c, [1.0])[0]) <= 1e-12


def test_radial_closed_form_residuals():
    c = radial(radial_closed_form(0.5, 1), n=2, k=1)
    residuals = scan_smooth_residuals(c, np.array([0.5, 1.0, 3.0]))
    assert np.max(np.abs(residuals)) <= 1e-8


def test_scan_rejects_points_on_kink_locus():
    c = one_dim(halfline_tanh())
    with pytest.raises(CornerOnGridError, match="t=0.0"):
        scan_smooth_residuals(c, np.array([-1.0, 0.0, 1.0]))


def test_scan_accepts_points_at_exactly_the_clearance():
    # the rule verify filters its grid by
    c = one_dim(halfline_tanh())
    edge = CORNER_CLEARANCE
    assert scan_smooth_residuals(c, [-edge, edge]).shape == (2,)
    with pytest.raises(CornerOnGridError, match="t=9e-08 is within"):
        scan_smooth_residuals(c, [-edge, 0.9 * edge])


# -- corner rules ----------------------------------------------------------------

def test_halfline_corner_passes_both_sides():
    c = one_dim(halfline_tanh())
    out = check_corner(c, c.profile.corners[0])
    assert out.subsolution and out.supersolution
    assert out.witnesses == ()


def test_shifted_corners_pass():
    c = one_dim(tanh_shifted(1.0))
    for corner in c.profile.corners:
        out = check_corner(c, corner)
        assert out.subsolution and out.supersolution


def test_concave_corner_fails_subsolution():
    c = one_dim(tent_profile())
    out = check_corner(c, c.profile.corners[0])
    assert not out.subsolution
    assert out.supersolution
    assert out.witnesses[0].rule == "concave-corner-subsolution"


def test_convex_corner_with_nonzero_reaction_fails_supersolution():
    c = one_dim(raised_elbow_profile())
    out = check_corner(c, c.profile.corners[0])
    assert out.subsolution
    assert not out.supersolution
    w = out.witnesses[0]
    assert "derived rule" in w.rule
    assert w.residual == pytest.approx(0.375)  # f(0.5) for the cubic reaction


def test_weak_corner_routed_away():
    c = one_dim(tanh_shifted(0.0))
    with pytest.raises(WeakCornerError):
        check_corner(c, c.profile.corners[0])


def test_corner_rules_refuse_radial_candidates():
    c = radial(radial_closed_form(0.5, 1))
    with pytest.raises(UnsupportedCandidateError):
        check_corner(c, Corner(1.0, 0.0, 0.0, 1.0))


# -- full verdicts ----------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2])
def test_halfline_is_solution(k):
    v = verify(one_dim(halfline_tanh(), n=3, k=k))
    assert v.subsolution and v.supersolution and v.solution
    assert v.witnesses == ()
    assert v.structure.plateau == (-20.0, 0.0)
    assert v.structure.flags == ()


def test_plain_tanh_fails_subsolution_only():
    v = verify(one_dim(plain_tanh(), n=2, k=1))
    assert not v.subsolution
    assert v.supersolution
    assert not v.solution
    assert len(v.witnesses) > 0
    for w in v.witnesses:
        assert w.t < 0.0
        assert w.rule.startswith("smooth-subsolution")
    assert v.structure.plateau is None


def test_zero_candidate_is_solution():
    v = verify(one_dim(zero_profile(), n=4, k=2))
    assert v.solution
    assert v.structure.sign == "zero"
    assert v.structure.plateau == (-20.0, 20.0)


def test_shifted_family_solutions():
    for c in (0.5, 1.0, 2.0):
        v = verify(one_dim(tanh_shifted(c), n=3, k=1))
        assert v.solution, c
        assert v.structure.plateau == (-c, c)
        assert v.structure.monotonicity == "non-monotone"
        assert v.structure.min_value == 0.0


def test_glued_pair_fails_like_plain_tanh():
    v = verify(one_dim(tanh_shifted(0.0), n=2, k=1))
    assert not v.solution
    assert v.supersolution and not v.subsolution


@pytest.mark.parametrize("alpha", [0.1, 0.3, 1.0 / math.sqrt(3.0)])
@pytest.mark.parametrize("k", [1, 2])
def test_radial_closed_family_solutions(alpha, k):
    v = verify(radial(radial_closed_form(alpha, k), n=k + 1, k=k))
    assert v.solution, (alpha, k)
    assert v.structure.flags == ()
    assert v.structure.sign == "positive" or v.structure.min_value >= 0.0


def test_tent_fails_with_corner_witness():
    v = verify(one_dim(tent_profile()), tol=1e-8)
    assert not v.subsolution
    assert v.witnesses[0].rule == "concave-corner-subsolution"


def test_radial_candidates_with_kinks_rejected():
    with pytest.raises(UnsupportedCandidateError):
        verify(radial(halfline_tanh()))


def test_bad_grid_and_tol_rejected():
    c = one_dim(zero_profile())
    with pytest.raises(VerificationError):
        verify(c, grid=np.array([1.0]))
    with pytest.raises(VerificationError):
        verify(c, tol=0.0)


# -- determinism -------------------------------------------------------------------

def test_verdict_order_independent():
    c = one_dim(plain_tanh(), n=2, k=1)
    grid = np.linspace(-5.0, 5.0, 501)
    a = verify(c, grid)
    b = verify(c, grid[::-1].copy())
    assert a.report() == b.report()


def test_repeated_verdicts_identical():
    c = one_dim(halfline_tanh(), n=3, k=2)
    assert verify(c).report() == verify(c).report()


def test_report_schema_keys():
    rep = verify(one_dim(plain_tanh(), n=2, k=1)).report()
    assert set(rep) == {
        "candidate", "N", "k", "tol",
        "subsolution", "supersolution", "solution",
        "witnesses", "structure",
    }
    assert rep["candidate"] == "plain-tanh"
    assert rep["N"] == 2 and rep["k"] == 1
    assert set(rep["witnesses"][0]) == {"t", "residual", "rule"}
    assert set(rep["structure"]) == {"min", "plateau"}


# -- structure consistency flags ----------------------------------------------------

def test_flag_negative_min_subsolution():
    c = one_dim(plain_tanh(), n=2, k=1)
    v = verify(c)
    assert not v.subsolution
    # claim the opposite verdict to exercise the flag
    rep = _structure(c, default_grid(c.kind), True, False, v.tol)
    assert any(f.startswith("subsolution-with-negative-min") for f in rep.flags)


def test_flag_positive_supersolution():
    c = one_dim(constant_profile(0.5), n=2, k=1)
    v = verify(c)
    assert not v.supersolution  # honest engine refuses, residual is f(0.5)
    rep = _structure(c, default_grid(c.kind), False, True, v.tol)
    assert any(f.startswith("positive-1d-supersolution") for f in rep.flags)


def test_flag_missing_left_plateau():
    c = one_dim(halfline_tanh(), n=3, k=1)
    grid = np.linspace(0.5, 20.0, 100)
    v = verify(c, grid=grid)
    assert v.supersolution
    rep = _structure(c, grid, v.subsolution, v.supersolution, v.tol)
    # window sees only the strictly positive part: both expectations trip
    assert any(f.startswith("positive-1d-supersolution") for f in rep.flags)
    assert rep == v.structure


def test_plateau_flag_on_nonnegative_window():
    c = one_dim(halfline_tanh(), n=3, k=1)
    grid = np.concatenate([[0.0], np.linspace(0.5, 20.0, 100)])
    v = verify(c, grid=grid)
    rep = _structure(c, grid, v.subsolution, v.supersolution, v.tol)
    assert any(f.startswith("missing-left-plateau") for f in rep.flags)
    assert rep == v.structure


def test_radial_exempt_from_1d_flags():
    c = radial(radial_closed_form(0.5, 1), n=2, k=1)
    v = verify(c)
    assert v.supersolution
    assert v.structure.sign == "positive"
    assert v.structure.flags == ()


# -- meta-tests over the built-in families -------------------------------------------

CATALOG_1D = [
    one_dim(halfline_tanh(), n=3, k=1),
    one_dim(halfline_tanh(), n=3, k=2),
    one_dim(plain_tanh(), n=2, k=1),
    one_dim(tanh_shifted(0.0), n=2, k=1),
    one_dim(tanh_shifted(1.0), n=3, k=2),
    one_dim(zero_profile(), n=2, k=1),
]


def test_passing_subsolutions_are_nonnegative():
    for c in CATALOG_1D:
        v = verify(c)
        if v.subsolution:
            assert v.structure.min_value >= -1e-12, v.candidate


def test_cornerless_nonzero_profiles_are_not_solutions():
    for c in CATALOG_1D:
        if not c.profile.corners and c.profile.name != "zero":
            assert not verify(c).solution, c.profile.name


def test_monotone_supersolutions_have_left_plateau():
    for c in CATALOG_1D:
        v = verify(c)
        s = v.structure
        if (
            v.supersolution
            and s.sign in ("nonnegative", "zero")
            and s.monotonicity in ("nondecreasing", "constant")
        ):
            assert s.plateau is not None
            assert s.plateau[0] == -20.0
