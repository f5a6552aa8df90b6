"""The array smooth-point scan against its one-point form and a loop reference."""

import math

import numpy as np
import pytest

from trunclap import catalog, viscosity
from trunclap.nonlinearities import allen_cahn
from trunclap.operators import (
    MatrixInputError,
    SymmetricMatrix,
    eigenvalues_ascending,
    smallest_eigen_sum,
    smallest_sums,
)
from trunclap.profiles import (
    Candidate,
    Corner,
    Piece,
    Profile1D,
    SingularPointError,
    candidate_hessian,
    candidate_spectra,
    halfline_tanh,
)
from trunclap.viscosity import (
    CORNER_CLEARANCE,
    CornerOnGridError,
    VerificationError,
    scan_smooth_residuals,
)

from oracles import random_symmetric

FAMILIES = (
    "halfline-tanh",
    "plain-tanh",
    "zero",
    "tanh-shifted:1.25",
    "tanh-shifted:0",
    "radial-closed:0.5,2",
)
DIMS = [(n, k) for n in range(2, 9) for k in range(1, n)]
# numpy's array power and the scalar pow may round differently in the last
# bit, so the loop reference is matched to a few ulps of the O(1) entries
LOOP_TOL = 64 * np.finfo(float).eps


def _grid(candidate, size):
    if candidate.kind == "radial":
        # starts at the origin, which the radial rule handles
        return np.linspace(0.0, 6.0, size)
    ts = np.linspace(-6.0, 6.0, size)
    return ts[viscosity._cleared(candidate, ts)]


def _per_point(candidate, ts):
    return np.array([scan_smooth_residuals(candidate, [t])[0] for t in ts])


def _loop_reference(candidate, ts):
    """One SymmetricMatrix per point, as the scan was once computed."""
    out = []
    for t in ts.tolist():
        hess = candidate_hessian(candidate, candidate.embed(t))
        value = candidate.profile.value(t)
        out.append(
            smallest_eigen_sum(hess, candidate.op_index)
            + float(candidate.nonlinearity.f(value))
        )
    return np.array(out)


@pytest.mark.parametrize("name", FAMILIES)
def test_scan_matches_per_point_bit_for_bit(name):
    for n, k in DIMS:
        cand = catalog.make_candidate(name, n, k)
        ts = _grid(cand, 61)
        residuals = scan_smooth_residuals(cand, ts)
        assert residuals.shape == ts.shape
        assert residuals.tobytes() == _per_point(cand, ts).tobytes(), (n, k)
        ref = _loop_reference(cand, ts)
        assert np.max(np.abs(residuals - ref)) <= LOOP_TOL, (n, k)


@pytest.mark.parametrize("name", ["plain-tanh", "radial-closed:0.5,2"])
@pytest.mark.parametrize("size", [1, 2047, 2048, 2049, 16001])
def test_scan_block_edges(name, size):
    cand = catalog.make_candidate(name, 4, 2)
    ts = np.linspace(0.001, 20.0, size) if cand.kind == "radial" else np.linspace(
        -20.0, 20.0, size
    )
    residuals = scan_smooth_residuals(cand, ts)
    assert residuals.shape == (size,)
    assert residuals.tobytes() == _per_point(cand, ts).tobytes()


def test_radial_origin_probe_matches_scan_at_zero():
    cand = catalog.make_candidate("radial-closed:0.4,1", 3, 1)
    at_zero = scan_smooth_residuals(cand, [0.0])[0]
    assert scan_smooth_residuals(cand, np.array([0.0, 0.5]))[0] == at_zero
    # the origin Hessian is v''(0) times the identity
    curv = cand.profile.second_deriv(0.0)
    value = cand.profile.value(0.0)
    assert at_zero == pytest.approx(curv + cand.nonlinearity.f(value), abs=LOOP_TOL)


def test_weak_corner_probes_match_per_point():
    # the scan stays where the residual vanishes, so only the probes fail
    cand = catalog.make_candidate("tanh-shifted:0", 3, 1)
    verdict = viscosity.verify(cand, grid=np.linspace(5.0, 6.0, 11))
    (w,) = verdict.witnesses
    assert w.rule == "smooth-subsolution (corner-left probe)"
    assert w.t == -viscosity.PROBE_OFFSET
    assert w.residual == scan_smooth_residuals(cand, [w.t])[0]
    assert w.residual == pytest.approx(
        _loop_reference(cand, np.array([w.t]))[0], abs=LOOP_TOL
    )


@pytest.mark.parametrize(
    "name,probes", [("tanh-shifted:0", [-1e-6, 1e-6]), ("radial-closed:0.4,1", [0.0])]
)
def test_verify_scans_grid_and_probes_in_one_call(monkeypatch, name, probes):
    cand = catalog.make_candidate(name, 3, 1)
    grid = np.linspace(0.5, 2.0, 7)
    scanned = []

    def counted(candidate, ts):
        scanned.append(np.array(ts))
        return scan_smooth_residuals(candidate, ts)

    monkeypatch.setattr(viscosity, "scan_smooth_residuals", counted)
    viscosity.verify(cand, grid=grid)
    (ts,) = scanned
    assert ts.tolist() == grid.tolist() + probes


# ------------------------------------------------------------------ errors


def test_grid_near_kink_raises_and_names_first_point():
    cand = Candidate("one_dimensional", halfline_tanh(), 3, 1, allen_cahn())
    near = 0.5 * CORNER_CLEARANCE
    with pytest.raises(CornerOnGridError, match=f"t={near} is within"):
        scan_smooth_residuals(cand, np.array([-1.0, near, -near, 1.0]))
    # the offending point last in a long grid
    ts = np.concatenate([np.linspace(-5.0, -1.0, 2058), [-near]])
    with pytest.raises(CornerOnGridError, match=f"t={-near} is within"):
        scan_smooth_residuals(cand, ts)


def _blowup_piece(lo, hi):
    """Piece that is infinite left of t = -3, so the reaction is NaN there."""
    zero = lambda t: 0.0 * np.asarray(t)  # noqa: E731
    return Piece(lo, hi, lambda t: np.where(np.asarray(t) < -3.0, np.inf, 0.0), zero, zero)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_residual_names_first_point():
    profile = Profile1D("blowup", (_blowup_piece(-math.inf, math.inf),), ())
    cand = Candidate("one_dimensional", profile, 3, 1, allen_cahn())
    with pytest.raises(VerificationError, match="non-finite residual at t=-4.0"):
        scan_smooth_residuals(cand, np.array([-1.0, -4.0, -5.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_first_offending_point_wins_across_error_kinds():
    # a non-finite residual before a kink in the same block is reported first,
    # and a kink before a non-finite residual likewise
    halfline = halfline_tanh()
    pieces = (_blowup_piece(-math.inf, 0.0), halfline.pieces[1])
    profile = Profile1D("blowup-with-kink", pieces, halfline.corners)
    cand = Candidate("one_dimensional", profile, 3, 1, allen_cahn())
    with pytest.raises(VerificationError, match="non-finite residual at t=-4.0") as info:
        scan_smooth_residuals(cand, np.array([-1.0, -4.0, 0.0]))
    assert not isinstance(info.value, CornerOnGridError)
    with pytest.raises(CornerOnGridError, match="t=0.0"):
        scan_smooth_residuals(cand, np.array([-1.0, 0.0, -4.0]))


def _spiky_piece(lo, hi):
    """Piece with slope 1 whose value is infinite left of t = -3 and whose
    curvature is infinite right of t = 5."""
    return Piece(
        lo,
        hi,
        lambda t: np.where(np.asarray(t) < -3.0, np.inf, np.asarray(t, dtype=float)),
        lambda t: 1.0 + 0.0 * np.asarray(t),
        lambda t: np.where(np.asarray(t) > 5.0, np.inf, 0.0),
    )


def _spiky_with_kink():
    """The spiky piece up to a kink at 10, constant after it."""
    flat = Piece(10.0, math.inf, lambda t: 10.0 + 0.0 * np.asarray(t),
                 lambda t: 0.0 * np.asarray(t), lambda t: 0.0 * np.asarray(t))
    pieces = (_spiky_piece(-math.inf, 10.0), flat)
    return Profile1D("spiky-with-kink", pieces, (Corner(10.0, 10.0, 1.0, 0.0),))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_first_offending_point_wins_for_refused_origin_and_non_finite_spectrum():
    # a radial profile with slope 1 at the origin, where its Hessian is refused
    profile = Profile1D("spiky", (_spiky_piece(-math.inf, math.inf),), ())
    cand = Candidate("radial", profile, 3, 1, allen_cahn())
    with pytest.raises(VerificationError, match="non-finite residual at t=-4.0"):
        scan_smooth_residuals(cand, np.array([-1.0, -4.0, 0.0, 6.0]))
    with pytest.raises(SingularPointError, match="not smooth at the origin"):
        scan_smooth_residuals(cand, np.array([-1.0, 0.0, 6.0, -4.0]))
    with pytest.raises(MatrixInputError, match="finite"):
        scan_smooth_residuals(cand, np.array([-1.0, 6.0, 0.0, -4.0]))
    # and a one-dimensional one with a kink
    cand = Candidate("one_dimensional", _spiky_with_kink(), 3, 1, allen_cahn())
    with pytest.raises(MatrixInputError, match="finite"):
        scan_smooth_residuals(cand, np.array([-1.0, 6.0, 10.0]))
    with pytest.raises(CornerOnGridError, match="t=10.0"):
        scan_smooth_residuals(cand, np.array([-1.0, 10.0, 6.0]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "kind,last,error,message",
    [
        ("one_dimensional", 10.0, CornerOnGridError, "t=10.0 is within"),
        ("radial", 0.0, SingularPointError, "not smooth at the origin"),
        ("radial", 6.0, MatrixInputError, "must be finite"),
        ("radial", -4.0, VerificationError, "non-finite residual at t=-4.0"),
    ],
)
def test_long_grid_offending_at_its_last_point_is_not_rescanned(
    monkeypatch, kind, last, error, message
):
    if kind == "one_dimensional":
        profile = _spiky_with_kink()
    else:
        profile = Profile1D("spiky", (_spiky_piece(-math.inf, math.inf),), ())
    cand = Candidate(kind, profile, 3, 1, allen_cahn())
    calls = []

    def counted(*args):
        calls.append(args)
        return candidate_spectra(*args)

    monkeypatch.setattr(viscosity, "candidate_spectra", counted)
    ts = np.append(np.linspace(-2.0, -1.0, 16000), last)
    with pytest.raises(error, match=message):
        scan_smooth_residuals(cand, ts)
    assert len(calls) <= 2


def test_hessian_stack_refuses_kink_locus_like_per_point():
    cand = Candidate("one_dimensional", halfline_tanh(), 3, 1, allen_cahn())
    with pytest.raises(SingularPointError) as spectra:
        candidate_spectra(cand, np.array([1.0, 0.0]))
    with pytest.raises(SingularPointError) as single:
        candidate_hessian(cand, cand.embed(0.0))
    assert str(spectra.value) == str(single.value)


def test_hessian_stack_at_radial_origin_and_zero_profile():
    # both forms take the scalar v''(0) at the radial origin, and the zero
    # profile has no curvature, so here the entries agree exactly
    cand = catalog.make_candidate("radial-closed:0.3,1", 4, 1)
    spectra = candidate_spectra(cand, np.array([0.0, -0.0]))
    dense = candidate_hessian(cand, cand.embed(0.0)).to_dense()
    assert np.array_equal(spectra, [np.diag(dense)] * 2)
    cand = catalog.make_candidate("zero", 5, 2)
    spectra = candidate_spectra(cand, np.array([-3.0, 2.0]))
    assert spectra.shape == (2, 5) and not spectra.any()


@pytest.mark.parametrize("name", FAMILIES)
def test_spectra_are_the_diagonal_of_the_general_point_hessian(name):
    off_diagonal = ~np.eye(8, dtype=bool)
    for n, k in DIMS:
        cand = catalog.make_candidate(name, n, k)
        ts = _grid(cand, 61)
        spectra = candidate_spectra(cand, ts)
        assert spectra.shape == (ts.size, n)
        for t, row in zip(ts.tolist(), spectra):
            dense = candidate_hessian(cand, cand.embed(t)).to_dense()
            assert not dense[off_diagonal[:n, :n]].any(), (n, k, t)
            # scalar and array transcendentals may round differently
            assert np.allclose(row, np.diag(dense), rtol=LOOP_TOL, atol=LOOP_TOL), (n, k, t)


# ------------------------------------------------------------ row sums


def test_smallest_sums_rejects_non_finite_values_and_bad_k():
    for bad in (np.nan, np.inf, -np.inf):
        values = np.zeros((3, 2))
        values[1, 0] = bad
        with pytest.raises(MatrixInputError, match="finite"):
            smallest_sums(values, 1)
    for k in (0, 3):
        with pytest.raises(MatrixInputError, match=r"k must lie in \[1, 2\]"):
            smallest_sums(np.zeros((3, 2)), k)


def test_smallest_sums_of_no_rows():
    assert smallest_sums(np.zeros((0, 3)), 2).shape == (0,)


def test_smallest_eigen_sum_is_the_left_to_right_sum_of_the_spectrum():
    rng = np.random.default_rng(29)
    for n in range(1, 7):
        dense = [random_symmetric(rng, n) for _ in range(20)]
        dense += [np.diag(rng.normal(size=n)) for _ in range(20)]
        for k in range(1, n + 1):
            for a in dense:
                m = SymmetricMatrix.from_dense(a)
                want = 0.0
                for x in eigenvalues_ascending(m).values[:k]:
                    want += x
                assert smallest_eigen_sum(m, k) == want, (n, k)


def _plateau_loop(ts, values):
    """The run search as a loop, kept as the reference."""
    flat = np.abs(values) <= 1e-12
    best, best_len, i, n = None, 0, 0, flat.size
    while i < n:
        if not flat[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and flat[j + 1]:
            j += 1
        if j - i + 1 > best_len:
            best_len = j - i + 1
            best = (float(ts[i]), float(ts[j]))
        i = j + 1
    return best if best_len >= 2 else None


def test_plateau_matches_loop_reference():
    rng = np.random.default_rng(5)
    for size in (1, 2, 3, 10, 200):
        ts = np.sort(rng.uniform(-5.0, 5.0, size))
        for _ in range(50):
            values = np.where(rng.random(size) < 0.6, 0.0, rng.normal(size=size))
            values[rng.random(size) < 0.05] = np.nan
            assert viscosity._plateau(ts, values) == _plateau_loop(ts, values)
