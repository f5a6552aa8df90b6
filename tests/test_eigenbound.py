import itertools
import math
import tracemalloc

import numpy as np
import pytest
from oracles import w_n_factored

from trunclap import eigenbound
from trunclap.cli import main
from trunclap.eigenbound import (
    MAX_AREA_SAMPLES,
    MAX_RESOLUTION,
    CertificateViolation,
    CollapsingDomain,
    EigenScanReport,
    ScanInputError,
    area_estimate,
    eigenvalue_bound_certificate,
    hessian_w_n,
    scan_inequality,
    scan_to_csv,
    w_n,
)
from trunclap.operators import SymmetricMatrix, smallest_eigen_sum

PI = math.pi


# -- the test function and its Hessian ----------------------------------------

def test_w_values():
    assert w_n(2, PI / 4, PI / 2) == pytest.approx(-2.0, abs=1e-15)
    assert w_n(1, PI / 2, PI / 2) == pytest.approx(-2.0, abs=1e-15)
    # boundary: (nx + y)/2 = pi forces the factored form to vanish
    n, x = 3, 0.4
    y = 2 * PI - n * x
    assert w_n(n, x, y) == pytest.approx(0.0, abs=1e-12)


def test_product_identity():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 10):
        x = rng.uniform(-2, 2, 200)
        y = rng.uniform(-2, 5, 200)
        assert np.max(np.abs(w_n(n, x, y) - w_n_factored(n, x, y))) <= 1e-12


def test_hessian_values():
    h = hessian_w_n(2, PI / 4, PI / 2)
    assert np.allclose(h.to_dense(), np.diag([4.0, 1.0]), atol=1e-12)
    h0 = hessian_w_n(1, 0.0, 0.7)
    assert np.allclose(h0.to_dense(), np.diag([0.0, math.sin(0.7)]), atol=1e-15)


def test_trace_recovers_laplacian():
    n, x, y = 3, 0.3, 1.1
    h = hessian_w_n(n, x, y)
    lap = n * n * math.sin(n * x) + math.sin(y)
    assert smallest_eigen_sum(h, 2) == pytest.approx(lap, abs=1e-12)


def test_min_formula_exact_for_diagonal_pairs():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a, b = rng.uniform(-5, 5, 2)
        m = SymmetricMatrix.diagonal([a, b])
        assert smallest_eigen_sum(m, 1) == min(a, b)


# -- geometry -------------------------------------------------------------------

def test_bounding_box_shrinks_in_x():
    for n in (1, 2, 10):
        xmin, xmax, ymin, ymax = CollapsingDomain(n).bounding_box
        assert xmax - xmin == pytest.approx(2 * PI / n)
        assert ymax - ymin == pytest.approx(2 * PI)


def test_membership_matches_strips():
    dom = CollapsingDomain(2)
    assert dom.membership(PI / 4, PI / 2)
    assert not dom.membership(-1.0, 0.0)
    # strip boundary is excluded
    assert not dom.membership(0.0, 0.0)


def _four_strip_inequalities(dom, x, y):
    s, t = dom.strip_coords(x, y)
    return (s > 0) & (s < PI) & (t > -PI / 2) & (t < PI / 2)


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_membership_is_the_four_strip_inequalities(n):
    dom = CollapsingDomain(n)
    xmin, xmax, ymin, ymax = dom.bounding_box
    rng = np.random.default_rng(2024 + n)
    # the box widened by a margin, so every edge is crossed
    x = rng.uniform(xmin - 1.0, xmax + 1.0, 1_000_000)
    y = rng.uniform(ymin - 1.0, ymax + 1.0, 1_000_000)
    assert np.array_equal(dom.membership(x, y), _four_strip_inequalities(dom, x, y))
    # on the line y = -n x the strip coordinate s is exactly zero
    assert not dom.membership(x, -(n * x)).any()
    # the scan's own grid: an (R, 1) column against a (1, R) row
    for resolution in (50, 199, 400):
        xs = np.linspace(xmin, xmax, resolution)[:, None]
        ys = np.linspace(ymin, ymax, resolution)[None, :]
        inside = dom.membership(xs, ys)
        assert inside.shape == (resolution, resolution)
        assert np.array_equal(inside, _four_strip_inequalities(dom, xs, ys))


def test_membership_is_false_at_nan_and_agrees_at_infinities():
    dom = CollapsingDomain(3)
    special = [math.nan, math.inf, -math.inf, 0.0, -0.0, PI / 6, -PI / 2, PI]
    x, y = np.array(list(itertools.product(special, special))).T
    with np.errstate(invalid="ignore"):  # inf - inf
        assert np.array_equal(dom.membership(x, y), _four_strip_inequalities(dom, x, y))
    for x, y in [(math.nan, 0.5), (0.3, math.nan), (math.nan, math.nan)]:
        assert not dom.membership(x, y)
        assert math.isnan(dom.boundary_distance(x, y))


def test_bad_index_rejected():
    with pytest.raises(ScanInputError):
        CollapsingDomain(0)
    with pytest.raises(ScanInputError):
        CollapsingDomain(-3)


# -- the inequality scan -----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 5, 10])
def test_scan_certifies_inequality(n):
    rep = scan_inequality(n, 200)
    assert isinstance(rep, EigenScanReport)
    assert rep.max_residual <= 1e-12
    assert rep.max_interior_w < 0.0
    assert rep.all_regions_nonempty
    assert rep.region_counts["both"] == 0
    assert rep.boundary_max_abs_w <= 2.0 * rep.boundary_band + 1e-12


def test_region_a_majority_at_n1():
    rep = scan_inequality(1, 120)
    counts = rep.region_counts
    assert counts["A"] > counts["B"] + counts["C"]


def test_region_partition():
    rep = scan_inequality(3, 100)
    assert sum(rep.region_counts.values()) == rep.interior_count


def test_sign_classification_equals_interval_classification():
    # the sign conditions match explicit x- and y-intervals inside the box
    n = 2
    dom = CollapsingDomain(n)
    xmin, xmax, ymin, ymax = dom.bounding_box
    xs = np.linspace(xmin, xmax, 151)
    ys = np.linspace(ymin, ymax, 151)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    interior = dom.boundary_distance(X, Y) > 1e-9
    snx_neg = np.sin(n * X) <= 0.0
    by_interval_x = (X <= 0.0) | (X >= PI / n)
    assert np.array_equal(snx_neg[interior], by_interval_x[interior])
    sy_neg = np.sin(Y) <= 0.0
    by_interval_y = (Y <= 0.0) | (Y >= PI)
    assert np.array_equal(sy_neg[interior], by_interval_y[interior])


def test_scan_resolution_floor(capsys):
    with pytest.raises(ScanInputError):
        scan_inequality(1, 49)
    scan_inequality(1, 50)  # floor itself is fine
    # the ceiling is refused before the grid is allocated, in both formats
    too_fine = str(MAX_RESOLUTION + 1)
    with pytest.raises(ScanInputError):
        scan_inequality(1, MAX_RESOLUTION + 1)
    for fmt in ("json", "csv"):
        assert main(["eigenbound", "--n", "1", "--grid", too_fine, "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"usage error: resolution must be an integer in [50, {MAX_RESOLUTION}],"
            f" got {too_fine}\n"
        )


def test_scan_memory_budget():
    # broadcasting keeps about six (R, R) float arrays alive; a dense
    # meshgrid scan peaked at 78.1 MiB here
    tracemalloc.start()
    try:
        scan_inequality(7, 800)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_violation_names_the_first_flagged_sample(monkeypatch):
    # below every residual, the tolerance flags each interior sample, so the
    # message names the first interior sample in scan order, as plain floats
    monkeypatch.setattr(eigenbound, "RESIDUAL_TOL", -10.0)
    with pytest.raises(CertificateViolation) as info:
        scan_inequality(2, 60)
    dom = CollapsingDomain(2)
    xmin, xmax, ymin, ymax = dom.bounding_box
    X, Y = np.meshgrid(np.linspace(xmin, xmax, 60), np.linspace(ymin, ymax, 60),
                       indexing="ij")
    i, j = np.argwhere(dom.boundary_distance(X, Y) > eigenbound.INTERIOR_MARGIN)[0]
    snx, sy = np.sin(2 * X), np.sin(Y)
    residual = (np.minimum(4.0 * snx, sy) - (snx + sy))[i, j]
    assert str(info.value) == (
        f"inequality broken at ({float(X[i, j])}, {float(Y[i, j])}):"
        f" residual {float(residual)}"
    )


def test_scan_deterministic():
    assert scan_inequality(4, 80).to_dict() == scan_inequality(4, 80).to_dict()


# -- area ---------------------------------------------------------------------------

def test_area_matches_change_of_variables():
    assert area_estimate(1) == pytest.approx(2 * PI * PI, rel=0.01)
    assert area_estimate(4) == pytest.approx(PI * PI / 2, rel=0.01)


def test_area_scaling_constant():
    values = [n * area_estimate(n) for n in (1, 2, 4, 8)]
    for val in values[1:]:
        assert val == pytest.approx(values[0], rel=0.02)


def test_area_sample_floor(capsys):
    with pytest.raises(ScanInputError):
        area_estimate(1, samples=5000)
    # the ceiling is refused before any sample is drawn
    with pytest.raises(ScanInputError):
        area_estimate(1, samples=MAX_AREA_SAMPLES + 1)
    for samples in (MAX_AREA_SAMPLES + 1, 99999999999999999999):
        argv = ["eigenbound", "--n", "1", "--grid", "50", "--area-samples", str(samples)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"usage error: area samples must be an integer in"
            f" [100000, {MAX_AREA_SAMPLES}], got {samples}\n"
        )


def test_area_deterministic():
    assert area_estimate(3) == area_estimate(3)


# -- certificate and CSV ---------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 10])
def test_certificate_emitted(n):
    cert = eigenvalue_bound_certificate(n, resolution=100, area_samples=100_000)
    assert cert["bound"] == 1.0
    assert cert["kind"] == "grid-evidence certificate"
    assert cert["scan"]["max_residual"] <= 1e-12
    assert cert["area"]["monte_carlo"] == pytest.approx(
        cert["area"]["change_of_variables"], rel=0.01
    )


def test_certificate_requires_valid_scan():
    with pytest.raises(ScanInputError):
        eigenvalue_bound_certificate(2, resolution=10)


def test_certificate_deterministic():
    a = eigenvalue_bound_certificate(2, resolution=60, area_samples=100_000)
    b = eigenvalue_bound_certificate(2, resolution=60, area_samples=100_000)
    assert a == b


def test_csv_dump():
    text = scan_to_csv(2, resolution=60)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,w,residual,region"
    seen = set()
    for line in lines[1:]:
        x, y, w, res, region = line.split(",")
        assert region in ("A", "B", "C", "both")
        seen.add(region)
        assert float(res) <= 1e-12
    assert {"A", "B", "C"} <= seen
