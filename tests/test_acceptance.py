"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every criterion re-derives its expectations from an
independent oracle (Sturm bisection, closed-form profiles, analytic ODE
solutions, exact change-of-variables areas) rather than from the code under
test.
"""

import json
import time
import types

import numpy as np
import pytest

from oracles import random_symmetric, sturm_eigenvalues

from trunclap import catalog, eigenbound, fdlab, radial, viscosity
from trunclap.nonlinearities import allen_cahn
from trunclap.operators import SymmetricMatrix, add_rank_one_top, smallest_eigen_sum
from trunclap.profiles import radial_closed_form


def _run(number: int, label: str, budget: float | None, body) -> None:
    """Execute one criterion, print its pass/fail line, enforce the budget."""
    t0 = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget")
    except BaseException as exc:
        print(f"\n[FAIL] criterion {number}: {label} ({type(exc).__name__})")
        raise
    print(f"\n[PASS] criterion {number}: {label} ({elapsed:.1f}s)")


# shared across criteria 2 and 3 so the meta-tests reuse verified verdicts
_VERDICTS: dict[tuple[str, int, int], viscosity.Verdict] = {}


def _verdict(name: str, ambient_dim: int, op_index: int) -> viscosity.Verdict:
    key = (name, ambient_dim, op_index)
    if key not in _VERDICTS:
        cand = catalog.make_candidate(name, ambient_dim, op_index)
        _VERDICTS[key] = viscosity.verify(cand)
    return _VERDICTS[key]


# ------------------------------------------------------------- criterion 1


def test_criterion_1_operator_oracle_equivalence():
    def body():
        rng = np.random.default_rng(4021)
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            dense = random_symmetric(rng, n)
            m = SymmetricMatrix.from_dense(dense)
            # one oracle spectrum per matrix, summed like sturm_smallest_sum
            spectrum = sturm_eigenvalues(dense)
            for k in range(1, n + 1):
                mine = smallest_eigen_sum(m, k)
                oracle = float(np.sum(spectrum[:k]))
                assert abs(mine - oracle) <= 1e-10, (n, k, mine, oracle)

        for _ in range(1000):
            n = int(rng.integers(2, 7))
            dense = random_symmetric(rng, n)
            bump = rng.normal(size=(n, n))
            mx = SymmetricMatrix.from_dense(dense)
            my = SymmetricMatrix.from_dense(dense + bump @ bump.T)
            mt = add_rank_one_top(mx, float(rng.uniform(0.0, 5.0)))
            for k in range(1, n + 1):
                # matrix order implies operator order
                assert smallest_eigen_sum(m=mx, k=k) \
                    <= smallest_eigen_sum(m=my, k=k) + 1e-10
                # raising only the top eigenvalue never moves partial sums
                if k < n:
                    assert abs(smallest_eigen_sum(mt, k)
                               - smallest_eigen_sum(mx, k)) <= 1e-10

    _run(1, "operator matches the independent eigensolver oracle "
            "and order/rank-one properties hold", 10.0, body)


# ------------------------------------------------------------- criterion 2


def test_criterion_2_catalog_verdicts():
    def body():
        for ambient_dim in (2, 3, 5):
            for op_index in range(1, ambient_dim):
                for name in ("halfline-tanh", "tanh-shifted:0.5",
                             "tanh-shifted:1", "tanh-shifted:2", "zero"):
                    v = _verdict(name, ambient_dim, op_index)
                    assert v.tol == 1e-8
                    assert v.solution, (name, ambient_dim, op_index, v.witnesses)

                plain = _verdict("plain-tanh", ambient_dim, op_index)
                assert not plain.subsolution
                assert plain.supersolution
                assert plain.witnesses
                assert all(w.t < 0 for w in plain.witnesses)

    _run(2, "catalog candidates verify (or fail) exactly as recorded",
         30.0, body)


# ------------------------------------------------------------- criterion 3


def test_criterion_3_proposition_meta_tests():
    names = ("halfline-tanh", "plain-tanh", "zero",
             "tanh-shifted:0.5", "tanh-shifted:1", "tanh-shifted:2")

    def body():
        universe = [(catalog.make_candidate(name, 3, k), _verdict(name, 3, k))
                    for name in names for k in (1, 2)]
        for name, k in (("radial-closed:0.3,1", 1), ("radial-closed:0.5,2", 2)):
            cand = catalog.make_candidate(name, 3, k)
            universe.append((cand, viscosity.verify(cand)))

        checked_min = checked_corner = checked_plateau = 0
        grid_left = float(viscosity.default_grid("one_dimensional")[0])
        for cand, v in universe:
            if v.subsolution:
                assert v.structure.min_value >= -1e-12, v.candidate
                checked_min += 1
            if cand.kind != "one_dimensional":
                continue
            cornerless = not cand.profile.corners
            nonzero = abs(v.structure.min_value) > 1e-12 \
                or abs(v.structure.max_value) > 1e-12
            if cornerless and nonzero:
                assert not v.solution, v.candidate
                checked_corner += 1
            if (v.supersolution
                    and v.structure.monotonicity in ("nondecreasing", "constant")
                    and v.structure.min_value >= -1e-12):
                assert v.structure.plateau is not None, v.candidate
                assert v.structure.plateau[0] == grid_left, v.candidate
                checked_plateau += 1

        # every clause must actually have fired
        assert checked_min >= 10
        assert checked_corner >= 2   # plain-tanh at both indices
        assert checked_plateau >= 4  # halfline and zero at both indices

    _run(3, "subsolutions are nonnegative, cornerless nonzero profiles are "
            "never solutions, monotone supersolutions carry a left plateau",
         30.0, body)


# ------------------------------------------------------------- criterion 4


def test_criterion_4_radial_agreement():
    def body():
        nl = allen_cahn()
        target_v1 = 1.0 / np.sqrt(1.0 + 3.0 * np.e)
        for alpha in (0.1, 0.3, 0.5, 1.0 / np.sqrt(3.0)):
            for k in (1, 2):
                run = radial.integrate_ivp(nl, alpha, k, step=1e-3, rmax=10.0)

                prof = radial_closed_form(alpha, k)
                closed = np.array([prof.value(r) for r in run.r])
                assert float(np.max(np.abs(run.v - closed))) <= 1e-6

                for i in range(500, run.r.size, 500):
                    q = radial.quadrature_inverse(nl, alpha, k, float(run.r[i]))
                    assert abs(q - float(run.v[i])) <= 1e-6, (alpha, k, run.r[i])

                assert run.diagnostics.curvature_ordering_holds
                assert not radial.check_curvature_ordering(run, nl)

                resid = radial.residual_of_radial(run, 3, nl)
                assert abs(resid) <= 1e-8, (alpha, k, resid)

                if alpha == 0.5 and k == 1:
                    assert abs(float(run.v[1000]) - target_v1) <= 1e-6

    _run(4, "integrator, quadrature inverse, and closed form agree; "
            "curvature ordering and the full residual hold", 60.0, body)


# ------------------------------------------------------------- criterion 5


def _linear_reaction():
    return types.SimpleNamespace(
        name="linear", f=lambda u: u, fprime=lambda u: 1.0, delta=1.0)


def test_criterion_5_analytic_ode_oracle():
    def body():
        lin = _linear_reaction()
        errors = []
        for step in (1e-3, 5e-4):
            run = radial.integrate_ivp(lin, 0.5, 1, step=step, rmax=5.0)
            exact = 0.5 * np.exp(-run.r ** 2 / 2.0)
            errors.append(float(np.max(np.abs(run.v - exact))))
        assert errors[0] <= 1e-8, errors
        assert errors[0] / errors[1] >= 8.0, errors

    _run(5, "linear-reaction profile matches the Gaussian solution and "
            "halving the step cuts the error by at least 8x", 30.0, body)


# ------------------------------------------------------------- criterion 6


def test_criterion_6_eigenvalue_bound():
    def body():
        for n in (1, 2, 5, 10):
            report = eigenbound.scan_inequality(n, resolution=200)
            assert report.max_residual <= 1e-12, (n, report.max_residual)
            assert report.max_interior_w < 0.0
            assert report.all_regions_nonempty
            assert report.region_counts["both"] == 0

            cert = eigenbound.eigenvalue_bound_certificate(n, resolution=200)
            assert cert["bound"] == 1.0
            assert "certificate" in cert["kind"]

            area = eigenbound.area_estimate(n)
            exact = 2.0 * np.pi ** 2 / n
            assert abs(area - exact) <= 0.01 * exact, (n, area, exact)

    _run(6, "sign scans certify the bound on every collapsing domain and the "
            "sampled areas match the exact values", 30.0, body)


# ------------------------------------------------------------- criterion 7


def _ordered_boundary_pair(rng):
    coeff = rng.uniform(-0.4, 0.4, size=3)
    gap = float(rng.uniform(0.05, 0.3))

    def hi(x, y, coeff=coeff):
        return float(coeff[0] * np.sin(0.7 * x)
                     + coeff[1] * np.cos(0.5 * y) + coeff[2])

    def lo(x, y, hi=hi, gap=gap):
        return hi(x, y) - gap

    return lo, hi


def test_criterion_7_fd_manufactured_solution():
    def body():
        nl = allen_cahn()
        boundary = catalog.make_boundary("halfline-tanh-y")

        def interior_error(h: float, radius: int) -> float:
            cfg = fdlab.SolveConfig(box=(-2.0, 2.0, -2.0, 2.0),
                                    h=h, radius=radius)
            result = fdlab.solve_dirichlet(nl, boundary, cfg)
            assert result.converged
            field = result.field
            ref = np.array([[boundary(x, y) for y in field.ys()]
                            for x in field.xs()])
            gap = np.abs(field.values - ref)
            return float(np.max(gap[1:-1, 1:-1]))

        coarse = interior_error(0.05, 2)
        assert coarse <= 0.05, coarse
        fine = interior_error(0.025, 3)
        assert fine < coarse, (coarse, fine)

        rng = np.random.default_rng(555)
        cfg = fdlab.SolveConfig(box=(-2.0, 2.0, -2.0, 2.0), h=0.25, radius=2)
        for trial in range(20):
            lo, hi = _ordered_boundary_pair(rng)
            ok, witness = fdlab.comparison_test(nl, lo, hi, cfg)
            assert ok, (trial, witness)

    _run(7, "wide-stencil solves track the manufactured profile, improve "
            "under refinement, and respect discrete comparison", 300.0, body)


# ------------------------------------------------------------- criterion 8


def _canon(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _criterion_reports() -> dict[str, bytes]:
    """A representative report from each criterion's machinery."""
    out: dict[str, bytes] = {}

    rng = np.random.default_rng(8801)
    sums = []
    for _ in range(50):
        n = int(rng.integers(2, 7))
        m = SymmetricMatrix.from_dense(random_symmetric(rng, n))
        sums.append([smallest_eigen_sum(m, k) for k in range(1, n + 1)])
    out["operator-sums"] = _canon(sums)

    verdicts = []
    for name, ambient_dim, op_index in (
            ("halfline-tanh", 3, 2), ("tanh-shifted:1", 5, 3),
            ("plain-tanh", 2, 1), ("zero", 3, 1)):
        cand = catalog.make_candidate(name, ambient_dim, op_index)
        verdicts.append(viscosity.verify(cand).report())
    out["verdicts"] = _canon(verdicts)

    nl = allen_cahn()
    run = radial.integrate_ivp(nl, 0.3, 2, step=1e-3, rmax=10.0)
    out["radial-report"] = _canon(radial.run_report(run))
    out["radial-csv"] = radial.run_to_csv(run).encode()
    out["radial-quadrature"] = _canon(
        [radial.quadrature_inverse(nl, 0.3, 2, r) for r in (0.5, 1.0, 2.0)])

    lin = _linear_reaction()
    errors = []
    for step in (1e-3, 5e-4):
        lrun = radial.integrate_ivp(lin, 0.5, 1, step=step, rmax=5.0)
        exact = 0.5 * np.exp(-lrun.r ** 2 / 2.0)
        errors.append(float(np.max(np.abs(lrun.v - exact))))
    out["linear-errors"] = _canon(errors)

    out["certificate"] = _canon(
        eigenbound.eigenvalue_bound_certificate(2, resolution=200))
    out["scan-csv"] = eigenbound.scan_to_csv(1, resolution=50).encode()

    cfg = fdlab.SolveConfig(box=(-2.0, 2.0, -2.0, 2.0), h=0.05, radius=2)
    result = fdlab.solve_dirichlet(
        nl, catalog.make_boundary("halfline-tanh-y"), cfg)
    out["fd-metadata"] = _canon(result.metadata(cfg, "allen-cahn"))
    out["fd-field"] = fdlab.field_to_csv(result.field).encode()

    return out


def test_criterion_8_determinism():
    def body():
        first = _criterion_reports()
        second = _criterion_reports()
        assert first.keys() == second.keys()
        for key in first:
            assert first[key] == second[key], f"report {key} changed bytes"

    _run(8, "repeating every criterion's reports yields identical bytes",
         120.0, body)
