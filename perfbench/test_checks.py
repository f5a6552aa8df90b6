"""The benchmark's checkers accept the program's real output and reject corrupted copies.

    python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import streams  # noqa: E402
import tracing  # noqa: E402
from streams import Request  # noqa: E402
from trunclap import catalog, cli, fdlab  # noqa: E402


def cli_output(request: Request) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(request.argv))
    assert rc == 0
    return out.getvalue()


def verify_request(family, fmt, N=3, k=2, name=None, **extra):
    params = {"family": family, "N": N, "k": k, "format": fmt, "grid_points": 401, **extra}
    argv = ("verify", "--candidate", name or family, "--N", str(N), "--k", str(k),
            "--format", fmt, "--grid-points", "401")
    return Request("verify", argv, params)


def test_verify_rejects_a_flipped_verdict():
    request = verify_request("halfline-tanh", "json")
    out = cli_output(request)
    assert checks.check(request, out) == []
    report = json.loads(out)
    report["solution"] = report["subsolution"] = False
    assert checks.check(request, json.dumps(report))


def test_verify_rejects_a_wrong_witness_residual():
    request = verify_request("plain-tanh", "csv")
    out = cli_output(request)
    assert checks.check(request, out) == []
    header, first, rest = out.split("\n", 2)
    t, residual, rule = first.split(",")
    moved = f"{header}\n{t},{float(residual) + 1e-9!r},{rule}\n{rest}"
    assert checks.check(request, moved)
    # no witnesses at all would claim plain-tanh solves the equation
    assert checks.check(request, header + "\n")


def radial_request(reaction, fmt, alpha=0.4, k=2, N=4, step=1e-3, rmax=2.0):
    params = {"reaction": reaction, "alpha": alpha, "k": k, "N": N, "step": step,
              "rmax": rmax, "checks": 9, "format": fmt}
    name = "allen-cahn" if reaction["kind"] == "allen-cahn" else (
        f"power:{reaction['a']!r},{reaction['b']!r},{reaction['gamma']!r}")
    argv = ("radial", "--f", name, "--alpha", repr(alpha), "--k", str(k), "--N", str(N),
            "--step", repr(step), "--rmax", repr(rmax), "--quadrature-checks", "9",
            "--format", fmt)
    return Request("radial", argv, params)


def shift_csv_trajectory(out: str, delta: float) -> str:
    data = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
    data[1:, 1] += delta
    rows = [f"{r!r},{v!r},{vp!r}" for r, v, vp in data.tolist()]
    return "r,v,vp\n" + "\n".join(rows) + "\n"


def test_radial_rejects_a_trajectory_moved_by_1e_5():
    for reaction in ({"kind": "allen-cahn"},
                     {"kind": "power-plus", "a": 1.2, "b": 0.5, "gamma": 2.5}):
        request = radial_request(reaction, "csv")
        out = cli_output(request)
        assert checks.check(request, out) == []
        assert checks.check(request, shift_csv_trajectory(out, 1e-5))


def test_radial_rejects_a_tail_moved_by_1e_5():
    request = radial_request({"kind": "linear", "a": 0.8, "b": 0.0, "gamma": 2.0}, "json")
    out = cli_output(request)
    assert checks.check(request, out) == []
    report = json.loads(out)
    report["diagnostics"]["tail_below"] += 1e-5
    assert checks.check(request, json.dumps(report))


def test_fd_rejects_a_cell_raised_above_its_neighbours():
    params = {"boundary": "halfline-tanh-y", "h": 0.25, "radius": 2, "reaction": "allen-cahn",
              "format": "csv", "box": (-2.0, 2.0, -2.0, 2.0)}
    request = Request("fd", ("fd", "--boundary", "halfline-tanh-y", "--h", "0.25",
                             "--format", "csv"), params)
    out = cli_output(request)
    assert checks.check(request, out) == []
    lines = out.splitlines()
    x, y, u = lines[40].split(",")  # an interior cell of the 17 x 17 grid
    lines[40] = f"{x},{y},{float(u) + 1e-3!r}"
    assert checks.check(request, "\n".join(lines) + "\n")


def test_fd_pair_rejects_swapped_solutions():
    request = next(r for r in streams.make_round("fd-dirichlet", 0, 0) if r.kind == "fd-pair")
    params = dict(request.params, h=0.5)
    nl = catalog.make_nonlinearity("allen-cahn")
    cfg = fdlab.SolveConfig(box=params["box"], h=0.5, radius=2)
    g_lo, g_hi = streams.pair_boundaries(params["coeff"])
    lo, hi = fdlab.solve_dirichlet(nl, g_lo, cfg), fdlab.solve_dirichlet(nl, g_hi, cfg)
    assert checks.check_pair(params, lo, hi, g_lo, g_hi) == []
    assert checks.check_pair(params, hi, lo, g_hi, g_lo)


def eigen_request(fmt, n=3, grid=60):
    params = {"n": n, "grid": grid, "format": fmt, "samples": 100000}
    argv = ("eigenbound", "--n", str(n), "--grid", str(grid), "--format", fmt,
            "--area-samples", "100000")
    return Request("eigenbound", argv, params)


def test_eigenbound_rejects_an_area_off_by_2_percent():
    request = eigen_request("json")
    out = cli_output(request)
    assert checks.check(request, out) == []
    cert = json.loads(out)
    cert["area"]["monte_carlo"] *= 1.02
    assert checks.check(request, json.dumps(cert))


def test_eigenbound_rejects_a_region_count_set_to_zero():
    request = eigen_request("json")
    cert = json.loads(cli_output(request))
    cert["scan"]["region_counts"]["C"] = 0
    assert checks.check(request, json.dumps(cert))


def test_eigenbound_rejects_a_wrong_csv_row():
    request = eigen_request("csv")
    out = cli_output(request)
    assert checks.check(request, out) == []
    lines = out.splitlines()
    x, y, w, residual, region = lines[5].split(",")
    lines[5] = ",".join([x, y, repr(float(w) * (1 + 1e-9)), residual, region])
    assert checks.check(request, "\n".join(lines) + "\n")


def test_rounds_depend_only_on_workload_seed_and_index():
    for workload in streams.WORKLOADS:
        first = streams.make_round(workload, 7, 3)
        assert first == streams.make_round(workload, 7, 3)
        assert first != streams.make_round(workload, 8, 3)
        assert [r.kind for r in first] == [r.kind for r in streams.make_round(workload, 8, 3)]


def test_self_time_subtracts_children_and_merges_repeated_calls():
    tracer = tracing.Tracer()
    leaf = tracer.span("leaf", lambda: time.sleep(0.01))

    def parent():
        time.sleep(0.02)
        for _ in range(3):
            leaf()

    tracer.span("parent", parent)()
    totals = tracer.totals()
    assert len(tracer.name) == 2  # three back-to-back leaf calls share one record
    assert totals["leaf"][0] == 3 and totals["parent"][0] == 1
    assert 0.03 <= totals["leaf"][1] < 0.05
    assert 0.02 <= totals["parent"][1] < 0.03
