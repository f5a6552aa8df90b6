"""Catalog name resolution, the expectation table, and the CLI front end."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from trunclap import catalog
from trunclap.cli import main
from trunclap.profiles import halfline_tanh, plain_tanh, tanh_shifted


# ---------------------------------------------------------------- catalog


def test_make_nonlinearity_names():
    ac = catalog.make_nonlinearity("allen-cahn")
    assert ac.name == "allen-cahn"
    assert ac.f(0.5) == pytest.approx(0.5 - 0.125)

    pw = catalog.make_nonlinearity("power:1,0,3")
    assert pw.f(2.0) == pytest.approx(2.0)
    assert pw.fprime(0.0) == pytest.approx(1.0)

    with pytest.raises(catalog.UnknownNameError):
        catalog.make_nonlinearity("cubic")
    with pytest.raises(catalog.UnknownNameError):
        catalog.make_nonlinearity("power:1,2")  # needs three parameters


@pytest.mark.parametrize(
    "name,kind",
    [
        ("halfline-tanh", "one_dimensional"),
        ("plain-tanh", "one_dimensional"),
        ("zero", "one_dimensional"),
        ("tanh-shifted:1.5", "one_dimensional"),
        ("radial-closed:0.4,2", "radial"),
    ],
)
def test_make_candidate_every_name(name, kind):
    cand = catalog.make_candidate(name, 4, 2)
    assert cand.kind == kind
    assert cand.ambient_dim == 4 and cand.op_index == 2
    assert cand.nonlinearity.name == "allen-cahn"  # default reaction


def test_make_candidate_unknown_and_bad_index():
    with pytest.raises(catalog.UnknownNameError):
        catalog.make_candidate("nosuch", 3, 1)
    with pytest.raises(ValueError):
        catalog.make_candidate("halfline-tanh", 3, 3)  # index must stay below dim


def test_make_boundary_values_match_profiles():
    zero = catalog.make_boundary("zero")
    assert zero(1.3, -0.7) == 0.0

    half = catalog.make_boundary("halfline-tanh-y")
    prof = halfline_tanh()
    for y in (-2.0, -0.3, 0.0, 0.5, 2.0):
        assert half(99.0, y) == pytest.approx(float(prof.value(y)), abs=1e-15)

    plain = catalog.make_boundary("plain-tanh-y")
    assert plain(0.0, 1.0) == pytest.approx(float(plain_tanh().value(1.0)))

    shifted = catalog.make_boundary("tanh-shifted-y:0.75")
    sprof = tanh_shifted(0.75)
    assert shifted(5.0, -1.2) == pytest.approx(float(sprof.value(-1.2)))

    with pytest.raises(catalog.UnknownNameError):
        catalog.make_boundary("parabola")


def test_expected_verdict_exact_entries():
    assert catalog.expected_verdict("halfline-tanh", 3, 1) == {
        "subsolution": True,
        "supersolution": True,
        "solution": True,
    }
    plain = catalog.expected_verdict("plain-tanh", 5, 4)
    assert plain == {"subsolution": False, "supersolution": True, "solution": False}
    assert catalog.expected_verdict("zero", 2, 1)["solution"] is True


def test_expected_verdict_families():
    # positive shift glues to a genuine solution, zero shift does not
    assert catalog.expected_verdict("tanh-shifted:0.5", 5, 2)["solution"] is True
    assert catalog.expected_verdict("tanh-shifted:0", 3, 1)["solution"] is False
    # radial family: operator index must match the profile index and the
    # height must sit inside the admissible window
    assert catalog.expected_verdict("radial-closed:0.5,2", 3, 2)["solution"] is True
    assert catalog.expected_verdict("radial-closed:0.5,2", 3, 1) is None
    assert catalog.expected_verdict("radial-closed:0.7,1", 3, 1) is None
    assert catalog.expected_verdict("radial-closed:0.3,3", 3, 3) is None  # no room


def test_expected_verdict_is_recorded_for_allen_cahn_only():
    assert catalog.expected_verdict("halfline-tanh", 3, 1, "allen-cahn") == (
        catalog.expected_verdict("halfline-tanh", 3, 1)
    )
    assert catalog.expected_verdict("halfline-tanh", 3, 1, "power:1,0,2") is None
    assert catalog.expected_verdict("zero", 2, 1, reaction="power:1,1,3") is None


def test_expected_verdict_unlisted_name_is_none():
    assert catalog.expected_verdict("constant:0.3", 3, 1) is None


def test_catalog_listing_shape():
    listing = catalog.catalog_listing()
    assert set(listing) == {
        "candidates", "nonlinearities", "boundaries",
        "expected_verdicts_version",
    }
    assert "halfline-tanh" in listing["candidates"]
    assert listing["expected_verdicts_version"] == catalog.table_version()


# ---------------------------------------------------------------- cli: verify


def test_cli_verify_halfline_matches_expectation(capsys):
    rc = main(
        [
            "verify",
            "--candidate", "halfline-tanh",
            "--N", "3",
            "--k", "2",
            "--grid-points", "401",
        ]
    )
    out, err = capsys.readouterr()
    assert rc == 0
    assert "matches the expected outcome" in err
    report = json.loads(out)
    assert set(report) == {
        "candidate", "N", "k", "tol",
        "subsolution", "supersolution", "solution",
        "witnesses", "structure",
    }
    assert report["candidate"] == "halfline-tanh"
    assert report["solution"] is True
    assert report["witnesses"] == []
    assert set(report["structure"]) == {"min", "plateau"}


def test_cli_verify_negative_control_still_exits_zero(capsys):
    # plain-tanh failing the subsolution check IS the recorded expectation
    rc = main(["verify", "--candidate", "plain-tanh", "--grid-points", "401"])
    out, err = capsys.readouterr()
    assert rc == 0
    report = json.loads(out)
    assert report["subsolution"] is False and report["supersolution"] is True
    assert report["witnesses"]
    assert all(w["t"] < 0 for w in report["witnesses"])


def test_cli_verify_csv_is_witness_table(capsys):
    rc = main(
        ["verify", "--candidate", "plain-tanh", "--grid-points", "401",
         "--format", "csv"]
    )
    out, _ = capsys.readouterr()
    lines = out.strip().split("\n")
    assert rc == 0
    assert lines[0] == "t,residual,rule"
    assert len(lines) > 1
    t, residual, rule = lines[1].split(",")
    assert float(t) < 0 and float(residual) < 0
    assert rule == "smooth-subsolution"


def test_cli_verify_grid_at_the_kink_clearance(capsys):
    # the points +-1e-7 sit exactly CORNER_CLEARANCE from the kink at 0, so
    # they are scanned; only the kink itself is left to the corner rule
    rc = main(["verify", "--candidate", "halfline-tanh", "--grid-points", "3",
               "--grid-lo=-1e-7", "--grid-hi=1e-7"])
    out, err = capsys.readouterr()
    assert rc == 0, err
    assert json.loads(out)["solution"] is True


@pytest.mark.parametrize(
    "grid_flags",
    [["--grid-points", "101", "--grid-lo", "0.5"], ["--grid-lo", "0.5", "--grid-hi", "20"]],
)
def test_cli_verify_fills_each_missing_grid_flag_from_the_default_window(capsys, grid_flags):
    main(["verify", "--candidate", "plain-tanh", "--N", "2", "--k", "1", *grid_flags])
    out, _ = capsys.readouterr()
    # the scan starts at 0.5, not at the default window's -20
    assert json.loads(out)["structure"]["min"] == pytest.approx(math.tanh(0.5 / math.sqrt(2)))


def test_cli_verify_usage_errors(capsys):
    assert main(["verify", "--candidate", "nosuch"]) == 2
    assert main(["verify", "--candidate", "halfline-tanh", "--k", "5"]) == 2
    assert main(["verify", "--candidate", "halfline-tanh", "--tol", "-1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("lo", ["-inf", "nan"])
def test_cli_verify_refuses_non_finite_grid_ends(lo):
    argv = ["verify", "--candidate", "plain-tanh", "--N", "2", "--k", "1",
            f"--grid-lo={lo}", "--grid-hi", "1", "--grid-points", "5"]
    proc = subprocess.run([sys.executable, "-m", "trunclap", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    # the usage error alone: no NumPy warnings from building the grid
    assert proc.stderr == f"usage error: scan grid ends must be finite, got {lo} and 1.0\n"


def test_cli_verify_no_expectation_is_informational(capsys):
    # exploratory reaction: no table entry, exit 0 with a stderr note
    rc = main(
        ["verify", "--candidate", "radial-closed:0.5,1", "--k", "2",
         "--grid-points", "201", "--f", "power:1,0,3"]
    )
    _, err = capsys.readouterr()
    assert rc == 0
    assert "no recorded expectation" in err
    # the halfline candidate with mismatched radial index has no entry either
    rc = main(
        ["verify", "--candidate", "radial-closed:0.5,2", "--k", "1",
         "--grid-points", "201"]
    )
    _, err = capsys.readouterr()
    assert rc == 0
    assert "no recorded expectation" in err


def test_cli_verify_other_reaction_has_no_expectation(capsys):
    # "not a solution" is right for this reaction; the allen-cahn table
    # must not turn it into a mismatch
    rc = main(["verify", "--candidate", "halfline-tanh", "--f", "power:1,0,2"])
    out, err = capsys.readouterr()
    assert rc == 0
    assert json.loads(out)["solution"] is False
    assert "no recorded expectation" in err


# ---------------------------------------------------------------- cli: radial


def test_cli_radial_json_with_ambient(capsys):
    rc = main(
        ["radial", "--alpha", "0.3", "--k", "2", "--step", "0.01",
         "--rmax", "2", "--N", "3", "--quadrature-checks", "3"]
    )
    out, _ = capsys.readouterr()
    assert rc == 0
    report = json.loads(out)
    assert report["alpha"] == 0.3
    assert report["diagnostics"]["monotone_decreasing"] is True
    assert report["quadrature_agreement"]["agrees"] is True
    assert report["quadrature_agreement"]["max_difference"] <= 1e-6
    assert report["ambient"]["N"] == 3
    assert abs(report["ambient"]["max_residual"]) <= 1e-8


def test_cli_radial_csv(capsys):
    rc = main(
        ["radial", "--alpha", "0.3", "--step", "0.01", "--rmax", "1",
         "--format", "csv", "--quadrature-checks", "0"]
    )
    out, _ = capsys.readouterr()
    lines = out.strip().split("\n")
    assert rc == 0
    assert lines[0] == "r,v,vp"
    assert lines[1] == "0.0,0.3,0.0"
    assert len(lines) == 102  # header + 101 samples


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--rmax", "inf"], "rmax must be finite"),
        (["--rmax", "nan"], "rmax must be finite"),
        (["--rmax", "1", "--step", "0.01", "--quadrature-checks", "-5"],
         "--quadrature-checks must be nonnegative"),
        # refused before the trajectory is allocated
        (["--step", "1e-15", "--rmax", "10"],
         "--rmax 10.0 / --step 1e-15 asks for 1e+16 RK4 steps; the limit is 1000000"),
        (["--step", "5e-324", "--rmax", "10"],
         "--rmax 10.0 / --step 5e-324 asks for inf RK4 steps; the limit is 1000000"),
    ],
)
def test_cli_radial_refuses_bad_rmax_and_check_count(capsys, flags, message):
    assert main(["radial", "--alpha", "0.3", *flags]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage error: {message}")


def test_cli_radial_window_and_blowup_exits(capsys):
    assert main(["radial", "--alpha", "0.9"]) == 2  # outside the window
    capsys.readouterr()
    # beyond the wells the profile runs away; that is a runtime failure
    rc = main(
        ["radial", "--alpha", "1.2", "--allow-beyond-window",
         "--step", "0.01", "--rmax", "10", "--quadrature-checks", "0"]
    )
    _, err = capsys.readouterr()
    assert rc == 1
    assert "failure" in err
    # at the well the reaction integral diverges, so the quadrature never settles
    rc = main(["radial", "--alpha", "1", "--allow-beyond-window", "--step", "0.01",
               "--rmax", "2", "--quadrature-checks", "3"])
    _, err = capsys.readouterr()
    assert rc == 1
    assert err.startswith("failure: quadrature on") and "did not settle" in err


# ------------------------------------------------------------ cli: eigenbound


def test_cli_eigenbound_json(capsys):
    rc = main(["eigenbound", "--n", "2", "--grid", "60",
               "--area-samples", "100000"])
    out, _ = capsys.readouterr()
    assert rc == 0
    cert = json.loads(out)
    assert cert["bound"] == 1.0
    assert cert["n"] == 2
    assert cert["scan"]["region_counts"]["both"] == 0
    assert cert["scan"]["max_residual"] <= 1e-12
    assert abs(cert["area"]["monte_carlo"] - cert["area"]["change_of_variables"]) \
        <= 0.01 * cert["area"]["change_of_variables"]


def test_cli_eigenbound_csv(capsys):
    rc = main(["eigenbound", "--n", "1", "--grid", "50", "--format", "csv"])
    out, _ = capsys.readouterr()
    lines = out.strip().split("\n")
    assert rc == 0
    assert lines[0] == "x,y,w,residual,region"
    regions = {line.rsplit(",", 1)[1] for line in lines[1:]}
    assert regions <= {"A", "B", "C"}
    assert "A" in regions


def test_cli_eigenbound_usage_errors(capsys):
    assert main(["eigenbound", "--n", "0"]) == 2
    assert main(["eigenbound", "--n", "2", "--grid", "10"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------- cli: fd


def test_cli_fd_zero_data_fixed_point(capsys):
    rc = main(["fd", "--boundary", "zero", "--f", "none", "--h", "0.5"])
    out, _ = capsys.readouterr()
    meta = json.loads(out)
    assert rc == 0
    assert meta["converged"] is True
    assert meta["iterations"] == 1
    assert meta["flatness"]["along_x"] == 0.0
    assert meta["boundary"] == "zero"


def test_cli_fd_csv_field_dump(capsys):
    rc = main(
        ["fd", "--boundary", "zero", "--f", "none", "--h", "1",
         "--box", "-2", "2", "--format", "csv"]
    )
    out, _ = capsys.readouterr()
    lines = out.strip().split("\n")
    assert rc == 0
    assert lines[0] == "x,y,u"
    assert len(lines) == 1 + 25  # 5x5 grid


def test_cli_fd_nonconvergence_exits_one(capsys):
    rc = main(
        ["fd", "--boundary", "halfline-tanh-y", "--h", "0.5",
         "--max-iters", "3"]
    )
    _, err = capsys.readouterr()
    assert rc == 1
    assert "no fixed point" in err


def test_cli_fd_usage_errors(capsys):
    assert main(["fd", "--boundary", "nosuch", "--h", "0.5"]) == 2
    assert main(["fd", "--boundary", "zero", "--h", "0.3"]) == 2  # span misfit
    assert main(["fd", "--boundary", "zero", "--h", "0.5", "--radius", "0"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------- cli: misc


def test_cli_catalog_listing(capsys):
    rc = main(["catalog"])
    out, _ = capsys.readouterr()
    assert rc == 0
    listing = json.loads(out)
    assert "radial-closed:<alpha>,<k>" in listing["candidates"]

    rc = main(["catalog", "--format", "csv"])
    out, _ = capsys.readouterr()
    lines = out.strip().split("\n")
    assert rc == 0
    assert lines[0] == "kind,name"
    assert "candidates,halfline-tanh" in lines
    assert "boundaries,zero" in lines


def test_cli_out_files_are_byte_identical(tmp_path, capsys):
    argv = ["verify", "--candidate", "tanh-shifted:1", "--N", "4", "--k", "3",
            "--grid-points", "801"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()

    argv = ["radial", "--alpha", "0.4", "--step", "0.01", "--rmax", "2",
            "--format", "csv", "--quadrature-checks", "0"]
    c, d = tmp_path / "c.csv", tmp_path / "d.csv"
    assert main(argv + ["--out", str(c)]) == 0
    assert main(argv + ["--out", str(d)]) == 0
    capsys.readouterr()
    assert c.read_bytes() == d.read_bytes()

    argv = ["eigenbound", "--n", "1", "--grid", "50",
            "--area-samples", "100000"]
    e, f = tmp_path / "e.json", tmp_path / "f.json"
    assert main(argv + ["--out", str(e)]) == 0
    assert main(argv + ["--out", str(f)]) == 0
    capsys.readouterr()
    assert e.read_bytes() == f.read_bytes()


def test_cli_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "trunclap", "catalog"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["expected_verdicts_version"] >= 1


_MIXED_ARGV = [
    ["catalog", "--format", "csv"],
    ["verify", "--candidate", "plain-tanh", "--N", "3", "--k", "2",
     "--grid-points", "101", "--format", "csv"],
    ["eigenbound", "--n", "1", "--grid", "50", "--area-samples", "100000"],
    ["verify", "--candidate", "nosuch"],
    ["radial", "--alpha", "0.3", "--step", "0.01", "--rmax", "2",
     "--quadrature-checks", "2", "--format", "csv"],
    ["fd", "--boundary", "zero", "--h", "0.5", "--format", "csv"],
    ["verify", "--candidate", "radial-closed:0.4,1", "--N", "2",
     "--grid-points", "51"],
]


def test_back_to_back_main_calls_match_separate_processes(capsys):
    in_process = []
    for argv in _MIXED_ARGV:
        rc = main(argv)
        in_process.append((rc, capsys.readouterr().out))
    separate = []
    for argv in _MIXED_ARGV:
        proc = subprocess.run(
            [sys.executable, "-m", "trunclap", *argv], capture_output=True, text=True
        )
        separate.append((proc.returncode, proc.stdout))
    assert in_process == separate
    assert [rc for rc, _ in in_process] == [0, 0, 0, 2, 0, 0, 0]


def test_importing_the_cli_leaves_scipy_unloaded():
    # radial requests with quadrature checks leave it unloaded too; only the
    # radial quadrature loads numpy.polynomial, on its first call
    code = (
        "import contextlib, io, sys\n"
        "from trunclap.cli import main\n"
        "def loaded(): return any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        "def poly(): return 'numpy.polynomial' in sys.modules\n"
        "print(loaded(), poly())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rcs = [main(['verify', '--candidate', 'halfline-tanh', '--N', '3',"
        " '--k', '2', '--grid-points', '101']),\n"
        "           main(['fd', '--boundary', 'zero', '--h', '0.5']),\n"
        "           main(['eigenbound', '--n', '1', '--grid', '50',"
        " '--area-samples', '100000'])]\n"
        "print(*rcs, poly())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = main(['radial', '--alpha', '0.5', '--quadrature-checks', '9',"
        " '--step', '0.01', '--rmax', '4'])\n"
        "print(rc, loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "False", "False", "0", "0", "0", "False", "0", "False"
    ]
