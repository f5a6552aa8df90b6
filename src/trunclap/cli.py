"""Command-line front end.

Subcommands: verify, radial, eigenbound, fd, catalog.  Every subcommand
takes ``--format json|csv`` and ``--out PATH`` (stdout when omitted) and
produces byte-identical output for identical arguments on one machine and
one NumPy build.

Exit codes: 0 when every assertion matched its expectation (a catalogued
negative control failing in the expected way is a match), 1 on a
verification or convergence failure, 2 on usage errors such as unknown
names or out-of-range parameters.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import catalog, eigenbound, fdlab, radial, viscosity


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", default=None, metavar="PATH")


def _cmd_verify(args) -> int:
    nl = catalog.make_nonlinearity(args.f)
    candidate = catalog.make_candidate(args.candidate, args.N, args.k, nl)
    given = (args.grid_lo, args.grid_hi, args.grid_points)
    grid = None
    if any(g is not None for g in given):
        grid = viscosity.default_grid(candidate.kind, *given)
    verdict = viscosity.verify(candidate, grid=grid, tol=args.tol)
    report = verdict.report()
    if args.format == "json":
        _emit(_canonical_json(report), args.out)
    else:
        lines = ["t,residual,rule"]
        for w in verdict.witnesses:
            lines.append(f"{w.t!r},{w.residual!r},{w.rule}")
        _emit("\n".join(lines) + "\n", args.out)

    expected = catalog.expected_verdict(args.candidate, args.N, args.k, args.f)
    if expected is None:
        print(
            f"verdict for {args.candidate}: solution={verdict.solution}"
            " (no recorded expectation for these parameters)",
            file=sys.stderr,
        )
        return 0
    actual = {
        "subsolution": verdict.subsolution,
        "supersolution": verdict.supersolution,
        "solution": verdict.solution,
    }
    if actual == expected:
        print(
            f"verdict for {args.candidate}: matches the expected outcome",
            file=sys.stderr,
        )
        return 0
    print(
        f"verdict for {args.candidate}: expected {expected}, got {actual}",
        file=sys.stderr,
    )
    return 1


def _cmd_radial(args) -> int:
    nl = catalog.make_nonlinearity(args.f)
    run = radial.integrate_ivp(
        nl,
        args.alpha,
        args.k,
        step=args.step,
        rmax=args.rmax,
        allow_beyond_window=args.allow_beyond_window,
    )
    # oracle cross-check on a coarse subsample
    agree = True
    worst = 0.0
    checks = min(args.quadrature_checks, run.r.size - 1)
    if checks > 0:
        idx = np.unique(np.linspace(1, run.r.size - 1, checks).astype(int))
        for i in idx:
            q = radial.quadrature_inverse(
                nl, args.alpha, args.k, float(run.r[i]),
                allow_beyond_window=args.allow_beyond_window,
            )
            worst = max(worst, abs(q - float(run.v[i])))
        agree = worst <= 1e-6

    report = radial.run_report(run)
    report["quadrature_agreement"] = {
        "checked_points": int(checks),
        "max_difference": worst,
        "agrees": agree,
    }
    if args.N is not None:
        report["ambient"] = {
            "N": args.N,
            "max_residual": radial.residual_of_radial(run, args.N, nl),
        }

    if args.format == "json":
        _emit(_canonical_json(report), args.out)
    else:
        _emit(radial.run_to_csv(run), args.out)

    d = run.diagnostics
    ok = d.monotone_decreasing and d.positive and d.curvature_ordering_holds and agree
    if not ok:
        print(f"radial diagnostics failed: {d.to_dict()}", file=sys.stderr)
        return 1
    return 0


def _cmd_eigenbound(args) -> int:
    if args.format == "json":
        cert = eigenbound.eigenvalue_bound_certificate(
            args.n, resolution=args.grid, area_samples=args.area_samples
        )
        _emit(_canonical_json(cert), args.out)
    else:
        _emit(eigenbound.scan_to_csv(args.n, resolution=args.grid), args.out)
    return 0


def _cmd_fd(args) -> int:
    box = args.box
    if len(box) == 2:
        box = [box[0], box[1], box[0], box[1]]
    elif len(box) != 4:
        raise catalog.UnknownNameError("--box takes 2 or 4 numbers")
    nl = None if args.f == "none" else catalog.make_nonlinearity(args.f)
    boundary = catalog.make_boundary(args.boundary)
    cfg = fdlab.SolveConfig(
        box=tuple(box),
        h=args.h,
        radius=args.radius,
        tau=args.tau,
        max_iters=args.max_iters,
        threshold=args.threshold,
    )
    result = fdlab.solve_dirichlet(nl, boundary, cfg)
    if args.format == "json":
        meta = result.metadata(cfg, "none" if nl is None else nl.name)
        meta["boundary"] = args.boundary
        _emit(_canonical_json(meta), args.out)
    else:
        _emit(fdlab.field_to_csv(result.field), args.out)
    if not result.converged:
        print(
            f"no fixed point within {cfg.max_iters} iterations"
            f" (last update {result.final_update})",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_catalog(args) -> int:
    listing = catalog.catalog_listing()
    if args.format == "json":
        _emit(_canonical_json(listing), args.out)
    else:
        lines = ["kind,name"]
        for kind in ("candidates", "nonlinearities", "boundaries"):
            for name in listing[kind]:
                lines.append(f"{kind},{name}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trunclap",
        description=(
            "Numerical laboratory for the smallest-eigenvalue-sum operator:"
            " candidate verification, radial profiles, collapsing-domain"
            " eigenvalue bounds, and wide-stencil finite differences."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a catalog candidate")
    p.add_argument("--candidate", required=True)
    p.add_argument("--N", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--f", default="allen-cahn")
    p.add_argument("--tol", type=float, default=viscosity.DEFAULT_TOL)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--grid-lo", type=float, default=None)
    p.add_argument("--grid-hi", type=float, default=None)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("radial", help="integrate the radial profile IVP")
    p.add_argument("--f", default="allen-cahn")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--step", type=float, default=radial.DEFAULT_STEP)
    p.add_argument("--rmax", type=float, default=radial.DEFAULT_RMAX)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--quadrature-checks", type=int, default=9)
    p.add_argument("--allow-beyond-window", action="store_true")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_radial)

    p = sub.add_parser("eigenbound", help="collapsing-domain certificate scan")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--area-samples", type=int, default=eigenbound.DEFAULT_AREA_SAMPLES)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_eigenbound)

    p = sub.add_parser("fd", help="wide-stencil Dirichlet solve")
    p.add_argument("--boundary", required=True)
    p.add_argument("--f", default="allen-cahn")
    p.add_argument("--box", type=float, nargs="+", default=[-2.0, 2.0])
    p.add_argument("--h", type=float, default=0.05)
    p.add_argument("--radius", type=int, default=fdlab.DEFAULT_RADIUS)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=fdlab.DEFAULT_MAX_ITERS)
    p.add_argument("--threshold", type=float, default=fdlab.DEFAULT_THRESHOLD)
    _add_io_flags(p)
    p.set_defaults(func=_cmd_fd)

    p = sub.add_parser("catalog", help="list candidates, reactions, boundaries")
    _add_io_flags(p)
    p.set_defaults(func=_cmd_catalog)

    return parser


USAGE_ERRORS = (
    catalog.UnknownNameError,
    viscosity.VerificationError,
    radial.RadialInputError,
    eigenbound.ScanInputError,
    fdlab.FDInputError,
    ValueError,
)

FAILURE_ERRORS = (
    eigenbound.CertificateViolation,
    radial.IntegrationBlowupError,
    radial.OrderingViolationError,
    radial.InverseRangeError,
)


# parsing leaves the parser unchanged, so one per process serves every call
_parser = functools.lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FAILURE_ERRORS as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
