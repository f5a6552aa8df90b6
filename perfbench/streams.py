"""Seeded request streams, one per workload.

A stream is a sequence of rounds.  Every round of a workload has the same
make-up: the same slots in the same order, each slot fixing the request kind,
the output format and the parameters that set its cost (grid size, step,
stencil radius).  The seed only draws the parameters that change what is
computed but not how much: shifts, heights, dimensions, operator indices,
reaction coefficients and box offsets.  Whole rounds keep the mix of every run
the same, so two runs on different seeds measure the same work.

Round ``i`` of a workload under seed ``s`` is drawn from its own generator,
seeded by the string ``"<workload>/<s>/<i>"``, so any round can be rebuilt on
its own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("verify-catalog", "radial-sweep", "fd-dirichlet", "eigenbound-certify")

#: Largest initial height of the closed-form radial family (1/sqrt(3)), rounded down.
MAX_RADIAL_HEIGHT = 0.5773


@dataclass(frozen=True)
class Request:
    """One request: a CLI argument list, or a 2D comparison pair (argv None)."""

    kind: str
    argv: tuple[str, ...] | None
    params: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))


# --------------------------------------------------------------- verify


def _verify(family: str, rng: random.Random, fmt: str, grid_points: int | None) -> Request:
    N = rng.randint(2, 8)
    k = rng.randint(1, N - 1)
    params = {"family": family, "N": N, "k": k, "format": fmt, "grid_points": grid_points}
    if family == "tanh-shifted":
        c = round(rng.uniform(0.05, 5.0), 3)
        params["c"] = c
        name = f"tanh-shifted:{_num(c)}"
    elif family == "tanh-shifted-zero":
        params["c"] = 0.0
        name = "tanh-shifted:0"
    elif family == "radial-closed":
        alpha = round(rng.uniform(0.05, MAX_RADIAL_HEIGHT), 4)
        params["alpha"] = alpha
        name = f"radial-closed:{_num(alpha)},{k}"
    else:
        name = family
    argv = ["verify", "--candidate", name, "--N", str(N), "--k", str(k), "--format", fmt]
    if grid_points is not None:
        argv += ["--grid-points", str(grid_points)]
    return Request("verify", tuple(argv), params)


def verify_round(rng: random.Random) -> list[Request]:
    return [
        _verify("halfline-tanh", rng, "json", None),
        _verify("plain-tanh", rng, "json", None),
        _verify("zero", rng, "json", None),
        _verify("tanh-shifted-zero", rng, "json", None),
        _verify("tanh-shifted", rng, "json", None),
        _verify("radial-closed", rng, "json", None),
        _verify("plain-tanh", rng, "csv", None),
        _verify("tanh-shifted", rng, "csv", None),
        _verify("radial-closed", rng, "csv", None),
        _verify("tanh-shifted", rng, "json", 16001),
    ]


# --------------------------------------------------------------- radial


def _reaction(kind: str, rng: random.Random) -> tuple[str, dict, float]:
    """Reaction name, its parameters, and the top of its monotone window."""
    if kind == "allen-cahn":
        return "allen-cahn", {"kind": kind}, MAX_RADIAL_HEIGHT
    a = round(rng.uniform(0.5, 2.0), 3)
    gamma = round(rng.uniform(1.5, 4.0), 3)
    if kind == "linear":
        b = 0.0
        window = 1.0
    elif kind == "power-plus":
        b = round(rng.uniform(0.1, 1.0), 3)
        window = 1.0
    else:  # power-minus: f' >= 0 while |u|^(gamma-1) <= a / (|b| gamma)
        b = -round(rng.uniform(0.1, 1.0), 3)
        # the program finds this edge by sampled bisection, so stay clear of it
        window = 0.95 * min(1.0, (a / (-b * gamma)) ** (1.0 / (gamma - 1.0)))
    name = f"power:{_num(a)},{_num(b)},{_num(gamma)}"
    return name, {"kind": kind, "a": a, "b": b, "gamma": gamma}, window


def _radial(
    reaction: str, rng: random.Random, fmt: str, step: float, rmax: float, checks: int | None
) -> Request:
    name, rparams, window = _reaction(reaction, rng)
    alpha = round(rng.uniform(0.05, window), 4)
    k = rng.randint(1, 4)
    N = rng.randint(k + 1, 8)
    if checks is None:
        checks = rng.randint(9, 50)
    params = {
        "reaction": rparams, "alpha": alpha, "k": k, "N": N, "step": step,
        "rmax": rmax, "checks": checks, "format": fmt,
    }
    argv = (
        "radial", "--f", name, "--alpha", _num(alpha), "--k", str(k), "--N", str(N),
        "--step", _num(step), "--rmax", _num(rmax),
        "--quadrature-checks", str(checks), "--format", fmt,
    )
    return Request("radial", argv, params)


def radial_round(rng: random.Random) -> list[Request]:
    return [
        _radial("allen-cahn", rng, "json", 1e-3, 10.0, None),
        _radial("allen-cahn", rng, "json", 1e-4, 5.0, 9),
        _radial("allen-cahn", rng, "csv", 1e-3, 4.0, 9),
        _radial("linear", rng, "json", 1e-3, 3.0, None),
        _radial("linear", rng, "csv", 1e-4, 10.0, 9),
        _radial("power-plus", rng, "json", 1e-3, 10.0, None),
        _radial("power-minus", rng, "json", 1e-3, 4.0, None),
        _radial("power-plus", rng, "csv", 1e-3, 5.0, 9),
        _radial("power-minus", rng, "csv", 1e-4, 2.0, 9),
        _radial("allen-cahn", rng, "json", 1e-4, 2.0, None),
    ]


# --------------------------------------------------------------- fd

_SHIFTS = (-0.4, -0.2, 0.2, 0.4)
SQUARE = (-2.0, 2.0, -2.0, 2.0)
#: A fixed shifted box for the slots whose cost must not depend on the seed.
SHIFTED = (-1.6, 2.4, -2.2, 1.8)


def _fd(
    boundary: str, rng: random.Random, fmt: str, h: float, radius: int,
    reaction: str, box: tuple[float, float, float, float] | None,
) -> Request:
    """A catalog solve; box None draws a seeded shift of the square."""
    params = {"boundary": boundary, "h": h, "radius": radius, "reaction": reaction, "format": fmt}
    if boundary == "tanh-shifted-y":
        # kinks off the grid take the solver up to five times the iterations,
        # so the shift stays on the grid to keep the cost of the slot steady
        c = rng.randint(3, 10) / 10
        params["c"] = c
        bname = f"tanh-shifted-y:{_num(c)}"
    else:
        bname = boundary
    if box is None:
        sx, sy = rng.choice(_SHIFTS), rng.choice(_SHIFTS)
        box = (round(-2.0 + sx, 1), round(2.0 + sx, 1), round(-2.0 + sy, 1), round(2.0 + sy, 1))
    params["box"] = box
    argv = (
        "fd", "--boundary", bname, "--f", reaction, "--h", _num(h), "--radius", str(radius),
        "--format", fmt, "--box", *(_num(b) for b in box),
    )
    return Request("fd", argv, params)


#: Spacing of the 2D comparison pairs, whose iteration counts vary with the data.
PAIR_H = 0.4


def _pair(rng: random.Random) -> Request:
    """Ordered smooth 2D data in [-1, 1]: g_lo below g_hi everywhere by at least gap/2."""
    coeff = {
        "A": round(rng.uniform(0.3, 0.5), 3),
        "w1": round(rng.uniform(0.4, 1.2), 3),
        "w2": round(rng.uniform(0.4, 1.2), 3),
        "p1": round(rng.uniform(0.0, 2.0 * math.pi), 3),
        "p2": round(rng.uniform(0.0, 2.0 * math.pi), 3),
        "B": round(rng.uniform(0.1, 0.2), 3),
        "w3": round(rng.uniform(0.3, 0.9), 3),
        "gap": round(rng.uniform(0.05, 0.2), 3),
        "w4": round(rng.uniform(0.3, 1.0), 3),
        "w5": round(rng.uniform(0.3, 1.0), 3),
        "p3": round(rng.uniform(0.0, 2.0 * math.pi), 3),
    }
    return Request("fd-pair", None, {"coeff": coeff, "h": PAIR_H, "radius": 2,
                                     "box": SQUARE, "reaction": "allen-cahn"})


def pair_boundaries(coeff: dict):
    """The two boundary callables of a comparison pair."""
    c = coeff

    def lo(x, y):
        return (c["A"] * math.sin(c["w1"] * x + c["p1"]) * math.cos(c["w2"] * y + c["p2"])
                + c["B"] * math.sin(c["w3"] * (x + y)))

    def hi(x, y):
        return lo(x, y) + c["gap"] * (1.0 + 0.5 * math.sin(c["w4"] * x - c["w5"] * y + c["p3"]))

    return lo, hi


def fd_round(rng: random.Random) -> list[Request]:
    # Four cheap seeded slots, four mid-cost slots fixed in every round, two
    # dear fixed slots: the median latency always falls among the fixed ones.
    return [
        _fd("tanh-shifted-y", rng, "json", 0.1, 2, "allen-cahn", SQUARE),
        _fd("tanh-shifted-y", rng, "csv", 0.2, 3, "none", None),
        _pair(rng),
        _pair(rng),
        _fd("halfline-tanh-y", rng, "json", 0.1, 3, "none", SHIFTED),
        _fd("plain-tanh-y", rng, "json", 0.2, 2, "allen-cahn", SHIFTED),
        _fd("plain-tanh-y", rng, "csv", 0.1, 2, "none", SHIFTED),
        _fd("halfline-tanh-y", rng, "json", 0.05, 3, "allen-cahn", (-1.0, 1.0, -1.0, 1.0)),
        _fd("halfline-tanh-y", rng, "csv", 0.05, 2, "allen-cahn", (-1.5, 1.5, -1.5, 1.5)),
        _fd("plain-tanh-y", rng, "json", 0.05, 2, "none", (-1.0, 1.0, -1.0, 1.0)),
    ]


# --------------------------------------------------------------- eigenbound

_AREA_SAMPLES = tuple(range(100_000, 400_001, 50_000))


def _eigen(rng: random.Random, fmt: str, grid_lo: int, grid_hi: int) -> Request:
    n = rng.randint(1, 50)
    grid = rng.randint(grid_lo, grid_hi)
    params = {"n": n, "grid": grid, "format": fmt}
    argv = ["eigenbound", "--n", str(n), "--grid", str(grid), "--format", fmt]
    if fmt == "json":
        samples = rng.choice(_AREA_SAMPLES)
        params["samples"] = samples
        argv += ["--area-samples", str(samples)]
    return Request("eigenbound", tuple(argv), params)


def eigen_round(rng: random.Random) -> list[Request]:
    reqs = [_eigen(rng, "json", 200 + 75 * i, 275 + 75 * i) for i in range(8)]
    reqs.append(_eigen(rng, "csv", 280, 300))
    reqs.append(_eigen(rng, "csv", 380, 400))
    return reqs


# --------------------------------------------------------------- public

_ROUNDS = {
    "verify-catalog": verify_round,
    "radial-sweep": radial_round,
    "fd-dirichlet": fd_round,
    "eigenbound-certify": eigen_round,
}


def warmup(workload: str) -> list[Request]:
    """One small request of each kind the workload sends, the same for every seed."""
    rng = random.Random(f"{workload}/warm-up")
    if workload == "verify-catalog":
        return [_verify("halfline-tanh", rng, "json", 101), _verify("plain-tanh", rng, "csv", 101)]
    if workload == "radial-sweep":
        return [_radial("allen-cahn", rng, fmt, 0.01, 1.0, 1) for fmt in ("json", "csv")]
    if workload == "fd-dirichlet":
        return [_fd("halfline-tanh-y", rng, fmt, 0.5, 2, "allen-cahn", SQUARE)
                for fmt in ("json", "csv")] + [_pair(rng)]
    return [_eigen(rng, "json", 50, 50), _eigen(rng, "csv", 50, 50)]


def make_round(workload: str, seed: int, index: int) -> list[Request]:
    """Round ``index`` of the workload's stream under ``seed``."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    return _ROUNDS[workload](rng)
