"""Output checkers, each built on a computation made apart from the program.

Every checker takes the request and what the program returned and gives back
a list of problems; an empty list means the output is correct.  The
references here share no code with ``trunclap``: the profiles, residuals and
radial trajectories are written from their closed forms, the reactions with
b != 0 are integrated by SciPy's ``solve_ivp``, the wide-stencil residual is
recomputed with this file's own coprime-direction stencil, and the paper's
classification of the catalog is held here as a function.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np

SQRT2 = math.sqrt(2.0)
TOL = 1e-8  # the CLI's default verification tolerance
WITNESS_TOL = 1e-10
ZERO_BAND = 1e-12
TRAJECTORY_TOL = 1e-6
AMBIENT_TOL = 1e-8
RESIDUAL_TOL = 1e-12
AREA_REL_TOL = 0.01
FD_THRESHOLD = 1e-10  # the CLI's default fixed-point threshold
FD_TAU_SAFETY = 0.9
ORDER_TOL = 1e-8
MANUFACTURED_TOL = 0.05


# ------------------------------------------------------------------ profiles


def _tanh_parts(t, shift, sign):
    z = (np.asarray(t, dtype=float) - shift) / SQRT2
    th = np.tanh(z)
    sech2 = 1.0 / np.cosh(z) ** 2
    return sign * th, -sign * th * sech2


def profile_1d(family: str, c: float, t):
    """Value and second derivative of a one-dimensional catalog profile."""
    t = np.asarray(t, dtype=float)
    zero = np.zeros_like(t)
    if family == "zero":
        return zero, zero
    if family in ("plain-tanh", "tanh-shifted-zero"):
        return _tanh_parts(t, 0.0, 1.0)
    if family == "halfline-tanh":
        v, vpp = _tanh_parts(t, 0.0, 1.0)
        return np.where(t > 0.0, v, 0.0), np.where(t > 0.0, vpp, 0.0)
    if family == "tanh-shifted":
        lv, lvpp = _tanh_parts(t, -c, -1.0)
        rv, rvpp = _tanh_parts(t, c, 1.0)
        v = np.where(t < -c, lv, np.where(t > c, rv, 0.0))
        vpp = np.where(t < -c, lvpp, np.where(t > c, rvpp, 0.0))
        return v, vpp
    raise ValueError(f"unknown family {family!r}")


def radial_profile(alpha: float, k: int, r):
    """v, v', v'' of 1/sqrt(1 + C exp(r^2/k)), C = (1 - alpha^2)/alpha^2."""
    r = np.asarray(r, dtype=float)
    C = (1.0 - alpha * alpha) / (alpha * alpha)
    # far out E overflows to inf, where v, v', v'' all vanish in the limit
    with np.errstate(over="ignore", invalid="ignore"):
        E = C * np.exp(r * r / k)
        q = 1.0 + E
        v = q ** -0.5
        vp = -(r / k) * E * q ** -1.5
        vpp = (-(E / k) * (1.0 + 2.0 * r * r / k) * q ** -1.5
               + 3.0 * (r * r / (k * k)) * E * E * q ** -2.5)
    return np.nan_to_num(v), np.nan_to_num(vp), np.nan_to_num(vpp)


def allen_cahn(u):
    return u - u ** 3


def paper_verdict(family: str, params: dict) -> tuple[bool, bool]:
    """(subsolution, supersolution) as the paper classifies the catalog.

    halfline-tanh, zero, tanh-shifted with c > 0 and the closed radial family
    with matched index and height at most 1/sqrt(3) solve the equation;
    plain-tanh and tanh-shifted:0 are supersolutions only.
    """
    if family in ("halfline-tanh", "zero"):
        return True, True
    if family == "tanh-shifted":
        return (True, True) if params["c"] > 0.0 else (False, True)
    if family in ("plain-tanh", "tanh-shifted-zero"):
        return False, True
    if family == "radial-closed":
        ok = params["k"] <= params["N"] - 1 and 0.0 < params["alpha"] <= 1.0 / math.sqrt(3.0)
        return ok, ok
    raise ValueError(f"unknown family {family!r}")


def witness_residual(params: dict, t: float) -> float:
    """Closed-form residual sum_k(D2 u) + f(u) at profile coordinate t."""
    family = params["family"]
    if family == "radial-closed":
        N, k = params["N"], params["k"]
        v, vp, vpp = (float(x) for x in radial_profile(params["alpha"], k, t))
        tangential = vpp if t == 0.0 else vp / t
        eig = sorted([vpp] + [tangential] * (N - 1))
        return sum(eig[:k]) + allen_cahn(v)
    v, vpp = (float(x) for x in profile_1d(family, params.get("c", 0.0), t))
    return min(vpp, 0.0) + allen_cahn(v)


def _scan_grid(params: dict) -> np.ndarray:
    radial = params["family"] == "radial-closed"
    points = params["grid_points"]
    if points is None:
        points = 2001 if radial else 4001
    lo = 1e-3 if radial else -20.0
    return np.linspace(lo, 20.0, points)


def _widest_zero_run(ts, values):
    flat = np.abs(values) <= ZERO_BAND
    best, best_len, start = None, 0, None
    for i, is_flat in enumerate(list(flat) + [False]):
        if is_flat and start is None:
            start = i
        elif not is_flat and start is not None:
            if i - start > best_len:
                best, best_len = (float(ts[start]), float(ts[i - 1])), i - start
            start = None
    return best if best_len >= 2 else None


def structure_flags(params: dict, sub: bool, sup: bool, values, ts) -> list[str]:
    """The engine's consistency flags, recomputed from the profile values."""
    vmin = float(values.min())
    diffs = np.diff(values)
    flags = []
    if sub and vmin < -TOL:
        flags.append("subsolution with negative minimum")
    if params["family"] != "radial-closed" and sup:
        if vmin > 0.0:
            flags.append("strictly positive 1D supersolution")
        nonneg = vmin >= -ZERO_BAND
        nondecreasing = bool(np.all(diffs >= -ZERO_BAND))
        if nonneg and nondecreasing:
            plateau = _widest_zero_run(ts, values)
            if plateau is None or plateau[0] > float(ts[0]) + ZERO_BAND:
                flags.append("nondecreasing supersolution without a left plateau")
    return flags


# ------------------------------------------------------------------ verify


def check_verify(params: dict, out: str) -> list[str]:
    problems = []
    want_sub, want_sup = paper_verdict(params["family"], params)
    if params["format"] == "json":
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return ["output is not JSON"]
        got = (report.get("subsolution"), report.get("supersolution"), report.get("solution"))
        if got != (want_sub, want_sup, want_sub and want_sup):
            problems.append(f"verdict {got} differs from the paper's ({want_sub}, {want_sup})")
        if (report.get("N"), report.get("k")) != (params["N"], params["k"]):
            problems.append("N or k not echoed")
        witnesses = [(w["t"], w["residual"], w["rule"]) for w in report.get("witnesses", [])]
        ts = _scan_grid(params)
        if params["family"] == "radial-closed":
            values = radial_profile(params["alpha"], params["k"], ts)[0]
        else:
            values = profile_1d(params["family"], params.get("c", 0.0), ts)[0]
        structure = report.get("structure", {})
        if abs(structure.get("min", math.inf) - float(values.min())) > ZERO_BAND:
            problems.append(f"structure min {structure.get('min')} != {float(values.min())}")
        plateau = structure.get("plateau")
        want_plateau = _widest_zero_run(ts, values)
        if (None if plateau is None else tuple(plateau)) != want_plateau:
            problems.append(f"plateau {plateau} != {want_plateau}")
        flags = structure_flags(params, got[0], got[1], values, ts)
        if flags:
            problems.append(f"structure flags raised: {flags}")
    else:
        if not out.startswith("t,residual,rule\n"):
            return ["CSV header missing"]
        rows = [line.split(",") for line in out.splitlines()[1:]]
        witnesses = [(float(t), float(res), rule) for t, res, rule in rows]
        rules = [w[2] for w in witnesses]
        sub = not any(r.startswith(("smooth-subsolution", "concave-corner")) for r in rules)
        sup = not any(r.startswith(("smooth-supersolution", "convex-corner")) for r in rules)
        if (sub, sup) != (want_sub, want_sup):
            problems.append(f"witness rules imply ({sub}, {sup}), paper says ({want_sub}, {want_sup})")
    if (want_sub and want_sup) != (not witnesses):
        problems.append(f"{len(witnesses)} witnesses for a {'solution' if want_sub else 'non-solution'}")
    for t, res, rule in witnesses:
        if not rule.startswith("smooth-"):
            problems.append(f"unexpected rule {rule!r} at t={t}")
            continue
        want = witness_residual(params, t)
        if abs(res - want) > WITNESS_TOL:
            problems.append(f"witness residual {res} at t={t}, closed form {want}")
        if rule.startswith("smooth-subsolution") != (res < -TOL):
            problems.append(f"rule {rule!r} does not match residual sign {res}")
    return problems


# ------------------------------------------------------------------ radial


def _power(p: dict):
    a, b, g = p["a"], p["b"], p["gamma"]

    def f(u):
        return a * u + b * np.abs(u) ** (g - 1.0) * u

    def fprime(u):
        return a + b * g * np.abs(u) ** (g - 1.0)

    return f, fprime


def reaction_functions(p: dict):
    if p["kind"] == "allen-cahn":
        return allen_cahn, lambda u: 1.0 - 3.0 * u * u
    return _power(p)


def radial_reference(params: dict, r: np.ndarray) -> np.ndarray:
    """The trajectory at radii r: closed forms, else a tight solve_ivp."""
    alpha, k, rp = params["alpha"], params["k"], params["reaction"]
    r = np.asarray(r, dtype=float)
    if rp["kind"] == "allen-cahn":
        return radial_profile(alpha, k, r)[0]
    if rp["b"] == 0.0:
        return alpha * np.exp(-rp["a"] * r * r / (2.0 * k))
    from scipy.integrate import solve_ivp

    f, _ = _power(rp)
    sol = solve_ivp(
        lambda s, u: -(s / k) * f(u), (0.0, float(r.max())), [alpha],
        method="DOP853", rtol=1e-12, atol=1e-14, dense_output=True,
    )
    return sol.sol(r)[0]


def check_radial(params: dict, out: str) -> list[str]:
    problems = []
    step, rmax, k = params["step"], params["rmax"], params["k"]
    samples = int(round(rmax / step)) + 1
    if params["format"] == "json":
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return ["output is not JSON"]
        d = report["diagnostics"]
        if not (d["monotone_decreasing"] and d["positive"] and d["curvature_ordering_holds"]):
            problems.append(f"diagnostics failed: {d}")
        if not d["tail_below"] > 0.0:
            problems.append(f"tail {d['tail_below']} is not positive")
        if (report["alpha"], report["k"], report["samples"]) != (params["alpha"], k, samples):
            problems.append("alpha, k or sample count not echoed")
        tail = float(radial_reference(params, np.array([rmax]))[0])
        if abs(d["tail_below"] - tail) > TRAJECTORY_TOL:
            problems.append(f"tail {d['tail_below']} at r={rmax}, reference {tail}")
        q = report["quadrature_agreement"]
        if not (q["agrees"] and q["max_difference"] <= TRAJECTORY_TOL
                and q["checked_points"] == min(params["checks"], samples - 1)):
            problems.append(f"quadrature cross-check failed: {q}")
        amb = report.get("ambient", {})
        if amb.get("N") != params["N"] or not amb.get("max_residual", math.inf) <= AMBIENT_TOL:
            problems.append(f"ambient residual not at most {AMBIENT_TOL}: {amb}")
        return problems
    if not out.startswith("r,v,vp\n"):
        return ["CSV header missing"]
    data = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (samples, 3):
        return [f"CSV has shape {data.shape}, want ({samples}, 3)"]
    r, v, vp = data.T
    if np.max(np.abs(r - step * np.arange(samples))) > 1e-9 * rmax or v[0] != params["alpha"]:
        problems.append("radii or initial height wrong")
    if not (np.all(v > 0.0) and np.all(np.diff(v) < 0.0)):
        problems.append("trajectory is not positive and decreasing")
    if params["reaction"]["kind"] == "allen-cahn" or params["reaction"]["b"] == 0.0:
        idx = np.arange(samples)
    else:
        idx = np.unique(np.linspace(0, samples - 1, 64).astype(int))
    err = np.abs(v[idx] - radial_reference(params, r[idx]))
    if float(err.max()) > TRAJECTORY_TOL:
        i = int(idx[int(np.argmax(err))])
        problems.append(f"v({r[i]}) = {v[i]} is {float(err.max()):.3g} from the reference")
    f, fprime = reaction_functions(params["reaction"])
    fv = f(v)
    if np.max(np.abs(vp + (r / k) * fv)) > 1e-12:
        problems.append("v' does not follow -(r/k) f(v)")
    # ambient residual: k smallest of {v'', v'/r repeated N-1 times} plus f(v)
    vpp = -(fv + r * fprime(v) * vp) / k
    tangential = np.concatenate([[vpp[0]], vp[1:] / r[1:]])
    smallest = np.where(tangential <= vpp, k * tangential, vpp + (k - 1) * tangential)
    worst = float(np.max(np.abs(smallest + fv)))
    if worst > AMBIENT_TOL:
        problems.append(f"ambient residual {worst} exceeds {AMBIENT_TOL}")
    return problems


# ------------------------------------------------------------------ fd


def boundary_value(params: dict, y):
    """The y-only catalog boundary data g(x, y) = v(y)."""
    family = {"halfline-tanh-y": "halfline-tanh", "plain-tanh-y": "plain-tanh",
              "tanh-shifted-y": "tanh-shifted"}[params["boundary"]]
    return profile_1d(family, params.get("c", 0.0), y)[0]


def coprime_directions(radius: int) -> list[tuple[int, int]]:
    """One representative of every lattice line through 0 with |a|, |b| <= radius."""
    seen = set()
    for a in range(-radius, radius + 1):
        for b in range(-radius, radius + 1):
            if (a, b) == (0, 0) or math.gcd(a, b) != 1:
                continue
            if (-a, -b) not in seen:
                seen.add((a, b))
    return sorted(seen)


def stencil_residual(u: np.ndarray, h: float, radius: int, f) -> float:
    """Max over interior nodes of |min second difference + f(u)|."""
    nx, ny = u.shape
    pad = np.full((nx + 2 * radius, ny + 2 * radius), np.nan)
    pad[radius:radius + nx, radius:radius + ny] = u
    lam = np.full(u.shape, np.inf)
    for a, b in coprime_directions(radius):
        fwd = pad[radius + a:radius + a + nx, radius + b:radius + b + ny]
        bwd = pad[radius - a:radius - a + nx, radius - b:radius - b + ny]
        second = (fwd + bwd - 2.0 * u) / (h * h * (a * a + b * b))
        lam = np.where(np.isnan(second), lam, np.minimum(lam, second))
    inner = (slice(1, -1), slice(1, -1))
    return float(np.max(np.abs(lam[inner] + f(u[inner]))))


def fd_tau(h: float, reaction: str) -> float:
    """The solver's default pseudo-time step: 0.9 / (2/h^2 + max|f'| on [-1, 1])."""
    slope = 2.0 if reaction == "allen-cahn" else 0.0
    return FD_TAU_SAFETY / (2.0 / (h * h) + slope)


def fd_residual_bound(h: float, reaction: str) -> float:
    # a converged iterate moved by at most threshold in its last step
    tau = fd_tau(h, reaction)
    return 1.5 * FD_THRESHOLD / tau


def _reaction_of(reaction: str):
    return allen_cahn if reaction == "allen-cahn" else (lambda u: np.zeros_like(u))


def check_field(params: dict, xs, ys, u, g) -> list[str]:
    """Checks on a solved field against its data g sampled on the same grid.

    The field must be a fixed point of the scheme, agree with g on the ring,
    obey the maximum principle and, for the catalog case with a known
    profile, stay near it.
    """
    problems = []
    h, reaction = params["h"], params["reaction"]
    ax, bx, ay, by = params["box"]
    nx, ny = int(round((bx - ax) / h)) + 1, int(round((by - ay) / h)) + 1
    if u.shape != (nx, ny):
        return [f"field shape {u.shape}, want {(nx, ny)}"]
    if (np.max(np.abs(xs - (ax + h * np.arange(nx)))) > 1e-9
            or np.max(np.abs(ys - (ay + h * np.arange(ny)))) > 1e-9):
        problems.append("grid coordinates do not match the box")
    res = stencil_residual(u, h, params["radius"], _reaction_of(reaction))
    bound = fd_residual_bound(h, reaction)
    if not res <= bound:
        problems.append(f"discrete residual {res:.3g} exceeds {bound:.3g}")
    edge = np.ones(u.shape, dtype=bool)
    edge[1:-1, 1:-1] = False
    if np.max(np.abs(u[edge] - g[edge])) > 1e-12:
        problems.append("boundary ring differs from the Dirichlet data")
    lo, hi = float(g[edge].min()), float(g[edge].max())
    if reaction == "allen-cahn":
        # f(u) = u - u^3 pushes back toward [-1, 1] from outside
        top = max(1.0, -lo, hi)
        if float(np.max(np.abs(u))) > top + 1e-12:
            problems.append(f"|u| reaches {float(np.max(np.abs(u)))} > {top}")
    elif float(u.min()) < lo - 1e-12 or float(u.max()) > hi + 1e-12:
        problems.append(f"u leaves the data range [{lo}, {hi}]")
    if params.get("boundary") == "halfline-tanh-y" and h == 0.05 and reaction == "allen-cahn":
        err = float(np.max(np.abs(u - g)[1:-1, 1:-1]))
        if err > MANUFACTURED_TOL:
            problems.append(f"interior error {err:.3g} against the profile exceeds {MANUFACTURED_TOL}")
    return problems


def check_fd(params: dict, out: str) -> list[str]:
    problems = []
    h = params["h"]
    if params["format"] == "json":
        try:
            meta = json.loads(out)
        except json.JSONDecodeError:
            return ["output is not JSON"]
        if not (meta["converged"] and meta["final_update"] <= FD_THRESHOLD
                and 0 < meta["iterations"] < meta["max_iters"]):
            problems.append(f"solve did not converge: iterations {meta['iterations']}")
        if abs(meta["tau"] - fd_tau(h, params["reaction"])) > 1e-12 * meta["tau"]:
            problems.append(f"tau {meta['tau']} is not the monotone default")
        if not meta["residual"] <= fd_residual_bound(h, params["reaction"]):
            problems.append(f"reported residual {meta['residual']} too large")
        if (tuple(meta["box"]), meta["h"], meta["radius"]) != (params["box"], h, params["radius"]):
            problems.append("box, h or radius not echoed")
        return problems
    if not out.startswith("x,y,u\n"):
        return ["CSV header missing"]
    data = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
    ax, bx, ay, by = params["box"]
    nx, ny = int(round((bx - ax) / h)) + 1, int(round((by - ay) / h)) + 1
    if data.shape != (nx * ny, 3):
        return [f"CSV has shape {data.shape}, want ({nx * ny}, 3)"]
    x, y, u = (col.reshape(nx, ny) for col in data.T)
    return check_field(params, x[:, 0], y[0, :], u, boundary_value(params, y))


def check_pair(params: dict, lo_result, hi_result, g_lo, g_hi) -> list[str]:
    """An ordered pair of 2D solves must stay ordered cell by cell."""
    problems = []
    for name, res, g in (("lo", lo_result, g_lo), ("hi", hi_result, g_hi)):
        if not res.converged:
            problems.append(f"{name} solve did not converge")
        field = res.field
        xs, ys = field.xs(), field.ys()
        data = np.array([[g(float(x), float(y)) for y in ys] for x in xs])
        problems += [f"{name}: {p}" for p in check_field(params, xs, ys, field.values, data)]
    gap = float(np.max(lo_result.field.values - hi_result.field.values))
    if gap > ORDER_TOL:
        problems.append(f"comparison broken: u_lo exceeds u_hi by {gap:.3g}")
    return problems


# ------------------------------------------------------------------ eigenbound


def exact_area(n: int) -> float:
    # the strip map (x, y) -> ((nx+y)/2, (nx-y)/2) has Jacobian n/2 and the
    # strip square has area pi^2, so the domain has area 2 pi^2 / n
    return 2.0 * math.pi ** 2 / n


def check_eigen(params: dict, out: str) -> list[str]:
    problems = []
    n = params["n"]
    if params["format"] == "json":
        try:
            cert = json.loads(out)
        except json.JSONDecodeError:
            return ["output is not JSON"]
        area = cert["area"]["monte_carlo"]
        exact = exact_area(n)
        if abs(area - exact) > AREA_REL_TOL * exact:
            problems.append(f"Monte Carlo area {area} is more than 1% from {exact}")
        scan = cert["scan"]
        if (scan["n"], scan["resolution"]) != (n, params["grid"]):
            problems.append("n or resolution not echoed")
        if not scan["max_residual"] <= RESIDUAL_TOL:
            problems.append(f"max residual {scan['max_residual']} > {RESIDUAL_TOL}")
        if not scan["max_interior_w"] < 0.0:
            problems.append(f"max interior w {scan['max_interior_w']} is not negative")
        counts = scan["region_counts"]
        if min(counts["A"], counts["B"], counts["C"]) <= 0 or counts["both"] != 0:
            problems.append(f"region counts {counts}")
        if sum(counts.values()) != scan["interior_count"]:
            problems.append("region counts do not add up to the interior count")
        return problems
    if not out.startswith("x,y,w,residual,region\n"):
        return ["CSV header missing"]
    lines = out.splitlines()[1:]
    if not lines:
        return ["CSV has no rows"]
    regions = np.array([line[line.rindex(",") + 1:] for line in lines])
    data = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, usecols=(0, 1, 2, 3), ndmin=2)
    x, y, w, res = data.T
    snx, sy = np.sin(n * x), np.sin(y)
    want_w = -(snx + sy)
    want_res = np.minimum(n * n * snx, sy) + want_w
    if np.max(np.abs(w - want_w)) > RESIDUAL_TOL or np.max(np.abs(res - want_res)) > RESIDUAL_TOL:
        problems.append("w or residual differ from -(sin nx + sin y), min(n^2 sin nx, sin y) + w")
    want_region = np.where(snx > 0.0, np.where(sy > 0.0, "A", "C"), np.where(sy > 0.0, "B", "both"))
    if not np.array_equal(regions, want_region):
        problems.append("region labels differ from the sign split")
    if not (np.all(w < 0.0) and np.all(res <= RESIDUAL_TOL)):
        problems.append("a row has w >= 0 or a positive residual")
    present = set(regions.tolist())
    if not {"A", "B", "C"} <= present or "both" in present:
        problems.append(f"regions present: {sorted(present)}")
    return problems


def check(request, result) -> list[str]:
    """Dispatch on the request kind; result is the CLI's stdout or the pair's solves."""
    if request.kind == "fd-pair":
        return check_pair(request.params, *result)
    return {"verify": check_verify, "radial": check_radial, "fd": check_fd,
            "eigenbound": check_eigen}[request.kind](request.params, result)
