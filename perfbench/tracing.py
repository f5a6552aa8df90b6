"""Spans around the calls into each trunclap module, recorded from outside.

The tracer replaces module attributes (``trunclap.viscosity.smallest_eigen_sum``,
``trunclap.fdlab.min_curvature_array`` and so on) with wrappers that record
a span per call: name, start, end, parent span and request id.  Spans are
kept in memory in flat arrays and written out once, when the run ends.

Back-to-back calls of one function from the same parent span share one
record, which carries their call count and summed duration: the radial
integrator calls the reaction four times per RK4 step, and a record per call
would need gigabytes on a long run.  A record's self time is its summed
duration minus the summed durations of its child records; calls nest
strictly in one thread, so that is the time the children do not cover.

Counters are taken at the same boundaries, from the arguments and results of
the wrapped calls.  No file under ``src/`` is changed.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from collections import defaultdict

import numpy as np

#: Per-layer metrics: name -> (unit, better).  Values are per completed request.
PER_LAYER = {
    "profiles.candidate_hessian.calls": ("count/req", "lower"),
    "profiles.candidate_hessian.self_s": ("s/req", "lower"),
    "operators.smallest_eigen_sum.calls": ("count/req", "lower"),
    "operators.smallest_eigen_sum.self_s": ("s/req", "lower"),
    "viscosity.verify.self_s": ("s/req", "lower"),
    "viscosity.scan_points": ("count/req", "lower"),
    "nonlinearities.f.calls": ("count/req", "lower"),
    "nonlinearities.f.self_s": ("s/req", "lower"),
    "radial.integrate_ivp.self_s": ("s/req", "lower"),
    "radial.rk4_steps": ("count/req", "lower"),
    "radial.quadrature_inverse.calls": ("count/req", "lower"),
    "radial.quadrature_inverse.self_s": ("s/req", "lower"),
    "radial.quad.calls": ("count/req", "lower"),
    "radial.quad.self_s": ("s/req", "lower"),
    "radial.residual_of_radial.self_s": ("s/req", "lower"),
    "radial.run_to_csv.self_s": ("s/req", "lower"),
    "fdlab.solve_dirichlet.self_s": ("s/req", "lower"),
    "fdlab.iterations": ("count/req", "lower"),
    "fdlab.min_curvature_array.calls": ("count/req", "lower"),
    "fdlab.min_curvature_array.self_s": ("s/req", "lower"),
    "fdlab.cell_updates": ("count/req", "lower"),
    "fdlab.stencil_bytes_computed": ("B/req", "lower"),
    "fdlab.field_to_csv.self_s": ("s/req", "lower"),
    "eigenbound.scan_inequality.self_s": ("s/req", "lower"),
    "eigenbound.area_estimate.self_s": ("s/req", "lower"),
    "eigenbound.scan_to_csv.self_s": ("s/req", "lower"),
    "eigenbound.grid_samples": ("count/req", "lower"),
    "cli.main.self_s": ("s/req", "lower"),
    "cli.output_bytes": ("B/req", "lower"),
    "catalog.self_s": ("s/req", "lower"),
    "trace.overhead_s": ("s/req", "lower"),
}

_CATALOG_FUNCTIONS = ("make_nonlinearity", "make_candidate", "make_boundary", "expected_verdict")


def _stencil_bytes(values, directions) -> int:
    """float64 operand bytes of one min_curvature_array call, computed from shapes.

    The output is filled once; per direction the three arms are read and the
    output region is read and written over the valid centres.
    """
    nx, ny = values.shape
    total = nx * ny
    for a, b in directions:
        cx, cy = nx - 2 * a, ny - 2 * abs(b)
        if cx >= 1 and cy >= 1:
            total += 5 * cx * cy
    return 8 * total


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.calls = array("q")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")
        self._stack = [-1]
        self.request_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_return=None):
        """fn wrapped so that each call records a span; on_return(args, result) runs after."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack = self._stack
        names, parents, requests = self.name, self.parent, self.request
        calls, starts, ends, busy = self.calls, self.start, self.end, self.busy

        def traced(*args, **kwargs):
            up = stack[-1]
            last = len(names) - 1
            if last >= 0 and names[last] == nid and parents[last] == up \
                    and requests[last] == self.request_id:
                idx = last
                calls[idx] += 1
            else:
                idx = last + 1
                names.append(nid)
                parents.append(up)
                requests.append(self.request_id)
                calls.append(1)
                starts.append(0.0)
                ends.append(0.0)
                busy.append(0.0)
            stack.append(idx)
            t0 = clock()
            if calls[idx] == 1:
                starts[idx] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                busy[idx] += t1 - t0
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def count(self, name: str, fn, amount):
        """fn wrapped to add amount(result) to a counter, with no span."""
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += amount(result)
            return result

        return counted

    def patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public entry points of every trunclap module."""
        from trunclap import catalog, cli, eigenbound, fdlab, radial, viscosity

        counts = self.counts

        def wrap(module, attr, name, on_return=None):
            self.patch(module, attr, self.span(name, getattr(module, attr), on_return))

        wrap(cli, "main", "cli.main")
        for fn in _CATALOG_FUNCTIONS:
            wrap(catalog, fn, f"catalog.{fn}")
        make = catalog.make_nonlinearity

        def make_nonlinearity(*args, **kwargs):
            nl = make(*args, **kwargs)
            return dataclasses.replace(nl, f=self.span("nonlinearities.f", nl.f))

        self.patch(catalog, "make_nonlinearity", make_nonlinearity)

        wrap(viscosity, "verify", "viscosity.verify")
        wrap(viscosity, "candidate_hessian", "profiles.candidate_hessian")
        wrap(viscosity, "smallest_eigen_sum", "operators.smallest_eigen_sum")
        self.patch(viscosity, "scan_smooth_residuals",
                   self.count("viscosity.scan_points", viscosity.scan_smooth_residuals, len))

        def rk4_steps(args, run):
            counts["radial.rk4_steps"] += run.r.size - 1

        wrap(radial, "integrate_ivp", "radial.integrate_ivp", rk4_steps)
        wrap(radial, "quadrature_inverse", "radial.quadrature_inverse")
        wrap(radial, "quad", "radial.quad")
        wrap(radial, "residual_of_radial", "radial.residual_of_radial")
        wrap(radial, "run_to_csv", "radial.run_to_csv")

        def solve_counts(args, result):
            nx, ny = result.field.values.shape
            counts["fdlab.solves"] += 1
            counts["fdlab.iterations"] += result.iterations
            counts["fdlab.cell_updates"] += result.iterations * (nx - 2) * (ny - 2)

        def stencil_counts(args, result):
            counts["fdlab.stencil_bytes_computed"] += _stencil_bytes(args[0], args[2])

        wrap(fdlab, "solve_dirichlet", "fdlab.solve_dirichlet", solve_counts)
        wrap(fdlab, "min_curvature_array", "fdlab.min_curvature_array", stencil_counts)
        wrap(fdlab, "field_to_csv", "fdlab.field_to_csv")

        def grid_samples(args, report):
            counts["eigenbound.grid_samples"] += report.resolution ** 2

        wrap(eigenbound, "scan_inequality", "eigenbound.scan_inequality", grid_samples)
        wrap(eigenbound, "area_estimate", "eigenbound.area_estimate")
        wrap(eigenbound, "scan_to_csv", "eigenbound.scan_to_csv")
        wrap(eigenbound, "smallest_eigen_sum", "operators.smallest_eigen_sum")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds)."""
        n = len(self.name)
        if n == 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.busy, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        calls = np.bincount(name, weights=np.frombuffer(self.calls, dtype=np.int64),
                            minlength=len(self.names)).astype(np.int64)
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        return {nm: (int(calls[i]), float(self_s[i])) for i, nm in enumerate(self.names)}

    def layer_metrics(self, requests: int, output_bytes: int, overhead_s: float) -> dict:
        """Every per-layer metric, divided by the number of requests traced.

        overhead_s is already per request.
        """
        totals = self.totals()
        catalog_s = sum(totals.get(f"catalog.{fn}", (0, 0.0))[1] for fn in _CATALOG_FUNCTIONS)
        out = {}
        for metric, (unit, _) in PER_LAYER.items():
            span, _, kind = metric.rpartition(".")
            if metric == "trace.overhead_s":
                value = overhead_s
            elif metric == "catalog.self_s":
                value = catalog_s / requests
            elif metric == "cli.output_bytes":
                value = output_bytes / requests
            elif kind in ("calls", "self_s"):
                value = totals.get(span, (0, 0.0))[kind == "self_s"] / requests
            else:
                value = self.counts[metric] / requests
            out[metric] = {"value": value, "unit": unit}
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            calls=np.frombuffer(self.calls, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            busy=np.frombuffer(self.busy, dtype=float),
        )
