"""trunclap benchmark: one closed-loop client driving ``trunclap.cli.main`` in-process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; the program is imported from the
checkout's own ``src``.  The client sends one request, waits for it, checks
the output against an independent reference (``checks.py``) and only then
sends the next.  Requests come in whole rounds of a fixed make-up
(``streams.py``); the run stops at the first round boundary after the
requests have been busy for ``--seconds``.  Checking time is not counted.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of ``tracing.py`` with ``--trace 1``.
"""

from __future__ import annotations

import os

# one thread for every BLAS and OpenMP pool, before NumPy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import streams  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
#: No new round starts after this much wall time, whatever --seconds says.
WALL_LIMIT_S = 120.0
_START = time.perf_counter()


def process_age() -> float:
    """Seconds since this process started (falls back to since this file loaded)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _START


def import_program():
    """trunclap.cli from this checkout's src, refusing any other copy."""
    if not (SRC / "trunclap" / "__init__.py").is_file():
        sys.exit(f"benchmark: no trunclap sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import trunclap
    from trunclap import cli

    if not Path(trunclap.__file__).resolve().is_relative_to(ROOT):
        sys.exit(f"benchmark: imported {trunclap.__file__}, not this checkout's copy")
    return cli


class Client:
    """Sends one request at a time and returns (latency, result)."""

    def __init__(self, cli):
        self.cli = cli
        self.output_bytes = 0

    def _call_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        text = out.getvalue()
        self.output_bytes += len(text.encode())
        if rc != 0:
            print(f"exit {rc} for {' '.join(argv)}: {err.getvalue().strip()}", file=sys.stderr)
        return rc, text

    @staticmethod
    def _solve_pair(params):
        from trunclap import catalog, fdlab

        nl = catalog.make_nonlinearity(params["reaction"])
        cfg = fdlab.SolveConfig(box=params["box"], h=params["h"], radius=params["radius"])
        g_lo, g_hi = streams.pair_boundaries(params["coeff"])
        return 0, (fdlab.solve_dirichlet(nl, g_lo, cfg), fdlab.solve_dirichlet(nl, g_hi, cfg),
                   g_lo, g_hi)

    def send(self, request):
        t0 = time.perf_counter()
        try:
            if request.argv is None:
                rc, result = self._solve_pair(request.params)
            else:
                rc, result = self._call_cli(request.argv)
        except Exception:  # the program crashed: count the request as failed
            traceback.print_exc()
            rc, result = -1, None
        return time.perf_counter() - t0, rc, result


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def record(self, request, latency, rc, result, check) -> None:
        self.latencies.append(latency)
        self.attempted += 1
        problems = check(request, result) if result is not None else []
        if problems:
            self.correct = False
            print(f"wrong output for {request.argv or request.params}: {problems[:3]}",
                  file=sys.stderr)
        if rc != 0 or result is None or problems:
            self.failed += 1


def run_rounds(client, workload, seed, seconds, tally, check, limit=None):
    """Whole rounds from round 0 until the requests were busy ``seconds``.

    At least one round runs; ``limit`` caps the number of rounds.
    """
    busy = 0.0
    index = 0
    round_times = []
    while (index == 0 or busy < seconds) and (limit is None or index < limit):
        if index > 0 and process_age() > WALL_LIMIT_S:
            print("benchmark: wall-time limit reached, stopping early", file=sys.stderr)
            break
        spent = 0.0
        for request in streams.make_round(workload, seed, index):
            latency, rc, result = client.send(request)
            spent += latency
            tally.record(request, latency, rc, result, check)
        round_times.append(spent)
        busy += spent
        index += 1
    return busy, round_times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    client = Client(cli)
    warmups = [(req, client.send(req)) for req in streams.warmup(args.workload)]
    setup_s = process_age()

    import checks

    tally = Tally()
    for request, (_, rc, result) in warmups:
        problems = checks.check(request, result) if result is not None else ["raised"]
        if rc != 0 or problems:
            tally.correct = False
            print(f"warm-up {request.argv} failed: rc={rc} {problems[:3]}", file=sys.stderr)

    if not args.trace:
        busy, _ = run_rounds(client, args.workload, args.seed, args.seconds, tally, checks.check)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "requests_per_s": {"value": tally.attempted / busy, "unit": "req/s"},
            "latency_p50_ms": {"value": 1000.0 * statistics.median(tally.latencies), "unit": "ms"},
            "peak_rss_mib": {"value": rss_kib / 1024.0, "unit": "MiB"},
        }
    else:
        import tracing

        # the overhead compares round 0 traced with round 0 untraced, run once
        # before and once after the traced rounds to even out drift
        _, (before,) = run_rounds(client, args.workload, args.seed, 0.0, tally, checks.check,
                                  limit=1)
        tracer = tracing.Tracer()
        tracer.install()
        traced = Tally()
        client.output_bytes = 0
        original_send = client.send

        def send(request):
            tracer.request_id += 1
            return original_send(request)

        client.send = send
        try:
            _, round_times = run_rounds(client, args.workload, args.seed, args.seconds, traced,
                                        checks.check)
        finally:
            tracer.uninstall()
            client.send = original_send
        traced_bytes = client.output_bytes
        _, (after,) = run_rounds(client, args.workload, args.seed, 0.0, tally, checks.check,
                                 limit=1)
        round_size = len(streams.make_round(args.workload, args.seed, 0))
        overhead = (round_times[0] - 0.5 * (before + after)) / round_size
        metrics = tracer.layer_metrics(traced.attempted, traced_bytes, overhead)
        totals = tracer.totals()
        stencil_calls = totals.get("fdlab.min_curvature_array", (0, 0.0))[0]
        iterations = tracer.counts["fdlab.iterations"] + tracer.counts["fdlab.solves"]
        if stencil_calls != iterations:
            tally.correct = False
            print(f"stencil calls {stencil_calls} != iterations + solves {iterations}",
                  file=sys.stderr)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
        tally.attempted += traced.attempted
        tally.failed += traced.failed
        tally.correct = tally.correct and traced.correct

    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
