"""Dump what the CLI prints for the benchmark's request streams.

    python3 scripts/cli_outputs.py --src PATH --workload W --seeds A-B --rounds N

Sends every request of rounds 0 to N-1 of workload W under each seed A to B
(``perfbench/streams.py``) to ``trunclap.cli.main``, in-process, with the
``trunclap`` package imported from PATH (the ``src`` directory of a
checkout).  Writes one JSON line per request to stdout: the argv, the exit
code, stdout and stderr.  Requests that have no command line (argv None)
are skipped.  Dumps made from two checkouts compare with ``cmp``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import streams  # noqa: E402


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def _run(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="directory holding the trunclap package")
    parser.add_argument("--workload", required=True, choices=streams.WORKLOADS)
    parser.add_argument("--seeds", required=True, type=_seeds, help="A-B, or one seed")
    parser.add_argument("--rounds", required=True, type=int)
    args = parser.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import trunclap
    from trunclap import cli

    if not Path(trunclap.__file__).resolve().is_relative_to(src):
        sys.exit(f"cli_outputs: imported {trunclap.__file__}, not the copy under {src}")
    for seed in args.seeds:
        for index in range(args.rounds):
            for request in streams.make_round(args.workload, seed, index):
                if request.argv is not None:
                    print(json.dumps(_run(cli, request.argv), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
