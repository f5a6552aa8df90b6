"""Named candidates, reactions, and boundary data, plus expected verdicts.

Names are stable strings used by the CLI and the reports:

* candidates: ``halfline-tanh``, ``plain-tanh``, ``zero``,
  ``tanh-shifted:<c>``, ``radial-closed:<alpha>,<k>``;
* reactions: ``allen-cahn``, ``power:<a>,<b>,<gamma>``;
* 2D boundary data: ``zero``, ``halfline-tanh-y``, ``plain-tanh-y``,
  ``tanh-shifted-y:<c>``.

The expected-verdict table ships as a versioned data file so that a
negative control failing in exactly the catalogued way still counts as a
match at the command line.
"""

from __future__ import annotations

import importlib.resources
import json
import math

from .nonlinearities import Nonlinearity, allen_cahn, power_law
from .profiles import (
    Candidate,
    Profile1D,
    halfline_tanh,
    plain_tanh,
    radial_closed_form,
    tanh_shifted,
    zero_profile,
)

_MAX_RADIAL_HEIGHT = 1.0 / math.sqrt(3.0)


class UnknownNameError(KeyError):
    """A catalog lookup used a name the catalog does not define."""


def candidate_names() -> list[str]:
    return [
        "halfline-tanh",
        "plain-tanh",
        "zero",
        "tanh-shifted:<c>",
        "radial-closed:<alpha>,<k>",
    ]


def nonlinearity_names() -> list[str]:
    return ["allen-cahn", "power:<a>,<b>,<gamma>"]


def boundary_names() -> list[str]:
    return ["zero", "halfline-tanh-y", "plain-tanh-y", "tanh-shifted-y:<c>"]


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise UnknownNameError(f"{what} needs {count} comma-separated numbers, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise UnknownNameError(f"bad number in {what} {text!r}") from exc


def make_nonlinearity(name: str) -> Nonlinearity:
    if name == "allen-cahn":
        return allen_cahn()
    if name.startswith("power:"):
        a, b, gamma = _parse_floats(name[len("power:"):], 3, "power reaction")
        return power_law(a, b, gamma)
    raise UnknownNameError(f"unknown reaction {name!r}")


def _profile_for(name: str) -> tuple[Profile1D, str]:
    """Profile plus candidate kind for a catalog name."""
    if name == "halfline-tanh":
        return halfline_tanh(), "one_dimensional"
    if name == "plain-tanh":
        return plain_tanh(), "one_dimensional"
    if name == "zero":
        return zero_profile(), "one_dimensional"
    if name.startswith("tanh-shifted:"):
        (c,) = _parse_floats(name[len("tanh-shifted:"):], 1, "shift")
        return tanh_shifted(c), "one_dimensional"
    if name.startswith("radial-closed:"):
        alpha, kf = _parse_floats(name[len("radial-closed:"):], 2, "radial parameters")
        k = int(kf)
        if k != kf:
            raise UnknownNameError(f"radial index must be an integer, got {kf}")
        return radial_closed_form(alpha, k), "radial"
    raise UnknownNameError(f"unknown candidate {name!r}")


def make_candidate(
    name: str, ambient_dim: int, op_index: int, nonlinearity: Nonlinearity | None = None
) -> Candidate:
    profile, kind = _profile_for(name)
    if nonlinearity is None:
        nonlinearity = allen_cahn()
    return Candidate(kind, profile, ambient_dim, op_index, nonlinearity)


def make_boundary(name: str):
    """2D Dirichlet data g(x, y) by name."""
    if name == "zero":
        return lambda x, y: 0.0
    if name == "halfline-tanh-y":
        prof = halfline_tanh()
        return lambda x, y: float(prof.value(y))
    if name == "plain-tanh-y":
        prof = plain_tanh()
        return lambda x, y: float(prof.value(y))
    if name.startswith("tanh-shifted-y:"):
        (c,) = _parse_floats(name[len("tanh-shifted-y:"):], 1, "shift")
        prof = tanh_shifted(c)
        return lambda x, y: float(prof.value(y))
    raise UnknownNameError(f"unknown boundary data {name!r}")


def _load_table() -> dict:
    source = importlib.resources.files("trunclap").joinpath(
        "data/expected_verdicts.json"
    )
    return json.loads(source.read_text())


def expected_verdict(
    name: str, ambient_dim: int, op_index: int, reaction: str = "allen-cahn"
) -> dict | None:
    """Expected (subsolution, supersolution, solution) booleans, if recorded.

    Returns None when the table makes no claim for the given parameters,
    e.g. a radial candidate driven with a mismatched operator index.  The
    table is recorded for the ``allen-cahn`` reaction only.
    """
    if reaction != "allen-cahn":
        return None
    table = _load_table()
    if name in table["exact"]:
        return dict(table["exact"][name])
    for family in table["families"]:
        if not name.startswith(family["prefix"]):
            continue
        rest = name[len(family["prefix"]):]
        condition = family["condition"]
        if condition == "positive-shift":
            (c,) = _parse_floats(rest, 1, "shift")
            if c > 0.0:
                return dict(family["verdict"])
        elif condition == "zero-shift":
            (c,) = _parse_floats(rest, 1, "shift")
            if c == 0.0:
                return dict(family["verdict"])
        elif condition == "matched-index-and-admissible-height":
            alpha, kf = _parse_floats(rest, 2, "radial parameters")
            if (
                int(kf) == op_index
                and op_index <= ambient_dim - 1
                and 0.0 < alpha <= _MAX_RADIAL_HEIGHT + 1e-15
            ):
                return dict(family["verdict"])
    return None


def table_version() -> int:
    return int(_load_table()["version"])


def catalog_listing() -> dict:
    return {
        "expected_verdicts_version": table_version(),
        "candidates": candidate_names(),
        "nonlinearities": nonlinearity_names(),
        "boundaries": boundary_names(),
    }
