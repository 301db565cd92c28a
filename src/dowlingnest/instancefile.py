"""Loading problem instances from the JSON description format.

The schema shared by every command:

    {
      "n": 2,
      "group": {"abelian": [2, 2]} | {"cayley": [[...], ...]},
      "representation": {"characters": [[1,0],[0,1]]}
                      | {"matrices": {"1": [["-1","0"],["0","1"]], ...}},
      "names":  {"0,2": "H1", ...},          # optional display names
      "bounds": {"cap_lattice": 1000000,     # optional size caps
                 "cap_nested": 10000000}
    }

Rational matrix entries are integers or strings "p/q".
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import prod

from .arrangement import ProblemInstance
from .errors import InstanceError
from .groups import FiniteGroup, check_order_bound
from .reps import Representation


def parse_rational(value, where):
    """A matrix entry: a JSON integer stays an int, and only a "p/q"
    string becomes a Fraction, so `integer_form` reads integers directly."""
    if isinstance(value, bool):
        raise InstanceError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InstanceError(f"{where}: bad rational {value!r}") from exc
    raise InstanceError(f"{where}: expected int or 'p/q' string, got {value!r}")


def parse_group(data):
    if not isinstance(data, dict):
        raise InstanceError("group: expected an object")
    if "abelian" in data:
        factors = data["abelian"]
        if not isinstance(factors, list) or not all(
            type(d) is int and d > 0 for d in factors
        ):
            raise InstanceError("group.abelian: expected a list of positive integers")
        check_order_bound(prod(factors))  # before building an order^2 table
        return FiniteGroup.from_abelian(factors)
    if "cayley" in data:
        table = data["cayley"]
        if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
            raise InstanceError("group.cayley: expected a list of rows")
        check_order_bound(len(table))
        return FiniteGroup(table)
    raise InstanceError("group: needs either 'abelian' or 'cayley'")


def parse_representation(group, data):
    if not isinstance(data, dict):
        raise InstanceError("representation: expected an object")
    if "characters" in data:
        chars = data["characters"]
        if not isinstance(chars, list):
            raise InstanceError("representation.characters: expected a list")
        return Representation.from_characters(group, chars)
    if "matrices" in data:
        mats = data["matrices"]
        if not isinstance(mats, dict):
            raise InstanceError("representation.matrices: expected an object")
        parsed = {}
        for key, rows in mats.items():
            if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
                raise InstanceError(
                    f"representation.matrices[{key}]: expected a list of rows"
                )
            try:
                g = int(key)
            except ValueError as exc:
                raise InstanceError(
                    f"representation.matrices: key {key!r} is not an element id"
                ) from exc
            if not (0 <= g < group.order):
                raise InstanceError(
                    f"representation.matrices: element id {g} out of range"
                )
            parsed[g] = tuple(
                tuple(
                    parse_rational(x, f"representation.matrices[{key}][{i}][{j}]")
                    for j, x in enumerate(row)
                )
                for i, row in enumerate(rows)
            )
        return Representation.from_matrices(group, parsed)
    raise InstanceError("representation: needs 'characters' or 'matrices'")


def _object(data, key):
    """An optional JSON object member, {} when absent or null."""
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise InstanceError(f"{key}: expected an object")
    return value


def parse_instance(data, n_override=None, cap_lattice=None, cap_nested=None):
    if not isinstance(data, dict):
        raise InstanceError("instance: expected a JSON object")
    n = n_override if n_override is not None else data.get("n")
    group = parse_group(data.get("group"))
    rep = parse_representation(group, data.get("representation"))
    names = {}
    for key, name in _object(data, "names").items():
        try:
            elems = tuple(sorted(int(x) for x in key.split(",")))
        except ValueError as exc:
            raise InstanceError(f"names: bad subgroup key {key!r}") from exc
        names[elems] = str(name)
    bounds = _object(data, "bounds")
    return ProblemInstance(
        n,
        group,
        rep,
        names=names,
        cap_lattice=bounds.get("cap_lattice") if cap_lattice is None else cap_lattice,
        cap_nested=bounds.get("cap_nested") if cap_nested is None else cap_nested,
    )


def load_instance(path, **kwargs):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InstanceError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad syntax, bytes or depth
        raise InstanceError(f"{path}: invalid JSON: {exc}") from exc
    return parse_instance(data, **kwargs)
