"""JSON instance descriptions.

A spec is a flat JSON object selecting a construction and its
parameters:

.. code-block:: json

    {"kind": "free_abelian", "rank": 2, "horizon": 6}
    {"kind": "cyclic", "n": 16, "horizon": 16}
    {"kind": "symmetric", "n": 4, "generators": "adjacent", "horizon": 10}
    {"kind": "permutation_action", "perms": [[1,0,2],[2,1,0],[0,2,1]],
     "base_point": 0, "horizon": 4}
    {"kind": "explicit", "vertices": 3, "edges": [[0,1],[1,2]]}

Optional keys: ``name`` (display override, a non-empty string),
``max_vertices`` (the budget of :func:`groupiso.groups.explore`, on
vertices and on moves applied; default ``groups._MAX_VERTICES``), for
explicit graphs
``horizon``, for ``symmetric`` ``generators`` and for
``permutation_action`` ``base_point``; any other key is an error.  A
spec whose generators alone break the budget (``free_abelian``,
``free_group``, ``hypercube`` and ``symmetric``, whose generator counts
are closed forms) fails with the error exploring it would raise, before
its generators are built.
Catalogue entries are specs of this form too
(:func:`groupiso.catalogue.spec`), so :func:`build_from_spec`, the one
builder, builds both; but a catalogue name is not a spec file, and the
command line takes it with ``--instance``, not ``--spec``.  The window
it returns carries its generated system as ``ball.system``, None for an
explicit graph.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import groups
from .groups import ExploredBall, ResourceCapError

#: kind -> (required keys, optional keys of that kind alone, constructor of
#: the generated system); explicit graphs have no system
_KINDS = {
    "free_abelian": (("rank",), (), lambda s: groups.free_abelian(s["rank"])),
    "free_group": (("rank",), (), lambda s: groups.free_group(s["rank"])),
    "heisenberg": ((), (), lambda s: groups.heisenberg()),
    "cyclic": (("n",), (), lambda s: groups.cyclic(s["n"])),
    "dihedral": (("n",), (), lambda s: groups.dihedral(s["n"])),
    "hypercube": (("dim",), (), lambda s: groups.hypercube(s["dim"])),
    "symmetric": (
        ("n",),
        ("generators",),
        lambda s: groups.symmetric_group(s["n"], s.get("generators", "transpositions")),
    ),
    "permutation_action": (
        ("perms",),
        ("base_point",),
        lambda s: groups.permutation_action(
            s.get("name", "permutation_action"), s["perms"], s.get("base_point", 0)
        ),
    ),
    "explicit": (("vertices", "edges"), (), lambda s: None),
}
#: keys every kind takes
_COMMON = ("kind", "name", "horizon", "max_vertices")

#: kind -> (system name, generator count) in closed form, for the kinds
#: whose generator list grows with a parameter; each generator is
#: distinct and none is the identity.
_GENERATORS = {
    "free_abelian": lambda s: (f"free_abelian_{s['rank']}", 2 * s["rank"]),
    "free_group": lambda s: (f"free_group_{s['rank']}", 2 * s["rank"]),
    "hypercube": lambda s: (f"hypercube_{s['dim']}", s["dim"]),
    "symmetric": lambda s: {
        "transpositions": (f"symmetric_{s['n']}_transpositions", s["n"] * (s["n"] - 1) // 2),
        "adjacent": (f"symmetric_{s['n']}_adjacent", s["n"] - 1),
    }[s.get("generators", "transpositions")],
}


def load_spec(path: str | Path) -> dict:
    """Read a spec file; its keys are validated when it is built."""
    with open(path) as fh:
        spec = json.load(fh)
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: a spec must be a JSON object")
    return spec


def validate_spec(spec: dict) -> None:
    if not isinstance(spec, dict):
        raise ValueError("spec must be a JSON object")
    kind = spec.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}; known: {', '.join(sorted(_KINDS))}")
    required, optional, _ = _KINDS[kind]
    for key in required:
        if key not in spec:
            raise ValueError(f"kind {kind!r} requires {key!r}")
    known = (*_COMMON, *required, *optional)
    unknown = [key for key in spec if key not in known]
    if unknown:
        raise ValueError(
            f"kind {kind!r} takes no key {', '.join(map(repr, unknown))}; known: {', '.join(known)}"
        )
    if kind != "explicit" and "horizon" not in spec:
        raise ValueError(f"kind {kind!r} requires a horizon")
    for key in ("horizon", "rank", "n", "dim", "vertices", "max_vertices"):
        if key in spec and not _is_count(spec[key]):
            raise ValueError(f"{key} must be a positive integer")
    if "name" in spec and not (isinstance(spec["name"], str) and spec["name"]):
        raise ValueError("name must be a non-empty string")
    if kind == "symmetric" and spec.get("generators", "transpositions") not in ("transpositions", "adjacent"):
        raise ValueError('generators must be "transpositions" or "adjacent"')
    if kind == "permutation_action":
        perms = spec["perms"]
        size = len(perms[0]) if isinstance(perms, list) and perms and isinstance(perms[0], list) else 0
        if not size or not all(_is_int_list(p) and sorted(p) == list(range(size)) for p in perms):
            raise ValueError("perms must be a non-empty list of permutations of 0..n-1, one n for all")
        base = spec.get("base_point", 0)
        if type(base) is not int or not 0 <= base < size:
            raise ValueError(f"base_point must be an integer in 0..{size - 1}")
    if kind == "explicit":
        edges = spec["edges"]
        if not (isinstance(edges, list) and all(_is_int_list(e) and len(e) == 2 for e in edges)):
            raise ValueError("edges must be a list of integer pairs")


def _is_count(value) -> bool:
    # bool is an int subclass, but true is no count
    return type(value) is int and value >= 1


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(x) is int for x in value)


def build_from_spec(spec: dict) -> ExploredBall:
    """Explore the instance a spec describes; the window keeps its system
    (None for an explicit graph)."""
    validate_spec(spec)
    max_vertices = spec.get("max_vertices", groups._MAX_VERTICES)
    count = _GENERATORS.get(spec["kind"])
    if count is not None:
        # the generators alone can cost more than the budget allows; fail
        # as exploring would, before building them
        groups.check_first_levels(*count(spec), max_vertices)
    system = _KINDS[spec["kind"]][2](spec)
    if system is None:
        name = spec.get("name", "explicit")
        if spec["vertices"] > max_vertices:
            raise ResourceCapError(f"{name}: {spec['vertices']} vertices exceed the budget of {max_vertices}")
        edges = [tuple(e) for e in spec["edges"]]
        return groups.ball_from_edges(name, spec["vertices"], edges, horizon=spec.get("horizon"))
    ball = groups.explore(system, spec["horizon"], max_vertices)
    if "name" in spec:
        ball.name = spec["name"]
    return ball
