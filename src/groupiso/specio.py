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

Optional keys: ``name`` (display override), ``max_vertices`` (budget),
and for explicit graphs ``horizon``.  Catalogue names can be used
wherever a spec file is accepted.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import groups
from .groups import ExploredBall, GeneratedSystem

_KINDS = {
    "free_abelian": ("rank",),
    "free_group": ("rank",),
    "heisenberg": (),
    "cyclic": ("n",),
    "dihedral": ("n",),
    "hypercube": ("dim",),
    "symmetric": ("n",),
    "permutation_action": ("perms",),
    "explicit": ("vertices", "edges"),
}


def load_spec(path: str | Path) -> dict:
    with open(path) as fh:
        spec = json.load(fh)
    validate_spec(spec)
    return spec


def validate_spec(spec: dict) -> None:
    if not isinstance(spec, dict):
        raise ValueError("spec must be a JSON object")
    kind = spec.get("kind")
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}; known: {', '.join(sorted(_KINDS))}")
    for key in _KINDS[kind]:
        if key not in spec:
            raise ValueError(f"kind {kind!r} requires {key!r}")
    if kind != "explicit" and "horizon" not in spec:
        raise ValueError(f"kind {kind!r} requires a horizon")
    for key in ("horizon", "rank", "n", "dim", "vertices", "max_vertices"):
        if key in spec and not _is_count(spec[key]):
            raise ValueError(f"{key} must be a positive integer")
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


def system_from_spec(spec: dict) -> GeneratedSystem | None:
    """The generated system behind a spec; None for explicit graphs."""
    validate_spec(spec)
    kind = spec["kind"]
    if kind == "free_abelian":
        return groups.free_abelian(spec["rank"])
    if kind == "free_group":
        return groups.free_group(spec["rank"])
    if kind == "heisenberg":
        return groups.heisenberg()
    if kind == "cyclic":
        return groups.cyclic(spec["n"])
    if kind == "dihedral":
        return groups.dihedral(spec["n"])
    if kind == "hypercube":
        return groups.hypercube(spec["dim"])
    if kind == "symmetric":
        return groups.symmetric_group(spec["n"], spec.get("generators", "transpositions"))
    if kind == "permutation_action":
        return groups.permutation_action(
            spec.get("name", "permutation_action"),
            [tuple(p) for p in spec["perms"]],
            spec.get("base_point", 0),
        )
    return None


def build_from_spec(spec: dict, horizon: int | None = None) -> ExploredBall:
    """Explore the instance a spec describes."""
    validate_spec(spec)
    if spec["kind"] == "explicit":
        ball = groups.ball_from_edges(
            spec.get("name", "explicit"),
            spec["vertices"],
            [tuple(e) for e in spec["edges"]],
            horizon=horizon if horizon is not None else spec.get("horizon"),
        )
        return ball
    system = system_from_spec(spec)
    hz = horizon if horizon is not None else spec["horizon"]
    ball = groups.explore(system, hz, spec.get("max_vertices", 500_000))
    if "name" in spec:
        ball.name = spec["name"]
    return ball
