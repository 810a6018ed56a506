"""Named instances for tests, benchmarks, and the command line.

Each entry is a spec (see :mod:`groupiso.specio`); :func:`build`
explores it to its catalogue horizon, and the window carries its
generated system as ``ball.system``.
"""

from __future__ import annotations

from functools import lru_cache

from . import groups, specio

_SPECS = {
    "z": {"kind": "free_abelian", "rank": 1, "horizon": 8},
    "z2": {"kind": "free_abelian", "rank": 2, "horizon": 6},
    "z3": {"kind": "free_abelian", "rank": 3, "horizon": 6},
    "f2": {"kind": "free_group", "rank": 2, "horizon": 6},
    "heisenberg": {"kind": "heisenberg", "horizon": 8},
    "c6": {"kind": "cyclic", "n": 6, "horizon": 8},
    "c8": {"kind": "cyclic", "n": 8, "horizon": 8},
    "c12": {"kind": "cyclic", "n": 12, "horizon": 12},
    "c16": {"kind": "cyclic", "n": 16, "horizon": 16},
    "c32": {"kind": "cyclic", "n": 32, "horizon": 32},
    "c64": {"kind": "cyclic", "n": 64, "horizon": 64},
    "q3": {"kind": "hypercube", "dim": 3, "horizon": 4},
    "q4": {"kind": "hypercube", "dim": 4, "horizon": 5},
    "q6": {"kind": "hypercube", "dim": 6, "horizon": 8},
    "d4": {"kind": "dihedral", "n": 4, "horizon": 8},
    "d8": {"kind": "dihedral", "n": 8, "horizon": 10},
    "s3": {"kind": "symmetric", "n": 3, "horizon": 6},
    "s4": {"kind": "symmetric", "n": 4, "generators": "adjacent", "horizon": 10},
    "s3_points": {
        "kind": "permutation_action",
        "name": "s3_points",
        "perms": [[1, 0, 2], [2, 1, 0], [0, 2, 1]],
        "horizon": 4,
    },
    "s4_points": {
        "kind": "permutation_action",
        "name": "s4_points",
        "perms": [[1, 0, 2, 3], [2, 1, 0, 3], [3, 1, 2, 0],
                  [0, 2, 1, 3], [0, 3, 2, 1], [0, 1, 3, 2]],
        "horizon": 4,
    },
}


def names() -> list[str]:
    return sorted(_SPECS)


def spec(name: str) -> dict:
    """A fresh copy of the spec of a named instance."""
    try:
        return dict(_SPECS[name])
    except KeyError:
        raise KeyError(f"unknown instance {name!r}; known: {', '.join(names())}") from None


@lru_cache(maxsize=None)
def build(name: str) -> groups.ExploredBall:
    """Explore a named instance to its catalogue horizon, memoized per name."""
    return specio.build_from_spec(spec(name))
