"""Growth counts, radius selectors, and translation bounds.

Open balls are counted with a strict inequality: the growth value at
radius r is the number of vertices at distance < r from the base, so the
first entry (r = 1) is always 1.  A window explored out to horizon R
determines the growth table for r = 1 .. R+1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

import numpy as np

from .fields import _scaled, grad_modulus_exact, l1_norm_exact
from .groups import ExploredBall


def growth_counts(ball: ExploredBall) -> np.ndarray:
    """Growth table: entry r-1 holds the count of vertices at distance < r."""
    counts = np.bincount(ball.dist, minlength=ball.horizon + 1)
    return np.cumsum(counts[: ball.horizon + 1])


def growth_value(ball: ExploredBall, r: int) -> int:
    """Growth at integer radius r, extended past the table on a complete window."""
    if r < 1:
        return 0
    table = growth_counts(ball)
    if r <= table.shape[0]:
        return int(table[r - 1])
    if ball.complete:
        return ball.num_vertices
    raise ValueError(f"radius {r} is beyond the explored horizon")


def superadditivity_report(ball: ExploredBall) -> dict:
    """Check growth(r) + growth(s) <= growth(r+s) over the valid range.

    On an incomplete window every pair with r+s inside the table is
    checked.  On a complete graph the sum is restricted to half the
    largest distance from the base, where stacking two disjoint balls is
    always possible.  That radius is half the diameter on a Cayley
    window, which looks the same from every vertex, but not on every
    graph: a star based at its centre has radius 1 and diameter 2.
    """
    table = growth_counts(ball)
    limit = int(ball.dist.max()) // 2 if ball.complete else table.shape[0]
    pairs = []
    all_ok = True
    for r in range(1, limit + 1):
        for s in range(r, limit - r + 1):
            lhs = int(table[r - 1]) + int(table[s - 1])
            rhs = growth_value(ball, r + s)
            ok = lhs <= rhs
            all_ok = all_ok and ok
            pairs.append({"r": r, "s": s, "lhs": lhs, "rhs": rhs, "ok": ok})
    return {"name": ball.name, "limit": limit, "pairs": pairs, "all_ok": all_ok}


def mass_radius(ball: ExploredBall, k: int) -> int | None:
    """Least integer radius whose open ball holds at least k vertices.

    Returns None when the window is too small to decide.
    """
    if k < 1:
        raise ValueError("mass must be positive")
    table = growth_counts(ball)
    hit = np.nonzero(table >= k)[0]
    if hit.size:
        return int(hit[0]) + 1
    if ball.complete and k <= ball.num_vertices:
        return int(ball.dist.max()) + 1
    return None


def half_mass_radius(ball: ExploredBall, k: int) -> int | None:
    """Least integer radius whose open ball holds at least 2k vertices.

    This is the selector used on complete graphs, where only sets up to
    half the total mass are constrained by their boundary.
    """
    if not ball.complete:
        raise ValueError("half mass selector requires a complete window")
    if 2 * k > ball.num_vertices:
        return None
    return mass_radius(ball, 2 * k)


# ---------------------------------------------------------------------------
# Translation bounds


def _is_automorphism(ball: ExploredBall, image: list[int]) -> bool:
    image = np.asarray(image, np.int64)
    n = ball.num_vertices
    if not np.array_equal(np.sort(image), np.arange(n)):
        return False
    # the CSR keys rows*n + indices are sorted; a bijection keeps them distinct
    keys = ball.rows * n + ball.indices
    return np.array_equal(np.sort(image[ball.rows] * n + image[ball.indices]), keys)


def _least_in_component(n: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Least vertex of each vertex's component, in the graph on 0..n-1
    with edges tails[i]-heads[i]."""
    root = np.arange(n, dtype=tails.dtype)
    while not np.array_equal(root[tails], root[heads]):
        low = np.minimum(root[tails], root[heads])
        np.minimum.at(root, root[tails], low)
        np.minimum.at(root, root[heads], low)
        # root[v] <= v throughout, so jumping to the root's root settles
        while not np.array_equal(root, root[root]):
            root = root[root]
    return root


def translation_maps(ball: ExploredBall) -> tuple[np.ndarray, bool]:
    """Orbitals of the pairs (base, t) under the translations of a
    complete window, and whether the translations are automorphisms.

    The translations are generated by one vertex map per move of
    ``ball.system``: right multiplication by ``move(base)`` on a Cayley
    window, the move itself on a Schreier window; a window with no
    system (an explicit graph) raises ValueError.  A breadth first walk
    under them carries the pairs along: reaching y = p(x) first labels
    (y, p(z)) like (x, z), and a later arrival merges the labels it
    meets.  Returns (orbital, automorphic): ``orbital[x, y]`` is the
    least t with (base, t) in the orbit of (x, y); ``automorphic`` says
    whether every generator, hence (automorphisms form a group) every
    translation, preserves the edges.
    """
    system, labels = ball.system, ball.labels
    if system is None:
        raise ValueError("translation maps need a generated system; an explicit window has none")
    if not ball.complete:
        raise ValueError("translation maps need a complete window")
    if system.kind == "cayley":
        images = [[system.multiply(a, move(system.base)) for a in labels] for move in system.moves]
    else:
        images = [list(map(move, labels)) for move in system.moves]
    idx = ball.index_of
    perms = np.array([[idx[v] for v in image] for image in images], np.int32)
    automorphic = all(_is_automorphism(ball, p) for p in perms)
    n, base = ball.num_vertices, ball.base_index
    orbital = np.full((n, n), -1, np.int32)
    orbital[base] = np.arange(n)
    order = [base]
    # labels found to name one orbital, one array pair per later arrival
    tails, heads = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    for x in order:
        row = orbital[x]
        for p, y in zip(perms, perms[:, x].tolist()):
            if orbital[y, 0] < 0:  # the first arrival at y
                order.append(y)
                orbital[y, p] = row
            else:
                met = orbital[y, p]
                differ = met != row
                tails.append(met[differ])
                heads.append(row[differ])
    tails, heads = np.concatenate(tails), np.concatenate(heads)
    if tails.size:
        orbital = _least_in_component(n, tails, heads)[orbital]
    return orbital, automorphic


def translation_report(
    ball: ExploredBall, field: Mapping[int, Fraction], orbitals: tuple[np.ndarray, bool]
) -> dict:
    """Exact check that moving a field by any translation costs at most
    distance times its total gradient.

    Row t is the translation that takes the base to vertex t.  Its left
    side, the mean of |f(g . t) - f(g . base)| over the acting group
    divided by the stabilizer order, equals n/|O| times the sum of
    |f(y) - f(x)| over the orbital O of (base, t); only pairs with an
    end in the support of f add to that sum.  ``orbitals`` is what
    :func:`translation_maps` returns on the window; build it once for
    every field checked there.
    """
    orbital, automorphic = orbitals
    grad_l1 = l1_norm_exact(grad_modulus_exact(ball, field))
    n = ball.num_vertices
    den, scaled = _scaled(field)
    num = [scaled.get(v, 0) for v in range(n)]
    inside = np.zeros(n, np.bool_)
    inside[list(field)] = True
    support, outside = np.flatnonzero(inside), np.flatnonzero(~inside)
    # the rows of the support, then its columns outside those rows
    xs = np.concatenate([np.repeat(support, n), np.repeat(outside, support.size)])
    ys = np.concatenate([np.tile(np.arange(n), support.size), np.tile(support, outside.size)])
    sums = [0] * n
    for o, x, y in zip(orbital[xs, ys].tolist(), xs.tolist(), ys.tolist()):
        sums[o] += abs(num[y] - num[x])
    # an orbital O holds |O| / n pairs (base, y)
    at_base = orbital[ball.base_index].tolist()
    share = np.bincount(at_base, minlength=n).tolist()
    rows = []
    for target, o in enumerate(at_base):
        lhs = Fraction(sums[o], den * share[o])
        distance = int(ball.dist[target])
        rhs = distance * grad_l1
        ok = (lhs <= rhs) if automorphic else None
        rows.append({"target": target, "distance": distance, "lhs": lhs, "rhs": rhs, "ok": ok})
    return {
        "rows": rows,
        "grad_l1": grad_l1,
        "automorphic": automorphic,
        "ok": all(r["ok"] for r in rows) if automorphic else None,
    }
