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

from .fields import grad_modulus_exact, l1_norm_exact
from .groups import ExploredBall, GeneratedSystem, acting_group_elements, right_translations


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


def superadditivity_report(ball: ExploredBall, limit: int | None = None) -> dict:
    """Check growth(r) + growth(s) <= growth(r+s) over the valid range.

    On an incomplete window every pair with r+s inside the table is
    checked.  On a complete graph the sum is restricted to half the
    diameter, where stacking two disjoint balls is always possible.
    """
    table = growth_counts(ball)
    if limit is None:
        if ball.complete:
            limit = int(ball.dist.max()) // 2
        else:
            limit = table.shape[0]
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


def translation_maps(system: GeneratedSystem, ball: ExploredBall) -> tuple[list[list[int]], int, bool]:
    """Vertex maps of every group translation, with the stabilizer order.

    For a Cayley window the maps are the right translations; for a
    Schreier window they apply each acting group element to the orbit.
    Returns (maps, stabilizer_order, automorphic) where ``automorphic``
    records whether every map preserved the edge set.
    """
    if not ball.complete:
        raise ValueError("translation maps need a complete window")
    if system.kind == "cayley":
        maps = right_translations(system, ball)
        stab = 1
    elif system.kind == "schreier":
        elements = acting_group_elements(system)
        if len(elements) % ball.num_vertices != 0:
            raise ValueError("orbit size does not divide the acting group order")
        stab = len(elements) // ball.num_vertices
        maps = [[ball.index_of[g[pt]] for pt in ball.labels] for g in elements]
    else:
        raise ValueError(f"no translations for kind {system.kind!r}")
    automorphic = all(_is_automorphism(ball, m) for m in maps)
    return maps, stab, automorphic


def translation_report(
    system: GeneratedSystem,
    ball: ExploredBall,
    field: Mapping[int, Fraction],
    target_index: int,
    maps_stab: tuple[list[list[int]], int, bool] | None = None,
) -> dict:
    """Exact check that moving a field by one translation costs at most
    distance times its total gradient.

    ``target_index`` is the vertex the base is translated to.  The left
    side averages |f(translated) - f| over the whole acting group, one
    summand per group element, divided by the stabilizer order.
    """
    if maps_stab is None:
        maps_stab = translation_maps(system, ball)
    maps, stab, automorphic = maps_stab
    base = ball.base_index
    # left side: average over the group of |f(y . target) - f(y . base)|
    total = Fraction(0)
    for m in maps:
        total += abs(field.get(m[target_index], Fraction(0)) - field.get(m[base], Fraction(0)))
    lhs = Fraction(total, stab)
    grad_l1 = l1_norm_exact(grad_modulus_exact(ball, field))
    distance = int(ball.dist[target_index])
    rhs = distance * grad_l1
    return {
        "target": target_index,
        "distance": distance,
        "lhs": lhs,
        "grad_l1": grad_l1,
        "rhs": rhs,
        "stabilizer": stab,
        "automorphic": automorphic,
        "ok": (lhs <= rhs) if automorphic else None,
    }
