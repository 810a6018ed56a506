"""Deterministic corpora of test fields.

Every field is derived from a seed and a stream index through a seed
sequence, so a corpus is identical across runs, platforms and
backends.  Fields on an incomplete window are supported two
levels inside the horizon, where window quantities agree with the
ambient graph; zero sum corpora are only defined on complete windows.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .fields import zero_sum
from .groups import ExploredBall

#: Numerators are drawn from this range (zero is rerolled to one).
_NUM_RANGE = (-12, 13)
#: Denominators are drawn from 1 to this bound inclusive.
_DEN_MAX = 8
#: A field touches at most this many vertices.
_MAX_SUPPORT = 12


def field_pool(ball: ExploredBall) -> np.ndarray:
    """Vertices a corpus field may touch."""
    if ball.complete:
        return np.arange(ball.num_vertices, dtype=np.int64)
    pool = np.nonzero(ball.interior_within(1))[0].astype(np.int64)
    if pool.size == 0:
        raise ValueError(f"{ball.name}: window too shallow to host corpus fields")
    return pool


def _checked_pool(ball: ExploredBall, zero_mean: bool) -> np.ndarray:
    """:func:`field_pool`, checked for a zero mean corpus if one is asked for."""
    if zero_mean and not ball.complete:
        raise ValueError("zero mean corpora need a complete window")
    pool = field_pool(ball)
    if zero_mean and pool.size < 2:
        raise ValueError(f"{ball.name}: a zero mean field needs at least two vertices")
    return pool


def rational_fields(
    ball: ExploredBall,
    count: int,
    seed: int = 0,
    zero_mean: bool = False,
) -> list[dict[int, Fraction]]:
    """Sparse exact fields with small rational values."""
    pool = _checked_pool(ball, zero_mean)
    n = ball.num_vertices
    out = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        size = 1 + int(rng.integers(0, min(pool.size, _MAX_SUPPORT)))
        verts = rng.choice(pool, size=size, replace=False)
        field: dict[int, Fraction] = {}
        for v in sorted(int(x) for x in verts):
            num = int(rng.integers(*_NUM_RANGE))
            if num == 0:
                num = 1
            den = int(rng.integers(1, _DEN_MAX + 1))
            field[v] = Fraction(num, den)
        if zero_mean:
            mean = Fraction(sum(field.values(), Fraction(0)), n)
            field = {v: field.get(v, Fraction(0)) - mean for v in range(n)}
            field = {v: x for v, x in field.items() if x}
            # a draw that recentres to zero gives way to +1, -1 on two vertices
            field = field or {int(pool[0]): Fraction(1), int(pool[1]): Fraction(-1)}
        out.append(field)
    return out


def float_field(
    ball: ExploredBall,
    index: int,
    seed: int = 0,
    zero_mean: bool = False,
) -> np.ndarray:
    """Field ``index`` of the float corpus: the base spike at 0, then
    dense and spiky fields, alternating."""
    pool = _checked_pool(ball, zero_mean)
    n = ball.num_vertices
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    if index == 0:
        f = np.zeros(n)
        f[ball.base_index] = 1.0
    elif index % 2 == 1:
        mask = np.zeros(n, np.bool_)
        mask[pool] = True
        f = rng.standard_normal(n) * mask
    else:
        f = np.zeros(n)
        size = 1 + int(rng.integers(0, min(pool.size, 8)))
        verts = rng.choice(pool, size=size, replace=False)
        f[verts] = rng.standard_normal(size)
    if zero_mean:
        f = zero_sum(f)
    return f


def float_fields(
    ball: ExploredBall,
    count: int,
    seed: int = 0,
    zero_mean: bool = False,
) -> list[np.ndarray]:
    """Fields 0 to ``count`` - 1 of :func:`float_field`."""
    return [float_field(ball, i, seed, zero_mean) for i in range(count)]


def exact_rows(fields: list[dict[int, Fraction]]) -> list[tuple[int, int, str]]:
    """Flatten an exact corpus to (field, vertex, value) rows."""
    rows = []
    for i, field in enumerate(fields):
        for v in sorted(field):
            rows.append((i, v, str(field[v])))
    return rows


def float_rows(fields: list[np.ndarray]) -> list[tuple[int, int, str]]:
    """Flatten a float corpus to (field, vertex, value) rows, zeros skipped."""
    rows = []
    for i, f in enumerate(fields):
        for v in np.nonzero(f)[0]:
            rows.append((i, int(v), repr(float(f[v]))))
    return rows
