"""Discrete calculus on explored windows.

Two layers share the same graph: an exact layer for identities, where a
field is a sparse mapping from vertex index to Fraction (absent vertices
are zero), and a float layer for optimization and norm sweeps, where a
field is a dense float64 array.  The float reports take a field as a
:class:`FloatField` and a weight as a :class:`WeightPowers`; each
gradient and unweighted norm of a field is computed once, however many
reports read it.  A float field is computed on its :class:`LivePart`
only, the vertices where it or its gradient can be nonzero, and each of
its sums is reduced over a window-length array, as the dense field's
would be, so that the bits do not depend on how much of the window the
field leaves out.

Every exact check is decided on Python ints: the field is scaled once to
integer numerators over the least common denominator of its values, and
a ``Fraction`` is built only for what a function returns.

The gradient modulus at a vertex is the sum of |f(v) - f(n)| over the
neighbors n of v.  On an incomplete window it is faithful only at
interior vertices; identities stated per window treat the window as a
finite graph in its own right.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import kernels
from .groups import ExploredBall, _unique
from .isoperimetry import set_perimeter

ExactField = Mapping[int, Fraction]

#: Relative float slack of every float report verdict.
RTOL = 1e-9


# ---------------------------------------------------------------------------
# Exact layer


def _scaled(field: ExactField) -> tuple[int, dict[int, int]]:
    """``(den, num)`` with ``field[v] == num[v] / den``: the values as
    integer numerators over their least common denominator."""
    den = math.lcm(*(x.denominator for x in field.values()))
    return den, {v: x.numerator * (den // x.denominator) for v, x in field.items()}


def grad_modulus_exact(ball: ExploredBall, field: ExactField) -> dict[int, Fraction]:
    """Gradient modulus of a sparse exact field, on its closed support."""
    den, num = _scaled(field)
    indptr, indices = ball.indptr, ball.indices
    touched = set(num)
    for v in num:
        touched.update(indices[indptr[v] : indptr[v + 1]].tolist())
    out: dict[int, Fraction] = {}
    for v in touched:
        fv = num.get(v, 0)
        acc = sum(abs(fv - num.get(w, 0)) for w in indices[indptr[v] : indptr[v + 1]].tolist())
        if acc:
            out[v] = Fraction(acc, den)
    return out


def l1_norm_exact(field: ExactField) -> Fraction:
    den, num = _scaled(field)
    return Fraction(sum(map(abs, num.values())), den)


def coarea_report(ball: ExploredBall, field: ExactField) -> dict:
    """Exact layer cake identity on the window graph.

    The total gradient of |f| equals the perimeter of each superlevel set
    weighted by the gap between consecutive distinct values of |f|.
    """
    absf = {v: abs(x) for v, x in field.items() if x}
    lhs = l1_norm_exact(grad_modulus_exact(ball, absf))
    den, num = _scaled(absf)
    total = prev = 0
    layers = []
    for t in sorted(set(num.values())):
        level = [v for v, x in num.items() if x >= t]
        perim = set_perimeter(ball, level)
        total += (t - prev) * perim
        layers.append({"threshold": Fraction(t, den), "size": len(level), "perimeter": perim})
        prev = t
    rhs = Fraction(total, den)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs == rhs, "layers": layers}


def median_exact(ball: ExploredBall, field: ExactField) -> Fraction:
    """The ceil(n/2)-th smallest of the field's n values on the window,
    the least t with half the vertices weakly below it.  The nonzero
    values are sorted once; the zeros, implicit or explicit, sit between
    the negative and the positive ones.  The median is one of the values,
    so :func:`median_report` decides its tests on integers over the
    field's common denominator, like every exact check."""
    n = ball.num_vertices
    rank = (n + 1) // 2
    nonzero = sorted(x for x in field.values() if x)
    below = bisect.bisect_left(nonzero, 0)
    zeros = n - len(nonzero)
    if rank <= below:
        return nonzero[rank - 1]
    if rank <= below + zeros:
        return Fraction(0)
    return nonzero[rank - 1 - zeros]


def median_report(ball: ExploredBall, field: ExactField) -> dict:
    """Exact median facts used by the compact chain.

    Checks that the median obeys the mass bound (its size is at most
    twice the mean of |f|) and, for zero sum fields, that recentering at
    the median costs at most a factor two in total mass.
    """
    n = ball.num_vertices
    m0 = median_exact(ball, field)
    den, num = _scaled(field)
    m = m0.numerator * (den // m0.denominator)
    nz = [x for x in num.values() if x]
    total = sum(map(abs, nz))
    shifted = sum(abs(x - m) for x in nz) + (n - len(nz)) * abs(m)
    zero_sum = sum(nz) == 0
    return {
        "median": m0,
        "l1": Fraction(total, den),
        "l1_recentred": Fraction(shifted, den),
        "markov_ok": n * abs(m) <= 2 * total,
        "zero_sum": zero_sum,
        "shift_ok": total <= 2 * shifted if zero_sum else None,
    }


# ---------------------------------------------------------------------------
# Float layer


def to_dense(ball: ExploredBall, field: ExactField) -> np.ndarray:
    out = np.zeros(ball.num_vertices)
    for v, x in field.items():
        out[v] = float(x)
    return out


class LivePart:
    """Where a field on a window can be nonzero or have a nonzero
    gradient: the sorted closed neighbourhood of its support, with the
    CSR the window induces there, rows in the window's order.

    Off the part the gradient modulus is zero, and the induced CSR drops
    only entries between two zeros, each of which adds an exact +0.0 to
    its row, so the gradient kernels run here give the window's values
    to the bit.  Sums do not: numpy's pairwise ``sum`` groups terms by
    array length and position, so :meth:`sum` scatters the part's terms
    into a zeroed window-length array, kept for the part, and sums that.
    The part has the graph attributes the gradient functions read
    (``indptr``, ``indices``, ``rows``, ``num_vertices``) and stands in
    for the window there.

    On a complete window the part is the whole window, and an incomplete
    window caches the part of its dense fields, the interior
    (:attr:`~groupiso.groups.ExploredBall.prefix_csr`); both use the
    window's arrays with no copy, and ``where`` is a slice.  Any other
    part builds its CSR, and ``where`` is its sorted vertex array.
    """

    def __init__(self, ball: ExploredBall, values: np.ndarray):
        self.window_size = ball.num_vertices
        live = None if ball.complete else _closed_neighbourhood(ball, values)
        if live is None or live.shape[0] == self.window_size:
            self.where, csr = slice(None), (ball.indptr, ball.indices, ball.rows)
        elif live.shape[0] == ball.prefix_csr[0].shape[0] - 1 and live[-1] == live.shape[0] - 1:
            self.where, csr = slice(0, live.shape[0]), ball.prefix_csr
        else:
            self.where, csr = live, kernels.induced_csr(ball.indptr, ball.indices, live)
        self.indptr, self.indices, self.rows = csr
        self._scratch = None

    @property
    def num_vertices(self) -> int:
        return self.indptr.shape[0] - 1

    def sum(self, values: np.ndarray) -> np.float64:
        """The sum of the window array that is ``values`` on the part and
        0.0 off it, taken as numpy sums that array."""
        if self.num_vertices == self.window_size:
            return values.sum()
        if self._scratch is None:
            # every sum writes the same entries, so the rest stays 0.0
            self._scratch = np.zeros(self.window_size)
        self._scratch[self.where] = values
        return self._scratch.sum()


def _closed_neighbourhood(ball: ExploredBall, values: np.ndarray) -> np.ndarray:
    """The vertices of the support of ``values`` and their neighbours, sorted."""
    on = values != 0
    near = on.copy()
    # the entries of the support's rows, picked by a byte per entry
    near[ball.indices[np.repeat(on, ball.degrees)]] = True
    return np.flatnonzero(near)


def gradient_pass(ball: ExploredBall | LivePart, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradient modulus and the signed edge differences, one per CSR
    entry, on a window or on a :class:`LivePart` of one (``values`` and
    the modulus on that part)."""
    out = np.empty(ball.num_vertices)
    diffs = kernels.grad_modulus_csr(ball.indptr, ball.indices, np.asarray(values, np.float64), out, ball.rows)
    return out, diffs


def grad_modulus(ball: ExploredBall | LivePart, values: np.ndarray) -> np.ndarray:
    return gradient_pass(ball, values)[0]


def energy_subgradient(ball: ExploredBall | LivePart, gradient: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Subgradient of the squared 2-norm of the gradient modulus of a
    field, from its :func:`gradient_pass` ``gradient`` on the same
    window or part."""
    gmod, diffs = gradient
    out = np.empty(ball.num_vertices)
    kernels.energy_subgrad_csr(ball.indptr, ball.indices, diffs, gmod, out, ball.rows)
    return out


class FloatField:
    """One field on a window, as the float reports read it.

    ``values`` is the field as a float64 window array, ``part`` its
    :class:`LivePart` and ``live`` its values there; every power,
    product, weight gather and gradient is taken on the part, and every
    norm and sum is reduced as the window array would be.  The powers,
    gradient moduli and unweighted norms of the field, and its products
    with each weight power, are each computed on first lookup and kept
    while the object lives.
    """

    def __init__(self, ball: ExploredBall, values: np.ndarray):
        self.ball = ball
        self.values = np.asarray(values, np.float64)
        self.part = LivePart(ball, self.values)
        self.live = self.values[self.part.where]
        # gradients keyed by p, norms by (what, q), powers and weighted
        # products by a tagged key
        self._memo: dict = {}

    def _power(self, p: float) -> np.ndarray:
        """``|f| ** p`` on the live part."""
        key = ("power", p)
        if key not in self._memo:
            self._memo[key] = np.abs(self.live) ** p
        return self._memo[key]

    def _grad(self, p: float | None) -> np.ndarray:
        """Gradient modulus of the field (p None) or of ``|field| ** p``."""
        if p not in self._memo:
            self._memo[p] = grad_modulus(self.part, self.live if p is None else self._power(p))
        return self._memo[p]

    def norm(self, p: float) -> float:
        """||f||_p."""
        return self._lp("values", p)

    def grad_norm(self, p: float) -> float:
        """||grad f||_p."""
        return self._lp(None, p)

    def power_grad_norm(self, p: float) -> float:
        """||grad |f|^p||_1."""
        return self._lp(p, 1)

    def _lp(self, what, q: float) -> float:
        # the q-norm of the values (what "values") or of _grad(what)
        if (what, q) not in self._memo:
            self._memo[what, q] = lp_norm(self.live if what == "values" else self._grad(what), q, self.part)
        return self._memo[what, q]

    def power_sum(self, p: float) -> float:
        """||f||_p^p, the sum of ``|f| ** p``."""
        return float(self.part.sum(self._power(p)))

    def weighted(self, weight: WeightPowers, alpha: float) -> np.ndarray:
        """``w^alpha f`` on the live part."""
        key = ("weighted", weight, alpha)
        if key not in self._memo:
            self._memo[key] = weight.gather(alpha, self.part.where) * self.live
        return self._memo[key]

    def weighted_power_sum(self, weight: WeightPowers, e: float, p: float) -> float:
        """The sum of ``w^e |f|^p``."""
        return float(self.part.sum(weight.gather(e, self.part.where) * self._power(p)))


class WeightPowers:
    """``weight ** e`` as float64, by exponent e.

    The power is taken once per exponent, over the distinct weight values,
    and each lookup gathers it back to the window, or to the vertices a
    :class:`LivePart` picks, so no dense array per exponent stays alive.
    Weights take few distinct values (distances plus one), and the power
    of a value does not depend on where it sits.
    """

    def __init__(self, weight: np.ndarray):
        distinct = _unique(weight)
        # the position of each vertex's value, in the narrowest dtype that holds it
        self._inverse = np.searchsorted(distinct, weight).astype(np.min_scalar_type(distinct.size))
        self._distinct = distinct.astype(np.float64)
        self._tables: dict[float, np.ndarray] = {}

    def gather(self, e: float, where: slice | np.ndarray) -> np.ndarray:
        """``weight ** e`` at ``where``, the ``where`` of a :class:`LivePart`."""
        table = self._tables.get(e)
        if table is None:
            table = self._tables[e] = self._distinct**e
        return table[self._inverse[where]]


def lp_norm(values: np.ndarray, p: float, part: LivePart | None = None) -> float:
    """||values||_p of a window array, or of the values on ``part``,
    summed as the window array they stand for."""
    a = np.abs(np.asarray(values, np.float64))
    total = np.sum if part is None else part.sum
    if p == 1:
        return float(total(a))
    if p == 2:
        return float(np.sqrt(total(a * a)))
    return float(total(a**p) ** (1.0 / p))


def zero_sum(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, np.float64)
    return values - values.mean()


def power_leibniz_report(field: FloatField, p: float) -> dict:
    """Gradient of the p-th power of |f| against the product rule bound."""
    lhs = field.power_grad_norm(p)
    rhs = 2.0 * p * field.norm(p) ** (p - 1.0) * field.grad_norm(p)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs * (1.0 + RTOL)}
