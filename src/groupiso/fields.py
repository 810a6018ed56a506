"""Discrete calculus on explored windows.

Two layers share the same graph: an exact layer for identities, where a
field is a sparse mapping from vertex index to Fraction (absent vertices
are zero), and a float layer for optimization and norm sweeps, where a
field is a dense float64 array.  The float reports take a field as a
:class:`FloatField` and a weight as a :class:`WeightPowers`; each
gradient and unweighted norm of a field is computed once, however many
reports read it.

The gradient modulus at a vertex is the sum of |f(v) - f(n)| over the
neighbors n of v.  On an incomplete window it is faithful only at
interior vertices; identities stated per window treat the window as a
finite graph in its own right.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import kernels
from .groups import ExploredBall
from .isoperimetry import set_perimeter

ExactField = Mapping[int, Fraction]

#: Relative float slack of every float report verdict.
RTOL = 1e-9


# ---------------------------------------------------------------------------
# Exact layer


def grad_modulus_exact(ball: ExploredBall, field: ExactField) -> dict[int, Fraction]:
    """Gradient modulus of a sparse exact field, on its closed support.

    The sums run on integer numerators over the common denominator.
    """
    den = math.lcm(*(x.denominator for x in field.values()))
    num = {v: int(x * den) for v, x in field.items()}
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
    return sum((abs(x) for x in field.values()), Fraction(0))


def level_thresholds(field: ExactField) -> list[Fraction]:
    """Distinct positive values of |f|, ascending."""
    return sorted({abs(x) for x in field.values() if x})


def coarea_report(ball: ExploredBall, field: ExactField) -> dict:
    """Exact layer cake identity on the window graph.

    The total gradient of |f| equals the perimeter of each superlevel set
    weighted by the gap between consecutive thresholds.
    """
    absf = {v: abs(x) for v, x in field.items() if x}
    lhs = l1_norm_exact(grad_modulus_exact(ball, absf))
    thresholds = level_thresholds(field)
    rhs = Fraction(0)
    prev = Fraction(0)
    layers = []
    for t in thresholds:
        level = [v for v, x in absf.items() if x >= t]
        perim = set_perimeter(ball, level)
        rhs += (t - prev) * perim
        layers.append({"threshold": t, "size": len(level), "perimeter": perim})
        prev = t
    return {"lhs": lhs, "rhs": rhs, "ok": lhs == rhs, "layers": layers}


def median_exact(ball: ExploredBall, field: ExactField) -> Fraction:
    """Smallest value t (implicit zeros included) with at least half the
    vertices weakly below t."""
    n = ball.num_vertices
    values = sorted(set(field.values()) | {Fraction(0)})
    support = set(field)
    zeros = n - len([v for v in support if field[v]])
    for t in values:
        count = sum(1 for x in field.values() if x and x <= t)
        if t >= 0:
            count += zeros
        if 2 * count >= n:
            return t
    return values[-1]


def median_report(ball: ExploredBall, field: ExactField) -> dict:
    """Exact median facts used by the compact chain.

    Checks that the median obeys the mass bound (its size is at most
    twice the mean of |f|) and, for zero sum fields, that recentering at
    the median costs at most a factor two in total mass.
    """
    n = ball.num_vertices
    m0 = median_exact(ball, field)
    total = l1_norm_exact(field)
    markov_ok = n * abs(m0) <= 2 * total
    mean = sum(field.values(), Fraction(0))
    zero_sum = mean == 0
    nz = [x for x in field.values() if x]
    shifted = sum((abs(x - m0) for x in nz), Fraction(0)) + (n - len(nz)) * abs(m0)
    shift_ok = total <= 2 * shifted if zero_sum else None
    return {
        "median": m0,
        "l1": total,
        "l1_recentred": shifted,
        "markov_ok": markov_ok,
        "zero_sum": zero_sum,
        "shift_ok": shift_ok,
    }


# ---------------------------------------------------------------------------
# Float layer


def to_dense(ball: ExploredBall, field: ExactField) -> np.ndarray:
    out = np.zeros(ball.num_vertices)
    for v, x in field.items():
        out[v] = float(x)
    return out


def gradient_pass(ball: ExploredBall, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradient modulus and the signed edge differences, one per CSR entry."""
    out = np.empty(ball.num_vertices)
    diffs = kernels.grad_modulus_csr(ball.indptr, ball.indices, np.asarray(values, np.float64), out, ball.rows)
    return out, diffs


def grad_modulus(ball: ExploredBall, values: np.ndarray) -> np.ndarray:
    return gradient_pass(ball, values)[0]


def energy_subgradient(ball: ExploredBall, gradient: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Subgradient of the squared 2-norm of the gradient modulus of a
    field, from its :func:`gradient_pass` ``gradient``."""
    gmod, diffs = gradient
    out = np.empty(ball.num_vertices)
    kernels.energy_subgrad_csr(ball.indptr, ball.indices, diffs, gmod, out, ball.rows)
    return out


class FloatField:
    """One dense field on a window, as the float reports read it.

    ``values`` is the field as float64.  The gradient moduli and the
    unweighted norms are each computed on first lookup and kept while
    the object lives; weighted norms depend on a weight and are left to
    the reports.
    """

    def __init__(self, ball: ExploredBall, values: np.ndarray):
        self.ball = ball
        self.values = np.asarray(values, np.float64)
        # gradients keyed by p, norms by (what, q)
        self._memo: dict = {}

    def _grad(self, p: float | None) -> np.ndarray:
        """Gradient modulus of the field (p None) or of ``|field| ** p``."""
        if p not in self._memo:
            self._memo[p] = grad_modulus(self.ball, self.values if p is None else np.abs(self.values) ** p)
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
            self._memo[what, q] = lp_norm(self.values if what == "values" else self._grad(what), q)
        return self._memo[what, q]


class WeightPowers:
    """``weight ** e`` as float64, by exponent e.

    The power is taken once per exponent, over the distinct weight values,
    and each lookup gathers it back to the window, so no dense array per
    exponent stays alive.  Weights take few distinct values (distances plus
    one), and the power of a value does not depend on where it sits.
    """

    def __init__(self, weight: np.ndarray):
        distinct, self._inverse = np.unique(weight, return_inverse=True)
        self._distinct = distinct.astype(np.float64)
        self._tables: dict[float, np.ndarray] = {}

    def __getitem__(self, e: float) -> np.ndarray:
        table = self._tables.get(e)
        if table is None:
            table = self._tables[e] = self._distinct**e
        return table[self._inverse]


def lp_norm(values: np.ndarray, p: float) -> float:
    a = np.abs(np.asarray(values, np.float64))
    if p == 1:
        return float(a.sum())
    if p == 2:
        return float(np.sqrt((a * a).sum()))
    return float((a**p).sum() ** (1.0 / p))


def grad_lp_norm(ball: ExploredBall, values: np.ndarray, p: float) -> float:
    return lp_norm(grad_modulus(ball, values), p)


def weighted_lp_norm(values: np.ndarray, weight: np.ndarray, alpha: float, p: float) -> float:
    return lp_norm(np.asarray(weight, np.float64) ** alpha * np.asarray(values, np.float64), p)


def zero_sum(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, np.float64)
    return values - values.mean()


def power_leibniz_report(field: FloatField, p: float) -> dict:
    """Gradient of the p-th power of |f| against the product rule bound."""
    lhs = field.power_grad_norm(p)
    rhs = 2.0 * p * field.norm(p) ** (p - 1.0) * field.grad_norm(p)
    return {"lhs": lhs, "rhs": rhs, "ok": lhs <= rhs * (1.0 + RTOL)}
