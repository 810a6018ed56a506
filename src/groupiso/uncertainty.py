"""Certified uncertainty constants and measured extremal estimates.

The certified side composes a small set of named one-step bounds (the
factor table below) into a constant C(p, alpha) such that every field f
with an admissible weight w satisfies

    ||f||_p  <=  C * (p ||grad f||_p)^(a/(a+1)) * ||w^a f||_p^(1/(a+1))

on an infinite window, and the same shape on a complete graph for zero
sum fields.  A weight is admissible when it is at least 1 everywhere and
its sublevel counts never beat the growth of balls.

The measured side estimates two extremal quantities: the best mass to
boundary ratio over enumerated or annealed sets, and the best Rayleigh
quotient ||f||_2^2 / (||grad f||_2 ||w f||_2) found by subgradient
ascent.  Both report exact or monotone traces so runs can be audited.

The float reports and the ascent compute on the live part of a field
(:class:`~groupiso.fields.LivePart`): on an incomplete window, the
closed neighbourhood of its support, which leaves out the last level; on
a complete one, the whole window.  Every sum is still taken over a
window-length array, since numpy's pairwise summation groups terms by
array length and position, and a shorter array would change the bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .corpus import field_pool
from .fields import (
    RTOL,
    FloatField,
    LivePart,
    WeightPowers,
    energy_subgradient,
    gradient_pass,
    lp_norm,
    zero_sum,
)
from .groups import ExploredBall, diameter, distances_from
from .growth import growth_counts, growth_value, half_mass_radius, mass_radius
from .isoperimetry import ProfileEntry

#: One-step bounds the certified constants are assembled from.  Scaling
#: any entry up (jointly for the compact pair) can only weaken, never
#: break, the composed constant.
FACTORS = {
    "gradient_link": 4.0,  # infinite: ||f||_1 <= 4 r ||grad f||_1 + r^-a ||w^a f||_1
    "grid": 2.0,  # rounding the optimal radius up to an integer
    "power_rule": 2.0,  # ||grad |f|^p||_1 <= 2p ||f||_p^(p-1) ||grad f||_p
    "compact_gradient_link": 32.0,  # complete graphs, r up to an eighth of the diameter
    "compact_weight_link": 2.0,
    "poincare_l1": 32.0,  # ||f||_1 <= 32 d ||grad f||_1 for zero sum f
    "poincare_lp": 64.0,
    "poincare_to_radius": 16.0,  # swapping the diameter for a too-large radius
}

#: The grid of exponents p and weight powers alpha every float report covers.
EXPONENTS = (1.0, 2.0, 3.0)
WEIGHT_POWERS = (0.5, 1.0, 2.0)

#: Default starts, and most iterations per start, of :func:`uncertainty_ascent`
#: and of ``groupiso constants``.
STARTS = 4
ITERS = 300


# ---------------------------------------------------------------------------
# Weights


def canonical_weight(ball: ExploredBall) -> np.ndarray:
    """Distance from the base plus one; sublevels match balls exactly."""
    return (ball.dist + 1).astype(np.int64)


def multipoint_weight(ball: ExploredBall, points: Sequence[int]) -> np.ndarray:
    """Nearest-anchor weight: the number of anchors times (distance to the
    closest anchor + 1).

    With that multiplier the sublevel sets stack into larger balls, so
    admissibility survives on growing graphs.
    """
    if len(points) < 1:
        raise ValueError("a multipoint weight needs at least one point")
    return len(points) * (distances_from(ball, list(points)) + 1)


def admissibility_report(ball: ExploredBall, weight: np.ndarray) -> dict:
    """Check w >= 1 and sublevel counts against the growth table.

    On an incomplete window only radii inside the table can be checked;
    the report flags itself partial in that case.
    """
    weight = np.asarray(weight)
    table = growth_counts(ball)
    rmax = table.shape[0] if not ball.complete else int(ball.dist.max())
    rows = []
    ok = bool((weight >= 1).all())
    for r in range(1, rmax + 1):
        count = int((weight <= r).sum())
        bound = growth_value(ball, r)
        rows.append({"r": r, "count": count, "bound": bound, "ok": count <= bound})
        ok = ok and count <= bound
    return {
        "min_ok": bool((weight >= 1).all()),
        "rows": rows,
        "partial": not ball.complete,
        "admissible": ok,
    }


# ---------------------------------------------------------------------------
# Certified constants


def balance_constant(alpha: float) -> float:
    """Minimum over r > 0 of r + r^-alpha, reached at alpha^(1/(alpha+1))."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return alpha ** (1.0 / (alpha + 1.0)) + alpha ** (-alpha / (alpha + 1.0))


def poincare_constant(p: float) -> float:
    return FACTORS["poincare_l1"] if p == 1 else FACTORS["poincare_lp"]


def certified_constant(p: float, alpha: float, compact: bool) -> float:
    """Certified bound on the uncertainty ratio for exponent p and weight
    power alpha.

    The infinite form balances the additive link at the best integer
    radius; p > 1 routes through the p-th power of the field, which costs
    the power rule factor.  The complete-graph form takes the worst of
    the three regimes: the optimal radius lands inside the additive
    range, beyond it (handled by the recentred mean bound), or below one
    (handled by the weight floor).
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    f = FACTORS
    theta = alpha / (alpha + 1.0)
    if not compact:
        if p == 1:
            return f["grid"] * balance_constant(alpha) * f["gradient_link"] ** theta
        ap = p * alpha
        inner = f["grid"] * balance_constant(ap) * f["gradient_link"] ** (ap / (ap + 1.0))
        return inner ** ((ap + 1.0) / (p * (alpha + 1.0))) * f["power_rule"] ** theta
    k1 = f["compact_gradient_link"]
    k2 = f["compact_weight_link"]
    in_range = f["grid"] * balance_constant(alpha) * k1**theta * k2 ** (1.0 - theta)
    beyond = f["poincare_to_radius"] * poincare_constant(p) * (alpha * k2 / k1) ** (1.0 - theta)
    below = (k1 / (alpha * k2)) ** theta
    return max(in_range, beyond, below)


def uncertainty_ratio(
    p: float, alpha: float, norm: float, grad_norm: float, weighted_norm: float
) -> float:
    """Measured ratio ||f||_p / ((p ||grad f||_p)^theta (||w^a f||_p)^(1-theta))."""
    theta = alpha / (alpha + 1.0)
    denom = (p * grad_norm) ** theta * weighted_norm ** (1.0 - theta)
    if denom == 0.0:
        raise ZeroDivisionError("ratio undefined for gradient-free or weightless fields")
    return norm / denom


def additive_link_report(field: FloatField, weight: WeightPowers) -> dict:
    """Check the additive radius inequality at every certified integer radius,
    one grid of rows per (p, alpha) of ``EXPONENTS`` x ``WEIGHT_POWERS``.

    Infinite windows route through the p-th power of the field with
    weight power p*alpha; complete graphs check the recentred form for
    radii up to an eighth of the diameter (possibly an empty range).
    Reports that share one ``field`` and one ``weight`` take each
    gradient, unweighted norm and weight power once.
    """
    ball = field.ball
    radii = range(1, diameter(ball) // 8 + 1 if ball.complete else ball.horizon + 2)
    grids = []
    for p in EXPONENTS:
        if ball.complete:
            lhs, g = field.norm(p), field.grad_norm(p)
            c1, c2 = FACTORS["compact_gradient_link"] * p, FACTORS["compact_weight_link"]
        else:
            lhs, g = field.power_sum(p), field.power_grad_norm(p)
            c1, c2 = FACTORS["gradient_link"], 1.0
        for alpha in WEIGHT_POWERS:
            if ball.complete:
                e, w = alpha, lp_norm(field.weighted(weight, alpha), p, field.part)
            else:
                e, w = p * alpha, field.weighted_power_sum(weight, p * alpha, p)
            rows = []
            for r in radii:
                rhs = c1 * r * g + c2 * r ** (-e) * w
                rows.append({"r": r, "lhs": lhs, "rhs": rhs, "ok": lhs <= rhs * (1.0 + RTOL)})
            ok = all(row["ok"] for row in rows)
            grids.append({"p": p, "alpha": alpha, "rows": rows, "all_ok": ok, "vacuous": not rows})
    return {"grids": grids, "all_ok": all(grid["all_ok"] for grid in grids)}


def poincare_report(field: FloatField) -> dict:
    """Zero sum mean-value bound on a complete graph, one row per p of
    ``EXPONENTS``; ``field`` as in :func:`additive_link_report`."""
    d0 = diameter(field.ball)
    rows = []
    for p in EXPONENTS:
        norm, grad = field.norm(p), field.grad_norm(p)
        bound = poincare_constant(p) * p * d0 * grad
        rows.append({
            "p": p,
            "diameter": d0,
            "norm": norm,
            "grad_norm": grad,
            "ratio": norm / (p * d0 * grad) if grad > 0 else math.inf,
            "bound": bound,
            "ok": norm <= bound * (1.0 + RTOL),
        })
    return {"rows": rows, "ok": all(row["ok"] for row in rows)}


def hpw_report(field: FloatField, weight: WeightPowers) -> dict:
    """Measured uncertainty ratios of one field against the certified
    bounds, one row per (p, alpha) of ``EXPONENTS`` x ``WEIGHT_POWERS``;
    the arguments as in :func:`additive_link_report`."""
    rows = []
    for p in EXPONENTS:
        norm, grad = field.norm(p), field.grad_norm(p)
        for alpha in WEIGHT_POWERS:
            wnorm = lp_norm(field.weighted(weight, alpha), p, field.part)
            ratio = uncertainty_ratio(p, alpha, norm, grad, wnorm)
            certified = certified_constant(p, alpha, field.ball.complete)
            rows.append({
                "p": p,
                "alpha": alpha,
                "norm": norm,
                "grad_norm": grad,
                "weighted_norm": wnorm,
                "ratio": ratio,
                "certified": certified,
                "ok": ratio <= certified * (1.0 + RTOL),
            })
    return {"rows": rows, "ok": all(row["ok"] for row in rows)}


# ---------------------------------------------------------------------------
# Extremal estimates


def isoperimetric_constant_trace(ball: ExploredBall, entries: Sequence[ProfileEntry]) -> dict:
    """Mass to radius-times-boundary ratios from profile entries, exactly.

    On a complete graph the selector doubles the mass (only sets up to
    half the graph are constrained); annealed entries yield certified
    lower bounds on the ratio since their perimeter is an upper bound.
    """
    rows = []
    running: Fraction | None = None
    for e in entries:
        if e.perimeter is None or e.perimeter == 0:
            continue
        radius = half_mass_radius(ball, e.k) if ball.complete else mass_radius(ball, e.k)
        if radius is None:
            continue
        ratio = Fraction(e.k, radius * e.perimeter)
        running = ratio if running is None or ratio > running else running
        rows.append(
            {
                "k": e.k,
                "radius": radius,
                "perimeter": e.perimeter,
                "ratio": ratio,
                "running_best": running,
                "exact": e.exact,
            }
        )
    best = max(rows, key=lambda r: r["ratio"]) if rows else None
    return {
        "rows": rows,
        "best": best["ratio"] if best else None,
        "best_k": best["k"] if best else None,
        "exact": all(r["exact"] for r in rows) if rows else False,
    }


@dataclass
class AscentResult:
    """Outcome of one multi-start subgradient ascent."""

    value: float
    values: np.ndarray
    trace: list[float]
    start: int
    start_values: list[float]


def _rayleigh(part, values, weight):
    """The quotient of ``values`` on ``part``, their :func:`gradient_pass`,
    and the squared norms ||f||_2^2, ||grad f||_2^2 and ||w f||_2^2 the
    quotient is taken from."""
    grad = gradient_pass(part, values)
    sums = [float(part.sum(x * x)) for x in (values, grad[0], weight * values)]
    n2, s, w2 = sums
    g, w = math.sqrt(s), math.sqrt(w2)
    if g == 0.0 or w == 0.0:
        return 0.0, grad, sums
    return n2 / (g * w), grad, sums


def uncertainty_ascent(
    ball: ExploredBall, seed: int = 0, starts: int = STARTS, iters: int = ITERS
) -> AscentResult:
    """Maximize ||f||_2^2 / (||grad f||_2 ||w f||_2) by subgradient ascent,
    w the :func:`canonical_weight` of the window.

    Start 0 is the base vertex spike; later starts are seeded Gaussian
    fields.  The support is the :func:`~groupiso.corpus.field_pool` of
    the window, that of the corpus fields: two levels inside the horizon
    on an incomplete window, so every reported quantity matches the
    ambient graph; on a complete graph fields are projected to zero sum.
    Only improving steps are accepted, so each trace is monotone.  A
    window without edges has no gradient to divide by, and fewer than one
    start has nothing to report: both raise ValueError.

    The fields are held on the :class:`~groupiso.fields.LivePart` of the
    support: the interior on an incomplete window, the whole of a
    complete one.  Its sums run as over the window, so the result is the
    one the whole window gives, to the bit.
    """
    if starts < 1:
        raise ValueError("starts must be positive")
    if ball.num_edges == 0:
        raise ValueError(f"{ball.name}: the window has no edges, so the uncertainty quotient is undefined")
    n = ball.num_vertices
    mask = np.zeros(n, np.bool_)
    mask[field_pool(ball)] = True
    part = LivePart(ball, mask)
    mask = mask[part.where]
    weight = canonical_weight(ball).astype(np.float64)[part.where]

    def project(vec):
        vec = vec * mask
        if ball.complete:
            vec = zero_sum(vec)
        norm = np.sqrt(part.sum(vec * vec))
        return vec / norm if norm > 0 else vec

    weight2 = weight**2

    def loggrad(vec, grad, sums):
        # grad and sums: those of vec, from the quotient that accepted it
        n2, s, w2 = sums
        sub = energy_subgradient(part, grad)
        return 2.0 * vec / n2 - sub / (2.0 * s) - weight2 * vec / w2

    best_value = -math.inf
    best_field = None
    best_trace: list[float] = []
    best_start = -1
    start_values = []
    for s in range(starts):
        if s == 0:
            start = np.zeros(n)
            start[ball.base_index] = 1.0
        else:
            rng = np.random.default_rng(np.random.SeedSequence([seed, s]))
            start = rng.standard_normal(n)
        f = project(start[part.where])
        value, grad, sums = _rayleigh(part, f, weight)
        trace = [value]
        step = 0.5
        for _ in range(iters):
            g = loggrad(f, grad, sums) * mask
            improved = False
            for _ in range(20):
                trial = project(f + step * g)
                tv, trial_grad, trial_sums = _rayleigh(part, trial, weight)
                if tv > value * (1.0 + 1e-12):
                    f, value, grad, sums = trial, tv, trial_grad, trial_sums
                    trace.append(value)
                    step *= 1.2
                    improved = True
                    break
                step *= 0.5
            if not improved and step < 1e-14:
                break
        start_values.append(value)
        if value > best_value:
            # off the part the field is zero: signed like the start's draw
            # until a step is accepted, and +0.0 from then on
            out = np.zeros(n) if len(trace) > 1 else start * 0.0
            out[part.where] = f
            best_value, best_field, best_trace, best_start = value, out, trace, s
    return AscentResult(best_value, best_field, best_trace, best_start, start_values)
