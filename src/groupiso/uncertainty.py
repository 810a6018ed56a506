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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .fields import (
    grad_lp_norm,
    grad_modulus,
    energy_subgradient,
    lp_norm,
    weighted_lp_norm,
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


def poincare_constant(p: float, factors: dict | None = None) -> float:
    f = FACTORS if factors is None else factors
    return f["poincare_l1"] if p == 1 else f["poincare_lp"]


def certified_constant(
    p: float, alpha: float, compact: bool, factors: dict | None = None
) -> float:
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
    f = FACTORS if factors is None else factors
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
    beyond = f["poincare_to_radius"] * poincare_constant(p, f) * (alpha * k2 / k1) ** (1.0 - theta)
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


def additive_link_report(
    ball: ExploredBall,
    values: np.ndarray,
    weight: np.ndarray,
    p: float,
    alpha: float,
    factors: dict | None = None,
    rtol: float = 1e-9,
) -> dict:
    """Check the additive radius inequality at every certified integer radius.

    Infinite windows route through the p-th power of the field with
    weight power p*alpha; complete graphs check the recentred form for
    radii up to an eighth of the diameter (possibly an empty range).
    """
    f = FACTORS if factors is None else factors
    values = np.asarray(values, np.float64)
    weight = np.asarray(weight, np.float64)
    rows = []
    ok = True
    if not ball.complete:
        power = np.abs(values) ** p
        lhs = float(power.sum())
        grad1 = lp_norm(grad_modulus(ball, power), 1)
        wterm = float((weight ** (p * alpha) * power).sum())
        for r in range(1, ball.horizon + 2):
            rhs = f["gradient_link"] * r * grad1 + r ** (-p * alpha) * wterm
            good = lhs <= rhs * (1.0 + rtol)
            ok = ok and good
            rows.append({"r": r, "lhs": lhs, "rhs": rhs, "ok": good})
    else:
        d0 = diameter(ball)
        lhs = lp_norm(values, p)
        grad = grad_lp_norm(ball, values, p)
        wnorm = weighted_lp_norm(values, weight, alpha, p)
        for r in range(1, d0 // 8 + 1):
            rhs = f["compact_gradient_link"] * p * r * grad + f["compact_weight_link"] * r ** (
                -alpha
            ) * wnorm
            good = lhs <= rhs * (1.0 + rtol)
            ok = ok and good
            rows.append({"r": r, "lhs": lhs, "rhs": rhs, "ok": good})
    return {"rows": rows, "all_ok": ok, "vacuous": not rows}


def poincare_report(
    ball: ExploredBall,
    values: np.ndarray,
    p: float,
    factors: dict | None = None,
    rtol: float = 1e-9,
) -> dict:
    """Zero sum mean-value bound on a complete graph."""
    values = np.asarray(values, np.float64)
    d0 = diameter(ball)
    norm = lp_norm(values, p)
    grad = grad_lp_norm(ball, values, p)
    bound = poincare_constant(p, factors) * p * d0 * grad
    ratio = norm / (p * d0 * grad) if grad > 0 else math.inf
    return {
        "p": p,
        "diameter": d0,
        "norm": norm,
        "grad_norm": grad,
        "ratio": ratio,
        "bound": bound,
        "ok": norm <= bound * (1.0 + rtol),
    }


def hpw_report(
    ball: ExploredBall,
    values: np.ndarray,
    weight: np.ndarray,
    p: float,
    alpha: float,
    factors: dict | None = None,
    rtol: float = 1e-9,
) -> dict:
    """Measured uncertainty ratio of one field against the certified bound."""
    values = np.asarray(values, np.float64)
    norm = lp_norm(values, p)
    grad = grad_lp_norm(ball, values, p)
    wnorm = weighted_lp_norm(values, weight, alpha, p)
    ratio = uncertainty_ratio(p, alpha, norm, grad, wnorm)
    certified = certified_constant(p, alpha, ball.complete, factors)
    return {
        "p": p,
        "alpha": alpha,
        "norm": norm,
        "grad_norm": grad,
        "weighted_norm": wnorm,
        "ratio": ratio,
        "certified": certified,
        "ok": ratio <= certified * (1.0 + rtol),
    }


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


def _rayleigh(ball, values, weight):
    n2 = float((values * values).sum())
    g = lp_norm(grad_modulus(ball, values), 2)
    w2 = lp_norm(weight * values, 2)
    if g == 0.0 or w2 == 0.0:
        return 0.0
    return n2 / (g * w2)


def uncertainty_ascent(
    ball: ExploredBall,
    weight: np.ndarray | None = None,
    seed: int = 0,
    starts: int = 4,
    iters: int = 300,
) -> AscentResult:
    """Maximize ||f||_2^2 / (||grad f||_2 ||w f||_2) by subgradient ascent.

    Start 0 is the base vertex spike; later starts are seeded Gaussian
    fields.  On an incomplete window the support is confined two levels
    inside the horizon so every reported quantity matches the ambient
    graph; on a complete graph fields are projected to zero sum.  Only
    improving steps are accepted, so each trace is monotone.
    """
    weight = canonical_weight(ball).astype(np.float64) if weight is None else np.asarray(
        weight, np.float64
    )
    n = ball.num_vertices
    if ball.complete:
        mask = np.ones(n, np.bool_)
    else:
        mask = ball.interior_within(1)
        if not mask.any():
            raise ValueError("window too shallow for a confined ascent")

    def project(vec):
        vec = vec * mask
        if ball.complete:
            vec = zero_sum(vec)
        norm = np.sqrt((vec * vec).sum())
        return vec / norm if norm > 0 else vec

    def loggrad(vec):
        n2 = float((vec * vec).sum())
        gmod = grad_modulus(ball, vec)
        s = float((gmod * gmod).sum())
        w2 = float(((weight * vec) ** 2).sum())
        sub = energy_subgradient(ball, vec)
        return 2.0 * vec / n2 - sub / (2.0 * s) - (weight**2) * vec / w2

    best_value = -math.inf
    best_field = None
    best_trace: list[float] = []
    best_start = -1
    start_values = []
    for s in range(starts):
        if s == 0:
            f = np.zeros(n)
            f[ball.base_index] = 1.0
        else:
            rng = np.random.default_rng(np.random.SeedSequence([seed, s]))
            f = rng.standard_normal(n)
        f = project(f)
        value = _rayleigh(ball, f, weight)
        trace = [value]
        step = 0.5
        for _ in range(iters):
            g = loggrad(f) * mask
            improved = False
            for _ in range(20):
                trial = project(f + step * g)
                tv = _rayleigh(ball, trial, weight)
                if tv > value * (1.0 + 1e-12):
                    f, value = trial, tv
                    trace.append(value)
                    step *= 1.2
                    improved = True
                    break
                step *= 0.5
            if not improved and step < 1e-14:
                break
        start_values.append(value)
        if value > best_value:
            best_value, best_field, best_trace, best_start = value, f, trace, s
    return AscentResult(best_value, best_field, best_trace, best_start, start_values)
