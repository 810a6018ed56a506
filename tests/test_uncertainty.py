"""Certified constants, admissibility, measured ratios, extremal traces."""

import hashlib
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupiso import catalogue, fields, kernels, specio, uncertainty
from groupiso.corpus import field_pool, float_field, float_fields
from groupiso.fields import (
    FloatField,
    WeightPowers,
    energy_subgradient,
    grad_modulus,
    gradient_pass,
    lp_norm,
    power_leibniz_report,
    to_dense,
)
from groupiso.groups import cyclic, diameter, explore
from groupiso.isoperimetry import profile
from groupiso.uncertainty import (
    EXPONENTS,
    FACTORS,
    WEIGHT_POWERS,
    additive_link_report,
    admissibility_report,
    balance_constant,
    canonical_weight,
    certified_constant,
    hpw_report,
    isoperimetric_constant_trace,
    multipoint_weight,
    poincare_constant,
    poincare_report,
    uncertainty_ascent,
    uncertainty_ratio,
)


def test_balance_constant_frozen():
    assert balance_constant(1.0) == 2.0
    assert math.isclose(balance_constant(2.0), 1.8898815748423097, rel_tol=1e-14)
    # minimizes A*r + B*r^-a at r = (aB/A)^{1/(a+1)}; value scales as claimed
    a = 3.0
    r = (a * 1.0 / 1.0) ** (1 / (a + 1))
    assert math.isclose(balance_constant(a), r + r**-a, rel_tol=1e-12)


def test_certified_frozen_values():
    assert certified_constant(1.0, 1.0, compact=False) == 8.0
    assert certified_constant(1.0, 1.0, compact=True) == 128.0
    # cube root in floats: exact value 512 up to one rounding step
    assert math.isclose(certified_constant(3.0, 2.0, compact=True), 512.0, rel_tol=1e-12)


def test_certified_infinite_p2():
    # (grid * K_2 * gradient_link^{2/3})^{3/4} * power_rule^{1/2}
    k2 = balance_constant(2.0)
    expected = (2.0 * k2 * 4.0 ** (2.0 / 3.0)) ** (3.0 / 4.0) * 2.0 ** 0.5
    assert math.isclose(certified_constant(2.0, 1.0, compact=False), expected, rel_tol=1e-12)


def test_certified_compact_branches():
    # alpha = 1, p = 1: B1 = 16*32*(2/32)^{1/2} = 128 dominates B2 = 32, B3 = 4
    c = certified_constant(1.0, 1.0, compact=True)
    assert c == 128.0
    # branch arithmetic spelled out
    b1 = 16.0 * 32.0 * (1.0 * 2.0 / 32.0) ** 0.5
    b2 = 2.0 * balance_constant(1.0) * 32.0 ** 0.5 * 2.0 ** 0.5
    b3 = (32.0 / 2.0) ** 0.5
    assert c == max(b1, b2, b3)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.booleans(),
    st.floats(min_value=1.0, max_value=4.0),
)
def test_certified_monotone_under_joint_scaling(p, alpha, compact, lam):
    # mock.patch.dict, as Hypothesis rejects the function-scoped monkeypatch
    base = certified_constant(p, alpha, compact)
    with mock.patch.dict(FACTORS, {k: v * lam for k, v in FACTORS.items()}):
        scaled = certified_constant(p, alpha, compact)
    assert scaled >= base * (1.0 - 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1.0, 2.0, 3.0]),
    st.sampled_from([0.5, 1.0, 2.0]),
    st.booleans(),
    st.sampled_from(
        ["grid", "gradient_link", "power_rule", "poincare_l1", "poincare_lp", "poincare_to_radius"]
    ),
    st.floats(min_value=1.0, max_value=3.0),
)
def test_certified_monotone_in_slack_factors(p, alpha, compact, key, lam):
    # loosening any single proof step (except the compact link trade-off
    # pair, which moves two branches in opposite directions) cannot
    # tighten the final constant
    base = certified_constant(p, alpha, compact)
    with mock.patch.dict(FACTORS, {key: FACTORS[key] * lam}):
        loosened = certified_constant(p, alpha, compact)
    assert loosened >= base * (1.0 - 1e-12)


def test_admissibility_canonical_tight(plane):
    rep = admissibility_report(plane, canonical_weight(plane))
    assert rep["admissible"]
    assert rep["partial"]  # window is incomplete
    for row in rep["rows"]:
        assert row["count"] == row["bound"]  # exact equality at every radius


def test_admissibility_canonical_complete(ring16):
    rep = admissibility_report(ring16, canonical_weight(ring16))
    assert rep["admissible"]
    assert not rep["partial"]


def test_admissibility_multipoint(plane):
    far = plane.index_of[(3, 3)]
    w = multipoint_weight(plane, [plane.base_index, far])
    rep = admissibility_report(plane, w)
    assert rep["admissible"]


def test_admissibility_rejects_small_weights(ring16):
    w = np.full(ring16.num_vertices, 0.5)
    rep = admissibility_report(ring16, w)
    assert not rep["min_ok"]
    assert not rep["admissible"]


def test_ratio_frozen_spike(line):
    values = to_dense(line, {line.base_index: Fraction(1)})
    w = canonical_weight(line).astype(np.float64)
    rows = {(r["p"], r["alpha"]): r for r in hpw_report(FloatField(line, values), WeightPowers(w))["rows"]}
    rep1 = rows[(1.0, 1.0)]
    assert math.isclose(rep1["ratio"], 0.5, rel_tol=1e-12)
    assert rep1["ok"]
    rep2 = rows[(2.0, 1.0)]
    assert math.isclose(rep2["ratio"], 2.0 ** -0.5 * 6.0 ** -0.25, rel_tol=1e-12)
    assert rep2["ok"]


def test_ratio_raises_on_degenerate():
    with pytest.raises(ZeroDivisionError):
        uncertainty_ratio(1.0, 1.0, 1.0, 0.0, 0.0)


def test_additive_link_spike(line):
    values = to_dense(line, {line.base_index: Fraction(1)})
    w = canonical_weight(line).astype(np.float64)
    grids = additive_link_report(FloatField(line, values), WeightPowers(w))["grids"]
    assert [(g["p"], g["alpha"]) for g in grids] == [
        (p, alpha) for p in (1.0, 2.0, 3.0) for alpha in (0.5, 1.0, 2.0)
    ]
    for rep in grids:
        assert rep["all_ok"]
        assert not rep["vacuous"]
        assert len(rep["rows"]) == line.horizon + 1


def test_additive_link_compact(ring16):
    w = canonical_weight(ring16).astype(np.float64)
    for values in float_fields(ring16, 20, seed=2, zero_mean=True):
        for rep in additive_link_report(FloatField(ring16, values), WeightPowers(w))["grids"]:
            assert rep["all_ok"]
            assert len(rep["rows"]) == 1  # floor(8 / 8)


def test_additive_link_vacuous_on_small(cube):
    w = canonical_weight(cube).astype(np.float64)
    values = to_dense(cube, {0: Fraction(1)})
    for rep in additive_link_report(FloatField(cube, values), WeightPowers(w))["grids"]:
        assert rep["vacuous"]
        assert rep["rows"] == []
        assert rep["all_ok"]


def test_poincare_frozen_quarter_ring():
    c4 = explore(cyclic(4), 4)
    assert diameter(c4) == 2
    for shift in (0, 1):
        values = np.zeros(4)
        values[(0 + shift) % 4] = 1.0
        values[(2 + shift) % 4] = -1.0
        rep = poincare_report(FloatField(c4, values))["rows"][EXPONENTS.index(1.0)]
        assert math.isclose(rep["ratio"], 1.0 / 8.0, rel_tol=1e-12)
        assert rep["ok"]


def test_poincare_holds_on_corpus(ring16):
    for values in float_fields(ring16, 30, seed=9, zero_mean=True):
        assert poincare_report(FloatField(ring16, values))["ok"]


@pytest.mark.parametrize("name", ["z2", "c16", "q6", "f2", "heisenberg"])
def test_grid_rows_match_reference(name, dense_norms):
    # every row equals the value the one-exponent formulas give, to the bit
    grad_lp_norm, weighted_lp_norm = dense_norms
    ball = catalogue.build(name)
    w = canonical_weight(ball).astype(np.float64)
    grid = [(p, alpha) for p in EXPONENTS for alpha in WEIGHT_POWERS]
    for values in float_fields(ball, 4, seed=5, zero_mean=ball.complete):
        expect = []
        for p, alpha in grid:
            norm = lp_norm(values, p)
            grad = grad_lp_norm(ball, values, p)
            wnorm = weighted_lp_norm(values, w, alpha, p)
            ratio = uncertainty_ratio(p, alpha, norm, grad, wnorm)
            certified = certified_constant(p, alpha, ball.complete)
            expect.append({
                "p": p, "alpha": alpha, "norm": norm, "grad_norm": grad, "weighted_norm": wnorm,
                "ratio": ratio, "certified": certified, "ok": ratio <= certified * (1.0 + 1e-9),
            })
        assert hpw_report(FloatField(ball, values), WeightPowers(w))["rows"] == expect

        links = []
        for p, alpha in grid:
            if ball.complete:
                lhs = lp_norm(values, p)
                grad = grad_lp_norm(ball, values, p)
                wnorm = weighted_lp_norm(values, w, alpha, p)
                rhs = [
                    FACTORS["compact_gradient_link"] * p * r * grad
                    + FACTORS["compact_weight_link"] * r ** (-alpha) * wnorm
                    for r in range(1, diameter(ball) // 8 + 1)
                ]
            else:
                power = np.abs(values) ** p
                lhs = float(power.sum())
                grad1 = lp_norm(grad_modulus(ball, power), 1)
                wterm = float((w ** (p * alpha) * power).sum())
                rhs = [
                    FACTORS["gradient_link"] * r * grad1 + r ** (-p * alpha) * wterm
                    for r in range(1, ball.horizon + 2)
                ]
            links.append([(lhs, x) for x in rhs])
        got = additive_link_report(FloatField(ball, values), WeightPowers(w))["grids"]
        assert [[(r["lhs"], r["rhs"]) for r in g["rows"]] for g in got] == links

        if ball.complete:
            d0 = diameter(ball)
            expect = [
                (lp_norm(values, p), grad_lp_norm(ball, values, p),
                 poincare_constant(p) * p * d0 * grad_lp_norm(ball, values, p))
                for p in EXPONENTS
            ]
            got = poincare_report(FloatField(ball, values))["rows"]
            assert [(r["norm"], r["grad_norm"], r["bound"]) for r in got] == expect


def _weights(ball):
    pool = field_pool(ball)
    far = int(pool[np.argmax(ball.dist[pool])])
    return [canonical_weight(ball), multipoint_weight(ball, [ball.base_index, far])]


@pytest.mark.parametrize("name", ["z2", "f2", "heisenberg", "c16", "q6", "s4_points"])
def test_weight_powers_are_the_dense_powers(name):
    # a power gathered from the distinct values is the dense power, to the bit
    ball = catalogue.build(name)
    exponents = sorted({p * a for p in EXPONENTS for a in WEIGHT_POWERS})
    for w in _weights(ball):
        wpow = WeightPowers(w)
        for e in exponents:
            assert wpow.gather(e, slice(None)).tobytes() == (w.astype(np.float64) ** e).tobytes()


def _float_reports(ball, field, weight, nweights):
    # every float report of one field, in the order verify runs them;
    # field() and weight(i) give the objects each report call reads
    reports = [additive_link_report(field(), weight(i)) for i in range(nweights)]
    reports += [hpw_report(field(), weight(i)) for i in range(nweights)]
    reports += [power_leibniz_report(field(), p) for p in EXPONENTS]
    if ball.complete:
        reports.append(poincare_report(field()))
    return reports


@pytest.mark.parametrize("name", ["z2", "f2", "c16", "q6", "s4_points"])
def test_shared_caches_give_the_same_reports(name):
    # one FloatField per field and one WeightPowers per weight, shared by
    # every report, give the reports of a fresh FloatField and WeightPowers
    # per call: no memoized gradient, norm or power leaks between reports
    ball = catalogue.build(name)
    weights = _weights(ball)
    for f in float_fields(ball, 6, seed=4, zero_mean=ball.complete):
        shared = FloatField(ball, f)
        powers = [WeightPowers(w) for w in weights]
        got = _float_reports(ball, lambda: shared, powers.__getitem__, len(weights))
        fresh = _float_reports(
            ball, lambda: FloatField(ball, f), lambda i: WeightPowers(weights[i]), len(weights)
        )
        assert got == fresh


def test_one_float_slack():
    assert uncertainty.RTOL is fields.RTOL


def test_trace_frozen_line(line):
    entries = profile(line, 8)
    trace = isoperimetric_constant_trace(line, entries)
    running = [str(r["running_best"]) for r in trace["rows"]]
    assert running == ["1/4", "1/4", "3/8", "3/8", "5/12", "5/12", "7/16", "7/16"]
    assert trace["best"] == Fraction(7, 16)
    assert trace["best_k"] == 7
    assert trace["exact"]
    bests = [r["running_best"] for r in trace["rows"]]
    assert all(a <= b for a, b in zip(bests, bests[1:]))
    assert all(b < Fraction(1, 2) for b in bests)  # approaches 1/2 from below


def test_trace_frozen_ring(ring16):
    entries = profile(ring16, 8)
    trace = isoperimetric_constant_trace(ring16, entries)
    assert trace["rows"][-1]["ratio"] == Fraction(2, 9)
    assert trace["best"] == Fraction(2, 9)


def test_ascent_monotone_and_beats_spike(line):
    res = uncertainty_ascent(line, seed=0, starts=4, iters=300)
    spike = 6.0 ** -0.5
    assert res.start_values[0] >= spike - 1e-12
    assert res.value == max(res.start_values)
    assert all(a <= b + 1e-15 for a, b in zip(res.trace, res.trace[1:]))
    assert res.value > 0.7  # clearly beats the bare spike


def test_ascent_deterministic(ring16):
    a = uncertainty_ascent(ring16, seed=0, starts=2, iters=100)
    b = uncertainty_ascent(ring16, seed=0, starts=2, iters=100)
    assert a.value == b.value
    assert np.array_equal(a.values, b.values)
    # start 0 is the deterministic spike; the seed moves the random starts
    c = uncertainty_ascent(ring16, seed=1, starts=2, iters=100)
    assert c.start_values[1] != a.start_values[1]


def test_ascent_zero_sum_on_complete(ring16):
    res = uncertainty_ascent(ring16, seed=0, starts=2, iters=150)
    assert abs(res.values.sum()) < 1e-9


def test_ascent_interior_support_on_window(plane):
    res = uncertainty_ascent(plane, seed=0, starts=2, iters=100)
    outside = ~plane.interior_within(1)
    assert np.all(res.values[outside] == 0.0)


def _reference_ascent(ball, seed, starts, iters=300):
    # the ascent with every gradient pass recomputed from its field: the
    # quotient through grad_modulus, the step through grad_modulus and the
    # energy_subgradient of a fresh gradient_pass, weight**2 on every step
    weight = canonical_weight(ball).astype(np.float64)
    n = ball.num_vertices
    mask = np.ones(n, np.bool_) if ball.complete else ball.interior_within(1)

    def project(vec):
        vec = vec * mask
        if ball.complete:
            vec = vec - vec.mean()
        norm = np.sqrt((vec * vec).sum())
        return vec / norm if norm > 0 else vec

    def rayleigh(vec):
        n2 = float((vec * vec).sum())
        g = lp_norm(grad_modulus(ball, vec), 2)
        w2 = lp_norm(weight * vec, 2)
        return 0.0 if g == 0.0 or w2 == 0.0 else n2 / (g * w2)

    def loggrad(vec):
        n2 = float((vec * vec).sum())
        gmod = grad_modulus(ball, vec)
        s = float((gmod * gmod).sum())
        w2 = float(((weight * vec) ** 2).sum())
        sub = energy_subgradient(ball, gradient_pass(ball, vec))
        return 2.0 * vec / n2 - sub / (2.0 * s) - (weight**2) * vec / w2

    best = (-math.inf, None, [], -1)
    start_values = []
    for s in range(starts):
        if s == 0:
            f = np.zeros(n)
            f[ball.base_index] = 1.0
        else:
            f = np.random.default_rng(np.random.SeedSequence([seed, s])).standard_normal(n)
        f = project(f)
        value = rayleigh(f)
        trace = [value]
        step = 0.5
        for _ in range(iters):
            g = loggrad(f) * mask
            improved = False
            for _ in range(20):
                trial = project(f + step * g)
                tv = rayleigh(trial)
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
        if value > best[0]:
            best = (value, f, trace, s)
    return best, start_values


@pytest.mark.parametrize("name", ["c16", "q6", "z2", "heisenberg"])
@pytest.mark.parametrize("starts", [1, 4])
def test_ascent_matches_reference_bit_for_bit(name, starts):
    ball = catalogue.build(name)
    (value, values, trace, start), start_values = _reference_ascent(ball, 11, starts)
    got = uncertainty_ascent(ball, seed=11, starts=starts)
    assert got.value == value
    assert got.trace == trace
    assert got.start == start
    assert got.start_values == start_values
    assert np.array_equal(got.values, values)


def test_ascent_keeps_the_zeros_of_a_start_that_never_moved():
    # with no step taken, random start 1 beats the spike here, and its
    # zeros off the interior keep the signs of its draw, as on the whole
    # window
    ball = specio.build_from_spec(catalogue.spec("z") | {"horizon": 3})
    (value, values, trace, start), _ = _reference_ascent(ball, 11, 2, iters=0)
    got = uncertainty_ascent(ball, seed=11, starts=2, iters=0)
    assert (got.start, got.value, got.trace) == (start, value, trace) == (1, value, [value])
    assert np.signbit(values[~ball.interior]).any()
    assert got.values.tobytes() == values.tobytes()


#: ``uncertainty_ascent(ball)`` at the catalogue horizon: the repr of its
#: value, its trace length and the sha256 of ``values.tobytes()``
ASCENT_BYTES = {
    "heisenberg": ("0.22594893963117865", 184, "584dfe918d7bc26338a3dfa137d9fc53782f60b136c820455493b2d37c77a7aa"),
    "f2": ("0.22594889405618468", 92, "7703a4ec0ada4b7d9c01ca940bfde4e6e5d00bb84b50112d0098135e0db0325f"),
}


@pytest.mark.parametrize("name", sorted(ASCENT_BYTES))
def test_ascent_bytes_on_incomplete_windows(name):
    # the outer shell is most of these windows; the field's bytes there
    # (zeros, with their signs) are pinned too
    res = uncertainty_ascent(catalogue.build(name))
    got = (repr(res.value), len(res.trace), hashlib.sha256(res.values.tobytes()).hexdigest())
    assert got == ASCENT_BYTES[name]


def test_gradients_run_on_the_live_part(monkeypatch):
    # on f2 at horizon 9 the last level holds 26,244 of the 39,365
    # vertices: the spike's gradients see its closed neighbourhood, and a
    # dense field's and the ascent's the interior, whose CSR is cached
    ball = specio.build_from_spec(catalogue.spec("f2") | {"horizon": 9})
    assert ball.indices.shape[0] == 78728
    seen = []
    real = kernels.grad_modulus_csr

    def recorded(indptr, indices, *args):
        seen.append((indptr.shape[0] - 1, indices.shape[0], indptr is ball.prefix_csr[0]))
        return real(indptr, indices, *args)

    monkeypatch.setattr(kernels, "grad_modulus_csr", recorded)
    weight = WeightPowers(canonical_weight(ball))
    for index, want in ((0, (5, 8, False)), (1, (13121, 26240, True))):
        seen.clear()
        field = FloatField(ball, float_field(ball, index))
        additive_link_report(field, weight)
        hpw_report(field, weight)
        assert seen and set(seen) == {want}
    seen.clear()
    uncertainty_ascent(ball, starts=1, iters=2)
    assert seen and set(seen) == {(13121, 26240, True)}
