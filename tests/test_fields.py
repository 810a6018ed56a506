"""Exact calculus identities, checked pointwise and as hypothesis properties."""

import functools
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupiso import catalogue
from groupiso.fields import (
    FloatField,
    WeightPowers,
    coarea_report,
    grad_modulus,
    grad_modulus_exact,
    l1_norm_exact,
    lp_norm,
    median_exact,
    median_report,
    power_leibniz_report,
    to_dense,
    zero_sum,
)
from groupiso.groups import ball_from_edges

PATH3 = ball_from_edges("p3", 3, [(0, 1), (1, 2)])


def _rationals():
    return st.fractions(
        min_value=-10, max_value=10, max_denominator=8
    )


def _sparse_fields(max_vertices):
    return st.dictionaries(
        st.integers(0, max_vertices - 1), _rationals(), min_size=1, max_size=8
    )


def test_spike_gradient_on_line(line, dense_norms):
    grad_lp_norm, _ = dense_norms
    field = {line.base_index: Fraction(1)}
    g = grad_modulus_exact(line, field)
    assert l1_norm_exact(g) == 4
    dense = to_dense(line, field)
    assert math.isclose(grad_lp_norm(line, dense, 2.0), math.sqrt(6.0))


def test_spike_gradient_on_plane(plane):
    field = {plane.base_index: Fraction(1)}
    assert l1_norm_exact(grad_modulus_exact(plane, field)) == 8


def test_path3_worked_example():
    # f = (1, 0, 0) on a 3-path: |grad|(0)=1, |grad|(1)=1, both sides 2
    rep = coarea_report(PATH3, {0: Fraction(1)})
    assert rep["lhs"] == rep["rhs"] == 2
    # two levels: f = (2, 1, 0)
    rep = coarea_report(PATH3, {0: Fraction(2), 1: Fraction(1)})
    assert rep["lhs"] == rep["rhs"] == 4
    assert rep["ok"]


def test_gradient_dense_matches_exact(ring16):
    field = {0: Fraction(3, 2), 5: Fraction(-1, 4), 11: Fraction(2)}
    exact = grad_modulus_exact(ring16, field)
    dense = grad_modulus(ring16, to_dense(ring16, field))
    for v in range(ring16.num_vertices):
        assert math.isclose(dense[v], float(exact.get(v, Fraction(0))), abs_tol=1e-12)


@settings(max_examples=60, deadline=None)
@given(_sparse_fields(16))
def test_coarea_identity_property(field):
    ball = catalogue.build("c16")
    rep = coarea_report(ball, field)
    assert rep["lhs"] == rep["rhs"]


@settings(max_examples=60, deadline=None)
@given(_sparse_fields(61))
def test_coarea_on_incomplete_window(field):
    ball = catalogue.build("z2")
    # restrict support to the interior so every cut is visible
    field = {v: x for v, x in field.items() if ball.interior[v]}
    if not field:
        field = {0: Fraction(1)}
    rep = coarea_report(ball, field)
    assert rep["lhs"] == rep["rhs"]


@settings(max_examples=60, deadline=None)
@given(_sparse_fields(16))
def test_median_markov_property(field):
    ball = catalogue.build("c16")
    rep = median_report(ball, field)
    assert rep["markov_ok"]
    m = rep["median"]
    n = ball.num_vertices
    # at least half the mass (implicit zeros included) sits at or below m
    count = sum(1 for v in range(n) if field.get(v, Fraction(0)) <= m)
    assert 2 * count >= n


@settings(max_examples=40, deadline=None)
@given(_sparse_fields(16))
def test_median_shift_property(field):
    ball = catalogue.build("c16")
    n = ball.num_vertices
    mean = Fraction(sum(field.values(), Fraction(0)), n)
    centred = {v: field.get(v, Fraction(0)) - mean for v in range(n)}
    centred = {v: x for v, x in centred.items() if x}
    rep = median_report(ball, centred)
    assert rep["zero_sum"]
    assert rep["shift_ok"] is not False


def test_median_candidates_include_zero(ring16):
    # all-positive sparse field on a mostly-zero graph: median is 0
    field = {0: Fraction(5), 1: Fraction(7)}
    assert median_exact(ring16, field) == 0


def test_median_frozen_c4():
    c4 = catalogue.build("c6")  # any small ring works; freeze on c6
    field = {0: Fraction(1), 1: Fraction(-1)}
    assert median_exact(c4, field) == 0


def _reference_median_exact(ball, field):
    # the candidate loop: each value of the field, and 0, counted against
    # every value of the field, the least one with half the window below it
    n = ball.num_vertices
    zeros = n - sum(1 for x in field.values() if x)
    for t in sorted(set(field.values()) | {Fraction(0)}):
        count = sum(1 for x in field.values() if x and x <= t)
        if t >= 0:
            count += zeros
        if 2 * count >= n:
            return t


@functools.lru_cache(maxsize=None)
def _path(n):
    return ball_from_edges(f"p{n}", n, [(i, i + 1) for i in range(n - 1)])


@st.composite
def _median_cases(draw):
    # a window of 1 to 40 vertices; values of one sign or both, explicit
    # zeros among them, on some vertices or on all of them
    n = draw(st.integers(1, 40))
    sign = draw(st.sampled_from([None, 1, -1]))
    values = _rationals() if sign is None else _rationals().map(lambda x: sign * abs(x))
    if draw(st.booleans()):
        support = range(n)
    else:
        support = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    return n, {v: draw(values) for v in support}


@settings(max_examples=300, deadline=None)
@given(_median_cases())
@example((1, {}))
@example((2, {0: Fraction(-1), 1: Fraction(-3)}))
@example((4, {0: Fraction(1), 1: Fraction(2), 2: Fraction(0), 3: Fraction(5, 2)}))
@example((5, {1: Fraction(-2), 3: Fraction(0)}))
def test_median_exact_matches_candidate_loop(case):
    n, field = case
    ball = _path(n)
    got = median_exact(ball, field)
    assert got == _reference_median_exact(ball, field)
    assert type(got) is Fraction


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1.5, 2.0, 3.0]))
def test_power_leibniz_property(seed, p):
    ball = catalogue.build("q4")
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(ball.num_vertices)
    rep = power_leibniz_report(FloatField(ball, values), p)
    assert rep["ok"]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["z2", "f2", "heisenberg", "q4"]), st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_live_part_gives_the_window_values_to_the_bit(dense_norms, name, seed, size):
    # any support, the outer shell of an incomplete window included; size
    # 0 is the zero field and size 40 a field on every vertex
    grad_lp_norm, weighted_lp_norm = dense_norms
    ball = catalogue.build(name)
    n = ball.num_vertices
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n)
    if size < 40:
        values[rng.permutation(n)[size:]] = 0.0
    field = FloatField(ball, values)
    weight = ball.dist + 1.0
    powers = WeightPowers(weight)
    gmod = np.zeros(n)
    gmod[field.part.where] = grad_modulus(field.part, field.live)
    assert gmod.tobytes() == grad_modulus(ball, values).tobytes()
    for p in (1.0, 2.0, 3.0):
        power = np.abs(values) ** p
        assert field.norm(p) == lp_norm(values, p)
        assert field.grad_norm(p) == grad_lp_norm(ball, values, p)
        assert field.power_grad_norm(p) == lp_norm(grad_modulus(ball, power), 1)
        assert field.power_sum(p) == float(power.sum())
        for alpha in (0.5, 2.0):
            got = lp_norm(field.weighted(powers, alpha), p, field.part)
            assert got == weighted_lp_norm(values, weight, alpha, p)
            got = field.weighted_power_sum(powers, p * alpha, p)
            assert got == float((weight ** (p * alpha) * power).sum())


def test_power_rule_reads_the_shared_slack(monkeypatch):
    from groupiso import fields

    ball = catalogue.build("q4")
    values = np.random.default_rng(0).standard_normal(ball.num_vertices)
    assert power_leibniz_report(FloatField(ball, values), 2.0)["ok"]
    # a slack of -1 turns every bound into 0, which no gradient meets
    monkeypatch.setattr(fields, "RTOL", -1.0)
    assert not power_leibniz_report(FloatField(ball, values), 2.0)["ok"]


def test_lp_norm_special_cases():
    v = np.array([3.0, -4.0, 0.0])
    assert lp_norm(v, 1.0) == 7.0
    assert lp_norm(v, 2.0) == 5.0
    assert math.isclose(lp_norm(v, 3.0), (27 + 64) ** (1 / 3))


def test_weighted_norm(dense_norms):
    _, weighted_lp_norm = dense_norms
    v = np.array([1.0, -2.0])
    w = np.array([1.0, 3.0])
    # alpha = 1, p = 1: sum w|f| = 1 + 6
    assert weighted_lp_norm(v, w, 1.0, 1.0) == 7.0
    # alpha = 2, p = 2: (sum w^4 f^2)^(1/2)
    assert math.isclose(weighted_lp_norm(v, w, 2.0, 2.0), math.sqrt(1 + 81 * 4))


def test_zero_sum_projector():
    v = np.array([1.0, 2.0, 3.0, 6.0])
    z = zero_sum(v)
    assert math.isclose(z.sum(), 0.0, abs_tol=1e-15)
    assert np.allclose(z, v - 3.0)


def test_coarea_layers_structure(ring16):
    field = {0: Fraction(3), 1: Fraction(1), 2: Fraction(-2)}
    rep = coarea_report(ring16, field)
    assert rep["ok"]
    levels = [layer["threshold"] for layer in rep["layers"]]
    assert levels == sorted(levels)
    assert all(layer["perimeter"] > 0 for layer in rep["layers"])


def _reference_grad_modulus_exact(ball, field):
    # the Fraction loop: one Fraction difference per CSR entry
    touched = set(field)
    for v in list(field):
        touched.update(int(w) for w in ball.indices[ball.indptr[v] : ball.indptr[v + 1]])
    out = {}
    for v in touched:
        fv = field.get(v, Fraction(0))
        acc = Fraction(0)
        for e in range(ball.indptr[v], ball.indptr[v + 1]):
            acc += abs(fv - field.get(int(ball.indices[e]), Fraction(0)))
        if acc:
            out[v] = acc
    return out


@pytest.mark.parametrize("name", ["c16", "q6", "z2", "d8", "s4_points", "heisenberg"])
def test_grad_modulus_exact_matches_fraction_loop(name):
    from groupiso.corpus import rational_fields

    ball = catalogue.build(name)
    fields = rational_fields(ball, 20, seed=3)
    if ball.complete:
        fields += rational_fields(ball, 5, seed=4, zero_mean=True)
    fields += [{}, {ball.base_index: Fraction(-7, 3)}, {ball.base_index: 2}]
    for field in fields:
        got = grad_modulus_exact(ball, field)
        want = _reference_grad_modulus_exact(ball, field)
        assert got == want
        assert all(type(x) is Fraction for x in got.values())


@settings(max_examples=60, deadline=None)
@given(_sparse_fields(16))
def test_grad_modulus_exact_matches_fraction_loop_property(field):
    ball = catalogue.build("c16")
    assert grad_modulus_exact(ball, field) == _reference_grad_modulus_exact(ball, field)


#: sha256 of the reprs of every exact report of _exact_report_reprs, in order
EXACT_REPORTS_SHA256 = "b7baa7f601afb10b0b669caa543a8c8370d70e74e278104309ec71e4dcf1cd6e"


def _exact_report_reprs():
    # per catalogue window and seed 0-2, as verify draws its fields: the
    # coarea report, gradient l1 norm and median report of each field,
    # the median report of each zero mean field (seed + 1) of a complete
    # window, and the translation report of each field there
    from groupiso.corpus import rational_fields
    from groupiso.growth import translation_maps, translation_report

    for name in catalogue.names():
        ball = catalogue.build(name)
        maps = translation_maps(ball) if ball.complete and ball.system is not None else None
        for seed in range(3):
            exact = rational_fields(ball, 20, seed)
            for f in exact:
                yield repr(coarea_report(ball, f))
                yield repr(l1_norm_exact(grad_modulus_exact(ball, f)))
                yield repr(median_report(ball, f))
            if ball.complete:
                for f in rational_fields(ball, 20, seed + 1, zero_mean=True):
                    yield repr(median_report(ball, f))
            if maps is not None:
                for f in exact:
                    yield repr(translation_report(ball, f, maps))


def test_exact_reports_keep_their_bytes():
    # every returned Fraction, threshold and flag of the exact layer, to the
    # byte, over the whole catalogue
    reprs = list(_exact_report_reprs())
    assert len(reprs) == 5400
    assert hashlib.sha256("".join(reprs).encode()).hexdigest() == EXACT_REPORTS_SHA256
