"""Perimeters, exhaustive profiles, annealing, double counting."""

import itertools
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from groupiso import catalogue, isoperimetry, kernels, specio
from groupiso.fields import grad_modulus_exact, l1_norm_exact
from groupiso.groups import ball_from_edges
from groupiso.growth import translation_maps
from groupiso.isoperimetry import (
    WorkCapError,
    _chain_inputs,
    _deficit,
    _pool_floor,
    _probe_temperature,
    anneal_min_perimeter,
    cut_edges,
    default_candidates,
    double_counting_report,
    min_perimeter,
    profile,
    profile_or_anneal,
    set_perimeter,
)


def test_frozen_perimeters(line, plane):
    assert set_perimeter(line, [line.base_index]) == 4
    assert set_perimeter(plane, [plane.base_index]) == 8
    i10 = plane.index_of[(1, 0)]
    i01 = plane.index_of[(0, 1)]
    i11 = plane.index_of[(1, 1)]
    assert set_perimeter(plane, [plane.base_index, i10]) == 12
    assert set_perimeter(plane, [plane.base_index, i10, i01, i11]) == 16


def test_perimeter_is_indicator_gradient(plane):
    rng = np.random.default_rng(3)
    cand = np.flatnonzero(plane.interior)
    for _ in range(20):
        size = int(rng.integers(1, 9))
        subset = [int(v) for v in rng.choice(cand, size=size, replace=False)]
        ind = {v: Fraction(1) for v in subset}
        assert set_perimeter(plane, subset) == l1_norm_exact(
            grad_modulus_exact(plane, ind)
        )


def test_perimeter_counts_cut_edges(ring16):
    arc = [ring16.index_of[x] for x in (0, 1, 2)]
    assert len(cut_edges(ring16, arc)) == 2
    assert set_perimeter(ring16, arc) == 4


def test_profile_line(line):
    entries = profile(line, 8)
    assert [e.perimeter for e in entries] == [4] * 8
    assert all(e.exact for e in entries)


def test_profile_plane(plane):
    entries = profile(plane, 4)
    assert [e.perimeter for e in entries] == [8, 12, 16, 16]


def test_profile_cube_facet(cube):
    entries = profile(cube, 4)
    e4 = entries[3]
    assert e4.perimeter == 8
    assert e4.witness == (0, 1, 2, 4)
    assert {cube.labels[i] for i in e4.witness} == {0, 1, 2, 3}
    # the connected 4-sets of the cube, not the C(8, 4) = 70 subsets
    assert e4.leaves == 38


@pytest.mark.parametrize("name", catalogue.names())
def test_connected_rows_match_the_scan(name):
    ball = catalogue.build(name)
    cand = default_candidates(ball)
    m = cand.shape[0]
    ks = [k for k in range(1, min(4, m) + 1) if math.comb(m, k) <= 3_000_000]
    for entry in profile(ball, ks[-1]):
        # every row the scan reaches is certified, and agrees with it
        assert entry.exact and not entry.capped
        best, _, _, wit = kernels.min_perimeter_scan(
            ball.indptr, ball.indices, cand, entry.k, np.int64(3_000_001)
        )
        assert (entry.perimeter, entry.witness) == (best, tuple(wit.tolist()))


# (k, perimeter, witness, leaves) of every row: the connected-set
# enumeration decides them all, and at these sizes minimizers tie, so the
# witness pins the lexicographically least one
PINNED_ROWS = {
    ("z2", 10): [
        (1, 8, (0,), 61),
        (2, 12, (0, 1), 100),
        (3, 16, (0, 1, 2), 262),
        (4, 16, (0, 1, 3, 6), 716),
        (5, 20, (0, 1, 2, 3, 6), 2051),
        (6, 20, (0, 1, 2, 3, 6, 9), 6052),
        (7, 24, (0, 1, 2, 3, 4, 6, 7), 18268),
        (8, 24, (0, 1, 2, 3, 4, 6, 7, 9), 55889),
        (9, 24, (0, 1, 2, 3, 4, 6, 7, 9, 10), 172142),
        (10, 28, (0, 1, 2, 3, 4, 5, 6, 7, 9, 10), 530970),
    ],
    ("heisenberg", 6): [
        (1, 8, (0,), 1069),
        (2, 12, (0, 1), 1556),
        (3, 16, (0, 1, 2), 3854),
        (4, 20, (0, 1, 2, 3), 11524),
        (5, 24, (0, 1, 2, 3, 4), 40479),
        (6, 28, (0, 1, 2, 3, 4, 5), 155276),
    ],
    ("z3", 6): [
        (1, 12, (0,), 231),
        (2, 20, (0, 1), 510),
        (3, 28, (0, 1, 2), 2127),
        (4, 32, (0, 1, 3, 8), 10068),
        (5, 40, (0, 1, 2, 3, 8), 52404),
        (6, 44, (0, 1, 2, 3, 8, 13), 286264),
    ],
    ("f2", 7): [
        (1, 8, (0,), 485),
        (2, 12, (0, 1), 484),
        (3, 16, (0, 1, 2), 966),
        (4, 20, (0, 1, 2, 3), 2084),
        (5, 24, (0, 1, 2, 3, 4), 5903),
        (6, 28, (0, 1, 2, 3, 4, 5), 18060),
        (7, 32, (0, 1, 2, 3, 4, 5, 6), 59298),
    ],
    ("q6", 6): [
        (1, 12, (0,), 64),
        (2, 20, (0, 1), 192),
        (3, 28, (0, 1, 2), 960),
        (4, 32, (0, 1, 2, 7), 5360),
        (5, 40, (0, 1, 2, 3, 7), 31680),
        (6, 44, (0, 1, 2, 3, 7, 8), 191104),
    ],
}


@pytest.mark.parametrize("name,kmax", PINNED_ROWS, ids=[f"{n}-{k}" for n, k in PINNED_ROWS])
def test_profile_rows_pinned(name, kmax):
    rows = profile(catalogue.build(name), kmax)
    assert all(r.exact and not r.capped for r in rows)
    assert [(r.k, r.perimeter, r.witness, r.leaves) for r in rows] == PINNED_ROWS[name, kmax]


@pytest.mark.parametrize(
    "n,edges,perimeter,witness",
    [
        # K5 with pendants on hubs 0 and 1: the two pendants have
        # perimeter 2 + 2, every connected pair at least 8
        (7, [*itertools.combinations(range(5), 2), (0, 5), (1, 6)], 4, (5, 6)),
        # a star centred on vertex 3: the edge {0, 3} ties the two leaves
        # {0, 1} at perimeter 4, and the leaves come first
        (4, [(0, 3), (1, 3), (2, 3)], 4, (0, 1)),
    ],
    ids=["disconnected", "tie"],
)
def test_uncertified_pair_falls_back_to_the_scan(n, edges, perimeter, witness):
    ball = ball_from_edges("graph", n, edges)
    entry = min_perimeter(ball, 2)
    # the leaves count the scanned subsets, so the scan decided the row
    assert (entry.perimeter, entry.witness, entry.exact) == (perimeter, witness, True)
    assert entry.leaves == math.comb(n, 2)
    assert profile(ball, 2)[1] == entry


def test_min_perimeter_rejects_bad_k(line):
    with pytest.raises(ValueError):
        min_perimeter(line, 0)
    with pytest.raises(ValueError):
        min_perimeter(line, 10**6)


def test_work_cap_raises(plane):
    with pytest.raises(WorkCapError):
        min_perimeter(plane, 10, cap=1000)


@pytest.mark.parametrize(
    "name,kmax,cap",
    # certified rows past the subset cap; annealed rows past the certified
    # ones; a pool smaller than kmax; every row annealed
    [("c16", 8, 1000), ("z2", 6, 2000), ("s4_points", 5, 10), ("heisenberg", 3, 500)],
)
def test_profile_or_anneal_matches_rows_one_at_a_time(name, kmax, cap):
    ball = catalogue.build(name)

    def row(k):
        try:
            return min_perimeter(ball, k, cap=cap)
        except WorkCapError:
            return anneal_min_perimeter(ball, k, seed=5, chains=2, budget=300)

    want = [row(k) for k in range(1, min(kmax, default_candidates(ball).shape[0]) + 1)]
    assert profile_or_anneal(ball, kmax, seed=5, chains=2, budget=300, cap=cap) == want


def test_anneal_rejects_bad_k(line):
    with pytest.raises(ValueError, match="^cardinality must be positive$"):
        anneal_min_perimeter(line, 0)
    m = default_candidates(line).shape[0]
    message = rf"^cardinality {m + 1} exceeds the candidate pool \({m}\)$"
    with pytest.raises(ValueError, match=message):
        anneal_min_perimeter(line, m + 1)


def test_anneal_matches_exact_on_small(ring16):
    exact = profile(ring16, 5)
    for k, ent in enumerate(exact, start=1):
        annealed = anneal_min_perimeter(ring16, k, seed=3, chains=4, budget=4000)
        assert annealed.perimeter == ent.perimeter


def _probe_reference(ball, cand, init, probe_rem, probe_add):
    # the probe from full perimeters: mean |change| over the trial swaps
    base = set(int(v) for v in init)
    p0 = set_perimeter(ball, base)
    deltas = [
        abs(set_perimeter(ball, (base - {int(init[ri])}) | {int(cand[ai])}) - p0)
        for ri, ai in zip(probe_rem, probe_add)
        if int(cand[ai]) not in base
    ]
    scale = float(np.mean(deltas)) if deltas else 0.0
    return scale if scale > 0.0 else 2.0 * float(ball.degrees.max())


@pytest.mark.parametrize("name", catalogue.names())
def test_probe_temperature_matches_full_perimeters(name):
    ball = catalogue.build(name)
    cand = default_candidates(ball)
    for k in (1, 4, 9):
        if k > cand.shape[0]:
            continue
        for seed in (0, 7, 11):
            init, probe_rem, probe_add, _ = _chain_inputs(np.random.default_rng(seed), cand, k, 1)
            want = _probe_reference(ball, cand, init, probe_rem, probe_add)
            assert _probe_temperature(ball, cand, init, probe_rem, probe_add) == want


SPECS = os.path.join(os.path.dirname(__file__), os.pardir, "specs")


@pytest.mark.parametrize(
    "ball",
    [
        specio.build_from_spec(specio.load_spec(os.path.join(SPECS, "path3.json"))),
        specio.build_from_spec(specio.load_spec(os.path.join(SPECS, "s4_points.json"))),
        catalogue.build("z2"),
    ],
    ids=["path3", "s4_points", "z2-whole"],
)
def test_anneal_matches_exact_on_irregular_pools(ball):
    # the whole window: rows of several lengths, so some slots fall past
    # the end of a row and the step takes its fallback vertex
    whole = np.arange(ball.num_vertices)
    for ent in profile(ball, min(4, ball.num_vertices), candidates=whole):
        for seed in range(3):
            annealed = anneal_min_perimeter(ball, ent.k, seed=seed, chains=4, budget=2000, candidates=whole)
            assert annealed.perimeter == ent.perimeter


def test_anneal_seed_sensitivity(cube):
    a = anneal_min_perimeter(cube, 4, seed=0, chains=2, budget=500)
    b = anneal_min_perimeter(cube, 4, seed=0, chains=2, budget=500)
    assert a == b


# ---------------------------------------------------------------------------
# Perimeter floors


def _whole(ball):
    return np.arange(ball.num_vertices)


def _least(holds):
    return next(m for m in itertools.count() if holds(m))


def _cube_floor(n):
    # 2 (n k - 2 e(k)), e(k) the edges among the first k vertices in binary order
    return lambda k: 2 * (n * k - 2 * sum(bin(i).count("1") for i in range(k)))


#: (window, kmax, whole pool, the floor as the literature states it, reached):
#: perimeters are twice the cut edges; z3's Loomis-Whitney bound is not sharp
FLOOR_CASES = [
    ("z", 8, False, lambda k: 4, True),
    ("z2", 10, False, lambda k: 4 * _least(lambda m: m * m >= 4 * k), True),
    ("z3", 7, False, lambda k: 2 * _least(lambda m: m**3 >= 6**3 * k**2), False),
    ("f2", 7, False, lambda k: 4 * k + 4, True),
    ("q6", 6, False, _cube_floor(6), True),
    ("q3", 8, True, _cube_floor(3), True),
    ("q4", 16, True, _cube_floor(4), True),
    ("c6", 6, True, lambda k: 4 if k < 6 else 0, True),
    ("c16", 16, True, lambda k: 4 if k < 16 else 0, True),
    ({"kind": "cyclic", "n": 2, "horizon": 1}, 2, True, lambda k: 2 if k < 2 else 0, True),
    ({"kind": "cyclic", "n": 3, "horizon": 1}, 3, True, lambda k: 4 if k < 3 else 0, True),
]


@pytest.mark.parametrize(
    "window,kmax,whole,stated,reached", FLOOR_CASES, ids=[
        w if isinstance(w, str) else f"c{w['n']}" for w, *_ in FLOOR_CASES
    ],
)
def test_floor_bounds_the_exact_rows(window, kmax, whole, stated, reached):
    # the closed forms are minima over the whole Cayley graph: no exact row
    # lies below them, and where they are sharp the rows reach them
    ball = catalogue.build(window) if isinstance(window, str) else specio.build_from_spec(window)
    cand = _whole(ball) if whole else default_candidates(ball)
    rows = profile(ball, kmax, candidates=cand)
    assert all(r.exact for r in rows)
    floors = [_pool_floor(ball, cand, r.k) for r in rows]
    assert floors == [stated(k) for k in range(1, kmax + 1)]
    assert all(f <= r.perimeter for f, r in zip(floors, rows))
    assert (floors == [r.perimeter for r in rows]) == reached


@pytest.mark.parametrize("name", ["heisenberg", "d4", "d8", "s3", "s4", "s3_points", "s4_points"])
def test_floor_is_none_without_a_closed_form(name):
    ball = catalogue.build(name)
    assert ball.system.floor is None
    assert _pool_floor(ball, _whole(ball), 1) is None


def test_floor_is_none_on_an_explicit_window():
    ball = specio.build_from_spec(specio.load_spec(os.path.join(SPECS, "path3.json")))
    assert _pool_floor(ball, _whole(ball), 1) is None


def test_floor_is_none_on_a_pool_that_reaches_the_boundary(plane, tree):
    # boundary vertices lose neighbours to the horizon: the tip (6, 0) of
    # z2's window has perimeter 2 there, below the floor of 8
    assert set_perimeter(plane, [plane.index_of[(6, 0)]]) == 2
    for ball in (plane, tree):
        assert _pool_floor(ball, default_candidates(ball), 1) is not None
        assert _pool_floor(ball, _whole(ball), 1) is None


FLOOR_WINDOWS = ["c16", "c64", "z", "z2", "z3", "f2", "q4", "q6"]


@pytest.mark.parametrize("name", FLOOR_WINDOWS)
def test_floor_changes_no_annealed_row(name, monkeypatch):
    # a chain stops at the floor only once its best set is final: the rows
    # are those of the whole walk, and only the steps counted shrink
    ball = catalogue.build(name)
    budget, chains = 2000, 2
    cases = [(k, seed) for k in (1, 4, 9) for seed in range(5)]
    on = [anneal_min_perimeter(ball, k, seed, chains, budget) for k, seed in cases]
    monkeypatch.setattr(isoperimetry, "_pool_floor", lambda *args: None)
    off = [anneal_min_perimeter(ball, k, seed, chains, budget) for k, seed in cases]
    assert [(e.perimeter, e.witness) for e in on] == [(e.perimeter, e.witness) for e in off]
    assert all(e.leaves <= budget * chains for e in on)
    assert all(e.leaves == budget * chains for e in off)
    assert sum(e.leaves for e in on) < sum(e.leaves for e in off)


@pytest.mark.parametrize("name", ["z2", "f2"])
def test_anneal_on_a_pool_with_the_boundary_walks_its_budget(name):
    ball = catalogue.build(name)
    for k, seed in [(1, 0), (4, 1), (9, 2)]:
        entry = anneal_min_perimeter(ball, k, seed, 2, 500, candidates=_whole(ball))
        assert entry.leaves == 500 * 2


def test_default_candidates_interior_only(plane):
    cand = default_candidates(plane)
    assert plane.interior[cand].all()
    assert cand.shape[0] == 61


def _double_counting(name):
    ball = catalogue.build(name)
    return double_counting_report(ball, translation_maps(ball))


def test_double_counting_frozen(every_translation):
    cols = every_translation(catalogue.build("c6"))
    a_mask = 1 << 0

    def mean_deficit(b_members):
        return Fraction(sum(_deficit(cols[b], a_mask) for b in b_members), len(b_members))

    assert mean_deficit(range(6)) == Fraction(5, 6)
    # B = {identity, one other element}: deficit exactly 1/2
    assert mean_deficit([0, 1]) == Fraction(1, 2)


def test_double_counting_exhaustive():
    rep = _double_counting("c6")
    assert rep["all_ok"]
    assert rep["checked"] == 692
    assert rep["min_slack"] == 0
    assert rep["violations"] == []
    assert rep["equalities"] == 104


def test_double_counting_symmetric_group():
    rep = _double_counting("s3")
    assert rep["all_ok"]
    assert rep["min_slack"] >= 0


def test_double_counting_rejects_large():
    with pytest.raises(WorkCapError):
        _double_counting("c16")


@pytest.mark.parametrize(
    "name,checked,equalities",
    [("c6", 692, 104), ("c8", 8682, 418), ("d4", 8682, 706), ("s3", 692, 122), ("q3", 8682, 882)],
)
def test_double_counting_pinned(name, checked, equalities):
    # pinned from a table built by the group law, before the orbitals served
    rep = _double_counting(name)
    assert (rep["checked"], rep["equalities"], rep["min_slack"]) == (checked, equalities, 0)
    assert rep["all_ok"] and rep["violations"] == []


def test_double_counting_needs_a_cayley_window():
    ball = catalogue.build("s3_points")
    with pytest.raises(ValueError, match="Cayley"):
        double_counting_report(ball, translation_maps(ball))


def test_double_counting_on_an_explicit_window_is_a_value_error():
    # an edge list carries no group; the orbitals are never read
    path3 = specio.build_from_spec(specio.load_spec(os.path.join(SPECS, "path3.json")))
    assert path3.system is None
    with pytest.raises(ValueError) as err:
        double_counting_report(path3, (np.zeros((3, 3), np.int32), True))
    assert str(err.value) == "double counting needs the complete window of a Cayley system"
