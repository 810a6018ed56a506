"""Perimeters, exhaustive profiles, annealing, double counting."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from groupiso import catalogue, kernels
from groupiso.fields import grad_modulus_exact, l1_norm_exact
from groupiso.groups import ball_from_edges, right_translations
from groupiso.isoperimetry import (
    WorkCapError,
    anneal_min_perimeter,
    cut_edges,
    default_candidates,
    double_counting_report,
    min_perimeter,
    profile,
    profile_or_anneal,
    set_perimeter,
    shift_deficit,
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


def test_work_cap_partial(plane):
    entry = min_perimeter(plane, 10, cap=1000, on_cap="partial")
    assert entry.capped
    assert not entry.exact
    assert entry.perimeter >= 8


@pytest.mark.parametrize("on_cap", ["Raise", "", "anneal"])
def test_unknown_on_cap_is_an_error(plane, on_cap):
    with pytest.raises(ValueError, match="on_cap must be 'raise' or 'partial'"):
        min_perimeter(plane, 10, cap=1000, on_cap=on_cap)
    with pytest.raises(ValueError, match="on_cap must be 'raise' or 'partial'"):
        profile(plane, 2, on_cap=on_cap)


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


def test_anneal_seed_sensitivity(cube):
    a = anneal_min_perimeter(cube, 4, seed=0, chains=2, budget=500)
    b = anneal_min_perimeter(cube, 4, seed=0, chains=2, budget=500)
    assert a == b


def test_default_candidates_interior_only(plane):
    cand = default_candidates(plane)
    assert plane.interior[cand].all()
    assert cand.shape[0] == 61


def test_double_counting_frozen():
    c6 = catalogue.build("c6")
    sys_ = catalogue.system("c6")
    cols = right_translations(sys_, c6)
    full = (1 << 6) - 1
    a_mask = 1 << 0
    assert shift_deficit(cols, a_mask, list(range(6))) == Fraction(5, 6)
    # B = {identity, one other element}: deficit exactly 1/2
    assert shift_deficit(cols, a_mask, [0, 1]) == Fraction(1, 2)


def test_double_counting_exhaustive():
    rep = double_counting_report(catalogue.system("c6"), catalogue.build("c6"))
    assert rep["all_ok"]
    assert rep["checked"] == 692
    assert rep["min_slack"] == 0
    assert rep["violations"] == []
    assert rep["equalities"] == 104


def test_double_counting_symmetric_group():
    rep = double_counting_report(catalogue.system("s3"), catalogue.build("s3"))
    assert rep["all_ok"]
    assert rep["min_slack"] >= 0


def test_double_counting_rejects_large():
    with pytest.raises(WorkCapError):
        double_counting_report(catalogue.system("c16"), catalogue.build("c16"))
