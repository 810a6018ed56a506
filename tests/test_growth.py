"""Growth tables, superadditivity, radius selectors, translation bounds."""

from fractions import Fraction

import pytest

from groupiso import catalogue
from groupiso.groups import explore, permutation_action
from groupiso.growth import (
    growth_counts,
    growth_value,
    half_mass_radius,
    mass_radius,
    superadditivity_report,
    translation_maps,
    translation_report,
)


def test_line_growth(line):
    assert list(growth_counts(line)) == [1, 3, 5, 7, 9, 11, 13, 15, 17]


def test_plane_growth(plane):
    # 2r^2 + 2r + 1 at radius r, table entry Gamma(r) = |B(r-1)|... no:
    # Gamma(r) counts dist < r, so Gamma(r) = 2(r-1)^2 + 2(r-1) + 1
    table = list(growth_counts(plane))
    assert table == [2 * r * r + 2 * r + 1 for r in range(7)]


def test_growth_value_extension(ring16):
    assert growth_value(ring16, 9) == 16
    assert growth_value(ring16, 100) == 16  # complete: table saturates


def test_growth_value_beyond_incomplete(plane):
    with pytest.raises(ValueError):
        growth_value(plane, plane.horizon + 2)


def test_superadditivity_infinite(plane):
    rep = superadditivity_report(plane)
    assert rep["all_ok"]
    assert rep["limit"] == 7
    worst = min(rep["pairs"], key=lambda p: p["rhs"] - p["lhs"])
    assert worst["lhs"] <= worst["rhs"]


def test_superadditivity_compact(ring16):
    rep = superadditivity_report(ring16)
    assert rep["limit"] == 4  # floor(diameter / 2)
    assert rep["all_ok"]


def test_mass_radius_on_line(line):
    # Gamma(r) = 2r - 1 >= k  <=>  r >= (k+1)/2
    for k in range(1, 18):
        assert mass_radius(line, k) == (k + 1 + 1) // 2


def test_mass_radius_undecidable(plane):
    assert mass_radius(plane, 86) is None  # window holds only 85


def test_half_mass_radius(ring16):
    assert half_mass_radius(ring16, 8) == 9  # Gamma(9) = 16 = 2k
    assert half_mass_radius(ring16, 9) is None  # 2k > n


def test_translation_cayley_frozen():
    c6 = catalogue.build("c6")
    field = {c6.base_index: Fraction(1)}
    rep = translation_report(catalogue.system("c6"), c6, field)
    row = rep["rows"][c6.index_of[2]]
    assert rep["automorphic"]
    assert row["lhs"] == 2
    assert row["rhs"] == 2 * 4  # dist 2 times grad l1 = 4
    assert row["ok"] and rep["ok"]


def test_translation_dihedral_frozen():
    d4 = catalogue.build("d4")
    sys_ = catalogue.system("d4")
    field = {d4.base_index: Fraction(1)}
    # target at distance 2 with degree-3 window: grad l1 = 6
    target = next(i for i in range(8) if d4.dist[i] == 2)
    rep = translation_report(sys_, d4, field)
    row = rep["rows"][target]
    assert rep["automorphic"]
    assert row["lhs"] == 2
    assert row["rhs"] == 12
    assert row["ok"] and rep["ok"]


def test_translation_schreier_normalizes_by_stabilizer():
    s3 = catalogue.build("s3_points")
    sys_ = catalogue.system("s3_points")
    maps, stab, automorphic = translation_maps(sys_, s3)
    assert automorphic
    assert stab == 2  # |S3| / 3 points
    assert len(maps) == 6


def test_translation_flags_non_automorphic():
    sys_ = permutation_action("s3_two", [(1, 0, 2), (2, 1, 0)])
    ball = explore(sys_, 4)
    maps, stab, automorphic = translation_maps(sys_, ball)
    assert not automorphic
    rep = translation_report(sys_, ball, {0: Fraction(1)}, (maps, stab, automorphic))
    assert rep["ok"] is None
    assert all(row["ok"] is None for row in rep["rows"])


def test_translation_bound_over_corpus():
    from groupiso.corpus import rational_fields

    c12 = catalogue.build("c12")
    sys_ = catalogue.system("c12")
    ms = translation_maps(sys_, c12)
    for field in rational_fields(c12, 25, seed=5):
        rep = translation_report(sys_, c12, field, ms)
        assert [row["target"] for row in rep["rows"]] == list(range(c12.num_vertices))
        assert rep["ok"]


def test_translation_rows_match_reference():
    from groupiso.corpus import rational_fields
    from groupiso.fields import grad_modulus_exact, l1_norm_exact

    for name in ("c12", "d4", "s4_points"):
        ball = catalogue.build(name)
        system = catalogue.system(name)
        ms = translation_maps(system, ball)
        maps, stab, _ = ms
        for field in rational_fields(ball, 5, seed=11):
            rep = translation_report(system, ball, field, ms)
            grad_l1 = l1_norm_exact(grad_modulus_exact(ball, field))
            assert rep["grad_l1"] == grad_l1 and rep["stabilizer"] == stab
            for target, row in enumerate(rep["rows"]):
                # one Fraction sum per target, as the definition reads
                total = sum(
                    (abs(field.get(m[target], Fraction(0)) - field.get(m[ball.base_index], Fraction(0)))
                     for m in maps),
                    Fraction(0),
                )
                assert row["lhs"] == total / stab
                assert row["rhs"] == ball.dist[target] * grad_l1
                assert row["ok"] == (row["lhs"] <= row["rhs"])
