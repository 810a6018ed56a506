"""Growth tables, superadditivity, radius selectors, translation bounds."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from groupiso import catalogue, cli
from groupiso.groups import GeneratedSystem, cyclic, explore, permutation_action
from groupiso.growth import (
    growth_counts,
    growth_value,
    half_mass_radius,
    mass_radius,
    superadditivity_report,
    translation_maps,
    translation_report,
)
from groupiso.specio import build_from_spec, load_spec

SPECS = Path(__file__).resolve().parent.parent / "specs"
JOHNSON = SPECS / "johnson_7_3.json"


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
    rep = translation_report(c6, field, translation_maps(c6))
    row = rep["rows"][c6.index_of[2]]
    assert rep["automorphic"]
    assert row["lhs"] == 2
    assert row["rhs"] == 2 * 4  # dist 2 times grad l1 = 4
    assert row["ok"] and rep["ok"]


def test_translation_dihedral_frozen():
    d4 = catalogue.build("d4")
    field = {d4.base_index: Fraction(1)}
    # target at distance 2 with degree-3 window: grad l1 = 6
    target = next(i for i in range(8) if d4.dist[i] == 2)
    rep = translation_report(d4, field, translation_maps(d4))
    row = rep["rows"][target]
    assert rep["automorphic"]
    assert row["lhs"] == 2
    assert row["rhs"] == 12
    assert row["ok"] and rep["ok"]


def _reference_rows(ball, field, maps):
    """Left sides as the definition reads: the sum over the whole group
    of |f(g . t) - f(g . base)|, one Fraction per target, divided by the
    stabilizer order |G| / n."""
    value = [field.get(v, Fraction(0)) for v in range(ball.num_vertices)]
    stabilizer = Fraction(len(maps), ball.num_vertices)
    base = ball.base_index
    return [
        sum((abs(value[m[t]] - value[m[base]]) for m in maps), Fraction(0)) / stabilizer
        for t in range(ball.num_vertices)
    ]


def test_translation_schreier_normalizes_by_stabilizer(every_translation):
    from groupiso.corpus import rational_fields

    s3 = catalogue.build("s3_points")
    maps = every_translation(s3)
    assert len(maps) == 6  # |S3|, so the stabilizer of a point has order 2
    orbitals = translation_maps(s3)
    assert orbitals[1]
    for field in rational_fields(s3, 5, seed=3):
        rep = translation_report(s3, field, orbitals)
        assert [row["lhs"] for row in rep["rows"]] == _reference_rows(s3, field, maps)


def test_translation_flags_non_automorphic():
    ball = explore(permutation_action("s3_two", [(1, 0, 2), (2, 1, 0)]), 4)
    orbitals = translation_maps(ball)
    assert not orbitals[1]
    rep = translation_report(ball, {0: Fraction(1)}, orbitals)
    assert rep["ok"] is None
    assert all(row["ok"] is None for row in rep["rows"])


def test_translation_maps_on_an_explicit_window_is_a_value_error():
    path3 = build_from_spec(load_spec(SPECS / "path3.json"))
    assert path3.complete and path3.system is None
    with pytest.raises(ValueError) as err:
        translation_maps(path3)
    assert str(err.value) == "translation maps need a generated system; an explicit window has none"


def test_translation_bound_over_corpus():
    from groupiso.corpus import rational_fields

    c12 = catalogue.build("c12")
    ms = translation_maps(c12)
    for field in rational_fields(c12, 25, seed=5):
        rep = translation_report(c12, field, ms)
        assert [row["target"] for row in rep["rows"]] == list(range(c12.num_vertices))
        assert rep["ok"]


def test_translation_rows_match_reference(every_translation):
    from groupiso.corpus import rational_fields
    from groupiso.fields import grad_modulus_exact, l1_norm_exact

    windows = [catalogue.build(name) for name in ("c12", "d4", "s4_points")]
    windows.append(build_from_spec(load_spec(JOHNSON)))
    for ball in windows:
        maps = every_translation(ball)
        orbitals = translation_maps(ball)
        for field in rational_fields(ball, 2, seed=11):
            rep = translation_report(ball, field, orbitals)
            grad_l1 = l1_norm_exact(grad_modulus_exact(ball, field))
            assert rep["grad_l1"] == grad_l1
            assert [row["lhs"] for row in rep["rows"]] == _reference_rows(ball, field, maps)
            for target, row in enumerate(rep["rows"]):
                assert row["rhs"] == ball.dist[target] * grad_l1
                assert row["ok"] == (row["lhs"] <= row["rhs"])


COMPLETE_CAYLEY = [
    name for name in catalogue.names()
    if catalogue.build(name).system.kind == "cayley" and catalogue.build(name).complete
]


def test_orbital_rows_invert_the_right_translations(every_translation):
    # the double counting check shifts sets by argsort(orbital), not by a
    # table of its own
    assert len(COMPLETE_CAYLEY) == 13
    for name in COMPLETE_CAYLEY:
        ball = catalogue.build(name)
        orbital, automorphic = translation_maps(ball)
        assert automorphic
        assert np.argsort(orbital, axis=1).tolist() == every_translation(ball), name


def test_a_lawless_cycle_is_a_schreier_system_translated_by_its_moves():
    # no law, so no Cayley system: the translations are the moves, which
    # on an abelian group are the right multiplications the law would give
    system = GeneratedSystem("c5", 0, (lambda x: (x + 1) % 5, lambda x: (x - 1) % 5))
    assert system.kind == "schreier"
    ball, group = explore(system, 3), explore(cyclic(5), 3)
    assert not ball.regular and ball.complete
    for attr in ("dist", "indptr", "indices"):
        assert getattr(ball, attr).tolist() == getattr(group, attr).tolist()
    (orbital, automorphic), (want, want_automorphic) = translation_maps(ball), translation_maps(group)
    assert orbital.tolist() == want.tolist() and automorphic == want_automorphic
    checks = cli._verify_checks(ball, 5, 0)
    assert all(c["ok"] for c in checks), checks
    names = [c["name"] for c in checks]
    assert "translation" in names and "double-counting" not in names
