"""Corpus determinism, spec files, report serialization."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from groupiso import catalogue, groups, reporting, specio
from groupiso.fields import median_report
from groupiso.groups import ball_from_edges
from groupiso.corpus import (
    exact_rows,
    field_pool,
    float_field,
    float_fields,
    float_rows,
    rational_fields,
)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def test_exact_corpus_deterministic(plane):
    assert rational_fields(plane, 6, seed=1) == rational_fields(plane, 6, seed=1)
    assert rational_fields(plane, 6, seed=1) != rational_fields(plane, 6, seed=2)


def test_exact_corpus_streams_are_independent(plane):
    # prefix stability: stream i does not depend on how many fields follow
    long = rational_fields(plane, 10, seed=4)
    short = rational_fields(plane, 3, seed=4)
    assert long[:3] == short


def test_float_corpus_deterministic(plane):
    a = float_fields(plane, 7, seed=1)
    b = float_fields(plane, 7, seed=1)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize("name", ["z2", "f2", "c16", "q4", "s4_points"])
def test_float_corpus_is_its_fields_one_by_one(name):
    ball = catalogue.build(name)
    for seed, zero_mean in ((0, False), (3, ball.complete)):
        fields = float_fields(ball, 9, seed, zero_mean)
        assert len(fields) == 9
        for i, f in enumerate(fields):
            g = float_field(ball, i, seed, zero_mean)
            assert f.dtype == g.dtype and f.tobytes() == g.tobytes()


def test_float_corpus_base_spike(plane):
    f0 = float_fields(plane, 1, seed=0)[0]
    assert f0[plane.base_index] == 1.0
    assert np.count_nonzero(f0) == 1


def test_corpus_respects_interior(plane):
    pool = set(int(v) for v in field_pool(plane))
    for f in rational_fields(plane, 10, seed=0):
        assert set(f) <= pool
    for f in float_fields(plane, 10, seed=0):
        assert set(int(v) for v in np.nonzero(f)[0]) <= pool


def test_zero_mean_corpora(ring16):
    for f in rational_fields(ring16, 10, seed=0, zero_mean=True):
        assert sum(f.values(), Fraction(0)) == 0
    for f in float_fields(ring16, 10, seed=0, zero_mean=True):
        assert abs(f.sum()) < 1e-12


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "cyclic", "n": 2, "horizon": 1},
        {"kind": "explicit", "vertices": 2, "edges": [[0, 1]]},
    ],
)
def test_zero_mean_corpus_on_two_vertices(spec):
    # a draw that recentres to the zero field is replaced by a zero sum
    # field (seed 0 draws one at field 7), so every median check has a
    # recentring bound to test
    ball = specio.build_from_spec(spec)
    for f in rational_fields(ball, 50, 0, zero_mean=True):
        assert f and sum(f.values(), Fraction(0)) == 0
        assert median_report(ball, f)["shift_ok"] is True


def test_zero_mean_needs_two_vertices():
    point = ball_from_edges("point", 1, [])
    with pytest.raises(ValueError, match="two vertices"):
        rational_fields(point, 1, zero_mean=True)
    with pytest.raises(ValueError, match="two vertices"):
        float_field(point, 0, zero_mean=True)


def test_zero_mean_needs_complete(plane):
    with pytest.raises(ValueError):
        rational_fields(plane, 2, zero_mean=True)
    with pytest.raises(ValueError):
        float_fields(plane, 2, zero_mean=True)


def test_row_flattening(ring16):
    fields = rational_fields(ring16, 3, seed=0)
    rows = exact_rows(fields)
    assert all(len(r) == 3 for r in rows)
    rebuilt = {}
    for i, v, s in rows:
        rebuilt.setdefault(i, {})[v] = Fraction(s)
    assert rebuilt == {i: f for i, f in enumerate(fields)}
    frows = float_rows(float_fields(ring16, 2, seed=0))
    assert all(float(s) == float(s) for _, _, s in frows)  # parseable, not nan


def test_spec_round_trip(tmp_path):
    spec = {"name": "ring", "kind": "cyclic", "n": 10, "horizon": 10}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(spec))
    ball = specio.build_from_spec(specio.load_spec(path))
    assert ball.name == "ring"
    assert ball.num_vertices == 10
    assert ball.complete


def test_spec_explicit_graph(tmp_path):
    spec = {
        "name": "square",
        "kind": "explicit",
        "vertices": 4,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0]],
    }
    path = tmp_path / "sq.json"
    path.write_text(json.dumps(spec))
    ball = specio.build_from_spec(specio.load_spec(path))
    assert ball.num_vertices == 4
    assert ball.num_edges == 4


def test_spec_horizon_override():
    spec = {"name": "line", "kind": "free_abelian", "rank": 1, "horizon": 3}
    ball = specio.build_from_spec(dict(spec, horizon=5))
    assert ball.horizon == 5
    assert ball.num_vertices == 11


@pytest.mark.parametrize(
    "spec",
    [
        {},
        {"kind": "cyclic", "horizon": 4},
        {"kind": "cyclic", "n": 6},
        {"kind": "unknown", "horizon": 4},
        {"kind": "cyclic", "n": 6, "horizon": 0},
        {"kind": "cyclic", "n": 6, "horizon": "four"},
        {"kind": "cyclic", "n": 6, "horizon": True},
        {"kind": "explicit", "vertices": 3},
        {"kind": "permutation_action", "horizon": 2},
        {"kind": "cyclic", "n": "16", "horizon": 16},
        {"kind": "cyclic", "n": True, "horizon": 16},
        {"kind": "free_abelian", "rank": 0, "horizon": 3},
        {"kind": "cyclic", "n": 6, "horizon": 4, "max_vertices": 0},
        {"kind": "permutation_action", "perms": [], "horizon": 3},
        {"kind": "permutation_action", "perms": [[1, 0, 2], [1, 0]], "horizon": 3},
        {"kind": "permutation_action", "perms": [[1, 0, 2]], "base_point": 3, "horizon": 3},
        {"kind": "explicit", "vertices": 3, "edges": [[0, 1, 2]]},
    ],
)
def test_spec_validation_rejects(spec):
    with pytest.raises(ValueError):
        specio.validate_spec(spec)


@pytest.mark.parametrize(
    "spec, constructor, message",
    [
        ({"kind": "symmetric", "n": 1500, "horizon": 1}, "symmetric_group",
         "symmetric_1500_transpositions: exploration exceeded 500000 vertices"),
        ({"kind": "free_abelian", "rank": 5000, "horizon": 1, "max_vertices": 20000}, "free_abelian",
         "free_abelian_5000: exploration would apply 100010000 moves, more than 64 per vertex"
         " of the budget of 20000"),
        ({"kind": "symmetric", "n": 1500, "horizon": 1, "name": "s1500"}, "symmetric_group",
         "s1500: exploration exceeded 500000 vertices"),
    ],
)
def test_generator_count_breaks_the_budget_before_the_system_is_built(monkeypatch, spec, constructor, message):
    def unbuilt(*args):
        raise AssertionError(f"{constructor}{args} was built")

    monkeypatch.setattr(groups, constructor, unbuilt)
    with pytest.raises(groups.ResourceCapError) as exc:
        specio.build_from_spec(spec)
    assert str(exc.value) == message


def _outcome(build):
    try:
        return build().num_vertices
    except groups.ResourceCapError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "spec",
    [
        # too many moves from the base; too many vertices at level 1; too
        # many moves from level 1; and one generator fewer, each accepted
        {"kind": "hypercube", "dim": 200, "horizon": 1, "max_vertices": 3},
        {"kind": "free_group", "rank": 10, "horizon": 2, "max_vertices": 15},
        {"kind": "free_abelian", "rank": 40, "horizon": 1, "max_vertices": 100},
        {"kind": "free_abelian", "rank": 39, "horizon": 1, "max_vertices": 100},
        {"kind": "symmetric", "n": 14, "horizon": 1, "max_vertices": 100},
        {"kind": "symmetric", "n": 13, "horizon": 1, "max_vertices": 100},
        {"kind": "symmetric", "n": 81, "generators": "adjacent", "horizon": 1, "max_vertices": 100},
        {"kind": "symmetric", "n": 80, "generators": "adjacent", "horizon": 1, "max_vertices": 100},
        {"kind": "hypercube", "dim": 79, "horizon": 1, "max_vertices": 100},
        # past level 1 only exploring can tell
        {"kind": "free_abelian", "rank": 2, "horizon": 3, "max_vertices": 10},
    ],
)
def test_generator_count_check_agrees_with_exploring(spec):
    system = specio._KINDS[spec["kind"]][2](spec)
    direct = _outcome(lambda: groups.explore(system, spec["horizon"], spec["max_vertices"]))
    assert _outcome(lambda: specio.build_from_spec(spec)) == direct


def test_a_spec_name_names_the_system_and_its_errors():
    spec = {"kind": "cyclic", "n": 6, "horizon": 4, "max_vertices": 3, "name": "ring"}
    with pytest.raises(groups.ResourceCapError, match="^ring: exploration exceeded 3 vertices$"):
        specio.build_from_spec(spec)
    ball = specio.build_from_spec(specio.load_spec(SPECS / "c16.json"))
    assert ball.name == ball.system.name == "ring16"


def test_shipped_specs_build():
    import pathlib

    for path in sorted(pathlib.Path("specs").glob("*.json")):
        ball = specio.build_from_spec(specio.load_spec(path))
        assert ball.num_vertices >= 3, path


def test_coerce_fractions_and_arrays():
    out = reporting.coerce(
        {"a": Fraction(-7, 3), "b": np.arange(3), "c": [np.float64(1.5), None]}
    )
    assert out == {"a": "-7/3", "b": [0, 1, 2], "c": [1.5, None]}


def test_json_stable_key_order():
    s = reporting.json_dumps({"z": 1, "a": 2})
    assert s.index('"a"') < s.index('"z"')


def test_csv_text():
    assert reporting.csv_text(["a"], [(Fraction(1, 2),)]) == "a\n1/2\n"


def test_render_table_cells():
    text = reporting.render_table(["x"], [(True,), (False,), (None,), (1.5,)])
    lines = text.splitlines()
    assert lines[2:] == ["yes", "no", "-", "1.5"]


def test_write_helpers(tmp_path):
    jp = tmp_path / "out.json"
    reporting.write_json(jp, {"n": Fraction(3, 4)})
    assert json.loads(jp.read_text()) == {"n": "3/4"}
    cp = tmp_path / "out.csv"
    reporting.write_csv(cp, ["k"], [(1,), (2,)])
    assert cp.read_text() == "k\n1\n2\n"


def test_catalogue_names_complete():
    names = catalogue.names()
    assert len(names) == len(set(names)) == 20
    assert "z2" in names and "s4_points" in names


def test_catalogue_rejects_unknown():
    with pytest.raises(KeyError):
        catalogue.build("z99")


def test_catalogue_entries_are_valid_specs():
    for name in catalogue.names():
        spec = catalogue.spec(name)
        specio.validate_spec(spec)
        spec["horizon"] = 0  # a copy: the catalogue keeps its entry
        assert catalogue.spec(name)["horizon"] >= 1
