"""Corpus determinism, spec files, report serialization."""

import json
from fractions import Fraction

import numpy as np
import pytest

from groupiso import catalogue, reporting, specio
from groupiso.corpus import (
    exact_rows,
    field_pool,
    float_fields,
    float_rows,
    rational_fields,
)


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
    ball = specio.build_from_spec(spec, horizon=5)
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
    with pytest.raises((ValueError, KeyError)):
        specio.validate_spec(spec)


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
        catalogue.system("z99")


def test_catalogue_entries_are_valid_specs():
    for name in catalogue.names():
        spec = catalogue.spec(name)
        specio.validate_spec(spec)
        spec["horizon"] = 0  # a copy: the catalogue keeps its entry
        assert catalogue.default_horizon(name) >= 1
