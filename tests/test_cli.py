"""End-to-end command line checks in subprocesses."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

SPECS = os.path.join(os.path.dirname(__file__), os.pardir, "specs")


def run_cli(*args, check=True):
    out = subprocess.run(
        [sys.executable, "-m", "groupiso.cli", *args],
        capture_output=True, text=True,
    )
    if check:
        assert out.returncode == 0, out.stderr
    return out


def test_build_list():
    out = run_cli("build", "--list")
    assert "z2" in out.stdout.split()


def test_build_summary_and_json(tmp_path):
    jp = tmp_path / "b.json"
    out = run_cli("build", "--instance", "q3", "--json", str(jp))
    assert "hypercube_3" in out.stdout
    payload = json.loads(jp.read_text())
    assert payload["vertices"] == 8
    assert payload["growth"] == [1, 4, 7, 8, 8]
    assert payload["issues"] == []


def test_build_from_spec():
    out = run_cli("build", "--spec", os.path.join(SPECS, "path3.json"))
    assert "path3" in out.stdout


def test_build_requires_target():
    out = run_cli("build", check=False)
    assert out.returncode == 2


def test_build_list_excludes_instance():
    out = run_cli("build", "--list", "--instance", "z2", check=False)
    assert out.returncode == 2


def test_growth_csv(tmp_path):
    cp = tmp_path / "g.csv"
    out = run_cli("growth", "--instance", "c16", "--csv", str(cp))
    assert "superadditivity: PASS" in out.stdout
    lines = cp.read_text().splitlines()
    assert lines[0] == "radius,ball_size"
    assert lines[1] == "1,1"
    assert lines[-1] == "17,16"


def test_isoperimetry_table():
    out = run_cli("isoperimetry", "--instance", "z2", "--kmax", "3")
    rows = [l.split() for l in out.stdout.splitlines()[2:]]
    assert [r[1] for r in rows] == ["8", "12", "16"]


def test_isoperimetry_connected_rows_past_the_scan():
    # the scan raises from k = 6 on; connected sets certify every row
    out = run_cli("isoperimetry", "--instance", "z2", "--kmax", "9")
    rows = [l.split() for l in out.stdout.splitlines()[2:]]
    assert [r[0] for r in rows] == [str(k) for k in range(1, 10)]
    assert [int(r[1]) for r in rows] == [8, 12, 16, 16, 20, 20, 24, 24, 24]
    assert all(r[-2:] == ["no", "yes"] for r in rows)


def test_isoperimetry_cap_exit():
    out = run_cli(
        "isoperimetry", "--instance", "z2", "--kmax", "9", "--cap", "1000",
        check=False,
    )
    _one_error_line(out)
    # the connected walk decided rows 1 to 4 within the cap; row 5 stops
    assert out.stderr.startswith("error: 5949147 subsets of size 5 exceed the cap of 1000;")
    assert out.stderr.endswith("; rows 1 to 4 are exact under the same cap\n")


def test_constants_report(tmp_path):
    jp = tmp_path / "c.json"
    out = run_cli(
        "constants", "--instance", "c16", "--kmax", "8", "--cap", "300000",
        "--json", str(jp),
    )
    assert "isoperimetric constant estimate: 2/9 (k=8)" in out.stdout
    payload = json.loads(jp.read_text())
    assert payload["isoperimetric"]["best"] == "2/9"
    assert payload["uncertainty"]["value"] > 0.2
    assert payload["uncertainty_over_isoperimetric_squared"] > 0
    certs = {(c["p"], c["alpha"]): c["certified"] for c in payload["certified"]}
    assert certs[(1.0, 1.0)] == 128.0


def test_verify_pass():
    out = run_cli("verify", "--instance", "c16", "--fields", "15")
    assert "verify cyclic_16: PASS" in out.stdout
    assert "FAIL" not in out.stdout


def test_verify_infinite_window():
    out = run_cli("verify", "--instance", "z2", "--fields", "10")
    assert "verify free_abelian_2: PASS" in out.stdout
    # compact-only checks are absent, not failed
    assert "median" not in out.stdout
    assert "poincare" not in out.stdout


def test_verify_json_payload(tmp_path):
    jp = tmp_path / "v.json"
    run_cli("verify", "--instance", "c6", "--fields", "8", "--json", str(jp))
    payload = json.loads(jp.read_text())
    assert payload["all_ok"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "double-counting" in names
    assert "translation" in names


def test_corpus_exact_csv(tmp_path):
    cp = tmp_path / "f.csv"
    a = run_cli("corpus", "--instance", "z", "--fields", "3", "--csv", str(cp))
    b = run_cli("corpus", "--instance", "z", "--fields", "3")
    assert a.stdout == b.stdout
    header, *rows = cp.read_text().splitlines()
    assert header == "field,vertex,value"
    assert all(len(r.split(",")) == 3 for r in rows)


def test_corpus_zero_mean_float():
    out = run_cli(
        "corpus", "--instance", "c6", "--kind", "float", "--fields", "2", "--zero-mean"
    )
    rows = [l.split() for l in out.stdout.splitlines()[2:]]
    by_field = {}
    for i, v, x in rows:
        by_field.setdefault(i, []).append(float(x))
    for vals in by_field.values():
        assert abs(sum(vals)) < 1e-9


def _one_error_line(out):
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr


@pytest.mark.parametrize(
    "args",
    [
        ("isoperimetry", "--instance", "z2", "--kmax", "x"),
        ("isoperimetry", "--kmax", "3"),
        ("isoperimetry", "--instance", "z2", "--no-such-option", "1"),
    ],
    ids=["bad-int", "no-instance", "unknown-option"],
)
def test_parser_error_is_one_error_line(args):
    out = run_cli(*args, check=False)
    _one_error_line(out)
    assert out.stdout == ""


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_zero_mean_corpus_on_one_vertex_is_an_error(tmp_path, kind):
    # no field on a single vertex sums to zero but the zero field
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"kind": "explicit", "vertices": 1, "edges": []}))
    args = ("corpus", "--spec", str(path), "--kind", kind, "--zero-mean", "--fields", "2")
    out = run_cli(*args, check=False)
    _one_error_line(out)
    assert "two vertices" in out.stderr
    assert out.stdout == ""


def test_unknown_instance_fails():
    for command in ("build", "growth"):
        out = run_cli(command, "--instance", "nope", check=False)
        _one_error_line(out)
        assert out.stderr.startswith("error: unknown instance 'nope'")


def test_vertex_budget_is_an_error():
    _one_error_line(
        run_cli("build", "--instance", "f2", "--horizon", "12", "--max-vertices", "1000", check=False)
    )


@pytest.mark.parametrize("target", [("--instance", "z2"), ("--spec", os.path.join(SPECS, "path3.json"))])
def test_zero_horizon_is_an_error(target):
    _one_error_line(run_cli("build", *target, "--horizon", "0", check=False))


def test_boolean_spec_horizon_is_an_error(tmp_path):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"kind": "cyclic", "n": 6, "horizon": True}))
    _one_error_line(run_cli("build", "--spec", str(path), check=False))


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "cyclic", "n": "16", "horizon": 16},
        {"kind": "free_abelian", "rank": 0, "horizon": 3},
        {"kind": "explicit", "vertices": 1, "edges": []},
        {"kind": "permutation_action", "perms": [], "horizon": 3},
        [{"kind": "cyclic", "n": 6, "horizon": 6}],
        {"kind": "cyclic", "n": 6, "horizon": 6, "name": 5},
        {"kind": "cyclic", "n": 6, "horizon": 6, "name": ["x"]},
        # a misspelled key, and a key of another kind
        {"kind": "cyclic", "n": 6, "horizon": 6, "max_vertice": 1},
        {"kind": "explicit", "vertices": 3, "edges": [[0, 1], [1, 2]], "base_point": 1},
    ],
)
def test_bad_spec_verify_is_an_error(tmp_path, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    _one_error_line(run_cli("verify", "--spec", str(path), "--fields", "3", check=False))


@pytest.mark.parametrize(
    "spec",
    [{"kind": "symmetric", "n": 1, "horizon": 2}, {"kind": "explicit", "vertices": 1, "edges": []}],
)
def test_edgeless_constants_is_an_error(tmp_path, spec):
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps(spec))
    out = run_cli("constants", "--spec", str(path), check=False)
    _one_error_line(out)
    assert "no edges" in out.stderr
    assert out.stdout == ""


@pytest.mark.parametrize("extra", [(), ("--anneal",)], ids=["scan", "anneal"])
def test_cardinality_past_the_pool_is_an_error(extra):
    # c6 has a pool of six vertices; rows 1 to 6 pass, row 7 stops the command
    out = run_cli("isoperimetry", "--instance", "c6", "--kmax", "10", *extra, check=False)
    _one_error_line(out)
    assert out.stderr == "error: cardinality 7 exceeds the candidate pool (6)\n"
    assert out.stdout == ""


@pytest.mark.parametrize(
    "extra",
    [
        ("--instance", "c16", "--kmax", "8", "--cap", "1000"),
        # rows 5 and 6 are annealed
        ("--instance", "z2", "--kmax", "6", "--cap", "2000", "--chains", "1", "--budget", "100"),
    ],
    ids=["c16", "z2"],
)
def test_constants_enumerates_connected_sets_once(monkeypatch, capsys, extra):
    from groupiso import cli, kernels

    calls = []
    real = kernels.connected_profile

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "connected_profile", counted)
    assert cli.main(["constants", *extra, "--starts", "1", "--iters", "5"]) == 0
    assert len(calls) == 1
    assert "isoperimetric constant estimate" in capsys.readouterr().out


def _list_composition(ball, nfields, seed):
    """The float check lines as verify composed them over the whole
    ``float_fields`` list, each report call on a fresh field and weight."""
    from groupiso import corpus, fields, uncertainty
    from groupiso.fields import FloatField, WeightPowers
    from groupiso.uncertainty import EXPONENTS

    floats = corpus.float_fields(ball, nfields, seed, zero_mean=ball.complete)
    weights = [uncertainty.canonical_weight(ball)]
    pool = corpus.field_pool(ball)
    far = int(pool[np.argmax(ball.dist[pool])])
    if far != ball.base_index:
        weights.append(uncertainty.multipoint_weight(ball, [ball.base_index, far]))
    weights = [w.astype(np.float64) for w in weights]
    usable = [w for w in weights if uncertainty.admissibility_report(ball, w)["admissible"]]
    grids = [
        g for f in floats
        for g in uncertainty.additive_link_report(FloatField(ball, f), WeightPowers(weights[0]))["grids"]
    ]
    bad = sum(not g["all_ok"] for g in grids)
    vacuous = sum(g["vacuous"] for g in grids)
    checks = {"additive-links": (bad == 0, f"{len(floats)} fields x 9 grids, {bad} failures, {vacuous} vacuous")}
    oks = [
        r["ok"] for f in floats for w in usable
        for r in uncertainty.hpw_report(FloatField(ball, f), WeightPowers(w))["rows"]
    ]
    checks["uncertainty-ratio"] = (all(oks), f"{len(oks)} ratios, {oks.count(False)} failures")
    bad = sum(
        not fields.power_leibniz_report(FloatField(ball, f), p)["ok"] for f in floats for p in (2.0, 3.0)
    )
    checks["power-rule"] = (bad == 0, f"{len(floats)} fields, {bad} failures")
    if ball.complete:
        reports = [uncertainty.poincare_report(FloatField(ball, f)) for f in floats]
        bad = sum(not r["ok"] for rep in reports for r in rep["rows"])
        checks["poincare"] = (bad == 0, f"{len(floats)} fields x {len(EXPONENTS)} exponents, {bad} failures")
    return checks


@pytest.mark.parametrize("name", ["z2", "f2", "c16", "q4", "s4_points"])
def test_streamed_float_checks_match_the_list_composition(name):
    from groupiso import catalogue, cli

    ball = catalogue.build(name)
    assert name != "f2" or ball.horizon == 6
    for nfields, seed in ((12, 0), (7, 5)):
        got = {
            c["name"]: (c["ok"], c["detail"])
            for c in cli._verify_checks(ball, nfields, seed)
            if c["name"] in ("additive-links", "uncertainty-ratio", "power-rule", "poincare")
        }
        assert got == _list_composition(ball, nfields, seed)


@pytest.mark.parametrize("name, per_field", [("z2", 4), ("f2", 4), ("c16", 3), ("q4", 3)])
def test_verify_takes_each_gradient_once_per_field(monkeypatch, capsys, name, per_field):
    # infinite windows need the gradients of f, |f|, |f|^2 and |f|^3;
    # complete ones of f, |f|^2 and |f|^3
    from groupiso import cli, kernels

    calls = []
    real = kernels.grad_modulus_csr

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(kernels, "grad_modulus_csr", counted)
    assert cli.main(["verify", "--instance", name, "--fields", "9"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(calls) == per_field * 9


@pytest.mark.parametrize("name, per_field", [("z2", 27), ("f2", 27), ("c16", 35), ("q4", 35)])
def test_verify_takes_each_norm_once_per_field(monkeypatch, capsys, name, per_field):
    # per field, the unweighted norms ||f||_p, ||grad f||_p and
    # ||grad |f|^p||_1 once each (9; 8 on complete windows, where nothing
    # reads ||grad |f|||_1), 9 weighted norms for each of the two
    # admissible weights in the ratios and, on complete windows, 9 more
    # for the canonical weight in the additive links
    from groupiso import cli, fields, uncertainty

    calls = []
    real = fields.lp_norm

    def counted(*args):
        calls.append(1)
        return real(*args)

    for module in (fields, uncertainty):
        monkeypatch.setattr(module, "lp_norm", counted)
    assert cli.main(["verify", "--instance", name, "--fields", "9"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(calls) == per_field * 9


def test_verify_memory_does_not_grow_with_fields():
    import tracemalloc

    from groupiso import catalogue, cli, specio

    ball = specio.build_from_spec(catalogue.spec("f2") | {"horizon": 8})
    dense = 8 * ball.num_vertices
    peaks = {}
    cli._verify_checks(ball, 2, 0)  # caches on the window fill here, untraced
    for nfields in (4, 40):
        tracemalloc.start()
        try:
            cli._verify_checks(ball, nfields, 0)
            peaks[nfields] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[40] - peaks[4] < 2 * dense, (peaks, dense)


def test_zero_fields_verify_is_an_error():
    _one_error_line(run_cli("verify", "--instance", "c6", "--fields", "0", check=False))


#: a bad value for each count argument, and a command that takes it
BAD_COUNTS = {
    "--kmax": ("isoperimetry", "--instance", "z2", "--kmax", "0"),
    "--cap": ("isoperimetry", "--instance", "z2", "--kmax", "2", "--cap", "0"),
    "--chains": ("isoperimetry", "--instance", "z2", "--kmax", "2", "--anneal", "--chains", "0"),
    "--budget": ("isoperimetry", "--instance", "z2", "--kmax", "2", "--anneal", "--budget", "0"),
    "--starts": ("constants", "--instance", "c6", "--starts", "0"),
    "--iters": ("constants", "--instance", "c6", "--iters", "0"),
    "--fields": ("corpus", "--instance", "c6", "--fields", "0"),
    "--horizon": ("growth", "--spec", os.path.join(SPECS, "c16.json"), "--horizon", "-3"),
    "--max-vertices": ("growth", "--instance", "c6", "--max-vertices", "0"),
    "--seed": ("verify", "--instance", "c6", "--seed", "-1"),
}


@pytest.mark.parametrize("name", sorted(BAD_COUNTS))
def test_bad_count_argument_is_an_error(name):
    out = run_cli(*BAD_COUNTS[name], check=False)
    _one_error_line(out)
    assert name in out.stderr


@pytest.mark.parametrize(
    "target",
    [
        ("--instance", "c16"),
        ("--spec", os.path.join(SPECS, "c16.json")),
        ("--spec", os.path.join(SPECS, "path3.json")),
    ],
)
def test_max_vertices_applies(target):
    _one_error_line(run_cli("build", *target, "--max-vertices", "2", check=False))


@pytest.mark.parametrize(
    "n, line",
    [
        (64, "translation: PASS (128 translates, 0 failures)"),
        (65, "translation: PASS (130 translates, 0 failures)"),
        (100, "translation: PASS (200 translates, 0 failures)"),
    ],
)
def test_translation_over_the_map_limit_is_reported(tmp_path, n, line):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"kind": "cyclic", "n": n, "horizon": n}))
    out = run_cli("verify", "--spec", str(path), "--fields", "2")
    assert line in out.stdout.splitlines()


def test_schreier_over_the_map_limit_builds_no_map(tmp_path, monkeypatch, capsys):
    # S9 on nine points: 362880 group elements, but the generators alone
    # show that the translations are not automorphisms
    from groupiso import cli, groups, growth

    path = tmp_path / "s9.json"
    path.write_text(json.dumps({
        "kind": "permutation_action",
        "perms": [[1, 0, 2, 3, 4, 5, 6, 7, 8], [1, 2, 3, 4, 5, 6, 7, 8, 0]],
        "horizon": 9,
    }))
    explored, orbitals = [], []

    def explore(system, *args):
        explored.append(system.name)
        return real_explore(system, *args)

    def translation_maps(ball):
        orbitals.append(real_maps(ball))
        return orbitals[-1]

    real_explore, real_maps = groups.explore, growth.translation_maps
    monkeypatch.setattr(groups, "explore", explore)
    monkeypatch.setattr(growth, "translation_maps", translation_maps)
    cli.main(["verify", "--spec", str(path), "--fields", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert "translation: PASS (skipped: translations are not graph automorphisms)" in lines
    # one walk, of the nine points; the orbitals are pairs of points
    assert explored == ["permutation_action"]
    assert [o[0].shape for o in orbitals] == [(9, 9)]
    # on c6 one orbital array serves the translation and double-counting lines
    orbitals.clear()
    cli.main(["verify", "--instance", "c6", "--fields", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert "translation: PASS (12 translates, 0 failures)" in lines
    assert "double-counting: PASS (692 pairs, min slack 0)" in lines
    assert [o[0].shape for o in orbitals] == [(6, 6)]


def test_johnson_spec_verifies():
    out = run_cli("verify", "--spec", os.path.join(SPECS, "johnson_7_3.json"), "--fields", "20")
    lines = out.stdout.splitlines()
    assert "translation: PASS (700 translates, 0 failures)" in lines
    assert lines[-1] == "verify johnson_7_3: PASS"


#: sha256 of stdout and of the --csv/--json files.  Captured before the
#: command line wiring was rewritten on top of one instance, check and
#: output path; the c6 and path3 verify hashes were captured after the
#: vacuous additive-link count joined the detail, the only byte that
#: changed, and the z2 and heisenberg ones before the float reports came
#: to cover the whole (p, alpha) grid in one call.  The exact z2 profile
#: and the c16 constants were captured after connected sets came to
#: decide exact rows: their leaves count connected sets, and the c16
#: rows past the subset cap turned exact.  The three anneal commands (c64
#: to k = 4 with budget 2000, and the benchmark's c64 to k = 10 and z2 to
#: k = 8) were captured after each chain came to stop at its group's
#: perimeter floor: only their leaves, the steps walked, changed then.
GOLDEN = [
    (("build", "--instance", "c6"), {
        "stdout": "8d3014ed5eae970f13f386cf6bfe5cea502e9188a23b3ad926862a71048120d2",
        "json": "60f15a7447cf62d92e15d7b71816ff13660e6d0cc373cbad2a84595490d407c0",
    }),
    (("build", "--spec", os.path.join(SPECS, "s4_points.json")), {
        "stdout": "214404443966d3bd0dbe5b0c57b7a83a2ba893816911e86a0116ca7853ccd0f6",
        "json": "d349cbe1d9fc0ea3efcf5b9657ac7792e0078213daa6c3940e2f5d4d286a8698",
    }),
    (("growth", "--instance", "c16"), {
        "stdout": "3cce960b78feb8c3f937ebcf8736f12614315e9dd1ea62a2da4754177ec0ce10",
        "csv": "a9e147bc323c42ef4b30a1bf9e6cc8c72df107bdde839e89d1be2115d57ccffe",
        "json": "66327ea50183e8c3d15d7c230d105486c7a7441816567869005d6fcef665ee81",
    }),
    (("isoperimetry", "--instance", "z2", "--kmax", "3"), {
        "stdout": "8dfb7d78f6a15ff6feed25878d3f309c6317b74107da06cc462dc5fd964982a2",
        "csv": "7b8b43159722de1111633da09ddd589600c7d4b81d3d0d3f1849e73ef619dbf9",
        "json": "2ce17258ac85601177128604cad92b630b55df8ecefd6f4653a3ea634f7660d0",
    }),
    (("isoperimetry", "--instance", "c64", "--kmax", "4", "--anneal", "--chains", "2",
      "--budget", "2000", "--seed", "3"), {
        "stdout": "2b39c0dfa153be68194aa700b0c8501b50e01f290790faf9925dded3e3e7e2cd",
        "csv": "a93a88c37a3756df29fcfb17f354f699467ccc9aa309f425690698f8638aa7aa",
        "json": "ebe09a5737a8d54eed7d1793ddbb74fc08dca8d8d332f9a6d494abe6897a6b9b",
    }),
    (("isoperimetry", "--instance", "c64", "--kmax", "10", "--anneal", "--chains", "2",
      "--seed", "3"), {
        "stdout": "9d8f6fba5a0ba18ae214d53f6b7718d0222f6f5ef15ed62e3ed13397eaebaa8e",
        "csv": "03fa9eeec05ca84be84063d4772ab9050b2ff6d009642bb70904f3ce1a0ebffd",
        "json": "2a3dd1271c3106145312c42edd19f7f9c390a99aa8ad2601e027e9a7b693ae42",
    }),
    (("isoperimetry", "--instance", "z2", "--kmax", "8", "--anneal", "--chains", "2",
      "--seed", "3"), {
        "stdout": "5aec65c5d64c315b33e5afc7ded911c6f4b499e8b8639bd2cf03cdd2e0bf235a",
        "csv": "7ed9b9a61210107e4d5a20935797444731c78db893194a61a9eff34269693266",
        "json": "fb866380d1d460cefbd587e1f1e345031f2daa27e59a366125e66150e8b917ce",
    }),
    # k >= 4 exceeds the subset cap; the connected arcs still decide those rows
    (("constants", "--instance", "c16", "--kmax", "8", "--cap", "1000", "--starts", "1",
      "--iters", "30"), {
        "stdout": "0bab300b6b9ca30d23acaf3a001f6491a0975bfdf56a9b5272588e0ad5905875",
        "json": "fd820223b47fc52d735750bd6808d029c3cc7492e6d7496a5f6eff73c91aab87",
    }),
    (("verify", "--instance", "c6", "--fields", "5"), {
        "stdout": "33dfa32347c97a3e08f3c6b153bd309f556ea24a6e8cb3598381a2de5e4fabe7",
        "json": "0070a4ec690976d061669c8c34360a20283421f8436f592f0325c07c9de094ca",
    }),
    (("verify", "--spec", os.path.join(SPECS, "path3.json"), "--fields", "5"), {
        "stdout": "79d31c9ded444c9223db426b7ad8714b4ea24cf5fdef1a1f870c2ee724ad1b21",
        "json": "ec2b5ded043f05da2bd835c0f4bc22f05ae9ab53a9e3dc009d0bf01794004ff7",
    }),
    (("verify", "--instance", "z2", "--fields", "5"), {
        "stdout": "c3fc940541815a6bbf9370f173cde9fde4c4d10df86facd73b2ebad3d9362d8a",
        "json": "75b27547a6b237c953c92acc33035852973398a86ea804894b40f25d4cc09556",
    }),
    (("verify", "--instance", "heisenberg", "--fields", "5"), {
        "stdout": "5ae9443d12e18ee2873ec06f9f6805d2521c39a85f59cca08bbd0fdfc95c2edd",
        "json": "7b13e0b94d8606aea4ae31eadfbd2936103b3ad996247451bf9c8a5b5f6d2bbc",
    }),
    (("corpus", "--instance", "z2", "--kind", "exact"), {
        "stdout": "02a60b5c28fc1a9100bd69a3ba7006b850a31df19cbec9f946bab162734bd75b",
        "csv": "e541bb0d9764c8529b1930d325cc75ed64b44ce6ab9547960ef293d1e2ab0f36",
        "json": "87749346d262599b0eb6c1bfeee6fb990486dfcfc47984f95c89b703e71d79d7",
    }),
    (("corpus", "--instance", "z2", "--kind", "float"), {
        "stdout": "bbf1bba25ab28f02a67e0849c70ce39389f15150819ea0f2e8294aa10e41235e",
        "csv": "e3cdfdbe4fcdde7e821cd03bc5b6ee625ccbe32930997680f604aceef7e00040",
        "json": "e14eafafba411a4e91fc87011caebafc60da9025761bc3e24a9f214b6ac53cda",
    }),
]


@pytest.mark.parametrize(
    "args,digests", GOLDEN, ids=["-".join(os.path.basename(a) for a in args) for args, _ in GOLDEN]
)
def test_golden_bytes(tmp_path, args, digests):
    files = [f"--{kind}" for kind in digests if kind != "stdout"]
    paths = [str(tmp_path / f"out.{kind[2:]}") for kind in files]
    out = run_cli(*args, *(x for pair in zip(files, paths) for x in pair))
    got = {"stdout": hashlib.sha256(out.stdout.encode()).hexdigest()}
    for kind, path in zip(files, paths):
        with open(path, "rb") as fh:
            got[kind[2:]] = hashlib.sha256(fh.read()).hexdigest()
    assert got == digests
