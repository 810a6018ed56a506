"""End-to-end command line checks in subprocesses."""

import json
import os
import subprocess
import sys

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


def test_isoperimetry_worker_bytes():
    a = run_cli("isoperimetry", "--instance", "z2", "--kmax", "3", "--workers", "1")
    b = run_cli("isoperimetry", "--instance", "z2", "--kmax", "3", "--workers", "7")
    assert a.stdout == b.stdout


def test_isoperimetry_cap_exit():
    out = run_cli(
        "isoperimetry", "--instance", "z2", "--kmax", "9", "--cap", "1000",
        check=False,
    )
    assert out.returncode == 2
    assert "error:" in out.stderr


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


def test_unknown_instance_fails():
    out = run_cli("growth", "--instance", "nope", check=False)
    assert out.returncode == 2


def _one_error_line(out):
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr


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
    ],
)
def test_bad_spec_verify_is_an_error(tmp_path, spec):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    _one_error_line(run_cli("verify", "--spec", str(path), "--fields", "3", check=False))


def test_zero_fields_verify_is_an_error():
    _one_error_line(run_cli("verify", "--instance", "c6", "--fields", "0", check=False))
