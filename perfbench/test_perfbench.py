"""Tests of the benchmark harness.  Run from the repository root::

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from groupiso import reporting  # noqa: E402


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)


def _groupiso_attrs() -> dict:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "groupiso" or name.startswith("groupiso.")
        for attr, value in vars(mod).items()
    }


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_stdout_matches_untraced(name, tmp_path):
    trace = tracer.Tracer()
    for cmd in workloads.WORKLOADS[name].commands(0, tmp_path):
        plain = run.run_process(cmd.argv)
        assert run.judge(cmd, plain) is None, cmd.argv
        with trace.installed():
            trace.reset()
            traced = run.run_inprocess(cmd.argv)
        assert traced.code == 0
        assert traced.stdout == plain.stdout, cmd.argv
        # self times account for exactly the covered time; the rest is cli.self_s
        assert sum(trace.self_s.values()) == pytest.approx(trace.covered_s, rel=1e-9)
        assert 0 < trace.covered_s <= traced.wall_s
        assert all(v >= 0 for v in trace.self_s.values())


def test_wrappers_restore_the_originals():
    import groupiso.cli

    before = _groupiso_attrs()
    explore = groupiso.cli.explore
    trace = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with trace.installed():
            # names imported into other modules are wrapped as well
            assert groupiso.cli.explore is not explore
            assert groupiso.groups.explore is groupiso.cli.explore
            assert groupiso.kernels.min_perimeter_scan is not before[("groupiso.kernels", "min_perimeter_scan")]
            raise RuntimeError("leave the block early")
    after = _groupiso_attrs()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_every_probe_is_found():
    import groupiso  # noqa: F401

    for probe in tracer.PROBES:
        assert callable(getattr(sys.modules[f"groupiso.{probe.module}"], probe.name))


@pytest.mark.parametrize("trace_flag, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_match_benchmark_json(trace_flag, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "profile_anneal", "--seed", "3",
         "--seconds", "0", "--trace", str(trace_flag)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in spec[section]}


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_missing_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_exact", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def _profile_text(rows) -> str:
    headers = ["k", "perimeter", "witness", "leaves", "capped", "exact"]
    return reporting.render_table(headers, rows)


def test_gate_rejects_wrong_answers(tmp_path):
    exact = workloads._profile("c64", 4)
    good = [(1, 4, "0", 64, False, True), (2, 4, "0 1", 2016, False, True),
            (3, 4, "0 1 2", 41664, False, True), (4, 4, "0 1 2 3", 635376, False, True)]
    assert exact.check(_profile_text(good)) is None
    # leaf counts are free to change
    assert exact.check(_profile_text([(*r[:3], 1, *r[4:]) for r in good])) is None
    assert exact.check(_profile_text(good[:3] + [(4, 4, "0 1 2 4", 635376, False, True)]))
    assert exact.check(_profile_text(good[:3] + [(4, 4, "0 1 2 3", 635376, True, True)]))

    anneal = workloads._anneal("c64", 2, 2, 0)
    # vertices 0 and 1 are neighbours on the ring, 0 and 5 are not
    ok = [(1, 4, "7", 40000, False, False), (2, 4, "0 1", 40000, False, False)]
    assert anneal.check(_profile_text(ok)) is None
    assert anneal.anneal_hits(_profile_text(ok)) == (2, 2)
    assert anneal.check(_profile_text(ok[:1] + [(2, 2, "0 1", 40000, False, False)]))
    assert anneal.check(_profile_text(ok[:1] + [(2, 4, "0 5", 40000, False, False)]))
    worse = ok[:1] + [(2, 8, "0 5", 40000, False, False)]
    assert anneal.check(_profile_text(worse)) is None
    assert anneal.anneal_hits(_profile_text(worse)) == (1, 2)

    verify = workloads._verify("d8", 0)
    text = "coarea: PASS (50 fields, 0 failures)\nverify dihedral_8: PASS\n"
    assert verify.check(text) is None
    assert verify.check(text.replace("coarea: PASS", "coarea: FAIL"))
    assert verify.check(text.replace("verify dihedral_8: PASS", "verify dihedral_8: FAIL"))
    assert run.judge(verify, run.Result(text, 1, 0.0)) == "exit code 1"


def test_compare_refuses_another_backend(tmp_path, capsys):
    record = {"workload": "profile_anneal", "seed": 0, "trace": 0,
              "env": {"backend": "numpy"}, "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
    base, new = tmp_path / "a.json", tmp_path / "b.json"
    base.write_text(json.dumps(record))
    new.write_text(json.dumps(record))
    assert compare.main([str(base), str(new)]) == 0
    new.write_text(json.dumps({**record, "env": {"backend": "numba"}}))
    assert compare.main([str(base), str(new)]) == 2
    assert "backend differs" in capsys.readouterr().err
