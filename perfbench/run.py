"""End-to-end and per-layer benchmark of the groupiso command line.

Usage, from the repository root::

    python3 perfbench/run.py --workload verify_exact --seed 0 --seconds 55 --trace 0

With ``--trace 0`` each pass runs the workload's commands one after
another as fresh ``python -m groupiso.cli`` processes, as users run them,
and the run reports ``wall_s`` (pass wall time), ``setup_s`` (fresh
interpreter to a finished ``import groupiso``) and ``peak_rss_mb``
(largest max-RSS of a command process in the pass).  With ``--trace 1``
one reference pass runs as processes, then untraced and traced
in-process passes alternate; the traced passes give the per-layer
metrics (see ``tracer.py``), and every command's stdout must match the
reference byte for byte.

Passes repeat for about ``--seconds``; each metric is the median over
the passes.  Every command is checked against the pinned
invariants in ``workloads.py``; a wrong exit code, a failed check or a
traced/untraced stdout mismatch counts as a failed operation.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out FILE`` also writes every sample and
the environment record; ``compare.py`` compares two such files.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 9
COMMAND_TIMEOUT_S = 150.0

LAYERS = ("groups", "corpus", "fields", "growth", "kernels", "isoperimetry", "uncertainty", "cli", "trace")


@dataclass
class Result:
    """One command execution."""

    stdout: str
    code: int
    wall_s: float
    rss_mb: float = 0.0
    problem: str | None = None


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, argv, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{' '.join(argv)}: {problem}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(args: list[str]) -> tuple[str, str, int, float, float]:
    """Run ``python <args>``; return stdout, stderr, exit code, wall
    seconds and the child's own max-RSS in MB (from ``wait4``)."""
    with tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=child_env()
        )
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            timer.cancel()
            timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return out.decode(), err.read().decode(errors="replace"), proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_process(argv) -> Result:
    out, err, code, wall, rss = spawn(["-m", "groupiso.cli", *argv])
    result = Result(out, code, wall, rss)
    if code != 0 and err.strip():
        result.problem = err.strip().splitlines()[-1]
    return result


def run_inprocess(argv) -> Result:
    from groupiso import cli

    out = io.StringIO()
    problem = None
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed operation, as in a process run
            code, problem = 1, repr(exc)
    return Result(out.getvalue(), code, time.perf_counter() - t0, problem=problem)


def judge(cmd, result: Result, reference: str | None = None) -> str | None:
    """First problem with one command's result, or None."""
    if result.code != 0:
        return f"exit code {result.code}" + (f" ({result.problem})" if result.problem else "")
    if reference is not None and result.stdout != reference:
        return "stdout differs from the untraced process run"
    try:
        return cmd.check(result.stdout)
    except Exception as exc:  # malformed output is a wrong answer, not a harness crash
        return f"unreadable output: {exc!r}"


def check_import() -> None:
    """Import once, untimed: compiles the bytecode cache and proves that
    the package comes from this checkout."""
    probe = "import groupiso, sys; sys.stdout.write(groupiso.__file__)"
    out, err, code, _, _ = spawn(["-c", probe])
    if code != 0 or Path(out).resolve() != (SRC / "groupiso" / "__init__.py").resolve():
        raise SystemExit(f"error: groupiso does not import from {SRC}: {err.strip() or out}")


def setup_time() -> float:
    """Fresh interpreter to a finished ``import groupiso``."""
    return spawn(["-c", "import groupiso"])[3]


def process_pass(commands, tally: Tally, outputs: list | None = None) -> tuple[float, float]:
    """Commands as fresh processes, back to back; (wall, peak RSS).
    Appends each command's stdout to ``outputs`` when given."""
    t0 = time.perf_counter()
    results = [run_process(c.argv) for c in commands]
    wall = time.perf_counter() - t0
    for cmd, res in zip(commands, results):
        tally.add(cmd.argv, judge(cmd, res))
    if outputs is not None:
        outputs.extend(r.stdout for r in results)
    return wall, max(r.rss_mb for r in results)


def another_pass(deadline: float, last_s: float) -> bool:
    """Whether a pass like the last one would end less than half a pass
    past the deadline, so a run lasts about ``--seconds`` however long
    its passes are."""
    return time.perf_counter() + last_s / 2 < deadline


def untraced(commands, seconds: float, tally: Tally) -> dict:
    setup, walls, rss = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        # set-up samples spread over the run, so a slow spell of the
        # machine cannot claim all of them
        setup.append(setup_time())
        wall, peak = process_pass(commands, tally)
        walls.append(wall)
        rss.append(peak)
        if not another_pass(deadline, wall):
            break
    setup += [setup_time() for _ in range(SETUP_SAMPLES - len(setup))]
    return {"wall_s": walls, "setup_s": setup, "peak_rss_mb": rss}


def traced_pass(commands, tracer, reference, tally: Tally) -> tuple[float, dict]:
    """One in-process pass under the tracer; (wall, per-layer totals)."""
    totals = {name: 0.0 for name in per_layer_names()}
    hits = rows = 0
    wall = cpu = ascent_incl = 0.0
    with tracer.installed():
        for cmd, ref in zip(commands, reference):
            tracer.reset()
            c0 = time.process_time()
            res = run_inprocess(cmd.argv)
            cpu += time.process_time() - c0
            wall += res.wall_s
            for name, value in [*tracer.self_s.items(), *tracer.counts.items()]:
                totals[name] += value
            ascent_incl += tracer.incl_s["uncertainty.ascent_s"]
            totals["cli.self_s"] += res.wall_s - tracer.covered_s
            problem = judge(cmd, res, ref)
            tally.add(cmd.argv, problem)
            if cmd.anneal_hits is not None and problem is None:
                h, r = cmd.anneal_hits(res.stdout)
                hits, rows = hits + h, rows + r
    totals["cli.cpu_s"] = cpu
    totals["kernels.scan_leaves_per_s"] = _rate(totals["kernels.scan_leaves"], totals["kernels.scan_s"])
    totals["kernels.anneal_steps_per_s"] = _rate(totals["kernels.anneal_steps"], totals["kernels.anneal_s"])
    # iterations per second of the whole ascent, kernels included
    totals["uncertainty.ascent_iters_per_s"] = _rate(totals["uncertainty.ascent_iters"], ascent_incl)
    # a pass without annealed rows missed no minimum
    totals["isoperimetry.anneal_hit_ratio"] = hits / rows if rows else 1.0
    return wall, totals


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def per_layer_names() -> list[str]:
    """Per-layer metrics, grouped by layer in package order."""
    from tracer import BUCKETS, COUNTERS

    names = [
        *BUCKETS,
        *COUNTERS,
        "kernels.scan_leaves_per_s",
        "kernels.anneal_steps_per_s",
        "uncertainty.ascent_iters_per_s",
        "isoperimetry.anneal_hit_ratio",
        "cli.self_s",
        "cli.cpu_s",
        "trace.overhead_s",
    ]
    return sorted(names, key=lambda name: LAYERS.index(name.split(".")[0]))


def traced(commands, seconds: float, tally: Tally) -> dict:
    from tracer import Tracer

    reference: list[str] = []
    process_pass(commands, tally, reference)
    tracer = Tracer()
    # the first untraced pass must not pay for the harness's own import
    importlib.import_module("groupiso.cli")
    plain, walls, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        results = [run_inprocess(c.argv) for c in commands]
        plain.append(time.perf_counter() - t0)
        for cmd, res, ref in zip(commands, results, reference):
            tally.add(cmd.argv, judge(cmd, res, ref))
        wall, totals = traced_pass(commands, tracer, reference, tally)
        walls.append(wall)
        layers.append(totals)
        if not another_pass(deadline, time.perf_counter() - t0):
            break
    samples = {name: [t[name] for t in layers] for name in per_layer_names() if name != "trace.overhead_s"}
    samples["trace.overhead_s"] = [t - u for t, u in zip(walls, plain)]
    return samples


def percentile_note(values: list[float]) -> str:
    """Highest percentile with at least ten samples above it, if any."""
    n = len(values)
    if n <= 10:
        return f"n={n} (no percentile has 10 samples above it)"
    q = int(100 * (n - 10) / n)
    return f"p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g}, n={n}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write samples and environment as JSON")
    args = parser.parse_args(argv)

    if not (SRC / "groupiso" / "__init__.py").is_file():
        sys.stderr.write(f"error: no groupiso sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from record import env_line, environment
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    WORK.mkdir(exist_ok=True)
    try:
        check_import()
        commands = workload.commands(args.seed, WORK)
        tally = Tally()
        measure = traced if args.trace else untraced
        samples = measure(commands, args.seconds, tally)
        env = environment(ROOT)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    print(env_line(env))
    print(f"workload {args.workload} seed {args.seed}: {workload.why}")
    print(f"closed loop, 1 client, {len(commands)} commands per pass, --workers 1")
    metrics = {}
    for name, values in samples.items():
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{name:32s} median {value:.6g} {units[name]}; {percentile_note(values)}")
    print(f"{'fail_ratio':32s} {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:g}")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "samples": samples, "metrics": metrics,
            "attempted": tally.attempted, "failed": tally.failed,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
