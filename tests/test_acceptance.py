"""Acceptance battery: ten criteria, one verdict line each.

Every criterion prints ``ACCEPTANCE <n> <name>: PASS/FAIL - <detail>``
(collected by the conftest terminal-summary hook) and fails its test on
any violation.  Tolerances are pinned here and nowhere else: exact
checks use rational arithmetic and demand equality; float checks allow
relative slack 1e-9 (the float reports' own slack, which criterion 7
checks against it); frozen float constants compare at 1e-12.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from groupiso import catalogue
from groupiso.corpus import float_fields, rational_fields
from groupiso.fields import FloatField, WeightPowers, coarea_report, median_report, to_dense
from groupiso.groups import explore, free_abelian, free_group, heisenberg
from groupiso.growth import superadditivity_report, translation_maps, translation_report
from groupiso.isoperimetry import (
    anneal_min_perimeter,
    double_counting_report,
    profile,
)
from groupiso.uncertainty import RTOL as REPORT_RTOL
from groupiso.uncertainty import (
    additive_link_report,
    canonical_weight,
    hpw_report,
    isoperimetric_constant_trace,
    multipoint_weight,
    poincare_report,
    uncertainty_ascent,
)
from groupiso.specio import build_from_spec, load_spec

LINES: list[str] = []

ROOT = Path(__file__).resolve().parent.parent

RTOL = 1e-9
FROZEN_RTOL = 1e-12

INFINITE = ("z", "z2", "f2", "heisenberg")
COMPACT = ("c16", "c64", "q4", "d8")


def _verdict(n, name, ok, detail):
    line = f"ACCEPTANCE {n} {name}: {'PASS' if ok else 'FAIL'} - {detail}"
    LINES.append(line)
    assert ok, line


def _two_point_weight(ball):
    far = int(np.argmax(ball.dist))
    return multipoint_weight(ball, [ball.base_index, far]).astype(np.float64)


def test_01_coarea_identity():
    checked = failures = 0
    for name in ("z", "z2", "f2", "heisenberg", "c16", "q4"):
        ball = catalogue.build(name)
        for field in rational_fields(ball, 1000, seed=10):
            checked += 1
            if not coarea_report(ball, field)["ok"]:
                failures += 1
    _verdict(
        1, "coarea-identity", failures == 0,
        f"{checked} exact layer-cake identities, {failures} failures",
    )


def test_02_growth_superadditivity():
    reports = []
    for factory in (free_abelian(1), free_abelian(2), free_abelian(3), free_group(2), heisenberg()):
        reports.append(superadditivity_report(explore(factory, 8)))
    for name in ("c6", "c8", "c12", "c16", "c32", "c64", "q3", "q4", "q6", "d4", "d8"):
        reports.append(superadditivity_report(catalogue.build(name)))
    pairs = sum(len(r["pairs"]) for r in reports)
    bad = [r["name"] for r in reports if not r["all_ok"]]
    _verdict(
        2, "growth-superadditivity", not bad,
        f"{len(reports)} windows, {pairs} pairs, violations: {bad or 'none'}",
    )


def test_03_exact_profiles():
    t0 = time.monotonic()
    line = catalogue.build("z")
    plane = catalogue.build("z2")
    cube = catalogue.build("q3")
    ok = True
    notes = []
    perims = [e.perimeter for e in profile(line, 8)]
    if perims != [4] * 8:
        ok = False
        notes.append(f"line profile {perims}")
    perims = [e.perimeter for e in profile(plane, 4)]
    if perims != [8, 12, 16, 16]:
        ok = False
        notes.append(f"plane profile {perims}")
    e4 = profile(cube, 4)[3]
    facet = {cube.labels[i] for i in e4.witness}
    if e4.perimeter != 8 or e4.witness != (0, 1, 2, 4) or facet != {0, 1, 2, 3}:
        ok = False
        notes.append(f"cube k=4 {e4}")
    elapsed = time.monotonic() - t0
    if elapsed >= 300:
        ok = False
        notes.append(f"too slow: {elapsed:.1f}s")
    _verdict(
        3, "exact-profiles", ok,
        f"line/plane/cube minima and witnesses exact in {elapsed:.1f}s"
        + ("; " + "; ".join(notes) if notes else ""),
    )


def test_04_anneal_agreement():
    mismatches = 0
    runs = 0
    for name in ("c6", "c8", "q3", "d4", "s3"):
        ball = catalogue.build(name)
        kmax = min(4, ball.num_vertices - 1)
        exact = profile(ball, kmax)
        for seed in range(10):
            for k, ent in enumerate(exact, start=1):
                runs += 1
                annealed = anneal_min_perimeter(ball, k, seed=seed, chains=4, budget=2000)
                if annealed.perimeter != ent.perimeter:
                    mismatches += 1
    _verdict(
        4, "anneal-agreement", mismatches == 0,
        f"{runs} annealed minima vs exhaustive, tolerance 0, {mismatches} mismatches",
    )


def test_05_double_counting():
    t0 = time.monotonic()
    total = 0
    bad = []
    names = ("c6", "c8", "s3", "c12", "c16", "d8", "q4")
    for name in names:
        ball = catalogue.build(name)
        rep = double_counting_report(ball, translation_maps(ball))
        total += rep["checked"]
        if not rep["all_ok"]:
            bad.append(name)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 120
    _verdict(
        5, "double-counting", ok,
        f"{total} subset pairs over {'/'.join(names)} in {elapsed:.1f}s, violations: {bad or 'none'}",
    )


def test_06_translation_bound():
    checked = failures = 0
    windows = [catalogue.build(name) for name in ("c12", "s4_points")]
    # S7 on 3-subsets: a homogeneous space that is neither complete nor Cayley
    windows.append(build_from_spec(load_spec(ROOT / "specs" / "johnson_7_3.json")))
    for ball in windows:
        orbitals = translation_maps(ball)
        assert orbitals[1], f"{ball.name} translations must be automorphic"
        for field in rational_fields(ball, 100, seed=6):
            rows = translation_report(ball, field, orbitals)["rows"]
            checked += len(rows)
            failures += sum(not row["ok"] for row in rows)
    _verdict(
        6, "translation-bound", failures == 0,
        f"{checked} exact translate comparisons over c12/s4_points/johnson_7_3, {failures} failures",
    )


def test_07_uncertainty_sweep():
    t0 = time.monotonic()
    ratios = links = failures = 0
    for name in INFINITE + COMPACT:
        ball = catalogue.build(name)
        compact = ball.complete
        weights = [WeightPowers(canonical_weight(ball)), WeightPowers(_two_point_weight(ball))]
        fields = float_fields(ball, 500, seed=20, zero_mean=compact)
        for values in fields:
            field = FloatField(ball, values)
            grids = additive_link_report(field, weights[0])["grids"]
            links += sum(len(g["rows"]) for g in grids)
            failures += sum(not g["all_ok"] for g in grids)
            for w in weights:
                rows = hpw_report(field, w)["rows"]
                ratios += len(rows)
                failures += sum(not r["ok"] for r in rows)
    elapsed = time.monotonic() - t0
    ok = failures == 0 and elapsed < 600 and REPORT_RTOL == RTOL
    _verdict(
        7, "uncertainty-sweep", ok,
        f"{ratios} certified-ratio checks and {links} additive rows "
        f"over {len(INFINITE + COMPACT)} windows in {elapsed:.1f}s, {failures} failures",
    )


def test_08_compact_median_poincare():
    medians = poincares = failures = 0
    for name in COMPACT:
        ball = catalogue.build(name)
        for field in rational_fields(ball, 500, seed=30, zero_mean=True):
            medians += 1
            rep = median_report(ball, field)
            if not (rep["zero_sum"] and rep["markov_ok"] and rep["shift_ok"]):
                failures += 1
        for values in float_fields(ball, 500, seed=31, zero_mean=True):
            rows = poincare_report(FloatField(ball, values))["rows"]
            poincares += len(rows)
            failures += sum(not r["ok"] for r in rows)
    _verdict(
        8, "compact-median-poincare", failures == 0,
        f"{medians} median/shift checks and {poincares} mean-value bounds, {failures} failures",
    )


def test_09_extremal_traces():
    line = catalogue.build("z")
    trace = isoperimetric_constant_trace(line, profile(line, 8))
    running = [r["running_best"] for r in trace["rows"]]
    expect = [Fraction(x) for x in ("1/4", "1/4", "3/8", "3/8", "5/12", "5/12", "7/16", "7/16")]
    ok = running == expect
    ok = ok and trace["best"] == Fraction(7, 16) and trace["best_k"] == 7
    ok = ok and all(a <= b for a, b in zip(running, running[1:]))
    ok = ok and all(b < Fraction(1, 2) for b in running)
    ascent = uncertainty_ascent(line, seed=0, starts=4, iters=300)
    spike = 6.0 ** -0.5
    ok = ok and ascent.start_values[0] >= spike * (1.0 - FROZEN_RTOL)
    ok = ok and all(a <= b + 1e-15 for a, b in zip(ascent.trace, ascent.trace[1:]))
    ratio_line = ascent.value / float(trace["best"]) ** 2
    ring = catalogue.build("c16")
    ring_trace = isoperimetric_constant_trace(ring, profile(ring, 8))
    ring_ascent = uncertainty_ascent(ring, seed=0, starts=4, iters=300)
    ok = ok and ring_trace["best"] == Fraction(2, 9)
    ratio_ring = ring_ascent.value / float(ring_trace["best"]) ** 2
    ok = ok and math.isfinite(ratio_line) and ratio_line > 0
    ok = ok and math.isfinite(ratio_ring) and ratio_ring > 0
    _verdict(
        9, "extremal-traces", ok,
        f"line best {trace['best']} at k={trace['best_k']}, ascent {ascent.value:.6f}, "
        f"ratio {ratio_line:.4f}; ring best {ring_trace['best']}, ratio {ratio_ring:.4f}",
    )


def test_10_determinism():
    plane = catalogue.build("z2")
    ring = catalogue.build("c16")
    ok = True
    notes = []

    if profile(plane, 3) != profile(plane, 3):
        ok = False
        notes.append("profile not reproducible")
    ann = anneal_min_perimeter(ring, 6, seed=7, chains=8, budget=2000)
    if anneal_min_perimeter(ring, 6, seed=7, chains=8, budget=2000) != ann:
        ok = False
        notes.append("anneal not reproducible")
    a1 = uncertainty_ascent(ring, seed=5, starts=3, iters=100)
    a2 = uncertainty_ascent(ring, seed=5, starts=3, iters=100)
    if a1.value != a2.value or not np.array_equal(a1.values, a2.values):
        ok = False
        notes.append("ascent not reproducible")
    if rational_fields(ring, 20, seed=8) != rational_fields(ring, 20, seed=8):
        ok = False
        notes.append("corpus not reproducible")

    def cli(*args):
        out = subprocess.run(
            [sys.executable, "-m", "groupiso.cli", *args],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        return out.stdout

    iso = ("isoperimetry", "--instance", "z2", "--kmax", "3")
    if cli(*iso) != cli(*iso):
        ok = False
        notes.append("CLI isoperimetry bytes differ across reruns")
    cst = ("constants", "--instance", "c16", "--kmax", "6", "--cap", "10000")
    if cli(*cst) != cli(*cst):
        ok = False
        notes.append("CLI constants bytes differ across reruns")
    _verdict(
        10, "determinism", ok,
        "reruns: identical structures and bytes"
        + ("; " + "; ".join(notes) if notes else ""),
    )
