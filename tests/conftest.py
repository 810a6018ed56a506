import os

import numpy as np
import pytest

from groupiso import catalogue
from groupiso.fields import grad_modulus, lp_norm
from groupiso.isoperimetry import set_perimeter

# pytest's ``pythonpath`` setting reaches this process only; the CLI and
# backend tests start child interpreters, which import groupiso from
# this checkout's src directory
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


def pytest_terminal_summary(terminalreporter):
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    if mod is not None and getattr(mod, "LINES", None):
        terminalreporter.section("acceptance criteria")
        for line in mod.LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def line():
    return catalogue.build("z")


@pytest.fixture(scope="session")
def plane():
    return catalogue.build("z2")


@pytest.fixture(scope="session")
def tree():
    return catalogue.build("f2")


@pytest.fixture(scope="session")
def ring16():
    return catalogue.build("c16")


@pytest.fixture(scope="session")
def cube():
    return catalogue.build("q3")


def _every_translation(ball):
    """Every translation of a complete window as a vertex map, listed
    here and not by the library: the right translations of a Cayley
    window, row b mapping a to a*b by the group law itself, or the
    closure of the generator permutations of a Schreier window under
    composition."""
    idx, system = ball.index_of, ball.system
    if system.kind == "cayley":
        return [[idx[system.multiply(a, b)] for a in ball.labels] for b in ball.labels]
    gens = [[idx[move(a)] for a in ball.labels] for move in system.moves]
    identity = tuple(range(ball.num_vertices))
    elements, frontier = {identity}, {identity}
    while frontier:
        frontier = {tuple(p[i] for i in g) for g in frontier for p in gens} - elements
        elements |= frontier
    return sorted(elements)


@pytest.fixture(scope="session")
def every_translation():
    return _every_translation


def _probe_reference(ball, cand, init, probe_rem, probe_add):
    """An annealing chain's start temperature from full perimeters: the
    mean absolute perimeter change of the probe swaps of member
    ``init[ri]`` for pool vertex ``cand[ai]``, over those whose vertex is
    not a member, or twice the largest degree if that mean is 0."""
    base = set(int(v) for v in init)
    p0 = set_perimeter(ball, base)
    deltas = [
        abs(set_perimeter(ball, (base - {int(init[ri])}) | {int(cand[ai])}) - p0)
        for ri, ai in zip(probe_rem, probe_add)
        if int(cand[ai]) not in base
    ]
    scale = float(np.mean(deltas)) if deltas else 0.0
    return scale if scale > 0.0 else 2.0 * float(ball.degrees.max())


@pytest.fixture(scope="session")
def probe_reference():
    return _probe_reference


def _grad_lp_norm(ball, values, p):
    """||grad f||_p of a window array, dense: the gradient modulus on
    every vertex of the window, then its p-norm."""
    return lp_norm(grad_modulus(ball, values), p)


def _weighted_lp_norm(values, weight, alpha, p):
    """||w^alpha f||_p of window arrays, dense."""
    return lp_norm(np.asarray(weight, np.float64) ** alpha * np.asarray(values, np.float64), p)


@pytest.fixture(scope="session")
def dense_norms():
    """The dense gradient and weighted p-norms the float reports are checked against."""
    return _grad_lp_norm, _weighted_lp_norm
