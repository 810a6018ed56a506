import pytest

from groupiso import catalogue


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
