"""Distances and diameters against networkx as an independent oracle."""

import pytest

from groupiso import catalogue, specio
from groupiso.groups import diameter, distances_from

nx = pytest.importorskip("networkx")

COMPLETE = [name for name in catalogue.names() if catalogue.build(name).complete]
WINDOWS = sorted(COMPLETE + ["z2", "f2", "heisenberg"])


def _graph(ball):
    g = nx.Graph()
    g.add_nodes_from(range(ball.num_vertices))
    g.add_edges_from(zip(ball.rows.tolist(), ball.indices.tolist()))
    return g


def _as_list(lengths, n):
    return [lengths.get(v, -1) for v in range(n)]


def _check(ball):
    g = _graph(ball)
    n = ball.num_vertices
    base, far = ball.base_index, n - 1
    single = nx.single_source_shortest_path_length(g, base)
    assert distances_from(ball, [base]).tolist() == _as_list(single, n)
    two = nx.multi_source_dijkstra_path_length(g, {base, far})
    assert distances_from(ball, [base, far]).tolist() == _as_list(two, n)
    if ball.complete:
        assert diameter(ball) == nx.diameter(g)


@pytest.mark.parametrize("name", WINDOWS)
def test_catalogue_window_matches_networkx(name):
    _check(catalogue.build(name))


def test_explicit_spec_matches_networkx():
    _check(specio.build_from_spec(specio.load_spec("specs/path3.json")))
