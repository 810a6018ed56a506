"""networkx as an independent oracle: distances, diameters, translation automorphisms."""

import pytest

from groupiso import catalogue, specio
from groupiso.groups import diameter, distances_from
from groupiso.growth import _is_automorphism, translation_maps

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


#: complete windows whose group translations act on the vertices
TRANSLATED = [name for name in COMPLETE if catalogue.system(name).kind in ("cayley", "schreier")]


def _preserves_edges(g, image):
    # relabel v as image[v]; a map that is not a bijection loses a node
    h = nx.relabel_nodes(g, dict(enumerate(image)))
    edges = {frozenset(e) for e in g.edges}
    return len(h) == len(g) and {frozenset(e) for e in h.edges} == edges


@pytest.mark.parametrize("name", TRANSLATED)
def test_translation_maps_match_networkx(name):
    ball = catalogue.build(name)
    g = _graph(ball)
    maps, _, automorphic = translation_maps(catalogue.system(name), ball)
    oracle = [_preserves_edges(g, m) for m in maps]
    assert [_is_automorphism(ball, m) for m in maps] == oracle
    assert automorphic == all(oracle)
    # negative case: the first transposition of vertex 0 that moves an edge off the graph
    n = ball.num_vertices
    swaps = ([v, *range(1, v), 0, *range(v + 1, n)] for v in range(1, n))
    image = next((s for s in swaps if not _preserves_edges(g, s)), None)
    if image is None:
        # every transposition, hence every permutation, is an automorphism:
        # the complete graph, where only a map that is not a bijection fails
        assert g.number_of_edges() == n * (n - 1) // 2
        image = [0, 0, *range(2, n)]
        assert not _preserves_edges(g, image)
    assert not _is_automorphism(ball, image)
