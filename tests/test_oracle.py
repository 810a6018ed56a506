"""Independent oracles: networkx for distances, diameters, perimeters and
translation automorphisms; every group map listed by the tests for the
orbitals."""

import numpy as np
import pytest

from groupiso import catalogue, specio
from groupiso.groups import diameter, distances_from, explore, permutation_action
from groupiso.growth import _is_automorphism, translation_maps
from groupiso.isoperimetry import set_perimeter

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
TRANSLATED = [name for name in COMPLETE if catalogue.build(name).system is not None]


def _preserves_edges(g, image):
    # relabel v as image[v]; a map that is not a bijection loses a node
    h = nx.relabel_nodes(g, dict(enumerate(image)))
    edges = {frozenset(e) for e in g.edges}
    return len(h) == len(g) and {frozenset(e) for e in h.edges} == edges


@pytest.mark.parametrize("name", TRANSLATED)
def test_translation_maps_match_networkx(name, every_translation):
    ball = catalogue.build(name)
    g = _graph(ball)
    maps = every_translation(ball)
    oracle = [_preserves_edges(g, m) for m in maps]
    assert [_is_automorphism(ball, m) for m in maps] == oracle
    # the library looks at the generators only
    assert translation_maps(ball)[1] == all(oracle)
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


def test_non_automorphic_generators_match_networkx(every_translation):
    # two transpositions of S3 on three points: the Schreier graph is a path
    ball = explore(permutation_action("s3_two", [(1, 0, 2), (2, 1, 0)]), 4)
    g = _graph(ball)
    oracle = [_preserves_edges(g, m) for m in every_translation(ball)]
    assert not all(oracle)
    assert translation_maps(ball)[1] is False


@pytest.mark.parametrize("name", TRANSLATED)
def test_orbitals_are_orbits_of_pairs(name, every_translation):
    ball = catalogue.build(name)
    maps = every_translation(ball)
    orbital, _ = translation_maps(ball)
    base = ball.base_index
    for t in range(ball.num_vertices):
        orbit = {(m[base], m[t]) for m in maps}
        assert set(zip(*np.nonzero(orbital == orbital[base, t]))) == orbit
        # each orbital is named by the least target it holds
        assert orbital[base, t] == min(y for x, y in orbit if x == base)


@pytest.mark.parametrize("name", catalogue.names())
def test_set_perimeter_is_twice_the_cut_size(name):
    ball = catalogue.build(name)
    g = _graph(ball)
    n = ball.num_vertices
    rng = np.random.default_rng(17)
    for size in (0, 1, 2, 5, 12, n // 2, n):
        for _ in range(4):
            # unsorted, with repeats
            members = rng.choice(n, size=size, replace=True).tolist()
            want = 2 * nx.cut_size(g, set(members))
            assert set_perimeter(ball, members) == want
            assert set_perimeter(ball, np.asarray(members, np.int64)) == want
