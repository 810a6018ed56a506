"""Window exploration: frozen counts, structure checks, budget caps."""

import itertools
import random
from pathlib import Path

import numpy as np
import pytest

from groupiso import catalogue, specio
from groupiso.groups import (
    ExploredBall,
    ResourceCapError,
    _ceil_root,
    _reduced_product,
    ball_from_edges,
    cyclic,
    diameter,
    dihedral,
    distances_from,
    explore,
    free_abelian,
    free_group,
    heisenberg,
    hypercube,
    permutation_action,
    symmetric_group,
    validate_ball,
)

# (system factory, horizon) -> (vertices, edges, complete)
FROZEN_SIZES = {
    "z_8": (lambda: free_abelian(1), 8, 17, 16, False),
    "z2_6": (lambda: free_abelian(2), 6, 85, 144, False),
    "f2_4": (lambda: free_group(2), 4, 161, 160, False),
    "heis_4": (lambda: heisenberg(), 4, 135, 160, False),
    "c16_16": (lambda: cyclic(16), 16, 16, 16, True),
    "q4_5": (lambda: hypercube(4), 5, 16, 32, True),
    "d4_8": (lambda: dihedral(4), 8, 8, 12, True),
    "s4_10": (lambda: symmetric_group(4, "adjacent"), 10, 24, 36, True),
}


@pytest.mark.parametrize("name", sorted(FROZEN_SIZES))
def test_frozen_window_sizes(name):
    factory, horizon, nv, ne, complete = FROZEN_SIZES[name]
    ball = explore(factory(), horizon)
    assert ball.num_vertices == nv
    assert ball.num_edges == ne
    assert ball.complete is complete
    assert validate_ball(ball) == []


def test_line_distances(line):
    # labels are integers; distance equals |label|
    for i, lab in enumerate(line.labels):
        assert line.dist[i] == abs(lab[0])


def test_incomplete_window_flags(plane):
    assert not plane.complete
    assert plane.interior.sum() == 61  # dist < 6: 2*5*5 + 2*5 + 1
    assert plane.interior_within(1).sum() == 41


def test_complete_window_interior(ring16):
    assert ring16.complete
    assert ring16.interior.all()


def test_resource_cap():
    with pytest.raises(ResourceCapError):
        explore(free_group(2), 12, max_vertices=1000)


def test_exploration_work_is_bounded_by_the_vertex_budget():
    # the 3001 vertices fit the budget, but expanding them takes 9 million
    # moves, so the walk stops before its last level
    with pytest.raises(ResourceCapError, match="would apply 9003000 moves"):
        explore(hypercube(3000), 1, max_vertices=4000)


def test_bad_horizon():
    with pytest.raises(ValueError):
        explore(free_abelian(1), 0)


def test_free_group_growth():
    ball = explore(free_group(2), 5)
    # 1 + 4 * (3^r - 1) / 2 vertices within radius r
    sizes = np.bincount(ball.dist)
    assert list(np.cumsum(sizes)) == [1, 5, 17, 53, 161, 485]


def test_heisenberg_not_abelian():
    ball = explore(heisenberg(), 4)
    # the commutator of the two generators is a new state at distance 4
    idx = ball.index_of[(0, 0, 1)]
    assert ball.dist[idx] == 4


def test_explicit_graph():
    path = ball_from_edges("p3", 3, [(0, 1), (1, 2)])
    assert path.complete
    assert list(path.dist) == [0, 1, 2]
    assert validate_ball(path) == []
    assert diameter(path) == 2


def test_explicit_graph_rejects_disconnected():
    with pytest.raises(ValueError):
        ball_from_edges("bad", 4, [(0, 1), (2, 3)])


def test_explicit_graph_rejects_outside_endpoint():
    with pytest.raises(ValueError, match="outside"):
        ball_from_edges("bad", 3, [(0, 1), (1, 3)])


@pytest.mark.parametrize("name", ["z2", "f2", "heisenberg", "q6", "s4", "s4_points"])
def test_csr_matches_moves(name):
    # reference adjacency straight from the generator moves, one vertex at a time
    ball = catalogue.build(name)
    system = ball.system
    for u, label in enumerate(ball.labels):
        nbrs = {ball.index_of.get(move(label)) for move in system.moves} - {None, u}
        row = ball.indices[ball.indptr[u] : ball.indptr[u + 1]]
        assert row.tolist() == sorted(nbrs)


def test_explicit_graph_dedupes():
    g = ball_from_edges("multi", 2, [(0, 1), (1, 0), (0, 0)])
    assert g.num_edges == 1


def test_validate_catches_mutilation(ring16):
    broken = ball_from_edges("c4", 4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    broken.dist = broken.dist.copy()
    broken.dist[3] = 7
    issues = validate_ball(broken)
    assert any("skips a distance level" in s for s in issues)


def test_catalogue_ball_is_read_only():
    # catalogue.build is cached, so a write would reach every later caller
    ball = catalogue.build("z2")
    for arr in (ball.dist, ball.indptr, ball.indices, ball.degrees, ball.rows, ball.interior):
        with pytest.raises(ValueError):
            arr[0] = 5
    assert ball_from_edges("p2", 2, [(0, 1)]).dist.flags.writeable is False


def test_ball_leaves_caller_arrays_writable():
    dist = np.array([0, 1, 1, 2], np.int64)
    indptr = np.array([0, 2, 4, 6, 8], np.int64)
    indices = np.array([1, 2, 0, 3, 0, 3, 1, 2], np.int64)
    ball = ExploredBall("c4", 2, dist, indptr, indices, True, range(4), None)
    assert not ball.dist.flags.writeable
    for arr in (dist, indptr, indices):
        arr[0] = arr[0]  # the ball froze a view, not the caller's array


def _window(rows, dist, horizon=2, system=None):
    """Complete hand-made window with the given adjacency rows."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = [w for r in rows for w in r]
    return ExploredBall("hand", horizon, dist, indptr, indices, True, range(len(rows)), system)


# small windows, each mutilated in one way, and every issue it must raise
MUTILATED = {
    "self_loop": (([1], [0, 1, 2], [1]), (0, 1, 2), 2, ["vertex 1 carries a self loop"]),
    "unsorted_row": (
        ([1], [2, 0], [1]), (0, 1, 2), 2, ["adjacency row of vertex 1 is not strictly sorted"]
    ),
    "missing_mirror": (
        ([1, 3], [0, 2], [1, 3], [0]), (0, 1, 2, 1), 2, ["edge 2->3 has no mirror entry"]
    ),
    # a triangle whose vertex 2 claims distance 2; both entries of 0-2 skip
    "skipped_level": (
        ([1, 2], [0, 2], [0, 1]), (0, 1, 2), 2,
        ["edge 0-2 skips a distance level", "edge 2-0 skips a distance level"],
    ),
    "no_closer_neighbor": (
        ([1], [0, 2], [1]), (0, 1, 1), 2,
        ["vertex 2 has no neighbor one level closer to the base"],
    ),
    "beyond_horizon": (
        ([1], [0, 2], [1]), (0, 1, 2), 1, ["a vertex lies beyond the declared horizon"]
    ),
}


def test_validate_accepts_hand_made_path():
    assert validate_ball(_window(([1], [0, 2], [1]), (0, 1, 2))) == []


@pytest.mark.parametrize("kind", sorted(MUTILATED))
def test_validate_names_each_mutilation(kind):
    rows, dist, horizon, messages = MUTILATED[kind]
    assert validate_ball(_window(rows, dist, horizon)) == messages


@pytest.mark.parametrize(
    "system, issues",
    [
        (cyclic(4), ["interior degrees vary: [1, 2]"]),
        (permutation_action("s3_two", [(1, 0, 2), (2, 1, 0)]), []),
        (None, []),
    ],
)
def test_only_a_cayley_window_must_be_regular(system, issues):
    # a path: interior rows of one and two neighbors; only a group looks
    # the same from every vertex
    ball = _window(([1], [0, 2], [1]), (0, 1, 2), system=system)
    assert ball.regular == bool(issues)
    assert validate_ball(ball) == issues


def test_distances_from_multisource(cube):
    d = distances_from(cube, [0])
    assert (d == cube.dist).all()
    two = distances_from(cube, [0, cube.num_vertices - 1])
    assert two.max() <= cube.dist.max()


def test_schreier_orbit():
    act = permutation_action("rot", [(1, 2, 3, 0)])
    ball = explore(act, 4)
    assert ball.num_vertices == 4
    assert ball.num_edges == 4  # a 4-cycle


def test_johnson_spec_is_s7_on_3_subsets():
    # point i is the i-th 3-subset of 0..6 in lexicographic order, and
    # transposition (a b) swaps a and b inside every subset
    points = list(itertools.combinations(range(7), 3))
    index = {p: i for i, p in enumerate(points)}
    perms = [
        [index[tuple(sorted({a: b, b: a}.get(x, x) for x in p))] for p in points]
        for a, b in itertools.combinations(range(7), 2)
    ]
    spec = specio.load_spec(Path(__file__).resolve().parent.parent / "specs" / "johnson_7_3.json")
    assert spec["perms"] == perms and spec["base_point"] == 0
    ball = specio.build_from_spec(spec)
    assert ball.complete and ball.num_vertices == 35
    # the Johnson graph J(7, 3): subsets meeting in two points are adjacent
    assert ball.num_edges == 35 * 3 * 4 // 2 and validate_ball(ball) == []


def test_schreier_fixed_point_drops_loop():
    act = permutation_action("two", [(1, 0, 2), (2, 1, 0)])
    ball = explore(act, 3)
    # transposition (01) fixes point 2: its loop vanishes, degrees differ
    assert set(ball.degrees) == {1, 2}
    assert validate_ball(ball) == []


def test_dihedral_is_cyclic_times_flip():
    ball = explore(dihedral(6), 12)
    assert ball.num_vertices == 12
    assert ball.complete


CAYLEY = [n for n in catalogue.names() if catalogue.build(n).system.kind == "cayley"]


@pytest.mark.parametrize("name", CAYLEY)
def test_moves_are_left_multiplications(name):
    ball = catalogue.build(name)
    system, labels = ball.system, ball.labels
    mul = system.multiply
    gens = [move(system.base) for move in system.moves]
    for g, move in zip(gens, system.moves):
        assert [move(x) for x in labels] == [mul(g, x) for x in labels]
        # the generator list is symmetric
        assert any(mul(g, h) == system.base for h in gens)


@pytest.mark.parametrize("name", CAYLEY)
def test_group_law(name):
    ball = catalogue.build(name)
    e, mul, labels = ball.system.base, ball.system.multiply, ball.labels
    for x in labels:
        assert mul(e, x) == x == mul(x, e)
    rng = random.Random(0)
    for _ in range(300):
        x, y, z = (rng.choice(labels) for _ in range(3))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_reduced_product_cancels_across_the_seam():
    assert _reduced_product((1, 2), (-2, -1, 2)) == (2,)
    assert _reduced_product((1, -2), (2, -1)) == ()
    assert _reduced_product((1,), (1, 2)) == (1, 1, 2)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7])
def test_ceil_root_is_exact(d):
    # at and beside exact powers, far past where a float root rounds wrong
    for m in [0, 1, 2, 3, 10**6 + 3, 10**30 + 7]:
        power = m**d
        assert _ceil_root(power, d) == m
        assert _ceil_root(power + 1, d) == m + 1
        if d >= 2 and m >= 2:
            assert _ceil_root(power - 1, d) == m


@pytest.mark.parametrize("rank", [1, 3, 4, 5])
def test_lattice_floor_is_the_loomis_whitney_bound(rank):
    # 2 ceil(2d k^((d-1)/d)), the ceiling found by counting up
    floor = free_abelian(rank).floor
    for k in range(1, 60):
        target = (2 * rank) ** rank * k ** (rank - 1)
        assert floor(k) == 2 * next(m for m in itertools.count() if m**rank >= target)
