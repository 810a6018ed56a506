"""Window exploration: frozen counts, structure checks, budget caps."""

import dataclasses
import hashlib
import itertools
import random
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupiso import catalogue, specio
from groupiso.groups import (
    ExploredBall,
    ResourceCapError,
    _ceil_root,
    _word_product,
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
    # rank 0 is the trivial group: no height, and a complete window
    "z0_3": (lambda: free_abelian(0), 3, 1, 0, True),
    "f0_3": (lambda: free_group(0), 3, 1, 0, True),
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


def test_explicit_graph_rejects_a_horizon_below_its_radius():
    with pytest.raises(ValueError) as err:
        ball_from_edges("p3", 3, [(0, 1), (1, 2)], horizon=1)
    assert str(err.value) == "p3: horizon 1 is below the radius 2 of the graph from vertex 0"
    assert ball_from_edges("p3", 3, [(0, 1), (1, 2)], horizon=2).horizon == 2


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


@pytest.mark.parametrize("name", catalogue.names())
def test_a_system_is_cayley_exactly_when_it_carries_its_law(name):
    system = catalogue.build(name).system
    assert (system.kind == "cayley") == (system.multiply is not None)


def test_kind_is_read_only_and_not_a_field():
    system = cyclic(5)
    assert [f.name for f in dataclasses.fields(system)] == [
        "name", "base", "moves", "multiply", "floor", "height", "code"
    ]
    assert dataclasses.replace(system, multiply=None).kind == "schreier"
    with pytest.raises(AttributeError):
        system.kind = "schreier"


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


def _reduced_product(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    """The free group law on words as tuples of letters, i + 1 for letter
    i and -(i + 1) for its inverse: the letters x ends with cancel
    against the ones y starts with."""
    while x and y and x[-1] == -y[0]:
        x, y = x[:-1], y[1:]
    return x + y


def _letters(word: int, rank: int) -> tuple[int, ...]:
    """A word of ``free_group(rank)`` as its tuple of letters."""
    letters = []
    while word:
        word, d = divmod(word, 2 * rank + 1)
        letters.append((d + 1) // 2 if d % 2 else -(d // 2))
    return tuple(letters)


def _word(letters: tuple[int, ...], rank: int) -> int:
    """The inverse of :func:`_letters`."""
    base = 2 * rank + 1
    return sum((2 * a - 1 if a > 0 else -2 * a) * base**i for i, a in enumerate(letters))


def test_reduced_product_cancels_across_the_seam():
    def product(x, y):
        return _letters(_word_product(5, _word(x, 2), _word(y, 2)), 2)

    assert product((1, 2), (-2, -1, 2)) == (2,)
    assert product((1, -2), (2, -1)) == ()
    assert product((1,), (1, 2)) == (1, 1, 2)


def test_word_product_is_the_reduced_product():
    # every pair of the 161 reduced rank-2 words of length at most 4
    words = [()]
    for length in range(1, 5):
        words += [
            w for w in itertools.product((1, -1, 2, -2), repeat=length)
            if all(a != -b for a, b in zip(w, w[1:]))
        ]
    assert len(words) == 161
    codes = [_word(w, 2) for w in words]
    assert [_letters(c, 2) for c in codes] == words
    for x, cx in zip(words, codes):
        for y, cy in zip(words, codes):
            assert _letters(_word_product(5, cx, cy), 2) == _reduced_product(x, y)


# every constructor that states a height
HEIGHTS = [
    *(partial(free_abelian, rank) for rank in (1, 2, 3)),
    *(partial(free_group, rank) for rank in (1, 2)),
    heisenberg,
]


@settings(max_examples=30, deadline=None)
@given(factory=st.sampled_from(HEIGHTS), horizon=st.integers(1, 8))
def test_a_height_leaves_no_edge_inside_a_level(factory, horizon):
    system = factory()
    ball = explore(system, horizon)
    height = system.height
    for label in ball.labels:
        for move in system.moves:
            assert abs(height(move(label)) - height(label)) == 1
    assert not (ball.dist[ball.rows] == ball.dist[ball.indices]).any()
    assert ball.complete is False
    # the last level the walk skips held nothing: the full walk agrees
    full = explore(dataclasses.replace(system, height=None), horizon)
    for name in ("dist", "indptr", "indices"):
        assert np.array_equal(getattr(ball, name), getattr(full, name))
    assert full.complete is False and full.labels == ball.labels


def _walked(system, horizon, max_vertices):
    """The window, or the message of the error the walk raises."""
    try:
        return explore(system, horizon, max_vertices)
    except ResourceCapError as err:
        return str(err)


def _same_window(system, horizon, max_vertices=500_000):
    """The key walk of a coded system gives the dict walk's window, or
    the dict walk's error."""
    keyed = _walked(system, horizon, max_vertices)
    reference = _walked(dataclasses.replace(system, code=None), horizon, max_vertices)
    if isinstance(reference, str):
        assert keyed == reference
        return
    for name in ("indptr", "indices", "dist"):
        assert np.array_equal(getattr(keyed, name), getattr(reference, name))
    assert keyed.complete is reference.complete
    assert keyed.labels == reference.labels


# every constructor that states a code
CODED = [*(partial(free_group, rank) for rank in (1, 2, 3)), heisenberg]


@settings(max_examples=40, deadline=None)
@given(factory=st.sampled_from(CODED), horizon=st.integers(1, 8))
def test_the_key_walk_is_the_dict_walk(factory, horizon):
    system = factory()
    assert system.code(horizon) is not None
    # free_group(3) exceeds this budget from horizon 6 on, in both walks
    _same_window(system, horizon, max_vertices=20_000)


@pytest.mark.parametrize(
    "system, horizon, max_vertices, message",
    [
        (free_group(2), 6, 100, "exceeded 100 vertices"),
        # the window has 53 vertices
        (free_group(2), 3, 52, "exceeded 52 vertices"),
        (heisenberg(), 6, 100, "exceeded 100 vertices"),
        # 81 vertices of 80 moves each pass 64 moves per budget vertex
        (free_group(40), 2, 100, "would apply 6480 moves"),
        (free_group(40), 2, 1, "would apply 80 moves"),
    ],
)
def test_both_walks_raise_the_same_error(system, horizon, max_vertices, message):
    with pytest.raises(ResourceCapError, match=message):
        explore(system, horizon, max_vertices)
    _same_window(system, horizon, max_vertices)


def test_a_window_may_fill_the_budget():
    assert explore(free_group(2), 3, 53).num_vertices == 53
    _same_window(free_group(2), 3, 53)


def test_free_group_keys_stop_short_of_int64_overflow():
    # 3**39 < 2**63 - 1 < 3**40: horizon 40 takes the dict walk
    system = free_group(1)
    assert system.code(39) is not None and system.code(40) is None
    assert free_group(2).code(27) is not None and free_group(2).code(28) is None
    for horizon in (39, 40):
        _same_window(system, horizon)
    # a**39 and a**-39, whose digits are all 1 and all 2
    assert explore(system, 39).labels[-2:] == [(3**39 - 1) // 2, 3**39 - 1]


@pytest.mark.parametrize(
    "factory, horizon, bound_mb", [(partial(free_group, 2), 9, 1.6), (heisenberg, 14, 1.0)]
)
def test_a_coded_window_keeps_its_arrays_and_keys_only(factory, horizon, bound_mb):
    system = factory()
    explore(system, horizon)  # first-use allocations are not the window's
    tracemalloc.start()
    try:
        ball = explore(system, horizon)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # dist, indptr, indices and the keys: no label is built before it is read
    assert kept <= bound_mb * 2**20
    assert len(ball.labels) == ball.num_vertices


# name -> (sha256 of indptr, indices, dist and complete; sha256 of the
# repr of the labels, free-group words as tuples of letters)
WINDOW_PINS = {
    "c12": (
        "a645b09fc1707869d5bd625dc0beaaf3b057cd6896e21404dc2768df67c375a4",
        "9d1c29e786274ad8c5f20303c3cd34c700525a6e107653d6361e7355d9cd0ff9",
    ),
    "c16": (
        "f54621fb1139ef1bd89eb0825d7e59fa420322d45e0847a88a62f352b2d29285",
        "74315212defb7058f62151c9d1ffc14555f82de0b7094f75d9048665809b6e1c",
    ),
    "c32": (
        "bba6103eec3962e6001d74d0caad967df520ce1e453deeb6d25be4c1cf9e0834",
        "98938332fddfdc0846f7e399428eea2a4cb2a88e60846d72c1c10d8d56daeddf",
    ),
    "c6": (
        "cff9e953d61d87e7b8e4509805c07f3a709d50384dc880ef23902f0a05e7658a",
        "77a6cfb5858c7e59c7c9c5fa81b56e1d46d0c8d8e8f793fdfcd2b794b573f830",
    ),
    "c64": (
        "b6abbbb5908b03b14f298f1eb8a5b479acf2e98e600df514ea3b52787f3e3f42",
        "46de265625e363a1baaaf96431c6512b9cfef960a69b67df7e04d24357892ba0",
    ),
    "c8": (
        "70eec2afb93d31513009156b71bf21e2739f099dae556e8c79000186584923df",
        "a4fc2dc33d36b6c89c5e67b8155300997117a8f2522c77444059e328d199e2b2",
    ),
    "d4": (
        "81dd475d4e4f37057c5fc3192dd5e4d7d9109fd9493cd069bc998b80bd56004b",
        "a6bdc2b1eab7d4dd3ae5295c46174bb2f631cbd6236c46e59b0d68fcfe5ce119",
    ),
    "d8": (
        "c945d3bdd3ce6d8fcf93c741d98b6596d65419aaed4683afaed33f17328e72cb",
        "7bf04260f05dda8788c65479391a18b51ce9478e696e275e25db90c06e75de17",
    ),
    "f2": (
        "24063a6a483a75add42e46a81e37c459d17169b5cba0f5d63df534e08035bed4",
        "77122429eee91c73a56365027659bcebd36e542f0b26ea06be9c700f9fcc3c47",
    ),
    "heisenberg": (
        "f836579c6c590757b286b0a16748cddf72599dc7fae6338ec56ac2b37063b0b5",
        "acc99b011b57c4074f7f191061e0dcdd4f5a870487fdc09f7e91b3d3cb320870",
    ),
    "q3": (
        "81dd475d4e4f37057c5fc3192dd5e4d7d9109fd9493cd069bc998b80bd56004b",
        "56936abf6634e02ea069fc3c4345f49254c76bde78569ab6f276f0bc6e723b2f",
    ),
    "q4": (
        "bffa4d2fbb5d4aef2082938119fc1e582da5d2330303884826a6deb4ea148447",
        "909417d181e0b6e53e73bb2c2e5414bd8b13f680735f427eb5802775010606f3",
    ),
    "q6": (
        "a86e97f6ae4f996bd94788778223c15a780f97fcb817487c61225b30ae5d475e",
        "b7958a99e84281093dd15595ff7c3f8670113410137db8cc9252c0ee7d9792f5",
    ),
    "s3": (
        "a87e683822deb154ddca48e0b7a1789f628498bf65f74cd64f77feccb6998c84",
        "62ff413c0e1fec2ed77cf1752dfb18590f84ee948a7df8c10363f6eeac17e4a0",
    ),
    "s3_points": (
        "0489d623351edb0b8893555f9db589ef13a82f1b75d8c2ac01de72108d78b229",
        "1d226b8db3e15d55d17d319ef9bc45dff4bb345f3713141d458ee3519271f553",
    ),
    "s4": (
        "24defcdcf6bf58b2fefab05f96ec1c6bbd5917fe9dd60205faea38b3969db4a5",
        "70397468e1a687cf1873307ed2a52f0f272d5083a5f646926d2318d121367225",
    ),
    "s4_points": (
        "74272fa048ee566fdcb6005005333e0eec439a203e93f19ea11a14d77c430dbe",
        "02b6deebe10f247a39a1f40c6e045af149df9c96491adce129613e8b30480780",
    ),
    "z": (
        "1fd01527ab2bddc76c69cb58279f3a9db0bae927407a0c956dd263f0d27c2bc8",
        "8d48f3894fc2b10d82153e0a732e6a12e3b15b576cf98e486c42120b9cd38167",
    ),
    "z2": (
        "b9725b855a98b4a616b7ae38e3639ed41ae5ff2ee93586ca05e48261b4133bf7",
        "df521cee306f8d1c9ee183027b41aca5edc07e8e17a649ea216238cc848bca92",
    ),
    "z3": (
        "b7619285f76c1493d4bd5b7b840072384df68f3faf17d0f0c19ce6bebbf00958",
        "b423821aff5e6546847472fe42f57514a23d62f1812dce5ff690a7cff97123fb",
    ),
    "f2_9": (
        "61fb5438103d3bd21dad02f1a08ca00f1eb11f59abda0872d1f51986fd15e058",
        "e31a991dc2011711f8c6cf68e7f7ef35b7ab1159b606de88c308f850f7e8ae33",
    ),
    "heisenberg_14": (
        "ec708aa597cf8f9e3abb1b229837a24a8e43e628062ebea3ef9d7c8803588868",
        "e2ec2b20874ef1b2cb204892261fa263aaf2a297c583c626c4e9ece0e920fa69",
    ),
    "z2_10": (
        "184669a7c785d1f40d70bc9c97079a53d66bfe2884c02637e1727fb3f6979e9b",
        "f54713f05fd8bb8550dd315838c8e8e5835ac3448fa5c246bbbdfb6b780dfd23",
    ),
    "z3_12": (
        "fbcfba5e44ef193744ce7cd520db4c886bbe2ee17a3d2da11923c6b462b33525",
        "49116b99ee5d4e2d98062e125eb2fc5101a1a798eeeb79cb650d128f9a1ccc25",
    ),
}

LARGE_WINDOWS = {
    "f2_9": lambda: explore(free_group(2), 9),
    "heisenberg_14": lambda: explore(heisenberg(), 14),
    "z2_10": lambda: explore(free_abelian(2), 10),
    "z3_12": lambda: explore(free_abelian(3), 12),
}


@pytest.mark.parametrize("name", sorted(WINDOW_PINS))
def test_window_is_pinned(name):
    ball = LARGE_WINDOWS[name]() if name in LARGE_WINDOWS else catalogue.build(name)
    structure = hashlib.sha256()
    for a in (ball.indptr, ball.indices, ball.dist):
        structure.update(np.ascontiguousarray(a, "<i8").tobytes())
    structure.update(b"complete" if ball.complete else b"window")
    labels = ball.labels
    if name.startswith("f2"):
        labels = [_letters(w, 2) for w in labels]
    assert (structure.hexdigest(), hashlib.sha256(repr(labels).encode()).hexdigest()) == (
        WINDOW_PINS[name]
    )


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
