"""Kernels against independent oracles: brute force, networkx and chains replayed from scratch."""

import functools
import inspect
import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupiso import catalogue, kernels
from groupiso.groups import ball_from_edges
from groupiso.isoperimetry import _chain_inputs, _pool_floor, set_perimeter

UNBOUNDED = 10**9


@functools.lru_cache(maxsize=None)
def _ball(name):
    return catalogue.build(name)


def _pool(ball, whole):
    return np.arange(ball.num_vertices) if whole else np.flatnonzero(ball.interior)


@functools.lru_cache(maxsize=None)
def _oracle(name, pool, k):
    # the scan's result over the k-subsets of the tuple pool, by brute force
    ball = _ball(name)
    scanned = [(set_perimeter(ball, combo), combo) for combo in itertools.combinations(pool, k)]
    best = min(scanned, key=lambda s: s[0], default=None)  # min keeps the first
    if best is None:
        return kernels.NO_RESULT, 0, 0, (-1,) * k
    return best[0], len(scanned), 0, best[1]


SCAN_CASES = [
    (name, whole, k)
    for name, whole in (("z2", False), ("z2", True), ("c64", False), ("q6", False), ("s4_points", False))
    for k in (1, 2, 3)
]


@pytest.mark.parametrize("name,whole,k", SCAN_CASES)
@pytest.mark.parametrize("head", [1, 7, 100, 5000, UNBOUNDED])
@pytest.mark.parametrize("stride", [1, 3])
def test_scan_matches_brute_force(name, whole, k, head, stride):
    # stride 3 keeps every third pool vertex: a pool with gaps, where
    # most graph neighbours of a member lie outside the pool; head keeps
    # the first vertices of that, fewer than k of them at head 1
    ball = _ball(name)
    cand = _pool(ball, whole)[::stride][:head].astype(np.int64)
    best, leaves, capped, wit = kernels.min_perimeter_scan(ball.indptr, ball.indices, cand, k)
    assert (best, leaves, capped, tuple(wit.tolist())) == _oracle(name, tuple(cand.tolist()), k)


@functools.lru_cache(maxsize=None)
def _connected_subsets(name, whole, kmax):
    # per size: (perimeter, vertices) of every connected subset, in lexicographic order
    import networkx as nx

    ball = _ball(name)
    graph = nx.Graph((int(v), int(w)) for v, w in zip(ball.rows, ball.indices))
    graph.add_nodes_from(range(ball.num_vertices))
    cand = _pool(ball, whole)
    out = {}
    for k in range(1, kmax + 1):
        out[k] = [
            (set_perimeter(ball, combo), combo)
            for combo in itertools.combinations(cand.tolist(), k)
            if nx.is_connected(graph.subgraph(combo))
        ]
    return out


CONNECTED_CASES = [
    ("z", False, 4), ("z2", False, 3), ("z2", True, 3), ("c64", False, 3), ("q3", False, 4),
    ("q4", False, 4), ("d8", False, 4), ("s4", False, 4), ("s4_points", False, 4),
]


@pytest.mark.parametrize("name,whole,kmax", CONNECTED_CASES)
@pytest.mark.parametrize("cap", [1, 7, 100, UNBOUNDED])
def test_connected_profile_matches_brute_force(name, whole, kmax, cap):
    ball = _ball(name)
    cand = _pool(ball, whole).astype(np.int64)
    best, count, witnesses, limit = kernels.connected_profile(ball.indptr, ball.indices, cand, kmax, cap)
    sets = _connected_subsets(name, whole, kmax)
    # a size is finished when it and every smaller size have at most cap sets
    want_limit = next((k - 1 for k in range(1, kmax + 1) if len(sets[k]) > cap), kmax)
    assert limit == want_limit
    for k in range(1, limit + 1):
        least = min(sets[k], default=None, key=lambda s: s[0])  # min keeps the first
        want = (least[0], least[1]) if least else (kernels.NO_RESULT, None)
        assert (best[k], witnesses[k], count[k]) == (*want, len(sets[k]))


@st.composite
def _graphs_and_pools(draw):
    # a random simple graph on 1..10 vertices, as a networkx graph and its
    # sorted CSR, and a pool: an increasing run of its vertices with gaps
    import networkx as nx

    n = draw(st.integers(1, 10))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    graph = nx.Graph(e for e, kept in zip(pairs, keep) if kept)
    graph.add_nodes_from(range(n))
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum([graph.degree(v) for v in range(n)], out=indptr[1:])
    indices = np.array([u for v in range(n) for u in sorted(graph[v])], np.int64)
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return graph, indptr, indices, np.flatnonzero(keep).astype(np.int64)


def _by_size(graph, pool, k, connected):
    # (perimeter, vertices) of the k-subsets of pool, in lexicographic order
    import networkx as nx

    return [
        (2 * nx.cut_size(graph, combo), combo)
        for combo in itertools.combinations(pool, k)
        if not connected or nx.is_connected(graph.subgraph(combo))
    ]


@settings(max_examples=150, deadline=None)
@given(_graphs_and_pools(), st.sampled_from([1, 2, 5, UNBOUNDED]), st.integers(1, 11))
def test_connected_profile_on_random_graphs(case, cap, kmax):
    graph, indptr, indices, cand = case
    best, count, witnesses, limit = kernels.connected_profile(indptr, indices, cand, kmax, cap)
    pool = tuple(cand.tolist())
    sets = {k: _by_size(graph, pool, k, True) for k in range(1, kmax + 1)}
    assert limit == next((k - 1 for k in range(1, kmax + 1) if len(sets[k]) > cap), kmax)
    for k in range(1, limit + 1):
        least = min(sets[k], default=(kernels.NO_RESULT, None), key=lambda s: s[0])
        assert (best[k], witnesses[k], count[k]) == (*least, len(sets[k]))


@settings(max_examples=150, deadline=None)
@given(_graphs_and_pools(), st.integers(1, 11))
def test_scan_on_random_graphs(case, k):
    graph, indptr, indices, cand = case
    best, leaves, capped, wit = kernels.min_perimeter_scan(indptr, indices, cand, k)
    scanned = _by_size(graph, tuple(cand.tolist()), k, False)
    least = min(scanned, default=(kernels.NO_RESULT, (-1,) * k), key=lambda s: s[0])
    assert (best, tuple(wit.tolist()), leaves, capped) == (*least, len(scanned), 0)


def test_deep_sets_need_no_recursion():
    # a path of 1,100 vertices: the walk goes 1,050 members deep from
    # root 0, and the scan places 1,098 members before its last pass
    n = 1_100
    path = ball_from_edges("path", n, [(v, v + 1) for v in range(n - 1)])
    cand = np.arange(n)
    # one set of each size from root 0; the second singleton passes cap 1
    assert kernels.connected_profile(path.indptr, path.indices, cand, 1_050, 1)[3] == 0
    best, leaves, capped, wit = kernels.min_perimeter_scan(path.indptr, path.indices, cand, n - 1)
    assert (best, leaves, capped, wit.tolist()) == (2, n, 0, list(range(n - 1)))


def _chain_args(name, k, seed=123, budget=2000, whole=False):
    # the pool, and anneal_chain's arguments after the graph and the pool
    ball = _ball(name)
    cand = _pool(ball, whole).astype(np.int64)
    init, probe_rem, probe_add, walk = _chain_inputs(np.random.default_rng(seed), cand, k, budget)
    return cand, (init, probe_rem, probe_add, 0.97, k, *walk)


def _anneal(name, cand, args, floor=None):
    ball = _ball(name)
    pool = kernels.pool_rows(ball.indptr, ball.indices, cand)
    return kernels.anneal_chain(ball.indptr, ball.indices, pool, *args, floor=floor)


@pytest.mark.parametrize(
    "name,k,best,members",
    [
        ("z2", 4, 16, (0, 2, 3, 9)),
        ("c64", 10, 4, (0, 1, 2, 3, 4, 5, 6, 7, 9, 11)),
    ],
)
def test_anneal_chain_pinned(name, k, best, members):
    # no floor: the chain walks its whole budget
    cand, args = _chain_args(name, k)
    got, got_members, walked = _anneal(name, cand, args)
    assert (got, tuple(sorted(got_members.tolist())), walked) == (best, members, 2000)
    assert set_perimeter(_ball(name), got_members) == got


def _replay_chain(
    ball, floor, cand, oracle, members, probe_rem, probe_add, cool, sweep,
    rem_idx, src_idx, nb_u, fb_idx, acc_u,
):
    # anneal_chain step by step, each trial set's perimeter from scratch,
    # stopping once the best set reaches the floor (None: never); the
    # start temperature is the oracle's
    cand_mask = np.zeros(ball.num_vertices, np.bool_)
    cand_mask[cand] = True
    width = max(int(ball.degrees[cand].max()), 1)
    floor = -1 if floor is None else floor
    cur = [int(v) for v in members]
    perim = set_perimeter(ball, cur)
    best, best_set = perim, sorted(cur)
    if best <= floor:
        return best, tuple(best_set), 0
    t = oracle(ball, cand, members, probe_rem, probe_add)
    for s in range(len(rem_idx)):
        if s > 0 and s % sweep == 0:
            t *= cool
        u = cur[rem_idx[s]]
        src = cur[src_idx[s]]
        row = ball.indices[ball.indptr[src]:ball.indptr[src + 1]]
        # the slot is taken in the longest pool row; past the end of a
        # shorter row the step takes its fallback vertex
        j = int(nb_u[s] * width)
        w = int(row[j]) if j < row.size else -1
        if w < 0 or not cand_mask[w] or w in cur:
            w = int(cand[fb_idx[s]])
            if w in cur:
                continue
        trial = [w if v == u else v for v in cur]
        delta = set_perimeter(ball, trial) - perim
        if delta <= 0 or (t > 0.0 and acc_u[s] < math.exp(-delta / t)):
            cur = trial
            perim += delta
            if perim < best:
                best, best_set = perim, sorted(cur)
                if best <= floor:
                    return best, tuple(best_set), s + 1
    return best, tuple(best_set), len(rem_idx)


#: (window, whole pool): complete windows, and windows whose boundary
#: vertices have lower degree, with those vertices in the pool
ORACLE_WINDOWS = [
    ("z2", False), ("z2", True), ("c64", False), ("q6", False), ("f2", True), ("heisenberg", True),
]


@pytest.mark.parametrize("name,whole", ORACLE_WINDOWS)
@pytest.mark.parametrize("k", [1, 4, 9])
@pytest.mark.parametrize("seed", [5, 41])
def test_anneal_chain_matches_replay(name, whole, k, seed, probe_reference):
    # with no floor and with the pool's, where it has one: the floor stops
    # the chain and its replay at the same step.  c64 and q6 are complete
    # and the interior of z2 keeps whole neighbourhoods; the whole pools of
    # z2 and f2 reach the window's boundary, and heisenberg has no floor
    ball = _ball(name)
    cand, args = _chain_args(name, k, seed=seed, whole=whole)
    floor = _pool_floor(ball, cand, k)
    assert (floor is not None) == (name in ("c64", "q6") or name == "z2" and not whole)
    for stop in (None, floor):
        got, members, walked = _anneal(name, cand, args, stop)
        replay = _replay_chain(ball, stop, cand, probe_reference, *args)
        assert (got, tuple(sorted(members.tolist())), walked) == replay


def _reference_loop(
    adj, state, cand_list, rem_idx, src_idx, nb_u, fb_idx, acc_u, temp, score, cur, best_set,
):
    # the annealer before slots: each step scales nb_u by its source's own
    # row length, and decides a positive delta by math.exp at every temperature
    k = len(cur)
    for i in range(k):
        v = cur[i]
        state[v] = 2
        for x in adj[v]:
            score[x] -= 2
    perim = 0
    for i in range(k):
        v = cur[i]
        perim += len(adj[v]) + score[v]
    best = perim
    for ri, si, nb, fi, au, t in zip(rem_idx, src_idx, nb_u, fb_idx, acc_u, temp):
        row = adj[cur[si]]
        w = -1
        if len(row) > 0:
            w = row[int(nb * len(row))]
        if w < 0 or state[w] != 1:
            w = cand_list[fi]
            if state[w] != 1:
                continue
        u = cur[ri]
        delta = 2 * (score[w] - score[u])
        if u in adj[w]:
            delta += 4
        if delta > 0 and not (t > 0.0 and au < math.exp(-delta / t)):
            continue
        state[u] = 1
        state[w] = 2
        for x in adj[u]:
            score[x] += 2
        for x in adj[w]:
            score[x] -= 2
        cur[ri] = w
        perim += delta
        if perim < best:
            best = perim
            best_set[:] = cur
    return best


def _reference_chain(
    ball, cand, oracle, members, probe_rem, probe_add, cool, sweep,
    rem_idx, src_idx, nb_u, fb_idx, acc_u,
):
    indptr = ball.indptr
    nsteps = len(rem_idx)
    factors = np.full(max(1, -(-nsteps // sweep)), cool, np.float64)
    factors[0] = oracle(ball, cand, members, probe_rem, probe_add)
    temp = np.repeat(np.multiply.accumulate(factors), sweep)[:nsteps]
    state = np.zeros(ball.num_vertices, np.uint8)
    state[cand] = 1
    ind = ball.indices.tolist()
    adj = [()] * ball.num_vertices
    for v in np.flatnonzero(state).tolist():
        adj[v] = tuple(ind[indptr[v]:indptr[v + 1]])
    cur = [int(v) for v in members]
    best_set = cur.copy()
    steps = (rem_idx.tolist(), src_idx.tolist(), nb_u.tolist(), fb_idx.tolist(), acc_u.tolist())
    best = _reference_loop(
        adj, bytearray(state), cand.tolist(), *steps, temp.tolist(), np.diff(indptr).tolist(),
        cur, best_set,
    )
    return best, best_set


@pytest.mark.parametrize("name", ["c64", "z2", "z3", "q6", "heisenberg", "f2"])
@pytest.mark.parametrize("k", [1, 4, 9])
@pytest.mark.parametrize("seed", [5, 41])
def test_anneal_chain_matches_reference_on_default_pools(name, k, seed, probe_reference):
    # every default pool row has the pool's full width, so slots change no
    # proposal, and None entries only reject what the test rejects: the
    # chains are equal
    ball = _ball(name)
    cand, args = _chain_args(name, k, seed=seed)
    got, members, walked = _anneal(name, cand, args)
    want = _reference_chain(ball, cand, probe_reference, *args)
    assert (got, members.tolist(), walked) == (*want, len(args[5]))


def test_rem_idx_is_the_ninth_parameter():
    # the walk arrays start at position 8, where a tracer counts the
    # steps of a chain as len(rem_idx)
    assert list(inspect.signature(kernels.anneal_chain).parameters)[8] == "rem_idx"


def test_chain_on_the_floor_builds_no_walk(monkeypatch):
    # every singleton of c64 has perimeter 4, its floor: the chain returns
    # before building temperatures, slots or acceptance entries
    def refuse(*args):
        raise AssertionError("acceptance built for a chain on its floor")

    monkeypatch.setattr(kernels, "_acceptance", refuse)
    cand, args = _chain_args("c64", 1)
    assert _pool_floor(_ball("c64"), cand, 1) == 4
    got, members, walked = _anneal("c64", cand, args, floor=4)
    assert (got, members.tolist(), walked) == (4, args[0].tolist(), 0)


def test_pool_rows_pad_with_the_sentinel():
    # path 0 - 1 - 2 and an isolated vertex 3; the pool is 0, 1 and 3
    indptr = np.array([0, 1, 3, 4, 4])
    indices = np.array([1, 0, 2, 1])
    pool = kernels.pool_rows(indptr, indices, np.array([0, 1, 3]))
    assert pool.width == 2
    assert pool.adj == [(1, 4), (0, 2), (), (4, 4)]
    # one byte per vertex and the sentinel
    assert pool.state == bytes([1, 1, 0, 1, 0])
    assert pool.vertices.dtype == np.uint8


@pytest.mark.parametrize("name,whole", ORACLE_WINDOWS)
def test_pool_rows_keep_the_order_of_the_pool(name, whole):
    # the vertices follow cand; the rows and the state follow the set alone
    ball = _ball(name)
    cand = _pool(ball, whole)
    shuffled = np.random.default_rng(3).permutation(cand)
    pool = kernels.pool_rows(ball.indptr, ball.indices, cand)
    other = kernels.pool_rows(ball.indptr, ball.indices, shuffled)
    assert other.vertices.tolist() == shuffled.tolist()
    assert pool.vertices.tolist() == cand.tolist()
    assert (other.adj, other.width, other.state) == (pool.adj, pool.width, pool.state)


def _acceptance_cases():
    t = 2.0 / 800
    return [
        # (t0, cool): falling, flat and rising temperatures
        (5.0, 0.97), (3.0, 1.0), (0.5, 1.01),
        # warming up through the cold boundary, so the warm sweeps are no prefix
        (t / 2, 1.01), (t / 1.2, 1.01),
        # temperatures that underflow, the boundary itself and just above it
        (1e-3, 0.97), (1e-300, 0.5), (t, 1.0), (np.nextafter(t, 1.0), 1.0),
        (0.0, 0.97), (-1.0, 0.97), (4.0, -1.0),
    ]


@pytest.mark.parametrize("t0,cool", _acceptance_cases())
@pytest.mark.parametrize("width", [1, 4, 6])
def test_cutoffs_agree_with_the_metropolis_test(t0, cool, width):
    # each step's acceptance entry, read by the loop's rule, cuts off
    # exactly the positive deltas the Metropolis test rejects
    sweep, nsteps = 3, 900
    acc_u = np.random.default_rng(11).random(nsteps)
    # one step in seven draws 0.0, which every exp above 0.0 accepts
    acc_u[::7] = 0.0
    factors = np.full(-(-nsteps // sweep), cool)
    factors[0] = t0
    temps = np.multiply.accumulate(factors)
    accept = kernels._acceptance(acc_u, temps, sweep)
    assert len(accept) == nsteps
    for s, (au, entry) in enumerate(zip(acc_u.tolist(), accept)):
        t = float(temps[s // sweep])
        for delta in range(-4 * width - 4, 4 * width + 5, 2):
            metropolis = delta <= 0 or (t > 0.0 and au < math.exp(-delta / t))
            # the loop's rule: a None entry rejects every positive delta
            loop = delta <= 0 or (entry is not None and entry[0] < math.exp(-delta / entry[1]))
            assert loop == metropolis


def test_backend_default_subprocess():
    out = subprocess.run(
        [
            sys.executable, "-c",
            "import sys, groupiso; from groupiso import kernels; "
            "print(kernels.BACKEND, kernels.HAS_NUMBA, 'numba' in sys.modules)",
        ],
        capture_output=True, text=True, check=True,
    )
    # one backend: the loops run as plain Python and numba is never imported
    assert out.stdout.split() == ["numpy", "False", "False"]


def test_no_result_sentinel():
    assert kernels.NO_RESULT > 10**18
