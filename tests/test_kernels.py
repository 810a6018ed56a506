"""Kernels against independent oracles, and the jitted loops against their source."""

import functools
import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

from groupiso import catalogue, kernels
from groupiso.isoperimetry import _chain_inputs, _probe_temperature, set_perimeter

needs_numba = pytest.mark.skipif(not kernels.HAS_NUMBA, reason="numba unavailable")

UNBOUNDED = 10**9


@functools.lru_cache(maxsize=None)
def _ball(name):
    return catalogue.build(name)


def _pool(ball, whole):
    return np.arange(ball.num_vertices) if whole else np.flatnonzero(ball.interior)


@functools.lru_cache(maxsize=None)
def _all_subsets(name, whole, k, stride):
    # (perimeter, vertices) of every k-subset of the strided pool, in lexicographic order
    ball = _ball(name)
    cand = _pool(ball, whole)[::stride]
    return [
        (set_perimeter(ball, combo), tuple(int(v) for v in combo))
        for combo in itertools.combinations(cand, k)
    ]


def _oracle(name, whole, k, stride, cap):
    scanned = _all_subsets(name, whole, k, stride)[:cap]
    best = min(scanned, key=lambda s: s[0], default=None)  # min keeps the first
    if best is None:
        return kernels.NO_RESULT, 0, 0, (-1,) * k
    return best[0], len(scanned), int(len(scanned) >= cap), best[1]


SCAN_CASES = [
    (name, whole, k)
    for name, whole in (("z2", False), ("z2", True), ("c64", False), ("q6", False), ("s4_points", False))
    for k in (1, 2, 3)
]


@pytest.mark.parametrize("name,whole,k", SCAN_CASES)
@pytest.mark.parametrize("cap", [1, 7, 100, 5000, UNBOUNDED])
@pytest.mark.parametrize("stride", [1, 3])
def test_scan_matches_brute_force(name, whole, k, cap, stride):
    # stride 3 keeps every third pool vertex: a pool with gaps, where
    # most graph neighbours of a member lie outside the pool
    ball = _ball(name)
    cand = _pool(ball, whole)[::stride].astype(np.int64)
    best, leaves, capped, wit = kernels.min_perimeter_scan(
        ball.indptr, ball.indices, cand, k, np.int64(cap)
    )
    assert (best, leaves, capped, tuple(wit.tolist())) == _oracle(name, whole, k, stride, cap)


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


def _chain_args(name, k, seed=123, budget=2000, whole=False):
    ball = _ball(name)
    cand = _pool(ball, whole).astype(np.int64)
    mask = np.zeros(ball.num_vertices, np.uint8)
    mask[cand] = 1
    init, probe_rem, probe_add, walk = _chain_inputs(np.random.default_rng(seed), cand, k, budget)
    t0 = _probe_temperature(ball, cand, init, probe_rem, probe_add)
    return (ball.indptr, ball.indices, mask, cand, init, t0, 0.97, k, *walk)


@pytest.mark.parametrize(
    "name,k,best,members",
    [
        ("z2", 4, 16, (0, 2, 3, 9)),
        ("c64", 10, 4, (0, 1, 2, 3, 4, 5, 6, 7, 9, 11)),
    ],
)
def test_anneal_chain_pinned(name, k, best, members):
    args = _chain_args(name, k)
    got, got_members = kernels.anneal_chain(*args)
    assert (got, tuple(sorted(got_members.tolist()))) == (best, members)
    assert set_perimeter(_ball(name), got_members) == got


def _replay_chain(
    ball, cand_mask, cand_list, members, t0, cool, sweep, rem_idx, src_idx, nb_u, fb_idx, acc_u,
):
    # anneal_chain step by step, each trial set's perimeter from scratch
    cur = [int(v) for v in members]
    perim = set_perimeter(ball, cur)
    best, best_set = perim, sorted(cur)
    t = t0
    for s in range(len(rem_idx)):
        if s > 0 and s % sweep == 0:
            t *= cool
        u = cur[rem_idx[s]]
        src = cur[src_idx[s]]
        row = ball.indices[ball.indptr[src]:ball.indptr[src + 1]]
        w = int(row[int(nb_u[s] * row.size)]) if row.size else -1
        if w < 0 or not cand_mask[w] or w in cur:
            w = int(cand_list[fb_idx[s]])
            if w in cur:
                continue
        trial = [w if v == u else v for v in cur]
        delta = set_perimeter(ball, trial) - perim
        if delta <= 0 or (t > 0.0 and acc_u[s] < math.exp(-delta / t)):
            cur = trial
            perim += delta
            if perim < best:
                best, best_set = perim, sorted(cur)
    return best, tuple(best_set)


#: (window, whole pool): complete windows, and windows whose boundary
#: vertices have lower degree, with those vertices in the pool
ORACLE_WINDOWS = [
    ("z2", False), ("z2", True), ("c64", False), ("q6", False), ("f2", True), ("heisenberg", True),
]


@pytest.mark.parametrize("name,whole", ORACLE_WINDOWS)
@pytest.mark.parametrize("k", [1, 4, 9])
@pytest.mark.parametrize("seed", [5, 41])
def test_anneal_chain_matches_replay(name, whole, k, seed):
    args = _chain_args(name, k, seed=seed, whole=whole)
    got, members = kernels.anneal_chain(*args)
    assert (got, tuple(sorted(members.tolist()))) == _replay_chain(_ball(name), *args[2:])


@needs_numba
def test_scan_jit_matches_source(monkeypatch):
    ball = _ball("z2")
    cand = np.flatnonzero(ball.interior).astype(np.int64)
    args = (ball.indptr, ball.indices, cand, 3, np.int64(5000))
    jit = kernels.min_perimeter_scan(*args)
    monkeypatch.setattr(kernels, "HAS_NUMBA", False)
    monkeypatch.setattr(kernels, "_scan_loop", kernels._scan_loop.py_func)
    src = kernels.min_perimeter_scan(*args)
    assert jit[:3] == src[:3]
    assert np.array_equal(jit[3], src[3])


@needs_numba
def test_connected_jit_matches_source(monkeypatch):
    ball = _ball("z2")
    cand = np.flatnonzero(ball.interior).astype(np.int64)
    args = (ball.indptr, ball.indices, cand, 6, 5000)
    jit = kernels.connected_profile(*args)
    monkeypatch.setattr(kernels, "HAS_NUMBA", False)
    monkeypatch.setattr(kernels, "_connected_loop", kernels._connected_loop.py_func)
    monkeypatch.setattr(kernels, "_offer", kernels._offer.py_func)
    assert kernels.connected_profile(*args) == jit


@needs_numba
def test_anneal_jit_matches_source(monkeypatch):
    args = _chain_args("z2", 4)
    jit = kernels.anneal_chain(*args)
    monkeypatch.setattr(kernels, "HAS_NUMBA", False)
    monkeypatch.setattr(kernels, "_anneal_loop", kernels._anneal_loop.py_func)
    src = kernels.anneal_chain(*args)
    assert jit[0] == src[0]
    assert np.array_equal(jit[1], src[1])


def test_backend_default_subprocess():
    out = subprocess.run(
        [sys.executable, "-c", "from groupiso import kernels; print(kernels.BACKEND, kernels.HAS_NUMBA)"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() in (["numba", "True"], ["numpy", "False"])


def test_no_result_sentinel():
    assert kernels.NO_RESULT > 10**18
