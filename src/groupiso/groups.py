"""Finitely generated systems and breadth first window exploration.

A :class:`GeneratedSystem` is a base state together with a symmetric tuple
of moves (state to state callables).  For a Cayley construction the states
are group elements and each move is left multiplication by a generator;
for a Schreier construction the states are points of an orbit and each
move applies a generator permutation.

Every Cayley construction here is built one way, by :func:`_cayley` from
an identity, a symmetric generator list and the group law; a new group
needs nothing else.  The acting group of a Schreier system is never
listed: the translation check of :mod:`groupiso.growth` works on
orbitals, found from the generator moves alone.

:func:`explore` walks the system breadth first out to a horizon and
returns the induced graph on every state within that distance, stored in
CSR form, as an :class:`ExploredBall` that keeps the system it came
from; :func:`ball_from_edges` builds a window with no system from an
edge list.  Vertices are indexed in discovery order, the base state is
vertex 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, repeat
from operator import add, xor
from typing import Callable, Hashable, Sequence

import numpy as np

from .kernels import row_entries


_MAX_VERTICES = 500_000

#: Most move applications :func:`explore` makes per vertex of its budget.
_MOVES_PER_VERTEX = 64


class ResourceCapError(RuntimeError):
    """Raised when exploration would exceed the configured vertex budget,
    or the work it allows."""


@dataclass(frozen=True)
class GeneratedSystem:
    """Base state plus a symmetric tuple of generator moves.

    ``multiply`` is the group law.  Every Cayley system carries it (its
    moves are left multiplications built from it), and the translation
    walk of :func:`groupiso.growth.translation_maps` reads it; on a
    Schreier system it is None, and the moves, each a generator
    permutation applied to a point, are all there is of the acting group.

    ``floor``, where the family has one, maps k to the least perimeter
    of any k-set of the whole Cayley graph, a classical closed form in
    integer arithmetic; a window whose pool vertices keep their whole
    neighbourhood can have no k-set below it.  It is None for every
    other system.
    """

    name: str
    base: Hashable
    moves: tuple[Callable[[Hashable], Hashable], ...]
    kind: str = "cayley"
    multiply: Callable[[Hashable, Hashable], Hashable] | None = None
    floor: Callable[[int], int] | None = None


def _frozen(values, dtype=np.int64) -> np.ndarray:
    """Read-only view: cached balls are shared by every caller.

    The view leaves the array the caller passed in writable.
    """
    out = np.asarray(values, dtype).view()
    out.flags.writeable = False
    return out


class ExploredBall:
    """Window of a generated system: all states within ``horizon`` moves.

    ``complete`` is True when no unseen state exists beyond the horizon,
    i.e. the whole (finite) system was exhausted.  On an incomplete
    window only vertices with ``dist < horizon`` are guaranteed to carry
    their full neighborhood.  ``system`` is the :class:`GeneratedSystem`
    the window was explored from, None for an explicit edge list; the
    translation and double counting checks read it.  Every array the
    ball holds (``dist``, ``indptr``, ``indices`` and the cached
    ``degrees``, ``rows`` and ``interior``) is read-only.
    """

    def __init__(self, name, horizon, dist, indptr, indices, complete, labels, system):
        self.name = name
        self.horizon = int(horizon)
        self.dist = _frozen(dist)
        self.indptr = _frozen(indptr)
        self.indices = _frozen(indices)
        self.complete = bool(complete)
        self.labels = list(labels)
        self.system = system
        self.base_index = 0
        self._diameter: int | None = None

    @property
    def regular(self) -> bool:
        """Whether :func:`validate_ball` must find one interior degree: a
        group looks the same from every element, while a Schreier quotient
        loses that where loops at fixed points drop out."""
        return self.system is not None and self.system.kind == "cayley"

    @property
    def num_vertices(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def num_edges(self) -> int:
        return self.indices.shape[0] // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        return _frozen(np.diff(self.indptr))

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of every CSR entry, for vectorized edge sums."""
        return _frozen(np.repeat(np.arange(self.num_vertices), self.degrees))

    @cached_property
    def index_of(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def interior(self) -> np.ndarray:
        """Vertices whose whole neighborhood is inside the window."""
        if self.complete:
            return _frozen(np.ones(self.num_vertices, np.bool_), np.bool_)
        return _frozen(self.dist < self.horizon, np.bool_)

    def interior_within(self, margin: int) -> np.ndarray:
        """Vertices all of whose ``margin``-neighbors are interior."""
        if self.complete:
            return np.ones(self.num_vertices, np.bool_)
        return self.dist < self.horizon - margin

    def __repr__(self):
        tag = "complete" if self.complete else "window"
        return (
            f"ExploredBall({self.name!r}, horizon={self.horizon}, "
            f"vertices={self.num_vertices}, edges={self.num_edges}, {tag})"
        )


def _unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values, without the hash table of ``np.unique``.

    That table costs about 1 MB of resident memory on its first use.
    """
    values = np.sort(values)
    keep = np.ones(values.size, np.bool_)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _csr(num_vertices: int, tails, heads) -> tuple[np.ndarray, np.ndarray]:
    """Sorted symmetric CSR of the simple graph with edges tails[i]-heads[i].

    Self loops are dropped and repeated edges collapsed.
    """
    tails = np.asarray(tails, np.int64)
    heads = np.asarray(heads, np.int64)
    keep = tails != heads
    tails, heads = tails[keep], heads[keep]
    # one key per directed entry; sorting the keys sorts rows, then columns
    keys = _unique(np.concatenate([tails * num_vertices + heads, heads * num_vertices + tails]))
    rows, indices = np.divmod(keys, num_vertices)
    indptr = np.zeros(num_vertices + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=num_vertices), out=indptr[1:])
    return indptr, indices


def explore(system: GeneratedSystem, horizon: int, max_vertices: int = _MAX_VERTICES) -> ExploredBall:
    """Breadth first exploration of ``system`` out to ``horizon`` moves.

    Every state at distance <= horizon becomes a vertex; every edge whose
    endpoints both lie in the window is recorded once.  Self loops are
    dropped and parallel moves are collapsed.

    :param system: the generated system to walk.
    :param horizon: exploration radius, at least 1.
    :param max_vertices: hard budget; exceeding it raises
        :class:`ResourceCapError`, and so does a level whose expansion
        would take the walk past ``_MOVES_PER_VERTEX * max_vertices``
        move applications, before any of them is made.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    moves = system.moves

    def images(level):
        # where every move takes every vertex of level, vertex by vertex.
        # Once this level is expanded every known vertex is, so the walk
        # will have applied len(labels) * len(moves) moves in all.
        work = len(labels) * len(moves)
        if work > _MOVES_PER_VERTEX * max_vertices:
            raise ResourceCapError(
                f"{system.name}: exploration would apply {work} moves, more than"
                f" {_MOVES_PER_VERTEX} per vertex of the budget of {max_vertices}"
            )
        return chain.from_iterable(zip(*[map(move, level) for move in moves]))

    index = {system.base: 0}
    labels = [system.base]
    sizes = [1]  # sizes[d] counts the vertices at distance d
    # heads[i * len(moves) + j] is where move j takes vertex i, -1 if outside
    heads: list[int] = []
    claim, push = index.setdefault, heads.append
    while len(sizes) <= horizon and sizes[-1]:
        known = len(labels)
        for v in images(labels[known - sizes[-1] :]):
            n = len(labels)
            iv = claim(v, n)
            if iv == n:
                if n >= max_vertices:
                    raise ResourceCapError(
                        f"{system.name}: exploration exceeded {max_vertices} vertices"
                    )
                labels.append(v)
            push(iv)
        sizes.append(len(labels) - known)
    # the last level adds no vertex: a move that leaves the window gets -1
    heads.extend(map(index.get, images(labels[len(labels) - sizes[-1] :]), repeat(-1)))
    heads = np.asarray(heads, np.int64)
    tails = np.repeat(np.arange(len(labels)), len(moves))
    inside = heads >= 0
    indptr, indices = _csr(len(labels), tails[inside], heads[inside])
    dist = np.repeat(np.arange(len(sizes)), sizes)
    return ExploredBall(system.name, horizon, dist, indptr, indices, inside.all(), labels, system)


def ball_from_edges(
    name: str,
    num_vertices: int,
    edges: Sequence[tuple[int, int]],
    horizon: int | None = None,
) -> ExploredBall:
    """Build an explicit graph window from an edge list.

    The graph must be connected from its base, vertex 0; distances are
    computed by breadth first search and the window is marked complete.
    """
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be at least 1")
    ends = np.asarray(edges, np.int64).reshape(-1, 2)
    if ends.size and (ends.min() < 0 or ends.max() >= num_vertices):
        raise ValueError(f"{name}: an edge endpoint lies outside 0..{num_vertices - 1}")
    indptr, indices = _csr(num_vertices, ends[:, 0], ends[:, 1])
    # the breadth first search runs on the ball, so distances come last
    ball = ExploredBall(
        name, 1, np.zeros(num_vertices), indptr, indices, True, range(num_vertices), None
    )
    ball.dist = _frozen(distances_from(ball, [0]))
    if (ball.dist < 0).any():
        raise ValueError(f"{name}: graph is not connected from the base vertex")
    ball.horizon = max(int(ball.dist.max()), 1) if horizon is None else horizon
    return ball


def distances_from(ball: ExploredBall, sources: Sequence[int]) -> np.ndarray:
    """Graph distance from the nearest source, breadth first, within the window."""
    dist = np.full(ball.num_vertices, -1, np.int64)
    frontier = _unique(np.asarray(sources, np.int64))
    level = 0
    while frontier.size:
        dist[frontier] = level
        level += 1
        reached = ball.indices[row_entries(ball.indptr, frontier)[0]]
        frontier = _unique(reached[dist[reached] < 0])
    return dist


def diameter(ball: ExploredBall) -> int:
    """Exact diameter of a complete window, memoized on the ball."""
    if not ball.complete:
        raise ValueError("diameter is only defined on a complete window")
    if ball._diameter is None:
        # one breadth first search from every vertex at once: bit s of
        # reach[v] is set once source s lies within ``level`` of v
        indptr, indices = ball.indptr.tolist(), ball.indices.tolist()
        neighbours = [indices[indptr[v] : indptr[v + 1]] for v in range(ball.num_vertices)]
        reach = [1 << v for v in range(ball.num_vertices)]
        level = 0
        while True:
            grown = []
            for r, nbs in zip(reach, neighbours):
                for u in nbs:
                    r |= reach[u]
                grown.append(r)
            if grown == reach:
                break
            reach = grown
            level += 1
        ball._diameter = level
    return ball._diameter


def validate_ball(ball: ExploredBall) -> list[str]:
    """Structural sanity report; an empty list means no issue found.

    Issues of one kind are listed in vertex order, edges in (tail, head)
    order.
    """
    issues: list[str] = []
    n = ball.num_vertices
    rows, indices, dist = ball.rows, ball.indices, ball.dist
    if dist[ball.base_index] != 0:
        issues.append("base vertex is not at distance 0")
    loops = set(rows[rows == indices].tolist())
    same_row = rows[1:] == rows[:-1]
    unsorted = set(rows[1:][same_row & (np.diff(indices) <= 0)].tolist())
    for v in sorted(loops | unsorted):
        if v in loops:
            issues.append(f"vertex {v} carries a self loop")
        if v in unsorted:
            issues.append(f"adjacency row of vertex {v} is not strictly sorted")
    keys = _unique(rows * n + indices)
    tail, head = np.divmod(keys, n)
    mirrors = head * n + tail
    at = np.minimum(np.searchsorted(keys, mirrors), keys.size - 1)
    unmirrored = keys[at] != mirrors
    skips = np.abs(dist[tail] - dist[head]) > 1
    for e in np.flatnonzero(unmirrored | skips).tolist():
        v, w = int(tail[e]), int(head[e])
        if unmirrored[e]:
            issues.append(f"edge {v}->{w} has no mirror entry")
        if skips[e]:
            issues.append(f"edge {v}-{w} skips a distance level")
    closer = np.zeros(n, np.bool_)
    closer[rows[dist[indices] == dist[rows] - 1]] = True
    closer[ball.base_index] = True
    for v in np.flatnonzero(~closer).tolist():
        issues.append(f"vertex {v} has no neighbor one level closer to the base")
    if dist.max() > ball.horizon:
        issues.append("a vertex lies beyond the declared horizon")
    if ball.regular:
        interior_degs = _unique(ball.degrees[ball.interior]).tolist()
        if len(interior_degs) > 1:
            issues.append(f"interior degrees vary: {interior_degs}")
    return issues


# ---------------------------------------------------------------------------
# Concrete constructions


def _cayley(
    name: str, identity: Hashable, gens: Sequence[Hashable], mul, floor=None
) -> GeneratedSystem:
    """Cayley system of a group law: generator g moves x to g*x; ``floor``
    is the family's perimeter floor, if it has one."""
    moves = tuple(partial(mul, g) for g in gens)
    return GeneratedSystem(name, identity, moves, "cayley", mul, floor)


# Edge-isoperimetric floors: k -> least perimeter (twice the cut edges)
# of a k-set in the whole Cayley graph of the standard generators.


def _ceil_root(value: int, d: int) -> int:
    """The least m >= 0 with m**d >= value, in integers."""
    lo, hi = 0, 1 << -(-value.bit_length() // d)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**d >= value:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _lattice_floor(d: int, k: int) -> int:
    if d == 2:
        # Harary and Harborth: a k-cell polyomino has at least 2 ceil(2 sqrt k) cut edges
        return 4 * (math.isqrt(4 * k - 1) + 1)
    # Loomis and Whitney: at least 2d k^((d-1)/d) cut edges, that is the
    # least m with m^d >= (2d)^d k^(d-1); 4 on the line
    return 2 * _ceil_root((2 * d) ** d * k ** (d - 1), d)


def _tree_floor(rank: int, k: int) -> int:
    # a forest with c components on k vertices of the 2r-regular tree has
    # (2r - 2) k + 2c cut edges
    return 2 * (2 * rank - 2) * k + 4


def _cycle_floor(n: int, k: int) -> int:
    # an arc has two cut edges, one on c2 = K2, none when it is the cycle
    return 0 if k >= n else 2 if n == 2 else 4


def _cube_floor(dim: int, k: int) -> int:
    # Harper, Hart: the first k vertices in binary order span the most
    # edges, sum of popcount(i) over i < k
    return 2 * (dim * k - 2 * sum(i.bit_count() for i in range(k)))


def _add(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(map(add, x, y))


def free_abelian(rank: int) -> GeneratedSystem:
    """Free abelian group of the given rank with standard generators."""
    gens = [tuple(s if j == i else 0 for j in range(rank)) for i in range(rank) for s in (1, -1)]
    # rank 0, the trivial group, has no lattice bound: k^(d - 1) is no integer
    floor = partial(_lattice_floor, rank) if rank >= 1 else None
    return _cayley(f"free_abelian_{rank}", (0,) * rank, gens, _add, floor)


def _reduced_product(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    # the letters x ends with cancel against the ones y starts with
    while x and y and x[-1] == -y[0]:
        x, y = x[:-1], y[1:]
    return x + y


def free_group(rank: int) -> GeneratedSystem:
    """Free group on ``rank`` letters; states are reduced words.

    A word is a tuple of nonzero ints, letter ``i`` is ``i+1`` and its
    inverse ``-(i+1)``.
    """
    gens = [(s * (i + 1),) for i in range(rank) for s in (1, -1)]
    return _cayley(f"free_group_{rank}", (), gens, _reduced_product, partial(_tree_floor, rank))


def _heisenberg_product(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])


def heisenberg() -> GeneratedSystem:
    """Discrete Heisenberg group as triples (a, b, c) of integers.

    (a, b, c) stands for the upper unitriangular matrix with a and b on
    the first diagonal and c in the corner, so
    (a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2).
    """
    gens = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    return _cayley("heisenberg", (0, 0, 0), gens, _heisenberg_product)


def cyclic(n: int) -> GeneratedSystem:
    """Cyclic group of order n with generators +1 and -1."""
    if n < 2:
        raise ValueError("cyclic group needs order at least 2")

    def mul(a, b):
        return (a + b) % n

    return _cayley(f"cyclic_{n}", 0, [1, n - 1], mul, partial(_cycle_floor, n))


def dihedral(n: int) -> GeneratedSystem:
    """Dihedral group of order 2n; states (r, s) mean rotation^r * flip^s."""
    if n < 2:
        raise ValueError("dihedral group needs n at least 2")

    def mul(x, y):
        # (r1, s1) * (r2, s2) with flip * rotation^r = rotation^-r * flip
        r1, s1 = x
        r2, s2 = y
        if s1 == 0:
            return ((r1 + r2) % n, s2)
        return ((r1 - r2) % n, 1 - s2)

    return _cayley(f"dihedral_{n}", (0, 0), [(1, 0), (n - 1, 0), (0, 1)], mul)


def hypercube(dim: int) -> GeneratedSystem:
    """Elementary abelian 2-group on ``dim`` bits; the graph is the cube."""
    if dim < 1:
        raise ValueError("hypercube needs dimension at least 1")
    gens = [1 << i for i in range(dim)]
    return _cayley(f"hypercube_{dim}", 0, gens, xor, partial(_cube_floor, dim))


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p o q)(i) = p[q[i]]
    return tuple(p[q[i]] for i in range(len(q)))


def _perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def _transposition(n: int, i: int, j: int) -> tuple[int, ...]:
    p = list(range(n))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def symmetric_group(n: int, generators: str = "transpositions") -> GeneratedSystem:
    """Symmetric group on n symbols; states are permutation tuples.

    ``generators`` picks the generating set: every transposition, or the
    adjacent ones only.
    """
    if generators == "transpositions":
        gens = [_transposition(n, i, j) for i in range(n) for j in range(i + 1, n)]
    elif generators == "adjacent":
        gens = [_transposition(n, i, i + 1) for i in range(n - 1)]
    else:
        raise ValueError(f"unknown generator set {generators!r}")
    return _cayley(f"symmetric_{n}_{generators}", tuple(range(n)), gens, _compose)


def permutation_action(
    name: str, perms: Sequence[Sequence[int]], base_point: int = 0
) -> GeneratedSystem:
    """Orbit of a point under a set of permutations (Schreier construction).

    The generator list is symmetrized automatically.
    """
    npts = len(perms[0])
    gens: list[tuple[int, ...]] = []
    for p in perms:
        t = tuple(p)
        if len(t) != npts or sorted(t) != list(range(npts)):
            raise ValueError(f"{name}: {p!r} is not a permutation of 0..{npts - 1}")
        for q in (t, _perm_inverse(t)):
            if q not in gens:
                gens.append(q)
    return GeneratedSystem(name, base_point, tuple(g.__getitem__ for g in gens), "schreier")
