"""Finitely generated systems and breadth first window exploration.

A :class:`GeneratedSystem` is a base state together with a symmetric tuple
of moves (state to state callables).  For a Cayley construction the states
are group elements and each move is left multiplication by a generator;
for a Schreier construction the states are points of an orbit and each
move applies a generator permutation.

:func:`explore` walks the system breadth first out to a horizon and
returns the induced graph on every state within that distance, stored in
CSR form.  Vertices are indexed in discovery order, the base state is
vertex 0.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Hashable, Sequence

import numpy as np


class ResourceCapError(RuntimeError):
    """Raised when exploration would exceed the configured vertex budget."""


@dataclass(frozen=True)
class GeneratedSystem:
    """Base state plus a symmetric tuple of generator moves.

    ``multiply``/``invert`` are optional and only present for group
    constructions where whole-group translation is meaningful.  For
    permutation actions ``acting_perms`` holds the generator permutations
    so the acting group can be enumerated on demand.
    """

    name: str
    base: Hashable
    moves: tuple[Callable[[Hashable], Hashable], ...]
    kind: str = "cayley"
    multiply: Callable[[Hashable, Hashable], Hashable] | None = None
    invert: Callable[[Hashable], Hashable] | None = None
    acting_perms: tuple[tuple[int, ...], ...] | None = None


class ExploredBall:
    """Window of a generated system: all states within ``horizon`` moves.

    ``complete`` is True when no unseen state exists beyond the horizon,
    i.e. the whole (finite) system was exhausted.  On an incomplete
    window only vertices with ``dist < horizon`` are guaranteed to carry
    their full neighborhood.
    """

    def __init__(self, name, horizon, dist, indptr, indices, complete, labels, regular=True):
        self.name = name
        self.horizon = int(horizon)
        self.dist = np.asarray(dist, np.int64)
        self.indptr = np.asarray(indptr, np.int64)
        self.indices = np.asarray(indices, np.int64)
        self.complete = bool(complete)
        self.labels = list(labels)
        self.base_index = 0
        # generated systems look the same from every state; explicit
        # edge lists carry no such promise
        self.regular = bool(regular)
        self._diameter: int | None = None

    @property
    def num_vertices(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def num_edges(self) -> int:
        return self.indices.shape[0] // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of every CSR entry, for vectorized edge sums."""
        return np.repeat(np.arange(self.num_vertices), self.degrees)

    @cached_property
    def index_of(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def interior(self) -> np.ndarray:
        """Vertices whose whole neighborhood is inside the window."""
        if self.complete:
            return np.ones(self.num_vertices, np.bool_)
        return self.dist < self.horizon

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


def explore(system: GeneratedSystem, horizon: int, max_vertices: int = 500_000) -> ExploredBall:
    """Breadth first exploration of ``system`` out to ``horizon`` moves.

    Every state at distance <= horizon becomes a vertex; every edge whose
    endpoints both lie in the window is recorded once.  Self loops are
    dropped and parallel moves are collapsed.

    :param system: the generated system to walk.
    :param horizon: exploration radius, at least 1.
    :param max_vertices: hard budget; exceeding it raises
        :class:`ResourceCapError`.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    base = system.base
    index = {base: 0}
    labels = [base]
    dist = [0]
    tails: list[int] = []
    heads: list[int] = []
    queue = deque([0])
    dropped = False
    while queue:
        iu = queue.popleft()
        du = dist[iu]
        u = labels[iu]
        for move in system.moves:
            v = move(u)
            iv = index.get(v)
            if iv is None:
                if du >= horizon:
                    dropped = True
                    continue
                if len(labels) >= max_vertices:
                    raise ResourceCapError(
                        f"{system.name}: exploration exceeded {max_vertices} vertices"
                    )
                iv = len(labels)
                index[v] = iv
                labels.append(v)
                dist.append(du + 1)
                queue.append(iv)
            tails.append(iu)
            heads.append(iv)
    indptr, indices = _csr(len(labels), tails, heads)
    # Schreier quotients lose regularity when loops at fixed points drop out
    return ExploredBall(
        system.name, horizon, dist, indptr, indices, not dropped, labels,
        regular=system.kind == "cayley",
    )


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
        name, 1, np.zeros(num_vertices), indptr, indices, True,
        range(num_vertices), regular=False,
    )
    ball.dist = distances_from(ball, [0])
    if (ball.dist < 0).any():
        raise ValueError(f"{name}: graph is not connected from the base vertex")
    ball.horizon = max(int(ball.dist.max()), 1) if horizon is None else horizon
    return ball


def distances_from(ball: ExploredBall, sources: Sequence[int]) -> np.ndarray:
    """Graph distance from the nearest source, breadth first, within the window."""
    indptr, indices = ball.indptr, ball.indices
    dist = np.full(ball.num_vertices, -1, np.int64)
    frontier = _unique(np.asarray(sources, np.int64))
    level = 0
    while frontier.size:
        dist[frontier] = level
        level += 1
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        # CSR positions of every entry in the frontier rows
        pos = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
        reached = indices[pos]
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


def right_translations(system: GeneratedSystem, ball: ExploredBall) -> list[list[int]]:
    """Right translations of a complete Cayley window: row b maps a to a*b."""
    if system.kind != "cayley" or system.multiply is None:
        raise ValueError("right translations need a Cayley system")
    if not ball.complete:
        raise ValueError("right translations need the whole group")
    idx = ball.index_of
    labels = ball.labels
    return [[idx[system.multiply(a, b)] for a in labels] for b in labels]


# ---------------------------------------------------------------------------
# Concrete constructions


def free_abelian(rank: int) -> GeneratedSystem:
    """Free abelian group of the given rank with standard generators."""

    def shift(i, s):
        def move(x):
            y = list(x)
            y[i] += s
            return tuple(y)

        return move

    moves = tuple(shift(i, s) for i in range(rank) for s in (1, -1))

    def mul(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inv(a):
        return tuple(-x for x in a)

    return GeneratedSystem(f"free_abelian_{rank}", (0,) * rank, moves, "cayley", mul, inv)


def free_group(rank: int) -> GeneratedSystem:
    """Free group on ``rank`` letters; states are reduced words.

    A word is a tuple of nonzero ints, letter ``i`` is ``i+1`` and its
    inverse ``-(i+1)``.
    """

    def prepend(letter):
        def move(w):
            if w and w[0] == -letter:
                return w[1:]
            return (letter,) + w

        return move

    letters = [i + 1 for i in range(rank)]
    moves = tuple(prepend(s * l) for l in letters for s in (1, -1))

    def mul(a, b):
        a = list(a)
        b = list(b)
        while a and b and a[-1] == -b[0]:
            a.pop()
            b.pop(0)
        return tuple(a) + tuple(b)

    def inv(a):
        return tuple(-x for x in reversed(a))

    return GeneratedSystem(f"free_group_{rank}", (), moves, "cayley", mul, inv)


def heisenberg() -> GeneratedSystem:
    """Discrete Heisenberg group as triples (a, b, c) of integers.

    (a, b, c) stands for the upper unitriangular matrix with a and b on
    the first diagonal and c in the corner, so
    (a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2).
    """

    def mul(x, y):
        return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])

    def inv(x):
        return (-x[0], -x[1], -x[2] + x[0] * x[1])

    gens = [(1, 0, 0), (0, 1, 0)]
    gens = gens + [inv(g) for g in gens]

    def left(g):
        return lambda x: mul(g, x)

    return GeneratedSystem("heisenberg", (0, 0, 0), tuple(left(g) for g in gens), "cayley", mul, inv)


def cyclic(n: int) -> GeneratedSystem:
    """Cyclic group of order n with generators +1 and -1."""
    if n < 2:
        raise ValueError("cyclic group needs order at least 2")

    def mul(a, b):
        return (a + b) % n

    def inv(a):
        return (-a) % n

    moves = (lambda x: (x + 1) % n, lambda x: (x - 1) % n)
    return GeneratedSystem(f"cyclic_{n}", 0, moves, "cayley", mul, inv)


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

    def inv(x):
        r, s = x
        if s == 0:
            return ((-r) % n, 0)
        return (r, 1)

    gens = [(1, 0), ((n - 1) % n, 0), (0, 1)]

    def left(g):
        return lambda x: mul(g, x)

    return GeneratedSystem(f"dihedral_{n}", (0, 0), tuple(left(g) for g in gens), "cayley", mul, inv)


def hypercube(dim: int) -> GeneratedSystem:
    """Elementary abelian 2-group on ``dim`` bits; the graph is the cube."""
    if dim < 1:
        raise ValueError("hypercube needs dimension at least 1")

    def mul(a, b):
        return a ^ b

    moves = tuple((lambda i: lambda x: x ^ (1 << i))(i) for i in range(dim))
    return GeneratedSystem(f"hypercube_{dim}", 0, moves, "cayley", mul, lambda a: a)


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

    def left(g):
        return lambda x: _compose(g, x)

    return GeneratedSystem(
        f"symmetric_{n}_{generators}",
        tuple(range(n)),
        tuple(left(g) for g in gens),
        "cayley",
        _compose,
        _perm_inverse,
    )


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

    def act(g):
        return lambda x: g[x]

    return GeneratedSystem(
        name,
        base_point,
        tuple(act(g) for g in gens),
        "schreier",
        None,
        None,
        tuple(gens),
    )


def acting_group_elements(system: GeneratedSystem) -> list[tuple[int, ...]]:
    """Enumerate the full group generated by ``acting_perms`` (word closure)."""
    if system.acting_perms is None:
        raise ValueError("system has no acting permutations")
    first = system.acting_perms[0]
    identity = tuple(range(len(first)))
    seen = {identity}
    order = [identity]
    queue = deque([identity])
    while queue:
        g = queue.popleft()
        for s in system.acting_perms:
            h = _compose(s, g)
            if h not in seen:
                seen.add(h)
                order.append(h)
                queue.append(h)
    return order
