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
vertex 0.  A system whose states have int64 keys is walked on key
arrays, every other one on its states as dict keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, repeat
from operator import add, xor
from typing import Callable, Hashable, Sequence

import numpy as np

from .kernels import induced_csr, row_entries


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

    ``height``, where the group has one, is a homomorphism onto the
    integers that takes every generator to +1 or -1: the coordinate sum
    of ``free_abelian``, the exponent sum of ``free_group``, a + b on
    ``heisenberg``.  A group with a height is infinite.  A move changes
    the height by one, so it changes the parity of the distance from
    the base, which the height shares: no edge joins two states at one
    distance, and :func:`explore` skips its last level.  It is None for
    every other system.

    ``code``, where the states have one, maps a horizon to ``(encode,
    decode, moves)``: ``encode`` takes a state within that many moves of
    the base to an int64 key, ``decode`` takes an int64 key array back
    to the list of its states, and ``moves`` holds one function per
    entry of ``moves``, in the same order, that applies the move to a
    key array.  It returns None at a horizon whose keys could overflow
    int64.  :func:`explore` walks a coded system on key arrays.  It is
    None for every other system.
    """

    name: str
    base: Hashable
    moves: tuple[Callable[[Hashable], Hashable], ...]
    kind: str = "cayley"
    multiply: Callable[[Hashable, Hashable], Hashable] | None = None
    floor: Callable[[int], int] | None = None
    height: Callable[[Hashable], int] | None = None
    code: Callable[[int], tuple[Callable, Callable, tuple[Callable, ...]] | None] | None = None


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
    ``degrees``, ``rows``, ``interior`` and ``prefix_csr``) is read-only.
    ``prefix_csr`` is the CSR induced on the interior vertices, which
    breadth first order puts first: the live part of the dense float
    fields and of the uncertainty ascent on an incomplete window (see
    :class:`groupiso.fields.LivePart`).

    ``labels`` lists the state of every vertex, in vertex order.  The
    constructor takes that list, or a function of no arguments that
    returns it: a window explored on keys passes its key array and the
    ``decode`` of its system's ``code``, and the list is built on first
    access to ``labels``.
    """

    def __init__(self, name, horizon, dist, indptr, indices, complete, labels, system):
        self.name = name
        self.horizon = int(horizon)
        self.dist = _frozen(dist)
        self.indptr = _frozen(indptr)
        self.indices = _frozen(indices)
        self.complete = bool(complete)
        self._labels = labels
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
    def labels(self) -> list:
        labels = self._labels
        return labels() if callable(labels) else list(labels)

    @cached_property
    def index_of(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @cached_property
    def interior(self) -> np.ndarray:
        """Vertices whose whole neighborhood is inside the window."""
        if self.complete:
            return _frozen(np.ones(self.num_vertices, np.bool_), np.bool_)
        return _frozen(self.dist < self.horizon, np.bool_)

    @cached_property
    def prefix_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, rows)`` of the CSR induced on the first
        ``interior.sum()`` vertices, as :func:`groupiso.kernels.induced_csr`
        returns it; on an explored window these are the interior ones."""
        first = np.arange(np.count_nonzero(self.interior))
        return tuple(_frozen(a) for a in induced_csr(self.indptr, self.indices, first))

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
    return _distinct(np.sort(values))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The first of every run of equal values of a sorted array."""
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
    m = tails.size
    keys = np.empty(2 * m, np.int64)
    for out, row, col in ((keys[:m], tails, heads), (keys[m:], heads, tails)):
        np.multiply(row, num_vertices, out=out)
        out += col
    keys.sort()
    rows, indices = np.divmod(_distinct(keys), num_vertices)
    indptr = np.zeros(num_vertices + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=num_vertices), out=indptr[1:])
    return indptr, indices


def explore(system: GeneratedSystem, horizon: int, max_vertices: int = _MAX_VERTICES) -> ExploredBall:
    """Breadth first exploration of ``system`` out to ``horizon`` moves.

    Every state at distance <= horizon becomes a vertex; every edge whose
    endpoints both lie in the window is recorded once.  Self loops are
    dropped and parallel moves are collapsed.

    A system with a ``code`` is walked level by level on int64 key
    arrays: each level's images are looked up in the sorted array of
    known keys, and the new ones are numbered in order of first
    appearance, vertex by vertex and move by move.  Every other system is
    walked on its states as dict keys, at one hash and one move call per
    move application.  Both walks give the same window, in the same
    vertex order, and raise the same errors.  The walk asks the code for
    the horizon of the farthest state it makes, and takes the dict walk
    where the code has none.

    A system with a ``height`` has no edge inside a distance level, so a
    move from the last level either leaves the window or lands on the
    level before, an edge found from there: the walk applies no move
    there and the window is never complete.  Those moves still count
    against the work cap, as if they were made.

    :param system: the generated system to walk.
    :param horizon: exploration radius, at least 1.
    :param max_vertices: hard budget; exceeding it raises
        :class:`ResourceCapError`, and so does a level whose expansion
        would take the walk past ``_MOVES_PER_VERTEX * max_vertices``
        move applications, before any of them is made.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    # moves from the last level make states one past the horizon
    reach = horizon if system.height is not None else horizon + 1
    code = None if system.code is None else system.code(reach)
    walk = _dict_walk if code is None else partial(_key_walk, code)
    labels, sizes, levels = walk(system, horizon, max_vertices)
    expanded = sum(sizes) - (0 if system.height is None else sizes[-1])
    heads = np.concatenate(levels)
    tails = np.repeat(np.arange(expanded), len(system.moves))
    inside = heads >= 0
    indptr, indices = _csr(sum(sizes), tails[inside], heads[inside])
    dist = np.repeat(np.arange(len(sizes)), sizes)
    complete = system.height is None and inside.all()
    return ExploredBall(system.name, horizon, dist, indptr, indices, complete, labels, system)


def _dict_walk(system: GeneratedSystem, horizon: int, max_vertices: int):
    """The walk of :func:`explore` on states as dict keys.

    Returns ``(labels, sizes, levels)``: the states in discovery order,
    the number of them at each distance, and for each expanded level the
    vertex every move takes each of its vertices to, vertex by vertex,
    -1 outside the window.
    """
    moves = system.moves
    index = {system.base: 0}
    labels = [system.base]
    sizes = [1]  # sizes[d] counts the vertices at distance d
    levels = []
    claim = index.setdefault

    def claimed(images):
        for v in images:
            n = len(labels)
            iv = claim(v, n)
            if iv == n:
                if n >= max_vertices:
                    raise _over_budget(system.name, max_vertices)
                labels.append(v)
            yield iv

    while True:
        level = labels[len(labels) - sizes[-1] :]
        # once this level is expanded every known vertex is, so the walk
        # will have applied len(labels) * len(moves) moves in all
        _check_work(system.name, len(labels) * len(moves), max_vertices)
        # where every move takes every vertex of level, vertex by vertex
        images = chain.from_iterable(zip(*[map(move, level) for move in moves]))
        count = len(level) * len(moves)
        if len(sizes) > horizon or not level:
            break
        known = len(labels)
        levels.append(np.fromiter(claimed(images), np.int64, count))
        sizes.append(len(labels) - known)
    if system.height is None:
        # the last level adds no vertex: a move that leaves the window gets -1
        levels.append(np.fromiter(map(index.get, images, repeat(-1)), np.int64, count))
    return labels, sizes, levels


def _key_walk(code, system: GeneratedSystem, horizon: int, max_vertices: int):
    """The walk of :func:`explore` on the int64 keys of ``code``.

    Returns what :func:`_dict_walk` returns, with the labels as a
    function of no arguments that decodes the keys.
    """
    encode, decode, moves = code
    level = np.array([encode(system.base)], np.int64)
    found = [level]  # the keys of each level, in discovery order
    # every key found so far, sorted, and the vertex of each
    known, where = level, np.zeros(1, np.int64)
    sizes = [1]
    levels = []
    while True:
        count = known.size
        _check_work(system.name, count * len(moves), max_vertices)
        if len(sizes) > horizon or not level.size:
            break
        images = _images(moves, level)
        level = _first_seen(images[_lookup(known, where, images) < 0])
        if count + level.size > max_vertices:
            raise _over_budget(system.name, max_vertices)
        # the new keys are numbered from count on, and filed in sorted place
        order = np.argsort(level)
        at = np.searchsorted(known, level[order])
        known, where = np.insert(known, at, level[order]), np.insert(where, at, count + order)
        levels.append(_lookup(known, where, images))
        found.append(level)
        sizes.append(level.size)
    if system.height is None:
        levels.append(_lookup(known, where, _images(moves, level)))
    return partial(decode, np.concatenate(found)), sizes, levels


def _images(moves, keys: np.ndarray) -> np.ndarray:
    """Where every move takes every key, key by key."""
    out = np.empty((keys.size, len(moves)), np.int64)
    for j, move in enumerate(moves):
        out[:, j] = move(keys)
    return out.ravel()


def _lookup(known: np.ndarray, where: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``where[i]`` for each key equal to ``known[i]``, -1 for a key not
    in ``known``, which is sorted."""
    at = np.searchsorted(known, keys)
    np.minimum(at, known.size - 1, out=at)
    return np.where(known[at] == keys, where[at], -1)


def _first_seen(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, in the order of their first appearance."""
    # a stable sort puts the first appearance of a value first in its run
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    firsts = np.ones(keys.size, np.bool_)
    np.not_equal(ranked[1:], ranked[:-1], out=firsts[1:])
    return keys[np.sort(order[firsts])]


def _check_work(name: str, work: int, max_vertices: int) -> None:
    if work > _MOVES_PER_VERTEX * max_vertices:
        raise ResourceCapError(
            f"{name}: exploration would apply {work} moves, more than"
            f" {_MOVES_PER_VERTEX} per vertex of the budget of {max_vertices}"
        )


def _over_budget(name: str, max_vertices: int) -> ResourceCapError:
    return ResourceCapError(f"{name}: exploration exceeded {max_vertices} vertices")


def check_first_levels(name: str, generators: int, max_vertices: int) -> None:
    """Raise the :class:`ResourceCapError` that :func:`explore`, at any
    horizon, raises by the end of expanding level 1 of a Cayley system
    ``name`` with ``generators`` distinct generators, none the identity.

    Level 1 then holds one vertex per generator, so the checks need the
    count alone, not the generators, which can cost more to build than
    the budget allows to explore.
    """
    _check_work(name, generators, max_vertices)
    if 1 + generators > max_vertices:
        raise _over_budget(name, max_vertices)
    _check_work(name, (1 + generators) * generators, max_vertices)


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
    name: str, identity: Hashable, gens: Sequence[Hashable], mul, floor=None, height=None, code=None
) -> GeneratedSystem:
    """Cayley system of a group law: generator g moves x to g*x; ``floor``
    is the family's perimeter floor, ``height`` the group's height and
    ``code`` its int64 keys, if it has them (see :class:`GeneratedSystem`)."""
    moves = tuple(partial(mul, g) for g in gens)
    return GeneratedSystem(name, identity, moves, "cayley", mul, floor, height, code)


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
    # rank 0, the trivial group, has no lattice bound (k^(d - 1) is no
    # integer) and no height
    floor, height = (partial(_lattice_floor, rank), sum) if rank >= 1 else (None, None)
    return _cayley(f"free_abelian_{rank}", (0,) * rank, gens, _add, floor, height)


def _word_product(base: int, x: int, y: int) -> int:
    """Product of the reduced words x and y of :func:`free_group`, whose
    base-``base`` digits, least significant first, are their letters."""
    if x < base:
        # x is one letter, or the identity 0; the letters 2i + 1 and
        # 2i + 2 are inverse, and cancel when x meets its inverse
        if x == 0:
            return y
        rest, first = divmod(y, base)
        return rest if first == ((x - 1) ^ 1) + 1 else x + y * base
    # x = l0 l1 ... ln: multiply y by ln first, then by each letter before
    letters = []
    while x:
        x, letter = divmod(x, base)
        letters.append(letter)
    for letter in reversed(letters):
        y = _word_product(base, letter, y)
    return y


def _exponent_sum(base: int, word: int) -> int:
    total = 0
    while word:
        word, letter = divmod(word, base)
        total += 1 if letter & 1 else -1
    return total


def _letter_keys(base: int, letter: int, words: np.ndarray) -> np.ndarray:
    """:func:`_word_product` of one letter and each word of an array."""
    rest, first = np.divmod(words, base)
    return np.where(first == ((letter - 1) ^ 1) + 1, rest, words * base + letter)


def _word_code(base: int, horizon: int):
    # a word of at most horizon letters is below base**horizon
    if base**horizon > 2**63 - 1:
        return None
    moves = tuple(partial(_letter_keys, base, letter) for letter in range(1, base))
    return int, np.ndarray.tolist, moves


def free_group(rank: int) -> GeneratedSystem:
    """Free group on ``rank`` letters; states are reduced words.

    A word is an int: its base-(2 rank + 1) digits, least significant
    first, are its letters.  Digit 2i + 1 is letter i, 2i + 2 its
    inverse, and the identity, the empty word, is 0.  An int hashes and
    compares in one step, and a move costs one divmod.  To decode a word
    into letters, i + 1 for letter i and -(i + 1) for its inverse::

        while word:
            word, d = divmod(word, 2 * rank + 1)
            letters.append((d + 1) // 2 if d % 2 else -(d // 2))

    From rank 1 on, the word is its own int64 ``code`` key, up to the
    horizon h with (2 rank + 1)**h > 2**63 - 1: 27 for rank 2, 39 for
    rank 1.
    """
    base = 2 * rank + 1
    # rank 0, the trivial group, has no height and no moves to code
    if rank >= 1:
        height, code = partial(_exponent_sum, base), partial(_word_code, base)
    else:
        height = code = None
    mul = partial(_word_product, base)
    return _cayley(
        f"free_group_{rank}", 0, range(1, base), mul, partial(_tree_floor, rank), height, code
    )


def _heisenberg_product(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2] + x[0] * y[1])


def heisenberg() -> GeneratedSystem:
    """Discrete Heisenberg group as triples (a, b, c) of integers.

    (a, b, c) stands for the upper unitriangular matrix with a and b on
    the first diagonal and c in the corner, so
    (a1,b1,c1)*(a2,b2,c2) = (a1+a2, b1+b2, c1+c2+a1*b2).

    Within h moves of the identity |a|, |b| <= h and |c| <= h**2, so the
    int64 ``code`` key at horizon h packs (a + h, b + h, c + h**2) in
    mixed radix (2h + 1, 2h + 1, 2h**2 + 1).
    """
    gens = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
    return _cayley(
        "heisenberg", (0, 0, 0), gens, _heisenberg_product,
        height=_heisenberg_height, code=partial(_heisenberg_code, gens),
    )


def _heisenberg_code(gens, horizon: int):
    h = horizon
    # key = (a + h) * a_step + (b + h) * b_step + c + h**2
    b_step = 2 * h * h + 1
    a_step = (2 * h + 1) * b_step
    if (2 * h + 1) * a_step - 1 > 2**63 - 1:
        return None

    def encode(x):
        return (x[0] + h) * a_step + (x[1] + h) * b_step + x[2] + h * h

    def decode(keys):
        a, rest = np.divmod(keys, a_step)
        b, c = np.divmod(rest, b_step)
        return list(zip((a - h).tolist(), (b - h).tolist(), (c - h * h).tolist()))

    def move(g, keys):
        # g * (a, b, c) = (a + g0, b + g1, c + g2 + g0 * b)
        out = keys + (g[0] * a_step + g[1] * b_step + g[2])
        if g[0]:
            out += g[0] * (keys % a_step // b_step - h)
        return out

    return encode, decode, tuple(partial(move, g) for g in gens)


def _heisenberg_height(x) -> int:
    return x[0] + x[1]


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
