"""Low level numeric kernels over flat CSR arrays, one source each.

The two gradient passes are numpy expressions; the first returns the
signed edge differences, so a caller holding them can take the
subgradient without a second pass.  The subset scan, the connected-set
enumeration and the annealer are plain Python loops: lists, tuples,
bytearrays and memoryviews index and iterate to plain ints and floats,
faster than numpy scalars, so the public wrappers hand the loops their
graph arrays as lists or bytearrays.  The scan and the enumeration keep
their own state on an explicit stack, one frame per member of the set
they grow, so a set may be as large as its pool: nothing recurses.  An
annealing pool is described once for all its chains by
:func:`pool_rows`: its rows as tuples padded with a sentinel vertex to
the longest, its vertices and its state bytes.  A chain keeps per vertex
a boundary score and a state byte; it places its members, returns at
once if they sit on the perimeter floor, and otherwise takes its start
temperature from its own scores, by the loop's rule.  Everything in a
step that does not depend on the chain's state is computed before the
loop with numpy: the slot of the proposed neighbour and the fallback
vertex.  Its per-step arrays stay memoryviews, the prepared ones in the
narrowest dtype that holds them: they are read once each, in one
``zip``, and list copies would box every value, raising peak memory by
megabytes per chain.  The acceptance entries are the one list: None on
every step that rejects every positive delta, which is most of them, and
otherwise the step's draw and temperature, so the loop applies the
Metropolis test itself; the list's iterator tells a chain that stops
early, at a perimeter floor, how many steps it walked.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

import numpy as np

# The loops have one implementation, run uncompiled; benchmark records
# name the backend with these two constants.
BACKEND = "numpy"
HAS_NUMBA = False

#: Sentinel perimeter returned when an enumeration saw no leaf at all.
NO_RESULT = 1 << 62


def grad_modulus_csr(indptr, indices, values, out, rows):
    """``out[v]``: sum of ``|values[v] - values[u]|`` over the neighbours u of v.

    ``rows`` holds the row index of every CSR entry.  Returns the signed
    differences ``values[v] - values[u]``, one per entry.
    """
    n = indptr.shape[0] - 1
    # in place: one entry-length temporary fewer
    diffs = values[rows]
    diffs -= values[indices]
    out[:] = np.bincount(rows, weights=np.abs(diffs), minlength=n)
    return diffs


def energy_subgrad_csr(indptr, indices, diffs, gmod, out, rows):
    """Subgradient of the squared 2-norm of the gradient modulus ``gmod``.

    ``diffs`` are the signed edge differences :func:`grad_modulus_csr`
    returned with ``gmod``.
    """
    n = indptr.shape[0] - 1
    contrib = 2.0 * np.sign(diffs) * (gmod[rows] + gmod[indices])
    out[:] = np.bincount(rows, weights=contrib, minlength=n)


def _scan_loop(nbrs, score, k):
    # Depth first walk over the k-subsets of pool positions in
    # lexicographic order, one frame per member placed: the positions
    # left for the next member, and the perimeter of the set so far.
    # nbrs[q] lists the in-pool neighbours of q, and score[q] is the
    # perimeter added by joining q to the current set: 2 deg(q) minus 4
    # per in-pool neighbour already in the set.  The last member is a
    # single pass over what its frame has left.  Returns the first strict
    # minimum, the subsets scanned and the positions of the minimizer
    # (None if no subset was scanned).
    m = len(score)
    best = NO_RESULT
    leaves = 0
    wit = None
    members = []
    frames = [(iter(range(m - k + 1)), 0)]
    while frames:
        left, perim = frames[-1]
        if len(members) == k - 1:
            leaves += operator.length_hint(left)
            for q in left:
                total = perim + score[q]
                if total < best:
                    best = total
                    wit = members + [q]
        elif (p := next(left, None)) is not None:
            members.append(p)
            frames.append((iter(range(p + 1, m - k + len(members) + 1)), perim + score[p]))
            for u in nbrs[p]:
                score[u] -= 4
            continue
        # the frame is spent: take its member back off
        frames.pop()
        if members:
            for u in nbrs[members.pop()]:
                score[u] += 4
    return best, leaves, wit


def row_entries(indptr, vertices):
    """CSR entry positions of the rows of ``vertices``, row after row.

    Returns ``(positions, counts)``, ``counts`` being the row lengths.
    """
    starts = indptr[vertices]
    counts = indptr[vertices + 1] - starts
    return np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts), counts


def induced_csr(indptr, indices, vertices):
    """The CSR a graph induces on the distinct vertices ``vertices``.

    Vertex ``vertices[i]`` becomes row i, which keeps the entries of its
    row whose neighbour is in ``vertices``, in their order, renumbered.
    Returns ``(indptr, indices, rows)``, ``rows`` holding the row of
    every entry.
    """
    m = vertices.shape[0]
    at, counts = row_entries(indptr, vertices)
    pos = np.full(indptr.shape[0] - 1, -1, np.int64)
    pos[vertices] = np.arange(m)
    nb = pos[indices[at]]
    keep = nb >= 0
    rows = np.repeat(np.arange(m), counts)[keep]
    sub = np.zeros(m + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=m), out=sub[1:])
    return sub, nb[keep], rows


def _pool_lists(indptr, indices, cand):
    """In-pool neighbour positions, one list per position of the pool ``cand``.

    Returns ``(nbrs, score)``, ``score`` being twice the degree of each
    pool vertex in the whole graph: the perimeter of the singleton.
    """
    pptr, pidx, _ = induced_csr(indptr, indices, cand)
    pptr, pidx = pptr.tolist(), pidx.tolist()
    nbrs = [pidx[a:b] for a, b in zip(pptr, pptr[1:])]
    return nbrs, (2 * (indptr[cand + 1] - indptr[cand])).tolist()


def min_perimeter_scan(indptr, indices, cand, k):
    """Least perimeter over the k-subsets of the pool ``cand``, in lexicographic order.

    Every subset is scanned.  Returns ``(best, leaves, capped, witness)``:
    the first strict minimum and its vertices (``NO_RESULT`` and -1s if
    the pool has fewer than k vertices), the number of subsets scanned,
    and 0: the scan has no cap, and ``capped`` stays for the callers that
    read the fourth position.
    """
    vertices = cand.tolist()
    best, leaves, wit = _scan_loop(*_pool_lists(indptr, indices, cand), int(k))
    witness = [-1] * k if wit is None else [vertices[p] for p in wit]
    return best, leaves, 0, np.asarray(witness, np.int64)


def _connected_loop(nbrs, score, kmax, cap):
    # ESU walk (Wernicke 2006) over the connected subsets of pool
    # positions with at most kmax members, each visited once: a set is
    # grown from its least position, the root.  One frame per member: its
    # untried extensions, the perimeter of the set, and the positions it
    # marked; the bottom frame holds the empty set and the root alone.  A
    # child's untried list is what its parent has left plus the exclusive
    # neighbours of the new member: positions above the root that are
    # neither in the set nor next to it (mark).  nbrs and score are as in
    # _scan_loop.  wit[s] is the size-s witness, sorted: a set replaces it
    # with a lower perimeter, or with an equal one and a lexicographically
    # smaller sorted list.  When more than cap sets of one size turn up,
    # that size and every larger one are dropped; limit is the largest
    # size left complete.
    best = [NO_RESULT] * (kmax + 1)
    count = [0] * (kmax + 1)
    wit = [None] * (kmax + 1)
    mark = bytearray(len(score))
    members = []
    limit = kmax
    for root in range(len(score)):
        if limit < 1:
            break
        mark[root] = 1
        frames = [([root], 0, [root])]
        while frames:
            ext, perim, marked = frames[-1]
            s = len(frames)
            # the frame adds its leaves to size s at the limit, else one set
            if s <= limit and ext and count[s] + (len(ext) if s == limit else 1) > cap:
                limit = s - 1
            if s == limit:
                # the children are leaves: one pass over the untried list
                count[s] += len(ext)
                for w in ext:
                    total = perim + score[w]
                    if total <= best[s]:
                        key = sorted(members + [w])
                        if total < best[s] or key < wit[s]:
                            best[s] = total
                            wit[s] = key
            if s >= limit or not ext:
                # leave the frame: forget its extensions, take its member off
                frames.pop()
                for u in marked:
                    mark[u] = 0
                if members:
                    for u in nbrs[members.pop()]:
                        score[u] += 4
                continue
            count[s] += 1
            w = ext.pop()
            members.append(w)
            perim += score[w]
            if perim <= best[s]:
                key = sorted(members)
                if perim < best[s] or key < wit[s]:
                    best[s] = perim
                    wit[s] = key
            new = [u for u in nbrs[w] if u > root and not mark[u]]
            for u in nbrs[w]:
                score[u] -= 4
            for u in new:
                mark[u] = 1
            frames.append((ext + new, perim, new))
    return best, count, wit, limit


def connected_profile(indptr, indices, cand, kmax, cap):
    """Least perimeters over the connected subsets of the pool ``cand``.

    A subset is connected when the graph induced on it is.  Sizes run
    from 1 to ``kmax``; a size with more than ``cap`` connected sets is
    not finished, nor is any larger one.  Returns ``(best, count,
    witnesses, limit)``: per size j (index j, entry 0 unused) the least
    perimeter (``NO_RESULT`` if no connected j-set exists), the number of
    connected j-sets, and the lexicographically least minimizer, sorted;
    ``limit`` is the largest size whose entries are complete.
    """
    best, count, wit, limit = _connected_loop(*_pool_lists(indptr, indices, cand), int(kmax), int(cap))
    vertices = cand.tolist()
    witnesses = [None if w is None else tuple(vertices[p] for p in w) for w in wit]
    return best, count, witnesses, limit


def _anneal_loop(adj, state, score, rem_idx, src_idx, slot, fallback, accept, cur, best_set, perim, floor):
    # Fixed cardinality Metropolis chain.  All randomness of every step is
    # precomputed by the caller, so the walk is reproducible step by step.
    # adj[v] lists the neighbours of a pool vertex v (no other row is
    # read), padded to one width with the sentinel vertex; state[v] is 0
    # outside the pool and at the sentinel, 1 for a free pool vertex and 2
    # for a member.  A step proposes the vertex in slot[s] of a member's
    # row, or fallback[s] when that is not a free pool vertex.  score[v] is
    # deg(v) minus twice the number of members next to v, and perim the
    # perimeter of cur.  The graph is simple, so swapping member u for w
    # changes the perimeter by delta = 2 (score[w] - score[u]), plus 4
    # when u and w are adjacent: u's edge to w stays cut.  delta is even,
    # and a delta <= 0 is accepted.  A positive one is rejected where
    # accept[s] is None, even before the adjacency test, which only adds;
    # otherwise it is accepted when a < exp(-delta / t), accept[s] being
    # (a, t).  Only an accepted swap writes: state, cur, and score along
    # the rows of u and w (the sentinel entries write a score no step
    # reads).  A rejected step writes nothing.  No set has a perimeter
    # below floor, so the chain stops once its best reaches it; returns
    # the best and the number of steps walked.
    best = perim  # best_set arrives as a copy of cur
    # accept is a list, whose iterator knows how many steps are left: a
    # step counter would cost every step
    left = iter(accept)
    for ri, si, j, fb, acc in zip(rem_idx, src_idx, slot, fallback, left):
        w = adj[cur[si]][j]
        if state[w] != 1:
            w = fb
            if state[w] != 1:
                continue
        u = cur[ri]
        delta = 2 * (score[w] - score[u])
        if delta > 0 and acc is None:
            continue
        if u in adj[w]:
            delta += 4
        if delta > 0 and (acc is None or acc[0] >= math.exp(-delta / acc[1])):
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
            if best <= floor:
                return best, len(accept) - operator.length_hint(left)
    return best, len(accept)


class Pool(NamedTuple):
    """An annealing pool, built once by :func:`pool_rows` for all its chains.

    ``adj[v]`` is the row of pool vertex v as a tuple of ``width``
    entries, in CSR order, padded with the sentinel vertex ``nverts``;
    ``width`` is the longest pool row, at least 1, and rows outside the
    pool are empty.  ``vertices`` is the pool in the caller's order, in
    the narrowest dtype that holds ``nverts``: the fallback vertices.
    ``state`` has one byte per vertex and one for the sentinel, 1 on the
    pool and 0 elsewhere.
    """

    adj: list
    width: int
    vertices: np.ndarray
    state: bytes


def pool_rows(indptr, indices, cand):
    """The :class:`Pool` of the distinct vertices ``cand`` for :func:`anneal_chain`.

    The rows and the state depend on the set ``cand`` only, not on its order.
    """
    nverts = indptr.shape[0] - 1
    cand = np.asarray(cand, np.int64)
    at, counts = row_entries(indptr, cand)
    width = max(int(counts.max(initial=0)), 1)
    padded = np.full((cand.shape[0], width), nverts, np.int64)
    # entry e of a row goes to column e - (start of its row)
    padded[np.repeat(np.arange(cand.shape[0]), counts), at - np.repeat(indptr[cand], counts)] = indices[at]
    adj = [()] * nverts
    for v, row in zip(cand.tolist(), padded.tolist()):
        adj[v] = tuple(row)
    state = np.zeros(nverts + 1, np.uint8)
    state[cand] = 1
    return Pool(adj, width, cand.astype(np.min_scalar_type(nverts)), state.tobytes())


#: Temperatures at or below this accept no positive delta: exp(-2 / t) is
#: exp(-800) or less, which is 0.0 in double precision.
_COLD = 2.0 / 800


def _acceptance(acc_u, temps, sweep):
    """Per step, what the Metropolis test needs to decide a positive delta.

    Step s runs at ``t = temps[s // sweep]`` and accepts a positive delta
    when t > 0 and ``acc_u[s] < math.exp(-delta / t)``.  Entry s is None
    where no positive delta passes: at every t at or below ``_COLD``, and
    where the draw already fails delta 2, the least
    positive delta, since ``exp(-d / t) <= exp(-2 / t)`` for every even
    d > 2.  Elsewhere it is ``(acc_u[s], t)``.  One ``exp`` per sweep
    warmer than ``_COLD``, wherever those sweeps fall.
    """
    accept = [None] * acc_u.shape[0]
    warm = np.flatnonzero(temps > _COLD)
    for i, t in zip(warm.tolist(), temps[warm].tolist()):
        bar = math.exp(-2.0 / t)
        for s, au in enumerate(acc_u[i * sweep:(i + 1) * sweep].tolist(), i * sweep):
            if au < bar:
                accept[s] = (au, t)
    return accept


def anneal_chain(
    indptr, indices, pool, members, probe_rem, probe_add, cool, sweep,
    rem_idx, src_idx, nb_u, fb_idx, acc_u, *, floor=None,
):
    """One annealing chain from ``members``; returns ``(best, best_members, walked)``.

    ``pool`` is :func:`pool_rows` of the simple graph ``indptr``,
    ``indices`` and a pool holding ``members``.  Step s swaps member
    ``rem_idx[s]`` for a pool neighbour of member ``src_idx[s]``, when
    the Metropolis test with draw ``acc_u[s]`` accepts: the neighbour in slot ``int(nb_u[s]
    * width)`` of the source's row, or, where that slot is past the row's
    end or holds no free pool vertex, ``pool.vertices[fb_idx[s]]``.  The
    temperature is multiplied by ``cool`` every ``sweep`` steps.  It
    starts at the mean absolute perimeter change of the probe swaps of
    member ``probe_rem[i]`` for ``pool.vertices[probe_add[i]]``, over
    those that propose a free vertex, or at twice the largest degree if
    that mean is 0.

    ``floor`` is a perimeter no subset of the pool goes below, or None.
    The chain stops at the first step whose best set reaches it, or
    before any step, building nothing for the walk, if ``members`` does;
    ``walked`` counts the steps taken.  The best set changes only on a
    strict improvement, so the result is that of the whole walk.
    """
    adj, width, vertices, state = pool
    state = bytearray(state)
    degrees = np.diff(indptr)
    # the sentinel vertex nverts: a score the padded rows write
    score = degrees.tolist() + [0]
    cur = [int(v) for v in members]
    # the perimeter is the sum over members of deg(v) + score[v]
    perim = sum(score[v] for v in cur)
    for v in cur:
        state[v] = 2
        for x in adj[v]:
            score[x] -= 2
    perim += sum(score[v] for v in cur)
    # no perimeter is below 0, so -1 stops no chain
    floor = -1 if floor is None else floor
    if perim <= floor:
        return perim, np.asarray(cur, np.int64), 0
    # the probe swaps' perimeter changes, by the loop's rule
    deltas = [
        abs(2 * (score[w] - score[u]) + 4 * (u in adj[w]))
        for u, w in zip([cur[i] for i in probe_rem.tolist()], vertices[probe_add].tolist())
        if state[w] == 1
    ]
    # a start at 0, for no probe or only zero changes, would freeze the chain
    t0 = sum(deltas) / len(deltas) if any(deltas) else 2.0 * int(degrees.max())
    nsteps = len(rem_idx)
    # the running product t0, t0 cool, t0 cool cool, ..., one entry per sweep
    temps = np.full(max(1, -(-nsteps // sweep)), cool, np.float64)
    temps[0] = t0
    np.multiply.accumulate(temps, out=temps)
    # a narrow dtype, and the float products truncated as they are written
    slot = np.empty(nsteps, np.min_scalar_type(width))
    np.multiply(nb_u, width, out=slot, casting="unsafe")
    accept = _acceptance(np.asarray(acc_u), temps, sweep)
    steps = [memoryview(np.ascontiguousarray(a)) for a in (rem_idx, src_idx, slot, vertices[fb_idx])]
    best_set = cur.copy()
    best, walked = _anneal_loop(adj, state, score, *steps, accept, cur, best_set, perim, floor)
    return best, np.asarray(best_set, np.int64), walked
