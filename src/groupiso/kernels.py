"""Low level numeric kernels over flat CSR arrays, one source each.

The two gradient passes are numpy expressions.  The subset scan, the
connected-set enumeration and the annealer are loops written in numba's
nopython subset: when numba imports they are compiled with ``njit``,
otherwise the same functions run as plain Python, where lists,
bytearrays and memoryviews index and iterate to plain ints and floats,
faster than numpy scalars.  Graph arrays and scratch state become lists
or bytearrays.  The annealer's per-step arrays stay memoryviews: they
are read once each, in one ``zip``, and list copies would box every
value, raising peak memory by megabytes per chain.  Only the public
wrappers know which of the two runs; they convert the inputs and
allocate the scratch state to suit.  The choice is exposed as
:data:`BACKEND` (``"numba"`` or ``"numpy"``).

Integer results (perimeters, witnesses, leaf and set counts) do not
depend on the backend.
"""

from __future__ import annotations

import math

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover
    HAS_NUMBA = False

BACKEND = "numba" if HAS_NUMBA else "numpy"

#: Sentinel perimeter returned when an enumeration saw no leaf at all.
NO_RESULT = 1 << 62


def _compiled(loop):
    return njit(cache=True)(loop) if HAS_NUMBA else loop


def grad_modulus_csr(indptr, indices, values, out, rows):
    """``out[v]``: sum of ``|values[v] - values[u]|`` over the neighbours u of v.

    ``rows`` holds the row index of every CSR entry.
    """
    n = indptr.shape[0] - 1
    diffs = np.abs(values[rows] - values[indices])
    out[:] = np.bincount(rows, weights=diffs, minlength=n)


def energy_subgrad_csr(indptr, indices, values, gmod, out, rows):
    """Subgradient of the squared 2-norm of the gradient modulus ``gmod``."""
    n = indptr.shape[0] - 1
    sign = np.sign(values[rows] - values[indices])
    contrib = 2.0 * sign * (gmod[rows] + gmod[indices])
    out[:] = np.bincount(rows, weights=contrib, minlength=n)


@_compiled
def _scan_loop(pptr, pidx, score, cand, k, cap, pos, wit):
    # Depth first walk over k-subsets of pool positions in lexicographic
    # order, one root (first member) at a time.  score[q] is the
    # perimeter added by joining q to the current set: 2 deg(q) minus 4
    # per in-pool neighbour already in the set.  The walk places the
    # first k - 1 members; the last one is a single pass over the rest.
    m = len(cand)
    best = NO_RESULT
    leaves = 0
    # a cap below 1 scans nothing; any other cap returns as it is reached
    if cap < 1:
        return best, leaves, 0
    for first in range(m - k + 1):
        if k == 1:
            leaves += 1
            if score[first] < best:
                best = score[first]
                wit[0] = cand[first]
            if leaves >= cap:
                return best, leaves, 1
            continue
        pos[0] = first
        depth = 0
        perim = 0
        while depth >= 0:
            p = pos[depth]
            perim += score[p]
            for e in range(pptr[p], pptr[p + 1]):
                score[pidx[e]] -= 4
            if depth < k - 2:
                depth += 1
                pos[depth] = p + 1
                continue
            start = p + 1
            stop = min(m, start + cap - leaves)
            for q in range(start, stop):
                total = perim + score[q]
                if total < best:
                    best = total
                    for d in range(k - 1):
                        wit[d] = cand[pos[d]]
                    wit[k - 1] = cand[q]
            leaves += stop - start
            if leaves >= cap:
                return best, leaves, 1
            # take members back off until one can advance
            while depth >= 0:
                p = pos[depth]
                for e in range(pptr[p], pptr[p + 1]):
                    score[pidx[e]] += 4
                perim -= score[p]
                if depth > 0 and p < m - (k - depth):
                    pos[depth] = p + 1
                    break
                depth -= 1
    return best, leaves, 0


def _pool_csr(indptr, indices, cand):
    """In-pool neighbour positions, one CSR row per position of the pool ``cand``.

    Returns ``(pptr, pidx, score)``, ``score`` being twice the degree of
    each pool vertex in the whole graph: the perimeter of the singleton.
    """
    m = cand.shape[0]
    starts = indptr[cand]
    counts = indptr[cand + 1] - starts
    cpos = np.full(indptr.shape[0] - 1, -1, np.int64)
    cpos[cand] = np.arange(m)
    at = np.arange(counts.sum()) + np.repeat(starts - np.cumsum(counts) + counts, counts)
    nb = cpos[indices[at]]
    keep = nb >= 0
    pptr = np.zeros(m + 1, np.int64)
    np.cumsum(np.bincount(np.repeat(np.arange(m), counts)[keep], minlength=m), out=pptr[1:])
    return pptr, nb[keep], 2 * counts


def min_perimeter_scan(indptr, indices, cand, k, cap):
    """Least perimeter over k-subsets of the pool ``cand``, in lexicographic order.

    At most the first ``cap`` subsets are scanned.  Returns ``(best,
    leaves, capped, witness)``: the first strict minimum and its vertices
    (``NO_RESULT`` and -1s if no subset was scanned), the number of
    subsets scanned, and 1 if the cap stopped the scan, else 0.
    """
    arrays = (*_pool_csr(indptr, indices, cand), cand)
    if HAS_NUMBA:
        pos = np.zeros(k, np.int64)
        wit = np.full(k, -1, np.int64)
    else:
        arrays = [a.tolist() for a in arrays]
        pos = [0] * k
        wit = [-1] * k
    best, leaves, capped = _scan_loop(*arrays, int(k), int(cap), pos, wit)
    return best, leaves, capped, np.asarray(wit, np.int64)


@_compiled
def _offer(members, s, perim, best, wit, kmax, buf):
    # Keep the set members[:s] as the size-s witness if its perimeter is
    # lower, or equal with a lexicographically smaller sorted tuple.
    for i in range(s):
        v = members[i]
        j = i
        while j > 0 and buf[j - 1] > v:
            buf[j] = buf[j - 1]
            j -= 1
        buf[j] = v
    at = s * kmax
    if perim == best[s]:
        i = 0
        while i < s and buf[i] == wit[at + i]:
            i += 1
        if i == s or buf[i] > wit[at + i]:
            return
    best[s] = perim
    for i in range(s):
        wit[at + i] = buf[i]


@_compiled
def _connected_loop(
    pptr, pidx, score, kmax, cap, best, count, wit, mark, ext, members, lo, hi, nst, end, buf,
):
    # ESU walk (Wernicke 2006) over the connected subsets of pool
    # positions with at most kmax members, each visited once: a set is
    # grown from its least position, the root.  Level d holds the set
    # members[:d] and its untried extensions ext[lo[d]:hi[d]]; level 0
    # holds the empty set and the root alone.  A child's untried list is
    # a copy of what its parent has left plus the exclusive neighbours of
    # the new member: positions above the root that are neither in the
    # set nor next to it (mark).  score[q] is the perimeter added by
    # joining q, as in _scan_loop.  When more than cap sets of one size
    # turn up, that size and every larger one are dropped; the returned
    # limit is the largest size left complete.
    limit = kmax
    for root in range(len(score)):
        if limit < 1:
            break
        mark[root] = 1
        ext[0] = root
        lo[0] = 0
        hi[0] = 1
        nst[0] = 0
        end[0] = 1
        perim = 0
        d = 0
        while d >= 0:
            s = d + 1
            if s > limit or hi[d] == lo[d]:
                # leave level d: forget its extensions, take its member off
                for i in range(nst[d], end[d]):
                    mark[ext[i]] = 0
                if d > 0:
                    w = members[d - 1]
                    for e in range(pptr[w], pptr[w + 1]):
                        score[pidx[e]] += 4
                    perim -= score[w]
                d -= 1
                continue
            if s == limit:
                # the children are leaves: one pass over the untried list
                if count[s] + hi[d] - lo[d] > cap:
                    limit = s - 1
                    continue
                count[s] += hi[d] - lo[d]
                for i in range(lo[d], hi[d]):
                    w = ext[i]
                    total = perim + score[w]
                    if total <= best[s]:
                        members[d] = w
                        _offer(members, s, total, best, wit, kmax, buf)
                hi[d] = lo[d]
                continue
            if count[s] >= cap:
                limit = s - 1
                continue
            count[s] += 1
            hi[d] -= 1
            w = ext[hi[d]]
            c = end[d]
            n = hi[d] - lo[d]
            members[d] = w
            d += 1
            perim += score[w]
            if perim <= best[s]:
                _offer(members, s, perim, best, wit, kmax, buf)
            for e in range(pptr[w], pptr[w + 1]):
                score[pidx[e]] -= 4
            ext[c:c + n] = ext[lo[d - 1]:hi[d - 1]]
            top = c + n
            for e in range(pptr[w], pptr[w + 1]):
                u = pidx[e]
                if u > root and mark[u] == 0:
                    mark[u] = 1
                    ext[top] = u
                    top += 1
            lo[d] = c
            hi[d] = top
            nst[d] = c + n
            end[d] = top
    return limit


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
    m = cand.shape[0]
    pptr, pidx, score = _pool_csr(indptr, indices, cand)
    # level d > 0 holds at most min(m, d * maxdeg) untried positions
    room = kmax * min(m, kmax * int(np.diff(pptr).max(initial=0))) + 1
    state = [
        np.full(kmax + 1, NO_RESULT, np.int64),  # best
        np.zeros(kmax + 1, np.int64),  # count
        np.full((kmax + 1) * kmax, -1, np.int64),  # wit: size j at j * kmax
        np.zeros(m, np.uint8),  # mark
        np.zeros(room, np.int64),  # ext
        # members, then per level lo, hi, nst and end, then a sort buffer
        *(np.zeros(kmax, np.int64) for _ in range(6)),
    ]
    arrays = [pptr, pidx, score]
    if not HAS_NUMBA:
        arrays = [a.tolist() for a in arrays]
        state = [a.tolist() for a in state]
    limit = _connected_loop(*arrays, int(kmax), int(cap), *state)
    best, count, wit = ([int(x) for x in a] for a in state[:3])
    witnesses = [None] + [
        tuple(int(v) for v in cand[wit[j * kmax:j * kmax + j]]) if best[j] < NO_RESULT else None
        for j in range(1, kmax + 1)
    ]
    return best, count, witnesses, int(limit)


@_compiled
def _anneal_loop(
    indptr, indices, cand_mask, cand_list, rem_idx, src_idx, nb_u, fb_idx, acc_u,
    t0, cool, sweep, in_set, inside, cur, best_set,
):
    # Fixed cardinality Metropolis chain.  All randomness is precomputed
    # by the caller so the walk is identical on both backends.  inside[v]
    # is the number of members adjacent to v, built once here; the graph
    # is simple, so a step that swaps member u for w reads the in-set
    # neighbour counts of both without walking their rows.  Only an
    # accepted swap writes: in_set, cur, and inside along the rows of u
    # and w.  A rejected step writes nothing.
    k = len(cur)
    perim = 0
    for i in range(k):
        v = cur[i]
        in_set[v] = 1
        perim += 2 * (indptr[v + 1] - indptr[v])
        for x in indices[indptr[v]:indptr[v + 1]]:
            inside[x] += 1
    for i in range(k):
        perim -= 2 * inside[cur[i]]
    best = perim  # best_set arrives as a copy of cur
    t = t0
    for s, ri, si, nb, fi, au in zip(range(len(rem_idx)), rem_idx, src_idx, nb_u, fb_idx, acc_u):
        if s > 0 and s % sweep == 0:
            t *= cool
        u = cur[ri]
        src = cur[si]
        w = -1
        dsrc = indptr[src + 1] - indptr[src]
        if dsrc > 0:
            cnd = indices[indptr[src] + int(nb * dsrc)]
            if cand_mask[cnd] != 0 and in_set[cnd] == 0:
                w = cnd
        if w < 0:
            cf = cand_list[fi]
            if in_set[cf] == 0:
                w = cf
        if w < 0:
            continue
        lo_w = indptr[w]
        hi_w = indptr[w + 1]
        deg_u = indptr[u + 1] - indptr[u]
        deg_w = hi_w - lo_w
        cnt_u = inside[u]
        # u leaves as w joins: w's count drops u
        cnt_w = inside[w]
        if u in indices[lo_w:hi_w]:
            cnt_w -= 1
        delta = 2 * ((deg_w - deg_u) - 2 * (cnt_w - cnt_u))
        accept = delta <= 0
        if not accept and t > 0.0:
            accept = au < math.exp(-delta / t)
        if accept:
            in_set[u] = 0
            in_set[w] = 1
            for x in indices[indptr[u]:indptr[u + 1]]:
                inside[x] -= 1
            for x in indices[lo_w:hi_w]:
                inside[x] += 1
            cur[ri] = w
            perim += delta
            if perim < best:
                best = perim
                best_set[:] = cur
    return best


def anneal_chain(
    indptr, indices, cand_mask, cand_list, members, t0, cool, sweep,
    rem_idx, src_idx, nb_u, fb_idx, acc_u,
):
    """One annealing chain from ``members``; returns ``(best, best_members)``.

    Step s swaps member ``rem_idx[s]`` for a pool neighbour of member
    ``src_idx[s]`` (or pool vertex ``fb_idx[s]``), accepting against
    ``acc_u[s]``; the temperature starts at ``t0`` and is multiplied by
    ``cool`` every ``sweep`` steps.  The graph must be simple.
    """
    graph = (indptr, indices, cand_mask, cand_list)
    steps = (rem_idx, src_idx, nb_u, fb_idx, acc_u)
    nverts = indptr.shape[0] - 1
    if HAS_NUMBA:
        in_set = np.zeros(nverts, np.uint8)
        inside = np.zeros(nverts, np.int64)
        cur = np.array(members, np.int64)
    else:
        graph = [a.tolist() for a in graph]
        steps = [memoryview(np.ascontiguousarray(a)) for a in steps]
        in_set = bytearray(nverts)
        inside = [0] * nverts
        cur = [int(v) for v in members]
    best_set = cur.copy()
    best = _anneal_loop(*graph, *steps, t0, cool, sweep, in_set, inside, cur, best_set)
    return best, np.asarray(best_set, np.int64)
