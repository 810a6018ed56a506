"""Edge perimeters, exact profile enumeration, and annealed upper bounds.

The perimeter of a vertex set counts boundary adjacencies from both
sides, so it equals twice the number of cut edges and coincides with the
total gradient of the set's indicator.  Profiles are exact minima over
all k-subsets of a candidate pool (the window interior by default).  A
row is decided by the connected subsets of the pool where the partition
bound certifies them, and by the exhaustive subset scan otherwise; an
annealer provides upper bounds where enumeration is out of reach, each
chain stopping once it reaches the perimeter floor of the window's group.

Enumeration and annealing results are deterministic: the same seed and
instance give byte identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import kernels
from .groups import ExploredBall

#: Defaults of the profile functions and commands: the work cap of the
#: exact rows, and the annealer's chains per row and most steps per chain.
CAP = 20_000_000
CHAINS = 8
BUDGET = 20_000

#: Annealing temperature factor, applied once per sweep of k steps.
_COOL = 0.97

#: Largest group order :func:`double_counting_report` checks: it visits
#: every pair of nonempty subsets, about 4**order pairs.
_DOUBLE_COUNTING_ORDER = 10


class WorkCapError(RuntimeError):
    """Raised when an exhaustive task would exceed its work budget."""


def set_perimeter(ball: ExploredBall, subset: Iterable[int]) -> int:
    """Perimeter of a vertex set: twice the number of cut edges.

    Only the members' rows are read.
    """
    members = {int(v) for v in subset}
    idx = np.fromiter(members, np.int64, len(members))
    at, _ = kernels.row_entries(ball.indptr, idx)
    nbrs = ball.indices[at]
    mask = np.zeros(ball.num_vertices, np.bool_)
    mask[idx] = True
    return 2 * (nbrs.size - int(np.count_nonzero(mask[nbrs])))


def cut_edges(ball: ExploredBall, subset: Iterable[int]) -> list[tuple[int, int]]:
    """The cut edges of a vertex set, as sorted (inside, outside) pairs."""
    mask = np.zeros(ball.num_vertices, np.bool_)
    members = [int(v) for v in subset]
    mask[members] = True
    out = []
    for v in sorted(set(members)):
        for e in range(ball.indptr[v], ball.indptr[v + 1]):
            w = int(ball.indices[e])
            if not mask[w]:
                out.append((v, w))
    return out


@dataclass(frozen=True)
class ProfileEntry:
    """Best perimeter found for one cardinality.

    ``leaves`` is the work behind the row: on a row decided by connected
    sets, the number of connected k-sets of the pool; on a scanned row,
    the number of k-subsets scanned, all of them; on an annealed row,
    the steps walked, summed over the chains: a chain stops early once
    its best set reaches the perimeter floor of the window's group.

    ``capped`` is always False: a scan that would pass its cap raises
    :class:`WorkCapError` instead of returning a row.  The field stays
    because the printed table, which the benchmark parses, has its
    column.
    """

    k: int
    perimeter: int | None
    witness: tuple[int, ...] | None
    leaves: int
    capped: bool
    exact: bool


def default_candidates(ball: ExploredBall) -> np.ndarray:
    """Interior vertices, the pool on which window perimeters are faithful."""
    return np.nonzero(ball.interior)[0].astype(np.int64)


def _certified(best: list[int], limit: int) -> list[bool]:
    """Sizes whose least connected perimeter is the least of all sets.

    The components of a set have no edges between them, so its perimeter
    is the sum of theirs.  Every disconnected k-set therefore has
    perimeter at least ``M(k)``, the least sum of ``best`` over the
    partitions of k into two parts or more.  Where ``best[k] < M(k)``
    every minimizer is connected.  Only the complete sizes up to
    ``limit`` count.
    """
    # least sum over partitions into one part or more, size by size
    split = [kernels.NO_RESULT] * (limit + 1)
    out = [False] * (limit + 1)
    for k in range(1, limit + 1):
        parts = (split[i] + split[k - i] for i in range(1, k // 2 + 1))
        bound = min(parts, default=kernels.NO_RESULT)
        out[k] = best[k] < bound
        split[k] = min(best[k], bound)
    return out


def _connected_entries(ball, kmax, cand, cap) -> dict[int, ProfileEntry]:
    """The certified rows of one connected-set enumeration, by size."""
    kmax = min(kmax, cand.shape[0])
    if kmax < 1:
        return {}
    best, count, witnesses, limit = kernels.connected_profile(ball.indptr, ball.indices, cand, kmax, cap)
    return {
        k: ProfileEntry(k, best[k], witnesses[k], count[k], False, True)
        for k, ok in enumerate(_certified(best, limit))
        if ok
    }


def _check_cardinality(k: int, m: int) -> None:
    if k < 1:
        raise ValueError("cardinality must be positive")
    if k > m:
        raise ValueError(f"cardinality {k} exceeds the candidate pool ({m})")


def _scan_entry(ball, k, cand, cap) -> ProfileEntry:
    """Exact minimum by scanning every k-subset; past ``cap`` of them, WorkCapError."""
    m = cand.shape[0]
    _check_cardinality(k, m)
    total = math.comb(m, k)
    if total > cap:
        raise WorkCapError(
            f"{total} subsets of size {k} exceed the cap of {cap}; "
            "raise the cap, shrink the pool, or anneal instead"
        )
    best, leaves, _, wit = kernels.min_perimeter_scan(
        ball.indptr, ball.indices, cand, k, total + 1
    )
    found = best < kernels.NO_RESULT
    perim, witness = (int(best), tuple(int(v) for v in wit)) if found else (None, None)
    return ProfileEntry(k, perim, witness, int(leaves), False, True)


def min_perimeter(
    ball: ExploredBall,
    k: int,
    candidates: np.ndarray | None = None,
    cap: int = CAP,
) -> ProfileEntry:
    """Exact minimum perimeter over all k-subsets of the candidate pool.

    The connected subsets of the pool with at most k members are
    enumerated first; where the partition bound certifies them (see
    :func:`_certified`) the row is theirs.  Otherwise every k-subset is
    scanned.

    :param cap: work budget: connected sets of one size, or subsets
        scanned.  A pool whose k-subset count exceeds it raises
        :class:`WorkCapError`.
    """
    cand = default_candidates(ball) if candidates is None else np.asarray(candidates, np.int64)
    entry = _connected_entries(ball, k, cand, cap).get(k)
    return entry if entry is not None else _scan_entry(ball, k, cand, cap)


def profile(
    ball: ExploredBall,
    kmax: int,
    candidates: np.ndarray | None = None,
    cap: int = CAP,
) -> list[ProfileEntry]:
    """Exact isoperimetric profile for k = 1 .. kmax.

    One connected-set enumeration up to kmax serves every row it
    certifies; the other rows are scanned as in :func:`min_perimeter`.
    The first row past the cap raises :class:`WorkCapError`, whose
    message says that the rows before it are exact under that cap.
    """
    cand = default_candidates(ball) if candidates is None else np.asarray(candidates, np.int64)

    def scan(k):
        try:
            return _scan_entry(ball, k, cand, cap)
        except WorkCapError as exc:
            if k == 1:
                raise
            raise WorkCapError(f"{exc}; rows 1 to {k - 1} are exact under the same cap") from None

    return _profile_rows(ball, kmax, cand, cap, scan)


def _profile_rows(ball, kmax, cand, cap, fallback) -> list[ProfileEntry]:
    """Rows 1 .. kmax: certified by one connected enumeration, else ``fallback(k)``."""
    connected = _connected_entries(ball, kmax, cand, cap)
    return [connected[k] if k in connected else fallback(k) for k in range(1, kmax + 1)]


def _chain_inputs(rng: np.random.Generator, cand: np.ndarray, k: int, budget: int):
    # draw order is fixed: init set, probe pairs, then the walk arrays
    init = np.sort(rng.choice(cand, size=k, replace=False).astype(np.int64))
    probe_rem = rng.integers(0, k, 64)
    probe_add = rng.integers(0, cand.shape[0], 64)
    walk = (
        rng.integers(0, k, budget).astype(np.int64),
        rng.integers(0, k, budget).astype(np.int64),
        rng.random(budget),
        rng.integers(0, cand.shape[0], budget).astype(np.int64),
        rng.random(budget),
    )
    return init, probe_rem, probe_add, walk


def _probe_temperature(ball, cand, init, probe_rem, probe_add) -> float:
    # mean |perimeter change| of the trial swaps of member u for a vertex w
    # outside the set.  With score[v] = deg(v) minus twice the number of
    # members next to v, a swap changes the perimeter by
    # 2 (score[w] - score[u]) + 4 [u ~ w]: the graph is simple, and u's
    # edge to w stays cut.
    n = ball.num_vertices
    at, counts = kernels.row_entries(ball.indptr, init)
    nbrs = ball.indices[at]
    score = ball.degrees - 2 * np.bincount(nbrs, minlength=n)
    member = np.zeros(n, np.bool_)
    member[init] = True
    u = init[probe_rem]
    w = cand[probe_add]
    keep = ~member[w]
    u, w = u[keep], w[keep]
    edges = set((np.repeat(init, counts) * n + nbrs).tolist())
    adjacent = np.array([e in edges for e in (u * n + w).tolist()], np.int64)
    deltas = np.abs(2 * (score[w] - score[u]) + 4 * adjacent)
    scale = float(np.mean(deltas)) if deltas.size else 0.0
    if scale <= 0.0:
        scale = 2.0 * float(ball.degrees.max())
    return scale


def _pool_floor(ball: ExploredBall, cand: np.ndarray, k: int) -> int | None:
    """The least perimeter any k-subset of the pool can have, or None.

    It is the floor of the window's group (see
    :class:`groupiso.groups.GeneratedSystem`), and holds only where every
    pool vertex keeps its whole neighbourhood in the window: there a set's
    window perimeter is its perimeter in the whole Cayley graph.
    """
    system = ball.system
    if system is None or system.floor is None or not ball.interior[cand].all():
        return None
    return system.floor(k)


def anneal_min_perimeter(
    ball: ExploredBall,
    k: int,
    seed: int = 0,
    chains: int = CHAINS,
    budget: int = BUDGET,
    candidates: np.ndarray | None = None,
) -> ProfileEntry:
    """Annealed upper bound on the minimum perimeter at cardinality k.

    Chain c is seeded from ``(seed, k, c)``, so results are reproducible.
    Each chain stops once its best set reaches the pool's floor (see
    :func:`_pool_floor`); its best set is then final, as no later step
    could improve on it.
    """
    cand = default_candidates(ball) if candidates is None else np.asarray(candidates, np.int64)
    _check_cardinality(k, cand.shape[0])
    cand_mask = np.zeros(ball.num_vertices, np.uint8)
    cand_mask[cand] = 1
    sweep = max(k, 1)
    rows = kernels.pool_rows(ball.indptr, ball.indices, cand_mask)
    floor = _pool_floor(ball, cand, k)

    def run_chain(c: int):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k, c]))
        init, probe_rem, probe_add, walk = _chain_inputs(rng, cand, k, budget)
        t0 = _probe_temperature(ball, cand, init, probe_rem, probe_add)
        best, members, walked = kernels.anneal_chain(
            ball.indptr, ball.indices, cand_mask, cand, init, t0, _COOL, sweep, *walk,
            rows=rows, floor=floor,
        )
        return int(best), tuple(sorted(int(v) for v in members)), walked

    # every chain runs: min breaks perimeter ties by the least witness
    runs = [run_chain(c) for c in range(chains)]
    perim, wit, _ = min(runs)
    return ProfileEntry(k, perim, wit, sum(r[2] for r in runs), False, False)


def profile_or_anneal(
    ball: ExploredBall,
    kmax: int,
    seed: int = 0,
    chains: int = CHAINS,
    budget: int = BUDGET,
    cap: int = CAP,
) -> list[ProfileEntry]:
    """Profile over the default pool for k = 1 .. min(kmax, pool size).

    Rows are exact where :func:`profile` decides them within ``cap``:
    certified by one connected-set enumeration up to kmax, or scanned.
    A row whose scan would exceed the cap gets the annealed upper bound
    of :func:`anneal_min_perimeter` instead.
    """
    cand = default_candidates(ball)

    def fallback(k):
        try:
            return _scan_entry(ball, k, cand, cap)
        except WorkCapError:
            return anneal_min_perimeter(ball, k, seed, chains, budget, cand)

    return _profile_rows(ball, min(kmax, cand.shape[0]), cand, cap, fallback)


# ---------------------------------------------------------------------------
# Double counting on finite groups


def _deficit(column: list[int], a_mask: int) -> int:
    """Size of (A shifted by one group element) minus A, A as a bit mask."""
    shifted = 0
    rest = a_mask
    while rest:
        low = rest & -rest
        shifted |= 1 << column[low.bit_length() - 1]
        rest ^= low
    return (shifted & ~a_mask).bit_count()


def double_counting_report(ball: ExploredBall, orbitals: tuple[np.ndarray, bool]) -> dict:
    """Exhaustive shift deficit check over all admissible subset pairs.

    ``ball`` is the complete window of a finite group (``ball.system``
    is a Cayley system; any other window raises ValueError), and
    ``orbitals`` is what :func:`groupiso.growth.translation_maps` returns
    on it.  Row y of the orbital array is the inverse of the right
    translation by y, so its argsort shifts a set by y.  For every
    nonempty A, B with 2|A| <= |B| the mean shift deficit must be at
    least |A|/2.  Exact rational arithmetic throughout.  A group of order
    above ``_DOUBLE_COUNTING_ORDER`` raises :class:`WorkCapError`.
    """
    if ball.system is None or ball.system.kind != "cayley" or not ball.complete:
        raise ValueError("double counting needs the complete window of a Cayley system")
    n = ball.num_vertices
    if n > _DOUBLE_COUNTING_ORDER:
        raise WorkCapError(
            f"group order {n} exceeds the exhaustive limit {_DOUBLE_COUNTING_ORDER}"
        )
    # column y maps a to a*y
    columns = np.argsort(orbitals[0], axis=1).tolist()
    checked = 0
    equalities = 0
    min_slack: Fraction | None = None
    violations = []
    masks = list(range(1, 1 << n))
    popcounts = [m.bit_count() for m in masks]
    members = [[i for i in range(n) if m >> i & 1] for m in masks]
    for ai, a_mask in enumerate(masks):
        asize = popcounts[ai]
        deficits = [_deficit(col, a_mask) for col in columns]
        for bi, b_mask in enumerate(masks):
            bsize = popcounts[bi]
            if 2 * asize > bsize:
                continue
            total = sum(deficits[b] for b in members[bi])
            mean = Fraction(total, bsize)
            slack = mean - Fraction(asize, 2)
            checked += 1
            if slack < 0:
                violations.append({"A": a_mask, "B": b_mask, "mean": mean})
            elif slack == 0:
                equalities += 1
            if min_slack is None or slack < min_slack:
                min_slack = slack
    return {
        "name": ball.name,
        "order": n,
        "checked": checked,
        "equalities": equalities,
        "min_slack": min_slack,
        "violations": violations,
        "all_ok": not violations,
    }
