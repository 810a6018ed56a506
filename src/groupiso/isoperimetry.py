"""Edge perimeters, exact profile enumeration, and annealed upper bounds.

The perimeter of a vertex set counts boundary adjacencies from both
sides, so it equals twice the number of cut edges and coincides with the
total gradient of the set's indicator.  Profiles are exact minima over
all k-subsets of a candidate pool (the window interior by default),
enumerated with the scan kernel; an annealer provides upper bounds where
enumeration is out of reach.

Enumeration and annealing results are deterministic: the same seed and
instance give byte identical output for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from . import kernels
from .groups import ExploredBall, GeneratedSystem, explore, right_translations

#: Annealing temperature factor, applied once per sweep of k steps.
_COOL = 0.97


class WorkCapError(RuntimeError):
    """Raised when an exhaustive task would exceed its work budget."""


def set_perimeter(ball: ExploredBall, subset: Iterable[int]) -> int:
    """Perimeter of a vertex set: twice the number of cut edges."""
    mask = np.zeros(ball.num_vertices, np.bool_)
    members = np.asarray(sorted(set(int(v) for v in subset)), np.int64)
    if members.size == 0:
        return 0
    mask[members] = True
    inside_ordered = int(np.count_nonzero(mask[ball.rows] & mask[ball.indices]))
    degsum = int(ball.degrees[members].sum())
    return 2 * degsum - 2 * inside_ordered


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
    """Best perimeter found for one cardinality."""

    k: int
    perimeter: int | None
    witness: tuple[int, ...] | None
    leaves: int
    capped: bool
    exact: bool


def default_candidates(ball: ExploredBall) -> np.ndarray:
    """Interior vertices, the pool on which window perimeters are faithful."""
    return np.nonzero(ball.interior)[0].astype(np.int64)


def _merge(results):
    best = None
    leaves = 0
    capped = False
    for perim, nleaves, was_capped, wit in results:
        leaves += int(nleaves)
        capped = capped or bool(was_capped)
        if perim >= kernels.NO_RESULT:
            continue
        key = (int(perim), tuple(int(v) for v in wit))
        if best is None or key < best:
            best = key
    return best, leaves, capped


def min_perimeter(
    ball: ExploredBall,
    k: int,
    candidates: np.ndarray | None = None,
    cap: int = 20_000_000,
    workers: int = 1,
    on_cap: str = "raise",
) -> ProfileEntry:
    """Exact minimum perimeter over all k-subsets of the candidate pool.

    :param cap: leaf budget; a pool whose subset count exceeds it either
        raises :class:`WorkCapError` or, with ``on_cap="partial"``,
        returns the best of the first ``cap`` subsets in lexicographic
        order (single threaded, so the answer does not depend on the
        worker count).
    :param workers: kernel threads for the exhaustive case.
    """
    if k < 1:
        raise ValueError("cardinality must be positive")
    cand = default_candidates(ball) if candidates is None else np.asarray(candidates, np.int64)
    m = cand.shape[0]
    if k > m:
        raise ValueError(f"cardinality {k} exceeds the candidate pool ({m})")
    total = math.comb(m, k)
    scan = kernels.min_perimeter_scan
    if total > cap:
        if on_cap == "raise":
            raise WorkCapError(
                f"{total} subsets of size {k} exceed the cap of {cap}; "
                "raise the cap, shrink the pool, or anneal instead"
            )
        firsts = np.arange(0, m - k + 1, dtype=np.int64)
        res = scan(ball.indptr, ball.indices, cand, k, firsts, np.int64(cap))
        best, leaves, capped = _merge([res])
        perim, wit = best if best is not None else (None, None)
        return ProfileEntry(k, perim, wit, leaves, capped, False)
    firsts = np.arange(0, m - k + 1, dtype=np.int64)
    budget = np.int64(total + 1)
    if workers <= 1 or firsts.size <= 1:
        parts = [scan(ball.indptr, ball.indices, cand, k, firsts, budget)]
    else:
        chunks = [firsts[i::workers] for i in range(workers) if firsts[i::workers].size]
        with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(
                pool.map(
                    lambda ch: scan(ball.indptr, ball.indices, cand, k, ch, budget),
                    chunks,
                )
            )
    best, leaves, capped = _merge(parts)
    perim, wit = best if best is not None else (None, None)
    return ProfileEntry(k, perim, wit, leaves, capped, True)


def profile(
    ball: ExploredBall,
    kmax: int,
    candidates: np.ndarray | None = None,
    cap: int = 20_000_000,
    workers: int = 1,
    on_cap: str = "raise",
) -> list[ProfileEntry]:
    """Exact isoperimetric profile for k = 1 .. kmax."""
    cand = default_candidates(ball) if candidates is None else np.asarray(candidates, np.int64)
    return [
        min_perimeter(ball, k, cand, cap=cap, workers=workers, on_cap=on_cap)
        for k in range(1, kmax + 1)
    ]


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
    base = set(int(v) for v in init)
    p0 = set_perimeter(ball, base)
    deltas = []
    for ri, ai in zip(probe_rem, probe_add):
        u = int(init[ri])
        w = int(cand[ai])
        if w in base:
            continue
        trial = (base - {u}) | {w}
        deltas.append(abs(set_perimeter(ball, trial) - p0))
    scale = float(np.mean(deltas)) if deltas else 0.0
    if scale <= 0.0:
        scale = 2.0 * float(ball.degrees.max())
    return scale


def anneal_min_perimeter(
    ball: ExploredBall,
    k: int,
    seed: int = 0,
    chains: int = 8,
    budget: int = 20_000,
    candidates: np.ndarray | None = None,
    workers: int = 1,
) -> ProfileEntry:
    """Annealed upper bound on the minimum perimeter at cardinality k.

    Chains are seeded independently of the worker layout, so results are
    reproducible for any ``workers`` value.
    """
    cand = default_candidates(ball) if candidates is None else np.asarray(candidates, np.int64)
    if k < 1 or k > cand.shape[0]:
        raise ValueError("cardinality outside the candidate pool")
    cand_mask = np.zeros(ball.num_vertices, np.uint8)
    cand_mask[cand] = 1
    sweep = max(k, 1)

    def run_chain(c: int):
        rng = np.random.default_rng(np.random.SeedSequence([seed, k, c]))
        init, probe_rem, probe_add, walk = _chain_inputs(rng, cand, k, budget)
        t0 = _probe_temperature(ball, cand, init, probe_rem, probe_add)
        best, members = kernels.anneal_chain(
            ball.indptr, ball.indices, cand_mask, cand, init, t0, _COOL, sweep, *walk
        )
        return int(best), tuple(sorted(int(v) for v in members))

    if workers <= 1 or chains <= 1:
        results = [run_chain(c) for c in range(chains)]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, chains)) as pool:
            results = list(pool.map(run_chain, range(chains)))
    perim, wit = min(results)
    return ProfileEntry(k, perim, wit, budget * chains, False, False)


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


def shift_deficit(columns: list[list[int]], a_mask: int, b_members: Sequence[int]) -> Fraction:
    """Mean size of (A shifted by b) minus A over b in B, exactly."""
    return Fraction(sum(_deficit(columns[b], a_mask) for b in b_members), len(b_members))


def double_counting_report(
    system: GeneratedSystem, horizon: int = 64, max_order: int = 10
) -> dict:
    """Exhaustive shift deficit check over all admissible subset pairs.

    For every nonempty A, B with 2|A| <= |B| the mean shift deficit must
    be at least |A|/2.  Exact rational arithmetic throughout.
    """
    ball = explore(system, horizon)
    if not ball.complete:
        raise ValueError("double counting needs a finite group")
    n = ball.num_vertices
    if n > max_order:
        raise WorkCapError(f"group order {n} exceeds the exhaustive limit {max_order}")
    columns = right_translations(system, ball)
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
        "name": system.name,
        "order": n,
        "checked": checked,
        "equalities": equalities,
        "min_slack": min_slack,
        "violations": violations,
        "all_ok": not violations,
    }
