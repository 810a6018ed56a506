"""The benchmark workloads and the result gate every command must pass.

A workload is a list of ``groupiso`` CLI commands run one after another
(a closed loop with one client, ``--workers 1``).  Each command carries a
check built from invariants pinned at the commit that introduced the
benchmark; none of them depends on the seed, so any seed must pass.
Leaf counts are deliberately not pinned: pruned enumerations may lower
them without changing an answer.  The README gives the reason for each
workload and the layers it exercises.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Lowest perimeter for k = 1, 2, ... (exhaustive up to k=5 on z2; the
#: connected-set bound certifies the rest).
KNOWN_MIN = {
    "c64": (4,) * 10,
    "z2": (8, 12, 16, 16, 20, 20, 24, 24),
}

#: Exact profiles: (perimeter, lexicographically least witness) per k.
EXACT_PROFILE = {
    "z2": ((8, (0,)), (12, (0, 1)), (16, (0, 1, 2)), (16, (0, 1, 3, 6)), (20, (0, 1, 2, 3, 6))),
    "z3": ((12, (0,)), (20, (0, 1)), (28, (0, 1, 2))),
    "c64": ((4, (0,)), (4, (0, 1)), (4, (0, 1, 2)), (4, (0, 1, 2, 3))),
}

#: ``build`` summaries: (horizon, vertices, edges, growth table).
BUILD = {
    "f2": (9, 39365, 39364, (1, 5, 17, 53, 161, 485, 1457, 4373, 13121, 39365)),
}

#: Window name printed on the last ``verify`` line.
BALL_NAME = {
    "q6": "hypercube_6",
    "c64": "cyclic_64",
    "s4": "symmetric_4_adjacent",
    "d8": "dihedral_8",
    "s4_points": "s4_points",
    "f2": "free_group_2",
    "heisenberg": "heisenberg",
}

_CHECK_LINE = re.compile(r"[a-z0-9-]+: PASS \(.*\)")


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the gate for its output.

    ``check(stdout)`` returns a description of the first problem found,
    or None.  Only the stdout bytes and files named in ``argv`` are read.
    """

    argv: tuple[str, ...]
    check: Callable[[str], str | None]
    # (rows at the known minimum, annealed rows), for the traced hit ratio
    anneal_hits: Callable[[str], tuple[int, int]] | None = None


@dataclass(frozen=True)
class Workload:
    why: str
    commands: Callable[[int, Path], list[Command]]


def parse_table(text: str) -> list[list[str]]:
    """Cells of the first fixed-width table in ``text``, header excluded.

    Column extents come from the dash rule under the header, so cells
    holding spaces (witness lists) stay whole.
    """
    lines = text.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("-"))
    spans = [m.span() for m in re.finditer(r"-+", lines[rule])]
    rows = []
    for line in lines[rule + 1 :]:
        if not line or not line[0].isdigit():
            break
        rows.append([line[a : (spans[i + 1][0] if i + 1 < len(spans) else None)].strip()
                     for i, (a, _) in enumerate(spans)])
    return rows


def _verify(instance: str, seed: int, extra: tuple[str, ...] = ()) -> Command:
    def check(out: str) -> str | None:
        lines = out.splitlines()
        if len(lines) < 2:
            return "verify printed no checks"
        bad = [line for line in lines[:-1] if not _CHECK_LINE.fullmatch(line)]
        if bad:
            return f"check not passed: {bad[0]}"
        if lines[-1] != f"verify {BALL_NAME[instance]}: PASS":
            return f"last line {lines[-1]!r}"
        return None

    return Command(("verify", "--instance", instance, *extra, "--seed", str(seed)), check)


def _build(instance: str, json_path: Path) -> Command:
    horizon, vertices, edges, growth = BUILD[instance]

    def check(out: str) -> str | None:
        props = dict(line.split(None, 1) for line in out.splitlines()[2:] if " " in line)
        if props.get("vertices") != str(vertices) or props.get("edges") != str(edges):
            return f"build table {props}"
        payload = json.loads(json_path.read_text())
        if tuple(payload["growth"]) != growth:
            return f"growth {payload['growth']}"
        if payload["issues"]:
            return f"issues {payload['issues'][:3]}"
        return None

    argv = ("build", "--instance", instance, "--horizon", str(horizon), "--json", str(json_path))
    return Command(argv, check)


def _rows(out: str) -> list[tuple[int, int, tuple[int, ...], str, str]]:
    # k, perimeter, witness, capped, exact; leaves are not pinned
    return [
        (int(k), int(p), tuple(int(v) for v in w.split()), capped, exact)
        for k, p, w, _leaves, capped, exact in parse_table(out)
    ]


def _profile(instance: str, kmax: int) -> Command:
    want = EXACT_PROFILE[instance][:kmax]

    def check(out: str) -> str | None:
        got = [(p, w) for _, p, w, capped, exact in _rows(out) if capped == "no" and exact == "yes"]
        return None if tuple(got) == want else f"{instance} exact profile {got}"

    return Command(("isoperimetry", "--instance", instance, "--kmax", str(kmax)), check)


def _anneal(instance: str, kmax: int, chains: int, seed: int) -> Command:
    lower = KNOWN_MIN[instance][:kmax]

    def check(out: str) -> str | None:
        import groupiso

        rows = _rows(out)
        if [r[0] for r in rows] != list(range(1, kmax + 1)):
            return f"{instance} anneal rows {[r[0] for r in rows]}"
        ball = groupiso.build(instance)
        for (k, perim, wit, _, exact), low in zip(rows, lower):
            if exact != "no" or perim < low:
                return f"{instance} k={k}: perimeter {perim} below the minimum {low}"
            if len(set(wit)) != k or groupiso.set_perimeter(ball, wit) != perim:
                return f"{instance} k={k}: witness {wit} does not give perimeter {perim}"
        return None

    def anneal_hits(out: str) -> tuple[int, int]:
        rows = _rows(out)
        return sum(r[1] == low for r, low in zip(rows, lower)), len(rows)

    argv = ("isoperimetry", "--instance", instance, "--kmax", str(kmax), "--anneal",
            "--chains", str(chains), "--seed", str(seed))
    return Command(argv, check, anneal_hits)


def _constants(instance: str, horizon: int, seed: int) -> Command:
    def check(out: str) -> str | None:
        rows = parse_table(out)
        if rows[:1] != [["1", "1", "8", "1/8", "1/8", "yes"]]:
            return f"constants rows {rows[:2]}"
        lines = out.splitlines()
        if "isoperimetric constant estimate: 1/8 (k=1)" not in lines:
            return "isoperimetric estimate missing or changed"
        m = next((re.match(r"uncertainty constant estimate: (\S+) \(start \d+\)$", s)
                  for s in lines if s.startswith("uncertainty constant")), None)
        if m is None or not (math.isfinite(float(m.group(1))) and float(m.group(1)) > 0):
            return "uncertainty estimate missing or not positive"
        return None

    argv = ("constants", "--instance", instance, "--horizon", str(horizon), "--kmax", "1",
            "--starts", "1", "--seed", str(seed))
    return Command(argv, check)


WORKLOADS = {
    # Everything but annealing: the complete windows (at most 64 vertices)
    # load the exact ``Fraction`` layer in ``verify`` and the exhaustive
    # subset scans; the large windows load exploration, ``validate_ball``,
    # the float CSR kernels, the uncertainty reports and the ascent.  One
    # workload, so that each run is long enough to ride out the speed
    # swings of a shared machine.  The k=1 numpy scan in ``constants``
    # builds a dense adjacency of 12,195 interior vertices; at 176 MB it
    # alone sets ``peak_rss_mb`` here (see the README).
    "verify_exact": Workload(
        "verify, build, constants and exact profiles on complete and large windows; no annealing",
        lambda seed, work: [
            *(_verify(n, seed, ("--fields", "20")) for n in ("q6", "c64", "s4", "d8", "s4_points")),
            _profile("z2", 5),
            _profile("z3", 3),
            _profile("c64", 4),
            _build("f2", work / "build_f2.json"),
            _verify("f2", seed, ("--horizon", "9", "--fields", "20")),
            _verify("heisenberg", seed, ("--horizon", "14", "--fields", "20")),
            _constants("heisenberg", 14, seed),
        ],
    ),
    # kept apart from the exact scans: one change may rewrite both kernels,
    # and a merged workload would let an anneal gain hide a scan loss
    "profile_anneal": Workload(
        "annealed profiles on c64 and z2; the anneal kernel does the work",
        lambda seed, work: [_anneal("c64", 10, 2, seed), _anneal("z2", 8, 2, seed)],
    ),
}
