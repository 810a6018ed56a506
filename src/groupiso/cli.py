"""Command line interface.

Subcommands: ``build`` (explore a window and summarize it), ``growth``
(growth table and superadditivity), ``isoperimetry`` (exact or annealed
profiles), ``constants`` (extremal constant estimates and the certified
table), ``verify`` (the full identity and inequality battery; exits
nonzero on failure), and ``corpus`` (emit the deterministic field
corpus).

Instances come from the built-in catalogue (``--instance``) or a JSON
spec file (``--spec``); both are specs, built by :mod:`groupiso.specio`,
and ``--horizon`` and ``--max-vertices`` override either.  Count
arguments must be at least 1 and ``--seed`` at least 0; a bad value,
like a bad spec or an argument the parser rejects, ends in one
``error:`` line and exit code 2.  All
output is deterministic for fixed arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction

import numpy as np

from . import catalogue, corpus, fields, growth, isoperimetry, reporting, specio, uncertainty
# explore is not called here; perfbench/test_perfbench.py::test_wrappers_restore_the_originals reads it
from .groups import ResourceCapError, explore, validate_ball  # noqa: F401
from .uncertainty import EXPONENTS, WEIGHT_POWERS

#: least accepted value of each count argument a subcommand has
_LEAST = dict.fromkeys(
    ("kmax", "cap", "chains", "budget", "starts", "iters", "fields", "horizon", "max_vertices"),
    1,
) | {"seed": 0}


def _add_instance_args(sub: argparse.ArgumentParser):
    """Instance choice, overrides and ``--json``; returns the choice group."""
    pick = sub.add_mutually_exclusive_group(required=True)
    pick.add_argument("--instance", help="catalogue name, see `groupiso build --list`")
    pick.add_argument("--spec", help="path to a JSON instance spec")
    sub.add_argument("--horizon", type=int, help="override the exploration radius")
    sub.add_argument("--max-vertices", type=int, help="override the vertex budget")
    sub.add_argument("--json")
    return pick


def _add_profile_args(sub: argparse.ArgumentParser, kmax: int, cap: int) -> None:
    """The profile options, with this command's ``--kmax`` and ``--cap`` defaults."""
    sub.add_argument("--kmax", type=int, default=kmax)
    sub.add_argument("--cap", type=int, default=cap)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--chains", type=int, default=isoperimetry.CHAINS)
    sub.add_argument("--budget", type=int, default=isoperimetry.BUDGET, help="most steps per chain")


def _resolve(args):
    spec = catalogue.spec(args.instance) if args.instance else specio.load_spec(args.spec)
    given = {"horizon": args.horizon, "max_vertices": args.max_vertices}
    return specio.build_from_spec(spec | {k: v for k, v in given.items() if v is not None})


def _emit(args, payload, headers, rows, text: str = "") -> None:
    """Print the table and ``text``; write the rows to ``--csv`` and the payload to ``--json``."""
    sys.stdout.write((reporting.render_table(headers, rows) if headers else "") + text)
    if getattr(args, "csv", None):
        reporting.write_csv(args.csv, headers, rows)
    if args.json:
        reporting.write_json(args.json, payload)


def cmd_build(args) -> int:
    if args.list:
        sys.stdout.write("\n".join(catalogue.names()) + "\n")
        return 0
    ball = _resolve(args)
    issues = validate_ball(ball)
    table = growth.growth_counts(ball)
    payload = {
        "name": ball.name,
        "horizon": ball.horizon,
        "vertices": ball.num_vertices,
        "edges": ball.num_edges,
        "complete": ball.complete,
        "base_degree": int(ball.degrees[ball.base_index]),
        "growth": [int(x) for x in table],
        "issues": issues,
    }
    rows = [(k, payload[k]) for k in ("name", "horizon", "vertices", "edges", "complete", "base_degree")]
    text = "issues:\n" + "".join(f"  {s}\n" for s in issues) if issues else ""
    _emit(args, payload, ["property", "value"], rows, text)
    return 1 if issues else 0


def cmd_growth(args) -> int:
    ball = _resolve(args)
    table = growth.growth_counts(ball)
    sa = growth.superadditivity_report(ball)
    payload = {
        "name": ball.name,
        "growth": [int(x) for x in table],
        "superadditivity": {"limit": sa["limit"], "pairs": len(sa["pairs"]), "all_ok": sa["all_ok"]},
    }
    rows = [(r + 1, int(g)) for r, g in enumerate(table)]
    text = (
        f"superadditivity: {'PASS' if sa['all_ok'] else 'FAIL'}"
        f" ({len(sa['pairs'])} pairs, sums up to {sa['limit']})\n"
    )
    _emit(args, payload, ["radius", "ball_size"], rows, text)
    return 0 if sa["all_ok"] else 1


def cmd_isoperimetry(args) -> int:
    ball = _resolve(args)
    if args.anneal:
        entries = [
            isoperimetry.anneal_min_perimeter(
                ball, k, seed=args.seed, chains=args.chains, budget=args.budget
            )
            for k in range(1, args.kmax + 1)
        ]
    else:
        entries = isoperimetry.profile(ball, args.kmax, cap=args.cap)
    # one record per entry, in the field order of ProfileEntry
    records = [dataclasses.asdict(e) | {"witness": list(e.witness or ())} for e in entries]
    headers = [f.name for f in dataclasses.fields(isoperimetry.ProfileEntry)]
    rows = [tuple((r | {"witness": " ".join(map(str, r["witness"]))}).values()) for r in records]
    _emit(args, {"name": ball.name, "entries": records}, headers, rows)
    return 0


def cmd_constants(args) -> int:
    ball = _resolve(args)
    entries = isoperimetry.profile_or_anneal(
        ball, args.kmax, seed=args.seed, chains=args.chains, budget=args.budget, cap=args.cap
    )
    trace = uncertainty.isoperimetric_constant_trace(ball, entries)
    ascent = uncertainty.uncertainty_ascent(
        ball, seed=args.seed, starts=args.starts, iters=args.iters
    )
    best = trace["best"]
    quotient = float(ascent.value / float(best) ** 2) if best else None
    certified = [
        {"p": p, "alpha": a, "certified": uncertainty.certified_constant(p, a, ball.complete)}
        for p in EXPONENTS
        for a in WEIGHT_POWERS
    ]
    payload = {
        "name": ball.name,
        "isoperimetric": {
            "rows": trace["rows"],
            "best": trace["best"],
            "best_k": trace["best_k"],
            "exact": trace["exact"],
        },
        "uncertainty": {
            "value": ascent.value,
            "start": ascent.start,
            "trace_length": len(ascent.trace),
            "start_values": ascent.start_values,
        },
        "uncertainty_over_isoperimetric_squared": quotient,
        "certified": certified,
    }
    headers = ["k", "radius", "perimeter", "ratio", "running_best", "exact"]
    rows = [tuple(r[h] for h in headers) for r in trace["rows"]]
    text = f"isoperimetric constant estimate: {trace['best']} (k={trace['best_k']})\n"
    text += f"uncertainty constant estimate: {ascent.value!r} (start {ascent.start})\n"
    if quotient is not None:
        text += f"uncertainty over squared isoperimetric: {quotient!r}\n"
    text += reporting.render_table(
        ["p", "alpha", "certified"], [(c["p"], c["alpha"], c["certified"]) for c in certified]
    )
    _emit(args, payload, headers, rows, text)
    return 0


def _float_battery(ball, nfields: int, seed: int, canonical, usable) -> dict[str, int]:
    """Failure counts of the float checks over the float corpus.

    Fields are drawn one at a time and every check runs on a field before
    the next is drawn, so memory does not grow with ``nfields``; the
    checks of a field share one :class:`~groupiso.fields.FloatField`, so
    its gradients and norms are computed once.  ``canonical`` (for the
    additive links) and each of ``usable`` (the admissible weights, for
    the ratios) is a :class:`~groupiso.fields.WeightPowers`.
    """
    bad = dict.fromkeys(("links", "vacuous", "ratio_rows", "ratios", "rule", "poincare"), 0)
    powers = [p for p in EXPONENTS if p > 1]
    for i in range(nfields):
        field = fields.FloatField(ball, corpus.float_field(ball, i, seed, zero_mean=ball.complete))
        # keep the counts only: the rows would outlive the field
        for g in uncertainty.additive_link_report(field, canonical)["grids"]:
            bad["links"] += not g["all_ok"]
            bad["vacuous"] += g["vacuous"]
        for weight in usable:
            rows = uncertainty.hpw_report(field, weight)["rows"]
            bad["ratio_rows"] += len(rows)
            bad["ratios"] += sum(not r["ok"] for r in rows)
        bad["rule"] += sum(not fields.power_leibniz_report(field, p)["ok"] for p in powers)
        if ball.complete:
            rows = uncertainty.poincare_report(field)["rows"]
            bad["poincare"] += sum(not r["ok"] for r in rows)
    return bad


def _verify_checks(ball, nfields: int, seed: int) -> list[dict]:
    checks: list[dict] = []

    def add(name, ok, detail):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    issues = validate_ball(ball)
    add("window-structure", not issues, f"{len(issues)} issues")

    exact = corpus.rational_fields(ball, nfields, seed)
    bad = sum(1 for f in exact if not fields.coarea_report(ball, f)["ok"])
    add("coarea", bad == 0, f"{len(exact)} fields, {bad} failures")

    bad = 0
    for f in exact:
        ind = {v: Fraction(1) for v in f}
        lhs = fields.l1_norm_exact(fields.grad_modulus_exact(ball, ind))
        if lhs != isoperimetry.set_perimeter(ball, ind):
            bad += 1
    add("indicator-perimeter", bad == 0, f"{len(exact)} sets, {bad} failures")

    sa = growth.superadditivity_report(ball)
    add("superadditivity", sa["all_ok"], f"{len(sa['pairs'])} pairs")

    weights = [("canonical", uncertainty.canonical_weight(ball))]
    pool = corpus.field_pool(ball)
    far = int(pool[np.argmax(ball.dist[pool])])
    if far != ball.base_index:
        weights.append(("multipoint", uncertainty.multipoint_weight(ball, [ball.base_index, far])))
    # each weight's powers are taken once for the window
    weights = [(wname, w, fields.WeightPowers(w)) for wname, w in weights]
    usable = []
    for wname, w, wpow in weights:
        rep = uncertainty.admissibility_report(ball, w)
        add(f"admissibility-{wname}", rep["admissible"], f"{len(rep['rows'])} radii")
        if rep["admissible"]:
            usable.append(wpow)

    floats = _float_battery(ball, nfields, seed, weights[0][2], usable)
    add(
        "additive-links", floats["links"] == 0,
        f"{nfields} fields x {len(EXPONENTS) * len(WEIGHT_POWERS)} grids, {floats['links']} failures,"
        f" {floats['vacuous']} vacuous",
    )
    add(
        "uncertainty-ratio", floats["ratios"] == 0,
        f"{floats['ratio_rows']} ratios, {floats['ratios']} failures",
    )
    add("power-rule", floats["rule"] == 0, f"{nfields} fields, {floats['rule']} failures")

    if ball.complete:
        zexact = corpus.rational_fields(ball, nfields, seed + 1, zero_mean=True)
        bad = sum(
            1
            for f in zexact
            if not (
                (rep := fields.median_report(ball, f))["markov_ok"]
                and rep["shift_ok"] is not False
            )
        )
        add("median", bad == 0, f"{len(zexact)} fields, {bad} failures")

        add(
            "poincare", floats["poincare"] == 0,
            f"{nfields} fields x {len(EXPONENTS)} exponents, {floats['poincare']} failures",
        )

        if ball.system is not None:
            orbitals = growth.translation_maps(ball)
            if not orbitals[1]:
                add("translation", True, "skipped: translations are not graph automorphisms")
            else:
                bad = count = 0
                for f in exact[:20]:
                    rows = growth.translation_report(ball, f, orbitals)["rows"]
                    count += len(rows)
                    bad += sum(not r["ok"] for r in rows)
                add("translation", bad == 0, f"{count} translates, {bad} failures")
            if ball.system.kind == "cayley":
                try:
                    dc = isoperimetry.double_counting_report(ball, orbitals)
                except isoperimetry.WorkCapError:
                    pass  # too large a group to check exhaustively: no line
                else:
                    add("double-counting", dc["all_ok"], f"{dc['checked']} pairs, min slack {dc['min_slack']}")

    return checks


def cmd_verify(args) -> int:
    ball = _resolve(args)
    if ball.num_edges == 0:
        raise ValueError(f"{ball.name}: the window has no edges, so there is nothing to verify")
    checks = _verify_checks(ball, args.fields, args.seed)
    all_ok = all(c["ok"] for c in checks)
    lines = [
        f"{c['name']}: {'PASS' if c['ok'] else 'FAIL'} ({c['detail']})" for c in checks
    ]
    text = "\n".join(lines) + "\n"
    text += f"verify {ball.name}: {'PASS' if all_ok else 'FAIL'}\n"
    payload = {"name": ball.name, "checks": checks, "all_ok": all_ok}
    _emit(args, payload, None, None, text)
    return 0 if all_ok else 1


def cmd_corpus(args) -> int:
    ball = _resolve(args)
    if args.kind == "exact":
        data = corpus.rational_fields(ball, args.fields, args.seed, zero_mean=args.zero_mean)
        rows = corpus.exact_rows(data)
    else:
        data = corpus.float_fields(ball, args.fields, args.seed, zero_mean=args.zero_mean)
        rows = corpus.float_rows(data)
    payload = {"name": ball.name, "kind": args.kind, "rows": [list(r) for r in rows]}
    _emit(args, payload, ["field", "vertex", "value"], rows)
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error ends like every other error: one ``error:`` line, exit
    code 2, no usage lines; the subcommand parsers are of this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="groupiso",
        description="Cayley/Schreier windows, isoperimetric profiles, uncertainty constants",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="explore a window and summarize it")
    _add_instance_args(p).add_argument(
        "--list", action="store_true", help="list catalogue names and exit"
    )
    p.set_defaults(func=cmd_build)

    p = subs.add_parser("growth", help="growth table and superadditivity")
    _add_instance_args(p)
    p.add_argument("--csv")
    p.set_defaults(func=cmd_growth)

    p = subs.add_parser("isoperimetry", help="exact or annealed perimeter profiles")
    _add_instance_args(p)
    _add_profile_args(p, kmax=4, cap=isoperimetry.CAP)
    p.add_argument("--anneal", action="store_true")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_isoperimetry)

    p = subs.add_parser("constants", help="extremal constant estimates")
    _add_instance_args(p)
    _add_profile_args(p, kmax=6, cap=2_000_000)
    p.add_argument("--starts", type=int, default=4)
    p.add_argument("--iters", type=int, default=300)
    p.set_defaults(func=cmd_constants)

    p = subs.add_parser("verify", help="identity and inequality battery")
    _add_instance_args(p)
    p.add_argument("--fields", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("corpus", help="emit the deterministic field corpus")
    _add_instance_args(p)
    p.add_argument("--kind", choices=("exact", "float"), default="exact")
    p.add_argument("--fields", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zero-mean", action="store_true")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        for name, least in _LEAST.items():
            value = getattr(args, name, None)
            if value is not None and value < least:
                raise ValueError(f"--{name.replace('_', '-')} must be at least {least}")
        return args.func(args)
    except (isoperimetry.WorkCapError, ResourceCapError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        sys.stderr.write(f"error: {message}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
