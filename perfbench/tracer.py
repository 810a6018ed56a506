"""Per-layer spans recorded from outside the ``groupiso`` package.

The tracer wraps public functions of the package modules (the layers)
and leaves ``src/`` untouched.  Modules such as ``cli``, ``growth`` and
``uncertainty`` import functions by name, so a function is replaced at
every module attribute that holds it, and put back afterwards.

Each probe names the time bucket that receives the *self time* of its
spans: the span's duration minus the part covered by probed calls made
inside it.  Self times of all spans add up to the time covered by the
outermost spans, so ``command wall - covered`` is the time no probe saw
(reported as ``cli.self_s``).  A probe without a bucket only counts
calls and opens no span.

Spans are aggregated as they close, so memory stays flat however many
calls a command makes.  The tracer assumes one thread, which holds for
the ``--workers 1`` commands the benchmark runs.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def _one(_args, _result) -> float:
    return 1


def _grad_bytes(args, _result) -> float:
    # computed, not measured: each CSR array and the value/output vectors once
    indptr, indices, values, out = args[:4]
    return indptr.nbytes + indices.nbytes + values.nbytes + out.nbytes


@dataclass(frozen=True)
class Probe:
    """One wrapped function: ``groupiso.<module>.<name>``."""

    module: str
    name: str
    bucket: str | None
    counters: tuple[tuple[str, Callable], ...] = ()


PROBES = (
    Probe("groups", "explore", "groups.explore_s",
          (("groups.explore_vertices", lambda a, r: r.num_vertices),)),
    Probe("groups", "validate_ball", "groups.validate_s"),
    Probe("groups", "distances_from", "groups.bfs_s", (("groups.bfs_calls", _one),)),
    Probe("corpus", "field_pool", "corpus.fields_s"),
    Probe("corpus", "rational_fields", "corpus.fields_s", (("corpus.fields", lambda a, r: len(r)),)),
    Probe("corpus", "float_fields", "corpus.fields_s", (("corpus.fields", lambda a, r: len(r)),)),
    Probe("fields", "grad_modulus_exact", "fields.exact_s", (("fields.exact_calls", _one),)),
    Probe("fields", "l1_norm_exact", "fields.exact_s", (("fields.exact_calls", _one),)),
    Probe("fields", "coarea_report", "fields.exact_s", (("fields.exact_calls", _one),)),
    Probe("fields", "median_report", "fields.exact_s", (("fields.exact_calls", _one),)),
    Probe("growth", "translation_report", "growth.translation_s",
          (("growth.translation_reports", _one),)),
    Probe("growth", "translation_maps", "growth.maps_s"),
    Probe("kernels", "grad_modulus_csr", "kernels.grad_s", (
        ("kernels.grad_calls", _one),
        ("kernels.grad_entries", lambda a, r: a[1].shape[0]),
        ("kernels.grad_bytes", _grad_bytes),
    )),
    Probe("kernels", "energy_subgrad_csr", "kernels.subgrad_s", (("kernels.subgrad_calls", _one),)),
    Probe("kernels", "min_perimeter_scan", "kernels.scan_s", (
        ("kernels.scan_leaves", lambda a, r: int(r[1])),
        ("kernels.scan_capped", lambda a, r: int(r[2])),
    )),
    # the walk arrays (positions 8..12) hold one entry per step
    Probe("kernels", "anneal_chain", "kernels.anneal_s",
          (("kernels.anneal_steps", lambda a, r: a[8].shape[0]),)),
    Probe("isoperimetry", "profile", "isoperimetry.profile_s"),
    Probe("isoperimetry", "min_perimeter", "isoperimetry.profile_s"),
    Probe("isoperimetry", "anneal_min_perimeter", "isoperimetry.anneal_s"),
    Probe("uncertainty", "hpw_report", "uncertainty.reports_s", (("uncertainty.reports", _one),)),
    Probe("uncertainty", "additive_link_report", "uncertainty.reports_s",
          (("uncertainty.reports", _one),)),
    Probe("uncertainty", "poincare_report", "uncertainty.reports_s", (("uncertainty.reports", _one),)),
    Probe("uncertainty", "admissibility_report", "uncertainty.reports_s",
          (("uncertainty.reports", _one),)),
    Probe("uncertainty", "uncertainty_ascent", "uncertainty.ascent_s"),
    # the ascent is the only caller; one call per ascent iteration
    Probe("fields", "energy_subgradient", None, (("uncertainty.ascent_iters", _one),)),
)

BUCKETS = tuple(dict.fromkeys(p.bucket for p in PROBES if p.bucket))
COUNTERS = tuple(dict.fromkeys(name for p in PROBES for name, _ in p.counters))


class Tracer:
    """Accumulates span self times per bucket and counters per name."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.covered_s = 0.0
        # time covered by probed children, one entry per open span
        self._open: list[float] = []

    def reset(self) -> None:
        """Start a new command; the installed wrappers stay valid."""
        self.self_s.clear()
        self.incl_s.clear()
        self.counts.clear()
        self.covered_s = 0.0
        self._open.clear()

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        counters = probe.counters
        counts = self.counts

        def count(args, result):
            for name, fn_count in counters:
                counts[name] += fn_count(args, result)

        if probe.bucket is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(args, result)
                return result

            return counted

        bucket = probe.bucket
        open_spans = self._open
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.self_s[bucket] += dt - open_spans.pop()
                self.incl_s[bucket] += dt
                if open_spans:
                    open_spans[-1] += dt
                else:
                    self.covered_s += dt
            count(args, result)
            return result

        return spanned

    @contextmanager
    def installed(self):
        """Replace every probed function while the block runs."""
        # a module first imported inside the block would bind wrappers
        # for good; the cli imports every layer
        importlib.import_module("groupiso.cli")
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "groupiso" or name.startswith("groupiso.")
        }
        patched = []
        try:
            for probe in PROBES:
                original = getattr(mods[f"groupiso.{probe.module}"], probe.name)
                wrapper = self._wrap(original, probe)
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)
