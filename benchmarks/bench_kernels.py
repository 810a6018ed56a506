"""Timing of the kernel backends.

Runs each hot kernel through the pure-numpy fallback on medium windows
and, when numba imports, through the compiled path as well, with the
speedup.  Invoke as ``python3 benchmarks/bench_kernels.py [--repeat N]``.
"""

import argparse
import time

import numpy as np

from groupiso import catalogue, kernels
from groupiso.isoperimetry import _chain_inputs, _probe_temperature


def _timeit(fn, repeat):
    # warmup covers jit compilation so it never pollutes the timing
    fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_grad(ball, impl):
    rng = np.random.default_rng(0)
    values = rng.standard_normal(ball.num_vertices)
    out = np.zeros_like(values)
    return lambda: impl["grad_modulus"](ball.indptr, ball.indices, values, out)


def bench_subgrad(ball, impl):
    rng = np.random.default_rng(1)
    values = rng.standard_normal(ball.num_vertices)
    gmod = np.abs(rng.standard_normal(ball.num_vertices))
    out = np.zeros_like(values)
    return lambda: impl["energy_subgrad"](ball.indptr, ball.indices, values, gmod, out)


def bench_scan(ball, impl, k):
    cand = np.flatnonzero(ball.interior).astype(np.int64)
    firsts = np.arange(cand.size, dtype=np.int64)
    return lambda: impl["min_perimeter_scan"](
        ball.indptr, ball.indices, cand, k, firsts, 10**9
    )


def bench_anneal(ball, impl, k, budget):
    cand = np.flatnonzero(ball.interior).astype(np.int64)
    mask = np.zeros(ball.num_vertices, np.uint8)
    mask[cand] = 1
    init, probe_rem, probe_add, walk = _chain_inputs(
        np.random.default_rng(2), cand, k, budget
    )
    t0 = _probe_temperature(ball, cand, init, probe_rem, probe_add)
    return lambda: impl["anneal_chain"](
        ball.indptr, ball.indices, mask, cand, init, t0, 0.97, k, *walk
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    heis = catalogue.build("heisenberg")
    plane = catalogue.build("z2")
    ring = catalogue.build("c64")

    cases = [
        (f"grad_modulus {heis.name} n={heis.num_vertices}", bench_grad, (heis,)),
        (f"energy_subgrad {heis.name} n={heis.num_vertices}", bench_subgrad, (heis,)),
        (f"scan {plane.name} k=3 (35990 sets)", bench_scan, (plane, 3)),
        (f"anneal {ring.name} k=8 budget=50000", bench_anneal, (ring, 8, 50_000)),
    ]

    jit = "numba" in kernels.IMPLS
    head = f"{'kernel':44s} {'numpy':>10s}"
    print(head + (f" {'numba':>10s} {'speedup':>8s}" if jit else ""))
    for label, builder, extra in cases:
        t_np = _timeit(builder(extra[0], kernels.IMPLS["numpy"], *extra[1:]), args.repeat)
        row = f"{label:44s} {t_np * 1e3:9.2f}ms"
        if jit:
            t_nb = _timeit(builder(extra[0], kernels.IMPLS["numba"], *extra[1:]), args.repeat)
            row += f" {t_nb * 1e3:9.2f}ms {t_np / t_nb:7.1f}x"
        print(row)


if __name__ == "__main__":
    main()
