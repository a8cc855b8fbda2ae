#!/usr/bin/env python3
"""Per-layer timing of propagation: ``evolve`` and ``time_averaged`` over a T ladder.

For one pinned figure preset and its point state at the origin, times
``evolve(state, field, T)`` and ``time_averaged(state, field, T)`` for each
horizon ``T`` and prints the best of ``REPEAT`` runs, in ms per call and
in microseconds per step.  It profiles one tree across horizons; it does
not compare two trees: on a shared host best-of-5 of the same code read
0.86 to 1.70 ms at ``T`` = 250 in separate processes.  Two trees are
compared with alternating pairs of benchmark runs (``bench/run.py``), one
tree then the other, and the ratio within each pair.
``--modulus A`` swaps the preset's field for a single-defect field whose
three coins have ``|alpha| = A``: the cone's edge falls like ``A**t``, so a
small ``A`` drives the outer tails below the kernels' flush floor early,
and both kernels flush from then on (past step 448 with ``A`` = 0.3).

    PYTHONPATH=src python scripts/walk_timing.py --id 1 --horizons 250 1000 2000
    PYTHONPATH=src python scripts/walk_timing.py --modulus 0.3 --horizons 1000
"""

import argparse
import cmath
import math
import time

from qwtrap.algebra import make_coin
from qwtrap.figures import preset
from qwtrap.walk import WalkState, defect_field, evolve, time_averaged

#: runs per timing; the fastest is reported
REPEAT = 5


def best_of(fn) -> float:
    """Smallest wall time of ``REPEAT`` calls of ``fn``, in seconds."""
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def modulus_field(modulus: float):
    """Single-defect field of three coins with ``|alpha| = modulus`` and distinct phases."""
    beta = math.sqrt(1.0 - modulus**2)
    return defect_field(*(
        make_coin(modulus * cmath.exp(1j * a), beta * cmath.exp(1j * b), delta)
        for a, b, delta in ((0.3, 1.1, 0.0), (1.7, 0.4, 2.0), (2.9, 2.2, 4.0))
    ))


def modulus(text: str) -> float:
    """``--modulus`` value: a coin modulus in (0, 1]."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--id", type=int, default=1, help="figure preset id 1..7 (default: 1)")
    ap.add_argument("--horizons", type=int, nargs="+", default=[250, 1000, 2000, 4000],
                    help="step counts T (default: 250 1000 2000 4000)")
    ap.add_argument("--modulus", type=modulus, default=None,
                    help="run a single-defect field with |alpha| = A on its three coins instead of the preset's")
    args = ap.parse_args()

    src = preset(args.id)
    field = src.field() if args.modulus is None else modulus_field(args.modulus)
    state = WalkState.point(src.psi[0], src.psi[1])
    title = f"figure {args.id}" if args.modulus is None else f"single defect, |alpha| = {args.modulus}"
    print(f"{title}: best of {REPEAT}")
    print(f"{'kernel':>14}  {'T':>6}  {'ms':>10}  {'us/step':>9}")
    for name, fn in (("evolve", evolve), ("time_averaged", time_averaged)):
        for horizon in args.horizons:
            secs = best_of(lambda: fn(state, field, horizon))
            print(f"{name:>14}  {horizon:>6}  {secs * 1e3:>10.3f}  {secs * 1e6 / horizon:>9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
