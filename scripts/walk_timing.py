#!/usr/bin/env python3
"""Per-layer timing of propagation: ``evolve`` and ``time_averaged`` over a T ladder.

For one pinned figure preset and its point state at the origin, times
``evolve(state, field, T)`` and ``time_averaged(state, field, T)`` for each
horizon ``T`` and prints the best of ``REPEAT`` runs, in ms per call and
in microseconds per step.  Best-of-k is the figure to compare between two
trees: on a shared host the slower runs measure the host, not the kernel.

    PYTHONPATH=src python scripts/walk_timing.py --id 1 --horizons 250 1000 2000
"""

import argparse
import time

from qwtrap.figures import preset
from qwtrap.walk import WalkState, evolve, time_averaged

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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--id", type=int, default=1, help="figure preset id 1..7 (default: 1)")
    ap.add_argument("--horizons", type=int, nargs="+", default=[250, 1000, 2000, 4000],
                    help="step counts T (default: 250 1000 2000 4000)")
    args = ap.parse_args()

    src = preset(args.id)
    field = src.field()
    state = WalkState.point(src.psi[0], src.psi[1])
    print(f"figure {args.id}: best of {REPEAT}")
    print(f"{'kernel':>14}  {'T':>6}  {'ms':>10}  {'us/step':>9}")
    for name, fn in (("evolve", evolve), ("time_averaged", time_averaged)):
        for horizon in args.horizons:
            secs = best_of(lambda: fn(state, field, horizon))
            print(f"{name:>14}  {horizon:>6}  {secs * 1e3:>10.3f}  {secs * 1e6 / horizon:>9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
