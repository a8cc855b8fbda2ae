#!/usr/bin/env python3
"""Convergence of the finite-horizon time average to the spectral limit.

For one pinned figure preset, compares two finite-horizon averages over
a window |x| <= W against the closed-form limit
sum_lambda |<Psi^lambda, Psi_0>|^2 ||Psi^lambda(x)||^2 for a ladder of
horizons T: the plain Cesaro average A_T = (1/T) sum_{t<T} mu_t(x), and
the late window, the average over steps h .. T-1 with h = T // 2 that
``qwtrap verify`` checks.  The plain deviation decays like 1/T when the
point spectrum is nonempty; the late window equals 2 A_T - A_{T/2} for
even T, which cancels that 1/T term.  For the zero-trapping presets both
sides vanish on the window as T grows.
"""

import argparse

from qwtrap.figures import preset
from qwtrap.walk import WalkState, evolve, time_averaged


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--id", type=int, default=1, help="figure preset id 1..7 (default: 1)")
    ap.add_argument("--window", type=int, default=20, help="compare masses on |x| <= window")
    ap.add_argument("--horizons", type=int, nargs="*", default=[125, 250, 500, 1000, 2000],
                    help="Cesaro horizons T")
    ap.add_argument("--out", default=None, help="optional CSV output path")
    args = ap.parse_args()

    src = preset(args.id)
    field = src.field()
    rep = src.report()
    exact = rep.limit_window(-args.window, args.window)
    state = WalkState.point(src.psi[0], src.psi[1])

    def deviation(avg):
        return max(abs(avg.mass_at(x) - exact.mass_at(x))
                   for x in range(-args.window, args.window + 1))

    rows = []
    for horizon in args.horizons:
        half = horizon // 2
        late = time_averaged(evolve(state, field, half), field, horizon - half)
        rows.append((horizon, deviation(time_averaged(state, field, horizon)), deviation(late)))

    print(f"figure {args.id}: trapping class {rep.trapping_class.value}, "
          f"{len(rep.eigenphases)} eigenphase(s), window |x| <= {args.window}")
    print(f"{'T':>6}  {'sup |avg_T - limit|':>20}  {'T * dev':>12}  {'sup |late_T - limit|':>20}")
    for horizon, dev, late in rows:
        print(f"{horizon:>6}  {dev:>20.6e}  {horizon * dev:>12.4f}  {late:>20.6e}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("T,sup_deviation,late_deviation\n")
            for horizon, dev, late in rows:
                fh.write(f"{horizon},{dev:.15g},{late:.15g}\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
