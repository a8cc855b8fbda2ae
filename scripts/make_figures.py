#!/usr/bin/env python3
"""Regenerate every pinned figure dataset (distribution CSV, arc CSV, SVG).

Each figure id produces three files in the output directory:

    figK.csv        x, simulated mass at t=--steps, spectral limit mass
    figK_arcs.csv   eigenphase branches under the one-parameter sweep
    figK.svg        bar chart of the spectral limit distribution (nu_inf)

Uses the same code path as ``qwtrap figure --id K --out ... --svg`` so the
output here is byte-identical to the CLI's.
"""

import argparse
import pathlib
import sys

from qwtrap.cli import DEFAULT_STEPS, run
from qwtrap.figures import PRESETS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", default="figures", help="output directory (default: figures/)")
    ap.add_argument("--steps", type=int, default=DEFAULT_STEPS, help="evolution time for the simulated overlay")
    ap.add_argument("--ids", type=int, nargs="*", default=None, help="subset of figure ids (default: all)")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ids = args.ids if args.ids else [p.fig_id for p in PRESETS]

    status = 0
    for fig_id in ids:
        out = outdir / f"fig{fig_id}.csv"
        code = run([
            "figure", "--id", str(fig_id),
            "--steps", str(args.steps),
            "--out", str(out), "--svg",
        ])
        if code != 0:
            print(f"fig{fig_id}: FAILED (exit {code})", file=sys.stderr)
            status = 1
        else:
            print(f"fig{fig_id}: wrote {out}, {out.with_name(out.stem + '_arcs.csv')}, {out.with_suffix('.svg')}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
