#!/usr/bin/env python3
"""Survey the spectral solver on 457 fields and compare two surveys.

The fields are the seven figure presets and, for each of the
``numpy.random.default_rng`` seeds 7, 11 and 13, 150 random fields drawn
by ``random_field`` of ``tests/conftest.py``, with ``max_cut = 1 + k % 9``
for draw ``k``.  Seed 7's first 60 draws are the test suite's wide random cores.
For every field the survey records the eigenphases that
``find_eigenphases`` returns and the strong-trapping verdict of
``analyze``, and writes them to ``--out`` as JSON.

A root is *unpaired* when no root of its field lies within ``DEDUPE_TOL``
of its partner ``lam + pi`` (mod ``2*pi``): the point spectrum is invariant
under ``lam -> lam + pi``, so each one marks a partner the solver could not
certify.  A root is *uncertified* when ``eigen_residual`` at the reported
double is not below ``RESIDUAL_ACCEPT`` (or the double is not admissible):
the solver reported a phase that its own acceptance rule rejects, as a
root moved onto the 0/2*pi seam can be.  The summary line counts both.

With ``--compare OLD.json`` it also reports, against an earlier survey,
the fields whose phase count or verdict differs, the largest phase gap
(circular) on the fields whose counts agree, and every field with unpaired
or uncertified roots in either survey.  The exit status is 1 when a count
or verdict differs or the gap exceeds ``PHASE_TOL`` (1e-12); unpaired and
uncertified roots alone do not change it.

    python scripts/solver_survey.py --out survey.json
    python scripts/solver_survey.py --out new.json --compare survey.json
"""

import argparse
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from qwtrap.figures import PRESETS
from qwtrap.spectral import DEDUPE_TOL, RESIDUAL_ACCEPT, NotInAdmissibleSetError, analyze, circular_gap, eigen_residual

SEEDS = (7, 11, 13)
DRAWS = 150
#: largest phase gap that ``--compare`` accepts
PHASE_TOL = 1e-12


def _conftest():
    """The test suite's ``conftest`` module, whose ``random_field`` draws the fields."""
    path = Path(__file__).resolve().parent.parent / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("qwtrap_test_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def survey_fields(presets_only=False):
    """``(name, field)`` pairs: the presets, then the seeded random draws."""
    fields = [(f"preset {p.fig_id}", p.field()) for p in PRESETS]
    if not presets_only:
        random_field = _conftest().random_field
        for seed in SEEDS:
            rng = np.random.default_rng(seed)
            fields += [(f"seed {seed} draw {k}", random_field(rng, 1 + k % 9)) for k in range(DRAWS)]
    return fields


def survey(fields):
    out = []
    for name, field in fields.items():
        rep = analyze(field)
        out.append({
            "field": name,
            "phases": [p.lam for p in rep.eigenpairs],
            "strongly_trapped": rep.strongly_trapped,
        })
    return out


def unpaired(phases):
    """The phases with no phase within ``DEDUPE_TOL`` of ``lam + pi`` (mod ``2*pi``)."""
    return [a for a in phases if not any(circular_gap(b, a + math.pi) <= DEDUPE_TOL for b in phases)]


def uncertified(field, phases):
    """The phases whose ``eigen_residual`` on ``field`` is not below ``RESIDUAL_ACCEPT``."""
    def residual(lam):
        try:
            return eigen_residual(field, lam)
        except NotInAdmissibleSetError:
            return math.inf

    return [lam for lam in phases if not residual(lam) < RESIDUAL_ACCEPT]


def compare(new, old):
    """Fields whose count or verdict differs, the largest phase gap elsewhere
    and the number of phases there that are bit-identical."""
    old_by_name = {r["field"]: r for r in old}
    counts, verdicts, gap, same = [], [], 0.0, 0
    for r in new:
        o = old_by_name.get(r["field"])
        if o is None or len(o["phases"]) != len(r["phases"]):
            counts.append(r["field"])
            continue
        if o["strongly_trapped"] != r["strongly_trapped"]:
            verdicts.append(r["field"])
        for a, b in zip(r["phases"], o["phases"]):
            gap = max(gap, circular_gap(a, b))
            same += a == b
    counts += sorted(set(old_by_name) - {r["field"] for r in new})
    return counts, verdicts, gap, same


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file for this survey")
    ap.add_argument("--compare", default=None, help="earlier survey JSON to compare with")
    ap.add_argument("--presets-only", action="store_true", help="survey the seven presets only")
    args = ap.parse_args()

    fields = dict(survey_fields(args.presets_only))
    rows = survey(fields)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
    total = sum(len(r["phases"]) for r in rows)
    trapped = sum(r["strongly_trapped"] for r in rows)
    n_unpaired = sum(len(unpaired(r["phases"])) for r in rows)
    n_uncertified = sum(len(uncertified(fields[r["field"]], r["phases"])) for r in rows)
    print(f"{len(rows)} fields, {total} phases, {n_unpaired} unpaired, {n_uncertified} uncertified, "
          f"{trapped} strongly trapped; wrote {args.out}")
    if args.compare is None:
        return 0

    with open(args.compare, encoding="utf-8") as fh:
        old = json.load(fh)
    counts, verdicts, gap, same = compare(rows, old)
    print(f"against {args.compare}: {len(counts)} count differences, "
          f"{len(verdicts)} verdict differences, largest phase gap {gap:.3g}, "
          f"{same} of {total} phases bit-identical")
    for name in counts:
        print(f"  count differs: {name}")
    for name in verdicts:
        print(f"  verdict differs: {name}")

    def roots(kind, name, phases):
        return unpaired(phases) if kind == "unpaired" else uncertified(fields[name], phases)

    old_by_name = {r["field"]: r["phases"] for r in old}
    for kind in ("unpaired", "uncertified"):
        for r in rows:
            here = len(roots(kind, r["field"], r["phases"]))
            there = len(roots(kind, r["field"], old_by_name.get(r["field"], [])))
            if here or there:
                print(f"  {kind} roots: {r['field']}: {here} here, {there} in {args.compare}")
    return 1 if counts or verdicts or gap > PHASE_TOL else 0


if __name__ == "__main__":
    raise SystemExit(main())
