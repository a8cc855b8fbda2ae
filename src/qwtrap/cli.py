"""Command-line front end: simulate walks, locate spectra, emit figure data.

Each subcommand accepts only the flags it reads (``_COMMANDS`` lists them);
any other flag is a usage error.  ``simulate``, ``eigen``, ``limit``,
``trap`` and ``model`` read one coin field, from ``--config`` or else the
fig1 reference field (for ``model`` the representative figure of its
family).  ``model`` reports on the field's minus, origin and plus coins and
rejects a field with core sites off the origin.  ``figure`` always uses
its preset and ``verify`` the whole reference catalogue.

Configuration files are flat INI-style text with one section per coin
role::

    [minus]
    alpha = 0.7071067811865476,0
    beta = 0.7071067811865476,0
    delta = 0

    [origin]
    ...

Roles ``minus`` and ``plus`` set the two asymptotic coins, ``origin`` (or
``middle_0``) the site-0 coin, and optional ``middle_<k>`` sections
override further core sites (unspecified core sites fall back to the
nearest asymptote, site 0 to the plus side).  Each coin may be set by one
section only.  Complex entries are ``re,im`` pairs; ``delta`` is a plain
float.  ``--psi`` overrides the initial state, which is ``(1, 0)`` with a
config and the preset's state without one.

Exit codes: 0 on success, 1 on invalid input or configuration, 2 on an
internal numerical degeneracy, 3 when ``verify`` ran and any check failed
(its output still reports every check).
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import os
import sys
from functools import partial

import numpy as np

from .algebra import Coin, make_coin
from .walk import CoinField, Distribution, WalkState, evolve, probability, time_averaged
from .spectral import analyze, find_eigenphases, limit_distribution
from .models import (
    MODEL_FUNCTIONS,
    UNIT_PSI_TOL,
    DegeneracyError,
    ModelReport,
    family_report,
)
from .figures import PRESETS, FigurePreset, preset as figure_preset
from .verification import DEFAULT_WINDOW, run_all, write_reports

DEFAULT_STEPS = 70

#: exit code of a ``verify`` run in which any check failed
EXIT_CHECK_FAILED = 3

#: representative figure per closed-form family, used when ``model`` runs
#: without a config file: the family's last preset, in which every branch lives
_MODEL_DEFAULT_FIG = {p.model_id: p.fig_id for p in PRESETS}


def _parse_complex(text: str, name: str) -> complex:
    parts = [p.strip() for p in str(text).split(",")]
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ValueError(f"{name}: expected a complex number as 're,im', got {text!r}")


def _parse_psi(text: str) -> tuple[complex, complex]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(f"--psi: expected four numbers 're,im,re,im', got {text!r}")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"--psi: expected four numbers 're,im,re,im', got {text!r}") from None
    q1, q2 = complex(vals[0], vals[1]), complex(vals[2], vals[3])
    nrm = abs(q1) ** 2 + abs(q2) ** 2
    if not abs(nrm - 1.0) <= UNIT_PSI_TOL:  # NaN fails too
        raise ValueError(f"--psi: state must have unit norm, got ||psi||^2 = {nrm:.6g}")
    return q1, q2


def _coin_from_section(section, name: str) -> Coin:
    for key in ("alpha", "beta"):
        if key not in section:
            raise ValueError(f"section [{name}] is missing '{key}'")
    alpha = _parse_complex(section["alpha"], f"[{name}] alpha")
    beta = _parse_complex(section["beta"], f"[{name}] beta")
    try:
        delta = float(section.get("delta", "0"))
    except ValueError:
        raise ValueError(f"[{name}] delta: expected a float, got {section.get('delta')!r}") from None
    try:
        return make_coin(alpha, beta, delta)
    except ValueError as exc:
        raise ValueError(f"section [{name}]: {exc}") from exc


def _read_field(path: str) -> CoinField:
    """The coin field a config file describes.

    ``[origin]`` and ``[middle_0]`` both set the site-0 coin, which is the
    plus coin when neither is given.
    """
    cp = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ValueError(f"config {path}: {exc}") from exc
    coins: dict = {}
    sections: dict = {}
    for section in cp.sections():
        low = section.lower()
        if low in ("minus", "plus"):
            role = low
        elif low == "origin":
            role = 0
        elif low.startswith("middle_"):
            try:
                role = int(low[len("middle_"):])
            except ValueError:
                raise ValueError(f"section [{section}]: middle sections are 'middle_<int>'") from None
        else:
            raise ValueError(f"unknown config section [{section}]")
        if role in sections:
            raise ValueError(f"sections [{sections[role]}] and [{section}] set the same coin")
        sections[role] = section
        coins[role] = _coin_from_section(cp[section], section)
    for side in ("minus", "plus"):
        if side not in coins:
            raise ValueError(f"config must define the [{side}] coin")
    minus, plus = coins.pop("minus"), coins.pop("plus")
    sites = {0: plus, **coins}  # unset, site 0 takes the plus side
    x_minus = min(-1, min(sites) - 1)
    x_plus = max(1, max(sites) + 1)
    middle = tuple(
        sites.get(x, minus if x < 0 else plus) for x in range(x_minus + 1, x_plus)
    )
    return CoinField(x_minus, x_plus, middle, minus, plus)


def _source(
    args: argparse.Namespace, src: FigurePreset = PRESETS[0]
) -> tuple[CoinField, tuple[complex, complex]]:
    """Field and initial state from ``--config`` or preset ``src``.

    ``--psi`` overrides the state; commands without ``--config`` or
    ``--psi`` take the preset's.
    """
    config, psi = getattr(args, "config", None), getattr(args, "psi", None)
    if config is not None:
        field, default_psi = _read_field(config), (complex(1.0), complex(0.0))
    else:
        field, default_psi = src.field(), src.psi
    return field, _parse_psi(psi) if psi is not None else default_psi


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_table(header: str, rows) -> str:
    out = [header]
    for row in rows:
        out.append(",".join(_fmt(v) for v in row))
    return "\n".join(out) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _records(header: str, rows) -> list[dict]:
    """One object per row, keyed by the CSV ``header``'s column names."""
    keys = header.split(",")
    return [dict(zip(keys, row)) for row in rows]


def _emit(args: argparse.Namespace, header: str, rows, doc=None) -> None:
    """Write ``rows`` as CSV under ``header``, or ``doc`` as indented JSON.

    ``doc`` defaults to the rows as objects keyed by the header.
    """
    if args.format == "json":
        text = json.dumps(_records(header, rows) if doc is None else doc, indent=1) + "\n"
    else:
        text = _csv_table(header, rows)
    _write_text(args.out, text)


def _svg_bars(xs, masses, title: str) -> str:
    """Minimal standalone bar chart: position on x, mass as bar height."""
    width, height, margin = 800.0, 400.0, 45.0
    top = max(max(masses, default=0.0), 1e-300)
    n = max(len(xs), 1)
    bar = (width - 2 * margin) / n
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" font-size="13">{title}</text>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for i, (x, m) in enumerate(zip(xs, masses)):
        h = (height - 2 * margin) * (m / top)
        x0 = margin + i * bar
        parts.append(
            f'<rect x="{x0:.2f}" y="{height - margin - h:.2f}" width="{bar * 0.85:.2f}" '
            f'height="{h:.2f}" fill="steelblue"><title>x={x} mass={m:.6g}</title></rect>'
        )
    if xs:
        parts.append(
            f'<text x="{margin:.1f}" y="{height - margin + 16:.1f}" font-size="11">{xs[0]}</text>'
        )
        parts.append(
            f'<text x="{width - margin:.1f}" y="{height - margin + 16:.1f}" '
            f'text-anchor="end" font-size="11">{xs[-1]}</text>'
        )
        parts.append(
            f'<text x="{margin - 4:.1f}" y="{margin:.1f}" text-anchor="end" '
            f'font-size="11">{top:.3g}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _maybe_svg(args: argparse.Namespace, rows, col: int, title: str) -> None:
    """Chart column ``col`` of the emitted ``rows`` against their first column."""
    if not args.svg:
        return
    chart = _svg_bars([r[0] for r in rows], [r[col] for r in rows], title)
    _write_text(os.path.splitext(args.out)[0] + ".svg", chart)


def _trimmed(dist: Distribution) -> Distribution:
    """Drop exactly-zero margins (sites outside the light cone)."""
    nz = np.nonzero(dist.masses)[0]
    if nz.size == 0:
        return Distribution(dist.lo, np.zeros(0))
    return Distribution(int(dist.lo + nz[0]), dist.masses[nz[0] : nz[-1] + 1])


def _rows(dist: Distribution) -> list[tuple[int, float]]:
    return list(zip(dist.sites().tolist(), dist.masses.tolist()))


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _cmd_simulate(args: argparse.Namespace) -> int:
    field, psi = _source(args)
    rows = _rows(_trimmed(probability(evolve(WalkState.point(*psi), field, args.steps))))
    _emit(args, "x,mass", rows)
    _maybe_svg(args, rows, 1, f"position distribution, t = {args.steps}")
    return 0


def _cmd_eigen(args: argparse.Namespace) -> int:
    phases = find_eigenphases(_source(args)[0])
    if args.format == "json":
        _write_text(args.out, json.dumps([float(p) for p in phases]) + "\n")
    else:
        _write_text(args.out, _csv_table("lambda", [(p,) for p in phases]))
    return 0


def _cmd_limit(args: argparse.Namespace) -> int:
    field, psi = _source(args)
    initial = WalkState.point(*psi)
    rep = analyze(field)
    w = args.window
    exact = limit_distribution(rep.eigenpairs, initial, window=(-w, w))
    if args.horizon is None:
        header, rows = "x,mass", _rows(exact)
    else:
        empirical = time_averaged(initial, field, args.horizon)
        header = "x,mass,empirical"
        rows = [(int(x), float(exact.mass_at(x)), float(empirical.mass_at(x))) for x in range(-w, w + 1)]
    _emit(args, header, rows)
    _maybe_svg(args, rows, 1, "time-averaged limit distribution")
    return 0


def _cmd_trap(args: argparse.Namespace) -> int:
    rep = analyze(_source(args)[0])
    pairs = rep.eigenpairs
    verdict = rep.strongly_trapped
    # no origin value is zero (its psi_R(0) has modulus 1/sqrt(2) before scaling): the verdict fixes the rank
    rank = 2 if verdict else min(len(pairs), 1)
    origin_vals = np.array([p.vector().value(0) for p in pairs]).reshape(-1, 2)
    svals = np.linalg.svd(origin_vals, compute_uv=False) if pairs else np.zeros(0)
    doc = {
        "strongly_trapped": verdict,
        "eigenphases": [p.lam for p in pairs],
        "origin_rank": rank,
        "origin_singular_values": [float(s) for s in svals],
    }
    rows = [("strongly_trapped", str(verdict).lower()), ("origin_rank", rank)]
    rows += [(f"lambda_{k}", p) for k, p in enumerate(doc["eigenphases"])]
    rows += [(f"sigma_{k}", s) for k, s in enumerate(doc["origin_singular_values"])]
    _emit(args, "key,value", rows, doc)
    return 0


def _report_doc(rep: ModelReport, rows) -> dict:
    return {
        "model": rep.model_id,
        "exists": rep.exists,
        "branch_plus": rep.branch_plus,
        "branch_minus": rep.branch_minus,
        "trapping_class": rep.trapping_class.value,
        "eigenphases": [float(p) for p in rep.eigenphases],
        "branch_of": list(rep.branch_of),
        "scalars": {k: float(v) for k, v in rep.scalars.items()},
        "coefficients": {k: float(v) for k, v in rep.coefficients.items()},
        "normalizers": [_complex_pair(complex(f.normalizer)) for f in rep.closed_forms],
        "norm_corrections": [float(f.norm_correction) for f in rep.closed_forms],
        "psi": [_complex_pair(p) for p in rep.psi],
        "limit_distribution": _records("x,mass", rows),
    }


def _cmd_model(args: argparse.Namespace) -> int:
    k = args.id
    if k is None:
        raise ValueError("model needs --id 1..5")
    if k not in MODEL_FUNCTIONS:
        raise ValueError(f"model id must be 1..5, got {k}")
    field, psi = _source(args, figure_preset(_MODEL_DEFAULT_FIG[k]))
    if (field.x_minus, field.x_plus) != (-1, 1):
        names = ", ".join(f"[middle_{x}]" for x in (field.x_minus + 1, field.x_plus - 1) if x)
        raise ValueError(f"family reports describe single-defect fields; the config also sets {names}")
    rep = family_report(k, field.left, field.coin(0), field.right, psi)
    rows = _rows(rep.limit_window(-args.window, args.window))
    _emit(args, "x,mass", rows, _report_doc(rep, rows) if args.format == "json" else None)
    _maybe_svg(args, rows, 1, f"family {rep.model_id} limit distribution")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    horizon = {} if args.horizon is None else {"horizon": args.horizon}
    reports = run_all(window=args.window, **horizon)
    buf = io.StringIO()
    write_reports(reports, buf)
    _write_text(args.out, buf.getvalue())
    failed = sum(not r.passed for r in reports)
    print(f"{len(reports)} checks, {failed} failed", file=sys.stderr)
    return EXIT_CHECK_FAILED if failed else 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.id is None:
        raise ValueError("figure needs --id 1..7")
    src = figure_preset(args.id)
    field, psi = _source(args, src)
    rep = src.report(psi)
    w, steps = args.window, args.steps
    state = evolve(WalkState.point(*psi), field, steps)
    prob = probability(state)
    prof = rep.limit_window(-w, w)
    header, arcs_header = f"x,mass_t{steps},nu_inf", "param,branch,lambda"
    rows = [
        (int(x), float(prob.mass_at(x)), float(prof.mass_at(x))) for x in range(-w, w + 1)
    ]
    arcs = src.sweep()
    doc = {
        "figure": src.fig_id,
        "model": src.model_id,
        "title": src.title,
        "sweep_param": src.sweep_param,
        "distribution": _records(header, rows),
        "arcs": _records(arcs_header, arcs),
    }
    _emit(args, header, rows, doc)
    if args.format == "csv":  # the arcs follow on stdout, or go to a ``_arcs`` sibling of --out
        arcs_out = args.out and "{}_arcs{}".format(*os.path.splitext(args.out))
        _write_text(arcs_out, _csv_table(arcs_header, arcs))
    _maybe_svg(args, rows, 2, f"figure {src.fig_id}: {src.title}")
    return 0


def _int_at_least(minimum: int, text: str) -> int:
    """Flag value: an integer ``>= minimum``, so that a bad one names its flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


#: argparse keyword arguments of every flag, by flag name
_FLAGS = {
    "config": dict(metavar="PATH", help="coin field description file"),
    "out": dict(metavar="PATH", help="output path (default stdout)"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "svg": dict(action="store_true", help="also write an SVG bar chart"),
    "steps": dict(type=partial(_int_at_least, 0), default=DEFAULT_STEPS, metavar="N"),
    "horizon": dict(type=partial(_int_at_least, 1), default=None, metavar="T"),
    "window": dict(type=partial(_int_at_least, 0), default=DEFAULT_WINDOW, metavar="W"),
    "id": dict(type=int, default=None, metavar="K"),
    "psi": dict(default=None, metavar="RE,IM,RE,IM", help="initial state at the origin"),
}

#: handler, help text and the flags it reads, by subcommand
_COMMANDS = {
    "simulate": (_cmd_simulate, "probability distribution after --steps walk steps",
                 ("config", "out", "format", "svg", "steps", "psi")),
    "eigen": (_cmd_eigen, "locate all eigenphases of the field", ("config", "out", "format")),
    "limit": (_cmd_limit, "time-averaged limit distribution (add --horizon for the empirical average)",
              ("config", "out", "format", "svg", "horizon", "window", "psi")),
    "trap": (_cmd_trap, "strong-trapping verdict with origin-rank evidence", ("config", "out", "format")),
    "model": (_cmd_model, "closed-form family report, --id 1..5",
              ("config", "out", "format", "svg", "window", "id", "psi")),
    "verify": (_cmd_verify, "cross-check battery over the reference catalogue (JSON lines)",
               ("out", "horizon", "window")),
    "figure": (_cmd_figure, "emit data behind reference figure --id 1..7 (distribution + eigenvalue arcs)",
               ("out", "format", "svg", "steps", "window", "id", "psi")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwtrap",
        description="Two-state quantum walks on the line: simulation, point spectra, trapping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if getattr(args, "svg", False) and args.out is None:  # before the handler writes anything
            raise ValueError("--svg needs --out to derive the chart path")
        return _COMMANDS[args.command][0](args)
    except DegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # the package's own errors subclass ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(run(sys.argv[1:]))
