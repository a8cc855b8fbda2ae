"""Command-line front end: simulate walks, locate spectra, emit figure data.

Each subcommand accepts only the flags it reads (``_COMMANDS`` lists them);
any other flag is a usage error.  ``simulate``, ``eigen``, ``limit``,
``trap`` and ``model`` read the coin field from ``--config``; without one
they use the fig1 reference field (``model`` the representative figure of
its family).  ``model`` describes single-defect fields only and rejects a
config that sets a ``middle_<k>`` coin off the origin.  ``figure`` always
uses its preset and ``verify`` the whole reference catalogue.

Configuration files are flat INI-style text with one section per coin
role::

    [minus]
    alpha = 0.7071067811865476,0
    beta = 0.7071067811865476,0
    delta = 0

    [origin]
    ...

Roles ``minus`` and ``plus`` set the two asymptotic coins, ``origin`` the
site-0 coin, and optional ``middle_<k>`` sections override further core
sites (unspecified core sites fall back to the nearest asymptote, site 0
to the plus side).  Each coin may be set by one section only.  Complex
entries are ``re,im`` pairs; ``delta`` is a plain float.  ``--psi``
overrides the initial state, which is ``(1, 0)`` with a config and the
preset's state without one.

Exit codes: 0 on success, 1 on invalid input or configuration, 2 on an
internal numerical degeneracy.  ``verify`` reports check outcomes in its
output rather than through the exit code.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import sys

import numpy as np

from .algebra import Coin, make_coin
from .walk import CoinField, Distribution, WalkState, evolve, probability, time_averaged
from .spectral import (
    INDEPENDENCE_TOL,
    NoEigenvalueError,
    NotInAdmissibleSetError,
    analyze,
    find_eigenphases,
    limit_distribution,
)
from .models import (
    FAMILY_ROLES,
    MODEL_FUNCTIONS,
    ConstraintError,
    DegeneracyError,
    ModelReport,
    family_report,
)
from .figures import PRESETS, FigurePreset, preset as figure_preset
from .verification import run_all, write_reports

DEFAULT_STEPS = 70
DEFAULT_HORIZON = 2000
DEFAULT_WINDOW = 20

#: representative figure per closed-form family, used when ``model`` runs
#: without a config file
_MODEL_DEFAULT_FIG = {1: 1, 2: 3, 3: 4, 4: 5, 5: 7}


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
    if abs(nrm - 1.0) > 1e-10:
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


def _read_roles(path: str) -> dict:
    """Coins by role from a config file: 'minus', 'plus', 'origin', ints."""
    cp = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ValueError(f"config {path}: {exc}") from exc
    roles: dict = {}
    sections: dict = {}
    for section in cp.sections():
        low = section.lower()
        if low in ("minus", "plus", "origin"):
            role = low
        elif low.startswith("middle_"):
            try:
                role = int(low[len("middle_"):])
            except ValueError:
                raise ValueError(f"section [{section}]: middle sections are 'middle_<int>'") from None
        else:
            raise ValueError(f"unknown config section [{section}]")
        key = 0 if role == "origin" else role  # [origin] is the site-0 coin
        if key in sections:
            raise ValueError(f"sections [{sections[key]}] and [{section}] set the same coin")
        sections[key] = section
        roles[role] = _coin_from_section(cp[section], section)
    return roles


def _field_from_roles(roles: dict) -> CoinField:
    for side in ("minus", "plus"):
        if side not in roles:
            raise ValueError(f"config must define the [{side}] coin")
    minus, plus = roles["minus"], roles["plus"]
    sites = {k: v for k, v in roles.items() if isinstance(k, int)}
    if "origin" in roles:
        sites[0] = roles["origin"]
    if not sites:
        sites[0] = plus
    x_minus = min(-1, min(sites) - 1)
    x_plus = max(1, max(sites) + 1)
    middle = tuple(
        sites.get(x, minus if x < 0 else plus) for x in range(x_minus + 1, x_plus)
    )
    return CoinField(x_minus, x_plus, middle, minus, plus)


def _source(
    args: argparse.Namespace, src: FigurePreset = PRESETS[0]
) -> tuple[dict, CoinField, tuple[complex, complex]]:
    """Coins by role, field and initial state from ``--config`` or preset ``src``.

    ``--psi`` overrides the state; commands without ``--config`` or
    ``--psi`` take the preset's.
    """
    config, psi = getattr(args, "config", None), getattr(args, "psi", None)
    if config is not None:
        roles = _read_roles(config)
        field = _field_from_roles(roles)
        default_psi = (complex(1.0), complex(0.0))
    else:
        roles = {"minus": src.minus, "origin": src.origin, "plus": src.plus}
        field = src.field()
        default_psi = src.psi
    return roles, field, _parse_psi(psi) if psi is not None else default_psi


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _sibling(path: str | None, suffix: str) -> str | None:
    """Derive a secondary output path: stem + suffix, or None for stdout."""
    if path is None:
        return None
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return path + suffix
    return f"{stem}{suffix}.{ext}"


def _csv_table(header: str, rows) -> str:
    out = [header]
    for row in rows:
        out.append(",".join(_fmt(v) for v in row))
    return "\n".join(out) + "\n"


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def emit_distribution(dist: Distribution, path: str | None, fmt: str = "csv") -> None:
    """Write masses by site: CSV with header ``x,mass`` or a JSON array."""
    sites = dist.sites()
    if fmt == "json":
        payload = [{"x": int(x), "mass": float(m)} for x, m in zip(sites, dist.masses)]
        _write_text(path, json.dumps(payload, indent=1) + "\n")
    else:
        _write_text(path, _csv_table("x,mass", zip(sites.tolist(), dist.masses.tolist())))


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


def _maybe_svg(args: argparse.Namespace, xs, masses, title: str) -> None:
    if not args.svg:
        return
    if args.out is None:
        raise ValueError("--svg needs --out to derive the chart path")
    stem = args.out.rpartition(".")[0] or args.out
    _write_text(stem + ".svg", _svg_bars(list(xs), list(masses), title))


def _trimmed(dist: Distribution) -> Distribution:
    """Drop exactly-zero margins (sites outside the light cone)."""
    nz = np.nonzero(dist.masses)[0]
    if nz.size == 0:
        return Distribution(dist.lo, np.zeros(0))
    return Distribution(int(dist.lo + nz[0]), dist.masses[nz[0] : nz[-1] + 1])


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _cmd_simulate(args: argparse.Namespace) -> int:
    _, field, psi = _source(args)
    state = evolve(WalkState.point(*psi), field, args.steps)
    dist = _trimmed(probability(state))
    emit_distribution(dist, args.out, args.format)
    _maybe_svg(args, dist.sites().tolist(), dist.masses.tolist(), f"position distribution, t = {args.steps}")
    return 0


def _cmd_eigen(args: argparse.Namespace) -> int:
    phases = find_eigenphases(_source(args)[1])
    if args.format == "json":
        _write_text(args.out, json.dumps([float(p) for p in phases]) + "\n")
    else:
        _write_text(args.out, _csv_table("lambda", [(p,) for p in phases]))
    return 0


def _cmd_limit(args: argparse.Namespace) -> int:
    _, field, psi = _source(args)
    initial = WalkState.point(*psi)
    rep = analyze(field)
    w = args.window
    exact = limit_distribution(rep.eigenpairs, initial, window=(-w, w))
    if args.horizon is None:
        emit_distribution(exact, args.out, args.format)
        _maybe_svg(args, exact.sites().tolist(), exact.masses.tolist(), "time-averaged limit distribution")
        return 0
    empirical = time_averaged(initial, field, args.horizon)
    rows = [
        (int(x), float(exact.mass_at(x)), float(empirical.mass_at(x)))
        for x in range(-w, w + 1)
    ]
    if args.format == "json":
        payload = [{"x": x, "mass": m, "empirical": e} for x, m, e in rows]
        _write_text(args.out, json.dumps(payload, indent=1) + "\n")
    else:
        _write_text(args.out, _csv_table("x,mass,empirical", rows))
    _maybe_svg(args, [r[0] for r in rows], [r[1] for r in rows], "time-averaged limit distribution")
    return 0


def _cmd_trap(args: argparse.Namespace) -> int:
    rep = analyze(_source(args)[1])
    pairs = rep.eigenpairs
    verdict = rep.strongly_trapped
    origin_vals = np.array([p.vector().value(0) for p in pairs]).reshape(-1, 2)
    if len(pairs):
        svals = np.linalg.svd(origin_vals, compute_uv=False)
        rank = int(np.sum(svals > INDEPENDENCE_TOL * svals[0])) if svals[0] > 0 else 0
    else:
        svals, rank = np.zeros(0), 0
    doc = {
        "strongly_trapped": verdict,
        "eigenphases": [p.lam for p in pairs],
        "origin_rank": rank,
        "origin_singular_values": [float(s) for s in svals],
    }
    if args.format == "json":
        _write_text(args.out, json.dumps(doc, indent=1) + "\n")
    else:
        rows = [("strongly_trapped", str(verdict).lower()), ("origin_rank", rank)]
        rows += [(f"lambda_{k}", p) for k, p in enumerate(doc["eigenphases"])]
        rows += [(f"sigma_{k}", s) for k, s in enumerate(doc["origin_singular_values"])]
        _write_text(args.out, _csv_table("key,value", rows))
    return 0


def _model_coins(roles: dict, model_id: int) -> tuple[Coin, Coin | None, Coin]:
    """The ``(minus, origin, plus)`` coins for family ``model_id``, checked."""
    extra = sorted(k for k in roles if isinstance(k, int) and k != 0)
    if extra:
        names = ", ".join(f"[middle_{k}]" for k in extra)
        raise ValueError(
            f"family reports describe single-defect fields; the config also sets {names}"
        )
    for role in FAMILY_ROLES[model_id]:
        if role not in roles:
            raise ValueError(f"family {model_id} needs the [{role}] coin")
    minus, plus = roles["minus"], roles["plus"]
    if model_id in (1, 2) and minus != plus:
        raise ValueError("families 1 and 2 need identical [minus] and [plus] coins")
    return minus, roles.get("origin"), plus


def _report_doc(rep: ModelReport, prof: Distribution) -> dict:
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
        "normalizers": [_complex_pair(complex(n)) for n in rep.normalizers],
        "norm_corrections": [float(c) for c in rep.norm_corrections],
        "psi": [_complex_pair(p) for p in rep.psi],
        "limit_distribution": [
            {"x": int(x), "mass": float(m)} for x, m in zip(prof.sites(), prof.masses)
        ],
    }


def _cmd_model(args: argparse.Namespace) -> int:
    k = args.id
    if k is None:
        raise ValueError("model needs --id 1..5")
    if k not in MODEL_FUNCTIONS:
        raise ValueError(f"model id must be 1..5, got {k}")
    roles, _, psi = _source(args, figure_preset(_MODEL_DEFAULT_FIG[k]))
    rep = family_report(k, *_model_coins(roles, k), psi)
    prof = rep.limit_window(-args.window, args.window)
    if args.format == "json":
        _write_text(args.out, json.dumps(_report_doc(rep, prof), indent=1) + "\n")
    else:
        emit_distribution(prof, args.out, "csv")
    _maybe_svg(args, prof.sites().tolist(), prof.masses.tolist(), f"family {rep.model_id} limit distribution")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    reports = run_all(
        horizon=args.horizon if args.horizon is not None else DEFAULT_HORIZON,
        window=args.window,
    )
    buf = io.StringIO()
    write_reports(reports, buf)
    _write_text(args.out, buf.getvalue())
    failed = sum(not r.passed for r in reports)
    print(f"{len(reports)} checks, {failed} failed", file=sys.stderr)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    if args.id is None:
        raise ValueError("figure needs --id 1..7")
    src = figure_preset(args.id)
    _, field, psi = _source(args, src)
    rep = src.report(psi)
    w, steps = args.window, args.steps
    state = evolve(WalkState.point(*psi), field, steps)
    prob = probability(state)
    prof = rep.limit_window(-w, w)
    rows = [
        (int(x), float(prob.mass_at(x)), float(prof.mass_at(x))) for x in range(-w, w + 1)
    ]
    arcs = src.sweep()
    if args.format == "json":
        doc = {
            "figure": src.fig_id,
            "model": src.model_id,
            "title": src.title,
            "sweep_param": src.sweep_param,
            "distribution": [
                {"x": x, f"mass_t{steps}": p, "nu_inf": m} for x, p, m in rows
            ],
            "arcs": [
                {"param": float(v), "branch": b, "lambda": float(lam)} for v, b, lam in arcs
            ],
        }
        _write_text(args.out, json.dumps(doc, indent=1) + "\n")
    else:
        main = _csv_table(f"x,mass_t{steps},nu_inf", rows)
        _write_text(args.out, main)
        arcs_csv = _csv_table("param,branch,lambda", arcs)
        _write_text(_sibling(args.out, "_arcs"), arcs_csv)
    _maybe_svg(args, [r[0] for r in rows], [r[2] for r in rows], f"figure {src.fig_id}: {src.title}")
    return 0


#: argparse keyword arguments of every flag, by flag name
_FLAGS = {
    "config": dict(metavar="PATH", help="coin field description file"),
    "out": dict(metavar="PATH", help="output path (default stdout)"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "svg": dict(action="store_true", help="also write an SVG bar chart"),
    "steps": dict(type=int, default=DEFAULT_STEPS, metavar="N"),
    "horizon": dict(type=int, default=None, metavar="T"),
    "window": dict(type=int, default=DEFAULT_WINDOW, metavar="W"),
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
        return _COMMANDS[args.command][0](args)
    except DegeneracyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        ConstraintError,
        NoEigenvalueError,
        NotInAdmissibleSetError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(run(sys.argv[1:]))
