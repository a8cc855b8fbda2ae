"""Seeded inputs, timed operations and output checks of the qwtrap benchmark.

Each workload is a closed loop over *cycles*.  Cycle ``k`` is drawn from a
``random.Random`` seeded with the workload name, the run seed and ``k``, so
one seed always gives the same inputs, and every cycle holds the same mix
of input kinds whatever the seed.  The runner stops only at a cycle
boundary, so the share of each kind in a run is fixed and a median does not
depend on where the run happened to stop.

Importing this module imports ``qwtrap`` (and numpy); the runner times that
import as part of set-up.  The program sees only the generated inputs; no
input is filtered, retried or re-drawn after it fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Callable

from qwtrap import algebra, cli, figures, models, spectral, verification, walk
from qwtrap.models import TrappingClass
from qwtrap.spectral import RESIDUAL_ACCEPT
from qwtrap.verification import LIMIT_VS_SIM_THRESHOLD, PHASE_MATCH_THRESHOLD

TWO_PI = algebra.TWO_PI

#: |<v_i, v_j>| above this for two eigenvectors of distinct phases fails.
ORTHOGONALITY_TOL = 1e-8
#: Summed overlap of a unit origin state above ``1 + BESSEL_TOL`` fails.
BESSEL_TOL = 1e-9
#: Total mass of an evolved state or a time average off 1 by more fails.
MASS_TOL = 1e-10
#: Horizon from which a time average is compared with the limit distribution.
LIMIT_CHECK_HORIZON = 2000
#: Half-width of the window on which that comparison is made.
LIMIT_WINDOW = 20
#: Seconds a single ``qwtrap`` process may take before it counts as failed.
CLI_TIMEOUT_S = 60.0


@dataclass
class Op:
    """One timed call and the check of its result.

    ``inputs`` describes the call in plain JSON values; ``check`` returns
    ``None`` for a correct result and a reason otherwise.
    """

    kind: str
    inputs: dict
    call: Callable[[], object]
    check: Callable[[object], str | None]


# --------------------------------------------------------------- drawing --


def cycle_rng(workload: str, seed: int | str, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


def cis(angle: float) -> complex:
    return complex(math.cos(angle), math.sin(angle))


def draw_coin(rng: random.Random, lo: float, hi: float, *, modulus=None,
              delta=None, beta_arg=None) -> algebra.Coin:
    """Coin with ``|alpha|`` uniform on ``[lo, hi]`` unless ``modulus`` is given."""
    a = rng.uniform(lo, hi) if modulus is None else modulus
    alpha = a * cis(rng.uniform(0.0, TWO_PI))
    arg = rng.uniform(0.0, TWO_PI) if beta_arg is None else beta_arg
    d = rng.uniform(0.0, TWO_PI) if delta is None else delta
    return algebra.make_coin(alpha, math.sqrt(1.0 - a * a) * cis(arg), d)


def draw_psi(rng: random.Random) -> tuple[complex, complex]:
    th = rng.uniform(0.0, math.pi / 2.0)
    return math.cos(th) * cis(rng.uniform(0.0, TWO_PI)), math.sin(th) * cis(rng.uniform(0.0, TWO_PI))


def draw_family(rng: random.Random, fam: int, lo: float, hi: float) -> tuple:
    """Coin arguments of ``models.model<fam>`` inside that family's constraints."""
    if fam == 1:
        common = draw_coin(rng, lo, hi)
        return common, draw_coin(rng, lo, hi, delta=common.delta)
    if fam == 2:
        common = draw_coin(rng, lo, hi)
        origin = algebra.make_coin(
            abs(common.alpha) * cis(rng.uniform(0.0, TWO_PI)), common.beta, rng.uniform(0.0, TWO_PI)
        )
        return common, origin
    if fam == 3:
        arg = rng.uniform(0.0, TWO_PI)
        return draw_coin(rng, lo, hi, beta_arg=arg), draw_coin(rng, lo, hi, beta_arg=arg)
    if fam == 4:
        d = rng.uniform(0.0, TWO_PI)
        return draw_coin(rng, lo, hi, delta=d), draw_coin(rng, lo, hi, delta=d)
    a, d = rng.uniform(lo, hi), rng.uniform(0.0, TWO_PI)
    origin = algebra.make_coin(cis(rng.uniform(0.0, TWO_PI)), 0.0, rng.uniform(0.0, TWO_PI))
    return (
        draw_coin(rng, lo, hi, modulus=a, delta=d),
        origin,
        draw_coin(rng, lo, hi, modulus=a, delta=d),
    )


def family_field(fam: int, args: tuple) -> walk.CoinField:
    """The field ``models.model<fam>(*args, psi)`` describes."""
    if fam in (1, 2):
        return walk.defect_field(args[0], args[1], args[0])
    if fam in (3, 4):
        return walk.defect_field(args[0], args[1], args[1])
    return walk.defect_field(*args)


def draw_core_field(rng: random.Random, width: int, lo: float, hi: float) -> walk.CoinField:
    """Random field whose core holds ``width`` sites, placed at a random offset."""
    x_minus = -rng.randint(1, width)
    middle = tuple(draw_coin(rng, lo, hi) for _ in range(width))
    return walk.CoinField(x_minus, x_minus + width + 1, middle, draw_coin(rng, lo, hi), draw_coin(rng, lo, hi))


def turned(coin: algebra.Coin, angle: float) -> algebra.Coin:
    """The coin times ``exp(i*angle)``."""
    return algebra.make_coin(coin.alpha, coin.beta, coin.delta + angle)


def turned_field(f: walk.CoinField, angle: float) -> walk.CoinField:
    """Every coin times ``exp(i*angle)``: the walk operator times ``exp(i*angle)``."""
    return walk.CoinField(f.x_minus, f.x_plus, tuple(turned(c, angle) for c in f.middle),
                          turned(f.left, angle), turned(f.right, angle))


def coin_json(c: algebra.Coin) -> list[float]:
    return [c.alpha.real, c.alpha.imag, c.beta.real, c.beta.imag, c.delta]


def field_json(f: walk.CoinField) -> dict:
    return {
        "cuts": [f.x_minus, f.x_plus],
        "left": coin_json(f.left),
        "middle": [coin_json(c) for c in f.middle],
        "right": coin_json(f.right),
    }


def psi_json(psi) -> list[float]:
    return [psi[0].real, psi[0].imag, psi[1].real, psi[1].imag]


# ---------------------------------------------------------------- checks --


def inner(u: spectral.GeometricVector, v: spectral.GeometricVector) -> complex:
    """``<u, v>`` over the whole lattice, geometric tails summed in closed form."""
    q = u.zeta_in.conjugate() * v.zeta_in
    r = u.zeta_out.conjugate() * v.zeta_out
    plus = complex((u.plus_coef.conj() @ v.plus_coef)) * q ** u.plus_cut / (1.0 - q)
    minus = complex((u.minus_coef.conj() @ v.minus_coef)) * r ** u.minus_cut / (1.0 - 1.0 / r)
    return complex((u.middle.conj() * v.middle).sum()) + plus + minus


def check_family(report: spectral.SpectralReport, ref) -> str | None:
    """Solver phases and verdict against a closed-form family report."""
    if isinstance(ref, Exception):
        return f"closed form raised {ref!r}"
    got = sorted(p.lam for p in report.eigenpairs)
    want = sorted(ref.eigenphases)
    if len(got) != len(want):
        return f"{len(got)} phases, closed form has {len(want)}"
    gap = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
    if not gap <= PHASE_MATCH_THRESHOLD:
        return f"phase gap {gap:.3e} > {PHASE_MATCH_THRESHOLD}"
    want_trapped = ref.trapping_class is TrappingClass.STRONGLY_TRAPPED
    if report.strongly_trapped != want_trapped:
        return f"verdict {report.strongly_trapped}, closed form {want_trapped}"
    return None


def check_core(field: walk.CoinField, report: spectral.SpectralReport) -> str | None:
    """Residual of every phase, pairwise orthogonality and Bessel's inequality."""
    for pair in report.eigenpairs:
        try:
            res = spectral.eigen_residual(field, pair.lam)
        except spectral.NotInAdmissibleSetError:
            return f"phase {pair.lam!r} is not admissible"
        if not res < RESIDUAL_ACCEPT:
            return f"residual {res:.3e} at phase {pair.lam!r}"
    vecs = [p.vector() for p in report.eigenpairs]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            ov = abs(inner(vecs[i], vecs[j]))
            if not ov <= ORTHOGONALITY_TOL:
                return f"|<v{i}, v{j}>| = {ov:.3e}"
    for k in range(2):
        total = sum(abs(v.value(0)[k]) ** 2 for v in vecs)
        if not total <= 1.0 + BESSEL_TOL:
            return f"origin state e{k + 1} has summed overlap {total!r} > 1"
    return None


def check_empty(report: spectral.SpectralReport) -> str | None:
    if report.eigenpairs or report.strongly_trapped:
        return f"homogeneous field has {len(report.eigenpairs)} eigenphases"
    return None


def check_mass(total: float) -> str | None:
    if not abs(total - 1.0) <= MASS_TOL:
        return f"total mass {total!r}"
    return None


def check_average(dist: walk.Distribution, horizon: int, exact: Callable[[], walk.Distribution],
                  half: Callable[[], walk.Distribution]) -> str | None:
    """Unit mass; from ``LIMIT_CHECK_HORIZON`` on, convergence to the limit distribution.

    The time average at ``T`` approaches its limit as ``c(x)/T``, and ``c``
    depends on the field: a long-lived resonance with no eigenphase behind it
    keeps a site's average ``0.0176`` above its limit of 0 at ``T = 2000``,
    and halves that gap with each doubling of ``T``.  So the check compares
    the Richardson extrapolant ``2*A_T - A_{T/2}`` (``half`` gives
    ``A_{T/2}``), which cancels that term, with the limit distribution.  A
    missing or wrong eigenphase leaves a gap that no horizon closes.
    """
    bad = check_mass(dist.total())
    if bad or horizon < LIMIT_CHECK_HORIZON:
        return bad
    nu, earlier = exact(), half()
    gap = max(abs(2.0 * dist.mass_at(x) - earlier.mass_at(x) - nu.mass_at(x))
              for x in range(-LIMIT_WINDOW, LIMIT_WINDOW + 1))
    if not gap <= LIMIT_VS_SIM_THRESHOLD:
        return f"gap of the extrapolated average to the limit distribution {gap:.3e} > {LIMIT_VS_SIM_THRESHOLD}"
    return None


def check_reports(reports) -> str | None:
    failing = [f"{r.name}/{r.label}" for r in reports if not r.passed]
    if failing:
        return f"{len(failing)} of {len(reports)} reports fail: {', '.join(failing[:5])}"
    return None


def check_cli(result: "CliResult", reference: Callable[[], tuple[int, str]]) -> str | None:
    """Exit code 0 and JSON output equal to the same call made in-process."""
    if result.code != 0:
        return f"exit code {result.code}: {result.stderr.strip()[-200:]}"
    code, text = reference()
    if code != 0:
        return f"in-process run exited {code}"
    try:
        same = json.loads(result.stdout) == json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    return None if same else "output differs from the in-process call"


# ------------------------------------------------------------- workloads --


class Workload:
    """A seeded, cycle-structured stream of operations.

    ``setup`` builds the state a run needs before its first operation;
    ``cycle(k)`` returns the operations of cycle ``k`` (cycle 0 is drawn
    during set-up).
    """

    name = ""
    seed_affects_inputs = True

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self._cycles: dict[int, list[Op]] = {}

    def setup(self) -> None:
        self.cycle(0)

    def cycle(self, k: int) -> list[Op]:
        if k not in self._cycles:
            self._cycles = {k: self._draw(cycle_rng(self.name, self.seed, k), k)}
        return self._cycles[k]

    def _draw(self, rng: random.Random, k: int) -> list[Op]:
        raise NotImplementedError


class Spectrum(Workload):
    """``analyze(field)`` on distinct fields: families 1-5, random cores, homogeneous.

    The field *shapes* come from a stream that is the same for every seed,
    and the seed turns each field by its own global phase.  Multiplying every
    coin by ``exp(i*c)`` multiplies the walk operator by it, which rotates the
    spectrum by ``c`` and leaves the solver's work the same.  So runs on
    different seeds solve different fields of the same difficulty, and the
    spread between runs is the machine's, not the luck of the draw (with
    independent draws, the median of one run's ~150 ops moved by about 7 %).
    """

    name = "spectrum"
    #: |alpha| ranges of the family draws: a bulk range and a near-threshold one
    FAMILY_RANGES = (("bulk", 0.2, 0.9), ("near", 0.9, 0.99))
    CORE_WIDTHS = tuple(range(1, 10))
    CORE_RANGE = (0.2, 0.95)

    def _draw(self, rng, k):
        shapes = cycle_rng(self.name, "shapes", k)
        ops = []
        psi = (1.0 + 0j, 0j)
        for tag, lo, hi in self.FAMILY_RANGES:
            for fam in range(1, 6):
                angle = rng.uniform(0.0, TWO_PI)
                args = tuple(turned(c, angle) for c in draw_family(shapes, fam, lo, hi))
                try:
                    ref = models.MODEL_FUNCTIONS[fam](*args, psi)
                except (models.ConstraintError, models.DegeneracyError) as exc:
                    ref = exc
                fld = family_field(fam, args)
                ops.append(self._op(f"family{fam}-{tag}", fld, lambda rep, ref=ref: check_family(rep, ref)))
        for width in self.CORE_WIDTHS:
            fld = turned_field(draw_core_field(shapes, width, *self.CORE_RANGE), rng.uniform(0.0, TWO_PI))
            ops.append(self._op(f"core{width}", fld, lambda rep, fld=fld: check_core(fld, rep)))
        fld = walk.uniform_field(turned(draw_coin(shapes, *self.CORE_RANGE), rng.uniform(0.0, TWO_PI)))
        ops.append(self._op("homogeneous", fld, check_empty))
        return ops

    @staticmethod
    def _op(kind, fld, check):
        return Op(kind, {"field": field_json(fld)}, lambda: spectral.analyze(fld), check)


class Cesaro(Workload):
    """``evolve`` and ``time_averaged`` over a horizon ladder, preset and random fields."""

    name = "cesaro"
    #: (call, horizon) of each op of a cycle.  The middle horizon runs
    #: ``time_averaged`` twice, so that a run's median falls inside one group
    #: of alike ops and not in the gap between two.
    SCHEDULE = tuple((kind, t) for t in (250, 500, 1000, 2000, 4000) for kind in ("evolve", "time_averaged")) + (
        ("time_averaged", 1000),)
    DEFECT_RANGE = (0.3, 0.9)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._limits: dict = {}

    def _draw(self, rng, k):
        fields = [
            figures.PRESETS[rng.randrange(len(figures.PRESETS))].field(),
            walk.defect_field(*(draw_coin(rng, *self.DEFECT_RANGE) for _ in range(3))),
        ]
        ops = []
        for kind, horizon in self.SCHEDULE:
            fld = rng.choice(fields)
            psi = draw_psi(rng)
            inputs = {"field": field_json(fld), "psi": psi_json(psi), "T": horizon}
            start = walk.WalkState.point(*psi)
            if kind == "evolve":
                ops.append(Op(
                    f"evolve-{horizon}", inputs,
                    lambda s=start, f=fld, t=horizon: walk.evolve(s, f, t),
                    lambda out: check_mass(out.norm_sq()),
                ))
            else:
                ops.append(Op(
                    f"time_averaged-{horizon}", inputs,
                    lambda s=start, f=fld, t=horizon: walk.time_averaged(s, f, t),
                    lambda out, f=fld, s=start, t=horizon: check_average(
                        out, t, lambda: self._limit(f, s), lambda: walk.time_averaged(s, f, t // 2)),
                ))
        return ops

    def _limit(self, fld, start) -> walk.Distribution:
        if fld not in self._limits:
            if len(self._limits) > 8:
                self._limits.clear()
            self._limits[fld] = [spectral.build_eigenvector(fld, lam) for lam in spectral.find_eigenphases(fld)]
        return spectral.limit_distribution(self._limits[fld], start, window=(-LIMIT_WINDOW, LIMIT_WINDOW))


class Verify(Workload):
    """``run_all()`` at its defaults; the seed does not change its inputs."""

    name = "verify"
    seed_affects_inputs = False

    def _draw(self, rng, k):
        return [Op("run_all", {}, lambda: verification.run_all(), check_reports)]


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    rss_kb: int = 0


CLI_LAUNCH = "from qwtrap.cli import console_main; console_main()"


def run_cli_process(argv: list[str], workdir: str) -> CliResult:
    """One fresh ``qwtrap`` process, reaped with ``wait4`` for its peak RSS.

    ``src`` must be on ``PYTHONPATH``.  Output goes to files in ``workdir``,
    so no pipe can fill up while the process runs.
    """
    with open(os.path.join(workdir, "stdout"), "wb+") as out, \
            open(os.path.join(workdir, "stderr"), "wb+") as err:
        proc = subprocess.Popen([sys.executable, "-c", CLI_LAUNCH, *argv],
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return CliResult(proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss)


def run_cli_inprocess(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def ini_text(roles: dict) -> str:
    lines = []
    for name, c in roles.items():
        lines += [
            f"[{name}]",
            f"alpha = {c.alpha.real!r},{c.alpha.imag!r}",
            f"beta = {c.beta.real!r},{c.beta.imag!r}",
            f"delta = {c.delta!r}",
            "",
        ]
    return "\n".join(lines)


class Cli(Workload):
    """Fresh ``qwtrap`` processes over six commands, seeded configs and presets.

    The twelve invocations of a run are drawn once; every cycle repeats
    them, each in a new process, so the in-process reference of each is
    computed once per run.  ``in_process`` runs the same calls through
    ``qwtrap.cli.run`` instead, for the traced run.
    """

    name = "cli"
    HORIZON = 1000
    STEPS = (100, 300)
    #: |alpha| of every coin in the seeded configs, as in the presets, so that
    #: the solver's share of an op varies little from seed to seed
    MODULUS = 1.0 / math.sqrt(2.0)

    def __init__(self, seed, workdir, in_process: bool = False):
        super().__init__(seed, workdir)
        self.in_process = in_process
        self._refs: dict = {}
        self._configs: dict[str, str] = {}
        self._argvs: list[list[str]] | None = None

    def _write(self, name: str, roles: dict) -> str:
        path = os.path.join(self.workdir, name)
        self._configs[path] = ini_text(roles)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self._configs[path])
        return path

    def _invocations(self, rng: random.Random) -> list[list[str]]:
        os.makedirs(self.workdir, exist_ok=True)
        lo = hi = self.MODULUS
        left, origin, right = (draw_coin(rng, lo, hi) for _ in range(3))
        defect = self._write("defect.ini", {"minus": left, "origin": origin, "plus": right})
        core = self._write("core.ini", {
            "minus": draw_coin(rng, lo, hi), "middle_-1": draw_coin(rng, lo, hi),
            "origin": draw_coin(rng, lo, hi), "middle_1": draw_coin(rng, lo, hi),
            "plus": draw_coin(rng, lo, hi),
        })
        fam = rng.randint(1, 5)
        args = draw_family(rng, fam, lo, hi)
        if fam in (1, 2):
            roles = {"minus": args[0], "origin": args[1], "plus": args[0]}
        else:
            roles = dict(zip(("minus", "plus") if fam in (3, 4) else ("minus", "origin", "plus"), args))
        family = self._write("family.ini", roles)

        def psi() -> str:  # one argument, since a value may start with '-'
            return "--psi=" + ",".join(repr(v) for v in psi_json(draw_psi(rng)))

        def steps() -> str:
            return str(rng.randint(*self.STEPS))

        out = [
            ["trap", "--config", defect],
            ["trap"],
            ["eigen", "--config", core],
            ["eigen"],
            ["limit", "--config", defect, "--horizon", str(self.HORIZON), psi()],
            ["limit", "--horizon", str(self.HORIZON), psi()],
            ["simulate", "--config", core, "--steps", steps(), psi()],
            ["simulate", "--steps", steps(), psi()],
            ["model", "--id", str(fam), "--config", family, psi()],
            ["model", "--id", str(rng.randint(1, 5)), psi()],
            ["figure", "--id", str(rng.randint(1, 7)), psi()],
            ["figure", "--id", str(rng.randint(1, 7)), psi()],
        ]
        return [argv + ["--format", "json"] for argv in out]

    def _draw(self, rng, k):
        if self._argvs is None:
            self._argvs = self._invocations(rng)
        return [self._op(argv) for argv in self._argvs]

    def _reference(self, argv: list[str]) -> tuple[int, str]:
        key = tuple(argv)
        if key not in self._refs:
            self._refs[key] = run_cli_inprocess(argv)
        return self._refs[key]

    def _op(self, argv: list[str]) -> Op:
        config = argv[argv.index("--config") + 1] if "--config" in argv else None
        inputs = {"argv": argv, "config": self._configs.get(config)}
        if self.in_process:
            def call(argv=argv):
                code, text = run_cli_inprocess(argv)
                return CliResult(code, text, "")
        else:
            def call(argv=argv):
                return run_cli_process(argv, self.workdir)
        return Op(argv[0], inputs, call, lambda res, argv=argv: check_cli(res, lambda: self._reference(argv)))


WORKLOADS = {w.name: w for w in (Spectrum, Cesaro, Verify, Cli)}
