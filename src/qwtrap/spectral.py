"""Transfer-matrix analysis of the walk's point spectrum.

An eigenvector candidate at phase ``lam`` is equivalent, after reshaping the
two components by half a site, to a two-term transfer recurrence
``v(x+1) = T_x(lam) v(x)``.  A phase is *admissible* when both asymptotic
transfer matrices are hyperbolic (eigenvalue moduli off the unit circle);
outside the admissible set no square-summable solution exists.  On it, the
solution decaying to the left is unique up to scale, and ``lam`` is an
eigenphase exactly when pushing that solution through the core lands it in
the contracting eigenspace on the right.  The distance from that eigenspace
is a scalar residual whose zeros are the eigenphases.

The residual is one forward vector recurrence per phase.  It starts at
``x_minus`` from the left-decaying vector, the kernel vector of
``T_left - zeta_out`` in closed form, and carries it site by site to
``x_plus - 1`` as two complex component vectors, so a batch of phases
costs a few element-wise operations per site and forms no ``2 x 2``
matrix.  Roots are refined on all brackets at once by a section search,
eightfold per batched call, and two Gauss-Newton steps on the complex
mismatch, which is smooth in ``lam``: the left kernel vector has its first
component real.

With ``P = diag((-1)**x)`` the shift gives ``P U P = -U``, so the point
spectrum and the admissible set are ``pi``-periodic: the solver searches
one period and polishes each root's partner ``lam + pi`` in the partner's
own doubles.  All eigenvectors are one recurrence batched over the phases
and recorded at every core site, so each left tail is the kernel vector.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import TWO_PI, Coin
from .walk import CoinField, Distribution, WalkState

#: Discriminants below this count as outside the admissible phase set.
LAMBDA_TOL = 1e-12
#: A refined residual below this certifies an eigenphase.
RESIDUAL_ACCEPT = 1e-9
#: Refined phases closer than this are considered the same root.
DEDUPE_TOL = 1e-8
#: Relative 2x2 minor above this certifies linearly independent origin values.
INDEPENDENCE_TOL = 1e-8

DEFAULT_GRID = 20000
DEFAULT_REFINE_TOL = 1e-12

#: Interior points per bracket and section-search call (an eightfold shrink),
#: then Gauss-Newton steps and their central-difference step.
_SECTION_POINTS = 15
_POLISH_STEPS = 2
_POLISH_H = 1e-7
_SQRT2 = math.sqrt(2.0)


class NotInAdmissibleSetError(ValueError):
    """The phase lies outside the admissible set of the field."""


class NoEigenvalueError(ValueError):
    """The phase is not an eigenphase of the walk."""


def discriminant(coin: Coin, lam) -> float | np.ndarray:
    """``cos^2(lam - delta) - |alpha|^2``; positive means hyperbolic."""
    c = np.cos(lam - coin.delta)
    return c * c - abs(coin.alpha) ** 2


def contracting_zeta(coin: Coin, lams):
    """Transfer eigenvalue with modulus < 1 (hyperbolic phases only)."""
    c = np.cos(np.asarray(lams) - coin.delta)
    root = np.sqrt(c * c - abs(coin.alpha) ** 2)
    return (c - np.sign(c) * root) / coin.alpha


def expanding_zeta(coin: Coin, lams):
    """Transfer eigenvalue with modulus > 1 (hyperbolic phases only)."""
    c = np.cos(np.asarray(lams) - coin.delta)
    root = np.sqrt(c * c - abs(coin.alpha) ** 2)
    return (c + np.sign(c) * root) / coin.alpha


def in_admissible_set(field: CoinField, lam):
    """True when both asymptotic transfer matrices are hyperbolic at ``lam``.

    An array of phases gives a boolean array of the same shape.
    """
    ok = (discriminant(field.right, lam) > LAMBDA_TOL) & (
        discriminant(field.left, lam) > LAMBDA_TOL
    )
    return bool(ok) if np.ndim(ok) == 0 else ok


def _site_step(coin: Coin, z: np.ndarray, v0: np.ndarray, v1: np.ndarray):
    """``T_x(lam) v`` with one vector ``(v0, v1)`` per phase and ``z = exp(i*lam)``.

    ``T_x = [[e, -beta], [-conj(beta), conj(e)]] / alpha`` with
    ``e = exp(i*(lam - delta))``; the diagonal entries are ``z`` and
    ``conj(z)`` times per-site scalars, so a site costs four complex
    products per phase and no matrix is formed.
    """
    a = coin.alpha
    e = z * (cmath.exp(-1j * coin.delta) / a)
    f = z.conjugate() * (cmath.exp(1j * coin.delta) / a)
    return e * v0 - (coin.beta / a) * v1, f * v1 - (coin.beta.conjugate() / a) * v0


def _residual_core(field: CoinField, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Residuals, mismatches and left starts, batched over admissible phases.

    The left start ``(z, v0, v1)`` is ``z = exp(i*lam)`` and the unit kernel
    vector of ``T_left - zeta_out`` with ``v0`` real and positive: the value
    at ``x_minus`` of the solution that decays to the left.  With
    ``th = lam - delta_left``, the matrix's second row gives it in closed
    form, ``v1 = (i sin(th) - sgn(cos(th)) sqrt(disc)) conj(beta) v0 / |beta|**2``,
    and a decaying solution has zero flux ``|v0|**2 - |v1|**2``, so
    ``v0 = |v1| = 1/sqrt(2)``.  Carried forward through the sites
    ``x_minus .. -1`` and normalised, it gives the unit generator ``phi``.
    The residual is how far the sites ``0 .. x_plus - 1`` push ``phi`` from
    the contracting eigenspace on the right, the norm of the mismatch
    ``w = (T_right - zeta_in) T_{x_plus-1} .. T_0 phi``.  Zero residual
    certifies an eigenphase.  ``w`` has shape ``lams.shape + (2,)``.
    """
    lams = np.asarray(lams, dtype=np.float64)
    z = np.exp(1j * lams)
    a, b, th = field.left.alpha, field.left.beta, lams - field.left.delta
    c = np.cos(th)
    # rounded as written: reordering it moves a floor-limited root of the
    # solver survey past RESIDUAL_ACCEPT
    v0 = np.full(lams.shape, 1.0 / _SQRT2)
    v1 = (1j * np.sin(th) - np.copysign(np.sqrt(c * c - abs(a) ** 2), c)) * (
        b.conjugate() / (abs(b) ** 2 * _SQRT2)
    )
    start = z, v0, v1
    for x in range(field.x_minus, 0):
        v0, v1 = _site_step(field.coin(x), z, v0, v1)
    n = np.sqrt(abs(v0) ** 2 + abs(v1) ** 2)
    v0, v1 = v0 / n, v1 / n
    for x in range(0, field.x_plus):
        v0, v1 = _site_step(field.coin(x), z, v0, v1)
    zeta_in = contracting_zeta(field.right, lams)
    w0, w1 = _site_step(field.right, z, v0, v1)
    w0 -= zeta_in * v0
    w1 -= zeta_in * v1
    return np.sqrt(abs(w0) ** 2 + abs(w1) ** 2), np.stack((w0, w1), axis=-1), start


def eigen_residual(field: CoinField, lam: float) -> float:
    """Matching residual at one phase; zero exactly on eigenphases."""
    if not in_admissible_set(field, lam):
        raise NotInAdmissibleSetError(f"phase {lam!r} is not admissible")
    res = _residual_core(field, np.array([float(lam)]))[0]
    return float(res[0])


def _residual_or_inf(field: CoinField, lams: np.ndarray) -> np.ndarray:
    """Residuals at phases taken mod ``2*pi``; ``inf`` off the admissible set."""
    lams = np.asarray(lams, dtype=np.float64) % TWO_PI
    out = np.full(lams.shape, np.inf)
    ok = in_admissible_set(field, lams)
    if ok.any():
        out[ok] = _residual_core(field, lams[ok])[0]
    return out


def _mismatch_or_zero(field: CoinField, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and mismatches ``w`` at phases mod ``2*pi``; ``inf`` and 0 off the set."""
    lams = np.asarray(lams, dtype=np.float64) % TWO_PI
    res, w = np.full(lams.shape, np.inf), np.zeros(lams.shape + (2,), dtype=np.complex128)
    ok = in_admissible_set(field, lams)
    if ok.any():
        res[ok], w[ok], _ = _residual_core(field, lams[ok])
    return res, w


def _section_search(
    field: CoinField, lo: np.ndarray, hi: np.ndarray, tol: float
) -> np.ndarray:
    """Minimise the residual on every bracket at once by section search.

    Each call samples ``_SECTION_POINTS`` equally spaced interior points of
    every bracket wider than ``tol``, which shrinks to the two gaps next to
    the first smallest residual.  Returns the final midpoints.
    """
    a, b = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    t = np.arange(1, _SECTION_POINTS + 1) / (_SECTION_POINTS + 1)
    live = np.flatnonzero(b - a > tol)
    while live.size:
        pts = a[live, None] + (b[live] - a[live])[:, None] * t
        k = np.argmin(_residual_or_inf(field, pts), axis=1)
        ends = np.column_stack((a[live], pts, b[live]))
        rows = np.arange(live.size)
        a[live], b[live] = ends[rows, k], ends[rows, k + 2]
        live = live[b[live] - a[live] > tol]
    return 0.5 * (a + b)


def _polish(
    field: CoinField, x: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Gauss-Newton steps on the mismatch ``w`` from phases ``x``.

    A step is ``-Re<w', w> / |w'|**2`` with ``w'`` a central difference, one
    call at three phases per bracket, and is kept only if it lands inside
    ``[lo, hi]``; one last call scores the final phases.  Returns, per
    bracket, the evaluated phase with the smallest residual (the earliest on
    ties) and that residual.
    """
    x = np.array(x, dtype=np.float64)
    best, best_res = x.copy(), np.full(x.shape, np.inf)

    def score(res: np.ndarray) -> None:
        take = res < best_res
        best[take], best_res[take] = x[take], res[take]

    for _ in range(_POLISH_STEPS):
        res, w = _mismatch_or_zero(field, x[:, None] + [0.0, -_POLISH_H, _POLISH_H])
        score(res[:, 0])
        dw = w[:, 2] - w[:, 1]  # 2h w'
        num = -np.sum(dw.conjugate() * w[:, 0], axis=-1).real * (2.0 * _POLISH_H)
        den = np.sum(abs(dw) ** 2, axis=-1)
        ok = np.isfinite(res).all(axis=1) & (den > 0.0)
        step = x + np.divide(num, den, out=np.zeros_like(num), where=ok)
        x = np.where((lo <= step) & (step <= hi), step, x)
    score(_residual_or_inf(field, x))
    return best, best_res


def _period_arcs(field: CoinField) -> list[tuple[float, float]]:
    """The admissible set on one period of the phase, as sorted disjoint arcs.

    ``cos^2(lam - delta) > |alpha|^2`` holds on one arc of half-width
    ``arccos(|alpha|)`` about ``delta``, taken mod ``pi``.  The right
    coin's arc, centered at ``delta mod pi``, is cut by the left coin's arc
    and its images ``pi`` apart, so the pieces lie within the right coin's
    arc: ends may fall below 0 or past ``pi``.  A phase ``lam`` is in the
    admissible set iff ``(lam - s) % pi < e - s`` for some arc ``(s, e)``
    (up to rounding at the ends).
    """
    arcs = []
    for coin in (field.right, field.left):
        half = math.acos(min(abs(coin.alpha), 1.0))
        if half == 0.0:
            return []
        center = coin.delta % math.pi
        arcs.append((center - half, center + half))
    (s1, e1), (s2, e2) = arcs
    out = []
    for shift in (-math.pi, 0.0, math.pi):
        s, e = max(s1, s2 + shift), min(e1, e2 + shift)
        if e > s:
            out.append((s, e))
    return out


def canonical_phase(lam: float) -> float:
    """``lam`` reduced to ``[0, 2*pi)``, reading a phase within the bracket width ``DEFAULT_REFINE_TOL`` below ``2*pi`` as 0."""
    lam %= TWO_PI
    return 0.0 if lam > TWO_PI - DEFAULT_REFINE_TOL else lam


def circular_gap(a: float, b: float) -> float:
    """Distance between phases ``a`` and ``b`` on the circle, in ``[0, pi]``."""
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def find_eigenphases(field: CoinField) -> list[float]:
    """All eigenphases in ``[0, 2*pi)``, sorted ascending.

    With ``P = diag((-1)**x)`` the shift gives ``P U P = -U``, so the point
    spectrum, like the admissible set, is invariant under ``lam -> lam +
    pi``, and only one period is searched.  The residual is sampled once
    over each arc of :func:`_period_arcs`, at spacing ``2*pi /
    DEFAULT_GRID`` with 17 to 4001 samples per arc, so arcs narrower than
    the spacing are still seen.  Every local minimum is bracketed by its
    neighbours (the arc ends at the edges).  All brackets are refined
    together by :func:`_section_search` to width ``DEFAULT_REFINE_TOL`` and
    :func:`_polish` inside the sampled bracket.  Each refined phase ``x``
    whose residual is below ``10 * RESIDUAL_ACCEPT`` gets its partner: one
    more :func:`_polish` batch starts from the rounded ``x + pi`` (``x -
    pi`` past ``pi``) inside the bracket moved by as much.  The doubles
    near the partner are not those near ``x``, so each member of a pair is
    accepted on the residual at its own double.  The accepted phases are
    mapped by :func:`canonical_phase`, and phases within ``DEDUPE_TOL`` of
    each other keep the smaller residual.
    """
    h = TWO_PI / DEFAULT_GRID
    lo, hi = [np.empty(0)], [np.empty(0)]
    for s, e in _period_arcs(field):
        n = max(17, min(4001, 2 * int((e - s) / h) + 1))
        pts = s + (e - s) * (np.arange(n) + 0.5) / n
        res = np.pad(_residual_or_inf(field, pts), 1, constant_values=np.inf)
        mid = res[1:-1]
        k = np.flatnonzero(np.isfinite(mid) & (mid <= res[:-2]) & (mid <= res[2:]))
        ends = np.concatenate(([s], pts, [e]))
        lo.append(ends[k])
        hi.append(ends[k + 2])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    refined, res = _polish(field, _section_search(field, lo, hi, DEFAULT_REFINE_TOL), lo, hi)
    near = res < 10.0 * RESIDUAL_ACCEPT
    if near.any():
        # x - pi is exact past pi, so each partner keeps the precision of [0, 2*pi)
        shift = np.where(refined[near] < math.pi, math.pi, -math.pi)
        x, a, b = refined[near] + shift, lo[near] + shift, hi[near] + shift
        partner, partner_res = _polish(field, x, a, b)
        refined, res = np.concatenate((refined, partner)), np.concatenate((res, partner_res))
    found = sorted(
        (canonical_phase(x), r) for x, r in zip(refined.tolist(), res.tolist()) if r < RESIDUAL_ACCEPT
    )
    phases: list[float] = []
    best = math.inf
    for k, (lam, r) in enumerate(found):
        if phases and lam - found[k - 1][0] <= DEDUPE_TOL:
            if r < best:
                phases[-1], best = lam, r
        else:
            phases.append(lam)
            best = r
    return phases


def _powers(z: complex, xs: range) -> np.ndarray:
    """Column of ``z ** x`` over ``xs``; Python's powers are 3x more accurate than numpy's."""
    return np.array([z ** x for x in xs], dtype=np.complex128)[:, None]


@dataclass(frozen=True)
class GeometricVector:
    """Lattice vector with geometric tails outside a finite core.

    ``value(x)`` equals ``plus_coef * zeta_in**x`` for ``x >= plus_cut``
    (with ``|zeta_in| < 1``), ``minus_coef * zeta_out**x`` for
    ``x <= minus_cut`` (with ``|zeta_out| > 1``), and the stored ``middle``
    rows on the sites strictly between the cuts.  Norms and tail masses are
    geometric series and are therefore evaluated in closed form.
    """

    plus_cut: int
    minus_cut: int
    zeta_in: complex
    zeta_out: complex
    plus_coef: np.ndarray
    minus_coef: np.ndarray
    middle: np.ndarray

    def value(self, x: int) -> np.ndarray:
        return self.values(x, x)[0]

    def values(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``x = lo .. hi`` of the vector, one closed form per region."""
        m, p = self.minus_cut, self.plus_cut
        return np.concatenate((
            self.minus_coef * _powers(self.zeta_out, range(lo, min(hi, m) + 1)),
            self.middle[max(lo - m - 1, 0) : max(min(hi, p - 1) - m, 0)],
            self.plus_coef * _powers(self.zeta_in, range(max(lo, p), hi + 1)),
        ))

    def norm_sq_total(self) -> float:
        """Total squared norm over the whole lattice, tails in closed form."""
        r = abs(self.zeta_in) ** 2
        rho = abs(self.zeta_out) ** 2
        plus = float(np.sum(np.abs(self.plus_coef) ** 2)) * r ** self.plus_cut / (1.0 - r)
        minus = (
            float(np.sum(np.abs(self.minus_coef) ** 2))
            * rho ** self.minus_cut
            / (1.0 - 1.0 / rho)
        )
        return plus + minus + float(np.sum(np.abs(self.middle) ** 2))

    def mass_outside(self, lo: int, hi: int) -> float:
        inside = float(np.sum(np.abs(self.values(lo, hi)) ** 2))
        return max(self.norm_sq_total() - inside, 0.0)

    def scaled(self, factor: complex) -> "GeometricVector":
        return GeometricVector(
            self.plus_cut,
            self.minus_cut,
            self.zeta_in,
            self.zeta_out,
            factor * self.plus_coef,
            factor * self.minus_coef,
            factor * self.middle,
        )

    def overlap(self, state: WalkState) -> complex:
        """Inner product with a finite-support state (conjugating self)."""
        vals = self.values(state.lo, state.hi)
        return complex(np.sum(vals.conj() * state.amps))

    def tail_halfwidth(self, eps: float = 1e-16) -> int:
        """Half-width ``H`` with mass outside ``[-H, H]`` below ``eps``."""
        need = max(abs(self.plus_cut), abs(self.minus_cut)) + 1
        r = abs(self.zeta_in) ** 2
        p = float(np.sum(np.abs(self.plus_coef) ** 2))
        if p > 0.0:
            # p * r**x / (1 - r) <= eps / 2
            need = max(need, math.ceil(math.log(eps * (1 - r) / (2 * p), r)))
        rho = abs(self.zeta_out) ** 2
        q = float(np.sum(np.abs(self.minus_coef) ** 2))
        if q > 0.0:
            need = max(need, math.ceil(math.log(eps * (1 - 1 / rho) / (2 * q), 1 / rho)))
        return int(need)


@dataclass(frozen=True)
class EigenPair:
    """An eigenphase, its matching generator and its eigenvector.

    ``phi`` is the unit reshaped solution ``[psi_L(-1), psi_R(0)]`` at site
    0, and ``raw`` the walker-space eigenvector the transfer recurrence
    builds, scaled to equal ``phi`` there.  ``norm_factor`` scales ``raw``
    to unit total norm, computed in closed form.
    """

    lam: float
    phi: np.ndarray
    raw: GeometricVector
    norm_factor: float

    def vector(self) -> GeometricVector:
        """The unit-norm eigenvector in walker space."""
        return self.raw.scaled(self.norm_factor)


def build_eigenvectors(field: CoinField, phases: Sequence[float]) -> tuple[EigenPair, ...]:
    """Reconstruct the (unique up to phase) unit eigenvectors at eigenphases.

    The reshaped solution ``tilde`` holds ``[psi_L(x-1), psi_R(x)]`` on the
    core sites ``x_minus .. x_plus``: :func:`_site_step` carries the left
    starts of :func:`_residual_core`, which already lie in the decaying
    eigenspace of ``T_left``, forward through the core in one recurrence
    over all phases and records every site.  Outside the core it continues
    geometrically with ratios ``zeta_in`` (right) and ``zeta_out`` (left).

    The rows are scaled so that ``tilde`` at site 0, the matching generator
    ``phi``, is a unit vector with its first component real and positive.
    Every transfer matrix preserves the flux ``|v0|**2 - |v1|**2``, which a
    square-summable solution has at zero, so both components of ``phi``
    have modulus ``1/sqrt(2)``: neither is ever zero, and neither is larger
    except by rounding.  A phase outside the admissible set, or whose
    residual does not certify an eigenphase, raises :class:`NoEigenvalueError`.
    """
    lams = np.asarray(phases, dtype=np.float64) % TWO_PI
    if not lams.size:
        return ()
    bad = lams[~in_admissible_set(field, lams)]
    if bad.size:
        raise NoEigenvalueError(f"phase {float(bad[0])!r} is not admissible")
    res, _, (z, v0, v1) = _residual_core(field, lams)
    bad = np.flatnonzero(res >= RESIDUAL_ACCEPT)
    if bad.size:
        k = bad[0]
        raise NoEigenvalueError(f"residual {res[k]:.3e} at phase {float(lams[k])!r} is too large")
    x_m, x_p = field.x_minus, field.x_plus
    rows = [(v0, v1)]
    for x in range(x_m, x_p):
        v0, v1 = _site_step(field.coin(x), z, v0, v1)
        rows.append((v0, v1))
    pairs = []
    zetas = zip(contracting_zeta(field.right, lams).tolist(), expanding_zeta(field.left, lams).tolist())
    for lam, tilde, (zeta_in, zeta_out) in zip(lams.tolist(), np.moveaxis(np.array(rows), -1, 0), zetas):
        s0, s1 = tilde[-x_m]
        tilde *= s0.conjugate() / (abs(s0) * math.hypot(abs(s0), abs(s1)))
        raw = GeometricVector(
            plus_cut=x_p,
            minus_cut=x_m,
            zeta_in=zeta_in,
            zeta_out=zeta_out,
            plus_coef=np.array([zeta_in * tilde[-1, 0], tilde[-1, 1]]) * zeta_in ** (-x_p),
            minus_coef=np.array([zeta_out * tilde[0, 0], tilde[0, 1]]) * zeta_out ** (-x_m),
            middle=np.stack((tilde[2:, 0], tilde[1:-1, 1]), axis=-1),
        )
        pairs.append(EigenPair(lam, tilde[-x_m], raw, 1.0 / math.sqrt(raw.norm_sq_total())))
    return tuple(pairs)


def build_eigenvector(field: CoinField, lam: float) -> EigenPair:
    """The unit eigenvector at one eigenphase: :func:`build_eigenvectors` at ``lam``."""
    return build_eigenvectors(field, [lam])[0]


def limit_distribution(
    eigs: Sequence[EigenPair], initial: WalkState, window: tuple[int, int]
) -> Distribution:
    """Time-averaged limit distribution of the trapped component on ``window``.

    ``masses(x) = sum_lam |<vec_lam, initial>|^2 ||vec_lam(x)||^2`` for
    ``x = lo .. hi`` with ``(lo, hi) = window``, where the sum runs over the
    (simple) eigenphases.
    """
    lo, hi = int(window[0]), int(window[1])
    masses = np.zeros(hi - lo + 1)
    for pair in eigs:
        vec = pair.vector()
        weight = abs(vec.overlap(initial)) ** 2
        vals = vec.values(lo, hi)
        masses += weight * (np.abs(vals[:, 0]) ** 2 + np.abs(vals[:, 1]) ** 2)
    return Distribution(lo, masses)


def trapped_mass(eigs: Sequence[EigenPair], initial: WalkState) -> float:
    """Squared norm of the initial state's projection onto the point spectrum."""
    return float(sum(abs(p.vector().overlap(initial)) ** 2 for p in eigs))


def is_strongly_trapped(eigs: Sequence[EigenPair]) -> bool:
    """True when two eigenvectors have linearly independent origin values.

    Exactly then does every origin-supported initial state keep positive
    time-averaged mass at the origin.
    """
    vals = [p.vector().value(0) for p in eigs]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            vi, vj = vals[i], vals[j]
            minor = abs(vi[0] * vj[1] - vi[1] * vj[0])
            scale = float(np.linalg.norm(vi) * np.linalg.norm(vj))
            if minor > INDEPENDENCE_TOL * scale:
                return True
    return False


@dataclass(frozen=True)
class SpectralReport:
    """Full spectral analysis of one coin field."""

    eigenpairs: tuple[EigenPair, ...]
    strongly_trapped: bool


def analyze(field: CoinField) -> SpectralReport:
    """Locate all eigenphases, build their eigenvectors, classify trapping."""
    phases = find_eigenphases(field)
    pairs = build_eigenvectors(field, phases)
    return SpectralReport(pairs, is_strongly_trapped(pairs))
