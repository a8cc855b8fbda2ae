"""Direct time evolution ``U = S C`` of a two-state walk on a lattice window.

States carry a pair of amplitudes (left-mover, right-mover) per site on a
finite window.  Because a step moves amplitude by exactly one site, any
window containing the light cone reproduces the infinite-lattice dynamics
exactly; :func:`window_for` returns such a window and :func:`evolve`
allocates it once up front.

A step also flips the parity of every occupied site, so the even and odd
sites of a state evolve as two classes that never share a site; a point
state at ``x0`` lives at time ``t`` on the sites with ``x - x0 - t`` even.
The kernel ``_propagate`` carries one class on half-length vectors, with
the coin entries split once into even- and odd-site arrays, and updates
the light cone plus a margin of up to ``_MARGIN`` = 64 sites per side:
six ufunc calls per step on views rebuilt only when the cone reaches the
margin's edge.  Past the cone the coin products keep zeros zero, so this
is exact, and ``t`` steps from a point state cost about ``t**2 / 2`` site
updates.  :func:`time_averaged` squares the region's real and imaginary
parts into a block per parity and, at each rebuild, folds the block's
per-site sums into a pairwise sum of window-length terms.  Once
``|alpha|**t`` < 1e-308 the cone's tails would turn subnormal, which is
slow, so both kernels scale the state exactly by a power of two to put
its largest amplitude near 2**450, and a rebuild that finds an outermost
column of the cone below ``floor * 2**200`` sets every real or imaginary
part below ``floor`` = 2**-511 to +0.0 and shrinks the cone to the nonzero
columns left: every part kept, and its square, is normal.  By unitarity
the flushes move a state by at most about 1e-285 of its norm at ``T`` <=
4000.  Amplitudes agree with a full-window ``einsum`` kernel to ``t * eps``
(``eps`` = 2.2e-16) per entry and time averages to 1e-13.  Against a
kernel that updates every site of the cone the amplitudes are equal until
a flush, and time averages, summed in another order, agree to ``16 eps``
times the mass plus the smallest normal double.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .algebra import Coin, coin_matrix


@dataclass(frozen=True)
class CoinField:
    """Site-dependent coins, constant outside the core ``(x_minus, x_plus)``.

    ``middle`` lists the coins on sites ``x_minus+1 .. x_plus-1`` in order;
    ``left`` rules every site ``<= x_minus`` and ``right`` every site
    ``>= x_plus``.
    """

    x_minus: int
    x_plus: int
    middle: tuple[Coin, ...]
    left: Coin
    right: Coin

    def __post_init__(self) -> None:
        if not (self.x_minus < 0 < self.x_plus):
            raise ValueError(
                "cuts must satisfy x_minus < 0 < x_plus, got "
                f"({self.x_minus}, {self.x_plus})"
            )
        expected = self.x_plus - self.x_minus - 1
        if len(self.middle) != expected:
            raise ValueError(
                f"need {expected} middle coins for cuts "
                f"({self.x_minus}, {self.x_plus}), got {len(self.middle)}"
            )
        object.__setattr__(self, "middle", tuple(self.middle))

    def coin(self, x: int) -> Coin:
        if x >= self.x_plus:
            return self.right
        if x <= self.x_minus:
            return self.left
        return self.middle[x - self.x_minus - 1]


def uniform_field(coin: Coin) -> CoinField:
    """Spatially homogeneous field: the same coin on every site."""
    return CoinField(-1, 1, (coin,), coin, coin)


def defect_field(left: Coin, origin: Coin, right: Coin) -> CoinField:
    """Two-phase field with a single defect site at the origin."""
    return CoinField(-1, 1, (origin,), left, right)


@dataclass(frozen=True)
class WalkState:
    """Amplitude pairs on the window ``[lo, lo + n - 1]``.

    ``amps[k]`` holds the (left-mover, right-mover) amplitudes of site
    ``lo + k``.  No operation mutates a state in place.
    """

    lo: int
    amps: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amps, dtype=np.complex128)
        if amps.ndim != 2 or amps.shape[1] != 2 or amps.shape[0] == 0:
            raise ValueError(f"amplitudes must have shape (n, 2), got {amps.shape}")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("amplitudes must be finite")
        object.__setattr__(self, "amps", amps)

    @property
    def hi(self) -> int:
        return self.lo + len(self.amps) - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def amplitude(self, x: int) -> np.ndarray:
        if self.lo <= x <= self.hi:
            return self.amps[x - self.lo].copy()
        return np.zeros(2, dtype=np.complex128)

    @classmethod
    def point(cls, psi1, psi2, x: int = 0) -> "WalkState":
        """State supported on the single site ``x``."""
        return cls(x, np.array([[psi1, psi2]], dtype=np.complex128))


@dataclass(frozen=True)
class Distribution:
    """Nonnegative masses on the integer window ``[lo, lo + n - 1]``."""

    lo: int
    masses: np.ndarray

    def __post_init__(self) -> None:
        masses = np.asarray(self.masses, dtype=np.float64)
        if masses.ndim != 1:
            raise ValueError(f"masses must be one-dimensional, got {masses.shape}")
        if masses.size and float(masses.min()) < 0.0:
            raise ValueError("masses must be nonnegative")
        object.__setattr__(self, "masses", masses)

    @property
    def hi(self) -> int:
        return self.lo + len(self.masses) - 1

    def total(self) -> float:
        return float(np.sum(self.masses))

    def mass_at(self, x: int) -> float:
        if self.lo <= x <= self.hi:
            return float(self.masses[x - self.lo])
        return 0.0

    def sites(self) -> np.ndarray:
        return np.arange(self.lo, self.lo + len(self.masses))


def window_for(t: int, support: tuple[int, int]) -> tuple[int, int]:
    """Window certain to contain the light cone of ``support`` after ``t`` steps."""
    if t < 0:
        raise ValueError("t must be >= 0")
    lo, hi = min(support), max(support)
    return lo - t - 1, hi + t + 1


def _coin_coefficients(field: CoinField, lo: int, hi: int) -> np.ndarray:
    """Entries ``a, b, c, d`` of ``C_x = [[a, b], [c, d]]`` for ``x = lo .. hi``.

    A ``(4, hi - lo + 1)`` array whose rows are contiguous.  Each distinct
    coin's matrix is built once and broadcast over the sites it rules.
    """
    table = np.array([coin_matrix(c) for c in (field.left, *field.middle, field.right)])
    rows = np.minimum(np.maximum(np.arange(lo, hi + 1) - field.x_minus, 0), len(field.middle) + 1)
    return np.take(table.reshape(-1, 4).T, rows, axis=1)


#: sites per side by which ``_propagate``'s region outgrows the light cone
_MARGIN = 64
#: the kernels scale a state's largest amplitude to near ``2**_TOP`` and flush parts below ``_ROOT_TINY``
_TOP, _ROOT_TINY = 450, 2.0**-511


def _parity_classes(initial: WalkState, lo: int, n: int) -> tuple[int, list[tuple[np.ndarray, int]]]:
    """``(scale, classes)``: ``2**scale`` puts the largest amplitude of ``initial`` near ``2**_TOP``.

    ``classes`` holds ``(amps, e)`` per parity class with a nonzero amplitude: its left- and right-movers times
    ``2**scale``, ``j`` standing for site ``lo - 2 + 2 j + e``, on ``[lo, lo + n - 1]`` plus a spare index per side.
    """
    scale = _TOP - int(np.frexp(np.abs(initial.amps).max())[1])
    m, classes = (n + 6) // 2, []
    for first in range(min(2, len(initial.amps))):  # a one-site state has one class
        rows = initial.amps[first::2]
        if rows.any():
            site = initial.lo + first - lo + 2  # counted from lo - 2
            amps = np.zeros((2, m), dtype=np.complex128)
            amps[:, site // 2 : site // 2 + len(rows)] = rows.T
            np.ldexp(amps.view(np.float64), scale, out=amps.view(np.float64))  # exact: a power of two
            classes.append((amps, site % 2))
    return scale, classes


def _propagate(field: CoinField, base: int, amps: np.ndarray, e: int, t: int) -> Iterator[tuple[int, slice]]:
    """Steps 0, 1, .., ``t`` of one parity class, in place on its ``(2, m)`` amplitudes.

    Index ``j`` stands for site ``base + 2 j + e``; each step flips ``e``.
    Yields ``(e, region)`` at each step: the slice ``region`` holds every
    nonzero entry and stays the same object until it is rebuilt.  A step
    leaves the left-mover at its last index and the right-mover at its
    first as they were, so the cone ``lo .. hi`` is kept one index inside it.
    A rebuild that finds the cone's outermost column on either side below ``_ROOT_TINY * 2**200``
    sets every part in the region below ``_ROOT_TINY`` to +0.0 and shrinks ``lo .. hi`` to the
    nonzero columns left; by unitarity a flush moves the state by at most ``sqrt(4 m) * _ROOT_TINY``.
    """
    m = amps.shape[1]
    coins = _coin_coefficients(field, base, base + 2 * m - 1).reshape(4, m, 2)
    coins = np.ascontiguousarray(coins.transpose(2, 0, 1))  # a, b, c, d on even, then odd sites
    left, right = amps
    scratch = np.empty((4, m), dtype=np.complex128)
    occupied = np.flatnonzero(amps.any(axis=0))
    lo, hi = int(occupied[0]), int(occupied[-1])
    r, s, region = lo, hi + 1, None
    for remaining in range(t, -1, -1):
        if region is None or remaining and (lo <= r or hi >= s - 1):
            if min(max(abs(left[j]), abs(right[j])) for j in (lo, hi)) < _ROOT_TINY * 2.0**200:
                floats = amps[:, r:s].view(np.float64)
                floats[np.abs(floats, out=scratch.view(np.float64)[:2, : 2 * (s - r)]) < _ROOT_TINY] = 0.0
                kept = floats.any(axis=0)
                if kept.any():  # else the class stays zero
                    lo, hi = r + int(kept.argmax()) // 2, s - 1 - int(kept[::-1].argmax()) // 2
            r, s = max(1, lo - _MARGIN // 2), min(m - 1, hi + _MARGIN // 2 + 2)
            region = slice(r, s)
            aL, bR, cL, dR = (row[: s - r] for row in scratch)
            ops = [  # S moves left-movers to j - 1 from even sites, right-movers to j + 1 from odd ones
                ((np.multiply, a[r:s], left[r:s], aL), (np.multiply, b[r:s], right[r:s], bR),
                 (np.multiply, c[r:s], left[r:s], cL), (np.multiply, d[r:s], right[r:s], dR),
                 (np.add, aL, bR, left[r - 1 + p : s - 1 + p]), (np.add, cL, dR, right[r + p : s + p]))
                for p, (a, b, c, d) in enumerate(coins)
            ]
        yield e, region
        if remaining:
            for op, x, y, out in ops[e]:
                op(x, y, out)
            lo, hi, e = lo + e - 1, hi + e, 1 - e


def evolve(initial: WalkState, field: CoinField, t: int) -> WalkState:
    """``t`` applications of ``U = S C`` on a preallocated light-cone window."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return initial
    lo, hi = window_for(t, (initial.lo, initial.hi))
    out = np.zeros((hi - lo + 1, 2), dtype=np.complex128)
    scale, classes = _parity_classes(initial, lo, len(out))
    for amps, e in classes:
        for e, _ in _propagate(field, lo - 2, amps, e, t):
            pass
        out[e::2] = amps[:, 1 : 1 + len(out[e::2])].T  # the classes occupy disjoint sites
    np.ldexp(out.view(np.float64), -scale, out=out.view(np.float64))  # exact for normal parts
    return WalkState(lo, out)


def probability(state: WalkState) -> Distribution:
    """Per-site mass ``|amp_L|^2 + |amp_R|^2`` of a state."""
    masses = np.abs(state.amps[:, 0]) ** 2 + np.abs(state.amps[:, 1]) ** 2
    return Distribution(state.lo, masses)


def _pairwise_add(sums: list, term: np.ndarray) -> None:
    """Carry ``term`` up the binary counter ``sums``, whose block ``i`` sums ``2**i`` terms or is ``None``."""
    for i, block in enumerate(sums):
        if block is None:
            sums[i] = term
            return
        sums[i], term = None, np.add(block, term, out=block)
    sums.append(term)


def time_averaged(initial: WalkState, field: CoinField, horizon: int) -> Distribution:
    """Average of the site distributions over times ``0 .. horizon - 1``."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    lo, hi = window_for(horizon - 1, (initial.lo, initial.hi))
    masses = np.zeros(hi - lo + 1)
    scale, classes = _parity_classes(initial, lo, len(masses))
    for amps, e in classes:
        floats, sums, region = amps.view(np.float64), [], None
        def fold() -> None:  # the region's squares, summed per site; index i is site lo - 2 + i
            term = np.zeros(floats.shape[1])
            term[2 * region.start : 2 * region.stop] = blocks.reshape(2, 2, -1, 2).sum(axis=(1, 3)).T.ravel()
            _pairwise_add(sums, term)
        for e, now in _propagate(field, lo - 2, amps, e, horizon - 1):
            if now is not region:
                if region is not None:
                    fold()
                region, squares = now, floats[:, 2 * now.start : 2 * now.stop]
                buffer, blocks = np.empty_like(squares), np.zeros((2, *squares.shape))
                by_parity = tuple(blocks)
            np.square(squares, out=buffer)
            np.add(by_parity[e], buffer, out=by_parity[e])
        fold()
        total, *higher = (block for block in sums if block is not None)
        for block in higher:  # low to high, as the counter filled them
            total += block
        total = total[2 : 2 + len(masses)]
        masses += np.ldexp(np.divide(total, horizon, out=total), -2 * scale, out=total)  # exact for normal masses
    return Distribution(lo, masses)
