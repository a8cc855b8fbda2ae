"""Direct time evolution ``U = S C`` of a two-state walk on a lattice window.

States carry a pair of amplitudes (left-mover, right-mover) per site on a
finite window.  Because a step moves amplitude by exactly one site, any
window containing the light cone reproduces the infinite-lattice dynamics
exactly; :func:`window_for` returns such a window and :func:`evolve`
allocates it once up front.

One kernel, ``_propagate``, serves :func:`evolve` and :func:`time_averaged`.
It keeps the coin entries ``a, b, c, d`` and the left- and right-mover
amplitudes as contiguous vectors over the window, and each step updates
only the light cone of the initial support, which grows by one site per
side.  ``t`` steps from a point state cost about ``t**2`` site updates,
against ``2 t**2`` on the full window; :func:`time_averaged` likewise adds
only each cone's masses.  Numpy's complex product rounds differently from
a ``2 x 2`` matrix product, so the amplitudes agree with a full-window
``einsum`` kernel to ``t * eps`` (``eps`` = 2.2e-16) per entry, and time
averages to 1e-13, not bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .algebra import Coin, coin_matrix


class WindowOverflowError(RuntimeError):
    """Nonzero amplitude would be shifted off a fixed lattice window."""


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


def window_for(t: int, field: CoinField, support: tuple[int, int]) -> tuple[int, int]:
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
    rows = np.clip(np.arange(lo, hi + 1) - field.x_minus, 0, len(field.middle) + 1)
    return np.take(table.reshape(-1, 4).T, rows, axis=1)


def step(state: WalkState, field: CoinField) -> WalkState:
    """One application of ``U = S C``; the window grows by one site per side."""
    return WalkState(state.lo - 1, evolve(state, field, 1).amps[1:-1])


def _shift_fixed(mixed: np.ndarray) -> np.ndarray:
    """Shift on a fixed window; edge amplitudes must be exactly zero."""
    if mixed[0, 0] != 0 or mixed[-1, 1] != 0:
        raise WindowOverflowError("amplitude reached the window edge")
    out = np.empty_like(mixed)
    out[:-1, 0] = mixed[1:, 0]
    out[-1, 0] = 0.0
    out[1:, 1] = mixed[:-1, 1]
    out[0, 1] = 0.0
    return out


def _propagate(
    initial: WalkState, field: CoinField, t: int
) -> Iterator[tuple[int, slice, np.ndarray, np.ndarray]]:
    """Amplitudes after 0, 1, .., ``t`` steps on the light-cone window of ``t`` steps.

    Yields ``(lo, cone, left, right)``: ``left[k]`` and ``right[k]`` are the
    left- and right-mover amplitudes of site ``lo + k``, and every entry
    outside the slice ``cone`` is exactly zero.  Both vectors are updated
    in place by the next step, so a consumer copies what it keeps.
    """
    lo, hi = window_for(t, field, (initial.lo, initial.hi))
    n = hi - lo + 1
    a, b, c, d = _coin_coefficients(field, lo, hi)
    left = np.zeros(n, dtype=np.complex128)
    right = np.zeros(n, dtype=np.complex128)
    start = initial.lo - lo  # cones are rows p .. n - p - 1: the window is symmetric
    left[start : n - start] = initial.amps[:, 0]
    right[start : n - start] = initial.amps[:, 1]
    yield lo, slice(start, n - start), left, right
    scratch = np.empty((4, n), dtype=np.complex128)
    for p in range(start, 1, -1):
        q = n - p
        aL, bR, cL, dR = (s[: q - p] for s in scratch)
        np.multiply(a[p:q], left[p:q], out=aL)
        np.multiply(b[p:q], right[p:q], out=bR)
        np.multiply(c[p:q], left[p:q], out=cL)
        np.multiply(d[p:q], right[p:q], out=dR)
        np.add(aL, bR, out=left[p - 1 : q - 1])  # S moves left-movers one site left
        np.add(cL, dR, out=right[p + 1 : q + 1])  # and right-movers one site right
        left[q - 1] = 0.0
        right[p] = 0.0
        yield lo, slice(p - 1, q + 1), left, right


def evolve(initial: WalkState, field: CoinField, t: int) -> WalkState:
    """``t``-fold composition of :func:`step` on a preallocated light-cone window."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return initial
    for lo, _, left, right in _propagate(initial, field, t):
        pass
    return WalkState(lo, np.stack((left, right), axis=1))


def probability(state: WalkState) -> Distribution:
    """Per-site mass ``|amp_L|^2 + |amp_R|^2`` of a state."""
    masses = np.abs(state.amps[:, 0]) ** 2 + np.abs(state.amps[:, 1]) ** 2
    return Distribution(state.lo, masses)


class _PairwiseSum:
    """Binary-counter pairwise accumulation with O(log n) partial blocks.

    A block is ``(offset, values)``: the slice at ``offset`` of an array
    that is zero elsewhere.  Each term must cover the slices of all earlier
    terms, as a growing light cone does, and hold no negative zeros; the
    sums then equal, bit for bit, those of the zero-padded arrays, because
    adding an exact zero changes nothing.
    """

    def __init__(self) -> None:
        self._blocks: list[tuple[int, np.ndarray] | None] = []

    @staticmethod
    def _merge(outer: tuple[int, np.ndarray], inner: tuple[int, np.ndarray]) -> tuple[int, np.ndarray]:
        """Add ``inner`` into ``outer``'s values in place; ``outer`` covers ``inner``."""
        start = inner[0] - outer[0]
        outer[1][start : start + len(inner[1])] += inner[1]
        return outer

    def add(self, offset: int, term: np.ndarray) -> None:
        """Accumulate ``term`` at ``offset``; the sum takes ownership of ``term``."""
        carry = (offset, term)
        for i, block in enumerate(self._blocks):
            if block is None:
                self._blocks[i] = carry
                return
            carry = self._merge(carry, block)
            self._blocks[i] = None
        self._blocks.append(carry)

    def value(self) -> tuple[int, np.ndarray]:
        """``(offset, values)`` of the sum so far."""
        total = None
        for block in self._blocks:
            if block is not None:
                total = (block[0], block[1].copy()) if total is None else self._merge(total, block)
        if total is None:
            raise ValueError("nothing accumulated")
        return total


def time_averaged(initial: WalkState, field: CoinField, horizon: int) -> Distribution:
    """Average of the site distributions over times ``0 .. horizon - 1``."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    acc = _PairwiseSum()
    for lo, cone, left, right in _propagate(initial, field, horizon - 1):
        acc.add(cone.start, np.abs(left[cone]) ** 2 + np.abs(right[cone]) ** 2)
    offset, total = acc.value()
    masses = np.zeros(len(left))
    masses[offset : offset + len(total)] = total / horizon
    return Distribution(lo, masses)
