"""Validated coin parameters and the coin matrix.

Everything in this module is pure and allocation-light: coins are frozen
dataclasses and the coin matrix is a plain ``(2, 2)`` complex numpy array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

#: Tolerance for constructor-level invariants (unit coin rows, unit states).
VALIDATE_TOL = 1e-12

TWO_PI = 2.0 * math.pi


def _as_finite_complex(value, name: str) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return z


@dataclass(frozen=True)
class Coin:
    """Parameters ``(alpha, beta, delta)`` of one lattice site's coin.

    The coin matrix is ``exp(i*delta) [[alpha, beta], [-conj(beta),
    conj(alpha)]]`` with ``|alpha|^2 + |beta|^2 = 1`` and ``alpha != 0``, so
    it is unitary by construction.  ``delta`` is stored reduced into
    ``[0, 2*pi)``.
    """

    alpha: complex
    beta: complex
    delta: float

    def __post_init__(self) -> None:
        alpha = _as_finite_complex(self.alpha, "alpha")
        beta = _as_finite_complex(self.beta, "beta")
        delta = float(self.delta)
        if not math.isfinite(delta):
            raise ValueError(f"delta must be finite, got {self.delta!r}")
        row_norm = abs(alpha) ** 2 + abs(beta) ** 2
        if abs(row_norm - 1.0) > VALIDATE_TOL:
            raise ValueError(f"|alpha|^2 + |beta|^2 = {row_norm!r} is not 1")
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
        delta %= TWO_PI
        if delta >= TWO_PI:  # rounding can land exactly on the seam
            delta -= TWO_PI
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "delta", delta)


def make_coin(alpha, beta, delta: float = 0.0) -> Coin:
    """Validated coin constructor; reduces ``delta`` modulo ``2*pi``."""
    return Coin(alpha, beta, delta)


def coin_matrix(coin: Coin) -> np.ndarray:
    """The unitary matrix ``exp(i*delta) [[alpha, beta], [-conj(beta), conj(alpha)]]``."""
    phase = cmath.exp(1j * coin.delta)
    return np.array(
        [
            [phase * coin.alpha, phase * coin.beta],
            [-phase * coin.beta.conjugate(), phase * coin.alpha.conjugate()],
        ],
        dtype=np.complex128,
    )

