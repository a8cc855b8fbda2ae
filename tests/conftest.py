"""Shared fixtures: seeded random draws, cached per-figure analyses and the transfer matrix.

The spectral analyses at the default grid are the slowest objects the
suite needs; they are computed once per session and shared by every test
that asks for them.
"""

import functools
import math

import numpy as np
import pytest

from qwtrap.algebra import Coin, make_coin
from qwtrap.figures import preset
from qwtrap.spectral import SpectralReport, analyze
from qwtrap.walk import CoinField


def transfer_matrix(coin: Coin, lam) -> np.ndarray:
    """Transfer matrix of the reshaped eigenvector recurrence at one site.

    An array of phases gives one matrix per phase, of shape
    ``lam.shape + (2, 2)``.  The solver forms no transfer matrix: the core
    is stepped through with ``spectral._site_step``, and the left start of
    ``spectral._residual_core`` is the kernel of ``T_left - zeta_out`` in
    closed form.  This matrix is the reference those are checked against;
    on hyperbolic phases its eigenvalues are ``contracting_zeta`` and
    ``expanding_zeta``.
    """
    e = np.exp(1j * (lam - coin.delta))
    a = coin.alpha
    out = np.empty(np.shape(e) + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = e / a
    out[..., 0, 1] = -coin.beta / a
    out[..., 1, 0] = -coin.beta.conjugate() / a
    out[..., 1, 1] = e.conjugate() / a
    return out


def random_coin(rng, delta: float | None = None, margin: float = 0.05) -> Coin:
    """Coin with both moduli bounded away from 0 and uniform phases."""
    th = rng.uniform(margin, math.pi / 2.0 - margin)
    pa, pb = rng.uniform(0.0, 2.0 * math.pi, size=2)
    d = rng.uniform(0.0, 2.0 * math.pi) if delta is None else delta
    return make_coin(
        math.cos(th) * complex(math.cos(pa), math.sin(pa)),
        math.sin(th) * complex(math.cos(pb), math.sin(pb)),
        d,
    )


def random_field(rng, max_cut: int = 3) -> CoinField:
    x_minus = -int(rng.integers(1, max_cut + 1))
    x_plus = int(rng.integers(1, max_cut + 1))
    middle = tuple(random_coin(rng) for _ in range(x_plus - x_minus - 1))
    return CoinField(x_minus, x_plus, middle, random_coin(rng), random_coin(rng))


def random_unit_psi(rng) -> tuple[complex, complex]:
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return complex(v[0], v[1]), complex(v[2], v[3])


@functools.lru_cache(maxsize=None)
def _spectral(fig_id: int) -> SpectralReport:
    return analyze(preset(fig_id).field())


@functools.lru_cache(maxsize=None)
def _closed(fig_id: int):
    return preset(fig_id).report()


@pytest.fixture(scope="session")
def spectral_of():
    """fig_id -> cached SpectralReport at the default grid."""
    return _spectral


@pytest.fixture(scope="session")
def closed_of():
    """fig_id -> cached closed-form ModelReport at the preset state."""
    return _closed


@pytest.fixture()
def rng():
    return np.random.default_rng(20260814)


# one printed verdict line per acceptance criterion, emitted after the run
ACCEPTANCE_RESULTS: dict[int, tuple[str, bool, str]] = {}


def record_acceptance(num: int, title: str, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS[num] = (title, bool(ok), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria", sep="-")
    for num in sorted(ACCEPTANCE_RESULTS):
        title, ok, detail = ACCEPTANCE_RESULTS[num]
        line = f"[A{num}] {title}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
