"""Coin validation and the closed-form 2x2 eigensolver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_coin
from qwtrap.algebra import (
    TWO_PI,
    Coin,
    coin_matrix,
    eig2,
    make_coin,
    mat2,
    vec2,
)

R = 1.0 / math.sqrt(2.0)


def test_make_coin_accepts_hadamard():
    c = make_coin(R, R)
    assert c.alpha == R and c.beta == R and c.delta == 0.0


def test_make_coin_rejects_non_unit_row():
    with pytest.raises(ValueError, match="is not 1"):
        make_coin(0.8, 0.7)


def test_make_coin_rejects_zero_alpha():
    with pytest.raises(ValueError, match="alpha must be nonzero"):
        make_coin(0.0, 1.0)


def test_make_coin_rejects_nonfinite():
    with pytest.raises(ValueError):
        make_coin(float("nan"), 1.0)
    with pytest.raises(ValueError):
        make_coin(R, R, float("inf"))


def test_delta_reduced_into_period():
    c = make_coin(R, R, -0.5)
    assert 0.0 <= c.delta < TWO_PI
    assert c.delta == pytest.approx(TWO_PI - 0.5, abs=0.0)


def test_delta_plus_period_identical():
    # exact equality after reduction, not merely approximate
    base = make_coin(R, 1j * R, 1.25)
    assert make_coin(R, 1j * R, 1.25 + TWO_PI).delta == base.delta


def test_coin_matrix_unitary_bulk(rng):
    worst = 0.0
    eye = np.eye(2)
    for _ in range(1000):
        m = coin_matrix(random_coin(rng, margin=1e-3))
        worst = max(worst, float(np.max(np.abs(m @ m.conj().T - eye))))
    assert worst <= 1e-12


def test_coin_matrix_determinant_is_pure_phase(rng):
    for _ in range(100):
        c = random_coin(rng)
        det = np.linalg.det(coin_matrix(c))
        assert det == pytest.approx(np.exp(2j * c.delta), abs=1e-12)


def test_eig2_reconstruction_random(rng):
    for _ in range(500):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        bound = 1e-10 * (1.0 + float(np.linalg.norm(m)))
        z1, v1, z2, v2 = eig2(m)
        assert float(np.linalg.norm(m @ v1 - z1 * v1)) <= bound
        assert float(np.linalg.norm(m @ v2 - z2 * v2)) <= bound
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(v2) == pytest.approx(1.0, abs=1e-12)


def test_eig2_diagonal():
    z1, v1, z2, v2 = eig2(mat2(3.0, 0.0, 0.0, -2.0))
    assert {complex(z1), complex(z2)} == {3.0 + 0j, -2.0 + 0j}


def test_eig2_defective_shear():
    # [[1, 1], [0, 1]] has a double eigenvalue with a 1-dim eigenspace
    z1, v1, z2, v2 = eig2(mat2(1.0, 1.0, 0.0, 1.0))
    assert z1 == pytest.approx(1.0, abs=1e-12)
    assert z2 == pytest.approx(1.0, abs=1e-12)
    assert abs(v1[1]) <= 1e-12


def test_eig2_scalar_matrix_returns_e1():
    # every vector is an eigenvector; the zero kernel matrix falls back to e1
    z1, v1, z2, v2 = eig2(mat2(2.0, 0.0, 0.0, 2.0))
    assert z1 == z2 == 2.0
    assert np.array_equal(v1, [1.0, 0.0]) and np.array_equal(v2, [1.0, 0.0])


def test_vec2_mat2_shapes():
    assert vec2(1, 2).shape == (2,)
    assert mat2(1, 2, 3, 4).shape == (2, 2)
    assert mat2(1, 2, 3, 4)[1, 0] == 3.0


@settings(max_examples=60, deadline=None)
@given(
    th=st.floats(min_value=1e-3, max_value=math.pi / 2 - 1e-3),
    pa=st.floats(min_value=0.0, max_value=TWO_PI),
    pb=st.floats(min_value=0.0, max_value=TWO_PI),
    d=st.floats(min_value=-10.0, max_value=10.0),
)
def test_coin_matrix_unitary_property(th, pa, pb, d):
    c = make_coin(
        math.cos(th) * complex(math.cos(pa), math.sin(pa)),
        math.sin(th) * complex(math.cos(pb), math.sin(pb)),
        d,
    )
    m = coin_matrix(c)
    assert float(np.max(np.abs(m @ m.conj().T - np.eye(2)))) <= 1e-12
    assert 0.0 <= c.delta < TWO_PI


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=8, max_size=8))
def test_eig2_trace_and_det_property(vals):
    m = np.array(vals[:4]).reshape(2, 2) + 1j * np.array(vals[4:]).reshape(2, 2)
    z1, _, z2, _ = eig2(m)
    assert z1 + z2 == pytest.approx(np.trace(m), abs=1e-9)
    assert z1 * z2 == pytest.approx(np.linalg.det(m), abs=1e-9)


def test_coin_is_frozen():
    c = make_coin(R, R)
    with pytest.raises(AttributeError):
        c.alpha = 1.0  # type: ignore[misc]
