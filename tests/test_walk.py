"""Direct evolution engine: norm conservation, light cone, time averages."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_coin, random_field, random_unit_psi
from qwtrap.algebra import coin_matrix, make_coin
from qwtrap.figures import PRESETS
from qwtrap.walk import (
    CoinField,
    Distribution,
    WalkState,
    WindowOverflowError,
    _coin_coefficients,
    _PairwiseSum,
    _shift_fixed,
    defect_field,
    evolve,
    probability,
    step,
    time_averaged,
    uniform_field,
    window_for,
)

R = 1.0 / math.sqrt(2.0)
HADAMARD = make_coin(R, R)


def test_field_requires_straddling_cuts():
    with pytest.raises(ValueError, match="x_minus < 0 < x_plus"):
        CoinField(1, 2, (HADAMARD,), HADAMARD, HADAMARD)


def test_field_requires_matching_middle_length():
    with pytest.raises(ValueError, match="middle"):
        CoinField(-2, 2, (HADAMARD,), HADAMARD, HADAMARD)


def test_field_coin_lookup():
    a = make_coin(R, 1j * R)
    f = CoinField(-2, 2, (a, HADAMARD, a), HADAMARD, a)
    assert f.coin(-5) is f.left
    assert f.coin(-2) is f.left
    assert f.coin(-1) is a
    assert f.coin(0) is HADAMARD
    assert f.coin(1) is a
    assert f.coin(2) is f.right
    assert f.coin(7) is f.right


def test_uniform_and_defect_builders():
    d = make_coin(R, -1j * R, 0.3)
    assert uniform_field(HADAMARD).coin(12) is HADAMARD
    f = defect_field(HADAMARD, d, HADAMARD)
    assert f.coin(0) is d and f.coin(1) is HADAMARD and f.coin(-1) is HADAMARD


def test_point_state():
    s = WalkState.point(R, 1j * R)
    assert s.lo == s.hi == 0
    assert s.norm_sq() == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(s.amplitude(3), 0.0)


def test_state_rejects_bad_shapes():
    with pytest.raises(ValueError):
        WalkState(0, np.zeros((0, 2)))
    with pytest.raises(ValueError):
        WalkState(0, np.zeros((3,)))
    with pytest.raises(ValueError):
        WalkState(0, np.array([[np.nan, 0.0]]))


def test_distribution_rejects_negative_mass():
    with pytest.raises(ValueError, match="nonnegative"):
        Distribution(0, np.array([0.5, -1e-3]))


def test_distribution_accessors():
    d = Distribution(-1, np.array([0.25, 0.5, 0.25]))
    assert d.hi == 1
    assert d.total() == pytest.approx(1.0, abs=0.0)
    assert d.mass_at(0) == 0.5
    assert d.mass_at(99) == 0.0
    assert list(d.sites()) == [-1, 0, 1]


def test_evolve_zero_steps_is_identity():
    s = WalkState.point(1.0, 0.0)
    assert evolve(s, uniform_field(HADAMARD), 0) is s


def test_evolve_rejects_negative_time():
    with pytest.raises(ValueError):
        evolve(WalkState.point(1.0, 0.0), uniform_field(HADAMARD), -1)


def test_single_step_hadamard_from_origin():
    # C sends (1,0) to (R, -R); S then moves the components apart
    out = evolve(WalkState.point(1.0, 0.0), uniform_field(HADAMARD), 1)
    assert out.amplitude(-1)[0] == pytest.approx(R, abs=1e-15)
    assert out.amplitude(1)[1] == pytest.approx(-R, abs=1e-15)
    assert probability(out).total() == pytest.approx(1.0, abs=1e-14)


def test_step_matches_evolve():
    s = WalkState.point(R, 1j * R)
    f = defect_field(HADAMARD, make_coin(R, 1j * R, 1.0), HADAMARD)
    via_step = step(step(step(s, f), f), f)
    via_evolve = evolve(s, f, 3)
    for x in range(-4, 5):
        assert np.allclose(via_step.amplitude(x), via_evolve.amplitude(x), atol=1e-14)


def test_light_cone_exact_zeros(rng):
    f = random_field(rng)
    out = evolve(WalkState.point(*random_unit_psi(rng)), f, 9)
    for x in range(out.lo, out.hi + 1):
        if abs(x) > 9:
            assert np.all(out.amplitude(x) == 0.0)


def test_norm_conserved_200_steps(rng):
    for _ in range(3):
        f = random_field(rng)
        s = WalkState.point(*random_unit_psi(rng))
        out = evolve(s, f, 200)
        assert abs(out.norm_sq() - 1.0) <= 1e-12


def test_linearity(rng):
    f = random_field(rng)
    a, b = 0.3 - 0.4j, -0.8 + 0.1j
    p = WalkState.point(1.0, 0.0)
    q = WalkState.point(0.0, 1.0)
    combo = WalkState.point(a, b)
    ep, eq, ec = evolve(p, f, 12), evolve(q, f, 12), evolve(combo, f, 12)
    for x in range(-13, 14):
        want = a * ep.amplitude(x) + b * eq.amplitude(x)
        assert np.allclose(ec.amplitude(x), want, atol=1e-12)


def test_probability_masses():
    s = WalkState(0, np.array([[0.6, 0.0], [0.0, 0.8j]]))
    d = probability(s)
    assert d.mass_at(0) == pytest.approx(0.36, abs=1e-15)
    assert d.mass_at(1) == pytest.approx(0.64, abs=1e-15)


def test_probability_total_bounded_for_unit_states(rng):
    f = random_field(rng)
    out = evolve(WalkState.point(*random_unit_psi(rng)), f, 50)
    assert probability(out).total() <= 1.0 + 1e-9


def test_window_for_contains_light_cone():
    lo, hi = window_for(10, uniform_field(HADAMARD), (0, 0))
    assert lo <= -10 and hi >= 10
    with pytest.raises(ValueError):
        window_for(-1, uniform_field(HADAMARD), (0, 0))


def test_shift_overflow_detected():
    # the fixed-window kernel refuses to shift mass off the edge
    from qwtrap.walk import _shift_fixed

    amps = np.zeros((3, 2), dtype=complex)
    amps[0, 0] = 1.0
    with pytest.raises(WindowOverflowError):
        _shift_fixed(amps)
    amps = np.zeros((3, 2), dtype=complex)
    amps[-1, 1] = 0.5
    with pytest.raises(WindowOverflowError):
        _shift_fixed(amps)


def test_time_averaged_total_one(rng):
    f = random_field(rng)
    avg = time_averaged(WalkState.point(*random_unit_psi(rng)), f, 150)
    assert abs(avg.total() - 1.0) <= 1e-10


def test_time_averaged_horizon_one_is_initial():
    avg = time_averaged(WalkState.point(0.0, 1.0), uniform_field(HADAMARD), 1)
    assert avg.mass_at(0) == pytest.approx(1.0, abs=0.0)
    with pytest.raises(ValueError):
        time_averaged(WalkState.point(1.0, 0.0), uniform_field(HADAMARD), 0)


def test_time_averaged_matches_explicit_mean():
    f = defect_field(HADAMARD, make_coin(R, 1j * R, 0.7), HADAMARD)
    s = WalkState.point(R, -R)
    horizon = 25
    avg = time_averaged(s, f, horizon)
    for x in (-3, 0, 2):
        direct = (
            sum(probability(evolve(s, f, t)).mass_at(x) for t in range(horizon))
            / horizon
        )
        assert avg.mass_at(x) == pytest.approx(direct, abs=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t=st.integers(min_value=0, max_value=40),
)
def test_norm_and_cone_property(seed, t):
    rng = np.random.default_rng(seed)
    f = random_field(rng)
    out = evolve(WalkState.point(*random_unit_psi(rng)), f, t)
    assert abs(out.norm_sq() - 1.0) <= 1e-12
    assert np.all(out.amplitude(t + 1) == 0.0)
    assert np.all(out.amplitude(-t - 1) == 0.0)


# --- reference kernel ------------------------------------------------------
#
# The full-window propagation that the light-cone kernel replaced: a per-site
# stack of coin matrices, an ``einsum`` over the whole window and a
# fixed-window shift on every step, with time averages summed pairwise over
# zero-padded mass arrays.  The light-cone kernel must agree with it to the
# tolerances written in ``qwtrap.walk``.

EPS = np.finfo(np.float64).eps
MASS_TOL = 1e-13
HORIZONS = (0, 1, 2, 17, 300, 2000)


def _reference_coin_stack(field, lo, hi):
    return np.stack([coin_matrix(field.coin(x)) for x in range(lo, hi + 1)])


def _reference_propagate(initial, field, t):
    lo, hi = window_for(t, field, (initial.lo, initial.hi))
    amps = np.zeros((hi - lo + 1, 2), dtype=np.complex128)
    amps[initial.lo - lo : initial.hi - lo + 1] = initial.amps
    coins = _reference_coin_stack(field, lo, hi)
    yield lo, amps
    for _ in range(t):
        amps = _shift_fixed(np.einsum("xij,xj->xi", coins, amps))
        yield lo, amps


class _PaddedPairwiseSum:
    """Binary-counter pairwise sum of equal-length arrays."""

    def __init__(self):
        self._blocks = []

    def add(self, term):
        carry = term
        for i, block in enumerate(self._blocks):
            if block is None:
                self._blocks[i] = carry
                return
            carry = block + carry
            self._blocks[i] = None
        self._blocks.append(carry)

    def value(self):
        total = None
        for block in self._blocks:
            if block is not None:
                total = block if total is None else total + block
        return total


def _reference_ladder(initial, field, horizons):
    """Reference states after ``t`` steps and averages over ``h`` steps, by ``t`` / ``h``.

    One run on the window of the longest horizon serves every horizon: a
    wider window only pads with zeros, which change no computed value.
    """
    acc = _PaddedPairwiseSum()
    states, averages = {}, {}
    for t, (lo, amps) in enumerate(_reference_propagate(initial, field, max(horizons))):
        if t in horizons:
            states[t] = (lo, amps)
        acc.add(np.abs(amps[:, 0]) ** 2 + np.abs(amps[:, 1]) ** 2)
        if t + 1 in horizons:
            averages[t + 1] = (lo, acc.value() / (t + 1))
    return states, averages


def _crop(ref, lo, n):
    """Entries of the reference ``(ref_lo, values)`` on sites ``lo .. lo + n - 1``."""
    ref_lo, values = ref
    k = lo - ref_lo
    assert not np.any(values[:k]) and not np.any(values[k + n :])
    return values[k : k + n]


def _core_field(rng, width):
    """Random field whose core is exactly ``width`` sites wide."""
    x_minus = -int(rng.integers(1, width + 1))
    middle = tuple(random_coin(rng) for _ in range(width))
    return CoinField(x_minus, x_minus + width + 1, middle, random_coin(rng), random_coin(rng))


def _multi_site_state(rng):
    """Unit state on 2-6 sites whose window starts off the origin."""
    lo = int(rng.choice([*range(-12, 0), *range(1, 13)]))
    v = rng.normal(size=(int(rng.integers(2, 7)), 2, 2))
    amps = v[..., 0] + 1j * v[..., 1]
    return WalkState(lo, amps / np.linalg.norm(amps))


#: the seven presets, then 30 seeded random cores of width 1..9
REFERENCE_FIELDS = [("preset", k) for k in range(len(PRESETS))] + [("core", k) for k in range(30)]


def _reference_case(kind, k):
    """Field and two initial states (a point state, a multi-site state) of one case."""
    rng = np.random.default_rng(9100 + k)
    if kind == "preset":
        field = PRESETS[k].field()
        point = WalkState.point(*PRESETS[k].psi)
    else:
        field = _core_field(rng, 1 + k % 9)
        point = WalkState.point(*random_unit_psi(rng), x=int(rng.integers(-10, 11)))
    return field, point, _multi_site_state(rng)


@pytest.mark.parametrize("kind, k", REFERENCE_FIELDS)
def test_cone_kernel_matches_full_window_reference(kind, k):
    """Amplitudes within ``t * eps``, averages within 1e-13, exact zeros off the cone.

    The point state runs the whole horizon ladder; the multi-site state
    stops at 300 steps, where the full-window reference is still cheap.
    """
    field, point, spread = _reference_case(kind, k)
    for initial, horizons in ((point, HORIZONS), (spread, HORIZONS[:-1])):
        states, averages = _reference_ladder(initial, field, horizons)
        for t in horizons:
            out = evolve(initial, field, t)
            if t:
                assert (out.lo, out.hi) == window_for(t, field, (initial.lo, initial.hi))
            else:
                assert out is initial
            want = _crop(states[t], out.lo, len(out.amps))
            assert np.all(np.abs(out.amps - want) <= t * EPS), (t, np.abs(out.amps - want).max())
            sites = out.lo + np.arange(len(out.amps))
            outside = (sites < initial.lo - t) | (sites > initial.hi + t)
            assert np.all(out.amps[outside] == 0.0)
        for h in horizons[1:]:
            avg = time_averaged(initial, field, h)
            lo, hi = window_for(h - 1, field, (initial.lo, initial.hi))
            assert (avg.lo, avg.hi) == (lo, hi)
            want = _crop(averages[h], avg.lo, len(avg.masses))
            assert np.all(np.abs(avg.masses - want) <= MASS_TOL), (h, np.abs(avg.masses - want).max())
            sites = avg.sites()
            outside = (sites < initial.lo - (h - 1)) | (sites > initial.hi + (h - 1))
            assert np.all(avg.masses[outside] == 0.0)


def test_coin_coefficients_equal_the_per_site_stack(rng):
    wide = _core_field(rng, 9)  # core sites x_minus + 1 .. x_plus - 1
    windows = [
        (wide.x_minus - 6, wide.x_plus + 6),  # the whole core and both asymptotes
        (wide.x_minus + 3, wide.x_plus + 4),  # starts inside the core
        (wide.x_minus - 4, wide.x_plus - 2),  # ends inside the core
        (wide.x_minus + 2, wide.x_plus - 3),  # inside the core
        (wide.x_minus - 9, wide.x_minus),  # left asymptote only
        (wide.x_plus, wide.x_plus + 5),  # right asymptote only
        (wide.x_minus + 4, wide.x_minus + 4),  # one core site
    ]
    for field in (wide, _core_field(rng, 1), uniform_field(HADAMARD)):
        for lo, hi in windows:
            got = _coin_coefficients(field, lo, hi)
            assert got.shape == (4, hi - lo + 1) and got.flags.c_contiguous
            want = _reference_coin_stack(field, lo, hi).reshape(-1, 4).T
            assert np.array_equal(got, want), (lo, hi)


def test_cone_sliced_pairwise_sum_is_bit_identical(rng):
    width = 61
    sliced, padded = _PairwiseSum(), _PaddedPairwiseSum()
    lo, hi = 30, 31
    for k in range(45):  # not a power of two, so value() joins several blocks
        lo -= int(rng.integers(0, 2))
        hi += int(rng.integers(0, 2))
        lo, hi = max(lo, 0), min(hi, width)
        term = rng.random(hi - lo) * 10.0 ** rng.integers(-8, 1)
        term[rng.random(hi - lo) < 0.2] = 0.0
        padded_term = np.zeros(width)
        padded_term[lo:hi] = term
        sliced.add(lo, term.copy())
        padded.add(padded_term)
        offset, values = sliced.value()
        total = np.zeros(width)
        total[offset : offset + len(values)] = values
        assert np.array_equal(total, padded.value()), k
        assert offset == lo and len(values) == hi - lo
