"""Direct evolution engine: norm conservation, light cone, time averages."""

import hashlib
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
    _MARGIN,
    _ROOT_TINY,
    _TOP,
    _coin_coefficients,
    _pairwise_add,
    _parity_classes,
    _propagate,
    defect_field,
    evolve,
    probability,
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


def test_parity_flip_anticommutes_with_the_walk():
    # P = diag((-1)**x) on both components: the shift moves every amplitude
    # by one site and the coin acts within a site, so P U P = -U and
    # evolve(P psi, T) = (-1)**T P evolve(psi, T), bit for bit (negation is exact)
    rng = np.random.default_rng(3301)
    for k in range(200):
        f = random_field(rng, max_cut=1 + k % 9)
        lo, n = int(rng.integers(-6, 1)), int(rng.integers(2, 9))
        amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        parity = (-1.0) ** np.arange(lo, lo + n)[:, None]
        for t in (1, 7):
            out = evolve(WalkState(lo, amps), f, t)
            flipped = evolve(WalkState(lo, parity * amps), f, t)
            want = (-1.0) ** t * (-1.0) ** np.arange(out.lo, out.hi + 1)[:, None] * out.amps
            assert flipped.lo == out.lo and np.array_equal(flipped.amps, want), (k, t)


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
    lo, hi = window_for(10, (0, 0))
    assert lo <= -10 and hi >= 10
    with pytest.raises(ValueError):
        window_for(-1, (0, 0))


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
# fixed-window shift on every step that checks no amplitude leaves the
# window, with time averages summed pairwise over zero-padded mass arrays.
# The light-cone kernel must agree with it to the tolerances written in
# ``qwtrap.walk``.

EPS = np.finfo(np.float64).eps
MASS_TOL = 1e-13
HORIZONS = (0, 1, 2, 17, 300, 2000)


def _reference_coin_stack(field, lo, hi):
    return np.stack([coin_matrix(field.coin(x)) for x in range(lo, hi + 1)])


def _reference_shift(mixed):
    """``S`` on a fixed window: left-movers one site down, right-movers one up.

    The window must hold the light cone, so nothing may be shifted off an
    edge: both outgoing edge amplitudes must be exactly zero.
    """
    assert mixed[0, 0] == 0 and mixed[-1, 1] == 0, "amplitude reached the window edge"
    out = np.zeros_like(mixed)
    out[:-1, 0] = mixed[1:, 0]
    out[1:, 1] = mixed[:-1, 1]
    return out


def _reference_propagate(initial, field, t):
    lo, hi = window_for(t, (initial.lo, initial.hi))
    amps = np.zeros((hi - lo + 1, 2), dtype=np.complex128)
    amps[initial.lo - lo : initial.hi - lo + 1] = initial.amps
    coins = _reference_coin_stack(field, lo, hi)
    yield lo, amps
    for _ in range(t):
        amps = _reference_shift(np.einsum("xij,xj->xi", coins, amps))
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
                assert (out.lo, out.hi) == window_for(t, (initial.lo, initial.hi))
            else:
                assert out is initial
            want = _crop(states[t], out.lo, len(out.amps))
            assert np.all(np.abs(out.amps - want) <= t * EPS), (t, np.abs(out.amps - want).max())
            sites = out.lo + np.arange(len(out.amps))
            outside = (sites < initial.lo - t) | (sites > initial.hi + t)
            assert np.all(out.amps[outside] == 0.0)
        for h in horizons[1:]:
            avg = time_averaged(initial, field, h)
            lo, hi = window_for(h - 1, (initial.lo, initial.hi))
            assert (avg.lo, avg.hi) == (lo, hi)
            want = _crop(averages[h], avg.lo, len(avg.masses))
            assert np.all(np.abs(avg.masses - want) <= MASS_TOL), (h, np.abs(avg.masses - want).max())
            sites = avg.sites()
            outside = (sites < initial.lo - (h - 1)) | (sites > initial.hi + (h - 1))
            assert np.all(avg.masses[outside] == 0.0)


def _one_parity_state(rng):
    """Unit state on sites -2, 0 and 2: a single parity class with three sites."""
    v = rng.normal(size=(3, 2, 2))
    amps = np.zeros((5, 2), dtype=np.complex128)
    amps[::2] = v[..., 0] + 1j * v[..., 1]
    return WalkState(-2, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("kind, k", REFERENCE_FIELDS[::3])
def test_one_parity_multi_site_state_matches_full_window_reference(kind, k):
    """The bounds of the test above, for a state that fills one parity class with three sites."""
    field, _, _ = _reference_case(kind, k)
    initial = _one_parity_state(np.random.default_rng(9200 + k))
    horizons = HORIZONS[:-1]
    states, averages = _reference_ladder(initial, field, horizons)
    for t in horizons[1:]:
        out = evolve(initial, field, t)
        want = _crop(states[t], out.lo, len(out.amps))
        assert np.all(np.abs(out.amps - want) <= t * EPS), (t, np.abs(out.amps - want).max())
        avg = time_averaged(initial, field, t)
        want = _crop(averages[t], avg.lo, len(avg.masses))
        assert np.all(np.abs(avg.masses - want) <= MASS_TOL), (t, np.abs(avg.masses - want).max())


#: the presets and five random cores, each with a starting site: negative, the origin, or positive and even
PARITY_CASES = [
    (kind, k, (-3, 0, 4)[i % 3]) for i, (kind, k) in enumerate(REFERENCE_FIELDS[:7] + REFERENCE_FIELDS[7::6])
]


@pytest.mark.parametrize("kind, k, x0", PARITY_CASES)
def test_point_state_lives_on_one_parity_class(kind, k, x0):
    """After ``t`` steps from ``x0`` every amplitude with ``x - x0 - t`` odd is exactly zero.

    ``U = S C`` moves each component by exactly one site, so the sites a
    point state occupies alternate in parity; the sublattice kernel stores
    only the occupied class and rests on this.  Checked on the full-window
    reference and on ``evolve`` at every step up to 300.
    """
    field, point, _ = _reference_case(kind, k)
    initial = WalkState.point(*point.amps[0], x=x0)
    for t, (lo, amps) in enumerate(_reference_propagate(initial, field, 300)):
        out = evolve(initial, field, t)
        for got_lo, got in ((lo, amps), (out.lo, out.amps)):
            odd = (got_lo + np.arange(len(got)) - x0 - t) % 2 == 1
            assert np.all(got[odd] == 0.0) and np.any(got[~odd]), t


def _per_step_cone(initial, field, t):
    """The kernel before the margin region: every step slices the exact light cone anew.

    Yields ``(lo, cone, left, right)`` as ``qwtrap.walk._propagate`` does, with
    ``cone`` exactly the light cone.
    """
    lo, hi = window_for(t, (initial.lo, initial.hi))
    n = hi - lo + 1
    a, b, c, d = _coin_coefficients(field, lo, hi)
    left = np.zeros(n, dtype=np.complex128)
    right = np.zeros(n, dtype=np.complex128)
    start = initial.lo - lo
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
        np.add(aL, bR, out=left[p - 1 : q - 1])
        np.add(cL, dR, out=right[p + 1 : q + 1])
        left[q - 1] = 0.0
        right[p] = 0.0
        yield lo, slice(p - 1, q + 1), left, right


def _per_step_evolve(initial, field, t):
    for lo, _, left, right in _per_step_cone(initial, field, t):
        pass
    return lo, np.stack((left, right), axis=1)


def _per_step_average(initial, field, horizon):
    acc = _PaddedPairwiseSum()
    for lo, cone, left, right in _per_step_cone(initial, field, horizon - 1):
        term = np.zeros(len(left))
        term[cone] = np.abs(left[cone]) ** 2 + np.abs(right[cone]) ** 2
        acc.add(term)
    return lo, acc.value() / horizon


#: around the region rebuilds: before, at and after the first, then past the second
MARGIN_HORIZONS = (1, 2, _MARGIN - 1, _MARGIN, _MARGIN + 1, 2 * _MARGIN + 1, 300)
#: the documented bound on how far all flushes together move a unit state at ``T`` <= 4000; it bounds each entry too
FLUSH_BOUND = 1e-285


def _first_part_below_the_floor(initial, field, t):
    """First step, up to ``t``, at which the per-step cone kernel holds a part in (0, ``_ROOT_TINY``).

    Parts are scaled as the kernels scale the state.  Until that step no
    flush can change a part; ``t + 1`` when no part falls below the floor.
    """
    scale = _TOP - math.frexp(float(np.abs(initial.amps).max()))[1]
    for step, (_, _, left, right) in enumerate(_per_step_cone(initial, field, t)):
        parts = np.ldexp(np.abs(np.stack((left, right)).view(np.float64)), scale)
        if np.any((parts > 0.0) & (parts < _ROOT_TINY)):
            return step
    return t + 1


@pytest.mark.parametrize("kind, k", REFERENCE_FIELDS)
def test_margin_region_kernel_equals_the_per_step_cone_kernel(kind, k):
    """Amplitudes equal as values until a flush, averages within ``16 eps`` relative, no negative-zero mass.

    Inside the light cone both kernels make the same products in the same
    order; past it, and on the parity class a point state does not occupy,
    the per-step kernel adds only zeros, whose sign may differ.  Once a part
    falls below the flush floor, amplitudes agree to ``FLUSH_BOUND``.  The
    masses are summed in another order: squares of real and imaginary parts
    added up in blocks of up to 64 steps, then pairwise, against
    ``|amp|**2`` summed pairwise over every step.
    """
    field, point, spread = _reference_case(kind, k)
    for initial in (point, spread):
        first = _first_part_below_the_floor(initial, field, MARGIN_HORIZONS[-1])
        for t in MARGIN_HORIZONS:
            out = evolve(initial, field, t)
            lo, amps = _per_step_evolve(initial, field, t)
            assert out.lo == lo, t
            if t < first:
                assert np.all(out.amps == amps), t
            else:
                assert np.all(np.abs(out.amps - amps) <= FLUSH_BOUND), (t, first)
            avg = time_averaged(initial, field, t)
            lo, masses = _per_step_average(initial, field, t)
            bound = 16 * EPS * masses + np.finfo(float).tiny
            assert avg.lo == lo and np.all(np.abs(avg.masses - masses) <= bound), t
            assert not np.any(np.signbit(avg.masses)), t


def _outer_modulus_case(modulus):
    """Single-defect field whose outer coins have ``|alpha| = modulus``, and a point state."""
    rng = np.random.default_rng(9300 + round(100 * modulus))

    def outer():
        pa, pb, d = rng.uniform(0.0, 2.0 * math.pi, size=3)
        return make_coin(modulus * np.exp(1j * pa), math.sqrt(1.0 - modulus**2) * np.exp(1j * pb), d)

    field = defect_field(outer(), random_coin(rng), outer())
    return field, WalkState.point(*random_unit_psi(rng))


#: outer ``|alpha|`` whose cone edge falls past the smallest normal double within 2000 steps;
#: below about 0.11 it falls more than 200 binades between two region rebuilds
FLUSH_MODULI = (0.05, 0.1, 0.3)
FLUSH_HORIZONS = (600, 1200, 2000)


@pytest.mark.parametrize("modulus", FLUSH_MODULI)
def test_flushing_kernel_matches_both_references(modulus):
    """Where the kernel flushes, the bounds against both reference kernels still hold.

    Against the full-window reference: amplitudes within ``t * eps`` and
    averages within ``MASS_TOL``; against the per-step cone kernel, which
    carries every subnormal, averages within ``16 eps`` of the mass plus
    the smallest normal double, with no negative-zero mass.
    """
    field, initial = _outer_modulus_case(modulus)
    states, averages = _reference_ladder(initial, field, FLUSH_HORIZONS)
    for t in FLUSH_HORIZONS:
        out = evolve(initial, field, t)
        want = _crop(states[t], out.lo, len(out.amps))
        assert np.all(np.abs(out.amps - want) <= t * EPS), (t, np.abs(out.amps - want).max())
        avg = time_averaged(initial, field, t)
        want = _crop(averages[t], avg.lo, len(avg.masses))
        assert np.all(np.abs(avg.masses - want) <= MASS_TOL), (t, np.abs(avg.masses - want).max())
        lo, masses = _per_step_average(initial, field, t)
        bound = 16 * EPS * masses + np.finfo(float).tiny
        assert avg.lo == lo and np.all(np.abs(avg.masses - masses) <= bound), t
        assert not np.any(np.signbit(avg.masses)), t


@pytest.mark.parametrize("modulus", FLUSH_MODULI)
def test_flush_leaves_no_part_below_the_floor(modulus):
    """No part the kernel keeps is subnormal, and a rebuild that flushes leaves every part 0 or at least the floor.

    ``_propagate`` runs on the state scaled as both kernels scale it, for
    ``t`` steps as ``evolve`` runs it and ``t - 1`` as ``time_averaged``
    does.  At every step no real or imaginary part lies in (0, tiny).  The
    kernel's cone holds every nonzero column, so if an outermost nonzero
    column is below ``_ROOT_TINY * 2**200`` at a rebuild, the cone's edge
    was too, and the rebuild flushed.
    """
    field, initial = _outer_modulus_case(modulus)
    tiny = np.finfo(np.float64).tiny
    for t in (FLUSH_HORIZONS[-1], FLUSH_HORIZONS[-1] - 1):
        lo, hi = window_for(t, (initial.lo, initial.hi))
        flushes = 0
        for amps, e in _parity_classes(initial, lo, hi - lo + 1)[1]:
            region = None
            for e, now in _propagate(field, lo - 2, amps, e, t):
                parts = np.abs(amps.view(np.float64))
                assert not np.any((parts > 0.0) & (parts < tiny)), (t, now)
                if now is region:
                    continue
                region = now
                columns = np.abs(amps).max(axis=0)
                kept = np.flatnonzero(columns)
                if min(columns[kept[0]], columns[kept[-1]]) < _ROOT_TINY * 2.0**200:
                    flushes += 1
                    assert np.all((parts == 0.0) | (parts >= _ROOT_TINY)), (t, now)
        assert flushes > 0, t


def test_extreme_norms_stay_finite_and_scale_exactly():
    """States scaled by ``1e-310``, ``2**-300`` and ``2**500`` run without overflow or NaN.

    Both kernels scale a state by a power of two before they run and undo
    that at the end, so ``2**-300`` and ``2**500`` times a state evolve to
    exactly that multiple of its evolution, and ``2**-300`` times a state
    averages to exactly ``2**-600`` times its average.  A state whose
    components are all subnormal has averages below the smallest subnormal,
    which round to zero.
    """
    source = PRESETS[0]
    field, psi = source.field(), np.array(source.psi)
    for c in (1e-310, 2.0**-300, 2.0**500):
        initial = WalkState.point(*(c * psi))
        for t in (1, _MARGIN + 1, 600):
            for dist in (probability(evolve(initial, field, t)), time_averaged(initial, field, t)):
                assert np.all(np.isfinite(dist.masses)) and not np.any(np.signbit(dist.masses)), (c, t)
    subnormal = WalkState.point(*(1e-310 * psi))
    assert not np.any(time_averaged(subnormal, field, 600).masses)
    for t in (1, _MARGIN + 1, 600, 2000):
        base = evolve(WalkState.point(*psi), field, t)
        for c in (2.0**-300, 2.0**500):
            scaled = evolve(WalkState.point(*(c * psi)), field, t)
            assert scaled.lo == base.lo and np.array_equal(scaled.amps, c * base.amps), (c, t)
    base = time_averaged(WalkState.point(*psi), field, 600)
    scaled = time_averaged(WalkState.point(*(2.0**-300 * psi)), field, 600)
    assert scaled.lo == base.lo and np.array_equal(scaled.masses, 2.0**-600 * base.masses)


def test_time_averaged_follows_a_pulse_whose_wake_is_flushed():
    """A right-mover on coins with ``|beta|`` = 1e-295 leaves a wake that ``time_averaged`` flushes.

    Scaled by about 2**450 the wake stays below 2**-511, so each flush
    moves the cone's left edge right past the last region: a region then
    stops covering the earlier ones.
    """
    field = uniform_field(make_coin(np.exp(0.4j), 1e-295 * np.exp(1.3j), 0.7))
    initial = WalkState.point(0.0, 1.0)
    for t in (3 * _MARGIN, 300):
        avg = time_averaged(initial, field, t)
        lo, masses = _per_step_average(initial, field, t)
        assert avg.lo == lo and np.all(np.abs(avg.masses - masses) <= 16 * EPS * masses + np.finfo(float).tiny), t


#: SHA-256 of ``lo`` and ``float.hex`` of every mass in ``test_time_averages_keep_every_bit``
AVERAGES_SHA256 = "c5523d525c3987fdcd2572a686cd2f723da3baa2a040544b5a22678672c773d1"


def test_time_averages_keep_every_bit():
    """``time_averaged`` is pinned bit for bit: a change of summation order shows here.

    The presets from a point state around the region rebuilds and past
    them, the flushing fields, and each preset's late window at ``T`` =
    1000 (steps 500 .. 999, as ``verify`` checks it).
    """
    cases = [(WalkState.point(*p.psi), p.field(), t) for p in PRESETS for t in (*MARGIN_HORIZONS, 2000)]
    cases += [(initial, field, t) for field, initial in map(_outer_modulus_case, FLUSH_MODULI) for t in FLUSH_HORIZONS]
    cases += [(evolve(WalkState.point(*p.psi), p.field(), 500), p.field(), 500) for p in PRESETS]
    digest = hashlib.sha256()
    for initial, field, t in cases:
        avg = time_averaged(initial, field, t)
        digest.update(f"{avg.lo}:{','.join(m.hex() for m in avg.masses.tolist())};".encode())
    assert digest.hexdigest() == AVERAGES_SHA256


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


def _check_pairwise_add(rng, runs, width):
    """Window-length terms nonzero on ``runs`` sum under ``_pairwise_add`` as the reference does.

    About a fifth of each run is exact zeros.  The blocks are added low to
    high, as ``time_averaged`` adds them.
    """
    sums, padded = [], _PaddedPairwiseSum()
    for k, (lo, hi) in enumerate(runs):
        term = np.zeros(width)
        term[lo:hi] = rng.random(hi - lo) * 10.0 ** rng.integers(-8, 1)
        term[lo:hi][rng.random(hi - lo) < 0.2] = 0.0
        padded.add(term.copy())
        _pairwise_add(sums, term)
        assert [block is not None for block in sums] == [bool((k + 1) >> i & 1) for i in range(len(sums))]
        total = None
        for block in sums:
            if block is not None:
                total = block.copy() if total is None else total + block
        assert np.array_equal(total, padded.value()), k


def test_cone_sliced_pairwise_sum_is_bit_identical(rng):
    """Terms whose nonzero run grows like the light cone sum as the reference does."""
    width, lo, hi = 61, 30, 31
    runs = []
    for _ in range(45):  # not a power of two, so the sum joins several blocks
        lo, hi = max(lo - int(rng.integers(0, 2)), 0), min(hi + int(rng.integers(0, 2)), width)
        runs.append((lo, hi))
    _check_pairwise_add(rng, runs, width)


def test_pairwise_sum_of_shrinking_and_shifting_terms_is_bit_identical(rng):
    """A flush can shrink the region, so a term need not cover the earlier ones."""
    width = 61
    runs = [(lo, int(rng.integers(lo + 1, width + 1))) for lo in rng.integers(0, width - 1, 45).tolist()]
    _check_pairwise_add(rng, runs, width)
