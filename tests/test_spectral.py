"""Transfer-matrix machinery: admissibility, eigenphase search, eigenvectors."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_coin, random_field, random_unit_psi, transfer_matrix
from qwtrap.algebra import TWO_PI, make_coin
from qwtrap.figures import PRESETS, preset
from qwtrap.spectral import (
    DEDUPE_TOL,
    DEFAULT_GRID,
    INDEPENDENCE_TOL,
    LAMBDA_TOL,
    RESIDUAL_ACCEPT,
    GeometricVector,
    NoEigenvalueError,
    NotInAdmissibleSetError,
    _period_arcs,
    _polish,
    _residual_core,
    _residual_or_inf,
    _section_search,
    _site_step,
    analyze,
    build_eigenvector,
    build_eigenvectors,
    canonical_phase,
    circular_gap,
    contracting_zeta,
    discriminant,
    eigen_residual,
    expanding_zeta,
    find_eigenphases,
    in_admissible_set,
    is_strongly_trapped,
    limit_distribution,
    trapped_mass,
)
from qwtrap.walk import CoinField, WalkState, evolve, uniform_field

R = 1.0 / math.sqrt(2.0)
HADAMARD = make_coin(R, R)

EXPECTED_COUNTS = {1: 4, 2: 2, 3: 4, 4: 2, 5: 2, 6: 2, 7: 4}
EXPECTED_TRAPPING = {1: True, 2: False, 3: True, 4: False, 5: False, 6: False, 7: True}


def circ_gap(a: float, b: float) -> float:
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def _circle_arcs(field):
    """The admissible set on the whole circle: each arc of ``_period_arcs`` and its ``+pi`` copy."""
    return [(s + c, e + c) for c in (0.0, math.pi) for s, e in _period_arcs(field)]


def test_transfer_matrix_entries():
    t = transfer_matrix(HADAMARD, 0.3)
    e = complex(math.cos(0.3), math.sin(0.3))
    assert t[0, 0] == pytest.approx(e / R, abs=1e-15)
    assert t[0, 1] == pytest.approx(-1.0, abs=1e-15)
    assert t[1, 0] == pytest.approx(-1.0, abs=1e-15)
    assert t[1, 1] == pytest.approx(e.conjugate() / R, abs=1e-15)


def test_transfer_matrices_batch_over_phases(rng):
    c = random_coin(rng)
    lams = rng.uniform(0.0, TWO_PI, size=(3, 4))
    stack = transfer_matrix(c, lams)
    assert stack.shape == (3, 4, 2, 2)
    for idx in np.ndindex(lams.shape):
        single = transfer_matrix(c, float(lams[idx]))
        assert float(np.max(np.abs(stack[idx] - single))) <= 1e-15


def test_transfer_determinant_identity(rng):
    # det T = conj(alpha) / alpha for every coin and phase
    for _ in range(50):
        c = random_coin(rng)
        lam = float(rng.uniform(0.0, TWO_PI))
        det = np.linalg.det(transfer_matrix(c, lam))
        assert det == pytest.approx(c.alpha.conjugate() / c.alpha, abs=1e-12)


def test_transfer_commutator_identity(rng):
    # T is not normal in general: max |[T, T+]| = 4 |beta sin(lam-delta)| / |alpha|^2
    for _ in range(200):
        c = random_coin(rng)
        lam = float(rng.uniform(0.0, TWO_PI))
        t = transfer_matrix(c, lam)
        comm = t @ t.conj().T - t.conj().T @ t
        want = 4.0 * abs(c.beta) * abs(math.sin(lam - c.delta)) / abs(c.alpha) ** 2
        assert float(np.max(np.abs(comm))) == pytest.approx(want, abs=1e-10)
        assert comm[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert comm[1, 1] == pytest.approx(0.0, abs=1e-12)


def test_discriminant_formula(rng):
    for _ in range(50):
        c = random_coin(rng)
        lam = float(rng.uniform(0.0, TWO_PI))
        want = math.cos(lam - c.delta) ** 2 - abs(c.alpha) ** 2
        assert discriminant(c, lam) == pytest.approx(want, abs=1e-14)


def test_discriminant_vectorized():
    lams = np.linspace(0.0, TWO_PI, 7)
    vals = discriminant(HADAMARD, lams)
    assert vals.shape == lams.shape
    for lam, v in zip(lams, vals):
        assert v == pytest.approx(discriminant(HADAMARD, float(lam)), abs=0.0)


def test_zeta_product_identity(rng):
    worst = 0.0
    for _ in range(500):
        c = random_coin(rng)
        lam = float(rng.uniform(0.0, TWO_PI))
        zp, zm = np.linalg.eigvals(transfer_matrix(c, lam))
        worst = max(worst, abs(zp * zm - c.alpha.conjugate() / c.alpha))
    assert worst <= 1e-12


def test_zeta_unimodular_in_elliptic_regime(rng):
    seen = 0
    while seen < 200:
        c = random_coin(rng)
        lam = float(rng.uniform(0.0, TWO_PI))
        if discriminant(c, lam) <= 0.0:
            seen += 1
            zp, zm = np.linalg.eigvals(transfer_matrix(c, lam))
            assert abs(abs(zp) - 1.0) <= 1e-10
            assert abs(abs(zm) - 1.0) <= 1e-10


def test_zeta_moduli_split_in_hyperbolic_regime(rng):
    seen = 0
    while seen < 200:
        c = random_coin(rng)
        lam = float(rng.uniform(0.0, TWO_PI))
        if discriminant(c, lam) > LAMBDA_TOL:
            seen += 1
            assert abs(contracting_zeta(c, lam)) < 1.0
            assert abs(expanding_zeta(c, lam)) > 1.0
            assert abs(
                contracting_zeta(c, lam) * expanding_zeta(c, lam)
                - c.alpha.conjugate() / c.alpha
            ) <= 1e-12


def test_admissibility_boundary_is_exclusive():
    f = uniform_field(HADAMARD)
    lam_out = math.acos(math.sqrt(0.5 + 5e-13))
    lam_in = math.acos(math.sqrt(0.5 + 2e-12))
    assert 0.0 < discriminant(HADAMARD, lam_out) <= LAMBDA_TOL
    assert not in_admissible_set(f, lam_out)
    assert discriminant(HADAMARD, lam_in) > LAMBDA_TOL
    assert in_admissible_set(f, lam_in)


def test_eigen_residual_requires_admissibility():
    with pytest.raises(NotInAdmissibleSetError):
        eigen_residual(uniform_field(HADAMARD), math.pi / 2.0)


def test_homogeneous_walk_has_empty_point_spectrum():
    assert find_eigenphases(uniform_field(HADAMARD)) == []


def test_figure_phase_counts(spectral_of):
    for fig_id, want in EXPECTED_COUNTS.items():
        assert len(spectral_of(fig_id).eigenpairs) == want, f"fig{fig_id}"


def test_solver_matches_closed_form_phases(spectral_of, closed_of):
    for fig_id in EXPECTED_COUNTS:
        got = [p.lam for p in spectral_of(fig_id).eigenpairs]
        want = sorted(closed_of(fig_id).eigenphases)
        assert len(got) == len(want), f"fig{fig_id}"
        for a, b in zip(got, want):
            assert circ_gap(a, b) <= 1e-8, f"fig{fig_id}: {a} vs {b}"


def test_solver_deterministic():
    field = preset(2).field()
    assert find_eigenphases(field) == find_eigenphases(field)


def test_phases_canonical_range(spectral_of):
    for fig_id in EXPECTED_COUNTS:
        for p in spectral_of(fig_id).eigenpairs:
            assert 0.0 <= p.lam < TWO_PI
            assert abs(abs(np.exp(1j * p.lam)) - 1.0) <= 1e-12


def test_circular_gap_matches_reference(rng):
    # random pairs from [0, 2*pi) and from (-pi, pi], pairs across the 0/2*pi
    # seam, pairs exactly pi apart and equal pairs
    pairs = rng.uniform(0.0, TWO_PI, size=(2000, 2)).tolist()
    pairs += (math.pi - rng.uniform(0.0, TWO_PI, size=(2000, 2))).tolist()
    pairs += [(TWO_PI - d, d) for d in rng.uniform(0.0, 1e-3, size=50).tolist()] + [(TWO_PI - 1e-9, 0.0)]
    pairs += [(a, a + math.pi) for a in rng.uniform(-math.pi, 0.0, size=50).tolist()] + [(0.0, math.pi)]
    for a, b in pairs:
        assert abs(circular_gap(a, b) - circ_gap(a, b)) <= 1e-15, (a, b)
        assert circular_gap(a, b) == circular_gap(b, a)
    for a in rng.uniform(-math.pi, TWO_PI, size=50).tolist() + [0.0, math.pi]:
        assert circular_gap(a, a) == 0.0


def test_eigenvector_unit_norm(spectral_of):
    for fig_id in EXPECTED_COUNTS:
        for pair in spectral_of(fig_id).eigenpairs:
            n = math.sqrt(pair.vector().norm_sq_total())
            assert abs(n - 1.0) <= 1e-10, f"fig{fig_id} lam={pair.lam}"


def test_eigenvector_evolution_residual(spectral_of):
    for fig_id in (1, 4, 6):
        field = preset(fig_id).field()
        for pair in spectral_of(fig_id).eigenpairs:
            vec = pair.vector()
            h = vec.tail_halfwidth(1e-16)
            state = WalkState(-h - 2, vec.values(-h - 2, h + 2))
            out = evolve(state, field, 1)
            phase = np.exp(1j * pair.lam)
            err = max(
                float(np.linalg.norm(out.amplitude(x) - phase * vec.value(x)))
                for x in range(-h, h + 1)
            )
            assert err <= 1e-8, f"fig{fig_id} lam={pair.lam}"


def test_eigenvector_transfer_recurrence(spectral_of):
    for fig_id in EXPECTED_COUNTS:
        field = preset(fig_id).field()
        for pair in spectral_of(fig_id).eigenpairs:
            vec = pair.vector()
            for x in range(-30, 30):
                # reshaped pair at site x is [psi_L(x-1), psi_R(x)]
                jx = np.array([vec.value(x - 1)[0], vec.value(x)[1]])
                jx1 = np.array([vec.value(x)[0], vec.value(x + 1)[1]])
                gap = np.linalg.norm(jx1 - transfer_matrix(field.coin(x), pair.lam) @ jx)
                assert float(gap) <= 1e-10, f"fig{fig_id} lam={pair.lam} x={x}"


def test_eigenvector_left_tail_is_the_decaying_kernel_vector():
    # left of the core the eigenvector continues t = [psi_L(x_minus - 1),
    # psi_R(x_minus)] with ratio zeta_out, so t must lie in the kernel of
    # T_left - zeta_out; a tail built backwards through the core misses it
    # by up to cond(t_minus) * eps
    eye = np.eye(2)
    for k, field in enumerate([p.field() for p in PRESETS] + _wide_core_fields()):
        for pair in analyze(field).eigenpairs:
            vec = pair.vector()
            t = np.array([vec.value(field.x_minus - 1)[0], vec.value(field.x_minus)[1]])
            m = transfer_matrix(field.left, pair.lam) - expanding_zeta(field.left, pair.lam) * eye
            assert np.linalg.norm(m @ t) <= 1e-13 * np.linalg.norm(t), (k, pair.lam)


def test_eigenvector_geometric_decay(spectral_of):
    for fig_id in EXPECTED_COUNTS:
        for pair in spectral_of(fig_id).eigenpairs:
            vec = pair.vector()
            r = abs(vec.zeta_in) ** 2
            rho = abs(vec.zeta_out) ** 2
            base_p = np.linalg.norm(vec.value(vec.plus_cut)) ** 2
            base_m = np.linalg.norm(vec.value(vec.minus_cut)) ** 2
            for k in range(1, 12):
                got = np.linalg.norm(vec.value(vec.plus_cut + k)) ** 2
                assert got == pytest.approx(base_p * r**k, rel=1e-12)
                got = np.linalg.norm(vec.value(vec.minus_cut - k)) ** 2
                assert got == pytest.approx(base_m * rho**-k, rel=1e-12)


def _kernel_vectors(mats):
    """Unit kernel vectors of rank-one 2x2 matrices, batched, by a generic route.

    ``mats`` has shape ``(..., 2, 2)`` and the result ``(..., 2)``.  The row
    with the larger 1-norm supplies the constraint, so a vanishing row never
    contaminates the result.  The first component is made real and
    nonnegative, so smooth entries give a smooth vector across row switches.
    The reference for the closed-form left start of ``_residual_core``.
    """
    a, b = mats[..., 0, 0], mats[..., 0, 1]
    c, d = mats[..., 1, 0], mats[..., 1, 1]
    use_top = (np.abs(a) + np.abs(b)) >= (np.abs(c) + np.abs(d))
    v0, v1 = np.where(use_top, b, d), np.where(use_top, -a, -c)
    r = np.abs(v0)
    turn = np.divide(v0.conjugate(), r, out=np.ones_like(v0), where=r > 0.0)
    v = np.stack([r, turn * v1], axis=-1)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def test_kernel_vectors_annihilate_rank_one_matrices(rng):
    # m - z for each eigenvalue z of a random complex m, all in one batch
    m = rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))
    shifted = m[:, None] - np.linalg.eigvals(m)[..., None, None] * np.eye(2)
    v = _kernel_vectors(shifted)
    bound = 1e-10 * (1.0 + np.linalg.norm(m, axis=(-2, -1)))[:, None]
    assert np.all(np.linalg.norm((shifted @ v[..., None])[..., 0], axis=-1) <= bound)
    assert np.allclose(np.linalg.norm(v, axis=-1), 1.0, atol=1e-12)
    assert np.all(v[..., 0].imag == 0.0) and np.all(v[..., 0].real >= 0.0)


def test_left_start_is_the_closed_form_kernel_vector(rng):
    # The start's direction hangs on sqrt(cos^2 - |alpha|^2), whose radicand
    # loses about eps / |beta|^2 of relative accuracy; the closed form and
    # the generic kernel route both stay within 2.1 eps / |beta|^2 of a
    # 200-bit kernel of T_left - zeta_out, so each bound is 8 eps / |beta|^2
    # (3.5e-15 at |beta|^2 = 1/2, 1.8e-11 at |alpha| = 0.9999).
    eps = np.finfo(float).eps
    coins = [random_coin(rng) for _ in range(150)]
    coins += [_near_threshold_coin(rng, rng.uniform(0.0, TWO_PI)) for _ in range(150)]
    for k, coin in enumerate(coins):
        field = uniform_field(coin)
        lams = []
        for s, e in _circle_arcs(field):  # 20 samples and a phase within 1e-9 of each end
            off = 10.0 ** -rng.uniform(9.0, 12.0, size=2)
            lams.append(np.concatenate((rng.uniform(s, e, size=20), [s + off[0], e - off[1]])))
        lams = np.concatenate(lams) % TWO_PI
        lams = lams[in_admissible_set(field, lams)]
        _, _, (_, v0, v1) = _residual_core(field, lams)
        tol = 8.0 * eps / abs(coin.beta) ** 2
        m = transfer_matrix(coin, lams) - expanding_zeta(coin, lams)[:, None, None] * np.eye(2)
        v = np.stack((v0, v1), axis=-1)
        gap = np.linalg.norm((m @ v[..., None])[..., 0], axis=-1) / np.linalg.norm(m, 2, axis=(-2, -1))
        assert np.all(gap <= tol), (k, np.max(gap / tol))
        assert v0.dtype == np.float64 and np.all(v0 == 1.0 / math.sqrt(2.0)), k
        assert np.all(np.abs(np.abs(v1) - 1.0 / math.sqrt(2.0)) <= tol), k
        assert np.all(np.abs(v - _kernel_vectors(m)) <= tol), k


def _transfer_inverse(coin, lams):
    """Closed-form inverse of ``transfer_matrix(coin, lams)``, batched the same way."""
    e = np.exp(1j * (lams - coin.delta))
    s = coin.alpha / abs(coin.alpha) ** 2
    out = np.empty(np.shape(e) + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = s * e.conjugate()
    out[..., 0, 1] = s * coin.beta
    out[..., 1, 0] = s * coin.beta.conjugate()
    out[..., 1, 1] = s * e
    return out


def _reference_residual(field, lams):
    """The matrix-product matching residual, batched over admissible phases.

    Builds the ordered core products ``t_plus = T_{x_plus-1} .. T_0`` and
    ``t_minus = T_{x_minus}^-1 .. T_{-1}^-1``, solves ``t_minus phi = k`` for
    the kernel vector ``k`` of ``T_left - zeta_out`` and normalises ``phi``.
    Returns the residual ``|landing t_plus phi|``, ``phi``, the landing
    matrix ``T_right - zeta_in``, ``t_plus`` and ``t_minus``.
    """
    eye = np.eye(2, dtype=np.complex128)
    t_plus = np.broadcast_to(eye, lams.shape + (2, 2))
    for x in range(0, field.x_plus):
        t_plus = transfer_matrix(field.coin(x), lams) @ t_plus
    t_minus = np.broadcast_to(eye, lams.shape + (2, 2))
    for x in range(-1, field.x_minus - 1, -1):
        t_minus = _transfer_inverse(field.coin(x), lams) @ t_minus
    shifted = transfer_matrix(field.left, lams) - expanding_zeta(field.left, lams)[:, None, None] * eye
    phi = np.linalg.solve(t_minus, _kernel_vectors(shifted)[..., None])[..., 0]
    phi /= np.linalg.norm(phi, axis=-1, keepdims=True)
    landing = transfer_matrix(field.right, lams) - contracting_zeta(field.right, lams)[:, None, None] * eye
    w = (landing @ (t_plus @ phi[..., None]))[..., 0]
    return np.linalg.norm(w, axis=-1), phi, landing, t_plus, t_minus


def _near_threshold_coin(rng, delta):
    """Coin with |alpha| in [0.99, 0.9999] and uniform phases."""
    a, pa, pb = rng.uniform(0.99, 0.9999), *rng.uniform(0.0, TWO_PI, size=2)
    return make_coin(a * np.exp(1j * pa), math.sqrt(1.0 - a * a) * np.exp(1j * pb), delta)


def _near_threshold_field(rng, width):
    """Random field of core ``width`` whose coins all have |alpha| in [0.99, 0.9999].

    The two asymptotic coins share ``delta``, so their narrow hyperbolic arcs
    overlap and the field has an admissible set.
    """
    x_minus = -int(rng.integers(1, width + 1))
    middle = tuple(_near_threshold_coin(rng, rng.uniform(0.0, TWO_PI)) for _ in range(width))
    d = rng.uniform(0.0, TWO_PI)
    left, right = _near_threshold_coin(rng, d), _near_threshold_coin(rng, d)
    return CoinField(x_minus, x_minus + width + 1, middle, left, right)


def _residual_test_phases(field):
    """The field's eigenphases plus 200 samples across each admissible arc.

    Returns the phases and a mask that is true on the eigenphases.
    """
    roots = np.asarray(find_eigenphases(field))
    lams = [roots]
    for s, e in _circle_arcs(field):
        lams.append((s + (e - s) * (np.arange(200) + 0.5) / 200) % TWO_PI)
    lams = np.concatenate(lams)
    is_root = np.arange(lams.size) < roots.size
    ok = in_admissible_set(field, lams)
    return lams[ok], is_root[ok]


def _residual_reference_fields():
    rng = np.random.default_rng(4242)
    near = [_near_threshold_field(rng, 1 + k % 9) for k in range(30)]
    return [p.field() for p in PRESETS] + _wide_core_fields() + near


def test_residual_recurrence_matches_matrix_products():
    # presets, the wide random cores and near-threshold cores (|alpha| -> 1)
    for k, field in enumerate(_residual_reference_fields()):
        lams, is_root = _residual_test_phases(field)
        if not lams.size:
            continue
        res, _, (z, v0, v1) = _residual_core(field, lams)
        for x in range(field.x_minus, 0):  # the generator: the left start carried to site 0
            v0, v1 = _site_step(field.coin(x), z, v0, v1)
        phi = np.stack((v0, v1), axis=-1)
        phi /= np.linalg.norm(phi, axis=-1, keepdims=True)
        ref, ref_phi, landing, t_plus, t_minus = _reference_residual(field, lams)
        scale = np.linalg.norm(landing, 2, axis=(-2, -1)) * np.linalg.norm(t_plus, 2, axis=(-2, -1))
        # At a root both routes lose up to about 10 eps * cond(t_minus) of phi;
        # cond(t_minus) reaches 1.3e7 on the wide cores: at the root 5.366988
        # of wide core 43 (cond 2.0e4) the recurrence is off by 2.2e-12 *
        # scale against a 200-bit evaluation, and at 0.974540 of core 53 (cond
        # 1.7e4) the reference is off by 2.1e-12 * scale.  So roots above
        # cond 100 get 1e-14 * cond (45 eps); every other phase keeps 1e-12.
        tol = np.where(is_root, np.maximum(1e-12, 1e-14 * np.linalg.cond(t_minus)), 1e-12)
        gap = np.abs(res - ref) / (tol * scale)
        assert np.all(gap <= 1.0), (k, lams[np.argmax(gap)], np.max(gap))
        # Re<phi_ref, phi> <= |<phi_ref, phi>|, so this also pins phi's phase:
        # the left cut site x_minus only multiplies phi by zeta_out / |zeta_out|
        align = np.sum(ref_phi.conj() * phi, axis=-1).real
        assert np.all(1.0 - align <= 1e-14), (k, np.max(1.0 - align))


def test_solver_agrees_with_matrix_product_reference(monkeypatch):
    # the solver run twice on the presets and the wide random cores: once as
    # shipped, once with the matrix-product reference as its residual and
    # mismatch, so the closed-form left start is checked through every root
    import qwtrap.spectral as spectral

    def reference_core(field, lams):
        res, phi, landing, t_plus, _ = _reference_residual(field, lams)
        return res, (landing @ (t_plus @ phi[..., None]))[..., 0], None

    fields = [p.field() for p in PRESETS] + _wide_core_fields()
    got = [find_eigenphases(f) for f in fields]
    monkeypatch.setattr(spectral, "_residual_core", reference_core)
    want = [find_eigenphases(f) for f in fields]
    assert [len(g) for g in got] == [len(w) for w in want]
    assert [len(g) for g in got[len(PRESETS):]] == WIDE_CORE_COUNTS
    for k, (g, w) in enumerate(zip(got, want)):
        assert all(circ_gap(a, b) <= 1e-12 for a, b in zip(g, w)), (k, g, w)


def test_eigenphase_kernel_is_one_dimensional(spectral_of):
    # rank-1 matching matrix certifies a simple eigenvalue
    for fig_id in EXPECTED_COUNTS:
        field = preset(fig_id).field()
        for pair in spectral_of(fig_id).eigenpairs:
            _, _, landing, t_plus, _ = _reference_residual(field, np.array([pair.lam]))
            s = np.linalg.svd(landing[0] @ t_plus[0], compute_uv=False)
            assert s[0] > 1e-6
            assert s[1] <= 1e-6 * s[0], f"fig{fig_id} lam={pair.lam}"


def test_eigenvector_phase_convention():
    # the transfer recurrence conserves |v0|^2 - |v1|^2, which is zero on a
    # square-summable solution, so the generator's two moduli are equal and
    # its first component, made real and positive, fixes the global phase
    fields = [p.field() for p in PRESETS] + _wide_core_fields()[:30]
    for k, field in enumerate(fields):
        for lam in find_eigenphases(field):
            phi = build_eigenvector(field, lam).phi
            assert abs(abs(phi[0]) - abs(phi[1])) <= 1e-12, (k, lam)
            assert phi[0].real > 0.0 and abs(phi[0].imag) <= 1e-15, (k, lam, phi)


def test_build_eigenvector_rejects_non_eigenphase():
    field = preset(1).field()
    lam = preset(1).report().eigenphases[0]
    with pytest.raises(NoEigenvalueError):
        build_eigenvector(field, lam + 1e-3)
    with pytest.raises(NoEigenvalueError):
        build_eigenvector(field, math.pi / 2.0)  # outside the admissible set


def test_geometric_vector_piecewise_values():
    gv = GeometricVector(
        plus_cut=1,
        minus_cut=-1,
        zeta_in=0.5,
        zeta_out=2.0,
        plus_coef=np.array([1.0, 0.0]),
        minus_coef=np.array([0.0, 1.0]),
        middle=np.array([[0.25, -0.25]]),
    )
    assert np.allclose(gv.value(2), [0.25, 0.0])
    assert np.allclose(gv.value(0), [0.25, -0.25])
    assert np.allclose(gv.value(-2), [0.0, 0.25])
    assert gv.values(-1, 1).shape == (3, 2)
    assert gv.values(3, 2).shape == (0, 2)


def _closed_form_row(vec, x):
    """Row ``x`` of ``vec`` from its class docstring's formula, one site at a time."""
    if x >= vec.plus_cut:
        return vec.plus_coef * vec.zeta_in ** x
    if x <= vec.minus_cut:
        return vec.minus_coef * vec.zeta_out ** x
    return vec.middle[x - vec.minus_cut - 1]


def test_geometric_vector_values_match_value(spectral_of):
    # the region slices and Python tail powers, and value(), against the
    # per-site closed form row by row, written tolerance 1e-15 relative per
    # entry (measured: bit for bit), on windows inside, across and beyond the core
    for fig_id in EXPECTED_COUNTS:
        for pair in spectral_of(fig_id).eigenpairs:
            vec = pair.vector()
            far = vec.tail_halfwidth()
            for lo, hi in [(-far, far), (-3, 2), (1, 1), (far, far + 50), (-far - 50, -far)]:
                want = np.array([_closed_form_row(vec, x) for x in range(lo, hi + 1)])
                for got in (vec.values(lo, hi), np.array([vec.value(x) for x in range(lo, hi + 1)])):
                    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_geometric_vector_norm_against_brute_force(spectral_of):
    for pair in spectral_of(3).eigenpairs[:2]:
        vec = pair.vector()
        h = vec.tail_halfwidth(1e-18)
        brute = float(np.sum(np.abs(vec.values(-h, h)) ** 2))
        assert vec.norm_sq_total() == pytest.approx(brute, rel=1e-12)
        assert vec.mass_outside(-h, h) <= 1e-15


def test_tail_halfwidth_bounds_mass(spectral_of):
    # the analytic geometric tails beyond the half-width stay below eps;
    # (a subtractive mass_outside check would drown in 1e-16 roundoff)
    vec = spectral_of(1).eigenpairs[0].vector()
    h = vec.tail_halfwidth(1e-16)
    r = abs(vec.zeta_in) ** 2
    rho = abs(vec.zeta_out) ** 2
    plus_tail = float(np.sum(np.abs(vec.plus_coef) ** 2)) * r ** (h + 1) / (1.0 - r)
    minus_tail = (
        float(np.sum(np.abs(vec.minus_coef) ** 2)) * rho ** (-h - 1) / (1.0 - 1.0 / rho)
    )
    assert plus_tail + minus_tail < 1e-16


def test_geometric_vector_overlap_matches_manual(spectral_of, rng):
    vec = spectral_of(1).eigenpairs[1].vector()
    psi = random_unit_psi(rng)
    state = WalkState.point(*psi)
    manual = np.vdot(vec.value(0), np.array(psi))
    assert vec.overlap(state) == pytest.approx(complex(manual), abs=1e-14)


def test_scaled_vector(spectral_of):
    vec = spectral_of(1).eigenpairs[0].vector()
    doubled = vec.scaled(2.0)
    assert doubled.norm_sq_total() == pytest.approx(4.0 * vec.norm_sq_total(), rel=1e-14)
    assert np.allclose(doubled.value(3), 2.0 * vec.value(3))


def test_admissible_arcs_hadamard():
    # one arc of measure pi/2 per period, pi on the whole circle
    arcs = _period_arcs(uniform_field(HADAMARD))
    assert len(arcs) == 1
    measure = sum(e - s for s, e in arcs)
    assert measure == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_admissible_arcs_are_exact():
    delta, half = 0.3, math.pi / 4.0
    arcs = _period_arcs(uniform_field(make_coin(R, R, delta)))
    assert len(arcs) == 1
    assert arcs[0][0] < 0.0  # the arc across 0 stays whole
    assert arcs[0] == pytest.approx((delta - half, delta + half), abs=1e-12)


def test_found_phases_lie_in_arcs(spectral_of):
    # the admissible set is pi-periodic: lam is in it iff (lam - s) % pi < e - s
    # for some period arc (s, e)
    for fig_id in EXPECTED_COUNTS:
        arcs = _period_arcs(preset(fig_id).field())
        for pair in spectral_of(fig_id).eigenpairs:
            inside = any((pair.lam - s + 1e-3) % math.pi <= e - s + 2e-3 for s, e in arcs)
            assert inside, f"fig{fig_id} lam={pair.lam}"


def test_admissible_arcs_match_pointwise_set():
    # random multi-site cores, phases more than 1e-9 from every arc end and
    # its images pi apart
    rng = np.random.default_rng(2101)
    across = 0
    for k in range(300):
        field = random_field(rng, max_cut=1 + k % 9)
        arcs = _period_arcs(field)
        ends = np.array([v for arc in arcs for v in arc])
        assert all(s < e for s, e in arcs)
        assert all(e1 <= s2 for (_, e1), (s2, _) in zip(arcs, arcs[1:]))
        if arcs:
            assert arcs[-1][1] <= arcs[0][0] + math.pi
        across += any(s < 0.0 for s, _ in arcs)
        lams = rng.uniform(0.0, TWO_PI, 2000)
        if ends.size:
            gap = np.abs((lams[:, None] - ends + math.pi / 2.0) % math.pi - math.pi / 2.0)
            lams = lams[gap.min(axis=1) > 1e-9]
        inside = np.zeros(lams.shape, dtype=bool)
        for s, e in arcs:
            inside |= (lams - s) % math.pi < e - s
        assert np.array_equal(inside, in_admissible_set(field, lams)), k
    assert across > 0  # some arcs start below 0, where the reduction mod pi matters


def _rotated(field, c):
    """The field with ``c`` added to every coin's ``delta``: ``U`` becomes ``exp(i*c) U``."""

    def turn(coin):
        return make_coin(coin.alpha, coin.beta, coin.delta + c)

    return CoinField(
        field.x_minus, field.x_plus, tuple(map(turn, field.middle)), turn(field.left), turn(field.right)
    )


def test_roots_at_and_around_the_seam():
    h = TWO_PI / DEFAULT_GRID
    offsets = (-3 * h, -h / 2, -1e-7, -1e-9, 0.0, 1e-9, 1e-7, h / 2, 3 * h)
    for p in PRESETS:
        field = p.field()
        roots = find_eigenphases(field)
        for root in roots:
            for off in offsets:
                c = off - root
                want = sorted(canonical_phase(lam + c) for lam in roots)
                got = find_eigenphases(_rotated(field, c))
                assert len(got) == len(want), (p.fig_id, root, off)
                assert got == sorted(got)
                assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12, (p.fig_id, root, off)


def test_limit_distribution_empty_spectrum():
    d = limit_distribution([], WalkState.point(1.0, 0.0), window=(-5, 5))
    assert d.total() == 0.0
    assert d.lo == -5 and d.hi == 5


def test_limit_distribution_within_trapped_mass(spectral_of, rng):
    pairs = spectral_of(1).eigenpairs
    psi = random_unit_psi(rng)
    state = WalkState.point(*psi)
    d = limit_distribution(pairs, state, window=(-40, 40))
    tm = trapped_mass(pairs, state)
    assert 0.0 <= tm <= 1.0 + 1e-12
    assert d.total() <= tm + 1e-12


def test_strong_trapping_table(spectral_of):
    for fig_id, want in EXPECTED_TRAPPING.items():
        assert spectral_of(fig_id).strongly_trapped == want, f"fig{fig_id}"
        assert is_strongly_trapped(spectral_of(fig_id).eigenpairs) == want


def test_strong_trapping_empty_spectrum():
    assert not is_strongly_trapped([])


def test_analyze_report_consistency(spectral_of):
    rep = spectral_of(5)
    phases = [p.lam for p in rep.eigenpairs]
    assert phases == sorted(phases)
    fresh = analyze(preset(5).field())
    assert [p.lam for p in fresh.eigenpairs] == phases


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    lam=st.floats(min_value=0.0, max_value=TWO_PI),
)
def test_zeta_product_property(seed, lam):
    c = random_coin(np.random.default_rng(seed))
    zp, zm = np.linalg.eigvals(transfer_matrix(c, lam))
    assert abs(zp * zm - c.alpha.conjugate() / c.alpha) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    lam=st.floats(min_value=0.0, max_value=TWO_PI),
)
def test_transfer_commutator_property(seed, lam):
    c = random_coin(np.random.default_rng(seed))
    t = transfer_matrix(c, lam)
    comm = t @ t.conj().T - t.conj().T @ t
    want = 4.0 * abs(c.beta) * abs(math.sin(lam - c.delta)) / abs(c.alpha) ** 2
    assert float(np.max(np.abs(comm))) == pytest.approx(want, abs=1e-9)


def test_random_defect_solver_agrees_with_residuals(rng):
    # every phase the solver returns is certified by the residual oracle
    for _ in range(3):
        field = random_field(rng)
        for lam in find_eigenphases(field):
            assert eigen_residual(field, lam) < 1e-9


def _scalar_section(field, a, b, tol):
    """Reference section search, one phase per residual evaluation."""

    def f(x):
        x %= TWO_PI
        return eigen_residual(field, x) if in_admissible_set(field, x) else math.inf

    while (b - a) > tol:
        pts = [a + (b - a) * (i / 16) for i in range(1, 16)]
        vals = [f(x) for x in pts]
        k = vals.index(min(vals))  # the first smallest
        ends = [a, *pts, b]
        a, b = ends[k], ends[k + 2]
    return 0.5 * (a + b)


def test_batched_section_search_matches_scalar_reference(rng):
    # brackets around every root, random ones (some leave the admissible
    # set), ones across the 0/2*pi seam and a zero-width one, refined together
    h = TWO_PI / 20000
    for _ in range(4):
        field = random_field(rng, max_cut=4)
        roots = np.array(find_eigenphases(field))
        starts = np.concatenate((roots - h, rng.uniform(0.0, TWO_PI, size=6), [-5e-3, TWO_PI - 1e-4, 1.0]))
        widths = np.concatenate((np.full(roots.size, 2 * h), rng.uniform(1e-4, 2e-2, size=6), [1e-2, 3e-4, 0.0]))
        got = _section_search(field, starts, starts + widths, 1e-12)
        want = [_scalar_section(field, float(a), float(a + w), 1e-12) for a, w in zip(starts, widths)]
        assert got.tolist() == want


def test_polish_keeps_steps_inside_the_bracket():
    # from brackets just right of each root, a Gauss-Newton step lands on the
    # root, outside the bracket, and is refused
    field = PRESETS[0].field()
    roots = np.array(find_eigenphases(field))
    lo, hi = roots + 1e-4, roots + 2e-4
    x, res = _polish(field, 0.5 * (lo + hi), lo, hi)
    assert np.all((lo <= x) & (x <= hi)) and np.all(res > 1e3 * RESIDUAL_ACCEPT)


def test_refinement_batch_count(monkeypatch):
    # a count of batched residual calls: the samples of each arc of one
    # period, about ten section calls, two Gauss-Newton steps and the final
    # score, and as many again for the partners
    import qwtrap.spectral as spectral

    calls = []
    core = spectral._residual_core
    monkeypatch.setattr(spectral, "_residual_core", lambda f, lams: calls.append(1) or core(f, lams))
    for p in PRESETS:
        calls.clear()
        find_eigenphases(p.field())
        assert len(calls) <= 18, (p.fig_id, len(calls))


def test_root_at_seam_is_stable():
    # PRESETS[3] has an eigenphase at 0, which an earlier golden-section
    # refinement placed at 3.9763933894134296e-13
    got = find_eigenphases(PRESETS[3].field())
    assert abs(got[0] - 3.9763933894134296e-13) <= 1e-12


def _kernel_row_switches(field):
    """Admissible phases where ``_kernel_vectors`` switches rows for ``T_left - zeta_out``."""

    def gap(lams):
        m = transfer_matrix(field.left, lams)
        m[..., 0, 0] -= expanding_zeta(field.left, lams)
        m[..., 1, 1] -= expanding_zeta(field.left, lams)
        return np.abs(m[..., 0, :]).sum(axis=-1) - np.abs(m[..., 1, :]).sum(axis=-1)

    arcs = _circle_arcs(field)
    if not arcs:
        return np.empty(0)
    lams = np.array([np.linspace(s, e, 2001)[1:-1] for s, e in arcs])
    g = np.sign(gap(lams))
    k = g[:, :-1] != g[:, 1:]
    a, b, ga = lams[:, :-1][k], lams[:, 1:][k], g[:, :-1][k]
    for _ in range(30):  # bisection, to about 1e-12
        m = 0.5 * (a + b)
        left = np.sign(gap(m)) == ga
        a, b = np.where(left, m, a), np.where(left, b, m)
    return 0.5 * (a + b) % TWO_PI


def test_mismatch_has_no_phase_jumps():
    # w is smooth in lam, so halving h quarters its second difference; a jump
    # would keep it at the size of w instead.  The sampled phases are those
    # where the matrix-product reference's _kernel_vectors switches rows, and
    # 40 interior points of each admissible arc
    h = 1e-6
    switches = 0
    for k, field in enumerate([p.field() for p in PRESETS] + _wide_core_fields()):
        rows = _kernel_row_switches(field)
        switches += rows.size
        lams = np.concatenate([rows] + [s + (e - s) * (np.arange(40) + 0.5) / 40 for s, e in _circle_arcs(field)])
        stencil = lams[:, None] + h * np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
        stencil = stencil[in_admissible_set(field, stencil % TWO_PI).all(axis=1)]
        if not stencil.size:
            continue
        _, w, _ = _residual_core(field, stencil.ravel() % TWO_PI)
        w = w.reshape(stencil.shape + (2,))
        wide = np.linalg.norm(w[:, 0] - 2 * w[:, 2] + w[:, 4], axis=-1)
        narrow = np.linalg.norm(w[:, 1] - 2 * w[:, 2] + w[:, 3], axis=-1)
        floor = 1e-9 * np.linalg.norm(w[:, 2], axis=-1)
        assert np.all(narrow <= 0.3 * wide + floor), (k, np.max(narrow / wide))
    assert switches > 0


def test_in_admissible_set_is_elementwise_on_arrays(rng):
    for _ in range(5):
        field = random_field(rng)
        lams = rng.uniform(0.0, TWO_PI, size=(4, 50))
        got = in_admissible_set(field, lams)
        assert got.shape == lams.shape and got.dtype == np.bool_
        assert got.tolist() == [[in_admissible_set(field, float(x)) for x in row] for row in lams]
    assert type(in_admissible_set(field, 0.3)) is bool


def _wide_core_fields():
    rng = np.random.default_rng(7)
    return [random_field(rng, max_cut=1 + k % 9) for k in range(60)]


#: Phase counts on ``_wide_core_fields()``.  Entries 5, 16, 43, 51, 52, 53 and
#: 59 hold steep roots; their counts equal those of ``_ring_oracle`` at 800
#: sites with a core + 250 window.
WIDE_CORE_COUNTS = [
    2, 2, 4, 2, 2, 8, 0, 2, 0, 2, 0, 4, 4, 0, 0, 0, 8, 2, 2, 2,
    2, 2, 2, 0, 0, 6, 0, 2, 4, 2, 2, 8, 2, 2, 12, 2, 4, 0, 2, 6,
    0, 8, 8, 14, 0, 2, 4, 4, 4, 2, 2, 8, 10, 20, 2, 2, 0, 4, 0, 6,
]


def test_phase_counts_on_wide_random_cores():
    assert [len(find_eigenphases(f)) for f in _wide_core_fields()] == WIDE_CORE_COUNTS


def test_solver_finds_steep_roots():
    # field 59 (cuts -5, 2): diagonalising the walk on a 600-site ring gives
    # six eigenvectors with all their mass in |x| <= 25, at these phases
    field = _wide_core_fields()[59]
    want = [1.459077, 1.770972, 1.937030, 4.600670, 4.912564, 5.078623]
    got = find_eigenphases(field)
    assert len(got) == len(want)
    assert all(abs(g - w) <= 1e-6 for g, w in zip(got, want))


def _ring_oracle(field, n, pad):
    """Localised eigenphases of the walk on a ring of ``n`` sites, by dense ``eig``.

    Shares no code with the transfer-matrix solver: the ``2n x 2n`` unitary
    is built from the coin parameters, and a phase is admissible when its
    own ``cos(lam - delta)**2 > |alpha|**2`` holds for both asymptotic coins.
    Returns ``(lam, admissible)`` for every eigenvector with at least
    ``1 - 1e-8`` of its mass within ``pad`` sites of the core.  Pitfalls
    measured on the seed 7, 11 and 13 surveys:

    - ``pad`` = 25 misses real roots: seed-7 draw 16 has |zeta_out| = 1.31,
      and its tail needs 51 sites; seed-11 draw 16 (|zeta_out| = 1.03)
      needs more than 250.
    - The ring's seam is a second interface, with bound states of its own
      when the two asymptotic coins differ, so the window must stay clear
      of it: ``n / 2 - pad`` sites at least.
    - Localised ring states at inadmissible phases are cavity or resonance
      artefacts, not eigenvectors of the infinite walk (one each on seed-7
      draws 51 and 79 and seed-13 draws 41 and 113), hence the flag.
    """
    sites = np.arange(-(n // 2), n - n // 2)
    u = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    for i, x in enumerate(sites.tolist()):
        c = field.coin(x)
        e = np.exp(1j * c.delta)
        left, right = 2 * ((i - 1) % n), 2 * ((i + 1) % n) + 1  # S moves left-movers left
        u[left, 2 * i : 2 * i + 2] = e * c.alpha, e * c.beta
        u[right, 2 * i : 2 * i + 2] = -e * c.beta.conjugate(), e * c.alpha.conjugate()
    vals, vecs = np.linalg.eig(u)
    mass = (np.abs(vecs) ** 2).reshape(n, 2, -1).sum(axis=1)
    window = (sites >= field.x_minus - pad) & (sites <= field.x_plus + pad)
    inside = mass[window].sum(axis=0) / mass.sum(axis=0)

    def admissible(lam):
        return all(math.cos(lam - c.delta) ** 2 > abs(c.alpha) ** 2 for c in (field.left, field.right))

    lams = np.angle(vals[inside >= 1.0 - 1e-8]) % TWO_PI
    return sorted((float(lam), admissible(lam)) for lam in lams)


def test_ring_oracle_agrees_on_steep_roots():
    field = _wide_core_fields()[59]
    ring = _ring_oracle(field, 400, 100)
    assert all(ok for _, ok in ring)
    got = find_eigenphases(field)
    assert len(got) == len(ring)
    assert all(circ_gap(g, lam) <= 1e-6 for g, (lam, _) in zip(got, ring))


@pytest.mark.xfail(
    strict=True,
    reason="two defects: at 1.058986 the double 1.0589860251814263 has residual 2.83e-10, "
    "below RESIDUAL_ACCEPT, but the residual is about 78 at +-1e-4, so the well is far "
    "narrower than the 4.7e-4 sample spacing and no sampled local minimum brackets it; "
    "4.200579 is floor-limited: one ulp moves the residual by about 1.1e-8 and the "
    "smallest residual within 3000 ulps is 3.3e-9, so no phase meets RESIDUAL_ACCEPT",
)
def test_solver_finds_floor_limited_roots():
    # seed-7 draw 87 (cuts from max_cut = 7): an 800-site ring oracle with a
    # core + 250 window finds eight admissible roots; the solver misses two
    rng = np.random.default_rng(7)
    field = [random_field(rng, max_cut=1 + k % 9) for k in range(88)][87]
    want = [1.058986, 1.221408, 1.704618, 1.945152, 4.200579, 4.363000, 4.846211, 5.086744]
    got = find_eigenphases(field)
    assert len(got) == len(want)
    assert all(abs(g - w) <= 1e-6 for g, w in zip(got, want))


def _full_circle_phases(field):
    """Eigenphases by sampling and refining every admissible arc of the whole circle.

    The full-circle solve, the reference for the period solve: each arc of
    ``_circle_arcs`` is sampled at spacing ``2*pi / DEFAULT_GRID`` with 17
    to 4001 samples, every sampled local minimum is refined by the solver's
    ``_section_search`` and ``_polish``, and the certified phases are mapped
    by ``canonical_phase`` and deduplicated.  No root borrows its partner.
    """
    h = TWO_PI / DEFAULT_GRID
    lo, hi = [np.empty(0)], [np.empty(0)]
    for s, e in _circle_arcs(field):
        n = max(17, min(4001, 2 * int((e - s) / h) + 1))
        pts = s + (e - s) * (np.arange(n) + 0.5) / n
        res = np.pad(_residual_or_inf(field, pts), 1, constant_values=np.inf)
        mid = res[1:-1]
        k = np.flatnonzero(np.isfinite(mid) & (mid <= res[:-2]) & (mid <= res[2:]))
        ends = np.concatenate(([s], pts, [e]))
        lo.append(ends[k])
        hi.append(ends[k + 2])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    x, res = _polish(field, _section_search(field, lo, hi, 1e-12), lo, hi)
    found = sorted((canonical_phase(a), r) for a, r in zip(x.tolist(), res.tolist()) if r < RESIDUAL_ACCEPT)
    phases, best = [], math.inf
    for k, (lam, r) in enumerate(found):
        if phases and lam - found[k - 1][0] <= DEDUPE_TOL:
            if r < best:
                phases[-1], best = lam, r
        else:
            phases.append(lam)
            best = r
    return phases


def test_period_solve_matches_full_circle_reference():
    # 300 random cores: the same roots as the full-circle reference, each
    # certified at the double reported; the batched eigenvectors equal the
    # one-phase builds and are fixed points of one walk step
    rng = np.random.default_rng(2402)
    worst_step = 0.0
    for k in range(300):
        field = random_field(rng, max_cut=1 + k % 9)
        got, want = find_eigenphases(field), _full_circle_phases(field)
        assert len(got) == len(want), (k, got, want)
        assert all(circ_gap(a, b) <= 1e-12 for a, b in zip(got, want)), (k, got, want)
        assert all(eigen_residual(field, lam) < RESIDUAL_ACCEPT for lam in got), k
        for pair in build_eigenvectors(field, got):
            vec, one = pair.vector(), build_eigenvector(field, pair.lam).vector()
            h = vec.tail_halfwidth(1e-16)
            vals = vec.values(-h - 2, h + 2)
            assert np.max(np.abs(vals - one.values(-h - 2, h + 2))) <= 1e-12, (k, pair.lam)
            out = evolve(WalkState(-h - 2, vals), field, 1)
            step = out.amps[-h - out.lo : h + 1 - out.lo] - np.exp(1j * pair.lam) * vals[2:-2]
            worst_step = max(worst_step, float(np.max(np.abs(step))))
    assert worst_step <= 1e-11
