"""Rotations, coherent states and Q functions: conventions and closed-form laws."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st
from scipy.linalg import expm

from atombell import (
    BlochDirection,
    SpinState,
    TwoAtomState,
    canonical_form,
    coherent_overlap,
    coherent_state,
    displace_two_atoms,
    entanglement_angle,
    eta_state,
    joint_q,
    make_direction,
    marginal_q,
    q_function,
    reduced_density,
    rotation_operator,
    schmidt_decompose,
    spinor_direction,
    su2,
    wigner_d,
)

SEED = 20260814


def _jy(j):
    # angular momentum Jy from the ladder operators, basis m = j .. -j
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jp = np.zeros((dim, dim))
    for k in range(1, dim):
        jp[k - 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    return (jp - jp.T) / 2j


def _random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amps / np.linalg.norm(amps)


def _random_direction(rng):
    return make_direction(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))


# ---------------------------------------------------------------- directions


def test_direction_canonicalization_examples():
    d = make_direction(0.0, 1.7)  # poles forget the azimuth
    assert d.theta == 0.0 and d.phi == 0.0
    d = make_direction(math.pi / 3, 2.0 * math.pi + 0.5)
    assert abs(d.theta - math.pi / 3) < 1e-15 and abs(d.phi - 0.5) < 1e-12
    d = make_direction(-math.pi / 4, 0.0)  # negative polar angle mirrors through the z axis
    assert abs(d.theta - math.pi / 4) < 1e-15 and abs(d.phi - math.pi) < 1e-15
    d = make_direction(3.0 * math.pi / 2, 0.3)  # reflex polar angle folds back with phi + pi
    assert abs(d.theta - math.pi / 2) < 1e-12 and abs(d.phi - (0.3 + math.pi)) < 1e-12
    assert make_direction(math.pi, 2.2).phi == 0.0
    # a tiny negative azimuth rounds up to 2*pi and must land on 0 instead
    assert make_direction(1.0, -1e-300).phi == 0.0
    assert spinor_direction([1.0, 0.5 - 1e-17j]) == spinor_direction([1.0, 0.5])


def test_direction_equivalent_angles_same_unit_vector():
    rng = np.random.default_rng(SEED)
    for _ in range(300):
        theta = rng.uniform(-8.0, 8.0)
        phi = rng.uniform(-8.0, 8.0)
        raw = np.array(
            [
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ]
        )
        d = make_direction(theta, phi)
        assert 0.0 <= d.theta <= math.pi
        assert 0.0 <= d.phi < 2.0 * math.pi
        assert np.max(np.abs(d.unit_vector - raw)) < 1e-12


def _near(centres):
    offsets = st.one_of(
        st.floats(-1e-12, 1e-12),
        st.sampled_from([5e-324, -5e-324, 1e-300, -1e-300, 1e-17, -1e-17, 1e-16, -1e-16]),
    )
    return st.builds(lambda c, d: c + d, st.sampled_from(centres), offsets)


_raw_thetas = st.one_of(st.floats(-20.0, 20.0), _near([0.0, math.pi, -math.pi, 2.0 * math.pi]))
_raw_phis = st.one_of(st.floats(-20.0, 20.0), _near([0.0, 2.0 * math.pi, -2.0 * math.pi, math.pi]))


@hypothesis_settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(theta=_raw_thetas, phi=_raw_phis)
def test_direction_canonicalization_is_idempotent(theta, phi):
    # raw angles are drawn near the poles and near phi = 0, where rounding bites
    d = make_direction(theta, phi)
    assert 0.0 <= d.theta <= math.pi
    assert 0.0 <= d.phi < 2.0 * math.pi
    assert make_direction(d.theta, d.phi) == d


def test_direction_rejects_non_finite():
    with pytest.raises(ValueError):
        make_direction(math.nan, 0.0)
    with pytest.raises(ValueError):
        make_direction(0.0, math.inf)


# ------------------------------------------------------------------ rotations


def test_wigner_d_matches_exponential_of_jy():
    rng = np.random.default_rng(SEED)
    for j in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5):
        for theta in np.concatenate(([0.0, math.pi, -2.3], rng.uniform(-7.0, 7.0, size=8))):
            d = wigner_d(j, float(theta))
            ref = expm(-1j * float(theta) * _jy(j))
            assert np.max(np.abs(d - ref)) < 1e-12
            assert np.max(np.abs(d.imag if np.iscomplexobj(d) else 0.0)) == 0.0


def test_wigner_d_orthogonal_and_identity_at_zero():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(100):
        j = rng.choice([0.5, 1.0, 1.5, 2.0, 2.5])
        theta = rng.uniform(-7.0, 7.0)
        d = wigner_d(float(j), float(theta))
        assert np.max(np.abs(d @ d.T - np.eye(d.shape[0]))) < 1e-12
    for j in (0.0, 0.5, 1.5, 2.5):
        assert np.max(np.abs(wigner_d(j, 0.0) - np.eye(int(round(2 * j)) + 1))) < 1e-15


def test_wigner_d_spin_validation():
    with pytest.raises(ValueError):
        wigner_d(0.3, 1.0)  # not a half-integer
    with pytest.raises(ValueError):
        wigner_d(-0.5, 1.0)
    with pytest.raises(ValueError):
        wigner_d(3.0, 1.0)  # beyond the cap
    with pytest.raises(ValueError):
        wigner_d(0.5, math.inf)


def test_rotation_operator_unitary():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(200):
        j = float(rng.choice([0.5, 1.0, 1.5, 2.0, 2.5]))
        g = rotation_operator(j, _random_direction(rng))
        dim = g.shape[0]
        assert np.max(np.abs(g.conj().T @ g - np.eye(dim))) < 1e-12


_poles = st.builds(BlochDirection, st.sampled_from([0.0, math.pi]), st.floats(0.0, 7.0))
_near_zero_phi = st.builds(BlochDirection, st.floats(0.0, math.pi), _near([0.0, 2.0 * math.pi]))
_raw_directions = st.builds(make_direction, _raw_thetas, _raw_phis)


@hypothesis_settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(n=st.one_of(_poles, _near_zero_phi, _raw_directions))
def test_spin_half_rotation_closed_form_matches_general_formula(n):
    # the general path every other j takes: phases exp(-i phi m) times d^j(theta)
    m = 0.5 - np.arange(2)
    general = np.exp(-1j * n.phi * m)[:, None] * wigner_d(0.5, n.theta)
    assert np.array_equal(rotation_operator(0.5, n), general)


def test_coherent_state_is_first_rotation_column_exactly(monkeypatch):
    rotations = []

    def recording_rotation(j, n):
        rotations.append(rotation_operator(j, n))
        return rotations[-1]

    monkeypatch.setattr(su2, "rotation_operator", recording_rotation)
    rng = np.random.default_rng(SEED + 3)
    for _ in range(50):
        j = float(rng.choice([0.5, 1.0, 1.5, 2.5]))
        n = _random_direction(rng)
        state = coherent_state(j, n)
        column = rotations[-1][:, 0]
        checked = SpinState(j, column)
        assert type(state.j) is float and state.j == checked.j == j
        assert np.array_equal(state.amps, column) and np.array_equal(state.amps, checked.amps)
        assert not state.amps.flags.writeable
        assert not np.shares_memory(state.amps, rotations[-1])
    assert type(coherent_state(1, make_direction(0.3, 0.4)).j) is float


def test_spin_half_coherent_state_half_angle_form():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(200):
        n = _random_direction(rng)
        amps = coherent_state(0.5, n).amps
        expected = np.array(
            [
                math.cos(0.5 * n.theta) * np.exp(-0.5j * n.phi),
                math.sin(0.5 * n.theta) * np.exp(0.5j * n.phi),
            ]
        )
        assert np.max(np.abs(amps - expected)) < 1e-14


def test_coherent_overlap_geometric_law():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(500):
        j = float(rng.choice([0.5, 1.0, 1.5, 2.0, 2.5]))
        n1 = _random_direction(rng)
        n2 = _random_direction(rng)
        law = (0.5 * (1.0 + float(n1.unit_vector @ n2.unit_vector))) ** (2.0 * j)
        assert abs(abs(coherent_overlap(j, n1, n2)) ** 2 - law) < 1e-10


# ---------------------------------------------------------------- Q functions


def test_q_function_of_upper_state_follows_overlap_law():
    zhat = make_direction(0.0, 0.0)
    rng = np.random.default_rng(SEED + 6)
    for _ in range(100):
        j = float(rng.choice([0.5, 1.0, 1.5, 2.5]))
        n = _random_direction(rng)
        q = q_function(coherent_state(j, zhat), n)
        assert abs(q - (0.5 * (1.0 + math.cos(n.theta))) ** (2.0 * j)) < 1e-12


def test_q_function_known_value():
    # upper state probed at theta = pi/3: cos^2(pi/6) = 3/4
    q = q_function(coherent_state(0.5, make_direction(0.0, 0.0)), make_direction(math.pi / 3, 0.9))
    assert abs(q - 0.75) < 1e-14


def test_q_function_density_matrix_agrees_with_pure_state():
    rng = np.random.default_rng(SEED + 7)
    for _ in range(100):
        j = float(rng.choice([0.5, 1.0, 2.0]))
        dim = int(round(2 * j)) + 1
        state = SpinState(j, _random_state(rng, dim))
        rho = np.outer(state.amps, state.amps.conj())
        n = _random_direction(rng)
        assert abs(q_function(state, n) - q_function(rho, n)) < 1e-13


def test_q_function_normalization_on_the_sphere():
    # (2j+1)/(4 pi) * integral Q dOmega = 1; Gauss-Legendre in cos(theta) is
    # exact here because Q is a polynomial of degree 2j in it, and the uniform
    # azimuth grid is exact for trigonometric polynomials of degree <= 2j
    rng = np.random.default_rng(SEED + 8)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    phis = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    for j in (0.5, 1.0, 1.5):
        dim = int(round(2 * j)) + 1
        state = SpinState(j, _random_state(rng, dim))
        total = 0.0
        for u, w in zip(nodes, weights):
            theta = math.acos(float(u))
            row = sum(q_function(state, make_direction(theta, float(p))) for p in phis)
            total += w * row * (2.0 * math.pi / len(phis))
        assert abs(total * (2.0 * j + 1.0) / (4.0 * math.pi) - 1.0) < 1e-12


def test_q_function_rejects_two_atom_state():
    psi = TwoAtomState([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(TypeError):
        q_function(psi, make_direction(0.1, 0.2))


def test_q_function_rejects_non_square_matrix():
    with pytest.raises(ValueError):
        q_function(np.zeros((2, 3)), make_direction(0.1, 0.2))


def test_joint_q_is_displaced_upper_upper_population():
    rng = np.random.default_rng(SEED + 9)
    for _ in range(200):
        psi = TwoAtomState(_random_state(rng, 4))
        n1 = _random_direction(rng)
        n2 = _random_direction(rng)
        displaced = displace_two_atoms(psi, n1, n2)
        assert abs(joint_q(psi, n1, n2) - abs(displaced.amps[0]) ** 2) < 1e-14


def test_marginal_q_matches_displaced_populations():
    rng = np.random.default_rng(SEED + 10)
    for _ in range(200):
        psi = TwoAtomState(_random_state(rng, 4))
        n1 = _random_direction(rng)
        n2 = _random_direction(rng)  # the partner displacement must drop out
        p = np.abs(displace_two_atoms(psi, n1, n2).amps) ** 2
        assert abs(marginal_q(psi, 1, n1) - (p[0] + p[1])) < 1e-13
        assert abs(marginal_q(psi, 2, n2) - (p[0] + p[2])) < 1e-13


def test_joint_q_bounded_by_marginals():
    rng = np.random.default_rng(SEED + 11)
    for _ in range(200):
        psi = TwoAtomState(_random_state(rng, 4))
        n1 = _random_direction(rng)
        n2 = _random_direction(rng)
        q12 = joint_q(psi, n1, n2)
        assert q12 <= marginal_q(psi, 1, n1) + 1e-13
        assert q12 <= marginal_q(psi, 2, n2) + 1e-13


def test_reduced_density_examples():
    vartheta = 0.3
    psi = TwoAtomState([math.cos(vartheta), 0.0, 0.0, math.sin(vartheta)])
    rho1 = reduced_density(psi, 1)
    assert np.max(np.abs(rho1 - np.diag([math.cos(vartheta) ** 2, math.sin(vartheta) ** 2]))) < 1e-15
    half = 1.0 / math.sqrt(2.0)
    bell = TwoAtomState([half, 0.0, 0.0, half])
    for atom in (1, 2):
        assert np.max(np.abs(reduced_density(bell, atom) - 0.5 * np.eye(2))) < 1e-15
    with pytest.raises(ValueError):
        reduced_density(psi, 3)


def test_reduced_density_properties():
    rng = np.random.default_rng(SEED + 12)
    for _ in range(100):
        psi = TwoAtomState(_random_state(rng, 4))
        for atom in (1, 2):
            rho = reduced_density(psi, atom)
            assert abs(np.trace(rho).real - 1.0) < 1e-13
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-14


def test_marginal_q_of_product_state_is_single_atom_q():
    rng = np.random.default_rng(SEED + 13)
    for _ in range(100):
        a = _random_state(rng, 2)
        b = _random_state(rng, 2)
        psi = TwoAtomState(np.kron(a, b))
        n = _random_direction(rng)
        assert abs(marginal_q(psi, 1, n) - q_function(SpinState(0.5, a), n)) < 1e-13
        assert abs(marginal_q(psi, 2, n) - q_function(SpinState(0.5, b), n)) < 1e-13


# -------------------------------------------------------- spinors and Schmidt


def test_spinor_direction_round_trip():
    rng = np.random.default_rng(SEED + 14)
    for _ in range(300):
        n = _random_direction(rng)
        back = spinor_direction(coherent_state(0.5, n).amps)
        assert abs(back.theta - n.theta) < 1e-12
        assert min(abs(back.phi - n.phi), 2.0 * math.pi - abs(back.phi - n.phi)) < 1e-12
    assert spinor_direction([1.0, 0.0]).theta == 0.0
    assert spinor_direction([0.0, 1.0]).theta == math.pi


def test_spinor_direction_ignores_global_phase():
    rng = np.random.default_rng(SEED + 15)
    for _ in range(100):
        amps = _random_state(rng, 2)
        n1 = spinor_direction(amps)
        n2 = spinor_direction(amps * np.exp(1j * rng.uniform(0.0, 7.0)))
        assert abs(n1.theta - n2.theta) < 1e-12
        assert min(abs(n1.phi - n2.phi), 2.0 * math.pi - abs(n1.phi - n2.phi)) < 1e-12


def test_spinor_direction_zero_vector_raises():
    with pytest.raises(ValueError):
        spinor_direction([0.0, 0.0])


def _phase_aligned_residual(candidate, target):
    overlap = np.vdot(candidate, target)
    phase = overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0
    return float(np.linalg.norm(candidate * phase - target))


def test_schmidt_reconstruction_random_states():
    rng = np.random.default_rng(SEED + 16)
    for _ in range(300):
        psi = TwoAtomState(_random_state(rng, 4))
        dec = schmidt_decompose(psi)
        assert 0.0 <= dec.vartheta <= math.pi / 4.0 + 1e-12
        assert _phase_aligned_residual(dec.state().amps, psi.amps) < 1e-10
        # singular values straight from the Gram matrix, no SVD involved
        evals = np.linalg.eigvalsh(psi.amp_matrix @ psi.amp_matrix.conj().T)
        s = np.sqrt(np.clip(evals, 0.0, None))[::-1]
        assert abs(dec.vartheta - math.atan2(s[1], s[0])) < 1e-10


def test_schmidt_bases_are_biorthogonal_rotations():
    rng = np.random.default_rng(SEED + 17)
    for _ in range(100):
        psi = TwoAtomState(_random_state(rng, 4))
        dec = schmidt_decompose(psi)
        assert canonical_form(psi) == dec
        for basis, rotation in ((dec.basis1, dec.rotation1), (dec.basis2, dec.rotation2)):
            assert np.array_equal(basis, rotation_operator(0.5, rotation))
            assert np.max(np.abs(basis.conj().T @ basis - np.eye(2))) < 1e-12
        c_plus = np.vdot(np.kron(dec.basis1[:, 0], dec.basis2[:, 0]), psi.amps)
        c_minus = np.vdot(np.kron(dec.basis1[:, 1], dec.basis2[:, 1]), psi.amps)
        cross = np.vdot(np.kron(dec.basis1[:, 0], dec.basis2[:, 1]), psi.amps)
        assert abs(abs(c_plus) - math.cos(dec.vartheta)) < 1e-10
        assert abs(abs(c_minus) - math.sin(dec.vartheta)) < 1e-10
        assert abs(cross) < 1e-10


def test_schmidt_normal_form_round_trip():
    vartheta, varphi = 0.3, 1.0
    psi = TwoAtomState([math.cos(vartheta), 0.0, 0.0, math.sin(vartheta) * np.exp(1j * varphi)])
    dec = schmidt_decompose(psi)
    assert abs(dec.vartheta - vartheta) < 1e-12
    assert abs(dec.varphi - varphi) < 1e-12
    # the phase -1e-17 rounds up to exactly 2*pi modulo 2*pi; it must land on 0
    c, s = math.cos(vartheta), math.sin(vartheta)
    tiny = schmidt_decompose(TwoAtomState([c, 0.0, 0.0, s * (1.0 - 1e-17j)]))
    assert tiny == schmidt_decompose(TwoAtomState([c, 0.0, 0.0, s]))
    assert tiny.varphi == 0.0


@pytest.mark.parametrize("eps", [0.0, 1e-16, 1e-14, 1e-12])
@pytest.mark.parametrize("near", ["maximal", "product"])
def test_schmidt_decompose_near_the_degenerate_ends(eps, near):
    # at vartheta = pi/4 the Schmidt bases are not unique; near 0 s[1] drops
    # below the cut-off that pins the phase
    vartheta = math.pi / 4.0 - eps if near == "maximal" else eps
    rng = np.random.default_rng(SEED + 19)
    for varphi in (0.0, 1.3, math.pi, 5.9):
        psi = displace_two_atoms(eta_state(vartheta, varphi), _random_direction(rng), _random_direction(rng))
        dec = schmidt_decompose(psi)
        assert 0.0 <= dec.vartheta <= math.pi / 4.0
        assert 0.0 <= dec.varphi < 2.0 * math.pi
        assert abs(dec.vartheta - vartheta) < 1e-12
        assert _phase_aligned_residual(dec.state().amps, psi.amps) < 1e-12
        for basis, rotation in ((dec.basis1, dec.rotation1), (dec.basis2, dec.rotation2)):
            assert np.array_equal(basis, rotation_operator(0.5, rotation))


def test_schmidt_product_state_conventions():
    rng = np.random.default_rng(SEED + 18)
    for _ in range(50):
        psi = TwoAtomState(np.kron(_random_state(rng, 2), _random_state(rng, 2)))
        dec = schmidt_decompose(psi)
        assert dec.vartheta < 1e-7
        assert dec.varphi == 0.0  # undefined phase pinned to zero
        assert _phase_aligned_residual(dec.state().amps, psi.amps) < 1e-7


def test_entanglement_angle_examples():
    half = 1.0 / math.sqrt(2.0)
    assert abs(entanglement_angle(TwoAtomState([0.0, half, -half, 0.0])) - math.pi / 4) < 1e-12
    assert abs(entanglement_angle(TwoAtomState([half, 0.0, 0.0, half])) - math.pi / 4) < 1e-12
    assert entanglement_angle(TwoAtomState([1.0, 0.0, 0.0, 0.0])) < 1e-8
    assert abs(entanglement_angle(TwoAtomState([math.cos(0.2), 0.0, 0.0, math.sin(0.2)])) - 0.2) < 1e-12


def test_entanglement_angle_local_rotation_invariance():
    rng = np.random.default_rng(SEED + 19)
    for _ in range(100):
        psi = TwoAtomState(_random_state(rng, 4))
        rotated = displace_two_atoms(psi, _random_direction(rng), _random_direction(rng))
        assert abs(entanglement_angle(psi) - entanglement_angle(rotated)) < 1e-10


# ------------------------------------------------------------- state plumbing


def test_state_normalization_policy():
    state = SpinState(0.5, [3.0, 4.0])
    assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-15
    assert abs(state.amps[0] - 0.6) < 1e-15
    exact = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    assert np.array_equal(TwoAtomState(exact).amps, exact)  # already normalized: untouched
    with pytest.raises(ValueError):
        SpinState(0.5, [0.0, 0.0])
    with pytest.raises(ValueError):
        SpinState(0.5, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        TwoAtomState([1.0, math.nan, 0.0, 0.0])
    with pytest.raises(ValueError):
        SpinState(0.7, [1.0, 0.0])
    assert np.array_equal(SpinState(0.5, [1.0, 1.0]).amps, np.array([1.0, 1.0]) / math.sqrt(2.0))
    with pytest.raises(ValueError):
        SpinState(0.5, [math.nan, 0.0])


@pytest.mark.parametrize("scale", [1e200, 1e300, 1e-160, 1e-161, 1e-200, 1e-310])
def test_state_normalization_at_extreme_scales(scale):
    # the squares of these amplitudes overflow, or underflow into subnormals
    for phase in (1.0, 1j):
        psi = TwoAtomState([scale, 0.0, 0.0, phase * scale])
        assert np.max(np.abs(psi.amps - np.array([1.0, 0.0, 0.0, phase]) / math.sqrt(2.0))) < 1e-16
        assert abs(np.linalg.norm(psi.amps) - 1.0) < 1e-15
    assert np.array_equal(SpinState(0.5, [scale, 0.0]).amps, np.array([1.0, 0.0]))


def test_state_normalization_keeps_plain_division_inside_the_safe_range():
    # inside norms (1e-150, 1e150) the stored amplitudes are amps / norm, bit for bit
    rng = np.random.default_rng(SEED + 40)
    for exponent in np.concatenate(([-149.5, 149.5], rng.uniform(-149.5, 149.5, size=200))):
        amps = (rng.normal(size=4) + 1j * rng.normal(size=4)) * 10.0**exponent
        norm = np.linalg.norm(amps)
        assert 1e-150 < norm < 1e150
        assert np.array_equal(TwoAtomState(amps).amps, amps / norm)


def test_state_amplitudes_are_read_only():
    psi = TwoAtomState([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        psi.amps[0] = 0.5


def test_displacing_by_own_direction_empties_lower_level():
    rng = np.random.default_rng(SEED + 20)
    for _ in range(50):
        n1 = _random_direction(rng)
        n2 = _random_direction(rng)
        psi = TwoAtomState(np.kron(coherent_state(0.5, n1).amps, coherent_state(0.5, n2).amps))
        displaced = displace_two_atoms(psi, n1, n2)
        assert abs(abs(displaced.amps[0]) - 1.0) < 1e-13


def test_wigner_d_half_matrix_is_plane_rotation():
    theta = 0.9
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    assert np.allclose(wigner_d(0.5, theta), [[c, -s], [s, c]], atol=1e-15)


def test_make_direction_unit_vector_example():
    n = make_direction(math.pi / 3, 0.0)
    assert np.allclose(n.unit_vector, [math.sqrt(3) / 2, 0.0, 0.5], atol=1e-15)


def test_coherent_state_at_poles_fills_extreme_level():
    top = coherent_state(1.0, make_direction(0.0, 0.0))
    assert np.allclose(top.amps, [1.0, 0.0, 0.0], atol=1e-15)
    bottom = coherent_state(1.0, make_direction(math.pi, 0.0))
    # lowest level up to a global phase
    assert abs(abs(bottom.amps[2]) - 1.0) < 1e-13
    assert np.max(np.abs(bottom.amps[:2])) < 1e-13


def test_coherent_overlap_extremes():
    rng = np.random.default_rng(SEED + 21)
    for _ in range(20):
        n = _random_direction(rng)
        anti = make_direction(math.pi - n.theta, n.phi + math.pi)
        for j in (0.5, 1.0, 2.5):
            assert abs(coherent_overlap(j, n, n) - 1.0) < 1e-12
            assert abs(coherent_overlap(j, n, anti)) < 1e-12


def test_q_function_of_maximally_mixed_density_is_half():
    rng = np.random.default_rng(SEED + 22)
    rho = np.eye(2) / 2
    for _ in range(20):
        assert abs(q_function(rho, _random_direction(rng)) - 0.5) < 1e-14


def test_displacement_by_zero_direction_is_identity():
    rng = np.random.default_rng(SEED + 23)
    zero = make_direction(0.0, 0.0)
    for _ in range(20):
        psi = TwoAtomState(_random_state(rng, 4))
        same = displace_two_atoms(psi, zero, zero)
        assert np.allclose(same.amps, psi.amps, atol=1e-13)


def test_displacement_flips_pole_of_first_atom():
    psi = TwoAtomState([1.0, 0.0, 0.0, 0.0])
    flipped = displace_two_atoms(psi, make_direction(math.pi, 0.0), make_direction(0.0, 0.0))
    assert abs(abs(flipped.amps[2]) - 1.0) < 1e-13
    assert max(abs(flipped.amps[0]), abs(flipped.amps[1]), abs(flipped.amps[3])) < 1e-13


def test_reduced_density_of_up_down_product():
    psi = TwoAtomState([0.0, 1.0, 0.0, 0.0])  # atom 1 up, atom 2 down
    assert np.allclose(reduced_density(psi, 1), [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)
    assert np.allclose(reduced_density(psi, 2), [[0.0, 0.0], [0.0, 1.0]], atol=1e-15)


def test_equivalent_raw_angles_give_identical_q_values():
    # (theta, phi), (theta + 4pi, phi) and (-theta, phi + pi) label the same
    # point on the sphere; Q values must not see the difference even though the
    # per-atom kets can pick up different global phases along the way
    rng = np.random.default_rng(SEED + 24)
    for _ in range(30):
        psi = TwoAtomState(_random_state(rng, 4))
        theta = rng.uniform(0.0, math.pi)
        phi = rng.uniform(0.0, 2 * math.pi)
        n2 = _random_direction(rng)
        base = joint_q(psi, make_direction(theta, phi), n2)
        for alias in (
            make_direction(theta + 4 * math.pi, phi),
            make_direction(-theta, phi + math.pi),
            make_direction(theta, phi - 2 * math.pi),
        ):
            assert abs(joint_q(psi, alias, n2) - base) < 1e-12
