"""Clauser-Horne combination: closed forms, classical hull, optimizer."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from atombell import (
    CHSettings,
    TwoAtomState,
    analytic_gamma_u,
    analytic_gamma_v,
    canonical_form,
    coherent_state,
    displace_two_atoms,
    entanglement_angle,
    eta_state,
    family_state,
    gamma,
    joint_q,
    lhv_vertices,
    make_direction,
    marginal_q,
    optimize_gamma,
    rotation_operator,
    spinor_direction,
    u_state,
    v_state,
)

SEED = 318

TSIRELSON_LOW = -0.5 * (1.0 + math.sqrt(2.0))
TSIRELSON_HIGH = 0.5 * (math.sqrt(2.0) - 1.0)


def _random_direction(rng):
    return make_direction(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))


def _random_settings(rng):
    return CHSettings(
        _random_direction(rng), _random_direction(rng), _random_direction(rng), _random_direction(rng)
    )


def _random_state(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return TwoAtomState(amps / np.linalg.norm(amps))


def _random_product(rng):
    return TwoAtomState(
        np.kron(coherent_state(0.5, _random_direction(rng)).amps, coherent_state(0.5, _random_direction(rng)).amps)
    )


def _rotate_direction(n, rot):
    # image of an analyzer direction under a local rotation, via the spinor map
    g = rotation_operator(0.5, rot)
    return spinor_direction(g @ coherent_state(0.5, n).amps)


# ------------------------------------------------------------------- families


def test_family_amplitudes():
    half = 1.0 / math.sqrt(2.0)
    singlet = u_state(math.pi)
    assert np.max(np.abs(singlet.amps - np.array([0.0, half, -half, 0.0]))) < 1e-15
    sym = u_state(0.0)
    assert np.max(np.abs(sym.amps - np.array([0.0, half, half, 0.0]))) < 1e-15
    even = v_state(0.0)
    assert np.max(np.abs(even.amps - np.array([half, 0.0, 0.0, half]))) < 1e-15
    eta = eta_state(0.3, 1.0)
    expected = np.array([math.cos(0.3), 0.0, 0.0, math.sin(0.3) * np.exp(1j)])
    assert np.max(np.abs(eta.amps - expected)) < 1e-15
    assert np.array_equal(family_state("u", varphi=2.0).amps, u_state(2.0).amps)
    assert np.array_equal(family_state("eta", vartheta=0.2, varphi=0.5).amps, eta_state(0.2, 0.5).amps)
    with pytest.raises(ValueError):
        family_state("eta")
    with pytest.raises(ValueError):
        family_state("w")


def test_eta_quarter_pi_is_v_family():
    rng = np.random.default_rng(SEED)
    for varphi in rng.uniform(0.0, 2.0 * math.pi, size=10):
        assert np.max(np.abs(eta_state(math.pi / 4, varphi).amps - v_state(varphi).amps)) < 1e-15


# ------------------------------------------------------------ the combination


def test_gamma_u_family_minimum():
    varphi = 1.3
    settings = CHSettings.zero_reference(
        make_direction(math.pi / 3, 2.0), make_direction(math.pi / 3, 2.0 - varphi)
    )
    result = gamma(u_state(varphi), settings)
    assert abs(result.gamma + 1.125) < 1e-12


def test_gamma_v_family_maximum():
    varphi = 0.7
    phi = 1.1
    settings = CHSettings.zero_reference(
        make_direction(math.pi / 3, phi), make_direction(math.pi / 3, math.pi + varphi - phi)
    )
    result = gamma(v_state(varphi), settings)
    assert abs(result.gamma - 0.125) < 1e-12


def test_gamma_terms_sum_to_value():
    rng = np.random.default_rng(SEED + 1)
    keys = {"q12_ab", "q12_apb", "q12_abp", "q12_apbp", "q1_a", "q2_b"}
    for _ in range(100):
        psi = _random_state(rng)
        settings = _random_settings(rng)
        result = gamma(psi, settings)
        assert set(result.terms) == keys
        assert all(-1e-12 <= v <= 1.0 + 1e-12 for v in result.terms.values())
        total = (
            result.terms["q12_ab"]
            + result.terms["q12_apb"]
            + result.terms["q12_abp"]
            - result.terms["q12_apbp"]
            - result.terms["q1_a"]
            - result.terms["q2_b"]
        )
        assert abs(total - result.gamma) < 1e-14
        assert result.settings is settings


def test_gamma_matches_direct_q_evaluation():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(50):
        psi = _random_state(rng)
        s = _random_settings(rng)
        direct = (
            joint_q(psi, s.a, s.b)
            + joint_q(psi, s.a_prime, s.b)
            + joint_q(psi, s.a, s.b_prime)
            - joint_q(psi, s.a_prime, s.b_prime)
            - marginal_q(psi, 1, s.a)
            - marginal_q(psi, 2, s.b)
        )
        assert abs(gamma(psi, s).gamma - direct) < 1e-14


def test_gamma_stays_inside_quantum_bounds():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(500):
        value = gamma(_random_state(rng), _random_settings(rng)).gamma
        assert TSIRELSON_LOW - 1e-9 <= value <= TSIRELSON_HIGH + 1e-9


def test_analytic_u_matches_numeric_sweep():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(1000):
        theta, phi, phi_prime, varphi = rng.uniform(0.0, 2.0 * math.pi, size=4)
        settings = CHSettings.zero_reference(
            make_direction(theta, phi), make_direction(theta, phi_prime)
        )
        numeric = gamma(u_state(varphi), settings).gamma
        worst = max(worst, abs(numeric - analytic_gamma_u(theta, phi, phi_prime, varphi)))
    assert worst < 1e-10


def test_analytic_v_matches_numeric_sweep():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(1000):
        theta, phi, phi_prime, varphi = rng.uniform(0.0, 2.0 * math.pi, size=4)
        settings = CHSettings.zero_reference(
            make_direction(theta, phi), make_direction(theta, phi_prime)
        )
        numeric = gamma(v_state(varphi), settings).gamma
        worst = max(worst, abs(numeric - analytic_gamma_v(theta, phi, phi_prime, varphi)))
    assert worst < 1e-10


def test_family_closed_form_bounds():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(2000):
        theta, phi, phi_prime, varphi = rng.uniform(-7.0, 7.0, size=4)
        gu = analytic_gamma_u(theta, phi, phi_prime, varphi)
        gv = analytic_gamma_v(theta, phi, phi_prime, varphi)
        assert -1.125 - 1e-12 <= gu <= 1e-12
        assert -1.0 - 1e-12 <= gv <= 0.125 + 1e-12
    assert abs(analytic_gamma_u(math.pi / 3, 0.4, 0.4 - 2.2, 2.2) + 1.125) < 1e-15
    assert abs(analytic_gamma_v(math.pi / 3, 0.4, math.pi + 2.2 - 0.4, 2.2) - 0.125) < 1e-15


# ------------------------------------------------------------- classical hull


def test_lhv_vertices_span_classical_interval():
    vertices = lhv_vertices()
    assert len(vertices) == 16
    values = [value for _, value in vertices]
    assert min(values) == -1.0
    assert max(values) == 0.0
    by_strategy = dict(vertices)
    assert by_strategy[(1, 1, 1, 1)] == 0.0
    assert by_strategy[(1, 0, 1, 0)] == -1.0
    assert by_strategy[(0, 0, 0, 0)] == 0.0
    assert all(-1.0 <= value <= 0.0 for value in values)


def test_lhv_mixtures_stay_in_hull():
    rng = np.random.default_rng(SEED + 7)
    values = np.array([value for _, value in lhv_vertices()])
    for _ in range(2000):
        weights = rng.dirichlet(np.ones(16))
        mixed = float(weights @ values)
        assert -1.0 - 1e-12 <= mixed <= 1e-12


def test_product_states_never_violate():
    rng = np.random.default_rng(SEED + 8)
    for _ in range(300):
        value = gamma(_random_product(rng), _random_settings(rng)).gamma
        assert -1.0 - 1e-10 <= value <= 1e-10


def test_product_correlations_factorize():
    rng = np.random.default_rng(SEED + 9)
    for _ in range(300):
        psi = _random_product(rng)
        n1 = _random_direction(rng)
        n2 = _random_direction(rng)
        q12 = joint_q(psi, n1, n2)
        assert abs(q12 - marginal_q(psi, 1, n1) * marginal_q(psi, 2, n2)) < 1e-12


def test_gamma_local_rotation_covariance():
    rng = np.random.default_rng(SEED + 10)
    for _ in range(100):
        psi = _random_state(rng)
        settings = _random_settings(rng)
        rot1 = _random_direction(rng)
        rot2 = _random_direction(rng)
        g = np.kron(rotation_operator(0.5, rot1), rotation_operator(0.5, rot2))
        rotated_psi = TwoAtomState(g @ psi.amps)
        rotated_settings = CHSettings(
            _rotate_direction(settings.a, rot1),
            _rotate_direction(settings.a_prime, rot1),
            _rotate_direction(settings.b, rot2),
            _rotate_direction(settings.b_prime, rot2),
        )
        before = gamma(psi, settings).gamma
        after = gamma(rotated_psi, rotated_settings).gamma
        assert abs(before - after) < 1e-10


# -------------------------------------------------------------- normal form


def test_canonical_form_round_trip():
    rng = np.random.default_rng(SEED + 11)
    for _ in range(200):
        psi = _random_state(rng)
        form = canonical_form(psi)
        assert 0.0 <= form.vartheta <= math.pi / 4 + 1e-12
        rebuilt = form.state().amps
        overlap = abs(np.vdot(rebuilt, psi.amps))
        assert abs(overlap - 1.0) < 1e-9


def test_canonical_form_on_normal_form_inputs():
    form = canonical_form(eta_state(0.3, 1.0))
    assert abs(form.vartheta - 0.3) < 1e-12
    assert abs(form.varphi - 1.0) < 1e-12


def test_canonical_form_displacement_reaches_normal_form():
    rng = np.random.default_rng(SEED + 12)
    for _ in range(100):
        psi = _random_state(rng)
        form = canonical_form(psi)
        undone = displace_two_atoms(psi, form.rotation1, form.rotation2)
        target = eta_state(form.vartheta, form.varphi)
        overlap = abs(np.vdot(undone.amps, target.amps))
        assert abs(overlap - 1.0) < 1e-9


# ------------------------------------------------------------------ optimizer


def test_optimize_singlet_minimum():
    result = optimize_gamma(u_state(math.pi), "minimize")
    assert abs(result.gamma + 1.125) < 1e-6
    # the reported settings must reproduce the reported value
    assert gamma(u_state(math.pi), result.settings).gamma == result.gamma


def test_optimize_u_minimum_for_other_phases():
    rng = np.random.default_rng(SEED + 13)
    for varphi in rng.uniform(0.0, 2.0 * math.pi, size=4):
        result = optimize_gamma(u_state(float(varphi)), "minimize")
        assert abs(result.gamma + 1.125) < 1e-6


def test_optimize_v_maximum():
    rng = np.random.default_rng(SEED + 14)
    for varphi in rng.uniform(0.0, 2.0 * math.pi, size=4):
        result = optimize_gamma(v_state(float(varphi)), "maximize")
        assert abs(result.gamma - 0.125) < 1e-6


def test_optimize_weakly_entangled_state_still_violates():
    result = optimize_gamma(eta_state(0.05, 2.0), "maximize")
    assert result.gamma > 1e-4


def test_optimize_product_state_stays_classical():
    rng = np.random.default_rng(SEED + 15)
    for _ in range(5):
        psi = _random_product(rng)
        low = optimize_gamma(psi, "minimize").gamma
        high = optimize_gamma(psi, "maximize").gamma
        assert low >= -1.0 - 1e-9
        assert high <= 1e-9
        assert low <= high


def test_optimize_extrema_invariant_under_local_rotations():
    rng = np.random.default_rng(SEED + 16)
    base = optimize_gamma(u_state(math.pi), "minimize").gamma
    for _ in range(5):
        rotated = displace_two_atoms(u_state(math.pi), _random_direction(rng), _random_direction(rng))
        value = optimize_gamma(rotated, "minimize").gamma
        assert abs(value - base) < 1e-4


def test_optimize_is_deterministic():
    a = optimize_gamma(v_state(0.8), "maximize")
    b = optimize_gamma(v_state(0.8), "maximize")
    assert a.gamma == b.gamma
    assert a.settings == b.settings


def test_optimize_violation_grows_with_entanglement():
    values = []
    for vartheta in (0.1, 0.3, 0.55, math.pi / 4):
        values.append(optimize_gamma(eta_state(vartheta, 0.9), "maximize").gamma)
    assert all(b > a - 1e-9 for a, b in zip(values, values[1:]))
    assert abs(values[-1] - 0.125) < 1e-5


def test_optimize_validation():
    psi = v_state(0.0)
    with pytest.raises(ValueError):
        optimize_gamma(psi, "extremize")


def _gamma_max(vartheta):
    s2 = math.sin(2.0 * vartheta)
    return s2 * s2 / (4.0 * (1.0 + s2))


def test_optimize_matches_closed_form_extremum():
    rng = np.random.default_rng(SEED + 18)
    for vartheta in (0.0, 1e-9, 0.05, 0.2, 0.5, math.pi / 4):
        expected = _gamma_max(vartheta)
        for varphi in (0.0, 1.3, 4.0):
            psi = eta_state(vartheta, varphi)
            copies = [psi] + [
                displace_two_atoms(psi, _random_direction(rng), _random_direction(rng)) for _ in range(3)
            ]
            for state in copies:
                assert abs(optimize_gamma(state, "maximize").gamma - expected) < 1e-12
                assert abs(optimize_gamma(state, "minimize").gamma - (-1.0 - expected)) < 1e-12


def _antipode(n):
    return make_direction(math.pi - n.theta, n.phi + math.pi)


_unit = st.floats(-1.0, 1.0)
_polar = st.floats(0.0, math.pi)
_azimuth = st.floats(0.0, 2.0 * math.pi)


@hypothesis_settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    amps=st.lists(_unit, min_size=8, max_size=8).filter(lambda x: np.linalg.norm(x) > 1e-3),
    angles=st.lists(st.tuples(_polar, _azimuth), min_size=4, max_size=4),
)
def test_atom_two_antipodes_map_gamma_to_minus_one_minus_gamma(amps, angles):
    # Q12(x, -y) = Q1(x) - Q12(x, y) and Q2(-y) = 1 - Q2(y) hold for any state
    psi = TwoAtomState(np.array(amps[:4]) + 1j * np.array(amps[4:]))
    a, a_prime, b, b_prime = (make_direction(t, p) for t, p in angles)
    value = gamma(psi, CHSettings(a, a_prime, b, b_prime)).gamma
    flipped = gamma(psi, CHSettings(a, a_prime, _antipode(b), _antipode(b_prime))).gamma
    assert abs(flipped - (-1.0 - value)) < 1e-12


_directions = st.tuples(_polar, _azimuth).map(lambda angles: make_direction(*angles))
_states = (
    st.lists(_unit, min_size=8, max_size=8)
    .filter(lambda x: np.linalg.norm(x) > 1e-3)
    .map(lambda x: TwoAtomState(np.array(x[:4]) + 1j * np.array(x[4:])))
)
_ch_settings = st.builds(CHSettings, _directions, _directions, _directions, _directions)


@hypothesis_settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(psi=_states, settings=_ch_settings, rot1=_directions, rot2=_directions)
def test_gamma_is_covariant_under_random_local_rotations(psi, settings, rot1, rot2):
    # <a|<b| g1^dagger g2^dagger |psi> = (g1|a>)^dagger (g2|b>)^dagger |psi>: displacing
    # the state is the same as rotating every analyzer of atom r by g_r
    displaced = displace_two_atoms(psi, rot1, rot2)
    rotated = CHSettings(
        _rotate_direction(settings.a, rot1),
        _rotate_direction(settings.a_prime, rot1),
        _rotate_direction(settings.b, rot2),
        _rotate_direction(settings.b_prime, rot2),
    )
    assert abs(gamma(displaced, settings).gamma - gamma(psi, rotated).gamma) < 1e-12


@hypothesis_settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(psi=_states, settings=_ch_settings)
def test_gamma_stays_inside_quantum_bounds_for_arbitrary_settings(psi, settings):
    assert TSIRELSON_LOW - 1e-12 <= gamma(psi, settings).gamma <= TSIRELSON_HIGH + 1e-12


@hypothesis_settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(n1=_directions, n2=_directions, settings=_ch_settings)
def test_coherent_products_stay_inside_the_classical_hull(n1, n2, settings):
    psi = TwoAtomState(np.kron(coherent_state(0.5, n1).amps, coherent_state(0.5, n2).amps))
    assert -1.0 - 1e-12 <= gamma(psi, settings).gamma <= 1e-12


def _restricted_grid_extrema(psi, points=601):
    """Min and max of Gamma over the restricted settings, by brute force.

    In the Schmidt frame a and b sit on the +/-z poles, a' = (t1, 0) and
    b' = (t2, p2), where the pair term sees p2 only through the phase
    varphi - p2, so p2 = varphi and varphi - pi cover both extremes.
    """
    form = canonical_form(psi)
    amp = displace_two_atoms(psi, form.rotation1, form.rotation2).amp_matrix
    varphi = np.angle(amp[1, 1] * np.conj(amp[0, 0]))

    def bras(thetas, phis):
        # rows <n| for the spin-1/2 coherent states |n> = (cos(t/2) e^{-ip/2}, sin(t/2) e^{ip/2})
        return np.stack([np.cos(0.5 * thetas) * np.exp(0.5j * phis), np.sin(0.5 * thetas) * np.exp(-0.5j * phis)], axis=-1)

    poles = bras(np.array([0.0, math.pi]), np.zeros(2))
    t = np.linspace(0.0, math.pi, points)
    low, high = math.inf, -math.inf
    for p2 in (varphi, varphi - math.pi):
        ap = bras(t, np.zeros(points))
        bp = bras(t, np.full(points, p2))
        q12_apbp = np.abs(ap @ amp @ bp.T) ** 2  # [i, k] = Q12(a'_i, b'_k)
        for a in poles:
            for b in poles:
                q12_ab = abs(a @ amp @ b) ** 2
                q12_apb = np.abs(ap @ amp @ b) ** 2
                q12_abp = np.abs(a @ amp @ bp.T) ** 2
                q1_a = np.sum(np.abs(a @ amp) ** 2)
                q2_b = np.sum(np.abs(amp @ b) ** 2)
                grid = q12_ab + q12_apb[:, None] + q12_abp[None, :] - q12_apbp - q1_a - q2_b
                low, high = min(low, float(grid.min())), max(high, float(grid.max()))
    return low, high


def test_optimize_is_never_beaten_by_a_restricted_grid():
    rng = np.random.default_rng(SEED + 19)
    states = [u_state(math.pi), u_state(1.3), v_state(0.7), eta_state(0.05, 2.0), eta_state(0.3, 0.9)]
    states += [_random_product(rng)] + [_random_state(rng) for _ in range(12)]
    for psi in states:
        low, high = _restricted_grid_extrema(psi)
        found_low = optimize_gamma(psi, "minimize").gamma
        found_high = optimize_gamma(psi, "maximize").gamma
        assert low >= found_low - 1e-12
        assert high <= found_high + 1e-12
        # and the grid gets close, so the comparison is not vacuous
        assert low - found_low < 1e-4
        assert found_high - high < 1e-4


def test_zero_reference_settings_point_up():
    s = CHSettings.zero_reference(make_direction(1.0, 2.0), make_direction(0.5, 0.3))
    assert s.a.theta == 0.0 and s.a.phi == 0.0
    assert s.b.theta == 0.0 and s.b.phi == 0.0
    assert s.a_prime == make_direction(1.0, 2.0)


def test_entanglement_angle_consistent_with_canonical_form():
    rng = np.random.default_rng(SEED + 17)
    for _ in range(50):
        psi = _random_state(rng)
        assert abs(entanglement_angle(psi) - canonical_form(psi).vartheta) < 1e-12


def test_v_state_is_orthogonal_to_the_singlet():
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2)
    for varphi in (0.0, 1.0, math.pi, 5.0):
        assert abs(np.vdot(singlet, v_state(varphi).amps)) < 1e-15


def test_doubly_excited_state_with_pole_settings_gives_zero():
    pole = make_direction(0.0, 0.0)
    result = gamma(TwoAtomState([1.0, 0.0, 0.0, 0.0]), CHSettings(pole, pole, pole, pole))
    # 1 + 1 + 1 - 1 - 1 - 1 with deterministic outcomes
    assert result.gamma == 0.0


def test_u_extremum_from_matched_displaced_phases():
    # u(0) with both reference analyzers at the pole and both displaced
    # analyzers at polar angle pi/3 with a shared azimuth sits at the minimum
    pole = make_direction(0.0, 0.0)
    for phi1 in (0.0, 0.7, 2.9, 5.5):
        tilted = make_direction(math.pi / 3, phi1)
        result = gamma(u_state(0.0), CHSettings(pole, tilted, pole, tilted))
        assert abs(result.gamma - (-1.125)) < 1e-12


def test_v_extremum_from_mirrored_displaced_phases():
    # v(0) wants the displaced azimuths to sum to pi
    pole = make_direction(0.0, 0.0)
    for phi1 in (0.0, 0.4, 1.8, 3.0):
        settings = CHSettings(
            pole,
            make_direction(math.pi / 3, phi1),
            pole,
            make_direction(math.pi / 3, math.pi - phi1),
        )
        result = gamma(v_state(0.0), settings)
        assert abs(result.gamma - 0.125) < 1e-12
