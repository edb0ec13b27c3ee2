"""Pulse-to-direction mapping and finite-shot Monte Carlo estimation."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from atombell import (
    CHSettings,
    Estimate,
    PulseSequence,
    ShotPlan,
    Tally,
    TwoAtomState,
    estimate_gamma,
    estimate_q,
    gamma,
    joint_q,
    make_direction,
    marginal_q,
    optimize_gamma,
    outcome_distribution,
    pulses_to_direction,
    simulate_shots,
    u_state,
    v_state,
)
from atombell.ramsey import _apply_efficiency, _splitmix64

SEED = 907


def _random_direction(rng):
    return make_direction(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi))


def _random_state(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return TwoAtomState(amps / np.linalg.norm(amps))


# --------------------------------------------------------------------- pulses


def test_pulses_to_direction_mapping():
    # detuning 2 rad/s for 0.35 s, clock pulse 50 rad/s for pi/150 s
    pulses = PulseSequence(omega0=12.0, omega=10.0, omega_perp=50.0, t_phi=0.35, t_theta=math.pi / 150.0)
    n = pulses_to_direction(pulses)
    assert abs(n.theta - 50.0 * math.pi / 150.0) < 1e-12
    assert abs(n.phi - 2.0 * 0.35) < 1e-12


def test_pulses_to_direction_wraps_like_raw_angles():
    # a full extra 2 pi of free evolution realizes the same analyzer
    base = pulses_to_direction(
        PulseSequence(omega0=5.0, omega=4.0, omega_perp=30.0, t_phi=0.4, t_theta=0.02)
    )
    wrapped = pulses_to_direction(
        PulseSequence(omega0=5.0, omega=4.0, omega_perp=30.0, t_phi=0.4 + 2.0 * math.pi, t_theta=0.02)
    )
    assert abs(base.theta - wrapped.theta) < 1e-12
    assert abs(base.phi - wrapped.phi) < 1e-12


def test_pulse_sequence_validation():
    with pytest.raises(ValueError):
        PulseSequence(omega0=0.0, omega=1.0, omega_perp=1.0, t_phi=0.1, t_theta=0.1)
    with pytest.raises(ValueError):
        PulseSequence(omega0=1.0, omega=1.0, omega_perp=1.0, t_phi=-0.1, t_theta=0.1)
    with pytest.raises(ValueError):
        PulseSequence(omega0=1.0, omega=math.nan, omega_perp=1.0, t_phi=0.1, t_theta=0.1)


def test_weak_drive_warning_threshold():
    strong = PulseSequence(omega0=100.0, omega=99.9, omega_perp=50.0, t_phi=0.1, t_theta=0.01)
    assert not strong.weak_drive_warning
    weak = PulseSequence(omega0=100.0, omega=90.0, omega_perp=50.0, t_phi=0.1, t_theta=0.01)
    assert weak.weak_drive_warning
    resonant = PulseSequence(omega0=100.0, omega=100.0, omega_perp=0.5, t_phi=0.1, t_theta=0.01)
    assert not resonant.weak_drive_warning


# -------------------------------------------------------------- distributions


def test_outcome_distribution_bell_state_at_poles():
    p = outcome_distribution(v_state(0.0), make_direction(0.0, 0.0), make_direction(0.0, 0.0))
    assert np.max(np.abs(p - np.array([0.5, 0.0, 0.0, 0.5]))) < 1e-15


def test_outcome_distribution_matches_q_values():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        psi = _random_state(rng)
        n1 = _random_direction(rng)
        n2 = _random_direction(rng)
        p = outcome_distribution(psi, n1, n2)
        assert abs(p.sum() - 1.0) < 1e-13
        assert abs(p[0] - joint_q(psi, n1, n2)) < 1e-13
        assert abs(p[0] + p[1] - marginal_q(psi, 1, n1)) < 1e-13
        assert abs(p[0] + p[2] - marginal_q(psi, 2, n2)) < 1e-13


# ------------------------------------------------------------------- sampling


def test_simulate_shots_is_reproducible():
    psi = u_state(math.pi)
    n1 = make_direction(0.7, 1.0)
    n2 = make_direction(2.0, 4.0)
    plan = ShotPlan(shots=5000, seed=123)
    t1 = simulate_shots(psi, n1, n2, plan)
    t2 = simulate_shots(psi, n1, n2, plan)
    assert t1 == t2
    assert t1.shots == 5000
    t3 = simulate_shots(psi, n1, n2, ShotPlan(shots=5000, seed=124))
    assert t1 != t3


def test_simulated_frequencies_track_distribution():
    rng = np.random.default_rng(SEED + 1)
    psi = _random_state(rng)
    n1 = _random_direction(rng)
    n2 = _random_direction(rng)
    p = outcome_distribution(psi, n1, n2)
    shots = 200_000
    tally = simulate_shots(psi, n1, n2, ShotPlan(shots=shots, seed=7))
    for count, prob in zip((tally.n_pp, tally.n_pm, tally.n_mp, tally.n_mm), p):
        sigma = math.sqrt(max(prob * (1.0 - prob), 1e-12) / shots)
        assert abs(count / shots - prob) < 5.0 * sigma + 1e-6


def test_shot_plan_validation():
    with pytest.raises(ValueError):
        ShotPlan(shots=0, seed=1)
    with pytest.raises(ValueError):
        ShotPlan(shots=1 << 63, seed=1)  # beyond numpy's C long
    assert ShotPlan(shots=(1 << 63) - 1, seed=1).shots == (1 << 63) - 1
    with pytest.raises(ValueError):
        ShotPlan(shots=10, seed=-1)
    with pytest.raises(ValueError):
        ShotPlan(shots=10, seed=1 << 64)
    with pytest.raises(ValueError):
        ShotPlan(shots=10, seed=1, efficiency=0.0)
    with pytest.raises(ValueError):
        ShotPlan(shots=10, seed=1, efficiency=1.2)
    # int() would truncate or overflow on these; they must be rejected, not rounded
    for shots, seed in ((1.5, 0), (math.inf, 0), (math.nan, 0), (10, 0.5), (10, math.inf), (10, math.nan)):
        with pytest.raises(ValueError):
            ShotPlan(shots=shots, seed=seed)
    plan = ShotPlan(shots=np.int64(10), seed=np.uint64((1 << 64) - 1))
    assert (plan.shots, plan.seed) == (10, (1 << 64) - 1)
    assert type(plan.shots) is int and type(plan.seed) is int


def test_tally_validation_and_frequencies():
    tally = Tally(1, 2, 3, 4)
    assert tally.shots == 10
    assert np.max(np.abs(tally.frequencies() - np.array([0.1, 0.2, 0.3, 0.4]))) < 1e-15
    with pytest.raises(ValueError):
        Tally(-1, 0, 0, 0)


# ----------------------------------------------------------------- estimators


def test_estimate_q_arithmetic():
    tally = Tally(n_pp=120, n_pm=380, n_mp=250, n_mm=250)
    q1, q2, q12 = estimate_q(tally)
    assert abs(q1.value - 0.50) < 1e-15
    assert abs(q2.value - 0.37) < 1e-15
    assert abs(q12.value - 0.12) < 1e-15
    for est in (q1, q2, q12):
        assert isinstance(est, Estimate)
        assert est.shots == 1000
        assert abs(est.std_error - math.sqrt(est.value * (1.0 - est.value) / 1000)) < 1e-15
    assert q12.value <= min(q1.value, q2.value)


def test_estimate_q_rejects_empty_tally():
    with pytest.raises(ValueError):
        estimate_q(Tally(0, 0, 0, 0))


def test_empty_tally_has_no_frequencies():
    with pytest.raises(ValueError, match="^cannot estimate from an empty tally$"):
        Tally(0, 0, 0, 0).frequencies()
    with pytest.raises(ValueError, match="^cannot estimate from an empty tally$"):
        estimate_q(Tally(0, 0, 0, 0))


def test_joint_estimate_bounded_by_marginals():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(100):
        psi = _random_state(rng)
        tally = simulate_shots(
            psi, _random_direction(rng), _random_direction(rng), ShotPlan(shots=1000, seed=int(rng.integers(1 << 32)))
        )
        q1, q2, q12 = estimate_q(tally)
        assert q12.value <= min(q1.value, q2.value) + 1e-15


def test_estimate_gamma_deterministic_product_state():
    # both atoms pinned in the upper state, all analyzers at the poles: every
    # run returns (++) with certainty, the estimate is exactly zero
    psi = TwoAtomState([1.0, 0.0, 0.0, 0.0])
    zhat = make_direction(0.0, 0.0)
    settings = CHSettings(zhat, zhat, zhat, zhat)
    est, tallies = estimate_gamma(psi, settings, ShotPlan(shots=1000, seed=5))
    assert est.value == 0.0
    assert est.std_error == 0.0
    assert set(tallies) == {"ab", "apb", "abp", "apbp"}
    for tally in tallies.values():
        assert tally.n_pp == 1000


def test_estimate_gamma_is_reproducible_with_independent_runs():
    psi = v_state(0.0)
    n = make_direction(math.pi / 3, 0.0)
    settings = CHSettings(n, n, n, n)  # identical pairs, so only seeds differ
    for seed in (11, (1 << 64) - 1):
        plan = ShotPlan(shots=20_000, seed=seed)
        est1, tallies1 = estimate_gamma(psi, settings, plan)
        est2, tallies2 = estimate_gamma(psi, settings, plan)
        assert est1 == est2
        assert tallies1 == tallies2
        # the four runs sample the same distribution but must not share draws
        assert len({tallies1[k] for k in tallies1}) > 1


def test_sub_seeds_follow_published_splitmix64():
    # first output of splitmix64 from state 0, independent of NumPy's version
    assert _splitmix64(0) == 0xE220A8397B1DCDAF
    # at seed 2**64 - 1 the k = 1 sub-seed wraps to splitmix64(0)
    psi = v_state(0.0)
    a, b = make_direction(0.4, 1.0), make_direction(2.0, 3.0)
    _, tallies = estimate_gamma(psi, CHSettings(a, a, b, b), ShotPlan(shots=1000, seed=(1 << 64) - 1))
    assert tallies["ab"] == simulate_shots(psi, a, b, ShotPlan(shots=1000, seed=0xE220A8397B1DCDAF))


def test_estimate_gamma_runs_each_setting_pair_under_its_key():
    psi = _random_state(np.random.default_rng(SEED + 5))
    a, a_prime, b, b_prime = (make_direction(t, p) for t, p in ((0.4, 1.0), (1.2, 2.0), (2.0, 3.0), (2.7, 5.0)))
    plan = ShotPlan(shots=1000, seed=123)
    _, tallies = estimate_gamma(psi, CHSettings(a, a_prime, b, b_prime), plan)
    assert list(tallies) == ["ab", "apb", "abp", "apbp"]
    for k, (key, n1, n2) in enumerate(
        (("ab", a, b), ("apb", a_prime, b), ("abp", a, b_prime), ("apbp", a_prime, b_prime)), start=1
    ):
        assert tallies[key] == simulate_shots(psi, n1, n2, ShotPlan(shots=1000, seed=_splitmix64(123 + k)))


def test_estimate_gamma_hits_singlet_extremum():
    psi = u_state(math.pi)
    settings = optimize_gamma(psi, "minimize").settings
    exact = gamma(psi, settings).gamma
    assert abs(exact + 1.125) < 1e-6
    est, _ = estimate_gamma(psi, settings, ShotPlan(shots=1_000_000, seed=42))
    assert est.std_error < 3e-3
    assert abs(est.value - exact) < 5.0 * est.std_error


def test_estimate_gamma_error_shrinks_with_shots():
    psi = u_state(math.pi)
    settings = optimize_gamma(psi, "minimize").settings
    small, _ = estimate_gamma(psi, settings, ShotPlan(shots=10_000, seed=3))
    large, _ = estimate_gamma(psi, settings, ShotPlan(shots=1_000_000, seed=3))
    assert large.std_error < small.std_error


def test_detection_efficiency_scales_q_estimates():
    rng = np.random.default_rng(SEED + 3)
    psi = v_state(0.0)
    n1 = make_direction(1.1, 0.4)
    n2 = make_direction(2.2, 5.1)
    e = 0.8
    shots = 500_000
    tally = simulate_shots(psi, n1, n2, ShotPlan(shots=shots, seed=99, efficiency=e))
    q1, q2, q12 = estimate_q(tally)
    for est, target in (
        (q1, e * marginal_q(psi, 1, n1)),
        (q2, e * marginal_q(psi, 2, n2)),
        (q12, e * e * joint_q(psi, n1, n2)),
    ):
        sigma = math.sqrt(target * (1.0 - target) / shots)
        assert abs(est.value - target) < 5.0 * sigma


def test_full_efficiency_matches_plain_distribution():
    psi = u_state(0.0)
    n1 = make_direction(0.9, 0.1)
    n2 = make_direction(1.7, 3.0)
    with_e = simulate_shots(psi, n1, n2, ShotPlan(shots=10_000, seed=17, efficiency=1.0))
    without = simulate_shots(psi, n1, n2, ShotPlan(shots=10_000, seed=17))
    assert with_e == without


def test_degraded_efficiency_weakens_violation():
    psi = u_state(math.pi)
    settings = optimize_gamma(psi, "minimize").settings
    ideal, _ = estimate_gamma(psi, settings, ShotPlan(shots=1_000_000, seed=21))
    lossy, _ = estimate_gamma(psi, settings, ShotPlan(shots=1_000_000, seed=21, efficiency=0.7))
    assert ideal.value < -1.0 - 0.05  # clear violation at unit efficiency
    assert lossy.value > ideal.value + 0.05  # losses pull the estimate classical-ward


def test_q12_estimate_tracks_exact_joint_q_at_the_optimum():
    psi = u_state(math.pi)
    settings = optimize_gamma(psi, "minimize").settings
    exact = joint_q(psi, settings.a_prime, settings.b_prime)
    tally = simulate_shots(
        psi, settings.a_prime, settings.b_prime, ShotPlan(shots=1_000_000, seed=SEED)
    )
    _, _, q12 = estimate_q(tally)
    assert q12.std_error > 0.0
    assert abs(q12.value - exact) < 5 * q12.std_error


def test_v_state_violation_is_significant_at_ten_thousand_shots():
    psi = v_state(0.0)
    settings = optimize_gamma(psi, "maximize").settings
    plan_shots = 10_000
    significant = 0
    for k in range(100):
        est, _ = estimate_gamma(psi, settings, ShotPlan(shots=plan_shots, seed=SEED + k))
        if est.value > 3 * est.std_error:
            significant += 1
    assert significant >= 95


_directions = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2.0 * math.pi)).map(
    lambda angles: make_direction(*angles)
)
_states = (
    st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)
    .filter(lambda x: np.linalg.norm(x) > 1e-3)
    .map(lambda x: TwoAtomState(np.array(x[:4]) + 1j * np.array(x[4:])))
)


@hypothesis_settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    psi=_states,
    settings=st.builds(CHSettings, _directions, _directions, _directions, _directions),
    e=st.floats(0.0, 1.0, exclude_min=True),
)
def test_gamma_at_efficiency_matches_demoted_outcome_distributions(psi, settings, e):
    # Gamma_e = e^2 S - e M is Gamma of the four outcome distributions after
    # each "+" is demoted with probability 1 - e, the law simulate_shots draws from
    s = settings
    p = {
        key: _apply_efficiency(outcome_distribution(psi, n1, n2), e)
        for key, n1, n2 in (("ab", s.a, s.b), ("apb", s.a_prime, s.b), ("abp", s.a, s.b_prime), ("apbp", s.a_prime, s.b_prime))
    }
    q1_a = p["ab"][0] + p["ab"][1]
    q2_b = p["ab"][0] + p["ab"][2]
    demoted = p["ab"][0] + p["apb"][0] + p["abp"][0] - p["apbp"][0] - q1_a - q2_b
    result = gamma(psi, settings)
    assert abs(result.at_efficiency(e) - demoted) < 1e-12
    assert result.at_efficiency(1.0) == result.gamma
