"""Ramsey pulse bookkeeping and finite-shot simulation of the Bell experiment.

A measurement setting (theta, phi) is realized on each atom by free evolution
at detuning omega0 - omega for a time t_phi (accumulating phi) followed by a
resonant clock pulse of Rabi rate omega_perp for a time t_theta (accumulating
theta); reading out the upper-level populations of the displaced pair then
samples the joint Q function.  Shot noise is modeled by multinomial draws
over the four two-atom outcomes, with an optional detection-efficiency knob.

Reproducibility contract: tallies are drawn from NumPy's default PCG64
generator seeded as ``np.random.default_rng(seed)``, and the four runs of a
Gamma estimate use sub-seeds ``splitmix64(seed + k)`` for k = 1..4 with the
standard splitmix64 constants, so results are bit-stable for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import CHSettings
from .su2 import BlochDirection, TwoAtomState, displace_two_atoms, make_direction

__all__ = [
    "PulseSequence",
    "ShotPlan",
    "Tally",
    "Estimate",
    "pulses_to_direction",
    "outcome_distribution",
    "simulate_shots",
    "estimate_q",
    "estimate_gamma",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(value: int) -> int:
    # standard splitmix64 step; documented so tallies stay reproducible anywhere
    z = (value + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class PulseSequence:
    """Free evolution plus clock pulse realizing one analyzer direction.

    omega0 is the atomic transition frequency (> 0), omega the drive
    frequency, omega_perp the Rabi rate of the clock pulse; t_phi and
    t_theta are the two durations (>= 0).  All rates in rad/s, times in s.
    """

    omega0: float
    omega: float
    omega_perp: float
    t_phi: float
    t_theta: float

    def __post_init__(self):
        values = (self.omega0, self.omega, self.omega_perp, self.t_phi, self.t_theta)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("pulse parameters must be finite")
        if self.omega0 <= 0.0:
            raise ValueError("transition frequency omega0 must be positive")
        if self.t_phi < 0.0 or self.t_theta < 0.0:
            raise ValueError("pulse durations must be non-negative")

    @property
    def weak_drive_warning(self) -> bool:
        """True when the clock pulse does not dominate the detuning (|omega_perp| < 10 |omega0 - omega|).

        The polar rotation is only a clean Jy rotation in the strong-drive
        limit; this flag is advisory and nothing downstream refuses to run.
        """
        return abs(self.omega_perp) < 10.0 * abs(self.omega0 - self.omega)


def pulses_to_direction(pulses: PulseSequence) -> BlochDirection:
    """Analyzer direction realized by a pulse pair: theta = omega_perp * t_theta, phi = (omega0 - omega) * t_phi."""
    return make_direction(pulses.omega_perp * pulses.t_theta, (pulses.omega0 - pulses.omega) * pulses.t_phi)


def _whole(value, name: str) -> int:
    # int() alone would truncate 1.5 to 1 and overflow on inf
    try:
        whole = int(value)
    except (OverflowError, TypeError, ValueError):
        whole = None
    if whole is None or whole != value:
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return whole


@dataclass(frozen=True)
class ShotPlan:
    """Number of shots, RNG seed and detection efficiency for one run."""

    shots: int
    seed: int
    efficiency: float = 1.0

    def __post_init__(self):
        shots = _whole(self.shots, "shots")
        if not 1 <= shots < (1 << 63):
            raise ValueError("shots must lie in [1, 2**63)")
        seed = _whole(self.seed, "seed")
        if not 0 <= seed < (1 << 64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in (0, 1]")
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "efficiency", float(self.efficiency))


@dataclass(frozen=True)
class Tally:
    """Counts of the four two-atom outcomes (++, +-, -+, --) over a run."""

    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int

    def __post_init__(self):
        for name in ("n_pp", "n_pm", "n_mp", "n_mm"):
            value = int(getattr(self, name))
            if value < 0:
                raise ValueError("counts must be non-negative")
            object.__setattr__(self, name, value)

    @property
    def shots(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def frequencies(self) -> np.ndarray:
        return np.array([self.n_pp, self.n_pm, self.n_mp, self.n_mm], dtype=float) / self.shots


@dataclass(frozen=True)
class Estimate:
    """Point estimate with its standard error and the shot count behind it."""

    value: float
    std_error: float
    shots: int


def outcome_distribution(psi: TwoAtomState, n1: BlochDirection, n2: BlochDirection) -> np.ndarray:
    """Probabilities of (++, +-, -+, --) after displacing by the two settings.

    The first entry equals joint_q(psi, n1, n2); the four entries sum to one.
    """
    return np.abs(displace_two_atoms(psi, n1, n2).amps) ** 2


def _apply_efficiency(probs: np.ndarray, efficiency: float) -> np.ndarray:
    # each atom's "+" outcome is independently demoted to "-" with
    # probability 1 - efficiency (a missed detection); applying the map to
    # the distribution is equivalent in law to demoting shot by shot; at
    # efficiency 1 every product below is exact and the map is the identity
    e = efficiency
    miss = 1.0 - e
    pp, pm, mp, mm = probs
    return np.array(
        [
            e * e * pp,
            e * (pm + miss * pp),
            e * (mp + miss * pp),
            mm + miss * (pm + mp) + miss * miss * pp,
        ]
    )


def simulate_shots(
    psi: TwoAtomState, n1: BlochDirection, n2: BlochDirection, plan: ShotPlan
) -> Tally:
    """Draw plan.shots two-atom readouts at the given settings."""
    probs = _apply_efficiency(outcome_distribution(psi, n1, n2), plan.efficiency)
    probs = np.clip(probs, 0.0, None)
    rng = np.random.default_rng(plan.seed)
    counts = rng.multinomial(plan.shots, probs / probs.sum())
    return Tally(*(int(c) for c in counts))


def _proportion(value: float, shots: int) -> Estimate:
    return Estimate(value, math.sqrt(value * (1.0 - value) / shots), shots)


def estimate_q(tally: Tally) -> tuple[Estimate, Estimate, Estimate]:
    """Estimators (Q1_hat, Q2_hat, Q12_hat) from one run's counts.

    Q1_hat counts atom-1 upper-level shots, Q2_hat atom-2, Q12_hat joint;
    binomial standard errors.  Note Q12_hat <= min(Q1_hat, Q2_hat) holds by
    construction.
    """
    shots = tally.shots
    if shots == 0:
        raise ValueError("cannot estimate from an empty tally")
    q1 = (tally.n_pp + tally.n_pm) / shots
    q2 = (tally.n_pp + tally.n_mp) / shots
    q12 = tally.n_pp / shots
    return (_proportion(q1, shots), _proportion(q2, shots), _proportion(q12, shots))


def estimate_gamma(
    psi: TwoAtomState, settings: CHSettings, plan: ShotPlan
) -> tuple[Estimate, dict[str, Tally]]:
    """Estimate Gamma from four independent runs, one per setting pair.

    Runs at (a, b), (a', b), (a, b'), (a', b') with plan.shots each; the
    marginals Q1(a), Q2(b) come from the (a, b) run, whose three correlated
    contributions are propagated with the multinomial covariance (they
    collapse to the -- frequency, so the variance term is f_mm (1 - f_mm)/L);
    the other runs add independent binomial variances.
    """
    pairs = settings.pairs()
    tallies: dict[str, Tally] = {}
    for k, (key, n1, n2, _) in enumerate(pairs, start=1):
        sub = ShotPlan(plan.shots, _splitmix64((plan.seed + k) & _MASK64), plan.efficiency)
        tallies[key] = simulate_shots(psi, n1, n2, sub)

    shots = plan.shots
    f_ab = tallies["ab"].frequencies()
    # run 1 enters as Q12(a,b) - Q1(a) - Q2(b) = c . f with c = (-1, -1, -1, 0)
    coeff = np.array([-1.0, -1.0, -1.0, 0.0])
    run1 = float(coeff @ f_ab)
    var = float(coeff**2 @ f_ab - run1**2) / shots
    value = run1
    for key, _, _, sign in pairs[1:]:
        f = tallies[key].n_pp / shots
        value += sign * f
        var += f * (1.0 - f) / shots
    return Estimate(value, math.sqrt(max(var, 0.0)), shots), tallies
