"""Clauser-Horne analysis for a pair of two-level atoms.

The object of interest is the six-term combination

    Gamma = Q12(a, b) + Q12(a', b) + Q12(a, b') - Q12(a', b')
            - Q1(a) - Q2(b)

built from joint and single upper-level probabilities of the displaced pair.
Every local hidden-variable model keeps Gamma inside [-1, 0]; suitable
analyzer directions push any entangled pure state outside the bound.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .su2 import (
    BlochDirection,
    SchmidtDecomposition,
    TwoAtomState,
    _spin_half_ket,
    joint_q,
    make_direction,
    marginal_q,
    schmidt_decompose,
    spinor_direction,
)

__all__ = [
    "CHSettings",
    "GammaResult",
    "u_state",
    "v_state",
    "eta_state",
    "family_state",
    "gamma",
    "analytic_gamma_u",
    "analytic_gamma_v",
    "lhv_vertices",
    "canonical_form",
    "optimize_gamma",
]

_SQRT_HALF = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class CHSettings:
    """Four analyzer directions: (a, a') for atom 1 and (b, b') for atom 2."""

    a: BlochDirection
    a_prime: BlochDirection
    b: BlochDirection
    b_prime: BlochDirection

    @classmethod
    def zero_reference(cls, a_prime: BlochDirection, b_prime: BlochDirection) -> "CHSettings":
        """Settings whose first analyzer on each atom is the undisplaced measurement (+z)."""
        zero = make_direction(0.0, 0.0)
        return cls(zero, a_prime, zero, b_prime)


@dataclass(frozen=True)
class GammaResult:
    """Value of the combination together with the settings and its six terms."""

    gamma: float
    settings: CHSettings
    terms: dict


def u_state(varphi: float) -> TwoAtomState:
    """One-excitation Bell family (|+-> + e^{i varphi}|-+>) / sqrt(2).

    varphi = pi gives the singlet, varphi = 0 the symmetric triplet component.
    """
    return TwoAtomState(np.array([0.0, _SQRT_HALF, _SQRT_HALF * cmath.exp(1j * varphi), 0.0]))


def v_state(varphi: float) -> TwoAtomState:
    """Even Bell family (|++> + e^{i varphi}|-->) / sqrt(2)."""
    return TwoAtomState(np.array([_SQRT_HALF, 0.0, 0.0, _SQRT_HALF * cmath.exp(1j * varphi)]))


def eta_state(vartheta: float, varphi: float) -> TwoAtomState:
    """Schmidt normal form cos(vartheta)|++> + sin(vartheta) e^{i varphi}|-->.

    Entangled iff vartheta is not a multiple of pi/2; vartheta = pi/4
    reproduces the v family.
    """
    return TwoAtomState(
        np.array([math.cos(vartheta), 0.0, 0.0, math.sin(vartheta) * cmath.exp(1j * varphi)])
    )


def family_state(kind: str, *, varphi: float = 0.0, vartheta: float | None = None) -> TwoAtomState:
    """Named entangled family: kind in {"u", "v", "eta"} ("eta" needs vartheta)."""
    if kind == "u":
        return u_state(varphi)
    if kind == "v":
        return v_state(varphi)
    if kind == "eta":
        if vartheta is None:
            raise ValueError("the eta family needs a vartheta parameter")
        return eta_state(vartheta, varphi)
    raise ValueError(f"unknown family {kind!r}; expected 'u', 'v' or 'eta'")


def gamma(psi: TwoAtomState, settings: CHSettings) -> GammaResult:
    """Clauser-Horne combination of the displaced-pair excitation probabilities."""
    terms = {
        "q12_ab": joint_q(psi, settings.a, settings.b),
        "q12_apb": joint_q(psi, settings.a_prime, settings.b),
        "q12_abp": joint_q(psi, settings.a, settings.b_prime),
        "q12_apbp": joint_q(psi, settings.a_prime, settings.b_prime),
        "q1_a": marginal_q(psi, 1, settings.a),
        "q2_b": marginal_q(psi, 2, settings.b),
    }
    value = (
        terms["q12_ab"]
        + terms["q12_apb"]
        + terms["q12_abp"]
        - terms["q12_apbp"]
        - terms["q1_a"]
        - terms["q2_b"]
    )
    return GammaResult(value, settings, terms)


def analytic_gamma_u(theta: float, phi: float, phi_prime: float, varphi: float) -> float:
    """Closed-form Gamma for u(varphi) at zero-reference settings with equal polar angles.

    Settings: a = b = +z, a' = (theta, phi) on atom 1, b' = (theta, phi') on
    atom 2.  Minimum -9/8 at theta = pi/3, phi - phi' = varphi; never positive.
    """
    half = 0.5 * (phi - phi_prime - varphi)
    return math.sin(0.5 * theta) ** 2 - 0.5 * math.sin(theta) ** 2 * math.cos(half) ** 2 - 1.0


def analytic_gamma_v(theta: float, phi: float, phi_prime: float, varphi: float) -> float:
    """Closed-form Gamma for v(varphi), same settings layout as analytic_gamma_u.

    Maximum +1/8 at theta = pi/3, phi + phi' - varphi = pi; never below -1.
    """
    half = 0.5 * (phi + phi_prime - varphi)
    return 0.5 * (
        math.cos(theta) - math.cos(theta) ** 2 - math.sin(theta) ** 2 * math.cos(half) ** 2
    )


def lhv_vertices() -> list[tuple[tuple[int, int, int, int], float]]:
    """All 16 deterministic local strategies and their Gamma values.

    A strategy assigns a certain outcome q in {0, 1} to each analyzer;
    correlations factorize, so Gamma is linear in the strategy bits.  The
    values span exactly [-1, 0], which is the classical hull.
    """
    out = []
    for q1a, q1ap, q2b, q2bp in itertools.product((0, 1), repeat=4):
        value = q1a * q2b + q1ap * q2b + q1a * q2bp - q1ap * q2bp - q1a - q2b
        out.append(((q1a, q1ap, q2b, q2bp), float(value)))
    return out


def canonical_form(psi: TwoAtomState) -> SchmidtDecomposition:
    """Express psi as local rotations acting on an eta normal form.

    psi = g1(rotation1) g2(rotation2) eta(vartheta, varphi) up to a global
    phase; this is the SchmidtDecomposition that schmidt_decompose returns.
    """
    return schmidt_decompose(psi)


def _rotated_direction(g: np.ndarray, theta: float, phi: float) -> BlochDirection:
    # image of the analyzer direction (theta, phi) under the local rotation g
    ket = g @ np.array(_spin_half_ket(float(theta), float(phi)))
    return spinor_direction(ket)


def optimize_gamma(psi: TwoAtomState, objective: str = "minimize") -> GammaResult:
    """Extremal Gamma of a pure two-atom state, in closed form.

    In the Schmidt frame the state is eta(vartheta, varphi) =
    c|++> + s e^{i varphi}|--> with c = cos(vartheta), s = sin(vartheta).
    The reference analyzers (a, b) sit on the poles of that frame -- the
    undisplaced population measurements of the protocol, transported to the
    state's own axes -- and the displaced analyzers (a', b') are free.  The
    maximum takes a = b = +z, a' = (theta*, 0) and b' = (theta*, varphi - pi),
    where cos^2(theta*/2) = (1 + cs) / (1 + 2cs); it is

        Gamma_max = sin^2(2 vartheta) / (4 (1 + sin(2 vartheta))),

    +1/8 for maximally entangled states and 0 for products.  The minimum
    replaces atom 2's analyzers by their antipodes.  Since
    Q12(x, -y) = Q1(x) - Q12(x, y) and Q2(-y) = 1 - Q2(y), that maps Gamma to
    -1 - Gamma, so Gamma_min = -1 - Gamma_max (down to -9/8).  The settings
    are rotated back to the input's frame, which makes the result covariant
    under local rotations, and the returned value is `gamma` at them.

    Note the extremum is deliberately *not* taken over all four directions:
    letting the reference analyzers leave the poles recovers the larger
    CHSH-type extrema (-(1+sqrt(2))/2 and (sqrt(2)-1)/2) instead of the
    population-spectroscopy extrema -9/8 and 1/8 that this combination is
    built to probe.
    """
    if objective not in ("minimize", "maximize"):
        raise ValueError(f"objective must be 'minimize' or 'maximize', got {objective!r}")
    form = canonical_form(psi)
    cs = math.cos(form.vartheta) * math.sin(form.vartheta)
    theta = 2.0 * math.atan(math.sqrt(cs / (1.0 + cs)))  # tan^2(theta*/2) = cs / (1 + cs)
    if objective == "maximize":
        b, b_prime = (0.0, 0.0), (theta, form.varphi - math.pi)
    else:
        b, b_prime = (math.pi, 0.0), (math.pi - theta, form.varphi)
    g1, g2 = form.basis1, form.basis2
    settings = CHSettings(
        a=_rotated_direction(g1, 0.0, 0.0),
        a_prime=_rotated_direction(g1, theta, 0.0),
        b=_rotated_direction(g2, *b),
        b_prime=_rotated_direction(g2, *b_prime),
    )
    return gamma(psi, settings)
