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
    TWO_PI,
    BlochDirection,
    TwoAtomState,
    _q_tables,
    _spin_half_ket,
    displace_two_atoms,
    joint_q,
    make_direction,
    marginal_q,
    rotation_operator,
    schmidt_decompose,
    spinor_direction,
)

__all__ = [
    "CHSettings",
    "GammaResult",
    "CanonicalForm",
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
    "DEFAULT_BUDGET",
]

_SQRT_HALF = 1.0 / math.sqrt(2.0)

DEFAULT_BUDGET = 150_000
_MIN_BUDGET = 1000


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


@dataclass(frozen=True)
class CanonicalForm:
    """Local-rotation normal form: psi = g1(rotation1) g2(rotation2) eta(vartheta, varphi)."""

    vartheta: float
    varphi: float
    rotation1: BlochDirection
    rotation2: BlochDirection

    def state(self) -> TwoAtomState:
        """Rebuild the original state (up to a global phase)."""
        base = eta_state(self.vartheta, self.varphi)
        g = np.kron(rotation_operator(0.5, self.rotation1), rotation_operator(0.5, self.rotation2))
        return TwoAtomState(g @ base.amps)


def canonical_form(psi: TwoAtomState) -> CanonicalForm:
    """Express psi as local rotations acting on an eta normal form."""
    dec = schmidt_decompose(psi)
    return CanonicalForm(
        dec.vartheta,
        dec.varphi,
        spinor_direction(dec.basis1[:, 0]),
        spinor_direction(dec.basis2[:, 0]),
    )


def _gamma_from_angles(aflat, x) -> float:
    # scalar fast path used by the optimizer; accepts raw (non-canonical) angles
    a00, a01, a10, a11 = aflat
    ka = _spin_half_ket(x[0], x[1])
    kap = _spin_half_ket(x[2], x[3])
    kb = _spin_half_ket(x[4], x[5])
    kbp = _spin_half_ket(x[6], x[7])
    f0 = ka[0].conjugate()
    f1 = ka[1].conjugate()
    fp0 = kap[0].conjugate()
    fp1 = kap[1].conjugate()
    g0 = kb[0].conjugate()
    g1 = kb[1].conjugate()
    gp0 = kbp[0].conjugate()
    gp1 = kbp[1].conjugate()
    r0 = a00 * g0 + a01 * g1  # rows of A contracted with <b|
    r1 = a10 * g0 + a11 * g1
    rp0 = a00 * gp0 + a01 * gp1
    rp1 = a10 * gp0 + a11 * gp1
    t0 = f0 * a00 + f1 * a10  # columns of A contracted with <a|
    t1 = f0 * a01 + f1 * a11
    q12_ab = abs(f0 * r0 + f1 * r1) ** 2
    q12_apb = abs(fp0 * r0 + fp1 * r1) ** 2
    q12_abp = abs(f0 * rp0 + f1 * rp1) ** 2
    q12_apbp = abs(fp0 * rp0 + fp1 * rp1) ** 2
    q1_a = abs(t0) ** 2 + abs(t1) ** 2
    q2_b = abs(r0) ** 2 + abs(r1) ** 2
    return q12_ab + q12_apb + q12_abp - q12_apbp - q1_a - q2_b


def _rotated_direction(g: np.ndarray, theta: float, phi: float) -> BlochDirection:
    # image of the analyzer direction (theta, phi) under the local rotation g
    ket = g @ np.array(_spin_half_ket(float(theta), float(phi)))
    return spinor_direction(ket)


def _fit_resolution(grid_points: int, budget: int) -> int:
    r = int(grid_points)
    if r < 3:
        raise ValueError("grid_points must be at least 3")
    while r > 3 and 4 * ((r + 1) * r) ** 2 > 0.8 * budget:
        r -= 1
    return r


def optimize_gamma(
    psi: TwoAtomState,
    objective: str = "minimize",
    budget: int = DEFAULT_BUDGET,
    grid_points: int = 12,
) -> GammaResult:
    """Search analyzer settings for the extremal Gamma of a pure two-atom state.

    Fully deterministic two-stage search.  The state is first brought to its
    Schmidt normal form; the reference analyzers (a, b) range over the +/-z
    poles of that frame -- the undisplaced population measurements of the
    protocol, transported to the state's own axes -- while the displaced
    analyzers (a', b') vary continuously.  A coarse direction grid
    (grid_points azimuths, grid_points polar angles plus the analytic pi/3
    extremal family) seeds the displaced analyzers in each pole combination,
    and the best grid points are refined by Nelder-Mead over the four
    displaced-analyzer angles.  Working in the canonical frame makes the
    result covariant under local rotations of the input.  `budget` caps the
    total number of combination evaluations and must be at least 1000; the
    grid is shrunk automatically if it would not fit.

    Note the search is deliberately *not* free over all four directions at
    once: letting the reference analyzers wander recovers the larger
    CHSH-type extrema (-(1+sqrt(2))/2 and (sqrt(2)-1)/2) instead of the
    population-spectroscopy extrema -9/8 and 1/8 that this combination is
    built to probe.
    """
    # imported here, its only use, so importing the package does not load scipy
    from scipy.optimize import minimize

    if objective not in ("minimize", "maximize"):
        raise ValueError(f"objective must be 'minimize' or 'maximize', got {objective!r}")
    budget = int(budget)
    if budget < _MIN_BUDGET:
        raise ValueError(f"budget too small: need at least {_MIN_BUDGET} evaluations, got {budget}")
    sign = 1.0 if objective == "minimize" else -1.0

    form = canonical_form(psi)
    psi_c = displace_two_atoms(psi, form.rotation1, form.rotation2)
    a = psi_c.amp_matrix
    aflat = (complex(a[0, 0]), complex(a[0, 1]), complex(a[1, 0]), complex(a[1, 1]))

    r = _fit_resolution(grid_points, budget)
    thetas = np.append(np.linspace(0.0, math.pi, r), math.pi / 3.0)
    phis = np.linspace(0.0, TWO_PI, r, endpoint=False)
    th = np.repeat(thetas, r)
    ph = np.tile(phis, thetas.size)
    q12, q1, q2 = _q_tables(a, th, ph)

    iz = 0  # first grid direction is theta = 0 (the +z axis)
    imz = (r - 1) * r  # start of the theta = pi block (the -z axis)
    seeds = []
    for ia in (iz, imz):
        for ib in (iz, imz):
            grid = (
                q12[ia, ib]
                - q1[ia]
                - q2[ib]
                + q12[:, ib][:, None]
                + q12[ia, :][None, :]
                - q12
            )
            flat = sign * grid
            k = int(np.argmin(flat))
            i, jdx = divmod(k, grid.shape[1])
            poles = (th[ia], ph[ia], th[ib], ph[ib])
            x0 = [th[i], ph[i], th[jdx], ph[jdx]]
            seeds.append((float(flat[i, jdx]), poles, x0))
    used = 4 * th.size**2
    seeds.sort(key=lambda entry: entry[0])

    best_val, best_poles, best_x = seeds[0]
    best_x = np.asarray(best_x, dtype=float)
    remaining = budget - used
    if remaining > 200:
        starts = seeds[:3]
        maxfev = min(4000, remaining // len(starts))
        for _, poles, x0 in starts:
            ta, pa, tb, pb = poles
            fun = lambda x: sign * _gamma_from_angles(
                aflat, (ta, pa, x[0], x[1], tb, pb, x[2], x[3])
            )
            x0 = np.asarray(x0, dtype=float)
            simplex = np.vstack([x0] + [x0 + 0.3 * row for row in np.eye(4)])
            res = minimize(
                fun,
                x0,
                method="Nelder-Mead",
                options={
                    "maxfev": int(maxfev),
                    "xatol": 1e-9,
                    "fatol": 1e-12,
                    "initial_simplex": simplex,
                },
            )
            if res.fun < best_val:  # strict: ties keep the first-found extremum
                best_val = float(res.fun)
                best_poles = poles
                best_x = np.asarray(res.x, dtype=float)

    g1 = rotation_operator(0.5, form.rotation1)
    g2 = rotation_operator(0.5, form.rotation2)
    settings = CHSettings(
        a=_rotated_direction(g1, best_poles[0], best_poles[1]),
        a_prime=_rotated_direction(g1, best_x[0], best_x[1]),
        b=_rotated_direction(g2, best_poles[2], best_poles[3]),
        b_prime=_rotated_direction(g2, best_x[2], best_x[3]),
    )
    return gamma(psi, settings)
