"""Reference physics for the benchmark's correctness checks.

Everything here is written from the formulas of the paper with NumPy alone and
never calls into `atombell`, so a check that compares the program against this
module compares two independent computations.

Conventions match the package: a two-level atom's coherent ket for the raw
angles (theta, phi) is (cos(theta/2) e^{-i phi/2}, sin(theta/2) e^{+i phi/2});
two-atom amplitudes are ordered (++, +-, -+, --), i.e. a 2x2 matrix whose row
is atom 1 and whose column is atom 2.  Raw angles need no canonicalization:
every quantity below is a squared modulus, and equivalent angles change the
ket only by a phase.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_HALF = 1.0 / math.sqrt(2.0)


def ket(theta: float, phi: float) -> np.ndarray:
    """Spin-1/2 coherent ket |n> for raw polar/azimuthal angles."""
    return np.array(
        [
            math.cos(0.5 * theta) * complex(math.cos(0.5 * phi), -math.sin(0.5 * phi)),
            math.sin(0.5 * theta) * complex(math.cos(0.5 * phi), math.sin(0.5 * phi)),
        ]
    )


def rotation(theta: float, phi: float) -> np.ndarray:
    """g(n) = exp(-i phi Jz) exp(-i theta Jy); its first column is ket(theta, phi)."""
    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    down, up = complex(math.cos(0.5 * phi), -math.sin(0.5 * phi)), complex(math.cos(0.5 * phi), math.sin(0.5 * phi))
    return np.array([[c * down, -s * down], [s * up, c * up]])


def normalized(amps) -> np.ndarray:
    arr = np.asarray(amps, dtype=complex).reshape(4)
    return arr / np.linalg.norm(arr)


def u_amps(varphi: float) -> np.ndarray:
    return np.array([0.0, SQRT_HALF, SQRT_HALF * np.exp(1j * varphi), 0.0])


def v_amps(varphi: float) -> np.ndarray:
    return np.array([SQRT_HALF, 0.0, 0.0, SQRT_HALF * np.exp(1j * varphi)])


def eta_amps(vartheta: float, varphi: float) -> np.ndarray:
    return np.array([math.cos(vartheta), 0.0, 0.0, math.sin(vartheta) * np.exp(1j * varphi)])


def product_amps(n1, n2) -> np.ndarray:
    return np.kron(ket(*n1), ket(*n2))


def displaced_amps(amps, n1, n2) -> np.ndarray:
    """Amplitudes after g1(n1)^dagger g2(n2)^dagger, as a local rotation of the pair."""
    return np.kron(rotation(*n1).conj().T, rotation(*n2).conj().T) @ np.asarray(amps, dtype=complex)


def schmidt_angle(amps) -> float:
    s = np.linalg.svd(normalized(amps).reshape(2, 2), compute_uv=False)
    return math.atan2(float(s[1]), float(s[0]))


def q_values(amps, a, a_prime, b, b_prime) -> dict:
    """The six Q values of the Clauser-Horne combination, keyed as `gamma` keys them."""
    m = normalized(amps).reshape(2, 2)
    ka, kap, kb, kbp = (ket(*n).conj() for n in (a, a_prime, b, b_prime))

    def q12(x, y):
        return abs(x @ m @ y) ** 2

    return {
        "q12_ab": q12(ka, kb),
        "q12_apb": q12(kap, kb),
        "q12_abp": q12(ka, kbp),
        "q12_apbp": q12(kap, kbp),
        "q1_a": float(np.linalg.norm(ka @ m) ** 2),
        "q2_b": float(np.linalg.norm(m @ kb) ** 2),
    }


def combine(q: dict, efficiency: float = 1.0) -> float:
    """Gamma from its six terms; with efficiency e < 1 each detected '+' survives with probability e."""
    e = efficiency
    joint = q["q12_ab"] + q["q12_apb"] + q["q12_abp"] - q["q12_apbp"]
    return e * e * joint - e * (q["q1_a"] + q["q2_b"])


def gamma(amps, a, a_prime, b, b_prime) -> float:
    return combine(q_values(amps, a, a_prime, b, b_prime))


def gamma_u(theta: float, phi: float, phi_prime: float, varphi: float) -> float:
    """Paper's closed form for u(varphi) with a = b = +z, a' = (theta, phi), b' = (theta, phi')."""
    half = 0.5 * (phi - phi_prime - varphi)
    return math.sin(0.5 * theta) ** 2 - 0.5 * math.sin(theta) ** 2 * math.cos(half) ** 2 - 1.0


def gamma_v(theta: float, phi: float, phi_prime: float, varphi: float) -> float:
    """Paper's closed form for v(varphi), same settings layout as gamma_u."""
    half = 0.5 * (phi + phi_prime - varphi)
    c = math.cos(theta)
    return 0.5 * (c - c * c - math.sin(theta) ** 2 * math.cos(half) ** 2)


def shot_sigma(q: dict, efficiency: float, shots: int) -> float:
    """Standard deviation of the four-run Gamma estimator, from the exact outcome probabilities.

    Run (a, b) enters as -(1 - f_--); the other runs each contribute one
    joint frequency f_++.  All four runs are independent.
    """
    e = efficiency
    p_mm = 1.0 - e * (q["q1_a"] + q["q2_b"]) + e * e * q["q12_ab"]
    var = p_mm * (1.0 - p_mm)
    for key in ("q12_apb", "q12_abp", "q12_apbp"):
        p = e * e * q[key]
        var += p * (1.0 - p)
    return math.sqrt(max(var, 0.0) / shots)


def gamma_from_tallies(tallies: dict, shots: int) -> float:
    """Estimator value recomputed from raw counts {'ab': (n_pp, n_pm, n_mp, n_mm), ...}."""
    pp, pm, mp, _ = tallies["ab"]
    run1 = (pp - (pp + pm) - (pp + mp)) / shots
    return run1 + (tallies["apb"][0] + tallies["abp"][0] - tallies["apbp"][0]) / shots


def lhv_range() -> tuple[float, float]:
    """Extremes of Gamma over the 16 deterministic local strategies."""
    values = [
        x * y + xp * y + x * yp - xp * yp - x - y
        for x in (0, 1)
        for xp in (0, 1)
        for y in (0, 1)
        for yp in (0, 1)
    ]
    return float(min(values)), float(max(values))
