"""Spin-j kernel: Bloch directions, SU(2) rotations, coherent states, Q functions.

The two-level atom (spin 1/2) is the one hand-coded object: a spin j is built
as 2j such atoms in their symmetric (Dicke) subspace, so its rotations are
tensor powers of the spin-1/2 rotation.

Conventions used throughout the package:

* basis states are ordered by decreasing magnetic quantum number
  m = j, j-1, ..., -j, so the upper level sits at index 0;
* the rotation carrying the north pole to the direction n = (theta, phi) is
  g(n) = exp(-i phi Jz) exp(-i theta Jy), and the atomic (spin) coherent
  state is |j; n> = g(n) |j, j>;
* for a single two-level atom this gives
  |n> = cos(theta/2) e^{-i phi/2} |+>  +  sin(theta/2) e^{+i phi/2} |->,
  and every observable built here is a squared modulus, so the half-angle
  phase convention never leaks into measurable quantities;
* two-atom amplitudes are ordered (++, +-, -+, --).

All operations are pure functions of their inputs; nothing here keeps
mutable state, so values can be shared freely across threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlochDirection",
    "SpinState",
    "TwoAtomState",
    "SchmidtDecomposition",
    "make_direction",
    "wigner_d",
    "rotation_operator",
    "coherent_state",
    "coherent_overlap",
    "q_function",
    "displace_two_atoms",
    "joint_q",
    "reduced_density",
    "marginal_q",
    "spinor_direction",
    "schmidt_decompose",
    "entanglement_angle",
]

TWO_PI = 2.0 * math.pi

# The Bell test itself only ever needs j = 1/2; larger spins are supported so
# the coherent-state overlap/factorization laws can be exercised.  A spin j is
# the 2j-fold tensor power of a two-level atom, whose matrix grows as 4**(2j),
# so spins above this cap are refused.
_J_MAX = 2.5

# Amplitude vectors whose norm is already this close to one are stored as-is,
# so unitary images of normalized states survive bit-exactly.
_NORM_TOL = 1e-12


def _turn(angle: float) -> float:
    """Angle reduced into [0, 2*pi)."""
    wrapped = angle % TWO_PI
    # a tiny negative angle rounds up to exactly 2*pi, outside [0, 2*pi)
    return 0.0 if wrapped == TWO_PI else wrapped


def _check_j(j):
    if not math.isfinite(j):
        raise ValueError(f"spin must be finite, got {j!r}")
    twice = 2.0 * j
    if twice < 0.0 or abs(twice - round(twice)) > 1e-9:
        raise ValueError(f"spin must be a non-negative half-integer, got {j}")


@dataclass(frozen=True)
class BlochDirection:
    """Point on the unit sphere; theta polar from +z, phi azimuthal.

    Construction canonicalizes: theta lands in [0, pi], phi in [0, 2*pi),
    and at the poles phi is forced to 0.  Equivalent raw angles therefore
    compare equal.
    """

    theta: float
    phi: float

    def __post_init__(self):
        t = float(self.theta)
        p = float(self.phi)
        if not (math.isfinite(t) and math.isfinite(p)):
            raise ValueError(f"direction angles must be finite, got ({self.theta!r}, {self.phi!r})")
        t = _turn(t)
        if t > math.pi:
            t = TWO_PI - t
            p += math.pi
        p = _turn(p)
        if t == 0.0 or t == math.pi:
            p = 0.0
        object.__setattr__(self, "theta", t)
        object.__setattr__(self, "phi", p)

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)])


def make_direction(theta: float, phi: float) -> BlochDirection:
    """Canonicalized Bloch direction from raw polar/azimuthal angles."""
    return BlochDirection(float(theta), float(phi))


def _rescaled(arr: np.ndarray) -> tuple[np.ndarray, float, float]:
    """(arr / scale, its 2-norm, scale) for a complex vector, whose own norm is scale times that.

    np.linalg.norm squares the amplitudes, which overflows above a norm of
    about 1e154 and loses bits to underflow below about 1e-154.  Outside
    (1e-150, 1e150) scale is the largest real or imaginary part in modulus;
    inside it scale is 1, and arr and np.linalg.norm's result keep every bit.
    A NaN or infinite entry gives a non-finite norm, a zero vector norm 0.
    """
    parts = np.ascontiguousarray(arr, dtype=complex).view(float)
    peak = float(np.abs(parts).max())
    if peak == 0.0 or not math.isfinite(peak):
        return arr, peak, 1.0
    # below this peak the squares of up to 50 amplitudes sum short of overflow
    norm = float(np.linalg.norm(arr)) if peak < 1e150 else math.inf
    if 1e-150 < norm < 1e150:
        return arr, norm, 1.0
    # real and imaginary parts apart: NumPy divides complex by real through
    # the reciprocal 1 / peak, which overflows for a subnormal peak
    scaled = (parts / peak).view(complex)
    return scaled, float(np.linalg.norm(scaled)), peak


def _normalized_amps(amps, length: int) -> np.ndarray:
    arr = np.array(amps, dtype=complex).reshape(-1)
    if arr.shape != (length,):
        raise ValueError(f"expected {length} amplitudes, got shape {np.shape(amps)}")
    arr, norm, _ = _rescaled(arr)
    if not math.isfinite(norm):
        raise ValueError("amplitudes must be finite")
    if norm == 0.0:
        raise ValueError("state has zero norm")
    if abs(norm - 1.0) > _NORM_TOL:
        arr = arr / norm
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SpinState:
    """Normalized pure state of a spin j; amplitudes ordered m = j .. -j."""

    j: float
    amps: np.ndarray

    def __post_init__(self):
        _check_j(self.j)
        dim = int(round(2.0 * self.j)) + 1
        object.__setattr__(self, "j", float(self.j))
        object.__setattr__(self, "amps", _normalized_amps(self.amps, dim))

    @classmethod
    def _of_unit_column(cls, j: float, column: np.ndarray) -> SpinState:
        """State holding a read-only copy of a column of a checked unitary, without re-validating it."""
        amps = column.copy()
        amps.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "j", float(j))
        object.__setattr__(state, "amps", amps)
        return state


@dataclass(frozen=True)
class TwoAtomState:
    """Normalized pure state of two two-level atoms, basis (++, +-, -+, --)."""

    amps: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amps", _normalized_amps(self.amps, 4))

    @property
    def amp_matrix(self) -> np.ndarray:
        """Amplitudes as a 2x2 matrix; row = atom 1 outcome, column = atom 2."""
        return self.amps.reshape(2, 2)


def _q_tables(amp_matrix: np.ndarray, thetas: np.ndarray, phis: np.ndarray):
    """Joint and marginal Q values over N raw spin-1/2 directions at once.

    Returns (q12, q1, q2): q12[i, k] = Q12(n_i, n_k) as an N x N array, and the
    marginals Q1(n_i), Q2(n_k) as length-N arrays, for the two-atom state with
    the given 2x2 amplitude matrix.
    """
    kets = np.stack(
        [np.cos(0.5 * thetas) * np.exp(-0.5j * phis), np.sin(0.5 * thetas) * np.exp(0.5j * phis)],
        axis=1,
    )
    a = amp_matrix
    amp = kets.conj() @ a @ kets.conj().T
    q12 = np.abs(amp) ** 2
    rho1 = a @ a.conj().T
    rho2 = a.T @ a.conj()
    q1 = np.einsum("ni,ij,nj->n", kets.conj(), rho1, kets).real
    q2 = np.einsum("ni,ij,nj->n", kets.conj(), rho2, kets).real
    return q12, q1, q2


def wigner_d(j: float, theta: float) -> np.ndarray:
    """Small Wigner rotation matrix d^j(theta) = exp(-i theta Jy), m descending.

    The matrix is real orthogonal; d^j(0) is the identity.  Any j other than
    1/2 is the 2j-fold tensor power of d^{1/2} on the Dicke states.
    """
    _check_j(j)
    if j > _J_MAX + 1e-9:
        raise ValueError(f"spin {j} exceeds the supported maximum {_J_MAX}")
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("rotation angle must be finite")
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    half = np.array([[c, -s], [s, c]])
    atoms = int(round(2.0 * j))
    if atoms == 1:
        return half
    power = np.ones((1, 1))
    for _ in range(atoms):
        power = np.kron(power, half)
    # column k of dicke is |j, j-k>, the normalized sum of all products with
    # k atoms lowered (bit set); these follow the Condon-Shortley phases
    lowered = np.array([bin(x).count("1") for x in range(2**atoms)])
    dicke = (lowered[:, None] == np.arange(atoms + 1)).astype(float)
    dicke /= np.sqrt(dicke.sum(axis=0))
    return dicke.T @ power @ dicke


def rotation_operator(j: float, n: BlochDirection) -> np.ndarray:
    """Unitary g(n) = exp(-i phi Jz) exp(-i theta Jy) for spin j.

    For j = 1/2 the 2x2 matrix is written out from cos and sin of the half
    angles; it is bit-identical to the general path, the phase column
    exp(-i phi m) times wigner_d(j, theta), which every other j takes.
    """
    if j == 0.5:
        c = math.cos(0.5 * n.theta)
        s = math.sin(0.5 * n.theta)
        half_phi = 0.5 * n.phi
        cos_phi = math.cos(half_phi)
        sin_phi = math.sin(half_phi)
        # 0.0 - sin keeps the +0.0 that exp(-i phi m) gives at phi = 0
        down = complex(cos_phi, 0.0 - sin_phi)
        up = complex(cos_phi, sin_phi)
        return np.array([[down * c, down * -s], [up * s, up * c]])
    d = wigner_d(j, n.theta)
    m = j - np.arange(d.shape[0])
    return np.exp(-1j * n.phi * m)[:, None] * d


def coherent_state(j: float, n: BlochDirection) -> SpinState:
    """Atomic coherent state |j; n> = g(n)|j, j> (the rotated upper level).

    The amplitudes are the first column of rotation_operator(j, n), which has
    already checked j, so the state is valid by construction and skips the
    SpinState constructor's checks; it equals SpinState(j, that column).
    """
    return SpinState._of_unit_column(j, rotation_operator(j, n)[:, 0])


def coherent_overlap(j: float, n1: BlochDirection, n2: BlochDirection) -> complex:
    """Inner product <j; n1 | j; n2>.

    Its squared modulus obeys the geometric law ((1 + n1.n2) / 2) ** (2 j).
    """
    bra = coherent_state(j, n1).amps
    ket = coherent_state(j, n2).amps
    return complex(np.vdot(bra, ket))


def q_function(state, n: BlochDirection) -> float:
    """Husimi value Q(n) = <j; n| rho |j; n> for a SpinState or density matrix.

    This is the probability of finding the system in the upper level after
    displacing by g(n)^dagger, i.e. what population spectroscopy measures.
    """
    if isinstance(state, SpinState):
        ket = coherent_state(state.j, n).amps
        return float(abs(np.vdot(ket, state.amps)) ** 2)
    if isinstance(state, TwoAtomState):
        raise TypeError("q_function takes a single-atom state; use joint_q or marginal_q for pairs")
    rho = np.asarray(state, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    j = (rho.shape[0] - 1) / 2.0
    ket = coherent_state(j, n).amps
    return float(np.vdot(ket, rho @ ket).real)


def displace_two_atoms(psi: TwoAtomState, n1: BlochDirection, n2: BlochDirection) -> TwoAtomState:
    """Apply g1(n1)^dagger g2(n2)^dagger, mapping joint Q values onto level populations."""
    g1 = rotation_operator(0.5, n1)
    g2 = rotation_operator(0.5, n2)
    return TwoAtomState(np.kron(g1.conj().T, g2.conj().T) @ psi.amps)


def joint_q(psi: TwoAtomState, n1: BlochDirection, n2: BlochDirection) -> float:
    """Joint Q function Q12(n1, n2) = |<n1|<n2| psi>|^2.

    Identical to the probability that both displaced atoms sit in the upper
    level, i.e. the (++) entry of the displaced population distribution.
    """
    bra = np.kron(coherent_state(0.5, n1).amps, coherent_state(0.5, n2).amps).conj()
    return float(abs(bra @ psi.amps) ** 2)


def reduced_density(psi: TwoAtomState, atom: int) -> np.ndarray:
    """2x2 reduced density matrix of atom 1 or atom 2."""
    a = psi.amp_matrix
    if atom == 1:
        return a @ a.conj().T
    if atom == 2:
        return a.T @ a.conj()
    raise ValueError(f"atom index must be 1 or 2, got {atom!r}")


def marginal_q(psi: TwoAtomState, atom: int, n: BlochDirection) -> float:
    """Single-atom marginal Q_r(n) = <n| rho_r |n> of a two-atom pure state."""
    return q_function(reduced_density(psi, atom), n)


def spinor_direction(amps) -> BlochDirection:
    """Bloch direction of a single-atom pure state: the n with |<n|psi>| = 1."""
    a = complex(amps[0])
    b = complex(amps[1])
    if abs(a) == 0.0 and abs(b) == 0.0:
        raise ValueError("zero vector has no direction")
    theta = 2.0 * math.atan2(abs(b), abs(a))
    phi = cmath.phase(b * a.conjugate()) if (abs(a) > 0.0 and abs(b) > 0.0) else 0.0
    return BlochDirection(theta, phi)


@dataclass(frozen=True)
class SchmidtDecomposition:
    """Normal form psi = g(rotation1) g(rotation2) [cos(vartheta)|++> + sin(vartheta) e^{i varphi}|-->].

    Coefficients are sorted descending, so vartheta lies in [0, pi/4]; the
    relative phase rides on the smaller-coefficient term.  Columns of basis1
    (basis2) = g(rotation1) (g(rotation2)) are the atom-1 (atom-2) Schmidt
    states: the atomic coherent state along the rotation, then its antipode.
    """

    vartheta: float
    varphi: float
    rotation1: BlochDirection
    rotation2: BlochDirection

    @property
    def basis1(self) -> np.ndarray:
        return rotation_operator(0.5, self.rotation1)

    @property
    def basis2(self) -> np.ndarray:
        return rotation_operator(0.5, self.rotation2)

    def state(self) -> TwoAtomState:
        """Reconstruct the decomposed state (up to a global phase)."""
        basis1, basis2 = self.basis1, self.basis2
        plus = np.kron(basis1[:, 0], basis2[:, 0])
        minus = np.kron(basis1[:, 1], basis2[:, 1])
        amp = math.cos(self.vartheta) * plus + math.sin(self.vartheta) * cmath.exp(1j * self.varphi) * minus
        return TwoAtomState(amp)


def schmidt_decompose(psi: TwoAtomState) -> SchmidtDecomposition:
    """Schmidt decomposition of a two-atom pure state.

    Basis phases are fixed by requiring each Schmidt basis to be the image of
    (|+>, |->) under a rotation g(n), which makes the output deterministic
    away from the degenerate maximally entangled case (where any valid
    decomposition may be returned).
    """
    a = psi.amp_matrix
    u_mat, s, vh = np.linalg.svd(a)
    vartheta = math.atan2(float(s[1]), float(s[0]))
    rotation1 = spinor_direction(u_mat[:, 0])
    rotation2 = spinor_direction(vh[0, :])
    basis1 = rotation_operator(0.5, rotation1)
    basis2 = rotation_operator(0.5, rotation2)
    c_plus = np.vdot(np.kron(basis1[:, 0], basis2[:, 0]), psi.amps)
    c_minus = np.vdot(np.kron(basis1[:, 1], basis2[:, 1]), psi.amps)
    if float(s[1]) < 1e-13 or abs(c_plus) == 0.0:
        varphi = 0.0
    else:
        varphi = _turn(cmath.phase(complex(c_minus) * complex(c_plus).conjugate()))
    return SchmidtDecomposition(vartheta, varphi, rotation1, rotation2)


def entanglement_angle(psi: TwoAtomState) -> float:
    """Schmidt angle in [0, pi/4]; vanishes for product states."""
    s = np.linalg.svd(psi.amp_matrix, compute_uv=False)
    return float(math.atan2(float(s[1]), float(s[0])))
