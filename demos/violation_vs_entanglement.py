"""Every entangled pure state of two atoms violates the classical bound.

Any pure two-atom state reduces, by local rotations, to the normal form
cos(vartheta)|++> + sin(vartheta) e^{i varphi}|-->; vartheta in (0, pi/4]
measures its entanglement.  Scanning vartheta shows the attainable violation
growing monotonically from zero (product states) to +1/8 (Bell states),
along the closed form sin^2(2 vartheta) / (4 (1 + sin 2 vartheta)); the
minimum mirrors it at -1 minus that.
"""

import math

import numpy as np

from atombell import (
    TwoAtomState,
    canonical_form,
    displace_two_atoms,
    entanglement_angle,
    eta_state,
    make_direction,
    optimize_gamma,
)

print("=== violation vs. Schmidt angle ===")
print(f"{'vartheta':>9s} {'max Gamma':>12s} {'closed form':>12s} {'min Gamma':>12s}")
for vartheta in np.linspace(0.0, math.pi / 4, 10):
    psi = eta_state(float(vartheta), 1.3)
    high = optimize_gamma(psi, "maximize").gamma
    low = optimize_gamma(psi, "minimize").gamma
    s2 = math.sin(2.0 * vartheta)
    closed = s2 * s2 / (4.0 * (1.0 + s2))
    print(f"{vartheta:9.4f} {high:+12.6f} {closed:+12.6f} {low:+12.6f}")
print("(product states stay inside [-1, 0]; Bell states reach 1/8 past both ends)")

print()
print("=== the violation survives arbitrary local rotations ===")
rng = np.random.default_rng(11)
psi = eta_state(0.3, 0.8)
base = optimize_gamma(psi, "maximize").gamma
print(f"eta(0.3, 0.8) in normal form:    max Gamma = {base:.8f}")
for k in range(3):
    n1 = make_direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
    n2 = make_direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
    rotated = displace_two_atoms(psi, n1, n2)
    value = optimize_gamma(rotated, "maximize").gamma
    print(f"after random local rotations #{k + 1}: max Gamma = {value:.8f}")

print()
print("=== recovering the normal form of a scrambled state ===")
amps = rng.normal(size=4) + 1j * rng.normal(size=4)
psi = TwoAtomState(amps / np.linalg.norm(amps))
form = canonical_form(psi)
print(f"random state: vartheta = {form.vartheta:.6f}, varphi = {form.varphi:.6f}")
print(f"entanglement_angle agrees: {entanglement_angle(psi):.6f}")
undone = displace_two_atoms(psi, form.rotation1, form.rotation2)
aligned = undone.amps / (undone.amps[0] / abs(undone.amps[0]))  # drop the global phase
print("amplitudes after undoing the local rotations (global phase removed):")
with np.printoptions(precision=6, suppress=True):
    print(f"  {aligned}")
    print(f"  target {eta_state(form.vartheta, form.varphi).amps}")
