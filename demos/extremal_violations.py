"""The Clauser-Horne combination and its extremal quantum violations.

Local realism confines Gamma = Q12(a,b) + Q12(a',b) + Q12(a,b') - Q12(a',b')
- Q1(a) - Q2(b) to [-1, 0].  With both reference analyzers left undisplaced,
the one-excitation family u(varphi) dips to -9/8 and the even family
v(varphi) climbs to +1/8, in both cases at polar angle pi/3.
"""

import math

from atombell import (
    CHSettings,
    analytic_gamma_u,
    analytic_gamma_v,
    coherent_state,
    gamma,
    make_direction,
    optimize_gamma,
    u_state,
    v_state,
)

print("=== u family: minimum -9/8 at theta = pi/3 ===")
varphi = math.pi  # the singlet
psi = u_state(varphi)
for theta in (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
    settings = CHSettings.zero_reference(
        make_direction(theta, 0.0), make_direction(theta, -varphi)
    )
    value = gamma(psi, settings).gamma
    closed = analytic_gamma_u(theta, 0.0, -varphi, varphi)
    print(f"theta = {theta:6.4f}: Gamma = {value:+.9f}  (closed form {closed:+.9f})")

print()
print("=== v family: maximum +1/8 at theta = pi/3 ===")
psi_v = v_state(0.0)
for theta in (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
    settings = CHSettings.zero_reference(
        make_direction(theta, 0.0), make_direction(theta, math.pi)
    )
    value = gamma(psi_v, settings).gamma
    closed = analytic_gamma_v(theta, 0.0, math.pi, 0.0)
    print(f"theta = {theta:6.4f}: Gamma = {value:+.9f}  (closed form {closed:+.9f})")

print()
print("=== the pi/3 analyzers in closed form ===")
plus = coherent_state(0.5, make_direction(math.pi / 3, 0.0)).amps
minus = coherent_state(0.5, make_direction(math.pi / 3, math.pi)).amps
print(f"|n (pi/3, 0) >  = ({plus[0]:.6f}, {plus[1]:.6f})   i.e. (sqrt(3)/2, 1/2)")
print(f"|n'(pi/3, pi)>  = ({minus[0]:.6f}, {minus[1]:.6f})  i.e. (sqrt(3)/2, -1/2) up to a phase")
settings = CHSettings.zero_reference(
    make_direction(math.pi / 3, 0.0), make_direction(math.pi / 3, math.pi)
)
result = gamma(u_state(math.pi), settings)
print(f"projections on these analyzers give Gamma = {result.gamma:.9f} on the singlet")
print("term breakdown:")
for key, value in result.terms.items():
    print(f"  {key:9s} = {value:.9f}")

print()
print("=== the optimizer finds the same extrema ===")
found = optimize_gamma(u_state(math.pi), "minimize")
print(f"minimize over settings: Gamma = {found.gamma:.9f}")
s = found.settings
for name, d in (("a", s.a), ("a'", s.a_prime), ("b", s.b), ("b'", s.b_prime)):
    print(f"  {name:2s} at (theta, phi) = ({d.theta:.6f}, {d.phi:.6f})")
found_v = optimize_gamma(v_state(0.0), "maximize")
print(f"maximize for v(0):      Gamma = {found_v.gamma:.9f}")
