"""Bell tests with a pair of two-level atoms via population spectroscopy.

The package follows one thread: atomic coherent states turn level populations
of a displaced system into Husimi Q functions; the joint Q function of two
atoms is a legitimate Clauser-Horne correlation, bounded in [-1, 0] by every
local hidden-variable model; and any entangled pure two-atom state beats the
bound for suitable displacement settings, which Ramsey pulse pairs realize in
the lab.  `su2` holds the spin kernel, `bell` the inequality machinery,
`ramsey` the pulse bookkeeping and finite-shot simulation, and `cli` a small
command-line front end.
"""

from .bell import (
    CanonicalForm,
    CHSettings,
    GammaResult,
    analytic_gamma_u,
    analytic_gamma_v,
    canonical_form,
    eta_state,
    family_state,
    gamma,
    lhv_vertices,
    optimize_gamma,
    u_state,
    v_state,
)
from .ramsey import (
    Estimate,
    PulseSequence,
    ShotPlan,
    Tally,
    estimate_gamma,
    estimate_q,
    outcome_distribution,
    pulses_to_direction,
    simulate_shots,
)
from .su2 import (
    DEFAULT_J_MAX,
    BlochDirection,
    SchmidtDecomposition,
    SpinState,
    TwoAtomState,
    coherent_overlap,
    coherent_state,
    displace_two_atoms,
    entanglement_angle,
    joint_q,
    make_direction,
    marginal_q,
    q_function,
    reduced_density,
    rotation_operator,
    schmidt_decompose,
    spinor_direction,
    wigner_d,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spin kernel
    "DEFAULT_J_MAX",
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
    # inequality machinery
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
    # pulses and sampling
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
