"""Per-call timings of the layers under Gamma, from spin-1/2 rotation up to the settings search.

    PYTHONPATH=src python -m pytest benchmarks
    PYTHONPATH=src python -m pytest benchmarks --benchmark-json=layers.json

Each benchmark calls one public function on fixed inputs drawn from a seeded
generator, so two source trees can be compared call for call.  With
``--benchmark-disable`` every function runs once and its result is checked,
which is how CI keeps the harness working.  The end-to-end numbers come from
``perfbench/run.py``; these are the layer-by-layer ones.
"""

import math

import numpy as np
import pytest

from atombell import (
    CHSettings,
    TwoAtomState,
    coherent_state,
    gamma,
    joint_q,
    make_direction,
    marginal_q,
    optimize_gamma,
    rotation_operator,
)

SEED = 20261018


@pytest.fixture(scope="module")
def inputs():
    rng = np.random.default_rng(SEED)
    psi = TwoAtomState(rng.normal(size=4) + 1j * rng.normal(size=4))
    directions = [make_direction(math.acos(rng.uniform(-1.0, 1.0)), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(4)]
    return psi, CHSettings(*directions)


def test_rotation_operator_spin_half(benchmark, inputs):
    _, settings = inputs
    g = benchmark(rotation_operator, 0.5, settings.a)
    assert np.allclose(g.conj().T @ g, np.eye(2), rtol=0.0, atol=1e-15)


def test_coherent_state_spin_half(benchmark, inputs):
    _, settings = inputs
    state = benchmark(coherent_state, 0.5, settings.a)
    assert abs(np.linalg.norm(state.amps) - 1.0) < 1e-15


def test_joint_q(benchmark, inputs):
    psi, settings = inputs
    assert 0.0 <= benchmark(joint_q, psi, settings.a, settings.b) <= 1.0


def test_marginal_q(benchmark, inputs):
    psi, settings = inputs
    assert 0.0 <= benchmark(marginal_q, psi, 1, settings.a) <= 1.0


def test_gamma(benchmark, inputs):
    psi, settings = inputs
    assert -1.125 - 1e-12 <= benchmark(gamma, psi, settings).gamma <= 0.125 + 1e-12


def test_optimize_gamma(benchmark, inputs):
    psi, _ = inputs
    assert benchmark(optimize_gamma, psi).gamma <= 0.0
