"""Tests for the experiment registry and the sim-equivalence instances."""

import numpy as np

from ctcsim.cli import EXPERIMENTS
from ctcsim.experiments import REGISTRY, random_instance, sim_equivalence
from ctcsim.protocol import run_discrimination, simulate_without_ctc
from ctcsim.qmat import trace_distance


def instance_arrays(seed, trial):
    circuit, ensemble = random_instance(seed, trial)
    (gate,) = circuit.gates
    weights = [p for _, p, _ in ensemble.by_label()]
    states = [vec for _, _, vec in ensemble.by_label()]
    return gate.matrix, weights, states


def test_registry_names_the_cli_experiments_in_order():
    # the order of the command's choices in its help and error text
    assert EXPERIMENTS == tuple(REGISTRY) == (
        "epr", "bhw2", "bhw4", "mixture", "superposition", "sim-equivalence",
        "identical-mixtures", "computation")


def test_random_instance_depends_on_seed():
    for trial in range(3):
        u1, w1, _ = instance_arrays(1, trial)
        u2, w2, _ = instance_arrays(2, trial)
        assert np.abs(u1 - u2).max() > 1e-3
        assert abs(w1[0] - w2[0]) > 1e-6
    # trials under one seed are distinct instances too
    assert np.abs(instance_arrays(1, 0)[0] - instance_arrays(1, 1)[0]).max() > 1e-3


def test_random_instance_is_reproducible():
    for seed, trial in ((0, 0), (7, 3), (2024, 9)):
        u1, w1, s1 = instance_arrays(seed, trial)
        u2, w2, s2 = instance_arrays(seed, trial)
        assert np.array_equal(u1, u2)
        assert w1 == w2
        for a, b in zip(s1, s2):
            assert np.array_equal(a, b)


def test_sim_equivalence_compares_the_mixture_run_with_its_simulation():
    results = sim_equivalence(trials=4, seed=7)
    distances, residuals = [], []
    for trial in range(4):
        circuit, ensemble = random_instance(7, trial)
        real = run_discrimination(circuit, ensemble)
        sim = simulate_without_ctc(circuit, ensemble)
        distances.append(trace_distance(real.rho_out, sim.rho_out))
        residuals += [real.fixed_point.residual, sim.fixed_point.residual]
    assert results["per_trial_distances"] == distances
    assert results["max_fixed_point_residual"] == max(residuals)
