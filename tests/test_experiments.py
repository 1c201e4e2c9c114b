"""Tests for the experiment registry and the sim-equivalence instances."""

import numpy as np

from ctcsim.cli import EXPERIMENTS
from ctcsim.experiments import REGISTRY, random_instance


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
