"""Tests for the experiment registry and the sim-equivalence instances."""

import numpy as np
import pytest

from ctcsim.circuit import Circuit, Gate
from ctcsim.cli import EXPERIMENTS
import ctcsim.experiments as experiments_module
from ctcsim.experiments import (REGISTRY, fixed_point_record,
                                identical_mixtures, random_instance,
                                random_instances, sim_equivalence)
from ctcsim.oracle import random_unitary
from ctcsim.protocol import (LabeledEnsemble, run_discrimination,
                             simulate_without_ctc)
from ctcsim.qmat import ValidationError, trace_distance


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


def test_identical_mixtures_is_one_stack_of_the_two_discrimination_runs(
        monkeypatch):
    circuit, (zero, one, plus, minus) = experiments_module._four_state_inputs()
    want = {}
    for selection in ("canonical", "max_entropy"):
        out_01, out_pm = (run_discrimination(circuit, LabeledEnsemble(
            [(0, 0.5, a), (1, 0.5, b)]), selection)
            for a, b in ((zero, one), (plus, minus)))
        want[selection] = {
            "output_trace_distance": trace_distance(out_01.rho_out,
                                                    out_pm.rho_out),
            "fixed_point_basis": fixed_point_record(out_01.fixed_point),
            "fixed_point_conjugate": fixed_point_record(out_pm.fixed_point)}
    stacks = []
    evolve_stack = experiments_module.evolve_stack

    def counted(u, rho, *args):
        stacks.append(len(rho))
        return evolve_stack(u, rho, *args)

    monkeypatch.setattr(experiments_module, "evolve_stack", counted)
    monkeypatch.setattr(experiments_module, "run_discrimination", None)
    assert identical_mixtures() == want
    assert stacks == [2, 2]


def drawn_one_at_a_time(seed, trial):
    """A trial drawn call by call from its generator: U, the two states, the
    weight p0."""
    rng = np.random.default_rng([seed, trial])
    u = random_unitary(4, rng)
    states = []
    for _ in range(2):
        vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        states.append(vec / np.linalg.norm(vec))
    return u, states, float(rng.uniform(0.1, 0.9))


@pytest.mark.parametrize("seed", [0, 7, 2024])
@pytest.mark.parametrize("trials", [1, 2, 50])
def test_the_stacked_draw_is_the_per_trial_draw(seed, trials):
    u, vecs, probs = random_instances(seed, trials)
    assert u.shape == (trials, 4, 4) and vecs.shape == (trials, 2, 2)
    for t in range(trials):
        circuit, ensemble = random_instance(seed, t)
        assert np.array_equal(u[t], circuit.gates[0].matrix)
        for x, (label, prob, vec) in enumerate(ensemble.by_label()):
            assert label == x and prob == probs[t, x]
            assert np.array_equal(vec, vecs[t, x])
        # the bytes of a draw of U, the states and p0 call by call
        u_t, states, p0 = drawn_one_at_a_time(seed, t)
        assert np.array_equal(u[t], u_t)
        assert all(np.array_equal(a, b) for a, b in zip(vecs[t], states))
        assert probs[t].tolist() == [p0, 1.0 - p0]


def refusal(build) -> str:
    with pytest.raises(ValidationError) as info:
        build()
    return str(info.value)


def tamper_qr(monkeypatch, bad: dict):
    """np.linalg.qr gives Q = bad[k] and R = I for each stack index k, so the
    drawn U of that trial is bad[k] itself."""
    qr = np.linalg.qr

    def tampered(z):
        q, r = qr(z)
        for k, m in bad.items():
            q[k], r[k] = m, np.eye(4)
        return q, r

    monkeypatch.setattr(np.linalg, "qr", tampered)


def tamper_draws(monkeypatch, trial, normals=None, p0=None):
    """Trial `trial` draws `normals` in place of its first state's four
    normals (32:36) and `p0` in place of its weight, where given."""
    default_rng = np.random.default_rng

    class Tampered:
        def __init__(self, seed):
            self.rng, self.hit = default_rng(seed), seed[1] == trial

        def standard_normal(self, size):
            x = self.rng.standard_normal(size)
            if self.hit and normals is not None:
                x[32:36] = normals
            return x

        def uniform(self, low, high):
            drawn = self.rng.uniform(low, high)
            return p0 if self.hit and p0 is not None else drawn

    monkeypatch.setattr(np.random, "default_rng", Tampered)


def circuit_of(m):
    return Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(Gate("v", (0, 1), m),))


def ensemble_of(first_state, p0=0.5):
    return LabeledEnsemble([(0, p0, first_state), (1, 1.0 - p0, np.eye(2)[0])])


def test_the_stacked_checks_refuse_a_non_unitary_or_non_finite_u(monkeypatch):
    # the error is that of the first bad trial, in Circuit's words
    scaled = np.diag([1.0, 1.0, 1.0, 1.01]).astype(complex)
    nan = np.eye(4, dtype=complex)
    nan[1, 2] = np.nan
    for bad in ({2: scaled}, {2: nan}, {2: scaled, 4: nan}, {2: nan, 4: scaled}):
        tamper_qr(monkeypatch, bad)
        message = refusal(lambda: sim_equivalence(trials=5, seed=0))
        monkeypatch.undo()
        assert message == refusal(lambda: circuit_of(bad[2]))
    assert "not unitary (deviation 2.010e-02)" in refusal(lambda: circuit_of(scaled))
    assert "non-finite" in refusal(lambda: circuit_of(nan))


def test_the_stacked_checks_refuse_a_bad_state_or_weight(monkeypatch):
    # a subnormal squared norm leaves the state 6e-6 off norm 1
    tiny = [1e-160, 0.0, 0.0, 0.0]
    tiny_state = np.array([1e-160, 0.0]) + 0j
    tiny_state /= np.linalg.norm(tiny_state)
    cases = [
        (dict(normals=[np.nan, 0.0, 0.0, 0.0]), (np.array([np.nan, 0.0]),),
         "non-finite entries"),
        (dict(normals=tiny), (tiny_state,), "not normalized"),
        (dict(p0=1.5), (np.eye(2)[0], 1.5), "probability -0.5 must be positive"),
    ]
    for tampering, expected, words in cases:
        tamper_draws(monkeypatch, 3, **tampering)
        message = refusal(lambda: sim_equivalence(trials=5, seed=0))
        monkeypatch.undo()
        assert message == refusal(lambda: ensemble_of(*expected))
        assert words in message


def test_only_the_lowest_failing_trial_is_built(monkeypatch):
    # trial 1 draws a bad weight and trial 3 a non-unitary U: the weight,
    # the lowest failing trial over every kind, is the error, and no other
    # trial goes through Circuit and LabeledEnsemble
    scaled = np.diag([1.0, 1.0, 1.0, 1.01]).astype(complex)
    built = []
    build = experiments_module._instance
    monkeypatch.setattr(experiments_module, "_instance",
                        lambda *a: built.append(a) or build(*a))
    tamper_qr(monkeypatch, {3: scaled})
    tamper_draws(monkeypatch, 1, p0=0.0)
    message = refusal(lambda: sim_equivalence(trials=5, seed=0))
    monkeypatch.undo()
    assert len(built) == 1
    assert message == refusal(lambda: ensemble_of(np.eye(2)[0], 0.0))
    assert "probability 0.0 must be positive" in message
