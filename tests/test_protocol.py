"""Tests for labeled-ensemble protocols: discrimination, superposition,
linear simulation, Helstrom bound and computation tasks."""

import dataclasses
import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctcsim.circuit import (Circuit, Gate, build_bhw2, build_bhw_multi,
                            build_epr_swap, builtin_matrix, compile_unitary,
                            complete_unitary, pad_with_ancillas,
                            serialize_circuit)
from ctcsim.ctc import (SolverError, Superoperator, choi_matrix, ctc_evolve,
                        evolve_given_ctc_state, evolve_stack,
                        fixed_point_cesaro, fixed_point_exact, frozen_channel,
                        induced_superoperator, validate_superoperator)
from ctcsim import experiments
from ctcsim.experiments import random_instance, sim_equivalence
from ctcsim.oracle import fixed_point_bruteforce, random_density, random_unitary
from ctcsim.protocol import (SUCCESS_DISTANCE, ComputationTask,
                             DiscriminationOutcome, LabeledEnsemble,
                             evolve_pure, helstrom_bound, labeled_ensemble,
                             run_computation_mixture, run_discrimination,
                             run_superposition, simulate_without_ctc)
from ctcsim.qmat import (ValidationError, kron, mutual_information,
                         partial_trace, trace_distance, validate)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def proj(v):
    return np.outer(v, v.conj())


def basis(i, d):
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def uniform_ensemble(states):
    n = len(states)
    return labeled_ensemble([(i, 1.0 / n, s) for i, s in enumerate(states)])


# --- labeled ensembles -------------------------------------------------------

def test_ensemble_state_is_classical_quantum():
    ens, rho_ra = uniform_ensemble([KET0, KET1])
    assert isinstance(ens, LabeledEnsemble)
    assert ens.n == 2 and ens.a_dim == 2
    expected = (kron(proj(basis(0, 2)), proj(KET0))
                + kron(proj(basis(1, 2)), proj(KET1))) / 2
    assert np.allclose(rho_ra, expected)
    assert abs(mutual_information(rho_ra, (2, 2)) - 1.0) < 1e-12


def test_single_entry_ensemble_is_pure_marginal():
    ens, rho_ra = labeled_ensemble([(0, 1.0, PLUS)])
    assert ens.n == 1
    assert np.allclose(partial_trace(rho_ra, (1, 2), keep=[1]), proj(PLUS))


def test_zero_plus_marginal():
    _, rho_ra = uniform_ensemble([KET0, PLUS])
    marginal = partial_trace(rho_ra, (2, 2), keep=[1])
    assert np.allclose(marginal, [[0.75, 0.25], [0.25, 0.25]])


def test_duplicate_states_allowed():
    ens, _ = uniform_ensemble([PLUS, PLUS])
    assert ens.n == 2


@pytest.mark.parametrize("build", [lambda entries: labeled_ensemble(entries)[0],
                                   LabeledEnsemble],
                         ids=["labeled_ensemble", "constructor"])
def test_ensemble_validation(build):
    with pytest.raises(ValidationError):
        build([])
    with pytest.raises(ValidationError):
        build([(0, 0.5, KET0), (2, 0.5, KET1)])  # gap in labels
    with pytest.raises(ValidationError):
        build([(0, 0.5, KET0), (0, 0.5, KET1)])  # duplicate label
    with pytest.raises(ValidationError):
        build([(0, 0.6, KET0), (1, 0.6, KET1)])  # sum > 1
    with pytest.raises(ValidationError):
        build([(0, 1.0, 2 * KET0)])  # not normalized
    with pytest.raises(ValidationError):
        build([(0, 1.0, np.array([np.nan, 0.0]))])  # not finite
    with pytest.raises(ValidationError):
        build([(0, 0.0, KET0), (1, 1.0, KET1)])  # zero weight
    with pytest.raises(ValidationError, match="nan"):
        build([(0, np.nan, KET0)])  # weight not a number
    with pytest.raises(ValidationError):
        build([(0, 0.5, KET0), (1, 0.5, basis(1, 3))])  # mixed dims
    with pytest.raises(ValidationError, match=r"must be \(label, probability"):
        build([(0, 1.0)])
    with pytest.raises(ValidationError, match="label must be an integer >= 0, got 0.5"):
        build([(0.5, 1.0, KET0)])
    with pytest.raises(ValidationError, match="label 0: state must be a vector"):
        build([(0, 1.0, proj(KET0))])
    # list states are stored as complex vectors
    ensemble = build([(1, 0.5, [0, 1]), (0, 0.5, [1, 0])])
    assert [(lbl, v.dtype) for lbl, _, v in ensemble.by_label()] == [
        (0, np.complex128), (1, np.complex128)]


@pytest.mark.parametrize("states, words", [
    ([KET0, 2 * KET1, np.array([np.nan, 0.0])], "label 1: state not normalized"),
    ([np.array([np.inf, 0.0]), 2 * KET1], "label 0: state has non-finite entries"),
    ([KET0, 2 * basis(1, 3)], "label 1: state not normalized"),  # before the dims
])
def test_the_first_bad_state_is_the_error(states, words):
    # states of one dimension are checked as one stack, a ragged set one at a
    # time; either way the first bad state is reported, in _as_states' words
    with pytest.raises(ValidationError, match=words):
        LabeledEnsemble([(k, 1 / len(states), v) for k, v in enumerate(states)])
    name = words.replace("label ", "states[").replace(": state", "]")
    with pytest.raises(ValidationError, match=re.escape(name)):
        build_bhw_multi(states)


@pytest.mark.parametrize("call, words", [
    (lambda: LabeledEnsemble([5]), "entries must be a sequence"),
    (lambda: LabeledEnsemble(None), "entries must be a sequence"),
    (lambda: build_bhw_multi(5), "states must be a sequence"),
    (lambda: ComputationTask(domain_size="3", truth_table=(0, 1, 1),
                             circuit=build_bhw_multi([KET0, KET1])),
     "domain_size must be an integer >= 1, got '3'"),
    (lambda: Circuit(cr_dims=5, ctc_dims=(2,)),
     re.escape("$.cr_dims: expected a sequence, got int")),
    (lambda: Circuit(cr_dims=(2,), ctc_dims=(2,), gates=5),
     re.escape("$.gates: expected a sequence, got int")),
    (lambda: Circuit(cr_dims=(2,), ctc_dims=(2,), labels=5),
     re.escape("$.labels: expected a sequence, got int")),
    (lambda: Gate("u", 5), re.escape("$.wires: expected a sequence, got int")),
    (lambda: Circuit(cr_dims=(2,), ctc_dims=(2,), gates=[5]),
     re.escape("$.gates[0]: expected a Gate, got int")),
    (lambda: ComputationTask(3, 5, build_bhw_multi([KET0, KET1])),
     "truth_table must be a sequence of integers"),
    (lambda: ComputationTask(1, (0,), None), "circuit must be a Circuit, got NoneType"),
    (lambda: pad_with_ancillas([1, 0], 0), "dimension-2 state to dimension 0$"),
    (lambda: pad_with_ancillas([1, 0], -2), "dimension-2 state to dimension -2$"),
    (lambda: random_density(True, 0), "dimension must be an integer >= 1, got True"),
    (lambda: random_unitary(2.0, 0), r"must be an integer >= 1, got 2\.0"),
    (lambda: Superoperator("2", np.eye(4)), "d_ctc must be an integer >= 1, got '2'"),
    (lambda: Superoperator(2.5, np.eye(4)), r"d_ctc must be an integer >= 1, got 2\.5"),
    (lambda: induced_superoperator(np.eye(4), np.eye(2) / 2, None, (2,)),
     re.escape("$.cr_dims: expected a sequence, got NoneType")),
    (lambda: fixed_point_exact(None),
     "loop map must be a Superoperator, got NoneType"),
    (lambda: fixed_point_cesaro(None),
     "loop map must be a Superoperator, got NoneType"),
    (lambda: ctc_evolve(None, np.eye(2) / 2),
     "circuit must be a Circuit, got NoneType"),
    (lambda: complete_unitary(5, 2),
     re.escape("$.constraints: expected a sequence, got int")),
    (lambda: complete_unitary([(1,)], 2),
     r"each constraint must be a pair \(input, output\)"),
    (lambda: complete_unitary([(KET0, KET0)], 2.0),
     r"dimension must be an integer >= 1, got 2\.0"),
    (lambda: random_density(2, -1), "bad seed -1: expected non-negative integer"),
    (lambda: run_discrimination(build_bhw2(PLUS), None),
     "ensemble must be a LabeledEnsemble, got NoneType"),
    (lambda: run_superposition(None, labeled_ensemble([(0, 1.0, KET0)])[0]),
     "circuit must be a Circuit, got NoneType"),
    (lambda: helstrom_bound(None), "ensemble must be a LabeledEnsemble, got NoneType"),
    (lambda: fixed_point_bruteforce(None, np.eye(2) / 2),
     "circuit must be a Circuit, got NoneType"),
    (lambda: Gate(None, (0,), np.eye(2)), re.escape("$.name: expected a string")),
    (lambda: evolve_given_ctc_state(np.eye(4), np.eye(3) / 3, np.eye(2) / 2, 2, 2),
     re.escape("rho_cr shape (3, 3), expected (2, 2)")),
    (lambda: evolve_given_ctc_state(np.eye(4), np.eye(2) / 2, np.eye(3) / 3, 2, 3),
     re.escape("u shape (4, 4), expected (6, 6)")),
    (lambda: evolve_given_ctc_state(np.eye(4), np.eye(2) / 2, np.eye(3) / 3, 2, 2),
     re.escape("sigma shape (3, 3), expected (2, 2)")),
    (lambda: evolve_given_ctc_state(np.eye(4), np.eye(2) / 2, np.eye(2) / 2, 2.0, 2),
     r"cr_dim must be an integer >= 1, got 2\.0"),
    (lambda: evolve_given_ctc_state(np.eye(4), [[1, "a"]], np.eye(2) / 2, 2, 2),
     "rho_cr: not an array of numbers"),
    (lambda: induced_superoperator(np.eye(4), np.eye(2) / 2, (2.5,), (2,)),
     r"cr_dims\[0\] must be an integer >= 1, got 2\.5"),
    (lambda: induced_superoperator(np.eye(4), np.eye(2) / 2, (True, 2), (2,)),
     r"cr_dims\[0\] must be an integer >= 1, got True"),
    (lambda: induced_superoperator(np.eye(4), np.eye(2) / 2, (2,), (2.0,)),
     r"ctc_dims\[0\] must be an integer >= 1, got 2\.0"),
    (lambda: fixed_point_bruteforce(build_epr_swap(), np.eye(4) / 4, trials=2.5),
     r"trials must be an integer >= 1, got 2\.5"),
    (lambda: fixed_point_bruteforce(build_epr_swap(), np.eye(4) / 4, trials=True),
     "trials must be an integer >= 1, got True"),
    (lambda: fixed_point_bruteforce(build_epr_swap(), np.eye(4) / 4, trials="3"),
     "trials must be an integer >= 1, got '3'"),
    (lambda: fixed_point_bruteforce(build_epr_swap(), np.eye(4) / 4, iters=2.5),
     r"iters must be an integer >= 1, got 2\.5"),
    (lambda: fixed_point_bruteforce(build_epr_swap(), np.eye(4) / 4, iters=0),
     "iters must be an integer >= 1, got 0"),
    (lambda: sim_equivalence(trials=2.5), r"trials must be in 1\.\.10000, got 2\.5"),
    (lambda: sim_equivalence(seed=-1), "seed must be an integer >= 0, got -1"),
    (lambda: sim_equivalence(seed=1.5), r"seed must be an integer >= 0, got 1\.5"),
    (lambda: random_instance(0, -1), "first must be an integer >= 0, got -1"),
    (lambda: fixed_point_cesaro(Superoperator(1, np.eye(1)), max_iter="x"),
     "max_iter must be an integer >= 1, got 'x'"),
    (lambda: compile_unitary(5), "circuit must be a Circuit, got int"),
    (lambda: serialize_circuit(5), "circuit must be a Circuit, got int"),
    (lambda: choi_matrix(5), "map must be a Superoperator, got int"),
    (lambda: validate_superoperator(5), "map must be a Superoperator, got int"),
    (lambda: experiments.mixture(theta="0.5"), r"--theta must be in \(0, pi/2\)"),
    (lambda: experiments.mixture(probs="0.5"), r"--probs must be in \(0, 1\)"),
    (lambda: experiments.superposition(theta="0.5"), r"--theta must be in"),
    (lambda: experiments.superposition(probs="0.5"), r"--probs must be in"),
    (lambda: experiments.bhw2(theta="0.5"), r"--theta must be in"),
    (lambda: validate(np.eye(2), ["density"]), r"unknown validation kind \['density'\]"),
    (lambda: builtin_matrix("swap", 5), "swap needs two wires of equal dimension, got 5"),
    (lambda: experiments.mixture(sweep=5),
     "--sweep must look like theta=START:STOP:STEP, got '5'"),
    (lambda: experiments.mixture(sweep=b"theta=0.1:0.2:0.1"),
     "--sweep must look like theta=START:STOP:STEP"),
], ids=["ensemble-entry-int", "ensemble-none", "bhw-multi-int", "task-str-domain",
        "circuit-int-dims", "circuit-int-gates", "circuit-int-labels", "gate-int-wires",
        "circuit-int-gate", "task-int-table", "task-no-circuit", "pad-to-zero",
        "pad-to-negative", "density-bool-dim", "unitary-float-dim", "superop-str-dim",
        "superop-float-dim", "induced-no-dims", "exact-no-map", "cesaro-no-map",
        "evolve-no-circuit", "completion-int-constraints", "completion-short-pair",
        "completion-float-dim", "density-negative-seed", "discrimination-no-ensemble",
        "superposition-no-circuit", "helstrom-no-ensemble", "oracle-no-circuit",
        "gate-no-name", "fixed-state-rho-dim", "fixed-state-u-dim",
        "fixed-state-sigma-dim", "fixed-state-float-dim", "fixed-state-text-entry",
        "induced-float-dim", "induced-bool-dim", "induced-integral-float-dim",
        "oracle-float-trials", "oracle-bool-trials", "oracle-str-trials",
        "oracle-float-iters", "oracle-zero-iters",
        "sim-equivalence-float-trials", "sim-equivalence-negative-seed",
        "sim-equivalence-float-seed", "instance-negative-trial", "cesaro-str-max-iter",
        "compile-int", "serialize-int", "choi-int", "validate-superop-int",
        "mixture-str-theta", "mixture-str-probs", "superposition-str-theta",
        "superposition-str-probs", "bhw2-str-theta", "validate-list-kind",
        "swap-int-dims", "mixture-int-sweep", "mixture-bytes-sweep"])
def test_a_non_sequence_or_non_integer_argument_is_a_validation_error(call, words):
    with pytest.raises(ValidationError, match=words):
        call()


def test_a_norm_that_overflows_is_refused_without_a_warning():
    # finite entries whose squared norm overflows: the suite turns any
    # RuntimeWarning into an error, so the refusal must come first and alone
    with pytest.raises(ValidationError, match=re.escape("psi not normalized (norm inf)")):
        build_bhw2([1e200, 1e200])


# --- discrimination ----------------------------------------------------------

def test_bhw2_mixture_fails_even_for_orthogonal_pair():
    # the discriminator swaps the fixed point onto the output register, so a
    # labeled mixture loses all label correlation even when the two states
    # are orthogonal; only the separate pure runs read out correctly
    circuit = build_bhw2(KET1)
    ens, _ = uniform_ensemble([KET0, KET1])
    outcome = run_discrimination(circuit, ens)
    assert isinstance(outcome, DiscriminationOutcome)
    assert not outcome.success
    assert abs(outcome.success_prob - 0.5) < 1e-9
    assert outcome.mutual_info_bits < 1e-9
    for label, out in outcome.per_pure_outputs:
        assert trace_distance(out, proj(basis(label, 2))) < 1e-9


def test_bhw2_fails_on_labeled_mixture():
    # uniform {|0>, |+>}: each pure input maps to its basis tag, but the
    # labeled mixture leaves the output uncorrelated with the label
    circuit = build_bhw2(PLUS)
    ens, _ = uniform_ensemble([KET0, PLUS])
    outcome = run_discrimination(circuit, ens)
    assert outcome.mutual_info_bits < 1e-9
    assert outcome.product_distance < 1e-9
    assert not outcome.success
    assert abs(outcome.success_prob - 0.5) < 1e-9
    for label, out in outcome.per_pure_outputs:
        assert trace_distance(out, proj(basis(label, 2))) < 1e-9


def test_per_pure_outputs_align_with_labels():
    circuit = build_bhw2(PLUS)
    ens, _ = uniform_ensemble([KET0, PLUS])
    outcome = run_discrimination(circuit, ens)
    assert [label for label, _ in outcome.per_pure_outputs] == [0, 1]


def test_identity_circuit_keeps_label_correlation():
    # a do-nothing circuit on A leaves the classical copy in R intact, so
    # orthogonal inputs stay perfectly distinguishable
    circuit = Circuit(cr_dims=(2,), ctc_dims=(2,), gates=())
    ens, _ = uniform_ensemble([KET0, KET1])
    outcome = run_discrimination(circuit, ens)
    assert outcome.success
    assert abs(outcome.mutual_info_bits - 1.0) < 1e-9


def test_four_state_pairwise_outputs():
    states = [KET0, KET1, PLUS, MINUS]
    circuit = build_bhw_multi(states)
    padded = [pad_with_ancillas(s, circuit.cr_dim) for s in states]
    ens, _ = uniform_ensemble(padded)
    outcome = run_discrimination(circuit, ens)
    outs = [out for _, out in outcome.per_pure_outputs]
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(trace_distance(outs[i], outs[j]) - 1.0) < 1e-9


@pytest.mark.parametrize("selection", ["canonical", "max_entropy"])
@pytest.mark.parametrize("case", ["bhw2", "bhw4"])
def test_evolve_pure_is_ctc_evolve_on_each_state(case, selection):
    # the pure-input runs of bhw2, bhw4 and every discrimination, as one
    # stack: each item's output and sigma are ctc_evolve's, to the bit
    if case == "bhw2":
        psi = np.array([np.cos(0.3), np.sin(0.3)], dtype=complex)
        circuit, states = build_bhw2(psi), [KET0, psi]
    else:
        circuit = build_bhw_multi([KET0, KET1, PLUS, MINUS])
        states = [pad_with_ancillas(v, circuit.cr_dim) for v in (KET0, KET1, PLUS, MINUS)]
    outs, fps = evolve_pure(compile_unitary(circuit), np.array(states),
                            circuit.ctc_dim, selection)
    assert len(outs) == len(fps) == len(states)
    for vec, out, fp in zip(states, outs, fps):
        want_out, want_fp = ctc_evolve(circuit, proj(vec), selection)
        assert out.tobytes() == want_out.tobytes()
        assert fp.sigma.tobytes() == want_fp.sigma.tobytes()
        assert (fp.residual, fp.selection) == (want_fp.residual, want_fp.selection)


def count_calls(monkeypatch, names, stacked=()):
    """Count calls to each ctcsim function in `names`, wrapped in every
    loaded ctcsim module that holds it. A name in `stacked` counts the
    items of the stack it takes as its second argument instead."""
    calls = Counter()
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "ctcsim"]
    for name in names:
        home = next(m for m in modules if hasattr(m, name))
        original = getattr(home, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += len(args[1]) if _name in stacked else 1
            return _fn(*args, **kwargs)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_each_run_compiles_once_and_trusts_the_compile(monkeypatch):
    # the circuit and ensemble are built, and their gates checked, up front
    circuit = build_bhw2(PLUS)
    ens, _ = uniform_ensemble([KET0, PLUS])
    calls = count_calls(monkeypatch,
                        ("compile_unitary", "_check_gate", "require_unitary"))
    for run in (run_discrimination, run_superposition, simulate_without_ctc):
        calls.clear()
        run(circuit, ens)
        assert dict(calls) == {"compile_unitary": 1}, run.__name__
    calls.clear()
    ctc_evolve(circuit, proj(PLUS))
    assert dict(calls) == {"compile_unitary": 1}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_joint_unitary_is_the_compile_with_an_idle_r_wire(n):
    # I_R (x) U equals the compile of the circuit with R prepended as wire 0
    rng = np.random.default_rng(53)
    qutrit = Circuit(cr_dims=(3,), ctc_dims=(2,),
                     gates=(Gate("v", (1, 0), random_unitary(6, rng)),
                            Gate("h", (1,))))
    circuits = [build_bhw2(PLUS), build_bhw_multi([KET0, KET1, PLUS, MINUS]),
                build_bhw_multi([basis(x, 4) for x in range(4)]),
                build_epr_swap(), qutrit]
    for v in circuits:
        if n == 1:  # a one-dimensional R is implicit, never a declared wire
            shifted = v
        else:
            shifted = Circuit(
                cr_dims=(n,) + v.cr_dims, ctc_dims=v.ctc_dims,
                gates=tuple(Gate(g.name, tuple(w + 1 for w in g.wires),
                                 g.matrix) for g in v.gates))
        assert np.array_equal(np.kron(np.eye(n), compile_unitary(v)),
                              compile_unitary(shifted))


def test_discrimination_dimension_mismatch():
    circuit = build_bhw2(PLUS)
    ens, _ = uniform_ensemble([basis(0, 3), basis(1, 3)])
    with pytest.raises(ValidationError):
        run_discrimination(circuit, ens)


def test_success_requires_room_for_labels():
    # three labels cannot be read out of a 2-dimensional output register
    circuit = build_bhw2(PLUS)
    ens, _ = uniform_ensemble([KET0, KET1, PLUS])
    with pytest.raises(ValidationError):
        run_discrimination(circuit, ens)


def test_mixture_output_is_product_for_uniform_families():
    # once the time-machine state is fixed by the mixture, the joint output
    # factorizes into (label marginal) x (common output state)
    thetas = [0.3, 0.8, 1.2]
    for theta in thetas:
        psi = np.cos(theta) * KET0 + np.sin(theta) * KET1
        circuit = build_bhw2(psi)
        for p0 in (0.25, 0.5, 0.75):
            ens, _ = labeled_ensemble([(0, p0, KET0), (1, 1 - p0, psi)])
            outcome = run_discrimination(circuit, ens)
            assert outcome.product_distance < 1e-9
            assert outcome.mutual_info_bits < 1e-9
    states = [KET0, KET1, PLUS, MINUS]
    circuit = build_bhw_multi(states)
    padded = [pad_with_ancillas(s, circuit.cr_dim) for s in states]
    ens, _ = uniform_ensemble(padded)
    outcome = run_discrimination(circuit, ens)
    assert outcome.product_distance < 1e-9


def test_output_weights_enter_nonlinearly():
    # swapping the ensemble weights 3/4 <-> 1/4 moves the output register by
    # a full 0.5 in trace distance: the channel the mixture experiences is
    # itself set by the mixture
    circuit = build_bhw2(PLUS)
    ens_a, _ = labeled_ensemble([(0, 0.75, KET0), (1, 0.25, PLUS)])
    ens_b, _ = labeled_ensemble([(0, 0.25, KET0), (1, 0.75, PLUS)])
    out_a = run_discrimination(circuit, ens_a)
    out_b = run_discrimination(circuit, ens_b)
    a_a = partial_trace(out_a.rho_out, (2, 2), keep=[1])
    a_b = partial_trace(out_b.rho_out, (2, 2), keep=[1])
    assert trace_distance(a_a, np.diag([0.75, 0.25])) < 1e-9
    assert trace_distance(a_b, np.diag([0.25, 0.75])) < 1e-9
    gap = trace_distance(a_a, a_b)
    assert gap > 1e-3
    assert abs(gap - 0.5) < 1e-9


# --- superposed labels -------------------------------------------------------

def test_superposition_also_defeats_discrimination():
    circuit = build_bhw2(PLUS)
    ens, _ = uniform_ensemble([KET0, PLUS])
    outcome = run_superposition(circuit, ens)
    assert outcome.mutual_info_bits < 1e-6
    assert not outcome.success


def test_superposition_single_entry_matches_pure_run():
    circuit = build_bhw2(PLUS)
    ens, _ = labeled_ensemble([(0, 1.0, PLUS)])
    sup = run_superposition(circuit, ens)
    mix = run_discrimination(circuit, ens)
    assert trace_distance(sup.rho_out, mix.rho_out) < 1e-12


def test_superposition_through_bare_swap():
    # sqrt(1/2)(|0>|0> + |1>|1>) with A swapped into the time machine: the
    # fixed point is I/2 and the R-A entanglement is fully broken
    circuit = Circuit(cr_dims=(2,), ctc_dims=(2,),
                      gates=(Gate("swap", (0, 1), None),))
    ens, _ = uniform_ensemble([KET0, KET1])
    outcome = run_superposition(circuit, ens)
    assert trace_distance(outcome.rho_out,
                          np.eye(4, dtype=complex) / 4) < 1e-9
    assert outcome.mutual_info_bits < 1e-9
    assert outcome.product_distance < 1e-9


def test_superposition_validates_dimensions():
    circuit = build_bhw2(PLUS)
    ens, _ = uniform_ensemble([basis(0, 3), basis(1, 3)])
    with pytest.raises(ValidationError):
        run_superposition(circuit, ens)


# --- simulation without the time machine -------------------------------------

def test_simulation_reproduces_mixture_run():
    circuit = build_bhw2(PLUS)
    ens, _ = uniform_ensemble([KET0, PLUS])
    real = run_discrimination(circuit, ens)
    sim = simulate_without_ctc(circuit, ens)
    assert trace_distance(real.rho_out, sim.rho_out) < 1e-8
    assert abs(real.mutual_info_bits - sim.mutual_info_bits) < 1e-8
    assert abs(real.success_prob - sim.success_prob) < 1e-8
    # the linear stand-in keeps the channel frozen, so its per-state outputs
    # need not match the per-state runs with their own fixed points; only
    # the labels line up
    assert ([label for label, _ in sim.per_pure_outputs]
            == [label for label, _ in real.per_pure_outputs])


def test_simulation_of_disentangler():
    circuit = build_epr_swap()
    bell = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
    ens, _ = labeled_ensemble([(0, 1.0, bell)])
    sim = simulate_without_ctc(circuit, ens)
    a_out = partial_trace(sim.rho_out, (1, 4), keep=[1])
    assert trace_distance(a_out, np.eye(4) / 4) < 1e-9


def test_simulation_matches_on_random_instances():
    for trial in range(10):
        rng = np.random.default_rng([101, trial])
        u = random_unitary(4, rng)
        circuit = Circuit(cr_dims=(2,), ctc_dims=(2,),
                          gates=(Gate("v", (0, 1), u),))
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s0, s1 = g[0] / np.linalg.norm(g[0]), g[1] / np.linalg.norm(g[1])
        p0 = rng.uniform(0.1, 0.9)
        ens, _ = labeled_ensemble([(0, p0, s0), (1, 1 - p0, s1)])
        real = run_discrimination(circuit, ens)
        sim = simulate_without_ctc(circuit, ens)
        assert trace_distance(real.rho_out, sim.rho_out) < 1e-8


def test_simulation_matches_three_label_run_on_mixed_dims():
    rng = np.random.default_rng(47)
    circuit = Circuit(cr_dims=(3,), ctc_dims=(2,),
                      gates=(Gate("v", (1, 0), random_unitary(6, rng)),))
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    states = [row / np.linalg.norm(row) for row in g]
    ens, _ = labeled_ensemble([(0, 0.5, states[0]), (1, 0.3, states[1]),
                               (2, 0.2, states[2])])
    real = run_discrimination(circuit, ens)
    sim = simulate_without_ctc(circuit, ens)
    assert np.abs(real.rho_out - sim.rho_out).max() < 1e-10
    # the frozen channel is linear: its per-label outputs mix to A's marginal
    mixed = sum(p * out for (_, p, _), (_, out)
                in zip(ens.by_label(), sim.per_pure_outputs))
    assert np.abs(mixed - partial_trace(sim.rho_out, (3, 3), keep=[1])).max() < 1e-12


def test_simulation_freezes_the_loop_state_of_the_mixture_run():
    # the loop-free channel uses the loop's own sigma, not a re-derived one
    rng = np.random.default_rng(47)
    qutrit = Circuit(cr_dims=(3,), ctc_dims=(2,),
                     gates=(Gate("v", (1, 0), random_unitary(6, rng)),))
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ens3, _ = labeled_ensemble([(i, p, row / np.linalg.norm(row)) for i, p, row
                                in zip(range(3), (0.5, 0.3, 0.2), g)])
    bell = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
    cases = [(build_bhw2(PLUS), uniform_ensemble([KET0, PLUS])[0]),
             (qutrit, ens3),
             (build_epr_swap(), labeled_ensemble([(0, 1.0, bell)])[0])]
    for circuit, ens in cases:
        for selection in ("canonical", "max_entropy"):
            real = run_discrimination(circuit, ens, selection)
            sim = simulate_without_ctc(circuit, ens, selection)
            assert np.array_equal(sim.fixed_point.sigma,
                                  real.fixed_point.sigma)


def test_simulation_and_sim_equivalence_build_only_what_they_use(monkeypatch):
    # the simulation solves the loop on Tr_R rho_RA alone and never builds
    # the joint output (the frozen channel on R (x) A blocks); sim-equivalence
    # builds the rho_RA of its trials once, as one stack, for the loop and
    # output, and its joint output and components are one stacked call each
    circuit, ens = random_instance(0, 0)
    names = ("evolve_stack", "frozen_channel")
    calls = count_calls(monkeypatch, names + ("labeled_mixture",), stacked=names)
    simulate_without_ctc(circuit, ens)
    assert dict(calls) == {"labeled_mixture": 1, "evolve_stack": 1,
                           "frozen_channel": 1}
    calls.clear()
    stacks = count_calls(monkeypatch, names)
    sim_equivalence(trials=3, seed=0)
    assert dict(calls) == {"labeled_mixture": 1, "evolve_stack": 3,
                           "frozen_channel": 6}
    assert dict(stacks) == {"evolve_stack": 1, "frozen_channel": 2}


def test_broken_output_is_a_solver_error_with_and_without_the_loop(monkeypatch):
    # twice sigma gives outputs of trace 2, a numerical breakdown stand-in:
    # first in the loop runs' outputs (n = 1 and the R (x) A blocks), then
    # only in the fixed-point records, which the simulation freezes
    import ctcsim.ctc as ctc_mod
    fixed_points = ctc_mod._fixed_points

    def doubled_stack(*args):
        sigma, fps = fixed_points(*args)
        return 2 * sigma, fps

    def doubled_records(*args):
        sigma, fps = fixed_points(*args)
        return sigma, [dataclasses.replace(fp, sigma=2 * fp.sigma) for fp in fps]

    circuit = build_bhw2(PLUS)
    ens, _ = uniform_ensemble([KET0, PLUS])
    monkeypatch.setattr(ctc_mod, "_fixed_points", doubled_stack)
    with pytest.raises(SolverError, match="failed validation"):
        ctc_evolve(circuit, proj(PLUS))
    with pytest.raises(SolverError, match="failed validation"):
        run_discrimination(circuit, ens)
    monkeypatch.setattr(ctc_mod, "_fixed_points", doubled_records)
    ctc_evolve(circuit, proj(PLUS))
    with pytest.raises(SolverError, match="failed validation"):
        simulate_without_ctc(circuit, ens)


# --- the loop sees only Tr_R rho_RA -------------------------------------------

def lifted_reference(circuit, ens):
    """(sigma, rho_out) of the mixture run, the superposition run and the
    loop-free simulation, each solved on the whole R (x) A register under
    I_R (x) U with public functions only."""
    n, d, dc = ens.n, circuit.cr_dim, circuit.ctc_dim
    u = np.kron(np.eye(n), compile_unitary(circuit))

    def loop(rho):
        fp = fixed_point_exact(induced_superoperator(u, rho, (n * d,), (dc,)))
        return fp.sigma, evolve_given_ctc_state(u, rho, fp.sigma, n * d, dc)

    parts = [(p, kron(proj(basis(x, n)), proj(v))) for x, p, v in ens.by_label()]
    sigma, mixture = loop(sum(p * part for p, part in parts))
    gamma = sum(np.sqrt(p) * np.kron(basis(x, n), v) for x, p, v in ens.by_label())
    simulated = sum(p * evolve_given_ctc_state(u, part, sigma, n * d, dc)
                    for p, part in parts)
    return {run_discrimination: (sigma, mixture),
            run_superposition: loop(proj(gamma)),
            simulate_without_ctc: (sigma, simulated)}


def qutrit_case():
    rng = np.random.default_rng(47)
    circuit = Circuit(cr_dims=(3,), ctc_dims=(2,),
                      gates=(Gate("v", (1, 0), random_unitary(6, rng)),))
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return circuit, labeled_ensemble([(i, p, row / np.linalg.norm(row)) for i, p, row
                                      in zip(range(3), (0.5, 0.3, 0.2), g)])[0]


def epr_case():
    bell = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
    return build_epr_swap(), labeled_ensemble([(0, 1.0, bell)])[0]


LIFT_CASES = {**{f"random-{t}": lambda t=t: random_instance(0, t) for t in range(5)},
              "qutrit-n3": qutrit_case, "epr-n1": epr_case}


@pytest.mark.parametrize("case", list(LIFT_CASES))
def test_marginal_solve_matches_the_lifted_loop(case):
    # every protocol solves its loop on Tr_R rho_RA and applies the frozen
    # channel blockwise; the lift I_R (x) U must give the same states
    circuit, ens = LIFT_CASES[case]()
    for run, (sigma, rho_out) in lifted_reference(circuit, ens).items():
        outcome = run(circuit, ens)
        assert np.abs(outcome.fixed_point.sigma - sigma).max() <= 1e-12, run.__name__
        assert np.abs(outcome.rho_out - rho_out).max() <= 1e-12, run.__name__


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(0, 1),
       st.integers(2, 3))
def test_labels_never_reach_the_loop(seed, n, extra, dc):
    # BLSS: the labeled mixture, the superposition and the unlabeled mixture
    # sum_x p_x phi_x hand the loop one rho_A, so they share one sigma
    d = max(n, 2) + extra
    rng = np.random.default_rng(seed)
    circuit = Circuit(cr_dims=(d,), ctc_dims=(dc,),
                      gates=(Gate("v", (0, 1), random_unitary(d * dc, rng)),))
    g = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    states = [row / np.linalg.norm(row) for row in g]
    probs = rng.dirichlet(np.ones(n))
    ens, _ = labeled_ensemble(list(zip(range(n), probs, states)))
    mixture = run_discrimination(circuit, ens).fixed_point
    simulated = simulate_without_ctc(circuit, ens).fixed_point
    assert np.array_equal(simulated.sigma, mixture.sigma)
    assert simulated.residual == mixture.residual
    _, unlabeled = ctc_evolve(circuit, sum(p * proj(v) for p, v in zip(probs, states)))
    superposed = run_superposition(circuit, ens).fixed_point
    for fp in (unlabeled, superposed):
        assert np.abs(fp.sigma - mixture.sigma).max() <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.integers(1, 3),
       st.sampled_from([2, 3]), st.booleans())
def test_stacked_evolve_matches_the_lifted_loop_per_item(seed, b, n, d, superposed):
    # the sim-equivalence shape: B loops under their own U on R (x) A inputs,
    # block-diagonal (labeled mixtures) or pure (superpositions), in one call
    rng = np.random.default_rng(seed)
    items = []
    for _ in range(b):
        circuit = Circuit(cr_dims=(d,), ctc_dims=(2,),
                          gates=(Gate("v", (0, 1), random_unitary(2 * d, rng)),))
        g = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
        ens, rho_ra = labeled_ensemble(list(zip(
            range(n), rng.dirichlet(np.ones(n)),
            (row / np.linalg.norm(row) for row in g))))
        if superposed:
            rho_ra = proj(np.concatenate([np.sqrt(p) * v
                                          for _, p, v in ens.by_label()]))
        items.append((circuit, ens, rho_ra))
    u = np.stack([compile_unitary(circuit) for circuit, _, _ in items])
    outs, fps = evolve_stack(u, np.stack([rho for _, _, rho in items]), d, 2,
                             "canonical")
    run = run_superposition if superposed else run_discrimination
    for (circuit, ens, _), out, fp in zip(items, outs, fps):
        sigma, rho_out = lifted_reference(circuit, ens)[run]
        assert np.abs(fp.sigma - sigma).max() <= 1e-10
        assert np.abs(out - rho_out).max() <= 1e-10
    # the frozen channel takes u and sigma per item or shared alike
    sigma = np.stack([fp.sigma for fp in fps])
    x = np.stack([[random_density(d, rng) for _ in range(2)] for _ in range(b)])
    per_item, shared_u = frozen_channel(u, x, sigma, d, 2), frozen_channel(
        u[0], x, sigma, d, 2)
    for i in range(b):
        for got, u_i in ((per_item, u[i]), (shared_u, u[0])):
            want = frozen_channel(u_i, x[i:i + 1], sigma[i], d, 2)[0]
            assert np.abs(got[i] - want).max() <= 1e-12
            for x_k, got_k in zip(x[i], got[i]):
                assert np.abs(got_k - evolve_given_ctc_state(
                    u_i, x_k, sigma[i], d, 2)).max() <= 1e-12


def test_sixteen_haar_states_in_dimension_sixteen():
    # beyond toy size: the lift would need a 4096-square U, the marginal
    # solve a 256-square one
    states = [random_unitary(16, [16, x])[:, 0] for x in range(16)]
    circuit = build_bhw_multi(states)
    ens, _ = uniform_ensemble(states)
    outcome = run_discrimination(circuit, ens)
    assert not outcome.success
    for label, out in outcome.per_pure_outputs:
        assert trace_distance(out, proj(basis(label, 16))) <= SUCCESS_DISTANCE


# --- Helstrom bound ----------------------------------------------------------

def test_helstrom_orthogonal_pair():
    ens, _ = uniform_ensemble([KET0, KET1])
    assert abs(helstrom_bound(ens) - 1.0) < 1e-12


def test_helstrom_identical_pair():
    ens, _ = uniform_ensemble([PLUS, PLUS])
    assert abs(helstrom_bound(ens) - 0.5) < 1e-12


def test_helstrom_zero_plus():
    ens, _ = uniform_ensemble([KET0, PLUS])
    assert abs(helstrom_bound(ens) - 0.8535533905932737) < 1e-12


def test_helstrom_needs_exactly_two_entries():
    ens, _ = labeled_ensemble([(0, 1.0, KET0)])
    with pytest.raises(ValidationError):
        helstrom_bound(ens)
    ens3, _ = uniform_ensemble([KET0, KET1, PLUS])
    with pytest.raises(ValidationError):
        helstrom_bound(ens3)


def test_linear_channel_cannot_beat_helstrom():
    # the CTC-free simulation is an ordinary quantum channel, so its success
    # probability must respect the two-state distinguishability bound
    circuit = build_bhw2(PLUS)
    ens, _ = uniform_ensemble([KET0, PLUS])
    sim = simulate_without_ctc(circuit, ens)
    assert sim.success_prob <= helstrom_bound(ens) + 1e-9
    for trial in range(20):
        rng = np.random.default_rng([202, trial])
        u = random_unitary(4, rng)
        c = Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(Gate("v", (0, 1), u),))
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        s0, s1 = g[0] / np.linalg.norm(g[0]), g[1] / np.linalg.norm(g[1])
        p0 = rng.uniform(0.1, 0.9)
        e, _ = labeled_ensemble([(0, p0, s0), (1, 1 - p0, s1)])
        sim = simulate_without_ctc(c, e)
        assert sim.success_prob <= helstrom_bound(e) + 1e-9


# --- computation on labeled mixtures ------------------------------------------

def test_computation_task_validation():
    circuit = build_bhw_multi([basis(i, 4) for i in range(4)])
    ComputationTask(domain_size=4, truth_table=(0, 1, 2, 3), circuit=circuit)
    with pytest.raises(ValidationError):
        ComputationTask(domain_size=4, truth_table=(0, 1, 2), circuit=circuit)
    with pytest.raises(ValidationError):
        ComputationTask(domain_size=4, truth_table=(0, 1, 2, 4),
                        circuit=circuit)
    with pytest.raises(ValidationError):
        ComputationTask(domain_size=0, truth_table=(), circuit=circuit)
    with pytest.raises(ValidationError,
                       match=r"truth_table\[3\] must be an integer >= 0, got 3\.0"):
        ComputationTask(domain_size=4, truth_table=(0, 1, 2, 3.0), circuit=circuit)


def test_identity_computation_on_uniform_mixture_fails():
    # per-input runs compute F perfectly, yet the uniform labeled mixture
    # produces an output with no label correlation at all
    circuit = build_bhw_multi([basis(i, 4) for i in range(4)])
    task = ComputationTask(domain_size=4, truth_table=(0, 1, 2, 3),
                           circuit=circuit)
    result = run_computation_mixture(task)
    assert not result.success
    assert result.mutual_info_bits < 1e-9
    for x, out in result.per_pure_outputs:
        assert trace_distance(out, proj(basis(x, 4))) < 1e-9


def test_two_point_computation_with_swap_gate():
    # X = 2 with F = bit flip done by a plain CR unitary: no time machine
    # involved, so the mixture computes F honestly
    assert builtin_matrix("x", (2,)).shape == (2, 2)
    circuit = Circuit(cr_dims=(2,), ctc_dims=(2,),
                      gates=(Gate("x", (0,), None),))
    task = ComputationTask(domain_size=2, truth_table=(1, 0), circuit=circuit)
    result = run_computation_mixture(task)
    assert result.success
    assert abs(result.mutual_info_bits - 1.0) < 1e-9


def test_computation_checks_circuit_dimension():
    circuit = build_bhw2(PLUS)
    with pytest.raises(ValidationError):
        ComputationTask(domain_size=4, truth_table=(0, 1, 2, 3),
                        circuit=circuit)
