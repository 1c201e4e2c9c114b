"""The paper's experiments, each defined once.

Every experiment is a function of keyword parameters that validates them and
returns a plain dict of results. `ctcsim experiment NAME` reports that dict as
its `results` block, and the scripts in `demos/` print from it. REGISTRY maps
each command-line name to its function, whose signature holds the defaults.
"""

from __future__ import annotations

import itertools
import math
import numbers

import numpy as np

from .circuit import (Circuit, Gate, _basis, build_bhw2, build_bhw_multi,
                      build_epr_swap, compile_unitary, pad_with_ancillas)
from .ctc import FixedPointResult, ctc_evolve, evolve_stack
from .oracle import haar_unitaries
from .protocol import (ComputationTask, DiscriminationOutcome,
                       LabeledEnsemble, evolve_pure, helstrom_bound,
                       labeled_mixture, run_computation_mixture,
                       run_discrimination, run_superposition, simulate_frozen)
from .qmat import (ValidationError, _half_trace_norms, _is_integer, _norms,
                   _projectors, _require_integer, _state_failure, _unitary_failure,
                   _weights_failure, mutual_information, trace_distance)

# output flags of the two-state discriminator: |0><0| for |0>, |1><1| for psi
_PROJ0, _PROJ1 = _projectors(np.eye(2, dtype=complex))

FOUR_STATE_NAMES = ("zero", "one", "plus", "minus")

# a --sweep grid spans at most this many steps; a tiny step would otherwise
# build a list until memory runs out
MAX_SWEEP_STEPS = 1000
SWEEP_SLACK = 1e-12   # a grid point this far past STOP, by rounding, still counts
# sim-equivalence draws and stacks at most this many instances
MAX_TRIALS = 10_000


def fixed_point_record(fp: FixedPointResult) -> dict:
    """The report fields of a fixed point, without sigma."""
    return {
        "residual": float(fp.residual),
        "fixed_space_dim": int(fp.fixed_space_dim),
        "method": fp.method,
        "selection": fp.selection,
    }


def _outcome_record(outcome: DiscriminationOutcome) -> dict:
    return {
        "success": bool(outcome.success),
        "success_prob": float(outcome.success_prob),
        "mutual_info_bits": float(outcome.mutual_info_bits),
        "product_distance": float(outcome.product_distance),
        "fixed_point": fixed_point_record(outcome.fixed_point),
    }


def _check_theta(theta: float) -> float:
    if not (isinstance(theta, numbers.Real) and 0 < theta < math.pi / 2):
        raise ValidationError(f"--theta must be in (0, pi/2), got {theta}")
    return theta


def _check_prob(p: float) -> float:
    if not (isinstance(p, numbers.Real) and 0 < p < 1):
        raise ValidationError(f"--probs must be in (0, 1), got {p}")
    return p


def _bhw_states(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """|0> and the designated state psi = cos(theta)|0> + sin(theta)|1>."""
    return _basis(0, 2), np.array([math.cos(theta), math.sin(theta)],
                                  dtype=complex)


def labeled_pair(theta: float, p0: float) -> tuple[Circuit, LabeledEnsemble]:
    """The two-state discriminator for psi(theta) and the referee ensemble
    {(0, p0, |0>), (1, 1 - p0, psi)}."""
    zero, psi = _bhw_states(theta)
    ensemble = LabeledEnsemble([(0, p0, zero), (1, 1.0 - p0, psi)])
    return build_bhw2(psi), ensemble


def _four_state_inputs() -> tuple[Circuit, np.ndarray]:
    """The multi-state discriminator for |0>, |1>, |+>, |-> and those states
    padded to its input register, in FOUR_STATE_NAMES order."""
    plus, minus = (np.array([1.0, sign], dtype=complex) / math.sqrt(2)
                   for sign in (1.0, -1.0))
    states = [_basis(0, 2), _basis(1, 2), plus, minus]
    circuit = build_bhw_multi(states)
    return circuit, np.array([pad_with_ancillas(v, circuit.cr_dim) for v in states])


def _instance(u, vecs, probs) -> tuple[Circuit, LabeledEnsemble]:
    """One drawn trial as a circuit and an ensemble, which check it."""
    return (Circuit(cr_dims=(2,), ctc_dims=(2,), gates=(Gate("v", (0, 1), u),)),
            LabeledEnsemble(list(zip((0, 1), probs.tolist(), vecs))))


def random_instances(seed: int, trials: int, first: int = 0
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trials first..first+trials-1 of `seed` as stacks: U (T, 4, 4), states
    (T, 2, 2), weights (T, 2). Trial t reads default_rng([seed, t]): 40
    normals, the Ginibre matrix of U as random_unitary reads it, then the two
    states; then p0 in [0.1, 0.9) for the weights p0 and 1 - p0. The checks
    of Circuit and LabeledEnsemble run once on the stacks; the first trial
    that fails one is built through those classes, which word the error."""
    _require_integer(seed, "seed", 0)
    _require_integer(trials, "trials")
    _require_integer(first, "first", 0)
    rngs = [np.random.default_rng([seed, t]) for t in range(first, first + trials)]
    normals = np.array([rng.standard_normal(40) for rng in rngs])
    p0 = np.array([rng.uniform(0.1, 0.9) for rng in rngs])
    g = normals[:, :32].reshape(-1, 2, 4, 4)
    u = haar_unitaries(g[:, 0], g[:, 1])
    s = normals[:, 32:].reshape(-1, 2, 2, 2)
    vecs = s[:, :, 0] + 1j * s[:, :, 1]
    with np.errstate(invalid="ignore"):   # a non-finite draw fails the check
        vecs = vecs / _norms(vecs)[..., None]
    probs = np.stack([p0, 1.0 - p0], axis=1)
    failed = (_unitary_failure(u), _state_failure(vecs.reshape(-1, 2)),
              _weights_failure(probs))
    if any(failed):   # the lowest failing trial; a trial holds two states
        t = min(f[0] // k for f, k in zip(failed, (1, 2, 1)) if f)
        _instance(u[t], vecs[t], probs[t])   # raises
    return u, vecs, probs


def random_instance(seed: int, trial: int) -> tuple[Circuit, LabeledEnsemble]:
    """Trial `trial` of random_instances(seed, ...): one CR and one CTC qubit,
    a Haar-random interaction "v", and two random pure states labeled 0, 1."""
    return _instance(*(a[0] for a in random_instances(seed, 1, trial)))


def _parse_sweep(spec: str) -> list[float]:
    try:   # a spec that is not a string unpacks nothing
        name, rng = spec.split("=", 1) if isinstance(spec, str) else ()
        start, stop, step = (float(x) for x in rng.split(":"))
    except ValueError as exc:
        raise ValidationError(
            f"--sweep must look like theta=START:STOP:STEP, got '{spec}'"
        ) from exc
    if name != "theta":
        raise ValidationError(f"only 'theta' can be swept, got '{name}'")
    # finite, increasing bounds and a positive step give a nonempty grid
    if (not all(math.isfinite(x) for x in (start, stop, step))
            or step <= 0 or stop < start):
        raise ValidationError(f"bad sweep range '{rng}'")
    if (stop - start) / step > MAX_SWEEP_STEPS:
        raise ValidationError(f"sweep range '{rng}' spans more than "
                              f"{MAX_SWEEP_STEPS} steps")
    grid = []
    k = 0
    while (value := start + k * step) <= stop + SWEEP_SLACK:
        grid.append(_check_theta(value))
        k += 1
    return grid


# --- the experiments --------------------------------------------------------

def epr(*, selection: str = "canonical") -> dict:
    """Swap half of a Bell pair through the loop: all correlation is lost."""
    bell = _projectors(np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2))
    rho_out, fp = ctc_evolve(build_epr_swap(), bell, selection)
    return {
        "fixed_point": fixed_point_record(fp),
        "sigma_vs_half_identity": trace_distance(fp.sigma,
                                                 np.eye(2, dtype=complex) / 2),
        "output_vs_quarter_identity": trace_distance(rho_out, np.eye(4) / 4),
        "input_mutual_info_bits": mutual_information(bell, (2, 2)),
        "output_mutual_info_bits": mutual_information(rho_out, (2, 2)),
    }


def bhw2(*, theta: float = math.pi / 4, selection: str = "canonical") -> dict:
    """|0> and psi(theta) are flagged by orthogonal outputs."""
    theta = _check_theta(theta)
    zero, psi = _bhw_states(theta)
    circuit = build_bhw2(psi)
    (out_zero, out_psi), (fp_zero, fp_psi) = evolve_pure(
        compile_unitary(circuit), np.array([zero, psi]), circuit.ctc_dim, selection)
    return {
        "theta": theta,
        "output_trace_distance": trace_distance(out_zero, out_psi),
        "output_zero_vs_proj0": trace_distance(out_zero, _PROJ0),
        "output_psi_vs_proj1": trace_distance(out_psi, _PROJ1),
        "fixed_point_zero": dict(fixed_point_record(fp_zero),
                                 vs_proj0=trace_distance(fp_zero.sigma, _PROJ0)),
        "fixed_point_psi": dict(fixed_point_record(fp_psi),
                                vs_proj1=trace_distance(fp_psi.sigma, _PROJ1)),
    }


def bhw4(*, selection: str = "canonical") -> dict:
    """Four states of one qubit map to pairwise orthogonal outputs."""
    circuit, states = _four_state_inputs()
    outputs, fps = evolve_pure(compile_unitary(circuit), states, circuit.ctc_dim,
                               selection)
    records = [fixed_point_record(fp) for fp in fps]
    names = FOUR_STATE_NAMES
    pairwise = {f"{names[i]}-{names[j]}": trace_distance(outputs[i], outputs[j])
                for i, j in itertools.combinations(range(4), 2)}
    return {
        "pairwise_output_distances": pairwise,
        "min_pairwise_distance": min(pairwise.values()),
        "fixed_points": dict(zip(names, records)),
    }


def _mixture_point(theta: float, p0: float, selection: str) -> dict:
    circuit, ensemble = labeled_pair(theta, p0)
    outcome = run_discrimination(circuit, ensemble, selection)
    per_pure = dict(outcome.per_pure_outputs)
    return dict(_outcome_record(outcome), theta=theta, p0=p0,
                helstrom_bound=helstrom_bound(ensemble),
                per_pure_vs_targets={
                    "0": trace_distance(per_pure[0], _PROJ0),
                    "1": trace_distance(per_pure[1], _PROJ1),
                })


def mixture(*, theta: float = math.pi / 4, probs: float = 0.5,
            selection: str = "canonical", sweep: str | None = None) -> dict:
    """The labeled mixture of |0> (weight probs) and psi(theta) keeps no
    label information. `sweep` ("theta=START:STOP:STEP") replaces theta by a
    grid and reports one row per angle; theta must still be a valid angle."""
    theta, p0 = _check_theta(theta), _check_prob(probs)
    if sweep is None:
        return _mixture_point(theta, p0, selection)
    rows = []
    for theta in _parse_sweep(sweep):
        point = _mixture_point(theta, p0, selection)
        rows.append({
            "theta": theta,
            "mutual_info": point["mutual_info_bits"],
            "product_distance": point["product_distance"],
            "helstrom": point["helstrom_bound"],
        })
    return {
        "p0": p0,
        "sweep": rows,
        "max_mutual_info": max(r["mutual_info"] for r in rows),
        "max_product_distance": max(r["product_distance"] for r in rows),
    }


def superposition(*, theta: float = math.pi / 4, probs: float = 0.5,
                  selection: str = "canonical") -> dict:
    """Coherently labeled inputs fail the same way as the mixture."""
    theta = _check_theta(theta)
    p0 = _check_prob(probs)
    circuit, ensemble = labeled_pair(theta, p0)
    outcome = run_superposition(circuit, ensemble, selection)
    return dict(_outcome_record(outcome), theta=theta, p0=p0,
                helstrom_bound=helstrom_bound(ensemble))


def sim_equivalence(*, trials: int = 50, seed: int = 0,
                    selection: str = "canonical") -> dict:
    """A loop-free channel reproduces the loop on random labeled mixtures."""
    if not (_is_integer(trials) and 1 <= trials <= MAX_TRIALS):
        raise ValidationError(f"--trials must be in 1..{MAX_TRIALS}, got {trials}")
    u, vecs, probs = random_instances(seed, trials)
    # run_discrimination and simulate_without_ctc minus the unread statistics,
    # as one stack of 1 + 1 qubit loops: the R (x) A run against the
    # per-component channel
    with_loop, fps = evolve_stack(u, labeled_mixture(vecs, probs), 2, 2, selection)
    without, _ = simulate_frozen(u, vecs, probs, np.stack([fp.sigma for fp in fps]), 2)
    distances = _half_trace_norms(with_loop - without).tolist()
    return {
        "trials": trials,
        "max_trace_distance": max(distances),
        "per_trial_distances": distances,
        "max_fixed_point_residual": max(fp.residual for fp in fps),
    }


def identical_mixtures() -> dict:
    """{|0>,|1>} and {|+>,|->} at equal weights, the same density matrix,
    give the same output. Recorded under both selection rules; equality is
    asserted per rule, not across rules."""
    circuit, states = _four_state_inputs()
    # run_discrimination's joint runs of both ensembles as one stack, without
    # the per-input runs and statistics this reads nothing of
    u, rho = compile_unitary(circuit), labeled_mixture(
        np.reshape(states, (2, 2, -1)), np.full((2, 2), 0.5))
    results = {}
    for selection in ("canonical", "max_entropy"):
        (out_01, out_pm), (fp_01, fp_pm) = evolve_stack(
            u, rho, circuit.cr_dim, circuit.ctc_dim, selection)
        results[selection] = {
            "output_trace_distance": trace_distance(out_01, out_pm),
            "fixed_point_basis": fixed_point_record(fp_01),
            "fixed_point_conjugate": fixed_point_record(fp_pm),
        }
    return results


def computation(*, selection: str = "canonical") -> dict:
    """The identity on four inputs, computed perfectly per input, fails on
    the uniform mixture of its inputs."""
    basis = [_basis(x, 4) for x in range(4)]
    task = ComputationTask(domain_size=4, truth_table=(0, 1, 2, 3),
                           circuit=build_bhw_multi(basis))
    outcome = run_computation_mixture(task, selection)
    per_input = {}
    for label, rho_a in outcome.per_pure_outputs:
        target = _projectors(basis[task.truth_table[label]])
        per_input[str(label)] = trace_distance(rho_a, target)
    return dict(_outcome_record(outcome), domain_size=task.domain_size,
                truth_table=list(task.truth_table),
                per_input_output_vs_truth=per_input)


# command-line name -> experiment; a report echoes the parameters its
# function takes but seed, with the signature's defaults where unset
REGISTRY = {f.__name__.replace("_", "-"): f for f in (
    epr, bhw2, bhw4, mixture, superposition, sim_equivalence,
    identical_mixtures, computation)}
