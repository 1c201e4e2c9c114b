"""The paper's experiments, each defined once.

Every experiment is a function of keyword parameters that validates them and
returns a plain dict of results. `ctcsim experiment NAME` reports that dict as
its `results` block, and the scripts in `demos/` print from it. REGISTRY maps
each command-line name to its function and to the parameters the command's
report echoes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .circuit import (Circuit, Gate, _basis, build_bhw2, build_bhw_multi,
                      build_epr_swap, pad_with_ancillas)
from .ctc import FixedPointResult, ctc_evolve
from .oracle import random_unitary
from .protocol import (ComputationTask, DiscriminationOutcome,
                       LabeledEnsemble, helstrom_bound, labeled_ensemble,
                       run_computation_mixture, run_discrimination,
                       run_superposition, simulate_without_ctc)
from .qmat import ValidationError, mutual_information, trace_distance

# output flags of the two-state discriminator: |0><0| for |0>, |1><1| for psi
_PROJ0 = np.diag([1.0, 0.0]).astype(complex)
_PROJ1 = np.diag([0.0, 1.0]).astype(complex)

FOUR_STATE_NAMES = ("zero", "one", "plus", "minus")


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
    if not 0 < theta < math.pi / 2:
        raise ValidationError(f"--theta must be in (0, pi/2), got {theta}")
    return theta


def _check_prob(p: float) -> float:
    if not 0 < p < 1:
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
    ensemble, _ = labeled_ensemble([(0, p0, zero), (1, 1.0 - p0, psi)])
    return build_bhw2(psi), ensemble


def _four_state_inputs() -> tuple[Circuit, list[np.ndarray]]:
    """The multi-state discriminator for |0>, |1>, |+>, |-> and those states
    padded to its input register, in FOUR_STATE_NAMES order."""
    plus, minus = (np.array([1.0, sign], dtype=complex) / math.sqrt(2)
                   for sign in (1.0, -1.0))
    states = [_basis(0, 2), _basis(1, 2), plus, minus]
    circuit = build_bhw_multi(states)
    return circuit, [pad_with_ancillas(v, circuit.cr_dim) for v in states]


def random_instance(seed: int, trial: int) -> tuple[Circuit, LabeledEnsemble]:
    """Seeded random (circuit, ensemble) pair: one CR qubit, one CTC qubit,
    one Haar-random two-qubit interaction, two random pure states."""
    rng = np.random.default_rng([seed, trial])
    u = random_unitary(4, rng)
    circuit = Circuit(cr_dims=(2,), ctc_dims=(2,),
                      gates=(Gate("v", (0, 1), u),))
    states = []
    for _ in range(2):
        vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        states.append(vec / np.linalg.norm(vec))
    p0 = float(rng.uniform(0.1, 0.9))
    ensemble, _ = labeled_ensemble([(0, p0, states[0]), (1, 1.0 - p0, states[1])])
    return circuit, ensemble


def _parse_sweep(spec: str) -> list[float]:
    try:
        name, rng = spec.split("=", 1)
        start, stop, step = (float(x) for x in rng.split(":"))
    except ValueError as exc:
        raise ValidationError(
            f"--sweep must look like theta=START:STOP:STEP, got '{spec}'"
        ) from exc
    if name != "theta":
        raise ValidationError(f"only 'theta' can be swept, got '{name}'")
    if step <= 0 or stop < start:
        raise ValidationError(f"bad sweep range '{rng}'")
    grid = []
    k = 0
    while (value := start + k * step) <= stop + 1e-12:
        grid.append(_check_theta(value))
        k += 1
    return grid


# --- the experiments --------------------------------------------------------

def epr(*, selection: str = "canonical") -> dict:
    """Swap half of a Bell pair through the loop: all correlation is lost."""
    vec = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2)
    bell = np.outer(vec, vec.conj())
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
    out_zero, fp_zero = ctc_evolve(circuit, np.outer(zero, zero.conj()), selection)
    out_psi, fp_psi = ctc_evolve(circuit, np.outer(psi, psi.conj()), selection)
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
    outputs, records = [], []
    for vec in states:
        rho_out, fp = ctc_evolve(circuit, np.outer(vec, vec.conj()), selection)
        outputs.append(rho_out)
        records.append(fixed_point_record(fp))
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
    grid and reports one row per angle."""
    p0 = _check_prob(probs)
    if sweep is None:
        return _mixture_point(_check_theta(theta), p0, selection)
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
    if trials < 1:
        raise ValidationError("--trials must be >= 1")
    distances, residual_max = [], 0.0
    for trial in range(trials):
        circuit, ensemble = random_instance(seed, trial)
        with_ctc = run_discrimination(circuit, ensemble, selection)
        without = simulate_without_ctc(circuit, ensemble, selection)
        distances.append(trace_distance(with_ctc.rho_out, without.rho_out))
        residual_max = max(residual_max, with_ctc.fixed_point.residual,
                           without.fixed_point.residual)
    return {
        "trials": trials,
        "max_trace_distance": max(distances),
        "per_trial_distances": distances,
        "max_fixed_point_residual": residual_max,
    }


def identical_mixtures() -> dict:
    """{|0>,|1>} and {|+>,|->} at equal weights, the same density matrix,
    give the same output. Recorded under both selection rules; equality is
    asserted per rule, not across rules."""
    circuit, (zero, one, plus, minus) = _four_state_inputs()
    ens_01, _ = labeled_ensemble([(0, 0.5, zero), (1, 0.5, one)])
    ens_pm, _ = labeled_ensemble([(0, 0.5, plus), (1, 0.5, minus)])
    results = {}
    for selection in ("canonical", "max_entropy"):
        out_01 = run_discrimination(circuit, ens_01, selection)
        out_pm = run_discrimination(circuit, ens_pm, selection)
        results[selection] = {
            "output_trace_distance": trace_distance(out_01.rho_out,
                                                    out_pm.rho_out),
            "fixed_point_basis": fixed_point_record(out_01.fixed_point),
            "fixed_point_conjugate": fixed_point_record(out_pm.fixed_point),
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
        fx = task.truth_table[label]
        target = np.outer(basis[fx], basis[fx].conj())
        per_input[str(label)] = trace_distance(rho_a, target)
    return dict(_outcome_record(outcome), domain_size=task.domain_size,
                truth_table=list(task.truth_table),
                per_input_output_vs_truth=per_input)


# name -> (function, the parameters the command's report echoes; unset ones
# are omitted)
REGISTRY = {
    "epr": (epr, ("selection",)),
    "bhw2": (bhw2, ("selection", "theta")),
    "bhw4": (bhw4, ("selection",)),
    "mixture": (mixture, ("selection", "theta", "probs", "sweep")),
    "superposition": (superposition, ("selection", "theta", "probs")),
    "sim-equivalence": (sim_equivalence, ("selection", "trials")),
    "identical-mixtures": (identical_mixtures, ("selection",)),
    "computation": (computation, ("selection",)),
}
