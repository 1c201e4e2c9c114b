"""Referee protocols for state discrimination with a time machine.

The referee draws a label x with probability p_x, keeps a record of it in a
register R, and hands the corresponding pure state phi_x on a register A to a
discriminator circuit that may use a closed timelike curve. The joint input
is the labeled mixture

    rho_RA = sum_x p_x |x><x|_R (x) |phi_x><phi_x|_A .

Because Deutsch evolution is nonlinear in the chronology-respecting input,
running the circuit on rho_RA is not the p-weighted average of running it on
the labeled components. The operations here expose that gap side by side:
the mixture-level run (which fails to discriminate), the per-pure-input runs
(which succeed on the designated states), the superposition variant, and a
purely linear simulation that reproduces the mixture output with no time
machine at all. No gate ever touches R (the discriminator is defined on A
and CTC wires only), so Tr_R commutes with the evolution: the loop sees only
rho_A = Tr_R rho_RA, never the labels, and every protocol solves it there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, _as_states, _basis, compile_unitary
from .ctc import FixedPointResult, _checked_output, evolve_stack, frozen_channel
from .qmat import (SUCCESS_DISTANCE, ValidationError, _as_array, _projectors,
                   _require_instance, _require_integer, _weights_failure, kron,
                   mutual_information, partial_trace, trace_distance)


@dataclass(frozen=True)
class LabeledEnsemble:
    """A referee ensemble of labeled pure states, checked on construction.

    Attributes:
        entries: tuple of (label, probability, state vector). Labels are
            exactly 0..n-1 (they double as R basis indices); probabilities
            are positive and sum to 1 within WEIGHT_SUM_TOL; states are
            finite, normalized vectors of one dimension, stored as complex
            arrays. Duplicate states under distinct labels are allowed.
            A ValidationError says which fails, or that entries is empty.
    """

    entries: tuple[tuple[int, float, np.ndarray], ...]

    def __post_init__(self):
        try:
            entries = [tuple(entry) for entry in self.entries]
        except TypeError:
            raise ValidationError(
                "entries must be a sequence of (label, probability, state)") from None
        if any(len(entry) != 3 for entry in entries):
            raise ValidationError("each entry must be (label, probability, state)")
        labels = [int(_require_integer(e[0], "label", 0)) for e in entries]
        probs = _as_array([e[1] for e in entries], "probabilities", float)
        if probs.shape != (len(labels),):
            raise ValidationError("each probability must be a number")
        weights = _weights_failure(probs[None])
        failed = dict(weights[1].violations) if weights else {}
        refused = int(np.argmin(probs > 0)) if "positive weights" in failed else -1
        for k, (label, (_, _, state)) in enumerate(zip(labels, entries)):
            if k == refused:   # the first weight refused, told before its state
                raise ValidationError(
                    f"label {label}: probability {float(probs[k])} must be positive")
            if _as_array(state, f"label {label}: state", None).ndim != 1:
                raise ValidationError(f"label {label}: state must be a vector")
        vecs = _as_states([e[2] for e in entries],
                          lambda k: f"label {labels[k]}: state")
        if not labels:
            raise ValidationError("ensemble needs at least one entry")
        if sorted(labels) != list(range(len(labels))):
            raise ValidationError(
                f"labels must be exactly 0..{len(labels) - 1}, got {sorted(labels)}")
        if "unit sum" in failed:
            raise ValidationError(
                f"probabilities sum to {sum(probs.tolist())!r}, not 1")
        for label, vec in zip(labels, vecs):
            if len(vec) != len(vecs[0]):
                raise ValidationError(
                    f"label {label}: state dimension {len(vec)} != {len(vecs[0])}")
        object.__setattr__(self, "entries", tuple(zip(labels, probs.tolist(), vecs)))

    @property
    def n(self) -> int:
        """Number of labels, which is also the R dimension."""
        return len(self.entries)

    @property
    def a_dim(self) -> int:
        """Dimension of the A register."""
        return self.entries[0][2].shape[0]

    def by_label(self) -> tuple[tuple[int, float, np.ndarray], ...]:
        """Entries sorted by label."""
        return tuple(sorted(self.entries, key=lambda e: e[0]))

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The states (n, a_dim) and the probabilities (n,), in label order."""
        _, probs, vecs = zip(*self.by_label())
        return np.array(vecs), np.array(probs)


def labeled_ensemble(entries) -> tuple[LabeledEnsemble, np.ndarray]:
    """(ensemble, rho_ra) for entries of (label, probability, state vector):
    the LabeledEnsemble, which checks them, and its labeled_mixture on R (x) A,
    R of one dimension per label."""
    ensemble = LabeledEnsemble(entries)
    return ensemble, labeled_mixture(*ensemble.arrays())


def _labeled_state(blocks: np.ndarray) -> np.ndarray:
    """sum_x |x><x|_R (x) blocks[..., x, :, :] for stacks (..., n, d, d)."""
    n, d = blocks.shape[-3:-1]
    return np.einsum("xy,...xbc->...xbyc", np.eye(n), blocks).reshape(
        *blocks.shape[:-3], n * d, n * d)


def labeled_mixture(vecs: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """rho_RA = sum_x p_x |x><x|_R (x) |phi_x><phi_x|_A of each item of the
    stacks vecs (..., n, d) and probs (..., n), states trusted; for one
    ensemble (n = 1 included) an n*d square matrix."""
    return _labeled_state(probs[..., None, None] * _projectors(vecs))


def _record_state(probs, outputs, d: int) -> np.ndarray:
    """The record sum_x p_x |x><x|_R (x) |f_x><f_x|_A, f_x < d indexing A's basis."""
    return _labeled_state(np.asarray(probs)[:, None, None]
                          * _projectors(np.eye(d, dtype=complex)[list(outputs)]))


@dataclass(frozen=True)
class DiscriminationOutcome:
    """Everything a referee learns from one protocol run.

    Attributes:
        rho_out: the evolved joint state on R (x) A.
        success: whether rho_out matches the classical target
            sum_x p_x |x><x|_R (x) |x><x|_A within SUCCESS_DISTANCE (qmat)
            in trace distance.
        success_prob: diagnostic only; the probability that measuring A in
            the computational basis and guessing the likeliest label gets
            the label right.
        mutual_info_bits: mutual information between R and A in rho_out.
        product_distance: trace distance from rho_out to the product of its
            own marginals; zero certifies absence of all R-A correlation.
        per_pure_outputs: (label, A-output) pairs from running the circuit
            on each labeled pure input alone, in label order, with the same
            selection rule as the joint run.
        fixed_point: record of the fixed point used for the joint run.
    """

    rho_out: np.ndarray
    success: bool
    success_prob: float
    mutual_info_bits: float
    product_distance: float
    per_pure_outputs: tuple[tuple[int, np.ndarray], ...]
    fixed_point: FixedPointResult


def _success_target(v_circuit: Circuit, ensemble: LabeledEnsemble) -> np.ndarray:
    """The classical record state sum_x p_x |x><x|_R (x) |x><x|_A that a run
    of v_circuit on ensemble must reach, once the two are checked to fit."""
    _require_instance(v_circuit, Circuit, "circuit")
    _require_instance(ensemble, LabeledEnsemble, "ensemble")
    n, d = ensemble.n, ensemble.a_dim
    if d != v_circuit.cr_dim:
        raise ValidationError(
            f"ensemble A dimension {d} != circuit CR dimension {v_circuit.cr_dim}")
    if d < n:
        raise ValidationError(
            f"success target needs A dimension >= {n} labels, got {d}")
    return _record_state(ensemble.arrays()[1], range(n), d)


def _outcome(rho_out: np.ndarray, fp: FixedPointResult,
             ensemble: LabeledEnsemble, target: np.ndarray,
             per_pure: tuple[tuple[int, np.ndarray], ...]
             ) -> DiscriminationOutcome:
    dims = (ensemble.n, ensemble.a_dim)
    rho_r = partial_trace(rho_out, dims, keep=[0])
    rho_a = partial_trace(rho_out, dims, keep=[1])
    joint_probs = np.diag(rho_out).real.reshape(dims)
    return DiscriminationOutcome(
        rho_out=rho_out,
        success=bool(trace_distance(rho_out, target) <= SUCCESS_DISTANCE),
        success_prob=float(joint_probs.max(axis=0).sum()),
        mutual_info_bits=mutual_information(rho_out, dims),
        product_distance=trace_distance(rho_out, kron(rho_r, rho_a)),
        per_pure_outputs=per_pure,
        fixed_point=fp)


def _run_joint(v_circuit: Circuit, ensemble: LabeledEnsemble,
               rho_in: np.ndarray, target: np.ndarray,
               selection: str) -> DiscriminationOutcome:
    """The protocol body: the joint R (x) A run, the per-pure-input runs
    under U as one stack, each with its own fixed point, and the outcome
    against the target. The discriminator is compiled once."""
    u, dc = compile_unitary(v_circuit), v_circuit.ctc_dim
    (rho_out,), (fp,) = evolve_stack(u, rho_in[None], ensemble.a_dim, dc, selection)
    pure, _ = evolve_pure(u, ensemble.arrays()[0], dc, selection)
    return _outcome(rho_out, fp, ensemble, target, tuple(enumerate(pure)))


def evolve_pure(u: np.ndarray, vecs: np.ndarray, ctc_dim: int, selection: str
                ) -> tuple[np.ndarray, list[FixedPointResult]]:
    """ctc_evolve of each pure state of a trusted stack vecs (B, cr) alone,
    under compiled, trusted u, as one stack: the outputs and fixed points."""
    return evolve_stack(u, _projectors(vecs), vecs.shape[-1], ctc_dim, selection)


def run_discrimination(v_circuit: Circuit, ensemble: LabeledEnsemble,
                       selection: str = "canonical") -> DiscriminationOutcome:
    """Run the discrimination protocol on the labeled mixture.

    The fixed point is solved for the whole mixture, on rho_A = Tr_R rho_RA:
    the nonlinear evolution sees the mixture, not its components.
    Per-pure-input outputs are reported alongside so the contrast with
    component-wise behaviour is explicit. v_circuit acts on A (its CR
    wires) and CTC wires; selection is "canonical" or "max_entropy".

    Raises:
        ValidationError: the ensemble's A dimension is not the circuit's, or
            A cannot hold one basis state per label (no success target).
        SolverError: fixed-point solve failed.
    """
    target = _success_target(v_circuit, ensemble)
    return _run_joint(v_circuit, ensemble, labeled_mixture(*ensemble.arrays()),
                      target, selection)


def run_superposition(v_circuit: Circuit, ensemble: LabeledEnsemble,
                      selection: str = "canonical") -> DiscriminationOutcome:
    """Run the protocol on the coherent superposition of labeled inputs.

    Identical pipeline to run_discrimination, but the joint input is the
    pure state sum_x sqrt(p_x) |x>_R |phi_x>_A instead of the mixture. With
    a single label this reduces to the plain pure-input run.
    """
    target = _success_target(v_circuit, ensemble)
    vecs, probs = ensemble.arrays()
    gamma = (np.sqrt(probs)[:, None] * vecs).reshape(-1)
    return _run_joint(v_circuit, ensemble, _projectors(gamma), target, selection)


def simulate_frozen(u: np.ndarray, vecs: np.ndarray, probs: np.ndarray,
                    sigma: np.ndarray, dc: int) -> tuple[np.ndarray, np.ndarray]:
    """The loop-free simulation for frozen sigmas: each phi_x = vecs[b, x]
    passes Phi_sigma[b] under u[b], in one batch. Returns the checked mixtures
    sum_x p_x |x><x| (x) Phi_sigma(phi_x) and the outputs Phi_sigma(phi_x)."""
    outs = frozen_channel(u, _projectors(vecs), sigma, vecs.shape[-1], dc)
    return _checked_output(_labeled_state(probs[..., None, None] * outs)), outs


def simulate_without_ctc(v_circuit: Circuit, ensemble: LabeledEnsemble,
                         selection: str = "canonical") -> DiscriminationOutcome:
    """Reproduce the mixture run with ordinary linear evolution.

    Solves the loop for the ensemble once, on its marginal as
    run_discrimination does, and freezes the resulting sigma. Each labeled
    component |x><x| (x) phi_x goes through the ordinary channel X ->
    Tr_CTC(U (X (x) sigma) U+), and rho_out is the p-weighted sum of those
    outputs, which by linearity is run_discrimination's rho_out: with sigma
    known, no time machine is needed for the mixture-level statistics.
    per_pure_outputs holds those component outputs, all through the one
    frozen channel (run_discrimination gives each its own fixed point).
    """
    target, u = _success_target(v_circuit, ensemble), compile_unitary(v_circuit)
    n, d, dc = ensemble.n, ensemble.a_dim, v_circuit.ctc_dim
    # the loop alone, on Tr_R rho_RA as a whole input: no joint output
    vecs, probs = ensemble.arrays()
    rho_a = labeled_mixture(vecs, probs).reshape(n, d, n, d).trace(axis1=0, axis2=2)
    _, (fp,) = evolve_stack(u, rho_a[None], d, dc, selection)
    rho_out, outs = simulate_frozen(u, vecs[None], probs[None], fp.sigma, dc)
    return _outcome(rho_out[0], fp, ensemble, target, tuple(enumerate(outs[0])))


def helstrom_bound(ensemble: LabeledEnsemble) -> float:
    """Optimal linear-QM success probability for a two-entry ensemble.

    Computes 1/2 + (1/2)||p_0 rho_0 - p_1 rho_1||_1, the best achievable
    probability of naming the label correctly with a single measurement in
    ordinary quantum mechanics.

    Raises:
        ValidationError: not a LabeledEnsemble of exactly two entries.
    """
    _require_instance(ensemble, LabeledEnsemble, "ensemble")
    if ensemble.n != 2:
        raise ValidationError(
            f"Helstrom bound needs exactly 2 entries, got {ensemble.n}")
    vecs, probs = ensemble.arrays()
    rho0, rho1 = probs[:, None, None] * _projectors(vecs)
    return 0.5 + trace_distance(rho0, rho1)


@dataclass(frozen=True)
class ComputationTask:
    """A classical function to be evaluated through a time-machine circuit.

    Attributes:
        domain_size: number of inputs X; inputs are the basis states
            |0>..|X-1> of the circuit's CR register.
        truth_table: output label F(x) for each x in 0..X-1; each must
            index a basis state of the CR register.
        circuit: encoding circuit over A (+ CTC) computing x -> F(x) on
            basis states.
    """

    domain_size: int
    truth_table: tuple[int, ...]
    circuit: Circuit

    def __post_init__(self):
        _require_integer(self.domain_size, "domain_size")
        _require_instance(self.circuit, Circuit, "circuit")
        try:
            object.__setattr__(self, "truth_table", tuple(self.truth_table))
        except TypeError:
            raise ValidationError("truth_table must be a sequence of integers") from None
        if self.domain_size > self.circuit.cr_dim:
            raise ValidationError(
                f"domain_size {self.domain_size} exceeds input register "
                f"dimension {self.circuit.cr_dim}")
        if len(self.truth_table) != self.domain_size:
            raise ValidationError(
                f"truth table has {len(self.truth_table)} entries for "
                f"domain size {self.domain_size}")
        for x, fx in enumerate(self.truth_table):
            if _require_integer(fx, f"truth_table[{x}]", 0) >= self.circuit.cr_dim:
                raise ValidationError(
                    f"truth_table[{x}] = {fx} does not fit the output "
                    f"register (dimension {self.circuit.cr_dim})")


def run_computation_mixture(task: ComputationTask,
                            selection: str = "canonical"
                            ) -> DiscriminationOutcome:
    """Evaluate a function on the uniform mixture of its basis inputs.

    Builds the labeled ensemble {(x, 1/X, |x>)}, runs the discrimination
    pipeline, and tests the output against the correlated target

        (1/X) sum_x |x><x|_R (x) |F(x)><F(x)|_A .

    A circuit that maps every basis input to |F(x)> in isolation can still
    fail this test: the mixture-level output of a time-machine circuit need
    not be the average of its pure-input outputs.
    """
    d = task.circuit.cr_dim
    x_count = task.domain_size
    ensemble, rho_ra = labeled_ensemble(
        [(x, 1.0 / x_count, _basis(x, d)) for x in range(x_count)])
    target = _record_state(ensemble.arrays()[1], task.truth_table, d)
    return _run_joint(task.circuit, ensemble, rho_ra, target, selection)
