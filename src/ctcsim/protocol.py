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
machine at all. No gate ever touches R; this is enforced by construction,
since the discriminator circuit is defined on A and CTC wires only and is
extended to R (x) A by wire shifting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Gate, _basis, compile_unitary
from .ctc import (FixedPointResult, ctc_evolve, evolve_given_ctc_state,
                  fixed_point_exact, induced_superoperator)
from .qmat import (DEFAULT_TOL, Tolerances, ValidationError, kron,
                   mutual_information, partial_trace, require_density,
                   trace_distance, validate)

SUCCESS_DISTANCE = 1e-6  # trace-distance bound defining protocol success


@dataclass(frozen=True)
class LabeledEnsemble:
    """A referee ensemble of labeled pure states.

    Attributes:
        entries: tuple of (label, probability, state vector). Labels are
            exactly 0..n-1 (they double as R basis indices); probabilities
            are positive and sum to 1; states share one dimension and are
            normalized. Duplicate states under distinct labels are allowed.
    """

    entries: tuple[tuple[int, float, np.ndarray], ...]

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


def labeled_ensemble(entries, tol: Tolerances = DEFAULT_TOL
                     ) -> tuple[LabeledEnsemble, np.ndarray]:
    """Validate referee entries and build the labeled mixture on R (x) A.

    Args:
        entries: iterable of (label, probability, state vector).

    Returns:
        (ensemble, rho_ra): the validated ensemble and the block-diagonal
        classical-quantum state sum_x p_x |x><x| (x) |phi_x><phi_x|, with R
        dimension equal to the number of labels.

    Raises:
        ValidationError: empty entries, labels not exactly {0..n-1},
            non-positive probabilities, probabilities not summing to 1
            within 1e-12, unnormalized or dimension-mismatched states.
    """
    items = []
    for entry in entries:
        if len(entry) != 3:
            raise ValidationError("each entry must be (label, probability, state)")
        label, prob, state = entry
        if not isinstance(label, (int, np.integer)) or isinstance(label, bool):
            raise ValidationError(f"label {label!r} is not an integer")
        prob = float(prob)
        if prob <= 0:
            raise ValidationError(
                f"label {label}: probability {prob} must be positive")
        vec = np.asarray(state, dtype=complex)
        if vec.ndim != 1 or vec.shape[0] < 1:
            raise ValidationError(f"label {label}: state must be a vector")
        if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
            raise ValidationError(
                f"label {label}: state norm {np.linalg.norm(vec):.12f} != 1")
        items.append((int(label), prob, vec))
    if not items:
        raise ValidationError("ensemble needs at least one entry")
    n = len(items)
    if sorted(lbl for lbl, _, _ in items) != list(range(n)):
        raise ValidationError(
            f"labels must be exactly 0..{n - 1}, got "
            f"{sorted(lbl for lbl, _, _ in items)}")
    total = sum(p for _, p, _ in items)
    if abs(total - 1.0) > 1e-12:
        raise ValidationError(f"probabilities sum to {total!r}, not 1")
    d = items[0][2].shape[0]
    for lbl, _, vec in items:
        if vec.shape[0] != d:
            raise ValidationError(
                f"label {lbl}: state dimension {vec.shape[0]} != {d}")
    ensemble = LabeledEnsemble(entries=tuple(items))
    return ensemble, _ensemble_state(ensemble)


def _ensemble_state(ensemble: LabeledEnsemble) -> np.ndarray:
    """rho_RA of the ensemble; an n*a_dim square matrix (n = 1 included)."""
    n, d = ensemble.n, ensemble.a_dim
    rho = np.zeros((n * d, n * d), dtype=complex)
    for label, prob, vec in ensemble.entries:
        block = prob * np.outer(vec, vec.conj())
        rho[label * d:(label + 1) * d, label * d:(label + 1) * d] += block
    return rho


@dataclass(frozen=True)
class DiscriminationOutcome:
    """Everything a referee learns from one protocol run.

    Attributes:
        rho_out: the evolved joint state on R (x) A.
        success: whether rho_out matches the classical target
            sum_x p_x |x><x|_R (x) |x><x|_A within 1e-6 trace distance.
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


def _extended_circuit(v_circuit: Circuit, n: int) -> Circuit:
    """Prepend a dimension-n R wire that no gate touches; n = 1 returns the
    circuit as-is (a one-dimensional R factor is implicit, never a declared
    wire)."""
    if n == 1:
        return v_circuit
    gates = tuple(Gate(g.name, tuple(w + 1 for w in g.wires), g.matrix)
                  for g in v_circuit.gates)
    labels = None
    if v_circuit.labels is not None:
        labels = ("R",) + v_circuit.labels
    return Circuit(cr_dims=(n,) + v_circuit.cr_dims,
                   ctc_dims=v_circuit.ctc_dims, gates=gates, labels=labels)


def _check_scope(v_circuit: Circuit, ensemble: LabeledEnsemble) -> None:
    if ensemble.a_dim != v_circuit.cr_dim:
        raise ValidationError(
            f"ensemble A dimension {ensemble.a_dim} != circuit CR dimension "
            f"{v_circuit.cr_dim}")


def _success_target(ensemble: LabeledEnsemble) -> np.ndarray:
    """The classical record state sum_x p_x |x><x|_R (x) |x><x|_A."""
    n, d = ensemble.n, ensemble.a_dim
    if d < n:
        raise ValidationError(
            f"success target needs A dimension >= {n} labels, got {d}")
    target = np.zeros((n * d, n * d), dtype=complex)
    for label, prob, _ in ensemble.entries:
        target[label * d + label, label * d + label] = prob
    return target


def _outcome(rho_out: np.ndarray, fp: FixedPointResult,
             ensemble: LabeledEnsemble, target: np.ndarray,
             per_pure: tuple[tuple[int, np.ndarray], ...],
             tol: Tolerances) -> DiscriminationOutcome:
    n, d = ensemble.n, ensemble.a_dim
    dims = (n, d)
    rho_r = partial_trace(rho_out, dims, keep=[0])
    rho_a = partial_trace(rho_out, dims, keep=[1])
    joint_probs = np.diag(rho_out).real.reshape(n, d)
    return DiscriminationOutcome(
        rho_out=rho_out,
        success=bool(trace_distance(rho_out, target) <= SUCCESS_DISTANCE),
        success_prob=float(joint_probs.max(axis=0).sum()),
        mutual_info_bits=mutual_information(rho_out, dims, tol),
        product_distance=trace_distance(rho_out, kron(rho_r, rho_a)),
        per_pure_outputs=per_pure,
        fixed_point=fp)


def _run_joint(v_circuit: Circuit, ensemble: LabeledEnsemble,
               rho_in: np.ndarray, target: np.ndarray, selection: str,
               tol: Tolerances) -> DiscriminationOutcome:
    """The protocol body: Deutsch evolution of the joint R (x) A input, the
    per-pure-input runs, and the outcome against the target."""
    _check_scope(v_circuit, ensemble)
    rho_out, fp = ctc_evolve(_extended_circuit(v_circuit, ensemble.n), rho_in,
                             selection, tol)
    per_pure = []
    for label, _, vec in ensemble.by_label():
        rho_a, _ = ctc_evolve(v_circuit, np.outer(vec, vec.conj()), selection, tol)
        per_pure.append((label, rho_a))
    return _outcome(rho_out, fp, ensemble, target, tuple(per_pure), tol)


def run_discrimination(v_circuit: Circuit, ensemble: LabeledEnsemble,
                       selection: str = "canonical",
                       tol: Tolerances = DEFAULT_TOL) -> DiscriminationOutcome:
    """Run the discrimination protocol on the labeled mixture.

    The fixed point is solved for the whole rho_RA: the nonlinear evolution
    sees the mixture, not its components. Per-pure-input outputs are reported
    alongside so the contrast with component-wise behaviour is explicit.

    Args:
        v_circuit: discriminator over A (CR wires) and CTC wires.
        ensemble: labeled ensemble with A dimension matching the circuit.
        selection: fixed-point selection rule, "canonical" or "max_entropy".

    Returns:
        DiscriminationOutcome for the joint run.

    Raises:
        ValidationError: dimension mismatch, or A too small to hold one
            basis state per label (the success target would be undefined).
        SolverError: fixed-point solve failed.
    """
    return _run_joint(v_circuit, ensemble, _ensemble_state(ensemble),
                      _success_target(ensemble), selection, tol)


def run_superposition(v_circuit: Circuit, ensemble: LabeledEnsemble,
                      selection: str = "canonical",
                      tol: Tolerances = DEFAULT_TOL) -> DiscriminationOutcome:
    """Run the protocol on the coherent superposition of labeled inputs.

    Identical pipeline to run_discrimination, but the joint input is the
    pure state sum_x sqrt(p_x) |x>_R |phi_x>_A instead of the mixture. With
    a single label this reduces to the plain pure-input run.
    """
    target = _success_target(ensemble)
    n, d = ensemble.n, ensemble.a_dim
    gamma = np.zeros(n * d, dtype=complex)
    for label, prob, vec in ensemble.entries:
        gamma[label * d:(label + 1) * d] += np.sqrt(prob) * vec
    return _run_joint(v_circuit, ensemble, np.outer(gamma, gamma.conj()),
                      target, selection, tol)


def simulate_without_ctc(v_circuit: Circuit, ensemble: LabeledEnsemble,
                         selection: str = "canonical",
                         tol: Tolerances = DEFAULT_TOL) -> DiscriminationOutcome:
    """Reproduce the mixture run with ordinary linear evolution.

    Solves the self-consistency condition for the ensemble's rho_RA once,
    freezes the resulting sigma, and applies the ordinary channel
    X -> Tr_CTC(U (X (x) sigma) U+) directly (no Kraus form), through the
    output map ctc_evolve uses. Each labeled component |x><x| (x) phi_x is
    evolved on its own and rho_out is their p-weighted sum, which equals
    run_discrimination's rho_out by linearity: with sigma known, no time
    machine is needed to produce the mixture-level statistics.

    The per_pure_outputs field holds the A marginals of those component
    runs, each labeled pure input fed through the same frozen channel;
    contrast with run_discrimination, where each pure input gets its own
    fixed point.
    """
    _check_scope(v_circuit, ensemble)
    target = _success_target(ensemble)
    n, d = ensemble.n, ensemble.a_dim
    circuit = _extended_circuit(v_circuit, n)
    rho_ra = _ensemble_state(ensemble)
    u = compile_unitary(circuit)
    superop = induced_superoperator(u, rho_ra, circuit.cr_dims,
                                    circuit.ctc_dims, tol)
    fp = fixed_point_exact(superop, selection, tol)
    rho_out = np.zeros_like(rho_ra)
    per_pure = []
    for label, prob, vec in ensemble.by_label():
        unit = np.zeros((n, n), dtype=complex)
        unit[label, label] = 1.0
        joint = evolve_given_ctc_state(u, kron(unit, np.outer(vec, vec.conj())),
                                       fp.sigma, circuit.cr_dim, circuit.ctc_dim)
        rho_out += prob * joint
        per_pure.append((label, partial_trace(joint, (n, d), keep=[1])))
    report = validate(rho_out, "density", tol)
    if not report.ok:
        raise ValidationError(
            f"simulated output failed validation: {report.message()}")
    return _outcome(rho_out, fp, ensemble, target, tuple(per_pure), tol)


def helstrom_bound(ensemble: LabeledEnsemble) -> float:
    """Optimal linear-QM success probability for a two-entry ensemble.

    Computes 1/2 + (1/2)||p_0 rho_0 - p_1 rho_1||_1, the best achievable
    probability of naming the label correctly with a single measurement in
    ordinary quantum mechanics.

    Raises:
        ValidationError: ensemble does not have exactly two entries.
    """
    if ensemble.n != 2:
        raise ValidationError(
            f"Helstrom bound needs exactly 2 entries, got {ensemble.n}")
    (_, p0, v0), (_, p1, v1) = ensemble.by_label()
    rho0 = p0 * np.outer(v0, v0.conj())
    rho1 = p1 * np.outer(v1, v1.conj())
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
        if self.domain_size < 1:
            raise ValidationError("domain_size must be >= 1")
        if self.domain_size > self.circuit.cr_dim:
            raise ValidationError(
                f"domain_size {self.domain_size} exceeds input register "
                f"dimension {self.circuit.cr_dim}")
        if len(self.truth_table) != self.domain_size:
            raise ValidationError(
                f"truth table has {len(self.truth_table)} entries for "
                f"domain size {self.domain_size}")
        for x, fx in enumerate(self.truth_table):
            if not isinstance(fx, (int, np.integer)) or isinstance(fx, bool):
                raise ValidationError(f"truth_table[{x}] is not an integer")
            if not 0 <= fx < self.circuit.cr_dim:
                raise ValidationError(
                    f"truth_table[{x}] = {fx} does not fit the output "
                    f"register (dimension {self.circuit.cr_dim})")


def run_computation_mixture(task: ComputationTask,
                            selection: str = "canonical",
                            tol: Tolerances = DEFAULT_TOL
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
        [(x, 1.0 / x_count, _basis(x, d)) for x in range(x_count)], tol)
    target = np.zeros((x_count * d, x_count * d), dtype=complex)
    for x, fx in enumerate(task.truth_table):
        target[x * d + fx, x * d + fx] = 1.0 / x_count
    return _run_joint(task.circuit, ensemble, rho_ra, target, selection, tol)
