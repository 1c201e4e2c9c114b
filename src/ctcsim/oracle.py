"""Independent brute-force verification of fixed points.

This module deliberately shares no solver code with the engine: it applies
the defining map Tr_CR(U (rho x sigma) U+) directly with the linear-algebra
primitives and compiled circuit unitary, iterating from many random starts.
It exists to certify the exact solver's answers and to expose degenerate
(non-unique) fixed spaces empirically.

Randomness: all generators are numpy PCG64 via numpy.random.default_rng.
Per-trial generators are seeded as default_rng([master_seed, trial_index]),
so reports do not depend on scheduling or trial order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, compile_unitary
from .qmat import (ValidationError, dagger, kron, partial_trace,
                   require_density, trace_distance)

RECORD_RESIDUAL = 1e-7     # a limit counts as converged below this
STOP_RESIDUAL = 1e-11      # iteration target; see note below
DEDUP_DISTANCE = 1e-6
CHECK_EVERY = 64
MAX_ITERS = 10 ** 5        # default iteration cap per trial

# The stop target is far below the recording bar on purpose: at spectral gap
# g, a residual r certifies distance <= ~r/g to the true fixed point, so
# stopping at the recording bar would leave slow circuits (g ~ 1e-2) with
# limits only ~1e-5 accurate.


def random_density(d: int, seed) -> np.ndarray:
    """G G+ / tr(G G+) for G with i.i.d. standard complex Gaussian entries
    drawn from numpy.random.default_rng(seed) (PCG64); bit-reproducible."""
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ dagger(g)
    return m / m.trace().real


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary from a seeded complex Ginibre QR
    decomposition with the R-diagonal phase fix; bit-reproducible."""
    if d < 1:
        raise ValidationError(f"dimension must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases = phases / np.abs(phases)
    return q * phases


@dataclass(frozen=True)
class OracleReport:
    """Result of brute-force fixed-point search.

    Attributes:
        trials: number of random starts attempted.
        converged: starts whose limit met the recording residual.
        distinct_limits: converged limits deduplicated at trace distance 1e-6.
        max_pairwise_distance: largest trace distance between distinct limits
            (0 when fewer than two).
    """

    trials: int
    converged: int
    distinct_limits: tuple[np.ndarray, ...]
    max_pairwise_distance: float


def _apply_map(u, rho, sigma, cr_dim: int, ctc_dim: int) -> np.ndarray:
    joint = u @ kron(rho, sigma) @ dagger(u)
    return partial_trace(joint, (cr_dim, ctc_dim), keep=[1])


def fixed_point_bruteforce(circuit: Circuit, rho_cr, trials: int = 32,
                           iters: int = MAX_ITERS, seed=0) -> OracleReport:
    """Search for fixed points by plain map iteration from random starts.

    Each trial iterates sigma -> Tr_CR(U (rho_cr x sigma) U+), tracking both
    the plain iterate and its running Cesaro mean (the mean washes out
    peripheral eigenvalue oscillation); every 64 steps the better of the two
    is measured and the trial stops once its residual is <= 1e-11 or the
    iteration cap is reached. Limits with residual <= 1e-7 are recorded;
    non-convergence just lowers `converged`.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    rho = require_density(rho_cr, "rho_cr")
    if rho.shape != (circuit.cr_dim, circuit.cr_dim):
        raise ValidationError(
            f"rho_cr dimension {rho.shape[0]} != CR dimension {circuit.cr_dim}")
    u = compile_unitary(circuit)
    dc = circuit.ctc_dim
    cr = circuit.cr_dim

    def residual_of(sigma):
        return trace_distance(_apply_map(u, rho, sigma, cr, dc), sigma)

    limits: list[np.ndarray] = []
    converged = 0
    for trial in range(trials):
        start = random_density(dc, [seed, trial])
        sigma = start
        acc = np.zeros((dc, dc), dtype=complex)
        best_sigma, best_res = None, np.inf
        for it in range(1, iters + 1):
            sigma = _apply_map(u, rho, sigma, cr, dc)
            acc += sigma
            if it % CHECK_EVERY == 0 or it == iters:
                mean = acc / it
                mean = (mean + dagger(mean)) / 2
                mean = mean / mean.trace().real
                for cand in (sigma, mean):
                    r = residual_of(cand)
                    if r < best_res:
                        best_sigma, best_res = cand, r
                if best_res <= STOP_RESIDUAL:
                    break
        if best_res <= RECORD_RESIDUAL:
            converged += 1
            limits.append(best_sigma)

    distinct: list[np.ndarray] = []
    for lim in limits:
        if all(trace_distance(lim, seen) > DEDUP_DISTANCE for seen in distinct):
            distinct.append(lim)
    max_pair = 0.0
    for i in range(len(distinct)):
        for j in range(i + 1, len(distinct)):
            max_pair = max(max_pair, trace_distance(distinct[i], distinct[j]))
    return OracleReport(trials=trials, converged=converged,
                        distinct_limits=tuple(distinct),
                        max_pairwise_distance=max_pair)
