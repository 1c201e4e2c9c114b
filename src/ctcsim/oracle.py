"""Independent brute-force verification of fixed points.

This module deliberately shares no solver code with the engine: it applies
the defining map Tr_CR(U (rho x sigma) U+) directly with numpy and the
compiled circuit unitary, iterating from many random starts. It exists to
certify the exact solver's answers and to expose degenerate (non-unique)
fixed spaces empirically. The map is applied once to the matrix units, which
gives the loop's matrix in the oracle's own row-major convention; all trials
then step together as one stack, one small product per iteration, and every
residual check applies the map itself again.

Randomness: all generators are numpy PCG64 via numpy.random.default_rng.
Per-trial generators are seeded as default_rng([master_seed, trial_index]),
so reports do not depend on scheduling or trial order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, compile_unitary
from .ctc import _checked_cr
from .qmat import (ValidationError, _half_trace_norms, _hermitize, _require_instance,
                   _require_integer, dagger, trace_distance)

RECORD_RESIDUAL = 1e-7     # a limit counts as converged below this
STOP_RESIDUAL = 1e-11      # iteration target; see note below
DEDUP_DISTANCE = 1e-6
CHECK_EVERY = 64
MAX_ITERS = 10 ** 5        # default iteration cap per trial
UNITS_PER_CALL = 64        # matrix units mapped at once to build the step

# The stop target is far below the recording bar on purpose: at spectral gap
# g, a residual r certifies distance <= ~r/g to the true fixed point, so
# stopping at the recording bar would leave slow circuits (g ~ 1e-2) with
# limits only ~1e-5 accurate.


def _rng(d: int, seed) -> np.random.Generator:
    """numpy.random.default_rng(seed) for a draw of dimension d, both checked."""
    _require_integer(d, "dimension")
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad seed {seed!r}: {exc}") from None


def random_density(d: int, seed) -> np.ndarray:
    """G G+ / tr(G G+) for G with i.i.d. standard complex Gaussian entries
    drawn from numpy.random.default_rng(seed) (PCG64); bit-reproducible."""
    rng = _rng(d, seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ dagger(g)
    return m / m.trace().real


def haar_unitaries(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Haar unitaries from a complex Ginibre stack (re + i im) / sqrt(2) of
    shape (..., d, d): each QR decomposition's Q with the R-diagonal phase fix."""
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2))
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]


def random_unitary(d: int, seed) -> np.ndarray:
    """Haar-distributed unitary from a seeded complex Ginibre matrix, real
    then imaginary parts (haar_unitaries); bit-reproducible."""
    rng = _rng(d, seed)
    return haar_unitaries(rng.standard_normal((d, d)), rng.standard_normal((d, d)))


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


def fixed_point_bruteforce(circuit: Circuit, rho_cr, trials: int = 32,
                           iters: int = MAX_ITERS, seed=0) -> OracleReport:
    """Search for fixed points by plain map iteration from random starts.

    The map (a broadcast Kronecker product with rho_cr, a batched
    conjugation by U and a reshaped trace) is applied to the dc^2 matrix
    units |i><j|, 64 at a time, once: row i*dc + j of the resulting
    (dc^2, dc^2) matrix is the image of |i><j|, flattened row-major. The
    trials form one (trials, dc^2) stack of flattened iterates, each step
    one (live, dc^2) x (dc^2, dc^2) product; a running sum gives each
    trial's Cesaro mean (it washes out peripheral eigenvalue oscillation).
    Every 64 steps and at the cap, the map itself is applied to every live
    trial's plain iterate and its Hermitized, normalized mean, and one
    batched eigvalsh scores them, so the definition certifies each limit;
    a trial keeps its best candidate and leaves the `live` index array once
    that residual is <= 1e-11. Limits with residual <= 1e-7 are recorded;
    non-convergence just lowers `converged`. A trials or iters that is not
    an integer >= 1 raises ValidationError.

    Cost: dc^2 applications of the map, then dc^4 per trial and step where
    a conjugation by U costs 2 (cr dc)^3, so slow loops gain while
    dc < 2 cr^3. Peak memory: three (max(64, 2 * trials), D, D) stacks,
    D = circuit.total_dim, and two (dc^2, dc^2) matrices.
    """
    _require_instance(circuit, Circuit, "circuit")
    _require_integer(trials, "trials")
    _require_integer(iters, "iters")
    cr, dc = circuit.cr_dim, circuit.ctc_dim
    rho = _checked_cr(rho_cr, cr)[0]
    u = compile_unitary(circuit)
    uh = dagger(u)

    def apply_map(stack):
        joint = rho[:, None, :, None] * stack[:, None, :, None, :]
        joint = u @ joint.reshape(-1, cr * dc, cr * dc) @ uh
        return joint.reshape(-1, cr, dc, cr, dc).trace(axis1=1, axis2=3)

    units = np.eye(dc * dc, dtype=complex).reshape(-1, dc, dc)
    step = np.concatenate([apply_map(units[k:k + UNITS_PER_CALL])
                           for k in range(0, dc * dc, UNITS_PER_CALL)])
    step = step.reshape(dc * dc, dc * dc)

    start = np.stack([random_density(dc, [seed, t]) for t in range(trials)])
    flat = start.reshape(trials, dc * dc)
    acc, live = np.zeros_like(flat), np.arange(trials)
    best, best_res = start.copy(), np.full(trials, np.inf)
    for it in range(1, iters + 1):
        flat = flat @ step
        acc += flat
        if it % CHECK_EVERY and it != iters:
            continue
        sigma = flat.reshape(-1, dc, dc)
        mean = _hermitize(acc.reshape(-1, dc, dc) / it)
        mean /= mean.trace(axis1=1, axis2=2).real[:, None, None]
        cands = np.concatenate((sigma, mean))
        res = _half_trace_norms(apply_map(cands) - cands)
        plain_res, mean_res = np.split(res, 2)
        take_mean = mean_res < plain_res  # ties go to the plain iterate
        cand_res = np.where(take_mean, mean_res, plain_res)
        better = cand_res < best_res[live]  # ... and to an earlier best
        best[live[better]] = np.where(take_mean[:, None, None], mean, sigma)[better]
        best_res[live[better]] = cand_res[better]
        keep = best_res[live] > STOP_RESIDUAL
        live, flat, acc = live[keep], flat[keep], acc[keep]
        if not live.size:
            break
    limits = best[best_res <= RECORD_RESIDUAL]

    distinct: list[np.ndarray] = []
    for lim in limits:
        if all(trace_distance(lim, seen) > DEDUP_DISTANCE for seen in distinct):
            distinct.append(lim)
    max_pair = max((trace_distance(a, b) for i, a in enumerate(distinct)
                    for b in distinct[i + 1:]), default=0.0)
    return OracleReport(trials=trials, converged=len(limits),
                        distinct_limits=tuple(distinct),
                        max_pairwise_distance=max_pair)
